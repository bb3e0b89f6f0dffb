"""Command line entry point.

Settings resolve in three layers: built-in defaults, then the --config JSON
file, then explicit flags. Every data-touching error exits 2 with a one-line
message on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys

import numpy as np

from . import __version__
from .engine import EngineConfig, build_engine, load_config, read_config
from .errors import ConfigError, FactPatchError
from .evalharness import (
    load_cases,
    record_baselines,
    run_sequential,
    save_sweep_csv,
    sweep,
)
from .files import read_records
from .memory import FactStore, payload_from_dict
from .selector import (
    bce_loss,
    build_training_pairs,
    extract_features,
    fit,
    save_params,
    sigmoid,
)
from .server import make_server

logger = logging.getLogger(__name__)

def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    """One flag per EngineConfig field; each flag's dest is the field it sets."""
    add = parser.add_argument
    add("--config", help="engine config JSON file")
    add("--memory", dest="memory_path", help="fact store JSONL path")
    add("--k", dest="retrieval_k", type=int, help="retrieval depth")
    add("--buckets", dest="embedder_buckets", type=int, help="hashed embedder dimension")
    add("--selector-params", dest="selector_params_path", help="trained selector weights JSON")
    add("--threshold", dest="selector_threshold", type=float,
        help="selection probability threshold")
    add("--lm", dest="lm_kind", choices=["toy", "remote"], help="language model kind")
    add("--lm-spec", dest="lm_spec_path", help="toy lm spec JSON path")
    add("--lm-url", dest="lm_url", help="remote lm endpoint")
    add("--lm-model", dest="lm_model", help="remote lm model name")
    add("--lm-top-n", dest="lm_top_n", type=int, help="logprobs requested per step")
    add("--lm-auth-env", dest="lm_auth_token_env", help="env var holding the lm bearer token")
    add("--alpha", dest="alpha", type=float, help="contrast strength")
    add("--mode", dest="mode", choices=["contrast-full", "target-suppress"])
    add("--max-answer-tokens", dest="max_answer_tokens", type=int)
    add("--instruction", dest="instruction_template", help="context instruction template")


def _resolve_config(args: argparse.Namespace) -> EngineConfig:
    fields = {f.name: getattr(args, f.name) for f in dataclasses.fields(EngineConfig)}
    return load_config(args.config or None, **fields)


def _fmt(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.4f}"


# ── subcommands ──


def _cmd_edit(args: argparse.Namespace) -> int:
    memory_path = args.memory
    if memory_path is None and args.config:
        memory_path = read_config(args.config).get("memory_path")
    if not memory_path:
        raise ConfigError("edit needs a memory path (--memory or memory_path in --config)")
    store = FactStore(memory_path)
    if args.import_path:
        # Every line is validated before the first append.
        payloads = read_records(args.import_path, lambda record, _: payload_from_dict(record))
        for payload in payloads:
            store.append(**payload)
        print(f"imported {len(payloads)} facts into {memory_path}")
        return 0
    if not (args.subject and args.relation and args.new_object):
        raise ConfigError("edit needs --subject, --relation and --new-object (or --import)")
    fact = store.append(**payload_from_dict({
        "subject": args.subject, "relation": args.relation, "new_object": args.new_object,
        "old_object": args.old_object, "surface_text": args.surface,
    }))
    print(f"added {fact.fact_id} (seq {fact.seq})")
    return 0


def _cmd_ask(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    engine = build_engine(config)
    text, trace = engine.answer(args.query)
    print(text)
    if args.trace:
        trace.save(args.trace)
        logger.info("trace written to %s", args.trace)
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    cases = load_cases(args.cases, format=args.format)
    if not cases:
        raise ConfigError(f"{args.cases} contains no cases")
    out_dir = None
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        out_dir = args.out_dir

    if args.sweep:
        if not args.values:
            raise ConfigError("--sweep needs --values")
        values = _parse_sweep_values(args.sweep, args.values)
        base = build_engine(config, in_memory=True)
        baselines = record_baselines(base.lm, cases, config.max_answer_tokens)

        def make_engine(value):
            engine = build_engine(config, in_memory=True)
            if args.sweep == "alpha":
                engine.plan = dataclasses.replace(engine.plan, alpha=value)
            else:
                engine.k = value
            return engine

        rows = sweep(values, cases, make_engine, baselines=baselines)
        print(f"sweep over {args.sweep}:")
        for row in rows:
            if "error" in row:
                print(f"  {args.sweep}={row['value']}: error: {row['error']}")
            else:
                print(
                    f"  {args.sweep}={row['value']}: reliability={_fmt(row['reliability'])} "
                    f"generality={_fmt(row['generality'])} locality={_fmt(row['locality'])} "
                    f"average={_fmt(row['average'])}"
                )
        if out_dir:
            save_sweep_csv(rows, f"{out_dir}/sweep.csv")
            print(f"wrote {out_dir}/sweep.csv")
        return 0

    engine = build_engine(config, in_memory=True)
    checkpoints = _parse_checkpoints(args.checkpoints) if args.checkpoints else None
    report = run_sequential(engine, cases, checkpoints=checkpoints)
    print(f"cases       {report.cases}")
    print(f"reliability {_fmt(report.reliability)}")
    print(f"generality  {_fmt(report.generality)}")
    print(f"locality    {_fmt(report.locality)}")
    print(f"average     {_fmt(report.average)}")
    for point in report.curve:
        print(
            f"  after {point.step}: reliability={_fmt(point.reliability)} "
            f"generality={_fmt(point.generality)} locality={_fmt(point.locality)} "
            f"average={_fmt(point.average)}"
        )
    if out_dir:
        report.save_summary(f"{out_dir}/summary.json")
        report.save_records_csv(f"{out_dir}/records.csv")
        print(f"wrote {out_dir}/summary.json and {out_dir}/records.csv")
    return 0


def _parse_checkpoints(raw: str) -> list[int]:
    try:
        points = [int(part) for part in raw.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --checkpoints value: {raw!r}") from exc
    if not points:
        raise ConfigError("--checkpoints is empty")
    return points


def _parse_sweep_values(parameter: str, raw: str) -> list:
    parts = [part.strip() for part in raw.split(",") if part.strip()]
    if not parts:
        raise ConfigError("--values is empty")
    try:
        if parameter == "k":
            values = [int(part) for part in parts]
            if any(v < 0 for v in values):
                raise ConfigError("k values must be >= 0")
            return values
        return [float(part) for part in parts]
    except ValueError as exc:
        raise ConfigError(f"bad --values entry in {raw!r}") from exc


def _cmd_train_selector(args: argparse.Namespace) -> int:
    cases = load_cases(args.cases, format=args.format)
    pairs = build_training_pairs(
        cases, negatives_per_positive=args.negatives, seed=args.seed
    )
    features = np.stack([extract_features(p.query, p.fact) for p in pairs])
    labels = np.array([p.label for p in pairs], dtype=np.float64)
    rng = np.random.default_rng(args.seed)
    order = rng.permutation(len(pairs))
    n_holdout = max(1, int(len(pairs) * args.holdout)) if args.holdout > 0 else 0
    holdout_idx, train_idx = order[:n_holdout], order[n_holdout:]
    if train_idx.size == 0 or len(set(labels[train_idx])) < 2:
        raise ConfigError("not enough training pairs after the holdout split")
    params, _ = fit(
        features[train_idx], labels[train_idx],
        epochs=args.epochs, learning_rate=args.learning_rate,
        batch_size=args.batch_size, seed=args.seed,
    )
    # Zero epochs return the initial parameters and no per-epoch losses.
    train_loss = bce_loss(params, features[train_idx], labels[train_idx])
    print(f"trained on {train_idx.size} pairs, final loss {train_loss:.4f}")
    if n_holdout:
        probs = sigmoid(features[holdout_idx] @ params.weights + params.bias)
        accuracy = float(np.mean((probs > 0.5) == (labels[holdout_idx] > 0.5)))
        holdout_loss = bce_loss(params, features[holdout_idx], labels[holdout_idx])
        print(f"holdout accuracy {accuracy:.4f} on {n_holdout} pairs (loss {holdout_loss:.4f})")
    save_params(params, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    engine = build_engine(config)
    server = make_server(engine, host=args.host, port=args.port)
    host, port = server.server_address[:2]
    print(f"listening on http://{host}:{port} (v{__version__})")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.server_close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="factpatch",
        description="Edit a language model's factual answers through retrieved memory.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_edit = sub.add_parser("edit", help="append facts to the store")
    p_edit.add_argument("--config", help="engine config JSON file")
    p_edit.add_argument("--memory", help="fact store JSONL path")
    p_edit.add_argument("--subject")
    p_edit.add_argument("--relation")
    p_edit.add_argument("--new-object")
    p_edit.add_argument("--old-object")
    p_edit.add_argument("--surface", help="override the rendered surface text")
    p_edit.add_argument("--import", dest="import_path", help="bulk import a JSONL fact file")
    p_edit.set_defaults(func=_cmd_edit)

    p_ask = sub.add_parser("ask", help="answer one query through the edited model")
    p_ask.add_argument("query")
    p_ask.add_argument("--trace", help="write the decode trace JSON here")
    _add_engine_flags(p_ask)
    p_ask.set_defaults(func=_cmd_ask)

    p_eval = sub.add_parser("eval", help="run the sequential editing evaluation")
    p_eval.add_argument("--cases", required=True, help="evaluation case file")
    p_eval.add_argument(
        "--format", default="canonical",
        choices=["canonical", "zsre", "counterfact", "ripe"],
    )
    p_eval.add_argument("--checkpoints", help="comma-separated edit counts to measure at")
    p_eval.add_argument("--out-dir", help="write summary.json and records.csv here")
    p_eval.add_argument("--sweep", choices=["alpha", "k"], help="sweep one parameter")
    p_eval.add_argument("--values", help="comma-separated sweep values")
    _add_engine_flags(p_eval)
    p_eval.set_defaults(func=_cmd_eval)

    p_train = sub.add_parser("train-selector", help="fit selector weights from cases")
    p_train.add_argument("--cases", required=True)
    p_train.add_argument(
        "--format", default="canonical",
        choices=["canonical", "zsre", "counterfact", "ripe"],
    )
    p_train.add_argument("--out", required=True, help="where to write the weights JSON")
    p_train.add_argument("--epochs", type=int, default=40)
    p_train.add_argument("--learning-rate", type=float, default=0.5)
    p_train.add_argument("--batch-size", type=int, default=32)
    p_train.add_argument("--negatives", type=int, default=1)
    p_train.add_argument("--holdout", type=float, default=0.2)
    p_train.add_argument("--seed", type=int, default=0)
    p_train.set_defaults(func=_cmd_train_selector)

    p_serve = sub.add_parser("serve", help="serve the engine over HTTP")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8080)
    _add_engine_flags(p_serve)
    p_serve.set_defaults(func=_cmd_serve)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FactPatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
