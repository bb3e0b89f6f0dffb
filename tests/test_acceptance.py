"""Acceptance gate: eleven end-to-end checks over the assembled pipeline.

Each check builds its world from scratch, runs against the public API only,
and finishes inside a stated wall-clock budget. A passing check prints one
summary line so a verbose run reads as a checklist.
"""

import json
import threading
import time

import numpy as np
import pytest
import requests

from factpatch.cli import main as cli_main
from factpatch.decoding import CONTRAST_FULL, TARGET_SUPPRESS, DecodePlan
from factpatch.engine import Engine, build_engine, load_config
from factpatch.evalharness import LOC, record_baselines, run_sequential, sweep
from factpatch.lm import ToyLM, ToyLmSpec, ToyRule, greedy_answer, save_toy_spec
from factpatch.memory import FactStore
from factpatch.retrieval import FactIndex, HashedEmbedder
from factpatch.selector import (
    ScorerParams,
    bce_gradient,
    bce_loss,
    build_training_pairs,
    extract_features,
    fit,
    save_params,
    sigmoid,
)
from factpatch.server import make_server

from conftest import add_to_index
from fixture_cases import SUBJECT_GATE, eight_case_world, fixture_engine
from oracles import brute_force_top_ids, random_facts
from synthworld import build_world


def _pass(name: str, started: float, budget: float, detail: str) -> None:
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"{name} took {elapsed:.1f}s, budget {budget:.0f}s"
    print(f"[acceptance] {name}: PASS ({detail}) in {elapsed:.2f}s, budget {budget:.0f}s")


def _gate_engine(lm, *, alpha: float, k: int = 5, scorer=SUBJECT_GATE) -> Engine:
    return Engine(
        store=FactStore(None),
        index=FactIndex(HashedEmbedder(512)),
        lm=lm,
        scorer=scorer,
        plan=DecodePlan(alpha=alpha),
        k=k,
        threshold=0.5,
    )


# ── 1. conflict flip ──


def _conflict_world(n: int = 50):
    """Hard cases: the stored wording never registers as an in-context claim.

    Each query's own rule keeps P(old) = 0.9, so without contrast the old
    object wins. The fact's object-free prompt hits a second rule that puts
    all mass on the old object, so subtracting that prior lifts the new
    object past it. A shared noteNNNN token ties each query to its fact for
    retrieval without naming the subject in the stored text.
    """
    vocab: list[str] = []
    rules: list[ToyRule] = []
    payloads = []
    queries = []
    for i in range(n):
        subject = f"Entity{i:04d}"
        old, new = f"Old{i:04d}", f"New{i:04d}"
        vocab += [old, new]
        rules.append(
            ToyRule(subject=subject, keywords=("motto",), answers={old: 0.9, new: 0.1})
        )
        rules.append(
            ToyRule(subject=subject, keywords=("declares",), answers={old: 1.0})
        )
        queries.append(f"What motto is associated with {subject}? See note{i:04d}.")
        payloads.append(
            (subject, "The wording {s} declares is", new, old,
             f"note{i:04d} lists {new} as the preferred motto wording")
        )
    spec = ToyLmSpec(vocabulary=tuple(vocab), rules=tuple(rules), beta=0.6)
    return spec, payloads, queries


def _loaded_engine(spec, payloads, alpha: float) -> Engine:
    engine = _gate_engine(ToyLM(spec), alpha=alpha)
    for subject, relation, new, old, surface in payloads:
        engine.add_fact(subject, relation, new, old_object=old, surface_text=surface)
    return engine


def test_criterion_01_conflict_flip():
    started = time.monotonic()
    spec, payloads, queries = _conflict_world(50)
    with_contrast = _loaded_engine(spec, payloads, alpha=0.2)
    without = _loaded_engine(spec, payloads, alpha=0.0)
    new_hits = old_hits = 0
    for i, query in enumerate(queries):
        answer_c, trace_c = with_contrast.answer(query)
        answer_0, trace_0 = without.answer(query)
        assert not trace_c.fallback_used and not trace_0.fallback_used
        new_hits += answer_c == f"New{i:04d}"
        old_hits += answer_0 == f"Old{i:04d}"
    assert new_hits == 50, f"alpha=0.2 answered the new object on {new_hits}/50"
    assert old_hits >= 10, f"alpha=0 kept the old object on only {old_hits}/50"
    _pass(
        "conflict flip", started, 10.0,
        f"new {new_hits}/50 at alpha=0.2, old {old_hits}/50 at alpha=0",
    )


def test_conflict_needs_unclaimed_context():
    """Boundary for check 1: plainly worded facts flip at every alpha.

    When the stored line names the subject next to the new object, the
    blended in-context share (beta = 0.6) alone beats a 0.9 prior, so no
    such case can answer the old object at alpha = 0. Hard cases must keep
    the claim out of the stored wording, as _conflict_world does.
    """
    vocab: list[str] = []
    rules: list[ToyRule] = []
    payloads = []
    queries = []
    for i in range(50):
        subject = f"Entity{i:04d}"
        old, new = f"Old{i:04d}", f"New{i:04d}"
        vocab += [old, new]
        rules.append(
            ToyRule(subject=subject, keywords=("motto",), answers={old: 0.9, new: 0.1})
        )
        queries.append(f"What motto is associated with {subject}?")
        payloads.append((subject, "The motto of {s} is", new, old, None))
    spec = ToyLmSpec(vocabulary=tuple(vocab), rules=tuple(rules), beta=0.6)
    without = _loaded_engine(spec, payloads, alpha=0.0)
    with_contrast = _loaded_engine(spec, payloads, alpha=0.2)
    old_at_zero = sum(
        without.answer(q)[0] == f"Old{i:04d}" for i, q in enumerate(queries)
    )
    new_at_02 = sum(
        with_contrast.answer(q)[0] == f"New{i:04d}" for i, q in enumerate(queries)
    )
    assert old_at_zero == 0
    assert new_at_02 == 50


# ── 2. untrained scorer stays inert ──


def test_criterion_02_untrained_scorer_is_inert():
    started = time.monotonic()
    world = build_world(easy=50, aligned=50, seed=5)
    engine = _gate_engine(world.lm(), alpha=0.2, scorer=ScorerParams.untrained())
    report = run_sequential(engine, world.cases)
    assert report.locality == 1.0
    loc_records = [r for r in report.records if r.query_type == LOC]
    assert len(loc_records) == 100
    unedited = world.lm()
    for record in report.records:
        assert record.fallback_used
        bare = greedy_answer(unedited, record.query, engine.plan.max_answer_tokens)
        assert record.got == bare, f"{record.query!r} diverged from the bare model"
    _pass(
        "untrained scorer is inert", started, 5.0,
        f"locality 1.0 over {len(loc_records)} probes, "
        f"{len(report.records)} answers byte-identical",
    )


# ── 3. retrieval equals brute force ──


def test_criterion_03_retrieval_matches_brute_force():
    started = time.monotonic()
    buckets = 512
    facts = random_facts(1000, seed=0, dup_rate=0.05)
    index = FactIndex(HashedEmbedder(buckets=buckets))
    for fact in facts:
        add_to_index(index, fact)
    rng = np.random.default_rng(1)
    queries = []
    for _ in range(100):
        donor = facts[int(rng.integers(len(facts)))]
        words = donor.surface_text.split()
        take = int(rng.integers(3, min(9, len(words) + 1)))
        picked = [words[int(rng.integers(len(words)))] for _ in range(take)]
        queries.append(" ".join(picked))
    for query in queries:
        got = [scored.fact.fact_id for scored in index.top_k(query, 5)]
        want = brute_force_top_ids(facts, query, 5, buckets)
        assert got == want, f"order mismatch for {query!r}"
    _pass(
        "retrieval equals brute force", started, 10.0,
        "1000 facts, 100 queries, top-5 identical",
    )


# ── 4. selector training ──


def test_criterion_04_selector_training():
    started = time.monotonic()
    world = build_world(easy=125, aligned=125, seed=4)
    pairs = build_training_pairs(world.cases, negatives_per_positive=1, seed=42)
    assert len(pairs) == 1000
    features = np.stack([extract_features(p.query, p.fact) for p in pairs])
    labels = np.array([p.label for p in pairs], dtype=np.float64)

    rng = np.random.default_rng(42)
    order = rng.permutation(len(pairs))
    holdout, training = order[:200], order[200:]
    params, losses = fit(features[training], labels[training], seed=42)
    probs = sigmoid(features[holdout] @ params.weights + params.bias)
    accuracy = float(np.mean((probs > 0.5) == (labels[holdout] > 0.5)))
    assert accuracy >= 0.95, f"held-out accuracy {accuracy:.4f}"
    assert losses[-1] < losses[0]

    worst = 0.0
    for _ in range(20):
        rows = rng.choice(len(pairs), size=32, replace=False)
        point = ScorerParams(weights=rng.normal(0, 1, 5), bias=float(rng.normal()))
        grad_w, grad_b = bce_gradient(point, features[rows], labels[rows])
        analytic = np.append(grad_w, grad_b)
        numeric = np.empty(6)
        eps = 1e-6
        for j in range(6):
            bump = np.zeros(6)
            bump[j] = eps
            up = ScorerParams(weights=point.weights + bump[:5], bias=point.bias + bump[5])
            down = ScorerParams(weights=point.weights - bump[:5], bias=point.bias - bump[5])
            numeric[j] = (
                bce_loss(up, features[rows], labels[rows])
                - bce_loss(down, features[rows], labels[rows])
            ) / (2 * eps)
        scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
        worst = max(worst, float(np.max(np.abs(analytic - numeric) / scale)))
    assert worst <= 1e-4, f"worst relative gradient error {worst:.2e}"
    _pass(
        "selector training", started, 30.0,
        f"held-out accuracy {accuracy:.3f} on 200 of 1000 pairs, "
        f"gradient error {worst:.1e}",
    )


# ── 5. metric arithmetic ──


def test_criterion_05_metric_arithmetic():
    started = time.monotonic()
    spec, cases = eight_case_world()
    report = run_sequential(fixture_engine(spec), cases)
    assert report.reliability == pytest.approx(0.75, abs=1e-9)
    assert report.generality == pytest.approx(0.5, abs=1e-9)
    assert report.locality == pytest.approx(0.875, abs=1e-9)
    assert report.average == pytest.approx(17 / 24, abs=1e-9)
    _pass(
        "metric arithmetic", started, 2.0,
        "8 cases: rel 0.75, gen 0.5, loc 0.875, avg 17/24",
    )


# ── 6. contrast strength sweep ──


def test_criterion_06_alpha_sweep_shape():
    started = time.monotonic()
    world = build_world(easy=10, fragile=10, aligned=10, seed=3)
    baselines = record_baselines(world.lm(), world.cases)

    def make_engine(alpha: float) -> Engine:
        return _gate_engine(world.lm(), alpha=alpha)

    alphas = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
    rows = sweep(alphas, world.cases, make_engine, baselines=baselines)
    assert len(rows) == 6
    assert all("error" not in row for row in rows)
    averages = [row["average"] for row in rows]
    generalities = [row["generality"] for row in rows]
    peak = int(np.argmax(averages))
    assert 0 < peak < len(alphas) - 1, f"average peaked at the edge, alpha={alphas[peak]}"
    assert averages[0] < averages[peak]
    assert averages[-1] < averages[peak]
    assert generalities[-1] < generalities[peak]
    _pass(
        "alpha sweep shape", started, 120.0,
        f"peak avg {averages[peak]:.3f} at alpha={alphas[peak]}, "
        f"edges {averages[0]:.3f}/{averages[-1]:.3f}",
    )


# ── 7. retrieval depth sweep ──


def test_criterion_07_k_sweep_shape():
    started = time.monotonic()
    world = build_world(easy=4, aligned=2, fragile=2, decoy_pairs=2, seed=11)
    baselines = record_baselines(world.lm(), world.cases)

    def make_engine(k: int) -> Engine:
        return _gate_engine(world.lm(), alpha=0.2, k=k)

    ks = [0, 1, 5, 10]
    rows = sweep(ks, world.cases, make_engine, baselines=baselines)
    assert len(rows) == 4
    assert all("error" not in row for row in rows)
    by_k = {row["value"]: row for row in rows}
    for k in ks[1:]:
        dominated = (
            by_k[0]["reliability"] > by_k[k]["reliability"]
            and by_k[0]["generality"] > by_k[k]["generality"]
        )
        assert not dominated, f"k=0 strictly dominates k={k}"
    assert by_k[5]["average"] >= by_k[1]["average"]
    assert by_k[5]["generality"] > by_k[1]["generality"]
    _pass(
        "k sweep shape", started, 60.0,
        f"averages k0={by_k[0]['average']:.3f} k1={by_k[1]['average']:.3f} "
        f"k5={by_k[5]['average']:.3f} k10={by_k[10]['average']:.3f}",
    )


# ── 8. long edit streams stay stable ──


def test_criterion_08_sequential_stability():
    started = time.monotonic()
    world = build_world(easy=500, aligned=300, fragile=200, seed=8)
    engine = _gate_engine(world.lm(), alpha=0.2)
    checkpoints = list(range(100, 1001, 100))
    report = run_sequential(engine, world.cases, checkpoints=checkpoints)
    assert len(report.curve) == 10
    first, last = report.curve[0], report.curve[-1]
    assert last.step == 1000 and first.step == 100
    drift = abs(last.reliability - first.reliability)
    assert drift <= 0.05, f"reliability drifted {drift:.3f} from edit 100 to 1000"
    assert last.reliability == report.reliability
    _pass(
        "sequential stability", started, 180.0,
        f"rel {first.reliability:.3f} at 100 edits, {last.reliability:.3f} at 1000, "
        f"drift {drift:.3f}",
    )


# ── 9. decode traces recompute ──


def test_criterion_09_trace_identity():
    started = time.monotonic()
    world = build_world(easy=40, aligned=30, fragile=30, seed=9)
    engine = _gate_engine(world.lm(), alpha=0.2)
    for case in world.cases:
        engine.add_case_fact(case)
    queries = []
    for case in world.cases:
        queries.append(case.rel_queries[0].query)
        queries.append(case.gen_queries[0].query)
    assert len(queries) == 200

    alphas = [0.0, 0.1, 0.2, 0.3, 0.5]
    modes = [CONTRAST_FULL, TARGET_SUPPRESS]
    checked = 0
    for n, query in enumerate(queries):
        alpha = alphas[n % len(alphas)]
        mode = modes[n % len(modes)]
        _, trace = engine.answer(query, alpha=alpha, mode=mode)
        assert not trace.fallback_used
        assert trace.alpha == alpha and trace.mode == mode
        for cand in trace.candidates:
            recomputed = cand.l_new - trace.alpha * cand.l_prior
            assert abs(cand.adjusted - recomputed) <= 1e-9
        _, bare = engine.answer(query, alpha=0.0, mode=mode)
        expected = sorted(bare.candidates, key=lambda c: (-c.l_new, c.token))[0].token
        assert bare.chosen_first_token == expected
        checked += 1
    assert checked == 200
    _pass(
        "trace identity", started, 10.0,
        "200 traces recompute to 1e-9, alpha=0 keeps the unadjusted argmax",
    )


# ── 10. persistence and determinism ──


def test_criterion_10_persistence_and_determinism(tmp_path):
    started = time.monotonic()
    path = tmp_path / "facts.jsonl"
    store = FactStore(path)
    for fact in random_facts(1000, seed=10, dup_rate=0.05):
        store.append(
            fact.subject, fact.relation, fact.new_object,
            old_object=fact.old_object, surface_text=fact.surface_text,
        )
    reloaded = FactStore(path)
    before, after = store.snapshot().facts, reloaded.snapshot().facts
    assert len(after) == 1000
    for a, b in zip(before, after):
        assert (a.fact_id, a.seq, a.subject, a.relation, a.old_object,
                a.new_object, a.surface_text) == (
            b.fact_id, b.seq, b.subject, b.relation, b.old_object,
            b.new_object, b.surface_text)

    world = build_world(easy=30, aligned=15, fragile=15, seed=10)
    outputs = []
    for run in ("one", "two"):
        report = run_sequential(_gate_engine(world.lm(), alpha=0.2), world.cases)
        summary = tmp_path / f"summary-{run}.json"
        records = tmp_path / f"records-{run}.csv"
        report.save_summary(summary)
        report.save_records_csv(records)
        outputs.append((summary.read_bytes(), records.read_bytes()))
    assert outputs[0] == outputs[1]
    _pass(
        "persistence and determinism", started, 30.0,
        "1000-fact reload identical, repeated runs byte-identical",
    )


# ── 11. serving matches the CLI ──


def test_criterion_11_serve_matches_cli(tmp_path, capsys):
    started = time.monotonic()
    world = build_world(easy=10, aligned=10, seed=11)
    memory_path = tmp_path / "facts.jsonl"
    store = FactStore(memory_path)
    for case in world.cases:
        store.append(
            case.subject, case.relation, case.new_object,
            old_object=case.old_object, surface_text=case.surface,
        )
    spec_path = tmp_path / "model.json"
    save_toy_spec(world.spec, spec_path)
    gate_path = tmp_path / "gate.json"
    save_params(SUBJECT_GATE, gate_path)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "memory_path": str(memory_path),
        "retrieval": {"k": 5, "buckets": 512},
        "selector": {"params_path": str(gate_path), "threshold": 0.5},
        "lm": {"kind": "toy", "spec_path": str(spec_path)},
        "decode": {"alpha": 0.2},
    }), encoding="utf-8")

    engine = build_engine(load_config(config_path))
    server = make_server(engine, host="127.0.0.1", port=0)
    host, port = server.server_address[:2]
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    )
    thread.start()
    try:
        queries = [case.rel_queries[0].query for case in world.cases]
        assert len(queries) == 20
        for query in queries:
            response = requests.post(
                f"http://{host}:{port}/query", json={"query": query}, timeout=10
            )
            assert response.status_code == 200
            served = response.json()["answer"]
            code = cli_main(["ask", query, "--config", str(config_path)])
            assert code == 0
            cli_answer = capsys.readouterr().out.rstrip("\n")
            assert served == cli_answer, f"{query!r}: {served!r} != {cli_answer!r}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    _pass(
        "serving matches the CLI", started, 10.0,
        "20 loopback answers equal the CLI answers",
    )
