"""Command line flows, driven through main() in-process. No subprocesses."""

import argparse
import csv
import dataclasses
import json
import re
from pathlib import Path

import pytest

from factpatch import __version__
from factpatch.cli import build_parser, main
from factpatch.engine import _SECTION_KEYS, _TOP_KEYS, EngineConfig, flatten_config
from factpatch.evalharness import save_cases
from factpatch.lm import save_toy_spec
from factpatch.memory import FactStore
from factpatch.selector import load_params

from conftest import capitals_spec
from fixture_cases import SUBJECT_GATE, eight_case_world
from synthworld import build_world

CAPITAL_REL = "The capital of {s} is"


@pytest.fixture
def spec_path(tmp_path):
    path = tmp_path / "model.json"
    save_toy_spec(capitals_spec(), path)
    return str(path)


@pytest.fixture
def gate_path(tmp_path):
    from factpatch.selector import save_params

    path = tmp_path / "gate.json"
    save_params(SUBJECT_GATE, path)
    return str(path)


@pytest.fixture
def memory_path(tmp_path):
    path = tmp_path / "facts.jsonl"
    FactStore(path).append("France", CAPITAL_REL, "Rome", old_object="Paris")
    return str(path)


def write_config(tmp_path, name="config.json", **data) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


@pytest.fixture
def ask_config(tmp_path, spec_path, gate_path, memory_path):
    return write_config(
        tmp_path,
        memory_path=memory_path,
        retrieval={"buckets": 512},
        selector={"params_path": gate_path},
        lm={"kind": "toy", "spec_path": spec_path},
    )


def run(capsys, argv) -> tuple[int, str, str]:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVersion:
    def test_version_flag_prints_and_exits(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_no_command_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2


class TestEdit:
    def test_single_add_reports_id_and_seq(self, capsys, tmp_path):
        memory = str(tmp_path / "m.jsonl")
        code, out, _ = run(capsys, [
            "edit", "--memory", memory,
            "--subject", "France", "--relation", CAPITAL_REL,
            "--new-object", "Rome", "--old-object", "Paris",
        ])
        assert code == 0
        assert out.startswith("added ")
        assert "(seq 0)" in out
        store = FactStore(memory)
        assert len(store) == 1
        fact = store.snapshot().facts[0]
        assert fact.surface_text == "The capital of France is Rome"
        assert fact.old_object == "Paris"
        assert fact.fact_id in out

    def test_seq_continues_across_invocations(self, capsys, tmp_path):
        memory = str(tmp_path / "m.jsonl")
        base = ["edit", "--memory", memory, "--relation", CAPITAL_REL]
        run(capsys, base + ["--subject", "France", "--new-object", "Rome"])
        code, out, _ = run(capsys, base + ["--subject", "Italy", "--new-object", "Lyon"])
        assert code == 0
        assert "(seq 1)" in out

    def test_surface_override_is_stored_verbatim(self, capsys, tmp_path):
        memory = str(tmp_path / "m.jsonl")
        code, _, _ = run(capsys, [
            "edit", "--memory", memory,
            "--subject", "France", "--relation", CAPITAL_REL,
            "--new-object", "Rome", "--surface", "Everyone knows France chose Rome",
        ])
        assert code == 0
        snapshot = FactStore(memory).snapshot()
        assert snapshot.facts[0].surface_text == "Everyone knows France chose Rome"

    def test_missing_new_object_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, [
            "edit", "--memory", str(tmp_path / "m.jsonl"),
            "--subject", "France", "--relation", CAPITAL_REL,
        ])
        assert code == 2
        assert err.startswith("error:")
        assert "--new-object" in err

    def test_missing_memory_exits_2(self, capsys):
        code, _, err = run(capsys, [
            "edit", "--subject", "France", "--relation", CAPITAL_REL, "--new-object", "Rome",
        ])
        assert code == 2
        assert "memory path" in err

    def test_memory_path_can_come_from_config(self, capsys, tmp_path):
        memory = str(tmp_path / "m.jsonl")
        config = write_config(tmp_path, memory_path=memory)
        code, out, _ = run(capsys, [
            "edit", "--config", config,
            "--subject", "France", "--relation", CAPITAL_REL, "--new-object", "Rome",
        ])
        assert code == 0
        assert "(seq 0)" in out
        assert len(FactStore(memory)) == 1

    def test_import_jsonl(self, capsys, tmp_path):
        rows = [
            {"subject": "France", "relation": CAPITAL_REL, "new_object": "Rome",
             "old_object": "Paris"},
            {"subject": "Italy", "relation": CAPITAL_REL, "new_object": "Lyon"},
            {"subject": "sky", "relation": "The color of {s} is", "new_object": "red",
             "surface_text": "The sky turned red last night"},
        ]
        imports = tmp_path / "facts_in.jsonl"
        imports.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        memory = str(tmp_path / "m.jsonl")
        code, out, _ = run(capsys, ["edit", "--memory", memory, "--import", str(imports)])
        assert code == 0
        assert f"imported 3 facts into {memory}" in out
        facts = FactStore(memory).snapshot().facts
        assert [f.subject for f in facts] == ["France", "Italy", "sky"]
        assert facts[1].old_object is None
        assert facts[2].surface_text == "The sky turned red last night"

    def test_import_bad_line_exits_2(self, capsys, tmp_path):
        imports = tmp_path / "facts_in.jsonl"
        imports.write_text(
            json.dumps({"subject": "a", "relation": "r {s}", "new_object": "b"})
            + "\nnot json\n",
            encoding="utf-8",
        )
        code, _, err = run(capsys, [
            "edit", "--memory", str(tmp_path / "m.jsonl"), "--import", str(imports),
        ])
        assert code == 2
        assert err.startswith("error:")

    def test_fact_that_cannot_be_embedded_exits_2_and_persists_nothing(self, capsys, tmp_path):
        memory = tmp_path / "m.jsonl"
        base = ["edit", "--memory", str(memory), "--relation", CAPITAL_REL]
        assert run(capsys, base + ["--subject", "France", "--new-object", "Rome"])[0] == 0
        before = memory.read_bytes()
        code, _, err = run(capsys, base + [
            "--subject", "Italy", "--new-object", "Lyon", "--surface", "???",
        ])
        assert code == 2
        assert "alphanumeric" in err
        imports = tmp_path / "facts_in.jsonl"
        imports.write_text(
            json.dumps({"subject": "Spain", "relation": CAPITAL_REL, "new_object": "Lyon"})
            + "\n"
            + json.dumps({"subject": "日本", "relation": "{s}", "new_object": "！"})
            + "\n",
            encoding="utf-8",
        )
        code, _, err = run(capsys, ["edit", "--memory", str(memory), "--import", str(imports)])
        assert code == 2
        assert f"{imports}:2" in err
        assert memory.read_bytes() == before

    def test_import_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, [
            "edit", "--memory", str(tmp_path / "m.jsonl"),
            "--import", str(tmp_path / "nope.jsonl"),
        ])
        assert code == 2
        assert "could not read" in err


class TestAsk:
    def test_edited_answer_end_to_end(self, capsys, ask_config):
        code, out, _ = run(capsys, [
            "ask", "What is the capital of France?", "--config", ask_config,
        ])
        assert code == 0
        assert out.strip() == "Rome of course"

    def test_trace_file_records_the_decision(self, capsys, tmp_path, ask_config):
        trace_path = tmp_path / "trace.json"
        code, _, _ = run(capsys, [
            "ask", "What is the capital of France?",
            "--config", ask_config, "--trace", str(trace_path),
        ])
        assert code == 0
        data = json.loads(trace_path.read_text(encoding="utf-8"))
        assert data["alpha"] == 0.2  # built-in default, config sets none
        assert data["fallback_used"] is False
        assert data["chosen_first_token"] == "Rome"
        assert data["final_answer"] == "Rome of course"
        assert len(data["selected_fact_ids"]) == 1

    def test_flag_beats_config_file(self, capsys, tmp_path, spec_path, gate_path, memory_path):
        config = write_config(
            tmp_path,
            memory_path=memory_path,
            retrieval={"buckets": 512},
            selector={"params_path": gate_path},
            lm={"kind": "toy", "spec_path": spec_path},
            decode={"alpha": 0.3},
        )
        trace_path = tmp_path / "trace.json"
        code, _, _ = run(capsys, [
            "ask", "What is the capital of France?",
            "--config", config, "--alpha", "0.5", "--trace", str(trace_path),
        ])
        assert code == 0
        data = json.loads(trace_path.read_text(encoding="utf-8"))
        assert data["alpha"] == 0.5

    def test_config_file_beats_defaults(self, capsys, tmp_path, spec_path, gate_path,
                                        memory_path):
        config = write_config(
            tmp_path,
            memory_path=memory_path,
            retrieval={"buckets": 512},
            selector={"params_path": gate_path},
            lm={"kind": "toy", "spec_path": spec_path},
            decode={"alpha": 0.3},
        )
        trace_path = tmp_path / "trace.json"
        run(capsys, [
            "ask", "What is the capital of France?",
            "--config", config, "--trace", str(trace_path),
        ])
        data = json.loads(trace_path.read_text(encoding="utf-8"))
        assert data["alpha"] == 0.3

    def test_unrelated_query_falls_back(self, capsys, tmp_path, ask_config):
        trace_path = tmp_path / "trace.json"
        code, out, _ = run(capsys, [
            "ask", "What color is the sky?", "--config", ask_config,
            "--trace", str(trace_path),
        ])
        assert code == 0
        assert out.strip() == "blue"
        data = json.loads(trace_path.read_text(encoding="utf-8"))
        assert data["fallback_used"] is True
        assert data["selected_fact_ids"] == []

    @pytest.mark.parametrize("bad,where", [
        ({"subject": "Italy"}, ""),  # the fact_id repeats
        ({"fact_id": "f000001-x", "surface_text": "？！"}, ":2"),
    ], ids=["repeated-fact-id", "no-alphanumerics"])
    def test_memory_the_engine_cannot_load_exits_2_naming_the_file(
        self, capsys, ask_config, memory_path, bad, where
    ):
        first = json.loads(Path(memory_path).read_text(encoding="utf-8"))
        with open(memory_path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({**first, "seq": 1, **bad}) + "\n")
        code, _, err = run(capsys, ["ask", "The capital of France is", "--config", ask_config])
        assert code == 2
        assert err.startswith(f"error: {memory_path}{where}: ")

    def test_missing_spec_exits_2(self, capsys, tmp_path):
        config = write_config(tmp_path, lm={"kind": "toy"})
        code, _, err = run(capsys, ["ask", "anything", "--config", config])
        assert code == 2
        assert "lm_spec_path" in err

    def test_invalid_config_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope", encoding="utf-8")
        code, _, err = run(capsys, ["ask", "anything", "--config", str(path)])
        assert code == 2
        assert "not valid JSON" in err

    def test_unknown_config_key_exits_2(self, capsys, tmp_path):
        config = write_config(tmp_path, retrievall={"k": 2})
        code, _, err = run(capsys, ["ask", "anything", "--config", config])
        assert code == 2
        assert "unknown config key" in err

    def test_missing_config_file_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, [
            "ask", "anything", "--config", str(tmp_path / "absent.json"),
        ])
        assert code == 2
        assert "could not read" in err

    def test_flags_complete_and_override_the_file_before_validation(
        self, capsys, tmp_path, spec_path, gate_path
    ):
        # A decoy whose surface text is the query itself ranks first, and the
        # gate rejects it (its subject is not in the query); France's fact
        # ranks second, so only k >= 2 can select it.
        memory = str(tmp_path / "facts.jsonl")
        store = FactStore(memory)
        store.append("Spain", CAPITAL_REL, "Lyon",
                     surface_text="What is the capital of France?")
        store.append("France", CAPITAL_REL, "Rome", old_object="Paris")
        config = write_config(
            tmp_path,
            memory_path=memory,
            retrieval={"k": 1, "buckets": 512},
            selector={"params_path": gate_path},
            lm={"kind": "toy"},
        )
        ask = ["ask", "What is the capital of France?", "--config", config]
        code, _, err = run(capsys, ask)
        assert code == 2
        assert "lm_spec_path" in err
        code, out, _ = run(capsys, ask + ["--lm-spec", spec_path])
        assert (code, out.strip()) == (0, "Paris is the answer")
        code, out, _ = run(capsys, ask + ["--lm-spec", spec_path, "--k", "2"])
        assert (code, out.strip()) == (0, "Rome of course")

    @pytest.mark.parametrize("section,key,value", [
        ("selector", "url", "http://127.0.0.1:3"),
        ("lm", "logprob_base", "log2"),
    ], ids=["selector.url", "lm.logprob_base"])
    def test_removed_remote_config_keys_exit_2(self, capsys, tmp_path, spec_path,
                                               section, key, value):
        body = {"lm": {"kind": "toy", "spec_path": spec_path}}
        body.setdefault(section, {})[key] = value
        config = write_config(tmp_path, **body)
        code, _, err = run(capsys, ["ask", "anything", "--config", config])
        assert code == 2
        assert f"unknown config key {section}.{key}" in err

    @pytest.mark.parametrize("flag", [
        ["--selector-url", "http://127.0.0.1:3"],
        ["--lm-logprob-base", "log2"],
    ], ids=["selector-url", "lm-logprob-base"])
    def test_removed_remote_flags_are_usage_errors(self, capsys, ask_config, flag):
        with pytest.raises(SystemExit) as info:
            main(["ask", "anything", "--config", ask_config, *flag])
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--k", "-1"], ["--alpha", "inf"], ["--alpha", "nan"]])
    def test_negative_k_and_non_finite_alpha_exit_2(self, capsys, ask_config, flags):
        code, _, err = run(capsys, ["ask", "What is the capital of France?",
                                    "--config", ask_config, *flags])
        assert code == 2
        assert err.startswith("error:")


@pytest.fixture
def eval_setup(tmp_path):
    """Fixture world on disk: cases, spec, gate params, matching config."""
    spec, cases = eight_case_world()
    cases_path = tmp_path / "cases.jsonl"
    save_cases(cases, cases_path)
    spec_path = tmp_path / "world.json"
    save_toy_spec(spec, spec_path)
    from factpatch.selector import save_params

    gate = tmp_path / "gate.json"
    save_params(SUBJECT_GATE, gate)
    config = write_config(
        tmp_path,
        retrieval={"k": 5, "buckets": 512},
        selector={"params_path": str(gate), "threshold": 0.5},
        lm={"kind": "toy", "spec_path": str(spec_path)},
        decode={"alpha": 0.0},
    )
    return str(cases_path), config


class TestEval:
    def test_summary_lines(self, capsys, eval_setup):
        cases_path, config = eval_setup
        code, out, _ = run(capsys, ["eval", "--cases", cases_path, "--config", config])
        assert code == 0
        assert "cases       8" in out
        assert "reliability 0.7500" in out
        assert "generality  0.5000" in out
        assert "locality    0.8750" in out
        assert "average     0.7083" in out

    def test_out_dir_files(self, capsys, tmp_path, eval_setup):
        cases_path, config = eval_setup
        out_dir = tmp_path / "results"
        code, out, _ = run(capsys, [
            "eval", "--cases", cases_path, "--config", config, "--out-dir", str(out_dir),
        ])
        assert code == 0
        assert "wrote" in out
        summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
        assert summary["reliability"] == 0.75
        assert summary["locality"] == 0.875
        with open(out_dir / "records.csv", encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))
        assert len(rows) == 21  # header + 20 query records

    def test_checkpoint_curve_printed(self, capsys, eval_setup):
        cases_path, config = eval_setup
        code, out, _ = run(capsys, [
            "eval", "--cases", cases_path, "--config", config, "--checkpoints", "4,8",
        ])
        assert code == 0
        assert "after 4:" in out
        assert "after 8:" in out

    @pytest.mark.parametrize("raw", ["0,8", "9", "abc", ","])
    def test_bad_checkpoints_exit_2(self, capsys, eval_setup, raw):
        cases_path, config = eval_setup
        code, _, err = run(capsys, [
            "eval", "--cases", cases_path, "--config", config, "--checkpoints", raw,
        ])
        assert code == 2
        assert err.startswith("error:")

    def test_sweep_alpha(self, capsys, eval_setup):
        cases_path, config = eval_setup
        code, out, _ = run(capsys, [
            "eval", "--cases", cases_path, "--config", config,
            "--sweep", "alpha", "--values", "0.0,0.5",
        ])
        assert code == 0
        assert "sweep over alpha:" in out
        assert "alpha=0.0: reliability=0.7500" in out
        assert "alpha=0.5:" in out

    def test_sweep_k_accepts_zero(self, capsys, eval_setup):
        cases_path, config = eval_setup
        code, out, _ = run(capsys, [
            "eval", "--cases", cases_path, "--config", config,
            "--sweep", "k", "--values", "0,5",
        ])
        assert code == 0
        # k = 0 never touches memory, so every answer equals its own baseline.
        assert "k=0:" in out
        assert "locality=1.0000" in out.split("k=0:")[1].splitlines()[0]
        assert "k=5:" in out

    def test_sweep_csv(self, capsys, tmp_path, eval_setup):
        cases_path, config = eval_setup
        out_dir = tmp_path / "results"
        code, _, _ = run(capsys, [
            "eval", "--cases", cases_path, "--config", config,
            "--sweep", "alpha", "--values", "0.0,0.2", "--out-dir", str(out_dir),
        ])
        assert code == 0
        with open(out_dir / "sweep.csv", encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["value", "reliability", "generality", "locality", "average", "error"]
        assert len(rows) == 3

    def test_sweep_without_values_exits_2(self, capsys, eval_setup):
        cases_path, config = eval_setup
        code, _, err = run(capsys, [
            "eval", "--cases", cases_path, "--config", config, "--sweep", "alpha",
        ])
        assert code == 2
        assert "--values" in err

    def test_bad_sweep_values_exit_2(self, capsys, eval_setup):
        cases_path, config = eval_setup
        code, _, err = run(capsys, [
            "eval", "--cases", cases_path, "--config", config,
            "--sweep", "alpha", "--values", "a,b",
        ])
        assert code == 2
        assert err.startswith("error:")

    def test_missing_cases_file_exits_2(self, capsys, tmp_path, eval_setup):
        _, config = eval_setup
        code, _, err = run(capsys, [
            "eval", "--cases", str(tmp_path / "absent.jsonl"), "--config", config,
        ])
        assert code == 2
        assert err.startswith("error:")

    def test_empty_cases_file_exits_2(self, capsys, tmp_path, eval_setup):
        _, config = eval_setup
        empty = tmp_path / "empty.json"
        empty.write_text("[]", encoding="utf-8")
        code, _, err = run(capsys, ["eval", "--cases", str(empty), "--config", config])
        assert code == 2
        assert "no cases" in err


@pytest.fixture
def training_cases(tmp_path):
    world = build_world(easy=30, seed=7)
    path = tmp_path / "train_cases.jsonl"
    save_cases(world.cases, path)
    return str(path)


class TestTrainSelector:
    def test_trains_and_writes_params(self, capsys, tmp_path, training_cases):
        out = tmp_path / "params.json"
        code, stdout, _ = run(capsys, [
            "train-selector", "--cases", training_cases, "--out", str(out), "--seed", "42",
        ])
        assert code == 0
        assert "final loss" in stdout
        assert "holdout accuracy" in stdout
        assert f"wrote {out}" in stdout
        params = load_params(out)
        assert params.weights.shape == (5,)

    def test_holdout_accuracy_beats_chance(self, capsys, tmp_path, training_cases):
        out = tmp_path / "params.json"
        _, stdout, _ = run(capsys, [
            "train-selector", "--cases", training_cases, "--out", str(out), "--seed", "42",
        ])
        line = next(l for l in stdout.splitlines() if "holdout accuracy" in l)
        accuracy = float(line.split()[2])
        assert accuracy > 0.5

    def test_same_seed_same_bytes(self, capsys, tmp_path, training_cases):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            run(capsys, [
                "train-selector", "--cases", training_cases,
                "--out", str(path), "--seed", "42",
            ])
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_different_seeds_differ(self, capsys, tmp_path, training_cases):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path, seed in zip(paths, ["42", "1"]):
            run(capsys, [
                "train-selector", "--cases", training_cases,
                "--out", str(path), "--seed", seed,
            ])
        assert paths[0].read_bytes() != paths[1].read_bytes()

    def test_zero_epochs_write_the_initial_weights(self, capsys, tmp_path, training_cases):
        out = tmp_path / "params.json"
        code, stdout, _ = run(capsys, [
            "train-selector", "--cases", training_cases, "--out", str(out), "--epochs", "0",
        ])
        assert code == 0
        assert "final loss 0.6931" in stdout
        params = load_params(out)
        assert params.weights.tolist() == [0.0] * 5
        assert params.bias == 0.0

    def test_positives_only_exits_2(self, capsys, tmp_path, training_cases):
        code, _, err = run(capsys, [
            "train-selector", "--cases", training_cases,
            "--out", str(tmp_path / "p.json"), "--negatives", "0",
        ])
        assert code == 2
        assert "training pairs" in err


# ── config surface ──

CONFIG_FIELDS = sorted(f.name for f in dataclasses.fields(EngineConfig))
README = Path(__file__).resolve().parent.parent / "README.md"


def engine_flag_dests(command: str) -> list[str]:
    """The dests of the engine flags one subcommand takes, in parser order."""
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    own = {"ask": {"query", "trace"}, "serve": {"host", "port"},
           "eval": {"cases", "format", "checkpoints", "out_dir", "sweep", "values"}}[command]
    return [a.dest for a in subparsers.choices[command]._actions
            if a.dest not in own | {"help", "config"}]


def readme_config() -> dict:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Configuration"):]
    return json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))


class TestConfigSurface:
    """Flags, config keys and the README sample each cover every EngineConfig
    field exactly once."""

    @pytest.mark.parametrize("command", ["ask", "eval", "serve"])
    def test_engine_flags_match_the_fields(self, command):
        assert sorted(engine_flag_dests(command)) == CONFIG_FIELDS

    def test_config_keys_match_the_fields(self):
        targets = [*_TOP_KEYS, *(f for keys in _SECTION_KEYS.values() for f in keys.values())]
        assert sorted(targets) == CONFIG_FIELDS

    def test_readme_sample_names_every_field_once(self):
        sample = readme_config()
        n_keys = sum(len(v) if isinstance(v, dict) else 1 for v in sample.values())
        flat = flatten_config(sample)
        assert len(flat) == n_keys
        assert sorted(flat) == CONFIG_FIELDS
        defaults = {f.name: f.default for f in dataclasses.fields(EngineConfig)}
        del flat["instruction_template"], defaults["instruction_template"]
        assert flat == defaults
