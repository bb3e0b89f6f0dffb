"""The names the benchmark under perfbench/ hooks into still exist.

perfbench wraps functions from outside the package (perfbench/spans.py) and
drives the engine through a handful of entry points (perfbench/workloads.py).
Renaming or deleting one of them would blind the traced run or break the
workloads, and only the slow perfbench self-test would notice. These checks
read spans.py and change nothing under perfbench/.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from factpatch import decoding, engine, evalharness, memory, selector
from factpatch.lm import ToyLM, save_toy_spec
from factpatch.retrieval import FactIndex, HashedEmbedder

from conftest import add_to_index, capitals_spec
from fixture_cases import SUBJECT_GATE, eight_case_world

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up while the class is being built.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_wrapped_attribute_resolves(spans):
    for module_name, path, _ in spans.WRAPPED:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            assert hasattr(owner, part), f"{module_name}.{path} is gone"
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{path} is not callable"


def test_span_attributes_read_what_the_pipeline_passes(spans, monkeypatch):
    calls = {}

    def recording(name, original):
        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            calls[name] = spans.ATTRS[name](args, kwargs, result)
            return result
        return wrapper

    for name, attribute in (("selector.select", "select"),
                            ("decoding.adjusted_first_token", "adjusted_first_token")):
        monkeypatch.setattr(decoding, attribute,
                            recording(name, getattr(decoding, attribute)))
    store = memory.FactStore()
    index = FactIndex(HashedEmbedder(buckets=256))
    add_to_index(index, store.append("France", "The capital of {s} is", "Rome",
                                     old_object="Paris"))
    lm = ToyLM(capitals_spec())
    query = "The capital of France is"
    result = decoding.answer(lm, index, SUBJECT_GATE, query)
    assert calls["selector.select"] == {"query": query, "selected": ["France"]}
    n_vocab = len(capitals_spec().vocabulary)
    assert calls["decoding.adjusted_first_token"] == {"candidates": n_vocab}
    assert spans.ATTRS["decoding.answer"]((), {}, result) == {"fallback": False}


def test_workload_entry_points(tmp_path):
    spec_path = tmp_path / "model.json"
    save_toy_spec(capitals_spec(), spec_path)
    _, cases = eight_case_world()
    cases_path = tmp_path / "cases.jsonl"
    evalharness.save_cases(cases, cases_path)
    loaded_cases = evalharness.load_cases(str(cases_path))
    assert loaded_cases == cases

    pairs = selector.build_training_pairs(loaded_cases, negatives_per_positive=1, seed=0)
    params_path = tmp_path / "scorer.json"
    selector.save_params(selector.train(pairs, seed=0), str(params_path))

    memory_path = tmp_path / "memory.jsonl"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "memory_path": str(memory_path),
        "retrieval": {"k": 5},
        "selector": {"params_path": str(params_path)},
        "lm": {"kind": "toy", "spec_path": str(spec_path)},
        "decode": {"alpha": 0.2, "mode": "contrast-full"},
    }), encoding="utf-8")
    built = engine.build_engine(engine.load_config(str(config_path)))
    fact = built.add_fact("France", "The capital of {s} is", "Rome", old_object="Paris")
    assert [f.fact_id for f in built.store.snapshot()] == [fact.fact_id]
    assert memory.load_facts(str(memory_path)).facts == (fact,)

    replay = engine.build_engine(engine.load_config(str(config_path)), in_memory=True)
    report = evalharness.run_sequential(replay, cases[:2], checkpoints=[1, 2])
    assert [point.step for point in report.curve] == [1, 2]
