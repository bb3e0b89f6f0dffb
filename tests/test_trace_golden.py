"""Decode traces of one fixed world, byte for byte against checked-in files.

The files under ``tests/golden/`` were written by the dict-and-loop scorer
that the array scorer replaced. They pin the candidate order (including
the exact ties among the six residual tokens), every float and the JSON
layout of ``DecodeTrace.to_dict``, ``factpatch ask --trace`` and the
server's ``"trace": true`` reply. The query names both edited subjects, so
two facts are selected and each prior is a mean over two distributions.
"""

import json
import threading
from pathlib import Path

import pytest
import requests

from factpatch.cli import main
from factpatch.decoding import TARGET_SUPPRESS, CandidateScore
from factpatch.engine import build_engine, load_config
from factpatch.lm import save_toy_spec
from factpatch.memory import FactStore
from factpatch.selector import save_params
from factpatch.server import make_server

from conftest import capitals_spec
from fixture_cases import SUBJECT_GATE

GOLDEN = Path(__file__).parent / "golden"
QUERY = "The capital shared by France and Italy is"
CAPITAL_REL = "The capital of {s} is"


@pytest.fixture
def config_path(tmp_path) -> str:
    save_toy_spec(capitals_spec(), tmp_path / "model.json")
    save_params(SUBJECT_GATE, tmp_path / "gate.json")
    store = FactStore(tmp_path / "facts.jsonl")
    store.append("France", CAPITAL_REL, "Rome", old_object="Paris")
    store.append("Italy", CAPITAL_REL, "Lyon", old_object="Rome")
    config = {
        "memory_path": str(tmp_path / "facts.jsonl"),
        "retrieval": {"buckets": 512},
        "selector": {"params_path": str(tmp_path / "gate.json")},
        "lm": {"kind": "toy", "spec_path": str(tmp_path / "model.json")},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return str(path)


def test_in_process_trace_matches_golden(config_path):
    expected = (GOLDEN / "trace.json").read_text(encoding="utf-8")
    _, trace = build_engine(load_config(config_path)).answer(QUERY)
    golden = [CandidateScore(**c) for c in json.loads(expected)["candidates"]]
    assert len(trace.candidates) == len(golden) == 8
    assert trace.candidates == golden
    assert list(trace.candidates) == golden
    assert trace.candidates[0] == golden[0] and trace.candidates[-1] == golden[-1]
    assert json.dumps(trace.to_dict(), indent=2) + "\n" == expected


def test_ask_trace_file_matches_golden(capsys, tmp_path, config_path):
    trace_path = tmp_path / "trace.json"
    assert main(["ask", QUERY, "--config", config_path, "--trace", str(trace_path)]) == 0
    capsys.readouterr()
    assert trace_path.read_bytes() == (GOLDEN / "trace.json").read_bytes()


@pytest.mark.parametrize(
    "overrides, golden_name",
    [({}, "reply_contrast_full.json"), ({"mode": TARGET_SUPPRESS}, "reply_target_suppress.json")],
)
def test_server_trace_reply_matches_golden(config_path, overrides, golden_name):
    server = make_server(build_engine(load_config(config_path)))
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    )
    thread.start()
    host, port = server.server_address[:2]
    try:
        reply = requests.post(
            f"http://{host}:{port}/query",
            json={"query": QUERY, "trace": True, **overrides},
            timeout=5,
        )
    finally:
        server.shutdown()
        server.server_close()
    assert reply.status_code == 200
    assert reply.content == (GOLDEN / golden_name).read_bytes()
