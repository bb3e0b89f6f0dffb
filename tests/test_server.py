"""HTTP endpoint behavior over a real loopback socket."""

import contextlib
import http.client
import json
import logging
import socket
import statistics
import threading
import time

import pytest
import requests

import factpatch
from factpatch.engine import Engine, EngineConfig, build_engine
from factpatch.decoding import DecodePlan
from factpatch.lm import RemoteLM, ToyLM, ToyLmSpec, save_toy_spec
from factpatch.memory import FactStore
from factpatch.retrieval import FactIndex, HashedEmbedder
from factpatch.server import make_server

from conftest import CAPITALS_VOCAB, capitals_spec
from fixture_cases import SUBJECT_GATE
from stubserver import StubServer


def make_engine(memory_path, lm=None, scorer=SUBJECT_GATE) -> Engine:
    return Engine(
        store=FactStore(memory_path),
        index=FactIndex(HashedEmbedder(buckets=256)),
        lm=lm or ToyLM(capitals_spec()),
        scorer=scorer,
        plan=DecodePlan(alpha=0.2),
        k=5,
        threshold=0.5,
    )


@contextlib.contextmanager
def serving(engine):
    server = make_server(engine)
    # A short poll makes shutdown() in teardown return promptly.
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    )
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield f"http://{host}:{port}"
    finally:
        server.shutdown()
        server.server_close()


@pytest.fixture
def served(tmp_path):
    engine = make_engine(tmp_path / "facts.jsonl")
    with serving(engine) as url:
        yield url, engine


FACT = {
    "subject": "France",
    "relation": "The capital of {s} is",
    "new_object": "Rome",
    "old_object": "Paris",
}

# Completions whose log-probability fields have the wrong shape.
MALFORMED = {
    "logprobs-list": {"choices": [{"logprobs": [1]}]},
    "top-logprobs-object": {"choices": [{"logprobs": {"top_logprobs": {"Paris": -0.1}}}]},
    "not-a-number": {"choices": [{"logprobs": {"top_logprobs": [{"Paris": "high"}]}}]},
    "minus-infinity": {"choices": [{"logprobs": {"top_logprobs": [{"Paris": float("-inf")}]}}]},
}


class TestHealth:
    def test_reports_ok_and_version(self, served):
        url, _ = served
        reply = requests.get(f"{url}/health", timeout=5)
        assert reply.status_code == 200
        assert reply.json() == {"status": "ok", "version": factpatch.__version__}

    def test_unknown_get_path_is_404(self, served):
        url, _ = served
        assert requests.get(f"{url}/nope", timeout=5).status_code == 404


class TestEdits:
    def test_single_fact_object(self, served):
        url, engine = served
        reply = requests.post(f"{url}/edits", json=FACT, timeout=5)
        assert reply.status_code == 200
        added = reply.json()["added"]
        assert len(added) == 1
        assert added[0]["subject"] == "France"
        assert added[0]["seq"] == 0
        assert added[0]["surface_text"] == "The capital of France is Rome"
        assert len(engine.store) == 1
        assert len(engine.index) == 1

    def test_bulk_facts_list(self, served):
        url, engine = served
        second = dict(FACT, subject="Italy", new_object="Lyon", old_object="Rome")
        reply = requests.post(f"{url}/edits", json={"facts": [FACT, second]}, timeout=5)
        assert reply.status_code == 200
        assert [f["seq"] for f in reply.json()["added"]] == [0, 1]
        assert len(engine.store) == 2

    def test_invalid_fact_in_bulk_adds_nothing(self, served):
        url, engine = served
        bad = {"subject": "Italy"}  # missing required fields
        reply = requests.post(f"{url}/edits", json={"facts": [FACT, bad]}, timeout=5)
        assert reply.status_code == 400
        assert "error" in reply.json()
        assert len(engine.store) == 0  # validated before any append

    @pytest.mark.parametrize("override", [{"subject": ""}, {"old_object": 5}])
    def test_fact_failing_validation_in_bulk_is_400_and_adds_nothing(self, served, override):
        url, engine = served
        reply = requests.post(
            f"{url}/edits", json={"facts": [FACT, dict(FACT, **override)]}, timeout=5
        )
        assert reply.status_code == 400
        assert len(engine.store) == 0

    @pytest.mark.parametrize("body", [
        dict(FACT, subject="Italy", surface_text="???"),
        {"facts": [dict(FACT, subject="Italy"), dict(FACT, subject="Spain", surface_text="???")]},
        {"subject": "日本", "relation": "{s}", "new_object": "！"},  # renders "日本 ！"
    ], ids=["single", "bulk", "rendered"])
    def test_fact_that_cannot_be_embedded_is_400_and_persists_nothing(
        self, served, tmp_path, body
    ):
        url, engine = served
        assert requests.post(f"{url}/edits", json=FACT, timeout=5).status_code == 200
        before = (tmp_path / "facts.jsonl").read_bytes()
        reply = requests.post(f"{url}/edits", json=body, timeout=5)
        assert reply.status_code == 400
        assert "alphanumeric" in reply.json()["error"]
        assert (tmp_path / "facts.jsonl").read_bytes() == before
        assert len(engine.store) == 1
        assert len(engine.index) == 1

    def test_each_fact_is_embedded_once(self, served, monkeypatch):
        url, engine = served
        embedder = engine.index.embedder
        texts = []

        def counting(text):
            texts.append(text)
            return type(embedder).embed_uncached(embedder, text)

        monkeypatch.setattr(embedder, "embed_uncached", counting)
        second = dict(FACT, subject="Italy", new_object="Lyon")
        reply = requests.post(f"{url}/edits", json={"facts": [FACT, second]}, timeout=5)
        assert reply.status_code == 200
        assert texts == ["The capital of France is Rome", "The capital of Italy is Lyon"]

    def test_empty_facts_list_rejected(self, served):
        url, _ = served
        reply = requests.post(f"{url}/edits", json={"facts": []}, timeout=5)
        assert reply.status_code == 400

    def test_non_object_body_rejected(self, served):
        url, _ = served
        reply = requests.post(f"{url}/edits", json=[FACT], timeout=5)
        assert reply.status_code == 400

    def test_malformed_json_rejected(self, served):
        url, _ = served
        reply = requests.post(
            f"{url}/edits",
            data=b"{nope",
            headers={"Content-Type": "application/json", "Content-Length": "5"},
            timeout=5,
        )
        assert reply.status_code == 400
        assert "invalid JSON" in reply.json()["error"]

    def test_storage_failure_is_a_logged_500(self, tmp_path, caplog):
        engine = make_engine(tmp_path / "missing-dir" / "facts.jsonl")
        with serving(engine) as url, caplog.at_level(logging.ERROR, "factpatch.server"):
            reply = requests.post(f"{url}/edits", json=FACT, timeout=5)
            assert reply.status_code == 500
            assert "could not persist fact" in reply.json()["error"]
            # The connection stays usable after the failure.
            assert requests.get(f"{url}/health", timeout=5).status_code == 200
        assert any(r.exc_info and "POST /edits" in r.getMessage() for r in caplog.records)
        assert len(engine.store) == 0


class TestBodies:
    @pytest.mark.parametrize("route", ["/edits", "/query"])
    @pytest.mark.parametrize(
        "body", [b"null", b"\x80{}", b"", b"7"], ids=["null", "not-utf8", "empty", "number"]
    )
    def test_body_that_is_not_a_request_object_is_400(self, served, tmp_path, route, body):
        url, engine = served
        reply = requests.post(f"{url}{route}", data=body, timeout=3,
                              headers={"Content-Type": "application/json"})
        assert reply.status_code == 400
        assert "error" in reply.json()
        assert len(engine.store) == 0
        memory = tmp_path / "facts.jsonl"
        assert not memory.exists() or not memory.read_bytes()

    def test_missing_content_length_is_400(self, served):
        url, _ = served
        conn = http.client.HTTPConnection(url[len("http://"):], timeout=3)
        try:
            conn.putrequest("POST", "/query")
            conn.endheaders()
            reply = conn.getresponse()
            assert reply.status == 400
            assert "Content-Length" in json.loads(reply.read())["error"]
        finally:
            conn.close()

    def test_continue_arrives_before_the_body_is_sent(self, served):
        url, _ = served
        host, port = url[len("http://"):].split(":")
        body = json.dumps({"query": "What color is the sky"}).encode()
        head = (f"POST /query HTTP/1.1\r\nHost: {host}\r\nContent-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\nExpect: 100-continue\r\n\r\n").encode()
        with socket.create_connection((host, int(port)), timeout=1) as sock:
            sock.sendall(head)
            interim = b""
            while not interim.endswith(b"\r\n\r\n"):
                chunk = sock.recv(1024)  # socket.timeout if the interim reply sits in a buffer
                assert chunk, "the server closed the connection"
                interim += chunk
            assert interim.startswith(b"HTTP/1.1 100")
            sock.sendall(body)
            reply = http.client.HTTPResponse(sock)
            reply.begin()
            assert reply.status == 200
            assert json.loads(reply.read())["answer"] == "blue"


class TestQuery:
    def test_edited_answer_end_to_end(self, served):
        url, _ = served
        requests.post(f"{url}/edits", json=FACT, timeout=5)
        reply = requests.post(f"{url}/query", json={"query": "The capital of France is"}, timeout=5)
        assert reply.status_code == 200
        body = reply.json()
        assert body["answer"] == "Rome of course"
        assert body["fallback_used"] is False
        assert len(body["selected_fact_ids"]) == 1
        assert "trace" not in body

    def test_unrelated_query_falls_back(self, served):
        url, _ = served
        requests.post(f"{url}/edits", json=FACT, timeout=5)
        reply = requests.post(f"{url}/query", json={"query": "What color is the sky"}, timeout=5)
        body = reply.json()
        assert body["answer"] == "blue"
        assert body["fallback_used"] is True
        assert body["selected_fact_ids"] == []

    def test_parity_with_direct_engine_call(self, served):
        url, engine = served
        requests.post(f"{url}/edits", json=FACT, timeout=5)
        for query in ("The capital of France is", "What color is the sky", "The capital of Italy is"):
            over_http = requests.post(f"{url}/query", json={"query": query}, timeout=5).json()
            direct_text, direct_trace = engine.answer(query)
            assert over_http["answer"] == direct_text
            assert over_http["fallback_used"] == direct_trace.fallback_used

    def test_trace_included_on_request(self, served):
        url, _ = served
        requests.post(f"{url}/edits", json=FACT, timeout=5)
        reply = requests.post(
            f"{url}/query",
            json={"query": "The capital of France is", "trace": True},
            timeout=5,
        )
        trace = reply.json()["trace"]
        assert trace["chosen_first_token"] == "Rome"
        assert trace["alpha"] == 0.2
        assert len(trace["candidates"]) == 8
        for c in trace["candidates"]:
            assert abs(c["adjusted"] - (c["l_new"] - trace["alpha"] * c["l_prior"])) < 1e-9

    def test_alpha_k_and_mode_overrides(self, served):
        url, _ = served
        requests.post(f"{url}/edits", json=FACT, timeout=5)
        reply = requests.post(
            f"{url}/query",
            json={"query": "The capital of France is", "alpha": 0.9, "trace": True},
            timeout=5,
        )
        assert reply.json()["trace"]["alpha"] == 0.9
        reply = requests.post(
            f"{url}/query",
            json={"query": "The capital of France is", "k": 0},
            timeout=5,
        )
        assert reply.json()["fallback_used"] is True
        reply = requests.post(
            f"{url}/query",
            json={"query": "The capital of France is", "mode": "target-suppress", "trace": True},
            timeout=5,
        )
        assert reply.json()["trace"]["mode"] == "target-suppress"

    def test_missing_query_field_rejected(self, served):
        url, _ = served
        reply = requests.post(f"{url}/query", json={"alpha": 0.2}, timeout=5)
        assert reply.status_code == 400
        assert "query" in reply.json()["error"]

    @pytest.mark.parametrize(
        "payload,broken",
        [
            ({"query": "q", "alpha": "high"}, "alpha"),
            ({"query": "q", "k": 2.5}, "k"),
            ({"query": "q", "k": True}, "k"),
            ({"query": "q", "mode": 3}, "mode"),
        ],
    )
    def test_wrong_override_types_name_the_key(self, served, payload, broken):
        url, _ = served
        reply = requests.post(f"{url}/query", json=payload, timeout=5)
        assert reply.status_code == 400
        assert broken in reply.json()["error"]

    def test_engine_errors_become_400(self, served):
        url, _ = served
        reply = requests.post(f"{url}/query", json={"query": "q", "mode": "bogus"}, timeout=5)
        assert reply.status_code == 400

    @pytest.mark.parametrize(
        "body",
        [
            '{"query": "The capital of France is", "k": -1}',
            '{"query": "The capital of France is", "alpha": NaN}',
            '{"query": "The capital of France is", "alpha": Infinity}',
        ],
    )
    def test_negative_k_and_non_finite_alpha_become_400(self, served, body):
        url, _ = served
        requests.post(f"{url}/edits", json=FACT, timeout=5)
        reply = requests.post(f"{url}/query", data=body,
                              headers={"Content-Type": "application/json"}, timeout=5)
        assert reply.status_code == 400
        assert "error" in reply.json()

    @pytest.mark.parametrize(
        "endpoint", ["unreachable", "no-logprobs", "not-json", "not-an-object", *MALFORMED]
    )
    def test_model_endpoint_failure_is_502(self, tmp_path, endpoint):
        replies = {
            "no-logprobs": {"choices": [{"text": "x"}]},
            "not-json": b"<html>gateway</html>",
            "not-an-object": ["choices"],
            **MALFORMED,
        }
        with contextlib.ExitStack() as stack:
            if endpoint == "unreachable":
                with socket.socket() as sock:  # a port nothing listens on
                    sock.bind(("127.0.0.1", 0))
                    model_url = "http://127.0.0.1:%d" % sock.getsockname()[1]
            else:
                stub = stack.enter_context(StubServer(lambda p, b, h: (200, replies[endpoint])))
                model_url = stub.url
            lm = RemoteLM(model_url, "m", retries=1, timeout=5)
            url = stack.enter_context(serving(make_engine(tmp_path / "facts.jsonl", lm=lm)))
            reply = requests.post(f"{url}/query", json={"query": "What color is the sky"},
                                  timeout=10)
        assert reply.status_code == 502
        assert reply.json()["error"].startswith("decode: ")

    @pytest.mark.parametrize("shape", MALFORMED)
    def test_malformed_completion_on_the_edited_path_is_502(self, tmp_path, shape):
        with StubServer(lambda p, b, h: (200, MALFORMED[shape])) as stub:
            engine = make_engine(tmp_path / "facts.jsonl",
                                 lm=RemoteLM(stub.url, "m", retries=1, timeout=5))
            engine.add_fact(**FACT)
            with serving(engine) as url:
                reply = requests.post(f"{url}/query", json={"query": "The capital of France is"},
                                      timeout=10)
        assert reply.status_code == 502
        assert reply.json()["error"].startswith("decode: ")

    def test_unexpected_pipeline_fault_is_500(self, tmp_path, caplog):
        class BrokenScorer:
            def probabilities(self, query, facts):
                raise RuntimeError("scorer bug")

        engine = make_engine(tmp_path / "facts.jsonl", scorer=BrokenScorer())
        engine.add_fact("France", "The capital of {s} is", "Rome")
        with serving(engine) as url, caplog.at_level(logging.ERROR, "factpatch.server"):
            reply = requests.post(f"{url}/query", json={"query": "The capital of France is"},
                                  timeout=5)
        assert reply.status_code == 500
        assert "scorer bug" in reply.json()["error"]
        assert any(r.exc_info for r in caplog.records)

    def test_unknown_post_path_is_404(self, served):
        url, _ = served
        assert requests.post(f"{url}/nope", json={}, timeout=5).status_code == 404

    def test_concurrent_queries_all_answer(self, served):
        url, _ = served
        requests.post(f"{url}/edits", json=FACT, timeout=5)
        results = []

        def ask():
            reply = requests.post(
                f"{url}/query", json={"query": "The capital of France is"}, timeout=10
            )
            results.append(reply.json()["answer"])

        threads = [threading.Thread(target=ask) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == ["Rome of course"] * 8

    def test_concurrent_edits_keep_the_index_in_step(self, tmp_path, monkeypatch):
        # Only Engine's write lock makes seqs reach the index in increasing
        # order; an add that arrived out of order would be a 500 here.
        save_toy_spec(capitals_spec(), tmp_path / "spec.json")
        config = EngineConfig(
            memory_path=str(tmp_path / "facts.jsonl"),
            lm_spec_path=str(tmp_path / "spec.json"),
            embedder_buckets=256,
        )
        engine = build_engine(config)
        add = engine.index.add

        def slow_add(fact, vector):
            time.sleep(5e-3)  # another writer gets here first unless the write lock is held
            add(fact, vector)

        monkeypatch.setattr(engine.index, "add", slow_add)
        statuses: list[int] = []
        queries = ["The capital of France is", "The capital of Italy is", "capital of Spain"]

        def edit(i):
            with requests.Session() as session:
                for j in range(6):  # keys repeat across threads, so re-edits interleave
                    fact = dict(FACT, subject=("France", "Italy", "Spain")[j % 3],
                                new_object=CAPITALS_VOCAB[(i + j) % 4])
                    statuses.append(session.post(f"{url}/edits", json=fact, timeout=10).status_code)

        def ask():
            with requests.Session() as session:
                for j in range(15):
                    reply = session.post(f"{url}/query", json={"query": queries[j % 3]}, timeout=10)
                    statuses.append(reply.status_code)

        with serving(engine) as url:
            threads = [threading.Thread(target=edit, args=(i,)) for i in range(8)]
            threads += [threading.Thread(target=ask) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert statuses == [200] * (8 * 6 + 2 * 15)
        assert len(engine.store) == len(engine.index) == 48
        reloaded = build_engine(config)
        for query in queries:
            assert reloaded.index.top_k(query, 8) == engine.index.top_k(query, 8)


def median_round_trip_ms(send, n: int = 10) -> float:
    times = []
    for _ in range(n):
        start = time.perf_counter()
        reply = send()
        times.append((time.perf_counter() - start) * 1e3)
        assert reply.status_code == 200
    return statistics.median(times)


class TestLatency:
    """A reply sent in two pieces on a keep-alive connection waits ~40 ms for
    the client's delayed ACK; these bounds sit well below that stall."""

    def test_keep_alive_round_trips_do_not_wait_for_a_delayed_ack(self, served):
        url, _ = served
        with requests.Session() as session:
            assert session.post(f"{url}/edits", json=FACT, timeout=5).status_code == 200
            health = median_round_trip_ms(lambda: session.get(f"{url}/health", timeout=5))
            query = median_round_trip_ms(lambda: session.post(
                f"{url}/query", json={"query": "The capital of France is"}, timeout=5))
        assert health < 20, f"GET /health took {health:.1f} ms"
        assert query < 20, f"POST /query took {query:.1f} ms"

    def test_reply_larger_than_the_write_buffer_does_not_wait_either(self, tmp_path):
        vocabulary = tuple(CAPITALS_VOCAB) + tuple(f"tok{i}" for i in range(1000))
        spec = ToyLmSpec(rules=capitals_spec().rules, vocabulary=vocabulary,
                         continuations=capitals_spec().continuations)
        engine = make_engine(tmp_path / "facts.jsonl", lm=ToyLM(spec))
        engine.add_fact(**FACT)
        query = {"query": "The capital of France is", "trace": True}
        with serving(engine) as url, requests.Session() as session:
            reply = session.post(f"{url}/query", json=query, timeout=5)
            assert len(reply.content) > 1 << 16
            assert reply.json()["answer"] == "Rome of course"
            took = median_round_trip_ms(lambda: session.post(f"{url}/query", json=query,
                                                             timeout=5))
        assert took < 20, f"a {len(reply.content)}-byte trace reply took {took:.1f} ms"
