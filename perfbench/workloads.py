"""The three workloads. Each takes a RunContext and returns an Outcome.

Every workload repeats whole rounds of one fixed operation mix until its
time is up, and checks every answer against ``oracle.py``. A mismatch, an
error status or an exception counts as a failed operation.

    edit-stream  one round = selector training and ``build_engine`` (set-up),
                 then ``evalharness.run_sequential`` over the whole stream.
    serve-mixed  ``factpatch serve`` in a child process; two client threads,
                 each a closed loop over one keep-alive connection. One
                 round per connection = 1 edit, 6 edited queries and 18
                 unrelated ones.
    remote-lm    the engine in this process, its memory preloaded in memory
                 through ``add_fact`` (set-up), with a remote model served by
                 ``stub_lm.py``; one caller. One round = 10 edited and 10
                 unrelated queries, alternating.
"""

from __future__ import annotations

import json
import os
import random
import resource
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import requests

from factpatch import engine as fp_engine
from factpatch import evalharness, memory, selector

import gen
import oracle
import spans

TRAIN_CASES = 200
TRAIN_SEED_OFFSET = 7919
HTTP_TIMEOUT = 30.0
CHILD_STOP_TIMEOUT = 30.0


@dataclass
class RunContext:
    root: str
    work: str
    seed: int
    seconds: float
    tracer: spans.Tracer | None = None


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    checks_ok: bool = True
    setup_s: list[float] = field(default_factory=list)
    eval_s: list[float] = field(default_factory=list)
    edited_ms: list[float] = field(default_factory=list)
    unrelated_ms: list[float] = field(default_factory=list)
    edit_ms: list[float] = field(default_factory=list)
    query_wall_s: float = 0.0
    peak_rss_mb: float = 0.0
    extras: dict = field(default_factory=dict)
    child_spans: list = field(default_factory=list)

    def count(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    @property
    def answers(self) -> int:
        return len(self.edited_ms) + len(self.unrelated_ms)


# ── shared set-up ──


def _write_json(path: str, body) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(body, handle)
    return path


def _write_jsonl(path: str, records) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")
    return path


def _case_records(world: gen.World) -> list[dict]:
    return [c.case_record(oracle.unrelated_answer(world, c.loc_subject)) for c in world.cases]


def _train_selector(ctx: RunContext, train_cases, out_path: str) -> None:
    # A benchmark-side span groups the two selector calls of one training.
    span = ctx.tracer.begin("bench.train_selector") if ctx.tracer else None
    try:
        pairs = selector.build_training_pairs(train_cases, negatives_per_positive=1, seed=ctx.seed)
        selector.save_params(selector.train(pairs, seed=ctx.seed), out_path)
    finally:
        if span is not None:
            ctx.tracer.end(span)


def _training_cases(ctx: RunContext, style: str):
    world = gen.build_world(TRAIN_CASES, ctx.seed + TRAIN_SEED_OFFSET, style=style,
                            n_landmarks=None if style == "full" else TRAIN_CASES)
    path = _write_jsonl(os.path.join(ctx.work, "train_cases.jsonl"), _case_records(world))
    return evalharness.load_cases(path)


def _config(ctx: RunContext, lm: dict, memory_path: str | None) -> str:
    body = {
        "memory_path": memory_path,
        "retrieval": {"k": gen.K},
        "selector": {"params_path": os.path.join(ctx.work, "scorer.json")},
        "lm": lm,
        "decode": {"alpha": gen.ALPHA, "mode": "contrast-full"},
    }
    return _write_json(os.path.join(ctx.work, "config.json"), body)


def _preload(ctx: RunContext, world: gen.World, n: int) -> str:
    """A fresh memory file holding the first ``n`` cases' facts."""
    records = [case.fact_record(seq) for seq, case in enumerate(world.cases[:n])]
    return _write_jsonl(os.path.join(ctx.work, "memory.jsonl"), records)


def _max_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _spawn_listening(cmd: list[str], env: dict) -> tuple[subprocess.Popen, str]:
    """Start a child that prints ``listening on URL`` first; return it and URL."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    line = proc.stdout.readline()
    if not line.startswith("listening on "):
        _stop(proc)
        raise RuntimeError(f"{cmd[1]} did not start: {line!r}")
    return proc, line.split()[2]


def _stop(proc: subprocess.Popen, sig: int = signal.SIGINT) -> int:
    if proc.poll() is None:
        proc.send_signal(sig)
    try:
        proc.communicate(timeout=CHILD_STOP_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
    return proc.returncode


# ── edit-stream ──

SETUPS_PER_ROUND = 3  # set-up is ~0.1 s, so it is timed a few times per round


def edit_stream(ctx: RunContext, *, n_cases: int = 300, checkpoints=(150, 300)) -> Outcome:
    out = Outcome()
    world = gen.build_world(n_cases, ctx.seed)
    train_cases = _training_cases(ctx, "full")
    cases = evalharness.load_cases(
        _write_jsonl(os.path.join(ctx.work, "cases.jsonl"), _case_records(world)))
    spec = _write_json(os.path.join(ctx.work, "model.json"), world.spec)
    config = _config(ctx, {"kind": "toy", "spec_path": spec}, None)
    expected: dict[str, tuple[str, str | None]] = {}
    for case in world.cases:
        expected[case.rel_query] = (oracle.edited_answer(world, case, "rel"), case.subject)
        expected[case.gen_query] = (oracle.edited_answer(world, case, "gen"), case.subject)
        expected[case.loc_query] = (oracle.unrelated_answer(world, case.loc_subject), None)

    started = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for _ in range(SETUPS_PER_ROUND):
            t0 = time.perf_counter()
            _train_selector(ctx, train_cases, os.path.join(ctx.work, "scorer.json"))
            engine = fp_engine.build_engine(fp_engine.load_config(config))
            out.setup_s.append(time.perf_counter() - t0)

        answered = []
        answer, add_case_fact = engine.answer, engine.add_case_fact

        def timed_answer(query, **kwargs):
            t0 = time.perf_counter()
            result = None
            try:
                result = answer(query, **kwargs)
                return result
            finally:  # a raising answer is recorded too, and fails its check
                answered.append((query, result, time.perf_counter() - t0))

        def timed_add(case):
            t0 = time.perf_counter()
            fact = add_case_fact(case)
            out.edit_ms.append((time.perf_counter() - t0) * 1e3)
            out.count(fact.subject == case.subject)
            return fact

        engine.answer, engine.add_case_fact = timed_answer, timed_add
        t0 = time.perf_counter()
        evalharness.run_sequential(engine, cases, checkpoints=list(checkpoints))
        out.eval_s.append(time.perf_counter() - t0)

        subject_of = {f.fact_id: f.subject for f in engine.store.snapshot()}
        for query, result, seconds in answered:
            want, subj = expected[query]
            text, trace = result if result is not None else ("", None)
            if subj is None:
                ok = result is not None and text == want
                out.unrelated_ms.append(seconds * 1e3)
            else:
                ids = trace.selected_fact_ids if trace is not None else []
                ok = (text.split()[:1] == [want] and len(ids) == 1
                      and subject_of.get(ids[0]) == subj)
                out.edited_ms.append(seconds * 1e3)
            out.count(ok)
        round_time = time.perf_counter() - round_start
        if time.perf_counter() - started + round_time > ctx.seconds:
            break
    out.query_wall_s = sum(out.eval_s)
    out.peak_rss_mb = _max_rss_mb(resource.RUSAGE_SELF)
    return out


# ── serve-mixed ──

SERVE_EDITED = 5
SERVE_UNRELATED = 18
SERVE_CONNECTIONS = 2


def _serve_round(world: gen.World, seed: int, conn: int, rnd: int, fresh: gen.Case, n_preload: int):
    """One connection's round as (kind, request body or query, expected) tuples."""
    rng = random.Random(f"serve-{seed}-{conn}-{rnd}")
    queries = [("fresh", fresh.rel_query, oracle.edited_answer(world, fresh, "rel"))]
    for _ in range(SERVE_EDITED):
        case = world.cases[rng.randrange(n_preload)]
        channel = rng.choice(("rel", "gen"))
        query = case.rel_query if channel == "rel" else case.gen_query
        queries.append(("edited", query, oracle.edited_answer(world, case, channel)))
    for _ in range(SERVE_UNRELATED):
        name = world.landmarks[rng.randrange(len(world.landmarks))]
        queries.append(("unrelated", gen.LOC_QUERY.format(s=name),
                        oracle.unrelated_answer(world, name)))
    rng.shuffle(queries)
    return [("edit", fresh.payload(), fresh.subject)] + queries


def serve_mixed(ctx: RunContext, *, n_preload: int = 5000, n_landmarks: int = 5000,
                n_reserve: int = 600, n_setups: int = 3) -> Outcome:
    out = Outcome()
    world = gen.build_world(n_preload + n_reserve, ctx.seed, style="topn", n_landmarks=n_landmarks)
    _train_selector(ctx, _training_cases(ctx, "topn"), os.path.join(ctx.work, "scorer.json"))
    spec = _write_json(os.path.join(ctx.work, "model.json"), world.spec)
    memory_path = _preload(ctx, world, n_preload)
    preloaded = [c.fact_record(seq) for seq, c in enumerate(world.cases[:n_preload])]
    config = _config(ctx, {"kind": "toy", "spec_path": spec}, memory_path)
    env = dict(os.environ, PYTHONPATH=os.path.join(ctx.root, "src"), PYTHONUNBUFFERED="1")
    serve_args = ["serve", "--config", config, "--host", "127.0.0.1", "--port", "0"]

    def command(i: int) -> list[str]:
        if ctx.tracer is None:
            return [sys.executable, "-m", "factpatch.cli", *serve_args]
        launcher = os.path.join(ctx.root, "perfbench", "serve_traced.py")
        return [sys.executable, launcher, os.path.join(ctx.work, f"server-spans-{i}.jsonl"),
                *serve_args]

    proc = None
    try:
        for i in range(n_setups):
            if proc is not None:
                _stop(proc)
            t0 = time.perf_counter()
            proc, url = _spawn_listening(command(i), env)
            health = requests.get(f"{url}/health", timeout=HTTP_TIMEOUT)
            out.setup_s.append(time.perf_counter() - t0)
            if health.status_code != 200:
                raise RuntimeError(f"server health check returned {health.status_code}")
        _drive_server(ctx, out, world, url, n_preload, n_reserve)
    finally:
        if proc is not None and _stop(proc) != 0:
            out.checks_ok = False
    out.peak_rss_mb = _max_rss_mb(resource.RUSAGE_CHILDREN)

    stored = [f.to_dict() for f in memory.load_facts(memory_path).facts]
    key = lambda f: (f["subject"], f["relation"], f["new_object"], f["old_object"])  # noqa: E731
    if stored[:n_preload] != preloaded or (
        sorted(map(key, stored[n_preload:])) != sorted(map(key, out.extras.pop("posted")))
    ):
        out.checks_ok = False
    if ctx.tracer is not None:
        offset = 10 ** 9
        for i in range(n_setups):
            out.child_spans += spans.load(
                os.path.join(ctx.work, f"server-spans-{i}.jsonl"), offset * (i + 1))
    return out


def _drive_server(ctx: RunContext, out: Outcome, world: gen.World, url: str,
                  n_preload: int, n_reserve: int) -> None:
    """The closed-loop clients, then (traced) keep-alive health round trips."""
    lock = threading.Lock()
    posted: list[dict] = []
    client_ms: list[float] = []
    deadline = time.perf_counter() + ctx.seconds

    def client(conn: int) -> None:
        session = requests.Session()
        rnd = 0
        try:
            while time.perf_counter() < deadline:
                slot = rnd * SERVE_CONNECTIONS + conn
                if slot >= n_reserve:
                    # Stopping here would end the run early and unnoticed.
                    raise RuntimeError(f"serve-mixed used all {n_reserve} reserve edits "
                                       f"before its {ctx.seconds} s were up; raise n_reserve")
                fresh = world.cases[n_preload + slot]
                round_start = time.perf_counter()
                for kind, body, want in _serve_round(world, ctx.seed, conn, rnd, fresh, n_preload):
                    path = "/edits" if kind == "edit" else "/query"
                    payload = body if kind == "edit" else {"query": body}
                    t0 = time.perf_counter()
                    try:
                        reply = session.post(f"{url}{path}", json=payload, timeout=HTTP_TIMEOUT)
                        result = reply.json() if reply.status_code == 200 else None
                    except (requests.RequestException, ValueError):
                        result = None
                    ms = (time.perf_counter() - t0) * 1e3
                    if kind == "edit":
                        added = (result or {}).get("added") or [{}]
                        ok = added[0].get("subject") == want
                    else:
                        ok = result is not None and result.get("answer") == want
                    with lock:
                        out.count(ok)
                        if kind == "edit":
                            out.edit_ms.append(ms)
                            if ok:
                                posted.append(body)
                        else:
                            client_ms.append(ms)
                            (out.unrelated_ms if kind == "unrelated" else out.edited_ms).append(ms)
                with lock:
                    out.eval_s.append(time.perf_counter() - round_start)
                rnd += 1
        finally:
            session.close()

    errors: list[BaseException] = []

    def guarded(conn: int) -> None:
        try:
            client(conn)
        except BaseException as exc:  # re-raised below, after every client has stopped
            errors.append(exc)

    t0 = time.perf_counter()
    threads = [threading.Thread(target=guarded, args=(c,)) for c in range(SERVE_CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    out.query_wall_s = time.perf_counter() - t0
    if errors:
        raise errors[0]
    out.extras["posted"] = posted

    if ctx.tracer is not None:
        with requests.Session() as session:
            rtts = []
            for _ in range(21):
                t0 = time.perf_counter()
                session.get(f"{url}/health", timeout=HTTP_TIMEOUT)
                rtts.append((time.perf_counter() - t0) * 1e3)
        out.extras["health_rtt_ms"] = rtts[1:]  # the first call opens the connection
        out.extras["client_query_ms"] = client_ms


# ── remote-lm ──

REMOTE_PAIRS = 10


def remote_lm(ctx: RunContext, *, n_preload: int = 1000, n_landmarks: int = 1000,
              n_setups: int = 10) -> Outcome:
    out = Outcome()
    world = gen.build_world(n_preload, ctx.seed, style="topn", n_landmarks=n_landmarks)
    _train_selector(ctx, _training_cases(ctx, "topn"), os.path.join(ctx.work, "scorer.json"))
    spec = _write_json(os.path.join(ctx.work, "model.json"), world.spec)
    stub, url = _spawn_listening(
        [sys.executable, os.path.join(ctx.root, "perfbench", "stub_lm.py"), spec], dict(os.environ))
    try:
        stats = requests.Session()
        config = _config(ctx, {"kind": "remote", "url": f"{url}/v1/completions",
                               "model": "stub-table-model", "top_n": 20}, None)
        # The memory is preloaded through add_fact into an in-memory store,
        # and those adds are this workload's edits. Edits among the queries
        # would free and rebuild the index matrix and a durable store would
        # fsync; both measure the machine's memory and disk more than the
        # model round trips this workload is for (serve-mixed has both).
        for _ in range(n_setups):
            t0 = time.perf_counter()
            engine = fp_engine.build_engine(fp_engine.load_config(config))
            for case in world.cases:
                t1 = time.perf_counter()
                fact = engine.add_fact(**case.payload())
                out.edit_ms.append((time.perf_counter() - t1) * 1e3)
                out.count(fact.subject == case.subject)
            out.setup_s.append(time.perf_counter() - t0)

        def stub_requests() -> int:
            return stats.get(f"{url}/stats", timeout=HTTP_TIMEOUT).json()["requests"]

        def ask(kind: str, query: str, want: str) -> None:
            before = stub_requests() if ctx.tracer else 0
            t0 = time.perf_counter()
            try:
                text, _ = engine.answer(query)
            except Exception:  # a failed answer counts; the run goes on
                text = None
            ms = (time.perf_counter() - t0) * 1e3
            (out.edited_ms if kind == "edited" else out.unrelated_ms).append(ms)
            out.count(text == want)
            if ctx.tracer:
                out.extras.setdefault(f"stub_requests_{kind}", []).append(stub_requests() - before)

        started = time.perf_counter()
        rnd = 0
        while time.perf_counter() < started + ctx.seconds:
            rng = random.Random(f"remote-{ctx.seed}-{rnd}")
            round_start = time.perf_counter()
            for _ in range(REMOTE_PAIRS):
                case = world.cases[rng.randrange(n_preload)]
                channel = rng.choice(("rel", "gen"))
                ask("edited", case.rel_query if channel == "rel" else case.gen_query,
                    oracle.edited_answer(world, case, channel))
                name = world.landmarks[rng.randrange(n_landmarks)]
                ask("unrelated", gen.LOC_QUERY.format(s=name), oracle.unrelated_answer(world, name))
            out.eval_s.append(time.perf_counter() - round_start)
            rnd += 1
        out.query_wall_s = time.perf_counter() - started
        if ctx.tracer:
            out.extras["stub_service_p50_ms"] = stats.get(
                f"{url}/stats", timeout=HTTP_TIMEOUT).json()["service_p50_ms"]
        stats.close()
    finally:
        if _stop(stub, signal.SIGTERM) != 0:
            out.checks_ok = False
    out.peak_rss_mb = _max_rss_mb(resource.RUSAGE_SELF)
    return out


WORKLOADS = {"edit-stream": edit_stream, "serve-mixed": serve_mixed, "remote-lm": remote_lm}
