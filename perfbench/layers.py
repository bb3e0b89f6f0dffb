"""Per-layer metrics from the spans of a traced run.

Every metric is reported on every workload. A layer a workload never runs
reads 0 there (no stub on edit-stream and serve-mixed, no evaluation
harness on serve-mixed and remote-lm, no HTTP server on edit-stream and
remote-lm); the README's table says where each one is expected to move.
"""

from __future__ import annotations

import re
import statistics
from collections import defaultdict

import numpy as np

EDITED_SUBJECT = re.compile(r"Entity\d{5}")

# name -> unit, in the order BENCHMARK.json lists them.
UNITS = {
    "memory.append_p50_ms": "ms",
    "memory.load_s": "s",
    "retrieval.embed_calls": "count",
    "retrieval.embed_s": "s",
    "retrieval.index_add_s": "s",
    "retrieval.top_k_p50_ms": "ms",
    "retrieval.top_k_p99_ms": "ms",
    "selector.train_s": "s",
    "selector.select_p50_ms": "ms",
    "selector.selected_per_answer": "count",
    "selector.precision": "share",
    "decoding.first_token_p50_ms": "ms",
    "decoding.candidates_per_answer": "count",
    "decoding.fallback_share": "share",
    "lm.distribution_calls_per_answer": "count",
    "lm.distribution_p50_ms": "ms",
    "lm.greedy_continue_p50_ms": "ms",
    "lm.first_token_of_calls_per_answer": "count",
    "lm.requests_per_edited_answer": "count",
    "lm.requests_per_unrelated_answer": "count",
    "lm.stub_service_p50_ms": "ms",
    "engine.build_s": "s",
    "engine.answer_p50_ms": "ms",
    "engine.add_fact_p50_ms": "ms",
    "evalharness.baselines_s": "s",
    "evalharness.checkpoint_s": "s",
    "server.health_rtt_ms": "ms",
    "server.overhead_p50_ms": "ms",
}


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _mean(values) -> float:
    return float(sum(values) / len(values)) if values else 0.0


def _ms(spans) -> list[float]:
    return [(s.end - s.start) * 1e3 for s in spans]


def per_layer(spans, extras: dict) -> dict[str, float]:
    """``extras`` carries what is measured outside the spans: the stub's
    request counts per answer and service time, and client-side round trips
    on serve-mixed."""
    by_name = defaultdict(list)
    by_id = {}
    children = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
        by_id[span.id] = span
        if span.parent is not None:
            children[span.parent].append(span)

    def duration(span) -> float:
        return span.end - span.start

    def self_time(span) -> float:
        return duration(span) - sum(duration(c) for c in children[span.id])

    def in_answer(span) -> bool:
        parent = by_id.get(span.parent)
        while parent is not None:
            if parent.name == "engine.answer":
                return True
            parent = by_id.get(parent.parent)
        return False

    answers = by_name["engine.answer"]
    selects = by_name["selector.select"]
    selected = [subj for s in selects for subj in s.attrs["selected"]]
    own = [subj for s in selects for subj in s.attrs["selected"]
           if subj in EDITED_SUBJECT.findall(s.attrs["query"])]
    top_k = _ms(by_name["retrieval.top_k"])
    trainings = [sum(duration(c) for c in children[root.id] if c.name.startswith("selector."))
                 for root in by_name["bench.train_selector"]]
    checkpoints = []
    for run in by_name["evalharness.run_sequential"]:
        prefixes = [c for c in children[run.id] if c.name == "evalharness.evaluate_prefix"]
        if prefixes:
            checkpoints.append(duration(max(prefixes, key=lambda c: c.start)))
    decoded = by_name["decoding.answer"]
    engine_answer_p50 = _median(_ms(answers))
    client = extras.get("client_query_ms", [])
    metrics = {
        "memory.append_p50_ms": _median(_ms(by_name["memory.append"])),
        "memory.load_s": _median([duration(s) for s in by_name["memory.load"]]),
        "retrieval.embed_calls": float(len(by_name["retrieval.embed"])),
        "retrieval.embed_s": sum(duration(s) for s in by_name["retrieval.embed"]),
        "retrieval.index_add_s": sum(duration(s) for s in by_name["retrieval.index_add"]),
        "retrieval.top_k_p50_ms": _median(top_k),
        "retrieval.top_k_p99_ms": float(np.percentile(top_k, 99)) if top_k else 0.0,
        "selector.train_s": _median(trainings),
        "selector.select_p50_ms": _median(_ms(selects)),
        "selector.selected_per_answer": len(selected) / len(selects) if selects else 0.0,
        "selector.precision": len(own) / len(selected) if selected else 0.0,
        "decoding.first_token_p50_ms": _median(
            [self_time(s) * 1e3 for s in by_name["decoding.adjusted_first_token"]]),
        "decoding.candidates_per_answer": _mean(
            [s.attrs["candidates"] for s in by_name["decoding.adjusted_first_token"]]),
        "decoding.fallback_share": _mean([float(s.attrs["fallback"]) for s in decoded]),
        "lm.distribution_calls_per_answer": (
            sum(in_answer(s) for s in by_name["lm.next_token_distribution"]) / len(answers)
            if answers else 0.0),
        "lm.distribution_p50_ms": _median(_ms(by_name["lm.next_token_distribution"])),
        "lm.greedy_continue_p50_ms": _median(_ms(by_name["lm.greedy_continue"])),
        "lm.first_token_of_calls_per_answer": (
            sum(in_answer(s) for s in by_name["lm.first_token_of"]) / len(answers)
            if answers else 0.0),
        "lm.requests_per_edited_answer": _mean(extras.get("stub_requests_edited", [])),
        "lm.requests_per_unrelated_answer": _mean(extras.get("stub_requests_unrelated", [])),
        "lm.stub_service_p50_ms": extras.get("stub_service_p50_ms", 0.0),
        "engine.build_s": _median([duration(s) for s in by_name["engine.build_engine"]]),
        "engine.answer_p50_ms": engine_answer_p50,
        "engine.add_fact_p50_ms": _median(_ms(by_name["engine.add_fact"])),
        "evalharness.baselines_s": _median(
            [duration(s) for s in by_name["evalharness.record_baselines"]]),
        "evalharness.checkpoint_s": _median(checkpoints),
        "server.health_rtt_ms": _median(extras.get("health_rtt_ms", [])),
        "server.overhead_p50_ms": _median(client) - engine_answer_p50 if client else 0.0,
    }
    return {name: float(metrics[name]) for name in UNITS}
