"""Self-tests of the benchmark: the oracle, and each workload at a tiny size.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import gen  # noqa: E402
import layers  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# ── oracle against hand-computed thresholds (beta = 0.4) ──

# easy, full tables: (ln 0.6*0.9 - ln(0.6*0.05 + 0.4)) / (ln 0.9 - ln 0.05)
#                  = (-0.61619 + 0.84397) / (-0.10536 + 2.99573) = 0.07881
EASY_FULL = 0.07881
# easy, top-n tables: (ln 0.6*0.85 - ln 0.46) / (ln 0.85 - ln 0.1)
#                   = (-0.67334 + 0.77653) / (-0.16252 + 2.30259) = 0.04822
EASY_TOPN = 0.04822
# fragile paraphrase, junk over new: (ln 0.43 - ln 0.15) / (ln 0.05 - ln 0.005)
#                                  = (-0.84397 + 1.89712) / 2.30259 = 0.45738
FRAGILE_JUNK = 0.45738


@pytest.mark.parametrize("style, table, threshold", [
    ("full", gen.FULL_TABLES["easy"], EASY_FULL),
    ("topn", gen.TOPN_TABLES["easy"], EASY_TOPN),
])
def test_easy_winner_flips_at_threshold(style, table, threshold):
    def winner(alpha):
        return oracle.contrast_winner(table, table, beta=0.4, alpha=alpha, vocab_size=900)
    assert winner(threshold - 0.005) == "old"
    assert winner(threshold + 0.005) == "new"


def test_fragile_paraphrase_flips_to_junk_at_threshold():
    def winner(alpha):
        return oracle.contrast_winner(gen.FULL_TABLES["fragile_query"],
                                      gen.FULL_TABLES["fragile_prompt"],
                                      beta=0.4, alpha=alpha, vocab_size=900)
    assert winner(0.2) == "new"
    assert winner(FRAGILE_JUNK - 0.005) == "new"
    assert winner(FRAGILE_JUNK + 0.005) == "junk"


def test_workload_alpha_picks_the_new_object_for_every_kind():
    world = gen.build_world(40, 3)
    for case in world.cases:
        for channel in ("rel", "gen"):
            assert oracle.edited_answer(world, case, channel) == case.new_object
    assert oracle.unrelated_answer(world, "Landmark00007") == "Alt00007"


# ── workloads at a tiny size ──

TINY = {
    "edit-stream": dict(n_cases=30, checkpoints=(15, 30)),
    "serve-mixed": dict(n_preload=200, n_landmarks=100, n_reserve=40, n_setups=1),
    "remote-lm": dict(n_preload=100, n_landmarks=100, n_setups=1),
}

ALL_WORKLOADS = set(TINY)
# Which span fires where, as the per-layer table in the README says.
FIRES_ON = {
    "memory.load": ALL_WORKLOADS,
    "memory.append": ALL_WORKLOADS,
    "retrieval.embed": ALL_WORKLOADS,
    "retrieval.index_add": ALL_WORKLOADS,
    "retrieval.top_k": ALL_WORKLOADS,
    "selector.build_training_pairs": ALL_WORKLOADS,
    "selector.train": ALL_WORKLOADS,
    "selector.select": ALL_WORKLOADS,
    "decoding.adjusted_first_token": ALL_WORKLOADS,
    "decoding.answer": ALL_WORKLOADS,
    "lm.next_token_distribution": ALL_WORKLOADS,
    "lm.greedy_continue": ALL_WORKLOADS,
    "lm.first_token_of": ALL_WORKLOADS,
    "engine.build_engine": ALL_WORKLOADS,
    "engine.answer": ALL_WORKLOADS,
    "engine.add_fact": ALL_WORKLOADS,
    "evalharness.record_baselines": {"edit-stream"},
    "evalharness.evaluate_prefix": {"edit-stream"},
    "evalharness.run_sequential": {"edit-stream"},
    "server.request": {"serve-mixed"},
}
# Per-layer metrics that read 0 where their layer does not run.
ONLY_ON = {
    "lm.requests_per_edited_answer": {"remote-lm"},
    "lm.requests_per_unrelated_answer": {"remote-lm"},
    "lm.stub_service_p50_ms": {"remote-lm"},
    "evalharness.baselines_s": {"edit-stream"},
    "evalharness.checkpoint_s": {"edit-stream"},
    "server.health_rtt_ms": {"serve-mixed"},
    "server.overhead_p50_ms": {"serve-mixed"},
}


def _run(name: str, tmp_path, tracer=None) -> workloads.Outcome:
    ctx = workloads.RunContext(root=os.path.dirname(HERE), work=str(tmp_path), seed=5,
                               seconds=0.5, tracer=tracer)
    return workloads.WORKLOADS[name](ctx, **TINY[name])


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_runs_without_failures(name, tmp_path):
    out = _run(name, tmp_path)
    assert out.attempted > 0
    assert out.failed == 0
    assert out.checks_ok
    assert out.edited_ms and out.unrelated_ms and out.edit_ms and out.setup_s and out.eval_s


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_fires_every_wrapper_where_expected(name, tmp_path):
    tracer = spans.Tracer().install()
    try:
        out = _run(name, tmp_path, tracer)
    finally:
        tracer.uninstall()
    assert out.failed == 0 and out.checks_ok
    fired = {s.name for s in tracer.spans + out.child_spans}
    for span_name, where in FIRES_ON.items():
        assert (span_name in fired) == (name in where), span_name
    metrics = layers.per_layer(tracer.spans + out.child_spans, out.extras)
    assert set(metrics) == set(layers.UNITS)
    assert metrics["selector.precision"] == 1.0
    for metric, value in metrics.items():
        if metric in ONLY_ON and name not in ONLY_ON[metric]:
            assert value == 0.0, metric
        else:
            assert value > 0.0, metric


def test_uninstall_restores_the_program():
    from factpatch import decoding, engine

    before = (decoding.select, engine.Engine.answer)
    spans.Tracer().install().uninstall()
    assert (decoding.select, engine.Engine.answer) == before
