"""Benchmark entry point.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Builds nothing: the program is imported from the checkout's ``src/``, and
the run fails (exit 2) if that is missing. A run measures for
``run_seconds`` of ``BENCHMARK.json``; ``--seconds``, which the standard
benchmark invocation passes, must equal it. The exit status is 1 when a
workload failed an operation or a check. With ``--trace 0`` the last line
of standard output is a JSON object with the end-to-end metrics, with
``--trace 1`` one with the per-layer metrics from the spans (see
``layers.py``); the spans themselves go to ``perfbench/work/traces/``.
``--workload all`` runs each workload in a child process of its own, so
peak memory is measured per workload, and prints one JSON object keyed by
workload.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
WORKLOADS = ("edit-stream", "serve-mixed", "remote-lm")

# Settings for this process and its children (run.py re-executes itself to
# apply them). Each made the same code measure differently from run to run
# on a 2-core machine, for reasons outside the program:
#   - glibc raises its mmap threshold the first time a large block is freed,
#     so whether the index's multi-megabyte matrices were mmapped or carved
#     from the heap depended on allocation order, and numpy's request for
#     transparent huge pages was granted only when the kernel had them: peak
#     memory read 190, 206 or 222 MB and an edit 0.2 to 1.1 ms. The
#     threshold is fixed at glibc's initial 128 KiB and the request is off.
#   - OpenBLAS's worker thread spins on the second core after every
#     matrix-vector product (24 s of CPU for 12 s of work on edit-stream)
#     and competes with the thread doing the work. One BLAS thread.
RUN_ENV = {
    "MALLOC_MMAP_THRESHOLD_": "131072",
    "NUMPY_MADVISE_HUGEPAGE": "0",
    "OPENBLAS_NUM_THREADS": "1",
}

# name -> unit, in the order BENCHMARK.json lists them.
END_TO_END = {
    "setup_s": "s",
    "eval_s": "s",
    "answers_per_s": "1/s",
    "edited_p50_ms": "ms",
    "unrelated_p50_ms": "ms",
    "answer_p90_ms": "ms",
    "edit_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


def end_to_end(out) -> dict[str, float]:
    answers = out.edited_ms + out.unrelated_ms
    return {
        "setup_s": statistics.median(out.setup_s),
        "eval_s": statistics.median(out.eval_s),
        "answers_per_s": len(answers) / out.query_wall_s,
        "edited_p50_ms": statistics.median(out.edited_ms),
        "unrelated_p50_ms": statistics.median(out.unrelated_ms),
        "answer_p90_ms": float(np.percentile(answers, 90)),
        "edit_p50_ms": statistics.median(out.edit_ms),
        "peak_rss_mb": out.peak_rss_mb,
    }


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import layers
    import spans
    import workloads

    work_root = os.path.join(HERE, "work")
    os.makedirs(os.path.join(work_root, "traces"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-", dir=work_root)
    tracer = spans.Tracer().install() if trace else None
    try:
        ctx = workloads.RunContext(root=ROOT, work=work, seed=seed, seconds=seconds, tracer=tracer)
        out = workloads.WORKLOADS[name](ctx)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
    if trace:
        all_spans = tracer.spans + out.child_spans
        values = layers.per_layer(all_spans, out.extras)
        units = layers.UNITS
        spans.dump(all_spans, os.path.join(work_root, "traces", f"{name}-seed{seed}.jsonl"))
    else:
        values, units = end_to_end(out), END_TO_END
    print(f"{name} seed={seed} attempted={out.attempted} failed={out.failed} "
          f"answers={out.answers} checks_ok={out.checks_ok}")
    for metric, value in values.items():
        print(f"  {metric:36s} {value:14.4f} {units[metric]}")
    return {
        "correct": out.checks_ok and out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="must equal run_seconds in BENCHMARK.json, which sets the run length")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "factpatch", "__init__.py")):
        print(f"error: no factpatch sources under {SRC}", file=sys.stderr)
        return 2
    with open(SPEC, encoding="utf-8") as handle:
        seconds = json.load(handle)["run_seconds"]
    if args.seconds is not None and args.seconds != seconds:
        print(f"error: --seconds {args.seconds:g} differs from run_seconds {seconds} "
              "in BENCHMARK.json", file=sys.stderr)
        return 2
    if any(os.environ.get(k) != v for k, v in RUN_ENV.items()):
        env = dict(os.environ, **RUN_ENV)
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]], env)
    sys.path.insert(0, SRC)

    if args.workload == "all":
        results = {}
        for name in WORKLOADS:
            child = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True)
            lines = child.stdout.splitlines()
            print("\n".join(lines[:-1]))
            try:
                results[name] = json.loads(lines[-1])
            except (IndexError, ValueError):
                print(f"error: workload {name} exited {child.returncode} without a result",
                      file=sys.stderr)
                return 1
        print(json.dumps(results))
        return 0 if all(r["correct"] for r in results.values()) else 1

    import factpatch

    if not os.path.abspath(factpatch.__file__).startswith(SRC + os.sep):
        print(f"error: factpatch imported from {factpatch.__file__}, not {SRC}", file=sys.stderr)
        return 2
    result = run_one(args.workload, args.seed, seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
