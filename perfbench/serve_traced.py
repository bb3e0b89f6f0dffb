"""Traced launcher for the serve-mixed server child.

    python3 perfbench/serve_traced.py SPANS_OUT serve --config FILE ...

Installs the span wrappers from ``spans.py``, runs ``factpatch.cli.main``
with the remaining arguments, and writes the spans to SPANS_OUT when the
server shuts down (SIGINT).
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from factpatch import cli  # noqa: E402

import spans  # noqa: E402


def main(argv: list[str]) -> int:
    tracer = spans.Tracer().install()
    try:
        return cli.main(argv[2:])
    finally:
        tracer.uninstall()
        spans.dump(tracer.spans, argv[1])


if __name__ == "__main__":
    sys.exit(main(sys.argv))
