"""In-memory span tracer and the wrappers that put it around factpatch.

Nothing under ``src/`` is changed: ``install`` replaces functions with
timing wrappers from the outside and ``uninstall`` puts the originals back.
A method is wrapped on its class; a function is wrapped at the module
attribute its caller looks up (``decoding.answer`` calls ``select`` and
``adjusted_first_token`` through ``factpatch.decoding``, the CLI calls
``build_engine`` through ``factpatch.cli``).

A span records name, start, end, parent span and request id. A span opened
with no parent on its thread starts a new request; its descendants share
that request id. Spans are kept in memory and written out at the end.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from dataclasses import dataclass, field

# (module, attribute path, span name). evalharness._evaluate_prefix is the
# one private name: checkpoint evaluation has no public entry point.
WRAPPED = (
    ("factpatch.memory", "FactStore.__init__", "memory.load"),
    ("factpatch.memory", "FactStore.append", "memory.append"),
    ("factpatch.retrieval", "HashedEmbedder.embed", "retrieval.embed"),
    ("factpatch.retrieval", "FactIndex.add", "retrieval.index_add"),
    ("factpatch.retrieval", "FactIndex.top_k", "retrieval.top_k"),
    ("factpatch.selector", "build_training_pairs", "selector.build_training_pairs"),
    ("factpatch.selector", "train", "selector.train"),
    ("factpatch.decoding", "select", "selector.select"),
    ("factpatch.decoding", "adjusted_first_token", "decoding.adjusted_first_token"),
    ("factpatch.decoding", "answer", "decoding.answer"),
    ("factpatch.lm", "ToyLM.next_token_distribution", "lm.next_token_distribution"),
    ("factpatch.lm", "ToyLM.greedy_continue", "lm.greedy_continue"),
    ("factpatch.lm", "ToyLM.first_token_of", "lm.first_token_of"),
    ("factpatch.lm", "RemoteLM.next_token_distribution", "lm.next_token_distribution"),
    ("factpatch.lm", "RemoteLM.greedy_continue", "lm.greedy_continue"),
    ("factpatch.lm", "RemoteLM.first_token_of", "lm.first_token_of"),
    ("factpatch.engine", "build_engine", "engine.build_engine"),
    ("factpatch.cli", "build_engine", "engine.build_engine"),
    ("factpatch.engine", "Engine.answer", "engine.answer"),
    ("factpatch.engine", "Engine.add_fact", "engine.add_fact"),
    ("factpatch.evalharness", "record_baselines", "evalharness.record_baselines"),
    ("factpatch.evalharness", "_evaluate_prefix", "evalharness.evaluate_prefix"),
    ("factpatch.evalharness", "run_sequential", "evalharness.run_sequential"),
    ("factpatch.server", "ApiHandler.do_GET", "server.request"),
    ("factpatch.server", "ApiHandler.do_POST", "server.request"),
)


def _selection(args, kwargs, result) -> dict:
    return {"query": args[1], "selected": [d.fact.subject for d in result if d.selected]}


def _candidates(args, kwargs, result) -> dict:
    return {"candidates": len(result[2])}


def _fallback(args, kwargs, result) -> dict:
    return {"fallback": result[1].fallback_used}


ATTRS = {
    "selector.select": _selection,
    "decoding.adjusted_first_token": _candidates,
    "decoding.answer": _fallback,
}


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: int | None
    request: int
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "request": self.request, "attrs": self.attrs}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._next = 0
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def _new_id(self) -> int:
        with self._lock:
            self._next += 1
            return self._next

    def begin(self, name: str) -> Span:
        stack = self._local.__dict__.setdefault("stack", [])
        span_id = self._new_id()
        parent = stack[-1] if stack else None
        span = Span(span_id, name, time.perf_counter(), parent.id if parent else None,
                    parent.request if parent else span_id)
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._local.stack.pop()
        self.spans.append(span)

    def wrap(self, owner, attribute: str, name: str) -> None:
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        describe = ATTRS.get(name)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
                if describe is not None:
                    span.attrs = describe(args, kwargs, result)
                return result
            finally:
                tracer.end(span)

        setattr(owner, attribute, wrapper)
        self._undo.append((owner, attribute, original))

    def install(self) -> "Tracer":
        for module_name, path, name in WRAPPED:
            owner = importlib.import_module(module_name)
            *outer, attribute = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            self.wrap(owner, attribute, name)
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)



def dump(spans: list[Span], path: str) -> None:
    """Write spans as JSON lines."""
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span.to_dict()) + "\n")


def load(path: str, id_offset: int) -> list[Span]:
    """Spans written by another process, renumbered past ``id_offset``."""
    spans = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            d = json.loads(line)
            parent = None if d["parent"] is None else d["parent"] + id_offset
            spans.append(Span(d["id"] + id_offset, d["name"], d["start"], parent,
                              d["request"] + id_offset, d["end"], d["attrs"]))
    return spans
