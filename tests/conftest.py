"""Shared fixtures: a small hand-checkable language model world.

The "capitals" spec below is sized so every distribution can be verified
with a calculator: one rule per subject, beta = 0.6, and a four-word
residual pool.
"""

from __future__ import annotations

import pytest

from factpatch.lm import ToyLM, ToyLmSpec, ToyRule
from factpatch.memory import FactStore

CAPITALS_VOCAB = [
    "Paris",
    "Rome",
    "Berlin",
    "Lyon",
    "blue",
    "red",
    "green",
    "amber",
]


def capitals_spec(beta: float = 0.6) -> ToyLmSpec:
    rules = [
        ToyRule(
            subject="France",
            keywords=("capital",),
            answers={"Paris": 0.9, "Rome": 0.02, "*": 0.08},
        ),
        ToyRule(
            subject="Italy",
            keywords=("capital",),
            answers={"Rome": 0.85, "Paris": 0.05, "*": 0.10},
        ),
        ToyRule(
            subject="sky",
            keywords=("color", "colour"),
            answers={"blue": 0.95, "*": 0.05},
        ),
    ]
    return ToyLmSpec(
        vocabulary=tuple(CAPITALS_VOCAB),
        rules=tuple(rules),
        beta=beta,
        continuations={"Paris": "is the answer", "Rome": "of course"},
    )


def add_to_index(index, fact) -> None:
    """Index a fact as Engine.add_fact does: embedded once, then added."""
    index.add(fact, index.embedder.embed_uncached(fact.surface_text))


@pytest.fixture
def capitals_lm() -> ToyLM:
    return ToyLM(capitals_spec())


@pytest.fixture
def empty_store(tmp_path) -> FactStore:
    return FactStore(tmp_path / "facts.jsonl")
