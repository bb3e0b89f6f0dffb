"""Decides which retrieved facts are actually relevant to a query.

A query/fact pair is summarized by five lexical-overlap features and scored
with logistic regression. Pairs scoring strictly above the threshold are
selected; when nothing clears it, the caller falls back to the unedited
model, which is what keeps unrelated queries untouched.

Feature vector (all values in [0, 1]):
    0. token-set Jaccard overlap between query and surface_text
    1. 1.0 if the subject appears verbatim in the query (case-insensitive)
    2. character-trigram cosine between query and surface_text
    3. token-count ratio min/max between query and surface_text
    4. token-set Jaccard overlap between query and the relation text alone
       (the ``{s}`` placeholder is dropped before tokenizing)
"""

from __future__ import annotations

import logging
import os
from collections import Counter
from dataclasses import dataclass
from math import sqrt
from typing import Sequence

import numpy as np

from .errors import ConfigError, ValidationError
from .files import read_object, write_json
from .memory import SUBJECT_PLACEHOLDER, EditFact, tokenize
from .retrieval import ScoredFact

logger = logging.getLogger(__name__)

FEATURE_VERSION = "pair-features-v1"
N_FEATURES = 5
DEFAULT_THRESHOLD = 0.5


def _jaccard(a: set[str], b: set[str]) -> float:
    if not a and not b:
        return 0.0
    return len(a & b) / len(a | b)


def _trigram_counts(tokens: list[str]) -> Counter:
    joined = " ".join(tokens)
    return Counter(map("".join, zip(joined, joined[1:], joined[2:])))


def _cosine(a: Counter, b: Counter) -> float:
    if not a or not b:
        return 0.0
    dot = sum(a[gram] * b[gram] for gram in a.keys() & b.keys())  # exact: counts are ints
    norm = sqrt(sum(c * c for c in a.values())) * sqrt(sum(c * c for c in b.values()))
    return dot / norm if norm else 0.0


def _query_side(query: str) -> tuple[list[str], set[str], str, Counter]:
    """The query's half of every pair feature: tokens, token set, lowercase, trigrams."""
    if not query.strip():
        raise ValidationError("query must be non-empty")
    q_tokens = tokenize(query)
    return q_tokens, set(q_tokens), query.lower(), _trigram_counts(q_tokens)


def _pair_features(query_side: tuple, fact: EditFact) -> np.ndarray:
    q_tokens, q_set, q_lower, q_grams = query_side
    s_tokens = tokenize(fact.surface_text)
    s_set = set(s_tokens)
    subject_hit = 1.0 if fact.subject.lower() in q_lower else 0.0
    relation_text = fact.relation.replace(SUBJECT_PLACEHOLDER, " ")
    r_set = set(tokenize(relation_text))
    if q_tokens and s_tokens:
        length_ratio = min(len(q_tokens), len(s_tokens)) / max(len(q_tokens), len(s_tokens))
    else:
        length_ratio = 0.0
    return np.array(
        [
            _jaccard(q_set, s_set),
            subject_hit,
            _cosine(q_grams, _trigram_counts(s_tokens)),
            length_ratio,
            _jaccard(q_set, r_set),
        ],
        dtype=np.float64,
    )


def extract_features(query: str, fact: EditFact) -> np.ndarray:
    """Feature vector for one query/fact pair. Deterministic, finite, in [0, 1]."""
    return _pair_features(_query_side(query), fact)


@dataclass(frozen=True)
class ScorerParams:
    """Logistic-regression weights plus the feature-extractor version they fit."""

    weights: np.ndarray
    bias: float
    feature_version: str = FEATURE_VERSION

    def __post_init__(self) -> None:
        weights = np.asarray(self.weights, dtype=np.float64)
        object.__setattr__(self, "weights", weights)
        if weights.ndim != 1:
            raise ValidationError("weights must be a 1-D vector")
        if not np.all(np.isfinite(weights)) or not np.isfinite(self.bias):
            raise ValidationError("scorer parameters must be finite")

    @classmethod
    def untrained(cls, n_features: int = N_FEATURES) -> "ScorerParams":
        return cls(weights=np.zeros(n_features), bias=0.0)

    def probabilities(self, query: str, facts: Sequence[EditFact]) -> list[float]:
        """``score`` for each fact, with the query's side of the features built once."""
        query_side = _query_side(query)
        rows = [_pair_features(query_side, fact) for fact in facts]
        if rows and rows[0].shape != self.weights.shape:
            raise ValidationError(f"{N_FEATURES} features but {self.weights.size} weights")
        return [float(sigmoid(row @ self.weights + self.bias)) for row in rows]


def sigmoid(z: np.ndarray | float) -> np.ndarray | float:
    # Clipping keeps the output strictly inside (0, 1) in float64.
    z = np.clip(z, -35.0, 35.0)
    return 1.0 / (1.0 + np.exp(-z))


def score(params: ScorerParams, query: str, fact: EditFact) -> float:
    return params.probabilities(query, [fact])[0]


@dataclass(frozen=True)
class SelectionDecision:
    fact: EditFact
    probability: float
    selected: bool


def select(
    scorer,
    query: str,
    candidates: Sequence[ScoredFact | EditFact],
    threshold: float = DEFAULT_THRESHOLD,
) -> list[SelectionDecision]:
    """Score every candidate; selection requires probability strictly above threshold.

    ``scorer`` is anything with ``probabilities(query, facts)``, such as
    trained ``ScorerParams``. Decisions come back in candidate (retrieval)
    order, so the selected subset preserves it too. A
    probability of exactly ``threshold`` is not selected: untrained all-zero
    parameters score 0.5 everywhere and select nothing.
    """
    if not 0.0 < threshold < 1.0:
        raise ValidationError("threshold must be strictly between 0 and 1")
    facts = [c.fact if isinstance(c, ScoredFact) else c for c in candidates]
    probs = scorer.probabilities(query, facts)
    return [
        SelectionDecision(fact=f, probability=p, selected=p > threshold)
        for f, p in zip(facts, probs)
    ]


# ── training ──


@dataclass(frozen=True)
class TrainingPair:
    query: str
    fact: EditFact
    label: int


def bce_loss(params: ScorerParams, features: np.ndarray, labels: np.ndarray) -> float:
    """Mean binary cross-entropy of the scorer on a feature matrix."""
    p = sigmoid(features @ params.weights + params.bias)
    p = np.clip(p, 1e-12, 1.0 - 1e-12)
    return float(-np.mean(labels * np.log(p) + (1.0 - labels) * np.log(1.0 - p)))


def bce_gradient(
    params: ScorerParams, features: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, float]:
    """Analytic gradient of ``bce_loss`` w.r.t. weights and bias."""
    p = sigmoid(features @ params.weights + params.bias)
    residual = p - labels
    grad_w = features.T @ residual / len(labels)
    grad_b = float(np.mean(residual))
    return grad_w, grad_b


def fit(
    features: np.ndarray,
    labels: np.ndarray,
    *,
    epochs: int = 40,
    learning_rate: float = 0.5,
    batch_size: int = 32,
    seed: int = 0,
) -> tuple[ScorerParams, list[float]]:
    """Mini-batch gradient descent from zero init. Returns params and per-epoch loss.

    The epoch loss is evaluated on the full set after each epoch; with zero
    epochs the returned parameters equal the initialization.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] != labels.shape[0]:
        raise ValidationError("features and labels must align")
    distinct = set(np.unique(labels).tolist())
    if not distinct <= {0.0, 1.0}:
        raise ValidationError("labels must be 0 or 1")
    if distinct != {0.0, 1.0}:
        raise ValidationError("training data must contain both classes")
    if epochs < 0 or batch_size < 1 or learning_rate <= 0:
        raise ValidationError("invalid training hyperparameters")
    rng = np.random.default_rng(seed)
    weights = np.zeros(features.shape[1], dtype=np.float64)
    bias = 0.0
    losses: list[float] = []
    n = features.shape[0]
    for epoch in range(epochs):
        perm = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = perm[start : start + batch_size]
            grad_w, grad_b = bce_gradient(
                ScorerParams(weights=weights, bias=bias), features[idx], labels[idx]
            )
            weights = weights - learning_rate * grad_w
            bias = bias - learning_rate * grad_b
        loss = bce_loss(ScorerParams(weights=weights, bias=bias), features, labels)
        losses.append(loss)
        logger.debug("epoch %d loss %.6f", epoch + 1, loss)
    return ScorerParams(weights=weights, bias=bias), losses


def train(
    pairs: Sequence[TrainingPair],
    *,
    epochs: int = 40,
    learning_rate: float = 0.5,
    batch_size: int = 32,
    seed: int = 0,
) -> ScorerParams:
    """Train the scorer on labeled query/fact pairs."""
    if not pairs:
        raise ValidationError("no training pairs")
    features = np.stack([extract_features(p.query, p.fact) for p in pairs])
    labels = np.array([p.label for p in pairs], dtype=np.float64)
    params, _ = fit(
        features,
        labels,
        epochs=epochs,
        learning_rate=learning_rate,
        batch_size=batch_size,
        seed=seed,
    )
    return params


def build_training_pairs(
    cases: Sequence,
    *,
    negatives_per_positive: int = 1,
    seed: int = 0,
) -> list[TrainingPair]:
    """Make positives from each case's own queries and negatives from other cases' facts.

    ``cases`` is a sequence of evaluation cases (see ``evalharness.EvalCase``);
    positives pair every reliability and generality query with the case's own
    fact, negatives pair the same query with uniformly sampled facts from
    other cases. Deterministic for a fixed seed.
    """
    if len(cases) < 2:
        raise ValidationError("need at least two cases to sample negatives")
    if negatives_per_positive < 0:
        raise ValidationError("negatives_per_positive must be >= 0")
    rng = np.random.default_rng(seed)
    facts = [case.as_fact(seq=i) for i, case in enumerate(cases)]
    pairs: list[TrainingPair] = []
    for i, case in enumerate(cases):
        queries = [q.query for q in list(case.rel_queries) + list(case.gen_queries)]
        other_rows = [j for j in range(len(cases)) if j != i]
        for query in queries:
            pairs.append(TrainingPair(query=query, fact=facts[i], label=1))
            for _ in range(negatives_per_positive):
                j = other_rows[int(rng.integers(len(other_rows)))]
                pairs.append(TrainingPair(query=query, fact=facts[j], label=0))
    return pairs


# ── persistence ──


def save_params(params: ScorerParams, path: str | os.PathLike[str]) -> None:
    body = {
        "feature_version": params.feature_version,
        "weights": [float(w) for w in params.weights],
        "bias": float(params.bias),
    }
    write_json(path, body)


def load_params(path: str | os.PathLike[str]) -> ScorerParams:
    path = os.fspath(path)

    def decode(body: dict) -> ScorerParams:
        version = body.get("feature_version")
        if version != FEATURE_VERSION:
            raise ConfigError(
                f"scorer params at {path} were built for feature extractor "
                f"{version!r}, current is {FEATURE_VERSION!r}"
            )
        return ScorerParams(
            weights=np.asarray(body["weights"], dtype=np.float64),
            bias=float(body["bias"]),
            feature_version=version,
        )

    return read_object(path, decode)
