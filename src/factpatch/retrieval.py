"""Sparse hashed retrieval over fact surface texts.

The embedder lowercases, splits on non-alphanumerics, and hashes word tokens
and character trigrams into a fixed number of buckets: a text becomes integer
counts in about 50 buckets, plus its integer squared norm. It needs no
fitting, so vectors never go stale as edits stream in. The index keeps an
append-only posting list per bucket; summing the query's postings gives every
fact's exact dot product, and ranking by cosine settles ties exactly.
"""

from __future__ import annotations

import hashlib
import math
import threading
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .memory import EditFact, tokenize

DEFAULT_BUCKETS = 4096

# Queries repeat within a few hundred distinct texts; a miss costs one embedding.
_CACHED_QUERIES = 1024

# Trigrams and words repeat across texts, so most lookups hit, and cached texts
# share the returned ints. Keyed on plain values, it holds no embedder alive.
@lru_cache(maxsize=1 << 16)
def _bucket(feature: str, buckets: int) -> int:
    digest = hashlib.blake2b(feature.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % buckets


class SparseVector(NamedTuple):
    """Non-zero bucket ids in increasing order, their counts, and the squared norm."""

    ids: tuple[int, ...]
    counts: tuple[int, ...]
    norm2: int


def _embed(buckets: int, text: str) -> SparseVector:
    tokens = tokenize(text)
    if not tokens:
        raise ValidationError("text has no alphanumeric content to embed")
    canonical = " ".join(tokens)
    features = ["w:" + token for token in tokens]
    features += ["t:" + canonical[i : i + 3] for i in range(len(canonical) - 2)]
    counts = Counter(map(_bucket, features, repeat(buckets)))
    ids = tuple(sorted(counts))
    values = tuple(counts[i] for i in ids)
    return SparseVector(ids, values, sum(v * v for v in values))


class HashedEmbedder:
    """Deterministic hashing embedder over word tokens and character trigrams.

    Word features and trigram features are namespaced before hashing so a
    3-letter word and the identical trigram do not collide by construction.
    """

    def __init__(self, buckets: int = DEFAULT_BUCKETS):
        if buckets < 1:
            raise ValidationError("buckets must be >= 1")
        self.buckets = buckets
        # A cache over a bound method would hold the embedder in a cycle; this
        # one does not.
        self._embed_cached = lru_cache(maxsize=_CACHED_QUERIES)(partial(_embed, buckets))

    def embed(self, text: str) -> SparseVector:
        """The memoised vector, for query texts, which repeat."""
        return self._embed_cached(text)

    def embed_uncached(self, text: str) -> SparseVector:
        """For a fact's text, embedded once, when the fact is added."""
        return _embed(self.buckets, text)


@dataclass(frozen=True)
class ScoredFact:
    fact: EditFact
    score: float


class FactIndex:
    """Exact cosine index over sparse fact vectors, on append-only postings.

    Facts arrive in increasing seq, as the store assigns it, so rows are in
    seq order. ``add`` appends a row to the postings of its buckets and makes
    it the one eligible row of its (subject, relation) key (latest wins).
    ``top_k`` ranks eligible rows by cosine d / sqrt(n) (dot product d,
    squared norm n), compared exactly as d²/n, then by newer row; rows with
    d = 0 rank by row alone. The order is total, so ``top_k(q, k)`` is a
    prefix of ``top_k(q, k + 1)``.
    """

    def __init__(self, embedder: HashedEmbedder):
        self.embedder = embedder
        self._lock = threading.Lock()
        self._facts: list[EditFact] = []  # by row
        self._norm2 = array("q")
        self._eligible = bytearray()
        self._newest: dict[tuple[str, str], int] = {}  # key -> its eligible row
        self._postings = defaultdict(lambda: (array("i"), array("i")))  # bucket -> rows, counts

    def __len__(self) -> int:
        with self._lock:
            return len(self._facts)

    def add(self, fact: EditFact, vector: SparseVector) -> None:
        with self._lock:
            if self._facts and fact.seq <= self._facts[-1].seq:
                raise ValidationError(
                    f"fact seq {fact.seq} is not above the last indexed seq {self._facts[-1].seq}"
                )
            row = len(self._facts)
            self._facts.append(fact)
            self._norm2.append(vector.norm2)
            self._eligible.append(1)
            for bucket, count in zip(vector.ids, vector.counts):
                rows, counts = self._postings[bucket]
                rows.append(row)
                counts.append(count)
            previous = self._newest.get((fact.subject, fact.relation))
            if previous is not None:
                self._eligible[previous] = 0
            self._newest[(fact.subject, fact.relation)] = row

    def top_k(self, query: str, k: int) -> list[ScoredFact]:
        if k < 1:
            raise ValidationError("k must be >= 1")
        vector = self.embedder.embed(query)
        with self._lock:
            hits = [
                (*self._postings[bucket], count)
                for bucket, count in zip(vector.ids, vector.counts)
                if bucket in self._postings
            ]
            # Each np.frombuffer view is a temporary that dies inside the lock; one
            # alive at the next add would make that add's append raise BufferError.
            none = [np.empty(0, np.intc)]
            posted = np.concatenate(none + [np.frombuffer(r, np.intc) for r, _, _ in hits])
            weights = np.concatenate(none + [np.frombuffer(c, np.intc) * q for _, c, q in hits])
            dots = np.bincount(posted, weights, minlength=len(self._facts))
            eligible = np.frombuffer(self._eligible, np.bool_).copy()
            # Integer sums in float64 are exact below 2**53.
            hit = np.flatnonzero(eligible & (dots > 0))
            scores = dots[hit] / np.sqrt(np.frombuffer(self._norm2, np.int64)[hit] * vector.norm2)
            # Float scores only shortlist, with slack for rounding; the sort below is exact.
            rows = hit
            if len(hit) > k:
                kth = np.partition(scores, len(hit) - k)[len(hit) - k]
                rows = hit[scores >= kth - kth * 1e-9]
            if len(rows) < k:
                zero = np.flatnonzero(eligible & (dots == 0))
                rows = np.concatenate([rows, zero[len(rows) - k:]])  # the newest ones
            ranked = sorted(
                rows.tolist(), key=lambda r: (-Fraction(int(dots[r]) ** 2, self._norm2[r]), -r)
            )[:k]
            norms = [math.sqrt(self._norm2[r] * vector.norm2) for r in ranked]
            return [ScoredFact(self._facts[r], float(dots[r]) / n) for r, n in zip(ranked, norms)]
