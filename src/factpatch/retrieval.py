"""Dense retrieval over fact surface texts.

The built-in embedder is a hashed term-frequency encoder: lowercase, split on
non-alphanumerics, then hash word tokens and character trigrams into a fixed
number of buckets and L2-normalize. It needs no fitting, so vectors never go
stale as edits stream in. Scoring is an exact exhaustive dot-product scan;
with normalized vectors that is cosine similarity.
"""

from __future__ import annotations

import hashlib
import re
import threading
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np
import requests

from .errors import BackendError, ValidationError
from .memory import EditFact

DEFAULT_BUCKETS = 4096

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> list[str]:
    """Lowercase and split on non-alphanumerics, dropping empty pieces."""
    return _TOKEN_RE.findall(text.lower())


def _bucket(feature: str, buckets: int) -> int:
    digest = hashlib.blake2b(feature.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % buckets


def _embed(buckets: int, text: str) -> np.ndarray:
    tokens = tokenize(text)
    if not tokens:
        raise ValidationError("text has no alphanumeric content to embed")
    canonical = " ".join(tokens)
    vec = np.zeros(buckets, dtype=np.float32)
    for token in tokens:
        vec[_bucket("w:" + token, buckets)] += 1.0
    for i in range(len(canonical) - 2):
        vec[_bucket("t:" + canonical[i : i + 3], buckets)] += 1.0
    norm = float(np.linalg.norm(vec))
    vec /= norm
    vec.flags.writeable = False
    return vec


class HashedEmbedder:
    """Deterministic hashing embedder over word tokens and character trigrams.

    Word features and trigram features are namespaced before hashing so a
    3-letter word and the identical trigram do not collide by construction.
    """

    def __init__(self, buckets: int = DEFAULT_BUCKETS):
        if buckets < 1:
            raise ValidationError("buckets must be >= 1")
        self.buckets = buckets
        # Same text always hashes to the same vector, so memoize. A cache over a
        # bound method would hold the embedder in a cycle; this one does not.
        self._embed_cached = lru_cache(maxsize=65536)(partial(_embed, buckets))

    def embed(self, text: str) -> np.ndarray:
        if not text or not text.strip():
            raise ValidationError("cannot embed empty text")
        return self._embed_cached(text)


class RemoteEmbedder:
    """Client for an HTTP embedding endpoint.

    Protocol: POST ``{"texts": [...]}`` to ``url``, response
    ``{"embeddings": [[...], ...]}``. The dimensionality seen in the first
    response is pinned; later mismatches raise.
    """

    def __init__(self, url: str, timeout: float = 10.0, session: requests.Session | None = None):
        self.url = url
        self.timeout = timeout
        self._session = session or requests.Session()
        self._dim: int | None = None

    def embed_batch(self, texts: list[str]) -> np.ndarray:
        for text in texts:
            if not text or not text.strip():
                raise ValidationError("cannot embed empty text")
        try:
            response = self._session.post(self.url, json={"texts": texts}, timeout=self.timeout)
        except requests.RequestException as exc:
            raise BackendError(f"embedding request to {self.url} failed: {exc}") from exc
        if response.status_code != 200:
            raise BackendError(
                f"embedding endpoint returned HTTP {response.status_code}",
                last_status=response.status_code,
            )
        body = response.json()
        if "embeddings" not in body:
            raise BackendError("embedding response missing 'embeddings' field")
        matrix = np.asarray(body["embeddings"], dtype=np.float32)
        if matrix.ndim != 2 or matrix.shape[0] != len(texts):
            raise BackendError("embedding response shape does not match request")
        if self._dim is None:
            self._dim = int(matrix.shape[1])
        elif matrix.shape[1] != self._dim:
            raise BackendError(
                f"embedding dimensionality changed from {self._dim} to {matrix.shape[1]}"
            )
        return matrix

    def embed(self, text: str) -> np.ndarray:
        return self.embed_batch([text])[0]


@dataclass(frozen=True)
class ScoredFact:
    fact: EditFact
    score: float


class FactIndex:
    """Exact dot-product index over fact vectors.

    Re-adding a fact_id replaces its entry. ``top_k`` ranks every indexed
    fact, breaks score ties by newer seq then fact_id, drops superseded
    versions of the same (subject, relation) key (latest wins), and returns
    up to k survivors, refilling from deeper ranks as duplicates drop out.
    That makes ``top_k(q, k)`` a prefix of ``top_k(q, k + 1)``.
    """

    def __init__(self, embedder):
        self.embedder = embedder
        self._lock = threading.Lock()
        self._ids: list[str] = []
        self._row_of: dict[str, int] = {}
        self._facts: dict[str, EditFact] = {}
        self._rows: list[np.ndarray] = []
        self._key_max_seq: dict[tuple[str, str], int] = {}
        self._matrix: np.ndarray | None = None
        self._seqs: np.ndarray | None = None
        self._id_array: np.ndarray | None = None

    def __len__(self) -> int:
        with self._lock:
            return len(self._ids)

    def add(self, fact: EditFact) -> None:
        vector = self.embedder.embed(fact.surface_text)
        with self._lock:
            old = self._facts.get(fact.fact_id)
            if old is not None:
                self._rows[self._row_of[fact.fact_id]] = vector
            else:
                self._row_of[fact.fact_id] = len(self._ids)
                self._ids.append(fact.fact_id)
                self._rows.append(vector)
            self._facts[fact.fact_id] = fact
            self._matrix = None

    def _refresh(self) -> None:
        if self._matrix is None:
            self._matrix = np.stack(self._rows) if self._rows else np.zeros((0, 1), np.float32)
            self._seqs = np.array([self._facts[i].seq for i in self._ids], dtype=np.int64)
            self._id_array = np.array(self._ids)
            self._key_max_seq = {}
            for fact in self._facts.values():
                key = (fact.subject, fact.relation)
                if fact.seq > self._key_max_seq.get(key, -1):
                    self._key_max_seq[key] = fact.seq

    def top_k(self, query: str, k: int) -> list[ScoredFact]:
        if k < 1:
            raise ValidationError("k must be >= 1")
        query_vec = self.embedder.embed(query)
        with self._lock:
            if not self._ids:
                return []
            self._refresh()
            scores = self._matrix @ query_vec
            # lexsort: last key is primary, so score desc, then seq desc, then id.
            order = np.lexsort((self._id_array, -self._seqs, -scores))
            results: list[ScoredFact] = []
            for row in order:
                fact = self._facts[self._ids[row]]
                if self._key_max_seq[(fact.subject, fact.relation)] != fact.seq:
                    continue  # superseded by a newer edit of the same key
                results.append(ScoredFact(fact=fact, score=float(scores[row])))
                if len(results) == k:
                    break
            return results
