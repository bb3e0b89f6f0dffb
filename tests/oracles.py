"""Independent re-implementations used as test oracles.

The embedding oracle below is written from the documented contract only:
lowercase, split on non-alphanumerics, hash "w:"+token and "t:"+trigram
features (trigrams over the space-joined token string) with blake2b
digest_size=8 taken big-endian modulo the bucket count, integer
term-frequency counts. Retrieval ranks by cosine in exact rational
arithmetic, so a tie is a true tie and the documented tie order decides it.

The contrastive scorer oracle is the per-candidate dict-and-loop form of
``decoding.adjusted_first_token``; the array scorer must reproduce its
choice, candidate order and every float exactly.

The toy-model oracle evaluates a spec anew for every prompt, in the
arithmetic ToyLM has always used: blend probabilities first, then take one
log per token, so the cached model must reproduce each entry bit for bit and
in the same order.
"""

from __future__ import annotations

import hashlib
import math
import re
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

import numpy as np

from factpatch.decoding import CONTRAST_FULL, CandidateScore, DecodePlan, build_context
from factpatch.lm import ToyLmSpec
from factpatch.memory import EditFact, render_surface

_WORDS = (
    "quartz heron maple ember stone violet harbor cedar falcon tundra "
    "copper lively marsh onyx prairie willow zephyr basalt meadow crest "
    "juniper raven saffron delta lagoon mica fjord bramble tarn hollow "
    "garnet plume sorrel wharf knoll vesper frost gully lichen drift"
).split()

_RELATION_SHAPES = (
    "The {w} of {{s}} is",
    "Which {w} belongs to {{s}}",
    "People link {{s}} with the {w}",
)


# Memoized because brute_force_top_ids re-embeds every fact for each query;
# the mappings are read-only so callers cannot alter a shared result.
@lru_cache(maxsize=8192)
def oracle_embed(text: str, buckets: int) -> MappingProxyType:
    """bucket -> count over the text's features."""
    tokens = re.findall(r"[a-z0-9]+", text.lower())
    assert tokens, "oracle cannot embed text without alphanumerics"
    joined = " ".join(tokens)
    features = ["w:" + t for t in tokens]
    features += ["t:" + joined[i : i + 3] for i in range(len(joined) - 2)]
    counts: dict[int, int] = {}
    for feature in features:
        digest = hashlib.blake2b(feature.encode("utf-8"), digest_size=8).digest()
        bucket = int.from_bytes(digest, "big") % buckets
        counts[bucket] = counts.get(bucket, 0) + 1
    return MappingProxyType(counts)


def oracle_dot(a: Mapping[int, int], b: Mapping[int, int]) -> int:
    return sum(count * b.get(bucket, 0) for bucket, count in a.items())


def oracle_cosine_squared(a: Mapping[int, int], b: Mapping[int, int]) -> Fraction:
    dot = oracle_dot(a, b)
    return Fraction(dot * dot, oracle_dot(a, a) * oracle_dot(b, b))


def brute_force_top_ids(facts: list[EditFact], query: str, k: int, buckets: int) -> list[str]:
    """Rank every fact by exact squared cosine (cosine is never negative here),
    break ties by seq desc then fact_id, keep only the newest facts per
    (subject, relation), return the first k ids."""
    query_vec = oracle_embed(query, buckets)
    ranked = sorted(
        facts,
        key=lambda f: (
            -oracle_cosine_squared(query_vec, oracle_embed(f.surface_text, buckets)),
            -f.seq,
            f.fact_id,
        ),
    )
    newest: dict[tuple[str, str], int] = {}
    for fact in facts:
        key = (fact.subject, fact.relation)
        newest[key] = max(newest.get(key, -1), fact.seq)
    out: list[str] = []
    for fact in ranked:
        if newest[(fact.subject, fact.relation)] != fact.seq:
            continue
        out.append(fact.fact_id)
        if len(out) == k:
            break
    return out


def random_facts(count: int, seed: int = 0, dup_rate: float = 0.05) -> list[EditFact]:
    """Word-soup corpus with dense seq. A dup_rate slice of facts reuses an
    earlier (subject, relation) key with a different object, so latest-wins
    dedup has something to do."""
    rng = np.random.default_rng(seed)
    facts: list[EditFact] = []
    for seq in range(count):
        if facts and rng.random() < dup_rate:
            donor = facts[int(rng.integers(len(facts)))]
            subject, relation = donor.subject, donor.relation
        else:
            a, b = rng.choice(_WORDS, size=2, replace=False)
            subject = f"{a.capitalize()} {b.capitalize()} {seq:04d}"
            shape = _RELATION_SHAPES[int(rng.integers(len(_RELATION_SHAPES)))]
            relation = shape.format(w=rng.choice(_WORDS))
        new_object = str(rng.choice(_WORDS))
        old_object = str(rng.choice(_WORDS)) if rng.random() < 0.5 else None
        facts.append(
            EditFact(
                fact_id=f"f{seq:06d}-{int(rng.integers(16**4)):04x}",
                seq=seq,
                subject=subject,
                relation=relation,
                old_object=old_object,
                new_object=new_object,
                surface_text=render_surface(subject, relation, new_object),
            )
        )
    return facts


def loop_adjusted_first_token(
    lm, facts: list[EditFact], query: str, plan: DecodePlan
) -> tuple[str, str, list[CandidateScore]]:
    """Score each candidate token in a Python loop; sort by (-adjusted, token)."""
    context = build_context(facts, query, plan.instruction_template)
    new_dist = lm.next_token_distribution(context)
    floor = plan.floor_logprob

    def mean_logprob(dists, token):
        return math.fsum(d.logprob(token, floor) for d in dists) / len(dists)

    if plan.mode == CONTRAST_FULL:
        dists = [lm.next_token_distribution(f.prompt) for f in facts]
        priors = {t: mean_logprob(dists, t) for t in new_dist.entries}
    else:
        carriers = [f for f in facts if f.old_object]
        priors = {t: 0.0 for t in new_dist.entries}
        if carriers:
            dists = [lm.next_token_distribution(f.prompt) for f in carriers]
            for fact in carriers:
                token = lm.first_token_of(fact.old_object)
                if token in priors:
                    priors[token] = abs(mean_logprob(dists, token))
    candidates = [
        CandidateScore(
            token=token,
            l_new=l_new,
            l_prior=priors[token],
            adjusted=l_new - plan.alpha * priors[token],
        )
        for token, l_new in new_dist.entries.items()
    ]
    candidates.sort(key=lambda c: (-c.adjusted, c.token))
    return candidates[0].token, context, candidates


def reference_toy_distribution(spec: ToyLmSpec, prompt: str) -> dict[str, float]:
    """Next-token log-probabilities of a toy spec, per the ``lm`` module docstring.

    The query line is the last non-empty line; the first rule whose subject
    and some keyword occur in it (case-insensitively) answers. Its table's
    "*" mass is spread evenly over unlisted vocabulary tokens. The first
    earlier line naming the subject and a vocabulary token asserts the last
    such token, and the probabilities become (1 - beta) * prior + beta *
    point mass. Zero-probability tokens are dropped; no match is uniform.
    """
    lines = [line for line in prompt.split("\n") if line.strip()]
    query = lines[-1].lower()
    rule = next(
        (
            r
            for r in spec.rules
            if r.subject.lower() in query and any(k.lower() in query for k in r.keywords)
        ),
        None,
    )
    if rule is None:
        return {t: math.log(1.0 / len(spec.vocabulary)) for t in spec.vocabulary}
    probs = {t: p for t, p in rule.answers.items() if t != "*" and p > 0}
    unlisted = [t for t in spec.vocabulary if t not in rule.answers]
    if rule.answers.get("*", 0.0) > 0:
        for token in unlisted:
            probs[token] = rule.answers["*"] / len(unlisted)
    by_lower = {t.lower(): t for t in spec.vocabulary}
    asserted = None
    for line in lines[:-1]:
        if rule.subject.lower() not in line.lower():
            continue
        named = [by_lower[w] for w in re.findall(r"[A-Za-z0-9]+", line.lower()) if w in by_lower]
        if named:
            asserted = named[-1]
            break
    if asserted is not None and spec.beta != 0.0:
        probs = {t: (1.0 - spec.beta) * p for t, p in probs.items()}
        probs[asserted] = probs.get(asserted, 0.0) + spec.beta
    return {t: math.log(p) for t, p in probs.items() if p > 0}
