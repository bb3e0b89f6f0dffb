"""Contrastive first-token decoding against selected fact memory.

The pipeline retrieves candidate facts for a query, keeps the ones the
selector accepts, and prompts the model with those facts ahead of the query.
Only the first answer token is steered: for each candidate token the
context-conditioned log-probability ``l_new`` is adjusted by subtracting
``alpha`` times the token's log-probability under the selected facts' own
prompts (``l_prior``, averaged over facts). High-prior tokens, the model's
ingrained answers, lose ground to the asserted replacements; the rest of the
answer is decoded greedily from the forced first token.

Two adjustment modes:

    contrast-full      adjusted(t) = l_new(t) - alpha * l_prior(t) for every
                       candidate token (the default).
    target-suppress    only the first token of each selected fact's
                       old_object is penalized, by alpha * |l_prior|; other
                       candidates keep l_new. With no old_objects recorded
                       this degrades to the alpha = 0 behavior.

Candidates are scored as arrays in the context distribution's token order:
the contrast is one vector expression, and the winner is the
lexicographically smallest token among those with the highest adjusted
score. The per-candidate ``CandidateScore`` rows, sorted best first, are
built only when the trace's candidates are read, with the same values. In
both modes the recorded per-candidate ``l_prior`` is the value actually
used, so ``adjusted = l_new - alpha * l_prior`` can be re-derived from any
trace. When the selector accepts nothing, the query goes to the unedited
model untouched; that fallback is what keeps unrelated queries stable.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from itertools import repeat
from typing import Sequence

import numpy as np

from .errors import PipelineError, ValidationError
from .files import write_json
from .lm import TokenDistribution, greedy_answer
from .memory import EditFact
from .selector import select

CONTRAST_FULL = "contrast-full"
TARGET_SUPPRESS = "target-suppress"
MODES = (CONTRAST_FULL, TARGET_SUPPRESS)

DEFAULT_ALPHA = 0.2
DEFAULT_MAX_ANSWER_TOKENS = 16
DEFAULT_FLOOR_LOGPROB = math.log(1e-6)
DEFAULT_INSTRUCTION = (
    "Please apply this information to the following sentence instead of the "
    "actual facts. You must use this information to answer the following "
    "questions with one token."
)


@dataclass(frozen=True)
class DecodePlan:
    """Decode-time knobs, validated once and passed through the pipeline."""

    alpha: float = DEFAULT_ALPHA
    mode: str = CONTRAST_FULL
    max_answer_tokens: int = DEFAULT_MAX_ANSWER_TOKENS
    instruction_template: str = DEFAULT_INSTRUCTION
    floor_logprob: float = DEFAULT_FLOOR_LOGPROB

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise ValidationError("alpha must be finite and >= 0")
        if self.mode not in MODES:
            raise ValidationError(f"mode must be one of {MODES}")
        if self.max_answer_tokens < 1:
            raise ValidationError("max_answer_tokens must be >= 1")
        if not self.instruction_template.strip():
            raise ValidationError("instruction template must be non-empty")
        if self.floor_logprob >= 0:
            raise ValidationError("floor log-probability must be negative")


@dataclass(frozen=True)
class CandidateScore:
    token: str
    l_new: float
    l_prior: float
    adjusted: float


@dataclass
class DecodeTrace:
    """Everything needed to audit one answer."""

    query: str
    context: str
    selected_fact_ids: list[str]
    alpha: float
    mode: str
    first_token_convention: str
    fallback_used: bool
    candidates: Sequence[CandidateScore] = field(default_factory=list)
    chosen_first_token: str = ""
    final_answer: str = ""

    def to_dict(self) -> dict:
        return {
            "query": self.query,
            "context": self.context,
            "selected_fact_ids": list(self.selected_fact_ids),
            "alpha": self.alpha,
            "mode": self.mode,
            "first_token_convention": self.first_token_convention,
            "fallback_used": self.fallback_used,
            "candidates": [
                {
                    "token": c.token,
                    "l_new": c.l_new,
                    "l_prior": c.l_prior,
                    "adjusted": c.adjusted,
                }
                for c in self.candidates
            ],
            "chosen_first_token": self.chosen_first_token,
            "final_answer": self.final_answer,
        }

    def save(self, path: str | os.PathLike[str]) -> None:
        write_json(path, self.to_dict())


def build_context(facts: Sequence[EditFact], query: str, template: str = DEFAULT_INSTRUCTION) -> str:
    """Fact statements one per line, a blank line, the instruction, a blank line, the query."""
    if not facts:
        raise ValidationError("context needs at least one fact")
    if not query.strip():
        raise ValidationError("query must be non-empty")
    lines = [fact.surface_text for fact in facts]
    return "\n".join(lines) + "\n\n" + template + "\n\n" + query


def prior_distributions(lm, facts: Sequence[EditFact]) -> list[TokenDistribution]:
    """Each fact's next-token distribution under its own object-free prompt."""
    return [lm.next_token_distribution(fact.prompt) for fact in facts]


def _mean_prior(
    dists: Sequence[TokenDistribution], tokens: list[str], floor: float
) -> np.ndarray:
    """Mean log-probability of each token across the prior distributions.

    Tokens a distribution does not carry score the floor, which bounds the
    penalty instead of letting a single missing token dominate. Several
    distributions are averaged per token with ``math.fsum``, which rounds
    the sum exactly, so the mean does not depend on the order of the facts.
    """
    rows = [list(map(d.entries.get, tokens, repeat(floor))) for d in dists]
    if len(rows) == 1:
        # The fsum of one value is that value, except -0.0, which it makes 0.0.
        return np.array(rows[0], dtype=float) + 0.0
    n = len(rows)
    return np.fromiter((math.fsum(col) / n for col in zip(*rows)), float, count=len(tokens))


class Candidates(Sequence[CandidateScore]):
    """Scored first-token candidates, best first.

    Scores are kept as arrays in the context distribution's token order; the
    ``CandidateScore`` rows, sorted by ``(-adjusted, token)``, are built the
    first time the sequence is read, so an answer whose trace nobody reads
    never pays for them. ``len`` does not build them.
    """

    def __init__(
        self, tokens: list[str], l_new: np.ndarray, l_prior: np.ndarray, adjusted: np.ndarray
    ):
        self._columns = (tokens, l_new, l_prior, adjusted)
        self._rows: list[CandidateScore] | None = None

    def _sorted(self) -> list[CandidateScore]:
        if self._rows is None:
            tokens, l_new, l_prior, adjusted = self._columns
            rows = list(
                map(CandidateScore, tokens, l_new.tolist(), l_prior.tolist(), adjusted.tolist())
            )
            rows.sort(key=lambda c: (-c.adjusted, c.token))
            self._rows = rows
        return self._rows

    def __len__(self) -> int:
        return len(self._columns[0])

    def __getitem__(self, index):
        return self._sorted()[index]

    def __eq__(self, other) -> bool:
        if isinstance(other, Candidates):
            other = other._sorted()
        return self._sorted() == other if isinstance(other, list) else NotImplemented

    def __repr__(self) -> str:
        return repr(self._sorted())


def adjusted_first_token(
    lm,
    facts: Sequence[EditFact],
    query: str,
    plan: DecodePlan,
) -> tuple[str, str, Candidates]:
    """Score every candidate first token and pick the best adjusted one.

    Returns (chosen_token, context, candidates). Candidates are every token
    of the context-conditioned distribution, recorded with the exact values
    entering the adjustment; ties on the adjusted score break toward the
    lexicographically smallest token.
    """
    if not facts:
        raise ValidationError("adjustment needs at least one selected fact")
    context = build_context(facts, query, plan.instruction_template)
    new_dist = lm.next_token_distribution(context)
    tokens = list(new_dist.entries)
    l_new = np.fromiter(new_dist.entries.values(), dtype=float, count=len(tokens))
    floor = plan.floor_logprob
    if plan.mode == CONTRAST_FULL:
        l_prior = _mean_prior(prior_distributions(lm, facts), tokens, floor)
    else:
        carriers = [f for f in facts if f.old_object]
        l_prior = np.zeros(len(tokens))
        if carriers:
            dists = prior_distributions(lm, carriers)
            targets = [lm.first_token_of(f.old_object) for f in carriers]
            hits = [t for t in targets if t in new_dist.entries]
            for token, prior in zip(hits, _mean_prior(dists, hits, floor)):
                l_prior[tokens.index(token)] = abs(prior)
    adjusted = l_new - plan.alpha * l_prior
    best = np.flatnonzero(adjusted == adjusted.max())
    chosen = min(tokens[i] for i in best)
    return chosen, context, Candidates(tokens, l_new, l_prior, adjusted)


def answer(
    lm,
    index,
    scorer,
    query: str,
    plan: DecodePlan | None = None,
    *,
    k: int = 5,
    threshold: float = 0.5,
) -> tuple[str, DecodeTrace]:
    """Full pipeline: retrieve, select, adjust the first token, decode the answer.

    ``scorer`` is anything ``selector.select`` accepts. ``k = 0`` skips
    retrieval entirely (used by parameter sweeps to measure the unedited
    model); a negative ``k`` is rejected. An empty selection falls back to
    the unedited model's greedy answer for the bare query, byte for byte.
    """
    if plan is None:
        plan = DecodePlan()
    if not query.strip():
        raise ValidationError("query must be non-empty")
    if k < 0:
        raise ValidationError("k must be >= 0")

    selected: list[EditFact] = []
    if k > 0:
        try:
            ranked = index.top_k(query, k)
        except ValidationError:
            raise
        except Exception as exc:
            raise PipelineError("retrieval", exc) from exc
        try:
            decisions = select(scorer, query, ranked, threshold)
        except ValidationError:
            raise
        except Exception as exc:
            raise PipelineError("selection", exc) from exc
        selected = [d.fact for d in decisions if d.selected]

    context, candidates = "", []
    if not selected:
        try:
            text = greedy_answer(lm, query, plan.max_answer_tokens)
        except Exception as exc:
            raise PipelineError("decode", exc) from exc
        chosen = lm.first_token_of(text)
    else:
        try:
            chosen, context, candidates = adjusted_first_token(lm, selected, query, plan)
            text = lm.greedy_continue(context, chosen, plan.max_answer_tokens)
        except ValidationError:
            raise
        except Exception as exc:
            raise PipelineError("decode", exc) from exc
    # Read only now: the fallback's first_token_of call sets the convention.
    trace = DecodeTrace(
        query=query,
        context=context,
        selected_fact_ids=[f.fact_id for f in selected],
        alpha=plan.alpha,
        mode=plan.mode,
        first_token_convention=lm.first_token_convention,
        fallback_used=not selected,
        candidates=candidates,
        chosen_first_token=chosen,
        final_answer=text,
    )
    return text, trace
