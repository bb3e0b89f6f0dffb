"""Language-model backends behind one small first-token interface.

Every backend exposes:

    next_token_distribution(prompt) -> TokenDistribution
        Log-probabilities (natural log) of the next token given the prompt.
    first_token_of(answer) -> str
        The token the backend would emit first when producing ``answer``.
    greedy_continue(prompt, first_token, max_tokens) -> str
        The full answer whose first token is forced and whose remainder is
        decoded greedily.
    first_token_convention -> str
        How ``first_token_of`` splits answers, recorded in decode traces.

The toy backend is a deterministic table-driven model for tests, demos and
desk-scale experiments. The remote backend adapts any completion endpoint
that reports top-N log-probabilities.

Toy model semantics
-------------------
A toy spec holds pattern rules, a closed answer vocabulary, a context
faithfulness weight ``beta`` and a continuation table. Prompts are matched
against the last non-empty line (the query line): the first rule whose
subject and any keyword both occur there (case-insensitive) wins. The rule's
answer table gives the no-context distribution; the special key ``"*"``
spreads its mass uniformly over vocabulary tokens the rule does not list.

If any earlier prompt line contains the matched rule's subject together with
at least one vocabulary token, that line is an in-context assertion; its last
vocabulary token is the asserted answer, and the first such line wins. The
returned distribution is then ``(1 - beta) * prior + beta * point_mass``,
which moves ``beta`` of the probability toward the asserted answer.
Unmatched prompts get the uniform distribution over the vocabulary.
"""

from __future__ import annotations

import logging
import math
import os
import re
import time
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from typing import Mapping

import requests

from .errors import BackendError, CapabilityError, ConfigError, ValidationError
from .files import read_object, write_json

logger = logging.getLogger(__name__)

RESIDUAL_KEY = "*"
_WORD_RE = re.compile(r"[A-Za-z0-9]+")

_RULE_SUM_TOLERANCE = 1e-9
_COMPLETE_TOLERANCE = 1e-6
_STOP_TOKENS = frozenset({"\n", "</s>", "<|endoftext|>"})


@dataclass(frozen=True)
class TokenDistribution:
    """Next-token log-probabilities in natural log.

    ``complete`` means the entries cover all probability mass (they exp-sum
    to 1); truncated top-N responses from remote backends are incomplete.
    """

    entries: Mapping[str, float]
    complete: bool

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValidationError("a token distribution cannot be empty")
        for token, logprob in self.entries.items():
            if not token:
                raise ValidationError("distribution contains an empty token")
            if not math.isfinite(logprob) or logprob > 1e-12:
                raise ValidationError(f"log-probability of {token!r} must be finite and <= 0")
        if self.complete:
            total = math.fsum(math.exp(lp) for lp in self.entries.values())
            if abs(total - 1.0) > _COMPLETE_TOLERANCE:
                raise ValidationError(f"complete distribution sums to {total!r}, expected 1")

    def logprob(self, token: str, floor: float) -> float:
        return self.entries.get(token, floor)

    def argmax(self) -> str:
        """Highest-probability token; ties break toward the lexicographically smallest."""
        return self._argmax

    @cached_property
    def _argmax(self) -> str:
        best = max(self.entries.values())
        return min(t for t, lp in self.entries.items() if lp == best)


def greedy_answer(lm, prompt: str, max_tokens: int) -> str:
    """The backend's unforced greedy answer for a bare prompt."""
    first = lm.next_token_distribution(prompt).argmax()
    return lm.greedy_continue(prompt, first, max_tokens)


# ── toy backend ──


@dataclass(frozen=True)
class ToyRule:
    """One prompt pattern: match by subject plus any keyword, answer by table."""

    subject: str
    keywords: tuple[str, ...]
    answers: Mapping[str, float]

    def __post_init__(self) -> None:
        if not self.subject.strip():
            raise ValidationError("rule subject must be non-empty")
        if not self.keywords or any(not k.strip() for k in self.keywords):
            raise ValidationError("rule needs at least one non-empty keyword")
        if not self.answers:
            raise ValidationError("rule needs an answer distribution")
        total = math.fsum(self.answers.values())
        if abs(total - 1.0) > _RULE_SUM_TOLERANCE:
            raise ValidationError(
                f"answers for subject {self.subject!r} sum to {total!r}, expected 1"
            )
        for token, prob in self.answers.items():
            if prob < 0:
                raise ValidationError(f"negative probability for {token!r}")


@dataclass(frozen=True)
class ToyLmSpec:
    """Full description of a toy model; serializable to JSON."""

    rules: tuple[ToyRule, ...]
    vocabulary: tuple[str, ...]
    beta: float = 0.6
    continuations: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 <= self.beta <= 1.0:
            raise ValidationError("beta must lie in [0, 1]")
        if not self.vocabulary:
            raise ValidationError("vocabulary must be non-empty")
        if len(set(self.vocabulary)) != len(self.vocabulary):
            raise ValidationError("vocabulary tokens must be unique")
        vocab = set(self.vocabulary)
        for rule in self.rules:
            explicit = [t for t in rule.answers if t != RESIDUAL_KEY]
            unknown = [t for t in explicit if t not in vocab]
            if unknown:
                raise ValidationError(
                    f"rule for {rule.subject!r} names tokens outside the vocabulary: {unknown}"
                )
            residual = rule.answers.get(RESIDUAL_KEY, 0.0)
            if residual > 0 and len(explicit) >= len(self.vocabulary):
                raise ValidationError(
                    f"rule for {rule.subject!r} has residual mass but no unlisted tokens"
                )

    @classmethod
    def from_dict(cls, body: dict) -> "ToyLmSpec":
        rules = tuple(
            ToyRule(
                subject=r["subject"],
                keywords=tuple(r["keywords"]),
                answers={str(t): float(p) for t, p in r["answers"].items()},
            )
            for r in body.get("rules", [])
        )
        return cls(
            rules=rules,
            vocabulary=tuple(body["vocabulary"]),
            beta=float(body.get("beta", 0.6)),
            continuations={str(k): str(v) for k, v in body.get("continuations", {}).items()},
        )

    def to_dict(self) -> dict:
        return {
            "beta": self.beta,
            "vocabulary": list(self.vocabulary),
            "rules": [
                {
                    "subject": r.subject,
                    "keywords": list(r.keywords),
                    "answers": dict(r.answers),
                }
                for r in self.rules
            ],
            "continuations": dict(self.continuations),
        }


def load_toy_spec(path: str | os.PathLike[str]) -> ToyLmSpec:
    return read_object(path, ToyLmSpec.from_dict)


def save_toy_spec(spec: ToyLmSpec, path: str | os.PathLike[str]) -> None:
    write_json(path, spec.to_dict())


class _ToyTables:
    """A toy spec's lookup tables and the model arithmetic over them.

    A prompt's distribution depends only on its ``key``: the matched rule and
    the asserted answer (None if none, or if beta is 0). So ``build`` sees at
    most rules * (vocabulary + 1) + 1 keys, however many prompts there are.
    """

    def __init__(self, spec: ToyLmSpec):
        self.spec = spec
        self.vocab_by_lower = {t.lower(): t for t in spec.vocabulary}
        self.rules_lower = [
            (r.subject.lower(), tuple(k.lower() for k in r.keywords)) for r in spec.rules
        ]

    def match_rule(self, tail_lower: str) -> int | None:
        for index, (subject, keywords) in enumerate(self.rules_lower):
            if subject in tail_lower and any(k in tail_lower for k in keywords):
                return index
        return None

    def rule_prior(self, index: int) -> dict[str, float]:
        rule = self.spec.rules[index]
        probs = {t: p for t, p in rule.answers.items() if t != RESIDUAL_KEY and p > 0}
        residual = rule.answers.get(RESIDUAL_KEY, 0.0)
        if residual > 0:
            rest = [t for t in self.spec.vocabulary if t not in rule.answers]
            share = residual / len(rest)
            for token in rest:
                probs[token] = share
        return probs

    def asserted_answer(self, lines: list[str], subject_lower: str) -> str | None:
        """Asserted answer from the first earlier line naming the subject and a vocab token."""
        for line in lines:
            lowered = line.lower()
            if subject_lower not in lowered:
                continue
            asserted = [w for w in _WORD_RE.findall(lowered) if w in self.vocab_by_lower]
            if asserted:
                return self.vocab_by_lower[asserted[-1]]
        return None

    def key(self, match_rule, prompt: str) -> tuple[int | None, str | None]:
        lines = [line for line in prompt.split("\n") if line.strip()]
        rule_index = match_rule(lines[-1].lower())
        if rule_index is None or self.spec.beta == 0.0:
            return rule_index, None
        return rule_index, self.asserted_answer(lines[:-1], self.rules_lower[rule_index][0])

    def build(self, rule_index: int | None, asserted: str | None) -> TokenDistribution:
        if rule_index is None:
            uniform = math.log(1.0 / len(self.spec.vocabulary))
            return TokenDistribution(
                entries={t: uniform for t in self.spec.vocabulary}, complete=True
            )
        probs = self.rule_prior(rule_index)
        if asserted is not None:
            beta = self.spec.beta
            probs = {t: (1.0 - beta) * p for t, p in probs.items()}
            probs[asserted] = probs.get(asserted, 0.0) + beta
        entries = {t: math.log(p) for t, p in probs.items() if p > 0}
        return TokenDistribution(entries=entries, complete=True)


class ToyLM:
    """Deterministic table-driven model implementing the backend interface.

    Its caches fill on use: rule matches by query line, distributions by
    (rule, asserted answer), and prompts to those shared distributions, so a
    prompt costs a cache entry, not a table. They wrap _ToyTables methods,
    not ToyLM's: a cache holding the ToyLM would form a reference cycle.
    """

    first_token_convention = "whitespace"

    def __init__(self, spec: ToyLmSpec):
        self.spec = spec
        tables = _ToyTables(spec)
        key = partial(tables.key, lru_cache(maxsize=65536)(tables.match_rule))
        build = lru_cache(maxsize=65536)(tables.build)
        self._dist_cached = lru_cache(maxsize=65536)(lambda prompt: build(*key(prompt)))

    def next_token_distribution(self, prompt: str) -> TokenDistribution:
        if not prompt or not prompt.strip():
            raise ValidationError("prompt must be non-empty")
        return self._dist_cached(prompt)

    def first_token_of(self, answer: str) -> str:
        parts = answer.split()
        if not parts:
            raise ValidationError("answer has no tokens")
        return parts[0]

    def greedy_continue(self, prompt: str, first_token: str, max_tokens: int) -> str:
        if max_tokens < 1:
            raise ValidationError("max_tokens must be >= 1")
        tokens = [first_token]
        remainder = self.spec.continuations.get(first_token)
        if remainder:
            tokens.extend(remainder.split())
        return " ".join(tokens[:max_tokens])


# ── remote backend ──


class RemoteLM:
    """Client for a completion endpoint with top-N log-probabilities.

    Request: POST ``{base_url}`` with ``{"model", "prompt", "max_tokens",
    "logprobs"}``; the response must carry
    ``choices[0].logprobs.top_logprobs`` (a list with one mapping per
    generated position), in natural log. Responses without log-probabilities
    raise CapabilityError. Transient failures are retried with exponential
    backoff; the final failure carries attempt metadata.

    ``first_token_of`` asks the endpoint to tokenize by echoing the answer
    with a single leading space; if the endpoint cannot echo, it falls back
    to whitespace splitting, and ``first_token_convention`` reports which
    convention is in effect.
    """

    def __init__(
        self,
        url: str,
        model: str,
        *,
        top_n: int = 20,
        timeout: float = 30.0,
        retries: int = 3,
        backoff: float = 0.5,
        auth_token_env: str | None = None,
        session: requests.Session | None = None,
    ):
        if top_n < 1:
            raise ValidationError("top_n must be >= 1")
        self.url = url
        self.model = model
        self.top_n = top_n
        self.timeout = timeout
        self.retries = max(1, retries)
        self.backoff = backoff
        self._auth_token = os.environ.get(auth_token_env) if auth_token_env else None
        if auth_token_env and self._auth_token is None:
            raise ConfigError(f"auth token environment variable {auth_token_env!r} is not set")
        self._session = session or requests.Session()
        self.first_token_convention = "endpoint-tokenizer"

    def _post(self, payload: dict) -> object:
        headers = {}
        if self._auth_token:
            headers["Authorization"] = f"Bearer {self._auth_token}"
        last_exc: Exception | None = None
        last_status: int | None = None
        for attempt in range(1, self.retries + 1):
            try:
                response = self._session.post(
                    self.url, json=payload, headers=headers, timeout=self.timeout
                )
            except requests.RequestException as exc:
                last_exc = exc
                logger.warning("model request attempt %d failed: %s", attempt, exc)
            else:
                if response.status_code == 200:
                    try:
                        return response.json()
                    except ValueError as exc:  # an HTML gateway page, say
                        raise BackendError(f"model sent no JSON: {exc}", attempts=attempt) from exc
                last_status = response.status_code
                if response.status_code not in (429,) and response.status_code < 500:
                    raise BackendError(
                        f"model endpoint returned HTTP {response.status_code}",
                        attempts=attempt,
                        last_status=response.status_code,
                    )
                logger.warning(
                    "model request attempt %d got HTTP %d", attempt, response.status_code
                )
            if attempt < self.retries:
                time.sleep(self.backoff * (2 ** (attempt - 1)))
        raise BackendError(
            f"model endpoint failed after {self.retries} attempts: {last_exc or last_status}",
            attempts=self.retries,
            last_status=last_status,
        )

    def _choice(self, body: object) -> dict:
        choices = body.get("choices") if isinstance(body, dict) else None
        if not isinstance(choices, list) or not choices or not isinstance(choices[0], dict):
            raise BackendError("model response has no choices")
        return choices[0]

    def next_token_distribution(self, prompt: str) -> TokenDistribution:
        if not prompt or not prompt.strip():
            raise ValidationError("prompt must be non-empty")
        body = self._post(
            {
                "model": self.model,
                "prompt": prompt,
                "max_tokens": 1,
                "logprobs": self.top_n,
            }
        )
        choice = self._choice(body)
        try:
            logprobs = (choice.get("logprobs") or {}).get("top_logprobs")
            if not logprobs or not isinstance(logprobs[0], dict) or not logprobs[0]:
                raise CapabilityError("model endpoint did not return token log-probabilities")
            entries = {str(token): min(0.0, float(lp)) for token, lp in logprobs[0].items()}
            ordered = dict(sorted(entries.items(), key=lambda kv: (-kv[1], kv[0])))
            return TokenDistribution(entries=ordered, complete=False)
        except (AttributeError, KeyError, TypeError, ValueError, ValidationError) as exc:
            raise BackendError(f"model sent malformed log-probabilities: {exc!r}") from exc

    def first_token_of(self, answer: str) -> str:
        if not answer.strip():
            raise ValidationError("answer has no tokens")
        try:
            body = self._post(
                {
                    "model": self.model,
                    "prompt": " " + answer,
                    "max_tokens": 0,
                    "echo": True,
                    "logprobs": 0,
                }
            )
            tokens = (self._choice(body).get("logprobs") or {}).get("tokens")
            if tokens:
                self.first_token_convention = "endpoint-tokenizer"
                return str(tokens[0])
        except (BackendError, CapabilityError) as exc:
            logger.warning("echo tokenization unavailable (%s); splitting on whitespace", exc)
        self.first_token_convention = "whitespace"
        return answer.split()[0]

    def greedy_continue(self, prompt: str, first_token: str, max_tokens: int) -> str:
        """Force the first token, then decode greedily until a stop token or the cap.

        Completion tokens carry their own spacing, so the answer is the raw
        concatenation of tokens, stripped at the ends.
        """
        if max_tokens < 1:
            raise ValidationError("max_tokens must be >= 1")
        pieces = [first_token]
        while len(pieces) < max_tokens:
            dist = self.next_token_distribution(prompt + "".join(pieces))
            token = dist.argmax()
            if token in _STOP_TOKENS or not token.strip():
                break
            pieces.append(token)
        return "".join(pieces).strip()
