"""Wiring: one config object, one engine bundling memory, retrieval,
selection and decoding behind add_fact / answer."""

from __future__ import annotations

import dataclasses
import os
import threading
from dataclasses import dataclass
from typing import Mapping

from . import decoding
from .decoding import (
    CONTRAST_FULL,
    DEFAULT_ALPHA,
    DEFAULT_INSTRUCTION,
    DEFAULT_MAX_ANSWER_TOKENS,
    DecodePlan,
    DecodeTrace,
)
from .errors import ConfigError, ParseError
from .files import read_object
from .lm import RemoteLM, ToyLM, load_toy_spec
from .memory import EditFact, FactStore, render_surface
from .retrieval import DEFAULT_BUCKETS, FactIndex, HashedEmbedder
from .selector import DEFAULT_THRESHOLD, ScorerParams, load_params

DEFAULT_K = 5


@dataclass(frozen=True)
class EngineConfig:
    memory_path: str | None = None
    retrieval_k: int = DEFAULT_K
    embedder_buckets: int = DEFAULT_BUCKETS
    selector_params_path: str | None = None
    selector_threshold: float = DEFAULT_THRESHOLD
    lm_kind: str = "toy"
    lm_spec_path: str | None = None
    lm_url: str | None = None
    lm_model: str | None = None
    lm_top_n: int = 20
    lm_auth_token_env: str | None = None
    alpha: float = DEFAULT_ALPHA
    mode: str = CONTRAST_FULL
    max_answer_tokens: int = DEFAULT_MAX_ANSWER_TOKENS
    instruction_template: str = DEFAULT_INSTRUCTION

    def __post_init__(self) -> None:
        if self.retrieval_k < 1:
            raise ConfigError("retrieval_k must be >= 1")
        if self.embedder_buckets < 1:
            raise ConfigError("embedder_buckets must be >= 1")
        if self.lm_kind not in ("toy", "remote"):
            raise ConfigError(f"unknown lm kind {self.lm_kind!r}")
        if self.lm_kind == "toy" and not self.lm_spec_path:
            raise ConfigError("lm_spec_path is required for the toy lm")
        if self.lm_kind == "remote" and not (self.lm_url and self.lm_model):
            raise ConfigError("lm_url and lm_model are required for the remote lm")
        if not 0.0 < self.selector_threshold < 1.0:
            raise ConfigError("selector_threshold must lie strictly between 0 and 1")
        # alpha / mode / max_answer_tokens are validated by DecodePlan.
        self.decode_plan()

    def decode_plan(self) -> DecodePlan:
        return DecodePlan(
            alpha=self.alpha,
            mode=self.mode,
            max_answer_tokens=self.max_answer_tokens,
            instruction_template=self.instruction_template,
        )


_SECTION_KEYS = {
    "retrieval": {"k": "retrieval_k", "buckets": "embedder_buckets"},
    "selector": {"params_path": "selector_params_path", "threshold": "selector_threshold"},
    "lm": {"kind": "lm_kind", "spec_path": "lm_spec_path", "url": "lm_url",
           "model": "lm_model", "top_n": "lm_top_n", "auth_token_env": "lm_auth_token_env"},
    "decode": {"alpha": "alpha", "mode": "mode",
               "max_answer_tokens": "max_answer_tokens",
               "instruction_template": "instruction_template"},
}
_TOP_KEYS = {"memory_path"}


def flatten_config(data: Mapping) -> dict:
    """Map the nested JSON layout onto EngineConfig fields; unknown keys are errors."""
    kwargs: dict = {}
    for key, value in data.items():
        if key in _TOP_KEYS:
            kwargs[key] = value
        elif key in _SECTION_KEYS:
            if not isinstance(value, Mapping):
                raise ConfigError(f"config section {key!r} must be an object")
            mapping = _SECTION_KEYS[key]
            for sub, subvalue in value.items():
                if sub not in mapping:
                    raise ConfigError(f"unknown config key {key}.{sub}")
                kwargs[mapping[sub]] = subvalue
        else:
            raise ConfigError(f"unknown config key {key!r}")
    return kwargs


def read_config(path: str | os.PathLike[str]) -> dict:
    """The EngineConfig fields a JSON object file sets; other content is a ConfigError."""
    try:
        return read_object(path, flatten_config)
    except ParseError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str | os.PathLike[str] | None = None, **overrides) -> EngineConfig:
    """Defaults, then the file at ``path``, then every override that is not None."""
    settings = read_config(path) if path is not None else {}
    settings.update((key, value) for key, value in overrides.items() if value is not None)
    try:
        return EngineConfig(**settings)
    except TypeError as exc:
        raise ConfigError(f"bad config value: {exc}") from exc


class Engine:
    """Edited model: memory plus retrieval plus selection plus decoding.

    Writes take a lock so concurrent server handlers keep the store and the
    index in step; answering is read-only and runs lock-free.
    """

    def __init__(
        self,
        *,
        store: FactStore,
        index: FactIndex,
        lm,
        scorer,
        plan: DecodePlan,
        k: int = DEFAULT_K,
        threshold: float = DEFAULT_THRESHOLD,
    ) -> None:
        self.store = store
        self.index = index
        self.lm = lm
        self.scorer = scorer
        self.plan = plan
        self.k = k
        self.threshold = threshold
        self._write_lock = threading.Lock()

    def add_fact(
        self,
        subject: str,
        relation: str,
        new_object: str,
        *,
        old_object: str | None = None,
        surface_text: str | None = None,
    ) -> EditFact:
        if surface_text is None:
            surface_text = render_surface(subject, relation, new_object)
        vector = self.index.embedder.embed_uncached(surface_text)
        with self._write_lock:
            fact = self.store.append(
                subject, relation, new_object,
                old_object=old_object, surface_text=surface_text,
            )
            self.index.add(fact, vector)
        return fact

    def add_case_fact(self, case) -> EditFact:
        return self.add_fact(
            case.subject, case.relation, case.new_object,
            old_object=case.old_object, surface_text=case.surface,
        )

    def answer(
        self,
        query: str,
        *,
        alpha: float | None = None,
        k: int | None = None,
        mode: str | None = None,
    ) -> tuple[str, DecodeTrace]:
        plan = self.plan
        if alpha is not None or mode is not None:
            plan = dataclasses.replace(
                plan,
                alpha=plan.alpha if alpha is None else alpha,
                mode=plan.mode if mode is None else mode,
            )
        return decoding.answer(
            self.lm,
            self.index,
            self.scorer,
            query,
            plan,
            k=self.k if k is None else k,
            threshold=self.threshold,
        )


def build_engine(config: EngineConfig, *, in_memory: bool = False) -> Engine:
    """Construct every component the config names and load persisted state.

    ``in_memory=True`` ignores memory_path, for runs that must not touch the
    persistent store (sweeps, evaluation replays).
    """
    store = FactStore(None if in_memory else config.memory_path)
    index = FactIndex(HashedEmbedder(buckets=config.embedder_buckets))
    for fact in store.snapshot():
        index.add(fact, index.embedder.embed_uncached(fact.surface_text))
    if config.selector_params_path:
        scorer = load_params(config.selector_params_path)
    else:
        scorer = ScorerParams.untrained()
    if config.lm_kind == "remote":
        lm = RemoteLM(
            config.lm_url,
            config.lm_model,
            top_n=config.lm_top_n,
            auth_token_env=config.lm_auth_token_env,
        )
    else:
        lm = ToyLM(load_toy_spec(config.lm_spec_path))
    return Engine(
        store=store,
        index=index,
        lm=lm,
        scorer=scorer,
        plan=config.decode_plan(),
        k=config.retrieval_k,
        threshold=config.selector_threshold,
    )
