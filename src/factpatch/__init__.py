"""factpatch: correct a language model's factual answers at inference time.

Edits live in an append-only store of (subject, relation, new object)
triples. At query time the closest stored facts are retrieved, a trained
selector keeps the ones that actually bear on the query, and the first
answer token is decoded by contrasting the model's distribution given the
selected facts against its unedited beliefs. Queries no stored fact covers
fall back to the untouched model, byte for byte.
"""

__version__ = "0.1.0"

from .decoding import (
    CONTRAST_FULL,
    TARGET_SUPPRESS,
    DecodePlan,
    DecodeTrace,
    answer,
    build_context,
)
from .engine import Engine, EngineConfig, build_engine, load_config
from .errors import (
    BackendError,
    CapabilityError,
    ConfigError,
    FactPatchError,
    ParseError,
    PipelineError,
    StorageError,
    ValidationError,
)
from .evalharness import (
    EvalCase,
    EvalReport,
    QueryExpectation,
    load_cases,
    match_answer,
    record_baselines,
    run_sequential,
    sweep,
)
from .lm import RemoteLM, TokenDistribution, ToyLM, ToyLmSpec, load_toy_spec
from .memory import EditFact, FactStore, load_facts
from .retrieval import FactIndex, HashedEmbedder
from .selector import ScorerParams, select, train

__all__ = [
    "__version__",
    "BackendError",
    "CapabilityError",
    "ConfigError",
    "CONTRAST_FULL",
    "DecodePlan",
    "DecodeTrace",
    "EditFact",
    "Engine",
    "EngineConfig",
    "EvalCase",
    "EvalReport",
    "FactIndex",
    "FactPatchError",
    "FactStore",
    "HashedEmbedder",
    "ParseError",
    "PipelineError",
    "QueryExpectation",
    "RemoteLM",
    "ScorerParams",
    "StorageError",
    "TARGET_SUPPRESS",
    "TokenDistribution",
    "ToyLM",
    "ToyLmSpec",
    "ValidationError",
    "answer",
    "build_context",
    "build_engine",
    "load_cases",
    "load_config",
    "load_facts",
    "load_toy_spec",
    "match_answer",
    "record_baselines",
    "run_sequential",
    "select",
    "sweep",
    "train",
]
