"""Config parsing/validation and the assembled engine's override plumbing."""

import json

import pytest

from factpatch import retrieval
from factpatch.decoding import CONTRAST_FULL, TARGET_SUPPRESS
from factpatch.engine import (
    DEFAULT_K,
    Engine,
    EngineConfig,
    build_engine,
    flatten_config,
    load_config,
)
from factpatch.errors import ConfigError, FactPatchError, StorageError
from factpatch.lm import RemoteLM, ToyLM, save_toy_spec
from factpatch.memory import FactStore
from factpatch.retrieval import DEFAULT_BUCKETS, HashedEmbedder
from factpatch.selector import ScorerParams, save_params

from conftest import capitals_spec
from fixture_cases import SUBJECT_GATE


@pytest.fixture
def spec_path(tmp_path):
    path = tmp_path / "model.json"
    save_toy_spec(capitals_spec(), path)
    return path


def toy_config(spec_path, **overrides) -> EngineConfig:
    return EngineConfig(lm_spec_path=str(spec_path), **overrides)


class TestEngineConfig:
    def test_defaults(self, spec_path):
        config = toy_config(spec_path)
        assert config.retrieval_k == DEFAULT_K
        assert config.embedder_buckets == DEFAULT_BUCKETS
        assert config.mode == CONTRAST_FULL
        assert config.alpha == 0.2

    @pytest.mark.parametrize(
        "overrides",
        [
            {"retrieval_k": 0},
            {"embedder_buckets": 0},
            {"lm_kind": "bogus"},
            {"selector_threshold": 0.0},
            {"selector_threshold": 1.0},
            {"alpha": float("nan")},
            {"alpha": -0.5},
            {"mode": "off"},
            {"max_answer_tokens": 0},
        ],
    )
    def test_bad_values_rejected(self, spec_path, overrides):
        with pytest.raises(FactPatchError):
            toy_config(spec_path, **overrides)

    def test_toy_lm_requires_spec_path(self):
        with pytest.raises(ConfigError):
            EngineConfig()

    def test_remote_lm_requires_url_and_model(self):
        with pytest.raises(ConfigError):
            EngineConfig(lm_kind="remote", lm_url="http://x")
        config = EngineConfig(lm_kind="remote", lm_url="http://x", lm_model="m")
        assert config.lm_model == "m"

    def test_load_config_overrides_skip_none(self, spec_path):
        base = toy_config(spec_path)
        same = load_config(lm_spec_path=str(spec_path), alpha=None, retrieval_k=None)
        assert same == base
        changed = load_config(lm_spec_path=str(spec_path), alpha=0.5, retrieval_k=9)
        assert changed.alpha == 0.5
        assert changed.retrieval_k == 9
        assert changed.lm_spec_path == base.lm_spec_path


class TestConfigFiles:
    def test_nested_sections_flatten(self):
        flat = flatten_config(
            {
                "memory_path": "m.jsonl",
                "retrieval": {"k": 3, "buckets": 1024},
                "selector": {"threshold": 0.7},
                "lm": {"kind": "toy", "spec_path": "model.json"},
                "decode": {"alpha": 0.3, "mode": TARGET_SUPPRESS},
            }
        )
        assert flat == {
            "memory_path": "m.jsonl",
            "retrieval_k": 3,
            "embedder_buckets": 1024,
            "selector_threshold": 0.7,
            "lm_kind": "toy",
            "lm_spec_path": "model.json",
            "alpha": 0.3,
            "mode": TARGET_SUPPRESS,
        }

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError):
            flatten_config({"retrievall": {}})

    def test_unknown_section_key_rejected(self):
        with pytest.raises(ConfigError):
            flatten_config({"retrieval": {"kay": 5}})

    @pytest.mark.parametrize("section,key,value", [
        ("selector", "url", "http://127.0.0.1:3"),
        ("lm", "logprob_base", "log2"),
    ], ids=["selector.url", "lm.logprob_base"])
    def test_removed_remote_settings_are_unknown_keys(self, tmp_path, spec_path,
                                                      section, key, value):
        body = {"lm": {"spec_path": str(spec_path)}}
        body.setdefault(section, {})[key] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(body), encoding="utf-8")
        with pytest.raises(ConfigError, match=f"unknown config key {section}.{key}"):
            load_config(path)

    def test_section_must_be_object(self):
        with pytest.raises(ConfigError):
            flatten_config({"retrieval": 5})

    def test_load_config_happy_path(self, tmp_path, spec_path):
        path = tmp_path / "config.json"
        path.write_text(
            json.dumps(
                {"lm": {"spec_path": str(spec_path)}, "decode": {"alpha": 0.35}}
            ),
            encoding="utf-8",
        )
        config = load_config(path)
        assert config.alpha == 0.35
        assert config.lm_spec_path == str(spec_path)

    def test_load_config_rejects_bad_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{broken", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_load_config_rejects_non_object(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(StorageError):
            load_config(tmp_path / "none.json")

    def test_wrong_value_type_becomes_config_error(self):
        with pytest.raises(FactPatchError):
            load_config(retrieval_k="five", lm_spec_path="m.json")


class TestBuildEngine:
    def test_components_follow_the_config(self, tmp_path, spec_path):
        params_path = tmp_path / "params.json"
        save_params(SUBJECT_GATE, params_path)
        config = toy_config(
            spec_path,
            selector_params_path=str(params_path),
            embedder_buckets=128,
            retrieval_k=3,
            selector_threshold=0.6,
        )
        engine = build_engine(config)
        assert isinstance(engine.lm, ToyLM)
        assert isinstance(engine.index.embedder, HashedEmbedder)
        assert engine.index.embedder.buckets == 128
        assert isinstance(engine.scorer, ScorerParams)
        assert engine.scorer.bias == SUBJECT_GATE.bias
        assert engine.k == 3
        assert engine.threshold == 0.6
        assert engine.plan.alpha == config.alpha

    def test_untrained_scorer_when_nothing_configured(self, spec_path):
        engine = build_engine(toy_config(spec_path))
        assert isinstance(engine.scorer, ScorerParams)
        assert engine.scorer.bias == 0.0

    def test_remote_components_construct_without_network(self, spec_path):
        config = EngineConfig(lm_kind="remote", lm_url="http://127.0.0.1:1", lm_model="m")
        engine = build_engine(config)
        assert isinstance(engine.lm, RemoteLM)

    def test_persisted_memory_is_reloaded_and_indexed(self, tmp_path, spec_path):
        memory = tmp_path / "facts.jsonl"
        config = toy_config(spec_path, memory_path=str(memory))
        first = build_engine(config)
        first.add_fact("France", "The capital of {s} is", "Rome", old_object="Paris")
        assert len(first.index) == 1

        second = build_engine(config)
        assert len(second.store) == 1
        assert len(second.index) == 1
        second.scorer = SUBJECT_GATE
        text, trace = second.answer("The capital of France is")
        assert text.startswith("Rome")
        assert not trace.fallback_used

    def test_loading_stored_facts_leaves_the_query_memo_empty(self, tmp_path, spec_path):
        memory = tmp_path / "facts.jsonl"
        store = FactStore(memory)
        for i in range(50):
            store.append(f"Subject{i}", "The capital of {s} is", f"City{i}")
        engine = build_engine(toy_config(spec_path, memory_path=str(memory)))
        assert len(engine.index) == 50
        assert engine.index.embedder._embed_cached.cache_info().currsize == 0
        top = engine.index.top_k("The capital of Subject7 is City7", 1)
        assert top[0].fact.subject == "Subject7"

    def test_in_memory_ignores_the_fact_file(self, tmp_path, spec_path):
        memory = tmp_path / "facts.jsonl"
        config = toy_config(spec_path, memory_path=str(memory))
        build_engine(config).add_fact("France", "The capital of {s} is", "Rome")
        replay = build_engine(config, in_memory=True)
        assert len(replay.store) == 0
        assert len(replay.index) == 0
        replay.add_fact("Italy", "The capital of {s} is", "Lyon")
        # The persistent file is untouched by the in-memory engine.
        assert len(memory.read_text(encoding="utf-8").splitlines()) == 1


class TestEngineAnswer:
    @pytest.fixture
    def engine(self, spec_path):
        engine = build_engine(toy_config(spec_path, alpha=0.2))
        engine.scorer = SUBJECT_GATE
        engine.add_fact("France", "The capital of {s} is", "Rome", old_object="Paris")
        return engine

    def test_answer_uses_the_configured_plan(self, engine):
        text, trace = engine.answer("The capital of France is")
        assert trace.alpha == 0.2
        assert trace.mode == CONTRAST_FULL
        assert text == "Rome of course"

    def test_alpha_override_is_per_call(self, engine):
        _, trace = engine.answer("The capital of France is", alpha=0.9)
        assert trace.alpha == 0.9
        _, trace = engine.answer("The capital of France is")
        assert trace.alpha == 0.2  # the stored plan is untouched

    def test_mode_override(self, engine):
        _, trace = engine.answer("The capital of France is", mode=TARGET_SUPPRESS)
        assert trace.mode == TARGET_SUPPRESS

    def test_k_zero_override_forces_fallback(self, engine):
        text, trace = engine.answer("The capital of France is", k=0)
        assert trace.fallback_used
        assert text == "Paris is the answer"

    def test_threshold_override_can_reject_everything(self, engine):
        engine.threshold = 0.99
        _, trace = engine.answer("The capital of France is")
        assert trace.fallback_used

    def test_add_fact_keeps_store_and_index_in_step(self, engine):
        engine.add_fact("Italy", "The capital of {s} is", "Lyon")
        assert len(engine.store) == 2
        assert len(engine.index) == 2

    def test_add_fact_embeds_the_fact_once(self, engine, monkeypatch):
        embedded = []
        original = retrieval._embed
        monkeypatch.setattr(retrieval, "_embed",
                            lambda buckets, text: embedded.append(text) or original(buckets, text))
        engine.add_fact("Italy", "The capital of {s} is", "Lyon")
        assert embedded == ["The capital of Italy is Lyon"]
        assert engine.index.embedder._embed_cached.cache_info().currsize == 0
