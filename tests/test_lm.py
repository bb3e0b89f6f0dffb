"""Toy model semantics (rule matching, in-context blending) and the remote client."""

import gc
import math
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factpatch.errors import (
    BackendError,
    CapabilityError,
    ConfigError,
    ParseError,
    ValidationError,
)
from factpatch.lm import (
    RemoteLM,
    TokenDistribution,
    ToyLM,
    ToyLmSpec,
    ToyRule,
    greedy_answer,
    load_toy_spec,
    save_toy_spec,
)

from conftest import capitals_spec
from oracles import reference_toy_distribution
from stubserver import StubServer


class TestTokenDistribution:
    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            TokenDistribution(entries={}, complete=False)

    def test_rejects_positive_logprob(self):
        with pytest.raises(ValidationError):
            TokenDistribution(entries={"a": 0.1}, complete=False)

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            TokenDistribution(entries={"a": float("-inf")}, complete=False)

    def test_rejects_empty_token(self):
        with pytest.raises(ValidationError):
            TokenDistribution(entries={"": -1.0}, complete=False)

    def test_complete_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            TokenDistribution(entries={"a": math.log(0.5)}, complete=True)

    def test_complete_accepts_exact_mass(self):
        dist = TokenDistribution(
            entries={"a": math.log(0.5), "b": math.log(0.5)}, complete=True
        )
        assert dist.complete

    def test_logprob_floor_for_missing_token(self):
        dist = TokenDistribution(entries={"a": -1.0}, complete=False)
        assert dist.logprob("a", floor=-99.0) == -1.0
        assert dist.logprob("zzz", floor=-99.0) == -99.0

    def test_argmax_tie_breaks_to_smallest_token(self):
        half = math.log(0.5)
        dist = TokenDistribution(entries={"beta": half, "alpha": half}, complete=True)
        assert dist.argmax() == "alpha"

    @settings(max_examples=200, deadline=None)
    @given(
        st.dictionaries(
            st.text(alphabet="abAB_", min_size=1, max_size=3),
            st.sampled_from([0.0, -0.0, -1.0, -2.5]) | st.floats(-5.0, 0.0),
            min_size=1,
            max_size=12,
        )
    )
    def test_argmax_is_the_smallest_token_of_highest_logprob(self, entries):
        dist = TokenDistribution(entries=entries, complete=False)
        want = min(entries.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        assert dist.argmax() == want
        assert dist.argmax() == want  # the second call reads the kept result

    def test_argmax_treats_negative_zero_as_zero(self):
        dist = TokenDistribution(entries={"b": 0.0, "a": -0.0, "c": -1.0}, complete=False)
        assert dist.argmax() == "a"


class TestToySpecValidation:
    def test_rule_probabilities_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            ToyRule(subject="France", keywords=("capital",), answers={"Paris": 0.5})

    def test_rule_rejects_negative_probability(self):
        with pytest.raises(ValidationError):
            ToyRule(
                subject="France",
                keywords=("capital",),
                answers={"Paris": 1.2, "Rome": -0.2},
            )

    def test_rule_requires_keywords(self):
        with pytest.raises(ValidationError):
            ToyRule(subject="France", keywords=(), answers={"Paris": 1.0})

    def test_answers_must_be_in_vocabulary(self):
        rule = ToyRule(subject="France", keywords=("capital",), answers={"Tokyo": 1.0})
        with pytest.raises(ValidationError):
            ToyLmSpec(rules=(rule,), vocabulary=("Paris",))

    def test_residual_needs_unlisted_tokens(self):
        rule = ToyRule(
            subject="France", keywords=("capital",), answers={"Paris": 0.9, "*": 0.1}
        )
        with pytest.raises(ValidationError):
            ToyLmSpec(rules=(rule,), vocabulary=("Paris",))

    def test_beta_bounds(self):
        with pytest.raises(ValidationError):
            ToyLmSpec(rules=(), vocabulary=("a",), beta=1.2)

    def test_duplicate_vocabulary_rejected(self):
        with pytest.raises(ValidationError):
            ToyLmSpec(rules=(), vocabulary=("a", "a"))

    def test_roundtrip_through_file(self, tmp_path):
        spec = capitals_spec()
        path = tmp_path / "model.json"
        save_toy_spec(spec, path)
        assert load_toy_spec(path) == spec

    def test_malformed_json_is_parse_error(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{nope", encoding="utf-8")
        with pytest.raises(ParseError):
            load_toy_spec(path)

    def test_invalid_spec_in_file_is_parse_error(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"vocabulary": ["a", "a"], "rules": []}', encoding="utf-8")
        with pytest.raises(ParseError):
            load_toy_spec(path)


class TestToyLmPrior:
    def test_rule_prior_probability(self, capitals_lm):
        dist = capitals_lm.next_token_distribution("The capital of France is")
        assert abs(dist.entries["Paris"] - math.log(0.9)) < 1e-12
        assert dist.argmax() == "Paris"
        assert dist.complete

    def test_residual_mass_spread_uniformly(self, capitals_lm):
        # France rule leaves 0.08 for the six unlisted vocabulary tokens.
        dist = capitals_lm.next_token_distribution("The capital of France is")
        for token in ("Berlin", "Lyon", "blue", "red", "green", "amber"):
            assert math.exp(dist.entries[token]) == pytest.approx(0.08 / 6, abs=1e-12)

    def test_complete_distributions_exp_sum_to_one(self, capitals_lm):
        for prompt in (
            "The capital of France is",
            "What color is the sky",
            "tell me anything",
        ):
            dist = capitals_lm.next_token_distribution(prompt)
            total = math.fsum(math.exp(lp) for lp in dist.entries.values())
            assert abs(total - 1.0) < 1e-9

    def test_unmatched_prompt_is_uniform(self, capitals_lm):
        dist = capitals_lm.next_token_distribution("tell me anything")
        assert len(dist.entries) == 8
        for lp in dist.entries.values():
            assert lp == pytest.approx(math.log(1 / 8), abs=1e-12)

    def test_rule_needs_subject_and_keyword(self, capitals_lm):
        # Subject without a keyword falls through to the uniform fallback.
        dist = capitals_lm.next_token_distribution("France is large")
        assert math.exp(dist.entries["Paris"]) == pytest.approx(1 / 8, abs=1e-12)

    def test_first_matching_rule_wins(self, capitals_lm):
        dist = capitals_lm.next_token_distribution("the capital shared by France and Italy is")
        assert dist.argmax() == "Paris"

    def test_match_is_case_insensitive(self, capitals_lm):
        dist = capitals_lm.next_token_distribution("THE CAPITAL OF FRANCE IS")
        assert dist.argmax() == "Paris"

    def test_rule_matches_on_last_nonempty_line_only(self, capitals_lm):
        prompt = "The capital of France is\n\nWhat color is the sky\n  \n"
        dist = capitals_lm.next_token_distribution(prompt)
        assert dist.argmax() == "blue"

    def test_empty_prompt_rejected(self, capitals_lm):
        with pytest.raises(ValidationError):
            capitals_lm.next_token_distribution("   ")


class TestToyLmAssertionBlend:
    def test_asserted_token_gets_blended_mass(self, capitals_lm):
        prompt = "The capital of France is Rome\n\nThe capital of France is"
        dist = capitals_lm.next_token_distribution(prompt)
        # (1 - 0.6) * 0.02 + 0.6
        assert math.exp(dist.entries["Rome"]) == pytest.approx(0.608, abs=1e-12)
        assert math.exp(dist.entries["Paris"]) == pytest.approx(0.4 * 0.9, abs=1e-12)
        assert dist.argmax() == "Rome"

    def test_blend_keeps_distribution_complete(self, capitals_lm):
        prompt = "The capital of France is Rome\n\nThe capital of France is"
        dist = capitals_lm.next_token_distribution(prompt)
        total = math.fsum(math.exp(lp) for lp in dist.entries.values())
        assert abs(total - 1.0) < 1e-9

    def test_first_matching_context_line_wins(self, capitals_lm):
        prompt = (
            "The capital of France is Rome\n"
            "The capital of France is Berlin\n"
            "The capital of France is"
        )
        dist = capitals_lm.next_token_distribution(prompt)
        assert dist.argmax() == "Rome"

    def test_last_vocabulary_token_in_line_is_asserted(self, capitals_lm):
        prompt = "France swapped Paris for Lyon\nThe capital of France is"
        dist = capitals_lm.next_token_distribution(prompt)
        # Lyon sits in the residual pool: (1 - 0.6) * (0.08 / 6) + 0.6
        assert math.exp(dist.entries["Lyon"]) == pytest.approx(0.4 * 0.08 / 6 + 0.6, abs=1e-12)
        assert dist.argmax() == "Lyon"

    def test_context_line_must_name_the_subject(self, capitals_lm):
        prompt = "Rome is a lovely place\nThe capital of France is"
        dist = capitals_lm.next_token_distribution(prompt)
        assert dist.argmax() == "Paris"
        assert math.exp(dist.entries["Rome"]) == pytest.approx(0.02, abs=1e-12)

    def test_assertion_is_case_insensitive(self, capitals_lm):
        prompt = "THE CAPITAL OF FRANCE IS ROME\nThe capital of France is"
        assert capitals_lm.next_token_distribution(prompt).argmax() == "Rome"

    def test_beta_zero_ignores_context(self):
        lm = ToyLM(capitals_spec(beta=0.0))
        prompt = "The capital of France is Rome\nThe capital of France is"
        dist = lm.next_token_distribution(prompt)
        assert math.exp(dist.entries["Paris"]) == pytest.approx(0.9, abs=1e-12)

    def test_beta_one_is_a_point_mass(self):
        lm = ToyLM(capitals_spec(beta=1.0))
        prompt = "The capital of France is Rome\nThe capital of France is"
        dist = lm.next_token_distribution(prompt)
        assert math.exp(dist.entries["Rome"]) == pytest.approx(1.0, abs=1e-12)
        assert "Paris" not in dist.entries  # zero-probability tokens are dropped

    def test_unmatched_tail_never_blends(self, capitals_lm):
        prompt = "The capital of France is Rome\ntell me anything"
        dist = capitals_lm.next_token_distribution(prompt)
        assert math.exp(dist.entries["Rome"]) == pytest.approx(1 / 8, abs=1e-12)


_WORDS = ("Paris", "Rome", "rome", "Lyon", "blue", "red", "amber", "x9")
_SUBJECTS = ("France", "Italy", "sky")
_KEYWORDS = ("capital", "color", "city")
# Tiny masses, so that (1 - beta) * p can underflow to 0 for a listed token.
_TINY = (5e-324, 1e-310)


@st.composite
def toy_rules(draw, vocabulary):
    listed = draw(st.lists(st.sampled_from(vocabulary), min_size=1, unique=True))
    weights = draw(st.lists(st.integers(0, 4), min_size=len(listed), max_size=len(listed)))
    residual = len(listed) < len(vocabulary) and draw(st.booleans())
    if residual:
        weights.append(draw(st.integers(1, 4)))
    if sum(weights) == 0:
        weights[0] = 1
    answers = {t: w / sum(weights) for t, w in zip(listed, weights)}
    if residual:
        answers["*"] = weights[-1] / sum(weights)
    if draw(st.booleans()):  # move a tiny mass from the largest entry to the first token
        token, tiny = listed[0], draw(st.sampled_from(_TINY))
        largest = max(answers, key=answers.get)
        if largest != token:
            answers[token], answers[largest] = tiny, answers[largest] + answers[token] - tiny
    keywords = draw(st.lists(st.sampled_from(_KEYWORDS), min_size=1, max_size=2, unique=True))
    return ToyRule(subject=draw(st.sampled_from(_SUBJECTS)), keywords=tuple(keywords),
                   answers=answers)


@st.composite
def toy_prompts(draw, spec):
    """A prompt that mostly queries one of the spec's rules, after context lines that
    mostly name that rule's subject and one or two vocabulary tokens."""
    rule = draw(st.sampled_from(spec.rules)) if spec.rules and draw(st.integers(0, 5)) else None
    if rule is None:
        return draw(st.sampled_from(["tell me anything", "The capital of France\nis it"]))
    subject = st.sampled_from([rule.subject] * 3 + [r.subject for r in spec.rules] + ["Spain"])
    word = st.sampled_from(spec.vocabulary + ("nothing",))
    shape = st.sampled_from(["The capital of {0} is {2}", "{0} swapped {1} for {2}", "{1} {2}"])
    line = st.builds(lambda shape, *args: shape.format(*args), shape, subject, word, word)
    context = draw(st.lists(line.map(str.upper) | line | st.just("  "), min_size=1, max_size=3))
    keyword = draw(st.sampled_from(rule.keywords))
    return "\n".join(context + [f"the {keyword} of {rule.subject} is"])


@st.composite
def toy_worlds(draw):
    vocabulary = tuple(draw(st.lists(st.sampled_from(_WORDS), min_size=2, unique=True)))
    rules = tuple(draw(st.lists(toy_rules(vocabulary), min_size=1, max_size=3)))
    beta = draw(st.sampled_from([0.0, 1.0, 0.3, 0.6]) | st.floats(0.0, 1.0))
    spec = ToyLmSpec(rules=rules, vocabulary=vocabulary, beta=beta)
    return spec, draw(st.lists(toy_prompts(spec), min_size=1, max_size=8))


def _bits(entries):
    return [(token, logprob.hex()) for token, logprob in entries.items()]


class TestToyLmMatchesReference:
    @settings(max_examples=120, deadline=None)
    @given(toy_worlds())
    def test_every_entry_and_its_order_match_the_reference(self, world):
        spec, prompts = world
        lm = ToyLM(spec)
        for prompt in prompts + prompts:  # the second pass reads the caches
            want = reference_toy_distribution(spec, prompt)
            assert _bits(lm.next_token_distribution(prompt).entries) == _bits(want)

    def test_asserted_token_whose_blended_mass_underflows_keeps_its_place(self):
        # 0.5 * 5e-324 rounds to 0, so only the point mass keeps Rome, ahead of Paris.
        rule = ToyRule(subject="France", keywords=("capital",),
                       answers={"Rome": 5e-324, "Lyon": 0.0, "Paris": 1.0})
        spec = ToyLmSpec(rules=(rule,), vocabulary=("Paris", "Rome", "Lyon", "Nice"), beta=0.5)
        lm = ToyLM(spec)
        for asserted in ("Rome", "Nice", "Paris"):
            prompt = f"The capital of France is {asserted}\nThe capital of France is"
            got = lm.next_token_distribution(prompt).entries
            assert _bits(got) == _bits(reference_toy_distribution(spec, prompt))
        assert list(lm.next_token_distribution("France is Rome\nFrance capital").entries) == [
            "Rome", "Paris"]

    def test_prompts_with_one_key_share_one_distribution(self, capitals_lm):
        dist = capitals_lm.next_token_distribution
        first = dist("Rome is in the capital of France\nFrance capital?")
        assert dist("The capital of France is Rome\ncapital, France") is first
        assert dist("hello") is dist("hi")

    def test_unmatched_prompts_cost_a_cache_entry_not_a_table(self):
        vocabulary = tuple(f"tok{i}" for i in range(3200))
        rule = ToyRule(subject="France", keywords=("capital",), answers={"tok0": 0.5, "*": 0.5})
        lm = ToyLM(ToyLmSpec(rules=(rule,), vocabulary=vocabulary))
        lm.next_token_distribution("an unrelated question")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(2000):
                lm.next_token_distribution(f"unrelated question number {i}")
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held / 2000 < 2048, f"{held / 2000:.0f} bytes per cached prompt"


class TestToyLmAnswers:
    def test_first_token_splits_on_whitespace(self, capitals_lm):
        assert capitals_lm.first_token_of("University of Michigan") == "University"
        assert capitals_lm.first_token_convention == "whitespace"

    def test_first_token_of_empty_rejected(self, capitals_lm):
        with pytest.raises(ValidationError):
            capitals_lm.first_token_of("   ")

    def test_continuation_table_extends_the_answer(self, capitals_lm):
        assert capitals_lm.greedy_continue("p", "Paris", 16) == "Paris is the answer"

    def test_continuation_respects_token_budget(self, capitals_lm):
        assert capitals_lm.greedy_continue("p", "Paris", 2) == "Paris is"
        assert capitals_lm.greedy_continue("p", "Paris", 1) == "Paris"

    def test_unknown_first_token_stands_alone(self, capitals_lm):
        assert capitals_lm.greedy_continue("p", "Berlin", 16) == "Berlin"

    def test_zero_budget_rejected(self, capitals_lm):
        with pytest.raises(ValidationError):
            capitals_lm.greedy_continue("p", "Paris", 0)

    def test_greedy_answer_combines_argmax_and_continuation(self, capitals_lm):
        got = greedy_answer(capitals_lm, "The capital of France is", 16)
        assert got == "Paris is the answer"

    def test_greedy_answer_is_deterministic(self, capitals_lm):
        prompt = "What color is the sky"
        assert greedy_answer(capitals_lm, prompt, 8) == greedy_answer(capitals_lm, prompt, 8)

    def test_discarded_model_is_freed_without_the_cycle_collector(self):
        lm = ToyLM(capitals_spec())
        lm.next_token_distribution("The capital of France is")
        lm.next_token_distribution("What color is the sky")
        ref = weakref.ref(lm)
        gc.disable()
        try:
            del lm
            assert ref() is None, "a cache holds the model in a reference cycle"
        finally:
            gc.enable()


def completion(top_logprobs=None, tokens=None):
    logprobs = {}
    if top_logprobs is not None:
        logprobs["top_logprobs"] = top_logprobs
    if tokens is not None:
        logprobs["tokens"] = tokens
    return {"choices": [{"logprobs": logprobs or None}]}


class TestRemoteLm:
    def test_distribution_request_and_parse(self):
        def respond(path, body, hits):
            return 200, completion(top_logprobs=[{" Paris": -0.1, " Rome": -2.3}])

        with StubServer(respond) as stub:
            lm = RemoteLM(stub.url, "m1", top_n=7, retries=1)
            dist = lm.next_token_distribution("The capital of France is")
            assert dist.entries == {" Paris": -0.1, " Rome": -2.3}
            assert list(dist.entries) == [" Paris", " Rome"]  # sorted by logprob desc
            assert not dist.complete
            sent = stub.requests[0][1]
            assert sent == {
                "model": "m1",
                "prompt": "The capital of France is",
                "max_tokens": 1,
                "logprobs": 7,
            }

    def test_positive_logprobs_clamped_to_zero(self):
        def respond(path, body, hits):
            return 200, completion(top_logprobs=[{" a": 0.5, " b": -1.0}])

        with StubServer(respond) as stub:
            dist = RemoteLM(stub.url, "m", retries=1).next_token_distribution("p")
            assert dist.entries[" a"] == 0.0

    def test_missing_logprobs_is_capability_error(self):
        with StubServer(lambda p, b, h: (200, {"choices": [{"text": "hi"}]})) as stub:
            with pytest.raises(CapabilityError):
                RemoteLM(stub.url, "m", retries=1).next_token_distribution("p")

    def test_empty_top_logprobs_is_capability_error(self):
        with StubServer(lambda p, b, h: (200, completion(top_logprobs=[{}]))) as stub:
            with pytest.raises(CapabilityError):
                RemoteLM(stub.url, "m", retries=1).next_token_distribution("p")

    def test_no_choices_is_backend_error(self):
        with StubServer(lambda p, b, h: (200, {"choices": []})) as stub:
            with pytest.raises(BackendError):
                RemoteLM(stub.url, "m", retries=1).next_token_distribution("p")

    @pytest.mark.parametrize(
        "reply",
        [b"<html>gateway</html>", [1, 2], "text", None, {"choices": [1]}, {"choices": {"0": {}}}],
        ids=["html", "list", "string", "null", "choice-not-object", "choices-not-list"],
    )
    def test_reply_that_is_not_a_completion_is_backend_error(self, reply):
        with StubServer(lambda p, b, h: (200, reply)) as stub:
            lm = RemoteLM(stub.url, "m", retries=3, backoff=0.01)
            with pytest.raises(BackendError):
                lm.next_token_distribution("p")
            assert len(stub.requests) == 1  # a malformed reply is not retried
            assert lm.first_token_of("University of Michigan") == "University"
            assert lm.first_token_convention == "whitespace"

    def test_retries_through_429(self):
        def respond(path, body, hits):
            if hits == 1:
                return 429, {"error": "slow down"}
            return 200, completion(top_logprobs=[{" a": -0.5}])

        with StubServer(respond) as stub:
            lm = RemoteLM(stub.url, "m", retries=3, backoff=0.01)
            dist = lm.next_token_distribution("p")
            assert dist.entries[" a"] == -0.5
            assert len(stub.requests) == 2

    def test_persistent_500_reports_attempts(self):
        with StubServer(lambda p, b, h: (500, {"error": "down"})) as stub:
            lm = RemoteLM(stub.url, "m", retries=2, backoff=0.01)
            with pytest.raises(BackendError) as err:
                lm.next_token_distribution("p")
            assert err.value.attempts == 2
            assert err.value.last_status == 500
            assert len(stub.requests) == 2

    def test_client_error_fails_immediately(self):
        with StubServer(lambda p, b, h: (404, {"error": "no model"})) as stub:
            lm = RemoteLM(stub.url, "m", retries=3, backoff=0.01)
            with pytest.raises(BackendError) as err:
                lm.next_token_distribution("p")
            assert err.value.attempts == 1
            assert len(stub.requests) == 1

    def test_unreachable_endpoint_is_backend_error(self):
        lm = RemoteLM("http://127.0.0.1:9", "m", retries=1, timeout=0.2)
        with pytest.raises(BackendError):
            lm.next_token_distribution("p")

    def test_auth_header_from_environment(self, monkeypatch):
        monkeypatch.setenv("LM_TOKEN", "sekret")

        def respond(path, body, hits):
            return 200, completion(top_logprobs=[{" a": -0.5}])

        with StubServer(respond) as stub:
            lm = RemoteLM(stub.url, "m", retries=1, auth_token_env="LM_TOKEN")
            lm.next_token_distribution("p")
            assert stub.requests[0][2].get("Authorization") == "Bearer sekret"

    def test_missing_auth_env_rejected_up_front(self, monkeypatch):
        monkeypatch.delenv("NOPE_TOKEN", raising=False)
        with pytest.raises(ConfigError):
            RemoteLM("http://x", "m", auth_token_env="NOPE_TOKEN")

    def test_first_token_via_endpoint_echo(self):
        def respond(path, body, hits):
            if body.get("echo"):
                return 200, completion(tokens=[" Univ", "ersity"])
            return 200, completion(top_logprobs=[{" a": -0.5}])

        with StubServer(respond) as stub:
            lm = RemoteLM(stub.url, "m", retries=1)
            assert lm.first_token_of("University of Michigan") == " Univ"
            assert lm.first_token_convention == "endpoint-tokenizer"
            assert stub.requests[0][1]["prompt"] == " University of Michigan"

    def test_first_token_falls_back_to_whitespace(self):
        with StubServer(lambda p, b, h: (404, {"error": "no echo"})) as stub:
            lm = RemoteLM(stub.url, "m", retries=1, backoff=0.01)
            assert lm.first_token_of("University of Michigan") == "University"
            assert lm.first_token_convention == "whitespace"

    def test_greedy_continue_concatenates_raw_tokens(self):
        def respond(path, body, hits):
            prompt = body["prompt"]
            if prompt.endswith("Madrid"):
                return 200, completion(top_logprobs=[{" rules": -0.5, " drools": -2.0}])
            return 200, completion(top_logprobs=[{"\n": -0.1}])

        with StubServer(respond) as stub:
            lm = RemoteLM(stub.url, "m", retries=1)
            got = lm.greedy_continue("The best city is", " Madrid", 8)
            assert got == "Madrid rules"

    def test_greedy_continue_budget_of_one_sends_nothing(self):
        with StubServer(lambda p, b, h: (500, {"error": "unused"})) as stub:
            lm = RemoteLM(stub.url, "m", retries=1)
            assert lm.greedy_continue("p", " Madrid", 1) == "Madrid"
            assert len(stub.requests) == 0
