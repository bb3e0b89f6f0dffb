"""Contrastive first-token decoding: context layout, adjustment arithmetic, traces."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from factpatch.decoding import (
    CONTRAST_FULL,
    TARGET_SUPPRESS,
    DecodePlan,
    answer,
    adjusted_first_token,
    build_context,
)
from factpatch.errors import PipelineError, ValidationError
from factpatch.lm import RemoteLM, ToyLM, ToyLmSpec, ToyRule, TokenDistribution, greedy_answer
from factpatch.memory import EditFact, FactStore, render_surface
from factpatch.retrieval import FactIndex, HashedEmbedder
from factpatch.selector import ScorerParams

from conftest import add_to_index, capitals_spec
from oracles import loop_adjusted_first_token
from stubserver import StubServer

INSTR = "Use the statements above when answering the question below."


def capital_fact(new_object: str = "Rome", old_object: str | None = "Paris",
                 surface: str | None = None, seq: int = 0) -> EditFact:
    return EditFact(
        fact_id=f"f{seq:06d}-cccc",
        seq=seq,
        subject="France",
        relation="The capital of {s} is",
        old_object=old_object,
        new_object=new_object,
        surface_text=surface or render_surface("France", "The capital of {s} is", new_object),
    )


def italy_fact(seq: int = 1) -> EditFact:
    return EditFact(
        fact_id=f"f{seq:06d}-dddd",
        seq=seq,
        subject="Italy",
        relation="The capital of {s} is",
        old_object="Rome",
        new_object="Lyon",
        surface_text=render_surface("Italy", "The capital of {s} is", "Lyon"),
    )


SUBJECT_HIT_PARAMS = ScorerParams(weights=np.array([0.0, 8.0, 0.0, 0.0, 0.0]), bias=-4.0)


class TestDecodePlan:
    def test_defaults_are_valid(self):
        plan = DecodePlan()
        assert plan.mode == CONTRAST_FULL
        assert plan.floor_logprob == pytest.approx(math.log(1e-6))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": -0.1},
            {"mode": "contrast"},
            {"max_answer_tokens": 0},
            {"instruction_template": "  "},
            {"floor_logprob": 0.0},
            {"alpha": math.inf},
            {"alpha": math.nan},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            DecodePlan(**kwargs)


class TestBuildContext:
    def test_single_fact_layout(self):
        got = build_context([capital_fact()], "The capital of France is", INSTR)
        assert got == (
            "The capital of France is Rome\n"
            "\n" + INSTR + "\n"
            "\nThe capital of France is"
        )

    def test_facts_keep_their_order_one_per_line(self):
        got = build_context([capital_fact(), italy_fact()], "q?", INSTR)
        lines = got.split("\n")
        assert lines[0] == "The capital of France is Rome"
        assert lines[1] == "The capital of Italy is Lyon"
        assert lines[2] == ""

    def test_no_facts_rejected(self):
        with pytest.raises(ValidationError):
            build_context([], "q?", INSTR)

    def test_empty_query_rejected(self):
        with pytest.raises(ValidationError):
            build_context([capital_fact()], "  ", INSTR)


class TestPriorLogprob:
    """The ``l_prior`` that contrast-full records for each candidate."""

    @staticmethod
    def recorded_prior(lm, facts, token, plan=None):
        plan = plan or DecodePlan(alpha=0.2, instruction_template=INSTR)
        _, _, candidates = adjusted_first_token(lm, facts, "The capital of France is", plan)
        return {c.token: c.l_prior for c in candidates}[token]

    def test_single_fact_prior(self, capitals_lm):
        lp = self.recorded_prior(capitals_lm, [capital_fact()], "Paris")
        assert lp == pytest.approx(math.log(0.9), abs=1e-12)

    def test_mean_over_facts(self, capitals_lm):
        lp = self.recorded_prior(capitals_lm, [capital_fact(), italy_fact()], "Paris")
        assert lp == pytest.approx((math.log(0.9) + math.log(0.05)) / 2, abs=1e-12)

    def test_missing_token_scores_the_floor(self):
        # No residual mass: the bare prompt carries only Paris and Rome, while
        # the asserted Lyon enters the context distribution.
        spec = ToyLmSpec(
            rules=(
                ToyRule(subject="France", keywords=("capital",),
                        answers={"Paris": 0.9, "Rome": 0.1}),
            ),
            vocabulary=("Paris", "Rome", "Lyon"),
            beta=0.6,
        )
        plan = DecodePlan(alpha=0.2, instruction_template=INSTR, floor_logprob=math.log(1e-4))
        lp = self.recorded_prior(ToyLM(spec), [capital_fact(new_object="Lyon")], "Lyon", plan)
        assert lp == pytest.approx(math.log(1e-4), abs=1e-12)

    def test_no_facts_rejected(self, capitals_lm):
        with pytest.raises(ValidationError):
            adjusted_first_token(capitals_lm, [], "The capital of France is", DecodePlan())


class TestContrastFullArithmetic:
    """Numbers derived by hand from the capitals table (beta = 0.6).

    With the edit asserted in context: P(Rome) = 0.4*0.02 + 0.6 = 0.608 and
    P(Paris) = 0.4*0.9 = 0.36. Bare-prompt priors: 0.02 and 0.9.
    """

    def test_candidate_values_match_hand_computation(self, capitals_lm):
        plan = DecodePlan(alpha=0.2, instruction_template=INSTR)
        chosen, context, candidates = adjusted_first_token(
            capitals_lm, [capital_fact()], "The capital of France is", plan
        )
        by_token = {c.token: c for c in candidates}
        rome, paris = by_token["Rome"], by_token["Paris"]
        assert rome.l_new == pytest.approx(math.log(0.608), abs=1e-12)
        assert rome.l_prior == pytest.approx(math.log(0.02), abs=1e-12)
        assert rome.adjusted == pytest.approx(
            math.log(0.608) - 0.2 * math.log(0.02), abs=1e-12
        )
        assert paris.l_new == pytest.approx(math.log(0.36), abs=1e-12)
        assert paris.l_prior == pytest.approx(math.log(0.9), abs=1e-12)
        assert chosen == "Rome"

    def test_candidates_cover_the_context_distribution(self, capitals_lm):
        plan = DecodePlan(alpha=0.2, instruction_template=INSTR)
        _, context, candidates = adjusted_first_token(
            capitals_lm, [capital_fact()], "The capital of France is", plan
        )
        dist = capitals_lm.next_token_distribution(context)
        assert {c.token for c in candidates} == set(dist.entries)
        adjusted = [c.adjusted for c in candidates]
        assert adjusted == sorted(adjusted, reverse=True)

    def test_identity_holds_for_every_candidate(self, capitals_lm):
        for alpha in (0.0, 0.1, 0.35, 1.0):
            plan = DecodePlan(alpha=alpha, instruction_template=INSTR)
            _, _, candidates = adjusted_first_token(
                capitals_lm, [capital_fact()], "The capital of France is", plan
            )
            for c in candidates:
                assert abs(c.adjusted - (c.l_new - alpha * c.l_prior)) < 1e-9

    def test_flip_threshold_around_alpha(self):
        # With beta = 0.3 the context blend is not enough on its own:
        # P(Rome) = 0.314 < P(Paris) = 0.63, and the contrast term flips the
        # winner once alpha crosses ln(0.63/0.314) / ln(0.9/0.02) = 0.18296.
        lm = ToyLM(capitals_spec(beta=0.3))
        flip = math.log(0.63 / 0.314) / math.log(0.9 / 0.02)
        assert flip == pytest.approx(0.18296, abs=5e-5)
        for alpha, want in ((0.0, "Paris"), (0.18, "Paris"), (0.19, "Rome"), (0.5, "Rome")):
            plan = DecodePlan(alpha=alpha, instruction_template=INSTR)
            chosen, _, _ = adjusted_first_token(
                lm, [capital_fact()], "The capital of France is", plan
            )
            assert chosen == want, f"alpha={alpha}"

    def test_tie_breaks_to_lexicographically_smallest(self):
        spec = ToyLmSpec(
            rules=(
                ToyRule(
                    subject="riddle",
                    keywords=("answer",),
                    answers={"bee": 0.45, "ant": 0.45, "*": 0.1},
                ),
            ),
            vocabulary=("ant", "bee", "cat"),
            beta=0.6,
        )
        fact = EditFact(
            fact_id="f000000-tttt",
            seq=0,
            subject="riddle",
            relation="The answer to {s} is",
            old_object=None,
            new_object="bee",
            surface_text="no assertion happens on this line",
        )
        plan = DecodePlan(alpha=0.0, instruction_template=INSTR)
        chosen, _, candidates = adjusted_first_token(
            ToyLM(spec), [fact], "the answer to the riddle is", plan
        )
        top_two = candidates[:2]
        assert top_two[0].adjusted == top_two[1].adjusted
        assert chosen == "ant"


class TestTargetSuppress:
    def test_only_old_object_first_token_is_penalized(self, capitals_lm):
        plan = DecodePlan(alpha=0.2, mode=TARGET_SUPPRESS, instruction_template=INSTR)
        chosen, _, candidates = adjusted_first_token(
            capitals_lm, [capital_fact(old_object="Paris")], "The capital of France is", plan
        )
        by_token = {c.token: c for c in candidates}
        assert by_token["Paris"].l_prior == pytest.approx(abs(math.log(0.9)), abs=1e-12)
        others = [c for c in candidates if c.token != "Paris"]
        assert all(c.l_prior == 0.0 for c in others)
        assert all(c.adjusted == c.l_new for c in others)
        assert chosen == "Rome"

    def test_identity_re_derives_from_recorded_priors(self, capitals_lm):
        plan = DecodePlan(alpha=0.4, mode=TARGET_SUPPRESS, instruction_template=INSTR)
        _, _, candidates = adjusted_first_token(
            capitals_lm, [capital_fact()], "The capital of France is", plan
        )
        for c in candidates:
            assert abs(c.adjusted - (c.l_new - plan.alpha * c.l_prior)) < 1e-9

    def test_no_old_objects_degrades_to_plain_scores(self, capitals_lm):
        plan = DecodePlan(alpha=0.7, mode=TARGET_SUPPRESS, instruction_template=INSTR)
        _, _, candidates = adjusted_first_token(
            capitals_lm, [capital_fact(old_object=None)], "The capital of France is", plan
        )
        assert all(c.l_prior == 0.0 for c in candidates)
        assert all(c.adjusted == c.l_new for c in candidates)

    def test_old_object_outside_candidates_penalizes_nothing(self, capitals_lm):
        plan = DecodePlan(alpha=0.7, mode=TARGET_SUPPRESS, instruction_template=INSTR)
        _, _, candidates = adjusted_first_token(
            capitals_lm,
            [capital_fact(old_object="Quixote")],
            "The capital of France is",
            plan,
        )
        assert all(c.l_prior == 0.0 for c in candidates)


TOKEN_POOL = ("Ant", "ant", "be", "bee", "cat", "Dog", "eel", "elk", "fox", "yak")
SUBJECTS = ("Alpha", "Bravo", "Charlie")
QUERY_SUBJECTS = SUBJECTS + ("Delta",)  # Delta matches no rule: uniform distribution


class TableLM:
    """A remote-style model: truncated (incomplete) distributions from a table."""

    first_token_convention = "whitespace"

    def __init__(self, context_entries, prompt_entries):
        self.context_entries = context_entries
        self.prompt_entries = prompt_entries

    def next_token_distribution(self, prompt):
        entries = self.prompt_entries.get(prompt, self.context_entries)
        ordered = dict(sorted(entries.items(), key=lambda kv: (-kv[1], kv[0])))
        return TokenDistribution(entries=ordered, complete=False)

    def first_token_of(self, answer):
        return answer.split()[0]


def prop_fact(seq, subject, old_object, new_object):
    return EditFact(
        fact_id=f"f{seq:06d}-prop",
        seq=seq,
        subject=subject,
        relation="The capital of {s} is",
        old_object=old_object,
        new_object=new_object,
        surface_text=render_surface(subject, "The capital of {s} is", new_object),
    )


@st.composite
def selected_facts(draw, objects):
    return [
        prop_fact(
            seq,
            draw(st.sampled_from(QUERY_SUBJECTS)),
            draw(st.sampled_from(objects + (None, "Quixote"))),
            draw(st.sampled_from(objects)),
        )
        for seq in range(draw(st.integers(1, 3)))
    ]


@st.composite
def toy_worlds(draw):
    vocab = tuple(draw(st.lists(st.sampled_from(TOKEN_POOL), min_size=2, unique=True)))
    rules = []
    for subject in SUBJECTS[: draw(st.integers(1, len(SUBJECTS)))]:
        # Small integer weights make equal probabilities, hence exact ties.
        listed = draw(st.lists(st.sampled_from(vocab), min_size=1, unique=True))
        weights = draw(st.lists(st.integers(1, 4), min_size=len(listed), max_size=len(listed)))
        residual = draw(st.integers(0, 3)) if len(listed) < len(vocab) else 0
        total = sum(weights) + residual
        answers = {t: w / total for t, w in zip(listed, weights)}
        if residual:
            answers["*"] = residual / total
        rules.append(ToyRule(subject=subject, keywords=("capital",), answers=answers))
    beta = draw(st.sampled_from([0.0, 0.25, 0.6, 1.0]) | st.floats(0.0, 1.0))
    lm = ToyLM(ToyLmSpec(rules=tuple(rules), vocabulary=vocab, beta=beta))
    return lm, draw(selected_facts(vocab))


@st.composite
def table_worlds(draw):
    logprobs = st.sampled_from([0.0, -0.0, -0.25, -1.0, -2.5, -9.0]) | st.floats(-30.0, 0.0)
    entries = st.dictionaries(st.sampled_from(TOKEN_POOL), logprobs, min_size=1, max_size=6)
    facts = draw(selected_facts(TOKEN_POOL))
    prompt_entries = {f.prompt: draw(entries) for f in facts}
    return TableLM(draw(entries), prompt_entries), facts


class TestArrayScorerMatchesLoopReference:
    """The array scorer against the dict-and-loop scorer in ``oracles``.

    Covers both modes, exact ties, several selected facts, prior tokens
    missing from a fact's distribution (the floor) and truncated remote-style
    distributions. Order and every float must match bit for bit.
    """

    @settings(max_examples=300, deadline=None)
    @example(  # a -0.0 prior: the loop's fsum records it as 0.0
        world=(
            TableLM({"Ant": -1.0}, {"The capital of Alpha is": {"Ant": -0.0}}),
            [prop_fact(0, "Alpha", "Ant", "Ant")],
        ),
        query_subject="Alpha", alpha=0.0, mode=CONTRAST_FULL, floor=math.log(1e-6),
    )
    @given(
        world=st.one_of(toy_worlds(), table_worlds()),
        query_subject=st.sampled_from(QUERY_SUBJECTS),
        alpha=st.sampled_from([0.0, 0.2, 1.0]) | st.floats(0.0, 3.0),
        mode=st.sampled_from([CONTRAST_FULL, TARGET_SUPPRESS]),
        floor=st.sampled_from([math.log(1e-6), -2.5, -0.25]),
    )
    def test_choice_and_candidates_are_identical(self, world, query_subject, alpha, mode, floor):
        lm, facts = world
        query = f"The capital of {query_subject} is"
        plan = DecodePlan(alpha=alpha, mode=mode, floor_logprob=floor)
        chosen, context, candidates = adjusted_first_token(lm, facts, query, plan)
        want_chosen, want_context, want = loop_adjusted_first_token(lm, facts, query, plan)
        assert (chosen, context) == (want_chosen, want_context)
        assert len(candidates) == len(want)
        assert candidates == want

        def bits(rows):
            return [(c.token, c.l_new.hex(), c.l_prior.hex(), c.adjusted.hex()) for c in rows]

        assert bits(candidates) == bits(want)


def build_pipeline(lm, facts):
    index = FactIndex(HashedEmbedder(buckets=256))
    for fact in facts:
        add_to_index(index, fact)
    return index


class TestAnswerPipeline:
    def test_end_to_end_answer_and_trace(self, capitals_lm):
        store = FactStore()
        fact = store.append("France", "The capital of {s} is", "Rome", old_object="Paris")
        index = build_pipeline(capitals_lm, [fact])
        plan = DecodePlan(alpha=0.2, instruction_template=INSTR)
        text, trace = answer(
            capitals_lm, index, SUBJECT_HIT_PARAMS, "The capital of France is", plan
        )
        assert text == "Rome of course"  # continuation table entry for Rome
        assert trace.final_answer == text
        assert trace.chosen_first_token == "Rome"
        assert trace.selected_fact_ids == [fact.fact_id]
        assert not trace.fallback_used
        assert trace.alpha == 0.2
        assert trace.mode == CONTRAST_FULL
        assert trace.first_token_convention == "whitespace"
        assert trace.context.startswith("The capital of France is Rome\n")

    def test_fallback_trace_records_the_convention_of_its_own_first_token(self):
        query = "The capital of France is"

        def respond(path, body, hits):  # an endpoint that cannot echo
            if body.get("echo"):
                return 400, {"error": "echo is not supported"}
            table = {" Paris": -0.1, "\n": -3.0} if body["prompt"] == query else {"\n": -0.1}
            return 200, {"choices": [{"logprobs": {"top_logprobs": [table]}}]}

        with StubServer(respond) as stub:
            lm = RemoteLM(stub.url, "m", retries=1)
            index = FactIndex(HashedEmbedder(buckets=64))
            text, trace = answer(lm, index, ScorerParams.untrained(), query)
        assert (text, trace.chosen_first_token) == ("Paris", "Paris")
        assert trace.fallback_used
        assert trace.first_token_convention == "whitespace"

    def test_fallback_is_byte_identical_to_unedited_answer(self, capitals_lm):
        store = FactStore()
        fact = store.append("France", "The capital of {s} is", "Rome")
        index = build_pipeline(capitals_lm, [fact])
        untrained = ScorerParams.untrained()
        query = "The capital of France is"
        text, trace = answer(capitals_lm, index, untrained, query)
        assert text == greedy_answer(capitals_lm, query, 16)
        assert text == "Paris is the answer"
        assert trace.fallback_used
        assert trace.context == ""
        assert trace.candidates == []
        assert trace.selected_fact_ids == []
        assert trace.chosen_first_token == "Paris"

    def test_k_zero_bypasses_retrieval_entirely(self, capitals_lm):
        class ExplodingIndex:
            def top_k(self, query, k):
                raise AssertionError("retrieval must not be called with k = 0")

        text, trace = answer(
            capitals_lm, ExplodingIndex(), SUBJECT_HIT_PARAMS,
            "The capital of France is", k=0,
        )
        assert text == "Paris is the answer"
        assert trace.fallback_used

    def test_negative_k_is_a_validation_error(self, capitals_lm):
        index = build_pipeline(capitals_lm, [capital_fact()])
        with pytest.raises(ValidationError):
            answer(capitals_lm, index, SUBJECT_HIT_PARAMS, "The capital of France is", k=-1)

    def test_retrieval_failure_is_tagged(self, capitals_lm):
        class BrokenIndex:
            def top_k(self, query, k):
                raise RuntimeError("disk on fire")

        with pytest.raises(PipelineError) as err:
            answer(capitals_lm, BrokenIndex(), SUBJECT_HIT_PARAMS, "q")
        assert err.value.stage == "retrieval"

    def test_selection_failure_is_tagged(self, capitals_lm):
        index = build_pipeline(capitals_lm, [capital_fact()])

        class BrokenScorer:
            def probabilities(self, query, facts):
                raise RuntimeError("scorer service down")

        with pytest.raises(PipelineError) as err:
            answer(capitals_lm, index, BrokenScorer(), "The capital of France is")
        assert err.value.stage == "selection"

    def test_decode_failure_is_tagged(self):
        class BrokenLM:
            first_token_convention = "whitespace"

            def next_token_distribution(self, prompt):
                raise RuntimeError("model gone")

        index = FactIndex(HashedEmbedder(buckets=64))
        with pytest.raises(PipelineError) as err:
            answer(BrokenLM(), index, ScorerParams.untrained(), "any query")
        assert err.value.stage == "decode"

    def test_empty_query_is_a_validation_error(self, capitals_lm):
        index = FactIndex(HashedEmbedder(buckets=64))
        with pytest.raises(ValidationError):
            answer(capitals_lm, index, ScorerParams.untrained(), "   ")

    def test_duck_typed_scorer_select_is_used(self, capitals_lm):
        index = build_pipeline(capitals_lm, [capital_fact()])

        class PickyScorer:
            def __init__(self):
                self.calls = 0

            def probabilities(self, query, facts):
                self.calls += 1
                return [0.99 for _ in facts]

        scorer = PickyScorer()
        text, trace = answer(capitals_lm, index, scorer, "The capital of France is")
        assert scorer.calls == 1
        assert not trace.fallback_used

    def test_scorer_probabilities_are_thresholded_end_to_end(self, capitals_lm):
        france, italy = capital_fact(), italy_fact()
        index = build_pipeline(capitals_lm, [france, italy])

        class SubjectScorer:
            def __init__(self):
                self.requests = []

            def probabilities(self, query, facts):
                self.requests.append((query, list(facts)))
                # Italy's fact scores exactly the threshold, which does not select.
                return [0.9 if f.subject == "France" else 0.5 for f in facts]

        query = "The capital of France is"
        scorer = SubjectScorer()
        text, trace = answer(capitals_lm, index, scorer, query, threshold=0.5)
        assert text == "Rome of course"
        assert trace.selected_fact_ids == [france.fact_id]
        sent_query, sent_facts = scorer.requests[0]
        assert sent_query == query
        assert sorted(f.subject for f in sent_facts) == ["France", "Italy"]

        text, trace = answer(capitals_lm, index, scorer, query, threshold=0.95)
        assert text == "Paris is the answer"
        assert trace.fallback_used
        assert len(scorer.requests) == 2

    def test_trace_saves_as_json(self, capitals_lm, tmp_path):
        index = build_pipeline(capitals_lm, [capital_fact()])
        _, trace = answer(capitals_lm, index, SUBJECT_HIT_PARAMS, "The capital of France is")
        path = tmp_path / "trace.json"
        trace.save(path)
        loaded = json.loads(path.read_text(encoding="utf-8"))
        assert loaded == trace.to_dict()
        assert loaded["chosen_first_token"] == "Rome"
        assert len(loaded["candidates"]) == 8
