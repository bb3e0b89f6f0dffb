"""Pair features, logistic scorer, selection thresholds and the training loop."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factpatch.errors import ConfigError, ParseError, ValidationError
from factpatch.evalharness import EvalCase, QueryExpectation
from factpatch.memory import EditFact, render_surface
from factpatch.selector import (
    FEATURE_VERSION,
    N_FEATURES,
    ScorerParams,
    TrainingPair,
    bce_gradient,
    bce_loss,
    build_training_pairs,
    extract_features,
    fit,
    load_params,
    save_params,
    score,
    select,
    sigmoid,
    train,
)


def make_fact(subject: str = "Mexico", relation: str = "Who leads {s}",
              new_object: str = "Benito", surface: str | None = None,
              seq: int = 0) -> EditFact:
    return EditFact(
        fact_id=f"f{seq:06d}-ffff",
        seq=seq,
        subject=subject,
        relation=relation,
        old_object=None,
        new_object=new_object,
        surface_text=surface or render_surface(subject, relation, new_object),
    )


def trigram_cosine_oracle(a: str, b: str) -> float:
    """Fresh trigram-cosine computation used to cross-check the feature."""
    import re

    def grams(text: str) -> dict:
        joined = " ".join(re.findall(r"[a-z0-9]+", text.lower()))
        out: dict = {}
        for i in range(len(joined) - 2):
            g = joined[i : i + 3]
            out[g] = out.get(g, 0) + 1
        return out

    ga, gb = grams(a), grams(b)
    dot = math.fsum(ga[g] * gb.get(g, 0) for g in ga)
    na = math.sqrt(math.fsum(v * v for v in ga.values()))
    nb = math.sqrt(math.fsum(v * v for v in gb.values()))
    return dot / (na * nb) if na and nb else 0.0


class TestFeatures:
    def test_identical_query_and_surface(self):
        fact = make_fact(subject="alpha", relation="r", surface="alpha beta")
        feats = extract_features("alpha beta", fact)
        assert feats == pytest.approx([1.0, 1.0, 1.0, 1.0, 0.0], abs=1e-12)

    def test_hand_checked_vector(self):
        fact = make_fact()  # surface: "Who leads Mexico Benito"
        feats = extract_features("Who leads Mexico?", fact)
        assert feats[0] == pytest.approx(3 / 4)       # token jaccard
        assert feats[1] == 1.0                        # subject appears in query
        want_cos = trigram_cosine_oracle("Who leads Mexico?", fact.surface_text)
        assert feats[2] == pytest.approx(want_cos, abs=1e-12)
        assert 0.8 < feats[2] < 1.0
        assert feats[3] == pytest.approx(3 / 4)       # length ratio
        assert feats[4] == pytest.approx(2 / 3)       # jaccard vs relation words

    def test_subject_miss_is_zero(self):
        feats = extract_features("Who leads Canada?", make_fact())
        assert feats[1] == 0.0

    def test_subject_match_is_case_insensitive(self):
        feats = extract_features("who leads MEXICO?", make_fact())
        assert feats[1] == 1.0

    def test_disjoint_pair_bottoms_out(self):
        fact = make_fact(subject="Zebra", relation="The stripes of {s} are", new_object="wide")
        feats = extract_features("quantum flux model", fact)
        assert feats[0] == 0.0
        assert feats[1] == 0.0
        assert feats[4] == 0.0

    def test_all_features_within_unit_interval(self):
        rng = np.random.default_rng(5)
        words = ["amber", "falcon", "basalt", "mexico", "leads", "who"]
        for _ in range(50):
            query = " ".join(rng.choice(words, size=int(rng.integers(1, 6))))
            feats = extract_features(query, make_fact())
            assert feats.shape == (N_FEATURES,)
            assert np.all(feats >= 0.0) and np.all(feats <= 1.0)

    def test_empty_query_rejected(self):
        with pytest.raises(ValidationError):
            extract_features("  ", make_fact())


class TestScoring:
    def test_zero_params_score_exactly_half(self):
        p = score(ScorerParams.untrained(), "Who leads Mexico?", make_fact())
        assert p == 0.5

    def test_bias_only_matches_sigmoid_value(self):
        params = ScorerParams(weights=np.zeros(N_FEATURES), bias=4.0)
        p = score(params, "anything", make_fact())
        assert abs(p - 0.9820137900379085) < 1e-12

    def test_score_agrees_with_manual_sigmoid(self):
        params = ScorerParams(weights=np.array([0.5, 2.0, -1.0, 0.25, 1.5]), bias=-0.75)
        fact = make_fact()
        feats = extract_features("Who leads Mexico?", fact)
        want = 1.0 / (1.0 + math.exp(-(float(feats @ params.weights) - 0.75)))
        assert score(params, "Who leads Mexico?", fact) == pytest.approx(want, abs=1e-12)

    def test_extreme_bias_stays_strictly_inside_unit_interval(self):
        lo = ScorerParams(weights=np.zeros(N_FEATURES), bias=-1000.0)
        hi = ScorerParams(weights=np.zeros(N_FEATURES), bias=1000.0)
        assert 0.0 < score(lo, "q", make_fact()) < 1.0
        assert 0.0 < score(hi, "q", make_fact()) < 1.0

    def test_wrong_weight_size_rejected(self):
        params = ScorerParams(weights=np.zeros(3), bias=0.0)
        with pytest.raises(ValidationError):
            score(params, "q", make_fact())

    def test_non_finite_params_rejected(self):
        with pytest.raises(ValidationError):
            ScorerParams(weights=np.array([np.nan] * N_FEATURES), bias=0.0)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(-8, 8), min_size=N_FEATURES, max_size=N_FEATURES),
        st.floats(-8, 8),
        st.sampled_from(["Who leads Mexico?", "mexico LEADS", "Who rules Peru now", "??", "a"]),
        st.lists(
            st.tuples(
                st.sampled_from(["Mexico", "Peru", "New Mexico", "x"]),
                st.sampled_from(["Who leads {s}", "{s} is ruled by", "The capital of {s} is"]),
                st.sampled_from(["Benito", "Lima", "a b c"]),
            ),
            max_size=6,
        ),
    )
    def test_probabilities_equal_per_pair_scores_bit_for_bit(self, weights, bias, query, rows):
        params = ScorerParams(weights=np.array(weights), bias=bias)
        facts = [make_fact(subject=s, relation=r, new_object=o, seq=i)
                 for i, (s, r, o) in enumerate(rows)]
        got = [p.hex() for p in params.probabilities(query, facts)]
        assert got == [score(params, query, f).hex() for f in facts]
        spelled_out = [sigmoid(extract_features(query, f) @ params.weights + params.bias)
                       for f in facts]
        assert got == [float(p).hex() for p in spelled_out]

    def test_probabilities_reject_wrong_weight_size(self):
        params = ScorerParams(weights=np.zeros(3), bias=0.0)
        assert params.probabilities("q", []) == []
        with pytest.raises(ValidationError):
            params.probabilities("q", [make_fact()])


class TestSelect:
    def test_exact_threshold_is_not_selected(self):
        decisions = select(ScorerParams.untrained(), "Who leads Mexico?", [make_fact()])
        assert decisions[0].probability == 0.5
        assert not decisions[0].selected

    def test_selects_above_threshold_only(self):
        # Weight only the subject-hit feature: p = sigmoid(4*hit - 2).
        params = ScorerParams(weights=np.array([0.0, 4.0, 0.0, 0.0, 0.0]), bias=-2.0)
        hit = make_fact(subject="Mexico")
        miss = make_fact(subject="Canada", seq=1)
        decisions = select(params, "Who leads Mexico?", [hit, miss, hit])
        assert [d.selected for d in decisions] == [True, False, True]
        assert decisions[0].probability == pytest.approx(sigmoid(2.0))
        assert decisions[1].probability == pytest.approx(sigmoid(-2.0))

    def test_decision_order_follows_candidates(self):
        params = ScorerParams(weights=np.array([0.0, 4.0, 0.0, 0.0, 0.0]), bias=-2.0)
        facts = [make_fact(subject=s, seq=i) for i, s in enumerate(["A", "Mexico", "B"])]
        decisions = select(params, "Who leads Mexico?", facts)
        assert [d.fact.subject for d in decisions] == ["A", "Mexico", "B"]

    def test_select_applies_threshold_to_any_scorer(self):
        class FixedScorer:
            def probabilities(self, query, facts):
                return [0.9, 0.5, 0.2]

        facts = [make_fact(seq=i, subject=f"S{i}") for i in range(3)]
        decisions = select(FixedScorer(), "q", facts, threshold=0.5)
        assert [d.selected for d in decisions] == [True, False, False]

    def test_bad_threshold_rejected(self):
        for t in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValidationError):
                select(ScorerParams.untrained(), "q", [make_fact()], threshold=t)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.floats(-3, 3), min_size=N_FEATURES, max_size=N_FEATURES),
        st.floats(-3, 3),
        st.floats(0.05, 0.95),
        st.floats(0.05, 0.95),
    )
    def test_raising_threshold_never_adds_selections(self, weights, bias, t1, t2):
        lo, hi = min(t1, t2), max(t1, t2)
        params = ScorerParams(weights=np.array(weights), bias=bias)
        facts = [make_fact(subject=s, seq=i) for i, s in enumerate(["Mexico", "Canada", "Peru"])]
        picked_lo = {d.fact.fact_id for d in select(params, "Who leads Mexico?", facts, lo) if d.selected}
        picked_hi = {d.fact.fact_id for d in select(params, "Who leads Mexico?", facts, hi) if d.selected}
        assert picked_hi <= picked_lo


class TestTraining:
    def test_gradient_matches_central_difference(self):
        rng = np.random.default_rng(7)
        eps = 1e-6
        for _ in range(20):
            n = int(rng.integers(4, 12))
            features = rng.uniform(0, 1, size=(n, N_FEATURES))
            labels = rng.integers(0, 2, size=n).astype(np.float64)
            params = ScorerParams(weights=rng.normal(size=N_FEATURES), bias=float(rng.normal()))
            grad_w, grad_b = bce_gradient(params, features, labels)
            for j in range(N_FEATURES):
                bump = np.zeros(N_FEATURES)
                bump[j] = eps
                hi = bce_loss(ScorerParams(params.weights + bump, params.bias), features, labels)
                lo = bce_loss(ScorerParams(params.weights - bump, params.bias), features, labels)
                numeric = (hi - lo) / (2 * eps)
                assert abs(grad_w[j] - numeric) < 1e-5, f"weight {j}"
            hi = bce_loss(ScorerParams(params.weights, params.bias + eps), features, labels)
            lo = bce_loss(ScorerParams(params.weights, params.bias - eps), features, labels)
            assert abs(grad_b - (hi - lo) / (2 * eps)) < 1e-5

    def test_separable_data_reaches_full_accuracy(self):
        rng = np.random.default_rng(13)
        n = 200
        labels = rng.integers(0, 2, size=n).astype(np.float64)
        features = rng.uniform(0, 1, size=(n, N_FEATURES))
        features[:, 1] = labels  # one perfectly separating coordinate
        params, losses = fit(features, labels, epochs=40, seed=0)
        probs = sigmoid(features @ params.weights + params.bias)
        accuracy = float(np.mean((probs > 0.5) == labels))
        assert accuracy == 1.0
        assert losses[-1] < losses[0]
        assert len(losses) == 40

    def test_fit_is_deterministic_for_a_seed(self):
        rng = np.random.default_rng(3)
        features = rng.uniform(0, 1, size=(50, N_FEATURES))
        labels = (features[:, 0] > 0.5).astype(np.float64)
        a, losses_a = fit(features, labels, epochs=10, seed=42)
        b, losses_b = fit(features, labels, epochs=10, seed=42)
        assert np.array_equal(a.weights, b.weights)
        assert a.bias == b.bias
        assert losses_a == losses_b

    def test_zero_epochs_returns_initialization(self):
        features = np.array([[0.0] * N_FEATURES, [1.0] * N_FEATURES])
        labels = np.array([0.0, 1.0])
        params, losses = fit(features, labels, epochs=0)
        assert np.array_equal(params.weights, np.zeros(N_FEATURES))
        assert params.bias == 0.0
        assert losses == []

    def test_single_class_rejected(self):
        features = np.ones((4, N_FEATURES))
        with pytest.raises(ValidationError):
            fit(features, np.ones(4))

    def test_non_binary_labels_rejected(self):
        features = np.ones((2, N_FEATURES))
        with pytest.raises(ValidationError):
            fit(features, np.array([0.0, 2.0]))

    def test_misaligned_shapes_rejected(self):
        with pytest.raises(ValidationError):
            fit(np.ones((3, N_FEATURES)), np.array([0.0, 1.0]))

    def test_train_wraps_fit_over_pairs(self):
        pairs = [
            TrainingPair(query="Who leads Mexico?", fact=make_fact(), label=1),
            TrainingPair(query="Who leads Mexico?", fact=make_fact(subject="Canada", seq=1), label=0),
        ]
        params = train(pairs, epochs=60)
        p_pos = score(params, "Who leads Mexico?", make_fact())
        p_neg = score(params, "Who leads Mexico?", make_fact(subject="Canada", seq=1))
        assert p_pos > 0.5 > p_neg

    def test_train_rejects_empty(self):
        with pytest.raises(ValidationError):
            train([])


def make_case(i: int) -> EvalCase:
    subject = f"Town{i:03d}"
    return EvalCase(
        case_id=f"c{i:03d}",
        subject=subject,
        relation="What river crosses {s}",
        new_object=f"River{i:03d}",
        rel_queries=(QueryExpectation(f"What river crosses {subject}", f"River{i:03d}"),),
        gen_queries=(QueryExpectation(f"Tell me the river that runs through {subject}", f"River{i:03d}"),),
    )


class TestBuildTrainingPairs:
    def test_counts_and_label_balance(self):
        cases = [make_case(i) for i in range(10)]
        pairs = build_training_pairs(cases, seed=1)
        assert len(pairs) == 40  # 2 queries per case, 1 negative per positive
        assert sum(p.label for p in pairs) == 20

    def test_negatives_never_reuse_own_fact(self):
        cases = [make_case(i) for i in range(25)]
        pairs = build_training_pairs(cases, negatives_per_positive=3, seed=2)
        own_fact = {}
        for case in cases:
            for q in list(case.rel_queries) + list(case.gen_queries):
                own_fact[q.query] = f"case-{case.case_id}"
        negatives = [p for p in pairs if p.label == 0]
        assert len(negatives) == 150
        for pair in negatives:
            assert pair.fact.fact_id != own_fact[pair.query]

    def test_deterministic_for_seed(self):
        cases = [make_case(i) for i in range(8)]
        a = build_training_pairs(cases, seed=9)
        b = build_training_pairs(cases, seed=9)
        assert [(p.query, p.fact.fact_id, p.label) for p in a] == [
            (p.query, p.fact.fact_id, p.label) for p in b
        ]

    def test_zero_negatives_allowed(self):
        cases = [make_case(i) for i in range(3)]
        pairs = build_training_pairs(cases, negatives_per_positive=0)
        assert all(p.label == 1 for p in pairs)

    def test_needs_two_cases(self):
        with pytest.raises(ValidationError):
            build_training_pairs([make_case(0)])


class TestParamsPersistence:
    def test_roundtrip(self, tmp_path):
        params = ScorerParams(weights=np.array([0.1, -2.5, 3.0, 0.0, 1e-9]), bias=-1.25)
        path = tmp_path / "params.json"
        save_params(params, path)
        loaded = load_params(path)
        assert np.array_equal(loaded.weights, params.weights)
        assert loaded.bias == params.bias
        assert loaded.feature_version == FEATURE_VERSION

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "params.json"
        save_params(ScorerParams.untrained(), path)
        body = path.read_text(encoding="utf-8").replace(FEATURE_VERSION, "pair-features-v0")
        path.write_text(body, encoding="utf-8")
        with pytest.raises(ConfigError):
            load_params(path)

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text("{oops", encoding="utf-8")
        with pytest.raises(ParseError):
            load_params(path)
