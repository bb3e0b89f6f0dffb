"""Metrics arithmetic, the sequential protocol, report files, case formats."""

import csv
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from factpatch.errors import BackendError, ParseError, PipelineError, ValidationError
from factpatch.evalharness import (
    EvalCase,
    QueryExpectation,
    load_cases,
    match_answer,
    normalize_answer,
    record_baselines,
    run_sequential,
    save_cases,
    save_sweep_csv,
    sweep,
)
from factpatch.lm import greedy_answer
from factpatch.selector import ScorerParams

from fixture_cases import (
    FIXTURE_AVERAGE,
    FIXTURE_GENERALITY,
    FIXTURE_LOCALITY,
    FIXTURE_RELIABILITY,
    eight_case_world,
    fixture_engine,
)


class TestNormalize:
    def test_lowercases_and_strips(self):
        assert normalize_answer("  German.  ") == "german"

    def test_strips_stacked_terminal_punctuation(self):
        assert normalize_answer("Lisbon!?.") == "lisbon"

    def test_collapses_inner_whitespace(self):
        assert normalize_answer("University  of \t Michigan") == "university of michigan"

    def test_interior_punctuation_survives(self):
        assert normalize_answer("a.b.c.") == "a.b.c"


class TestMatchAnswer:
    def test_exact_after_normalization(self):
        assert match_answer("German.", "german")

    def test_prefix_with_word_boundary(self):
        assert match_answer("University of Michigan is where they study", "University of Michigan")

    def test_prefix_without_boundary_rejected(self):
        assert not match_answer("Germany", "German")

    def test_punctuation_counts_as_boundary(self):
        assert match_answer("Lisbon, as everyone knows", "Lisbon")

    def test_plain_mismatch(self):
        assert not match_answer("Rome", "Paris")

    def test_empty_expected_never_matches(self):
        assert not match_answer("anything", "  .")

    @given(st.text(alphabet="abc xyz.", max_size=20))
    def test_reflexive_when_normalized_nonempty(self, text):
        if normalize_answer(text):
            assert match_answer(text, text)


class TestCaseValidation:
    def test_query_expectation_requires_both_fields(self):
        with pytest.raises(ValidationError):
            QueryExpectation("  ", "x")
        with pytest.raises(ValidationError):
            QueryExpectation("q", " ")

    @pytest.mark.parametrize(
        "field", ["case_id", "subject", "relation", "new_object", "old_object", "surface_text"]
    )
    def test_non_string_field_rejected(self, field):
        fields = {"case_id": "c", "subject": "S", "relation": "r {s}", "new_object": "N"}
        with pytest.raises(ValidationError):
            EvalCase(**{**fields, field: 5}, rel_queries=(QueryExpectation("r S", "N"),))

    def test_case_requires_rel_queries(self):
        with pytest.raises(ValidationError):
            EvalCase(case_id="c", subject="S", relation="r {s}", new_object="N")

    def test_surface_defaults_to_rendered_statement(self):
        case = EvalCase(
            case_id="c", subject="S", relation="The r of {s} is", new_object="N",
            rel_queries=(QueryExpectation("The r of S is", "N"),),
        )
        assert case.surface == "The r of S is N"
        fact = case.as_fact(seq=3)
        assert fact.fact_id == "case-c"
        assert fact.seq == 3

    def test_explicit_surface_wins(self):
        case = EvalCase(
            case_id="c", subject="S", relation="r {s}", new_object="N",
            surface_text="S was changed to N yesterday",
            rel_queries=(QueryExpectation("q", "N"),),
        )
        assert case.surface == "S was changed to N yesterday"


class TestBaselines:
    def test_records_unedited_answers_for_loc_queries(self):
        spec, cases = eight_case_world()
        engine = fixture_engine(spec)
        baselines = record_baselines(engine.lm, cases)
        assert baselines["What height is recorded for Lima3?"] == "Tall3"
        assert baselines["What height is recorded for Alpha1?"] == "TallA"
        assert len(baselines) == 8

    def test_repeated_queries_recorded_once(self):
        spec, cases = eight_case_world()
        engine = fixture_engine(spec)
        doubled = cases + cases
        baselines = record_baselines(engine.lm, doubled)
        assert len(baselines) == 8

    def test_backend_failure_names_the_query(self):
        class BrokenLM:
            first_token_convention = "whitespace"

            def next_token_distribution(self, prompt):
                raise BackendError("endpoint busy")

        case = EvalCase(
            case_id="c", subject="S", relation="r {s}", new_object="N",
            rel_queries=(QueryExpectation("q", "N"),),
            loc_queries=(QueryExpectation("who owns the old mill", "nobody"),),
        )
        with pytest.raises(PipelineError) as err:
            record_baselines(BrokenLM(), [case])
        assert err.value.stage == "baseline"
        assert "who owns the old mill" in str(err.value)


class TestRunSequential:
    def test_fixture_metrics_are_exact(self):
        spec, cases = eight_case_world()
        report = run_sequential(fixture_engine(spec), cases)
        assert report.cases == 8
        assert abs(report.reliability - FIXTURE_RELIABILITY) < 1e-9
        assert abs(report.generality - FIXTURE_GENERALITY) < 1e-9
        assert abs(report.locality - FIXTURE_LOCALITY) < 1e-9
        assert abs(report.average - FIXTURE_AVERAGE) < 1e-9
        assert len(report.records) == 20

    def test_locality_failure_is_the_alpha1_collision(self):
        spec, cases = eight_case_world()
        report = run_sequential(fixture_engine(spec), cases)
        failed_loc = [r for r in report.records if r.query_type == "loc" and not r.passed]
        assert len(failed_loc) == 1
        assert failed_loc[0].query == "What height is recorded for Alpha1?"
        assert not failed_loc[0].fallback_used

    def test_passing_loc_probes_used_the_fallback(self):
        spec, cases = eight_case_world()
        report = run_sequential(fixture_engine(spec), cases)
        for record in report.records:
            if record.query_type == "loc" and record.passed:
                assert record.fallback_used
                assert record.got == record.expected

    def test_case_order_does_not_change_final_metrics(self):
        spec, cases = eight_case_world()
        forward = run_sequential(fixture_engine(spec), cases)
        backward = run_sequential(fixture_engine(spec), list(reversed(cases)))
        assert backward.reliability == forward.reliability
        assert backward.generality == forward.generality
        assert backward.locality == forward.locality

    def test_untrained_selector_gives_perfect_locality(self):
        spec, cases = eight_case_world()
        engine = fixture_engine(spec)
        engine.scorer = ScorerParams.untrained()
        report = run_sequential(engine, cases)
        assert report.locality == 1.0
        assert all(r.fallback_used for r in report.records)
        # Fallback rel answers come from the unedited prior: the six cases
        # whose prior already prefers the new object still pass, the two
        # old-leaning ones fail.
        assert report.reliability == 0.75

    def test_fallback_answers_are_byte_identical_to_baseline(self):
        spec, cases = eight_case_world()
        engine = fixture_engine(spec)
        engine.scorer = ScorerParams.untrained()
        report = run_sequential(engine, cases)
        for record in report.records:
            assert record.got == greedy_answer(engine.lm, record.query, 16)

    def test_checkpoint_curve_matches_fresh_prefix_runs(self):
        spec, cases = eight_case_world()
        report = run_sequential(fixture_engine(spec), cases, checkpoints=[4, 8])
        assert [c.step for c in report.curve] == [4, 8]
        prefix = run_sequential(fixture_engine(spec), cases[:4])
        assert report.curve[0].reliability == prefix.reliability
        assert report.curve[0].generality == prefix.generality
        assert report.curve[0].locality == prefix.locality
        assert report.curve[1].reliability == report.reliability
        assert report.curve[1].average == report.average

    def test_checkpoints_deduplicated_and_sorted(self):
        spec, cases = eight_case_world()
        report = run_sequential(fixture_engine(spec), cases, checkpoints=[8, 4, 4])
        assert [c.step for c in report.curve] == [4, 8]

    def test_checkpoint_out_of_range_rejected(self):
        spec, cases = eight_case_world()
        for bad in ([0], [9]):
            with pytest.raises(ValidationError):
                run_sequential(fixture_engine(spec), cases, checkpoints=bad)

    def test_supplied_baselines_must_cover_loc_queries(self):
        spec, cases = eight_case_world()
        with pytest.raises(ValidationError):
            run_sequential(fixture_engine(spec), cases, baselines={"other": "x"})

    def test_supplied_baselines_are_used_verbatim(self):
        spec, cases = eight_case_world()
        baselines = {p.query: "PLANTED" for c in cases for p in c.loc_queries}
        report = run_sequential(fixture_engine(spec), cases, baselines=baselines)
        assert report.locality == 0.0  # nothing answers "PLANTED"

    def test_absent_classes_are_none_and_skip_the_average(self):
        case = EvalCase(
            case_id="only-rel", subject="Alpha1", relation="What motto is associated with {s}",
            new_object="New1", rel_queries=(QueryExpectation("What motto is associated with Alpha1", "New1"),),
        )
        spec, _ = eight_case_world()
        report = run_sequential(fixture_engine(spec), [case])
        assert report.generality is None
        assert report.locality is None
        assert report.average == report.reliability

    def test_query_failures_are_recorded_not_raised(self):
        spec, cases = eight_case_world()
        inner = fixture_engine(spec)

        class FlakyEngine:
            def __init__(self, engine):
                self._engine = engine
                self.lm = engine.lm
                self.plan = engine.plan

            def add_case_fact(self, case):
                return self._engine.add_case_fact(case)

            def answer(self, query, **kwargs):
                if query == "What motto is associated with Alpha2":
                    raise BackendError("transient outage")
                return self._engine.answer(query, **kwargs)

        report = run_sequential(FlakyEngine(inner), cases)
        bad = [r for r in report.records if r.query == "What motto is associated with Alpha2"]
        assert len(bad) == 1
        assert not bad[0].passed
        assert bad[0].got.startswith("<error:")
        # Only that one rel query flipped relative to the clean run.
        assert abs(report.reliability - (FIXTURE_RELIABILITY - 1 / 8)) < 1e-9


class TestReportFiles:
    def test_summary_json_shape(self, tmp_path):
        spec, cases = eight_case_world()
        report = run_sequential(fixture_engine(spec), cases, checkpoints=[8])
        path = tmp_path / "summary.json"
        report.save_summary(path)
        loaded = json.loads(path.read_text(encoding="utf-8"))
        assert set(loaded) == {"cases", "reliability", "generality", "locality", "average", "curve"}
        assert loaded["cases"] == 8
        assert loaded["average"] == pytest.approx(FIXTURE_AVERAGE)
        assert loaded["curve"][0]["step"] == 8

    def test_records_csv_golden_shape(self, tmp_path):
        spec, cases = eight_case_world()
        report = run_sequential(fixture_engine(spec), cases)
        path = tmp_path / "records.csv"
        report.save_records_csv(path)
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["case_id", "query_type", "query", "expected", "got", "pass", "fallback_used"]
        assert len(rows) == 21  # header + 20 records
        assert {r[1] for r in rows[1:]} == {"rel", "gen", "loc"}
        assert {r[5] for r in rows[1:]} <= {"true", "false"}

    def test_two_runs_write_identical_bytes(self, tmp_path):
        spec, cases = eight_case_world()
        paths = []
        for name in ("a", "b"):
            report = run_sequential(fixture_engine(spec), cases, checkpoints=[4, 8])
            summary = tmp_path / f"summary-{name}.json"
            records = tmp_path / f"records-{name}.csv"
            report.save_summary(summary)
            report.save_records_csv(records)
            paths.append((summary.read_bytes(), records.read_bytes()))
        assert paths[0] == paths[1]


class TestSweep:
    def test_single_value_equals_plain_run(self):
        spec, cases = eight_case_world()
        baselines = record_baselines(fixture_engine(spec).lm, cases)
        rows = sweep([0.0], cases, lambda alpha: fixture_engine(spec, alpha=alpha),
                     baselines=baselines)
        plain = run_sequential(fixture_engine(spec), cases, baselines=baselines)
        assert rows[0]["value"] == 0.0
        assert rows[0]["reliability"] == plain.reliability
        assert rows[0]["generality"] == plain.generality
        assert rows[0]["locality"] == plain.locality

    def test_failing_value_is_recorded_and_the_sweep_continues(self):
        spec, cases = eight_case_world()

        def make_engine(alpha):
            if alpha == 99:
                raise RuntimeError("cannot build that")
            return fixture_engine(spec, alpha=alpha)

        rows = sweep([0.0, 99, 0.2], cases, make_engine)
        assert "error" in rows[1]
        assert "reliability" in rows[0] and "reliability" in rows[2]

    def test_sweep_csv_columns(self, tmp_path):
        rows = [
            {"value": 0.0, "reliability": 1.0, "generality": 0.5, "locality": 1.0, "average": 0.8333},
            {"value": 99, "error": "boom"},
        ]
        path = tmp_path / "sweep.csv"
        save_sweep_csv(rows, path)
        with open(path, newline="", encoding="utf-8") as handle:
            got = list(csv.reader(handle))
        assert got[0] == ["value", "reliability", "generality", "locality", "average", "error"]
        assert got[1][0] == "0.0"
        assert got[2][5] == "boom"


class TestCaseFiles:
    def test_canonical_roundtrip(self, tmp_path):
        _, cases = eight_case_world()
        path = tmp_path / "cases.jsonl"
        assert save_cases(cases, path) == 8
        loaded = load_cases(path)
        assert loaded == cases

    def test_json_array_form_accepted(self, tmp_path):
        _, cases = eight_case_world()
        from factpatch.evalharness import case_to_dict

        path = tmp_path / "cases.json"
        path.write_text(json.dumps([case_to_dict(c) for c in cases[:2]]), encoding="utf-8")
        assert len(load_cases(path)) == 2

    def test_bad_line_reports_position(self, tmp_path):
        _, cases = eight_case_world()
        from factpatch.evalharness import case_to_dict

        path = tmp_path / "cases.jsonl"
        path.write_text(
            json.dumps(case_to_dict(cases[0])) + "\n{broken\n", encoding="utf-8"
        )
        with pytest.raises(ParseError) as err:
            load_cases(path)
        assert err.value.line == 2

    def test_missing_field_reports_position(self, tmp_path):
        path = tmp_path / "cases.jsonl"
        path.write_text('{"subject": "S"}\n', encoding="utf-8")
        with pytest.raises(ParseError) as err:
            load_cases(path)
        assert err.value.line == 1

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "cases.jsonl"
        path.write_text("{}\n", encoding="utf-8")
        with pytest.raises(ValidationError):
            load_cases(path, format="mystery")

    def test_zsre_style_mapping(self, tmp_path):
        record = {
            "subject": "Mira Vale",
            "src": "What instrument does Mira Vale play?",
            "rephrase": "Which instrument is played by Mira Vale?",
            "alt": "cello",
            "answers": ["violin"],
            "loc": "nq question: what river flows through Dorvale",
            "loc_ans": "the Brant",
        }
        path = tmp_path / "z.jsonl"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        case = load_cases(path, format="zsre")[0]
        assert case.subject == "Mira Vale"
        assert case.relation == "What instrument does {s} play?"
        assert case.new_object == "cello"
        assert case.old_object == "violin"
        assert case.rel_queries[0].query == "What instrument does Mira Vale play?"
        assert case.gen_queries[0].expected == "cello"
        assert case.loc_queries[0].query == "what river flows through Dorvale"
        assert case.loc_queries[0].expected == "the Brant"

    def test_zsre_drops_unanswered_loc(self, tmp_path):
        record = {
            "subject": "Mira Vale",
            "src": "What instrument does Mira Vale play?",
            "alt": "cello",
            "loc": "nq question: something without an answer",
        }
        path = tmp_path / "z.jsonl"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        case = load_cases(path, format="zsre")[0]
        assert case.loc_queries == ()

    def test_counterfact_style_mapping(self, tmp_path):
        record = {
            "case_id": "cf-1",
            "requested_rewrite": {
                "prompt": "The headquarters of {} is in",
                "subject": "Orel Labs",
                "target_new": {"str": "Lisbon"},
                "target_true": {"str": "Oslo"},
            },
            "paraphrase_prompts": ["Orel Labs is based in"],
            "neighborhood_prompts": ["The headquarters of Kite Systems is in"],
        }
        path = tmp_path / "cf.jsonl"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        case = load_cases(path, format="counterfact")[0]
        assert case.case_id == "cf-1"
        assert case.relation == "The headquarters of {s} is in"
        assert case.rel_queries[0].query == "The headquarters of Orel Labs is in"
        assert case.new_object == "Lisbon"
        assert case.old_object == "Oslo"
        assert case.gen_queries[0].query == "Orel Labs is based in"
        assert case.loc_queries == ()  # neighborhood prompts carry no answers

    def test_counterfact_locality_pair_is_kept(self, tmp_path):
        record = {
            "requested_rewrite": {
                "prompt": "The headquarters of {} is in",
                "subject": "Orel Labs",
                "target_new": {"str": "Lisbon"},
                "target_true": {"str": "Oslo"},
            },
            "locality_prompt": "The headquarters of Kite Systems is in",
            "locality_ground_truth": "Tallinn",
        }
        path = tmp_path / "cf.jsonl"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        case = load_cases(path, format="counterfact")[0]
        assert case.loc_queries[0].expected == "Tallinn"

    def test_ripe_style_mapping(self, tmp_path):
        record = {
            "subject": "Kestrel Peak",
            "prompt": "{} is located in the region of",
            "target_new": "Veyland",
            "target_true": "Norwick",
            "paraphrase": [
                "Kestrel Peak lies within",
                {"prompt": "The region containing Kestrel Peak is", "target": "Veyland"},
            ],
            "neighborhood": [
                {"prompt": "Harrow Peak is located in the region of", "target": "Norwick"},
                {"prompt": "probe without a target"},
            ],
        }
        path = tmp_path / "r.jsonl"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        case = load_cases(path, format="ripe")[0]
        assert case.relation == "{s} is located in the region of"
        assert len(case.gen_queries) == 2
        assert case.gen_queries[1].query == "The region containing Kestrel Peak is"
        assert len(case.loc_queries) == 1  # the target-less probe is dropped
        assert case.old_object == "Norwick"
