"""Sequential editing evaluation: apply edits one at a time, then measure.

Three query classes per edited fact:

    rel   the edit restated as a query; the answer must be the new object.
    gen   paraphrases of the edit; the answer must still be the new object.
    loc   unrelated queries; the answer must stay byte-identical to the
          unedited model's answer recorded before any edit was applied.

Reliability, generality and locality are the per-class pass rates over every
query in the evaluated prefix, and the headline average is their arithmetic
mean. Classes with no queries are reported as absent, not as zero.
"""

from __future__ import annotations

import logging
import os
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .errors import FactPatchError, PipelineError, ValidationError
from .files import read_records, write_csv, write_json, write_jsonl
from .lm import greedy_answer
from .memory import EditFact, render_surface

logger = logging.getLogger(__name__)

REL, GEN, LOC = "rel", "gen", "loc"

_WS_RE = re.compile(r"\s+")
_TERMINAL_PUNCT = ".,!?;:"


def normalize_answer(text: str) -> str:
    """Lowercase, trim, drop terminal punctuation, collapse whitespace."""
    text = text.strip().lower()
    while text and text[-1] in _TERMINAL_PUNCT:
        text = text[:-1].rstrip()
    return _WS_RE.sub(" ", text)


def match_answer(got: str, expected: str) -> bool:
    """Normalized exact match, or a prefix match ending at a word boundary.

    The boundary guard means "German" does not accept "Germany" while
    "University of Michigan" accepts "University of Michigan is where ...".
    """
    got_n = normalize_answer(got)
    expected_n = normalize_answer(expected)
    if not expected_n:
        return False
    if got_n == expected_n:
        return True
    return got_n.startswith(expected_n) and not got_n[len(expected_n)].isalnum()


@dataclass(frozen=True)
class QueryExpectation:
    query: str
    expected: str

    def __post_init__(self) -> None:
        if not self.query.strip():
            raise ValidationError("query must be non-empty")
        if not self.expected.strip():
            raise ValidationError("expected answer must be non-empty")


@dataclass(frozen=True)
class EvalCase:
    """One edit plus its probe queries."""

    case_id: str
    subject: str
    relation: str
    new_object: str
    old_object: str | None = None
    surface_text: str | None = None
    rel_queries: tuple[QueryExpectation, ...] = ()
    gen_queries: tuple[QueryExpectation, ...] = ()
    loc_queries: tuple[QueryExpectation, ...] = ()

    def __post_init__(self) -> None:
        for name in ("case_id", "subject", "relation", "new_object"):
            value = getattr(self, name)
            if not isinstance(value, str) or not value.strip():
                raise ValidationError(f"EvalCase.{name} must be a non-empty string")
        for name in ("old_object", "surface_text"):
            if not isinstance(getattr(self, name), (str, type(None))):
                raise ValidationError(f"EvalCase.{name} must be a string or None")
        if not self.rel_queries:
            raise ValidationError(f"case {self.case_id}: rel_queries must be non-empty")

    @property
    def surface(self) -> str:
        if self.surface_text is not None:
            return self.surface_text
        return render_surface(self.subject, self.relation, self.new_object)

    def as_fact(self, seq: int) -> EditFact:
        """A detached fact carrying this case's edit, for feature extraction."""
        return EditFact(
            fact_id=f"case-{self.case_id}",
            seq=seq,
            subject=self.subject,
            relation=self.relation,
            old_object=self.old_object,
            new_object=self.new_object,
            surface_text=self.surface,
        )


@dataclass(frozen=True)
class QueryRecord:
    case_id: str
    query_type: str
    query: str
    expected: str
    got: str
    passed: bool
    fallback_used: bool


@dataclass(frozen=True)
class CheckpointMetrics:
    step: int
    reliability: float | None
    generality: float | None
    locality: float | None
    average: float | None


@dataclass
class EvalReport:
    cases: int
    reliability: float | None
    generality: float | None
    locality: float | None
    average: float | None
    curve: list[CheckpointMetrics] = field(default_factory=list)
    records: list[QueryRecord] = field(default_factory=list)

    def summary_dict(self) -> dict:
        return {
            "cases": self.cases,
            "reliability": self.reliability,
            "generality": self.generality,
            "locality": self.locality,
            "average": self.average,
            "curve": [
                {
                    "step": c.step,
                    "reliability": c.reliability,
                    "generality": c.generality,
                    "locality": c.locality,
                    "average": c.average,
                }
                for c in self.curve
            ],
        }

    def save_summary(self, path: str | os.PathLike[str]) -> None:
        write_json(path, self.summary_dict(), sort_keys=True)

    def save_records_csv(self, path: str | os.PathLike[str]) -> None:
        header = ["case_id", "query_type", "query", "expected", "got", "pass", "fallback_used"]
        rows = (
            [r.case_id, r.query_type, r.query, r.expected, r.got,
             str(r.passed).lower(), str(r.fallback_used).lower()]
            for r in self.records
        )
        write_csv(path, header, rows)


def _mean(bits: list[bool]) -> float | None:
    if not bits:
        return None
    return sum(bits) / len(bits)


def _average(parts: Iterable[float | None]) -> float | None:
    present = [p for p in parts if p is not None]
    if not present:
        return None
    return sum(present) / len(present)


def record_baselines(lm, cases: Sequence[EvalCase], max_tokens: int = 16) -> dict[str, str]:
    """Unedited greedy answers for every locality query, keyed by query text.

    Run this before applying any edit; locality is judged against these
    answers byte for byte.
    """
    baselines: dict[str, str] = {}
    for case in cases:
        for probe in case.loc_queries:
            if probe.query not in baselines:
                try:
                    baselines[probe.query] = greedy_answer(lm, probe.query, max_tokens)
                except FactPatchError as exc:
                    raise PipelineError(
                        "baseline", f"query {probe.query!r}: {exc}"
                    ) from exc
    return baselines


def _evaluate_prefix(
    engine,
    cases: Sequence[EvalCase],
    baselines: dict[str, str],
) -> list[QueryRecord]:
    jobs: list[tuple[str, str, str, str]] = []
    for case in cases:
        for probe in case.rel_queries:
            jobs.append((case.case_id, REL, probe.query, probe.expected))
        for probe in case.gen_queries:
            jobs.append((case.case_id, GEN, probe.query, probe.expected))
        for probe in case.loc_queries:
            jobs.append((case.case_id, LOC, probe.query, baselines[probe.query]))

    def run(job: tuple[str, str, str, str]) -> QueryRecord:
        case_id, kind, query, expected = job
        try:
            got, trace = engine.answer(query)
        except FactPatchError as exc:
            # A failing backend marks this query failed but never stops the run.
            logger.error("query %r failed: %s", query, exc)
            return QueryRecord(
                case_id=case_id, query_type=kind, query=query, expected=expected,
                got=f"<error: {exc}>", passed=False, fallback_used=False,
            )
        if kind == LOC:
            passed = got == expected
        else:
            passed = match_answer(got, expected)
        return QueryRecord(
            case_id=case_id,
            query_type=kind,
            query=query,
            expected=expected,
            got=got,
            passed=passed,
            fallback_used=trace.fallback_used,
        )

    return [run(job) for job in jobs]


def _metrics_from(records: list[QueryRecord], step: int) -> CheckpointMetrics:
    rel = _mean([r.passed for r in records if r.query_type == REL])
    gen = _mean([r.passed for r in records if r.query_type == GEN])
    loc = _mean([r.passed for r in records if r.query_type == LOC])
    return CheckpointMetrics(
        step=step, reliability=rel, generality=gen, locality=loc,
        average=_average((rel, gen, loc)),
    )


def run_sequential(
    engine,
    cases: Sequence[EvalCase],
    *,
    checkpoints: Sequence[int] | None = None,
    baselines: dict[str, str] | None = None,
) -> EvalReport:
    """Apply every case's edit in order, then evaluate all queries.

    ``checkpoints`` asks for intermediate measurements: after the c-th edit,
    the first c cases are evaluated against the memory as it stands, giving
    the stability curve. Baselines are recorded up front when not supplied.
    """
    checkpoints = sorted(set(checkpoints or ()))
    if checkpoints and (checkpoints[0] < 1 or checkpoints[-1] > len(cases)):
        raise ValidationError("checkpoints must lie in 1..len(cases)")
    if baselines is None:
        baselines = record_baselines(engine.lm, cases, engine.plan.max_answer_tokens)
    else:
        missing = {
            p.query for c in cases for p in c.loc_queries if p.query not in baselines
        }
        if missing:
            raise ValidationError(f"baselines missing for {len(missing)} locality queries")

    checkpoint_set = set(checkpoints)
    curve: list[CheckpointMetrics] = []
    final_records: list[QueryRecord] | None = None
    for position, case in enumerate(cases, start=1):
        engine.add_case_fact(case)
        if position in checkpoint_set:
            records = _evaluate_prefix(engine, cases[:position], baselines)
            curve.append(_metrics_from(records, position))
            if position == len(cases):
                final_records = records
    if final_records is None:
        final_records = _evaluate_prefix(engine, cases, baselines)
    final = _metrics_from(final_records, len(cases))
    return EvalReport(
        cases=len(cases),
        reliability=final.reliability,
        generality=final.generality,
        locality=final.locality,
        average=final.average,
        curve=curve,
        records=final_records,
    )


def sweep(
    values: Sequence,
    cases: Sequence[EvalCase],
    make_engine: Callable,
    *,
    baselines: dict[str, str] | None = None,
) -> list[dict]:
    """One fresh sequential run per parameter value; failures do not stop the sweep."""
    rows: list[dict] = []
    for value in values:
        row: dict = {"value": value}
        try:
            engine = make_engine(value)
            report = run_sequential(engine, cases, baselines=baselines)
            row.update(
                reliability=report.reliability,
                generality=report.generality,
                locality=report.locality,
                average=report.average,
            )
        except Exception as exc:
            logger.error("sweep value %r failed: %s", value, exc)
            row["error"] = str(exc)
        rows.append(row)
    return rows


def save_sweep_csv(rows: list[dict], path: str | os.PathLike[str]) -> None:
    columns = ["value", "reliability", "generality", "locality", "average"]
    values = ([row.get(c) for c in columns] + [row.get("error", "")] for row in rows)
    write_csv(path, columns + ["error"], values)


# ── case files ──


def _queries_from(records, what: str) -> tuple[QueryExpectation, ...]:
    out = []
    for item in records or ():
        if isinstance(item, dict):
            out.append(QueryExpectation(query=item["query"], expected=item["expected"]))
        else:
            raise ValidationError(f"{what} entries must be objects with query and expected")
    return tuple(out)


def case_to_dict(case: EvalCase) -> dict:
    return {
        "case_id": case.case_id,
        "subject": case.subject,
        "relation": case.relation,
        "old_object": case.old_object,
        "new_object": case.new_object,
        "surface_text": case.surface_text,
        "rel_queries": [{"query": q.query, "expected": q.expected} for q in case.rel_queries],
        "gen_queries": [{"query": q.query, "expected": q.expected} for q in case.gen_queries],
        "loc_queries": [{"query": q.query, "expected": q.expected} for q in case.loc_queries],
    }


def _case_from_canonical(record: dict, default_id: str) -> EvalCase:
    return EvalCase(
        case_id=str(record.get("case_id", default_id)),
        subject=record["subject"],
        relation=record["relation"],
        new_object=record["new_object"],
        old_object=record.get("old_object"),
        surface_text=record.get("surface_text"),
        rel_queries=_queries_from(record.get("rel_queries"), "rel_queries"),
        gen_queries=_queries_from(record.get("gen_queries"), "gen_queries"),
        loc_queries=_queries_from(record.get("loc_queries"), "loc_queries"),
    )


def _case_from_zsre(record: dict, default_id: str) -> EvalCase:
    """Best effort for zsre-style records: src / rephrase / alt / loc fields."""
    subject = record["subject"]
    src = record["src"]
    relation = src.replace(subject, "{s}") if subject in src else src
    answers = record.get("answers") or []
    new_object = record["alt"]
    gen = ()
    if record.get("rephrase"):
        gen = (QueryExpectation(query=record["rephrase"], expected=new_object),)
    loc = ()
    if record.get("loc"):
        loc_query = record["loc"]
        prefix = "nq question: "
        if loc_query.startswith(prefix):
            loc_query = loc_query[len(prefix):]
        expected = record.get("loc_ans")
        if expected:
            loc = (QueryExpectation(query=loc_query, expected=expected),)
        else:
            logger.info("zsre record %s: dropping locality query without answer", default_id)
    return EvalCase(
        case_id=str(record.get("case_id", default_id)),
        subject=subject,
        relation=relation,
        new_object=new_object,
        old_object=answers[0] if answers else None,
        rel_queries=(QueryExpectation(query=src, expected=new_object),),
        gen_queries=gen,
        loc_queries=loc,
    )


def _query_and_relation(prompt: str, subject: str) -> tuple[str, str]:
    """A ``{}`` prompt rendered as the query text and as a ``{s}`` relation."""
    if "{}" in prompt:
        return prompt.replace("{}", subject), prompt.replace("{}", "{s}")
    return prompt, prompt.replace(subject, "{s}")


def _case_from_counterfact(record: dict, default_id: str) -> EvalCase:
    """Best effort for counterfact-style records: prompt / target_new / target_true."""
    flat = record.get("requested_rewrite", record)
    subject = flat["subject"]
    rendered, relation = _query_and_relation(flat["prompt"], subject)
    new_object = _cf_target(flat, "target_new")
    old_object = _cf_target(flat, "target_true") or _cf_target(flat, "ground_truth")
    gen = tuple(
        QueryExpectation(query=q, expected=new_object)
        for q in _as_list(record.get("rephrase_prompt") or record.get("paraphrase_prompts"))
    )
    loc_expected = record.get("locality_ground_truth")
    loc = ()
    if record.get("locality_prompt") and loc_expected:
        loc = (QueryExpectation(query=record["locality_prompt"], expected=loc_expected),)
    elif record.get("neighborhood_prompts"):
        logger.info(
            "counterfact record %s: dropping neighborhood prompts without per-prompt answers",
            default_id,
        )
    return EvalCase(
        case_id=str(record.get("case_id", default_id)),
        subject=subject,
        relation=relation,
        new_object=new_object,
        old_object=old_object,
        rel_queries=(QueryExpectation(query=rendered, expected=new_object),),
        gen_queries=gen,
        loc_queries=loc,
    )


def _case_from_ripe(record: dict, default_id: str) -> EvalCase:
    """Best effort for ripple-style records; unmapped probe classes are dropped."""
    subject = record["subject"]
    rendered, relation = _query_and_relation(record["prompt"], subject)
    new_object = record["target_new"]
    gen = []
    for item in _as_list(record.get("paraphrase")):
        if isinstance(item, str):
            gen.append(QueryExpectation(query=item, expected=new_object))
        elif isinstance(item, dict) and item.get("prompt"):
            gen.append(
                QueryExpectation(
                    query=item["prompt"], expected=item.get("target", new_object)
                )
            )
    loc = []
    for item in _as_list(record.get("neighborhood")):
        if isinstance(item, dict) and item.get("prompt") and item.get("target"):
            loc.append(QueryExpectation(query=item["prompt"], expected=item["target"]))
        else:
            logger.info("ripe record %s: dropping neighborhood probe without target", default_id)
    dropped = set(record) - {
        "case_id", "subject", "prompt", "target_new", "target_true", "paraphrase", "neighborhood",
    }
    if dropped:
        logger.info("ripe record %s: ignoring fields %s", default_id, sorted(dropped))
    return EvalCase(
        case_id=str(record.get("case_id", default_id)),
        subject=subject,
        relation=relation,
        new_object=new_object,
        old_object=record.get("target_true"),
        rel_queries=(QueryExpectation(query=rendered, expected=new_object),),
        gen_queries=tuple(gen),
        loc_queries=tuple(loc),
    )


def _cf_target(record: dict, key: str) -> str | None:
    value = record.get(key)
    if isinstance(value, dict):
        return value.get("str")
    return value


def _as_list(value) -> list:
    if value is None:
        return []
    if isinstance(value, (list, tuple)):
        return list(value)
    return [value]


_ADAPTERS = {
    "canonical": _case_from_canonical,
    "zsre": _case_from_zsre,
    "counterfact": _case_from_counterfact,
    "ripe": _case_from_ripe,
}


def load_cases(path: str | os.PathLike[str], format: str = "canonical") -> list[EvalCase]:
    """Load evaluation cases from JSONL (or a JSON array) in a known format."""
    if format not in _ADAPTERS:
        raise ValidationError(f"unknown case format {format!r}; know {sorted(_ADAPTERS)}")
    adapter = _ADAPTERS[format]
    return read_records(path, lambda record, line: adapter(record, default_id=f"case-{line}"))


def save_cases(cases: Sequence[EvalCase], path: str | os.PathLike[str]) -> int:
    write_jsonl(path, (case_to_dict(case) for case in cases))
    return len(cases)
