"""The file edge: every loader maps a bad record to ParseError, the CLI exits 2
on each with one stderr line, and only ``files.py`` opens files."""

import ast
import json
import pathlib

import pytest

import factpatch
from factpatch.cli import main
from factpatch.errors import ParseError
from factpatch.evalharness import load_cases
from factpatch.lm import load_toy_spec, save_toy_spec
from factpatch.memory import FactStore, load_facts
from factpatch.selector import load_params

from conftest import capitals_spec

CAPITAL_REL = "The capital of {s} is"
FACT = {
    "fact_id": "f000000-0000", "seq": 0, "subject": "France", "relation": CAPITAL_REL,
    "old_object": "Paris", "new_object": "Rome", "surface_text": "The capital of France is Rome",
}
CASE = {
    "subject": "France", "relation": CAPITAL_REL, "new_object": "Rome",
    "rel_queries": [{"query": "The capital of France is", "expected": "Rome"}],
}
PAYLOAD = {"subject": "Italy", "relation": CAPITAL_REL, "new_object": "Lyon"}
SPEC = {"vocabulary": ["a", "b"], "rules": [
    {"subject": "S", "keywords": ["k"], "answers": {"a": "x"}},
]}


def lines(*records) -> str:
    return "".join((r if isinstance(r, str) else json.dumps(r)) + "\n" for r in records)


# (loader, file content, the ParseError's expected line)
BAD_FILES = {
    "fact-not-an-object": (load_facts, lines(FACT, "5"), 2),
    "fact-old-object-not-a-string": (load_facts, lines({**FACT, "old_object": 5}), 1),
    "fact-subject-not-a-string": (load_facts, lines(FACT, {**FACT, "seq": 1, "subject": None}), 2),
    "fact-missing-field": (load_facts, lines({k: v for k, v in FACT.items() if k != "seq"}), 1),
    "fact-not-utf8": (load_facts, b"\xff\xfe\n", None),
    "params-array": (load_params, "[]", None),
    "params-bad-bias": (load_params, json.dumps(
        {"feature_version": "pair-features-v1", "weights": [0.0] * 5, "bias": "x"}), None),
    "case-line-not-an-object": (load_cases, lines(CASE, "", "5"), 3),
    "case-array-entry-not-an-object": (load_cases, "[5]", 1),
    "case-array-old-object-not-a-string": (
        load_cases, json.dumps([CASE, {**CASE, "old_object": 5}]), 2),
    "case-broken-json": (load_cases, lines(CASE, "{broken"), 2),
    "spec-non-numeric-probability": (load_toy_spec, json.dumps(SPEC), None),
    "spec-broken-json": (load_toy_spec, '{\n  "vocabulary": [\n}', 3),
}


@pytest.mark.parametrize("loader, content, line", BAD_FILES.values(), ids=BAD_FILES.keys())
def test_bad_record_is_a_parse_error_naming_path_and_line(tmp_path, loader, content, line):
    path = tmp_path / "input"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content, encoding="utf-8")
    with pytest.raises(ParseError) as err:
        loader(path)
    assert err.value.line == line
    assert err.value.path == str(path)
    assert str(err.value).startswith(str(path) if line is None else f"{path}:{line}: ")


def test_line_separators_inside_a_record_do_not_split_it(tmp_path):
    path = tmp_path / "cases.jsonl"
    case = {**CASE, "surface_text": "France\u2028Rome"}
    path.write_text(json.dumps(case, ensure_ascii=False) + "\n", encoding="utf-8")
    assert load_cases(path)[0].surface_text == "France\u2028Rome"


@pytest.fixture
def spec_path(tmp_path):
    path = tmp_path / "model.json"
    save_toy_spec(capitals_spec(), path)
    return str(path)


def _write(tmp_path, name: str, content: str) -> str:
    path = tmp_path / name
    path.write_text(content, encoding="utf-8")
    return str(path)


def _ask(path_flag: str):
    return lambda bad, spec: ["ask", "capital of France?", path_flag, bad, "--lm-spec", spec]


# (file name, content, argv built from the bad file and a good toy spec)
BAD_RUNS = {
    "memory-line-not-an-object": ("facts.jsonl", lines(FACT, "5"), _ask("--memory")),
    "memory-old-object-not-a-string": (
        "facts.jsonl", lines({**FACT, "old_object": 5}), _ask("--memory")),
    "selector-params-array": ("params.json", "[]", _ask("--selector-params")),
    "case-line-not-an-object": (
        "cases.jsonl", "5\n", lambda bad, spec: ["eval", "--cases", bad, "--lm-spec", spec]),
    "case-array-entry-not-an-object": (
        "cases.json", "[5]", lambda bad, spec: ["eval", "--cases", bad, "--lm-spec", spec]),
    "toy-spec-non-numeric-probability": (
        "model.json", json.dumps(SPEC), lambda bad, spec: ["ask", "q", "--lm-spec", bad]),
    "import-old-object-not-a-string": (
        "import.jsonl", lines({**PAYLOAD, "old_object": 5}),
        lambda bad, spec: ["edit", "--memory", f"{bad}.facts", "--import", bad]),
}


@pytest.mark.parametrize("name, content, argv", BAD_RUNS.values(), ids=BAD_RUNS.keys())
def test_cli_exits_2_with_one_line_naming_the_file(
    capsys, tmp_path, spec_path, name, content, argv
):
    bad = _write(tmp_path, name, content)
    code = main(argv(bad, spec_path))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {bad}")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("bad_line", [
    "{broken",
    "5",
    json.dumps({**PAYLOAD, "old_object": 5}),
    json.dumps({**PAYLOAD, "subject": ""}),
    json.dumps({"subject": "Italy"}),
], ids=["broken-json", "not-an-object", "old-object-not-a-string", "empty-subject",
        "missing-fields"])
def test_bad_import_line_leaves_the_memory_file_unchanged(capsys, tmp_path, bad_line):
    memory = tmp_path / "facts.jsonl"
    FactStore(memory).append("France", CAPITAL_REL, "Rome", old_object="Paris")
    before = memory.read_bytes()
    imports = _write(tmp_path, "import.jsonl", lines(PAYLOAD, bad_line, PAYLOAD))
    code = main(["edit", "--memory", str(memory), "--import", imports])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {imports}:2: ")
    assert memory.read_bytes() == before


def test_only_the_files_module_opens_files():
    """``open(`` may appear only in files.py and in FactStore._persist_line."""
    package = pathlib.Path(factpatch.__file__).parent
    memory = ast.parse((package / "memory.py").read_text(encoding="utf-8"))
    store = next(n for n in memory.body if isinstance(n, ast.ClassDef) and n.name == "FactStore")
    persist = next(n for n in store.body if getattr(n, "name", None) == "_persist_line")
    allowed = {("memory.py", n) for n in range(persist.lineno, persist.end_lineno + 1)}
    offenders = [
        f"{path.name}:{number}"
        for path in sorted(package.glob("*.py"))
        if path.name != "files.py"
        for number, text in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if "open(" in text and (path.name, number) not in allowed
    ]
    assert offenders == []
