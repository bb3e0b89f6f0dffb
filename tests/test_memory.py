"""Fact store behavior: append-only seq, surface rendering, persistence."""

import json

import pytest

from factpatch.errors import ParseError, StorageError, ValidationError
from factpatch.memory import (
    EditFact,
    FactStore,
    load_facts,
    payload_from_dict,
    render_prompt,
    render_surface,
)


def make_fact(seq: int, subject: str = "Mercury", relation: str = "The color of {s} is",
              new_object: str = "amber", old_object: str | None = None) -> EditFact:
    return EditFact(
        fact_id=f"f{seq:06d}-0000",
        seq=seq,
        subject=subject,
        relation=relation,
        old_object=old_object,
        new_object=new_object,
        surface_text=render_surface(subject, relation, new_object),
    )


class TestRendering:
    def test_template_relation_substitutes_subject(self):
        assert render_prompt("Mercury", "The color of {s} is") == "The color of Mercury is"

    def test_plain_relation_becomes_prefix_form(self):
        assert render_prompt("Mercury", "favorite color") == "favorite color Mercury is"

    def test_surface_appends_new_object(self):
        got = render_surface("Mercury", "The color of {s} is", "amber")
        assert got == "The color of Mercury is amber"

    def test_fact_prompt_property_matches_renderer(self):
        fact = make_fact(0)
        assert fact.prompt == render_prompt(fact.subject, fact.relation)


class TestAppend:
    def test_first_append_gets_seq_zero(self, empty_store):
        fact = empty_store.append("Mercury", "The color of {s} is", "amber")
        assert fact.seq == 0
        assert len(empty_store) == 1

    def test_identical_payloads_get_distinct_ids_and_consecutive_seqs(self, empty_store):
        a = empty_store.append("Mercury", "The color of {s} is", "amber")
        b = empty_store.append("Mercury", "The color of {s} is", "amber")
        assert (a.seq, b.seq) == (0, 1)
        assert a.fact_id != b.fact_id
        assert len(empty_store) == 2

    def test_default_surface_is_rendered(self, empty_store):
        fact = empty_store.append("Mercury", "The color of {s} is", "amber")
        assert fact.surface_text == "The color of Mercury is amber"

    def test_explicit_surface_is_kept_verbatim(self, empty_store):
        fact = empty_store.append(
            "Mercury", "The color of {s} is", "amber",
            surface_text="Everyone knows Mercury glows amber at dusk.",
        )
        assert fact.surface_text == "Everyone knows Mercury glows amber at dusk."

    def test_old_object_defaults_to_none(self, empty_store):
        fact = empty_store.append("Mercury", "The color of {s} is", "amber")
        assert fact.old_object is None

    def test_fact_ids_are_deterministic_across_stores(self, tmp_path):
        one = FactStore(tmp_path / "a.jsonl")
        two = FactStore(tmp_path / "b.jsonl")
        fa = one.append("Mercury", "The color of {s} is", "amber")
        fb = two.append("Mercury", "The color of {s} is", "amber")
        assert fa.fact_id == fb.fact_id

    def test_empty_new_object_rejected(self, empty_store):
        with pytest.raises(ValidationError):
            empty_store.append("Mercury", "The color of {s} is", "  ")

    def test_empty_subject_rejected(self, empty_store):
        with pytest.raises(ValidationError):
            empty_store.append("", "The color of {s} is", "amber")

    def test_blank_old_object_rejected(self, empty_store):
        with pytest.raises(ValidationError):
            empty_store.append("Mercury", "The color of {s} is", "amber", old_object=" ")

    @pytest.mark.parametrize(
        "field", ["fact_id", "subject", "relation", "old_object", "new_object", "surface_text"]
    )
    def test_non_string_field_rejected(self, field):
        record = {**make_fact(0).to_dict(), field: 5}
        with pytest.raises(ValidationError):
            EditFact(**record)

    @pytest.mark.parametrize("surface", ["???", "日本 ！"])
    def test_surface_without_ascii_letters_or_digits_rejected(self, surface):
        with pytest.raises(ValidationError, match="alphanumeric"):
            EditFact(**{**make_fact(0).to_dict(), "surface_text": surface})


class TestSnapshot:
    def test_snapshot_is_immune_to_later_appends(self, empty_store):
        empty_store.append("Mercury", "The color of {s} is", "amber")
        snap = empty_store.snapshot()
        empty_store.append("Venus", "The color of {s} is", "jade")
        assert len(snap) == 1
        assert [f.subject for f in snap] == ["Mercury"]

    def test_snapshots_grow_as_prefixes(self, empty_store):
        empty_store.append("Mercury", "The color of {s} is", "amber")
        first = empty_store.snapshot()
        empty_store.append("Venus", "The color of {s} is", "jade")
        second = empty_store.snapshot()
        assert second.facts[: len(first)] == first.facts

    def test_empty_snapshot(self, empty_store):
        snap = empty_store.snapshot()
        assert len(snap) == 0
        assert list(snap) == []


class TestPersistence:
    def test_appends_land_on_disk_one_line_each(self, tmp_path):
        path = tmp_path / "facts.jsonl"
        store = FactStore(path)
        store.append("Mercury", "The color of {s} is", "amber")
        store.append("Venus", "The color of {s} is", "jade")
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["subject"] == "Mercury"

    def test_reopened_store_continues_seq(self, tmp_path):
        path = tmp_path / "facts.jsonl"
        FactStore(path).append("Mercury", "The color of {s} is", "amber")
        reopened = FactStore(path)
        fact = reopened.append("Venus", "The color of {s} is", "jade")
        assert fact.seq == 1
        assert len(reopened) == 2

    def test_save_and_load_roundtrip_field_by_field(self, tmp_path):
        path = tmp_path / "out.jsonl"
        store = FactStore(path)
        store.append("Mercury", "The color of {s} is", "amber", old_object="slate")
        store.append("Venus", "The color of {s} is", "jade",
                     surface_text="Venus glows jade at dawn.")
        loaded = load_facts(path)
        assert list(loaded) == list(store.snapshot())
        assert [f.to_dict() for f in loaded] == [f.to_dict() for f in store.snapshot()]

    def test_load_missing_file_is_storage_error(self, tmp_path):
        with pytest.raises(StorageError):
            load_facts(tmp_path / "nope.jsonl")

    def test_corrupt_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        fact = make_fact(0)
        path.write_text(
            json.dumps(fact.to_dict()) + "\n{not json\n", encoding="utf-8"
        )
        with pytest.raises(ParseError) as err:
            load_facts(path)
        assert err.value.line == 2

    def test_missing_required_field_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        record = make_fact(0).to_dict()
        del record["new_object"]
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_facts(path)

    def test_gapped_seq_numbers_rejected(self, tmp_path):
        path = tmp_path / "gap.jsonl"
        lines = [json.dumps(make_fact(s).to_dict()) for s in (0, 2)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_facts(path)

    def test_repeated_fact_id_rejected(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        first = make_fact(0).to_dict()
        lines = [json.dumps(first), json.dumps({**first, "seq": 1, "subject": "Venus"})]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match="fact_id") as err:
            load_facts(path)
        assert err.value.path == str(path)

    def test_unembeddable_surface_names_its_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        lines = [json.dumps(make_fact(0).to_dict()),
                 json.dumps({**make_fact(1).to_dict(), "surface_text": "？！"})]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match="alphanumeric") as err:
            load_facts(path)
        assert err.value.line == 2

    def test_load_sorts_by_seq(self, tmp_path):
        path = tmp_path / "shuffled.jsonl"
        lines = [json.dumps(make_fact(s, subject=f"S{s}").to_dict()) for s in (1, 0)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        loaded = load_facts(path)
        assert [f.seq for f in loaded] == [0, 1]
        assert [f.seq for f in FactStore(path).snapshot()] == [0, 1]

    def test_unwritable_path_raises_storage_error(self, tmp_path):
        store = FactStore(tmp_path / "no" / "such" / "dir" / "facts.jsonl")
        with pytest.raises(StorageError):
            store.append("Mercury", "The color of {s} is", "amber")


class TestPayloads:
    def test_minimal_payload_accepted(self):
        payload = payload_from_dict(
            {"subject": "Mercury", "relation": "The color of {s} is", "new_object": "amber"}
        )
        assert payload["subject"] == "Mercury"
        assert payload.get("old_object") is None

    def test_optional_fields_pass_through(self):
        payload = payload_from_dict(
            {
                "subject": "Mercury",
                "relation": "The color of {s} is",
                "new_object": "amber",
                "old_object": "slate",
                "surface_text": "Mercury shows amber.",
            }
        )
        assert payload["old_object"] == "slate"
        assert payload["surface_text"] == "Mercury shows amber."

    def test_missing_subject_rejected(self):
        with pytest.raises(ValidationError):
            payload_from_dict({"relation": "r", "new_object": "x"})

    def test_non_dict_rejected(self):
        with pytest.raises(ValidationError):
            payload_from_dict(["subject"])

    @pytest.mark.parametrize("override", [
        {"subject": ""}, {"relation": 5}, {"old_object": 5}, {"surface_text": ""},
        {"subject": "日本", "relation": "{s}", "new_object": "！"},  # renders "日本 ！"
    ])
    def test_payload_is_checked_as_the_fact_it_becomes(self, override):
        record = {"subject": "Mercury", "relation": "The color of {s} is", "new_object": "amber"}
        with pytest.raises(ValidationError):
            payload_from_dict({**record, **override})
