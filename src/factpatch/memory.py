"""Append-only memory of edited facts, and the one judge of fact validity.

Each edit is a subject / relation / object triple plus a rendered natural
language ``surface_text`` that must hold an ASCII letter or digit, so that
retrieval can embed it. The store assigns dense seqs and unique fact ids, so
the index receives facts in increasing seq. It hands out immutable snapshots
so the retrieval and evaluation layers can work against a fixed view while
edits keep arriving.

File format: one JSON object per line (JSONL), UTF-8, fields
``fact_id, seq, subject, relation, old_object, new_object, surface_text``.
Appends write single fsynced lines; a torn final line, a repeated fact id or
seqs that are not dense make ``load_facts`` raise.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
from dataclasses import dataclass
from typing import Iterator

from .errors import ParseError, StorageError, ValidationError
from .files import read_records

SUBJECT_PLACEHOLDER = "{s}"

_FIELDS = ("fact_id", "seq", "subject", "relation", "old_object", "new_object", "surface_text")

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> list[str]:
    """Lowercase and split on non-alphanumerics, dropping empty pieces."""
    return _TOKEN_RE.findall(text.lower())


def render_prompt(subject: str, relation: str) -> str:
    """Render the subject into a relation template, without any object.

    Relations containing ``{s}`` are treated as templates; anything else is
    used as a prefix, producing ``"<relation> <subject> is"``.
    """
    if SUBJECT_PLACEHOLDER in relation:
        return relation.replace(SUBJECT_PLACEHOLDER, subject)
    return f"{relation} {subject} is"


def render_surface(subject: str, relation: str, new_object: str) -> str:
    """Render the full statement of an edit, ending with the new object."""
    return f"{render_prompt(subject, relation)} {new_object}"


@dataclass(frozen=True)
class EditFact:
    """One edited fact. ``old_object`` is None when the prior answer is unknown."""

    fact_id: str
    seq: int
    subject: str
    relation: str
    old_object: str | None
    new_object: str
    surface_text: str

    def __post_init__(self) -> None:
        for name in ("fact_id", "subject", "relation", "new_object", "surface_text"):
            value = getattr(self, name)
            if not isinstance(value, str) or not value.strip():
                raise ValidationError(f"EditFact.{name} must be a non-empty string")
        if not _TOKEN_RE.search(self.surface_text.lower()):  # tokenize() would find nothing
            raise ValidationError("EditFact.surface_text has no alphanumeric content to embed")
        old = self.old_object
        if old is not None and not (isinstance(old, str) and old.strip()):
            raise ValidationError("EditFact.old_object must be None or a non-empty string")
        if not isinstance(self.seq, int) or self.seq < 0:
            raise ValidationError("EditFact.seq must be a non-negative integer")

    @property
    def prompt(self) -> str:
        """The fact's statement truncated before the object."""
        return render_prompt(self.subject, self.relation)

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in _FIELDS}


@dataclass(frozen=True)
class FactSet:
    """An immutable snapshot of the store, in seq order."""

    facts: tuple[EditFact, ...]

    def __len__(self) -> int:
        return len(self.facts)

    def __iter__(self) -> Iterator[EditFact]:
        return iter(self.facts)


class FactStore:
    """Appends are serialized through one lock; snapshots are cheap copies.

    When ``path`` is given, every append is written and flushed to that file
    before returning, and any existing content is loaded on construction.
    """

    def __init__(self, path: str | os.PathLike[str] | None = None):
        self._lock = threading.Lock()
        self._facts: list[EditFact] = []
        self._path = os.fspath(path) if path is not None else None
        if self._path is not None and os.path.exists(self._path):
            for fact in load_facts(self._path):
                self._facts.append(fact)

    def __len__(self) -> int:
        with self._lock:
            return len(self._facts)

    def append(
        self,
        subject: str,
        relation: str,
        new_object: str,
        old_object: str | None = None,
        surface_text: str | None = None,
    ) -> EditFact:
        """Append one edit, assign it the next seq, and persist it if file-backed.

        Identical payloads appended twice get distinct fact ids and consecutive
        seq values; nothing is ever overwritten.
        """
        with self._lock:
            seq = len(self._facts)
            if surface_text is None:
                surface_text = render_surface(subject, relation, new_object)
            digest = hashlib.blake2b(
                "\x1f".join([subject, relation, new_object]).encode("utf-8"),
                digest_size=4,
            ).hexdigest()
            fact = EditFact(
                fact_id=f"f{seq:06d}-{digest}",
                seq=seq,
                subject=subject,
                relation=relation,
                old_object=old_object,
                new_object=new_object,
                surface_text=surface_text,
            )
            if self._path is not None:
                self._persist_line(fact)
            self._facts.append(fact)
            return fact

    def _persist_line(self, fact: EditFact) -> None:
        line = json.dumps(fact.to_dict(), ensure_ascii=False)
        try:
            with open(self._path, "a", encoding="utf-8") as handle:
                handle.write(line + "\n")
                handle.flush()
                os.fsync(handle.fileno())
        except OSError as exc:
            raise StorageError(f"could not persist fact to {self._path}: {exc}") from exc

    def snapshot(self) -> FactSet:
        with self._lock:
            facts = tuple(self._facts)
        return FactSet(facts=facts)


def _fact_from_record(record: dict, _line: int) -> EditFact:
    return EditFact(
        fact_id=record["fact_id"],
        seq=record["seq"],
        subject=record["subject"],
        relation=record["relation"],
        old_object=record.get("old_object"),
        new_object=record["new_object"],
        surface_text=record["surface_text"],
    )


def load_facts(path: str | os.PathLike[str]) -> FactSet:
    """Load a JSONL fact file. A malformed line raises ParseError naming it."""
    path = os.fspath(path)
    facts = read_records(path, _fact_from_record)
    seqs = [f.seq for f in facts]
    if sorted(seqs) != list(range(len(facts))):
        raise ParseError("seq values are not a dense 0..N-1 range", path=path)
    if len({f.fact_id for f in facts}) != len(facts):
        raise ParseError("a fact_id appears more than once", path=path)
    facts.sort(key=lambda f: f.seq)
    return FactSet(facts=tuple(facts))


def payload_from_dict(record: dict) -> dict:
    """Validate a raw edit payload (no fact_id/seq yet) as the fact it will
    become; a missing surface text is rendered here, as ``append`` would."""
    if "subject" not in record or "new_object" not in record or "relation" not in record:
        raise ValidationError("edit payload needs subject, relation and new_object")
    payload = {
        "subject": record["subject"],
        "relation": record["relation"],
        "new_object": record["new_object"],
        "old_object": record.get("old_object"),
        "surface_text": record.get("surface_text"),
    }
    if payload["surface_text"] is None:
        # The fields' types are checked before they are rendered.
        EditFact(fact_id="payload", seq=0, **{**payload, "surface_text": "rendered"})
        payload["surface_text"] = render_surface(
            payload["subject"], payload["relation"], payload["new_object"]
        )
    EditFact(fact_id="payload", seq=0, **payload)
    return payload
