"""The package's JSON, JSONL and CSV files: the one module that opens them.

The only other file access is the memory store's fsynced append,
``FactStore._persist_line``. Readers decode every record before returning,
so a caller never acts on the records that come before a bad one. An
``OSError`` becomes ``StorageError("could not read|write {path}: ...")``.
Text that is not UTF-8 or not JSON, a record that is not a JSON object, or a
decoder raising ValidationError, KeyError, TypeError, ValueError or
AttributeError becomes a ``ParseError`` naming the path and the 1-based line
or array position. Any other ``FactPatchError`` a decoder raises passes through.
"""

from __future__ import annotations

import csv
import io
import json
import os
from typing import Callable, Iterable, Sequence, TypeVar

from .errors import ParseError, StorageError, ValidationError

T = TypeVar("T")

_DECODE_ERRORS = (ValidationError, KeyError, TypeError, ValueError, AttributeError)


def _detail(exc: Exception) -> str:
    return f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)


def _parse(text: str, path: str, line: int | None = None):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        where = exc.lineno if line is None else line
        raise ParseError(f"not valid JSON: {exc.msg}", path=path, line=where) from exc


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise StorageError(f"could not read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc.reason}", path=path) from exc


def read_object(path: str | os.PathLike[str], decode: Callable[[dict], T]) -> T:
    """``decode`` applied to the one JSON object the file holds."""
    path = os.fspath(path)
    body = _parse(_read_text(path), path)
    if not isinstance(body, dict):
        raise ParseError("not a JSON object", path=path)
    try:
        return decode(body)
    except _DECODE_ERRORS as exc:
        raise ParseError(_detail(exc), path=path) from exc


def read_records(path: str | os.PathLike[str], decode: Callable[[dict, int], T]) -> list[T]:
    """``decode(record, position)`` for each record of a JSONL file or a JSON array.

    JSONL records are numbered by line, skipping blank lines; a file whose
    text starts with ``[`` is one array, numbered by position from 1.
    """
    path = os.fspath(path)
    text = _read_text(path)
    if text.lstrip().startswith("["):
        numbered = enumerate(_parse(text, path), start=1)
    else:
        lines = enumerate(text.split("\n"), start=1)
        numbered = ((n, _parse(line, path, n)) for n, line in lines if line.strip())
    decoded: list[T] = []
    for position, record in numbered:
        if not isinstance(record, dict):
            raise ParseError("not a JSON object", line=position, path=path)
        try:
            decoded.append(decode(record, position))
        except _DECODE_ERRORS as exc:
            raise ParseError(_detail(exc), line=position, path=path) from exc
    return decoded


def _write_text(path: str | os.PathLike[str], text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise StorageError(f"could not write {os.fspath(path)}: {exc}") from exc


def write_json(path: str | os.PathLike[str], body, *, sort_keys: bool = False) -> None:
    _write_text(path, json.dumps(body, indent=2, sort_keys=sort_keys) + "\n")


def write_jsonl(path: str | os.PathLike[str], records: Iterable[dict]) -> None:
    _write_text(path, "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records))


def write_csv(path: str | os.PathLike[str], header: Sequence, rows: Iterable[Sequence]) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    _write_text(path, buffer.getvalue())
