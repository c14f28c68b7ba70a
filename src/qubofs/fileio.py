"""Atomic file writes: a reader sees the old file or the whole new one, never
a truncated one, however the writer dies. JSON artifacts are written in one
format: two-space indent, sorted keys, a final newline. Tables with a header
(the collaborative search log and the reports) are written in one format too:
a header line, one line per row, every number with 17 significant digits.
A JSON file that cannot be read back as an object with the keys its reader
indexes is a ``ParseError`` naming it."""

from __future__ import annotations

import json
import numbers
import os
import sys
from contextlib import contextmanager
from pathlib import Path

from .errors import ParseError


@contextmanager
def atomic_open(path, mode="w"):
    """Handle opened with ``mode`` ("w" for text, "wb" for bytes) on a sibling
    temp file that replaces ``path`` on a clean exit; a body that raises
    leaves ``path`` as it was and removes the temp file. Missing parent
    directories are created."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


def atomic_write_text(path, text: str) -> None:
    with atomic_open(path) as fh:
        fh.write(text)


def write_json(path, obj) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def write_tsv(path, header, rows) -> None:
    """Tab-separated ``header`` then ``rows``. A number other than a bool is
    written with ``.17g``, which reads back as the same float; anything else
    with ``str``."""

    def cell(value) -> str:
        if isinstance(value, numbers.Number) and not isinstance(value, bool):
            return f"{value:.17g}"
        return str(value)

    lines = ["\t".join(header)] + ["\t".join(map(cell, row)) for row in rows]
    atomic_write_text(path, "\n".join(lines) + "\n")


def is_finite_number(value) -> bool:
    """``value``, as ``json`` reads it, is a number other than a bool within
    float range; a bound rather than ``math.isfinite``, which raises on an int
    beyond float range."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def read_json(path, *keys) -> dict:
    """The JSON object stored at ``path``. A file that cannot be read, is not
    JSON in UTF-8, holds another value than an object or lacks one of
    ``keys`` is a ``ParseError`` naming the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            value = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ParseError(f"{path}: not a readable JSON file ({exc})") from exc
    if not isinstance(value, dict):
        raise ParseError(f"{path}: not a JSON object but a {type(value).__name__}")
    missing = [key for key in keys if key not in value]
    if missing:
        raise ParseError(f"{path}: no {', '.join(map(repr, missing))} key")
    return value
