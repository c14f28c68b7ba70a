"""Atomic file writes: a reader sees the old file or the whole new one, never
a truncated one, however the writer dies. JSON artifacts are written in one
format: two-space indent, sorted keys, a final newline. Tables with a header
(the collaborative search log and the reports) are written in one format too:
a header line, one line per row, every number with 17 significant digits."""

from __future__ import annotations

import json
import numbers
import os
from contextlib import contextmanager
from pathlib import Path


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


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
