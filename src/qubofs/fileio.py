"""Atomic file writes: a reader sees the old file or the whole new one, never
a truncated one, however the writer dies. JSON artifacts are written in one
format: two-space indent, sorted keys, a final newline."""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_open(path, mode="w"):
    """Handle opened with ``mode`` ("w" for text, "wb" for bytes) on a sibling
    temp file that replaces ``path`` on a clean exit. Missing parent
    directories are created."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
        yield fh
    os.replace(tmp, path)


def atomic_write_text(path, text: str) -> None:
    with atomic_open(path) as fh:
        fh.write(text)


def write_json(path, obj) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
