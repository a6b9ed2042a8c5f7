"""Artifacts written whole or not at all.

Each file goes first to a temporary file beside it, ``.<name>.tmp``, which
``os.replace`` then moves over it, so a kill mid-write leaves the previous
version for a resume, never half a file.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path


def _temporary(path: Path) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    return path.with_name(f".{path.name}.tmp")


def write_text(path: Path, text: str) -> None:
    tmp = _temporary(path)
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def write_json(path: Path, payload) -> None:
    write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


@contextmanager
def replacing(path: str | Path):
    """A text file to write in place of ``path``, moved over it when the block ends."""
    path = Path(path)
    tmp = _temporary(path)
    with tmp.open("w", encoding="utf-8") as fh:
        yield fh
    os.replace(tmp, path)


def remove_temporaries(directory: Path) -> None:
    """Remove the temporary files that a kill left unrenamed in ``directory``."""
    for stale in directory.glob(".*.tmp"):
        stale.unlink()


def read_saved(path: Path) -> str:
    """The text saved at ``path``, byte for byte: ``newline=""`` keeps any
    "\\r" that an unfenced reply carried."""
    with path.open(encoding="utf-8", newline="") as saved:
        return saved.read()
