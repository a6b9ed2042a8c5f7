"""Artifacts written whole or not at all, and read back.

Each file goes first to a temporary file beside it, ``.<name>.tmp``, which
``os.replace`` then moves over it, so a kill mid-write leaves the previous
version for a resume, never half a file.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path

from transmigrate.errors import IntegrityError, OrderingError


def temporary(path: Path) -> Path:
    """The temporary file that is moved over ``path``; its directory is made."""
    path.parent.mkdir(parents=True, exist_ok=True)
    return path.with_name(f".{path.name}.tmp")


def write_text(path: Path, text: str) -> None:
    tmp = temporary(path)
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def write_json(path: Path, payload) -> None:
    write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


@contextmanager
def replacing(path: str | Path):
    """A text file to write in place of ``path``, moved over it when the block ends."""
    path = Path(path)
    tmp = temporary(path)
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


def read_artifact(path: Path, stage: str, decode):
    """``decode`` applied to the text of an artifact that ``stage`` writes.
    A missing artifact is an OrderingError; one that does not decode (to
    the shape ``decode`` reads) is an IntegrityError naming the file."""
    try:
        return decode(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise missing(path, stage) from None
    except (ValueError, LookupError, TypeError, AttributeError) as exc:
        raise IntegrityError(f"corrupt artifact {path}: {type(exc).__name__}: {exc}") from exc


def missing(path: str | Path, stage: str) -> OrderingError:
    return OrderingError(f"missing artifact {Path(path).name!r}: run the {stage!r} stage first")
