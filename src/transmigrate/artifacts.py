"""Artifacts written whole or not at all, logs appended a line at a time,
and both read back.

Each file goes first to a temporary file beside it, ``.<name>.tmp``, which
``os.replace`` then moves over it, so a kill mid-write leaves the previous
version for a resume, never half a file. An append-only log is the one
exception: each record is one JSON line, written and flushed whole, so a
kill mid-append leaves at most a last line with no newline. A reader skips
that torn line and the next writer cuts it off before it appends.
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


def compact_json(payload) -> str:
    """``payload`` as JSON on one line: keys sorted, no whitespace, every
    non-ASCII character escaped. Without ``indent`` the C encoder runs."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def write_json(path: Path, payload) -> None:
    write_text(path, compact_json(payload) + "\n")


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


@contextmanager
def appending(path: Path):
    """A binary handle that appends to the log at ``path``, made with its
    directory if missing, once a torn last line (no newline) is cut off."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a+b") as log:
        log.seek(0)
        log.truncate(sum(len(line) for line in log if line.endswith(b"\n")))
        yield log


def append_json_line(log, record) -> None:
    """Append ``record`` to ``log`` as one compact JSON line and flush it."""
    log.write(compact_json(record).encode("ascii") + b"\n")
    log.flush()


def json_lines(lines):
    """(line number, object) of each non-blank line that ``lines`` yields
    (str or bytes), decoded one at a time. A line that does not decode to
    a JSON object is a ValueError naming its line (and column)."""
    for number, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {number} column {exc.colno}: {exc.msg}") from None
        except ValueError as exc:  # not UTF-8
            raise ValueError(f"line {number}: {exc}") from None
        if not isinstance(record, dict):
            raise ValueError(f"line {number}: {type(record).__name__} is not a JSON object")
        yield number, record


def read_log(path: Path):
    """(line number, object) of each complete line of the log at ``path``,
    read one line at a time; none when there is no log. A last line with no
    newline, torn by a kill mid-append, is not read. A line that does not
    decode to a JSON object is an IntegrityError naming the file and line."""
    try:
        log = path.open("rb")
    except FileNotFoundError:
        return
    with log:
        try:
            yield from json_lines(line for line in log if line.endswith(b"\n"))
        except ValueError as exc:
            raise IntegrityError(f"corrupt artifact {path}: {exc}") from None


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
