"""The one JSON codec of the pipeline's own files: artifacts written whole
or not at all, logs appended a line at a time, and both read back.

Encoding. Every JSON artifact but ``report.json`` holds the bytes
``compact_json`` gives: keys sorted, no whitespace, every non-ASCII
character escaped. A whole-document artifact is one such line; a
JSON-lines artifact (the plan, the index files, the refinement log)
holds one per record.

Writing. Each file goes first to a temporary file beside it,
``.<name>.tmp``, which ``os.replace`` then moves over it, so a kill
mid-write leaves the previous version for a resume, never half a file. An
append-only log is the one exception: each record is one JSON line,
written and flushed whole, so a kill mid-append leaves at most a last
line with no newline. A reader skips that torn line and the next writer
cuts it off before it appends.

Reading. ``read_lines`` yields the object of each non-blank line with its
line number and byte offset, decoded one line at a time; ``read_log`` is
the same reader with a torn last line left unread. A line that does not
decode to a JSON object, and any record a reader finds out of place, is
``corrupt``: an IntegrityError (exit 1) reading ``corrupt artifact
<path>: line <n>[ column <c>]: <problem>``. A whole-document artifact is
read by ``read_artifact``.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path

from transmigrate.errors import IntegrityError, OrderingError

# One encoder for every call: ``json.dumps`` with arguments builds a new one
# each time. Without ``indent`` its C encoder runs.
_COMPACT = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def compact_json(payload) -> str:
    """``payload`` as JSON on one line: keys sorted, no whitespace, every
    non-ASCII character escaped."""
    return _COMPACT.encode(payload)


def temporary(path: Path) -> Path:
    """The temporary file that is moved over ``path``; its directory is made."""
    path.parent.mkdir(parents=True, exist_ok=True)
    return path.with_name(f".{path.name}.tmp")


@contextmanager
def replacing(path: str | Path):
    """A text file to write in place of ``path``, moved over it when the block ends."""
    path = Path(path)
    tmp = temporary(path)
    with tmp.open("w", encoding="utf-8") as fh:
        yield fh
    os.replace(tmp, path)


def write_text(path: Path, text: str) -> None:
    with replacing(path) as fh:
        fh.write(text)


def write_json(path: Path, payload) -> None:
    write_text(path, compact_json(payload) + "\n")


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


def corrupt(path: str | Path, problem: str) -> IntegrityError:
    """The error for an artifact at ``path`` that ``problem`` shows corrupt."""
    return IntegrityError(f"corrupt artifact {path}: {problem}")


def read_lines(path: Path):
    """(line number, byte offset, object) of each non-blank line of the
    JSON-lines artifact at ``path``, read one line at a time. A missing
    file is a FileNotFoundError, raised when the first line is asked for."""
    with path.open("rb") as lines:
        yield from _records(path, lines)


def read_log(path: Path):
    """What ``read_lines`` yields for each complete line of the log at
    ``path``; none when there is no log. A last line with no newline, torn
    by a kill mid-append, is not read."""
    try:
        log = path.open("rb")
    except FileNotFoundError:
        return
    with log:
        yield from _records(path, (line for line in log if line.endswith(b"\n")))


def _records(path: Path, lines):
    offset = 0
    for number, line in enumerate(lines, 1):
        # Without its newline, a line cut short is an unterminated value.
        if text := line.rstrip():
            try:
                record = json.loads(text.decode())
            except json.JSONDecodeError as exc:
                raise corrupt(path, f"line {number} column {exc.colno}: {exc.msg}") from None
            except ValueError as exc:  # not UTF-8
                raise corrupt(path, f"line {number}: {exc}") from None
            if not isinstance(record, dict):
                raise corrupt(path, f"line {number}: {type(record).__name__} is not a JSON object")
            yield number, offset, record
        offset += len(line)


def read_saved(path: Path) -> str:
    """The text saved at ``path``, byte for byte: ``newline=""`` keeps any
    "\\r" that an unfenced reply carried."""
    with path.open(encoding="utf-8", newline="") as saved:
        return saved.read()


def read_artifact(path: Path, stage: str, decode):
    """``decode`` applied to the text of a whole-document artifact that
    ``stage`` writes. A missing artifact is an OrderingError; one that does
    not decode (to the shape ``decode`` reads) is corrupt."""
    try:
        return decode(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise missing(path, stage) from None
    except (ValueError, LookupError, TypeError, AttributeError) as exc:
        raise corrupt(path, f"{type(exc).__name__}: {exc}") from exc


def missing(path: str | Path, stage: str) -> OrderingError:
    return OrderingError(f"missing artifact {Path(path).name!r}: run the {stage!r} stage first")
