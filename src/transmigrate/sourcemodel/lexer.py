"""Byte-level tokenizer shared by every grammar profile.

Offsets are byte positions into the UTF-8 encoding of the source so that
substring extraction by span is exact regardless of multi-byte characters.
Non-ASCII bytes are treated as identifier constituents, which is safe for
both Java and Swift identifiers and keeps the scanner single-pass.

The tokenizer never fails: unterminated strings run to end of line,
unterminated block comments run to end of input, and no token ends past
the end of input (a literal ending in an escape at end of input stops
there).
"""

from __future__ import annotations

from typing import NamedTuple

from transmigrate.sourcemodel.grammar import GrammarProfile

IDENT = "ident"
NUMBER = "number"
STRING = "string"
CHAR = "char"
COMMENT = "comment"
PUNCT = "punct"

_IDENT_START = frozenset(
    list(range(ord("a"), ord("z") + 1))
    + list(range(ord("A"), ord("Z") + 1))
    + [ord("_"), ord("$")]
)
_IDENT_CONT = _IDENT_START | frozenset(range(ord("0"), ord("9") + 1))
_DIGITS = frozenset(range(ord("0"), ord("9") + 1))
_WS = frozenset(b" \t\r\n\f\v")


class Token(NamedTuple):
    """One token: a tuple with named fields and no per-instance dict, since
    a parse makes one per word and punctuation mark of the file."""

    kind: str
    start: int
    end: int
    text: str

    def __repr__(self) -> str:  # compact for failed-assert output
        return f"Token({self.kind}, {self.start}:{self.end}, {self.text!r})"


def _is_ident_start(b: int) -> bool:
    return b in _IDENT_START or b >= 0x80


def _is_ident_cont(b: int) -> bool:
    return b in _IDENT_CONT or b >= 0x80


def tokenize(data: bytes, profile: GrammarProfile) -> list[Token]:
    """Scan ``data`` into tokens. Comments are emitted as tokens so that
    callers needing comment text (documentation ingestion) can reuse the
    same pass; structural parsing filters them out."""
    tokens: list[Token] = []
    n = len(data)
    i = 0
    line_comment = profile.line_comment.encode() if profile.line_comment else None
    block_open = profile.block_comment[0].encode() if profile.block_comment else None
    block_close = profile.block_comment[1].encode() if profile.block_comment else None
    string_delims = tuple(d.encode() for d in profile.string_delimiters)
    char_delim = profile.char_delimiter.encode() if profile.char_delimiter else None

    def emit(kind: str, start: int, end: int) -> None:
        tokens.append(Token(kind, start, end, data[start:end].decode("utf-8", "replace")))

    while i < n:
        b = data[i]
        if b in _WS:
            i += 1
            continue
        if line_comment and data.startswith(line_comment, i):
            start = i
            j = data.find(b"\n", i)
            i = n if j < 0 else j
            emit(COMMENT, start, i)
            continue
        if block_open and data.startswith(block_open, i):
            start = i
            j = data.find(block_close, i + len(block_open))
            i = n if j < 0 else j + len(block_close)
            emit(COMMENT, start, i)
            continue
        matched_string = False
        for delim in string_delims:
            if data.startswith(delim, i):
                start = i
                # Triple-delimiter multiline strings (Swift """ ... """).
                triple = delim * 3
                if data.startswith(triple, i):
                    j = data.find(triple, i + 3)
                    i = n if j < 0 else j + 3
                else:
                    i += len(delim)
                    while i < n:
                        if data[i] == 0x5C:  # backslash escape
                            i += 2
                            continue
                        if data.startswith(delim, i):
                            i += len(delim)
                            break
                        if data[i] == 0x0A:  # unterminated: stop at newline
                            break
                        i += 1
                    i = min(i, n)  # an escape at end of input ends there
                emit(STRING, start, i)
                matched_string = True
                break
        if matched_string:
            continue
        if char_delim and data.startswith(char_delim, i):
            start = i
            i += 1
            while i < n:
                if data[i] == 0x5C:
                    i += 2
                    continue
                if data.startswith(char_delim, i):
                    i += 1
                    break
                if data[i] == 0x0A:
                    break
                i += 1
            i = min(i, n)
            emit(CHAR, start, i)
            continue
        if _is_ident_start(b):
            start = i
            i += 1
            while i < n and _is_ident_cont(data[i]):
                i += 1
            emit(IDENT, start, i)
            continue
        if b in _DIGITS:
            start = i
            i += 1
            # Loose numeric scan: hex/binary/float suffixes lumped together.
            while i < n and (data[i] in _IDENT_CONT or data[i] in b"."):
                if data[i] in b"." and i + 1 < n and data[i + 1] not in _DIGITS:
                    break
                i += 1
            emit(NUMBER, start, i)
            continue
        emit(PUNCT, i, i + 1)
        i += 1
    return tokens


def line_and_column(data: bytes, offset: int) -> tuple[int, int]:
    """1-based line and column of a byte offset."""
    offset = max(0, min(offset, len(data)))
    line = data.count(b"\n", 0, offset) + 1
    last_nl = data.rfind(b"\n", 0, offset)
    return line, offset - last_nl
