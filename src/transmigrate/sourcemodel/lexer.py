"""Tokenizer shared by every grammar profile.

Offsets are byte positions into the UTF-8 encoding of the source, so that
substring extraction by span is exact regardless of multi-byte characters.
Whitespace (space, tab, CR, LF, FF, VT) separates tokens and is not one.
At each other byte the first of these rules that matches makes the token,
each built from the markers the profile declares:

1. comment: the line-comment marker through the end of its line (the
   newline excluded), or a block comment through its closing marker or
   the end of input;
2. string: a raw string, else a string delimiter tripled through the next
   triple or the end of input, else a quoted literal (below). A raw
   string opens with the profile's raw-string prefix one or more times
   and a delimiter, tripled or single, and closes with the same delimiter
   and as many prefixes; no backslash escapes in it. Tripled, it runs
   through its closer or the end of input; single, through its closer, an
   unescaped newline (excluded) or the end of input;
3. char: a quoted literal opened by the char delimiter;
4. ident: an ASCII letter, ``_``, ``$`` or byte >= 0x80, then those and
   digits;
5. number: a digit, then ASCII letters, digits, ``_``, ``$``, and ``.`` where
   a digit or the end of input follows it;
6. punct: any other single byte.

A quoted literal runs through its closing delimiter; a backslash escapes
the byte after it, and an unescaped newline or the end of input ends an
unterminated literal. Lexing never fails, and no token ends past the end
of input.

Where a token's text can settle its kind, it does, so the parser tests
texts alone there: no profile's markers start with one of the bytes
``{}()[];,=<>.:@?!*&``, so a token with one of them as its whole text is
``punct``; and a profile word (a keyword, modifier, declaration keyword,
``import``, ``package``, ``extends`` or ``implements``) is a run of
letters, so a token with one as its whole text is ``ident``.
"""

from __future__ import annotations

import functools
import re
from typing import NamedTuple

from transmigrate.sourcemodel.grammar import GrammarProfile

IDENT = "ident"
NUMBER = "number"
STRING = "string"
CHAR = "char"
COMMENT = "comment"
PUNCT = "punct"


class Token(NamedTuple):
    """One token: a tuple with named fields and no per-instance dict, since
    a parse makes one per word and punctuation mark of the file."""

    kind: str
    start: int
    end: int
    text: str

    def __repr__(self) -> str:  # compact for failed-assert output
        return f"Token({self.kind}, {self.start}:{self.end}, {self.text!r})"


def _quoted(delim: str) -> str:
    """A quoted literal opened by ``delim``; a trailing backslash at end of
    input is its last byte."""
    d = re.escape(delim)
    return rf"{d}(?:\\.|(?!{d})[^\\\n])*(?:{d}|\\)?"


@functools.cache
def _token_pattern(
    line_comment: str | None,
    block_comment: tuple[str, str] | None,
    string_delimiters: tuple[str, ...],
    raw_string_prefix: str | None,
    char_delimiter: str | None,
) -> re.Pattern[bytes]:
    """The token rules of one profile's markers as one pattern, a named
    group per kind, alternatives in rule order."""
    comments = []
    if line_comment:
        comments.append(re.escape(line_comment) + r"[^\n]*")
    if block_comment:
        opener, closer = map(re.escape, block_comment)
        comments.append(rf"{opener}.*?(?:{closer}|\Z)")
    strings = [rf"{re.escape(d * 3)}.*?(?:{re.escape(d * 3)}|\Z)|{_quoted(d)}" for d in string_delimiters]
    if raw_string_prefix:
        prefix = re.escape(raw_string_prefix)
        strings[:0] = [
            rf"(?P<raw{i}>(?:{prefix})+)(?:{re.escape(d * 3)}.*?(?:{re.escape(d * 3)}(?P=raw{i})|\Z)"
            rf"|{re.escape(d)}[^\n]*?(?:{re.escape(d)}(?P=raw{i})|(?=\n)|\Z))"
            for i, d in enumerate(string_delimiters)
        ]
    rules = [
        (COMMENT, "|".join(comments)),
        (STRING, "|".join(strings)),
        (CHAR, _quoted(char_delimiter) if char_delimiter else ""),
        (IDENT, r"[A-Za-z_$\x80-\xff][0-9A-Za-z_$\x80-\xff]*"),
        (NUMBER, r"[0-9](?:[0-9A-Za-z_$]|\.(?=[0-9]|\Z))*"),
        (PUNCT, r"\S"),
    ]
    return re.compile("|".join(f"(?P<{kind}>{rule})" for kind, rule in rules if rule).encode(), re.DOTALL)


def tokenize(data: bytes, profile: GrammarProfile) -> list[Token]:
    """Every token of ``data`` in order. Comments are tokens too, so that
    callers needing comment text (documentation ingestion) can reuse the
    same pass; structural parsing filters them out."""
    pattern = _token_pattern(
        profile.line_comment,
        profile.block_comment,
        profile.string_delimiters,
        profile.raw_string_prefix,
        profile.char_delimiter,
    )
    return [
        Token(m.lastgroup, m.start(), m.end(), m.group().decode("utf-8", "replace")) for m in pattern.finditer(data)
    ]


def line_and_column(data: bytes, offset: int) -> tuple[int, int]:
    """1-based line and column of a byte offset."""
    offset = max(0, min(offset, len(data)))
    line = data.count(b"\n", 0, offset) + 1
    last_nl = data.rfind(b"\n", 0, offset)
    return line, offset - last_nl
