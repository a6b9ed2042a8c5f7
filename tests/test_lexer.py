"""Exact token lists for both grammars, and properties of any lexing.

Each table row pins the kind, byte span and text of every token of a short
input. The properties hold on arbitrary bytes: tokens are ordered, do not
overlap and lie within the input, each token's text is its decoded slice,
and only whitespace lies outside tokens. The parser tests token texts alone
where the text settles the kind, so that rule is checked too, on arbitrary
input and on the fixture's sources.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURE_PROJECT

from transmigrate.sourcemodel import lexer
from transmigrate.sourcemodel.grammar import load_grammar

WHITESPACE = b" \t\r\n\f\v"
KINDS = {lexer.IDENT, lexer.NUMBER, lexer.STRING, lexer.CHAR, lexer.COMMENT, lexer.PUNCT}


def lex(data: bytes, language: str) -> list[tuple[str, int, int, str]]:
    return [tuple(t) for t in lexer.tokenize(data, load_grammar(language))]


def short_id(value) -> str | None:
    return repr(value)[:30] if isinstance(value, bytes) else None


# (input, tokens) lexed alike in both grammars.
BOTH = [
    # Strings: an escaped quote, a backslash at end of input, an unterminated
    # string stopping before its newline, an escaped newline inside a string.
    (b'"a\\"b" x', [("string", 0, 6, '"a\\"b"'), ("ident", 7, 8, "x")]),
    (b'"ab\\', [("string", 0, 4, '"ab\\')]),
    (b'"abc\nd', [("string", 0, 4, '"abc'), ("ident", 5, 6, "d")]),
    (b'"a\\\nb" c', [("string", 0, 6, '"a\\\nb"'), ("ident", 7, 8, "c")]),
    (b'"" x', [("string", 0, 2, '""'), ("ident", 3, 4, "x")]),
    # Triple-quoted strings, closed (a lone quote and a newline inside) and open.
    (b'"""a\n"b"\n""" x', [("string", 0, 12, '"""a\n"b"\n"""'), ("ident", 13, 14, "x")]),
    (b'"""open\nx', [("string", 0, 9, '"""open\nx')]),
    (b'""""', [("string", 0, 4, '""""')]),
    # Comments: line, closed block, unterminated block, and "/*/".
    (b"// line\nx", [("comment", 0, 7, "// line"), ("ident", 8, 9, "x")]),
    (b"/**/x", [("comment", 0, 4, "/**/"), ("ident", 4, 5, "x")]),
    (b"/* never closed\nx", [("comment", 0, 17, "/* never closed\nx")]),
    (b"/*/ x", [("comment", 0, 5, "/*/ x")]),
    (b"a/b", [("ident", 0, 1, "a"), ("punct", 1, 2, "/"), ("ident", 2, 3, "b")]),
    # Numbers: a "." belongs to one only before a digit or at end of input.
    (
        b"1.5 1.x 0x1F 1..2",
        [
            ("number", 0, 3, "1.5"),
            ("number", 4, 5, "1"),
            ("punct", 5, 6, "."),
            ("ident", 6, 7, "x"),
            ("number", 8, 12, "0x1F"),
            ("number", 13, 14, "1"),
            ("punct", 14, 15, "."),
            ("punct", 15, 16, "."),
            ("number", 16, 17, "2"),
        ],
    ),
    (b"x = 1.", [("ident", 0, 1, "x"), ("punct", 2, 3, "="), ("number", 4, 6, "1.")]),
    (
        b"1_000L 2e5 .5",
        [("number", 0, 6, "1_000L"), ("number", 7, 10, "2e5"), ("punct", 11, 12, "."), ("number", 12, 13, "5")],
    ),
    # A number does not take non-ASCII bytes; an identifier does.
    ("1é".encode(), [("number", 0, 1, "1"), ("ident", 1, 3, "é")]),
    # Identifiers: "$", "_", digits after the first byte, non-ASCII bytes,
    # and bytes that are not UTF-8 (decoded with replacement).
    (
        "$a _b é9 x$1".encode(),
        [("ident", 0, 2, "$a"), ("ident", 3, 5, "_b"), ("ident", 6, 9, "é9"), ("ident", 10, 13, "x$1")],
    ),
    (b"\xff\xfe", [("ident", 0, 2, "\ufffd\ufffd")]),
    # Line ends and other whitespace separate tokens and are not tokens.
    (b"a\r\nb\t\x0b\x0cc", [("ident", 0, 1, "a"), ("ident", 3, 4, "b"), ("ident", 7, 8, "c")]),
    (b"", []),
]

# (language, input, tokens) where the grammars differ: only Java has char
# literals, and only Swift raw strings.
DIFFERENT = [
    ("java", b"'a' x", [("char", 0, 3, "'a'"), ("ident", 4, 5, "x")]),
    ("java", b"'\\'' '\\", [("char", 0, 4, "'\\''"), ("char", 5, 7, "'\\")]),
    ("java", b"'a\nb", [("char", 0, 2, "'a"), ("ident", 3, 4, "b")]),
    ("swift", b"'a' x", [("punct", 0, 1, "'"), ("ident", 1, 2, "a"), ("punct", 2, 3, "'"), ("ident", 4, 5, "x")]),
    ("swift", b"'\\'", [("punct", 0, 1, "'"), ("punct", 1, 2, "\\"), ("punct", 2, 3, "'")]),
    # A raw string ends at its delimiter with as many "#": a quote, a brace
    # or a backslash inside it ends nothing.
    ("swift", b'#"a " } b"# x', [("string", 0, 11, '#"a " } b"#'), ("ident", 12, 13, "x")]),
    ("swift", b'##"a"# \\"##;', [("string", 0, 11, '##"a"# \\"##'), ("punct", 11, 12, ";")]),
    ("swift", b'#"""\n" """ }\n"""# f', [("string", 0, 17, '#"""\n" """ }\n"""#'), ("ident", 18, 19, "f")]),
    # Open: a single-line raw string stops before its newline, a multi-line one at the end.
    ("swift", b'#"open\nx', [("string", 0, 6, '#"open'), ("ident", 7, 8, "x")]),
    ("swift", b'#"""open }', [("string", 0, 10, '#"""open }')]),
    # A "#" not before a quote is punctuation, and Java has no raw strings.
    ("swift", b"#if", [("punct", 0, 1, "#"), ("ident", 1, 3, "if")]),
    ("java", b'#"a"#', [("punct", 0, 1, "#"), ("string", 1, 4, '"a"'), ("punct", 4, 5, "#")]),
]


@pytest.mark.parametrize("language", ["java", "swift"])
@pytest.mark.parametrize("data,expected", BOTH, ids=short_id)
def test_tokens_in_both_grammars(language, data, expected):
    assert lex(data, language) == expected


@pytest.mark.parametrize("language,data,expected", DIFFERENT, ids=short_id)
def test_tokens_where_the_grammars_differ(language, data, expected):
    assert lex(data, language) == expected


def token_problems(data: bytes, language: str) -> list[str]:
    problems = []
    previous_end = 0
    for kind, start, end, text in lex(data, language):
        if kind not in KINDS or not previous_end <= start < end <= len(data):
            problems.append(f"{kind} {start}:{end} after {previous_end} in {len(data)} bytes")
        if text != data[start:end].decode("utf-8", "replace"):
            problems.append(f"{kind} {start}:{end} text {text!r}")
        if data[previous_end:start].strip(WHITESPACE):
            problems.append(f"untokenized {data[previous_end:start]!r} before {start}")
        previous_end = max(previous_end, end)
    if data[previous_end:].strip(WHITESPACE):
        problems.append(f"untokenized tail {data[previous_end:]!r}")
    return problems


# Mostly the markers the lexer acts on, so that every token kind and its
# edge cases are reached far more often than by uniform bytes.
_PIECES = [
    b"a", b"Z9", b"$", b"_", "é".encode(), b"\xff", b"0", b"1.", b".5", b"0x", b".",
    b'"', b'"""', b"'", b"\\", b"//", b"/*", b"*/", b"*", b"/", b"{", b";",
    b" ", b"\n", b"\r", b"\t",
]
_pieces = st.lists(st.sampled_from(_PIECES), max_size=60).map(b"".join)
source_bytes = st.one_of(st.binary(max_size=200), _pieces)


@pytest.mark.parametrize("language", ["java", "swift"])
@settings(max_examples=500, deadline=None, derandomize=True)
@given(data=source_bytes)
def test_tokens_cover_every_non_whitespace_byte_in_order(language, data):
    assert token_problems(data, language) == []


PUNCT_TEXTS = frozenset("{}()[];,=<>.:@?!*&")


def profile_words(language: str) -> frozenset[str]:
    p = load_grammar(language)
    words = {p.import_keyword, p.package_keyword, p.extends_keyword, p.implements_keyword}
    words |= p.keywords | p.modifiers | set(p.type_keywords) | set(p.method_keywords) | set(p.field_keywords)
    return frozenset(words - {None})


def kind_problems(data: bytes, language: str) -> list[tuple[str, int, int, str]]:
    """Tokens whose text settles a kind other than theirs."""
    words = profile_words(language)
    return [
        (kind, start, end, text)
        for kind, start, end, text in lex(data, language)
        if (text in PUNCT_TEXTS and kind != lexer.PUNCT) or (text in words and kind != lexer.IDENT)
    ]


_KIND_PIECES = _PIECES + [w.encode() for w in sorted(PUNCT_TEXTS | profile_words("java") | profile_words("swift"))]
_kind_pieces = st.lists(st.sampled_from(_KIND_PIECES), max_size=60)
kind_bytes = st.one_of(st.binary(max_size=200), _kind_pieces.map(b"".join), _kind_pieces.map(b" ".join))


@pytest.mark.parametrize("language", ["java", "swift"])
@settings(max_examples=500, deadline=None, derandomize=True)
@given(data=kind_bytes)
def test_the_text_settles_the_kind_of_punctuation_and_profile_words(language, data):
    assert kind_problems(data, language) == []


@pytest.mark.parametrize("language", ["java", "swift"])
def test_the_text_settles_the_kind_in_the_fixture_sources(language):
    paths = sorted(FIXTURE_PROJECT.rglob("*.java"))
    assert paths
    for path in paths:
        assert kind_problems(path.read_bytes(), language) == [], path.name


MB = 1 << 20

# One input of about a megabyte per token kind that spans several bytes.
LONG = [
    ("java", "ident", b"a" * MB),
    ("java", "number", b"1" * MB),
    ("java", "string", b'"' + b"a\\\"" * (MB // 3) + b'"'),
    ("java", "string", b'"""' + b'"a\n' * (MB // 3) + b'"""'),
    ("java", "string", b'"' + b"a" * MB),
    ("java", "char", b"'" + b"\\'" * (MB // 2) + b"'"),
    ("java", "comment", b"//" + b"a" * MB),
    ("java", "comment", b"/*" + b"*a/" * (MB // 3) + b"*/"),
    ("java", "comment", b"/*" + b"a" * MB),
    ("swift", "string", b'"""' + b'""a' * (MB // 3) + b'"""'),
    ("swift", "ident", "é".encode() * (MB // 2)),
]


@pytest.mark.parametrize("language,kind,data", LONG, ids=lambda v: f"{len(v)}B" if isinstance(v, bytes) else v)
def test_a_megabyte_token_lexes_whole(language, kind, data):
    assert lex(data, language) == [(kind, 0, len(data), data.decode("utf-8"))]
