"""The parser, and every check built on it, accepts any text.

Nesting is bounded (``MAX_NESTING``): a block or type body opened at the
bound is skipped whole and flagged, so deep input parses instead of
exhausting the recursion. Arbitrary text raises nothing in either grammar,
and its parse tree nests: every child lies within its parent, after its
previous sibling.
"""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import FIXTURE_PROJECT, check_span_invariants, make_run_config

from transmigrate.pipeline import Pipeline
from transmigrate.prompts import ast_excerpt
from transmigrate.sourcemodel.extract import declarations_by_span, extract_classes
from transmigrate.sourcemodel.parser import MAX_NESTING, SourceFile, parse_source
from transmigrate.validation.checks import build_translated_class_graph, parse_corpora
from transmigrate.validation.stubcheck import check_syntax


def nested_classes(depth: int) -> str:
    return "class A {" * depth + "}" * depth


def nested_braces(depth: int, method: str) -> str:
    return f"class A {{ {method} " + "{" * depth + "}" * depth + " }"


# Each raised RecursionError before nesting was bounded.
DEEP = [
    ("java", nested_classes(250)),
    ("swift", nested_classes(300)),
    ("java", nested_braces(1000, "void f()")),
    ("swift", nested_braces(1000, "func f()")),
    ("java", "class A {" * 5000),
    ("swift", "{" * 5000),
]


def errors_of(ast):
    return [n for n in ast.root.walk() if n.kind == "error"]


@pytest.mark.parametrize("language,text", DEEP, ids=lambda v: v if len(v) < 10 else f"{len(v)}chars")
def test_deep_input_parses_and_extracts(language, text):
    ast = parse_source(SourceFile("A." + language, text, language))
    assert check_span_invariants(ast) == []
    assert errors_of(ast)
    classes = extract_classes(ast)
    assert len(classes) <= MAX_NESTING + 1
    declarations_by_span(ast)
    ast_excerpt(ast.root, ast.source.data)


@pytest.mark.parametrize("language", ["java", "swift"])
def test_balanced_nesting_at_the_bound_becomes_one_error_over_the_skipped_body(language):
    text = nested_classes(MAX_NESTING + 5)
    ast = parse_source(SourceFile("A." + language, text, language))
    (error,) = errors_of(ast)
    # The innermost parsed class's body opens at the bound: it is skipped
    # through its matching close, the five classes inside it unparsed.
    opened = text.index("{", len("class A {") * MAX_NESTING)
    assert error.span == (opened, len(text) - MAX_NESTING)
    classes = extract_classes(ast)
    assert len(classes) == MAX_NESTING + 1
    assert [c.qualified_name for c in classes if c.degraded] == [classes[-1].qualified_name]


@pytest.mark.parametrize("language", ["java", "swift"])
def test_nesting_below_the_bound_parses_without_error(language):
    method = "func f()" if language == "swift" else "void f()"
    for text in (nested_classes(MAX_NESTING), nested_braces(MAX_NESTING - 1, method)):
        ast = parse_source(SourceFile("A." + language, text, language))
        assert errors_of(ast) == []
        assert not any(c.degraded for c in extract_classes(ast))


def test_swift_corpus_checks_accept_deep_units():
    units = {"Deep.swift": nested_classes(300), "Braces.swift": nested_braces(1000, "func f()")}
    (corpus,) = parse_corpora(units)
    graph = build_translated_class_graph(corpus)
    assert "A" in graph.nodes
    assert check_syntax("Deep.swift", units["Deep.swift"])


def test_analyze_lists_deeply_nested_classes(tmp_path):
    source = tmp_path / "project"
    (source / "p").mkdir(parents=True)
    (source / "p" / "A.java").write_text("package p;\n" + nested_classes(250) + "\n", encoding="utf-8")
    config = make_run_config(source, tmp_path / "out")
    Pipeline(config).run_stage("analyze")
    classes = json.loads((tmp_path / "out" / "analyze" / "classes.json").read_text(encoding="utf-8"))
    assert len(classes) == MAX_NESTING + 1
    assert [c["degraded"] for c in classes].count(True) == 1


# Text that is mostly the tokens both grammars act on, so that the parser's
# structural paths are reached far more often than by uniform characters.
_PIECES = [
    "class", "interface", "enum", "struct", "protocol", "extension", "func", "init", "let", "var",
    "void", "int", "import", "package", "extends", "implements", "public", "static", "@", "A", "B",
    "{", "}", "(", ")", "<", ">", "[", "]", ";", ":", ",", ".", "=", "?", "!", " ", "\n",
    '"', "'", "\\", "//", "/*", "*/", "0", "é", "\r",
]
_pieces = st.lists(st.sampled_from(_PIECES), max_size=80)
source_text = st.one_of(st.text(), _pieces.map(" ".join), _pieces.map("".join))


def with_deep_examples(test):
    for _, text in DEEP:
        test = example(text)(test)
    return test


@settings(max_examples=300, deadline=None, derandomize=True)
@given(source_text)
@with_deep_examples
def test_java_parse_and_extract_never_raise(text):
    extract_classes(parse_source(SourceFile("T.java", text, "java")))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(source_text)
@with_deep_examples
def test_swift_parse_and_checks_never_raise(text):
    extract_classes(parse_source(SourceFile("T.swift", text, "swift")))
    check_syntax("T.swift", text)
    (corpus,) = parse_corpora({"T.swift": text})
    build_translated_class_graph(corpus)


@pytest.mark.parametrize("language", ["java", "swift"])
@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=source_text)
# An unclosed body's or block's tail error overlapped its last child's.
@example(text="class A {\n    private \n")
@example(text="{ { //")
def test_spans_nest_on_any_text(language, text):
    assert check_span_invariants(parse_source(SourceFile("T." + language, text, language))) == []


def span_violations(texts: dict[str, str], language: str) -> list[tuple[str, int, str]]:
    """(file, cut, first problem) of each prefix and suffix of each text
    whose parse does not nest."""
    found = []
    for name, text in texts.items():
        for cut in range(len(text) + 1):
            for piece in (text[:cut], text[cut:]):
                problems = check_span_invariants(parse_source(SourceFile(name, piece, language)))
                if problems:
                    found.append((name, cut, problems[0]))
    return found


def read_exact(paths) -> dict[str, str]:
    return {p.name: p.read_bytes().decode("utf-8") for p in sorted(paths)}


def test_spans_nest_on_every_cut_of_the_fixture_java():
    texts = read_exact(FIXTURE_PROJECT.rglob("*.java"))
    assert sum(2 * (len(text) + 1) for text in texts.values()) == 2266
    assert span_violations(texts, "java") == []


def test_spans_nest_on_every_cut_of_the_translated_fixture(fixture_project, tmp_path):
    pipeline = Pipeline(make_run_config(fixture_project, tmp_path / "out"))
    for stage in ("analyze", "index", "plan", "translate"):
        pipeline.run_stage(stage)
    texts = read_exact((tmp_path / "out" / "translate" / "units").glob("*.swift"))
    assert sum(2 * (len(text) + 1) for text in texts.values()) == 1726
    assert span_violations(texts, "swift") == []
