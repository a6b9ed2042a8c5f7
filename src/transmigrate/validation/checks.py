"""Internal validation checks over translated units.

Three corpus-level checks mirror the source-side analysis:

* reference scan: project-origin symbols referenced in translated code
  must be defined somewhere in the translated set (or be allowlisted
  platform symbols);
* graph comparison: every source class-dependency edge must survive, under
  the class-name mapping to translated names: missing images are errors,
  edges with no source counterpart are warnings;
* platform residue scan: pattern rules over translated text flag source
  platform constructs that survived translation.

The residue rules and the platform allowlist ship beside this module.
Each is read once per process (``functools.cache``) into an immutable
value that every check shares.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace
from functools import cache, cached_property
from pathlib import Path
from typing import Collection, Mapping, NamedTuple

from transmigrate.errors import ArgumentError, MappingError
from transmigrate.sourcemodel.extract import ClassDescriptor, extract_classes
from transmigrate.sourcemodel.graph import DependencyGraph, build_dependency_graph
from transmigrate.sourcemodel.grammar import load_grammar
from transmigrate.sourcemodel.lexer import IDENT, line_and_column
from transmigrate.sourcemodel.parser import SourceFile, parse_source
from transmigrate.validation.issues import IssueRecord


@dataclass(frozen=True)
class ResidueRule:
    rule_id: str
    pattern: str
    message: str
    severity: str

    @cached_property
    def compiled(self) -> re.Pattern[str]:
        return re.compile(self.pattern, flags=re.MULTILINE)


@cache
def load_residue_rules() -> tuple[ResidueRule, ...]:
    """The shipped residue rules, in file order."""
    raw = json.loads((Path(__file__).parent / "residue_rules.json").read_text(encoding="utf-8"))
    return tuple(
        ResidueRule(
            rule_id=e["id"],
            pattern=e["pattern"],
            message=e["message"],
            severity=e["severity"],
        )
        for e in raw["rules"]
    )


@cache
def load_platform_allowlist() -> frozenset[str]:
    """The shipped platform names a reference check never flags."""
    return frozenset(json.loads((Path(__file__).parent / "platform_allowlist.json").read_text(encoding="utf-8")))


def platform_scan(unit_name: str, code: str) -> list[IssueRecord]:
    """One platform issue per match of a shipped residue rule, carrying the
    matched pattern id. Its column counts UTF-8 bytes, as every other
    check's does."""
    issues: list[IssueRecord] = []
    data = code.encode("utf-8")
    for rule in load_residue_rules():
        for match in rule.compiled.finditer(code):
            line, col = line_and_column(data, len(code[: match.start()].encode("utf-8")))
            snippet = match.group(0).strip()
            issues.append(
                IssueRecord(
                    file=unit_name,
                    line=line,
                    column=col,
                    severity=rule.severity,
                    rule=rule.rule_id,
                    message=f"{rule.message} [matched: {snippet}]",
                    source="platform",
                )
            )
    issues.sort(key=lambda i: (i.line or 0, i.column or 0, i.rule or ""))
    return issues


class ParsedUnit(NamedTuple):
    """What the corpus checks read of a translated unit's parse; the tree and
    its tokens are not kept. Checks and corpora share it, so nothing may
    mutate it."""

    classes: tuple[ClassDescriptor, ...]
    functions: tuple[str, ...]  # top-level function and initializer names
    first_offsets: dict[str, int]  # non-keyword identifier -> offset of its first occurrence
    data: bytes  # the UTF-8 source, to turn an offset into a line and column


def parse_corpora(*corpora: Mapping[str, str]) -> list[dict[str, ParsedUnit]]:
    """Each corpus (unit name -> Swift text) as unit name -> ParsedUnit. A
    unit with the same name and text in several corpora, such as one that
    refinement left alone, is parsed once and shared between them."""
    keywords = load_grammar("swift").keywords
    parsed: dict[tuple[str, str], ParsedUnit] = {}
    for units in corpora:
        for name, text in units.items():
            if (name, text) in parsed:
                continue
            ast = parse_source(SourceFile(name, text, "swift"))
            data = ast.source.data
            functions = tuple(
                data[ident.start : ident.end].decode("utf-8")
                for node in ast.root.children
                if node.kind in ("method_declaration", "constructor_declaration")
                and (ident := node.first("identifier")) is not None
            )
            first_offsets: dict[str, int] = {}
            for tok in ast.tokens:
                if tok.kind == IDENT and tok.text not in keywords:
                    first_offsets.setdefault(tok.text, tok.start)
            classes = tuple(extract_classes(ast))
            parsed[name, text] = ParsedUnit(classes, functions, first_offsets, data)
    return [{name: parsed[name, text] for name, text in units.items()} for units in corpora]


def translated_definitions(corpus: Mapping[str, ParsedUnit]) -> set[str]:
    """Names defined anywhere in the translated corpus: types, methods,
    initializers, and top-level functions."""
    defined: set[str] = set()
    for unit in corpus.values():
        for cls in unit.classes:
            defined.add(cls.simple_name)
            for m in cls.all_methods():
                defined.add(m.name)
            for f in cls.fields:
                defined.add(f.name)
        defined.update(unit.functions)
    return defined


def check_references(corpus: Mapping[str, ParsedUnit], project_symbols: Collection[str]) -> list[IssueRecord]:
    """Flag references to project symbols (source class simple names and
    constructor and method names, as in ``analyze/classes.json``) that have
    no definition in the parsed translated corpus and are not in the shipped
    platform allowlist. One issue per (unit, symbol), anchored at the
    symbol's first occurrence, which the parse recorded; only a reported
    symbol's offset is turned into a line and column."""
    allow = load_platform_allowlist()
    defined = translated_definitions(corpus)

    issues: list[IssueRecord] = []
    for name in sorted(corpus):
        unit = corpus[name]
        for sym in sorted(unit.first_offsets):
            if sym in project_symbols and sym not in defined and sym not in allow:
                line, col = line_and_column(unit.data, unit.first_offsets[sym])
                issues.append(
                    IssueRecord(
                        file=name,
                        line=line,
                        column=col,
                        severity="error",
                        rule="missing_definition",
                        message=f"reference to project symbol '{sym}' has no definition in the translated files",
                        source="internal_reference",
                    )
                )
    return issues


def _union(first: list[str], second: list[str]) -> list[str]:
    merged = list(first)
    merged.extend(i for i in second if i not in merged)
    return merged


def build_translated_class_graph(corpus: Mapping[str, ParsedUnit]) -> DependencyGraph:
    """Class-granularity dependency graph of the parsed translated corpus.

    Extensions of a type share its name; their members are merged into a
    copy of the primary declaration instead of colliding with it."""
    merged: dict[str, ClassDescriptor] = {}
    for name in sorted(corpus):
        for desc in corpus[name].classes:
            primary = merged.get(desc.qualified_name)
            if primary is None:
                merged[desc.qualified_name] = desc
                continue
            merged[desc.qualified_name] = replace(
                primary,
                methods=primary.methods + desc.methods,
                constructors=primary.constructors + desc.constructors,
                fields=primary.fields + desc.fields,
                class_level_calls=primary.class_level_calls + desc.class_level_calls,
                interfaces=_union(primary.interfaces, desc.interfaces),
                imports=_union(primary.imports, desc.imports),
                superclass=desc.superclass if primary.superclass is None else primary.superclass,
                degraded=primary.degraded or desc.degraded,
            )
    return build_dependency_graph(list(merged.values()))


def compare_graphs(
    source_graph: DependencyGraph,
    translated_graph: DependencyGraph,
    mapping: Mapping[str, str],
    unit_of: Mapping[str, str],
) -> list[IssueRecord]:
    """Compare dependency structure across the translation boundary.

    ``mapping`` takes source class names to translated ones and must be
    injective; ``unit_of`` names the unit each translated name of
    ``mapping`` is reported against. A source edge whose endpoint pair has
    no edge at all in the translated graph is a missing-dependency error;
    a translated edge between mapped classes with no source counterpart is
    a warning. Edge kinds are reported but do not constrain matching,
    since the platforms express the same dependency through different
    constructs (imports do not exist per-class in the target language).
    """
    if source_graph.granularity != "class" or translated_graph.granularity != "class":
        raise ArgumentError("graph comparison requires class-granularity graphs")
    values = list(mapping.values())
    if len(set(values)) != len(values):
        raise MappingError("class-name mapping is not injective")

    translated_pairs: dict[tuple[str, str], set[str]] = {}
    for f, t, k in translated_graph.edges:
        translated_pairs.setdefault((f, t), set()).add(k)
    source_pairs = {(mapping[f], mapping[t]) for f, t, _ in source_graph.edges if f in mapping and t in mapping}

    issues: list[IssueRecord] = []
    for f, t, k in sorted(source_graph.edges):
        if f not in mapping or t not in mapping:
            continue
        tf, tt = mapping[f], mapping[t]
        if (tf, tt) not in translated_pairs:
            issues.append(
                IssueRecord(
                    file=unit_of[tf],
                    line=None,
                    column=None,
                    severity="error",
                    rule="missing_edge",
                    message=f"dependency {f} -> {t} ({k}) is not preserved in the translated code",
                    source="graph_diff",
                )
            )
    mapped_targets = set(mapping.values())
    for (tf, tt), kinds in sorted(translated_pairs.items()):
        if tf in mapped_targets and tt in mapped_targets and (tf, tt) not in source_pairs:
            issues.append(
                IssueRecord(
                    file=unit_of[tf],
                    line=None,
                    column=None,
                    severity="warning",
                    rule="extra_edge",
                    message=f"translated code adds dependency {tf} -> {tt} ({', '.join(sorted(kinds))})",
                    source="graph_diff",
                )
            )
    return issues
