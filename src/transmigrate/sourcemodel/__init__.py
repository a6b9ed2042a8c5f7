"""Source structure analysis: parsing, descriptor extraction, dependency graphs."""

from transmigrate.sourcemodel.extract import (
    ClassDescriptor,
    FieldInfo,
    MethodDescriptor,
    extract_classes,
    identifier_occurrences,
    method_body,
)
from transmigrate.sourcemodel.grammar import GrammarProfile, default_grammar_dir, load_grammar
from transmigrate.sourcemodel.graph import (
    EDGE_CALL,
    EDGE_FIELD_TYPE,
    EDGE_IMPORT,
    EDGE_INHERITANCE,
    DependencyGraph,
    build_dependency_graph,
    quotient_graph,
)
from transmigrate.sourcemodel.parser import Ast, AstNode, SourceFile, check_span_invariants, parse_source

__all__ = [
    "Ast",
    "AstNode",
    "ClassDescriptor",
    "DependencyGraph",
    "EDGE_CALL",
    "EDGE_FIELD_TYPE",
    "EDGE_IMPORT",
    "EDGE_INHERITANCE",
    "FieldInfo",
    "GrammarProfile",
    "MethodDescriptor",
    "SourceFile",
    "build_dependency_graph",
    "check_span_invariants",
    "default_grammar_dir",
    "extract_classes",
    "identifier_occurrences",
    "load_grammar",
    "method_body",
    "parse_source",
    "quotient_graph",
]
