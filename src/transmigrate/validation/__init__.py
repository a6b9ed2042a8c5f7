"""Translated-code validation: checks, diagnostics, external tools, refinement."""

from transmigrate.validation.checks import (
    ResidueRule,
    build_translated_class_graph,
    check_references,
    compare_graphs,
    load_platform_allowlist,
    load_residue_rules,
    platform_scan,
    translated_definitions,
)
from transmigrate.validation.issues import (
    IssueRecord,
    ValidationReport,
    format_diagnostic_line,
    parse_diagnostic_line,
    parse_tool_output,
)
from transmigrate.validation.refine import (
    DEFAULT_MAX_ROUNDS,
    RefinementState,
    TranslationUnit,
    build_repair_envelope,
    refine_loop,
    run_checks,
)
from transmigrate.validation.tools import (
    DEFAULT_LINT_CMD,
    DEFAULT_SYNTAX_CMD,
    build_argv,
    run_external_check,
    stub_tool_commands,
)

__all__ = [
    "DEFAULT_LINT_CMD",
    "DEFAULT_MAX_ROUNDS",
    "DEFAULT_SYNTAX_CMD",
    "IssueRecord",
    "RefinementState",
    "ResidueRule",
    "TranslationUnit",
    "ValidationReport",
    "build_argv",
    "build_repair_envelope",
    "build_translated_class_graph",
    "check_references",
    "compare_graphs",
    "format_diagnostic_line",
    "load_platform_allowlist",
    "load_residue_rules",
    "parse_diagnostic_line",
    "parse_tool_output",
    "platform_scan",
    "refine_loop",
    "run_checks",
    "run_external_check",
    "stub_tool_commands",
    "translated_definitions",
]
