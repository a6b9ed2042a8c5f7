"""Bundled stand-in for the Swift compiler and linter.

Emits diagnostics in the same ``path:line:col: severity: message (rule)``
shape as the real tools so the rest of the pipeline cannot tell the
difference. Intended for fixtures and CI hosts without Swift tooling;
wire it in with the templates ``transmigrate-stubcheck syntax {file}`` and
``transmigrate-stubcheck lint {file}`` (``stub_tool_commands()``), which
``run_external_check`` serves by calling ``run`` in the same process. Like
``swiftc -parse`` and ``swiftlint lint``, it takes several files and
checks each in turn, naming the file in each diagnostic.

Syntax mode: structural parse errors (unbalanced braces) and reserved
words used as identifiers; exit 1 when any file has an error. Lint mode:
trailing whitespace and over-long lines; exit 0 (diagnostics are not
failures).
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Sequence

from transmigrate.sourcemodel.lexer import line_and_column
from transmigrate.sourcemodel.parser import SourceFile, parse_source

MAX_LINE_LENGTH = 120

_RESERVED_IDENT_RE = re.compile(r"\b(?:let|var|func|class|struct)\s+(init)\b")


def check_syntax(path: str, text: str) -> list[str]:
    diagnostics: list[str] = []
    source = SourceFile(path=path, text=text, language="swift")
    ast = parse_source(source)
    data = source.data
    for node in ast.root.walk():
        if node.kind == "error":
            line, col = line_and_column(data, node.start)
            diagnostics.append(
                f"{path}:{line}:{col}: error: unbalanced or unparseable declaration structure"
            )
    for match in _RESERVED_IDENT_RE.finditer(text):
        offset = len(text[: match.start(1)].encode("utf-8"))
        line, col = line_and_column(data, offset)
        diagnostics.append(
            f"{path}:{line}:{col}: error: keyword 'init' cannot be used as an identifier"
        )
    return diagnostics


def check_lint(path: str, text: str) -> list[str]:
    diagnostics: list[str] = []
    for idx, line in enumerate(text.splitlines(), start=1):
        if line != line.rstrip(" \t"):
            diagnostics.append(
                f"{path}:{idx}:1: warning: Trailing Whitespace Violation: "
                f"Lines should not have trailing whitespace (trailing_whitespace)"
            )
        if len(line) > MAX_LINE_LENGTH:
            diagnostics.append(
                f"{path}:{idx}:1: warning: Line Length Violation: "
                f"Line should be {MAX_LINE_LENGTH} characters or less; "
                f"currently it has {len(line)} characters (line_length)"
            )
    return diagnostics


def run(args: Sequence[str], cwd: str | Path) -> tuple[int, str]:
    """Check files the way a checker process would: ``args`` is
    ``[mode, file, ...]``, each file is read relative to ``cwd`` and
    checked in turn, and the result is (exit status, output). Status 1
    means syntax errors were found in some file, 2 a bad usage or an
    unreadable file, whose message is then the whole output."""
    if len(args) < 2 or args[0] not in ("syntax", "lint"):
        return 2, "usage: transmigrate-stubcheck <syntax|lint> <file>...\n"
    mode, *files = args
    checker = check_syntax if mode == "syntax" else check_lint
    diagnostics: list[str] = []
    for file_arg in files:
        try:
            text = Path(cwd, file_arg).read_text(encoding="utf-8", errors="replace")
        except OSError as exc:
            return 2, f"stubcheck: cannot read {file_arg}: {exc}\n"
        diagnostics += checker(file_arg, text)
    status = 1 if mode == "syntax" and diagnostics else 0
    return status, "".join(f"{line}\n" for line in diagnostics)
