"""Checker invocation.

Command templates come from configuration (defaults: ``swiftc -parse
{file}`` and ``swiftlint lint --path {file}``) and are substituted into an
argv, never a shell string. A template whose program is
``transmigrate-stubcheck`` runs the bundled stub checker in this process;
any other template runs as a child process. A nonzero exit with
diagnostics is a normal outcome. A missing tool, a timeout or a crashed
stub raises here. The pipeline also raises ``ToolError`` for a nonzero
exit whose output holds no diagnostic line: that checker never ran, and
its silence must not read as a clean file.
"""

from __future__ import annotations

import shlex
import subprocess
from pathlib import Path

from transmigrate.errors import ConfigurationError, ToolError
from transmigrate.validation import stubcheck

DEFAULT_SYNTAX_CMD = "swiftc -parse {file}"
DEFAULT_LINT_CMD = "swiftlint lint --path {file}"
STUB_PROGRAM = "transmigrate-stubcheck"


def stub_tool_commands() -> tuple[str, str]:
    """Command templates for the bundled stub checker, for environments
    without Swift tooling (CI, fixtures). They are fixed strings, so they
    can be written straight into a config file."""
    return f"{STUB_PROGRAM} syntax {{file}}", f"{STUB_PROGRAM} lint {{file}}"


def build_argv(command_template: str, file: str | Path) -> list[str]:
    """Split the template and substitute the ``{file}`` placeholder."""
    if "{file}" not in command_template:
        raise ConfigurationError(f"command template lacks {{file}} placeholder: {command_template!r}")
    return [part.replace("{file}", str(file)) for part in shlex.split(command_template)]


def run_external_check(
    file: str | Path, command_template: str, timeout: float = 60.0, cwd: str | Path | None = None
) -> tuple[int, str]:
    """Run one checker over one file; returns (exit status, combined output).

    ``cwd`` lets callers pass repository-relative paths so diagnostics come
    back with stable, machine-independent file names. ``timeout`` bounds
    child processes only; the in-process stub has none."""
    argv = build_argv(command_template, file)
    if argv[0] == STUB_PROGRAM:
        try:
            return stubcheck.run(argv[1:], cwd)
        except Exception as exc:  # e.g. RecursionError on deeply nested input
            raise ToolError(f"{STUB_PROGRAM} crashed on {file}: {exc!r}") from exc
    try:
        proc = subprocess.run(
            argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            timeout=timeout,
            text=True,
            cwd=str(cwd) if cwd is not None else None,
        )
    except FileNotFoundError as exc:
        raise ConfigurationError(f"checker tool not found: {argv[0]!r}") from exc
    except subprocess.TimeoutExpired as exc:
        raise ToolError(f"checker timed out after {timeout}s: {' '.join(argv)}") from exc
    return proc.returncode, proc.stdout or ""
