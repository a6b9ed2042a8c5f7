"""Checker invocation.

Command templates come from configuration (``config.ToolsConfig`` holds
the defaults, the Swift compiler and SwiftLint; ``RunConfig.validate``
refuses a template that ``shlex`` cannot split or that lacks ``{file}`` as
a shell word of its own) and are substituted into an argv, never a shell
string: the ``{file}`` word becomes every given path, each its own
argument, in the order given. The pipeline calls ``run_external_check``
once per checker per refinement round, on translate's own thread: round 0
of a component checks every unit file the component just wrote in one
call, and a repair round checks its one unit. Each call runs in the output
root with the configured ``tools.timeout_seconds`` as its bound, so that
bound covers the whole batch. Before translate sends a prompt whose unit
will be checked, ``resolve_checker`` finds both templates' programs, so a
missing one costs no backend call. A template whose program is
``transmigrate-stubcheck`` runs the bundled stub checker in this process;
any other template runs as a child process. A nonzero exit with
diagnostics is a normal outcome. A missing tool, a timeout or a crashed
stub raises here. A child runs in a session of its own; a timeout, or an
interrupt while it runs, kills that whole process group, so a checker's
own children (``swiftc`` starts ``swift-frontend``) die with it. The
pipeline also raises ``ToolError`` for a nonzero exit whose output holds
no diagnostic line, and for a diagnostic that names no file of the batch:
that checker never ran, or ran on something else, and its silence must
not read as a clean file.
"""

from __future__ import annotations

import os
import shlex
import shutil
import signal
import subprocess
from pathlib import Path
from typing import Sequence

from transmigrate.errors import ConfigurationError, ToolError
from transmigrate.validation import stubcheck

STUB_PROGRAM = "transmigrate-stubcheck"


def stub_tool_commands() -> tuple[str, str]:
    """Command templates for the bundled stub checker, for environments
    without Swift tooling (CI, fixtures). They are fixed strings, so they
    can be written straight into a config file."""
    return f"{STUB_PROGRAM} syntax {{file}}", f"{STUB_PROGRAM} lint {{file}}"


def build_argv(command_template: str, files: Sequence[str | Path]) -> list[str]:
    """Split the template and put ``files``, one argument each, where the
    ``{file}`` word stands."""
    argv = []
    for part in shlex.split(command_template):
        argv.extend(map(str, files) if part == "{file}" else (part,))
    return argv


def resolve_checker(command_template: str, cwd: str | Path) -> None:
    """Raise the ConfigurationError that ``run_external_check`` would raise
    in ``cwd`` when the template's program cannot be found, without running
    it: a bare name is looked up on ``PATH``, a path with a slash in it
    against ``cwd``, and the bundled stub is always found."""
    program = shlex.split(command_template)[0]
    if program != STUB_PROGRAM and not shutil.which(os.path.join(cwd, program) if "/" in program else program):
        raise ConfigurationError(f"checker tool not found: {program!r}")


def run_external_check(
    files: Sequence[str | Path], command_template: str, timeout: float, cwd: str | Path
) -> tuple[int, str]:
    """Run one checker over ``files``; returns (exit status, combined output).

    The checker runs in ``cwd`` and gets each file as given, so paths
    relative to ``cwd`` give diagnostics with stable, machine-independent
    file names. ``timeout`` bounds child processes only; the in-process
    stub has none. The child's output is read by ``communicate`` under
    ``timeout``; when it runs out the group is killed and the check
    raises ``ToolError``."""
    argv = build_argv(command_template, files)
    if argv[0] == STUB_PROGRAM:
        try:
            return stubcheck.run(argv[1:], cwd)
        except Exception as exc:  # e.g. RecursionError on deeply nested input
            raise ToolError(f"{STUB_PROGRAM} crashed on {', '.join(map(str, files))}: {exc!r}") from exc
    try:
        proc = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            cwd=cwd,
            start_new_session=True,
        )
    except FileNotFoundError as exc:
        raise ConfigurationError(f"checker tool not found: {argv[0]!r}") from exc
    try:
        output, _ = proc.communicate(timeout=timeout)
    except BaseException as exc:  # a timeout, or e.g. KeyboardInterrupt: leave no checker behind
        # SIGKILL the child's whole group, which outlives an exited child
        # while a grandchild still runs in it; a reaped child's pid may be reused.
        if proc.returncode is None:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):  # gone; macOS gives EPERM for a zombie group
                pass
        proc.stdout.close()
        proc.wait()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise ToolError(f"checker timed out after {timeout}s: {' '.join(argv)}") from None
        raise
    return proc.returncode, output
