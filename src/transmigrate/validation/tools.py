"""Checker invocation.

Command templates come from configuration (``config.ToolsConfig`` holds
the defaults, the Swift compiler and SwiftLint; ``RunConfig.validate``
refuses a template without ``{file}`` or one ``shlex`` cannot split) and
are substituted into an argv, never a shell string. The pipeline calls
``run_external_check`` once per checker per refinement round, on the
round's candidate in ``translate/units/``, with the configured
``tools.timeout_seconds`` and the output root as the working directory.
Every round's checks run on translate's thread pool, so several may run
at once; they read files and write none. A template whose program is
``transmigrate-stubcheck`` runs the bundled stub checker in this process;
any other template runs as a child process. A nonzero exit with
diagnostics is a normal outcome. A missing tool, a timeout or a crashed
stub raises here. A child runs in a session of its own; a timeout, or an
interrupt while it runs, kills that whole process group, so a checker's
own children (``swiftc`` starts ``swift-frontend``) die with it. Every
running child is listed in a lock-guarded registry, and
``kill_running_checkers`` kills all their groups: translate calls it when
it leaves the stage by an exception, so no checker outlives the stage.
The pipeline also raises ``ToolError`` for a nonzero exit whose output
holds no diagnostic line: that checker never ran, and its silence must
not read as a clean file.
"""

from __future__ import annotations

import os
import shlex
import signal
import subprocess
import threading
from pathlib import Path

from transmigrate.errors import ConfigurationError, ToolError
from transmigrate.validation import stubcheck

STUB_PROGRAM = "transmigrate-stubcheck"

# The checker children running now, from any thread.
_running: set[subprocess.Popen] = set()
_running_lock = threading.Lock()


def stub_tool_commands() -> tuple[str, str]:
    """Command templates for the bundled stub checker, for environments
    without Swift tooling (CI, fixtures). They are fixed strings, so they
    can be written straight into a config file."""
    return f"{STUB_PROGRAM} syntax {{file}}", f"{STUB_PROGRAM} lint {{file}}"


def build_argv(command_template: str, file: str | Path) -> list[str]:
    """Split the template and substitute the ``{file}`` placeholder."""
    return [part.replace("{file}", str(file)) for part in shlex.split(command_template)]


def run_external_check(
    file: str | Path, command_template: str, timeout: float, cwd: str | Path
) -> tuple[int, str]:
    """Run one checker over one file; returns (exit status, combined output).

    The checker runs in ``cwd`` and gets ``file`` as given, so a path
    relative to ``cwd`` gives diagnostics with stable, machine-independent
    file names. ``timeout`` bounds child processes only; the in-process
    stub has none. The child's output is read by ``communicate`` under
    ``timeout``, which reaps the child by polling with short sleeps (off
    the thread that sends prompts); when ``timeout`` runs out
    the group is killed and the check raises ``ToolError``."""
    argv = build_argv(command_template, file)
    if argv[0] == STUB_PROGRAM:
        try:
            return stubcheck.run(argv[1:], cwd)
        except Exception as exc:  # e.g. RecursionError on deeply nested input
            raise ToolError(f"{STUB_PROGRAM} crashed on {file}: {exc!r}") from exc
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
    with _running_lock:
        _running.add(proc)
    try:
        output, _ = proc.communicate(timeout=timeout)
    except BaseException as exc:  # a timeout, or e.g. KeyboardInterrupt: leave no checker behind
        _kill_group(proc)
        proc.stdout.close()
        proc.wait()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise ToolError(f"checker timed out after {timeout}s: {' '.join(argv)}") from None
        raise
    finally:
        with _running_lock:
            _running.discard(proc)
    return proc.returncode, output


def kill_running_checkers() -> None:
    """SIGKILL the process group of every checker child that runs now; the
    threads waiting on them then return or raise as for any killed child."""
    with _running_lock:
        for proc in _running:
            _kill_group(proc)


def _kill_group(proc: subprocess.Popen) -> None:
    """SIGKILL every process in the child's group, unless the child has
    been reaped (its pid may then be reused). The group outlives an exited
    child while a grandchild still runs in it."""
    if proc.returncode is None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):  # gone; macOS gives EPERM for a zombie group
            pass
