"""Bounded iterative refinement.

The caller checks round 0 and hands its report in. While error-severity
issues remain, ``repair(code, issues)`` makes the next candidate
(translate's repair sends a prompt filled from ``repair_inputs`` through
its one send step), and ``check(name, code)`` checks it, with the same
check as round 0's. The loop stops as soon as a round is clean or after
``max_rounds`` repair calls, whichever comes first. The state keeps
every round's code and report, and ``kept``, the index of the round whose
code the loop returned: validate reads round 0 as the before corpus and
round ``kept`` as the after corpus.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Sequence

from transmigrate.errors import BackendError, BudgetError, ExtractionError
from transmigrate.prompts import output_requirements_for
from transmigrate.validation.issues import IssueRecord, ValidationReport, format_diagnostic_line

logger = logging.getLogger(__name__)


@dataclass
class RefinementState:
    history: list[tuple[str, ValidationReport]] = field(default_factory=list)
    degraded: bool = False
    kept: int = 0  # index into ``history`` of the returned code

    @property
    def repair_calls(self) -> int:
        return len(self.history) - 1 if self.history else 0


def repair_inputs(code: str, issues: Sequence[IssueRecord]) -> dict[str, str]:
    """The repair prompt's slot values: the issues as canonical diagnostic
    lines above ``code``, closed by the class prompt's output requirements."""
    return {
        "diagnostics": "\n".join(format_diagnostic_line(i) for i in issues) or "none",
        "prior_code": code,
        "output_requirements": output_requirements_for("class"),
    }


def refine_loop(
    name: str,
    code: str,
    report: ValidationReport,
    repair: Callable[[str, list[IssueRecord]], str],
    check: Callable[[str, str], ValidationReport],
    max_rounds: int,
) -> tuple[str, RefinementState]:
    """Refine the code of unit ``name``, given round 0's ``report`` on it,
    until a round reports no error or the round budget is spent;
    ``repair(code, issues)`` makes each next candidate and
    ``check(name, code)`` checks it. Returns the kept code and the state.

    A repair that fails (the backend fails, the prompt cannot fit the
    budget, or the reply is empty) degrades gracefully: the best candidate
    seen so far (fewest error-severity issues, earliest on ties) is
    returned with the state flagged degraded.
    """
    state = RefinementState(history=[(code, report)])
    while report.error_count():
        if state.kept == max_rounds:
            logger.info(
                "unit %s still has %d error(s) after %d repair round(s)",
                name,
                report.error_count(),
                max_rounds,
            )
            break
        try:
            code = repair(code, report.all_issues())
        except (BackendError, BudgetError, ExtractionError) as exc:
            logger.warning("repair failed during refinement of %s: %s", name, exc)
            state.degraded = True
            state.kept = min(
                range(len(state.history)), key=lambda index: state.history[index][1].error_count()
            )
            return state.history[state.kept][0], state
        report = check(name, code)
        state.history.append((code, report))
        state.kept += 1
    return code, state
