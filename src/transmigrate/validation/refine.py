"""Bounded iterative refinement.

Each round runs the configured checks over the current candidate; when
error-severity issues remain, a repair prompt is assembled (the issue list
rendered as canonical diagnostic lines above the prior code, closed by the
class prompt's output requirements) and the backend produces the next
candidate. The loop stops as soon as a round is clean or after
``max_rounds`` repair calls, whichever comes first. The full candidate
history is retained for before/after metrics.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

from transmigrate.backends import extract_code
from transmigrate.config import DEFAULT_MAX_ROUNDS
from transmigrate.errors import BackendError
from transmigrate.prompts import PromptEnvelope, output_requirements_for, render_prompt
from transmigrate.validation.issues import IssueRecord, ValidationReport, format_diagnostic_line

logger = logging.getLogger(__name__)

Check = Callable[["TranslationUnit"], list[IssueRecord]]


@dataclass(frozen=True)
class TranslationUnit:
    """One refinable artifact: a translated class file."""

    name: str
    code: str


@dataclass
class RefinementState:
    round: int = 0
    history: list[tuple[str, ValidationReport]] = field(default_factory=list)
    degraded: bool = False

    @property
    def repair_calls(self) -> int:
        return len(self.history) - 1 if self.history else 0


def build_repair_envelope(unit: TranslationUnit, issues: Sequence[IssueRecord]) -> PromptEnvelope:
    diagnostics = "\n".join(format_diagnostic_line(i) for i in issues) or "none"
    return render_prompt(
        "repair",
        {
            "diagnostics": diagnostics,
            "prior_code": unit.code,
            "output_requirements": output_requirements_for("class"),
        },
    )


def run_checks(unit: TranslationUnit, checks: Sequence[Check], round_index: int) -> ValidationReport:
    report = ValidationReport(round_index=round_index)
    for check in checks:
        report.extend(check(unit))
    return report


def refine_loop(
    unit: TranslationUnit,
    backend,
    checks: Sequence[Check],
    max_rounds: int = DEFAULT_MAX_ROUNDS,
) -> tuple[TranslationUnit, RefinementState]:
    """Refine ``unit`` until clean or the round budget is spent.

    Backend failure mid-loop degrades gracefully: the best candidate seen
    so far (fewest error-severity issues, earliest on ties) is returned
    with the state flagged degraded.
    """
    state = RefinementState()
    current = unit
    for round_index in range(max_rounds + 1):
        report = run_checks(current, checks, round_index)
        state.history.append((current.code, report))
        state.round = round_index
        if report.error_count() == 0:
            break
        if round_index == max_rounds:
            logger.info(
                "unit %s still has %d error(s) after %d repair round(s)",
                current.name,
                report.error_count(),
                max_rounds,
            )
            break
        envelope = build_repair_envelope(current, report.all_issues())
        try:
            response = backend.translate(envelope)
        except BackendError as exc:
            logger.warning("backend failed during refinement of %s: %s", current.name, exc)
            state.degraded = True
            best_code = min(
                state.history, key=lambda entry: entry[1].error_count()
            )[0]
            current = replace(current, code=best_code)
            return current, state
        current = replace(current, code=extract_code(response))
    return current, state
