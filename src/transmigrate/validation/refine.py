"""Bounded iterative refinement.

Each round calls the one check function on the current candidate; when
error-severity issues remain, a repair prompt is assembled (the issue list
rendered as canonical diagnostic lines above the prior code, closed by the
class prompt's output requirements) and the backend produces the next
candidate. The loop stops as soon as a round is clean or after
``max_rounds`` repair calls, whichever comes first. The state keeps every
round's code and report, and ``kept``, the index of the round whose code
the loop returned: validate reads round 0 as the before corpus and round
``kept`` as the after corpus.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Sequence

from transmigrate.backends import extract_code
from transmigrate.config import DEFAULT_MAX_ROUNDS
from transmigrate.errors import BackendError
from transmigrate.prompts import PromptEnvelope, output_requirements_for, render_prompt
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


def build_repair_envelope(code: str, issues: Sequence[IssueRecord]) -> PromptEnvelope:
    diagnostics = "\n".join(format_diagnostic_line(i) for i in issues) or "none"
    return render_prompt(
        "repair",
        {
            "diagnostics": diagnostics,
            "prior_code": code,
            "output_requirements": output_requirements_for("class"),
        },
    )


def refine_loop(
    name: str,
    code: str,
    backend,
    check: Callable[[str, str], ValidationReport],
    max_rounds: int = DEFAULT_MAX_ROUNDS,
) -> tuple[str, RefinementState]:
    """Refine the code of unit ``name`` until ``check(name, code)`` reports
    no error or the round budget is spent; returns the kept code and the
    state.

    Backend failure mid-loop degrades gracefully: the best candidate seen
    so far (fewest error-severity issues, earliest on ties) is returned
    with the state flagged degraded.
    """
    state = RefinementState()
    for round_index in range(max_rounds + 1):
        report = check(name, code)
        state.history.append((code, report))
        state.kept = round_index
        if report.error_count() == 0:
            break
        if round_index == max_rounds:
            logger.info(
                "unit %s still has %d error(s) after %d repair round(s)",
                name,
                report.error_count(),
                max_rounds,
            )
            break
        envelope = build_repair_envelope(code, report.all_issues())
        try:
            response = backend.translate(envelope)
        except BackendError as exc:
            logger.warning("backend failed during refinement of %s: %s", name, exc)
            state.degraded = True
            state.kept = min(
                range(len(state.history)), key=lambda index: state.history[index][1].error_count()
            )
            return state.history[state.kept][0], state
        code = extract_code(response)
    return code, state
