import pytest

from transmigrate.config import DEFAULT_MAX_ROUNDS
from transmigrate.errors import BudgetError, RetryableBackendError
from transmigrate.prompts import render_prompt
from transmigrate.validation.refine import RefinementState, refine_loop, repair_inputs
from transmigrate.validation.issues import IssueRecord, ValidationReport


def marker_check(name: str, code: str) -> ValidationReport:
    """Counts planted BUG markers as error-severity issues."""
    report = ValidationReport()
    for n, line in enumerate(code.splitlines(), start=1):
        if "BUG" in line:
            report.add(IssueRecord(name, n, line.index("BUG") + 1, "error", "planted", "planted bug", "syntax"))
    return report


def warning_check(name: str, code: str) -> ValidationReport:
    report = ValidationReport()
    if "SMELL" in code:
        report.add(IssueRecord(name, 1, 1, "warning", "smell", "stylistic smell", "lint"))
    return report


class Repair:
    """A repair function that rewrites ``old`` to ``new`` (at most
    ``per_call`` times per call, all when None) and records each call."""

    def __init__(self, old: str = "BUG", new: str = "OK", per_call: int | None = None) -> None:
        self.old, self.new, self.per_call = old, new, per_call
        self.calls: list[tuple[str, list[IssueRecord]]] = []

    def __call__(self, code: str, issues: list[IssueRecord]) -> str:
        self.calls.append((code, issues))
        return code.replace(self.old, self.new, -1 if self.per_call is None else self.per_call)


def never_fixes() -> Repair:
    return Repair(new="BUG")


def refine(code: str, repair, check, max_rounds: int = DEFAULT_MAX_ROUNDS):
    """Refine unit U.swift as translate does: round 0 checked first."""
    return refine_loop("U.swift", code, check("U.swift", code), repair, check, max_rounds)


class TestRefineLoop:
    def test_clean_unit_makes_no_backend_calls(self):
        repair = Repair()
        final, state = refine("let a = 1\n", repair, marker_check)
        assert len(repair.calls) == 0
        assert state.repair_calls == 0
        assert len(state.history) == 1
        assert final == "let a = 1\n"

    def test_fix_all_in_one_repair_terminates_at_round_one(self):
        repair = Repair()
        final, state = refine("BUG BUG\n", repair, marker_check)
        assert len(repair.calls) == 1
        assert state.repair_calls == 1
        assert state.history[-1][1].error_count() == 0
        assert "BUG" not in final

    def test_never_fixing_backend_makes_exactly_three_repair_calls(self):
        repair = never_fixes()
        final, state = refine("BUG\n", repair, marker_check, max_rounds=3)
        assert len(repair.calls) == 3
        assert state.repair_calls == 3
        assert state.history[-1][1].error_count() == 1  # unresolved, reported
        assert "BUG" in final

    def test_one_fix_per_round_with_two_issues_ends_at_round_two(self):
        repair = Repair(per_call=1)
        final, state = refine("BUG\nBUG\n", repair, marker_check)
        assert state.repair_calls == 2
        assert len(repair.calls) == 2
        assert state.history[-1][1].error_count() == 0

    def test_round_budget_respected_for_any_bound(self):
        for bound in (0, 1, 2, 5):
            repair = never_fixes()
            _, state = refine("BUG\n", repair, marker_check, max_rounds=bound)
            assert len(repair.calls) == bound
            assert state.repair_calls == bound and len(state.history) == bound + 1
            assert state.kept == bound

    def test_monotone_backend_strictly_decreases_issue_count(self):
        repair = Repair(per_call=1)
        _, state = refine("BUG\nBUG\nBUG\n", repair, marker_check, max_rounds=5)
        counts = [report.error_count() for _, report in state.history]
        assert counts == [3, 2, 1, 0]
        assert all(a > b for a, b in zip(counts, counts[1:]))

    def test_check_sees_the_unit_name_and_each_rounds_candidate_once(self):
        seen = []

        def recording_check(name, code):
            seen.append((name, code))
            return marker_check(name, code)

        repair = Repair(per_call=1)
        code = "BUG\nBUG\n"
        report = recording_check("A.swift", code)
        final, state = refine_loop("A.swift", code, report, repair, recording_check, DEFAULT_MAX_ROUNDS)
        assert seen == [("A.swift", code) for code, _ in state.history]
        assert len(seen) == 3 and seen[-1][1] == final

    def test_warnings_do_not_trigger_repairs(self):
        repair = Repair("SMELL", "CLEAN")
        _, state = refine("SMELL\n", repair, warning_check)
        assert len(repair.calls) == 0
        assert sum(i.source == "lint" for i in state.history[-1][1].all_issues()) == 1

    def test_backend_failure_returns_best_candidate_degraded(self):
        calls = []

        def failing(code, issues):
            calls.append(code)
            raise RetryableBackendError("network down")

        final, state = refine("BUG\n", failing, marker_check)
        assert state.degraded
        assert final == "BUG\n"  # only candidate seen so far
        assert len(calls) == 1

    def test_backend_failure_midway_keeps_fewest_error_candidate(self):
        calls = []

        def fixes_then_fails(code, issues):
            calls.append(code)
            if len(calls) == 1:
                return "BUG"  # drops one of two issues
            raise RetryableBackendError("gone")

        final, state = refine("BUG\nBUG\n", fixes_then_fails, marker_check, max_rounds=4)
        assert state.degraded
        assert final == "BUG"  # single-issue candidate beats the original
        assert state.kept == 1 and state.repair_calls == 1

    def test_backend_failure_keeps_earliest_of_tied_candidates(self):
        calls = []

        def same_then_fails(code, issues):
            calls.append(code)
            if len(calls) == 1:
                return "BUG // reworded"  # as many issues as before
            raise RetryableBackendError("gone")

        final, state = refine("BUG\n", same_then_fails, marker_check, max_rounds=4)
        assert state.degraded and state.kept == 0 and state.repair_calls == 1
        assert final == "BUG\n"

    def test_budget_failure_degrades_and_keeps_fewest_error_round(self):
        calls = []

        def fixes_then_overflows(code, issues):
            calls.append(code)
            if len(calls) == 1:
                return "BUG\nOK\n"  # drops one of two issues
            raise BudgetError("budget 1 is smaller than untruncatable content (9 units) for repair prompt")

        final, state = refine("BUG\nBUG\n", fixes_then_overflows, marker_check, max_rounds=4)
        assert state.degraded
        assert len(calls) == 2 and state.repair_calls == 1
        assert [report.error_count() for _, report in state.history] == [2, 1]
        assert state.kept == 1 and final == "BUG\nOK\n"

    def test_repair_sees_the_current_candidate_and_its_issues(self):
        repair = Repair(per_call=1)
        _, state = refine("BUG\nBUG\n", repair, marker_check)
        assert repair.calls == [(code, report.all_issues()) for code, report in state.history[:-1]]

    def test_other_errors_from_repair_propagate(self):
        def broken(code, issues):
            raise ValueError("not a refinement failure")

        with pytest.raises(ValueError):
            refine("BUG\n", broken, marker_check)


class TestRepairEnvelope:
    def test_diagnostic_lines_above_prior_code(self):
        issues = [IssueRecord("U.swift", 2, 9, "error", None, "keyword 'init' cannot be used as an identifier", "syntax")]
        envelope = render_prompt("repair", repair_inputs("class A { let init = 0 }", issues))
        text = envelope.rendered_text
        assert "U.swift:2:9: error: keyword 'init' cannot be used as an identifier" in text
        assert text.index("Reported Issues:") < text.index("Current Code:")
        assert "class A { let init = 0 }" in text
        assert "Output Requirement:" in text

    def test_state_defaults(self):
        state = RefinementState()
        assert state.repair_calls == 0 and state.kept == 0 and state.history == [] and not state.degraded
