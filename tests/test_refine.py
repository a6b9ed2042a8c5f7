from transmigrate.backends import MockBackend, MockRule
from transmigrate.errors import RetryableBackendError
from transmigrate.validation.refine import RefinementState, build_repair_envelope, refine_loop
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


def refine(code: str, backend, check, **kwargs):
    return refine_loop("U.swift", code, backend, check, **kwargs)


class TestRefineLoop:
    def test_clean_unit_makes_no_backend_calls(self):
        backend = MockBackend([MockRule("BUG", "OK")])
        final, state = refine("let a = 1\n", backend, marker_check)
        assert backend.call_count == 0
        assert state.repair_calls == 0
        assert len(state.history) == 1
        assert final == "let a = 1\n"

    def test_fix_all_in_one_repair_terminates_at_round_one(self):
        backend = MockBackend([MockRule("BUG", "OK")])
        final, state = refine("BUG BUG\n", backend, marker_check)
        assert backend.call_count == 1
        assert state.repair_calls == 1
        assert state.history[-1][1].error_count() == 0
        assert "BUG" not in final

    def test_never_fixing_backend_makes_exactly_three_repair_calls(self):
        backend = MockBackend([])  # pass-through
        final, state = refine("BUG\n", backend, marker_check, max_rounds=3)
        assert backend.call_count == 3
        assert state.repair_calls == 3
        assert state.history[-1][1].error_count() == 1  # unresolved, reported
        assert "BUG" in final

    def test_one_fix_per_round_with_two_issues_ends_at_round_two(self):
        backend = MockBackend([MockRule("BUG", "OK")], max_fixes_per_call=1)
        final, state = refine("BUG\nBUG\n", backend, marker_check)
        assert state.repair_calls == 2
        assert backend.call_count == 2
        assert state.history[-1][1].error_count() == 0

    def test_round_budget_respected_for_any_bound(self):
        for bound in (0, 1, 2, 5):
            backend = MockBackend([])
            _, state = refine("BUG\n", backend, marker_check, max_rounds=bound)
            assert backend.call_count == bound
            assert state.repair_calls == bound and len(state.history) == bound + 1
            assert state.kept == bound

    def test_monotone_backend_strictly_decreases_issue_count(self):
        backend = MockBackend([MockRule("BUG", "OK")], max_fixes_per_call=1)
        _, state = refine("BUG\nBUG\nBUG\n", backend, marker_check, max_rounds=5)
        counts = [report.error_count() for _, report in state.history]
        assert counts == [3, 2, 1, 0]
        assert all(a > b for a, b in zip(counts, counts[1:]))

    def test_check_sees_the_unit_name_and_each_rounds_candidate_once(self):
        seen = []

        def recording_check(name, code):
            seen.append((name, code))
            return marker_check(name, code)

        backend = MockBackend([MockRule("BUG", "OK")], max_fixes_per_call=1)
        final, state = refine_loop("A.swift", "BUG\nBUG\n", backend, recording_check)
        assert seen == [("A.swift", code) for code, _ in state.history]
        assert len(seen) == 3 and seen[-1][1] == final

    def test_warnings_do_not_trigger_repairs(self):
        backend = MockBackend([MockRule("SMELL", "CLEAN")])
        _, state = refine("SMELL\n", backend, warning_check)
        assert backend.call_count == 0
        assert sum(i.source == "lint" for i in state.history[-1][1].all_issues()) == 1

    def test_backend_failure_returns_best_candidate_degraded(self):
        class FailingBackend:
            def __init__(self):
                self.call_count = 0

            def translate(self, envelope):
                self.call_count += 1
                raise RetryableBackendError("network down")

        backend = FailingBackend()
        final, state = refine("BUG\n", backend, marker_check)
        assert state.degraded
        assert final == "BUG\n"  # only candidate seen so far
        assert backend.call_count == 1

    def test_backend_failure_midway_keeps_fewest_error_candidate(self):
        class FixesThenFails:
            def __init__(self):
                self.call_count = 0

            def translate(self, envelope):
                self.call_count += 1
                if self.call_count == 1:
                    return "```swift\nBUG\n```"  # drops one of two issues
                raise RetryableBackendError("gone")

        backend = FixesThenFails()
        final, state = refine("BUG\nBUG\n", backend, marker_check, max_rounds=4)
        assert state.degraded
        assert final == "BUG"  # single-issue candidate beats the original
        assert state.kept == 1 and state.repair_calls == 1

    def test_backend_failure_keeps_earliest_of_tied_candidates(self):
        class SameThenFails:
            def __init__(self):
                self.call_count = 0

            def translate(self, envelope):
                self.call_count += 1
                if self.call_count == 1:
                    return "```swift\nBUG // reworded\n```"  # as many issues as before
                raise RetryableBackendError("gone")

        final, state = refine("BUG\n", SameThenFails(), marker_check, max_rounds=4)
        assert state.degraded and state.kept == 0 and state.repair_calls == 1
        assert final == "BUG\n"


class TestRepairEnvelope:
    def test_diagnostic_lines_above_prior_code(self):
        issues = [IssueRecord("U.swift", 2, 9, "error", None, "keyword 'init' cannot be used as an identifier", "syntax")]
        envelope = build_repair_envelope("class A { let init = 0 }", issues)
        text = envelope.rendered_text
        assert "U.swift:2:9: error: keyword 'init' cannot be used as an identifier" in text
        assert text.index("Reported Issues:") < text.index("Current Code:")
        assert "class A { let init = 0 }" in text
        assert "Output Requirement:" in text

    def test_state_defaults(self):
        state = RefinementState()
        assert state.repair_calls == 0 and state.kept == 0 and state.history == [] and not state.degraded
