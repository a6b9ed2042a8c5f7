"""Unified diagnostic model and the canonical diagnostic line format.

External tools (compiler, linter) and internal checks (reference scan,
graph comparison, platform residue scan) all produce IssueRecord values.
The canonical line shape is::

    path:line:col: severity: message (rule_id)

with the trailing parenthesized rule id optional. Parsing and formatting
round-trip exactly, which keeps repair prompts and logs consistent with
raw tool output.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

_DIAG_RE = re.compile(
    r"^(?P<file>[^\s:][^:\n]*):(?P<line>\d+):(?P<col>\d+):\s*"
    r"(?P<severity>error|warning):\s*(?P<message>.*)$"
)
_RULE_SUFFIX_RE = re.compile(r"\s\((?P<rule>[a-z][a-z0-9_.]*)\)$")


@dataclass
class IssueRecord:
    file: str
    line: int | None
    column: int | None
    severity: str  # "error" | "warning"
    rule: str | None
    message: str
    source: str  # syntax, lint, internal_reference, graph_diff or platform


def parse_diagnostic_line(line: str, source: str) -> IssueRecord | None:
    """Parse one tool-output line; unrecognized shapes yield None so the
    caller can skip them."""
    m = _DIAG_RE.match(line.strip())
    if m is None:
        return None
    message = m.group("message").strip()
    rule = None
    rule_match = _RULE_SUFFIX_RE.search(message)
    if rule_match is not None:
        rule = rule_match.group("rule")
        message = message[: rule_match.start()]
    return IssueRecord(
        file=m.group("file"),
        line=int(m.group("line")),
        column=int(m.group("col")),
        severity=m.group("severity"),
        rule=rule,
        message=message,
        source=source,
    )


def format_diagnostic_line(issue: IssueRecord) -> str:
    """The canonical line for an issue; inverse of parse_diagnostic_line."""
    line = issue.line or 1
    col = issue.column or 1
    text = f"{issue.file}:{line}:{col}: {issue.severity}: {issue.message}"
    if issue.rule:
        text += f" ({issue.rule})"
    return text


def parse_tool_output(output: str, source: str) -> list[IssueRecord]:
    """The issues of every recognizable diagnostic line; other lines are
    skipped."""
    issues = []
    for line in output.splitlines():
        record = parse_diagnostic_line(line, source)
        if record is not None:
            issues.append(record)
    return issues


@dataclass
class ValidationReport:
    """Issues grouped by file."""

    files: dict[str, list[IssueRecord]] = field(default_factory=dict)

    def add(self, issue: IssueRecord) -> None:
        self.files.setdefault(issue.file, []).append(issue)

    def extend(self, issues: list[IssueRecord]) -> None:
        for issue in issues:
            self.add(issue)

    def all_issues(self) -> list[IssueRecord]:
        return [issue for name in sorted(self.files) for issue in self.files[name]]

    def error_count(self) -> int:
        return sum(1 for i in self.all_issues() if i.severity == "error")

    def merged_with(self, other: "ValidationReport") -> "ValidationReport":
        merged = ValidationReport()
        merged.extend(self.all_issues())
        merged.extend(other.all_issues())
        return merged

    def to_dict(self) -> dict:
        return {"files": {name: [vars(i) for i in issues] for name, issues in sorted(self.files.items())}}

    @classmethod
    def from_dict(cls, payload: dict) -> "ValidationReport":
        report = cls()
        report.extend([IssueRecord(**rec) for issues in payload.get("files", {}).values() for rec in issues])
        return report
