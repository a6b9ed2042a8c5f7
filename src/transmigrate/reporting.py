"""Metrics, failure taxonomy, and report emission.

Three per-project metrics are tracked before and after validation-driven
refinement: percentage of valid translated files, syntax error count, and
lint issue count. A file counts as valid when it passes the syntax check
and has no internal-reference or dependency-graph errors (an automated
proxy for manual review); ``is_valid_file`` is the one place that rule is
applied. Totals recompute the valid percentage from file counts rather
than averaging row percentages.

Issues classify into ten categories across three levels:

    method:  Linting/Code Quality, Syntax Error, Error Handling
    file:    Dependency Mismatch - Internal Reference, Incomplete Translation
    package: Dependency Mismatch - Third-party Libraries, Performance
             Concerns, Platform-Specific - Design Features,
             Platform-Specific - System Settings, Data Storage Inconsistency

A category is its name, a string; its level is ``CATEGORY_LEVELS[category]``.
Anything the cascade cannot place is surfaced as Unclassified, which has no
level, for human review. Review sample sizes use the Cochran formula with
finite-population correction. A sample is a set of positions in the
deduplicated issue pool, drawn seeded and reproducibly.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from statistics import NormalDist
from typing import Sequence

from transmigrate.errors import ArgumentError
from transmigrate.validation.issues import IssueRecord


CATEGORY_LINTING = "Linting/Code Quality"
CATEGORY_SYNTAX = "Syntax Error"
CATEGORY_ERROR_HANDLING = "Error Handling"
CATEGORY_INTERNAL_REFERENCE = "Dependency Mismatch - Internal Reference"
CATEGORY_INCOMPLETE = "Incomplete Translation"
CATEGORY_THIRD_PARTY = "Dependency Mismatch - Third-party Libraries"
CATEGORY_PERFORMANCE = "Performance Concerns"
CATEGORY_DESIGN = "Platform-Specific - Design Features"
CATEGORY_SYSTEM = "Platform-Specific - System Settings"
CATEGORY_STORAGE = "Data Storage Inconsistency"
CATEGORY_UNCLASSIFIED = "Unclassified"

CATEGORY_LEVELS: dict[str, str] = {
    CATEGORY_LINTING: "method",
    CATEGORY_SYNTAX: "method",
    CATEGORY_ERROR_HANDLING: "method",
    CATEGORY_INTERNAL_REFERENCE: "file",
    CATEGORY_INCOMPLETE: "file",
    CATEGORY_THIRD_PARTY: "package",
    CATEGORY_PERFORMANCE: "package",
    CATEGORY_DESIGN: "package",
    CATEGORY_SYSTEM: "package",
    CATEGORY_STORAGE: "package",
}

CATEGORIES = tuple(CATEGORY_LEVELS)
_REPORT_ORDER = (*CATEGORIES, CATEGORY_UNCLASSIFIED)

# The review sample's confidence and margin: sample_size's defaults and the report's notes.
CONFIDENCE = 0.95
MARGIN = 0.05

_PLATFORM_RULE_CATEGORIES = {
    "third_party": CATEGORY_THIRD_PARTY,
    "design": CATEGORY_DESIGN,
    "system": CATEGORY_SYSTEM,
    "storage": CATEGORY_STORAGE,
    "error_handling": CATEGORY_ERROR_HANDLING,
    "residue": CATEGORY_INCOMPLETE,
    "performance": CATEGORY_PERFORMANCE,
}


def classify_issue(issue: IssueRecord) -> str:
    """Deterministic rule cascade from issue source (and, for platform
    issues, the matched rule family) to a taxonomy category."""
    if issue.source == "lint":
        return CATEGORY_LINTING
    if issue.source == "syntax":
        return CATEGORY_SYNTAX
    if issue.source in ("internal_reference", "graph_diff"):
        return CATEGORY_INTERNAL_REFERENCE
    if issue.source == "platform":
        family = (issue.rule or "").split(".", 1)[0]
        return _PLATFORM_RULE_CATEGORIES.get(family, CATEGORY_UNCLASSIFIED)
    return CATEGORY_UNCLASSIFIED


@dataclass
class ProjectMetrics:
    project: str
    total_files: int
    valid_pct_before: float
    valid_pct_after: float
    syntax_before: int
    syntax_after: int
    lint_before: int
    lint_after: int
    # Raw valid-file counts; reconstructed from the rounded percentages
    # when absent (external rows supply only percentages).
    valid_before: int | None = None
    valid_after: int | None = None

    def valid_count(self, when: str) -> int:
        count = self.valid_before if when == "before" else self.valid_after
        if count is not None:
            return count
        pct = self.valid_pct_before if when == "before" else self.valid_pct_after
        return int(math.floor(pct * self.total_files / 100.0 + 0.5))

    def to_row(self) -> dict:
        """The report's row: every field but the raw valid counts."""
        row = dict(vars(self))
        del row["valid_before"], row["valid_after"]
        return row


def is_valid_file(issues: Sequence[IssueRecord]) -> bool:
    """The valid-file rule: no error-severity issue of ``issues``, one
    file's, comes from the syntax check, the reference check or the graph
    comparison."""
    return not any(
        i.severity == "error" and i.source in ("syntax", "internal_reference", "graph_diff") for i in issues
    )


def compute_project_metrics(project: str, files: Sequence[str], before_reports, after_reports) -> ProjectMetrics:
    """Aggregate one project's reports into the three metrics.

    ``files`` names every translated file; ``before_reports`` and
    ``after_reports`` are ValidationReport values whose issues are filed
    under those names. A file with no issue is valid.
    """
    if not files:
        raise ArgumentError("metrics require at least one file")
    total = len(files)
    valid_before, valid_after = (
        sum(is_valid_file(report.files.get(f, ())) for f in files) for report in (before_reports, after_reports)
    )

    def syntax_count(report) -> int:
        return sum(1 for i in report.all_issues() if i.source == "syntax" and i.severity == "error")

    def lint_count(report) -> int:
        return sum(1 for i in report.all_issues() if i.source == "lint")

    return ProjectMetrics(
        project=project,
        total_files=total,
        valid_pct_before=round(100.0 * valid_before / total, 1),
        valid_pct_after=round(100.0 * valid_after / total, 1),
        syntax_before=syntax_count(before_reports),
        syntax_after=syntax_count(after_reports),
        lint_before=lint_count(before_reports),
        lint_after=lint_count(after_reports),
        valid_before=valid_before,
        valid_after=valid_after,
    )


def aggregate_metrics(rows: Sequence[ProjectMetrics]) -> ProjectMetrics:
    """Totals row: counts summed; valid percentage recomputed from summed
    file counts (not averaged from row percentages)."""
    if not rows:
        raise ArgumentError("cannot aggregate an empty metrics list")
    total_files = sum(r.total_files for r in rows)
    valid_before = sum(r.valid_count("before") for r in rows)
    valid_after = sum(r.valid_count("after") for r in rows)
    return ProjectMetrics(
        project="Total",
        total_files=total_files,
        valid_pct_before=round(100.0 * valid_before / total_files, 1),
        valid_pct_after=round(100.0 * valid_after / total_files, 1),
        syntax_before=sum(r.syntax_before for r in rows),
        syntax_after=sum(r.syntax_after for r in rows),
        lint_before=sum(r.lint_before for r in rows),
        lint_after=sum(r.lint_after for r in rows),
        valid_before=valid_before,
        valid_after=valid_after,
    )


def percentage(count: int, population: int, decimals: int = 2) -> float:
    """Share of ``population`` as a percentage rounded half-up."""
    if population <= 0:
        raise ArgumentError("population must be positive")
    raw = 100.0 * count / population
    scale = 10 ** decimals
    return math.floor(raw * scale + 0.5) / scale


def sample_size(
    population: int | float | None,
    confidence: float = CONFIDENCE,
    margin: float = MARGIN,
) -> int:
    """Cochran sample size at maximum variance (p = 0.5) with
    finite-population correction, rounded up. ``population`` of None or
    infinity gives the uncorrected size."""
    if margin <= 0:
        raise ArgumentError(f"margin must be positive, got {margin}")
    if not 0 < confidence < 1:
        raise ArgumentError(f"confidence must be in (0, 1), got {confidence}")
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    n0 = (z * z * 0.25) / (margin * margin)
    if population is None or population == math.inf:
        return math.ceil(n0)
    if population < 1:
        raise ArgumentError(f"population must be >= 1, got {population}")
    corrected = n0 / (1.0 + (n0 - 1.0) / population)
    return min(math.ceil(corrected), int(population))


def draw_sample(population: int, n: int, seed: int) -> list[int]:
    """The sorted positions of a uniform draw of ``n`` of ``population``
    items without replacement, reproducible by seed."""
    if n > population:
        raise ArgumentError(f"sample size {n} exceeds population {population}")
    return sorted(random.Random(seed).sample(range(population), n))


def summarize_labels(categories: Sequence[str]) -> list[dict]:
    """The report's taxonomy rows in canonical order: each present
    category's level, count and percentage (two decimals) of ``categories``.
    A category outside the taxonomy is an ArgumentError."""
    counts = Counter(categories)
    for category in counts:
        if category not in _REPORT_ORDER:
            raise ArgumentError(f"unknown taxonomy category {category!r}")
    return [
        {
            "category": category,
            "level": CATEGORY_LEVELS.get(category),
            "count": counts[category],
            "pct": percentage(counts[category], len(categories), 2),
        }
        for category in _REPORT_ORDER
        if category in counts
    ]


def emit_report(
    metrics: Sequence[ProjectMetrics],
    categories: Sequence[str],
    format: str,
    extras: dict | None = None,
) -> str:
    """Render the final report as JSON or markdown.

    The markdown table mirrors the per-project results layout with
    before/after cells and a totals row; the taxonomy section lists
    per-category counts and percentages (two decimals).
    """
    if format not in ("json", "markdown"):
        raise ArgumentError(f"unknown report format {format!r}")
    totals = aggregate_metrics(metrics)
    taxonomy = summarize_labels(categories)

    if format == "json":
        payload: dict = {
            "projects": [m.to_row() for m in metrics],
            "total": totals.to_row(),
            "taxonomy": taxonomy,
        }
        if extras:
            payload.update(extras)
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    lines = [
        "# Translation Results",
        "",
        "| Project Name | Total Files | Valid Files | # Syntax Errors | # Lint Issues |",
        "| --- | --- | --- | --- | --- |",
    ]
    for m in (*metrics, totals):
        project = f"**{m.project}**" if m is totals else m.project
        lines.append(
            f"| {project} | {m.total_files} | {m.valid_pct_before}% / {m.valid_pct_after}% "
            f"| {m.syntax_before} / {m.syntax_after} | {m.lint_before} / {m.lint_after} |"
        )
    lines += ["", "## Issue Taxonomy", ""]
    if not taxonomy:
        lines.append("no issues sampled")
    else:
        lines.append("| Category | Level | Count | Share |")
        lines.append("| --- | --- | --- | --- |")
        for t in taxonomy:
            lines.append(f"| {t['category']} | {t['level'] or '-'} | {t['count']} | {t['pct']}% |")
    if extras:
        lines += ["", "## Notes", ""]
        for key in sorted(extras):
            lines.append(f"- {key}: {extras[key]}")
    return "\n".join(lines) + "\n"
