import hashlib
import json
import math
import random
from statistics import NormalDist

import pytest

from transmigrate.errors import ArgumentError
from transmigrate.reporting import (
    CATEGORIES,
    CATEGORY_DESIGN,
    CATEGORY_INCOMPLETE,
    CATEGORY_INTERNAL_REFERENCE,
    CATEGORY_LEVELS,
    CATEGORY_LINTING,
    CATEGORY_SYNTAX,
    CATEGORY_SYSTEM,
    CATEGORY_THIRD_PARTY,
    CATEGORY_UNCLASSIFIED,
    ProjectMetrics,
    aggregate_metrics,
    classify_issue,
    compute_project_metrics,
    draw_sample,
    emit_report,
    is_valid_file,
    percentage,
    sample_size,
    summarize_labels,
)
from transmigrate.validation.issues import IssueRecord, ValidationReport

TABLE_ROWS = [
    ProjectMetrics("LeafPic", 132, 46.2, 78.7, 13, 0, 68, 28),
    ProjectMetrics("WeatherApp", 39, 69.2, 94.9, 0, 0, 12, 2),
    ProjectMetrics("AndroidTvMovie", 34, 70.6, 85.3, 0, 0, 10, 5),
    ProjectMetrics("MinimalToDo", 27, 0.0, 44.4, 2, 0, 25, 15),
    ProjectMetrics("NextCloud", 955, 43.0, 68.7, 115, 0, 429, 298),
]


def issue(source, rule=None, severity="error", file="a.swift", line=1, message="m"):
    return IssueRecord(file, line, 1, severity, rule, message, source)


class TestProjectMetrics:
    def test_percentage_arithmetic(self):
        before = ValidationReport()
        before.add(issue("syntax", file="f0.swift"))
        files = [f"f{i}.swift" for i in range(4)]  # 3 of 4 valid
        metrics = compute_project_metrics("P", files, before, ValidationReport())
        assert metrics.valid_pct_before == 75.0
        assert metrics.valid_pct_after == 100.0
        assert metrics.total_files == 4

    @pytest.mark.parametrize("severity", ["error", "warning"])
    @pytest.mark.parametrize("source", ["syntax", "lint", "internal_reference", "graph_diff", "platform"])
    def test_validity_rule_by_source_and_severity(self, source, severity):
        # Only an error from the syntax check, the reference check or the
        # graph comparison makes its file invalid; b.swift has no issue.
        report = ValidationReport()
        report.add(issue(source, severity=severity, file="a.swift"))
        invalid = severity == "error" and source in ("syntax", "internal_reference", "graph_diff")
        assert is_valid_file(report.files["a.swift"]) is not invalid
        assert is_valid_file([]) is True
        metrics = compute_project_metrics("P", ["a.swift", "b.swift"], report, ValidationReport())
        assert (metrics.valid_before, metrics.valid_after) == (1 if invalid else 2, 2)

    def test_counts_by_source_and_severity(self):
        before = ValidationReport()
        before.extend(
            [
                issue("syntax"),
                issue("syntax", severity="warning"),  # not counted: not an error
                issue("lint", severity="warning"),
                issue("lint", severity="error"),
                issue("platform"),
            ]
        )
        after = ValidationReport()
        metrics = compute_project_metrics("P", ["a.swift"], before, after)
        assert metrics.syntax_before == 1
        assert metrics.lint_before == 2  # lint issues counted at any severity
        assert metrics.syntax_after == 0 and metrics.lint_after == 0

    def test_zero_files_rejected(self):
        with pytest.raises(ArgumentError):
            compute_project_metrics("P", [], ValidationReport(), ValidationReport())


class TestAggregation:
    def test_published_rows_reproduce_totals_exactly(self):
        totals = aggregate_metrics(TABLE_ROWS)
        assert totals.total_files == 1187
        assert (totals.syntax_before, totals.syntax_after) == (130, 0)
        assert (totals.lint_before, totals.lint_after) == (544, 348)

    def test_total_percentage_recomputed_from_file_counts(self):
        totals = aggregate_metrics(TABLE_ROWS)
        reconstructed_valid = sum(r.valid_count("before") for r in TABLE_ROWS)
        assert totals.valid_pct_before == round(100.0 * reconstructed_valid / 1187, 1)

    def test_single_project_is_identity(self):
        row = TABLE_ROWS[1]
        totals = aggregate_metrics([row])
        assert totals.total_files == row.total_files
        assert totals.syntax_before == row.syntax_before
        assert totals.lint_after == row.lint_after
        assert totals.valid_pct_before == row.valid_pct_before

    def test_empty_list_rejected(self):
        with pytest.raises(ArgumentError):
            aggregate_metrics([])


class TestClassifier:
    def test_lint_issue_is_linting_quality(self):
        category = classify_issue(issue("lint", rule="trailing_whitespace", severity="warning"))
        assert (category, CATEGORY_LEVELS[category]) == (CATEGORY_LINTING, "method")

    def test_reserved_keyword_diagnostic_is_syntax_error(self):
        category = classify_issue(
            issue("syntax", message="keyword 'init' cannot be used as an identifier")
        )
        assert (category, CATEGORY_LEVELS[category]) == (CATEGORY_SYNTAX, "method")

    def test_missing_reference_is_internal_dependency_mismatch(self):
        category = classify_issue(
            issue("internal_reference", rule="missing_definition", message="FetchThreadData undefined")
        )
        assert (category, CATEGORY_LEVELS[category]) == (CATEGORY_INTERNAL_REFERENCE, "file")

    def test_graph_diff_maps_to_internal_dependency_mismatch(self):
        category = classify_issue(issue("graph_diff", rule="missing_edge"))
        assert (category, CATEGORY_LEVELS[category]) == (CATEGORY_INTERNAL_REFERENCE, "file")

    @pytest.mark.parametrize(
        "rule,category",
        [
            ("third_party.glide", CATEGORY_THIRD_PARTY),
            ("design.resource_drawable", CATEGORY_DESIGN),
            ("system.runtime_permission", CATEGORY_SYSTEM),
            ("storage.sqlite_helper", "Data Storage Inconsistency"),
            ("error_handling.java_exceptions", "Error Handling"),
            ("residue.intent", CATEGORY_INCOMPLETE),
            ("performance.single_window", "Performance Concerns"),
        ],
    )
    def test_platform_rule_families(self, rule, category):
        got = classify_issue(issue("platform", rule=rule))
        assert (got, CATEGORY_LEVELS[got]) == (category, CATEGORY_LEVELS[category])

    def test_unknown_platform_rule_falls_back_to_unclassified(self):
        category = classify_issue(issue("platform", rule="mystery.rule"))
        assert category == CATEGORY_UNCLASSIFIED and CATEGORY_LEVELS.get(category) is None

    def test_totality_every_issue_maps_to_one_category(self):
        rng = random.Random(4)
        sources = ["lint", "syntax", "internal_reference", "graph_diff", "platform"]
        rules = [None, "third_party.x", "design.y", "noise", "storage.z", "residue.q"]
        for _ in range(200):
            record = issue(rng.choice(sources), rule=rng.choice(rules))
            category = classify_issue(record)
            assert category in set(CATEGORIES) | {CATEGORY_UNCLASSIFIED}
            if category != CATEGORY_UNCLASSIFIED:
                assert CATEGORY_LEVELS[category] in ("method", "file", "package")

    def test_level_mapping_is_fixed(self):
        method_level = {"Linting/Code Quality", "Syntax Error", "Error Handling"}
        file_level = {CATEGORY_INTERNAL_REFERENCE, CATEGORY_INCOMPLETE}
        for category in CATEGORIES:
            expected = (
                "method" if category in method_level else "file" if category in file_level else "package"
            )
            assert CATEGORY_LEVELS[category] == expected
            assert summarize_labels([category])[0]["level"] == expected

    def test_category_outside_the_taxonomy_rejected(self):
        with pytest.raises(ArgumentError, match="unknown taxonomy category 'Typo'"):
            summarize_labels([CATEGORY_LINTING, "Typo"])
        with pytest.raises(ArgumentError, match="unknown taxonomy category 'Typo'"):
            emit_report(TABLE_ROWS, [CATEGORY_LINTING, "Typo"], "json")


class TestSampling:
    def test_infinite_population_cochran(self):
        assert sample_size(None) == 385
        assert sample_size(math.inf) == 385

    def test_finite_population_correction(self):
        assert sample_size(380) == 192

    def test_against_independent_arithmetic_oracle(self):
        z = NormalDist().inv_cdf(0.975)
        n0 = z * z * 0.25 / (0.05 * 0.05)
        for population in (50, 380, 1000, 100000):
            expected = math.ceil(n0 / (1 + (n0 - 1) / population))
            assert sample_size(population) == min(expected, population)

    def test_sample_never_exceeds_population(self):
        for population in (1, 2, 10, 100):
            assert sample_size(population) <= population

    def test_invalid_margin(self):
        with pytest.raises(ArgumentError):
            sample_size(100, margin=0)

    def test_draw_reproducible_by_seed(self):
        a = draw_sample(30, 10, seed=42)
        b = draw_sample(30, 10, seed=42)
        assert a == b
        c = draw_sample(30, 10, seed=43)
        assert c != a

    @pytest.mark.parametrize(
        "seed, first, digest",
        [
            (1, [6, 8, 23, 34, 37], "60d79454f45b2d946c1e3bd1e146b29630235497ebbfcbd33154fc9d909045eb"),
            (7, [0, 7, 16, 49, 58], "ddb28d002fecb38d999a4d221fa5f07306a4b2dcc9a5fd2e9498e52e19b6910b"),
            (42, [2, 8, 13, 26, 29], "932cb9af7ec5ed671d11a2647ecef91fadc1fa5bd04a41cb4cfd1345fff35220"),
        ],
    )
    def test_draw_keeps_the_positions_of_the_id_string_draw(self, seed, first, digest):
        # Pinned from the draw over position-qualified id strings that this
        # draw over positions replaced: the same seed keeps the same issues.
        # The digest is SHA-256 of the comma-joined sorted positions.
        positions = draw_sample(2500, sample_size(2500), seed)
        assert len(positions) == 334 and positions == sorted(set(positions))
        assert positions[:5] == first
        assert hashlib.sha256(",".join(map(str, positions)).encode()).hexdigest() == digest

    def test_draw_larger_than_population_rejected(self):
        with pytest.raises(ArgumentError):
            draw_sample(1, 2, seed=1)


class TestPercentages:
    def test_reported_taxonomy_shares(self):
        for count, expected in zip([91, 63, 51, 22, 13], [23.95, 16.58, 13.42, 5.79, 3.42]):
            assert abs(percentage(count, 380) - expected) <= 0.005

    def test_unfixable_lint_ratio(self):
        assert abs(percentage(63, 348, 1) - 18.1) <= 0.05

    def test_consistency_re_multiplication(self):
        rng = random.Random(8)
        for _ in range(300):
            population = rng.randint(1, 5000)
            count = rng.randint(0, population)
            pct = percentage(count, population)
            assert abs(pct * population / 100.0 - count) <= 0.005 * population


class TestEmitReport:
    def labels(self):
        return (
            [CATEGORY_LINTING] * 91
            + [CATEGORY_INCOMPLETE] * 63
            + [CATEGORY_SYNTAX] * 22
            + [CATEGORY_INTERNAL_REFERENCE] * 91
            + [CATEGORY_THIRD_PARTY] * 113
        )

    def test_json_schema_keys(self):
        payload = json.loads(emit_report(TABLE_ROWS, self.labels(), "json"))
        row = payload["projects"][0]
        assert set(row) == {
            "project",
            "total_files",
            "valid_pct_before",
            "valid_pct_after",
            "syntax_before",
            "syntax_after",
            "lint_before",
            "lint_after",
        }
        assert payload["total"]["total_files"] == 1187
        entry = payload["taxonomy"][0]
        assert set(entry) == {"category", "level", "count", "pct"}

    def test_taxonomy_percentages_two_decimals(self):
        rows = summarize_labels(self.labels())
        by_cat = {row["category"]: row for row in rows}
        assert by_cat[CATEGORY_LINTING]["count"] == 91
        assert by_cat[CATEGORY_LINTING]["pct"] == 23.95
        assert by_cat[CATEGORY_INCOMPLETE]["pct"] == 16.58

    def test_markdown_layout(self):
        text = emit_report(TABLE_ROWS, self.labels(), "markdown")
        assert "| Project Name | Total Files | Valid Files | # Syntax Errors | # Lint Issues |" in text
        assert "| LeafPic | 132 | 46.2% / 78.7% | 13 / 0 | 68 / 28 |" in text
        assert "| **Total** | 1187 | " in text

    def test_empty_labels_section(self):
        text = emit_report(TABLE_ROWS, [], "markdown")
        assert "no issues sampled" in text

    def test_unknown_format_rejected(self):
        with pytest.raises(ArgumentError):
            emit_report(TABLE_ROWS, [], "xml")


# Review-set size of the reference evaluation this tool's sampling follows
# (95% confidence; the underlying population size was not published).
REFERENCE_REVIEW_SET_SIZE = 380


def test_reference_review_set_size_constant():
    # The finite-population-corrected sample of that set is reproducible.
    assert sample_size(REFERENCE_REVIEW_SET_SIZE) == 192
