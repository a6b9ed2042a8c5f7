"""Acceptance suite.

One test per acceptance criterion, each asserting its stated tolerance and
runtime bound and printing a PASS line on success (run with ``pytest -s``
to see them inline).
"""

import math
import random
import shutil
import time
from statistics import NormalDist

import pytest

from conftest import FIXTURE_PROJECT, GOLDEN_DIR, make_run_config
from golden_fixtures import ALL_INPUTS, RETRIEVED

from transmigrate.config import KnowledgeConfig
from transmigrate.knowledge.chunks import DocumentChunk
from transmigrate.knowledge.embed import HashedTokenEmbedder
from transmigrate.knowledge.index import build_index, query
from transmigrate.pipeline import Pipeline
from transmigrate.prompts import render_prompt
from transmigrate.reporting import (
    ProjectMetrics,
    aggregate_metrics,
    percentage,
    sample_size,
)
from transmigrate.scheduler import order_nodes
from transmigrate.validation.refine import refine_loop
from transmigrate.validation.issues import (
    IssueRecord,
    ValidationReport,
    format_diagnostic_line,
    parse_diagnostic_line,
)


def passed(name: str) -> None:
    print(f"ACCEPTANCE {name}: PASS")


def test_criterion_1_table_aggregation_exact():
    started = time.monotonic()
    rows = [
        ProjectMetrics("LeafPic", 132, 46.2, 78.7, 13, 0, 68, 28),
        ProjectMetrics("WeatherApp", 39, 69.2, 94.9, 0, 0, 12, 2),
        ProjectMetrics("AndroidTvMovie", 34, 70.6, 85.3, 0, 0, 10, 5),
        ProjectMetrics("MinimalToDo", 27, 0.0, 44.4, 2, 0, 25, 15),
        ProjectMetrics("NextCloud", 955, 43.0, 68.7, 115, 0, 429, 298),
    ]
    totals = aggregate_metrics(rows)
    assert totals.total_files == 1187
    assert (totals.syntax_before, totals.syntax_after) == (130, 0)
    assert (totals.lint_before, totals.lint_after) == (544, 348)
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"aggregation took {elapsed:.3f}s"
    passed("1 table aggregation")


def test_criterion_2_taxonomy_percentages():
    counts = [91, 63, 51, 22, 13]
    expected = [23.95, 16.58, 13.42, 5.79, 3.42]
    for count, want in zip(counts, expected):
        got = percentage(count, 380, 2)
        assert abs(got - want) <= 0.005, (count, got, want)
    assert abs(percentage(63, 348, 1) - 18.1) <= 0.05
    passed("2 taxonomy percentages")


def test_criterion_3_diagnostic_parse_and_reformat():
    listings = [
        (
            "WeatherApp/HTTPWeatherClient.swift:68:1: warning: Trailing Whitespace Violation: "
            "Lines should not have trailing whitespace (trailing_whitespace)",
            ("WeatherApp/HTTPWeatherClient.swift", 68, 1, "warning", "trailing_whitespace"),
        ),
        (
            "AndroidTvMovie/GlideBackgroundManager.swift:66:1: warning: Line Length Violation: "
            "Line should be 120 characters or less; currently it has 194 characters (line_length)",
            ("AndroidTvMovie/GlideBackgroundManager.swift", 66, 1, "warning", "line_length"),
        ),
    ]
    for line, expected in listings:
        record = parse_diagnostic_line(line, "lint")
        assert record is not None
        assert (record.file, record.line, record.column, record.severity, record.rule) == expected
        assert format_diagnostic_line(record) == line
    passed("3 diagnostic round-trip")


def _verify_order(order, idx_of, out_bits, n):
    """Independent verification of one emitted order.

    Computes reachability closure over bitmasks; for acyclic graphs checks
    the topological property edge-by-edge, for cyclic graphs checks that
    strongly connected groups are contiguous, internally sorted, and placed
    after their dependencies.
    """
    pos = [0] * n
    for position, name in enumerate(order):
        pos[idx_of[name]] = position
    reach = list(out_bits)
    for k in range(n):
        bit = 1 << k
        row_k = reach[k]
        for i in range(n):
            if reach[i] & bit:
                reach[i] |= row_k
    cyclic = any(reach[i] >> i & 1 for i in range(n))
    if not cyclic:
        for i in range(n):
            bits = out_bits[i]
            j = 0
            while bits:
                if bits & 1:
                    assert pos[j] < pos[i], "dependency must precede dependent"
                bits >>= 1
                j += 1
        return
    scc_key = [0] * n
    for i in range(n):
        scc_key[i] = (1 << i) | (reach[i] & _mutual(reach, i, n))
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(scc_key[i], []).append(i)
    for members in groups.values():
        positions = sorted(pos[i] for i in members)
        assert positions[-1] - positions[0] == len(members) - 1, "SCC members must be contiguous"
        ordered_names = sorted(members, key=lambda i: pos[i])
        assert ordered_names == sorted(members), "SCC members must be lexicographic"
    for i in range(n):
        bits = out_bits[i]
        j = 0
        while bits:
            if bits & 1 and scc_key[i] != scc_key[j]:
                assert pos[j] < pos[i], "cross-component dependency must precede"
            bits >>= 1
            j += 1


def _mutual(reach, i, n):
    mask = 0
    for j in range(n):
        if reach[i] >> j & 1 and reach[j] >> i & 1:
            mask |= 1 << j
    return mask


def test_criterion_4_scheduler_soundness_exhaustive_and_random():
    started = time.monotonic()

    # Exhaustive: every simple digraph on up to 5 labeled nodes.
    for n in range(1, 6):
        names = tuple("abcde"[:n])
        idx_of = {name: i for i, name in enumerate(names)}
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        target_names = [[names[j] for j in range(n) if j != i] for i in range(n)]
        for mask in range(1 << len(pairs)):
            deps = {}
            out_bits = [0] * n
            bit = 0
            for i in range(n):
                targets = set()
                for j in range(n):
                    if j == i:
                        continue
                    if mask >> bit & 1:
                        targets.add(names[j])
                        out_bits[i] |= 1 << j
                    bit += 1
                deps[names[i]] = targets
            order = order_nodes(names, deps)
            assert sorted(order) == list(names)
            _verify_order(order, idx_of, out_bits, n)

    # Random graphs on up to 12 nodes, each ordered three times.
    rng = random.Random(2024)
    for _ in range(1000):
        n = rng.randint(2, 12)
        names = tuple(f"n{i:02d}" for i in range(n))
        idx_of = {name: i for i, name in enumerate(names)}
        deps = {name: set() for name in names}
        out_bits = [0] * n
        for _ in range(rng.randint(0, 3 * n)):
            a, b = rng.sample(range(n), 2)
            deps[names[a]].add(names[b])
            out_bits[a] |= 1 << b
        runs = [order_nodes(names, deps) for _ in range(3)]
        assert runs[0] == runs[1] == runs[2], "orders must be deterministic across repeats"
        _verify_order(runs[0], idx_of, out_bits, n)

    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"scheduler soundness sweep took {elapsed:.1f}s"
    passed(f"4 scheduler soundness ({elapsed:.1f}s)")


def test_criterion_5_retrieval_exactness_at_scale(tmp_path):
    started = time.monotonic()
    rng = random.Random(31)
    vocabulary = [f"word{i}" for i in range(120)]
    chunks = [
        DocumentChunk(f"c{i:04d}", "api_doc", " ".join(rng.choices(vocabulary, k=rng.randint(4, 40))))
        for i in range(1000)
    ]
    embedder = HashedTokenEmbedder(KnowledgeConfig.embedding_dimension)
    index = build_index(chunks, embedder, tmp_path / "chunks.jsonl")

    vectors = {c.chunk_id: embedder.embed([c.text])[0] for c in chunks}

    def oracle(text, k):
        q = embedder.embed([text])[0]
        qn = math.sqrt(float(q @ q))
        scored = []
        for cid, v in vectors.items():
            vn = math.sqrt(float(v @ v))
            scored.append((cid, float(q @ v) / (qn * vn)))
        scored.sort(key=lambda p: (-round(p[1], 12), p[0]))
        return [cid for cid, _ in scored[:k]]

    queries = [" ".join(rng.choices(vocabulary, k=rng.randint(2, 8))) for _ in range(100)]
    for text in queries:
        for k in (1, 3, 10):
            got = [r.chunk.chunk_id for r in query(index, text, k, embedder)]
            assert got == oracle(text, k), (text, k)
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"retrieval sweep took {elapsed:.1f}s"
    passed(f"5 retrieval exactness ({elapsed:.1f}s)")


def _bug_check(name: str, code: str) -> ValidationReport:
    report = ValidationReport()
    for n, line in enumerate(code.splitlines(), start=1):
        if "BUG" in line:
            report.add(IssueRecord(name, n, 1, "error", "planted", "planted bug", "syntax"))
    return report


def test_criterion_6_refinement_bounds():
    # Never-fixing repair: exactly three repair calls for every unit.
    for i in range(20):
        calls = []

        def never_fix(code, issues):
            calls.append(code)
            return code

        name, code = f"unit{i:02d}.swift", f"let x{i} = BUG\n"
        _, state = refine_loop(name, code, _bug_check(name, code), never_fix, _bug_check, max_rounds=3)
        assert len(calls) == 3, f"unit {i} made {len(calls)} repair calls"
        assert state.history[-1][1].error_count() == 1  # unresolved, still reported

    # One fix per round with two planted issues: clean at round two.
    for i in range(20):
        name = f"unit{i:02d}.swift"
        _, state = refine_loop(
            name,
            "BUG\nBUG\n",
            _bug_check(name, "BUG\nBUG\n"),
            lambda code, issues: code.replace("BUG", "OK", 1),
            _bug_check,
            max_rounds=3,
        )
        assert state.repair_calls == 2
        assert state.history[-1][1].error_count() == 0
    passed("6 refinement bounds")


def test_criterion_7_prompt_fidelity_against_golden():
    for level in ("method", "class", "component", "project"):
        envelope = render_prompt(level, dict(ALL_INPUTS[level]), retrieved=RETRIEVED)
        golden = (GOLDEN_DIR / f"prompt_{level}.txt").read_text(encoding="utf-8")
        assert envelope.rendered_text == golden, f"{level} prompt deviates from golden rendering"
    passed("7 prompt fidelity")


def test_criterion_8_end_to_end_determinism(tmp_path, monkeypatch):
    started = time.monotonic()

    def fresh_run(name):
        root = tmp_path / name
        shutil.copytree(FIXTURE_PROJECT, root / "project")
        config = make_run_config(root / "project", root / "out")
        Pipeline(config).run()
        return (
            (root / "out" / "report" / "report.json").read_bytes(),
            (root / "out" / "report" / "report.md").read_bytes(),
        )

    first = fresh_run("one")
    second = fresh_run("two")
    assert first == second, "two fresh runs must be byte-identical"

    # Interrupted at the translate stage, then resumed.
    root = tmp_path / "resume"
    shutil.copytree(FIXTURE_PROJECT, root / "project")
    config = make_run_config(root / "project", root / "out")
    real_factory = Pipeline._backend

    class CrashingBackend:
        def __init__(self, inner, budget):
            self.inner, self.budget = inner, budget

        def translate(self, envelope):
            if self.budget <= 0:
                raise RuntimeError("interrupted")
            self.budget -= 1
            return self.inner.translate(envelope)

    monkeypatch.setattr(Pipeline, "_backend", lambda self: CrashingBackend(real_factory(self), 4))
    with pytest.raises(RuntimeError):
        Pipeline(config).run()
    monkeypatch.setattr(Pipeline, "_backend", real_factory)
    Pipeline(config).run()
    resumed = (
        (root / "out" / "report" / "report.json").read_bytes(),
        (root / "out" / "report" / "report.md").read_bytes(),
    )
    assert resumed == first, "interrupt-resume run must match a fresh run"

    elapsed = time.monotonic() - started
    assert elapsed < 120.0, f"end-to-end determinism sweep took {elapsed:.1f}s"
    passed(f"8 end-to-end determinism ({elapsed:.1f}s)")


def test_criterion_9_cochran_sample_sizes():
    assert sample_size(None, confidence=0.95, margin=0.05) == 385
    assert sample_size(380, confidence=0.95, margin=0.05) == 192

    # Independent oracle: explicit Cochran arithmetic.
    z = NormalDist().inv_cdf(0.975)
    n0 = z * z * 0.25 / 0.0025
    assert math.ceil(n0) == 385
    assert math.ceil(n0 / (1 + (n0 - 1) / 380)) == 192
    passed("9 sample sizes")
