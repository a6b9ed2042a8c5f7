"""The output checks pass on real artifacts and fail on corrupted ones.

    python3 perfbench/selftest.py        # or: python3 -m pytest perfbench/selftest.py

Runs the pipeline once on the small-refine workload, requires every check
to pass on what it wrote, then feeds each check a corrupted copy of its
artifact and requires the check to fail. The file is named so that the
repository's own test run does not collect it.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import generate  # noqa: E402
import run  # noqa: E402

SEED = 1


def _rewrite_json(path: Path, edit) -> None:
    payload = json.loads(path.read_text(encoding="utf-8"))
    edit(payload)
    path.write_text(json.dumps(payload), encoding="utf-8")


def _swap_dependent_classes(out: Path, planted: dict) -> None:
    """Move one class behind a same-component class that depends on it."""
    component_of = {c["qualified_name"]: c["component"] for c in planted["classes"]}
    a, b = next((a, b) for a, b in planted["edges"]["field-type"] if component_of[a] == component_of[b])
    path = out / "plan" / "plan.jsonl"
    blocks: list[list[str]] = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if json.loads(line)["kind"] == "method":
            blocks[-1].append(line)
        else:
            blocks.append([line])
    names = [json.loads(block[0])["name"] for block in blocks]
    i, j = names.index(a), names.index(b)
    blocks[i], blocks[j] = blocks[j], blocks[i]
    path.write_text("\n".join(line for block in blocks for line in block) + "\n", encoding="utf-8")


def _duplicate_method(out: Path, _planted: dict) -> None:
    path = out / "plan" / "plan.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines()
    at = next(i for i, line in enumerate(lines) if json.loads(line)["kind"] == "method")
    lines.insert(at, lines[at])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _swap_vectors(out: Path, _planted: dict) -> None:
    path = out / "index" / "index.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines()
    first, second = json.loads(lines[1]), json.loads(lines[2])
    first["v"], second["v"] = second["v"], first["v"]
    lines[1], lines[2] = json.dumps(first), json.dumps(second)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _drop_edge(out: Path, _planted: dict) -> None:
    _rewrite_json(out / "analyze" / "graph_class.json", lambda g: g["edges"].pop())


def _drop_method(out: Path, _planted: dict) -> None:
    _rewrite_json(out / "analyze" / "classes.json", lambda cs: cs[0]["methods"].pop())


def _bump_syntax_after(out: Path, _planted: dict) -> None:
    _rewrite_json(out / "report" / "report.json", lambda r: r["projects"][0].update(syntax_after=1))


def main() -> int:
    workload = generate.WORKLOADS["small-refine"]
    work = run.OUT / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    planted = generate.generate(workload, SEED, work)
    out = work / "run"
    sys.path.insert(0, str(run.SRC))
    result = run.run_child(dict(run.worker_spec(workload, SEED, work), out=str(out)), "run", work)
    result.update(checks.read_reports(out))
    calls = result["backend_calls"]

    cases = {
        "analysis": lambda o: checks.check_analysis(o, planted),
        "plan": lambda o: checks.check_plan(o, planted),
        "report": lambda o: checks.check_report(o, planted, calls),
        "retrieval": lambda o: checks.check_retrieval(o, planted, SEED),
    }
    corruptions = [
        ("analysis", "an edge dropped from graph_class.json", _drop_edge),
        ("analysis", "a method dropped from classes.json", _drop_method),
        ("plan", "a class moved behind a class that depends on it", _swap_dependent_classes),
        ("plan", "a method listed twice", _duplicate_method),
        ("report", "syntax_after raised by one", _bump_syntax_after),
        ("retrieval", "two saved vectors swapped", _swap_vectors),
    ]
    failures = []
    for name, check in cases.items():
        try:
            check(out)
        except checks.CheckFailed as exc:
            failures.append(f"{name} check fails on real artifacts: {exc}")

    def rejects(what: str, check) -> None:
        try:
            check()
        except checks.CheckFailed as exc:
            print(f"ok   {what}: {exc}")
        else:
            failures.append(what)

    copy = work / "corrupt"
    for name, what, corrupt in corruptions:
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(out, copy)
        corrupt(copy, planted)
        rejects(f"{name} check rejects {what}", lambda: cases[name](copy))
    rejects("report check rejects a backend call count off by one",
            lambda: checks.check_report(out, planted, calls + 1))
    changed = dict(result, **{"report.md": result["report.md"] + b" "})
    rejects("identity check rejects a second run whose report.md differs",
            lambda: checks.check_identical([result, changed]))

    shutil.rmtree(work, ignore_errors=True)
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


def test_checks_reject_corrupted_artifacts():
    assert main() == 0


if __name__ == "__main__":
    sys.exit(main())
