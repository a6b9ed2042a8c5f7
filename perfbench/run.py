"""Benchmark of the transmigrate pipeline on seeded synthetic Android projects.

    python3 perfbench/run.py --workload small-refine --seed 1 --seconds 15 --trace 0

Run from the repository root. For each workload the benchmark generates
the project from the seed, then runs the whole pipeline with the mock
backend in fresh interpreters, one run per round, until ``--seconds`` have
passed (at least two rounds, so two runs of one seed can be compared). It
checks every output against values computed apart from the pipeline and
prints the end-to-end metrics (medians over rounds) by name and unit.

With ``--trace 1`` each round is an untraced run followed by a traced
one; the traced run records spans around each layer's public functions
and the benchmark prints the per-layer metrics instead, plus the tracing
overhead (spans times the cost of one span). ``--workload all`` runs every
workload in turn. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; an operation is one
pipeline run. The exit code is 1 when a run or a check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import generate
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

END_TO_END = [
    ("run_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("backend_calls", "calls"),
    ("prompt_units", "units"),
]
MIN_ROUNDS = 2
SETUP_SAMPLES = 10  # set-up-only interpreters before the rounds and again after them
CHILD_TIMEOUT_S = 150


class RoundFailed(Exception):
    pass


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # a 2-core host: keep numpy from starting a thread pool
    return env


def run_child(spec: dict, tag: str, work: Path) -> dict:
    spec = dict(spec, result=str(work / f"{tag}.result.json"), spans=str(work / f"{tag}.spans.json"))
    spec_path = work / f"{tag}.spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), str(spec_path)],
            cwd=ROOT,
            env=_child_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise RoundFailed(f"{tag}: no result after {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise RoundFailed(f"{tag}: worker exited {proc.returncode}:\n{proc.stdout[-2000:]}")
    result = json.loads(Path(spec["result"]).read_text(encoding="utf-8"))
    if spec["trace"]:
        result["spans"] = json.loads(Path(spec["spans"]).read_text(encoding="utf-8"))
    return result


def worker_spec(workload: generate.Workload, seed: int, work: Path) -> dict:
    return {
        "project": str(work / "project"),
        "rules": str(BENCH / "rules.json"),
        "checker": workload.checker,
        "prompt_budget": workload.prompt_budget,
        "seed": seed,
        "trace": False,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = generate.WORKLOADS[name]
    work = OUT / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    planted = generate.generate(workload, seed, work)
    spec = worker_spec(workload, seed, work)

    def sample_setup(first: int) -> list[float]:
        return [
            run_child(dict(spec, out=str(work / "setup"), setup_only=True), f"setup{i:02d}", work)["setup_s"]
            for i in range(first, first + SETUP_SAMPLES)
        ]

    # Set-up-only interpreters first: they also warm the file cache and the
    # bytecode cache before any round is timed. More follow the rounds, so
    # the median of set-up times spans the whole run.
    setup = sample_setup(0)
    runs: list[dict] = []  # untraced
    traced: list[dict] = []
    failures: list[str] = []
    attempted = 0
    started = time.perf_counter()
    while not failures and (
        len(runs) < (1 if trace else MIN_ROUNDS) or time.perf_counter() - started < seconds
    ):
        for is_traced in ((False, True) if trace else (False,)):
            attempted += 1
            tag = f"round{attempted:02d}"
            out = work / tag
            try:
                result = run_child(dict(spec, out=str(out), trace=is_traced), tag, work)
            except RoundFailed as exc:
                failures.append(str(exc))
                break
            result.update(checks.read_reports(out))
            (traced if is_traced else runs).append(result)
            if attempted > 1:
                shutil.rmtree(out)
    setup += sample_setup(SETUP_SAMPLES) + [r["setup_s"] for r in runs]

    problems: list[str] = []
    if not failures:
        first = work / "round01"
        for check in (
            lambda: checks.check_analysis(first, planted),
            lambda: checks.check_plan(first, planted),
            lambda: checks.check_report(first, planted, runs[0]["backend_calls"]),
            lambda: checks.check_retrieval(first, planted, seed),
            lambda: checks.check_identical(runs + traced),
        ):
            try:
                check()
            except checks.CheckFailed as exc:
                problems.append(str(exc))

    summary = {
        "workload": name,
        "seed": seed,
        "attempted": attempted,
        "failed": len(failures),
        "correct": not failures and not problems,
        "problems": failures + problems,
        "rounds": len(runs),
        "round_run_s": [r["run_s"] for r in runs],
        "setup_samples_s": setup,
    }
    if runs:
        summary["end_to_end"] = {
            "run_s": statistics.median(r["run_s"] for r in runs),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
            "backend_calls": runs[0]["backend_calls"],
            "prompt_units": runs[0]["prompt_units"],
        }
    if traced:
        layers = tracing.median_metrics([tracing.layer_metrics(r["spans"]) for r in traced])
        layers["tracing.overhead_s"] = statistics.median(r["span_cost_s"] * len(r["spans"]) for r in traced)
        summary["per_layer"] = layers
        summary["traced_run_s"] = statistics.median(r["run_s"] for r in traced)
        summary["spans"] = tracing.self_time_table(traced[0]["spans"])
    if summary["correct"]:  # a failed run keeps its project and first round for inspection
        shutil.rmtree(work / "project", ignore_errors=True)
        for path in work.glob("round*"):
            shutil.rmtree(path, ignore_errors=True)
        shutil.rmtree(work / "setup", ignore_errors=True)
        for path in work.glob("*.json"):
            if path.name != "planted.json":
                path.unlink()
    (work / "summary.json").write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return summary


def print_summary(summary: dict) -> None:
    print(f"== {summary['workload']} (seed {summary['seed']}): {summary['rounds']} untraced round(s), "
          f"{summary['attempted']} pipeline run(s), {summary['failed']} failed")
    for problem in summary["problems"]:
        print(f"   CHECK FAILED: {problem}")
    units = dict(END_TO_END)
    for key, value in summary.get("end_to_end", {}).items():
        print(f"   {key:<34} {value:>14.4f} {units[key]}")
    if "per_layer" in summary:
        layer_units = dict(tracing.LAYER_METRICS)
        print(f"   -- per layer (traced run: run_s {summary['traced_run_s']:.4f} s) --")
        for key, value in summary["per_layer"].items():
            print(f"   {key:<34} {value:>14.4f} {layer_units[key]}")
        print("   -- spans by self time: name, calls, self s, total s --")
        for name, calls, own, total in summary["spans"]:
            print(f"   {name:<34} {calls:>7} {own:>10.4f} {total:>10.4f}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *generate.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "transmigrate" / "pipeline.py").is_file():
        print(f"run.py: no transmigrate sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the retrieval check calls the pipeline's own query

    names = list(generate.WORKLOADS) if args.workload == "all" else [args.workload]
    summaries = []
    for name in names:
        summary = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_summary(summary)
        summaries.append(summary)

    section, units = ("per_layer", dict(tracing.LAYER_METRICS)) if args.trace else ("end_to_end", dict(END_TO_END))
    metrics = {}
    for s in summaries:
        prefix = "" if len(summaries) == 1 else f"{s['workload']}."
        for key, value in s.get(section, {}).items():
            metrics[prefix + key] = {"value": value, "unit": units[key]}
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }))
    return 0 if all(s["correct"] for s in summaries) else 1


if __name__ == "__main__":
    sys.exit(main())
