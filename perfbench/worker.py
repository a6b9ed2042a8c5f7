"""One pipeline run in a fresh interpreter: ``python3 worker.py <spec.json>``.

The spec names the project, the output root, the workload and whether to
trace. The worker times the import of ``transmigrate.pipeline`` plus the
construction of ``Pipeline`` (set-up), then ``Pipeline.run()`` from an
empty output root, and writes its measurements (and, when traced, its
spans and the cost of one span) as JSON to the paths the spec gives. With ``"setup_only"`` it stops
after construction.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import tracing


def _checker_commands(kind: str) -> tuple[str, str]:
    if kind == "stub":
        from transmigrate.validation.tools import stub_tool_commands

        return stub_tool_commands()
    return "true {file}", "true {file}"  # exits 0 with no output: one process start per check


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    recorder = tracing.SpanRecorder() if spec["trace"] else None

    started = time.perf_counter()
    from transmigrate.backends import MockBackend
    from transmigrate.config import RunConfig
    from transmigrate.pipeline import Pipeline

    # Count what is sent to the backend; counters only, no timing.
    sent = {"calls": 0, "units": 0}
    translate = MockBackend.translate

    def counted(self, envelope):
        sent["calls"] += 1
        sent["units"] += envelope.size_estimate
        return translate(self, envelope)

    MockBackend.translate = counted
    if recorder is not None:
        tracing.install(recorder)

    syntax_cmd, lint_cmd = _checker_commands(spec["checker"])
    config = RunConfig.from_dict(
        {
            "source_root": spec["project"],
            "output_root": spec["out"],
            "backend": "mock",
            "project_name": "BenchApp",
            "backend_options": {"rules_file": spec["rules"]},
            "tools": {"syntax_check_cmd": syntax_cmd, "lint_cmd": lint_cmd},
            "prompt_budget": spec["prompt_budget"],
            "seed": spec["seed"],
        }
    )
    pipeline = Pipeline(config)
    setup_s = time.perf_counter() - started
    result = {"setup_s": setup_s}
    if not spec.get("setup_only"):
        started = time.perf_counter()
        pipeline.run()
        result["run_s"] = time.perf_counter() - started
        result["backend_calls"] = sent["calls"]
        result["prompt_units"] = sent["units"]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if recorder is not None:
        result["span_cost_s"] = tracing.span_cost_s()
        Path(spec["spans"]).write_text(json.dumps(recorder.spans), encoding="utf-8")
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
