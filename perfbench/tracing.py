"""Span recorder for the traced run, and the per-layer metrics it yields.

Spans are recorded from outside the program: public functions of each
layer are replaced by wrappers. A function imported by name is replaced in
every ``transmigrate`` module that holds it, so calls through any import
path are seen. Each span is ``[name, start, end, parent, attrs]`` with
``parent`` the index of the enclosing span (-1 at the top); spans stay in
memory until the worker writes them out at the end of its run.

A span's self time is its duration minus the durations of its direct
children (the run is single-threaded, so children nest strictly). The cost
of tracing itself is the number of spans times what one wrapper adds to a
call, timed on a no-op (``span_cost_s``).
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, attrs=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if attrs is not None:
                rec[4] = attrs(args, result)
            return result

        traced.__wrapped__ = fn
        return traced


def span_cost_s() -> float:
    """Seconds one span adds to a call: the best of five loops of 20,000
    wrapped no-op calls minus the best of five bare ones, per call."""
    calls, repeats = 20_000, 5

    def noop():
        return None

    recorder = SpanRecorder()
    wrapped = recorder.wrap("noop", noop)

    def best(fn) -> float:
        times = []
        for _ in range(repeats):
            recorder.spans.clear()
            started = time.perf_counter()
            for _ in range(calls):
                fn()
            times.append(time.perf_counter() - started)
        return min(times)

    return (best(wrapped) - best(noop)) / calls


def _replace_everywhere(original, replacement) -> None:
    for mod_name, module in list(sys.modules.items()):
        if module is None or not mod_name.startswith("transmigrate"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _envelope_attrs(args, _result):
    envelope = args[1]
    return {"repair": "prior_code" in envelope.slots, "units": envelope.size_estimate}


def _refine_attrs(_args, result):
    _unit, state = result
    errors = [report.error_count() for _code, report in state.history]
    lowered = sum(1 for before, after in zip(errors, errors[1:]) if after < before)
    return {"rounds": len(errors), "repairs": state.repair_calls, "lowered": lowered}


def _index_bytes(args, _result):
    return {"bytes": Path(args[1]).stat().st_size + Path(args[2]).stat().st_size}


# (span name, module, attribute, attrs) -- "Class.method" names a method.
TARGETS = [
    *[(f"pipeline.{s}", "transmigrate.pipeline", f"Pipeline.stage_{s}", None)
      for s in ("analyze", "index", "plan", "translate", "validate", "report")],
    ("pipeline.hash_source_tree", "transmigrate.pipeline", "hash_source_tree", None),
    ("pipeline.state_save", "transmigrate.pipeline", "PipelineState.save", None),
    ("sourcemodel.parse", "transmigrate.sourcemodel.parser", "parse_source",
     lambda a, _r: {"bytes": len(a[0].data), "key": hash((a[0].language, a[0].text))}),
    ("sourcemodel.extract", "transmigrate.sourcemodel.extract", "extract_classes", None),
    ("sourcemodel.graph", "transmigrate.sourcemodel.graph", "build_dependency_graph",
     lambda _a, r: {"edges": len(r.edges)}),
    ("scheduler.build_plan", "transmigrate.scheduler", "build_plan", None),
    ("scheduler.order_nodes", "transmigrate.scheduler", "order_nodes", None),
    ("knowledge.ingest", "transmigrate.knowledge.chunks", "ingest_repository",
     lambda _a, r: {"chunks": len(r)}),
    ("knowledge.embed", "transmigrate.knowledge.embed", "HashedTokenEmbedder.embed", None),
    ("knowledge.index_save", "transmigrate.knowledge.index", "VectorIndex.save", _index_bytes),
    ("knowledge.index_load", "transmigrate.knowledge.index", "VectorIndex.load", None),
    ("knowledge.query", "transmigrate.knowledge.index", "query", None),
    ("prompts.render", "transmigrate.prompts", "render_prompt", None),
    ("prompts.truncate", "transmigrate.prompts", "truncate_context",
     lambda _a, r: {"dropped": bool(r.dropped)}),
    ("backends.translate", "transmigrate.backends", "MockBackend.translate", _envelope_attrs),
    ("backends.extract_code", "transmigrate.backends", "extract_code", None),
    ("validation.checker", "transmigrate.validation.tools", "run_external_check", None),
    ("validation.refine", "transmigrate.validation.refine", "refine_loop", _refine_attrs),
    ("validation.platform_scan", "transmigrate.validation.checks", "platform_scan", None),
    ("validation.check_references", "transmigrate.validation.checks", "check_references", None),
    ("validation.translated_graph", "transmigrate.validation.checks", "build_translated_class_graph", None),
    ("validation.compare_graphs", "transmigrate.validation.checks", "compare_graphs", None),
    ("validation.report_merge", "transmigrate.validation.issues", "ValidationReport.merged_with", None),
    ("reporting.compute_project_metrics", "transmigrate.reporting", "compute_project_metrics", None),
    ("reporting.classify_issue", "transmigrate.reporting", "classify_issue", None),
    ("reporting.emit_report", "transmigrate.reporting", "emit_report", None),
]


def install(recorder: SpanRecorder) -> None:
    """Wrap every target; call after ``transmigrate.pipeline`` is imported."""
    for name, module_name, attr, attrs in TARGETS:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(recorder.wrap(name, raw.__func__, attrs)))
            else:
                setattr(cls, meth, recorder.wrap(name, raw, attrs))
        else:
            original = getattr(module, attr)
            _replace_everywhere(original, recorder.wrap(name, original, attrs))


# Per-layer metrics: (name, unit). Pipeline stage times are inclusive; every
# other time is the self time of the spans it names.
LAYER_METRICS = [
    *[(f"pipeline.{s}_s", "s") for s in ("analyze", "index", "plan", "translate", "validate", "report")],
    ("pipeline.hash_source_tree_s", "s"), ("pipeline.state_saves", "count"), ("pipeline.state_save_s", "s"),
    ("sourcemodel.parse_calls", "count"), ("sourcemodel.parse_s", "s"), ("sourcemodel.parse_bytes", "bytes"),
    ("sourcemodel.parse_reuse", "ratio"), ("sourcemodel.extract_calls", "count"), ("sourcemodel.extract_s", "s"),
    ("sourcemodel.graph_s", "s"), ("sourcemodel.graph_edges", "count"),
    ("scheduler.build_plan_s", "s"), ("scheduler.order_nodes_calls", "count"), ("scheduler.order_nodes_s", "s"),
    ("knowledge.ingest_s", "s"), ("knowledge.chunks", "count"), ("knowledge.embed_calls", "count"),
    ("knowledge.embed_s", "s"), ("knowledge.index_save_s", "s"), ("knowledge.index_load_s", "s"),
    ("knowledge.index_bytes", "bytes"), ("knowledge.query_calls", "count"), ("knowledge.query_s", "s"),
    ("prompts.render_calls", "count"), ("prompts.render_s", "s"), ("prompts.truncate_s", "s"),
    ("prompts.truncations", "count"),
    ("backends.translate_calls_initial", "count"), ("backends.translate_calls_repair", "count"),
    ("backends.translate_s", "s"), ("backends.extract_code_s", "s"),
    ("validation.checker_calls", "count"), ("validation.checker_s", "s"), ("validation.refine_calls", "count"),
    ("validation.refine_rounds", "count"), ("validation.refine_self_s", "s"), ("validation.repair_yield", "ratio"),
    ("validation.platform_scan_s", "s"), ("validation.check_references_s", "s"),
    ("validation.translated_graph_s", "s"), ("validation.compare_graphs_s", "s"),
    ("validation.report_merge_calls", "count"), ("validation.report_merge_s", "s"),
    ("reporting.s", "s"),
    ("tracing.overhead_s", "s"),
]


def self_times(spans: list[list]) -> list[float]:
    own = [end - start for _name, start, end, _parent, _attrs in spans]
    for _name, start, end, parent, _attrs in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced run (``tracing.overhead_s`` excluded)."""
    own = self_times(spans)
    count: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    attrs: dict[str, list[dict]] = defaultdict(list)
    for (name, start, end, _parent, extra), mine in zip(spans, own):
        count[name] += 1
        self_s[name] += mine
        total_s[name] += end - start
        if extra is not None:
            attrs[name].append(extra)

    def total(name, key):
        return sum(a[key] for a in attrs[name])

    def ratio(num, den):
        return num / den if den else 0.0

    sends = attrs["backends.translate"]
    repairs = total("validation.refine", "repairs")
    m = {f"pipeline.{s}_s": total_s[f"pipeline.{s}"]
         for s in ("analyze", "index", "plan", "translate", "validate", "report")}
    m.update({
        "pipeline.hash_source_tree_s": self_s["pipeline.hash_source_tree"],
        "pipeline.state_saves": count["pipeline.state_save"],
        "pipeline.state_save_s": self_s["pipeline.state_save"],
        "sourcemodel.parse_calls": count["sourcemodel.parse"],
        "sourcemodel.parse_s": self_s["sourcemodel.parse"],
        "sourcemodel.parse_bytes": total("sourcemodel.parse", "bytes"),
        "sourcemodel.parse_reuse": ratio(len({a["key"] for a in attrs["sourcemodel.parse"]}),
                                         count["sourcemodel.parse"]),
        "sourcemodel.extract_calls": count["sourcemodel.extract"],
        "sourcemodel.extract_s": self_s["sourcemodel.extract"],
        "sourcemodel.graph_s": self_s["sourcemodel.graph"],
        "sourcemodel.graph_edges": total("sourcemodel.graph", "edges"),
        "scheduler.build_plan_s": self_s["scheduler.build_plan"],
        "scheduler.order_nodes_calls": count["scheduler.order_nodes"],
        "scheduler.order_nodes_s": self_s["scheduler.order_nodes"],
        "knowledge.ingest_s": self_s["knowledge.ingest"],
        "knowledge.chunks": total("knowledge.ingest", "chunks"),
        "knowledge.embed_calls": count["knowledge.embed"],
        "knowledge.embed_s": self_s["knowledge.embed"],
        "knowledge.index_save_s": self_s["knowledge.index_save"],
        "knowledge.index_load_s": self_s["knowledge.index_load"],
        "knowledge.index_bytes": total("knowledge.index_save", "bytes"),
        "knowledge.query_calls": count["knowledge.query"],
        "knowledge.query_s": self_s["knowledge.query"],
        "prompts.render_calls": count["prompts.render"],
        "prompts.render_s": self_s["prompts.render"],
        "prompts.truncate_s": self_s["prompts.truncate"],
        "prompts.truncations": sum(1 for a in attrs["prompts.truncate"] if a["dropped"]),
        "backends.translate_calls_initial": sum(1 for a in sends if not a["repair"]),
        "backends.translate_calls_repair": sum(1 for a in sends if a["repair"]),
        "backends.translate_s": self_s["backends.translate"],
        "backends.extract_code_s": self_s["backends.extract_code"],
        "validation.checker_calls": count["validation.checker"],
        "validation.checker_s": self_s["validation.checker"],
        "validation.refine_calls": count["validation.refine"],
        "validation.refine_rounds": total("validation.refine", "rounds"),
        "validation.refine_self_s": self_s["validation.refine"],
        "validation.repair_yield": ratio(total("validation.refine", "lowered"), repairs),
        "validation.platform_scan_s": self_s["validation.platform_scan"],
        "validation.check_references_s": self_s["validation.check_references"],
        "validation.translated_graph_s": self_s["validation.translated_graph"],
        "validation.compare_graphs_s": self_s["validation.compare_graphs"],
        "validation.report_merge_calls": count["validation.report_merge"],
        "validation.report_merge_s": self_s["validation.report_merge"],
        "reporting.s": sum(self_s[n] for n in ("reporting.compute_project_metrics",
                                               "reporting.classify_issue", "reporting.emit_report")),
    })
    return m


def self_time_table(spans: list[list]) -> list[tuple[str, int, float, float]]:
    """(span name, calls, self s, total s), largest self time first."""
    own = self_times(spans)
    rows: dict[str, list] = {}
    for (name, start, end, _parent, _attrs), mine in zip(spans, own):
        row = rows.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += mine
        row[2] += end - start
    return sorted(((n, c, s, t) for n, (c, s, t) in rows.items()), key=lambda r: -r[2])


def median_metrics(runs: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}
