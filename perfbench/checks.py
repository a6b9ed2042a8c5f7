"""Output checks, computed apart from the pipeline.

Each check reads the artifacts of a finished run, compares them with what
the generator planted (or with a brute-force recomputation) and raises
``CheckFailed`` on the first difference. None of them compares against a
stored copy of earlier output.

Report counts follow from the planted defects under the round rule of the
refinement loop (a unit is re-checked after each repair and repaired while
it has an error, at most the pipeline's default ``max_rounds`` times):

* ``init`` (``int init = 0;``): one syntax error in the first round; the
  first repair renames it, so it is gone afterwards. One repair call when
  it is the unit's only error.
* ``residue`` (``Glide.with(``): a platform error no repair removes, so the
  unit spends all ``max_rounds`` repair calls. Not a syntax or lint count.
* ``trailing_ws``: one lint warning; a repair strips it, so it stays only
  in units that are never repaired (no error).
* ``long_line``: one lint warning that no repair fixes.

With a checker that exits 0 at once there are no syntax or lint counts.
Backend calls are one per method and constructor, class, component and
the project, plus the repair calls. A file is valid before refinement
unless it has a syntax error; after refinement every file is valid.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import random
import re
from pathlib import Path

import numpy as np


class CheckFailed(Exception):
    pass


def _expect(what: str, got, want) -> None:
    if got == want:
        return
    if isinstance(got, list) and isinstance(want, list):
        missing = [x for x in want if x not in got][:3]
        extra = [x for x in got if x not in want][:3]
        raise CheckFailed(f"{what}: {len(got)} listed, {len(want)} expected; missing {missing}, unexpected {extra}")
    raise CheckFailed(f"{what}: got {got!r}, expected {want!r}")


def _jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


def check_analysis(out: Path, planted: dict) -> None:
    """classes.json lists exactly the planted classes and methods, and
    graph_class.json has exactly the planted edges, kind by kind."""
    classes = json.loads((out / "analyze" / "classes.json").read_text(encoding="utf-8"))
    got = {
        c["qualified_name"]: sorted(m["name"] for m in c["constructors"] + c["methods"]) for c in classes
    }
    _expect("classes", sorted(got), sorted(c["qualified_name"] for c in planted["classes"]))
    for c in planted["classes"]:
        _expect(f"methods of {c['qualified_name']}", got[c["qualified_name"]], c["methods"])

    graph = json.loads((out / "analyze" / "graph_class.json").read_text(encoding="utf-8"))
    by_kind: dict[str, list] = {kind: [] for kind in planted["edges"]}
    for e in graph["edges"]:
        by_kind.setdefault(e["kind"], []).append([e["from"], e["to"]])
    for kind, edges in sorted(by_kind.items()):
        _expect(f"{kind} edges", sorted(edges), planted["edges"].get(kind, []))


def check_plan(out: Path, planted: dict) -> None:
    """Each class and method appears exactly once, under its own class and
    component, and no class or method precedes a dependency of its own
    component (class) or class (method). The generator keeps those
    dependencies acyclic, so every one of them can be honoured."""
    component_of = {c["qualified_name"]: c["component"] for c in planted["classes"]}
    class_order: list[str] = []
    method_order: list[str] = []
    component = cls = None
    for item in _jsonl(out / "plan" / "plan.jsonl"):
        if item["kind"] == "component":
            component = item["name"]
        elif item["kind"] == "class":
            cls = item["name"]
            _expect(f"component of {cls} in plan", (item["component"], component), (component_of.get(cls),) * 2)
            class_order.append(cls)
        else:
            _expect(f"class of method {item['name']} in plan", item["class"], cls)
            method_order.append(item["name"])
    _expect("plan classes", sorted(class_order), sorted(component_of))
    want_methods = sorted(f"{c['qualified_name']}.{m}" for c in planted["classes"] for m in c["methods"])
    _expect("plan methods", sorted(method_order), want_methods)
    _expect("plan lists each class once", len(class_order), len(set(class_order)))
    _expect("plan lists each method once", len(method_order), len(set(method_order)))

    pos = {name: i for i, name in enumerate(class_order)}
    for kind, edges in planted["edges"].items():
        for a, b in edges:
            if component_of[a] == component_of[b] and pos[b] > pos[a]:
                raise CheckFailed(f"plan puts {a} before its dependency {b} ({kind})")
    mpos = {name: i for i, name in enumerate(method_order)}
    for _cls, caller, callee in planted["intra_calls"]:
        if mpos[callee] > mpos[caller]:
            raise CheckFailed(f"plan puts {caller} before its callee {callee}")


def expected_report(planted: dict) -> dict:
    """Report row and backend calls derived from the planted defects."""
    from transmigrate.config import DEFAULT_MAX_ROUNDS

    cfg = planted["config"]
    stub = cfg["checker"] == "stub"
    n = len(planted["classes"])
    init = lint_before = lint_after = repairs = 0
    for c in planted["classes"]:
        d = set(c["defects"])
        errors = "init" in d and stub or "residue" in d
        repairs += DEFAULT_MAX_ROUNDS if "residue" in d else int(errors)
        if stub:
            init += "init" in d
            lint_before += ("trailing_ws" in d) + ("long_line" in d)
            lint_after += ("trailing_ws" in d and not errors) + ("long_line" in d)
    methods = sum(len(c["methods"]) for c in planted["classes"])
    return {
        "row": {
            "total_files": n,
            "valid_pct_before": round(100.0 * (n - init) / n, 1),
            "valid_pct_after": 100.0,
            "syntax_before": init,
            "syntax_after": 0,
            "lint_before": lint_before,
            "lint_after": lint_after,
        },
        "backend_calls": methods + n + len(planted["components"]) + 1 + repairs,
    }


def check_report(out: Path, planted: dict, backend_calls: int) -> None:
    want = expected_report(planted)
    report = json.loads((out / "report" / "report.json").read_text(encoding="utf-8"))
    row = report["projects"][0]
    for key, value in want["row"].items():
        _expect(f"report {key}", row[key], value)
    _expect("report seed", report["seed"], planted["seed"])
    _expect("backend calls", backend_calls, want["backend_calls"])


_TOKEN_RE = re.compile(r"[a-z0-9]+")


def _bucket_counts(text: str, dimension: int, cache: dict[str, int]) -> dict[int, int]:
    """The documented offline embedding before normalisation: lowercase
    alphanumeric tokens, md5 of each, first 8 hex digits mod dimension."""
    tokens = _TOKEN_RE.findall(text.lower()) or ([text.lower()] if text else [])
    counts: dict[int, int] = {}
    for token in tokens:
        b = cache.get(token)
        if b is None:
            b = cache[token] = int(hashlib.md5(token.encode("utf-8")).hexdigest()[:8], 16) % dimension
        counts[b] = counts.get(b, 0) + 1
    return counts


def query_texts(planted: dict, rng: random.Random, n: int) -> list[str]:
    """A sample of the kinds of text the translate stage retrieves with."""
    texts = []
    for c in rng.sample(planted["classes"], min(n, len(planted["classes"]))):
        simple = c["qualified_name"].rsplit(".", 1)[1]
        texts.append(f"{simple} {rng.choice(c['methods'])}")
        texts.append(f"{simple} {c['component']}")
    return texts + [rng.choice(planted["components"]), "BenchApp"]


def check_retrieval(out: Path, planted: dict, seed: int, samples: int = 8, ks: tuple[int, ...] = (3, 10)) -> None:
    """The saved vectors are the documented embedding of the saved chunks,
    and ``query`` on the saved index returns the exact top-k, ties broken
    by chunk id."""
    from transmigrate.knowledge.embed import HashedTokenEmbedder
    from transmigrate.knowledge.index import VectorIndex, query

    index_path, chunks_path = out / "index" / "index.jsonl", out / "index" / "chunks.jsonl"
    chunks = _jsonl(chunks_path)
    lines = index_path.read_text(encoding="utf-8").splitlines()
    dimension = json.loads(lines[0])["dimension"]
    entries = [json.loads(line) for line in lines[1:] if line.strip()]
    # Documents plus one Javadoc chunk per class.
    _expect("chunks", len(chunks), planted["doc_chunks"] + len(planted["classes"]))
    ids = [f"{c['source_uri']}#{c['ordinal']}" for c in chunks]
    _expect("index ids", [e["id"] for e in entries], ids)

    cache: dict[str, int] = {}
    counts = [_bucket_counts(c["text"], dimension, cache) for c in chunks]
    norms = [sum(v * v for v in cnt.values()) for cnt in counts]
    expected = np.zeros((len(counts), dimension))
    for row, (cnt, norm) in enumerate(zip(counts, norms)):
        for b, v in cnt.items():
            expected[row, b] = v / norm**0.5
    saved = np.array([e["v"] for e in entries], dtype=np.float64).reshape(len(entries), dimension)
    worst = float(np.max(np.abs(saved - expected))) if len(entries) else 0.0
    if worst > 1e-12:
        raise CheckFailed(f"saved vectors differ from the documented embedding by up to {worst:.3g}")

    index = VectorIndex.load(index_path, chunks_path)
    embedder = HashedTokenEmbedder(dimension)
    for text in query_texts(planted, random.Random(seed), samples):
        q = _bucket_counts(text, dimension, cache).items()
        # Cosine order is the order of dot^2 / |chunk|^2, a ratio of small
        # integers: division rounds equal ratios to one float and keeps
        # distinct ones apart, so this order is exact and ties fall to the id.
        keys = heapq.nsmallest(
            max(ks),
            ((-sum(v * cnt.get(b, 0) for b, v in q) ** 2 / norm, cid) for cid, cnt, norm in zip(ids, counts, norms)),
        )
        for k in ks:
            got = [r.chunk.chunk_id for r in query(index, text, k, embedder)]
            _expect(f"top-{k} for {text!r}", got, [cid for _key, cid in keys[:k]])


def check_identical(runs: list[dict]) -> None:
    """Every run of one seed wrote the same report bytes and sent the same
    backend traffic."""
    first = runs[0]
    for i, run in enumerate(runs[1:], start=1):
        for key in ("report.json", "report.md", "backend_calls", "prompt_units"):
            if run[key] != first[key]:
                raise CheckFailed(f"run {i} differs from run 0 in {key}")


def read_reports(out: Path) -> dict:
    return {name: (out / "report" / name).read_bytes() for name in ("report.json", "report.md")}
