"""Seeded synthetic Android (Java) projects and the record of what they plant.

A project is ``packages`` x ``classes_per_package`` classes, one per file,
with project-typed fields, constructor calls, cross-package imports, some
inheritance, method calls through fields, Javadoc, and a README/docs tree
(plus ``issues/`` and ``pulls/`` threads where the workload asks for them).

The seed picks names, edges, prose and which classes carry the planted
defects. The counts that drive pipeline work (classes, fields, subclasses,
documents, defects) are fixed by the workload, and methods per class and
document sizes by module constants, so two
seeds give projects of the same shape and nearly the same cost; only the
number of cross-package imports moves with the links drawn.

The record (``planted.json``, written beside the project, never inside it)
lists the classes, their methods, the class-level edges by kind, the
intra-class calls and the defects. The output checks compare the
pipeline's artifacts against it.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass
from pathlib import Path

# Fixed-width names keep prompt sizes independent of the seed.
NOUNS = (
    "Ledger", "Router", "Bucket", "Parcel", "Socket", "Vendor", "Ticket", "Folder",
    "Sensor", "Banner", "Wallet", "Filter", "Marker", "Player", "Reader", "Writer",
    "Member", "Portal", "Signal", "Vector", "Sketch", "Tunnel", "Gadget", "Kernel",
)
VERBS = ("sync", "load", "save", "draw", "pack", "scan", "seal", "tune", "edit", "post", "mark", "fold")
PROSE = (
    "the", "screen", "list", "cache", "request", "user", "session", "value", "update", "network",
    "layout", "state", "event", "handler", "record", "store", "query", "result", "error", "retry",
    "image", "profile", "setting", "account", "message", "thread", "timer", "payload", "token",
    "adapter", "fragment", "activity", "service", "view", "model", "entry", "field", "index",
    "sort", "page", "scroll", "button", "label", "render", "fetch", "parse", "merge", "flush",
    "when", "after", "before", "with", "from", "into", "each", "every", "keeps", "returns",
    "stores", "reads", "writes", "checks", "sends", "builds", "loads", "drops", "counts",
)

LONG_LINE_CHARS = 150  # a planted long line stays over the 120-character lint limit after translation
METHODS = 3  # per class, constructor not counted
DOC_CHARS = 2800  # README and each docs page
THREAD_CHARS = 9100  # each issue and pull-request thread
CHUNK_SIZE, CHUNK_OVERLAP = 1000, 100  # the documented chunking of the knowledge layer


@dataclass(frozen=True)
class Workload:
    name: str
    packages: int
    classes_per_package: int
    fields: int  # project-typed fields per class
    subclasses: int  # classes with a project superclass
    doc_pages: int
    threads: int  # files in each of issues/ and pulls/
    defects: bool
    checker: str  # "stub": the bundled stub checker; "true": a checker that exits 0 at once
    prompt_budget: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "small-refine", packages=2, classes_per_package=5, fields=1, subclasses=2, doc_pages=3,
            threads=0, defects=True, checker="stub", prompt_budget=8000,
        ),
        Workload(
            "large-project", packages=20, classes_per_package=25, fields=2, subclasses=100, doc_pages=150,
            threads=0, defects=False, checker="true", prompt_budget=128000,
        ),
        Workload(
            "docs-heavy", packages=2, classes_per_package=10, fields=1, subclasses=4, doc_pages=5,
            threads=600, defects=False, checker="true", prompt_budget=8000,
        ),
    )
}


def chunk_count(chars: int) -> int:
    """Chunks the knowledge layer cuts from a stripped text of ``chars`` characters."""
    if chars == 0:
        return 0
    if chars <= CHUNK_SIZE:
        return 1
    stride = CHUNK_SIZE - CHUNK_OVERLAP
    return -(-(chars - CHUNK_OVERLAP) // stride)


class _Prose:
    def __init__(self, rng: random.Random, names: list[str]) -> None:
        self.rng = rng
        self.names = names

    def words(self, n: int) -> list[str]:
        out = self.rng.choices(PROSE, k=n)
        for i in range(0, n, 9):  # every ninth word names a project symbol
            out[i] = self.rng.choice(self.names)
        return out

    def lines(self, n_words: int) -> list[str]:
        lines, cur = [], ""
        for w in self.words(n_words):
            if cur and len(cur) + 1 + len(w) > 72:
                lines.append(cur)
                cur = w
            else:
                cur = f"{cur} {w}" if cur else w
        if cur:
            lines.append(cur)
        return lines

    def block(self, n_lines: int, width: int) -> list[str]:
        """``n_lines`` lines of ``width`` characters cut from running prose."""
        text = " ".join(self.words(n_lines * width // 4))
        return [text[i * width : (i + 1) * width].strip() for i in range(n_lines)]

    def text(self, title: str, chars: int) -> str:
        """Markdown page of exactly ``chars`` characters (no edge whitespace)."""
        body = [f"# {title}", ""]
        size = len(title) + 3
        while size < chars:
            para = self.lines(60)
            body.extend(para + [""])
            size += sum(len(x) + 1 for x in para) + 1
        text = "\n".join(body)[:chars]
        return text.rstrip() + "x" * (chars - len(text.rstrip()))


def generate(workload: Workload, seed: int, root: Path) -> dict:
    """Write the project under ``root/project`` and return the planted record
    (also written to ``root/planted.json``)."""
    rng = random.Random(f"{workload.name}:{seed}")
    P, K = workload.packages, workload.classes_per_package
    n = P * K
    packages = [f"com.bench.mod{p:02d}" for p in range(P)]
    simple = [f"{rng.choice(NOUNS)}{g:04d}" for g in range(n)]
    pkg_of = [g // K for g in range(n)]
    qualified = [f"{packages[pkg_of[g]]}.{simple[g]}" for g in range(n)]
    verbs = [rng.sample(VERBS, METHODS) for _ in range(n)]
    methods = [[f"{v}{simple[g]}" for v in verbs[g]] for g in range(n)]

    # A class refers only to earlier classes of its own package, so the
    # intra-package graph is acyclic; across packages any class may be used.
    def candidates(g: int) -> list[int]:
        return [h for h in range(n) if h != g and (pkg_of[h] != pkg_of[g] or h < g)]

    parent: list[int | None] = [None] * n
    for g in rng.sample(range(1, n), workload.subclasses):
        parent[g] = rng.randrange(g)  # lower index: inheritance stays acyclic
    fields = [rng.sample(candidates(g), workload.fields) for g in range(n)]

    defects = _plant_defects(rng, n) if workload.defects else {}

    edges: dict[str, set[tuple[str, str]]] = {k: set() for k in ("call", "field-type", "import", "inheritance")}
    intra_calls: list[list[str]] = []
    project = root / "project"
    src_root = project / "app" / "src" / "main" / "java"
    names_for_prose = simple + [m for ms in methods for m in ms]
    prose = _Prose(rng, names_for_prose)
    classes = []
    for g in range(n):
        refs = fields[g] + ([parent[g]] if parent[g] is not None else [])
        imports = sorted({qualified[h] for h in refs if pkg_of[h] != pkg_of[g]})
        for h in fields[g]:
            edges["field-type"].add((qualified[g], qualified[h]))
            edges["call"].add((qualified[g], qualified[h]))
        if parent[g] is not None:
            edges["inheritance"].add((qualified[g], qualified[parent[g]]))
        for imp in imports:
            edges["import"].add((qualified[g], imp))

        calls = []
        for k in range(METHODS):
            h = fields[g][k % workload.fields]
            via = (simple[h].lower(), rng.choice(methods[h]))
            local = methods[g][rng.randrange(k)] if k else None
            if local:
                intra_calls.append([qualified[g], f"{qualified[g]}.{methods[g][k]}", f"{qualified[g]}.{local}"])
            calls.append((via, local))

        text = _java_class(prose, packages[pkg_of[g]], simple[g], imports,
                           simple[parent[g]] if parent[g] is not None else None,
                           [simple[h] for h in fields[g]], methods[g], calls, defects.get(g, ()))
        rel = Path(*packages[pkg_of[g]].split(".")) / f"{simple[g]}.java"
        path = src_root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        classes.append(
            {
                "qualified_name": qualified[g],
                "component": packages[pkg_of[g]],
                "methods": sorted([simple[g]] + methods[g]),
                "defects": sorted(defects.get(g, ())),
            }
        )

    doc_chunks = _write_docs(workload, prose, project, packages)
    record = {
        "workload": workload.name,
        "seed": seed,
        "config": asdict(workload),
        "classes": classes,
        "components": packages,
        "edges": {k: sorted(map(list, v)) for k, v in sorted(edges.items())},
        "intra_calls": sorted(intra_calls),
        "doc_chunks": doc_chunks,
    }
    (root / "planted.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return record


def _plant_defects(rng: random.Random, n: int) -> dict[int, tuple[str, ...]]:
    """A fixed pattern over seeded classes, so every seed plants the same
    mix: one residue unit (all rounds spent), two syntax units (one repair
    each), and lint warnings both in repaired units (fixed on the way) and
    in clean ones (kept)."""
    a, b, c, d, e = rng.sample(range(n), 5)
    return {
        a: ("residue", "trailing_ws"),
        b: ("init", "trailing_ws"),
        c: ("init", "long_line"),
        d: ("trailing_ws",),
        e: ("long_line",),
    }


def _javadoc(lines: list[str], indent: str) -> list[str]:
    return [f"{indent}/**"] + [f"{indent} * {ln}" for ln in lines] + [f"{indent} */"]


def _java_class(prose, package, name, imports, parent, field_types, methods, calls, defects) -> str:
    out = [f"package {package};", ""]
    out += [f"import {imp};" for imp in imports]
    if "residue" in defects:
        out.append("import com.bumptech.glide.Glide;")
    if out[-1] != "":
        out.append("")
    out += _javadoc(prose.block(10, 99), "")  # one chunk of about CHUNK_SIZE characters
    out.append(f"public class {name} extends {parent} {{" if parent else f"public class {name} {{")
    for t in field_types:
        out.append(f"    private {t} {t.lower()};")
    out += ["    private int count;", ""]
    out.append(f"    public {name}(int seed) {{")
    out.append("        this.count = seed;")
    for t in field_types:
        out.append(f"        this.{t.lower()} = new {t}(seed);")
    out += ["    }", ""]
    for k, (m, ((field, target), local)) in enumerate(zip(methods, calls)):
        out.append(f"    public int {m}(int value) {{")
        out.append(f"        int total = {field}.{target}(value + count);")
        if k == 0:
            if "init" in defects:
                out.append("        int init = 0;")
            if "trailing_ws" in defects:
                out.append("        ")  # whitespace only: no comment chunk for retrieval to find
            if "long_line" in defects:
                pad = LONG_LINE_CHARS - len('        String banner = "";')
                out.append('        String banner = "' + ("abcdefghij" * 20)[:pad] + '";')
            if "residue" in defects:
                out.append("        Glide.with(value);")
        out += [f"        return {local}(total);" if local else "        return total;", "    }", ""]
    out[-1] = "}"
    return "\n".join(out) + "\n"


def _write_docs(workload, prose, project, packages) -> int:
    """README, ``doc_pages`` docs pages (one per package in turn), the
    issue/pull threads and the Android build files; returns how many
    chunks the documents cut into."""
    files = {"README.md": prose.text("Benchmark app", DOC_CHARS)}
    for p in range(workload.doc_pages):
        files[f"docs/{p:02d}-{packages[p % len(packages)].rsplit('.', 1)[-1]}.md"] = prose.text(
            f"Module {packages[p % len(packages)]}", DOC_CHARS
        )
    for kind in ("issues", "pulls"):
        for t in range(workload.threads):
            files[f"{kind}/{t:04d}.md"] = prose.text(f"{kind[:-1]} {t}", THREAD_CHARS)
    for rel, text in files.items():
        path = project / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text + "\n", encoding="utf-8")
    main = project / "app" / "src" / "main"
    (main / "AndroidManifest.xml").write_text(
        '<manifest package="com.bench.app">\n  <application android:label="Benchmark app" />\n</manifest>\n',
        encoding="utf-8",
    )
    (main / "res" / "values").mkdir(parents=True, exist_ok=True)
    (main / "res" / "values" / "strings.xml").write_text(
        '<resources>\n  <string name="app_name">Benchmark app</string>\n</resources>\n', encoding="utf-8"
    )
    (project / "build.gradle").write_text("apply plugin: 'com.android.application'\n", encoding="utf-8")
    return sum(chunk_count(len(t)) for t in files.values())
