"""Resumable pipeline tying the stages together.

Stage order: analyze -> index -> plan -> translate -> validate -> report.
Every stage persists its artifacts under the output root before the state
cursor advances, so an interrupted run resumes without repeating work
(completed translation units, components and the project prompt are never
re-sent to the backend). The state file is the stage cursor only: it is
written once per completed stage. ``transmigrate.translate`` owns what the
translate stage writes: its agent chain, its file layout and its rule for
what is done, which translate, ``--dry-run`` and validate all read from the
plan. The state file hash-guards the source tree and configuration:
resuming against modified inputs is refused. So a completed index stage
whose two files exist is a cache hit: they were built from these inputs.

With the mock backend and no crawl start URL the whole run is
bit-deterministic: no timestamps are written, every collection is sorted,
and all randomness flows from the configured seed.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

from transmigrate.artifacts import corrupt, missing, read_artifact, remove_temporaries, write_json, write_text
from transmigrate.backends import LiveBackend, MockBackend
from transmigrate.config import RunConfig
from transmigrate.errors import ConfigurationError, IntegrityError
from transmigrate.knowledge.chunks import ingest_repository
from transmigrate.knowledge.crawl import crawl_site
from transmigrate.knowledge.embed import HashedTokenEmbedder, RemoteEmbedder
from transmigrate.knowledge.index import VectorIndex, build_index
from transmigrate.reporting import (
    CONFIDENCE,
    MARGIN,
    classify_issue,
    compute_project_metrics,
    draw_sample,
    emit_report,
    sample_size,
)
from transmigrate.scheduler import TranslationPlan, build_plan
from transmigrate.sourcemodel.extract import ClassDescriptor, extract_classes
from transmigrate.sourcemodel.graph import DependencyGraph, build_dependency_graph, quotient_graph
from transmigrate.sourcemodel.parser import Ast, SourceFile, parse_source
# Loaded with this module, not when the stage runs: the benchmark tracer
# replaces functions imported by name only in modules loaded when it installs.
from transmigrate.translate import pending, translate, translated_rounds, unit_files
from transmigrate.validation.checks import (
    build_translated_class_graph,
    check_references,
    compare_graphs,
    parse_corpora,
)
from transmigrate.validation.issues import IssueRecord, ValidationReport

logger = logging.getLogger(__name__)

STAGES = ("analyze", "index", "plan", "translate", "validate", "report")

# The stages a dry run runs. In place of any later stage it logs what
# translate would send: it sends, writes and marks nothing after plan.
_DRY_RUN_STAGES = ("analyze", "index", "plan")


@dataclass
class PipelineState:
    completed_stages: list[str] = field(default_factory=list)
    input_hash: str = ""
    config_hash: str = ""

    def save(self, path: Path) -> None:
        write_json(path, vars(self))


def hash_source_tree(root: str | Path, output_root: str | Path) -> tuple[str, list[str]]:
    """Content hash over every regular file under ``root``, and those files'
    root-relative POSIX paths in the order hashed (``sorted`` of ``Path``).
    A path with a ``.git`` component is left out (git rewrites its own
    files on a mere ``git status``), and so are files under ``output_root``
    when it lies strictly inside ``root``. This is the one walk of the
    source tree: every stage reads the listing instead of walking again."""
    digest = hashlib.sha256()
    root = Path(root)
    skip: tuple[str, ...] = ()
    out, top = Path(output_root).resolve(), root.resolve()
    if out != top and out.is_relative_to(top):
        skip = out.relative_to(top).parts
    files = []
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        rel = path.relative_to(root)
        if ".git" in rel.parts or (skip and rel.parts[: len(skip)] == skip):
            continue
        files.append(rel.as_posix())
        digest.update(files[-1].encode("utf-8"))
        digest.update(b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest(), files


def hash_config(config: RunConfig) -> str:
    payload = json.dumps(config.canonical_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _class_summaries(text: str) -> list[tuple[str, str, list[str]]]:
    """(qualified name, component, constructor and method names) of each
    class in ``analyze/classes.json``."""
    return [
        (c["qualified_name"], c["component"], [m["name"] for m in c["constructors"] + c["methods"]])
        for c in json.loads(text)
    ]


class Pipeline:
    def __init__(self, config: RunConfig) -> None:
        config.validate()
        self.config = config
        # The mock's rule table is read, and so checked, before any stage runs.
        rules_file = config.backend_options.rules_file if config.backend == "mock" else None
        self._mock = MockBackend.from_rules_file(rules_file) if rules_file else MockBackend()
        self.out = Path(config.output_root)
        self.state_path = self.out / "state.json"
        self._index_files = (self.out / "index" / "index.jsonl", self.out / "index" / "chunks.jsonl")
        self.source_root = Path(config.source_root)
        self._java: tuple[dict[str, Ast], list[ClassDescriptor]] | None = None
        self._index: VectorIndex | None = None
        input_hash, self._files = hash_source_tree(self.source_root, self.out)
        self.state = self._load_or_init_state(input_hash)

    # ---- state -----------------------------------------------------------

    def _load_or_init_state(self, input_hash: str) -> PipelineState:
        config_hash = hash_config(self.config)
        if self.state_path.is_file():
            state = read_artifact(self.state_path, "analyze", lambda text: PipelineState(**json.loads(text)))
            if state.input_hash != input_hash or state.config_hash != config_hash:
                raise IntegrityError(
                    "refusing to resume: source tree or configuration changed since the "
                    "saved state was written (delete the output root to start over)"
                )
            return state
        return PipelineState(input_hash=input_hash, config_hash=config_hash)

    def _mark_stage_done(self, stage: str) -> None:
        if stage not in self.state.completed_stages:
            self.state.completed_stages.append(stage)
        self.state.save(self.state_path)

    # ---- shared loading ---------------------------------------------------

    def _java_model(self) -> tuple[dict[str, Ast], list[ClassDescriptor]]:
        """ASTs by repository-relative path, and the class descriptors, of
        every ``.java`` file in the source listing, parsed once per
        pipeline: analyze leaves them for index (comment chunks) and
        translate, which drops them. Extraction is the last reader of a
        file's tokens and ingest of its comments, so the kept ASTs hold
        none past ingest: only the tree and the source."""
        if self._java is None:
            asts: dict[str, Ast] = {}
            descriptors: list[ClassDescriptor] = []
            for rel in [rel for rel in self._files if rel.endswith(".java")]:
                source = SourceFile.read(self.source_root / rel, rel, "java")
                ast = parse_source(source)
                descriptors.extend(extract_classes(ast))
                ast.tokens = []
                asts[source.path] = ast
            self._java = asts, descriptors
        return self._java

    def _embedder(self):
        k = self.config.knowledge
        if k.provider == "remote":
            return RemoteEmbedder(k.remote_endpoint, k.embedding_dimension)
        return HashedTokenEmbedder(k.embedding_dimension)

    def _backend(self):
        return self._mock if self.config.backend == "mock" else LiveBackend(self.config.backend_options)

    # ---- stages ------------------------------------------------------------

    def stage_analyze(self) -> None:
        asts, descriptors = self._java_model()
        if not descriptors:
            raise ConfigurationError(
                f"no Java class found under source_root {self.config.source_root!r}: nothing to translate"
            )
        graphs = {g: build_dependency_graph(descriptors, g) for g in ("method", "class")}
        write_json(self.out / "analyze" / "classes.json", [_descriptor_dict(d) for d in descriptors])
        for name, graph in graphs.items():
            write_text(self.out / "analyze" / f"graph_{name}.json", graph.to_json() + "\n")
        logger.info("analyzed %d files, %d classes", len(asts), len(descriptors))
        self._mark_stage_done("analyze")

    def stage_index(self) -> None:
        if "index" in self.state.completed_stages and all(path.is_file() for path in self._index_files):
            logger.info("index cache hit; skipping embedding")
            self._mark_stage_done("index")
            return
        # Chunks stream into the build, one source file's at a time, and the
        # build writes their lines beside the index; a partial file that a
        # kill left is removed first.
        remove_temporaries(self._index_files[0].parent)
        index = build_index(self._chunks(), self._embedder(), self._index_files[1])
        index.save(*self._index_files)
        self._index = index  # taken over by translate in this process
        logger.info("indexed %d chunks", len(index))
        self._mark_stage_done("index")

    def _chunks(self):
        """Every chunk to index, in order: each listed file's, then the
        crawled pages'. Comment chunks reuse the parse analyze left in this
        process; without it, ingest lexes the sources instead of parsing
        them here. Nothing after ingest reads a file's comments."""
        asts = self._java[0] if self._java is not None else {}
        for rel in self._files:
            yield from ingest_repository(self.source_root, [rel], asts)
            if rel in asts:
                asts[rel].comments = []
        crawl = self.config.knowledge.crawl
        if crawl.start_url:
            yield from crawl_site(crawl.start_url, crawl.max_depth, crawl.max_pages)

    def stage_plan(self) -> None:
        analyze_dir = self.out / "analyze"
        method_graph, class_graph = (
            read_artifact(analyze_dir / f"graph_{g}.json", "analyze", DependencyGraph.from_json)
            for g in ("method", "class")
        )
        classes = read_artifact(analyze_dir / "classes.json", "analyze", _class_summaries)
        method_owner = {f"{qualified}.{m}": qualified for qualified, _, members in classes for m in members}
        class_component = {qualified: component for qualified, component, _ in classes}
        plan = build_plan(method_graph, class_graph, method_owner=method_owner, class_component=class_component)
        write_text(self.out / "plan" / "plan.jsonl", plan.to_jsonl())
        logger.info("plan covers %s components/classes/methods", plan.item_counts())
        self._mark_stage_done("plan")

    def _plan(self, stage: str = "plan") -> TranslationPlan:
        """The saved plan; a missing one is an OrderingError naming ``stage``."""
        path = self.out / "plan" / "plan.jsonl"
        try:
            return TranslationPlan.load(path)
        except FileNotFoundError:
            raise missing(path, stage) from None

    def stage_translate(self) -> None:
        plan = self._plan()
        class_graph = read_artifact(self.out / "analyze" / "graph_class.json", "analyze", DependencyGraph.from_json)
        # The component graph, as plan derived it: the class graph's quotient
        # under each planned class's component.
        class_component = {cls.name: comp for comp, cls in plan.iter_classes()}
        if class_component.keys() != class_graph.nodes:
            raise corrupt(self.out / "plan" / "plan.jsonl", "its classes are not the class graph's")
        graphs = class_graph, quotient_graph(class_graph, class_component, "component")
        todo = pending(self.out, plan)
        _, components, project_pending = todo
        # Taken over from analyze and index and released when this stage
        # returns. When they ran in an earlier process, the Java is parsed
        # only for a pending class and the index loaded only for a pending
        # prompt. ``is None``: an empty index is falsy.
        java = self._java_model() if any(classes for _, classes in components) else ({}, [])
        self._java = None
        index, self._index = self._index, None
        if index is None and (components or project_pending):
            try:
                index = VectorIndex.load(*self._index_files)
            except FileNotFoundError as exc:
                raise missing(exc.filename, "index") from None
        translate(self.config, self.out, self._files, self._backend(), self._embedder(), index, java, graphs, todo)
        self._mark_stage_done("translate")

    def stage_validate(self) -> None:
        # Validate reads what translate wrote for each planned class; with
        # no plan, translate has not run either.
        unit_names, rounds = translated_rounds(self.out, self._plan("translate"))
        classes = read_artifact(self.out / "analyze" / "classes.json", "analyze", _class_summaries)
        project_symbols = {qualified.rsplit(".", 1)[-1] for qualified, _, _ in classes}
        project_symbols.update(m for _, _, members in classes for m in members)
        source_graph = read_artifact(self.out / "analyze" / "graph_class.json", "analyze", DependencyGraph.from_json)
        unit_of = {base: f"{base}.swift" for base in unit_names.values()}
        initial_units = {unit: code for unit, ((code, _), _) in rounds.items()}
        final_units = {unit: code for unit, (_, (code, _)) in rounds.items()}

        def corpus_report(corpus) -> ValidationReport:
            report = ValidationReport()
            report.extend(check_references(corpus, project_symbols))
            translated_graph = build_translated_class_graph(corpus)
            report.extend(compare_graphs(source_graph, translated_graph, unit_names, unit_of))
            return report

        # Every unit's round-0 issues, and its kept round's, each merged with
        # the corpus report once; a file's issues keep their order.
        firsts, kepts = ValidationReport(), ValidationReport()
        for (_, first), (_, kept) in rounds.values():
            firsts.extend(first.all_issues())
            kepts.extend(kept.all_issues())
        before, after = (
            corpus_report(corpus).merged_with(units)
            for corpus, units in zip(parse_corpora(initial_units, final_units), (firsts, kepts))
        )

        write_json(self.out / "validate" / "before.json", before.to_dict())
        write_json(self.out / "validate" / "after.json", after.to_dict())
        self._mark_stage_done("validate")

    def stage_report(self) -> None:
        validate_dir = self.out / "validate"
        before, after = (
            read_artifact(validate_dir / name, "validate", lambda t: ValidationReport.from_dict(json.loads(t)))
            for name in ("before.json", "after.json")
        )
        metrics = compute_project_metrics(self.config.project_name, unit_files(self._plan()), before, after)

        unique: dict[tuple, IssueRecord] = {}  # the first issue of those alike in all but severity
        for issue in before.all_issues() + after.all_issues():
            key = (issue.source, issue.file, issue.line, issue.column, issue.rule, issue.message)
            unique.setdefault(key, issue)
        pool = list(unique.values())
        extras: dict = {"seed": self.config.seed}
        if self.config.sample_issues and pool:
            n = sample_size(len(pool))
            extras["sample"] = {"population": len(pool), "size": n, "confidence": CONFIDENCE, "margin": MARGIN}
            pool = [pool[i] for i in draw_sample(len(pool), n, self.config.seed)]
        categories = [classify_issue(i) for i in pool]

        report_dir = self.out / "report"
        write_text(report_dir / "report.json", emit_report([metrics], categories, "json", extras))
        write_text(report_dir / "report.md", emit_report([metrics], categories, "markdown", extras))
        self._mark_stage_done("report")

    # ---- drivers -----------------------------------------------------------

    def run_stage(self, name: str) -> None:
        if name not in STAGES:
            raise ConfigurationError(f"unknown stage {name!r}")
        if self.config.dry_run and name not in _DRY_RUN_STAGES:
            self._log_dry_run()
        else:
            getattr(self, f"stage_{name}")()

    def run(self) -> None:
        for stage in STAGES:
            if stage in self.state.completed_stages:
                logger.info("stage %s already complete; skipping", stage)
                continue
            logger.info("running stage %s", stage)
            self.run_stage(stage)
            if self.config.dry_run and stage not in _DRY_RUN_STAGES:
                return

    def _log_dry_run(self) -> None:
        """Log the units, components and project prompt that translate
        would send: the same pending list translate reads."""
        _, components, project_pending = pending(self.out, self._plan())
        units = [c.name for _, classes in components for c in classes]
        names = [comp.name or "(default)" for comp, _ in components]
        for what, listed in (("unit", units), ("component", names)):
            listing = f": {', '.join(listed)}" if listed else ""
            logger.info("dry run: %d %s(s) would be translated%s", len(listed), what, listing)
        if project_pending:
            logger.info("dry run: the project prompt would be sent")


def _descriptor_dict(d: ClassDescriptor) -> dict:
    def method_dict(m) -> dict:
        return {"name": m.name, "span": list(m.span), "calls": [site.name for site in m.call_sites]}

    return {
        "qualified_name": d.qualified_name,
        "kind": d.kind,
        "span": list(d.span),
        "superclass": d.superclass,
        "interfaces": d.interfaces,
        "fields": [{"name": f.name, "declared_type": f.declared_type} for f in d.fields],
        "constructors": [method_dict(m) for m in d.constructors],
        "methods": [method_dict(m) for m in d.methods],
        "component": d.component,
        "source_path": d.source_path,
        "imports": d.imports,
        "degraded": d.degraded,
    }
