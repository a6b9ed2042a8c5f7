import io
import json
import os
import pathlib
import re
import shlex
import shutil
import socket
import sys
import time
from collections import Counter

import pytest

from conftest import FIXTURE_PROJECT, GOLDEN_DIR, fixture_config, make_run_config, reachable

import transmigrate.translate as translate_module
from transmigrate.cli import main as cli_main
from transmigrate.errors import BackendError, ConfigurationError, IntegrityError, OrderingError, ToolError
from transmigrate.knowledge.embed import HashedTokenEmbedder
from transmigrate.knowledge.index import VectorIndex
from transmigrate.pipeline import STAGES, Pipeline, hash_source_tree
from transmigrate.sourcemodel import lexer, parser
from transmigrate.translate import unit_names


def run_full(config):
    pipeline = Pipeline(config)
    pipeline.run()
    return pipeline


def output_tree(root):
    """Relative path -> bytes of every file under ``root``."""
    root = pathlib.Path(root)
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def logged(out):
    """The refinement payloads of the log under ``out``, one per line, in
    log order; an empty list when there is no log."""
    log = pathlib.Path(out) / "translate" / "refinement.jsonl"
    return [json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()] if log.exists() else []


def logged_by_unit(out):
    """Unit base name -> refinement payload, from the log under ``out``."""
    return {payload["unit"].removesuffix(".swift"): payload for payload in logged(out)}


def process_left(pid: int, seconds: float) -> str | None:
    """None once process ``pid`` is gone, polled for ``seconds``; else its
    state from ``/proc/<pid>/stat`` ("Z": a zombie that nothing has reaped)."""
    deadline = time.monotonic() + seconds
    while True:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return None
        if time.monotonic() >= deadline:
            break
        time.sleep(0.05)
    try:
        return pathlib.Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except OSError:
        return "unknown"


@pytest.fixture
def index_loads(monkeypatch):
    """The output roots ``VectorIndex.load`` is called for, in call order."""
    loads = []
    real_load = VectorIndex.load.__func__

    def counting_load(cls, index_path, chunks_path):
        loads.append(pathlib.Path(index_path).parent.parent)
        return real_load(cls, index_path, chunks_path)

    monkeypatch.setattr(VectorIndex, "load", classmethod(counting_load))
    return loads


@pytest.fixture
def embedded(monkeypatch):
    """The texts of each ``HashedTokenEmbedder.embed`` call, one list per
    call, in call order."""
    calls = []
    real_embed = HashedTokenEmbedder.embed

    def counting_embed(self, texts):
        calls.append(list(texts))
        return real_embed(self, texts)

    monkeypatch.setattr(HashedTokenEmbedder, "embed", counting_embed)
    return calls


@pytest.fixture
def parses(monkeypatch):
    """The sources ``parse_source`` is called for, in call order, through
    every module that imported it."""
    sources = []
    real_parse = parser.parse_source

    def counting_parse(source):
        sources.append(source)
        return real_parse(source)

    for name, module in list(sys.modules.items()):
        if name.startswith("transmigrate") and getattr(module, "parse_source", None) is real_parse:
            monkeypatch.setattr(module, "parse_source", counting_parse)
    return sources


def report_bytes(config):
    out = config.output_root
    return (
        (json.loads(open(f"{out}/report/report.json").read())),
        open(f"{out}/report/report.json", "rb").read(),
        open(f"{out}/report/report.md", "rb").read(),
    )


class TestFullRun:
    def test_golden_report(self, run_config):
        run_full(run_config)
        _, json_bytes, md_bytes = report_bytes(run_config)
        assert json_bytes == (GOLDEN_DIR / "report.json").read_bytes()
        assert md_bytes == (GOLDEN_DIR / "report.md").read_bytes()

    def test_metrics_improve_after_refinement(self, run_config):
        run_full(run_config)
        payload, _, _ = report_bytes(run_config)
        row = payload["projects"][0]
        assert row["syntax_before"] == 1 and row["syntax_after"] == 0
        assert row["lint_before"] == 2 and row["lint_after"] == 1
        assert row["valid_pct_after"] > row["valid_pct_before"]

    def test_degraded_unit_is_measured_by_its_kept_round(self, run_config, monkeypatch):
        # Logger's first repair adds two syntax errors and its second fails:
        # refinement keeps round 0 (one error), and the after metrics must
        # count that code, not the discarded three-error round.
        real_factory = Pipeline._backend

        class WorsensThenFails:
            def __init__(self, inner):
                self.inner = inner
                self.repairs = 0

            def translate(self, envelope):
                if envelope.level != "repair":
                    return self.inner.translate(envelope)
                self.repairs += 1
                if self.repairs == 1:
                    return envelope.slots["prior_code"] + "\nlet init = 1\nlet init = 2\n"
                if self.repairs == 2:
                    raise BackendError("backend gone")
                return self.inner.translate(envelope)

        monkeypatch.setattr(Pipeline, "_backend", lambda self: WorsensThenFails(real_factory(self)))
        run_full(run_config)
        translate = run_config_path(run_config.output_root) / "translate"
        payload = logged_by_unit(translate.parent)["Logger"]
        assert payload["degraded"] and payload["kept"] == 0 and len(payload["history"]) == 2
        assert (translate / "units" / "Logger.swift").read_text(encoding="utf-8") == payload["history"][0]["code"]
        row = report_bytes(run_config)[0]["projects"][0]
        assert row["syntax_before"] == 1 and row["syntax_after"] == 1

    def test_empty_repair_replies_degrade_their_units(self, run_config, monkeypatch):
        # An empty reply to a repair prompt fails that repair as a backend
        # error does: each refined unit keeps round 0 and the run finishes.
        real_factory = Pipeline._backend

        class BlankRepairs:
            def __init__(self, inner):
                self.inner = inner

            def translate(self, envelope):
                return " \n\t" if envelope.level == "repair" else self.inner.translate(envelope)

        monkeypatch.setattr(Pipeline, "_backend", lambda self: BlankRepairs(real_factory(self)))
        run_full(run_config)
        out = run_config_path(run_config.output_root)
        degraded = {}
        for unit, payload in logged_by_unit(out).items():
            degraded[unit] = (payload["degraded"], payload["kept"], len(payload["history"]))
        assert {name: d for name, d in degraded.items() if d[0]} == {
            "Logger": (True, 0, 1),
            "MainScreen": (True, 0, 1),
        }
        assert (out / "report" / "report.json").is_file()

    def test_rerun_skips_completed_stages_and_preserves_report(self, run_config):
        pipeline = run_full(run_config)
        _, json_before, _ = report_bytes(run_config)
        pipeline_again = Pipeline(run_config)
        pipeline_again.run()  # all stages recorded complete
        _, json_after, _ = report_bytes(run_config)
        assert json_before == json_after

    def test_artifacts_laid_out_under_output_root(self, fixture_project, tmp_path):
        # The whole listing, so a scratch file the pipeline leaves behind shows.
        config = make_run_config(fixture_project, tmp_path / "out", dump_prompts=True)
        run_full(config)
        prompts = [
            "0000_method_com_example_core_Logger_Logger",
            "0001_method_com_example_core_Logger_log",
            "0002_class_com_example_core_Logger",
            "0003_repair_Logger",
            "0004_component_com_example_core",
            "0005_method_com_example_net_HttpClient_HttpClient",
            "0006_method_com_example_net_HttpClient_fetch",
            "0007_class_com_example_net_HttpClient",
            "0008_component_com_example_net",
            "0009_method_com_example_ui_MainScreen_render",
            "0010_method_com_example_ui_MainScreen_onCreate",
            "0011_class_com_example_ui_MainScreen",
            "0012_repair_MainScreen",
            "0013_repair_MainScreen",
            "0014_repair_MainScreen",
            "0015_component_com_example_ui",
            "0016_project",
        ]
        units = ("HttpClient", "Logger", "MainScreen")
        components = ("com.example.core", "com.example.net", "com.example.ui")
        assert sorted(output_tree(tmp_path / "out")) == sorted(
            [
                *(f"analyze/{name}.json" for name in ("classes", "graph_class", "graph_method")),
                "index/chunks.jsonl",
                "index/index.jsonl",
                "plan/plan.jsonl",
                *(f"prompts/{name}.txt" for name in prompts),
                "report/report.json",
                "report/report.md",
                "state.json",
                *(f"translate/components/{name}.swift" for name in components),
                "translate/project.swift",
                "translate/refinement.jsonl",
                *(f"translate/units/{name}.swift" for name in units),
                "validate/after.json",
                "validate/before.json",
            ]
        )
        assert not (tmp_path / "out" / "translate" / "refinement").exists()
        plan_order = ["Logger.swift", "HttpClient.swift", "MainScreen.swift"]
        assert [payload["unit"] for payload in logged(tmp_path / "out")] == plan_order

    def test_dump_prompts_writes_envelopes(self, fixture_project, tmp_path):
        config = make_run_config(fixture_project, tmp_path / "out", dump_prompts=True)
        run_full(config)
        prompts = sorted((tmp_path / "out" / "prompts").glob("*.txt"))
        assert len(prompts) >= 10  # 6 methods + 3 classes + 3 components + project
        assert any("method_com_example_core_Logger_log" in p.name for p in prompts)

    def test_dump_holds_every_backend_call_in_send_order(self, fixture_project, tmp_path, monkeypatch):
        # Repair prompts go through the same send step as the rest: one file
        # per backend call, each holding exactly the text the backend got.
        sent = []
        real_factory = Pipeline._backend

        class Recording:
            def __init__(self, inner):
                self.inner = inner

            def translate(self, envelope):
                sent.append(envelope)
                return self.inner.translate(envelope)

        monkeypatch.setattr(Pipeline, "_backend", lambda self: Recording(real_factory(self)))
        run_full(make_run_config(fixture_project, tmp_path / "out", dump_prompts=True))
        dumps = sorted((tmp_path / "out" / "prompts").iterdir())
        assert len(dumps) == len(sent) == 17
        assert [p.read_text(encoding="utf-8") for p in dumps] == [e.rendered_text for e in sent]
        assert [p.name.split("_", 1)[0] for p in dumps] == [f"{n:04d}" for n in range(17)]
        levels = [e.level for e in sent]
        assert levels.count("repair") == 4
        # Each repair prompt follows its unit's class prompt, or the repair
        # before it, and carries the code that the unit's last round checked.
        for at, envelope in enumerate(sent):
            if envelope.level != "repair":
                continue
            cls_at = max(i for i in range(at) if levels[i] == "class")
            assert set(levels[cls_at + 1 : at]) <= {"repair"}
            unit = dumps[at].name.split("_repair_", 1)[1].removesuffix(".txt")
            assert sent[cls_at].slots["class_name"].rsplit(".", 1)[1] == unit
            history = logged_by_unit(tmp_path / "out")[unit]["history"]
            assert envelope.slots["prior_code"] == history[at - cls_at - 1]["code"]
        assert [d.name for d, level in zip(dumps, levels) if level == "repair"] == [
            "0003_repair_Logger.txt",
            "0012_repair_MainScreen.txt",
            "0013_repair_MainScreen.txt",
            "0014_repair_MainScreen.txt",
        ]

    def test_resumed_translate_continues_the_dump_series(self, fixture_project, tmp_path):
        # The project prompt is sent again once its file is gone; its dump
        # takes the next ordinal instead of starting the series over at 0.
        config = make_run_config(fixture_project, tmp_path / "out", dump_prompts=True)
        run_full(config)
        (tmp_path / "out" / "translate" / "project.swift").unlink()
        Pipeline(config).run_stage("translate")
        names = sorted(p.name for p in (tmp_path / "out" / "prompts").iterdir())
        ordinals = [name.split("_", 1)[0] for name in names]
        assert len(set(ordinals)) == len(ordinals) == 18
        assert names[-2:] == ["0016_project.txt", "0017_project.txt"]

    def test_every_overload_gets_a_method_prompt(self, tmp_path, monkeypatch, embedded):
        source = tmp_path / "project" / "p"
        source.mkdir(parents=True)
        (source / "Foo.java").write_text(
            "package p;\n"
            "public class Foo {\n"
            "    public Foo() { }\n"
            "    public Foo(int size) { }\n"
            "    public void run() { helper(); }\n"
            "    public void run(int times) { }\n"
            "    void helper() { }\n"
            "}\n",
            encoding="utf-8",
        )
        # A document to index: an empty index needs no query embedded.
        (tmp_path / "project" / "README.md").write_text("Foo runs its helper.\n", encoding="utf-8")
        sent = []
        real_factory = Pipeline._backend

        class Recording:
            def __init__(self, inner):
                self.inner = inner

            def translate(self, envelope):
                sent.append(envelope)
                return self.inner.translate(envelope)

        monkeypatch.setattr(Pipeline, "_backend", lambda self: Recording(real_factory(self)))
        run_full(make_run_config(tmp_path / "project", tmp_path / "out"))
        method_code = [e.slots["method_code"] for e in sent if e.level == "method"]
        assert len(method_code) == 5
        assert any("int size" in code for code in method_code)
        assert any("int times" in code for code in method_code)
        (class_prompt,) = [e for e in sent if e.level == "class"]
        translated = class_prompt.slots["translated_methods"]
        assert translated.count("// method: Foo\n") == 2 and translated.count("// method: run\n") == 2
        # The index build, then one retrieval pass: overloads share a text.
        assert len(embedded) == 2
        assert sorted(embedded[1]) == ["Foo Foo", "Foo helper", "Foo p", "Foo run", "MiniApp", "p"]


def run_config_path(out):
    from pathlib import Path

    return Path(out)


class Killed(BaseException):
    """A simulated kill: nothing in the pipeline catches it."""


def write_events(monkeypatch, config):
    """Run ``config`` whole and return its write events in order: each
    artifact rename, as ("rename", path relative to the output root), and
    each refinement payload appended to the log, as ("append", unit file)."""
    real_replace, real_append = os.replace, translate_module.append_json_line
    root = pathlib.Path(config.output_root)
    events = []

    def counting_replace(src, dst):
        events.append(("rename", pathlib.Path(dst).relative_to(root).as_posix()))
        real_replace(src, dst)

    def counting_append(log, payload):
        events.append(("append", payload["unit"]))
        real_append(log, payload)

    monkeypatch.setattr(os, "replace", counting_replace)
    monkeypatch.setattr(translate_module, "append_json_line", counting_append)
    run_full(config)
    monkeypatch.undo()
    return events


def kill_sides(kind):
    """Where a sweep kills around a write event: before and after a rename;
    after an append, since a kill just before one is a kill just after the
    write before it."""
    return (False, True) if kind == "rename" else (True,)


def run_killed(monkeypatch, config, at, after):
    """Run ``config`` until write event ``at`` (0-based, counted as
    ``write_events`` lists them), and kill it just before that event or,
    with ``after``, just after it."""
    real_replace, real_append = os.replace, translate_module.append_json_line
    count = [0]

    def killing(real):
        def write(*args):
            count[0] += 1
            if count[0] <= at:
                return real(*args)
            if after:
                real(*args)
            raise Killed(args[-1])

        return write

    monkeypatch.setattr(os, "replace", killing(real_replace))
    monkeypatch.setattr(translate_module, "append_json_line", killing(real_append))
    with pytest.raises(Killed):
        run_full(config)
    monkeypatch.undo()


class TestDeterminismAndResume:
    def test_two_fresh_runs_byte_identical(self, tmp_path):
        import shutil

        from conftest import FIXTURE_PROJECT

        outputs = []
        for name in ("one", "two"):
            root = tmp_path / name
            shutil.copytree(FIXTURE_PROJECT, root / "project")
            config = make_run_config(root / "project", root / "out")
            run_full(config)
            outputs.append(report_bytes(config)[1:])
        assert outputs[0] == outputs[1]

    def test_interrupt_and_resume_matches_fresh_run(self, fixture_project, tmp_path, monkeypatch):
        config = make_run_config(fixture_project, tmp_path / "out")
        interrupted = Pipeline(config)
        real_factory = Pipeline._backend

        class CrashingBackend:
            def __init__(self, inner, budget):
                self.inner = inner
                self.budget = budget

            def translate(self, envelope):
                if self.budget <= 0:
                    raise RuntimeError("simulated interruption")
                self.budget -= 1
                return self.inner.translate(envelope)

        # Logger takes 2 method prompts + 1 class prompt + 1 repair = 4 calls;
        # crash on the first HttpClient call.
        monkeypatch.setattr(
            Pipeline, "_backend", lambda self: CrashingBackend(real_factory(self), 4)
        )
        with pytest.raises(RuntimeError):
            interrupted.run()
        monkeypatch.setattr(Pipeline, "_backend", real_factory)

        # Logger is the one completed unit: its refinement payload, logged
        # last, is the only line; state.json holds the stage cursor only.
        state = json.loads((tmp_path / "out" / "state.json").read_text())
        assert [payload["unit"] for payload in logged(tmp_path / "out")] == ["Logger.swift"]
        assert "unit_status" not in state

        class CountingBackend:
            def __init__(self, inner):
                self.inner = inner
                self.class_prompts = []

            def translate(self, envelope):
                if envelope.level == "class":
                    self.class_prompts.append(envelope.slots.get("class_name"))
                return self.inner.translate(envelope)

        resumed = Pipeline(config)
        counter = CountingBackend(real_factory(resumed))
        monkeypatch.setattr(Pipeline, "_backend", lambda self: counter)
        resumed.run()
        # The completed Logger unit is not re-sent to the backend.
        assert "com.example.core.Logger" not in counter.class_prompts
        assert set(counter.class_prompts) == {"com.example.net.HttpClient", "com.example.ui.MainScreen"}

        assert report_bytes(config)[1] == (GOLDEN_DIR / "report.json").read_bytes()

    def test_kill_at_any_rename_or_append_resumes_to_a_fresh_run(self, tmp_path, monkeypatch):
        """Every artifact is renamed into place and every refinement payload
        appended to the log; a kill just before or just after any of those
        renames, or just after any append, leaves a run that a new Pipeline
        resumes to the fresh run's whole output tree, byte for byte. A
        resumed translate parses the Java again in its own process, so this
        also checks that a new parse yields what the shared one held."""
        shutil.copytree(FIXTURE_PROJECT, tmp_path / "project")
        events = write_events(monkeypatch, make_run_config(tmp_path / "project", tmp_path / "fresh"))
        fresh = output_tree(tmp_path / "fresh")
        renames = [path for kind, path in events if kind == "rename"]
        # Each refinement round writes its candidate to units/: MainScreen's
        # four rounds are four kill points whose resume translates it again.
        assert len(renames) == 27 and "translate/project.swift" in renames
        assert renames.count("translate/units/MainScreen.swift") == 4
        appended = [path for kind, path in events if kind == "append"]
        assert appended == ["Logger.swift", "HttpClient.swift", "MainScreen.swift"]

        for at, (kind, artifact) in enumerate(events):
            for after in kill_sides(kind):
                out = tmp_path / f"kill{at:02d}{'after' if after else 'before'}"
                config = make_run_config(tmp_path / "project", out)
                run_killed(monkeypatch, config, at, after)
                run_full(config)
                assert output_tree(out) == fresh, (kind, artifact, "after" if after else "before")

    @pytest.mark.parametrize("dump_prompts", [False, True])
    def test_kill_at_any_rename_or_append_within_a_component_resumes_to_a_fresh_run(
        self, tmp_path, monkeypatch, dump_prompts
    ):
        """The fixture sweep on components of several units: a kill lands
        while round 0's checks overlap and between two units' repairs. With
        dumps, a resume sends again what was not done and numbers its dumps
        on, so it holds every fresh dump among its own; all else is the fresh
        tree. No run leaves a temporary file behind."""
        project = one_package_project(tmp_path / "project", ("A", "B", "D"), (("p", "ABC"), ("q", "DE")))
        events = write_events(monkeypatch, make_run_config(project, tmp_path / "fresh", dump_prompts=dump_prompts))
        fresh = output_tree(tmp_path / "fresh")
        assert sum(kind == "rename" for kind, _ in events) == (43 if dump_prompts else 27)
        assert [path for kind, path in events if kind == "append"] == [f"{name}.swift" for name in "ABCDE"]

        def split(tree):
            """The tree outside ``prompts/``, and the dumps' contents."""
            dumps = [data for path, data in tree.items() if path.startswith("prompts/")]
            return {path: data for path, data in tree.items() if not path.startswith("prompts/")}, dumps

        fresh_rest, fresh_dumps = split(fresh)
        for at, (kind, artifact) in enumerate(events):
            for after in kill_sides(kind):
                out = tmp_path / f"kill{at:02d}{'after' if after else 'before'}"
                config = make_run_config(project, out, dump_prompts=dump_prompts)
                run_killed(monkeypatch, config, at, after)
                run_full(config)
                where = (kind, artifact, "after" if after else "before")
                assert [p.name for p in out.rglob(".*")] == [], where
                if dump_prompts:
                    rest, dumps = split(output_tree(out))
                    assert rest == fresh_rest, where
                    assert all(dump in dumps for dump in fresh_dumps), where
                else:
                    assert output_tree(out) == fresh, where

    def test_torn_last_line_resumes_to_a_fresh_run_and_resends_only_its_unit(
        self, fixture_project, tmp_path, monkeypatch
    ):
        """A kill mid-append leaves the log's last line with no newline, so
        its unit is not done. The resume cuts the line off and translates
        that unit again, and no other: its method, class and repair prompts,
        then its component's prompt and the project's, which were not done."""
        run_full(make_run_config(fixture_project, tmp_path / "fresh"))
        config = make_run_config(fixture_project, tmp_path / "out")
        real_append = translate_module.append_json_line

        def torn_append(log, payload):
            if payload["unit"] != "MainScreen.swift":
                return real_append(log, payload)
            line = io.BytesIO()
            real_append(line, payload)
            log.write(line.getvalue()[: len(line.getvalue()) // 2])
            log.flush()
            raise Killed(payload["unit"])

        monkeypatch.setattr(translate_module, "append_json_line", torn_append)
        with pytest.raises(Killed):
            run_full(config)
        monkeypatch.undo()
        log = tmp_path / "out" / "translate" / "refinement.jsonl"
        assert log.read_bytes().count(b"\n") == 2 and not log.read_bytes().endswith(b"\n")

        sent = []
        real_factory = Pipeline._backend

        class Recording:
            def __init__(self, inner):
                self.inner = inner

            def translate(self, envelope):
                sent.append(envelope)
                return self.inner.translate(envelope)

        monkeypatch.setattr(Pipeline, "_backend", lambda self: Recording(real_factory(self)))
        run_full(config)
        levels = ["method", "method", "class", "repair", "repair", "repair", "component", "project"]
        assert [e.level for e in sent] == levels
        assert {e.slots["file_name"] for e in sent if e.level == "method"} == {"src/com/example/ui/MainScreen.java"}
        assert [e.slots["class_name"] for e in sent if e.level == "class"] == ["com.example.ui.MainScreen"]
        assert [e.slots["component_name"] for e in sent if e.level == "component"] == ["com.example.ui"]
        assert output_tree(tmp_path / "out") == output_tree(tmp_path / "fresh")

    def test_resume_after_failed_project_prompt_sends_no_component_prompt(
        self, fixture_project, tmp_path, monkeypatch
    ):
        from transmigrate.backends import MockBackend

        run_full(make_run_config(fixture_project, tmp_path / "fresh"))
        config = make_run_config(fixture_project, tmp_path / "out")
        real = MockBackend.translate
        levels = []
        failed = []

        def failing_first_project(self, envelope):
            levels.append(envelope.level)
            if envelope.level == "project" and not failed:
                failed.append(envelope)
                raise RuntimeError("simulated project failure")
            return real(self, envelope)

        monkeypatch.setattr(MockBackend, "translate", failing_first_project)
        with pytest.raises(RuntimeError, match="simulated project failure"):
            run_full(config)
        assert levels.count("component") == 3
        assert not (tmp_path / "out" / "translate" / "project.swift").exists()

        levels.clear()
        run_full(config)
        assert (levels.count("component"), levels.count("project")) == (0, 1)
        assert output_tree(tmp_path / "out") == output_tree(tmp_path / "fresh")

    def test_resume_refused_when_inputs_change(self, fixture_project, tmp_path):
        config = make_run_config(fixture_project, tmp_path / "out")
        run_full(config)
        (fixture_project / "README.md").write_text("drifted")
        with pytest.raises(IntegrityError):
            Pipeline(config)

    def test_unit_without_refinement_payload_is_translated_again(self, fixture_project, tmp_path, monkeypatch):
        config = make_run_config(fixture_project, tmp_path / "out")
        real_append = translate_module.append_json_line

        def killed_before_payload(log, payload):
            if payload["unit"] == "HttpClient.swift":
                raise RuntimeError("simulated kill")
            real_append(log, payload)

        monkeypatch.setattr(translate_module, "append_json_line", killed_before_payload)
        with pytest.raises(RuntimeError, match="simulated kill"):
            run_full(config)
        monkeypatch.undo()
        translate = tmp_path / "out" / "translate"
        assert (translate / "units" / "HttpClient.swift").is_file()
        assert "HttpClient" not in logged_by_unit(tmp_path / "out")

        class_prompts = []
        real_factory = Pipeline._backend

        class CountingBackend:
            def __init__(self, inner):
                self.inner = inner

            def translate(self, envelope):
                if envelope.level == "class":
                    class_prompts.append(envelope.slots.get("class_name"))
                return self.inner.translate(envelope)

        monkeypatch.setattr(Pipeline, "_backend", lambda self: CountingBackend(real_factory(self)))
        run_full(config)
        assert class_prompts == ["com.example.net.HttpClient", "com.example.ui.MainScreen"]
        assert report_bytes(config)[1] == (GOLDEN_DIR / "report.json").read_bytes()

    @staticmethod
    def interrupt_after_logger(config, monkeypatch):
        """Run until the fifth backend call, which raises: Logger's unit is
        complete, nothing else is."""
        from transmigrate.backends import MockBackend

        real = MockBackend.translate
        budget = [4]  # Logger's two method prompts, class prompt and repair

        def crashing(self, envelope):
            if budget[0] == 0:
                raise RuntimeError("simulated interruption")
            budget[0] -= 1
            return real(self, envelope)

        monkeypatch.setattr(MockBackend, "translate", crashing)
        with pytest.raises(RuntimeError):
            run_full(config)
        monkeypatch.undo()

    def test_dry_run_after_interrupted_translate_lists_pending_units(
        self, fixture_project, tmp_path, monkeypatch, caplog
    ):
        from transmigrate.backends import MockBackend

        config = make_run_config(fixture_project, tmp_path / "out")
        self.interrupt_after_logger(config, monkeypatch)
        calls = []
        monkeypatch.setattr(MockBackend, "translate", lambda self, envelope: calls.append(envelope))
        config.dry_run = True
        with caplog.at_level("INFO", logger="transmigrate.pipeline"):
            Pipeline(config).run_stage("translate")
        assert calls == []
        dry = [r.getMessage() for r in caplog.records if r.getMessage().startswith("dry run:")]
        assert dry == [
            "dry run: 2 unit(s) would be translated: com.example.net.HttpClient, com.example.ui.MainScreen",
            "dry run: 3 component(s) would be translated: com.example.core, com.example.net, com.example.ui",
            "dry run: the project prompt would be sent",
        ]

    def test_dry_run_after_interrupted_translate_changes_nothing(self, fixture_project, tmp_path, monkeypatch):
        from transmigrate.backends import MockBackend

        config = make_run_config(fixture_project, tmp_path / "out")
        self.interrupt_after_logger(config, monkeypatch)
        before = output_tree(tmp_path / "out")
        calls = []
        monkeypatch.setattr(MockBackend, "translate", lambda self, envelope: calls.append(envelope))
        config.dry_run = True
        run_full(config)
        assert calls == []
        assert output_tree(tmp_path / "out") == before
        assert json.loads(before["state.json"])["completed_stages"] == ["analyze", "index", "plan"]

        monkeypatch.undo()
        config.dry_run = False
        run_full(config)
        assert report_bytes(config)[1] == (GOLDEN_DIR / "report.json").read_bytes()

    def test_dry_run_after_failed_project_prompt_lists_the_project_prompt(
        self, fixture_project, tmp_path, monkeypatch, caplog
    ):
        from transmigrate.backends import MockBackend

        config = make_run_config(fixture_project, tmp_path / "out")
        real = MockBackend.translate

        def failing_project(self, envelope):
            if envelope.level == "project":
                raise RuntimeError("simulated project failure")
            return real(self, envelope)

        monkeypatch.setattr(MockBackend, "translate", failing_project)
        with pytest.raises(RuntimeError, match="simulated project failure"):
            run_full(config)
        config.dry_run = True
        with caplog.at_level("INFO", logger="transmigrate.pipeline"):
            run_full(config)
        dry = [r.getMessage() for r in caplog.records if r.getMessage().startswith("dry run:")]
        assert dry == [
            "dry run: 0 unit(s) would be translated",
            "dry run: 0 component(s) would be translated",
            "dry run: the project prompt would be sent",
        ]

    def test_translate_again_on_a_finished_root_sends_nothing(self, run_config, monkeypatch, caplog):
        from transmigrate.backends import MockBackend

        run_full(run_config)
        before = output_tree(run_config.output_root)
        real = MockBackend.translate
        levels = []

        def counting(self, envelope):
            levels.append(envelope.level)
            return real(self, envelope)

        monkeypatch.setattr(MockBackend, "translate", counting)
        Pipeline(run_config).run_stage("translate")
        assert levels == []
        assert output_tree(run_config.output_root) == before

        # The dry run reads the same pending list: nothing is left.
        run_config.dry_run = True
        with caplog.at_level("INFO", logger="transmigrate.pipeline"):
            Pipeline(run_config).run_stage("translate")
        dry = [r.getMessage() for r in caplog.records if r.getMessage().startswith("dry run:")]
        assert dry == ["dry run: 0 unit(s) would be translated", "dry run: 0 component(s) would be translated"]

    def test_component_prompt_carries_kept_code_with_carriage_returns(self, run_config, monkeypatch):
        """An unfenced reply is taken whole, "\\r" included; the component
        prompt reads each member unit back byte for byte."""
        from transmigrate.backends import MockBackend, extract_code

        real = MockBackend.translate
        components = {}

        def crlf_class_reply(self, envelope):
            reply = real(self, envelope)
            if envelope.level == "component":
                components[envelope.slots["component_name"]] = envelope.slots["translated_classes"]
            if envelope.level == "class" and envelope.slots["class_name"] == "com.example.net.HttpClient":
                return extract_code(reply).replace("\n", "\r\n")
            return reply

        monkeypatch.setattr(MockBackend, "translate", crlf_class_reply)
        run_full(run_config)
        payload = logged_by_unit(run_config.output_root)["HttpClient"]
        kept = payload["history"][payload["kept"]]["code"]
        assert "\r\n" in kept
        assert f"// class: com.example.net.HttpClient\n{kept}" in components["com.example.net"]


class TestParseOnce:
    def test_each_source_text_parsed_once_per_run(self, run_config, fixture_project, monkeypatch, parses):
        validate_starts = []
        real_validate = Pipeline.stage_validate

        def validate(self):
            validate_starts.append(len(parses))
            real_validate(self)

        monkeypatch.setattr(Pipeline, "stage_validate", validate)
        run_full(run_config)

        java = Counter(source.path for source in parses if source.language == "java")
        expected_java = {p.relative_to(fixture_project).as_posix() for p in fixture_project.rglob("*.java")}
        assert java == Counter(expected_java)

        translate = run_config_path(run_config.output_root) / "translate"
        payloads = logged(translate.parent)
        expected_swift = {
            (payload["unit"], payload["history"][index]["code"])
            for payload in payloads
            for index in (0, payload["kept"])
        }
        assert len(expected_swift) > len(payloads)  # refinement changed a unit
        (start,) = validate_starts
        validating = parses[start:]
        assert all(source.language == "swift" for source in validating)
        assert Counter((source.path, source.text) for source in validating) == Counter(expected_swift)


    def test_comment_chunks_reuse_the_analyze_parse(self, run_config, fixture_project, tmp_path, monkeypatch):
        import transmigrate.knowledge.chunks as chunks_module

        lexed = []
        real_tokenize = chunks_module.lexer.tokenize
        monkeypatch.setattr(
            chunks_module.lexer, "tokenize", lambda data, profile: lexed.append(data) or real_tokenize(data, profile)
        )
        pipeline = Pipeline(run_config)
        pipeline.run_stage("analyze")
        lexed.clear()  # the parse lexes each file once
        pipeline.run_stage("index")
        assert lexed == []
        alone = Pipeline(make_run_config(fixture_project, tmp_path / "alone"))
        alone.run_stage("index")  # no parse in this process: ingest lexes
        assert len(lexed) == len(list(fixture_project.rglob("*.java")))
        for name in ("chunks.jsonl", "index.jsonl"):
            reused = run_config_path(run_config.output_root) / "index" / name
            assert reused.read_bytes() == (tmp_path / "alone" / "index" / name).read_bytes()

    def test_parse_kept_for_translate_holds_no_tokens(self, run_config):
        # Extraction is the last reader of the Java tokens and index's ingest
        # of the comments; translate reads the tree and the source.
        pipeline = Pipeline(run_config)
        pipeline.run_stage("analyze")
        assert any(ast.comments for ast in pipeline._java[0].values())
        pipeline.run_stage("index")
        asts, descriptors = pipeline._java
        assert len(asts) == 3 and descriptors
        assert all(ast.tokens == [] and ast.comments == [] for ast in asts.values())
        assert not [o for o in reachable(pipeline._java) if isinstance(o, lexer.Token)]

class TestUnitNames:
    @pytest.mark.parametrize(
        "classes,expected",
        [
            (["p.C", "q.C", "r.q_C"], {"p.C": "C", "q.C": "q_C_2", "r.q_C": "q_C"}),
            (["A.D", "a.b_c.D", "a_b.c.D"], {"A.D": "D", "a.b_c.D": "a_b_c_D", "a_b.c.D": "a_b_c_D_2"}),
            (["x.Only", "y.Once"], {"x.Only": "Only", "y.Once": "Once"}),
        ],
    )
    def test_unit_names_are_one_to_one(self, classes, expected):
        assert unit_names(classes) == expected
        assert unit_names(classes[::-1]) == expected

    def test_classes_whose_underscored_name_is_taken_get_their_own_units(self, tmp_path):
        source = tmp_path / "project"
        for package, name in (("p", "C"), ("q", "C"), ("r", "q_C")):
            (source / package).mkdir(parents=True)
            (source / package / f"{name}.java").write_text(
                f"package {package};\npublic class {name} {{ int size() {{ return 1; }} }}\n", encoding="utf-8"
            )
        config = make_run_config(source, tmp_path / "out")
        run_full(config)
        translate = tmp_path / "out" / "translate"
        payloads = logged_by_unit(translate.parent)
        names = {payload["class"]: unit for unit, payload in payloads.items()}
        assert names == {"p.C": "C", "q.C": "q_C_2", "r.q_C": "q_C"}
        for qualified, unit in names.items():
            assert (payloads[unit]["class"], payloads[unit]["unit"]) == (qualified, f"{unit}.swift")
        assert sorted(p.name for p in (translate / "units").iterdir()) == ["C.swift", "q_C.swift", "q_C_2.swift"]
        assert (tmp_path / "out" / "report" / "report.json").is_file()


class TestArtifactWrites:
    def test_failed_write_leaves_previous_state_whole(self, run_config, monkeypatch):
        pipeline = Pipeline(run_config)
        pipeline.run_stage("analyze")
        before = pipeline.state_path.read_text()
        real_open = pathlib.Path.open

        class HalfThenFail:
            """A file whose write writes half its data, then fails."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[: len(data) // 2])
                raise OSError("disk full")

        monkeypatch.setattr(pathlib.Path, "open", lambda self, *args, **kwargs: HalfThenFail(real_open(self, *args, **kwargs)))
        pipeline.state.completed_stages.append("index")
        with pytest.raises(OSError, match="disk full"):
            pipeline.state.save(pipeline.state_path)
        monkeypatch.undo()
        assert pipeline.state_path.read_text() == before
        assert json.loads(before)["completed_stages"] == ["analyze"]

    def test_state_saved_once_per_stage(self, run_config, monkeypatch):
        from transmigrate.pipeline import PipelineState

        saves = []
        real_save = PipelineState.save

        def counting_save(self, path):
            saves.append(list(self.completed_stages))
            real_save(self, path)

        monkeypatch.setattr(PipelineState, "save", counting_save)
        run_full(run_config)
        assert saves == [list(STAGES[: i + 1]) for i in range(len(STAGES))]


class TestCheckerFailure:
    def test_checker_that_never_ran_fails_the_stage(self, fixture_project, tmp_path, monkeypatch):
        # A checker that exits nonzero without one diagnostic line did not
        # check anything; its silence must not count as a clean file.
        broken = f"{shlex.quote(sys.executable)} -c \"print('cannot start'); raise SystemExit(3)\" {{file}}"
        config = make_run_config(fixture_project, tmp_path / "out")
        config.tools.syntax_check_cmd = broken
        with pytest.raises(ToolError, match="exited 3 without diagnostics.*cannot start"):
            Pipeline(config).run()
        out = tmp_path / "out"
        state = json.loads((out / "state.json").read_text())
        assert state["completed_stages"] == ["analyze", "index", "plan"]
        assert not (out / "report").exists()

        # Re-running resumes after the completed stages and fails the same way.
        calls = []
        real = Pipeline.stage_analyze
        monkeypatch.setattr(Pipeline, "stage_analyze", lambda self: calls.append(1) or real(self))
        with pytest.raises(ToolError):
            Pipeline(config).run()
        assert calls == []
        assert not (out / "report").exists()

    def test_silent_checker_error_names_the_unit_and_the_program(self, fixture_project, tmp_path):
        import re

        config = make_run_config(fixture_project, tmp_path / "out")
        config.tools.lint_cmd = f"{shlex.quote(sys.executable)} -c \"raise SystemExit(3)\" {{file}}"
        wanted = f"lint checker {sys.executable!r} exited 3 without diagnostics on unit Logger.swift: ''"
        with pytest.raises(ToolError, match=re.escape(wanted)):
            Pipeline(config).run()

    def test_stub_crash_fails_the_stage(self, fixture_project, tmp_path, monkeypatch):
        from transmigrate.validation import stubcheck

        def crash(path, text):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(stubcheck, "check_syntax", crash)
        config = make_run_config(fixture_project, tmp_path / "out")
        with pytest.raises(ToolError, match="RecursionError"):
            Pipeline(config).run()
        state = json.loads((tmp_path / "out" / "state.json").read_text())
        assert state["completed_stages"] == ["analyze", "index", "plan"]


def one_package_project(root, repaired=("A", "B", "C"), packages=(("p", "ABC"),)):
    """A project of the classes that ``packages`` lists per package,
    planned in that order; by default A, B and C in package ``p``, so one
    component holds three units. The classes named in ``repaired`` declare
    a field ``init``, which the mock backend keeps and the stub syntax
    checker flags, so those units need one repair."""
    for package, names in packages:
        for name in names:
            field = "    private int init = 0;\n\n" if name in repaired else ""
            source = f"package {package};\n\npublic class {name} {{\n{field}    public void run{name}() {{\n    }}\n}}\n"
            (root / "src" / package).mkdir(parents=True, exist_ok=True)
            (root / "src" / package / f"{name}.java").write_text(source)
    return root


def python_command(code: str) -> str:
    """A checker template that runs ``code`` with the file as argv[1]."""
    return f"{shlex.quote(sys.executable)} -c {shlex.quote(code)} {{file}}"


def grandchild_recording_its_pid(pid_file: pathlib.Path) -> str:
    """Python code that writes its pid to ``pid_file`` and sleeps 30 s. The
    pid is written beside the file and renamed over it, so the file never
    exists without the pid in it."""
    tmp = str(pid_file.with_name(pid_file.name + ".tmp"))
    return (
        f"import os, time; open({tmp!r}, 'w').write(str(os.getpid())); "
        f"os.replace({tmp!r}, {str(pid_file)!r}); time.sleep(30)"
    )


def run_interrupted_once_the_grandchild_runs(config, pid_file: pathlib.Path) -> None:
    """Run ``config`` whole while a helper thread waits up to 10 s for
    ``pid_file`` and then sends this process SIGINT. The run must end in
    KeyboardInterrupt within 5 s of the signal, and the grandchild whose
    pid the file holds must be gone within 10 s: an orphan until the init
    process reaps it, which can take a second or two; unkilled, it would
    sleep 30 s."""
    import signal
    import threading

    interrupted = []  # when the SIGINT was sent
    waited = []  # how long the helper waited for the pid file

    def interrupt_once_the_grandchild_runs():
        started = time.monotonic()
        while not pid_file.exists():
            if time.monotonic() - started > 10:
                waited.append(time.monotonic() - started)
                return  # no signal: the run then ends without KeyboardInterrupt
            time.sleep(0.01)
        interrupted.append(time.monotonic())
        waited.append(interrupted[0] - started)
        os.kill(os.getpid(), signal.SIGINT)

    helper = threading.Thread(target=interrupt_once_the_grandchild_runs)
    helper.start()
    raised = None
    try:
        run_full(config)
    except KeyboardInterrupt:
        raised = time.monotonic()
    finally:
        helper.join(timeout=15)
    assert not helper.is_alive()
    assert interrupted, f"no SIGINT sent: no pid file after {waited[0]:.2f} s; the run ended uninterrupted"
    assert raised is not None, f"no KeyboardInterrupt; SIGINT sent after {waited[0]:.2f} s of waiting for the pid file"
    assert raised - interrupted[0] < 5, f"KeyboardInterrupt came {raised - interrupted[0]:.2f} s after the SIGINT"
    pid = int(pid_file.read_text())
    assert (state := process_left(pid, 10)) is None, f"grandchild {pid} still present after 10 s, state {state}"


class TestConcurrentChecks:
    """Round 0 of a component's units is checked in one batch, one process
    per checker over every unit file, on translate's own thread once the
    component's class prompts are sent; a repair round checks its one unit."""

    def test_silent_round_0_failure_names_the_batch_in_plan_order_and_a_resume_finishes(self, tmp_path):
        project = one_package_project(tmp_path / "project")
        failing = tmp_path / "lint-fails"
        failing.touch()
        # While the marker exists, lint fails silently when it is given C.
        lint = python_command(
            "import os, sys\n"
            f"if os.path.exists({str(failing)!r}) and any(f.endswith('/C.swift') for f in sys.argv[1:]):\n"
            "    sys.exit(3)\n"
        )
        fresh = make_run_config(project, tmp_path / "fresh")
        config = make_run_config(project, tmp_path / "out")
        for c in (fresh, config):
            c.tools.lint_cmd = lint
        wanted = "exited 3 without diagnostics on units A.swift, B.swift, C.swift"
        with pytest.raises(ToolError, match=re.escape(wanted)):
            run_full(config)
        assert logged(tmp_path / "out") == []

        failing.unlink()
        run_full(config)
        run_full(fresh)
        assert output_tree(tmp_path / "out") == output_tree(tmp_path / "fresh")

    def test_each_checker_runs_once_per_round_over_the_rounds_units_in_plan_order(self, tmp_path):
        project = one_package_project(tmp_path / "project", repaired=("B",))
        log = tmp_path / "checks.jsonl"
        config = make_run_config(project, tmp_path / "out")
        # Each checker logs its name and its files; syntax flags B's ``init`` field.
        for key, name in (("syntax_check_cmd", "syntax"), ("lint_cmd", "lint")):
            setattr(
                config.tools,
                key,
                python_command(
                    "import json, sys\n"
                    f"open({str(log)!r}, 'a').write(json.dumps([{name!r}, sys.argv[1:]]) + '\\n')\n"
                    "for f in sys.argv[1:]:\n"
                    f"    if {name!r} == 'syntax' and 'let init ' in open(f).read():\n"
                    "        print(f + ':1:1: error: init field')\n"
                ),
            )
        run_full(config)
        units = [f"translate/units/{name}.swift" for name in "ABC"]
        assert [json.loads(line) for line in log.read_text().splitlines()] == [
            ["syntax", units],
            ["lint", units],
            ["syntax", ["translate/units/B.swift"]],
            ["lint", ["translate/units/B.swift"]],
        ]
        payload = logged_by_unit(tmp_path / "out")["B"]
        assert len(payload["history"]) == 2
        assert payload["history"][0]["report"]["files"]["B.swift"][0]["message"] == "init field"

    def test_a_diagnostic_with_an_absolute_path_lands_on_its_unit(self, tmp_path):
        project = one_package_project(tmp_path / "project", repaired=("B",))
        config = make_run_config(project, tmp_path / "out")
        config.tools.syntax_check_cmd = python_command(
            "import os, sys\n"
            "for f in sys.argv[1:]:\n"
            "    if 'let init ' in open(f).read():\n"
            "        print(os.path.abspath(f) + ':2:5: error: init field')\n"
        )
        run_full(config)
        payloads = logged_by_unit(tmp_path / "out")
        round_0 = {name: payloads[name]["history"][0]["report"]["files"] for name in "ABC"}
        assert round_0["A"] == round_0["C"] == {}
        (issue,) = round_0["B"]["B.swift"]
        assert (issue["file"], issue["line"], issue["column"], issue["source"]) == ("B.swift", 2, 5, "syntax")

    def test_a_diagnostic_for_a_file_outside_the_batch_fails_the_stage(self, tmp_path):
        project = one_package_project(tmp_path / "project")
        config = make_run_config(project, tmp_path / "out")
        config.tools.lint_cmd = python_command("print('Other.swift:1:1: warning: stray (stray)')")
        wanted = "reported on 'Other.swift', not on units A.swift, B.swift, C.swift"
        with pytest.raises(ToolError, match=re.escape(wanted)):
            run_full(config)
        assert logged(tmp_path / "out") == []

    def test_interrupt_kills_the_checker_in_flight(self, tmp_path):
        project = one_package_project(tmp_path / "project")
        pid_file = tmp_path / "grandchild.pid"
        # The syntax checker of round 0 starts a grandchild that records its
        # pid and sleeps 30 s, holding the output pipe open.
        grandchild = grandchild_recording_its_pid(pid_file)
        config = make_run_config(project, tmp_path / "out")
        config.tools.syntax_check_cmd = python_command(
            f"import subprocess, sys; subprocess.Popen([sys.executable, '-c', {grandchild!r}]).wait()"
        )
        run_interrupted_once_the_grandchild_runs(config, pid_file)

    def test_interrupt_during_a_repair_round_kills_its_checker(self, tmp_path):
        project = one_package_project(tmp_path / "project", repaired=("A",))
        pid_file = tmp_path / "grandchild.pid"
        grandchild = grandchild_recording_its_pid(pid_file)
        # The syntax checker flags the ``init`` field of round 0, and on A's
        # repaired candidate only it starts a grandchild that records its
        # pid and sleeps 30 s, holding the output pipe open.
        config = make_run_config(project, tmp_path / "out")
        config.tools.syntax_check_cmd = python_command(
            "import subprocess, sys\n"
            "for f in sys.argv[1:]:\n"
            "    code = open(f).read()\n"
            "    if 'let init ' in code:\n"
            "        print(f + ':1:1: error: init field')\n"
            "    elif f.endswith('/A.swift') and 'initialValue' in code:\n"
            f"        subprocess.Popen([sys.executable, '-c', {grandchild!r}]).wait()\n"
        )
        run_interrupted_once_the_grandchild_runs(config, pid_file)

    def test_component_class_prompts_are_dumped_before_its_repair_prompts(self, tmp_path):
        project = one_package_project(tmp_path / "project", repaired=("A", "C"))
        run_full(make_run_config(project, tmp_path / "out", dump_prompts=True))
        labels = [p.name[5:-4] for p in sorted((tmp_path / "out" / "prompts").iterdir())]
        assert labels == [
            "method_p_A_runA",
            "class_p_A",
            "method_p_B_runB",
            "class_p_B",
            "method_p_C_runC",
            "class_p_C",
            "repair_A",
            "repair_C",
            "component_p",
            "project",
        ]


class TestStages:
    def test_stage_before_prerequisite_is_ordering_error(self, run_config):
        pipeline = Pipeline(run_config)
        with pytest.raises(OrderingError, match="plan"):
            pipeline.run_stage("translate")

    def test_validate_requires_translate(self, run_config):
        pipeline = Pipeline(run_config)
        with pytest.raises(OrderingError, match="translate"):
            pipeline.run_stage("validate")

    def test_plan_after_analyze_emits_plan(self, run_config):
        pipeline = Pipeline(run_config)
        pipeline.run_stage("analyze")
        pipeline.run_stage("plan")
        plan_file = run_config_path(run_config.output_root) / "plan" / "plan.jsonl"
        lines = [json.loads(l) for l in plan_file.read_text().splitlines()]
        assert [l["name"] for l in lines if l["kind"] == "component"] == [
            "com.example.core",
            "com.example.net",
            "com.example.ui",
        ]

    def test_index_second_run_is_cache_hit(self, run_config, monkeypatch):
        calls = []  # one entry per embedded text
        real_embed = HashedTokenEmbedder.embed

        def counting_embed(self, texts):
            calls.extend(texts)
            return real_embed(self, texts)

        monkeypatch.setattr(HashedTokenEmbedder, "embed", counting_embed)
        pipeline = Pipeline(run_config)
        pipeline.run_stage("index")
        first_count = len(calls)
        assert first_count > 0
        pipeline.run_stage("index")
        assert len(calls) == first_count  # zero additional embedding calls

    def test_index_files_without_a_completed_index_stage_are_built_again(self, run_config, embedded):
        # As after a kill between saving the files and recording the stage:
        # the files' inputs are unknown, so they are no cache hit.
        Pipeline(run_config).run_stage("index")
        (run_config_path(run_config.output_root) / "state.json").unlink()
        embedded.clear()
        Pipeline(run_config).run_stage("index")
        assert embedded

    def test_kill_during_the_index_build_leaves_no_file_a_resume_trusts(self, fixture_project, tmp_path, monkeypatch):
        import transmigrate.knowledge.index as index_module

        class Killed(BaseException):
            pass

        run_full(make_run_config(fixture_project, tmp_path / "fresh"))
        config = make_run_config(fixture_project, tmp_path / "out")
        # Two entries per row block, so the fixture's chunks take several
        # blocks and the kill lands after the first block's chunk lines.
        monkeypatch.setattr(index_module, "_BLOCK_CELLS", 2 * config.knowledge.embedding_dimension)
        real_embed = HashedTokenEmbedder.embed
        calls = []

        def killing_embed(self, texts):
            calls.append(texts)
            if len(calls) == 2:
                raise Killed
            return real_embed(self, texts)

        monkeypatch.setattr(HashedTokenEmbedder, "embed", killing_embed)
        pipeline = Pipeline(config)
        pipeline.run_stage("analyze")
        with pytest.raises(Killed):
            pipeline.run_stage("index")
        monkeypatch.undo()
        index_dir = tmp_path / "out" / "index"
        assert [p.name for p in index_dir.iterdir()] == [".chunks.jsonl.tmp"]
        assert (index_dir / ".chunks.jsonl.tmp").read_text().count("\n") == 2
        assert "index" not in Pipeline(config).state.completed_stages
        run_full(config)
        assert output_tree(tmp_path / "out") == output_tree(tmp_path / "fresh")

    def test_stale_files_of_an_older_output_root_are_never_read(self, run_config):
        # An older version also wrote analyze/graph_component.json,
        # index/meta.json, translate/unit_names.json and
        # validate/validity.json; a root that still holds them resumes.
        out = run_config_path(run_config.output_root)
        run_full(run_config)
        for stale in ("analyze/graph_component", "index/meta", "translate/unit_names", "validate/validity"):
            (out / f"{stale}.json").write_text("not JSON")
        (out / "translate" / "project.swift").unlink()
        pipeline = Pipeline(run_config)
        for stage in ("index", "plan", "translate", "validate", "report"):
            pipeline.run_stage(stage)
        assert report_bytes(run_config)[1] == (GOLDEN_DIR / "report.json").read_bytes()

    def test_crawl_runs_exactly_when_a_start_url_is_set(self, fixture_project, tmp_path, monkeypatch):
        import transmigrate.pipeline as pipeline_module

        crawled = []
        monkeypatch.setattr(pipeline_module, "crawl_site", lambda url, depth, pages: crawled.append(url) or [])
        for name, start_url in (("off", None), ("on", "file:///docs/index.html")):
            config = make_run_config(fixture_project, tmp_path / name, knowledge={"crawl": {"start_url": start_url}})
            pipeline = Pipeline(config)
            pipeline.run_stage("analyze")
            pipeline.run_stage("index")
        assert crawled == ["file:///docs/index.html"]

    def test_missing_backend_fails_before_any_work(self, fixture_project, tmp_path):
        with pytest.raises(ConfigurationError, match="backend"):
            make_run_config(fixture_project, tmp_path / "out", backend="").validate()
        config = make_run_config(fixture_project, tmp_path / "out", backend="")
        with pytest.raises(ConfigurationError):
            Pipeline(config)
        assert not (tmp_path / "out").exists()


class TestNetworkIsolation:
    def test_mock_run_makes_no_network_connections(self, run_config, monkeypatch):
        real_connect = socket.socket.connect

        def deny(self, address):
            raise AssertionError(f"network connection attempted: {address}")

        monkeypatch.setattr(socket.socket, "connect", deny)
        try:
            run_full(run_config)
        finally:
            monkeypatch.setattr(socket.socket, "connect", real_connect)
        assert (run_config_path(run_config.output_root) / "report" / "report.json").is_file()

    def test_import_loads_no_http_client(self):
        # urllib.request pulls in http.client, ssl and email; only a live
        # backend, a remote embedder or a crawl needs them, and each imports
        # it when it runs.
        import subprocess

        import transmigrate

        probe = (
            "import sys, transmigrate.pipeline; "
            "print([m for m in ('urllib.request', 'http.client', 'ssl') if m in sys.modules])"
        )
        env = {
            "PYTHONPATH": str(pathlib.Path(transmigrate.__file__).parents[1]),
            "PATH": "",
            "PYTHONDONTWRITEBYTECODE": "1",
        }
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
        assert result.stdout == "[]\n", result.stderr


# A component line and a class line under it.
PLAN_HEAD = '{"kind": "component", "name": "p"}\n{"component": "p", "kind": "class", "name": "p.A"}'


class TestCli:
    def write_config(self, tmp_path, fixture_project):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(fixture_config(fixture_project, tmp_path / "out")))
        return config_path

    def test_run_subcommand_produces_report(self, fixture_project, tmp_path):
        config_path = self.write_config(tmp_path, fixture_project)
        assert cli_main(["run", "--config", str(config_path)]) == 0
        assert (tmp_path / "out" / "report" / "report.md").is_file()

    def test_stage_out_of_order_exits_2(self, fixture_project, tmp_path):
        config_path = self.write_config(tmp_path, fixture_project)
        assert cli_main(["translate", "--config", str(config_path)]) == 2

    def test_bad_config_exits_2(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text("{not json")
        assert cli_main(["run", "--config", str(config_path)]) == 2

    @pytest.mark.parametrize(
        "key",
        [
            "tools.parallelism",
            "knowledge.crawl.enable",
            "backend_options.modle",
            "max_round",
            "promt_budget",
            # Grammars and templates ship with the package; no setting moves them.
            "grammar_dir",
            # Crawling runs exactly when knowledge.crawl.start_url is set.
            "knowledge.crawl.enabled",
            # Only MockBackend's constructor scripts one fix per call.
            "backend_options.max_fixes_per_call",
        ],
    )
    def test_unknown_config_key_exits_2(self, fixture_project, tmp_path, capsys, key):
        config_path = self.write_config(tmp_path, fixture_project)
        raw = json.loads(config_path.read_text())
        *sections, name = key.split(".")
        section = raw
        for part in sections:
            section = section.setdefault(part, {})
        section[name] = 2
        config_path.write_text(json.dumps(raw))
        assert cli_main(["run", "--config", str(config_path)]) == 2
        assert f"unknown config key {key}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "key, value, wanted",
        [
            ("max_rounds", "2", "must be an integer"),
            ("max_rounds", True, "must be an integer"),
            ("seed", None, "must be an integer"),
            ("dry_run", 1, "must be true or false"),
            ("tools.timeout_seconds", "60", "must be a number"),
            ("knowledge.crawl.max_depth", 1.5, "must be an integer"),
            ("backend_options.model", None, "must be a string"),
            # Python's json reads Infinity and NaN, which would pass every range check.
            ("tools.timeout_seconds", float("inf"), "must be a finite number"),
            ("tools.timeout_seconds", float("nan"), "must be a finite number"),
            ("backend_options.timeout_seconds", float("-inf"), "must be a finite number"),
            ("backend_options.temperature", float("nan"), "must be a finite number"),
        ],
    )
    def test_config_value_of_wrong_type_exits_2(self, fixture_project, tmp_path, capsys, key, value, wanted):
        config_path = self.write_config(tmp_path, fixture_project)
        raw = json.loads(config_path.read_text())
        *sections, name = key.split(".")
        section = raw
        for part in sections:
            section = section.setdefault(part, {})
        section[name] = value
        config_path.write_text(json.dumps(raw))
        assert cli_main(["run", "--config", str(config_path)]) == 2
        assert f"config key {key} {wanted}, got {json.dumps(value)}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "key, value, named",
        [
            ("prompt_budget", 0, "prompt_budget"),
            ("knowledge.embedding_dimension", 0, "knowledge.embedding_dimension"),
            ("knowledge.retrieval_k", 0, "knowledge.retrieval_k"),
            ("knowledge.crawl.max_depth", -3, "knowledge.crawl.max_depth"),
            ("knowledge.crawl.max_pages", -1, "knowledge.crawl.max_pages"),
            ("knowledge.crawl.max_pages", 0, "knowledge.crawl.max_pages"),
            ("knowledge.provider", "remtoe", "knowledge.provider"),
            ("knowledge.provider", "remote", "knowledge.remote_endpoint"),
            ("backend_options.temperature", 5.0, "backend_options.temperature"),
            ("backend_options.temperature", 2.5, "backend_options.temperature"),
            ("backend_options.temperature", -0.1, "backend_options.temperature"),
            ("backend_options.retry_count", -1, "backend_options.retry_count"),
            ("backend_options.timeout_seconds", 0, "backend_options.timeout_seconds"),
            ("tools.timeout_seconds", 0, "tools.timeout_seconds"),
            # A checker template is checked here, not when translate first runs it.
            ("tools.lint_cmd", "swiftlint lint", "tools.lint_cmd"),
            ("tools.syntax_check_cmd", "swiftc -parse", "tools.syntax_check_cmd"),
            ("tools.lint_cmd", "swiftlint 'lint {file}", "tools.lint_cmd"),
            ("tools.syntax_check_cmd", 'swiftc "-parse {file}', "tools.syntax_check_cmd"),
            ("tools.lint_cmd", "swiftlint lint --path={file}", "tools.lint_cmd"),
        ],
    )
    def test_config_value_out_of_range_exits_2(
        self, fixture_project, tmp_path, capsys, monkeypatch, key, value, named
    ):
        # Checked whatever the backend, so the mock-backend fixture config
        # also refuses a live-backend setting out of range.
        from transmigrate.backends import MockBackend

        calls = []
        monkeypatch.setattr(MockBackend, "translate", lambda self, envelope: calls.append(envelope))
        config_path = self.write_config(tmp_path, fixture_project)
        raw = json.loads(config_path.read_text())
        *sections, name = key.split(".")
        section = raw
        for part in sections:
            section = section.setdefault(part, {})
        section[name] = value
        config_path.write_text(json.dumps(raw))
        assert cli_main(["run", "--config", str(config_path)]) == 2
        assert f"error: config key {named} must" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert calls == []

    @pytest.mark.parametrize("output_root", ["project", "project/.", "out/../project"])
    def test_output_root_at_the_source_root_exits_2_before_any_work(
        self, fixture_project, tmp_path, capsys, output_root
    ):
        # Outputs inside the hashed tree would make every resume refuse.
        before = sorted(p.relative_to(fixture_project) for p in fixture_project.rglob("*"))
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(fixture_config(fixture_project, output_root)))
        for command in ("analyze", "run"):
            assert cli_main([command, "--config", str(config_path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: config key output_root must not be the source root, got ")
        assert not list(fixture_project.rglob("state.json"))
        assert sorted(p.relative_to(fixture_project) for p in fixture_project.rglob("*")) == before

    @pytest.mark.parametrize(
        "content, named",
        [
            (None, "No such file"),
            ("{rules", "cannot read a rule table"),
            ('{"rules": {"pattern": "a"}}', "the rules must be a list"),
            ('[{"pattern": "a", "replacement": "b"}, {"replacement": "b"}]', 'rule 1 {"replacement": "b"}'),
            ('[{"pattern": "(", "replacement": ""}]', "rule 0"),
            ('[{"pattern": "a", "replacement": "b", "when": "allways"}]', '"when" must be'),
        ],
        ids=["missing", "not-json", "rules-not-a-list", "no-pattern", "bad-pattern", "bad-when"],
    )
    def test_malformed_mock_rule_table_exits_2_before_any_work(
        self, fixture_project, tmp_path, capsys, content, named
    ):
        config_path = self.write_config(tmp_path, fixture_project)
        raw = json.loads(config_path.read_text())
        rules = tmp_path / "rules.json"
        if content is not None:
            rules.write_text(content)
        raw["backend_options"]["rules_file"] = str(rules)
        config_path.write_text(json.dumps(raw))
        assert cli_main(["run", "--config", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: backend_options.rules_file {str(rules)!r}: ")
        assert named in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "key, template, program",
        [
            ("syntax_check_cmd", "no-such-checker {file}", "no-such-checker"),
            # A path with a slash is looked up against the output root.
            ("lint_cmd", "bin/no-such-checker {file}", "bin/no-such-checker"),
        ],
    )
    def test_missing_checker_exits_2_before_any_backend_call(
        self, fixture_project, tmp_path, capsys, monkeypatch, key, template, program
    ):
        from transmigrate.backends import MockBackend

        calls = []
        monkeypatch.setattr(MockBackend, "translate", lambda self, envelope: calls.append(envelope))
        config_path = self.write_config(tmp_path, fixture_project)
        raw = json.loads(config_path.read_text())
        raw["tools"][key] = template
        raw["dump_prompts"] = True
        config_path.write_text(json.dumps(raw))
        assert cli_main(["run", "--config", str(config_path)]) == 2
        assert f"error: checker tool not found: {program!r}" in capsys.readouterr().err
        out = tmp_path / "out"
        assert calls == []
        assert not list(out.glob("prompts/*"))
        assert "translate" not in json.loads((out / "state.json").read_text())["completed_stages"]

    def test_null_and_integer_accepted_where_they_fit(self, fixture_project, tmp_path):
        config_path = self.write_config(tmp_path, fixture_project)
        raw = json.loads(config_path.read_text())
        raw["backend_options"].update(max_output_units=None, temperature=0)
        raw["knowledge"] = {"crawl": {"start_url": None}}
        config_path.write_text(json.dumps(raw))
        assert cli_main(["analyze", "--config", str(config_path)]) == 0

    @pytest.mark.parametrize("artifact, command", [("state.json", "run"), ("analyze/classes.json", "plan")])
    def test_truncated_artifact_exits_1(self, fixture_project, tmp_path, capsys, artifact, command):
        config_path = self.write_config(tmp_path, fixture_project)
        assert cli_main(["analyze", "--config", str(config_path)]) == 0
        path = tmp_path / "out" / artifact
        path.write_text(path.read_text()[:40])
        capsys.readouterr()
        assert cli_main([command, "--config", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: corrupt artifact {path}: JSONDecodeError")

    @pytest.mark.parametrize(
        "artifact, content, stage",
        [
            ("validate/before.json", "[]", "report"),
            ("validate/after.json", '{"files": {"A.swift": [{"line": 1}]}}', "report"),
            ("plan/plan.jsonl", '{"kind": "comp', "report"),
            ("plan/plan.jsonl", "[]", "report"),
            ("plan/plan.jsonl", '{"kind": "class", "name": "A"}', "report"),
            # A plan line of an unknown kind, and one that names another
            # component or class than the line above it.
            ("plan/plan.jsonl", PLAN_HEAD + '\n{"class": "p.A", "kind": "metod", "name": "p.A.f"}', "translate"),
            (
                "plan/plan.jsonl",
                '{"kind": "component", "name": "p"}\n{"component": "q", "kind": "class", "name": "q.A"}',
                "report",
            ),
            ("plan/plan.jsonl", PLAN_HEAD + '\n{"class": "p.B", "kind": "method", "name": "p.B.f"}', "report"),
            (
                "plan/plan.jsonl",
                '{"kind": "component", "name": "p"}\n{"class": "p.A", "kind": "method", "name": "p.A.f"}',
                "report",
            ),
            # A plan of other classes than the class graph's.
            (
                "plan/plan.jsonl",
                '{"kind": "component", "name": "com.example.core"}\n'
                '{"component": "com.example.core", "kind": "class", "name": "com.example.core.Logger"}',
                "translate",
            ),
            # Every graph writer writes each edge's weight and the externals.
            (
                "analyze/graph_class.json",
                '{"granularity": "class", "nodes": ["a", "b"], "externals": {},'
                ' "edges": [{"from": "a", "to": "b", "kind": "call"}]}',
                "validate",
            ),
            ("analyze/graph_class.json", '{"granularity": "class", "nodes": [], "edges": []}', "validate"),
        ],
    )
    def test_artifact_of_wrong_shape_exits_1(self, fixture_project, tmp_path, capsys, artifact, content, stage):
        # Valid JSON of the wrong shape is as corrupt as a truncated file.
        config_path = self.write_config(tmp_path, fixture_project)
        assert cli_main(["run", "--config", str(config_path)]) == 0
        path = tmp_path / "out" / artifact
        path.write_text(content)
        capsys.readouterr()
        assert cli_main([stage, "--config", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: corrupt artifact {path}: ")
        assert "Traceback" not in err

    @staticmethod
    def edit_log(lines, edit):
        """The fixture's three log lines (Logger, HttpClient, MainScreen), edited."""
        logger, http, main = lines
        if edit == "line cut short":
            return [logger, http[:40] + b"\n", main]
        if edit == "unit logged twice":
            return [logger, http, http, main]
        if edit == "unit not planned":
            return [logger, http.replace(b'"unit":"HttpClient.swift"', b'"unit":"Other.swift"'), main]
        return [http, main]  # a done component's unit with no line

    @pytest.mark.parametrize("stage", ["translate", "validate"])
    @pytest.mark.parametrize(
        "edit, problem",
        [
            ("line cut short", "line 2 column 39: Unterminated string starting at"),
            ("unit logged twice", re.escape("line 3: unit 'HttpClient.swift' is logged again, first at line 2")),
            ("unit not planned", re.escape("line 2: unit 'Other.swift' is not in the plan")),
            (
                "done component's unit missing",
                re.escape("none of its 2 lines logs unit 'Logger.swift', of the done component 'com.example.core'"),
            ),
        ],
    )
    def test_corrupt_refinement_log_exits_1_naming_file_and_line(
        self, fixture_project, tmp_path, capsys, stage, edit, problem
    ):
        config_path = self.write_config(tmp_path, fixture_project)
        assert cli_main(["run", "--config", str(config_path)]) == 0
        log = tmp_path / "out" / "translate" / "refinement.jsonl"
        log.write_bytes(b"".join(self.edit_log(log.read_bytes().splitlines(keepends=True), edit)))
        capsys.readouterr()
        assert cli_main([stage, "--config", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert re.match(f"error: corrupt artifact {re.escape(str(log))}: {problem}", err), err
        assert "Traceback" not in err

    def test_output_root_of_the_per_unit_payload_layout_exits_1(self, fixture_project, tmp_path, capsys):
        # An older version wrote one translate/refinement/<unit>.json per
        # unit; its finished components then have units missing from the log.
        config_path = self.write_config(tmp_path, fixture_project)
        assert cli_main(["run", "--config", str(config_path)]) == 0
        translate = tmp_path / "out" / "translate"
        log = translate / "refinement.jsonl"
        (translate / "refinement").mkdir()
        for payload in logged(tmp_path / "out"):
            name = payload["unit"].removesuffix(".swift")
            (translate / "refinement" / f"{name}.json").write_text(json.dumps(payload, indent=2, sort_keys=True))
        log.unlink()
        capsys.readouterr()
        assert cli_main(["translate", "--config", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert err == (
            f"error: corrupt artifact {log}: none of its 0 lines logs unit 'Logger.swift', "
            "of the done component 'com.example.core'\n"
        )

    def test_validate_with_a_unit_missing_from_the_log_exits_2(self, fixture_project, tmp_path, capsys, monkeypatch):
        # A translate that failed after Logger's unit: validate names the
        # first unit of the plan's file name order that the log lacks.
        from transmigrate.backends import MockBackend

        config_path = self.write_config(tmp_path, fixture_project)
        real = MockBackend.translate
        budget = [4]  # Logger's two method prompts, class prompt and repair

        def failing(self, envelope):
            if budget[0] == 0:
                raise BackendError("backend gone")
            budget[0] -= 1
            return real(self, envelope)

        monkeypatch.setattr(MockBackend, "translate", failing)
        assert cli_main(["run", "--config", str(config_path)]) == 1
        monkeypatch.undo()
        assert [payload["unit"] for payload in logged(tmp_path / "out")] == ["Logger.swift"]
        capsys.readouterr()
        assert cli_main(["validate", "--config", str(config_path)]) == 2
        log = tmp_path / "out" / "translate" / "refinement.jsonl"
        err = capsys.readouterr().err
        assert err == f"error: no line for unit 'HttpClient.swift' in {log}: run the 'translate' stage first\n"

    def test_resume_with_a_done_units_file_missing_exits_1(self, fixture_project, tmp_path, capsys):
        # Logger's unit is done, so a resumed component prompt reads its
        # file back: no resume writes a missing one again, so it is corrupt.
        config_path = self.write_config(tmp_path, fixture_project)
        assert cli_main(["run", "--config", str(config_path)]) == 0
        out = tmp_path / "out"
        (out / "translate" / "units" / "Logger.swift").unlink()
        (out / "translate" / "components" / "com.example.core.swift").unlink()
        state = json.loads((out / "state.json").read_text())
        state["completed_stages"] = ["analyze", "index", "plan"]
        (out / "state.json").write_text(json.dumps(state))
        capsys.readouterr()
        for _ in range(2):  # running translate again does not help
            assert cli_main(["translate", "--config", str(config_path)]) == 1
            assert capsys.readouterr().err == (
                f"error: corrupt artifact {out / 'translate' / 'units' / 'Logger.swift'}: missing, though "
                f"{out / 'translate' / 'refinement.jsonl'} logs the unit as done (delete the output root to start over)\n"
            )

    def test_state_with_unit_status_exits_1(self, fixture_project, tmp_path, capsys):
        # state.json kept per-unit status before units were marked complete
        # by their refinement payloads; such a file is refused, not half-read.
        config_path = self.write_config(tmp_path, fixture_project)
        assert cli_main(["analyze", "--config", str(config_path)]) == 0
        path = tmp_path / "out" / "state.json"
        state = json.loads(path.read_text())
        state["unit_status"] = {"com.example.core.Logger": "translated"}
        path.write_text(json.dumps(state))
        capsys.readouterr()
        assert cli_main(["run", "--config", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: corrupt artifact {path}: TypeError")
        assert "unit_status" in err and "Traceback" not in err

    def test_config_that_is_not_an_object_exits_2(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text("[]")
        assert cli_main(["run", "--config", str(config_path)]) == 2
        assert "config must be a JSON object" in capsys.readouterr().err

    def test_dry_run_read_from_config_file(self, fixture_project, tmp_path, monkeypatch):
        from transmigrate.backends import MockBackend

        calls = []
        monkeypatch.setattr(MockBackend, "translate", lambda self, envelope: calls.append(envelope))
        config_path = self.write_config(tmp_path, fixture_project)
        raw = json.loads(config_path.read_text())
        raw["dry_run"] = True
        config_path.write_text(json.dumps(raw))
        assert cli_main(["run", "--config", str(config_path)]) == 0
        assert calls == []
        assert not (tmp_path / "out" / "translate" / "units").exists()

    def corrupt_index_then_translate(self, tmp_path, fixture_project, capsys, corrupt, name="index.jsonl"):
        config_path = self.write_config(tmp_path, fixture_project)
        for stage in ("analyze", "index", "plan"):
            assert cli_main([stage, "--config", str(config_path)]) == 0
        index_path = tmp_path / "out" / "index" / name
        index_path.write_text(corrupt(index_path.read_text()))
        capsys.readouterr()
        assert cli_main(["translate", "--config", str(config_path)]) == 1
        return capsys.readouterr().err

    def test_truncated_index_exits_1(self, fixture_project, tmp_path, capsys):
        err = self.corrupt_index_then_translate(
            tmp_path, fixture_project, capsys, lambda text: text[: len(text) // 2]
        )
        path = tmp_path / "out" / "index" / "index.jsonl"
        assert re.match(rf"error: corrupt artifact {re.escape(str(path))}: line \d+ column \d+: ", err), err
        assert "Traceback" not in err

    @pytest.mark.parametrize("cell", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_vector_cell_exits_1(self, fixture_project, tmp_path, capsys, cell):
        def poison_second_entry(text):
            lines = text.splitlines(keepends=True)
            entry = json.loads(lines[2])
            entry["v"][0] = cell
            lines[2] = json.dumps(entry) + "\n"
            return "".join(lines)

        err = self.corrupt_index_then_translate(tmp_path, fixture_project, capsys, poison_second_entry)
        assert err.startswith("error: ")
        assert "index.jsonl: line 3: vector cell is not a finite number" in err
        assert "Traceback" not in err

    def test_swapped_chunk_lines_exit_1(self, fixture_project, tmp_path, capsys):
        def swap_first_two(text):
            first, second, *rest = text.splitlines(keepends=True)
            return "".join([second, first, *rest])

        err = self.corrupt_index_then_translate(tmp_path, fixture_project, capsys, swap_first_two, "chunks.jsonl")
        assert err.startswith("error: ")
        assert re.search(r"index\.jsonl: line 2: id '[^']+' has no chunk: \S*chunks\.jsonl line 1 holds '[^']+'", err), err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name", ["index.jsonl", "chunks.jsonl"])
    def test_missing_index_file_exits_2_until_index_runs_again(self, fixture_project, tmp_path, capsys, name):
        config_path = self.write_config(tmp_path, fixture_project)
        for stage in ("analyze", "index", "plan"):
            assert cli_main([stage, "--config", str(config_path)]) == 0
        index_file = tmp_path / "out" / "index" / name
        saved = index_file.read_bytes()
        index_file.unlink()
        capsys.readouterr()
        assert cli_main(["translate", "--config", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert f"missing artifact {name!r}: run the 'index' stage first" in err
        assert "Traceback" not in err
        # The remedy works: no cache hit while a file is missing.
        assert cli_main(["index", "--config", str(config_path)]) == 0
        assert index_file.read_bytes() == saved
        assert cli_main(["translate", "--config", str(config_path)]) == 0

    def test_index_id_without_chunk_exits_1(self, fixture_project, tmp_path, capsys):
        def rename_first_entry(text):
            header, first, *rest = text.splitlines(keepends=True)
            entry = json.loads(first)
            entry["id"] = "missing.md#0"
            return "".join([header, json.dumps(entry) + "\n", *rest])

        err = self.corrupt_index_then_translate(tmp_path, fixture_project, capsys, rename_first_entry)
        assert err.startswith("error: ")
        assert "index.jsonl: line 2: id 'missing.md#0' has no chunk" in err

    def test_checker_that_never_ran_exits_1(self, fixture_project, tmp_path):
        config_path = self.write_config(tmp_path, fixture_project)
        raw = json.loads(config_path.read_text())
        raw["tools"]["lint_cmd"] = f"{shlex.quote(sys.executable)} -c \"raise SystemExit(3)\" {{file}}"
        config_path.write_text(json.dumps(raw))
        assert cli_main(["run", "--config", str(config_path)]) == 1
        assert not (tmp_path / "out" / "report").exists()

    def test_source_tree_without_java_class_exits_2_at_analyze(self, tmp_path, capsys, monkeypatch):
        from transmigrate.backends import MockBackend

        calls = []
        monkeypatch.setattr(MockBackend, "translate", lambda self, envelope: calls.append(envelope))
        empty = tmp_path / "empty"
        empty.mkdir()
        (empty / "README.md").write_text("# Nothing to translate\n")
        config_path = self.write_config(tmp_path, empty)
        assert cli_main(["run", "--config", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert "no Java class found under source_root" in err and str(empty) in err
        assert not (tmp_path / "out").exists()
        assert calls == []

    def test_backend_flag_overrides_config(self, fixture_project, tmp_path):
        config_path = self.write_config(tmp_path, fixture_project)
        raw = json.loads(config_path.read_text())
        raw["backend"] = ""
        config_path.write_text(json.dumps(raw))
        assert cli_main(["run", "--config", str(config_path)]) == 2
        assert cli_main(["run", "--config", str(config_path), "--backend", "mock"]) == 0


class TestCliOverrides:
    def test_dry_run_stops_before_backend_calls(self, fixture_project, tmp_path, monkeypatch):
        from transmigrate.backends import MockBackend

        calls = []
        real = MockBackend.translate

        def counting(self, envelope):
            calls.append(envelope.level)
            return real(self, envelope)

        monkeypatch.setattr(MockBackend, "translate", counting)
        config = make_run_config(fixture_project, tmp_path / "out")
        config.dry_run = True
        Pipeline(config).run()
        assert calls == []
        out = run_config_path(config.output_root)
        assert (out / "plan" / "plan.jsonl").is_file()
        assert not (out / "translate" / "units").exists()

    def test_seed_and_max_rounds_flags_override_config(self, fixture_project, tmp_path):
        from transmigrate.cli import build_arg_parser, load_config

        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(fixture_config(fixture_project, tmp_path / "out", max_rounds=3)))

        args = build_arg_parser().parse_args(
            ["run", "--config", str(config_path), "--seed", "99", "--max-rounds", "1", "--dry-run"]
        )
        config = load_config(args)
        assert config.seed == 99
        assert config.max_rounds == 1
        assert config.dry_run


class TestIssueSampling:
    def test_sampled_report_records_sample_metadata(self, fixture_project, tmp_path):
        config = make_run_config(fixture_project, tmp_path / "out", sample_issues=True)
        Pipeline(config).run()
        payload = json.loads(
            (run_config_path(config.output_root) / "report" / "report.json").read_text()
        )
        sample = payload["sample"]
        assert sample["confidence"] == 0.95 and sample["margin"] == 0.05
        assert sample["size"] <= sample["population"]
        total_labeled = sum(t["count"] for t in payload["taxonomy"])
        assert total_labeled == sample["size"]


class TestStageBoundaryResume:
    def test_stagewise_execution_equals_single_run(self, fixture_project, tmp_path):
        # Interrupting at every stage boundary and resuming must match the
        # golden single-run artifacts.
        config = make_run_config(fixture_project, tmp_path / "out")
        for stage in STAGES:
            Pipeline(config).run_stage(stage)  # fresh Pipeline each time
        out = run_config_path(config.output_root)
        assert (out / "report" / "report.json").read_bytes() == (GOLDEN_DIR / "report.json").read_bytes()

    def test_stagewise_tree_equals_single_run_tree(self, fixture_project, tmp_path):
        # The single run translates with the index its index stage built;
        # the stagewise run loads it from disk. Every artifact, the dumped
        # prompts and state.json included, must come out the same.
        single = make_run_config(fixture_project, tmp_path / "single", dump_prompts=True)
        run_full(single)
        stagewise = make_run_config(fixture_project, tmp_path / "stagewise", dump_prompts=True)
        for stage in STAGES:
            Pipeline(stagewise).run_stage(stage)
        single_tree = output_tree(single.output_root)
        assert any(name.startswith("prompts/") for name in single_tree)
        assert output_tree(stagewise.output_root) == single_tree

    def test_root_of_the_spaced_encoding_resumes_to_a_fresh_run(self, fixture_project, tmp_path):
        # An older version wrote the plan and both index files one spaced
        # json.dumps per line. A root it left after plan must resume from
        # them: translate, validate and report send and write what a fresh
        # run does, the index loaded from its spaced files.
        fresh = make_run_config(fixture_project, tmp_path / "fresh", dump_prompts=True)
        run_full(fresh)
        config = make_run_config(fixture_project, tmp_path / "out", dump_prompts=True)
        run_full(config)
        out = run_config_path(config.output_root)
        rewritten = ("plan/plan.jsonl", "index/index.jsonl", "index/chunks.jsonl")
        for rel in rewritten:
            compact = (out / rel).read_text(encoding="utf-8")
            spaced = "".join(json.dumps(json.loads(line), sort_keys=True) + "\n" for line in compact.splitlines())
            assert spaced != compact
            (out / rel).write_text(spaced, encoding="utf-8")
        state = json.loads((out / "state.json").read_text())
        state["completed_stages"] = ["analyze", "index", "plan"]
        (out / "state.json").write_text(json.dumps(state))
        for directory in ("translate", "prompts"):
            shutil.rmtree(out / directory)
        for stage in ("translate", "validate", "report"):
            Pipeline(config).run_stage(stage)
        resumed = output_tree(out)
        expected = output_tree(fresh.output_root)
        assert any(name.startswith("prompts/") for name in expected)
        for name in (*rewritten, "state.json"):
            del resumed[name], expected[name]
        assert resumed == expected

    def test_full_run_after_partial_stages_skips_them(self, fixture_project, tmp_path, monkeypatch):
        config = make_run_config(fixture_project, tmp_path / "out")
        first = Pipeline(config)
        first.run_stage("analyze")
        first.run_stage("index")

        calls = []
        from transmigrate.pipeline import Pipeline as P

        real = P.stage_analyze

        def counting(self):
            calls.append(1)
            return real(self)

        monkeypatch.setattr(P, "stage_analyze", counting)
        Pipeline(config).run()
        assert calls == []  # analyze not repeated


class TestSourceListing:
    """Every stage reads the one listing the input hash walks: the regular
    files under the source root, the output root left out when inside."""

    FIXTURE_DIGEST = "7b5698437940d175e7c7c0a228240abf0b1d5c8c8f5a33422083ca7c549e7cf7"

    def assert_golden_report(self, config):
        _, json_bytes, md_bytes = report_bytes(config)
        assert json_bytes == (GOLDEN_DIR / "report.json").read_bytes()
        assert md_bytes == (GOLDEN_DIR / "report.md").read_bytes()

    def test_fixture_digest_is_pinned(self, run_config):
        assert Pipeline(run_config).state.input_hash == self.FIXTURE_DIGEST

    def test_listing_holds_regular_files_in_path_order(self, tmp_path):
        for rel in ("a-b/x.md", "a/b.md", "out/state.json", "res/v.xml"):
            (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / rel).write_text(rel)
        (tmp_path / "Odd.java").mkdir()
        outside = tmp_path.parent / f"{tmp_path.name}-out"
        _, files = hash_source_tree(tmp_path, outside)
        assert files == ["a/b.md", "a-b/x.md", "out/state.json", "res/v.xml"]
        _, files = hash_source_tree(tmp_path, tmp_path / "out")
        assert files == ["a/b.md", "a-b/x.md", "res/v.xml"]
        # Only an output root strictly inside the source root is left out.
        assert hash_source_tree(tmp_path, tmp_path) == hash_source_tree(tmp_path, outside)
        assert hash_source_tree(tmp_path / "a", tmp_path)[1] == ["b.md"]

    @pytest.mark.parametrize("directory", ["src/com/example/Odd.java", "lib/build.gradle"])
    def test_directory_named_like_a_read_file_is_not_read(self, fixture_project, tmp_path, directory):
        (fixture_project / directory).mkdir(parents=True)
        config = make_run_config(fixture_project, tmp_path / "out")
        run_full(config)
        self.assert_golden_report(config)

    def test_git_paths_are_left_out_of_listing_and_digest(self, tmp_path):
        kept = (".github/ci.yml", ".gitignore", "a.md", "sub/x.java")
        for rel in kept + (".git/index", ".git/objects/ab/cd", "sub/.git", "lib/.git/HEAD"):
            (tmp_path / "with" / rel).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / "with" / rel).write_text(rel)
        for rel in kept:
            (tmp_path / "without" / rel).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / "without" / rel).write_text(rel)
        digest, files = hash_source_tree(tmp_path / "with", tmp_path / "out")
        assert files == [".github/ci.yml", ".gitignore", "a.md", "sub/x.java"]
        assert (digest, files) == hash_source_tree(tmp_path / "without", tmp_path / "out")

    def test_git_index_rewritten_between_stages_still_resumes(self, fixture_project, tmp_path):
        # A ``git status`` between two stage runs rewrites ``.git/index``.
        git = fixture_project / ".git"
        git.mkdir()
        (git / "HEAD").write_text("ref: refs/heads/main\n")
        (git / "index").write_bytes(b"DIRC\0\0\0\2")
        config = make_run_config(fixture_project, tmp_path / "out")
        Pipeline(config).run_stage("analyze")
        (git / "index").write_bytes(b"DIRC\0\0\0\2 refreshed stat data")
        for stage in STAGES[1:]:
            Pipeline(config).run_stage(stage)
        self.assert_golden_report(config)
        assert Pipeline(config).state.input_hash == self.FIXTURE_DIGEST

    def test_output_root_inside_the_source_root_is_left_out(self, fixture_project):
        out = fixture_project / "out"
        out.mkdir()
        (out / "README.md").write_text("Notes kept beside the artifacts.\n")
        config = make_run_config(fixture_project, out)
        for stage in STAGES:
            Pipeline(config).run_stage(stage)
        self.assert_golden_report(config)
        chunks = [json.loads(line) for line in (out / "index" / "chunks.jsonl").read_text().splitlines()]
        assert chunks and not [c["source_uri"] for c in chunks if c["source_uri"].startswith("out/")]
        assert Pipeline(config).state.input_hash == self.FIXTURE_DIGEST


class TestIndexReuse:
    def test_single_run_never_loads_the_index(self, run_config, index_loads):
        run_full(run_config)
        assert index_loads == []
        _, json_bytes, _ = report_bytes(run_config)
        assert json_bytes == (GOLDEN_DIR / "report.json").read_bytes()

    def test_stagewise_runs_load_the_index_once(self, fixture_project, tmp_path, index_loads):
        # A fresh Pipeline per stage stands for a process per stage: the
        # translate stage has only the saved index. One Pipeline running
        # the stages one by one keeps the index it built.
        fresh = make_run_config(fixture_project, tmp_path / "fresh")
        for stage in STAGES:
            Pipeline(fresh).run_stage(stage)
        same = make_run_config(fixture_project, tmp_path / "same")
        pipeline = Pipeline(same)
        for stage in STAGES:
            pipeline.run_stage(stage)
        assert index_loads == [tmp_path / "fresh"]

    def test_cache_hit_keeps_the_built_index_and_a_fresh_translate_loads_it(self, run_config, index_loads):
        out = run_config_path(run_config.output_root)
        pipeline = Pipeline(run_config)
        pipeline.run_stage("index")
        saved = output_tree(out / "index")
        pipeline.run_stage("index")  # cache hit: nothing is embedded or written
        assert output_tree(out / "index") == saved
        for stage in ("analyze", "plan", "translate"):
            pipeline.run_stage(stage)
        assert index_loads == []
        (out / "translate" / "project.swift").unlink()  # leave a prompt to send
        Pipeline(run_config).run_stage("translate")
        assert index_loads == [out]

    def test_translate_parses_and_loads_only_for_pending_prompts(self, run_config, monkeypatch, index_loads, parses):
        from transmigrate.backends import MockBackend

        run_full(run_config)
        out = run_config_path(run_config.output_root)
        before = output_tree(out)
        real = MockBackend.translate
        levels = []

        def counting(self, envelope):
            levels.append(envelope.level)
            return real(self, envelope)

        monkeypatch.setattr(MockBackend, "translate", counting)
        parses.clear()

        Pipeline(run_config).run_stage("translate")  # nothing pending
        assert (len(parses), index_loads, levels) == (0, [], [])

        (out / "translate" / "project.swift").unlink()
        pipeline = Pipeline(run_config)
        pipeline.run_stage("translate")  # only the project prompt pending
        assert (len(parses), index_loads, levels) == (0, [out], ["project"])
        assert (pipeline._java, pipeline._index) == (None, None)
        assert output_tree(out) == before


class TestRetrievalPass:
    """Translate retrieves for every pending prompt in one pass, before the
    first send: each distinct retrieval text is embedded once."""

    # Send order: each class's methods, the class, then its component;
    # the project prompt last.
    FIXTURE_TEXTS = [
        "Logger Logger", "Logger log", "Logger com.example.core", "com.example.core",
        "HttpClient HttpClient", "HttpClient fetch", "HttpClient com.example.net", "com.example.net",
        "MainScreen render", "MainScreen onCreate", "MainScreen com.example.ui", "com.example.ui",
        "MiniApp",
    ]

    # Components "", p and q in plan order. A.run is overloaded, so its two
    # prompts share one text. A class of the default package retrieves for
    # "<Simple> " and its component for "project root".
    PACKAGES_TEXTS = [
        "Main start", "Main ", "project root",
        "A run", "A p", "p",
        "B go", "B q", "C stop", "C q", "q",
        "MiniApp",
    ]

    @pytest.fixture
    def packages_project(self, tmp_path):
        """Main in the default package, A in ``p`` and B and C in ``q``."""
        root = tmp_path / "project"
        sources = {
            "Main.java": "public class Main {\n    public void start() { }\n}\n",
            "p/A.java": "package p;\n\npublic class A {\n    public void run() { }\n    public void run(int times) { }\n}\n",
            "q/B.java": "package q;\n\npublic class B {\n    public void go() { }\n}\n",
            "q/C.java": "package q;\n\npublic class C {\n    public void stop() { }\n}\n",
            # A document to index: an empty index needs no query embedded.
            "README.md": "A runs.\n",
        }
        for rel, text in sources.items():
            (root / rel).parent.mkdir(parents=True, exist_ok=True)
            (root / rel).write_text(text, encoding="utf-8")
        return root

    @staticmethod
    def translate_after_plan(config, monkeypatch, embedded) -> list[int]:
        """Run analyze, index and plan, forget their embedding, then run
        translate. Returns, per prompt sent other than a repair, the number
        of embedding calls made before it."""
        from transmigrate.backends import MockBackend

        pipeline = Pipeline(config)
        for stage in ("analyze", "index", "plan"):
            pipeline.run_stage(stage)
        embedded.clear()
        real = MockBackend.translate
        seen = []

        def recording(self, envelope):
            if envelope.level != "repair":
                seen.append(len(embedded))
            return real(self, envelope)

        monkeypatch.setattr(MockBackend, "translate", recording)
        pipeline.run_stage("translate")
        return seen

    def test_fresh_translate_embeds_each_retrieval_text_once_before_any_send(
        self, run_config, monkeypatch, embedded
    ):
        seen = self.translate_after_plan(run_config, monkeypatch, embedded)
        assert embedded == [self.FIXTURE_TEXTS]
        assert seen == [1] * 13

    def test_fresh_translate_of_several_packages_embeds_their_texts_in_send_order(
        self, packages_project, tmp_path, monkeypatch, embedded
    ):
        config = make_run_config(packages_project, tmp_path / "out")
        seen = self.translate_after_plan(config, monkeypatch, embedded)
        assert embedded == [self.PACKAGES_TEXTS]
        assert seen == [1] * 13

    def test_resume_after_a_kill_mid_component_embeds_the_pending_prompts_texts(
        self, packages_project, tmp_path, monkeypatch, embedded
    ):
        config = make_run_config(packages_project, tmp_path / "out")
        real_append = translate_module.append_json_line

        def killed_before_c_payload(log, payload):
            if payload["unit"] == "C.swift":
                raise Killed(payload["unit"])
            real_append(log, payload)

        monkeypatch.setattr(translate_module, "append_json_line", killed_before_c_payload)
        with pytest.raises(Killed):
            run_full(config)
        monkeypatch.setattr(translate_module, "append_json_line", real_append)
        assert sorted(logged_by_unit(tmp_path / "out")) == ["A", "B", "Main"]
        embedded.clear()
        Pipeline(config).run_stage("translate")
        assert embedded == [["C stop", "C q", "q", "MiniApp"]]

    def test_resume_embeds_only_the_pending_prompts_texts(self, run_config, embedded, index_loads):
        run_full(run_config)
        out = run_config_path(run_config.output_root)
        embedded.clear()
        Pipeline(run_config).run_stage("translate")  # nothing pending
        assert (embedded, index_loads) == ([], [])
        (out / "translate" / "project.swift").unlink()
        Pipeline(run_config).run_stage("translate")
        assert embedded == [[run_config.project_name]]
        assert index_loads == [out]


class TestLiveBackendPipeline:
    def test_pipeline_drives_live_wire_format(self, fixture_project, tmp_path, monkeypatch):
        import threading
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        bodies = []

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers["Content-Length"])
                bodies.append(json.loads(self.rfile.read(length)))
                payload = json.dumps(
                    {"choices": [{"message": {"content": "```swift\nclass Unit {\n}\n```"}}]}
                ).encode()
                self.send_response(200)
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args):
                pass

        server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        monkeypatch.setenv("TRANSMIGRATE_API_KEY", "sk-live-test")
        try:
            endpoint = f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"
            config = make_run_config(
                fixture_project,
                tmp_path / "out",
                backend="live",
                backend_options={"endpoint": endpoint, "model": "m1", "temperature": 0.0},
            )
            Pipeline(config).run_stage("analyze")
            Pipeline(config).run_stage("index")
            Pipeline(config).run_stage("plan")
            Pipeline(config).run_stage("translate")
        finally:
            server.shutdown()
        out = run_config_path(config.output_root)
        units = sorted(p.name for p in (out / "translate" / "units").glob("*.swift"))
        assert units == ["HttpClient.swift", "Logger.swift", "MainScreen.swift"]
        assert all(set(b) == {"model", "messages", "temperature"} for b in bodies)
        assert all(b["model"] == "m1" for b in bodies)
