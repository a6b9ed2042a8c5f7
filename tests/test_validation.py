import dataclasses
import re
import sys
import shlex
import subprocess
from pathlib import Path

import pytest

from conftest import reachable

from transmigrate.config import RunConfig, ToolsConfig
from transmigrate.errors import ArgumentError, ConfigurationError, MappingError, ToolError
from transmigrate.sourcemodel.extract import extract_classes
from transmigrate.sourcemodel.lexer import Token
from transmigrate.sourcemodel.parser import Ast, AstNode, SourceFile, parse_source
from transmigrate.validation.checks import (
    build_translated_class_graph,
    check_references,
    compare_graphs,
    load_platform_allowlist,
    load_residue_rules,
    parse_corpora,
    platform_scan,
)
from transmigrate.validation.issues import (
    IssueRecord,
    ValidationReport,
    format_diagnostic_line,
    parse_diagnostic_line,
    parse_tool_output,
)
from transmigrate.validation.tools import (
    STUB_PROGRAM,
    build_argv,
    resolve_checker,
    run_external_check,
    stub_tool_commands,
)

CHECK_TIMEOUT = ToolsConfig.timeout_seconds

LINT_LISTING_1 = (
    "WeatherApp/HTTPWeatherClient.swift:68:1: warning: Trailing Whitespace Violation: "
    "Lines should not have trailing whitespace (trailing_whitespace)"
)
LINT_LISTING_2 = (
    "AndroidTvMovie/GlideBackgroundManager.swift:66:1: warning: Line Length Violation: "
    "Line should be 120 characters or less; currently it has 194 characters (line_length)"
)


class TestDiagnosticParsing:
    def test_trailing_whitespace_listing(self):
        record = parse_diagnostic_line(LINT_LISTING_1, "lint")
        assert record is not None
        assert (record.file, record.line, record.column, record.severity, record.rule) == (
            "WeatherApp/HTTPWeatherClient.swift",
            68,
            1,
            "warning",
            "trailing_whitespace",
        )

    def test_line_length_listing(self):
        record = parse_diagnostic_line(LINT_LISTING_2, "lint")
        assert record is not None
        assert (record.file, record.line, record.column, record.severity, record.rule) == (
            "AndroidTvMovie/GlideBackgroundManager.swift",
            66,
            1,
            "warning",
            "line_length",
        )

    @pytest.mark.parametrize("listing", [LINT_LISTING_1, LINT_LISTING_2])
    def test_round_trip_formatting_is_byte_identical(self, listing):
        record = parse_diagnostic_line(listing, "lint")
        assert format_diagnostic_line(record) == listing

    def test_unrecognized_line_returns_none(self):
        assert parse_diagnostic_line("random text", "lint") is None

    def test_compiler_error_without_rule_id(self):
        line = "a.swift:3:10: error: expected '}' at end of brace statement"
        record = parse_diagnostic_line(line, source="syntax")
        assert record.rule is None and record.severity == "error" and record.source == "syntax"
        assert format_diagnostic_line(record) == line

    def test_parse_tool_output_skips_other_lines(self):
        output = f"{LINT_LISTING_1}\nnoise here\n{LINT_LISTING_2}\n"
        issues = parse_tool_output(output, source="lint")
        assert [format_diagnostic_line(i) for i in issues] == [LINT_LISTING_1, LINT_LISTING_2]


def swift_units(**units):
    (corpus,) = parse_corpora(units)
    return corpus


def project_symbols(java_text: str):
    """The project symbols of ``java_text``: class simple names plus
    constructor and method names, as ``analyze/classes.json`` lists them."""
    classes = extract_classes(parse_source(SourceFile("S.java", java_text, "java")))
    return {c.simple_name for c in classes} | {m.name for c in classes for m in c.all_methods()}


class TestReferenceCheck:
    SOURCE = """package p;
class Service {
    void FetchThreadData() {}
    void MockHandler() {}
    void setUpWithError() { FetchThreadData(); MockHandler(); }
}"""

    def test_missing_project_symbols_flagged(self):
        units = swift_units(**{
            "Detail.swift": "class Detail { func setUpWithError() { FetchThreadData(); MockHandler() } }"
        })
        issues = check_references(units, project_symbols(self.SOURCE))
        assert len(issues) == 2
        symbols = {i.message.split("'")[1] for i in issues}
        assert symbols == {"FetchThreadData", "MockHandler"}
        assert all(i.source == "internal_reference" and i.severity == "error" for i in issues)

    def test_all_references_defined(self):
        units = swift_units(**{
            "Detail.swift": "class Detail { func setUpWithError() { FetchThreadData() } }",
            "Helpers.swift": "func FetchThreadData() {}",
        })
        assert check_references(units, project_symbols(self.SOURCE)) == []

    def test_allowlisted_platform_symbol_not_flagged(self):
        # Both names are project symbols; only Timer is a shipped platform name.
        source = project_symbols("package p; class Service { void Helper() {} void Timer() {} }")
        assert "Timer" in load_platform_allowlist() and "Helper" not in load_platform_allowlist()
        units = swift_units(**{"A.swift": "class A { func go() { Helper(); Timer() } }"})
        assert [i.message.split("'")[1] for i in check_references(units, source)] == ["Helper"]

    def test_issue_anchored_at_first_occurrence(self):
        units = swift_units(**{
            "A.swift": "class A {\n    func go() {\n        FetchThreadData()\n    }\n}"
        })
        issues = check_references(units, project_symbols(self.SOURCE))
        assert issues[0].line == 3 and issues[0].column == 9

    def test_issue_column_counts_bytes_after_non_ascii_text(self):
        # Mentions in a comment and a string are not references; the column
        # is the 1-based byte offset in the line, so "ü" counts twice.
        text = (
            "// café: MockHandler() lives elsewhere\n"
            "class A {\n"
            '    let s = "naïve MockHandler"\n'
            "    func go() { let ü = 1; MockHandler()\n"
            "        FetchThreadData(); MockHandler()\n"
            "    }\n"
            "}\n"
        )
        issues = check_references(swift_units(**{"A.swift": text}), project_symbols(self.SOURCE))
        assert [(i.message.split("'")[1], i.line, i.column) for i in issues] == [
            ("FetchThreadData", 5, 9),
            ("MockHandler", 4, len("    func go() { let ü = 1; ".encode("utf-8")) + 1),
        ]
        assert all(i.file == "A.swift" and i.rule == "missing_definition" for i in issues)


def class_graph_of(*java_sources):
    descs = []
    for i, text in enumerate(java_sources):
        descs.extend(extract_classes(parse_source(SourceFile(f"f{i}.java", text, "java"))))
    from transmigrate.sourcemodel.graph import build_dependency_graph

    return build_dependency_graph(descs)


def identity(graph):
    """The mapping of each class of ``graph`` to itself, and each class
    reported against a unit of its own name."""
    names = {n: n for n in graph.nodes}
    return names, names


class TestGraphComparison:
    def test_missing_edge_is_error(self):
        source = class_graph_of("class A { B b; void go() { b.run(); } }", "class B { void run() {} }")
        translated = build_translated_class_graph(
            swift_units(**{"A.swift": "class A { }", "B.swift": "class B { func run() {} }"})
        )
        issues = compare_graphs(source, translated, *identity(source))
        errors = [i for i in issues if i.severity == "error"]
        assert len(errors) >= 1
        assert all(i.source == "graph_diff" and i.rule == "missing_edge" for i in errors)

    def test_isomorphic_graphs_clean(self):
        source = class_graph_of("class A { B b; }", "class B { }")
        translated = build_translated_class_graph(
            swift_units(**{"A.swift": "class A { var b: B }", "B.swift": "class B { }"})
        )
        assert compare_graphs(source, translated, *identity(source)) == []

    def test_extra_translated_edge_is_warning(self):
        source = class_graph_of("class A { }", "class B { }")
        translated = build_translated_class_graph(
            swift_units(**{"A.swift": "class A { var b: B }", "B.swift": "class B { }"})
        )
        issues = compare_graphs(source, translated, *identity(source))
        assert [i.severity for i in issues] == ["warning"]
        assert issues[0].rule == "extra_edge"

    def test_non_injective_mapping_rejected(self):
        source = class_graph_of("class A { }", "class B { }")
        translated = build_translated_class_graph(swift_units(**{"C.swift": "class C { }"}))
        with pytest.raises(MappingError):
            compare_graphs(source, translated, {"A": "C", "B": "C"}, {"C": "C.swift"})

    def test_requires_class_granularity(self):
        from transmigrate.sourcemodel.graph import DependencyGraph

        wrong = DependencyGraph("method", frozenset(), {})
        ok = DependencyGraph("class", frozenset(), {})
        with pytest.raises(ArgumentError):
            compare_graphs(wrong, ok, {}, {})


class TestPlatformScan:
    def test_third_party_image_library_residue(self):
        issues = platform_scan("A.swift", "Glide.with(context).load(url)")
        assert [i.rule for i in issues] == ["third_party.glide"]
        assert issues[0].severity == "error"

    def test_design_resource_residue(self):
        issues = platform_scan("A.swift", "let icon = R.drawable.ic_arrow_back")
        assert [i.rule for i in issues] == ["design.resource_drawable"]

    def test_clean_swift_file(self):
        code = """import Foundation
class Weather {
    func describe() -> String { return "sunny" }
}
"""
        assert platform_scan("Weather.swift", code) == []

    @pytest.mark.parametrize(
        "code, line, column",
        [
            ("//\nGlide.with(x)\n", 2, 1),
            # The column counts UTF-8 bytes, as the other checks' do: each "é" counts twice.
            ('let s = "ééé"; let init = Glide.with(x)', 1, 30),
        ],
        ids=["ascii", "non-ascii"],
    )
    def test_match_carries_position_and_snippet(self, code, line, column):
        issues = platform_scan("A.swift", code)
        assert issues[0].line == line and issues[0].column == column
        assert "Glide.with(" in issues[0].message

    def test_performance_rules_are_warnings(self):
        issues = platform_scan("A.swift", "let w = UIApplication.shared.windows.first")
        assert [i.severity for i in issues] == ["warning"]
        assert issues[0].rule == "performance.single_window"

    def test_rule_table_versioned(self):
        rules = load_residue_rules()
        assert len(rules) > 10
        assert all(r.rule_id and r.pattern for r in rules)

    def test_each_rule_compiled_once(self):
        rule = load_residue_rules()[0]
        assert rule.compiled is rule.compiled

    def test_shipped_tables_read_once_into_immutable_values(self):
        rules, allowlist = load_residue_rules(), load_platform_allowlist()
        assert load_residue_rules() is rules and load_platform_allowlist() is allowlist
        assert isinstance(rules, tuple) and isinstance(allowlist, frozenset)
        with pytest.raises(dataclasses.FrozenInstanceError):
            rules[0].pattern = "x"


class TestExternalTools:
    def test_argv_substitution(self):
        assert build_argv("swiftc -parse {file}", ["a.swift"]) == ["swiftc", "-parse", "a.swift"]
        # Every file takes the place of the one ``{file}`` word, in order.
        argv = build_argv("swiftlint lint {file} --quiet", ["b.swift", "a b.swift", Path("c.swift")])
        assert argv == ["swiftlint", "lint", "b.swift", "a b.swift", "c.swift", "--quiet"]

    def test_template_without_placeholder_rejected(self, tmp_path):
        # The configuration refuses such a template before any stage runs.
        config = RunConfig.from_dict(
            {"source_root": str(tmp_path), "backend": "mock", "tools": {"syntax_check_cmd": "swiftc -parse"}}
        )
        wanted = "tools.syntax_check_cmd must hold {file} as a shell word of its own"
        with pytest.raises(ConfigurationError, match=re.escape(wanted)):
            config.validate()

    def test_clean_file_exits_zero_with_no_issues(self, tmp_path):
        f = tmp_path / "Clean.swift"
        f.write_text("class Clean {\n    func ok() {\n    }\n}\n")
        syntax_cmd, _ = stub_tool_commands()
        status, output = run_external_check([f], syntax_cmd, CHECK_TIMEOUT, tmp_path)
        issues = parse_tool_output(output, "syntax")
        assert status == 0 and issues == []

    def test_planted_defect_reported_at_its_line(self, tmp_path):
        f = tmp_path / "Bad.swift"
        f.write_text("class Bad {\n    let init = 0\n}\n")
        syntax_cmd, _ = stub_tool_commands()
        status, output = run_external_check([f], syntax_cmd, CHECK_TIMEOUT, tmp_path)
        issues = parse_tool_output(output, "syntax")
        assert status == 1
        assert len(issues) == 1 and issues[0].line == 2 and issues[0].severity == "error"

    @pytest.mark.parametrize(
        "module",
        [
            "transmigrate.validation.stubcheck",
            "transmigrate.config",
            "transmigrate.prompts",
            "transmigrate.backends",
            "transmigrate.validation.refine",
        ],
    )
    def test_import_loads_no_numpy(self, module):
        import transmigrate

        probe = f"import sys, {module}; print('numpy' in sys.modules)"
        env = {"PYTHONPATH": str(Path(transmigrate.__file__).parents[1]), "PATH": "", "PYTHONDONTWRITEBYTECODE": "1"}
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
        assert result.stdout == "False\n", result.stderr

    def test_missing_tool_is_configuration_error(self, tmp_path):
        f = tmp_path / "a.swift"
        f.write_text("class A {}")
        with pytest.raises(ConfigurationError):
            run_external_check([f], "definitely-not-a-real-tool-9x {file}", CHECK_TIMEOUT, tmp_path)

    def test_resolve_checker_finds_exactly_the_programs_a_check_finds(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        (out / "bin").mkdir(parents=True)
        (out / "bin" / "check").write_text("#!/bin/sh\nexit 0\n")
        (out / "bin" / "check").chmod(0o755)
        (out / "a.swift").write_text("class A {}")
        monkeypatch.chdir(tmp_path)  # where bin/check is not
        for program, found in [
            ("true", True),
            ("definitely-not-a-real-tool-9x", False),
            ("bin/check", True),
            ("bin/missing", False),
            (STUB_PROGRAM + " syntax", True),
        ]:
            template = f"{program} {{file}}"
            if found:
                resolve_checker(template, out)
                run_external_check(["a.swift"], template, CHECK_TIMEOUT, out)
            else:
                with pytest.raises(ConfigurationError, match="checker tool not found"):
                    resolve_checker(template, out)
                with pytest.raises(ConfigurationError, match="checker tool not found"):
                    run_external_check(["a.swift"], template, CHECK_TIMEOUT, out)

    def test_timeout_is_tool_error(self, tmp_path):
        f = tmp_path / "a.swift"
        f.write_text("class A {}")
        slow = f"{shlex.quote(sys.executable)} -c \"import time, sys; time.sleep(5)\" {{file}}"
        with pytest.raises(ToolError):
            run_external_check([f], slow, 0.3, tmp_path)

    def test_child_check_starts_no_thread(self, tmp_path, monkeypatch):
        # The timeout is kept by ``communicate`` itself, not by a watchdog
        # thread per check.
        import threading

        def no_thread(self):
            raise AssertionError("a check started a thread")

        f = tmp_path / "a.swift"
        f.write_text("class A {}")
        monkeypatch.setattr(threading.Thread, "start", no_thread)
        assert run_external_check([f], "true {file}", CHECK_TIMEOUT, tmp_path) == (0, "")

    def test_child_diagnostic_and_status_returned(self, tmp_path):
        (tmp_path / "a.swift").write_text("class A {}")
        line = "a.swift:1:1: error: expected declaration"
        code = f"import sys; print({line!r}); sys.exit(1)"
        template = f"{shlex.quote(sys.executable)} -c {shlex.quote(code)} {{file}}"
        assert run_external_check(["a.swift"], template, CHECK_TIMEOUT, tmp_path) == (1, line + "\n")

    def test_timeout_kills_the_checkers_process_group(self, tmp_path):
        # The checker starts one grandchild that keeps the output pipe open
        # and sleeps; the timeout ends the check and takes the grandchild too.
        import os
        import time

        f = tmp_path / "a.swift"
        f.write_text("class A {}")
        pid_file = tmp_path / "grandchild.pid"
        grandchild = f"import os, time; open({str(pid_file)!r}, 'w').write(str(os.getpid())); time.sleep(30)"
        checker = f"import subprocess, sys; subprocess.Popen([sys.executable, '-c', {grandchild!r}]).wait()"
        template = f"{shlex.quote(sys.executable)} -c {shlex.quote(checker)} {{file}}"
        timeout = 1.0
        started = time.monotonic()
        with pytest.raises(ToolError, match="timed out"):
            run_external_check([f], template, timeout, tmp_path)
        assert time.monotonic() - started < timeout + 2
        pid = int(pid_file.read_text())
        # The killed grandchild is an orphan until the init process reaps
        # it, which can take a second or two; unkilled, it would sleep 30 s.
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)

    def test_interrupted_check_kills_the_checker(self, tmp_path, monkeypatch):
        import signal

        f = tmp_path / "a.swift"
        f.write_text("class A {}")
        children = []

        def interrupted(self, *args, **kwargs):
            children.append(self)
            raise KeyboardInterrupt

        monkeypatch.setattr(subprocess.Popen, "communicate", interrupted)
        slow = f"{shlex.quote(sys.executable)} -c \"import time; time.sleep(30)\" {{file}}"
        with pytest.raises(KeyboardInterrupt):
            run_external_check([f], slow, CHECK_TIMEOUT, tmp_path)
        (child,) = children
        assert child.returncode == -signal.SIGKILL

    def test_stub_lint_reproduces_canonical_listing(self, tmp_path):
        # A file whose line 68 carries trailing whitespace, checked under a
        # relative path, must reproduce the canonical lint line exactly.
        target = tmp_path / "WeatherApp" / "HTTPWeatherClient.swift"
        target.parent.mkdir(parents=True)
        lines = ["// filler" for _ in range(67)] + ["let retries = 3   "]
        target.write_text("\n".join(lines) + "\n")
        _, lint_cmd = stub_tool_commands()
        status, output = run_external_check(
            ["WeatherApp/HTTPWeatherClient.swift"], lint_cmd, CHECK_TIMEOUT, tmp_path
        )
        assert output.splitlines() == [LINT_LISTING_1]

    def test_stub_lint_line_length_matches_listing(self, tmp_path):
        target = tmp_path / "AndroidTvMovie" / "GlideBackgroundManager.swift"
        target.parent.mkdir(parents=True)
        long_line = "let x = 1 // " + "y" * 181  # 194 characters total
        assert len(long_line) == 194
        lines = ["// filler" for _ in range(65)] + [long_line]
        target.write_text("\n".join(lines) + "\n")
        _, lint_cmd = stub_tool_commands()
        _, output = run_external_check(
            ["AndroidTvMovie/GlideBackgroundManager.swift"], lint_cmd, CHECK_TIMEOUT, tmp_path
        )
        assert output.splitlines() == [LINT_LISTING_2]

    def test_stub_runs_in_process(self, tmp_path, monkeypatch):
        # The bundled stub starts no process: with process creation
        # disabled, both templates still give the canonical diagnostics.
        def no_process(*args, **kwargs):
            raise AssertionError("the stub checker started a process")

        monkeypatch.setattr(subprocess, "run", no_process)
        monkeypatch.setattr(subprocess, "Popen", no_process)
        listing_1 = tmp_path / "WeatherApp" / "HTTPWeatherClient.swift"
        listing_2 = tmp_path / "AndroidTvMovie" / "GlideBackgroundManager.swift"
        for target in (listing_1, listing_2):
            target.parent.mkdir(parents=True)
        listing_1.write_text("\n".join(["// filler"] * 67 + ["let retries = 3   "]) + "\n")
        listing_2.write_text("\n".join(["// filler"] * 65 + ["let x = 1 // " + "y" * 181]) + "\n")
        (tmp_path / "Bad.swift").write_text("class Bad {\n    let init = 0\n}\n")
        syntax_cmd, lint_cmd = stub_tool_commands()

        def check(file, template):
            return run_external_check([file], template, CHECK_TIMEOUT, tmp_path)

        assert check("WeatherApp/HTTPWeatherClient.swift", lint_cmd) == (0, LINT_LISTING_1 + "\n")
        assert check("AndroidTvMovie/GlideBackgroundManager.swift", lint_cmd) == (0, LINT_LISTING_2 + "\n")
        assert check("Bad.swift", syntax_cmd) == (
            1,
            "Bad.swift:2:9: error: keyword 'init' cannot be used as an identifier\n",
        )
        assert check("WeatherApp/HTTPWeatherClient.swift", syntax_cmd) == (0, "")

    def test_stub_checks_each_file_in_turn(self, tmp_path):
        from transmigrate.validation import stubcheck

        (tmp_path / "Worse.swift").write_text("class Worse {\n\n    let init = 0\n}\n")
        (tmp_path / "Clean.swift").write_text("class Clean {}\n")
        (tmp_path / "Bad.swift").write_text("class Bad {\n    let init = 0\n}\n")
        syntax_cmd, _ = stub_tool_commands()

        def check(*files):
            return run_external_check(list(files), syntax_cmd, CHECK_TIMEOUT, tmp_path)

        assert check("Worse.swift", "Clean.swift", "Bad.swift") == (
            1,
            "Worse.swift:3:9: error: keyword 'init' cannot be used as an identifier\n"
            "Bad.swift:2:9: error: keyword 'init' cannot be used as an identifier\n",
        )
        assert check("Clean.swift", "Clean.swift") == (0, "")
        # An unreadable file is a bad usage, as no file at all is: exit 2,
        # with no diagnostic of the files read before it.
        status, output = check("Bad.swift", "Missing.swift")
        assert status == 2 and output.startswith("stubcheck: cannot read Missing.swift")
        assert stubcheck.run(["syntax"], tmp_path) == (2, "usage: transmigrate-stubcheck <syntax|lint> <file>...\n")

    def test_stub_crash_is_tool_error(self, tmp_path, monkeypatch):
        # A crashed check must end as ToolError, as a crashed checker
        # process does.
        from transmigrate.validation import stubcheck

        def crash(path, text):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(stubcheck, "check_syntax", crash)
        (tmp_path / "Deep.swift").write_text("class Deep {}\n")
        syntax_cmd, _ = stub_tool_commands()
        with pytest.raises(ToolError, match="crashed"):
            run_external_check(["Deep.swift"], syntax_cmd, CHECK_TIMEOUT, tmp_path)

    def test_stub_reports_deep_nesting_as_a_syntax_error(self, tmp_path):
        (tmp_path / "Deep.swift").write_text("{" * 1000 + "}" * 1000)
        syntax_cmd, _ = stub_tool_commands()
        status, output = run_external_check(["Deep.swift"], syntax_cmd, CHECK_TIMEOUT, tmp_path)
        assert status == 1
        assert output.splitlines() == [
            "Deep.swift:1:101: error: unbalanced or unparseable declaration structure"
        ]


class TestValidationReport:
    def test_error_count_counts_error_issues_only(self):
        report = ValidationReport()
        report.add(IssueRecord("a.swift", 1, 1, "warning", "w", "warn", "lint"))
        assert report.error_count() == 0
        report.add(IssueRecord("a.swift", 2, 1, "error", "e", "bad", "syntax"))
        assert report.error_count() == 1

    def test_round_trip_serialization(self):
        report = ValidationReport()
        report.add(IssueRecord("a.swift", 1, 1, "error", None, "msg", "syntax"))
        loaded = ValidationReport.from_dict(report.to_dict())
        assert [i.message for i in loaded.all_issues()] == ["msg"]


def test_extensions_merge_into_primary_declaration():
    units = swift_units(**{
        "Store.swift": "class Store { var helper: Helper }\nextension Store { func draw() { helper.assist() } }",
        "Helper.swift": "class Helper { func assist() {} }",
    })
    graph = build_translated_class_graph(units)
    assert sorted(graph.nodes) == ["Helper", "Store"]
    assert ("Store", "Helper", "field-type") in graph.edges
    assert ("Store", "Helper", "call") in graph.edges


def test_parsed_units_keep_no_tree_and_no_tokens():
    text = "import UIKit\nclass A {\n    func go() { Helper(); go() }\n}\nfunc top() {}\ninit() {}\n"
    units = swift_units(**{"A.swift": text})
    unit = units["A.swift"]
    assert [c.qualified_name for c in unit.classes] == ["A"]
    assert unit.functions == ("top", "init")
    assert unit.first_offsets == {name: text.index(name) for name in ("UIKit", "A", "go", "Helper", "top")}
    assert unit.data == text.encode()
    kept = reachable(units)
    assert not [o for o in kept if isinstance(o, (Ast, AstNode, Token))]
    assert not [o for o in kept if isinstance(o, list) and o and isinstance(o[0], Token)]


def test_translated_graph_leaves_shared_parse_results_unchanged():
    units = swift_units(**{
        "Store.swift": "class Store { var helper: Helper }\nextension Store { func draw() { helper.assist() } }",
        "Helper.swift": "class Helper { func assist() {} }",
    })
    members = [(len(c.methods), len(c.fields)) for unit in units.values() for c in unit.classes]
    first = build_translated_class_graph(units)
    assert build_translated_class_graph(units) == first
    assert [(len(c.methods), len(c.fields)) for unit in units.values() for c in unit.classes] == members
