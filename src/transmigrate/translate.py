"""The translate stage: its agent chain and the layout of what it writes.

Each class is translated bottom-up: one prompt per method, then the class
prompt with those translations, whose code is the unit's round 0; a
component prompt carries its classes' kept code, and the project prompt
its components'. One function builds each level's slot values, every
prompt, repair prompts included, goes through one send step
(``_Chain.send``), and every refinement round is checked by
``_Chain.check``: round 0 of a component's units as one batch, once its
class prompts are sent, and each repair round as a batch of its one unit.
One thread sends every prompt, runs every checker and writes every file,
so their order is the plan's. Only this module builds paths under
``translate/``. An item is done once the last file it writes exists: a
unit's refinement payload (``unit_names`` names the unit from the plan,
and the payload records both names), a component's file, or
``project.swift``. ``pending`` and ``translated_rounds`` read them back,
and ``unit_files`` names every unit's file.
"""

from __future__ import annotations

import itertools
import json
import os
import shlex
from pathlib import Path

from transmigrate.artifacts import read_artifact, read_saved, remove_temporaries, write_json, write_text
from transmigrate.backends import extract_code
from transmigrate.config import RunConfig
from transmigrate.errors import ToolError
from transmigrate.knowledge.index import query_many
from transmigrate.prompts import ast_excerpt, dependency_excerpt, render_prompt, truncate_context
from transmigrate.scheduler import TranslationPlan
from transmigrate.sourcemodel.extract import ClassDescriptor, declarations_by_span, method_body
from transmigrate.validation.checks import platform_scan
from transmigrate.validation.issues import ValidationReport, parse_tool_output
from transmigrate.validation.refine import refine_loop, repair_inputs
from transmigrate.validation.tools import resolve_checker, run_external_check


def unit_names(class_names: list[str]) -> dict[str, str]:
    """Source qualified name -> translated unit base name, one-to-one.
    The first class in sorted order with a given simple name gets that
    name; every other class, in sorted order, gets its dotted name with
    underscores, suffixed ``_2``, ``_3``, ... until no class has it."""
    first: dict[str, str] = {}
    for qualified in sorted(class_names):
        first.setdefault(qualified.rsplit(".", 1)[-1], qualified)
    mapping = {qualified: simple for simple, qualified in first.items()}
    taken = set(first)
    for qualified in sorted(set(class_names) - mapping.keys()):
        base = name = qualified.replace(".", "_")
        suffix = 1
        while name in taken:
            suffix += 1
            name = f"{base}_{suffix}"
        taken.add(name)
        mapping[qualified] = name
    return mapping


def pending(out: Path, plan: TranslationPlan):
    """What translate still has to send, in the plan's send order: the unit
    name of every planned class, each component not yet done with its
    classes not yet done, and whether the project prompt is not yet done."""
    names = unit_names([c.name for _, c in plan.iter_classes()])
    components = [
        (comp, [c for c in comp.classes if not _payload_path(out, names[c.name]).is_file()])
        for comp in plan.components
        if not _component_path(out, comp.name).is_file()
    ]
    return names, components, not (out / "translate" / "project.swift").is_file()


def unit_files(plan: TranslationPlan) -> list[str]:
    """The file of every planned class's unit, in file name order."""
    return sorted(f"{base}.swift" for base in unit_names([c.name for _, c in plan.iter_classes()]).values())


def translated_rounds(out: Path, plan: TranslationPlan):
    """The unit name of every planned class, and by unit file, in file
    name order, the code exactly as translate wrote it and the report of
    the unit's round 0 and of its kept round. A missing payload is an
    OrderingError naming the translate stage."""
    names = unit_names([c.name for _, c in plan.iter_classes()])
    rounds = {
        unit: read_artifact(_payload_path(out, unit.removesuffix(".swift")), "translate", _first_and_kept_rounds)
        for unit in unit_files(plan)
    }
    return names, rounds


def translate(config: RunConfig, out: Path, files, backend, embedder, index, java, graphs, todo) -> None:
    """Send every pending prompt in plan order and write what each returns.
    ``todo`` is what ``pending`` returns; ``java`` the Java trees by path
    and the descriptors of every pending class; ``graphs`` the source
    class graph and the component graph that plan ordered components by,
    its quotient under each planned class's component; ``files`` the
    source listing; ``index`` is None only when nothing is pending."""
    names, components, project_pending = todo
    asts, descriptors = java
    class_graph, component_graph = graphs
    by_qualified = {d.qualified_name: d for d in descriptors}
    # The pending prompts in send order, each with its retrieval text; each
    # distinct text is retrieved once, in one blocked pass, before the first send.
    prompts, abouts = [], []
    for comp, classes in components:
        units = []
        for cls_plan in classes:
            d = by_qualified[cls_plan.name]
            # Overloads share one plan entry; each gets its own prompt.
            methods = [
                (f"method_{method_id}", m, f"{d.simple_name} {m.name}")
                for method_id in cls_plan.methods
                for m in _overloads(d, method_id)
            ]
            class_about = f"{d.simple_name} {d.component}"
            units.append((d, methods, class_about))
            abouts += [about for _, _, about in methods] + [class_about]
        comp_about = comp.name or "project root"
        prompts.append((comp, units, comp_about))
        abouts.append(comp_about)
    # A pending class's rounds are checked: find both checkers before the first send.
    if any(units for _, units, _ in prompts):
        for template in (config.tools.syntax_check_cmd, config.tools.lint_cmd):
            resolve_checker(template, out)
    if project_pending:
        abouts.append(config.project_name)
    abouts = list(dict.fromkeys(abouts))
    retrieved = dict(zip(abouts, query_many(index, abouts, config.knowledge.retrieval_k, embedder))) if abouts else {}

    chain = _Chain(config, out, backend, retrieved)
    for comp, units, comp_about in prompts:
        rounds = {}  # unit file -> (qualified name, base name, round 0's code), in plan order
        for d, methods, class_about in units:
            ast = asts[d.source_path]
            declarations = declarations_by_span(ast)
            method_codes = [
                (m.name, chain.send("method", label, _method_slots(d, m, ast, declarations), about))
                for label, m, about in methods
            ]
            slots = _class_slots(d, ast, declarations, method_codes, class_graph)
            code = chain.send("class", f"class_{d.qualified_name}", slots, class_about)
            base = names[d.qualified_name]
            rounds[f"{base}.swift"] = (d.qualified_name, base, code)
        # A resumed component may have no unit left to check.
        reports = chain.check({unit: code for unit, (_, _, code) in rounds.items()}) if rounds else {}
        for unit, (qualified, base, code) in rounds.items():
            chain.refine(qualified, base, code, reports[unit])
        slots = _component_slots(out, comp, names, component_graph)
        code = chain.send("component", f"component_{comp.name or 'default'}", slots, comp_about)
        write_text(_component_path(out, comp.name), code)
    if project_pending:
        slots = _project_slots(config, out, files, component_graph)
        write_text(out / "translate" / "project.swift", chain.send("project", "project", slots, config.project_name))


class _Chain:
    """The send step and the check step of one translate stage."""

    def __init__(self, config: RunConfig, out: Path, backend, retrieved: dict) -> None:
        self.config, self.out, self.backend, self.retrieved = config, out, backend, retrieved
        # A resumed translate continues the dump series of the run before it,
        # so a dump's temporary file that a kill left is never renamed: remove it.
        remove_temporaries(out / "prompts")
        prefixes = (path.name.partition("_")[0] for path in (out / "prompts").glob("*_*.txt"))
        self.ordinals = itertools.count(max((int(p) for p in prefixes if p.isdecimal()), default=-1) + 1)
        self.root = os.path.realpath(out)  # what a checker's absolute paths start with

    def send(self, level: str, label: str, slots: dict[str, str], about: str | None = None) -> str:
        """Render one level's prompt with the chunks retrieved for
        ``about`` (none without it), fit it to the budget, dump it when
        asked, send it, and return the code of the reply. Every backend
        call of a run, repair prompts included, is made here."""
        chunks = self.retrieved[about] if about is not None else ()
        envelope = truncate_context(render_prompt(level, slots, chunks), self.config.prompt_budget)
        if self.config.dump_prompts:
            safe = label.replace("/", "_").replace(".", "_")
            write_text(self.out / "prompts" / f"{next(self.ordinals):04d}_{safe}.txt", envelope.rendered_text)
        return extract_code(self.backend.translate(envelope))

    def check(self, codes: dict[str, str]) -> dict[str, ValidationReport]:
        """The check of one refinement round of the units ``codes`` maps to
        their code, in plan order: write each whole to
        ``translate/units/<unit>``, run the syntax and then the lint checker
        once over them all, and scan each for platform residue. Returns each
        unit's report: its checkers' issues, then its scan's. A checker that
        exits nonzero without a diagnostic, or names a file outside the
        batch, raises ``ToolError``."""
        rels = {f"translate/units/{unit}": unit for unit in codes}  # relative to the checker's cwd
        for rel, code in zip(rels, codes.values()):
            write_text(self.out / rel, code)
        by_path = {os.path.join(self.root, rel): unit for rel, unit in rels.items()}
        reports = {unit: ValidationReport() for unit in codes}
        tools = self.config.tools
        for template, source in ((tools.syntax_check_cmd, "syntax"), (tools.lint_cmd, "lint")):
            status, output = run_external_check(list(rels), template, tools.timeout_seconds, self.out)
            found = parse_tool_output(output, source)
            checker = f"{source} checker {shlex.split(template)[0]!r}"
            if status != 0 and not found:
                raise ToolError(
                    f"{checker} exited {status} without diagnostics on {_units_named(codes)}: "
                    f"{output.strip()[-500:]!r}"
                )
            for issue in found:
                unit = by_path.get(os.path.realpath(os.path.join(self.root, issue.file)))
                if unit is None:
                    raise ToolError(f"{checker} reported on {issue.file!r}, not on {_units_named(codes)}")
                issue.file = unit
                reports[unit].add(issue)
        for unit, code in codes.items():
            reports[unit].extend(platform_scan(unit, code))
        return reports

    def refine(self, qualified: str, base: str, code: str, report: ValidationReport) -> None:
        """Refine unit ``<base>.swift`` from round 0's ``code`` and
        ``report``, then write its refinement payload: every round's code
        and report, and ``kept``, the round that ``units/`` holds."""
        unit = f"{base}.swift"
        kept_code, state = refine_loop(
            unit,
            code,
            report,
            lambda code, issues: self.send("repair", f"repair_{base}", repair_inputs(code, issues)),
            lambda unit, code: self.check({unit: code})[unit],
            self.config.max_rounds,
        )
        if state.kept != len(state.history) - 1:  # a degraded unit keeps an earlier round
            write_text(self.out / "translate" / "units" / unit, kept_code)
        history = [{"code": code, "report": report.to_dict()} for code, report in state.history]
        payload = {"unit": unit, "class": qualified, "degraded": state.degraded, "kept": state.kept}
        write_json(_payload_path(self.out, base), {**payload, "history": history})


def _units_named(codes: dict[str, str]) -> str:
    return f"unit {next(iter(codes))}" if len(codes) == 1 else f"units {', '.join(codes)}"


def _payload_path(out: Path, base: str) -> Path:
    return out / "translate" / "refinement" / f"{base}.json"


def _first_and_kept_rounds(text: str) -> list[tuple[str, ValidationReport]]:
    """Code and report of round 0 and of the kept round of a refinement
    payload."""
    payload = json.loads(text)
    return [
        (entry["code"], ValidationReport.from_dict(entry["report"]))
        for entry in (payload["history"][0], payload["history"][payload["kept"]])
    ]


def _component_path(out: Path, name: str) -> Path:
    file = (name or "default").replace("/", "_") or "default"
    return out / "translate" / "components" / f"{file}.swift"


def _method_slots(d: ClassDescriptor, m, ast, declarations) -> dict[str, str]:
    return {
        "method_name": m.name,
        "file_name": d.source_path,
        "method_code": method_body(ast.source, m),
        "ast": ast_excerpt(declarations[m.span], ast.source.data),
    }


def _class_slots(d: ClassDescriptor, ast, declarations, method_codes, class_graph) -> dict[str, str]:
    """``method_codes``: the name and translated code of each method."""
    return {
        "class_name": d.qualified_name,
        "class_content": ast.source.data[d.span[0] : d.span[1]].decode("utf-8"),
        "translated_methods": "\n\n".join(f"// method: {name}\n{code}" for name, code in method_codes) or "none",
        "ast": ast_excerpt(declarations[d.span], ast.source.data),
        "dependency": dependency_excerpt(class_graph, d.qualified_name),
    }


def _component_slots(out: Path, comp, names: dict[str, str], component_graph) -> dict[str, str]:
    """The kept code of the component's classes, read back as saved."""
    units = out / "translate" / "units"
    member_units = [f"// class: {c.name}\n" + read_saved(units / f"{names[c.name]}.swift") for c in comp.classes]
    return {
        "component_name": comp.name or "(default)",
        "translated_classes": "\n\n".join(member_units) or "none",
        "ast": "\n".join(f"(class_declaration {c.name})" for c in comp.classes) or "none",
        "dependency": dependency_excerpt(component_graph, comp.name),
    }


def _project_slots(config: RunConfig, out: Path, files: list[str], component_graph) -> dict[str, str]:
    """Every component's code as saved (the plan holds every node of the
    component graph), and the resource and configuration files listed."""
    configuration = [
        f"--- {rel}\n{(Path(config.source_root) / rel).read_text(encoding='utf-8', errors='replace')}"
        for name in ("AndroidManifest.xml", "build.gradle", "settings.gradle")
        for rel in files
        if rel.rsplit("/", 1)[-1] == name
    ]
    components = [
        f"// component: {name or '(default)'}\n{read_saved(_component_path(out, name))}"
        for name in sorted(component_graph.nodes)
    ]
    return {
        "translated_components": "\n\n".join(components) or "none",
        "dependency": "\n".join(f"{f} -> {t} ({kind})" for f, t, kind in sorted(component_graph.edges)) or "none",
        "resource": "\n".join(sorted(rel for rel in files if "res" in rel.split("/"))) or "none",
        "configuration": "\n".join(configuration) or "none",
    }


def _overloads(descriptor: ClassDescriptor, method_id: str):
    """The constructors and methods of ``descriptor`` that plan entry
    ``method_id`` (``<qualified class>.<name>``) names, in source order."""
    name = method_id[len(descriptor.qualified_name) + 1 :]
    return sorted((m for m in descriptor.constructors + descriptor.methods if m.name == name), key=lambda m: m.span)
