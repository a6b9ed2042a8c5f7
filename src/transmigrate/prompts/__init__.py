"""Prompt assembly: templates with named slots and size budgets.

Templates ship as editable text files next to this module. Slot fillers
are substituted in a single pass over the template, so braces inside slot
values (source code) are never re-interpreted. Every rendered envelope
carries its slot values, the context slots truncation dropped, and an
estimated size in units of four characters.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from transmigrate.errors import AssemblyError, BudgetError

if TYPE_CHECKING:  # annotations only: importing the index would load numpy
    from transmigrate.knowledge.index import RetrievalResult
    from transmigrate.sourcemodel.parser import AstNode

LEVELS = ("method", "class", "component", "project", "repair")

_TEMPLATES_DIR = Path(__file__).parent / "templates"

_SLOT_RE = re.compile(r"\{(\w+)\}")

NO_CONTEXT_SENTINEL = "none retrieved"
_DROPPED_SENTINEL = "[omitted: context budget]"

# The slot carrying retrieved documentation, at every level but repair.
SPEC_SLOT = "specification"

MANDATORY_HEADINGS = {
    "method": (
        "Input:",
        "Method Name:",
        "Method Code:",
        "Abstract Syntax Tree:",
        "Retrieved Specification:",
        "Output Requirement:",
    ),
    "class": (
        "Class Content:",
        "Translated Methods:",
        "Abstract Syntax Tree:",
        "Dependency:",
        "Specification:",
        "Output Requirement:",
    ),
    "component": (
        "Translated Classes:",
        "Abstract Syntax Tree:",
        "Dependency:",
        "Specification:",
        "Output Requirement:",
    ),
    "project": (
        "Translated Components:",
        "Dependency:",
        "Resource:",
        "Configuration:",
        "Specification:",
        "Output Requirement:",
    ),
    "repair": ("Reported Issues:", "Current Code:"),
}


@dataclass(frozen=True)
class PromptTemplate:
    level: str
    body: str


@dataclass
class PromptEnvelope:
    level: str
    rendered_text: str
    size_estimate: int
    slots: dict[str, str] = field(default_factory=dict)
    dropped: list[str] = field(default_factory=list)


@functools.cache
def load_template(level: str) -> PromptTemplate:
    """Load and validate one level's shipped template: every mandatory
    heading must appear verbatim. A template is read once per process for
    each level; a missing or invalid one raises on every call. Its slots
    are checked when it renders."""
    if level not in LEVELS:
        raise AssemblyError(f"unknown prompt level {level!r}")
    body = (_TEMPLATES_DIR / f"{level}.txt").read_text(encoding="utf-8")
    for heading in MANDATORY_HEADINGS[level]:
        if heading not in body:
            raise AssemblyError(f"template {level!r} is missing heading {heading!r}")
    return PromptTemplate(level=level, body=body)


def render_prompt(
    level: str,
    inputs: dict[str, str],
    retrieved: Sequence[RetrievalResult] = (),
) -> PromptEnvelope:
    """Render one level's template.

    ``inputs`` maps slot names to their text. Retrieved chunks fill the
    level's specification slot in score order, separated by source lines;
    when none are supplied the slot reads "none retrieved". A slot of the
    template that has no value raises AssemblyError naming the slot.
    """
    slots = dict(inputs)
    if level != "repair" and SPEC_SLOT not in slots:
        slots[SPEC_SLOT] = chunks_excerpt(retrieved) if retrieved else NO_CONTEXT_SENTINEL
    return _render(load_template(level), slots, dropped=[])


def _render(template: PromptTemplate, slots: dict[str, str], dropped: list[str]) -> PromptEnvelope:
    def fill(match: re.Match[str]) -> str:
        name = match.group(1)
        if name not in slots:
            raise AssemblyError(f"missing mandatory slot {name!r} for {template.level} prompt")
        return slots[name]

    rendered = _SLOT_RE.sub(fill, template.body)
    return PromptEnvelope(
        level=template.level,
        rendered_text=rendered,
        size_estimate=size_units(rendered),
        slots=slots,
        dropped=list(dropped),
    )


def size_units(text: str) -> int:
    return math.ceil(len(text) / 4)


def truncate_context(envelope: PromptEnvelope, budget: int) -> PromptEnvelope:
    """Fit the envelope into ``budget`` size units by dropping context slots
    in priority order: retrieved specification, then the syntax-tree excerpt,
    then the dependency excerpt. Source code and prior translations are
    never dropped; if the remainder still exceeds the budget a BudgetError
    is raised. Dropped slots are recorded on the returned envelope."""
    if budget <= 0:
        raise BudgetError(f"budget must be positive, got {budget}")
    if envelope.size_estimate <= budget:
        return envelope

    template = load_template(envelope.level)
    slots = dict(envelope.slots)
    dropped = list(envelope.dropped)
    current = envelope
    for slot in (SPEC_SLOT, "ast", "dependency"):
        if slot not in slots or slots[slot] == _DROPPED_SENTINEL:
            continue
        slots[slot] = _DROPPED_SENTINEL
        dropped.append(slot)
        current = _render(template, slots, dropped)
        if current.size_estimate <= budget:
            return current
    raise BudgetError(
        f"budget {budget} is smaller than untruncatable content "
        f"({current.size_estimate} units) for {envelope.level} prompt"
    )


def output_requirements_for(level: str) -> str:
    """The literal requirements section of a level's template, reused by
    repair prompts so refinements follow the same output contract."""
    body = load_template(level).body
    marker = "Output Requirement:"
    at = body.find(marker)
    return body[at:].rstrip() if at >= 0 else ""


def chunks_excerpt(retrieved: Sequence[RetrievalResult]) -> str:
    """Retrieved chunks in score order, each under a source header line."""
    parts = []
    for r in retrieved:
        parts.append(f"Source: {r.chunk.source_uri}\n{r.chunk.text}")
    return "\n\n".join(parts)


def ast_excerpt(node: AstNode, data: bytes) -> str:
    """Readable s-expression of a declaration subtree; identifier leaves
    carry their source text."""
    def render(n: AstNode, depth: int) -> str:
        pad = "  " * depth
        if n.kind in ("identifier", "qualified_name", "type_reference"):
            text = data[n.start : n.end].decode("utf-8", "replace").strip()
            return f"{pad}({n.kind} {text})"
        if not n.children:
            return f"{pad}({n.kind})"
        inner = "\n".join(render(c, depth + 1) for c in n.children)
        return f"{pad}({n.kind}\n{inner})"

    return render(node, 0)


def dependency_excerpt(graph, item: str) -> str:
    """Outgoing dependencies of one item as sorted "from -> to (kind)" lines."""
    lines = [f"{f} -> {t} ({k})" for f, t, k in graph.out_edges(item)]
    return "\n".join(lines) if lines else "none"
