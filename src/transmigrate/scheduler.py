"""Bottom-up translation planning.

Items with fewer dependencies are better leaves and are emitted first, so
that later prompts can embed already-translated dependencies. Cycles are
handled by condensing strongly connected components: the condensation is
emitted dependencies-first, members of one component are emitted together
in lexicographic order, and among simultaneously-ready components the one
with the smallest (dependency degree, name) key goes first. The result is
a total, deterministic order on any input graph.

The plan is saved as JSON lines (``plan/plan.jsonl``), one ``compact_json``
line per item in send order: each component, then each of its classes,
each class followed by its methods. ``TranslationPlan.load`` reads it back
through ``read_lines``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from transmigrate.artifacts import compact_json, corrupt, read_lines
from transmigrate.errors import IntegrityError
from transmigrate.sourcemodel.graph import DependencyGraph, quotient_graph


@dataclass
class ClassPlan:
    name: str
    methods: list[str] = field(default_factory=list)


@dataclass
class ComponentPlan:
    name: str
    classes: list[ClassPlan] = field(default_factory=list)


@dataclass
class TranslationPlan:
    components: list[ComponentPlan] = field(default_factory=list)

    def iter_classes(self) -> Iterable[tuple[str, ClassPlan]]:
        for comp in self.components:
            for cls in comp.classes:
                yield comp.name, cls

    def item_counts(self) -> tuple[int, int, int]:
        n_classes = sum(len(c.classes) for c in self.components)
        n_methods = sum(len(cls.methods) for _, cls in self.iter_classes())
        return len(self.components), n_classes, n_methods

    def to_jsonl(self) -> str:
        lines = []
        for comp in self.components:
            lines.append(compact_json({"kind": "component", "name": comp.name}))
            for cls in comp.classes:
                lines.append(compact_json({"kind": "class", "name": cls.name, "component": comp.name}))
                lines.extend(compact_json({"kind": "method", "name": m, "class": cls.name}) for m in cls.methods)
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def load(cls, path: Path) -> "TranslationPlan":
        """The plan that ``to_jsonl`` wrote to ``path``; a missing file is a
        FileNotFoundError. A line that is not a JSON object, has no string
        ``kind`` or ``name``, is of an unknown kind, or is a class or method
        line that names another component or class than the one above it,
        is corrupt, naming the line."""
        plan = cls()
        above: dict = {}  # the last component line's plan, and the last class line's in it
        for number, _, rec in read_lines(path):
            kind, name = rec.get("kind"), rec.get("name")
            if not isinstance(kind, str) or not isinstance(name, str):
                raise corrupt(path, f"line {number}: no string 'kind' and 'name'")
            if kind not in _PARENT_KIND:
                raise corrupt(path, f"line {number}: unknown kind {kind!r}")
            up = _PARENT_KIND[kind]
            parent = above.get(up)
            if up and (parent is None or parent.name != rec.get(up)):
                raise corrupt(path, f"line {number}: {kind} {name!r} names {up} {rec.get(up)!r}, not the {up} above it")
            if kind == "component":
                above = {"component": ComponentPlan(name)}
                plan.components.append(above["component"])
            elif kind == "class":
                above["class"] = ClassPlan(name)
                parent.classes.append(above["class"])
            else:
                parent.methods.append(name)
        return plan


# Each plan line's kind, and the kind of line it sits under.
_PARENT_KIND = {"component": None, "class": "component", "method": "class"}


def order_nodes(nodes: Iterable[str], deps: Mapping[str, set[str]]) -> list[str]:
    """Total deterministic order: SCC condensation, dependencies first.

    ``deps[x]`` is the set of items x depends on; edges to unknown items are
    ignored. Ready components are chosen by ascending (aggregate dependency
    degree, smallest member name); members inside a component come out in
    lexicographic order.
    """
    node_list = sorted(set(nodes))
    # Items are numbered in name order, so comparing numbers compares names.
    number = dict(zip(node_list, range(len(node_list))))
    adj: list[list[int]] = []
    for name in node_list:
        targets = deps.get(name)
        adj.append([number[t] for t in targets if t in number and t != name] if targets else [])

    # Traversal order does not affect the output: the SCC partition is
    # order-independent, members are sorted at emission, and the ready heap
    # orders components by (degree, smallest member).
    sccs, degrees, dependents, remaining = _condense(adj)
    if len(sccs) == 1:
        return node_list

    ready = [(degrees[i], sccs[i][0], i) for i in range(len(sccs)) if remaining[i] == 0]
    heapq.heapify(ready)
    order: list[str] = []
    while ready:
        _, _, idx = heapq.heappop(ready)
        order.extend(map(node_list.__getitem__, sccs[idx]))
        for dep in dependents[idx]:
            remaining[dep] -= 1
            if remaining[dep] == 0:
                heapq.heappush(ready, (degrees[dep], sccs[dep][0], dep))
    assert len(order) == len(node_list), "condensation is acyclic; all components must be emitted"
    return order


def _condense(
    adj: list[list[int]],
) -> tuple[list[list[int]], list[int], list[list[int]], list[int]]:
    """Iterative Tarjan SCC over numbered nodes, building the condensation as
    it goes.

    Returns, per component: its sorted members, its dependency degree (the
    number of distinct items outside it that its members depend on), the
    components that depend on it, and the number of distinct components it
    depends on. Tarjan completes a component only after every component it
    reaches, so its targets are already numbered when it is emitted.
    """
    n = len(adj)
    index = [-1] * n
    low = [0] * n
    scc_of = [-1] * n  # -1 on a visited node means it is still on the stack
    component_of = scc_of.__getitem__
    stack: list[int] = []
    sccs: list[list[int]] = []
    degrees: list[int] = []
    dependents: list[list[int]] = []
    remaining: list[int] = []
    counter = 0

    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(adj[root]))]
        while work:
            node, targets = work[-1]
            for target in targets:
                if index[target] < 0:
                    index[target] = low[target] = counter
                    counter += 1
                    stack.append(target)
                    work.append((target, iter(adj[target])))
                    break
                if scc_of[target] < 0 and index[target] < low[node]:
                    low[node] = index[target]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if low[node] < low[parent]:
                        low[parent] = low[node]
                if low[node] != index[node]:
                    continue
                idx = len(sccs)
                members = [stack.pop()]
                while members[-1] != node:
                    members.append(stack.pop())
                for m in members:
                    scc_of[m] = idx
                members.sort()
                if len(members) == 1:
                    outside = adj[node]
                elif len(members) == n:
                    outside = ()
                else:
                    outside = {t for m in members for t in adj[m] if scc_of[t] != idx}
                target_sccs = set(map(component_of, outside))
                sccs.append(members)
                degrees.append(len(outside))
                remaining.append(len(target_sccs))
                dependents.append([])
                for t in target_sccs:
                    dependents[t].append(idx)
    return sccs, degrees, dependents, remaining


def build_plan(
    class_graph: DependencyGraph,
    *,
    class_component: Mapping[str, str],
    methods: Mapping[str, Mapping[str, Iterable[str]]],
) -> TranslationPlan:
    """Order components, classes within each component, and methods within
    each class. Components are ordered by the component graph, the quotient
    of the class graph under ``class_component``; class ordering uses
    intra-component edges only, and method ordering intra-class calls only
    (the coarser level already sequences cross-boundary work).

    ``class_component`` maps each class to its component, and ``methods``
    each class to its constructor and method names, each name to the names
    of the members of the same class that it calls. A method's plan id is
    ``<class>.<name>``. A class of the class graph that either map lacks,
    or one of theirs that the class graph lacks, raises IntegrityError.
    """
    nodes = set(class_graph.nodes)
    stray = sorted(nodes.symmetric_difference(class_component) | nodes.symmetric_difference(methods))
    if stray:
        where, other = ("class graph", "class records") if stray[0] in nodes else ("class records", "class graph")
        raise IntegrityError(f"class {stray[0]!r} is in the {where} but not in the {other}")

    component_graph = quotient_graph(class_graph, class_component, "component")
    class_deps = class_graph.dependencies()

    classes_by_component: dict[str, list[str]] = {c: [] for c in component_graph.nodes}
    for cls in class_graph.nodes:
        classes_by_component[class_component[cls]].append(cls)

    plan = TranslationPlan()
    for comp in order_nodes(component_graph.nodes, component_graph.dependencies()):
        comp_plan = ComponentPlan(comp)
        members = classes_by_component[comp]
        intra_class_deps = {
            c: {t for t in class_deps.get(c, set()) if class_component.get(t) == comp}
            for c in members
        }
        for cls in order_nodes(members, intra_class_deps):
            calls = {f"{cls}.{name}": {f"{cls}.{c}" for c in callees} for name, callees in methods[cls].items()}
            comp_plan.classes.append(ClassPlan(cls, order_nodes(calls, calls)))
        plan.components.append(comp_plan)
    return plan
