"""Typed dependency graphs at method, class, and component granularity.

Resolution is name-based within the snapshot: an unqualified call resolves
to every same-name method in the caller's class hierarchy; a call through
a receiver resolves via the receiver's class (when the receiver names a
snapshot class) or via the declared type of a same-named field. A field
depends on its declared type and on every type named in that type's
generic arguments. References that resolve to nothing in the snapshot
(JDK / platform APIs) are recorded in a side table, never as graph nodes,
so schedulers only order project code.

The component graph is the quotient of the class graph under the
class-to-package projection with self-edges removed. It is never stored:
analyze writes the method and class graphs, and plan and translate each
derive the component graph from the class graph and the class-to-package
map (``classes.json`` for plan, the plan's class lines for translate).
"""

from __future__ import annotations

import json
from collections import Counter
from collections.abc import KeysView
from dataclasses import dataclass, field
from functools import cached_property

from transmigrate.errors import StructuralError
from transmigrate.sourcemodel.extract import CallSite, ClassDescriptor

EDGE_CALL = "call"
EDGE_INHERITANCE = "inheritance"
EDGE_IMPORT = "import"
EDGE_FIELD_TYPE = "field-type"

Edge = tuple[str, str, str]  # (from, to, kind)


@dataclass
class DependencyGraph:
    """``weights``, the one edge store, maps each edge to its occurrence
    multiplicity, so distinct-target and total reference counts are both
    derivable (schedulers pick one); ``edges`` is a view of its keys."""

    granularity: str
    nodes: frozenset[str]
    weights: dict[Edge, int] = field(default_factory=dict)
    externals: dict[str, int] = field(default_factory=dict)

    @property
    def edges(self) -> KeysView[Edge]:
        return self.weights.keys()

    def out_edges(self, node: str) -> list[Edge]:
        return list(self._out_edges.get(node, ()))

    @cached_property
    def _out_edges(self) -> dict[str, list[Edge]]:
        """node -> its outgoing edges, sorted; built on first use."""
        adjacency: dict[str, list[Edge]] = {}
        for edge in sorted(self.edges):
            adjacency.setdefault(edge[0], []).append(edge)
        return adjacency

    def dependencies(self) -> dict[str, set[str]]:
        """node -> set of distinct targets it depends on (self excluded)."""
        deps: dict[str, set[str]] = {n: set() for n in self.nodes}
        for f, t, _ in self.edges:
            if f != t:
                deps[f].add(t)
        return deps

    def to_json(self) -> str:
        payload = {
            "granularity": self.granularity,
            "nodes": sorted(self.nodes),
            "edges": [
                {"from": f, "to": t, "kind": k, "weight": weight}
                for (f, t, k), weight in sorted(self.weights.items())
            ],
            "externals": dict(sorted(self.externals.items())),
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "DependencyGraph":
        payload = json.loads(text)
        weights = {(e["from"], e["to"], e["kind"]): e["weight"] for e in payload["edges"]}
        return cls(
            granularity=payload["granularity"],
            nodes=frozenset(payload["nodes"]),
            weights=weights,
            externals=dict(payload["externals"]),
        )


class _Snapshot:
    """Name-resolution index over one codebase snapshot."""

    def __init__(self, classes: list[ClassDescriptor]) -> None:
        self.by_qualified: dict[str, ClassDescriptor] = {}
        for c in classes:
            dup = self.by_qualified.get(c.qualified_name)
            if dup is not None:
                raise StructuralError(
                    f"duplicate qualified name {c.qualified_name!r} in "
                    f"{dup.source_path} and {c.source_path}"
                )
            self.by_qualified[c.qualified_name] = c
        self.by_simple: dict[str, list[ClassDescriptor]] = {}
        for c in classes:
            self.by_simple.setdefault(c.simple_name, []).append(c)

    def resolve_type(self, name: str, context: ClassDescriptor) -> ClassDescriptor | None:
        """Resolve a (possibly dotted) type name: exact qualified match,
        same-package match, then unique simple-name match."""
        if name in self.by_qualified:
            return self.by_qualified[name]
        simple = name.rsplit(".", 1)[-1]
        candidates = self.by_simple.get(simple, [])
        if not candidates:
            return None
        same_component = [c for c in candidates if c.component == context.component]
        if len(same_component) == 1:
            return same_component[0]
        imported = [
            c for c in candidates
            if c.qualified_name in context.imports
        ]
        if len(imported) == 1:
            return imported[0]
        if len(candidates) == 1:
            return candidates[0]
        return None

    def hierarchy(self, cls: ClassDescriptor) -> list[ClassDescriptor]:
        """The class plus every resolvable ancestor (superclasses and
        interfaces), breadth-first, cycles guarded."""
        seen = {cls.qualified_name}
        order = [cls]
        queue = [cls]
        while queue:
            cur = queue.pop(0)
            parents = ([cur.superclass] if cur.superclass else []) + list(cur.interfaces)
            for parent in parents:
                resolved = self.resolve_type(parent, cur)
                if resolved is not None and resolved.qualified_name not in seen:
                    seen.add(resolved.qualified_name)
                    order.append(resolved)
                    queue.append(resolved)
        return order


def build_dependency_graph(classes: list[ClassDescriptor], granularity: str) -> DependencyGraph:
    """Build the typed graph at ``"method"`` or ``"class"`` granularity (the
    component graph is ``quotient_graph`` of the class graph). Unresolved
    references are tallied in ``externals`` rather than added as nodes."""
    if granularity not in ("method", "class"):
        raise ValueError(f"unknown granularity {granularity!r}")
    snapshot = _Snapshot(classes)
    if granularity == "method":
        return _method_graph(classes, snapshot)
    return _class_graph(classes, snapshot)


def _method_graph(classes: list[ClassDescriptor], snapshot: _Snapshot) -> DependencyGraph:
    nodes = set()
    for c in classes:
        for m in c.all_methods():
            nodes.add(m.node_id)
    weights: Counter[Edge] = Counter()
    externals: Counter[str] = Counter()

    for c in classes:
        for m in c.all_methods():
            for site in m.call_sites:
                targets = _resolve_call(site, c, snapshot)
                if targets:
                    for target in targets:
                        weights[(m.node_id, target, EDGE_CALL)] += 1
                else:
                    externals[site.name] += 1
            # Overrides: same-name method in a resolvable ancestor.
            if not m.is_constructor:
                for ancestor in snapshot.hierarchy(c)[1:]:
                    for am in ancestor.methods:
                        if am.name == m.name:
                            weights[(m.node_id, am.node_id, EDGE_INHERITANCE)] += 1

    return DependencyGraph(
        granularity="method",
        nodes=frozenset(nodes),
        weights=dict(weights),
        externals=dict(externals),
    )


def _resolve_call(site: CallSite, caller: ClassDescriptor, snapshot: _Snapshot) -> list[str]:
    """All same-name candidates reachable by name-based resolution."""
    candidate_classes: list[ClassDescriptor] = []
    if site.is_constructor or (site.receiver is None and site.name[:1].isupper()):
        target_cls = snapshot.resolve_type(site.name, caller)
        if target_cls is not None:
            ctor_ids = [m.node_id for m in target_cls.constructors]
            return sorted(set(ctor_ids)) if ctor_ids else []
        if site.is_constructor:
            return []
    if site.receiver is None or site.receiver in ("this", "self", "super"):
        candidate_classes = snapshot.hierarchy(caller)
    else:
        receiver_cls = snapshot.resolve_type(site.receiver, caller)
        if receiver_cls is not None:
            candidate_classes = snapshot.hierarchy(receiver_cls)
        else:
            field_types = [f.base_type() for f in caller.fields if f.name == site.receiver]
            for ft in field_types:
                if ft:
                    resolved = snapshot.resolve_type(ft, caller)
                    if resolved is not None:
                        candidate_classes = snapshot.hierarchy(resolved)
                        break
    targets = []
    for cls in candidate_classes:
        for m in cls.all_methods():
            if m.name == site.name and not m.is_constructor:
                targets.append(m.node_id)
    return sorted(set(targets))


def _class_graph(classes: list[ClassDescriptor], snapshot: _Snapshot) -> DependencyGraph:
    nodes = frozenset(c.qualified_name for c in classes)
    weights: Counter[Edge] = Counter()
    externals: Counter[str] = Counter()

    for c in classes:
        src = c.qualified_name
        for parent in ([c.superclass] if c.superclass else []) + list(c.interfaces):
            resolved = snapshot.resolve_type(parent, c)
            if resolved is not None:
                if resolved.qualified_name != src:  # no inheritance self-loops
                    weights[(src, resolved.qualified_name, EDGE_INHERITANCE)] += 1
            else:
                externals[parent] += 1
        for imp in c.imports:
            if imp.endswith(".*"):
                externals[imp] += 1
                continue
            # A static import (``a.C.f``) names a member: its edge goes to the class.
            target = imp if imp in snapshot.by_qualified else imp.rpartition(".")[0]
            if target in snapshot.by_qualified and target != src:
                weights[(src, target, EDGE_IMPORT)] += 1
        for f in c.fields:
            # ``List<B> bs`` and ``[String: B] m`` depend on B as ``B b``
            # does: each type the field names counts once.
            for name in dict.fromkeys(f.type_names()):
                resolved = snapshot.resolve_type(name, c)
                if resolved is not None:
                    if resolved.qualified_name != src:
                        weights[(src, resolved.qualified_name, EDGE_FIELD_TYPE)] += 1
                elif name[:1].isupper():
                    externals[name] += 1
        sites = list(c.class_level_calls)
        for m in c.all_methods():
            sites.extend(m.call_sites)
        for site in sites:
            targets = _resolve_call(site, c, snapshot)
            if targets:
                for target in targets:
                    owner = target.rsplit(".", 1)[0]
                    if owner != src:
                        weights[(src, owner, EDGE_CALL)] += 1
            else:
                externals[site.name] += 1

    return DependencyGraph(
        granularity="class",
        nodes=nodes,
        weights=dict(weights),
        externals=dict(externals),
    )


def quotient_graph(graph: DependencyGraph, mapping: dict[str, str], granularity: str) -> DependencyGraph:
    """Project ``graph`` through ``mapping`` (node -> group), dropping
    self-edges. Edge kinds are preserved and weights summed."""
    nodes = frozenset(mapping[n] for n in graph.nodes)
    weights: Counter[Edge] = Counter()
    for (f, t, k), w in graph.weights.items():
        pf, pt = mapping[f], mapping[t]
        if pf != pt:
            weights[(pf, pt, k)] += w
    return DependencyGraph(
        granularity=granularity,
        nodes=nodes,
        weights=dict(weights),
        externals=dict(graph.externals),
    )
