import random
import re

import pytest

from transmigrate.errors import IntegrityError
from transmigrate.scheduler import TranslationPlan, build_plan, order_nodes
from transmigrate.sourcemodel.graph import DependencyGraph


def compute_degrees(graph: DependencyGraph) -> dict[str, int]:
    """Dependency degree per item: the number of distinct same-granularity
    targets it depends on. Duplicate edges of different kinds count their
    shared target once; self-references are not dependencies."""
    return {node: len(targets) for node, targets in graph.dependencies().items()}


def make_graph(granularity, nodes, edges):
    return DependencyGraph(
        granularity=granularity,
        nodes=frozenset(nodes),
        weights={e: 1 for e in frozenset(edges)},
    )


def plan_for(method_graph, class_graph):
    """``build_plan`` with the roll-up maps that the plan stage reads from
    ``classes.json``: here a method's class and a class's component are its
    id without the last dotted part."""
    def parent(nodes):
        return {n: n.rpartition(".")[0] for n in nodes}

    return build_plan(
        method_graph,
        class_graph,
        method_owner=parent(method_graph.nodes),
        class_component=parent(class_graph.nodes),
    )


def is_topological(order, deps):
    """Independent oracle: every dependency precedes its dependent."""
    pos = {n: i for i, n in enumerate(order)}
    return all(
        pos[t] < pos[n] for n, targets in deps.items() for t in targets if t != n and t in pos
    )


def oracle_sccs(nodes, deps):
    """Independent SCC oracle via pairwise reachability (Warshall)."""
    idx = {n: i for i, n in enumerate(nodes)}
    n = len(nodes)
    reach = [0] * n
    for a, targets in deps.items():
        for b in targets:
            if b in idx:
                reach[idx[a]] |= 1 << idx[b]
    for k in range(n):
        bit = 1 << k
        for i in range(n):
            if reach[i] & bit:
                reach[i] |= reach[k]
    groups = {}
    for i, a in enumerate(nodes):
        key = frozenset(
            b
            for j, b in enumerate(nodes)
            if (i == j)
            or (reach[i] >> j & 1 and reach[j] >> i & 1)
        )
        groups.setdefault(key, set()).add(a)
    return {frozenset(members) for members in groups.values()}


class TestDegrees:
    def test_fanout_counts_distinct_targets(self):
        g = make_graph("class", ["A", "B", "C"], [("A", "B", "call"), ("A", "C", "call")])
        degrees = compute_degrees(g)
        assert degrees == {"A": 2, "B": 0, "C": 0}

    def test_duplicate_edges_of_different_kinds_count_once(self):
        g = make_graph("class", ["A", "B"], [("A", "B", "call"), ("A", "B", "field-type")])
        assert compute_degrees(g)["A"] == 1

    def test_self_reference_not_a_dependency(self):
        g = make_graph("method", ["A.m"], [("A.m", "A.m", "call")])
        assert compute_degrees(g) == {"A.m": 0}

    def test_random_graph_matches_exhaustive_recount(self):
        rng = random.Random(11)
        nodes = [f"n{i}" for i in range(6)]
        edges = set()
        for _ in range(12):
            a, b = rng.sample(nodes, 2)
            edges.add((a, b, rng.choice(["call", "import", "field-type"])))
        g = make_graph("class", nodes, edges)
        degrees = compute_degrees(g)
        for node in nodes:
            expected = len({t for f, t, _ in edges if f == node and t != node})
            assert degrees[node] == expected


class TestOrderNodes:
    def test_dependency_chain_emits_leaves_first(self):
        assert order_nodes(["A", "B", "C"], {"A": {"B"}, "B": {"C"}}) == ["C", "B", "A"]

    def test_independent_items_in_lexicographic_order(self):
        assert order_nodes(["C", "A", "B"], {}) == ["A", "B", "C"]

    def test_cycle_condensed_after_its_dependency(self):
        deps = {"A": {"B", "C"}, "B": {"A"}}
        assert order_nodes(["A", "B", "C"], deps) == ["C", "A", "B"]

    def test_ready_items_ranked_by_degree_then_name(self):
        # Z has fewer total dependencies than A; both become ready together.
        deps = {"Z": {"M"}, "A": {"M", "N"}}
        order = order_nodes(["A", "M", "N", "Z"], deps)
        assert order == ["M", "N", "Z", "A"]

    def test_exhaustive_small_dags_topological(self):
        nodes = ["a", "b", "c", "d"]
        pairs = [(i, j) for i in range(4) for j in range(i)]  # j < i keeps it acyclic
        for mask in range(1 << len(pairs)):
            deps = {n: set() for n in nodes}
            for bit, (i, j) in enumerate(pairs):
                if mask >> bit & 1:
                    deps[nodes[i]].add(nodes[j])
            order = order_nodes(nodes, deps)
            assert sorted(order) == nodes
            assert is_topological(order, deps)

    def test_cyclic_orders_consistent_with_scc_condensation(self):
        rng = random.Random(23)
        for _ in range(300):
            n = rng.randint(2, 8)
            nodes = [f"v{i}" for i in range(n)]
            deps = {x: set() for x in nodes}
            for _ in range(rng.randint(1, 2 * n)):
                a, b = rng.sample(nodes, 2)
                deps[a].add(b)
            order = order_nodes(nodes, deps)
            assert sorted(order) == sorted(nodes)
            sccs = oracle_sccs(nodes, deps)
            pos = {x: i for i, x in enumerate(order)}
            for scc in sccs:
                members = sorted(scc, key=pos.__getitem__)
                # Members contiguous and lexicographically ordered inside.
                first, last = pos[members[0]], pos[members[-1]]
                assert last - first == len(members) - 1
                assert members == sorted(members)
            scc_of = {x: scc for scc in sccs for x in scc}
            for a, targets in deps.items():
                for b in targets:
                    if scc_of[a] is not scc_of[b]:
                        assert pos[b] < pos[a]

    def test_deterministic_across_repeats(self):
        rng = random.Random(5)
        nodes = [f"n{i}" for i in range(10)]
        deps = {a: {b for b in rng.sample(nodes, 3) if b != a} for a in nodes}
        runs = [order_nodes(nodes, deps) for _ in range(3)]
        assert runs[0] == runs[1] == runs[2]


def saved(tmp_path, text):
    """``text`` saved as ``plan.jsonl`` under ``tmp_path``; its path."""
    path = tmp_path / "plan.jsonl"
    path.write_text(text)
    return path


def component_fixture():
    method_graph = make_graph(
        "method",
        ["p.A.x", "p.A.y", "p.B.z", "q.C.w"],
        [("p.A.y", "p.A.x", "call"), ("p.B.z", "p.A.x", "call"), ("q.C.w", "p.B.z", "call")],
    )
    class_graph = make_graph(
        "class",
        ["p.A", "p.B", "q.C"],
        [("p.B", "p.A", "call"), ("q.C", "p.B", "call")],
    )
    return method_graph, class_graph


class TestBuildPlan:
    def test_chain_order(self):
        classes = make_graph(
            "class", ["m.A", "m.B", "m.C"], [("m.A", "m.B", "call"), ("m.B", "m.C", "call")]
        )
        plan = plan_for(make_graph("method", [], []), classes)
        assert [c.name for c in plan.components[0].classes] == ["m.C", "m.B", "m.A"]

    def test_no_edges_lexicographic(self):
        classes = make_graph("class", ["m.B", "m.A", "m.C"], [])
        plan = plan_for(make_graph("method", [], []), classes)
        assert [c.name for c in plan.components[0].classes] == ["m.A", "m.B", "m.C"]

    def test_cycle_condensation_order(self):
        classes = make_graph(
            "class",
            ["m.A", "m.B", "m.C"],
            [("m.A", "m.B", "call"), ("m.B", "m.A", "call"), ("m.A", "m.C", "call")],
        )
        plan = plan_for(make_graph("method", [], []), classes)
        assert [c.name for c in plan.components[0].classes] == ["m.C", "m.A", "m.B"]

    def test_plan_structure_and_completeness(self):
        plan = plan_for(*component_fixture())
        assert [c.name for c in plan.components] == ["p", "q"]
        assert [c.name for c in plan.components[0].classes] == ["p.A", "p.B"]
        assert plan.components[0].classes[0].methods == ["p.A.x", "p.A.y"]
        assert plan.item_counts() == (2, 3, 4)

    def test_every_item_exactly_once(self):
        method_graph, class_graph = component_fixture()
        plan = plan_for(method_graph, class_graph)
        classes = [c.name for _, c in plan.iter_classes()]
        assert sorted(classes) == sorted(class_graph.nodes)
        methods = [m for _, c in plan.iter_classes() for m in c.methods]
        assert sorted(methods) == sorted(method_graph.nodes)

    @pytest.mark.parametrize("edge, order", [(("q.C", "p.B"), ["p", "q"]), (("p.B", "q.C"), ["q", "p"])])
    def test_component_order_follows_cross_component_class_edges(self, edge, order):
        # The component graph is the class graph's quotient: q.C -> p.B
        # makes q depend on p, so p comes first; reversed, q does.
        class_graph = make_graph("class", ["p.B", "q.C"], [(*edge, "call")])
        plan = plan_for(make_graph("method", [], []), class_graph)
        assert [c.name for c in plan.components] == order

    def test_class_order_uses_only_intra_component_edges(self):
        # Cross-component edge p.A -> q.C must not influence p's class order.
        class_graph = make_graph(
            "class",
            ["p.A", "p.B", "q.C"],
            [("p.A", "q.C", "call")],
        )
        plan = plan_for(make_graph("method", [], []), class_graph)
        p_component = [c for c in plan.components if c.name == "p"][0]
        assert [c.name for c in p_component.classes] == ["p.A", "p.B"]

    def test_inconsistent_rollup_is_integrity_error(self):
        method_graph = make_graph("method", ["orphan.m"], [])
        class_graph = make_graph("class", ["p.A"], [])
        with pytest.raises(IntegrityError):
            plan_for(method_graph, class_graph)

    @pytest.mark.parametrize(
        "method_owner, class_component, named",
        [
            ({}, {}, "class 'p.A'"),  # the analyze/classes.json of an empty project
            ({"p.A.y": "p.A", "p.B.z": "p.B", "q.C.w": "q.C"}, {"p.A": "p", "p.B": "p", "q.C": "q"}, "method 'p.A.x'"),
            (
                {"p.A.x": "p.A", "p.A.y": "p.A", "p.B.z": "p.B", "q.C.w": "q.C"},
                {"p.A": "p", "p.B": "p"},
                "class 'q.C'",
            ),
        ],
    )
    def test_graph_node_missing_from_rollup_is_integrity_error(self, method_owner, class_component, named):
        with pytest.raises(IntegrityError, match=named):
            build_plan(*component_fixture(), method_owner=method_owner, class_component=class_component)

    def test_plan_jsonl_round_trip(self, tmp_path):
        plan = plan_for(*component_fixture())
        text = plan.to_jsonl()
        loaded = TranslationPlan.load(saved(tmp_path, text))
        assert loaded.to_jsonl() == text

    @pytest.mark.parametrize(
        "line, problem",
        [
            ('{"class": "p.A", "kind": "metod", "name": "p.A.f"}', "unknown kind 'metod'"),
            ('{"class": "p.B", "kind": "method", "name": "p.B.f"}', "names class 'p.B', not the class above it"),
            ('{"component": "q", "kind": "class", "name": "q.C"}', "names component 'q', not the component above it"),
        ],
    )
    def test_plan_line_out_of_place_names_its_line(self, tmp_path, line, problem):
        lines = plan_for(*component_fixture()).to_jsonl().splitlines()
        lines.insert(3, line)  # after p, p.A and p.A.x
        path = saved(tmp_path, "\n".join(lines))
        with pytest.raises(IntegrityError, match=f"^corrupt artifact {re.escape(str(path))}: line 4: .*{problem}"):
            TranslationPlan.load(path)

    @pytest.mark.parametrize(
        "line, problem",
        [
            ('{"class": "p.A", "kind": "met', "line 3 column 26: Unterminated string"),
            ('["p.A.f"]', "line 3: list is not a JSON object"),
            ('{"class": "p.A", "name": "p.A.f"}', "line 3: no string 'kind' and 'name'"),
            ('{"class": "p.A", "kind": "method"}', "line 3: no string 'kind' and 'name'"),
        ],
    )
    def test_plan_line_that_is_no_plan_record_names_its_file_line(self, tmp_path, line, problem):
        lines = plan_for(*component_fixture()).to_jsonl().splitlines()
        lines[2] = line  # p, p.A, then the line in place of p.A's first method
        path = saved(tmp_path, "\n".join(lines))
        with pytest.raises(IntegrityError, match=f"^{re.escape(f'corrupt artifact {path}: {problem}')}"):
            TranslationPlan.load(path)

    def test_method_line_under_a_new_component_names_its_line(self, tmp_path):
        path = saved(tmp_path, '{"kind": "component", "name": "p"}\n{"class": "p.A", "kind": "method", "name": "p.A.f"}\n')
        problem = "line 2: method 'p.A.f' names class 'p.A', not the class above it"
        with pytest.raises(IntegrityError, match=f"^{re.escape(f'corrupt artifact {path}: {problem}')}"):
            TranslationPlan.load(path)

    def test_determinism_over_random_inputs(self):
        rng = random.Random(99)
        nodes = [f"m.K{i}" for i in range(8)]
        edges = set()
        for _ in range(10):
            a, b = rng.sample(nodes, 2)
            edges.add((a, b, "call"))
        class_graph = make_graph("class", nodes, edges)
        method_graph = make_graph("method", [], [])
        plans = {plan_for(method_graph, class_graph).to_jsonl() for _ in range(3)}
        assert len(plans) == 1
