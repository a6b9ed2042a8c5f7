import random
from dataclasses import replace

import pytest

from transmigrate.errors import ConfigurationError, IntegrityError, StructuralError
from conftest import FIXTURE_PROJECT, check_span_invariants, reachable

from transmigrate.sourcemodel import lexer
from transmigrate.sourcemodel.extract import TokenRuns, declarations_by_span, extract_classes, method_body
from transmigrate.sourcemodel.grammar import load_grammar
from transmigrate.sourcemodel.graph import (
    EDGE_CALL,
    EDGE_FIELD_TYPE,
    EDGE_IMPORT,
    EDGE_INHERITANCE,
    build_dependency_graph,
    quotient_graph,
    same_class_callees,
)
from transmigrate.sourcemodel.parser import SourceFile, parse_source


def reparse_matches(file: SourceFile, m) -> bool:
    """Round-trip check: re-parsing the extracted body yields a declaration
    tree equivalent to the method's node in the file's parse (found by its
    span) up to the span offset shift."""
    text = method_body(file, m)
    fragment = SourceFile(path=file.path + "#fragment", text=text, language=file.language)
    ast = parse_source(fragment)
    wanted = "constructor_declaration" if m.is_constructor else "method_declaration"
    candidates = [n for n in ast.root.children if n.kind in (wanted, "method_declaration", "constructor_declaration")]
    if not candidates:
        return False
    original = declarations_by_span(parse_source(file))[m.span]
    return _equal_modulo_offset(candidates[0], original, m.span[0])


def _equal_modulo_offset(reparsed, original, base: int) -> bool:
    if reparsed.kind != original.kind:
        # A constructor re-parsed without its enclosing class is
        # indistinguishable from a method; accept that pair.
        pair = {reparsed.kind, original.kind}
        if pair != {"method_declaration", "constructor_declaration"}:
            return False
    if (reparsed.start, reparsed.end) != (original.start - base, original.end - base):
        return False
    if len(reparsed.children) != len(original.children):
        return False
    return all(
        _equal_modulo_offset(r, o, base) for r, o in zip(reparsed.children, original.children)
    )


def java(text: str, path: str = "T.java") -> SourceFile:
    return SourceFile(path=path, text=text, language="java")


def classes_of(*files: SourceFile):
    out = []
    for f in files:
        out.extend(extract_classes(parse_source(f)))
    return out


class TestParse:
    def test_minimal_class_structure(self):
        ast = parse_source(java("class A { void m(){} }"))
        assert ast.root.kind == "program"
        types = [n for n in ast.root.children if n.kind == "class_declaration"]
        assert len(types) == 1
        body = types[0].first("type_body")
        methods = [n for n in body.children if n.kind == "method_declaration"]
        assert len(methods) == 1
        assert not any(n.kind == "error" for n in ast.root.walk())

    def test_empty_file(self):
        ast = parse_source(java(""))
        assert ast.root.kind == "program"
        assert ast.root.children == []
        assert ast.root.span == (0, 0)

    def test_stray_close_brace_flagged_at_its_span(self):
        text = "class A { }\n}"
        ast = parse_source(java(text))
        errors = [n for n in ast.root.walk() if n.kind == "error"]
        assert len(errors) == 1
        # The offending close brace is the final character.
        assert errors[0].span == (text.index("\n") + 1, len(text))

    def test_stray_close_paren_or_bracket_flagged_at_its_span(self):
        # A Swift member that consumes nothing used to leave the member loop
        # spinning on the same token forever.
        for text in (")", "]", "x )", "class A { ) }"):
            ast = parse_source(SourceFile("T.swift", text, "swift"))
            errors = [n for n in ast.root.walk() if n.kind == "error"]
            stray = text.index(")") if ")" in text else text.index("]")
            assert [e.span for e in errors] == [(stray, stray + 1)], text
            assert check_span_invariants(ast) == [], text

    def test_unclosed_body_produces_error_at_missing_brace_position(self):
        text = "class A { void m() { }"
        ast = parse_source(java(text))
        errors = [n for n in ast.root.walk() if n.kind == "error"]
        assert errors, "unbalanced input must surface an error node"
        # The error marks the point where the close brace never arrived.
        assert errors[0].span == (len(text), len(text))

    def test_span_invariants_hold(self):
        fixture = """
package p.q;

import java.util.List;

public class Outer extends Base implements I1, I2 {
    private int count = 0;
    private List<String> names;

    public Outer(int c) { this.count = c; }

    @Override
    public void run() { if (count > 0) { helper(); } }
    int helper() { return count; }

    enum Mode { A, B }
    class Inner { void ping() { run(); } }
}

interface I1 { void x(); }
"""
        ast = parse_source(java(fixture))
        assert check_span_invariants(ast) == []
        assert not any(n.kind == "error" for n in ast.root.walk())

    def test_span_invariants_hold_on_malformed_input(self):
        # The last four end in a backslash escape at end of input, which
        # steps over two bytes: the literal still ends at the input's end.
        for language, text in [
            *(("java", t) for t in ("class A { {", "}}}", "class B { void m( {} }", "class C { int x = ; }")),
            ("java", 'class A { String s = "abc\\'),
            ("java", "'\\"),
            ("java", "char c = '\\"),
            ("swift", '"abc\\'),
        ]:
            ast = parse_source(SourceFile("T." + language, text, language))
            assert check_span_invariants(ast) == [], text
            assert max(t.end for t in ast.tokens) <= len(text.encode()), text

    def test_missing_grammar_is_configuration_error(self):
        with pytest.raises(ConfigurationError, match="kotlin"):
            load_grammar("kotlin")

    def test_grammar_read_once_per_process_and_a_miss_raises_each_time(self):
        for _ in range(2):
            with pytest.raises(ConfigurationError):
                load_grammar("kotlin")
        assert load_grammar("java") is load_grammar("java")
        assert load_grammar("swift").language == "swift"

    def test_unknown_language_rejected(self):
        with pytest.raises(ConfigurationError):
            SourceFile(path="a.kt", text="", language="kotlin")


class TestTokenRecords:
    def test_tokens_and_nodes_have_no_instance_dict(self):
        ast = parse_source(java("class A { int x; void f() { g(); } } // done"))
        assert ast.tokens and ast.comments
        assert not any(hasattr(t, "__dict__") for t in ast.tokens + ast.comments)
        assert not any(hasattr(n, "__dict__") for n in ast.root.walk())

    def test_source_file_keeps_only_its_bytes(self):
        text = "class \u00c9t\u00e9 { } // caf\u00e9"
        file = java(text)
        assert not hasattr(file, "__dict__")
        assert file.data == text.encode("utf-8") and file.text == text
        assert not [o for o in reachable(file) if isinstance(o, str) and o == text]

    @pytest.mark.parametrize("path", sorted(FIXTURE_PROJECT.rglob("*.java")), ids=lambda p: p.name)
    def test_parse_returns_every_token(self, path):
        file = SourceFile.read(path, path.name, "java")
        ast = parse_source(file)
        everything = lexer.tokenize(file.data, load_grammar("java"))
        assert ast.tokens == [t for t in everything if t.kind != lexer.COMMENT]
        assert ast.comments == [t for t in everything if t.kind == lexer.COMMENT]


class TestTokenRuns:
    @pytest.mark.parametrize("path", sorted(FIXTURE_PROJECT.rglob("*.java")), ids=lambda p: p.name)
    def test_within_equals_a_full_scan(self, path):
        ast = parse_source(SourceFile.read(path, path.name, "java"))
        runs = TokenRuns(ast.tokens)
        spans = [m.span for c in extract_classes(ast) for m in c.all_methods()]
        spans += [n.span for n in ast.root.walk()]
        assert len(spans) > 10
        rng = random.Random(11)
        n = len(ast.source.data)
        spans += [(rng.randint(-3, n + 3), rng.randint(-3, n + 3)) for _ in range(500)]  # some inverted
        spans += [(t.start + 1, t.end) for t in ast.tokens] + [(t.start, t.end - 1) for t in ast.tokens]
        for start, end in spans:
            assert runs.within((start, end)) == [t for t in ast.tokens if start <= t.start and t.end <= end]


class TestExtract:
    def test_methods_and_call_list(self):
        descs = classes_of(java("class Foo { void a(){} void b(){ a(); } }"))
        assert len(descs) == 1
        foo = descs[0]
        assert [m.name for m in foo.methods] == ["a", "b"]
        assert [site.name for site in foo.methods[1].call_sites] == ["a"]
        assert foo.methods[0].call_sites == []

    def test_interface_method_without_body(self):
        ast = parse_source(java("interface I { void x(); }"))
        descs = extract_classes(ast)
        assert descs[0].kind == "interface"
        assert [m.name for m in descs[0].methods] == ["x"]
        method = descs[0].methods[0]
        node = declarations_by_span(ast)[method.span]
        assert node.kind == "method_declaration" and node.first("block") is None
        assert method.span[1] > method.span[0]

    def test_import_static_keeps_the_whole_member_path(self):
        descs = classes_of(java("import static a.C.f;\nimport static a.C.*;\nimport b.D;\nclass E {}"))
        assert descs[0].imports == ["a.C.f", "a.C.*", "b.D"]

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("class B<T>: P where T: Q { func f() {} }", [("B", ["f"])]),
            ("struct S<T> where T: Q { func g() {} }", [("S", ["g"])]),
        ],
    )
    def test_swift_type_header_where_clause_keeps_the_body(self, text, expected):
        ast = parse_source(SourceFile("T.swift", text, "swift"))
        assert [(d.simple_name, [m.name for m in d.methods]) for d in extract_classes(ast)] == expected
        assert check_span_invariants(ast) == []

    def test_nested_class_gets_dotted_qualified_name(self):
        descs = classes_of(java("class Outer { class Inner {} }"))
        assert [d.qualified_name for d in descs] == ["Outer", "Outer.Inner"]

    def test_package_prefixes_qualified_name_and_component(self):
        descs = classes_of(java("package a.b;\nclass C {}"))
        assert descs[0].qualified_name == "a.b.C"
        assert descs[0].component == "a.b"

    def test_degraded_flag_on_error_inside_body(self):
        descs = classes_of(java("class A { void m() { }"))
        assert len(descs) == 1
        assert descs[0].degraded
        assert [m.name for m in descs[0].methods] == ["m"]

    def test_fields_with_multiple_declarators(self):
        descs = classes_of(java("class F { int a, b; private String name = \"x\"; }"))
        fields = {f.name: f.declared_type for f in descs[0].fields}
        assert fields == {"a": "int", "b": "int", "name": "String"}

    def test_commas_inside_generic_arguments_split_no_declarators(self):
        text = "class F { Map<String, List<Integer>> m; Map<K, V> x = new HashMap<K, V>(), y; boolean b = i < j, c; }"
        fields = [(f.name, f.declared_type) for f in classes_of(java(text))[0].fields]
        assert fields == [
            ("m", "Map<String, List<Integer>>"),
            ("x", "Map<K, V>"),
            ("y", "Map<K, V>"),
            ("b", "boolean"),
            ("c", "boolean"),
        ]

    def test_swift_class_members_stay_in_their_class(self):
        text = "class A {\n    class func f() {}\n    class var v: Int { 1 }\n    class B {}\n}\n"
        descs = extract_classes(parse_source(SourceFile("A.swift", text, "swift")))
        assert [(d.qualified_name, [m.name for m in d.methods], [f.name for f in d.fields]) for d in descs] == [
            ("A", ["f"], ["v"]),
            ("A.B", [], []),
        ]

    def test_enum_kind_and_constants_not_methods(self):
        descs = classes_of(java("enum Color { RED, GREEN; int code; Color() {} }"))
        assert descs[0].kind == "enum"
        assert [m.name for m in descs[0].constructors] == ["Color"]
        assert descs[0].methods == []

    def test_constructor_separated_from_methods(self):
        descs = classes_of(java("class C { public C() {} void m() {} }"))
        assert [m.name for m in descs[0].constructors] == ["C"]
        assert [m.name for m in descs[0].methods] == ["m"]
        assert descs[0].constructors[0].is_constructor


class TestMethodBody:
    def test_exact_substring(self):
        src = java("class A { void a(){} }")
        desc = classes_of(src)[0]
        assert method_body(src, desc.methods[0]) == "void a(){}"

    def test_full_file_span_returns_whole_text(self):
        src = java("void a(){}")
        descs = extract_classes(parse_source(src))
        assert descs == []  # no enclosing type in this fragment
        from transmigrate.sourcemodel.extract import MethodDescriptor

        m = MethodDescriptor(name="a", owner="", span=(0, len(src.text)))
        assert method_body(src, m) == src.text

    def test_round_trip_reparse_equivalence(self):
        src = java(
            "class A {\n"
            "    @Override\n"
            "    public int sum(int a, int b) { if (a > 0) { return a + b; } return b; }\n"
            "    public A() { }\n"
            "}"
        )
        desc = classes_of(src)[0]
        assert reparse_matches(src, desc.methods[0])
        assert reparse_matches(src, desc.constructors[0])

    def test_span_out_of_bounds_is_integrity_error(self):
        src = java("class A { void a(){} }")
        desc = classes_of(src)[0]
        bad = replace(desc.methods[0], span=(5, len(src.text) + 10))
        with pytest.raises(IntegrityError):
            method_body(src, bad)


GRAPH_FIXTURE = {
    "p/a/Logger.java": """package p.a;
public class Logger {
    public Logger(String tag) {}
    public void log(String m) {}
}""",
    "p/b/Client.java": """package p.b;
import p.a.Logger;
public class Client {
    private Logger logger;
    public Client() { this.logger = new Logger("c"); }
    public String fetch(String url) { logger.log(url); return Util.get(url); }
}""",
    "p/b/Base.java": """package p.b;
public class Base { void shared() {} }""",
    "p/b/Special.java": """package p.b;
public class Special extends Base { void run() { shared(); } }""",
}


def graph_fixture_classes():
    files = [java(text, path) for path, text in GRAPH_FIXTURE.items()]
    return files, classes_of(*files)


class TestDependencyGraph:
    def test_inheritance_edge_at_class_granularity(self):
        descs = classes_of(java("class A {}"), java("class B extends A {}", "B.java"))
        graph = build_dependency_graph(descs)
        assert ("B", "A", EDGE_INHERITANCE) in graph.edges

    def test_unrelated_classes_have_no_edges(self):
        descs = classes_of(java("class A { void x(){} }"), java("class B { void y(){} }", "B.java"))
        graph = build_dependency_graph(descs)
        assert graph.edges == frozenset()

    def test_out_edges_are_the_sorted_edges_from_a_node(self):
        _files, descs = graph_fixture_classes()
        class_graph = build_dependency_graph(descs)
        mapping = {d.qualified_name: d.component for d in descs}
        component_graph = quotient_graph(class_graph, mapping, "component")
        for graph in (class_graph, component_graph):
            for node in sorted(graph.nodes) + ["not-a-node"]:
                assert graph.out_edges(node) == sorted(e for e in graph.edges if e[0] == node)

    def test_duplicate_qualified_names_error_names_both_files(self):
        descs = classes_of(java("class A {}", "one/A.java"), java("class A {}", "two/A.java"))
        with pytest.raises(StructuralError) as exc:
            build_dependency_graph(descs)
        assert "one/A.java" in str(exc.value) and "two/A.java" in str(exc.value)

    def test_all_four_edge_kinds_present(self):
        _files, descs = graph_fixture_classes()
        graph = build_dependency_graph(descs)
        kinds = {k for _, _, k in graph.edges}
        assert kinds == {EDGE_CALL, EDGE_INHERITANCE, EDGE_IMPORT, EDGE_FIELD_TYPE}

    def test_externals_recorded_not_as_nodes(self):
        _files, descs = graph_fixture_classes()
        graph = build_dependency_graph(descs)
        assert "get" in graph.externals  # Util.get is outside the snapshot
        assert not any("Util" in n for n in graph.nodes)

    def test_call_edges_have_textual_support(self):
        # Soundness: a call edge implies that the caller's span names one of
        # the target's constructors or methods.
        files, descs = graph_fixture_classes()
        by_path = {f.path: f for f in files}
        by_name = {d.qualified_name: d for d in descs}
        graph = build_dependency_graph(descs)
        call_edges = [(f, t) for f, t, kind in graph.edges if kind == EDGE_CALL]
        assert ("p.b.Client", "p.a.Logger") in call_edges
        for f, t in call_edges:
            caller = by_name[f]
            text = by_path[caller.source_path].text[caller.span[0] : caller.span[1]]
            assert any(f"{m.name}(" in text for m in by_name[t].all_methods()), (f, t)

    def test_callees_have_textual_support(self):
        # Soundness: a callee's name occurs in its caller's body.
        text = (
            "class Repo {\n"
            "    private Repo next;\n"
            "    Repo() { reset(); }\n"
            "    void reset() {}\n"
            "    void load(int n) { this.reset(); next.save(); }\n"
            "    void save() { load(1); }\n"
            "}"
        )
        src = java(text)
        descs = classes_of(src)
        callees = same_class_callees(descs)
        assert callees == {"Repo": [["reset"], [], ["reset", "save"], ["load"]]}
        for m, names in zip(descs[0].all_methods(), callees["Repo"]):
            body = method_body(src, m)
            assert all(f"{name}(" in body for name in names), (m.name, names)

    def test_component_graph_is_quotient_of_class_graph(self):
        _files, descs = graph_fixture_classes()
        class_graph = build_dependency_graph(descs)
        mapping = {d.qualified_name: d.component for d in descs}
        component_graph = quotient_graph(class_graph, mapping, "component")
        assert component_graph.nodes == {"p.a", "p.b"}
        assert component_graph.edges == {
            (mapping[f], mapping[t], k) for f, t, k in class_graph.edges if mapping[f] != mapping[t]
        }
        # Self-edges removed: Special -> Base is intra-component.
        assert ("p.b.Special", "p.b.Base", EDGE_INHERITANCE) in class_graph.edges
        assert not any(f == t for f, t, _ in component_graph.edges)

    def test_reference_counts_expose_multiplicity(self):
        descs = classes_of(java("class Foo { void b(){ Bar.a(); Bar.a(); } }\nclass Bar { static void a(){} }"))
        graph = build_dependency_graph(descs)
        assert graph.dependencies()["Foo"] == {"Bar"}
        assert [w for (f, _, _), w in graph.weights.items() if f == "Foo"] == [2]
        assert graph.weights[("Foo", "Bar", EDGE_CALL)] == 2

    @pytest.mark.parametrize(
        "caller, external",
        [
            ("class A { void f(){ B.make(); } }", None),  # a receiver naming a snapshot class
            ("class A { B b; void f(){ b.make(); } }", None),  # a field's declared type
            ("class A { List<B> bs; void f(){ bs.make(); } }", "make"),  # a field's base type is List
            ("class A { void f(){ b.make(); } }", "make"),  # an unknown receiver
        ],
    )
    def test_call_through_a_receiver_resolves_by_its_class(self, caller, external):
        descs = classes_of(java(caller), java("class B { static void make(){} }", "B.java"))
        graph = build_dependency_graph(descs)
        assert (("A", "B", EDGE_CALL) in graph.edges) == (external is None)
        assert ("make" in graph.externals) == (external is not None)

    @pytest.mark.parametrize(
        "files",
        [
            {"A.java": "class A { void f() { B b = new B(); } }", "B.java": "class B { void run() {} }"},
            {"A.swift": "class A { func f() { let b = B() } }", "B.swift": "class B { func run() {} }"},
        ],
    )
    def test_constructing_a_class_that_declares_no_constructor_is_a_call_edge(self, files):
        language = "swift" if "A.swift" in files else "java"
        descs = classes_of(*(SourceFile(path=path, text=text, language=language) for path, text in files.items()))
        graph = build_dependency_graph(descs)
        assert graph.weights == {("A", "B", EDGE_CALL): 1}
        assert "B" not in graph.externals
        assert same_class_callees(descs) == {"A": [[]], "B": [[]]}

    def test_constructing_its_own_class_without_a_constructor_names_no_callee(self):
        descs = classes_of(java("class A { static A make() { return new A(); } }"))
        assert build_dependency_graph(descs).weights == {}
        assert same_class_callees(descs) == {"A": [[]]}

    def test_an_unknown_class_constructed_stays_external(self):
        descs = classes_of(java("class A { void f() { Object o = new Gone(); } }"))
        graph = build_dependency_graph(descs)
        assert graph.edges == frozenset() and graph.externals == {"Gone": 1}

    def test_static_import_adds_an_edge_to_its_class(self):
        descs = classes_of(
            java("package a;\npublic class C { public static void f() {} }", "a/C.java"),
            java("package b;\nimport static a.C.f;\nclass D {}", "b/D.java"),
            java("package b;\nimport a.C;\nclass E {}", "b/E.java"),
            java("package b;\nimport static b.F.g;\nimport static a.Missing.h;\nclass F { static void g() {} }", "b/F.java"),
        )
        graph = build_dependency_graph(descs)
        assert sorted(graph.edges) == [("b.D", "a.C", EDGE_IMPORT), ("b.E", "a.C", EDGE_IMPORT)]

    def test_field_depends_on_the_types_in_its_generic_arguments(self):
        descs = classes_of(
            java("package p;\nclass A { List<B> bs; Map<String, C> m; D d; List<? extends B> more; }", "p/A.java"),
            *(java(f"package p;\nclass {name} {{}}", f"p/{name}.java") for name in "BCD"),
        )
        graph = build_dependency_graph(descs)
        assert sorted(graph.edges) == [("p.A", f"p.{name}", EDGE_FIELD_TYPE) for name in "BCD"]
        assert graph.weights[("p.A", "p.B", EDGE_FIELD_TYPE)] == 2  # once per field
        assert graph.externals == {"List": 2, "Map": 1, "String": 1}

    @pytest.mark.parametrize(
        "record, x_type, constructors",
        [
            ("record R(int x, B b) { void f() {} }", "int", []),
            ("public record R<T>(T x, B b) implements I { R { } void f() {} }", "T", ["R"]),
        ],
    )
    def test_record_components_are_fields_with_type_edges(self, record, x_type, constructors):
        descs = classes_of(java(f"package p;\n{record}\nclass B {{}}\ninterface I {{}}", "p/R.java"))
        (r,) = [d for d in descs if d.qualified_name == "p.R"]
        assert r.kind == "class"
        assert [(f.name, f.declared_type) for f in r.fields] == [("x", x_type), ("b", "B")]
        assert [m.name for m in r.methods] == ["f"]
        assert [m.name for m in r.constructors] == constructors
        assert ("p.R", "p.B", EDGE_FIELD_TYPE) in build_dependency_graph(descs).edges

    def test_swift_dictionary_field_depends_on_its_key_and_value_types(self):
        text = (
            "class A { var m: [String: B] = [:]; var k: [C: [D]]; var l: [B]; var o: B? }\n"
            "class B {}\nclass C {}\nclass D {}"
        )
        descs = classes_of(SourceFile(path="A.swift", text=text, language="swift"))
        graph = build_dependency_graph(descs)
        assert sorted(graph.edges) == [("A", name, EDGE_FIELD_TYPE) for name in "BCD"]
        assert graph.weights[("A", "B", EDGE_FIELD_TYPE)] == 3  # once per field
        assert graph.externals == {"String": 1}

    def test_graph_json_round_trip(self):
        _files, descs = graph_fixture_classes()
        graph = build_dependency_graph(descs)
        from transmigrate.sourcemodel.graph import DependencyGraph

        loaded = DependencyGraph.from_json(graph.to_json())
        assert loaded.nodes == graph.nodes
        assert loaded.edges == graph.edges
        assert loaded.weights == graph.weights


def callees_of(text: str) -> dict[str, list[list[str]]]:
    return same_class_callees(classes_of(java(text)))


class TestSameClassCallees:
    def test_direct_call(self):
        assert callees_of("class Foo { void a(){} void b(){ a(); } }") == {"Foo": [[], ["a"]]}

    def test_calls_through_this(self):
        assert callees_of("class Foo { Foo(){ this.a(); } void a(){} void b(){ this.a(); } }") == {
            "Foo": [["a"], [], ["a"]]
        }

    def test_call_through_a_field_of_the_own_type(self):
        assert callees_of("class Node { Node next; void a(){} void b(){ next.a(); } }") == {"Node": [[], ["a"]]}

    def test_constructor_call_names_the_constructor(self):
        assert callees_of("class Foo { Foo(){} Foo copy(){ return new Foo(); } }") == {"Foo": [[], ["Foo"]]}

    def test_overloads_keep_one_record_each(self):
        text = "class Foo { void a(){} void b(){} void f(int x){ a(); } void f(String s){ b(); } void g(){ f(1); } }"
        assert callees_of(text) == {"Foo": [[], [], ["a"], ["b"], ["f"]]}

    def test_self_call_and_sibling_overload_call_are_excluded(self):
        text = "class Foo { void f(int x){ f(x - 1); } void f(String s){ f(1); } }"
        assert callees_of(text) == {"Foo": [[], []]}

    def test_call_resolving_to_an_ancestor_method_is_no_callee(self):
        descs = classes_of(
            java("class Base { void shared(){} void both(){} }"),
            java("class Sub extends Base { void both(){} void run(){ shared(); both(); super.shared(); } }", "Sub.java"),
        )
        assert same_class_callees(descs) == {"Base": [[], []], "Sub": [[], ["both"]]}

    def test_nested_class_methods_are_kept_apart(self):
        text = "class Outer { void f(){ g(); } void g(){} class Inner { void g(){ h(); } void h(){ f(); } } }"
        assert callees_of(text) == {"Outer": [["g"], []], "Outer.Inner": [["h"], []]}


class TestSpanContainmentProperty:
    def test_randomized_nested_sources(self):
        rng = random.Random(42)
        names = iter(f"C{i}" for i in range(100))

        def gen_class(depth: int) -> str:
            name = next(names)
            members = []
            for _ in range(rng.randint(0, 3)):
                choice = rng.random()
                if choice < 0.4:
                    members.append(f"void m{rng.randint(0, 9)}() {{ int x = {rng.randint(0, 99)}; }}")
                elif choice < 0.7:
                    members.append(f"int f{rng.randint(0, 9)};")
                elif depth < 2:
                    members.append(gen_class(depth + 1))
            return f"class {name} {{ {' '.join(members)} }}"

        for _ in range(25):
            names = iter(f"C{i}_{rng.randint(0, 10 ** 6)}" for i in range(100))
            text = "\n".join(gen_class(0) for _ in range(rng.randint(1, 3)))
            ast = parse_source(java(text))
            assert check_span_invariants(ast) == [], text


class TestGenericInvocations:
    def test_generic_constructor_creates_call_edge(self):
        descs = classes_of(
            java("package u; public class Pair<A,B> { public Pair(A a, B b) {} }", "u/P.java"),
            java(
                "package s;\n"
                "import u.Pair;\n"
                "public class Cache {\n"
                "    void put() { Pair<String, Long> p = new Pair<String, Long>(\"a\", 1L); }\n"
                "}",
                "s/C.java",
            ),
        )
        graph = build_dependency_graph(descs)
        assert ("s.Cache", "u.Pair", EDGE_CALL) in graph.edges

    def test_diamond_constructor_shorthand(self):
        descs = classes_of(
            java("package u; public class Box<T> { public Box() {} }", "u/B.java"),
            java("package s; import u.Box; class S { Object b = new Box<>(); }", "s/S.java"),
        )
        graph = build_dependency_graph(descs)
        assert ("s.S", "u.Box", EDGE_CALL) in graph.edges

    def test_comparison_chains_are_not_calls(self):
        descs = classes_of(
            java(
                "class Guard {\n"
                "    static final int LIMIT = 9;\n"
                "    boolean check(int x, int y) { return LIMIT < x && y > (2); }\n"
                "}"
            )
        )
        graph = build_dependency_graph(descs)
        assert graph.edges == frozenset()
        assert same_class_callees(descs) == {"Guard": [[]]}


def test_unreadable_file_raises_io_error(tmp_path):
    with pytest.raises(OSError, match="unreadable source file"):
        SourceFile.read(tmp_path / "missing.java", "missing.java", "java")
