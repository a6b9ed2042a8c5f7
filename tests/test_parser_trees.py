"""Exact parse trees for both grammars.

Each row pins the kind, start and end of every node of a sample's tree,
one node a line, children indented under their parent. Together the rows
reach every node kind the parser makes and each way a member, a body, a
list or a header can end: complete, cut off at the end of input, or
malformed. Trees are pinned as they are, odd ones included, so that a
rewrite of the parser shows any change in them. A Java ``import static``
reads ``static`` as a modifier and keeps the whole dotted name, a Swift
``class`` with only modifiers before its member keyword (``class func``,
``class override func``) reads as a modifier, and so does
``private(set)``. A Swift raw string (``#"a " } b"#``) is one string. A
Java record's components are fields of its declaration, beside its name.
"""

import textwrap
import time

import pytest

from transmigrate.sourcemodel.parser import SourceFile, parse_source


def dump(node, depth: int = 0) -> list[str]:
    lines = [f"{'  ' * depth}{node.kind} {node.start} {node.end}"]
    for child in node.children:
        lines.extend(dump(child, depth + 1))
    return lines


JAVA_DECLARATIONS = """\
package a.b;
import a.b.*;
@interface Ann { int v() default 1; }
@a.Ann(x = 1) @Deprecated
public abstract class Box<T extends Comparable<T>> extends Base<T> implements I<T>, java.io.Serializable {
    int a, b = 2, c[] = {1};
    int[] d;;
    static { init(); }
    { x(); }
    abstract void run();
    Box(int x) { this.a = x; }
    <T> List<Map<String, T>> get() throws E { if (a) { } return null; }
    enum E { A(1) { void f() {} }, B, C; int v; }
    interface I { void m(); }
}
"""

SWIFT_DECLARATIONS = """\
import Foundation
@objc(Foo) public final class Box<T>: Base<T>, P {
    let (a, b) = (1, 2)
    let (c, d): (Int, Int)
    var x: Int = 0
    var y: [String: Int] { get { return [:] } set { } }
    var z: Array<Int>, q = 1
    lazy var w = { 1 }()
    func f?() {}
    init?(x: Int) { }
    deinit { }
    subscript(i: Int) -> Int { return i }
    func g<T>(t: T) -> T where T: P { t }
    func h() async throws -> Int
    @objc var v = 1
    func h2() -> Int
    @objc var v2: <V>
    typealias K = Int
    struct S {}
}
extension Box: P {}
protocol P {
    func m() async throws
        -> Int
    associatedtype K
}
enum E: Int { case a = 1, b }
{ top() }
"""

# (language, name, text, tree)
TREES = [
    (
        "java",
        "declarations of every kind",
        JAVA_DECLARATIONS,
        """
        program 0 487
          package_declaration 0 12
            qualified_name 8 11
          import_declaration 13 26
            qualified_name 20 25
          annotation_declaration 27 64
            identifier 38 41
            type_body 42 64
              method_declaration 44 62
                identifier 48 49
                parameter_list 49 51
          class_declaration 65 486
            identifier 113 116
            superclass_reference 150 154
            interface_reference 169 170
            interface_reference 175 195
            type_body 196 486
              field_declaration 202 226
                type_reference 202 206
                identifier 206 207
                identifier 209 210
                identifier 216 217
              field_declaration 231 239
                type_reference 231 237
                identifier 237 238
              initializer_block 245 263
                block 252 263
              initializer_block 268 276
                block 268 276
              method_declaration 281 301
                identifier 295 298
                parameter_list 298 300
              constructor_declaration 306 332
                identifier 306 309
                parameter_list 309 316
                block 317 332
              method_declaration 337 404
                identifier 362 365
                parameter_list 365 367
                block 377 404
                  block 386 389
              enum_declaration 409 454
                identifier 414 415
                type_body 416 454
                  enum_constants 418 445
                    identifier 418 419
                    identifier 440 441
                    identifier 443 444
                  field_declaration 446 452
                    type_reference 446 450
                    identifier 450 451
              interface_declaration 459 484
                identifier 469 470
                type_body 471 484
                  method_declaration 473 482
                    identifier 478 479
                    parameter_list 479 481
        """,
    ),
    (
        "java",
        "path statements",
        "import static a.C.f;\npackage a.b\nimport a.;\nimport",
        """
        program 0 50
          import_declaration 0 20
            qualified_name 14 19
          package_declaration 21 32
            qualified_name 29 32
          import_declaration 33 41
            qualified_name 40 41
          error 41 43
          import_declaration 44 50
        """,
    ),
    (
        "java",
        "enum constant lists",
        "enum A { } enum B { X, Y } enum C { int x; } enum D { X; } enum F { X Y } enum E { X {",
        """
        program 0 86
          enum_declaration 0 10
            identifier 5 6
            type_body 7 10
          enum_declaration 11 26
            identifier 16 17
            type_body 18 26
              enum_constants 20 24
                identifier 20 21
                identifier 23 24
          enum_declaration 27 44
            identifier 32 33
            type_body 34 44
              field_declaration 36 42
                type_reference 36 40
                identifier 40 41
          enum_declaration 45 58
            identifier 50 51
            type_body 52 58
              enum_constants 54 56
                identifier 54 55
          enum_declaration 59 73
            identifier 64 65
            type_body 66 73
              error 68 71
          enum_declaration 74 86
            identifier 79 80
            type_body 81 86
              enum_constants 83 86
                identifier 83 84
              error 86 86
        """,
    ),
    (
        "java",
        "enum cut after a constant",
        "enum E { A",
        """
        program 0 10
          enum_declaration 0 10
            identifier 5 6
            type_body 7 10
              enum_constants 9 10
                identifier 9 10
              error 10 10
        """,
    ),
    (
        "java",
        "enum cut in an argument list",
        "enum E { A, B(",
        """
        program 0 14
          enum_declaration 0 14
            identifier 5 6
            type_body 7 14
              enum_constants 9 14
                identifier 9 10
                identifier 12 13
              error 14 14
        """,
    ),
    (
        "java",
        "unparseable members",
        "class A { x y { } int }\n} )",
        """
        program 0 27
          class_declaration 0 23
            identifier 6 7
            type_body 8 23
              error 10 13
              initializer_block 14 17
                block 14 17
              error 18 21
          error 24 25
          error 26 27
        """,
    ),
    (
        "java",
        "a call-shaped member whose name is not an identifier",
        "class B { 1() {} }",
        """
        program 0 18
          class_declaration 0 18
            identifier 6 7
            type_body 8 18
              error 10 12
              error 12 13
              initializer_block 14 16
                block 14 16
        """,
    ),
    (
        "java",
        "a call-shaped member with no name",
        "class C { (y); }",
        """
        program 0 16
          class_declaration 0 16
            identifier 6 7
            type_body 8 16
              error 10 11
              field_declaration 11 16
                identifier 11 12
              error 16 16
        """,
    ),
    (
        "java",
        "a field with no name",
        "class D { = 2; }",
        """
        program 0 16
          class_declaration 0 16
            identifier 6 7
            type_body 8 16
              error 10 14
        """,
    ),
    (
        "java",
        "modifiers before a closing brace",
        "class E { public }",
        """
        program 0 18
          class_declaration 0 18
            identifier 6 7
            type_body 8 18
        """,
    ),
    (
        "java",
        "member ends",
        "class A { void f() } synchronized (x) {} public",
        """
        program 0 47
          class_declaration 0 20
            identifier 6 7
            type_body 8 20
              method_declaration 10 18
                identifier 15 16
                parameter_list 16 18
          method_declaration 21 40
            identifier 21 33
            parameter_list 34 37
            block 38 40
          error 41 47
        """,
    ),
    (
        "java",
        "declaration ends",
        "class A; class { } interface I extends J, K.L<M> {",
        """
        program 0 50
          class_declaration 0 8
            identifier 6 7
          class_declaration 9 18
            type_body 15 18
          interface_declaration 19 50
            identifier 29 30
            interface_reference 39 40
            interface_reference 42 45
            type_body 49 50
              error 50 50
        """,
    ),
    (
        "java",
        "unclosed bodies",
        "class A { void m() { ",
        """
        program 0 21
          class_declaration 0 21
            identifier 6 7
            type_body 8 21
              method_declaration 10 21
                identifier 15 16
                parameter_list 16 18
                block 19 21
                  error 20 21
              error 21 21
        """,
    ),
    (
        "java",
        "cut member",
        "class A { int x",
        """
        program 0 15
          class_declaration 0 15
            identifier 6 7
            type_body 8 15
              error 10 15
              error 15 15
        """,
    ),
    (
        "java",
        "field cut at a brace",
        "class A { int x = 1 }",
        """
        program 0 21
          class_declaration 0 21
            identifier 6 7
            type_body 8 21
              field_declaration 10 19
                type_reference 10 14
                identifier 14 15
        """,
    ),
    (
        "swift",
        "members of every kind",
        SWIFT_DECLARATIONS,
        """
        program 0 660
          import_declaration 0 17
            qualified_name 7 17
          class_declaration 18 522
            identifier 48 51
            superclass_reference 56 60
            interface_reference 65 66
            type_body 67 522
              field_declaration 73 92
                identifier 78 79
                identifier 81 82
              field_declaration 97 118
                identifier 102 103
                identifier 105 106
                type_reference 109 113
              error 118 119
              field_declaration 124 138
                identifier 128 129
                type_reference 131 134
              field_declaration 143 194
                identifier 147 148
                type_reference 150 163
                block 164 194
                  block 170 184
                  block 189 192
              field_declaration 199 223
                identifier 203 204
                type_reference 206 216
              field_declaration 228 248
                identifier 237 238
                block 241 246
              method_declaration 253 265
                identifier 258 259
                parameter_list 260 262
                block 263 265
              constructor_declaration 270 287
                identifier 270 274
                parameter_list 275 283
                block 284 287
              method_declaration 292 302
                identifier 292 298
                block 299 302
              method_declaration 307 344
                identifier 307 316
                parameter_list 316 324
                block 332 344
              method_declaration 349 386
                identifier 354 355
                parameter_list 358 364
                block 381 386
              method_declaration 391 419
                identifier 396 397
                parameter_list 397 399
              field_declaration 424 439
                identifier 434 435
              method_declaration 444 460
                identifier 449 451
                parameter_list 451 453
              field_declaration 465 482
                identifier 475 477
                type_reference 479 482
              member 487 504
              struct_declaration 509 520
                identifier 516 517
                type_body 518 520
          extension_declaration 523 542
            identifier 533 536
            interface_reference 538 539
            type_body 540 542
          protocol_declaration 543 619
            identifier 552 553
            type_body 554 619
              method_declaration 560 596
                identifier 565 566
                parameter_list 566 568
              member 601 617
          enum_declaration 620 649
            identifier 625 626
            interface_reference 628 631
            type_body 632 649
              member 634 647
          initializer_block 650 659
            block 650 659
        """,
    ),
    (
        "swift",
        "fields end at a line's end unless the next line goes on",
        # A word outside the member keywords (case, typealias) starts its own
        # statement; '.', ',', '=', a binary operator or a ternary's '?' and
        # ':' at either side of the break, and an open bracket, carry a field
        # on to the next line. An optional type's '?' ends it.
        "enum E {\n    var x = 1\n    case k\n    let y = foo\n        .bar()\n    let z =\n        1\n"
        "    let w = [1,\n        2], v: Int\n        , u = 3\n    let t = a +\n        b\n        - c\n"
        "    let r = p\n        ? q\n        : s\n    var o: Int?\n    typealias T = Int\n}\n",
        """
        program 0 254
          enum_declaration 0 253
            identifier 5 6
            type_body 7 253
              field_declaration 13 22
                identifier 17 18
              member 27 33
              field_declaration 38 64
                identifier 42 43
              field_declaration 69 86
                identifier 73 74
              field_declaration 91 137
                identifier 95 96
              field_declaration 142 175
                identifier 146 147
              field_declaration 180 213
                identifier 184 185
              field_declaration 218 229
                identifier 222 223
                type_reference 225 229
              member 234 251
        """,
    ),
    (
        "swift",
        "loose statements and strays",
        "x = foo(1); y\n) ] }",
        """
        program 0 19
          member 0 11
          member 12 13
          error 14 15
          error 16 17
          error 18 19
        """,
    ),
    (
        "swift",
        "header ends",
        "class A { var v: Int\n    public func f() }\nfunc ==(a: A, b: A) -> Bool { true }\nfunc (x)\nfunc f<(\nstatic func",
        """
        program 0 109
          class_declaration 0 42
            identifier 6 7
            type_body 8 42
              field_declaration 10 20
                identifier 14 15
                type_reference 17 20
              method_declaration 25 40
                identifier 37 38
                parameter_list 38 40
          method_declaration 43 79
            identifier 48 49
            block 71 79
          method_declaration 80 88
            parameter_list 85 88
          method_declaration 89 109
            identifier 94 95
            parameter_list 96 109
        """,
    ),
    (
        "swift",
        "supertype lists",
        "class A: B.C<D>., E {}",
        """
        program 0 22
          class_declaration 0 12
            identifier 6 7
            superclass_reference 9 12
          member 15 22
        """,
    ),
    (
        "swift",
        "a supertype ending in a dot",
        "class G: H., I {} class F: {}",
        """
        program 0 29
          class_declaration 0 17
            identifier 6 7
            superclass_reference 9 10
            interface_reference 13 14
            type_body 15 17
          class_declaration 18 29
            identifier 24 25
            type_body 27 29
        """,
    ),
    (
        "swift",
        "cut fields",
        "var x:\nlet",
        """
        program 0 10
          field_declaration 0 5
            identifier 4 5
          field_declaration 7 10
        """,
    ),
    (
        "swift",
        "unclosed bodies",
        "class U { func f() { ",
        """
        program 0 21
          class_declaration 0 21
            identifier 6 7
            type_body 8 21
              method_declaration 10 21
                identifier 15 16
                parameter_list 16 18
                block 19 21
                  error 20 21
              error 21 21
        """,
    ),
    (
        "java",
        "a comma inside a field's generic arguments",
        "class A { Map<String, List<Integer>> m; }",
        """
        program 0 41
          class_declaration 0 41
            identifier 6 7
            type_body 8 41
              field_declaration 10 39
                type_reference 10 37
                identifier 37 38
        """,
    ),
    (
        "java",
        "a record beside the class of a component",
        "record R(int x, B b) { void f() {} }\nclass B {}",
        """
        program 0 47
          class_declaration 0 36
            identifier 7 8
            field_declaration 9 14
              type_reference 9 13
              identifier 13 14
            field_declaration 16 19
              type_reference 16 18
              identifier 18 19
            type_body 21 36
              method_declaration 23 34
                identifier 28 29
                parameter_list 29 31
                block 32 34
          class_declaration 37 47
            identifier 43 44
            type_body 45 47
        """,
    ),
    (
        "java",
        "a generic record with a compact constructor",
        "public record R<T>(T x, B b) implements I { R { } void f() {} }",
        """
        program 0 63
          class_declaration 0 63
            identifier 14 15
            field_declaration 19 22
              type_reference 19 21
              identifier 21 22
            field_declaration 24 27
              type_reference 24 26
              identifier 26 27
            interface_reference 40 41
            type_body 42 63
              constructor_declaration 44 49
                identifier 44 45
                block 46 49
              method_declaration 50 61
                identifier 55 56
                parameter_list 56 58
                block 59 61
        """,
    ),
    (
        "swift",
        "a class method",
        "class A { class func f() {} }",
        """
        program 0 29
          class_declaration 0 29
            identifier 6 7
            type_body 8 29
              method_declaration 10 27
                identifier 21 22
                parameter_list 22 24
                block 25 27
        """,
    ),
    (
        "swift",
        "a class method with a modifier after class",
        "class A { class override func f() {} }",
        """
        program 0 38
          class_declaration 0 38
            identifier 6 7
            type_body 8 38
              method_declaration 10 36
                identifier 30 31
                parameter_list 31 33
                block 34 36
        """,
    ),
    (
        "swift",
        "a final class method",
        "class A { class final func g() {} }",
        """
        program 0 35
          class_declaration 0 35
            identifier 6 7
            type_body 8 35
              method_declaration 10 33
                identifier 27 28
                parameter_list 28 30
                block 31 33
        """,
    ),
    (
        "swift",
        "a class field with a setter's access level",
        "class A { class private(set) var x = 0 }",
        """
        program 0 40
          class_declaration 0 40
            identifier 6 7
            type_body 8 40
              field_declaration 10 38
                identifier 33 34
        """,
    ),
    (
        "swift",
        "a setter's access level",
        "class A { private(set) var x = 0; var y = 1 }",
        """
        program 0 45
          class_declaration 0 45
            identifier 6 7
            type_body 8 45
              field_declaration 10 33
                identifier 27 28
              field_declaration 34 43
                identifier 38 39
        """,
    ),
    (
        "swift",
        "an actor",
        "actor A { func f() {} }",
        """
        program 0 23
          class_declaration 0 23
            identifier 6 7
            type_body 8 23
              method_declaration 10 21
                identifier 15 16
                parameter_list 16 18
                block 19 21
        """,
    ),
    (
        "swift",
        "actor as a name, then as a type",
        "actor = 1\nactor.play()\nactor A {}",
        """
        program 0 33
          member 0 9
          member 10 22
          class_declaration 23 33
            identifier 29 30
            type_body 31 33
        """,
    ),
    (
        "swift",
        "a raw string holding a quote and a brace",
        'class A { let s = #"a " } b"#\n func f() {} }',
        """
        program 0 44
          class_declaration 0 44
            identifier 6 7
            type_body 8 44
              field_declaration 10 29
                identifier 14 15
              method_declaration 31 42
                identifier 36 37
                parameter_list 37 39
                block 40 42
        """,
    ),
]


@pytest.mark.parametrize("language,name,text,tree", TREES, ids=[row[1] for row in TREES])
def test_exact_tree(language, name, text, tree):
    ast = parse_source(SourceFile("T." + language, text, language))
    assert dump(ast.root) == textwrap.dedent(tree).strip().splitlines()


def bound_names(text: str) -> list[list[str]]:
    """The identifier texts of each top-level Swift field of ``text``."""
    ast = parse_source(SourceFile("T.swift", text, "swift"))
    data = ast.source.data
    return [
        [data[c.start : c.end].decode() for c in node.children if c.kind == "identifier"]
        for node in ast.root.children
        if node.kind == "field_declaration"
    ]


def test_a_tuple_pattern_binds_every_identifier_inside_it():
    text = "let (a, (b, _c)) = f(x, y)\nvar (d, e): (Int, Int)\nlet (g, h"
    assert bound_names(text) == [["a", "b", "_c"], ["d", "e"], ["g", "h"]]


def test_tuple_fields_parse_in_linear_time():
    # Each pattern's names used to be found by a scan of every token of the
    # file: about 10 s for these 4,000 fields, against 0.1 s now.
    fields = 4000
    text = "class A {\n" + "".join(f"    let (a{i}, b{i}) = (1, 2)\n" for i in range(fields)) + "}\n"
    started = time.perf_counter()
    ast = parse_source(SourceFile("A.swift", text, "swift"))
    assert time.perf_counter() - started < 2.0
    (body,) = [n for n in ast.root.walk() if n.kind == "type_body"]
    assert len(body.children) == fields
