"""Descriptor extraction: classes, methods, fields, call sites.

Works purely on the parse tree plus the token stream, so extraction is a
pure per-file function. Call sites are syntactic: an identifier directly
followed by ``(`` that is not a control keyword. Receivers (the identifier
before a ``.``) and constructor invocations are recorded to support
name-based resolution during graph construction; no type inference is
attempted.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from transmigrate.errors import IntegrityError
from transmigrate.sourcemodel.grammar import GrammarProfile, load_grammar
from transmigrate.sourcemodel.lexer import IDENT, Token
from transmigrate.sourcemodel.parser import (
    TYPE_DECLARATION_KINDS,
    Ast,
    AstNode,
    SourceFile,
    generic_arguments_end,
)

_BASE_TYPE_RE = re.compile(r"[A-Za-z_$][\w$]*(?:\.[A-Za-z_$][\w$]*)*")


@dataclass(frozen=True)
class CallSite:
    """One syntactic invocation inside a body span."""

    name: str
    receiver: str | None
    offset: int
    is_constructor: bool = False


@dataclass
class FieldInfo:
    name: str
    declared_type: str

    def base_type(self) -> str | None:
        m = _BASE_TYPE_RE.search(self.declared_type)
        return m.group(0) if m else None

    def type_names(self) -> list[str]:
        """Every type name the declared type holds, in order, the base type
        first (``Map<String, List<B>>``: Map, String, List, B; Swift's
        ``[String: B]``: String, B); a wildcard's ``extends`` or ``super``
        names no type."""
        return [name for name in _BASE_TYPE_RE.findall(self.declared_type) if name not in ("extends", "super")]


@dataclass
class MethodDescriptor:
    name: str
    owner: str
    span: tuple[int, int]
    call_sites: list[CallSite] = field(default_factory=list)
    is_constructor: bool = False

    @property
    def node_id(self) -> str:
        return f"{self.owner}.{self.name}"


@dataclass
class ClassDescriptor:
    qualified_name: str
    kind: str  # "class" | "interface" | "enum"
    span: tuple[int, int]
    superclass: str | None
    interfaces: list[str]
    fields: list[FieldInfo]
    constructors: list[MethodDescriptor]
    methods: list[MethodDescriptor]
    component: str
    source_path: str
    imports: list[str] = field(default_factory=list)
    degraded: bool = False
    # Call sites in field initializers / enum bodies: class-level dependencies
    # with no owning method.
    class_level_calls: list[CallSite] = field(default_factory=list)

    @property
    def simple_name(self) -> str:
        return self.qualified_name.rsplit(".", 1)[-1]

    def all_methods(self) -> list[MethodDescriptor]:
        return self.constructors + self.methods


def extract_classes(ast: Ast) -> list[ClassDescriptor]:
    """One descriptor per type declaration, nested types included (dotted
    qualified names). Declarations containing parse errors are emitted with
    ``degraded=True``, never dropped."""
    profile = load_grammar(ast.source.language)
    package = _package_of(ast)
    imports = [
        _node_text(ast, qn)
        for imp in ast.root.children
        if imp.kind == "import_declaration"
        for qn in imp.children
        if qn.kind == "qualified_name"
    ]
    component = package if profile.package_keyword else _posix_dirname(ast.source.path)
    runs = TokenRuns(ast.tokens)

    descriptors: list[ClassDescriptor] = []

    def visit(node: AstNode, prefix: str) -> None:
        for child in node.children:
            if child.kind in TYPE_DECLARATION_KINDS:
                _extract_type(ast, runs, profile, child, prefix, package, component, imports, descriptors, visit)
            elif child.kind == "type_body":
                visit(child, prefix)

    visit(ast.root, "")
    return descriptors


def _extract_type(
    ast: Ast,
    runs: "TokenRuns",
    profile: GrammarProfile,
    node: AstNode,
    prefix: str,
    package: str,
    component: str,
    imports: list[str],
    out: list[ClassDescriptor],
    visit,
) -> None:
    name_node = node.first("identifier")
    simple = _node_text(ast, name_node) if name_node else "<anonymous>"
    dotted = f"{prefix}.{simple}" if prefix else simple
    qualified = f"{package}.{dotted}" if package else dotted

    kind = _descriptor_kind(profile, node.kind)
    superclass = None
    interfaces: list[str] = []
    for child in node.children:
        if child.kind == "superclass_reference":
            superclass = _node_text(ast, child)
        elif child.kind == "interface_reference":
            interfaces.append(_node_text(ast, child))

    body = node.first("type_body")
    methods: list[MethodDescriptor] = []
    constructors: list[MethodDescriptor] = []
    # A record's components are fields declared in its header.
    fields = [f for c in node.children if c.kind == "field_declaration" for f in _extract_fields(ast, c)]
    class_level_calls: list[CallSite] = []
    degraded = False

    if body is not None:
        nested_type_spans = [c.span for c in body.children if c.kind in TYPE_DECLARATION_KINDS]
        for member in body.children:
            if member.kind in ("method_declaration", "constructor_declaration"):
                desc = _extract_method(ast, runs, profile, member, qualified)
                if member.kind == "constructor_declaration":
                    constructors.append(desc)
                else:
                    methods.append(desc)
            elif member.kind == "field_declaration":
                fields.extend(_extract_fields(ast, member))
                body_spans = [c.span for c in member.children if c.kind == "block"]
                init_sites = _call_sites_in(runs.within(member.span), profile, exclude=body_spans)
                class_level_calls.extend(init_sites)
            elif member.kind == "error":
                degraded = True
        if not degraded:
            degraded = any(
                n.kind == "error"
                for n in body.walk()
                if not any(s <= n.start and n.end <= e for s, e in nested_type_spans)
            )

    out.append(
        ClassDescriptor(
            qualified_name=qualified,
            kind=kind,
            span=node.span,
            superclass=superclass,
            interfaces=interfaces,
            fields=fields,
            constructors=constructors,
            methods=methods,
            component=component,
            source_path=ast.source.path,
            imports=list(imports),
            degraded=degraded,
            class_level_calls=class_level_calls,
        )
    )
    if body is not None:
        visit(body, dotted)


def _extract_method(
    ast: Ast, runs: "TokenRuns", profile: GrammarProfile, node: AstNode, owner: str
) -> MethodDescriptor:
    name_node = node.first("identifier")
    name = _node_text(ast, name_node) if name_node else "<anonymous>"
    block = node.first("block")
    sites: list[CallSite] = []
    if block is not None:
        sites = _call_sites_in(runs.within(block.span), profile, exclude=[])
    return MethodDescriptor(
        name=name,
        owner=owner,
        span=node.span,
        call_sites=sites,
        is_constructor=node.kind == "constructor_declaration",
    )


def _extract_fields(ast: Ast, node: AstNode) -> list[FieldInfo]:
    type_node = node.first("type_reference")
    declared = _node_text(ast, type_node).strip() if type_node else ""
    return [
        FieldInfo(name=_node_text(ast, c), declared_type=declared)
        for c in node.children
        if c.kind == "identifier"
    ]


class TokenRuns:
    """A file's structural tokens, indexed by offset. The tokens that lie
    wholly inside a span form one contiguous run, since tokens are ordered and
    never overlap, so ``within`` finds it by bisection instead of a scan of
    the whole file for each method."""

    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.starts = [t.start for t in tokens]
        self.ends = [t.end for t in tokens]

    def within(self, span: tuple[int, int]) -> list[Token]:
        """The tokens ``t`` with ``start <= t.start and t.end <= end``, in order."""
        start, end = span
        return self.tokens[bisect_left(self.starts, start) : bisect_right(self.ends, end)]


def _call_sites_in(
    toks: list[Token],
    profile: GrammarProfile,
    exclude: list[tuple[int, int]],
) -> list[CallSite]:
    sites: list[CallSite] = []
    for i, tok in enumerate(toks):
        if tok.kind != IDENT or tok.text in profile.call_blocklist:
            continue
        if any(s <= tok.start and tok.end <= e for s, e in exclude):
            continue
        receiver = None
        is_ctor = False
        if i >= 1:
            prev = toks[i - 1]
            if prev.text == "." and i >= 2 and toks[i - 2].kind == IDENT:
                receiver = toks[i - 2].text
            elif prev.text == profile.constructor_keyword:
                is_ctor = True
        paren_at = i + 1
        if paren_at < len(toks) and toks[paren_at].text == "<":
            # Generic constructor/type invocations: name<args>( . Only
            # type-like names take the lookahead, so comparison chains on
            # ordinary variables never masquerade as calls.
            if is_ctor or tok.text[:1].isupper():
                after = generic_arguments_end(toks, paren_at)
                if after is None:
                    continue
                paren_at = after
            else:
                continue
        if paren_at >= len(toks) or toks[paren_at].text != "(":
            continue
        sites.append(CallSite(name=tok.text, receiver=receiver, offset=tok.start, is_constructor=is_ctor))
    return sites


def declarations_by_span(ast: Ast) -> dict[tuple[int, int], AstNode]:
    """Each span's first ``*_declaration`` node in walk order: for a class or
    method descriptor's span, the node it was extracted from."""
    nodes: dict[tuple[int, int], AstNode] = {}
    for node in ast.root.walk():
        if node.kind.endswith("_declaration"):
            nodes.setdefault(node.span, node)
    return nodes


def method_body(file: SourceFile, m: MethodDescriptor) -> str:
    """Exact source text of the method: the byte-span substring.

    Raises IntegrityError when the span falls outside the file, which
    indicates the snapshot changed after analysis.
    """
    start, end = m.span
    data = file.data
    if start < 0 or end > len(data) or start > end:
        raise IntegrityError(
            f"method span {m.span} outside {file.path} (0..{len(data)}): snapshot drift"
        )
    return data[start:end].decode("utf-8")


def _descriptor_kind(profile: GrammarProfile, node_kind: str) -> str:
    if node_kind == "annotation_declaration":
        return "interface"
    keyword = node_kind.removesuffix("_declaration")
    return profile.type_keywords.get(keyword, "class")


def _package_of(ast: Ast) -> str:
    for child in ast.root.children:
        if child.kind == "package_declaration":
            qn = child.first("qualified_name")
            if qn is not None:
                return _node_text(ast, qn)
    return ""


def _node_text(ast: Ast, node: AstNode | None) -> str:
    if node is None:
        return ""
    return ast.source.data[node.start : node.end].decode("utf-8")


def _posix_dirname(path: str) -> str:
    posix = path.replace("\\", "/")
    if "/" not in posix:
        return ""
    return posix.rsplit("/", 1)[0]
