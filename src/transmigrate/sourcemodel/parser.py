"""Loss-tolerant structural parser.

Produces a declaration-level tree: packages, imports, type declarations
(including nested types), methods/constructors with exact byte spans,
fields, and nested brace blocks. Expression-level structure is not
modeled; method bodies appear as nested ``block`` nodes. Malformed input
never raises: unmatched braces become ``error`` nodes at the offending
span and parsing continues, so downstream extraction can flag degraded
declarations instead of dropping them. A block or type body opened inside
``MAX_NESTING`` braces is skipped whole as an ``error`` node, so no input
exhausts the recursion of the parser or of the walks over its tree.

Node kinds
    program, package_declaration, import_declaration, qualified_name,
    class_declaration, interface_declaration, enum_declaration,
    struct_declaration, protocol_declaration, extension_declaration,
    annotation_declaration, type_body, enum_constants, method_declaration,
    constructor_declaration, field_declaration, initializer_block,
    parameter_list, identifier, type_reference, superclass_reference,
    interface_reference, member, block, error

Invariants: every child span lies within its parent's span, sibling spans
are ordered and non-overlapping, and the root spans the whole input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from transmigrate.errors import ConfigurationError
from transmigrate.sourcemodel import lexer
from transmigrate.sourcemodel.grammar import LANGUAGE_BY_SUFFIX, GrammarProfile, load_grammar
from transmigrate.sourcemodel.lexer import IDENT, PUNCT, Token

LANGUAGES = tuple(LANGUAGE_BY_SUFFIX.values())

_TYPE_KIND_BY_KEYWORD = {
    "class": "class_declaration",
    "interface": "interface_declaration",
    "enum": "enum_declaration",
    "struct": "struct_declaration",
    "protocol": "protocol_declaration",
    "extension": "extension_declaration",
}

TYPE_DECLARATION_KINDS = frozenset(_TYPE_KIND_BY_KEYWORD.values()) | {"annotation_declaration"}

# Braces open around the cursor beyond which a block or type body is not
# descended into (each level costs a few stack frames here and in the walks).
MAX_NESTING = 100


@dataclass(frozen=True)
class SourceFile:
    """One file of a codebase snapshot; ``path`` is repository-relative."""

    path: str
    text: str
    language: str

    def __post_init__(self) -> None:
        if self.language not in LANGUAGES:
            raise ConfigurationError(f"unsupported language {self.language!r} for {self.path}")

    @cached_property
    def data(self) -> bytes:
        return self.text.encode("utf-8")

    @classmethod
    def read(cls, path: str | Path, repo_relative: str, language: str | None = None) -> "SourceFile":
        p = Path(path)
        if language is None:
            language = LANGUAGE_BY_SUFFIX.get(p.suffix.lower(), "")
        try:
            text = p.read_text(encoding="utf-8", errors="replace")
        except OSError as exc:
            raise IOError(f"unreadable source file: {p}") from exc
        return cls(path=repo_relative, text=text, language=language)


@dataclass(slots=True)
class AstNode:
    """One declaration-level node; slotted, as a file yields hundreds."""

    kind: str
    start: int
    end: int
    children: list["AstNode"] = field(default_factory=list)

    @property
    def span(self) -> tuple[int, int]:
        return (self.start, self.end)

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()

    def first(self, kind: str) -> "AstNode | None":
        for child in self.children:
            if child.kind == kind:
                return child
        return None


@dataclass
class Ast:
    root: AstNode
    source: SourceFile
    tokens: list[Token]          # comment tokens excluded
    comments: list[Token]


def parse_source(file: SourceFile) -> Ast:
    """Parse ``file`` into a declaration tree using its language's grammar
    profile. Raises ConfigurationError when the grammar is unavailable."""
    profile = load_grammar(file.language)
    data = file.data
    all_tokens = lexer.tokenize(data, profile)
    tokens = [t for t in all_tokens if t.kind != lexer.COMMENT]
    comments = [t for t in all_tokens if t.kind == lexer.COMMENT]
    parser = _Parser(tokens, profile, data)
    children = parser.parse_members(stop_at_close=False, enclosing_type=None)
    root = AstNode("program", 0, len(data), children)
    return Ast(root=root, source=file, tokens=tokens, comments=comments)


_GENERIC_PUNCT = frozenset({"<", ">", ",", ".", "?", "&", "[", "]", "@"})


def generic_arguments_end(toks: list[Token], at: int) -> int | None:
    """If ``toks[at]`` opens a generic argument list, return the index one
    past its matching '>'; otherwise None. Only declaration-context tokens
    are allowed inside, which distinguishes generics from comparison
    operators."""
    depth = 0
    j = at
    while j < len(toks):
        tok = toks[j]
        if tok.kind == PUNCT:
            if tok.text == "<":
                depth += 1
            elif tok.text == ">":
                depth -= 1
                if depth == 0:
                    return j + 1
            elif tok.text not in _GENERIC_PUNCT:
                return None
        elif tok.kind != IDENT:
            return None
        j += 1
    return None


class _Parser:
    """Token-stream parser; one instance per file."""

    def __init__(self, tokens: list[Token], profile: GrammarProfile, data: bytes) -> None:
        self.toks = tokens
        self.profile = profile
        self.data = data
        self.eof = len(data)
        self.i = 0
        self.depth = 0  # braces open around the cursor
        self._member_starts = (
            set(profile.method_keywords)
            | set(profile.field_keywords)
            | set(profile.type_keywords)
            | set(profile.modifiers)
            | {profile.import_keyword}
        )

    # ---- cursor helpers -------------------------------------------------

    def peek(self, ahead: int = 0) -> Token | None:
        j = self.i + ahead
        return self.toks[j] if j < len(self.toks) else None

    def at_end(self) -> bool:
        return self.i >= len(self.toks)

    def advance(self) -> Token:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def _on_later_line(self, tok: Token, end: int) -> bool:
        """Whether a newline lies between the last byte before ``end`` and ``tok``."""
        return self.data.find(b"\n", max(end - 1, 0), tok.start) >= 0

    def _last_end(self) -> int:
        return self.toks[self.i - 1].end if self.i > 0 else 0

    # ---- member scanning -------------------------------------------------

    def parse_members(self, stop_at_close: bool, enclosing_type: str | None) -> list[AstNode]:
        members: list[AstNode] = []
        while not self.at_end():
            tok = self.peek()
            assert tok is not None
            if tok.kind == PUNCT and tok.text == "}":
                if stop_at_close:
                    break
                # Unmatched close brace: flag it and keep going.
                members.append(AstNode("error", tok.start, tok.end))
                self.advance()
                continue
            at = self.i
            node = self.parse_member(enclosing_type)
            if self.i == at:
                # A member that consumed nothing (a stray ')' or ']'): flag
                # the token and step over it, or the loop would never end.
                members.append(AstNode("error", tok.start, tok.end))
                self.advance()
            elif node is not None:
                members.append(node)
        return members

    def parse_member(self, enclosing_type: str | None) -> AstNode | None:
        p = self.profile
        start_tok = self.peek()
        assert start_tok is not None
        start = start_tok.start

        if start_tok.kind == PUNCT and start_tok.text == ";":
            self.advance()
            return None

        if start_tok.kind == IDENT and p.package_keyword and start_tok.text == p.package_keyword:
            return self._parse_path_statement("package_declaration")
        if start_tok.kind == IDENT and start_tok.text == p.import_keyword:
            return self._parse_path_statement("import_declaration")

        # Leading annotations / attributes; '@interface' is a declaration.
        while (tok := self.peek()) is not None and tok.kind == PUNCT and tok.text == "@":
            nxt = self.peek(1)
            if nxt is not None and nxt.kind == IDENT and nxt.text == "interface":
                self.advance()  # '@'
                return self._parse_type_declaration(start, decl_kind="annotation_declaration")
            self.advance()
            if (t := self.peek()) is not None and t.kind == IDENT:
                self.advance()
                while (
                    (dot := self.peek()) is not None
                    and dot.kind == PUNCT
                    and dot.text == "."
                    and (nm := self.peek(1)) is not None
                    and nm.kind == IDENT
                ):
                    self.advance()
                    self.advance()
            if (t := self.peek()) is not None and t.kind == PUNCT and t.text == "(":
                self._skip_balanced("(", ")")

        while (tok := self.peek()) is not None and tok.kind == IDENT and tok.text in p.modifiers:
            # Guard: a modifier word directly followed by '(' is a call, not
            # a modifier (only relevant for fragment inputs).
            nxt = self.peek(1)
            if nxt is not None and nxt.kind == PUNCT and nxt.text == "(":
                break
            self.advance()

        tok = self.peek()
        if tok is None:
            return AstNode("error", start, self.eof) if self._last_end() > start else None

        if tok.kind == IDENT and tok.text in p.type_keywords:
            return self._parse_type_declaration(start)

        if p.member_style == "keyword":
            if tok.kind == IDENT and tok.text in p.method_keywords:
                return self._parse_keyword_method(start, enclosing_type)
            if tok.kind == IDENT and tok.text in p.field_keywords:
                return self._parse_keyword_field(start)
            if tok.kind == PUNCT and tok.text == "{":
                block = self._parse_block()
                return AstNode("initializer_block", start, block.end, [block])
            return self._parse_loose_statement(start)

        return self._parse_c_member(start, enclosing_type)

    def _parse_path_statement(self, kind: str) -> AstNode:
        keyword = self.advance()
        name_start = None
        name_end = None
        tok = self.peek()
        if tok is not None and tok.kind == IDENT:
            name_start, name_end = tok.start, tok.end
            self.advance()
            while (dot := self.peek()) is not None and dot.kind == PUNCT and dot.text == ".":
                nxt = self.peek(1)
                if nxt is not None and (nxt.kind == IDENT or (nxt.kind == PUNCT and nxt.text == "*")):
                    self.advance()
                    name_end = self.advance().end
                else:
                    break
        end = name_end if name_end is not None else keyword.end
        if (tok := self.peek()) is not None and tok.kind == PUNCT and tok.text == ";":
            end = self.advance().end
        children = []
        if name_start is not None and name_end is not None:
            children.append(AstNode("qualified_name", name_start, name_end))
        return AstNode(kind, keyword.start, end, children)

    # ---- type declarations ------------------------------------------------

    def _parse_type_declaration(self, start: int, decl_kind: str | None = None) -> AstNode:
        keyword = self.advance()
        kind = decl_kind or _TYPE_KIND_BY_KEYWORD.get(keyword.text, "class_declaration")
        children: list[AstNode] = []
        end = keyword.end

        name_tok = self.peek()
        if name_tok is not None and name_tok.kind == IDENT:
            self.advance()
            children.append(AstNode("identifier", name_tok.start, name_tok.end))
            end = name_tok.end
        if (tok := self.peek()) is not None and tok.kind == PUNCT and tok.text == "<":
            end = self._skip_generics()

        children.extend(self._parse_supertypes(kind))
        if children:
            end = max(end, children[-1].end)

        tok = self.peek()
        if tok is not None and tok.kind == PUNCT and tok.text == "{":
            body = self._parse_type_body(
                keyword.text,
                name_tok.text if name_tok is not None and name_tok.kind == IDENT else None,
            )
            children.append(body)
            end = body.end
        elif tok is not None and tok.kind == PUNCT and tok.text == ";":
            end = self.advance().end
        return AstNode(kind, start, end, children)

    def _parse_supertypes(self, decl_kind: str) -> list[AstNode]:
        p = self.profile
        refs: list[AstNode] = []
        if p.inheritance_style == "colon":
            tok = self.peek()
            if tok is not None and tok.kind == PUNCT and tok.text == ":":
                self.advance()
                names = self._parse_type_name_list()
                for idx, (s, e) in enumerate(names):
                    role = "superclass_reference" if idx == 0 and decl_kind == "class_declaration" else "interface_reference"
                    refs.append(AstNode(role, s, e))
            return refs
        while (tok := self.peek()) is not None and tok.kind == IDENT and tok.text in (p.extends_keyword, p.implements_keyword):
            clause = tok.text
            self.advance()
            names = self._parse_type_name_list()
            for s, e in names:
                if clause == p.extends_keyword and decl_kind == "class_declaration":
                    role = "superclass_reference"
                else:
                    role = "interface_reference"
                refs.append(AstNode(role, s, e))
        return refs

    def _parse_type_name_list(self) -> list[tuple[int, int]]:
        """Comma-separated dotted type names; generic arguments skipped."""
        names: list[tuple[int, int]] = []
        current: tuple[int, int] | None = None
        while (tok := self.peek()) is not None:
            if tok.kind == IDENT and tok.text not in self.profile.keywords:
                s = tok.start
                e = tok.end
                self.advance()
                while (t := self.peek()) is not None and t.kind == PUNCT and t.text == ".":
                    self.advance()
                    if (t2 := self.peek()) is not None and t2.kind == IDENT:
                        e = self.advance().end
                    else:
                        break
                if (t := self.peek()) is not None and t.kind == PUNCT and t.text == "<":
                    self._skip_generics()
                current = (s, e)
                names.append(current)
                continue
            if tok.kind == PUNCT and tok.text == ",":
                self.advance()
                continue
            break
        return names

    def _parse_type_body(self, type_keyword: str, type_name: str | None) -> AstNode:
        def members() -> list[AstNode]:
            children: list[AstNode] = []
            if type_keyword == "enum" and self.profile.member_style == "c":
                constants = self._parse_enum_constants()
                if constants is not None:
                    children.append(constants)
            children.extend(self.parse_members(stop_at_close=True, enclosing_type=type_name))
            return children

        return self._braced("type_body", members)

    def _parse_enum_constants(self) -> AstNode | None:
        """Scan the leading constant list of a Java enum body (up to ';' or
        the closing brace). Constant argument lists and class bodies are
        skipped; nested declarations inside constant bodies are not modeled."""
        idents: list[AstNode] = []
        start = None
        end = None
        while (tok := self.peek()) is not None:
            if tok.kind == PUNCT and tok.text == "}":
                break
            if tok.kind == PUNCT and tok.text == ";":
                end = self.advance().end
                break
            if tok.kind == IDENT and tok.text not in self.profile.keywords:
                nxt = self.peek(1)
                # A constant is an identifier followed by ',', ';', '(', '{' or '}'.
                if nxt is None or (nxt.kind == PUNCT and nxt.text in (",", ";", "(", "{", "}")):
                    if start is None:
                        start = tok.start
                    idents.append(AstNode("identifier", tok.start, tok.end))
                    end = self.advance().end
                    if (t := self.peek()) is not None and t.kind == PUNCT and t.text == "(":
                        end = self._skip_balanced("(", ")")
                    if (t := self.peek()) is not None and t.kind == PUNCT and t.text == "{":
                        end = self._skip_balanced("{", "}")
                    if (t := self.peek()) is not None and t.kind == PUNCT and t.text == ",":
                        self.advance()
                    continue
                break
            break
        if not idents:
            return None
        assert start is not None and end is not None
        return AstNode("enum_constants", start, end, idents)

    # ---- C-shaped members (Java) -------------------------------------------

    def _parse_c_member(self, start: int, enclosing_type: str | None) -> AstNode | None:
        """Classify a Java member by its first depth-0 decider token:
        '(' method/constructor, '=' field with initializer, ';' field or
        abstract method end, '{' initializer block."""
        scan = self.i
        depth = 0
        decider = None
        decider_index = None
        while scan < len(self.toks):
            tok = self.toks[scan]
            if tok.kind == PUNCT:
                if depth == 0 and tok.text in ("=", "(", ";", "{", "}"):
                    decider = tok.text
                    decider_index = scan
                    break
                if tok.text == "[":
                    depth += 1
                elif tok.text == "]":
                    depth -= 1
                elif tok.text == "<" and depth == 0:
                    skipped = generic_arguments_end(self.toks, scan)
                    if skipped is not None:
                        scan = skipped
                        continue
            scan += 1
        if decider is None:
            decider_index = len(self.toks)

        if decider == "(":
            return self._parse_c_callable(start, decider_index, enclosing_type)
        if decider in ("=", ";"):
            return self._parse_c_field(start)
        if decider == "{":
            if decider_index == self.i:
                block = self._parse_block()
                return AstNode("initializer_block", start, block.end, [block])
            # Tokens before a bare block with no '(' or '=': unparseable here.
            return self._consume_error(start, decider_index)
        # EOF or '}' before any decider: leftover tokens become an error node.
        return self._consume_error(start, decider_index)

    def _consume_error(self, start: int, until_index: int) -> AstNode | None:
        if until_index <= self.i:
            return None
        while self.i < until_index:
            self.advance()
        return AstNode("error", start, self._last_end())

    def _parse_c_callable(self, start: int, paren_index: int, enclosing_type: str | None) -> AstNode | None:
        name_index = paren_index - 1
        name_tok = self.toks[name_index] if name_index >= self.i else None
        if name_tok is None or name_tok.kind != IDENT:
            return self._consume_error(start, paren_index + 1)
        prefix_tokens = name_index - self.i  # return type etc., 0 for constructors
        while self.i < name_index:
            self.advance()
        self.advance()  # name
        params_start = self.toks[self.i].start
        params_end = self._skip_balanced("(", ")")
        children = [
            AstNode("identifier", name_tok.start, name_tok.end),
            AstNode("parameter_list", params_start, params_end),
        ]
        is_constructor = prefix_tokens == 0 and enclosing_type is not None and name_tok.text == enclosing_type
        kind = "constructor_declaration" if is_constructor else "method_declaration"
        end = params_end
        while (tok := self.peek()) is not None:
            if tok.kind == PUNCT and tok.text == "{":
                block = self._parse_block()
                children.append(block)
                return AstNode(kind, start, block.end, children)
            if tok.kind == PUNCT and tok.text == ";":
                end = self.advance().end
                return AstNode(kind, start, end, children)
            if tok.kind == PUNCT and tok.text == "}":
                break
            end = self.advance().end
        return AstNode(kind, start, end, children)

    def _parse_c_field(self, start: int) -> AstNode | None:
        """Field declaration; handles multiple comma-separated declarators and
        initializers containing balanced parens/braces (lambdas, anonymous
        classes). The run ends at the first depth-0 ';' (or just before the
        enclosing '}' when the terminator is missing)."""
        segments: list[list[Token]] = [[]]
        depth = 0
        end = self._last_end()
        while (tok := self.peek()) is not None:
            if tok.kind == PUNCT:
                if tok.text in ("(", "[", "{"):
                    depth += 1
                elif tok.text in (")", "]", "}"):
                    if depth == 0 and tok.text == "}":
                        break
                    depth -= 1
                elif tok.text == ";" and depth == 0:
                    end = self.advance().end
                    break
                elif tok.text == "," and depth == 0:
                    segments.append([])
                    end = self.advance().end
                    continue
            segments[-1].append(tok)
            end = self.advance().end

        def declarator_name(segment: list[Token]) -> Token | None:
            cut = len(segment)
            for idx, t in enumerate(segment):
                if t.kind == PUNCT and t.text == "=":
                    cut = idx
                    break
            names = [t for t in segment[:cut] if t.kind == IDENT and t.text not in self.profile.keywords]
            return names[-1] if names else None

        first_name = declarator_name(segments[0])
        if first_name is None:
            # Could not identify a declarator: flag the run.
            return AstNode("error", start, end) if end > start else None
        children: list[AstNode] = []
        type_start = segments[0][0].start if segments[0] else start
        if first_name.start > type_start:
            children.append(AstNode("type_reference", type_start, first_name.start))
        children.append(AstNode("identifier", first_name.start, first_name.end))
        for segment in segments[1:]:
            name = declarator_name(segment)
            if name is not None:
                children.append(AstNode("identifier", name.start, name.end))
        return AstNode("field_declaration", start, end, children)

    # ---- keyword-style members (Swift) --------------------------------------

    def _parse_keyword_method(self, start: int, enclosing_type: str | None) -> AstNode:
        kw = self.advance()
        children: list[AstNode] = []
        end = kw.end
        if kw.text == "func":
            name_tok = self.peek()
            if name_tok is not None and name_tok.kind in (IDENT, PUNCT) and name_tok.text not in ("(", "{"):
                self.advance()
                children.append(AstNode("identifier", name_tok.start, name_tok.end))
                end = name_tok.end
        else:
            children.append(AstNode("identifier", kw.start, kw.end))
        while (tok := self.peek()) is not None and tok.kind == PUNCT and tok.text in ("?", "!"):
            end = self.advance().end
        if (tok := self.peek()) is not None and tok.kind == PUNCT and tok.text == "<":
            end = self._skip_generics()
        if (tok := self.peek()) is not None and tok.kind == PUNCT and tok.text == "(":
            params_start = tok.start
            params_end = self._skip_balanced("(", ")")
            children.append(AstNode("parameter_list", params_start, params_end))
            end = params_end
        # Return clause / effects, up to the body or the end of the header line.
        while (tok := self.peek()) is not None:
            if tok.kind == PUNCT and tok.text == "{":
                block = self._parse_block()
                children.append(block)
                kind = "constructor_declaration" if kw.text == "init" else "method_declaration"
                return AstNode(kind, start, block.end, children)
            if tok.kind == PUNCT and tok.text == "}":
                break
            if self._on_later_line(tok, end) and self._starts_member(tok):
                break
            end = self.advance().end
        kind = "constructor_declaration" if kw.text == "init" else "method_declaration"
        return AstNode(kind, start, end, children)

    def _parse_keyword_field(self, start: int) -> AstNode:
        opened = self.i
        self.advance()  # let / var
        children: list[AstNode] = []
        end = self._last_end()
        tok = self.peek()
        if tok is not None and tok.kind == PUNCT and tok.text == "(":
            # Tuple pattern: every identifier inside binds a name.
            pattern_start = tok.start
            close = self._skip_balanced("(", ")")
            for t in self.toks:
                if pattern_start < t.start < close and t.kind == IDENT:
                    children.append(AstNode("identifier", t.start, t.end))
            end = close
        elif tok is not None and tok.kind == IDENT:
            self.advance()
            children.append(AstNode("identifier", tok.start, tok.end))
            end = tok.end
        if (t := self.peek()) is not None and t.kind == PUNCT and t.text == ":":
            self.advance()
            ty_start = None
            ty_end = None
            while (t2 := self.peek()) is not None:
                if t2.kind == PUNCT and t2.text in ("=", "{", ";", "}", ","):
                    break
                if self._on_later_line(t2, end) and self._starts_member(t2):
                    break
                if t2.kind == PUNCT and t2.text == "<":
                    ty_end = self._skip_generics()
                    if ty_start is None:
                        ty_start = t2.start
                    end = ty_end
                    continue
                if ty_start is None:
                    ty_start = t2.start
                ty_end = self.advance().end
                end = ty_end
            if ty_start is not None and ty_end is not None:
                children.append(AstNode("type_reference", ty_start, ty_end))
        # Initializer and/or accessor blocks, to the end of the statement.
        end = self._statement_tail(opened, end, children)
        return AstNode("field_declaration", start, end, children)

    def _parse_loose_statement(self, start: int) -> AstNode:
        """Unrecognized top-of-member construct (typealias, expressions at
        file scope): consume a balanced run to the end of the statement."""
        return AstNode("member", start, max(self._statement_tail(self.i, start, []), start))

    def _statement_tail(self, opened: int, end: int, blocks: list[AstNode]) -> int:
        """Consume the rest of a statement whose first token has index ``opened``:
        balanced runs, with each brace run at depth 0 parsed into ``blocks``,
        through a depth-0 ';', or up to an unmatched close or a token that
        starts a member on a later line than ``end`` once the statement has
        consumed a token. Returns the end reached (``end`` if none)."""
        depth = 0
        while (tok := self.peek()) is not None:
            if tok.kind == PUNCT:
                if tok.text == "{" and depth == 0:
                    block = self._parse_block()
                    blocks.append(block)
                    end = block.end
                    continue
                if tok.text in ("(", "["):
                    depth += 1
                elif tok.text in (")", "]"):
                    if depth == 0:
                        break
                    depth -= 1
                elif tok.text == ";" and depth == 0:
                    return self.advance().end
                elif tok.text == "}" and depth == 0:
                    break
            if self.i > opened and depth == 0 and self._on_later_line(tok, end) and self._starts_member(tok):
                break
            end = self.advance().end
        return end

    def _starts_member(self, tok: Token) -> bool:
        if tok.kind == PUNCT and tok.text in ("@", "}"):
            return True
        return tok.kind == IDENT and tok.text in self._member_starts

    # ---- generic helpers -----------------------------------------------------

    def _parse_block(self) -> AstNode:
        return self._braced("block", self._nested_blocks)

    def _nested_blocks(self) -> list[AstNode]:
        blocks: list[AstNode] = []
        while (tok := self.peek()) is not None and not (tok.kind == PUNCT and tok.text == "}"):
            if tok.kind == PUNCT and tok.text == "{":
                blocks.append(self._parse_block())
            else:
                self.advance()
        return blocks

    def _braced(self, kind: str, parse_children) -> AstNode:
        """The ``kind`` node from the current '{' through its matching '}',
        holding what ``parse_children`` returns (it stops at that '}'). An
        unclosed one runs to EOF with an error node over the unconsumed tail,
        after the last child (whose own error span can run past the last
        token). One opened at ``MAX_NESTING`` is skipped whole."""
        if self.depth >= MAX_NESTING:
            return self._skip_too_deep(kind)
        open_tok = self.advance()  # '{'
        self.depth += 1
        children = parse_children()
        self.depth -= 1
        tok = self.peek()
        if tok is not None and tok.kind == PUNCT and tok.text == "}":
            return AstNode(kind, open_tok.start, self.advance().end, children)
        tail_start = max(self._last_end(), open_tok.end, children[-1].end if children else 0)
        children.append(AstNode("error", tail_start, self.eof))
        return AstNode(kind, open_tok.start, self.eof, children)

    def _skip_too_deep(self, kind: str) -> AstNode:
        """The ``kind`` node of a block or type body opened at the nesting
        bound: consumed through its matching close, with one error child
        over its whole span."""
        start = self.toks[self.i].start
        end = self._skip_balanced("{", "}")
        return AstNode(kind, start, end, [AstNode("error", start, end)])

    def _skip_balanced(self, open_text: str, close_text: str) -> int:
        """Consume from the current opening token through its matching close;
        returns the end offset reached (EOF when unbalanced)."""
        depth = 0
        end = self._last_end()
        while not self.at_end():
            tok = self.advance()
            end = tok.end
            if tok.kind == PUNCT:
                if tok.text == open_text:
                    depth += 1
                elif tok.text == close_text:
                    depth -= 1
                    if depth == 0:
                        return end
        return self.eof

    def _skip_generics(self) -> int:
        """Consume a generic argument list if present; best-effort on malformed
        input (single '<' consumed)."""
        at = self.i
        end_index = generic_arguments_end(self.toks, at)
        if end_index is None:
            return self.advance().end
        end = self.toks[end_index - 1].end
        while self.i < end_index:
            self.advance()
        return end
