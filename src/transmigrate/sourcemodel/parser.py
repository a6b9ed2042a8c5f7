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

Two rules keep the token tests short. The parser's own copy of the token
list ends with two end tokens (kind ``eof``, text ``""``, span at the end
of input), so a one-token lookahead is always in range and the empty text
marks the end of input. And where a token's text settles its kind (see the
``lexer`` module), only the text is tested: a kind is tested only for an
identifier, which no fixed text names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


class SourceFile:
    """One file of a codebase snapshot; ``path`` is repository-relative. It
    keeps only ``data``, its text's UTF-8 bytes; ``text`` decodes them."""

    __slots__ = ("path", "data", "language")

    def __init__(self, path: str, text: str, language: str) -> None:
        if language not in LANGUAGES:
            raise ConfigurationError(f"unsupported language {language!r} for {path}")
        self.path = path
        self.data = text.encode("utf-8")
        self.language = language

    @property
    def text(self) -> str:
        return self.data.decode("utf-8")

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
    for j in range(at, len(toks)):
        tok = toks[j]
        if tok.text == "<":
            depth += 1
        elif tok.text == ">":
            depth -= 1
            if depth == 0:
                return j + 1
        elif tok.text not in _GENERIC_PUNCT and tok.kind != IDENT:
            return None
    return None


# Depth-0 tokens that decide what a Java member is.
_C_DECIDERS = frozenset({"=", "(", ";", "{", "}"})

# Tokens that may follow a Java enum constant ("" is the end of input).
_CONSTANT_FOLLOWERS = frozenset({",", ";", "(", "{", "}", ""})

# Tokens that end a Swift field's type annotation.
_TYPE_ANNOTATION_ENDS = frozenset({"=", "{", ";", "}", ",", ""})

# Tokens that carry a Swift method header without a body on to a later
# line: at the start of that line ("-" opens "->"), or at the end of the
# line before it (as does "->" itself).
_HEADER_LINE_STARTS = frozenset({"-", "async", "throws", "rethrows", "where", ".", ","})
_HEADER_LINE_ENDS = frozenset({"where", ".", ","})

# Tokens that carry a Swift field declaration or statement on to a later
# line outside brackets: at the start of that line, or at the end of the
# line before it. Besides '.', ',' and '=', a binary operator does: no
# member starts with one. A type may end a line in '?', '!' or '>'.
_BINARY_OPERATORS = frozenset({"+", "-", "*", "/", "%", "&", "|", "^"})
_STATEMENT_LINE_STARTS = _BINARY_OPERATORS | {".", ",", "=", "?", ":"}
_STATEMENT_LINE_ENDS = _BINARY_OPERATORS | {".", ",", "=", ":"}

# What ends a type header's ``where`` clause (a stray "}" or the end of
# input ends it too).
_WHERE_CLAUSE_ENDS = frozenset({"{", ";", "}", ""})


class _Parser:
    """Token-stream parser; one instance per file."""

    def __init__(self, tokens: list[Token], profile: GrammarProfile, data: bytes) -> None:
        self.eof = len(data)
        # Two end tokens, so that a lookahead of one stays in the list.
        end = Token("eof", self.eof, self.eof, "")
        self.toks = [*tokens, end, end]
        self.n = len(tokens)  # index of the first end token
        self.profile = profile
        self.data = data
        self.i = 0
        self.depth = 0  # braces open around the cursor
        self._member_starts = (
            set(profile.method_keywords)
            | set(profile.field_keywords)
            | set(profile.type_keywords)
            | set(profile.modifiers)
            | {profile.import_keyword, "@", "}"}
        )

    # ---- cursor helpers -------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[self.i + ahead]

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
        while (tok := self.peek()).text:
            if tok.text == "}":
                if stop_at_close:
                    break
                # Unmatched close brace: flag it and keep going.
                members.append(AstNode("error", tok.start, tok.end))
                self.i += 1
                continue
            at = self.i
            node = self.parse_member(enclosing_type)
            if self.i == at:
                # A member that consumed nothing (a stray ')' or ']'): flag
                # the token and step over it, or the loop would never end.
                members.append(AstNode("error", tok.start, tok.end))
                self.i += 1
            elif node is not None:
                members.append(node)
        return members

    def parse_member(self, enclosing_type: str | None) -> AstNode | None:
        p = self.profile
        start_tok = self.peek()
        start = start_tok.start

        if start_tok.text == ";":
            self.i += 1
            return None
        if start_tok.text == p.package_keyword:
            return self._parse_path_statement("package_declaration")
        if start_tok.text == p.import_keyword:
            return self._parse_path_statement("import_declaration")

        # Leading annotations / attributes; '@interface' is a declaration.
        while self.peek().text == "@":
            if self.peek(1).text == "interface":
                self.i += 1  # '@'
                return self._parse_type_declaration(start, decl_kind="annotation_declaration")
            self.i += 1
            if self.peek().kind == IDENT:
                self._dotted_name()
            if self.peek().text == "(":
                self._skip_balanced("(", ")")

        while self.peek().text in p.modifiers:
            # Guard: a modifier word directly followed by '(' is a call, not
            # a modifier (only relevant for fragment inputs).
            if self.peek(1).text == "(":
                break
            self.i += 1

        tok = self.peek()
        if not tok.text:
            return AstNode("error", start, self.eof) if self._last_end() > start else None
        if tok.text in p.type_keywords:
            return self._parse_type_declaration(start)
        if p.member_style == "c":
            return self._parse_c_member(start, enclosing_type)
        if tok.text in p.method_keywords:
            return self._parse_keyword_method(start, enclosing_type)
        if tok.text in p.field_keywords:
            return self._parse_keyword_field(start)
        if tok.text == "{":
            return self._initializer_block(start)
        return self._parse_loose_statement(start)

    def _parse_path_statement(self, kind: str) -> AstNode:
        keyword = self.advance()
        end = keyword.end
        children = []
        if self.peek().text in self.profile.modifiers and self.peek(1).kind == IDENT:
            self.i += 1  # Java's ``import static a.C.f;``
        if (name := self.peek()).kind == IDENT:
            end = self._dotted_name(star=True)
            children.append(AstNode("qualified_name", name.start, end))
        if self.peek().text == ";":
            end = self.advance().end
        return AstNode(kind, keyword.start, end, children)

    def _dotted_name(self, star: bool = False) -> int:
        """Consume the identifier at the cursor and each '.' name after it
        (or '.*' when ``star``); returns the end of the last one."""
        toks = self.toks
        end = self.advance().end
        while toks[self.i].text == "." and ((nxt := toks[self.i + 1]).kind == IDENT or (star and nxt.text == "*")):
            self.i += 2
            end = nxt.end
        return end

    # ---- type declarations ------------------------------------------------

    def _parse_type_declaration(self, start: int, decl_kind: str | None = None) -> AstNode:
        keyword = self.advance()
        kind = decl_kind or _TYPE_KIND_BY_KEYWORD.get(keyword.text, "class_declaration")
        children: list[AstNode] = []
        end = keyword.end
        name = None

        if (name_tok := self.peek()).kind == IDENT:
            self.i += 1
            name = name_tok.text
            children.append(AstNode("identifier", name_tok.start, name_tok.end))
            end = name_tok.end
        if self.peek().text == "<":
            end = self._skip_generics()

        children.extend(self._parse_supertypes(kind))
        if children:
            end = max(end, children[-1].end)
        if self.peek().text == "where":  # Swift's generic constraints end the header
            while self.peek(1).text not in _WHERE_CLAUSE_ENDS:
                self.i += 1
            end = self.advance().end

        tok = self.peek()
        if tok.text == "{":
            body = self._parse_type_body(keyword.text, name)
            children.append(body)
            end = body.end
        elif tok.text == ";":
            end = self.advance().end
        return AstNode(kind, start, end, children)

    def _parse_supertypes(self, decl_kind: str) -> list[AstNode]:
        p = self.profile
        refs: list[AstNode] = []
        if p.inheritance_style == "colon":
            if self.peek().text == ":":
                self.i += 1
                for idx, (s, e) in enumerate(self._parse_type_name_list()):
                    role = "superclass_reference" if idx == 0 and decl_kind == "class_declaration" else "interface_reference"
                    refs.append(AstNode(role, s, e))
            return refs
        while (clause := self.peek().text) in (p.extends_keyword, p.implements_keyword):
            self.i += 1
            if clause == p.extends_keyword and decl_kind == "class_declaration":
                role = "superclass_reference"
            else:
                role = "interface_reference"
            refs.extend(AstNode(role, s, e) for s, e in self._parse_type_name_list())
        return refs

    def _parse_type_name_list(self) -> list[tuple[int, int]]:
        """Comma-separated dotted type names; generic arguments skipped."""
        toks = self.toks
        keywords = self.profile.keywords
        names: list[tuple[int, int]] = []
        while True:
            tok = toks[self.i]
            if tok.kind == IDENT and tok.text not in keywords:
                self.i += 1
                end = tok.end
                while toks[self.i].text == ".":
                    self.i += 1
                    if toks[self.i].kind != IDENT:
                        break
                    end = self.advance().end
                if toks[self.i].text == "<":
                    self._skip_generics()
                names.append((tok.start, end))
            elif tok.text == ",":
                self.i += 1
            else:
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
        """Scan the leading constant list of a Java enum body, then an
        optional ';'. A constant is an identifier followed by ',', ';', '(',
        '{', '}' or the end of input; its argument list and class body are
        skipped, and nested declarations inside them are not modeled."""
        keywords = self.profile.keywords
        idents: list[AstNode] = []
        end = 0  # set by the first constant
        while (
            (tok := self.peek()).kind == IDENT
            and tok.text not in keywords
            and self.peek(1).text in _CONSTANT_FOLLOWERS
        ):
            idents.append(AstNode("identifier", tok.start, tok.end))
            end = self.advance().end
            if self.peek().text == "(":
                end = self._skip_balanced("(", ")")
            if self.peek().text == "{":
                end = self._skip_balanced("{", "}")
            if self.peek().text == ",":
                self.i += 1
        if self.peek().text == ";":
            end = self.advance().end
        if not idents:
            return None
        return AstNode("enum_constants", idents[0].start, end, idents)

    # ---- C-shaped members (Java) -------------------------------------------

    def _parse_c_member(self, start: int, enclosing_type: str | None) -> AstNode | None:
        """Classify a Java member by its first depth-0 decider token:
        '(' method/constructor, '=' field with initializer, ';' field or
        abstract method end, '{' initializer block."""
        toks = self.toks
        scan = self.i
        depth = 0
        while text := toks[scan].text:
            if depth == 0 and text in _C_DECIDERS:
                break
            if text == "[":
                depth += 1
            elif text == "]":
                depth -= 1
            elif text == "<" and depth == 0:
                skipped = generic_arguments_end(toks, scan)
                if skipped is not None:
                    scan = skipped
                    continue
            scan += 1

        if text == "(":
            return self._parse_c_callable(start, scan, enclosing_type)
        if text in ("=", ";"):
            return self._parse_c_field(start)
        if text == "{" and scan == self.i:
            return self._initializer_block(start)
        # Tokens before a bare block with no '(' or '=', or a '}' or the end
        # of input before any decider: the run becomes an error node.
        return self._consume_error(start, scan)

    def _consume_error(self, start: int, until_index: int) -> AstNode | None:
        if until_index <= self.i:
            return None
        self.i = until_index
        return AstNode("error", start, self._last_end())

    def _parse_c_callable(self, start: int, paren_index: int, enclosing_type: str | None) -> AstNode | None:
        name_index = paren_index - 1
        if name_index < self.i or self.toks[name_index].kind != IDENT:
            return self._consume_error(start, paren_index + 1)
        name_tok = self.toks[name_index]
        # No return type before the name: a constructor if it names the type.
        is_constructor = name_index == self.i and enclosing_type is not None and name_tok.text == enclosing_type
        kind = "constructor_declaration" if is_constructor else "method_declaration"
        self.i = paren_index
        params_start = self.toks[paren_index].start
        end = self._skip_balanced("(", ")")
        children = [
            AstNode("identifier", name_tok.start, name_tok.end),
            AstNode("parameter_list", params_start, end),
        ]
        while (tok := self.peek()).text not in ("", "}"):
            if tok.text == "{":
                block = self._parse_block()
                children.append(block)
                return AstNode(kind, start, block.end, children)
            end = self.advance().end
            if tok.text == ";":
                break
        return AstNode(kind, start, end, children)

    def _parse_c_field(self, start: int) -> AstNode | None:
        """Field declaration; handles multiple comma-separated declarators and
        initializers containing balanced parens/braces (lambdas, anonymous
        classes). The run ends at the first depth-0 ';' (or just before the
        enclosing '}' when the terminator is missing)."""
        toks = self.toks
        segments: list[list[Token]] = [[]]
        depth = 0
        end = self._last_end()
        while text := (tok := toks[self.i]).text:
            if text in ("(", "[", "{"):
                depth += 1
            elif text in (")", "]", "}"):
                if depth == 0 and text == "}":
                    break
                depth -= 1
            elif depth == 0 and text == ";":
                end = self.advance().end
                break
            elif depth == 0 and text == ",":
                segments.append([])
                end = self.advance().end
                continue
            segments[-1].append(tok)
            end = self.advance().end

        keywords = self.profile.keywords

        def declarator_name(segment: list[Token]) -> Token | None:
            cut = len(segment)
            for idx, t in enumerate(segment):
                if t.text == "=":
                    cut = idx
                    break
            names = [t for t in segment[:cut] if t.kind == IDENT and t.text not in keywords]
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
        kind = "constructor_declaration" if kw.text == "init" else "method_declaration"
        children: list[AstNode] = []
        end = kw.end
        if kw.text != "func":
            children.append(AstNode("identifier", kw.start, kw.end))
        elif (name_tok := self.peek()).kind in (IDENT, PUNCT) and name_tok.text not in ("(", "{"):
            self.i += 1
            children.append(AstNode("identifier", name_tok.start, name_tok.end))
            end = name_tok.end
        while self.peek().text in ("?", "!"):
            end = self.advance().end
        if self.peek().text == "<":
            end = self._skip_generics()
        if (tok := self.peek()).text == "(":
            end = self._skip_balanced("(", ")")
            children.append(AstNode("parameter_list", tok.start, end))
        # Return clause / effects, up to the body; without one, up to the end
        # of the last line that the header goes on to.
        while (tok := self.peek()).text not in ("", "}"):
            if tok.text == "{":
                block = self._parse_block()
                children.append(block)
                return AstNode(kind, start, block.end, children)
            if self._on_later_line(tok, end) and not self._header_goes_on(tok):
                break
            end = self.advance().end
        return AstNode(kind, start, end, children)

    def _header_goes_on(self, tok: Token) -> bool:
        """Whether ``tok``, the first token of a later line, continues the
        method header before it."""
        before, last = self.toks[self.i - 2].text, self.toks[self.i - 1].text
        return tok.text in _HEADER_LINE_STARTS or last in _HEADER_LINE_ENDS or (before, last) == ("-", ">")

    def _statement_goes_on(self, tok: Token) -> bool:
        """Whether ``tok``, the first token of a later line, continues the
        field declaration or statement before it; a word that starts a
        member never does."""
        if tok.text in self._member_starts:
            return False
        return tok.text in _STATEMENT_LINE_STARTS or self.toks[self.i - 1].text in _STATEMENT_LINE_ENDS

    def _parse_keyword_field(self, start: int) -> AstNode:
        opened = self.i
        end = self.advance().end  # let / var
        children: list[AstNode] = []
        tok = self.peek()
        if tok.text == "(":
            # Tuple pattern: every identifier inside binds a name.
            end = self._skip_balanced("(", ")")
            children.extend(
                AstNode("identifier", t.start, t.end) for t in self.toks[opened + 2 : self.i] if t.kind == IDENT
            )
        elif tok.kind == IDENT:
            self.i += 1
            children.append(AstNode("identifier", tok.start, tok.end))
            end = tok.end
        if self.peek().text == ":":
            self.i += 1
            type_start = None
            while (tok := self.peek()).text not in _TYPE_ANNOTATION_ENDS:
                if self._on_later_line(tok, end) and not self._statement_goes_on(tok):
                    break
                if type_start is None:
                    type_start = tok.start
                end = self._skip_generics() if tok.text == "<" else self.advance().end
            if type_start is not None:
                children.append(AstNode("type_reference", type_start, end))
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
        consumed a token, or, outside brackets, at the end of a line that
        the next one does not continue. Returns the end reached (``end`` if
        none)."""
        toks = self.toks
        depth = 0
        while text := (tok := toks[self.i]).text:
            if depth:
                if text in ("(", "["):
                    depth += 1
                elif text in (")", "]"):
                    depth -= 1
            elif text == "{":
                block = self._parse_block()
                blocks.append(block)
                end = block.end
                continue
            elif text in ("(", "["):
                depth = 1
            elif text in (")", "]", "}"):
                break
            elif text == ";":
                return self.advance().end
            elif self.i > opened and self._on_later_line(tok, end) and not self._statement_goes_on(tok):
                break
            end = self.advance().end
        return end

    # ---- generic helpers -----------------------------------------------------

    def _initializer_block(self, start: int) -> AstNode:
        block = self._parse_block()
        return AstNode("initializer_block", start, block.end, [block])

    def _parse_block(self) -> AstNode:
        return self._braced("block", self._nested_blocks)

    def _nested_blocks(self) -> list[AstNode]:
        toks = self.toks
        blocks: list[AstNode] = []
        while (text := toks[self.i].text) != "}" and text:
            if text == "{":
                blocks.append(self._parse_block())
            else:
                self.i += 1
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
        if self.peek().text == "}":
            return AstNode(kind, open_tok.start, self.advance().end, children)
        tail_start = max(self._last_end(), open_tok.end, children[-1].end if children else 0)
        children.append(AstNode("error", tail_start, self.eof))
        return AstNode(kind, open_tok.start, self.eof, children)

    def _skip_too_deep(self, kind: str) -> AstNode:
        """The ``kind`` node of a block or type body opened at the nesting
        bound: consumed through its matching close, with one error child
        over its whole span."""
        start = self.peek().start
        end = self._skip_balanced("{", "}")
        return AstNode(kind, start, end, [AstNode("error", start, end)])

    def _skip_balanced(self, open_text: str, close_text: str) -> int:
        """Consume from the current opening token through its matching close;
        returns the end offset reached (EOF when unbalanced)."""
        toks = self.toks
        depth = 0
        for j in range(self.i, self.n):
            text = toks[j].text
            if text == open_text:
                depth += 1
            elif text == close_text:
                depth -= 1
                if depth == 0:
                    self.i = j + 1
                    return toks[j].end
        self.i = self.n
        return self.eof

    def _skip_generics(self) -> int:
        """Consume a generic argument list if present; best-effort on malformed
        input (single '<' consumed)."""
        end_index = generic_arguments_end(self.toks, self.i)
        if end_index is None:
            return self.advance().end
        self.i = end_index
        return self.toks[end_index - 1].end
