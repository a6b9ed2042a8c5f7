"""Grammar profiles.

A profile is a small JSON description of the lexical and declaration
syntax of one language: comment markers, string delimiters, keyword
classes, and how type/member declarations are introduced. The parser is
generic; all language specifics live in these files, which ship in the
package's ``grammars`` directory. A profile is read once per process for
each language; an unknown language raises on every call.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from pathlib import Path

from transmigrate.errors import ConfigurationError

_GRAMMARS_DIR = Path(__file__).parent / "grammars"

# The one suffix -> language map: what the parser accepts and what ingest
# and ``SourceFile.read`` take for source code.
LANGUAGE_BY_SUFFIX = {".java": "java", ".swift": "swift"}


@dataclass(frozen=True)
class GrammarProfile:
    """Declarative description of one language's surface syntax."""

    language: str
    line_comment: str | None
    block_comment: tuple[str, str] | None
    string_delimiters: tuple[str, ...]
    # Repeated before a string delimiter, opens a raw string (Swift's ``#"..."#``).
    raw_string_prefix: str | None
    char_delimiter: str | None
    keywords: frozenset[str]
    modifiers: frozenset[str]
    # Declaration keyword -> descriptor kind ("class" | "interface" | "enum").
    type_keywords: dict[str, str]
    package_keyword: str | None
    import_keyword: str
    # "extends-implements" (Java) or "colon" (Swift).
    inheritance_style: str
    extends_keyword: str | None
    implements_keyword: str | None
    # "c": members recognized by shape (name before parens / trailing ';');
    # "keyword": members introduced by dedicated keywords (func / let / var).
    member_style: str
    method_keywords: tuple[str, ...] = ()
    field_keywords: tuple[str, ...] = ()
    constructor_keyword: str | None = None
    # Identifiers never treated as call targets even when followed by "(".
    call_blocklist: frozenset[str] = field(default_factory=frozenset)


@functools.cache
def load_grammar(language: str) -> GrammarProfile:
    """The shipped profile for ``language``.

    Raises ConfigurationError when no profile file exists for the language.
    """
    path = _GRAMMARS_DIR / f"{language}.json"
    if not path.is_file():
        raise ConfigurationError(f"no grammar available for language {language!r} (looked in {_GRAMMARS_DIR})")
    raw = json.loads(path.read_text(encoding="utf-8"))
    block = raw.get("block_comment")
    return GrammarProfile(
        language=raw["language"],
        line_comment=raw.get("line_comment"),
        block_comment=tuple(block) if block else None,
        string_delimiters=tuple(raw.get("string_delimiters", [])),
        raw_string_prefix=raw.get("raw_string_prefix"),
        char_delimiter=raw.get("char_delimiter"),
        keywords=frozenset(raw.get("keywords", [])),
        modifiers=frozenset(raw.get("modifiers", [])),
        type_keywords=dict(raw.get("type_keywords", {})),
        package_keyword=raw.get("package_keyword"),
        import_keyword=raw.get("import_keyword", "import"),
        inheritance_style=raw.get("inheritance_style", "extends-implements"),
        extends_keyword=raw.get("extends_keyword"),
        implements_keyword=raw.get("implements_keyword"),
        member_style=raw.get("member_style", "c"),
        method_keywords=tuple(raw.get("method_keywords", [])),
        field_keywords=tuple(raw.get("field_keywords", [])),
        constructor_keyword=raw.get("constructor_keyword"),
        call_blocklist=frozenset(raw.get("call_blocklist", raw.get("keywords", []))),
    )


def profile_for_extension(path: str) -> GrammarProfile | None:
    """Best-effort profile lookup by file extension; None when unsupported."""
    language = LANGUAGE_BY_SUFFIX.get(Path(path).suffix.lower())
    return None if language is None else load_grammar(language)
