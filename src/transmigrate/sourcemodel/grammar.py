"""Grammar profiles.

A profile is a small JSON description of the lexical and declaration
syntax of one language: comment markers, string delimiters, keyword
classes, and how type/member declarations are introduced. The parser is
generic; all language specifics live in these files. Profiles are loaded
from a configurable grammar directory so deployments can adjust or add
languages without code changes. A profile is read once per process for
each language and absolute directory; a missing one raises on every call.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from transmigrate.errors import ConfigurationError


@dataclass(frozen=True)
class GrammarProfile:
    """Declarative description of one language's surface syntax."""

    language: str
    line_comment: str | None
    block_comment: tuple[str, str] | None
    string_delimiters: tuple[str, ...]
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


def default_grammar_dir() -> Path:
    """Directory holding the grammar profiles shipped with the package."""
    return Path(__file__).parent / "grammars"


def load_grammar(language: str, grammar_dir: str | Path | None = None) -> GrammarProfile:
    """Load the profile for ``language`` from ``grammar_dir``.

    Raises ConfigurationError when no profile file exists for the language.
    """
    directory = Path(grammar_dir) if grammar_dir is not None else default_grammar_dir()
    return _load_grammar(language, os.path.abspath(directory))


@functools.cache
def _load_grammar(language: str, directory: str) -> GrammarProfile:
    path = Path(directory, f"{language}.json")
    if not path.is_file():
        raise ConfigurationError(f"no grammar available for language {language!r} (looked in {directory})")
    raw = json.loads(path.read_text(encoding="utf-8"))
    block = raw.get("block_comment")
    return GrammarProfile(
        language=raw["language"],
        line_comment=raw.get("line_comment"),
        block_comment=tuple(block) if block else None,
        string_delimiters=tuple(raw.get("string_delimiters", [])),
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


def profile_for_extension(path: str, grammar_dir: str | Path | None = None) -> GrammarProfile | None:
    """Best-effort profile lookup by file extension; None when unsupported."""
    suffix = Path(path).suffix.lower()
    language = {".java": "java", ".swift": "swift"}.get(suffix)
    if language is None:
        return None
    return load_grammar(language, grammar_dir)
