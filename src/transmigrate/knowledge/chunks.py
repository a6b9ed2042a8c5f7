"""Repository ingestion and text chunking.

Text is split into chunks of at most 1,000 characters with a 100-character
overlap between consecutive chunks. Chunk ids are ``<source_uri>#<ordinal>``
and therefore stable across runs, which makes ingestion idempotent and
retrieval tie-breaks deterministic.

Source files contribute their comments. A file the caller has already
parsed gives its comment tokens from that parse (``Ast.comments``) when
the parse read the same text: ``SourceFile.read`` translates newlines,
and ingest decodes the raw bytes, so a file with a carriage return is
lexed again, as is a source file with no parse (a ``.swift`` file).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path

from transmigrate.sourcemodel import lexer
from transmigrate.sourcemodel.grammar import LANGUAGE_BY_SUFFIX, GrammarProfile, profile_for_extension
from transmigrate.sourcemodel.parser import Ast

logger = logging.getLogger(__name__)

CHUNK_SIZE = 1000
CHUNK_OVERLAP = 100

_DOC_SUFFIXES = {".md", ".rst", ".txt", ".adoc", ".html", ".htm"}


@dataclass
class DocumentChunk:
    source_uri: str
    kind: str
    text: str
    metadata: dict[str, str] = field(default_factory=dict)
    ordinal: int = 0

    @property
    def chunk_id(self) -> str:
        return f"{self.source_uri}#{self.ordinal}"


def chunk_text(source_uri: str, kind: str, text: str, metadata: dict[str, str]) -> list[DocumentChunk]:
    """Split normalized text into overlapping chunks, each with its own copy
    of ``metadata``; empty text yields none."""
    normalized = text.strip()
    if not normalized:
        return []
    if len(normalized) <= CHUNK_SIZE:
        return [DocumentChunk(source_uri, kind, normalized, dict(metadata), 0)]
    stride = CHUNK_SIZE - CHUNK_OVERLAP
    chunks = []
    ordinal = 0
    pos = 0
    while pos < len(normalized) - CHUNK_OVERLAP:
        piece = normalized[pos : pos + CHUNK_SIZE]
        chunks.append(DocumentChunk(source_uri, kind, piece, dict(metadata), ordinal))
        ordinal += 1
        pos += stride
    return chunks


def infer_kind(rel_path: str) -> str | None:
    """Document kind from path conventions; None means "not ingestible"."""
    p = Path(rel_path)
    name = p.name.lower()
    parts = {part.lower() for part in p.parts[:-1]}
    if name.startswith("readme"):
        return "readme"
    if p.suffix.lower() in LANGUAGE_BY_SUFFIX:
        return "code_comment"
    if parts & {"pulls", "pull_requests", "prs"} or "pull_request" in name:
        return "pull_request"
    if parts & {"issues"} or name.startswith("issue"):
        return "issue"
    if p.suffix.lower() in _DOC_SUFFIXES:
        return "api_doc"
    return None


def ingest_repository(root: str | Path, files: list[str], asts: dict[str, Ast]) -> list[DocumentChunk]:
    """Chunk every ingestible text file of ``files`` (root-relative POSIX
    paths, as ``pipeline.hash_source_tree`` lists them), in that order; no
    directory is walked. Binary files are skipped with a logged notice,
    never an error. Source files contribute their comments (kind
    ``code_comment``), lexed with their language's grammar; a file whose
    parse in ``asts`` (by root-relative path) read the same text takes the
    comment tokens of that parse instead."""
    root = Path(root)
    chunks: list[DocumentChunk] = []
    for rel in files:
        kind = infer_kind(rel)
        if kind is None:
            continue
        try:
            raw = (root / rel).read_bytes()
        except OSError as exc:
            logger.warning("skipping unreadable file %s: %s", rel, exc)
            continue
        if b"\0" in raw[:8192]:
            logger.info("skipping binary file %s", rel)
            continue
        text = raw.decode("utf-8", errors="replace")
        if kind == "code_comment":
            profile = profile_for_extension(rel)
            if profile is None:
                continue
            ast = asts.get(rel)
            if ast is not None and ast.source.text == text:
                data, comments = ast.source.data, ast.comments
            else:
                data = text.encode("utf-8")
                comments = [t for t in lexer.tokenize(data, profile) if t.kind == lexer.COMMENT]
            for i, comment in enumerate(_comment_blocks(comments, data, profile)):
                chunks.extend(
                    chunk_text(f"{rel}:comment{i}", "code_comment", comment, {"path": rel})
                )
        else:
            chunks.extend(chunk_text(rel, kind, text, {"path": rel}))
    return chunks


def _comment_blocks(comments: list[lexer.Token], data: bytes, profile: GrammarProfile) -> list[str]:
    """Comment blocks of a source file from its comment tokens, in order;
    line comments on consecutive lines merge into one block."""
    line_marker = profile.line_comment
    blocks: list[str] = []
    run: list[str] = []
    prev_line: int | None = None
    line, counted_to = 1, 0  # line number at byte offset ``counted_to``

    def flush_run() -> None:
        if run:
            blocks.append("\n".join(run))
            run.clear()

    for tok in comments:
        stripped = _strip_comment_markers(tok.text, profile)
        if line_marker is not None and tok.text.startswith(line_marker):
            line += data.count(b"\n", counted_to, tok.start)
            counted_to = tok.start
            if not (run and prev_line is not None and line == prev_line + 1):
                flush_run()
            run.append(stripped)
            prev_line = line
        else:
            flush_run()
            prev_line = None
            blocks.append(stripped)
    flush_run()
    return [b.strip() for b in blocks if b.strip()]


def _strip_comment_markers(text: str, profile) -> str:
    out = text
    if profile.block_comment:
        opener, closer = profile.block_comment
        if out.startswith(opener):
            out = out[len(opener):]
            if out.endswith(closer):
                out = out[: -len(closer)]
            lines = [ln.strip().lstrip("*").strip() for ln in out.splitlines()]
            return "\n".join(ln for ln in lines if ln)
    if profile.line_comment and out.startswith(profile.line_comment):
        out = out[len(profile.line_comment):]
    return out.strip()
