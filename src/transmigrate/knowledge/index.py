"""Exact (flat) cosine-similarity index.

An index is built whole, from its chunks and one ``(entries, dimension)``
matrix holding their vectors, row i the vector of chunk i: ``build_index``
embeds every chunk in one ``embed`` call and ``load`` fills a matrix
allocated from the header's entry count. Entries never change afterwards.
Query results are the exact top-k by cosine score with ties broken by
chunk id ascending, so retrieval is reproducible and, for any k1 < k2,
query(k1) is a prefix of query(k2). For tie-breaking, scores compare at
1e-12 granularity: mathematically equal cosines can differ in the last
float ulp depending on summation order, and quantizing the comparison
keeps the id tie-break authoritative regardless of the evaluation path.
The ranking key of an entry is exactly ``(-round(score, 12), chunk_id)``.

Retrieval runs over blocks of query texts (``query_many``; ``query`` is a
one-text call of it). A block holds as many texts as keep its score
matrix near ``_BLOCK_CELLS`` (65,536) cells, texts times entries, at
least one text: 68 texts against 953 entries, 5 against 12,038, so peak
memory stays flat as the project grows. Each block makes one ``embed``
call and one ``vectors @ matrix.T`` product. A many-row
product does not sum in the order of a one-vector product, so a score
can differ from ``matrix @ v`` in its last bits, and the difference
depends on the block's row count (a one-row block is bitwise equal to
``matrix @ v``). Those are the evaluation-path ulps the key's rounding
absorbs: a difference survives ``round(score, 12)`` only where a score
lies within an ulp of a rounding half-point. On the benchmark's
``large-project`` seed 1 (2,521 texts against 953 entries, one OpenBLAS
thread), 15,911 of the 2,402,513 score cells differ from the one-vector
product in their last bits and none after rounding, and the output trees
of every workload are byte-identical to those of one query per text.

A query does not sort every entry. With ``t`` the k-th largest raw score
of a row (``np.partition`` along the rows), the row's candidates are the
entries scoring at least ``t - 2e-12``. Every member of the true top-k
is a candidate: at least k entries score ``>= t``, and ``round`` is
monotone, so a member has ``round(s, 12) >= round(t, 12)``, and
``round`` moves a value by at most 0.5e-12. Only the candidates get the
exact key, found for the whole block at once (``np.nonzero``): ``round``
runs once per distinct candidate score of the block, and one
``np.lexsort`` by (row, ``-round(score, 12)``, id rank) orders every
candidate, the first k of each row being its result. The id rank is
computed once per index: the rank of each entry's id, insertion order
among equal ids, as a stable sort gives. A query that shares no token
with most chunks makes every zero score a candidate; that case stays in
numpy too, at most one block of cells. Ties, prefix order and the
returned scores are those of a full sort by the key: the selection
changes neither the tie rule nor the file format.

Persistence is line-delimited JSON: a header line with the dimension and
entry count, then one ``{"id": ..., "v": [...]}`` line per entry. Chunks
are stored beside the index in line-delimited JSON. Each file is written
to a temporary file and renamed over its path. A line that does not
parse, or an id with no saved chunk, is an IntegrityError naming the file
and line.

``save`` writes the bytes ``json.dumps({"id": id, "v": [floats]})`` gives,
but formats a block of rows at a time, about 65,536 cells, so the writer's
memory stays small for dense vectors too. A cell whose bits are 0 (positive
zero, most cells of a count vector) is written as ``0.0`` without sorting.
The other cells of the block are formatted once per distinct float64 bit
pattern (``np.unique`` on the bits), with ``float.__repr__``, the encoder's
text for a finite float, or ``json.dumps`` when the block holds NaN or an
infinity. The key is the bits, not the float: the float would merge
``-0.0`` with ``0.0``. Each row is then joined from an object array of
those texts; the id goes through ``json.dumps``.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from transmigrate.errors import ArgumentError, IntegrityError
from transmigrate.knowledge.chunks import DocumentChunk

# A top-k member scores at least t - 1e-12 (two roundings of at most
# 0.5e-12 each); the margin doubles that to cover float error.
_CANDIDATE_MARGIN = 2e-12

# Cells per block of rows: of the matrix ``save`` formats, and of the score
# matrix ``query_many`` selects from.
_BLOCK_CELLS = 65_536


@dataclass(slots=True)
class RetrievalResult:
    chunk: DocumentChunk
    score: float


class VectorIndex:
    def __init__(self, chunks: list[DocumentChunk], matrix: np.ndarray) -> None:
        """An index over ``chunks``; row i of ``matrix`` is the vector of
        chunk i. A chunk id given twice maps to its last chunk."""
        if matrix.ndim != 2 or matrix.shape[0] != len(chunks):
            raise IntegrityError(f"index matrix of shape {matrix.shape} does not hold {len(chunks)} rows")
        self.dimension = int(matrix.shape[1])
        self._ids = [c.chunk_id for c in chunks]
        self._chunks = dict(zip(self._ids, chunks))
        self._matrix = np.ascontiguousarray(matrix, dtype=np.float64)
        # sorted() is stable, so equal ids keep their insertion order.
        by_id = sorted(range(len(self._ids)), key=self._ids.__getitem__)
        self._id_rank = np.empty(len(by_id), dtype=np.intp)
        self._id_rank[by_id] = np.arange(len(by_id))

    def __len__(self) -> int:
        return len(self._ids)

    def scores(self, vectors: np.ndarray) -> np.ndarray:
        """One row of cosine scores per row of ``vectors``, one column per
        entry."""
        return vectors @ self._matrix.T

    def chunk(self, chunk_id: str) -> DocumentChunk:
        return self._chunks[chunk_id]

    def top_k(self, scores: np.ndarray, k: int) -> list[list[tuple[str, float]]]:
        """For each row of ``scores``, (id, score) of its k best entries
        under ``(-round(s, 12), id)``, best first; see the module docstring."""
        n = scores.shape[1]
        if k < n:
            kth = np.partition(scores, n - k, axis=1)[:, n - k]
            rows, cols = np.nonzero(scores >= (kth - _CANDIDATE_MARGIN)[:, None])
        else:
            rows, cols = (axis.ravel() for axis in np.indices(scores.shape))
        values = scores[rows, cols]
        distinct, inverse = np.unique(values, return_inverse=True)
        rounded = np.array([round(float(v), 12) for v in distinct])[inverse]
        order = np.lexsort((self._id_rank[cols], -rounded, rows))
        rows, cols, values = rows[order], cols[order], values[order]
        # Sorted by row first: row r's candidates start at the count of the
        # rows before it, and its result is the first k of them.
        counts = np.bincount(rows, minlength=len(scores))
        kept = np.arange(len(rows)) - (np.cumsum(counts) - counts)[rows] < k
        best: list[list[tuple[str, float]]] = [[] for _ in range(len(scores))]
        for row, col, value in zip(rows[kept].tolist(), cols[kept].tolist(), values[kept].tolist()):
            best[row].append((self._ids[col], value))
        return best

    # ---- persistence ----

    def save(self, index_path: str | Path, chunks_path: str | Path) -> None:
        """Write both files, each whole or not at all."""
        rows = max(1, _BLOCK_CELLS // max(self.dimension, 1))
        with _replacing(index_path) as fh:
            fh.write(json.dumps({"dimension": self.dimension, "entries": len(self._ids)}) + "\n")
            for start in range(0, len(self._ids), rows):
                fh.write(_rows_text(self._ids[start : start + rows], self._matrix[start : start + rows]))
        encode = json.JSONEncoder(sort_keys=True).encode
        with _replacing(chunks_path) as fh:
            for cid in self._ids:
                c = self._chunks[cid]
                fh.write(
                    encode(
                        {
                            "source_uri": c.source_uri,
                            "kind": c.kind,
                            "text": c.text,
                            "metadata": c.metadata,
                            "ordinal": c.ordinal,
                        }
                    )
                    + "\n"
                )

    @classmethod
    def load(cls, index_path: str | Path, chunks_path: str | Path) -> "VectorIndex":
        index_path = Path(index_path)
        chunks_path = Path(chunks_path)
        by_id = {}
        for lineno, rec in _jsonl_records(chunks_path):
            try:
                chunk = DocumentChunk(**rec)
            except TypeError as exc:
                raise IntegrityError(f"{chunks_path}:{lineno}: corrupt chunk: {exc}") from exc
            by_id[chunk.chunk_id] = chunk
        records = _jsonl_records(index_path)
        lineno, header = next(records, (1, {}))
        if "dimension" not in header or "entries" not in header:
            raise IntegrityError(f"{index_path}:{lineno}: index header has no dimension and entry count")
        try:
            dimension, entries = int(header["dimension"]), int(header["entries"])
        except (TypeError, ValueError) as exc:
            raise IntegrityError(f"{index_path}:{lineno}: corrupt index header: {exc}") from exc
        # Every cell takes more than one byte, so a header promising more
        # cells than the file has bytes is corrupt: it gets no matrix, and
        # the entry count check below reports it.
        fits = 0 <= entries and entries * max(dimension, 1) <= index_path.stat().st_size
        matrix = np.empty((entries if fits else 0, max(dimension, 0)))
        chunks: list[DocumentChunk] = []
        for lineno, rec in records:
            chunk = by_id.get(rec.get("id"))
            if chunk is None:
                raise IntegrityError(f"{index_path}:{lineno}: id {rec.get('id')!r} has no chunk in {chunks_path}")
            try:
                values = np.asarray(rec["v"], dtype=np.float64)
            except (KeyError, TypeError, ValueError) as exc:
                raise IntegrityError(f"{index_path}:{lineno}: corrupt vector: {exc!r}") from exc
            if values.shape != (dimension,):
                raise IntegrityError(f"vector dimension {values.size} does not match index dimension {dimension}")
            if len(chunks) < len(matrix):
                matrix[len(chunks)] = values
            chunks.append(chunk)
        if len(chunks) != entries:
            raise IntegrityError(
                f"index file corrupt: header says {header['entries']} entries, found {len(chunks)}"
            )
        return cls(chunks, matrix)


@contextmanager
def _replacing(path: str | Path):
    """A text file to write in place of ``path``: a temporary file beside it
    that ``os.replace`` moves over it once the block completes, so a kill
    mid-write leaves the previous version, never half a file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp")
    with tmp.open("w", encoding="utf-8") as fh:
        yield fh
    os.replace(tmp, path)


def _rows_text(ids: list[str], block: np.ndarray) -> str:
    """The entry lines of ``ids`` and their rows of the matrix, as
    ``json.dumps`` writes them; see the module docstring."""
    bits = block.view(np.int64).ravel()
    nonzero = np.flatnonzero(bits)
    distinct, where = np.unique(bits[nonzero], return_inverse=True)
    values = distinct.view(np.float64)
    fmt = float.__repr__ if np.isfinite(values).all() else json.dumps
    # Text i + 1 is that of distinct pattern i; text 0 is positive zero's.
    texts = np.array(["0.0", *map(fmt, values.tolist())], dtype=object)
    cells = np.zeros(len(bits), dtype=np.intp)
    cells[nonzero] = where + 1
    return "".join(
        '{"id": ' + json.dumps(cid) + ', "v": [' + ", ".join(row) + "]}\n"
        for cid, row in zip(ids, texts[cells].reshape(block.shape).tolist())
    )


def _jsonl_records(path: Path):
    """(line number, object) for each non-blank line; a line that is not a
    JSON object is an IntegrityError naming the file and line."""
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise IntegrityError(f"{path}:{lineno}: corrupt line: {exc}") from exc
            if not isinstance(rec, dict):
                raise IntegrityError(f"{path}:{lineno}: corrupt line: not a JSON object")
            yield lineno, rec


def build_index(chunks: list[DocumentChunk], embedder) -> VectorIndex:
    """Embed every chunk, in one ``embed`` call, and return the index."""
    return VectorIndex(chunks, embedder.embed([c.text for c in chunks]))


def query_many(index: VectorIndex, texts: list[str], k: int, embedder) -> list[list[RetrievalResult]]:
    """The exact top-k by cosine similarity of each text, in the order of
    ``texts``; ties broken by chunk id ascending. Texts are embedded and
    scored a block at a time; see the module docstring."""
    if k <= 0:
        raise ArgumentError(f"k must be positive, got {k}")
    if len(index) == 0:
        return [[] for _ in texts]
    rows = max(1, _BLOCK_CELLS // len(index))
    results: list[list[RetrievalResult]] = []
    for start in range(0, len(texts), rows):
        vectors = embedder.embed(texts[start : start + rows])
        if vectors.shape[1] != index.dimension:
            raise IntegrityError(
                f"query dimension {vectors.shape[1]} does not match index dimension {index.dimension}"
            )
        for best in index.top_k(index.scores(vectors), k):
            results.append([RetrievalResult(chunk=index.chunk(cid), score=s) for cid, s in best])
    return results


def query(index: VectorIndex, text: str, k: int, embedder) -> list[RetrievalResult]:
    """Exact top-k by cosine similarity; ties broken by chunk id ascending."""
    return query_many(index, [text], k, embedder)[0]
