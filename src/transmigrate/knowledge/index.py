"""Exact (flat) cosine-similarity index.

An index is built whole, from its chunks, kept in one list in row order,
and their vectors, vector i belonging to chunk i, and never changes
afterwards; a query result carries its row's chunk. Query results are the
exact top-k by cosine score with ties broken by chunk id ascending, so
retrieval is reproducible and, for any k1 < k2, query(k1) is a prefix of
query(k2). For tie-breaking, scores compare at 1e-12 granularity:
mathematically equal cosines can differ in the last float ulp depending on
summation order, and quantizing the comparison keeps the id tie-break
authoritative regardless of the evaluation path. The ranking key of an
entry is exactly ``(-round(score, 12), chunk_id)``.

Storage. The vectors are kept as bucket-major postings, never as one dense
matrix: a hashed count vector has few nonzero cells (about a quarter of
them on a 256-bucket index of 1,000-character chunks), and a posting takes
12 bytes where a dense row takes 8 per cell. The entries are cut into row
blocks of ``_BLOCK_CELLS // dimension`` rows (256 at the default dimension
of 256). Two arrays hold, row block after row block and, within a block,
bucket after bucket, the ascending int32 rows whose cell bits are nonzero
and those cells' float64 values; a small table holds where each bucket of
each block starts. Zero is positive zero only, so -0.0, NaN and every
other stored bit pattern survive. ``build_index`` embeds one row block at
a time and ``load`` parses one row block of lines at a time, each
appending it to the two arrays, which grow in place, so neither holds more
than one block of dense cells or a second copy of the postings.

Scoring. The score of an entry for a query vector is the sum, over the
buckets where both are nonzero, in ascending bucket order, of query cell
times entry cell, starting from 0.0. One ``np.bincount`` adds the products
of a block of texts, each text's buckets in ascending order, and bincount
adds its weights in input order. A cell's sum thus depends only on its
own text and entry, never on which texts share its block, how many texts
a block holds or how many threads BLAS runs (no BLAS is called): a text's
scores in ``query_many`` are bitwise the scores of a one-text ``query``.
A block whose products pass ``_BLOCK_CELLS`` is summed in groups, each of
whole (text, row block) units; a unit's products fall on its own cells
only, so the sums stay the same, and a dense remote vector against a dense
index costs at most about two row blocks of products at a time. For
finite vectors the scores equal the dense product ``vectors @ matrix.T``
up to summation order, within 1e-12 for unit vectors.

Retrieval runs over blocks of query texts (``query_many``; ``query`` is a
one-text call of it). A block holds as many texts as keep its score cells
(texts times entries) and its query cells (texts times dimension) within
``_BLOCK_CELLS``, at least one text: 68 texts against 953 entries, 5
against 12,038, so peak memory stays flat as the project grows. Each
block makes one ``embed`` call, of at most one row block of cells.

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
entry count, then one ``{"id": ..., "v": [...]}`` line per entry, and
beside it one line per chunk. The files pair by row: entry line i holds
the id and vector of chunk line i, and ``load`` reads the two together.
Each file is written to a temporary file and renamed over its path. A
line that does not parse, an id that is not its chunk line's, a chunk
line missing or left over, or a NaN or infinite cell is an IntegrityError
naming the file and line.

``save`` writes the bytes ``json.dumps({"id": id, "v": [floats]})`` gives,
one row block at a time: the block's dense rows are rebuilt from its
postings (every other cell positive zero) and formatted by ``_rows_text``.
A cell whose bits are 0 is written as ``0.0`` without sorting. The other
cells of the block are formatted once per distinct float64 bit pattern
(``np.unique`` on the bits), with ``float.__repr__``, the encoder's text
for a finite float, or ``json.dumps`` when the block holds NaN or an
infinity. The key is the bits, not the float: the float would merge
``-0.0`` with ``0.0``. Each row is then joined from an object array of
those texts; the id goes through ``json.dumps``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from transmigrate.artifacts import replacing
from transmigrate.errors import ArgumentError, IntegrityError
from transmigrate.knowledge.chunks import DocumentChunk

# A top-k member scores at least t - 1e-12 (two roundings of at most
# 0.5e-12 each); the margin doubles that to cover float error.
_CANDIDATE_MARGIN = 2e-12

# Cells per block: of the dense rows ``build_index`` embeds, ``load`` parses
# and ``save`` formats at a time (one row block), of the score and query
# cells of a ``query_many`` block, and of the products one bincount adds.
_BLOCK_CELLS = 65_536


@dataclass(slots=True)
class RetrievalResult:
    chunk: DocumentChunk
    score: float


class VectorIndex:
    def __init__(self, chunks: list[DocumentChunk], dimension: int, postings) -> None:
        """An index over ``chunks``, whose vectors ``postings`` holds, row i
        the vector of chunk i: what ``_postings`` returns for row blocks of
        ``_block_rows(dimension)`` rows."""
        self.dimension = dimension
        self._rows, self._values, self._starts = postings
        self._chunks = chunks
        # sorted() is stable, so equal ids keep their insertion order.
        by_id = sorted(range(len(chunks)), key=lambda row: chunks[row].chunk_id)
        self._id_rank = np.empty(len(by_id), dtype=np.intp)
        self._id_rank[by_id] = np.arange(len(by_id))

    def __len__(self) -> int:
        return len(self._chunks)

    def scores(self, vectors: np.ndarray) -> np.ndarray:
        """One row of cosine scores per row of ``vectors``, one column per
        entry, each summed in ascending bucket order; see the module
        docstring."""
        count, entries = len(vectors), len(self._chunks)
        texts, buckets = np.nonzero(vectors)  # by text, then by bucket
        # One segment per row block and (text, bucket) pair, block after
        # block: the postings of that bucket in that block.
        blocks = len(self._starts)
        first = self._starts[:, buckets].ravel()
        lengths = self._starts[:, buckets + 1].ravel() - first
        ends = np.cumsum(lengths)
        if not ends.size or not ends[-1]:  # no query cell meets a stored one
            return np.zeros((count, entries))
        owners = np.tile(texts * entries, blocks)  # each segment's text's first score cell
        weights = np.tile(vectors[texts, buckets], blocks)
        cuts = [0, len(owners)] if ends[-1] <= _BLOCK_CELLS else _group_cuts(texts, blocks, ends - lengths)
        out = None
        for lo, hi in zip(cuts, cuts[1:]):
            size = lengths[lo:hi]
            done = ends[lo] - size[0]
            # Product j of segment i reads posting first[i] + j.
            take = np.arange(ends[hi - 1] - done) + np.repeat(first[lo:hi] - (ends[lo:hi] - size - done), size)
            cells = np.repeat(owners[lo:hi], size) + self._rows[take]
            products = np.repeat(weights[lo:hi], size) * self._values[take]
            sums = np.bincount(cells, weights=products, minlength=count * entries)
            # Each cell takes its whole sum from one group and 0.0 from the
            # others, which keeps it: a bincount sum is never -0.0.
            out = sums if out is None else np.add(out, sums, out=out)
        return out.reshape(count, entries)

    def top_k(self, scores: np.ndarray, k: int) -> list[list[tuple[DocumentChunk, float]]]:
        """For each row of ``scores``, (chunk, score) of its k best entries
        under ``(-round(s, 12), id)``, best first; see the module docstring."""
        n = scores.shape[1]
        k = min(k, n)
        kth = np.partition(scores, n - k, axis=1)[:, n - k]
        rows, cols = np.nonzero(scores >= (kth - _CANDIDATE_MARGIN)[:, None])
        values = scores[rows, cols]
        distinct, inverse = np.unique(values, return_inverse=True)
        rounded = np.array([round(float(v), 12) for v in distinct])[inverse]
        order = np.lexsort((self._id_rank[cols], -rounded, rows))
        rows, cols, values = rows[order], cols[order], values[order]
        # Sorted by row first: row r's candidates start at the count of the
        # rows before it, and its result is the first k of them.
        counts = np.bincount(rows, minlength=len(scores))
        kept = np.arange(len(rows)) - (np.cumsum(counts) - counts)[rows] < k
        best: list[list[tuple[DocumentChunk, float]]] = [[] for _ in range(len(scores))]
        for row, col, value in zip(rows[kept].tolist(), cols[kept].tolist(), values[kept].tolist()):
            best[row].append((self._chunks[col], value))
        return best

    # ---- persistence ----

    def save(self, index_path: str | Path, chunks_path: str | Path) -> None:
        """Write both files, each whole or not at all."""
        rows = _block_rows(self.dimension)
        with replacing(index_path) as fh:
            fh.write(json.dumps({"dimension": self.dimension, "entries": len(self._chunks)}) + "\n")
            # Each row block's dense rows, rebuilt from its postings.
            for start, starts in zip(range(0, len(self._chunks), rows), self._starts):
                chunks = self._chunks[start : start + rows]
                block = np.zeros((len(chunks), self.dimension))
                cells = slice(starts[0], starts[-1])
                block[self._rows[cells] - start, np.repeat(np.arange(self.dimension), np.diff(starts))] = self._values[cells]
                fh.write(_rows_text([c.chunk_id for c in chunks], block))
        encode = json.JSONEncoder(sort_keys=True).encode
        with replacing(chunks_path) as fh:
            for c in self._chunks:
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
        records = _jsonl_records(index_path)
        lineno, header = next(records, (1, {}))
        if "dimension" not in header or "entries" not in header:
            raise IntegrityError(f"{index_path}:{lineno}: index header has no dimension and entry count")
        try:
            dimension, entries = int(header["dimension"]), int(header["entries"])
        except (TypeError, ValueError) as exc:
            raise IntegrityError(f"{index_path}:{lineno}: corrupt index header: {exc}") from exc
        rows = _block_rows(dimension)
        chunk_records = _jsonl_records(chunks_path)
        chunks: list[DocumentChunk] = []

        def blocks():
            block, filled = None, 0
            for lineno, rec in records:
                chunk_lineno, chunk_rec = next(chunk_records, (None, None))
                try:
                    chunk = None if chunk_rec is None else DocumentChunk(**chunk_rec)
                except TypeError as exc:
                    raise IntegrityError(f"{chunks_path}:{chunk_lineno}: corrupt chunk: {exc}") from exc
                if chunk is None or chunk.chunk_id != rec.get("id"):
                    found = "ends before it" if chunk is None else f"line {chunk_lineno} holds {chunk.chunk_id!r}"
                    raise IntegrityError(f"{index_path}:{lineno}: id {rec.get('id')!r} has no chunk: {chunks_path} {found}")
                try:
                    values = np.asarray(rec["v"], dtype=np.float64)
                except (KeyError, TypeError, ValueError) as exc:
                    raise IntegrityError(f"{index_path}:{lineno}: corrupt vector: {exc!r}") from exc
                if values.shape != (dimension,):
                    raise IntegrityError(
                        f"vector dimension {values.size} does not match index dimension {dimension}"
                    )
                chunks.append(chunk)
                if block is None:  # allocated once a line has shown the dimension
                    block = np.empty((rows, dimension))
                block[filled] = values
                filled += 1
                if filled == rows:
                    yield block
                    filled = 0
            if filled:
                yield block[:filled]

        postings = _postings(dimension, blocks())
        if (left_over := next(chunk_records, None)) is not None:
            raise IntegrityError(f"{chunks_path}:{left_over[0]}: chunk line has no entry in {index_path}")
        if len(chunks) != entries:
            raise IntegrityError(
                f"index file corrupt: header says {header['entries']} entries, found {len(chunks)}"
            )
        # json.loads reads the NaN and Infinity literals, and one such cell
        # would make every score it touches NaN or infinite.
        if (bad := np.flatnonzero(~np.isfinite(postings[1]))).size:
            lineno, _ = next(islice(_jsonl_records(index_path), postings[0][bad].min() + 1, None))
            raise IntegrityError(f"{index_path}:{lineno}: vector cell is not a finite number")
        return cls(chunks, dimension, postings)


def _block_rows(dimension: int) -> int:
    """Rows per row block: about ``_BLOCK_CELLS`` cells, at least one row."""
    return max(1, _BLOCK_CELLS // max(dimension, 1))


def _postings(dimension: int, blocks) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The postings of the row blocks of dense rows that ``blocks`` yields,
    in order: ``rows`` (int32) and ``values`` hold, block after block and,
    within a block, bucket after bucket, the ascending rows whose cell bits
    are nonzero and those cells; block k's cells of a bucket start at
    ``starts[k, bucket]`` and the block's end at ``starts[k, dimension]``."""
    rows, values = np.empty(0, dtype=np.int32), np.empty(0)
    starts, size, first_row = [], 0, 0
    for block in blocks:
        cells = block.T
        buckets, at = np.nonzero(cells.view(np.int64))
        end = size + len(at)
        if end > len(rows):
            # Doubled in place (realloc): no list of block arrays and no
            # final concatenation holds the postings twice.
            rows.resize(max(end, 2 * len(rows)), refcheck=False)
            values.resize(len(rows), refcheck=False)
        rows[size:end] = at + first_row
        values[size:end] = cells[buckets, at]
        starts.append(size + np.searchsorted(buckets, np.arange(dimension + 1)))
        size, first_row = end, first_row + len(block)
    rows.resize(size, refcheck=False)
    values.resize(size, refcheck=False)
    return rows, values, np.array(starts, dtype=np.intp).reshape(len(starts), dimension + 1)


def _group_cuts(texts: np.ndarray, blocks: int, before: np.ndarray) -> list[int]:
    """Where ``scores`` cuts its segments (block after block, each block's
    in (text, bucket) order; ``before[i]`` products precede segment i) into
    groups of whole units. A unit, one text's segments in one row block,
    adds at most one row block of products, all to its own cells. A group
    starts at the first unit past the next multiple of ``_BLOCK_CELLS``
    products, so it holds at most one unit more than that."""
    text_starts = np.flatnonzero(np.diff(texts, prepend=-1))
    units = (np.arange(blocks)[:, None] * len(texts) + text_starts).ravel()
    group = before[units] // _BLOCK_CELLS
    return [*units[np.flatnonzero(np.diff(group, prepend=-1))].tolist(), len(before)]


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
    """Embed the chunks one row block at a time, one ``embed`` call each,
    and return the index."""
    dimension = embedder.dimension
    rows = _block_rows(dimension)

    def blocks():
        for start in range(0, len(chunks), rows):
            texts = [c.text for c in chunks[start : start + rows]]
            vectors = np.asarray(embedder.embed(texts), dtype=np.float64)
            if vectors.shape != (len(texts), dimension):
                raise IntegrityError(
                    f"embedding of shape {vectors.shape} does not hold {len(texts)} rows of dimension {dimension}"
                )
            yield vectors

    return VectorIndex(chunks, dimension, _postings(dimension, blocks()))


def query_many(index: VectorIndex, texts: list[str], k: int, embedder) -> list[list[RetrievalResult]]:
    """The exact top-k by cosine similarity of each text, in the order of
    ``texts``; ties broken by chunk id ascending. Texts are embedded and
    scored a block at a time; see the module docstring."""
    if k <= 0:
        raise ArgumentError(f"k must be positive, got {k}")
    if len(index) == 0:
        return [[] for _ in texts]
    rows = max(1, _BLOCK_CELLS // max(len(index), index.dimension))
    results: list[list[RetrievalResult]] = []
    for start in range(0, len(texts), rows):
        vectors = embedder.embed(texts[start : start + rows])
        if vectors.shape[1] != index.dimension:
            raise IntegrityError(
                f"query dimension {vectors.shape[1]} does not match index dimension {index.dimension}"
            )
        for best in index.top_k(index.scores(vectors), k):
            results.append([RetrievalResult(chunk, score) for chunk, score in best])
    return results


def query(index: VectorIndex, text: str, k: int, embedder) -> list[RetrievalResult]:
    """Exact top-k by cosine similarity; ties broken by chunk id ascending."""
    return query_many(index, [text], k, embedder)[0]
