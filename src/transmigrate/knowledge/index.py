"""Exact (flat) cosine-similarity index.

An index is built once, from a stream of chunks, and never changes
afterwards: entry i is the i-th chunk, its id and its vector. Query
results are the exact top-k by cosine score with ties broken by chunk id
ascending, so retrieval is reproducible and, for any k1 < k2, query(k1) is
a prefix of query(k2). For tie-breaking, scores compare at 1e-12
granularity: mathematically equal cosines can differ in the last float ulp
depending on summation order, and quantizing the comparison keeps the id
tie-break authoritative regardless of the evaluation path. The ranking key
of an entry is exactly ``(-round(score, 12), chunk_id)``.

Storage. An index holds its vectors, its ids in row order, the rank of
each id, and one byte offset per entry: where the entry's chunk line
starts in its chunks file. It holds no chunk and no chunk text: a query
result's chunk is built from its line when a query returns it
(``chunks``). The vectors are kept as bucket-major postings, never as
one dense matrix: a hashed count vector has few nonzero cells (about a
quarter of them on a 256-bucket index of 1,000-character chunks), and a
posting takes 12 bytes where a dense row takes 8 per cell. The entries
are cut into row blocks of ``_BLOCK_CELLS // dimension`` rows (256 at
the default dimension of 256). Two arrays hold, row block after row
block and, within a block, bucket after bucket, the ascending int32 rows
whose cell bits are nonzero and those cells' float64 values; a small
table holds where each bucket of each block starts. Zero is positive
zero only, so -0.0, NaN and every other stored bit pattern survive.
``build_index`` takes one row block of chunks at a time from its stream:
it embeds their texts, appends the postings, writes their chunk lines,
records the lines' offsets and drops the chunks. ``load`` parses one row
block of lines at a time. Both append each block to the two arrays,
which grow in place, so neither holds more than one block of dense cells
or of chunks, or a second copy of the postings.

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

Persistence is line-delimited JSON, in the bytes ``compact_json`` gives
(``transmigrate.artifacts``): a header line with the dimension and entry
count, then one ``{"id":...,"v":[...]}`` line per entry, and beside it
one line per chunk, its fields. The encoder escapes every non-ASCII
character, so a block's lines are encoded to bytes once and their
offsets are the running sum of their lengths. The files pair by row:
entry line i holds the id and vector of chunk line i. ``build_index``
writes the chunk lines to the temporary file beside the chunks path it
is given; ``save``, of a built index only, writes ``index.jsonl`` to its
own temporary file, then renames both over their paths, index first. A
kill before both renames leaves at most a ``.tmp`` file that the index
stage removes, or a pair that ``load`` checks. ``load`` reads the two
files together, each through ``read_lines``: a line that does not parse,
a chunk line that holds no chunk or another id than its entry, a chunk
line missing or left over, a vector of another dimension than the
header's, an entry count other than the header's (named at the header
line), or a NaN or infinite cell is a corrupt artifact naming the file
and line. It keeps each chunk line's offset and no chunk. ``chunks``
reads the lines of the rows one ``query_many`` call returns in one pass,
in file order; a line that no longer holds its row's chunk (the file was
edited after the index was read) is a corrupt artifact naming the file
and line.

``save`` writes the bytes ``compact_json({"id": id, "v": [floats]})``
gives, one row block at a time: the block's dense rows are rebuilt from
its postings (every other cell positive zero) and formatted by
``_rows_text``. A cell whose bits are 0 is written as ``0.0`` without
sorting. The other cells of the block are formatted once per distinct
float64 bit pattern (``np.unique`` on the bits), with ``float.__repr__``,
the encoder's text for a finite float, or ``compact_json`` when the block
holds NaN or an infinity. The key is the bits, not the float: the float
would merge ``-0.0`` with ``0.0``. Each row is then joined from an object
array of those texts; the id goes through ``compact_json``.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from transmigrate.artifacts import compact_json, corrupt, read_lines, replacing, temporary
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
    def __init__(self, ids: list[str], offsets: np.ndarray, dimension: int, postings, lines: Path) -> None:
        """An index over the chunks whose ids ``ids`` holds in row order,
        row i the chunk whose line starts at byte ``offsets[i]`` of the
        chunks file ``lines``, whose vectors ``postings`` holds, row i the
        vector of chunk i: what ``_postings`` returns for row blocks of
        ``_block_rows(dimension)`` rows."""
        self.dimension = dimension
        self._rows, self._values, self._starts = postings
        self._ids = ids
        self._offsets = offsets
        self._lines = lines
        # sorted() is stable, so equal ids keep their insertion order.
        by_id = sorted(range(len(ids)), key=ids.__getitem__)
        self._id_rank = np.empty(len(by_id), dtype=np.intp)
        self._id_rank[by_id] = np.arange(len(by_id))

    def __len__(self) -> int:
        return len(self._ids)

    def scores(self, vectors: np.ndarray) -> np.ndarray:
        """One row of cosine scores per row of ``vectors``, one column per
        entry, each summed in ascending bucket order; see the module
        docstring."""
        count, entries = len(vectors), len(self._ids)
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

    def top_k(self, scores: np.ndarray, k: int) -> list[list[tuple[int, float]]]:
        """For each row of ``scores``, (row, score) of its k best entries
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
        best: list[list[tuple[int, float]]] = [[] for _ in range(len(scores))]
        for row, col, value in zip(rows[kept].tolist(), cols[kept].tolist(), values[kept].tolist()):
            best[row].append((col, value))
        return best

    def chunks(self, rows) -> dict[int, DocumentChunk]:
        """The chunk of each of ``rows``, built from its line; the lines are
        read in one pass in file order. A line that does not hold its row's
        chunk, as when the file was edited after the index was loaded, is
        corrupt, naming the file and line."""
        found: dict[int, DocumentChunk] = {}
        with self._lines.open("rb") as fh:
            for row in sorted(set(rows)):
                offset = int(self._offsets[row])
                fh.seek(offset)
                try:
                    chunk = DocumentChunk(**json.loads(fh.readline()))
                except (ValueError, TypeError):
                    chunk = None
                if chunk is None or chunk.chunk_id != self._ids[row]:
                    fh.seek(0)
                    lineno = fh.read(offset).count(b"\n") + 1
                    raise corrupt(
                        self._lines,
                        f"line {lineno}: does not hold chunk {self._ids[row]!r} of index row {row}: "
                        "the file changed after the index was read",
                    )
                found[row] = chunk
        return found

    # ---- persistence ----

    def save(self, index_path: str | Path, chunks_path: str | Path) -> None:
        """Write ``index_path``, then rename the temporary file of chunk
        lines that ``build_index`` wrote over ``chunks_path``: each file
        whole or not at all. Only a built index is saved."""
        rows = _block_rows(self.dimension)
        with replacing(index_path) as fh:
            fh.write(compact_json({"dimension": self.dimension, "entries": len(self._ids)}) + "\n")
            # Each row block's dense rows, rebuilt from its postings.
            for start, starts in zip(range(0, len(self._ids), rows), self._starts):
                ids = self._ids[start : start + rows]
                block = np.zeros((len(ids), self.dimension))
                cells = slice(starts[0], starts[-1])
                block[self._rows[cells] - start, np.repeat(np.arange(self.dimension), np.diff(starts))] = self._values[cells]
                fh.write(_rows_text(ids, block))
        os.replace(self._lines, chunks_path)
        self._lines = Path(chunks_path)

    @classmethod
    def load(cls, index_path: str | Path, chunks_path: str | Path) -> "VectorIndex":
        """The index saved at the two paths. Every line is checked as the
        module docstring says; the index keeps each chunk line's offset,
        not its chunk, and reads the line when a query returns it."""
        index_path = Path(index_path)
        chunks_path = Path(chunks_path)
        records = read_lines(index_path)
        header_line, _, header = next(records, (1, 0, {}))
        if "dimension" not in header or "entries" not in header:
            raise corrupt(index_path, f"line {header_line}: index header has no dimension and entry count")
        try:
            dimension, entries = int(header["dimension"]), int(header["entries"])
        except (TypeError, ValueError) as exc:
            raise corrupt(index_path, f"line {header_line}: corrupt index header: {exc}") from exc
        rows = _block_rows(dimension)
        chunk_records = read_lines(chunks_path)
        ids: list[str] = []
        offsets: list[int] = []

        def blocks():
            block, filled = None, 0
            for lineno, _, rec in records:
                chunk_lineno, offset, chunk_rec = next(chunk_records, (None, None, None))
                try:
                    chunk_id = None if chunk_rec is None else DocumentChunk(**chunk_rec).chunk_id
                except TypeError as exc:
                    raise corrupt(chunks_path, f"line {chunk_lineno}: corrupt chunk: {exc}") from exc
                if chunk_id is None or chunk_id != rec.get("id"):
                    found = "ends before it" if chunk_id is None else f"line {chunk_lineno} holds {chunk_id!r}"
                    raise corrupt(index_path, f"line {lineno}: id {rec.get('id')!r} has no chunk: {chunks_path} {found}")
                try:
                    values = np.asarray(rec["v"], dtype=np.float64)
                except (KeyError, TypeError, ValueError) as exc:
                    raise corrupt(index_path, f"line {lineno}: corrupt vector: {exc!r}") from exc
                if values.shape != (dimension,):
                    raise corrupt(
                        index_path,
                        f"line {lineno}: vector dimension {values.size} does not match index dimension {dimension}",
                    )
                ids.append(chunk_id)
                offsets.append(offset)
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
            raise corrupt(chunks_path, f"line {left_over[0]}: chunk line has no entry in {index_path}")
        if len(ids) != entries:
            raise corrupt(index_path, f"line {header_line}: header says {header['entries']} entries, found {len(ids)}")
        # json.loads reads the NaN and Infinity literals, and one such cell
        # would make every score it touches NaN or infinite.
        if (bad := np.flatnonzero(~np.isfinite(postings[1]))).size:
            lineno, _, _ = next(islice(read_lines(index_path), postings[0][bad].min() + 1, None))
            raise corrupt(index_path, f"line {lineno}: vector cell is not a finite number")
        return cls(ids, np.array(offsets, dtype=np.int64), dimension, postings, chunks_path)


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
    ``compact_json`` writes them; see the module docstring."""
    bits = block.view(np.int64).ravel()
    nonzero = np.flatnonzero(bits)
    distinct, where = np.unique(bits[nonzero], return_inverse=True)
    values = distinct.view(np.float64)
    fmt = float.__repr__ if np.isfinite(values).all() else compact_json
    # Text i + 1 is that of distinct pattern i; text 0 is positive zero's.
    texts = np.array(["0.0", *map(fmt, values.tolist())], dtype=object)
    cells = np.zeros(len(bits), dtype=np.intp)
    cells[nonzero] = where + 1
    return "".join(
        '{"id":' + compact_json(cid) + ',"v":[' + ",".join(row) + "]}\n"
        for cid, row in zip(ids, texts[cells].reshape(block.shape).tolist())
    )


def build_index(chunks: Iterable[DocumentChunk], embedder, chunks_path: str | Path) -> VectorIndex:
    """The index of ``chunks``, taken one row block at a time: one ``embed``
    call embeds the block, and its chunk lines are written to the temporary
    file that ``save`` renames over ``chunks_path``. No chunk outlives its
    block."""
    dimension = embedder.dimension
    rows = _block_rows(dimension)
    chunks = iter(chunks)
    ids: list[str] = []
    offsets: list[np.ndarray] = []
    tmp = temporary(Path(chunks_path))

    def blocks():
        written = 0
        while block := list(islice(chunks, rows)):
            texts = [c.text for c in block]
            vectors = np.asarray(embedder.embed(texts), dtype=np.float64)
            if vectors.shape != (len(texts), dimension):
                raise IntegrityError(
                    f"embedding of shape {vectors.shape} does not hold {len(texts)} rows of dimension {dimension}"
                )
            # The encoder escapes every non-ASCII character, so a line's
            # length in characters is its length in bytes.
            lines = [
                compact_json({"source_uri": c.source_uri, "kind": c.kind, "text": c.text, "metadata": c.metadata,
                              "ordinal": c.ordinal}) + "\n"
                for c in block
            ]
            lengths = np.array([len(line) for line in lines], dtype=np.int64)
            ends = np.cumsum(lengths) + written
            offsets.append(ends - lengths)
            written = int(ends[-1])
            target.write("".join(lines).encode("ascii"))
            ids.extend(c.chunk_id for c in block)
            yield vectors

    with tmp.open("wb") as target:
        postings = _postings(dimension, blocks())
    return VectorIndex(ids, np.concatenate([np.empty(0, dtype=np.int64), *offsets]), dimension, postings, tmp)


def query_many(index: VectorIndex, texts: list[str], k: int, embedder) -> list[list[RetrievalResult]]:
    """The exact top-k by cosine similarity of each text, in the order of
    ``texts``; ties broken by chunk id ascending. Texts are embedded and
    scored a block at a time; see the module docstring."""
    if k <= 0:
        raise ArgumentError(f"k must be positive, got {k}")
    if len(index) == 0:
        return [[] for _ in texts]
    rows = max(1, _BLOCK_CELLS // max(len(index), index.dimension))
    hits: list[list[tuple[int, float]]] = []
    for start in range(0, len(texts), rows):
        vectors = embedder.embed(texts[start : start + rows])
        if vectors.shape[1] != index.dimension:
            raise IntegrityError(
                f"query dimension {vectors.shape[1]} does not match index dimension {index.dimension}"
            )
        hits += index.top_k(index.scores(vectors), k)
    chunks = index.chunks(row for best in hits for row, _ in best)
    return [[RetrievalResult(chunks[row], score) for row, score in best] for best in hits]


def query(index: VectorIndex, text: str, k: int, embedder) -> list[RetrievalResult]:
    """Exact top-k by cosine similarity; ties broken by chunk id ascending."""
    return query_many(index, [text], k, embedder)[0]
