"""Exact (flat) cosine-similarity index.

Entries are written then frozen; queries are only valid on a frozen index.
Query results are the exact top-k by cosine score with ties broken by
chunk id ascending, so retrieval is reproducible and, for any k1 < k2,
query(k1) is a prefix of query(k2). For tie-breaking, scores compare at
1e-12 granularity: mathematically equal cosines can differ in the last
float ulp depending on summation order, and quantizing the comparison
keeps the id tie-break authoritative regardless of the evaluation path.
The ranking key of an entry is exactly ``(-round(score, 12), chunk_id)``.

A query does not sort every entry. With ``t`` the k-th largest raw score
(``np.argpartition``), the candidates are the entries scoring at least
``t - 2e-12``. Every member of the true top-k is a candidate: at least k
entries score ``>= t``, and ``round`` is monotone, so a member has
``round(s, 12) >= round(t, 12)``, and ``round`` moves a value by at most
0.5e-12. Only the candidates get the exact key: ``round`` runs once per
distinct candidate score, the last rounded value that still reaches the
top-k is found by partition, and the tied entries at that value are cut
by an id-rank array that ``freeze()`` computes once (the rank of each
entry's id, insertion order among equal ids, as a stable sort gives). A
query that shares no token with most chunks makes every zero score a
candidate; that case stays in numpy too. Ties, prefix order and the
returned scores are those of a full sort by the key: the selection
changes neither the tie rule nor the file format.

Persistence is line-delimited JSON: a header line with the dimension and
entry count, then one ``{"id": ..., "v": [...]}`` line per entry. Chunks
are stored beside the index in line-delimited JSON. A line that does not
parse, or an id with no saved chunk, is an IntegrityError naming the file
and line.

``save`` writes the bytes ``json.dumps({"id": id, "v": [floats]})`` gives,
but assembles each entry line itself: the id goes through ``json.dumps``,
and the cells of one vector are formatted once per distinct float64 bit
pattern in that vector (``np.unique`` on the bits), with ``float.__repr__``,
the encoder's text for a finite float, or ``json.dumps`` when the vector
holds NaN or an infinity. A normalised count vector holds few distinct
values, so most cells are not formatted at all. The key is the bits, not
the float: the float would merge ``-0.0`` with ``0.0``. Nothing outlives
one entry line, so the writer needs the same memory for dense vectors,
where every cell differs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from transmigrate.errors import ArgumentError, IntegrityError
from transmigrate.knowledge.chunks import DocumentChunk
from transmigrate.knowledge.embed import EmbeddingVector

# A top-k member scores at least t - 1e-12 (two roundings of at most
# 0.5e-12 each); the margin doubles that to cover float error.
_CANDIDATE_MARGIN = 2e-12


@dataclass
class RetrievalResult:
    chunk: DocumentChunk
    score: float


class VectorIndex:
    def __init__(self, dimension: int) -> None:
        self.dimension = dimension
        self._ids: list[str] = []
        self._vectors: list[np.ndarray] = []
        self._chunks: dict[str, DocumentChunk] = {}
        self._matrix: np.ndarray | None = None
        self._id_rank: np.ndarray | None = None
        self.frozen = False

    def __len__(self) -> int:
        return len(self._ids)

    def add(self, chunk: DocumentChunk, vector: EmbeddingVector) -> None:
        if self.frozen:
            raise IntegrityError("index is frozen; entries are immutable")
        if vector.dimension != self.dimension:
            raise IntegrityError(
                f"vector dimension {vector.dimension} does not match index dimension {self.dimension}"
            )
        self._ids.append(chunk.chunk_id)
        self._vectors.append(vector.values)
        self._chunks[chunk.chunk_id] = chunk

    def freeze(self) -> "VectorIndex":
        if not self.frozen:
            self._matrix = (
                np.vstack(self._vectors) if self._vectors else np.zeros((0, self.dimension))
            )
            # sorted() is stable, so equal ids keep their insertion order.
            by_id = sorted(range(len(self._ids)), key=self._ids.__getitem__)
            self._id_rank = np.empty(len(by_id), dtype=np.intp)
            self._id_rank[by_id] = np.arange(len(by_id))
            self.frozen = True
        return self

    def scores(self, vector: EmbeddingVector) -> np.ndarray:
        assert self._matrix is not None
        return self._matrix @ vector.values

    def chunk(self, chunk_id: str) -> DocumentChunk:
        return self._chunks[chunk_id]

    def top_k(self, scores: np.ndarray, k: int) -> list[tuple[str, float]]:
        """(id, score) of the k best entries under ``(-round(s, 12), id)``,
        best first; see the module docstring."""
        assert self._id_rank is not None
        n = len(scores)
        if k < n:
            kth = scores[np.argpartition(scores, n - k)[n - k]]
            cand = np.flatnonzero(scores >= kth - _CANDIDATE_MARGIN)
        else:
            cand = np.arange(n)
        distinct, inverse = np.unique(scores[cand], return_inverse=True)
        rounded = np.array([round(float(v), 12) for v in distinct])[inverse]
        if len(cand) > k:
            last = np.partition(rounded, len(cand) - k)[len(cand) - k]
            above = rounded > last
            tied = cand[rounded == last]
            need = k - int(np.count_nonzero(above))
            if need < len(tied):
                tied = tied[np.argpartition(self._id_rank[tied], need - 1)[:need]]
            cand = np.concatenate([cand[above], tied])
            rounded = np.concatenate([rounded[above], np.full(len(tied), last)])
        best = cand[np.lexsort((self._id_rank[cand], -rounded))]
        return [(self._ids[i], float(scores[i])) for i in best]

    # ---- persistence ----

    def save(self, index_path: str | Path, chunks_path: str | Path) -> None:
        index_path = Path(index_path)
        chunks_path = Path(chunks_path)
        index_path.parent.mkdir(parents=True, exist_ok=True)
        chunks_path.parent.mkdir(parents=True, exist_ok=True)
        with index_path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps({"dimension": self.dimension, "entries": len(self._ids)}) + "\n")
            for cid, vec in zip(self._ids, self._vectors):
                fh.write('{"id": ' + json.dumps(cid) + ', "v": [' + _cells_text(vec) + "]}\n")
        with chunks_path.open("w", encoding="utf-8") as fh:
            for cid in self._ids:
                c = self._chunks[cid]
                fh.write(
                    json.dumps(
                        {
                            "source_uri": c.source_uri,
                            "kind": c.kind,
                            "text": c.text,
                            "metadata": c.metadata,
                            "ordinal": c.ordinal,
                        },
                        sort_keys=True,
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
        index = cls(dimension=int(header["dimension"]))
        for lineno, rec in records:
            chunk = by_id.get(rec.get("id"))
            if chunk is None:
                raise IntegrityError(f"{index_path}:{lineno}: id {rec.get('id')!r} has no chunk in {chunks_path}")
            try:
                values = np.asarray(rec["v"], dtype=np.float64)
            except (KeyError, TypeError, ValueError) as exc:
                raise IntegrityError(f"{index_path}:{lineno}: corrupt vector: {exc!r}") from exc
            index.add(chunk, EmbeddingVector(values))
        if len(index) != int(header["entries"]):
            raise IntegrityError(
                f"index file corrupt: header says {header['entries']} entries, found {len(index)}"
            )
        return index.freeze()


def _cells_text(vec: np.ndarray) -> str:
    """The cells of one vector as ``json.dumps`` writes a float list, each
    distinct bit pattern formatted once."""
    vec = np.ascontiguousarray(vec, dtype=np.float64)
    bits, where = np.unique(vec.view(np.int64), return_inverse=True)
    fmt = float.__repr__ if np.isfinite(vec).all() else json.dumps
    texts = np.array(list(map(fmt, bits.view(np.float64).tolist())), dtype=object)
    return ", ".join(texts[where].tolist())


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
    """Embed every chunk and return a frozen index."""
    index = VectorIndex(dimension=embedder.dimension)
    for chunk in chunks:
        index.add(chunk, embedder.embed(chunk.text))
    return index.freeze()


def query(index: VectorIndex, text: str, k: int, embedder) -> list[RetrievalResult]:
    """Exact top-k by cosine similarity; ties broken by chunk id ascending."""
    if k <= 0:
        raise ArgumentError(f"k must be positive, got {k}")
    if not index.frozen:
        raise IntegrityError("query requires a frozen index")
    if len(index) == 0:
        return []
    vector = embedder.embed(text)
    if vector.dimension != index.dimension:
        raise IntegrityError(
            f"query dimension {vector.dimension} does not match index dimension {index.dimension}"
        )
    scores = index.scores(vector)
    return [RetrievalResult(chunk=index.chunk(cid), score=s) for cid, s in index.top_k(scores, k)]
