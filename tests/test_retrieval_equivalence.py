"""The batched embedding and top-k selection against the plain loops
they replaced: same vector bits, same ids, same scores, for every k.
Scores summed over the postings against the dense product ``vectors @
matrix.T``: within 1e-12. Blocked retrieval (``query_many``) against one
``query`` per text: same ids for every k, bitwise the same scores. The
block index writer, which formats each distinct cell of a block of rows
once, against one ``compact_json`` per entry: same bytes, for an index
of one row block or of several, saved after a build or a load."""

import hashlib
import math
import random
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import index_of

import transmigrate.knowledge.index as index_module
from transmigrate.artifacts import compact_json
from transmigrate.errors import ArgumentError, IntegrityError
from transmigrate.knowledge.chunks import DocumentChunk
from transmigrate.knowledge.embed import HashedTokenEmbedder
from transmigrate.knowledge.index import VectorIndex, build_index, query, query_many

SETTINGS = settings(max_examples=60, deadline=None)

TOKEN_RE = re.compile(r"[a-z0-9]+")


def reference_embed(text: str, dimension: int) -> np.ndarray:
    """The per-token loop: one regex scan, then one md5 and one float add
    per token."""
    tokens = TOKEN_RE.findall(text.lower())
    if not tokens and text:
        tokens = [text.lower()]
    counts = np.zeros(dimension, dtype=np.float64)
    for token in tokens:
        counts[int(hashlib.md5(token.encode("utf-8")).hexdigest()[:8], 16) % dimension] += 1.0
    norm = float(np.linalg.norm(counts))
    if norm == 0.0:
        return counts
    return counts / norm


def reference_query(index: VectorIndex, ids: list[str], text: str, k: int, embedder) -> list[tuple[str, float]]:
    """A Python sort of every (id, score) pair by (-round(score, 12), id)."""
    scores = index.scores(embedder.embed([text]))[0]
    ranked = sorted(zip(ids, scores), key=lambda pair: (-round(float(pair[1]), 12), pair[0]))
    return [(cid, float(s)) for cid, s in ranked[:k]]


def assert_every_k_matches(index, ids, texts, embedder):
    for text in texts:
        for k in range(1, len(ids) + 3):
            got = [(r.chunk.chunk_id, r.score) for r in query(index, text, k, embedder)]
            assert got == reference_query(index, ids, text, k, embedder), (text, k)


class FixedEmbedder:
    """Embeds every text as one given vector."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)
        self.dimension = len(self.values)

    def embed(self, texts):
        return np.tile(self.values, (len(texts), 1))


class TableEmbedder:
    """Embeds each text as the vector a table gives it."""

    def __init__(self, table):
        self.table = table
        self.dimension = len(next(iter(table.values())))

    def embed(self, texts):
        return np.array([self.table[t] for t in texts]).reshape(len(texts), self.dimension)


WORDS = ["alpha", "beta", "gamma", "fetch", "view", "swift"]
# Case folding before tokenizing: the Kelvin sign lowers to ASCII "k", and
# "İ" lowers to "i" plus a combining dot; punctuation-only and empty texts
# take the whole-text and zero-vector paths.
EDGE_TEXTS = ["\u212aelvin", "\u0130stanbul", "İİ", "!!!", "--", "", " ", "\u00e9t\u00e9 2024", "x\ty\nz"]
phrase = st.lists(st.sampled_from(WORDS), max_size=5).map(" ".join)


class TestQueryEquivalence:
    @SETTINGS
    @given(pool=st.lists(phrase, min_size=1, max_size=4), picks=st.lists(st.integers(0, 3), min_size=1, max_size=24),
           dimension=st.sampled_from([1, 7, 64]), probe=phrase)
    def test_duplicate_texts_inserted_in_reverse_id_order(self, pool, picks, dimension, probe, chunks_path):
        # Few distinct texts over many chunks: equal scores straddle every k.
        texts = [pool[p % len(pool)] for p in picks]
        chunks = [DocumentChunk(f"doc{i:03d}", "api_doc", t) for i, t in reversed(list(enumerate(texts)))]
        embedder = HashedTokenEmbedder(dimension)
        index = build_index(chunks, embedder, chunks_path)
        ids = [c.chunk_id for c in chunks]
        assert_every_k_matches(index, ids, [probe, texts[0], "", "!!!", "zzzz qqqq"], embedder)

    @SETTINGS
    @given(step=st.integers(0, 10**6), offsets=st.lists(st.integers(-40, 40), min_size=1, max_size=20),
           scale=st.sampled_from([1e-17, 1e-16, 1e-14, 1e-13, 4e-13]), sign=st.sampled_from([1.0, -1.0]))
    def test_scores_closer_than_the_rounding_grain(self, step, offsets, scale, sign, chunks_path):
        # One-dimensional vectors against the query [1.0] make each score
        # exactly its vector's value: values a few ulps to a few 1e-13
        # around a 1e-12 rounding half-point.
        half_point = (step + 0.5) * 1e-12
        entries = list(reversed(list(enumerate(offsets))))
        chunks = [DocumentChunk(f"c{i:02d}", "api_doc", "x") for i, _ in entries]
        index = index_of(chunks, np.array([[sign * (half_point + off * scale)] for _, off in entries]), chunks_path)
        ids = [c.chunk_id for c in chunks]
        assert_every_k_matches(index, ids, ["q"], FixedEmbedder([1.0]))

    @SETTINGS
    @given(texts=st.lists(phrase, min_size=1, max_size=30), dimension=st.sampled_from([1, 7, 256]))
    def test_query_with_no_common_token(self, texts, dimension, chunks_path):
        chunks = [DocumentChunk(f"doc{i:03d}", "api_doc", t) for i, t in enumerate(texts)]
        embedder = HashedTokenEmbedder(dimension)
        index = build_index(chunks, embedder, chunks_path)
        ids = [c.chunk_id for c in chunks]
        assert_every_k_matches(index, ids, ["unrelated words only", "", "!!!"], embedder)

    def test_all_zero_scores_round_once(self, monkeypatch, tmp_path):
        # Every chunk ties at 0.0 for an empty query: the exact key is
        # computed once for the one distinct score, not once per chunk.
        embedder = HashedTokenEmbedder(16)
        chunks = [DocumentChunk(f"doc{i:04d}", "api_doc", f"w{i}") for i in range(500, 0, -1)]
        index = build_index(chunks, embedder, tmp_path / "chunks.jsonl")
        calls = []

        def counting_round(value, ndigits):
            calls.append(value)
            return round(value, ndigits)

        monkeypatch.setattr(index_module, "round", counting_round, raising=False)
        got = [r.chunk.chunk_id for r in query(index, "", 3, embedder)]
        assert got == ["doc0001#0", "doc0002#0", "doc0003#0"]
        assert len(calls) == 1


MANY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


def assert_many_matches_each(index, ids, texts, embedder):
    """For every k, ``query_many`` gives each text the ids ``query`` and the
    Python sort give it, and bitwise ``query``'s scores."""
    for k in range(1, len(index) + 3):
        many = query_many(index, texts, k, embedder)
        assert len(many) == len(texts)
        for text, got in zip(texts, many):
            one = query(index, text, k, embedder)
            assert [r.chunk.chunk_id for r in got] == [r.chunk.chunk_id for r in one], (text, k)
            expected = [cid for cid, _ in reference_query(index, ids, text, k, embedder)]
            assert [r.chunk.chunk_id for r in got] == expected, (text, k)
            assert [r.score.hex() for r in got] == [r.score.hex() for r in one], (text, k)


class TestQueryManyEquivalence:
    @MANY_SETTINGS
    @given(docs=st.lists(phrase, min_size=1, max_size=12),
           probes=st.lists(st.one_of(phrase, st.sampled_from(EDGE_TEXTS + ["zzzz qqqq"])), min_size=1, max_size=12),
           dimension=st.sampled_from([1, 7, 64]), cells=st.sampled_from([1, 5, 17, 65_536]))
    def test_same_ids_as_one_query_per_text(self, docs, probes, dimension, cells, chunks_path):
        # Repeated probes, empty and punctuation-only texts, texts sharing no
        # token with the index; at 1, 5 and 17 cells a block holds a few
        # texts or one, so most lists cross a block boundary.
        texts = probes + probes[:3]
        chunks = [DocumentChunk(f"doc{i:03d}", "api_doc", t) for i, t in reversed(list(enumerate(docs)))]
        embedder = HashedTokenEmbedder(dimension)
        index = build_index(chunks, embedder, chunks_path)
        with mock.patch.object(index_module, "_BLOCK_CELLS", cells):
            assert_many_matches_each(index, [c.chunk_id for c in chunks], texts, embedder)

    @MANY_SETTINGS
    @given(seed=st.integers(0, 2**32 - 1), entries=st.integers(1, 30), copies=st.integers(1, 4),
           queries=st.integers(1, 40), cells=st.sampled_from([7, 64, 65_536]))
    def test_dense_vectors_with_equal_rows(self, seed, entries, copies, queries, cells, chunks_path):
        # Dense vectors, as a remote embedder gives: a many-row BLAS product
        # can differ from a one-vector product in the last bits, a sum over
        # the postings cannot; equal rows of the index tie under the key.
        # Ids are given in reverse order.
        rng = np.random.default_rng(seed)
        rows = rng.standard_normal((entries, 8))
        rows = np.repeat(rows / np.linalg.norm(rows, axis=1, keepdims=True), copies, axis=0)
        chunks = [DocumentChunk(f"c{i:03d}", "api_doc", "x") for i in range(len(rows), 0, -1)]
        index = index_of(chunks, rows, chunks_path)
        table = {f"q{i}": v for i, v in enumerate(rng.standard_normal((queries, 8)))}
        table["row"] = rows[0]
        texts = list(table) + ["row", "q0"]
        with mock.patch.object(index_module, "_BLOCK_CELLS", cells):
            assert_many_matches_each(index, [c.chunk_id for c in chunks], texts, TableEmbedder(table))

    def test_empty_index_empty_texts_bad_k_and_wrong_width(self, tmp_path):
        embedder = FixedEmbedder([1.0, 0.0, 0.0, 0.0])
        empty = index_of([], np.empty((0, 4)), tmp_path / "empty.jsonl")
        assert query_many(empty, ["a", "", "a"], 2, embedder) == [[], [], []]
        assert query(empty, "a", 2, embedder) == []
        one = [DocumentChunk("d", "api_doc", "x")]
        index = index_of(one, np.array([[0.5, 0.5, 0.5, 0.5]]), tmp_path / "chunks.jsonl")
        assert query_many(index, [], 2, embedder) == []
        for target in (empty, index):
            with pytest.raises(ArgumentError):
                query_many(target, ["a"], 0, embedder)
            with pytest.raises(ArgumentError):
                query(target, "a", 0, embedder)
        narrow = FixedEmbedder([1.0, 0.0, 0.0])
        with pytest.raises(IntegrityError, match="query dimension 3 does not match index dimension 4"):
            query_many(index, ["a", "b"], 1, narrow)
        with pytest.raises(IntegrityError, match="query dimension 3"):
            query(index, "a", 1, narrow)

    def test_a_block_of_all_zero_scores_rounds_once(self, monkeypatch, tmp_path):
        # Every empty text ties every chunk at 0.0: one distinct score in
        # the block, so the exact key is computed once for all its rows.
        embedder = HashedTokenEmbedder(16)
        chunks = [DocumentChunk(f"doc{i:04d}", "api_doc", f"w{i}") for i in range(500, 0, -1)]
        index = build_index(chunks, embedder, tmp_path / "chunks.jsonl")
        calls = []

        def counting_round(value, ndigits):
            calls.append(value)
            return round(value, ndigits)

        monkeypatch.setattr(index_module, "round", counting_round, raising=False)
        got = query_many(index, [""] * 50, 3, embedder)
        assert [[r.chunk.chunk_id for r in rs] for rs in got] == [["doc0001#0", "doc0002#0", "doc0003#0"]] * 50
        assert len(calls) == 1


def sparse_rows(rng, rows: int, dimension: int) -> np.ndarray:
    """Unit rows of standard normal cells, each keeping 5%, 30% or all of
    its cells; the others are zeros of either sign."""
    values = rng.standard_normal((rows, dimension))
    keep = rng.random((rows, dimension)) < rng.choice([0.05, 0.3, 1.0], size=(rows, 1))
    matrix = np.where(keep, values, np.where(rng.random((rows, dimension)) < 0.5, 0.0, -0.0))
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    return matrix / np.where(norms == 0.0, 1.0, norms)


class TestPostingsScores:
    @MANY_SETTINGS
    @given(seed=st.integers(0, 2**32 - 1), entries=st.integers(1, 40), queries=st.integers(1, 12),
           dimension=st.sampled_from([1, 7, 64]), cells=st.sampled_from([1, 7, 64, 65_536]))
    def test_scores_equal_the_dense_product(self, seed, entries, queries, dimension, cells, chunks_path):
        # At 1 to 64 cells a row block holds a few rows or one and a group
        # of texts one text, so most indexes span several row blocks.
        rng = np.random.default_rng(seed)
        dense = sparse_rows(rng, entries, dimension)
        vectors = sparse_rows(rng, queries, dimension)
        chunks = [DocumentChunk(f"c{i:03d}", "api_doc", "x") for i in range(entries, 0, -1)]
        ids = [c.chunk_id for c in chunks]
        with mock.patch.object(index_module, "_BLOCK_CELLS", cells):
            index = index_of(chunks, dense, chunks_path)
            scores = index.scores(vectors)
        assert scores.shape == (queries, entries)
        assert np.abs(scores - vectors @ dense.T).max() <= 1e-12
        for k in (1, 3, entries + 2):
            for row, best in zip(scores.tolist(), index.top_k(scores, k)):
                ranked = sorted(zip(ids, row), key=lambda pair: (-round(pair[1], 12), pair[0]))
                assert [ids[col] for col, _ in best] == [cid for cid, _ in ranked[:k]]


class TestEmbedEquivalence:
    @SETTINGS
    @given(texts=st.lists(st.text(max_size=80), min_size=1, max_size=5), dimension=st.sampled_from([1, 7, 256]))
    def test_bitwise_equal_to_per_token_loop(self, texts, dimension):
        warm = HashedTokenEmbedder(dimension)
        for text in texts + texts:
            expected = reference_embed(text, dimension)
            assert warm.embed([text])[0].tobytes() == expected.tobytes()
            assert HashedTokenEmbedder(dimension).embed([text])[0].tobytes() == expected.tobytes()

    @pytest.mark.parametrize("text", ["", "!!!", "Ünïcode tøkens", "x " * 500, "a1 b2 a1"])
    def test_edge_texts(self, text):
        for dimension in (1, 7, 256):
            got = HashedTokenEmbedder(dimension).embed([text])[0]
            assert got.tobytes() == reference_embed(text, dimension).tobytes()

    @SETTINGS
    @given(texts=st.lists(st.one_of(st.sampled_from(EDGE_TEXTS), st.text(max_size=60)), max_size=12),
           dimension=st.sampled_from([1, 7, 256]))
    def test_embed_rows_equal_reference(self, texts, dimension):
        embedder = HashedTokenEmbedder(dimension)
        embedded = []  # every text embedded, through a wrapper around embed
        real_embed = embedder.embed

        def counting_embed(batch):
            embedded.extend(batch)
            return real_embed(batch)

        embedder.embed = counting_embed
        matrix = embedder.embed(texts)
        assert matrix.shape == (len(texts), dimension)
        for row, text in zip(matrix, texts):
            assert row.tobytes() == reference_embed(text, dimension).tobytes(), text
            assert embedder.embed([text])[0].tobytes() == row.tobytes()
        assert len(embedded) == 2 * len(texts)

    def test_more_texts_than_one_block(self):
        texts = [f"w{i % 97} shared Kelvin \u212a{i}" if i % 5 else "" for i in range(2 * 1024 + 5)]
        for dimension in (7, 256):
            matrix = HashedTokenEmbedder(dimension).embed(texts)
            expected = np.array([reference_embed(text, dimension) for text in texts]).reshape(len(texts), dimension)
            assert matrix.tobytes() == expected.tobytes()


def reference_index_text(dimension: int, entries: list[tuple[str, np.ndarray]]) -> bytes:
    """What ``VectorIndex.save`` writes with one ``compact_json`` per entry."""
    lines = [compact_json({"dimension": dimension, "entries": len(entries)}) + "\n"]
    for cid, vec in entries:
        lines.append(compact_json({"id": cid, "v": [float(x) for x in vec]}) + "\n")
    return "".join(lines).encode("utf-8")


def saved_index_bytes(dimension: int, entries: list[tuple[str, np.ndarray]]) -> bytes:
    chunks = [DocumentChunk(uri, "api_doc", "text", {}, ordinal) for ordinal, (uri, _) in enumerate(entries)]
    with tempfile.TemporaryDirectory() as tmp:
        matrix = np.array([vec for _, vec in entries]).reshape(len(entries), dimension)
        index = index_of(chunks, matrix, Path(tmp) / "chunks.jsonl")
        index.save(Path(tmp) / "index.jsonl", Path(tmp) / "chunks.jsonl")
        return (Path(tmp) / "index.jsonl").read_bytes()


SPECIAL_CELLS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e300]
cell = st.one_of(st.sampled_from(SPECIAL_CELLS), st.floats())
source_uri = st.one_of(st.sampled_from(['say "hi"', "back\\slash", "naïve/ünï.md", "日本語"]), st.text(max_size=12))


class TestIndexWriterEquivalence:
    @SETTINGS
    @given(dimension=st.sampled_from([1, 256]), pool=st.lists(cell, min_size=1, max_size=8),
           rows=st.lists(st.tuples(source_uri, st.randoms(use_true_random=False)), max_size=5))
    @example(dimension=1, pool=[0.0], rows=[])
    @example(dimension=256, pool=[0.0], rows=[])
    def test_same_bytes_as_compact_json_per_entry(self, dimension, pool, rows):
        # Every vector draws its cells from one small pool, so values repeat
        # within and across entries, as in normalised count vectors.
        entries = [(uri, np.array([rnd.choice(pool) for _ in range(dimension)])) for uri, rnd in rows]
        ids = [f"{uri}#{ordinal}" for ordinal, (uri, _) in enumerate(entries)]
        expected = reference_index_text(dimension, [(cid, vec) for cid, (_, vec) in zip(ids, entries)])
        assert saved_index_bytes(dimension, entries) == expected

    @pytest.mark.parametrize("dimension", [1, 256])
    def test_signed_zeros_nan_and_infinities(self, dimension):
        # 0.0 and -0.0 compare equal and NaN equals nothing: the writer must
        # tell them apart by their bits, whichever comes first.
        cells = SPECIAL_CELLS + SPECIAL_CELLS[::-1] + [1e300, 5e-324]
        entries = [
            ("zero-first", np.resize(np.array(cells), dimension)),
            ("negative-zero-first", np.resize(np.array(cells[::-1]), dimension)),
            ("one-cell", np.array([-0.0] * dimension)),
        ]
        ids = [f"{uri}#{ordinal}" for ordinal, (uri, _) in enumerate(entries)]
        expected = reference_index_text(dimension, [(cid, vec) for cid, (_, vec) in zip(ids, entries)])
        assert saved_index_bytes(dimension, entries) == expected

    @pytest.mark.parametrize("dimension", [1, 7, 256])
    def test_dense_vectors_with_every_cell_distinct(self, dimension):
        # A remote embedder returns dense floats: no cell repeats, and one
        # NaN or infinity among them changes how the whole vector is written.
        rng = np.random.default_rng(dimension)
        dense = [rng.standard_normal(dimension) for _ in range(4)]
        dense = [vec / np.linalg.norm(vec) for vec in dense]
        dense[1][0] = math.nan
        dense[2][-1] = -math.inf
        dense[3][0] = -0.0
        entries = [(f"dense-{i}", vec) for i, vec in enumerate(dense)]
        ids = [f"{uri}#{ordinal}" for ordinal, (uri, _) in enumerate(entries)]
        expected = reference_index_text(dimension, [(cid, vec) for cid, (_, vec) in zip(ids, entries)])
        assert saved_index_bytes(dimension, entries) == expected

    def test_round_trip_of_several_row_blocks(self, tmp_path):
        # 1,100 entries at dimension 256 make five row blocks of 256 rows,
        # the last one partial; an empty text makes an all-zero row.
        rng = random.Random(11)
        vocabulary = WORDS + [f"w{i}" for i in range(300)]
        texts = [" ".join(rng.choices(vocabulary, k=rng.randint(0, 12))) for _ in range(1100)]
        chunks = [DocumentChunk(f"doc{i:04d}", "api_doc", text) for i, text in enumerate(texts)]
        embedder = HashedTokenEmbedder(256)
        expected = reference_index_text(256, list(zip([c.chunk_id for c in chunks], embedder.embed(texts))))
        index = build_index(chunks, embedder, tmp_path / "chunks.jsonl")
        index.save(tmp_path / "index.jsonl", tmp_path / "chunks.jsonl")
        assert (tmp_path / "index.jsonl").read_bytes() == expected
        loaded = VectorIndex.load(tmp_path / "index.jsonl", tmp_path / "chunks.jsonl")
        probes = texts[:20] + ["alpha beta", "", "!!!", "unrelated"]

        def results(target):
            return [[(r.chunk.chunk_id, r.score.hex()) for r in rs] for rs in query_many(target, probes, 7, embedder)]

        assert results(loaded) == results(index)

    @pytest.mark.parametrize("special", [math.nan, -0.0, math.inf])
    @pytest.mark.parametrize("dimension", [1, 7, 256])
    def test_blocks_of_rows_with_a_special_cell_in_one_block(self, dimension, special):
        # At 65,536 cells per block, 600 rows of 256 cells make three
        # blocks; at 3 cells per block every block is one row (three rows
        # at dimension 1). The special cell sits in one block only, so only
        # that block is written the compact_json way.
        rng = np.random.default_rng(dimension)
        counts = rng.integers(0, 3, size=(600, dimension)).astype(np.float64)
        norms = np.linalg.norm(counts, axis=1, keepdims=True)
        vectors = counts / np.where(norms == 0.0, 1.0, norms)
        vectors[300, dimension // 2] = special
        entries = [(f"row-{i}", vec) for i, vec in enumerate(vectors)]
        ids = [f"{uri}#{ordinal}" for ordinal, (uri, _) in enumerate(entries)]
        expected = reference_index_text(dimension, [(cid, vec) for cid, (_, vec) in zip(ids, entries)])
        assert saved_index_bytes(dimension, entries) == expected
        with mock.patch.object(index_module, "_BLOCK_CELLS", 3):
            assert saved_index_bytes(dimension, entries) == expected
