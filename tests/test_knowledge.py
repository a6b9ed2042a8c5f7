import hashlib
import json
import math
import random
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from conftest import index_of, reachable

import transmigrate.knowledge.chunks as chunks_module
from transmigrate.errors import ArgumentError, CrawlError, IntegrityError
from transmigrate.knowledge.chunks import CHUNK_OVERLAP, CHUNK_SIZE, DocumentChunk, chunk_text, ingest_repository
from transmigrate.knowledge.crawl import crawl_site
from transmigrate.knowledge.embed import HashedTokenEmbedder
from transmigrate.knowledge.index import VectorIndex, build_index, query, query_many
from transmigrate.pipeline import hash_source_tree
from transmigrate.sourcemodel.parser import SourceFile, parse_source


def listing(root):
    """The files under ``root`` as the input hash lists them, for an output
    root outside it."""
    return hash_source_tree(root, root.parent / f"{root.name}-out")[1]


class TestChunking:
    def test_short_document_single_chunk(self):
        chunks = chunk_text("README.md", "readme", "x" * 250, {})
        assert len(chunks) == 1
        assert chunks[0].chunk_id == "README.md#0"

    def test_chunks_of_one_text_share_its_metadata(self):
        metadata = {"path": "doc.md"}
        chunks = chunk_text("doc.md", "api_doc", "word " * 500, metadata)
        assert len(chunks) == 3
        assert all(c.metadata is metadata for c in chunks)
        assert not any(hasattr(c, "__dict__") for c in chunks)

    def test_chunk_count_matches_overlap_arithmetic(self):
        n = 2500
        chunks = chunk_text("doc.md", "api_doc", "a" * n, {})
        expected = math.ceil((n - CHUNK_OVERLAP) / (CHUNK_SIZE - CHUNK_OVERLAP))
        assert len(chunks) == expected == 3

    def test_consecutive_chunks_overlap_by_100(self):
        text = "".join(chr(ord("a") + i % 26) for i in range(2500))
        chunks = chunk_text("doc.md", "api_doc", text, {})
        for left, right in zip(chunks, chunks[1:]):
            assert left.text[-CHUNK_OVERLAP:] == right.text[:CHUNK_OVERLAP]

    def test_empty_text_yields_nothing(self):
        assert chunk_text("x", "api_doc", "   \n  ", {}) == []

    @pytest.mark.parametrize(
        "size", [CHUNK_SIZE - 1, CHUNK_SIZE, CHUNK_SIZE + 1, 2 * CHUNK_SIZE]
    )
    def test_boundary_sizes(self, size):
        chunks = chunk_text("d", "api_doc", "y" * size, {})
        if size <= CHUNK_SIZE:
            assert len(chunks) == 1
        else:
            assert len(chunks) == math.ceil((size - CHUNK_OVERLAP) / (CHUNK_SIZE - CHUNK_OVERLAP))


class TestIngestion:
    def test_readme_kind_inferred(self, tmp_path):
        (tmp_path / "README.md").write_text("Sample project.")
        chunks = ingest_repository(tmp_path, listing(tmp_path), {})
        assert len(chunks) == 1
        assert chunks[0].kind == "readme"

    def test_empty_repository(self, tmp_path):
        assert ingest_repository(tmp_path, listing(tmp_path), {}) == []

    def test_binary_files_skipped_without_error(self, tmp_path):
        (tmp_path / "logo.md").write_bytes(b"\x89PNG\x00\x00binary")
        (tmp_path / "README.md").write_text("text")
        chunks = ingest_repository(tmp_path, listing(tmp_path), {})
        assert [c.source_uri for c in chunks] == ["README.md"]

    def test_source_comments_become_chunks(self, tmp_path):
        src = tmp_path / "A.java"
        src.write_text("// top note\nclass A { /* body comment */ void m(){} }\n")
        chunks = ingest_repository(tmp_path, listing(tmp_path), {})
        kinds = {c.kind for c in chunks}
        assert kinds == {"code_comment"}
        texts = " ".join(c.text for c in chunks)
        assert "top note" in texts and "body comment" in texts

    def test_comments_from_the_parse_equal_a_fresh_lex(self, tmp_path, monkeypatch):
        # Line comments on consecutive lines merge; a blank line, code or a
        # block comment between them starts a new block. B.java has CRLF
        # line ends and a lone CR, which SourceFile.read turns into LF, so
        # its parse read other text and ingest lexes the raw bytes again.
        java = (
            "// one\n// two\n\n// three\nclass A {\n  /* block\n   * body */\n"
            "  int x; // four\n  // five\n  void m() {}\n}\n"
        )
        (tmp_path / "A.java").write_text(java)
        (tmp_path / "B.java").write_bytes(b"// crlf one\r\n// crlf two\r// same line\r\nclass B {}\r\n")
        (tmp_path / "C.swift").write_text("// swift one\n// swift two\nclass C {}\n")
        asts = {
            rel: parse_source(SourceFile.read(tmp_path / rel, rel, "java")) for rel in ("A.java", "B.java")
        }
        assert asts["B.java"].source.text != (tmp_path / "B.java").read_bytes().decode()
        lexed = []
        real_tokenize = chunks_module.lexer.tokenize
        monkeypatch.setattr(
            chunks_module.lexer, "tokenize", lambda data, profile: lexed.append(data) or real_tokenize(data, profile)
        )
        fresh = ingest_repository(tmp_path, listing(tmp_path), {})
        assert len(lexed) == 3
        lexed.clear()
        reused = ingest_repository(tmp_path, listing(tmp_path), asts)
        assert lexed == [(tmp_path / name).read_bytes() for name in ("B.java", "C.swift")]
        assert reused == fresh
        assert [(c.source_uri, c.text) for c in fresh] == [
            ("A.java:comment0", "one\ntwo"),
            ("A.java:comment1", "three"),
            ("A.java:comment2", "block\nbody"),
            ("A.java:comment3", "four\nfive"),
            ("B.java:comment0", "crlf one\ncrlf two\r// same line"),
            ("C.swift:comment0", "swift one\nswift two"),
        ]

    def test_issue_and_pull_request_kinds(self, tmp_path):
        (tmp_path / "issues").mkdir()
        (tmp_path / "issues" / "42.md").write_text("crash on rotate")
        (tmp_path / "pulls").mkdir()
        (tmp_path / "pulls" / "7.md").write_text("fix rotation")
        kinds = {c.source_uri: c.kind for c in ingest_repository(tmp_path, listing(tmp_path), {})}
        assert kinds == {"issues/42.md": "issue", "pulls/7.md": "pull_request"}

    def test_ingestion_idempotent(self, tmp_path):
        (tmp_path / "README.md").write_text("alpha beta")
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "api.md").write_text("gamma " * 300)
        first = ingest_repository(tmp_path, listing(tmp_path), {})
        second = ingest_repository(tmp_path, listing(tmp_path), {})
        assert [(c.chunk_id, c.text) for c in first] == [(c.chunk_id, c.text) for c in second]


class TestEmbedding:
    def test_deterministic_bitwise(self):
        e = HashedTokenEmbedder(64)
        a, b = e.embed(["the weather app fetches data"])[0], e.embed(["the weather app fetches data"])[0]
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("text", ["hello world", "a", "!!!", "Ünïcode tøkens", "x " * 500])
    def test_unit_norm_for_nonempty_text(self, text):
        e = HashedTokenEmbedder(32)
        assert abs(float(np.linalg.norm(e.embed([text])[0])) - 1.0) < 1e-9

    def test_bag_of_tokens_order_invariance(self):
        # Reference oracle: independently tokenize, hash, count, normalize.
        dim = 32
        e = HashedTokenEmbedder(dim)

        def oracle(text):
            counts = [0.0] * dim
            for token in text.lower().split():
                bucket = int(hashlib.md5(token.encode()).hexdigest()[:8], 16) % dim
                counts[bucket] += 1.0
            norm = math.sqrt(sum(c * c for c in counts))
            return [c / norm for c in counts]

        a = e.embed(["alpha beta"])[0]
        b = e.embed(["beta alpha"])[0]
        assert np.array_equal(a, b)
        assert np.allclose(a, oracle("alpha beta"), atol=1e-12)

    def test_empty_text_zero_vector(self):
        e = HashedTokenEmbedder(16)
        assert float(np.linalg.norm(e.embed([""])[0])) == 0.0


def random_chunks(count: int, rng: random.Random) -> list[DocumentChunk]:
    words = ["alpha", "beta", "gamma", "delta", "screen", "fetch", "logger", "swift", "android", "view"]
    return [
        DocumentChunk(f"doc{i:04d}", "api_doc", " ".join(rng.choices(words, k=rng.randint(3, 30))))
        for i in range(count)
    ]


def brute_force_top_k(chunks, text, k, embedder):
    """Oracle: cosine from raw dot products and norms, python-side sort."""
    q = embedder.embed([text])[0]
    qn = math.sqrt(float(sum(x * x for x in q)))
    scored = []
    for chunk in chunks:
        v = embedder.embed([chunk.text])[0]
        vn = math.sqrt(float(sum(x * x for x in v)))
        cos = float(sum(a * b for a, b in zip(q, v))) / (qn * vn)
        scored.append((chunk.chunk_id, cos))
    scored.sort(key=lambda p: (-round(p[1], 12), p[0]))
    return [cid for cid, _ in scored[:k]]


class TestIndexAndQuery:
    def test_query_on_empty_index(self, tmp_path):
        e = HashedTokenEmbedder(16)
        index = build_index([], e, tmp_path / "chunks.jsonl")
        assert query(index, "anything", 3, e) == []

    def test_identical_text_scores_one_and_ranks_first(self, tmp_path):
        e = HashedTokenEmbedder(64)
        chunks = random_chunks(20, random.Random(3))
        index = build_index(chunks, e, tmp_path / "chunks.jsonl")
        results = query(index, chunks[11].text, 5, e)
        assert results[0].chunk.chunk_id == chunks[11].chunk_id
        assert abs(results[0].score - 1.0) < 1e-9

    def test_matches_brute_force_scan(self, tmp_path):
        rng = random.Random(17)
        e = HashedTokenEmbedder(48)
        chunks = random_chunks(100, rng)
        index = build_index(chunks, e, tmp_path / "chunks.jsonl")
        for qtext in [" ".join(rng.choices(["alpha", "fetch", "view", "swift"], k=4)) for _ in range(10)]:
            got = [r.chunk.chunk_id for r in query(index, qtext, 5, e)]
            assert got == brute_force_top_k(chunks, qtext, 5, e)

    def test_prefix_monotonicity(self, tmp_path):
        e = HashedTokenEmbedder(32)
        chunks = random_chunks(40, random.Random(5))
        index = build_index(chunks, e, tmp_path / "chunks.jsonl")
        small = [r.chunk.chunk_id for r in query(index, "alpha fetch", 3, e)]
        large = [r.chunk.chunk_id for r in query(index, "alpha fetch", 10, e)]
        assert large[:3] == small

    def test_invalid_k(self, tmp_path):
        e = HashedTokenEmbedder(16)
        index = build_index(random_chunks(3, random.Random(0)), e, tmp_path / "chunks.jsonl")
        with pytest.raises(ArgumentError):
            query(index, "x", 0, e)

    def test_dimension_mismatch(self, tmp_path):
        e16, e32 = HashedTokenEmbedder(16), HashedTokenEmbedder(32)
        index = build_index(random_chunks(3, random.Random(0)), e16, tmp_path / "chunks.jsonl")
        with pytest.raises(IntegrityError):
            query(index, "x", 1, e32)

    def test_index_rejects_a_matrix_of_another_row_count(self, tmp_path):
        e = HashedTokenEmbedder(16)
        chunks = random_chunks(3, random.Random(1))
        with pytest.raises(IntegrityError):
            index_of(chunks, e.embed([c.text for c in chunks[:2]]), tmp_path / "chunks.jsonl")
        with pytest.raises(IntegrityError):
            index_of(chunks, np.zeros(3), tmp_path / "chunks.jsonl")

    def test_save_load_round_trip(self, tmp_path):
        e = HashedTokenEmbedder(24)
        chunks = random_chunks(15, random.Random(9))
        index = build_index(chunks, e, tmp_path / "chunks.jsonl")
        index.save(tmp_path / "index.jsonl", tmp_path / "chunks.jsonl")
        loaded = VectorIndex.load(tmp_path / "index.jsonl", tmp_path / "chunks.jsonl")
        for qtext in ("alpha beta", "swift view"):
            before = [(r.chunk.chunk_id, r.score) for r in query(index, qtext, 4, e)]
            after = [(r.chunk.chunk_id, r.score) for r in query(loaded, qtext, 4, e)]
            assert before == after


    def test_build_save_and_load_never_hold_every_cell(self, tmp_path):
        # 6,000 vectors of 256 float64 cells take 12.3 MB as one dense
        # matrix; each step holds one row block of dense cells at a time,
        # the postings of short texts and the chunks themselves.
        import tracemalloc

        entries, dimension = 6000, 256
        chunks = [DocumentChunk(f"d{i}", "api_doc", f"alpha w{i % 97} beta") for i in range(entries)]
        embedder = HashedTokenEmbedder(dimension)
        paths = (tmp_path / "index.jsonl", tmp_path / "chunks.jsonl")
        steps = {
            "build": lambda: build_index(chunks, embedder, paths[1]),
            "save": lambda: index.save(*paths),
            "load": lambda: VectorIndex.load(*paths),
        }
        peaks = {}
        tracemalloc.start()
        try:
            for name, step in steps.items():
                tracemalloc.reset_peak()
                held = tracemalloc.get_traced_memory()[0]
                result = step()
                peaks[name] = tracemalloc.get_traced_memory()[1] - held
                if name == "build":
                    index = result
        finally:
            tracemalloc.stop()
        assert max(peaks.values()) < entries * dimension * 8, peaks
        assert len(result) == entries

    @pytest.mark.parametrize(
        "header, message",
        [
            ({"dimension": 24, "entries": 2}, "index.jsonl:1: index file corrupt: header says 2 entries, found 3"),
            ({"dimension": 24, "entries": 4}, "index.jsonl:1: index file corrupt: header says 4 entries, found 3"),
            (
                {"dimension": 24, "entries": 10**15},
                "index.jsonl:1: index file corrupt: header says 1000000000000000 entries, found 3",
            ),
            ({"dimension": 23, "entries": 3}, "index.jsonl:2: vector dimension 24 does not match index dimension 23"),
            ({"dimension": "x", "entries": 3}, "index.jsonl:1: corrupt index header"),
        ],
    )
    def test_load_rejects_a_header_that_disagrees_with_the_entries(self, tmp_path, header, message):
        index = build_index(random_chunks(3, random.Random(9)), HashedTokenEmbedder(24), tmp_path / "chunks.jsonl")
        index.save(tmp_path / "index.jsonl", tmp_path / "chunks.jsonl")
        lines = (tmp_path / "index.jsonl").read_text().splitlines(keepends=True)
        (tmp_path / "index.jsonl").write_text(json.dumps(header) + "\n" + "".join(lines[1:]))
        with pytest.raises(IntegrityError, match=message):
            VectorIndex.load(tmp_path / "index.jsonl", tmp_path / "chunks.jsonl")

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda lines: lines[:-1], r"index\.jsonl:4: id 'doc0002#0' has no chunk: \S*chunks\.jsonl ends before it"),
            (lambda lines: lines + lines[:1], r"chunks\.jsonl:4: chunk line has no entry in \S*index\.jsonl"),
        ],
        ids=["missing", "left-over"],
    )
    def test_load_pairs_each_entry_with_its_chunk_line(self, tmp_path, edit, message):
        index = build_index(random_chunks(3, random.Random(9)), HashedTokenEmbedder(24), tmp_path / "chunks.jsonl")
        index.save(tmp_path / "index.jsonl", tmp_path / "chunks.jsonl")
        lines = (tmp_path / "chunks.jsonl").read_text().splitlines(keepends=True)
        (tmp_path / "chunks.jsonl").write_text("".join(edit(lines)))
        with pytest.raises(IntegrityError, match=message):
            VectorIndex.load(tmp_path / "index.jsonl", tmp_path / "chunks.jsonl")

    def test_loaded_index_fetches_the_built_chunks(self, tmp_path):
        (tmp_path / "README.md").write_text("word " * 600)  # four chunks
        (tmp_path / "A.java").write_text("/** one */\nclass A {\n    // two\n    void f() {}\n    /* three */\n}\n")
        built = ingest_repository(tmp_path, ["A.java", "README.md"], {})
        build_index(built, HashedTokenEmbedder(16), tmp_path / "chunks.jsonl").save(
            tmp_path / "index.jsonl", tmp_path / "chunks.jsonl"
        )
        loaded = VectorIndex.load(tmp_path / "index.jsonl", tmp_path / "chunks.jsonl")
        fetched = loaded.chunks(reversed(range(len(loaded))))
        assert [fetched[row] for row in range(len(loaded))] == built

    def test_index_keeps_ids_and_offsets_and_no_chunk(self, tmp_path):
        chunks = random_chunks(20, random.Random(3))
        texts = {c.text for c in chunks}
        built = build_index(chunks, HashedTokenEmbedder(16), tmp_path / "chunks.jsonl")
        built.save(tmp_path / "index.jsonl", tmp_path / "chunks.jsonl")
        loaded = VectorIndex.load(tmp_path / "index.jsonl", tmp_path / "chunks.jsonl")
        for index in (built, loaded):
            kept = reachable(index)
            assert not [o for o in kept if isinstance(o, DocumentChunk) or (isinstance(o, str) and o in texts)]
            ids = [c.chunk_id for c in chunks]
            assert [o for o in kept if isinstance(o, list) and o and o[0] in ids] == [ids]

    def test_loaded_index_retains_no_chunk_text(self, tmp_path):
        # The texts of each size hold the same two tokens, so both indexes
        # have the same postings and ids; only the chunk lines differ, by
        # about 2 MB in all.
        import tracemalloc

        retained = {}
        for size, text in (("short", "alpha beta"), ("long", " ".join(["alpha beta"] * 91))):
            chunks = [DocumentChunk(f"doc{i:04d}", "api_doc", text) for i in range(2000)]
            paths = (tmp_path / f"{size}.jsonl", tmp_path / f"{size}_chunks.jsonl")
            build_index(chunks, HashedTokenEmbedder(64), paths[1]).save(*paths)
            tracemalloc.start()
            try:
                index = VectorIndex.load(*paths)
                retained[size] = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            assert len(text) == (1000 if size == "long" else 10) and len(index) == 2000
            del index
        assert abs(retained["long"] - retained["short"]) < 20_000, retained

    def test_query_builds_only_the_chunks_it_returns(self, tmp_path, monkeypatch):
        import transmigrate.knowledge.index as index_module

        built = []

        class CountedChunk(DocumentChunk):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self.chunk_id)

        e = HashedTokenEmbedder(32)
        chunks = random_chunks(300, random.Random(4))
        build_index(chunks, e, tmp_path / "chunks.jsonl").save(tmp_path / "index.jsonl", tmp_path / "chunks.jsonl")
        index = VectorIndex.load(tmp_path / "index.jsonl", tmp_path / "chunks.jsonl")
        monkeypatch.setattr(index_module, "DocumentChunk", CountedChunk)
        results = query_many(index, ["alpha fetch", "swift view", "alpha fetch view"], 4, e)
        returned = {r.chunk.chunk_id for rs in results for r in rs}
        assert len(returned) >= 4 and sorted(built) == sorted(returned)

    def test_chunk_line_edited_after_load_is_integrity_error(self, tmp_path):
        e = HashedTokenEmbedder(32)
        chunks = random_chunks(20, random.Random(6))
        build_index(chunks, e, tmp_path / "chunks.jsonl").save(tmp_path / "index.jsonl", tmp_path / "chunks.jsonl")
        index = VectorIndex.load(tmp_path / "index.jsonl", tmp_path / "chunks.jsonl")
        lines = (tmp_path / "chunks.jsonl").read_text().splitlines(keepends=True)
        lines[7] = lines[7].replace('"doc0007"', '"doc0070"')  # same length, another id
        (tmp_path / "chunks.jsonl").write_text("".join(lines))
        with pytest.raises(IntegrityError, match=r"chunks\.jsonl:8: does not hold chunk 'doc0007#0' of index row 7"):
            query(index, chunks[7].text, 3, e)
        assert query(index, chunks[3].text, 1, e)[0].chunk == chunks[3]


SITE = {
    "index.html": '<html><title>Home</title><body>Welcome to MiniApp docs. '
    '<a href="a.html">guide</a> <a href="b.html">api</a> '
    '<a href="http://elsewhere.invalid/x.html">offsite</a></body></html>',
    "a.html": '<html><body>Guide content here. <a href="c.html">deep</a></body></html>',
    "b.html": "<html><body>Api reference content.</body></html>",
    "c.html": "<html><body>Deep page content.</body></html>",
}


@pytest.fixture
def saved_site(tmp_path):
    for name, content in SITE.items():
        (tmp_path / name).write_text(content)
    return tmp_path


class TestCrawl:
    def test_zero_page_budget(self, saved_site):
        assert crawl_site(f"file://{saved_site}/index.html", max_depth=2, max_pages=0) == []

    def test_depth_one_reaches_start_plus_one_hop(self, saved_site):
        chunks = crawl_site(f"file://{saved_site}/index.html", max_depth=1, max_pages=10)
        pages = {c.source_uri.rsplit("/", 1)[-1] for c in chunks}
        assert pages == {"index.html", "a.html", "b.html"}

    def test_off_host_links_excluded(self, saved_site):
        chunks = crawl_site(f"file://{saved_site}/index.html", max_depth=3, max_pages=10)
        assert not any("elsewhere.invalid" in c.source_uri for c in chunks)

    def test_unreachable_start_url(self, tmp_path):
        with pytest.raises(CrawlError):
            crawl_site(f"file://{tmp_path}/missing.html", max_depth=1, max_pages=5)

    def test_http_crawl_against_local_server(self, saved_site):
        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):
                name = self.path.lstrip("/") or "index.html"
                body = SITE.get(name)
                if body is None:
                    self.send_response(404)
                    self.end_headers()
                    return
                payload = body.encode()
                self.send_response(200)
                self.send_header("Content-Type", "text/html")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args):
                pass

        server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            port = server.server_address[1]
            chunks = crawl_site(f"http://127.0.0.1:{port}/index.html", max_depth=2, max_pages=10)
            pages = {c.source_uri.rsplit("/", 1)[-1] for c in chunks}
            assert pages == {"index.html", "a.html", "b.html", "c.html"}
            assert any("Welcome to MiniApp" in c.text for c in chunks)
        finally:
            server.shutdown()


class TestRemoteEmbedder:
    def test_wire_format_and_normalization(self):
        from transmigrate.knowledge.embed import RemoteEmbedder

        received = []

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                import json as _json

                length = int(self.headers["Content-Length"])
                received.append(_json.loads(self.rfile.read(length)))
                payload = _json.dumps({"embedding": [3.0, 4.0]}).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args):
                pass

        server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            endpoint = f"http://127.0.0.1:{server.server_address[1]}/embed"
            embedder = RemoteEmbedder(endpoint, dimension=2)
            matrix = embedder.embed(["hello world"])
            assert received == [{"input": "hello world"}]
            assert np.allclose(matrix, [[0.6, 0.8]])  # re-normalized
        finally:
            server.shutdown()

    def test_embed_fills_rows_and_rejects_another_dimension(self):
        from transmigrate.knowledge.embed import RemoteEmbedder

        requests = []  # the text of each request the server got

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                import json as _json

                text = _json.loads(self.rfile.read(int(self.headers["Content-Length"])))["input"]
                requests.append(text)
                payload = _json.dumps({"embedding": [3.0, 4.0] if text == "ok" else [1.0, 0.0, 0.0]}).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args):
                pass

        server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            embedder = RemoteEmbedder(f"http://127.0.0.1:{server.server_address[1]}/embed", dimension=2)
            matrix = embedder.embed(["ok", "ok"])
            assert matrix.shape == (2, 2) and np.allclose(matrix, [[0.6, 0.8], [0.6, 0.8]])
            assert requests == ["ok", "ok"]
            with pytest.raises(IntegrityError, match="dimension 3"):
                embedder.embed(["ok", "wrong"])
        finally:
            server.shutdown()

    @pytest.mark.parametrize(
        "reply",
        # json.dumps writes NaN and Infinity as literals that json.loads reads.
        [{"vector": [1.0, 0.0]}, [1.0, 0.0], {"embedding": ["a", "b"]}, {"embedding": [math.nan, 1.0]},
         {"embedding": [1.0, -math.inf]}],
    )
    def test_reply_without_embedding_list_is_integrity_error(self, reply):
        from transmigrate.knowledge.embed import RemoteEmbedder

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                self.rfile.read(int(self.headers["Content-Length"]))
                payload = json.dumps(reply).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args):
                pass

        server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            endpoint = f"http://127.0.0.1:{server.server_address[1]}/embed"
            with pytest.raises(IntegrityError, match=re.escape(endpoint)):
                RemoteEmbedder(endpoint, dimension=2).embed(["text"])
        finally:
            server.shutdown()

    def test_unreachable_provider_is_retryable_error(self):
        from transmigrate.errors import RetryableBackendError
        from transmigrate.knowledge.embed import RemoteEmbedder

        embedder = RemoteEmbedder("http://127.0.0.1:9/embed", dimension=4)
        with pytest.raises(RetryableBackendError):
            embedder.embed(["text"])
