import hashlib
import json
import math
import tempfile
import tracemalloc
import zipfile
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lexrag.index
from lexrag.chunker import dump_chunks
from lexrag.embedding import HashedBowEmbedder, term_rows
from lexrag.index import (
    DenseIndex,
    SparseIndex,
    bm25_score_array,
    bm25_scores,
    build_dense,
    build_sparse,
    dense_scores,
    dense_search,
    embed,
    load_index_chunks,
    load_indexes,
    save_indexes,
    sha256_file,
)
from lexrag.textutils import tokenize
from tests.conftest import make_chunk


def _narrow(values: list[int]) -> np.ndarray:
    """The values in the narrowest unsigned dtype that holds their maximum."""
    return np.asarray(values, dtype=np.min_scalar_type(max(values, default=0)))


def reference_csr(texts: list[str]):
    """CSR arrays from per-chunk Counters: sorted terms, rows ascending in each term,
    each array in the narrowest unsigned dtype that holds it (index format v6)."""
    counts = [Counter(tokenize(text)) for text in texts]
    terms = sorted(set().union(*counts))
    offsets, refs, tfs = [0], [], []
    for term in terms:
        for row, counter in enumerate(counts):
            if term in counter:
                refs.append(row)
                tfs.append(counter[term])
        offsets.append(len(refs))
    return terms, _narrow(offsets), _narrow(refs), _narrow(tfs)


def assert_same_array(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


# repeated, non-ASCII and punctuation-only words; "..." alone yields no term
WORDS = ["a", "b", "Court", "court", "straße", "Ärger", "日本語", "İstanbul", "x1", "...", "—"]
# any character UTF-8 can encode (no lone surrogate) but NUL, which separates ids
STORABLE = st.characters(codec="utf-8", exclude_characters="\0")


class TestBuildSparse:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.lists(st.sampled_from(WORDS), max_size=12).map(" ".join),
                    min_size=1, max_size=12))
    def test_csr_arrays_match_counter_reference(self, texts):
        idx = build_sparse([make_chunk(i, text) for i, text in enumerate(texts)])
        terms, offsets, refs, tfs = reference_csr(texts)
        assert idx.terms == terms
        assert_same_array(idx.offsets, offsets)
        assert_same_array(idx.refs, refs)
        assert_same_array(idx.tfs, tfs)
        assert list(idx.postings) == terms
        for term, lo, hi in zip(terms, offsets, offsets[1:]):
            assert_same_array(idx.postings[term][0], refs[lo:hi])
            assert_same_array(idx.postings[term][1], tfs[lo:hi])

    def test_terms_and_offsets_must_agree(self):
        idx = build_sparse([make_chunk(0, "a b")])
        with pytest.raises(ValueError, match="2 terms but 2 offsets"):
            replace(idx, offsets=idx.offsets[:-1])

    def test_single_chunk(self):
        idx = build_sparse([make_chunk(0, "a b")])
        assert idx.N == 1
        assert idx.avg_len == 2
        assert idx.postings["a"][0].tolist() == [0]
        assert idx.postings["a"][1].tolist() == [1.0]
        assert idx.postings["b"][0].tolist() == [0]

    def test_term_frequency_counted(self):
        idx = build_sparse([make_chunk(0, "a a"), make_chunk(1, "a b")])
        rows, tfs = idx.postings["a"]
        assert rows.tolist() == [0, 1]
        assert tfs.tolist() == [2.0, 1.0]

    def test_postings_match_brute_force_counts(self):
        texts = [
            "the Offer Price shall be $22.00 per share",
            "each share converted into the right to receive the Offer Price",
            "termination fees apply under the merger agreement",
        ]
        chunks = [make_chunk(i, t) for i, t in enumerate(texts)]
        idx = build_sparse(chunks)
        expected: dict[str, dict[int, int]] = {}
        for row, text in enumerate(texts):
            for term, tf in Counter(tokenize(text)).items():
                expected.setdefault(term, {})[row] = tf
        assert set(idx.postings) == set(expected)
        for term, by_row in expected.items():
            rows, tfs = idx.postings[term]
            assert dict(zip(rows.tolist(), tfs.tolist())) == {r: float(c)
                                                              for r, c in by_row.items()}

    def test_enriched_chunks_index_full_text(self):
        base = make_chunk(0, "body words")
        enriched = replace(base, header_text="[DOC] casetitle", metadata_fraction=0.2)
        assert enriched.full_text == "[DOC] casetitle\nbody words"
        idx = build_sparse([enriched])
        assert "casetitle" in idx.postings
        assert idx.chunk_ids == [base.chunk_id]

    def test_empty_chunk_list_rejected(self):
        with pytest.raises(ValueError):
            build_sparse([])


class TestBm25Scores:
    def test_hand_computed_ln2_case(self):
        idx = build_sparse([make_chunk(0, "a b"), make_chunk(1, "b c")])
        scores = bm25_scores(idx, "a")
        assert len(scores) == 1
        row, score = scores[0]
        assert row == 0
        assert abs(score - math.log(2)) < 1e-6

    def test_absent_term_empty_result(self):
        idx = build_sparse([make_chunk(0, "a b"), make_chunk(1, "b c")])
        assert bm25_scores(idx, "zebra") == []

    def test_empty_query_after_tokenization(self):
        idx = build_sparse([make_chunk(0, "a b")])
        assert bm25_scores(idx, "...!!!") == []

    def test_duplicate_texts_tie_break_by_chunk_id(self):
        idx = build_sparse([make_chunk(i, "same words here") for i in range(4)])
        scores = bm25_scores(idx, "same")
        values = [s for _, s in scores]
        assert len(set(values)) == 1
        ids = [idx.chunk_ids[r] for r, _ in scores]
        assert ids == sorted(ids)

    def test_scores_non_negative_and_monotone_in_tf(self):
        # same length docs, increasing tf of the query term
        idx = build_sparse([
            make_chunk(0, "q x x x"),
            make_chunk(1, "q q x x"),
            make_chunk(2, "q q q x"),
        ])
        scores = dict(bm25_scores(idx, "q"))
        assert all(v > 0 for v in scores.values())
        assert scores[2] > scores[1] > scores[0]

    def test_full_formula_on_longer_corpus(self):
        texts = ["a b c d", "a a e f", "g h i j", "a k l", "m n o p q"]
        chunks = [make_chunk(i, t) for i, t in enumerate(texts)]
        idx = build_sparse(chunks)
        got = dict(bm25_scores(idx, "a"))
        n_t = 3
        idf = math.log((5 - n_t + 0.5) / (n_t + 0.5) + 1)
        avg = sum(len(t.split()) for t in texts) / 5
        for row, tf in ((0, 1), (1, 2), (3, 1)):
            length = len(texts[row].split())
            expected = idf * tf * 2.2 / (tf + 1.2 * (1 - 0.75 + 0.75 * length / avg))
            assert abs(got[row] - expected) < 1e-9

    def test_repeated_query_terms_accumulate(self):
        idx = build_sparse([make_chunk(0, "a b"), make_chunk(1, "b c")])
        single = dict(bm25_scores(idx, "a"))[0]
        double = dict(bm25_scores(idx, "a a"))[0]
        assert abs(double - 2 * single) < 1e-12


class TestDenseSearch:
    def test_self_similarity_ranks_first(self):
        chunks = [make_chunk(i, t) for i, t in enumerate(
            ["alpha beta", "gamma delta", "epsilon zeta"])]
        dense = build_dense(chunks, HashedBowEmbedder(dim=64))
        hits = dense_search(dense, dense.vectors[1], 3)
        assert hits[0][0] == 1
        assert abs(hits[0][1] - 1.0) < 1e-6

    def test_n_larger_than_corpus_returns_all(self):
        chunks = [make_chunk(i, f"text {i}") for i in range(3)]
        dense = build_dense(chunks, HashedBowEmbedder(dim=32))
        hits = dense_search(dense, dense.vectors[0], 10)
        assert len(hits) == 3
        scores = [s for _, s in hits]
        assert scores == sorted(scores, reverse=True)

    def test_matches_brute_force_ranking(self):
        rng = np.random.default_rng(5)
        vectors = rng.normal(size=(5, 8))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        from lexrag.index import DenseIndex
        dense = DenseIndex(vectors=vectors, chunk_ids=[f"c#{i:06d}" for i in range(5)],
                           backend="deterministic-test")
        query = rng.normal(size=8)
        hits = dense_search(dense, query, 5)
        brute = sorted(range(5), key=lambda r: (-(vectors[r] @ query), f"c#{r:06d}"))
        assert [r for r, _ in hits] == brute

    def test_scores_are_the_same_bits_in_any_row_block(self, monkeypatch):
        """The stored int8 counts are cast a row block at a time; over integer counts
        every product is exact, so the block size moves no bit."""
        embedder = HashedBowEmbedder(dim=16)
        chunks = [make_chunk(i, f"alpha beta {'gamma ' * i}delta {i}") for i in range(10)]
        dense = build_dense(chunks, embedder)
        assert dense.vectors.dtype == np.int8
        queries = embed(embedder, ["alpha gamma", "delta 3 beta gamma gamma"])
        whole = dense_scores(dense, queries)
        monkeypatch.setattr(lexrag.index, "SCORE_ROWS", 3)
        assert dense_scores(dense, queries).tobytes() == whole.tobytes()

    def test_dimension_mismatch_rejected(self):
        chunks = [make_chunk(0, "text")]
        dense = build_dense(chunks, HashedBowEmbedder(dim=16))
        with pytest.raises(ValueError):
            dense_search(dense, np.zeros(8), 1)

    def test_rows_are_unit_norm(self):
        """Rows are integer counts; divided by the index's norms they are unit vectors,
        bit for bit the rows a format-v3 index held (sha256 taken then)."""
        chunks = [make_chunk(i, f"words {i} more") for i in range(4)]
        dense = build_dense(chunks, HashedBowEmbedder(dim=64))
        assert np.array_equal(dense.vectors, np.rint(dense.vectors))
        unit = dense.vectors / dense.norms[:, None]
        np.testing.assert_allclose(np.linalg.norm(unit, axis=1), 1.0, atol=1e-6)
        assert hashlib.sha256(unit.tobytes()).hexdigest() == (
            "0c9ae36369c80c4cd7a4d599a9ace00c60b617e3d36aece122283e045e387c6b")

    @pytest.mark.parametrize("scale,accepted", [(1.0, True), (1.0 + 1e-5, True),
                                                (1.0 - 1e-5, True), (1.0 + 2e-5, True),
                                                (0.5, True), (np.nan, False),
                                                (np.inf, False), (0.0, False)])
    def test_embed_accepts_finite_nonzero_rows_only(self, scale, accepted):
        class Scaled(HashedBowEmbedder):
            def embed(self, texts, rows=None):
                vectors = super().embed(texts, rows).astype(np.float64)  # counts, scaled
                with np.errstate(invalid="ignore"):  # inf * 0 is nan
                    vectors[1] *= scale  # one row scaled, the other left as counts
                return vectors

        if accepted:
            embed(Scaled(dim=8), ["alpha", "beta gamma"])
        else:
            with pytest.raises(ValueError, match="a zero, NaN or infinite norm"):
                embed(Scaled(dim=8), ["alpha", "beta gamma"])


class TestDeterminism:
    def test_build_deterministic_given_chunk_order(self):
        chunks = [make_chunk(i, f"term{i} shared words") for i in range(6)]
        a = build_sparse(chunks)
        b = build_sparse(chunks)
        assert a.chunk_ids == b.chunk_ids
        assert list(a.postings) == list(b.postings)
        for term in a.postings:
            assert np.array_equal(a.postings[term][0], b.postings[term][0])
            assert np.array_equal(a.postings[term][1], b.postings[term][1])
        da = build_dense(chunks, HashedBowEmbedder(dim=32))
        db = build_dense(chunks, HashedBowEmbedder(dim=32))
        assert np.array_equal(da.vectors, db.vectors)


class TestPersistence:
    def _build(self, tmp_path):
        """The indexes and the chunk file they were built from, with its sha256."""
        chunks = [make_chunk(i, f"docwords {i} alpha beta gamma"[:40]) for i in range(5)]
        sparse = build_sparse(chunks)
        dense = build_dense(chunks, HashedBowEmbedder(dim=32))
        path = tmp_path / "input_chunks.jsonl"
        dump_chunks(chunks, path)
        return sparse, dense, path, sha256_file(path)

    def test_round_trip(self, tmp_path):
        sparse, dense, path, digest = self._build(tmp_path)
        save_indexes(tmp_path, sparse, dense, path, digest)
        sparse2, dense2 = load_indexes(tmp_path)
        assert sparse2.N == sparse.N
        assert sparse2.chunk_ids == sparse.chunk_ids
        assert sparse2.avg_len == sparse.avg_len
        assert set(sparse2.postings) == set(sparse.postings)
        for term in sparse.postings:
            assert np.array_equal(sparse2.postings[term][0], sparse.postings[term][0])
        assert sparse2.terms == sparse.terms
        for name in ("offsets", "refs", "tfs", "doc_lengths"):
            assert_same_array(getattr(sparse2, name), getattr(sparse, name))
        assert np.array_equal(dense2.vectors, dense.vectors)
        assert dense2.backend == dense.backend
        query = "alpha"
        assert bm25_scores(sparse2, query) == bm25_scores(sparse, query)

    def test_one_file_holds_only_what_cannot_be_derived(self, tmp_path):
        sparse, dense, path, digest = self._build(tmp_path)
        save_indexes(tmp_path, sparse, dense, path, digest)
        with np.load(tmp_path / "index.npz") as data:
            assert sorted(data.files) == [
                "chunk_ids", "offsets", "refs", "terms", "tfs", "vectors"]
            assert data["chunk_ids"].tobytes() == "\0".join(sparse.chunk_ids).encode()
        meta = json.loads((tmp_path / "index_meta.json").read_text(encoding="utf-8"))
        assert meta == {"format_version": 7, "embedder_backend": dense.backend,
                        "sha256": {"index.npz": sha256_file(tmp_path / "index.npz"),
                                   "chunks.jsonl": digest}}

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.text(STORABLE, min_size=1),
                              st.lists(st.sampled_from(WORDS), max_size=6).map(" ".join)),
                    min_size=1, max_size=6, unique_by=lambda row: row[0]))
    @example([("§ 1#0", "..."), ("日本#1", "— ...")])  # chunks without a single term
    def test_round_trip_of_any_storable_strings(self, rows):
        """Non-ASCII terms and chunk ids, and an index without terms, load back equal."""
        chunks = [replace(make_chunk(i, text), chunk_id=chunk_id)
                  for i, (chunk_id, text) in enumerate(rows)]
        sparse = build_sparse(chunks)
        # integer rows with nonzero norms; a chunk without terms embeds to zero
        dense = DenseIndex(vectors=np.arange(1, 3 * len(rows) + 1).reshape(-1, 3),
                           chunk_ids=sparse.chunk_ids, backend="deterministic-test")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "input_chunks.jsonl"
            dump_chunks(chunks, path)
            save_indexes(Path(tmp) / "index", sparse, dense, path, sha256_file(path))
            sparse2, dense2 = load_indexes(Path(tmp) / "index")
        assert sparse2.terms == sparse.terms
        assert sparse2.chunk_ids == dense2.chunk_ids == [cid for cid, _ in rows]
        for name in ("offsets", "refs", "tfs"):
            assert_same_array(getattr(sparse2, name), getattr(sparse, name))
        assert np.array_equal(dense2.vectors, dense.vectors)

    def test_loaded_norms_follow_from_refs_and_tfs(self, tmp_path):
        """Each chunk's length is the sum of its tfs and avg_len their mean, on a build
        and on a load alike; "alpha beta" scores as the BM25 formula on the texts."""
        texts = ["alpha beta gamma", "alpha delta epsilon zeta eta", "beta theta"]
        chunks = [make_chunk(i, text) for i, text in enumerate(texts)]
        path = tmp_path / "input_chunks.jsonl"
        dump_chunks(chunks, path)
        save_indexes(tmp_path, build_sparse(chunks), build_dense(chunks, HashedBowEmbedder(dim=8)),
                     path, sha256_file(path))
        sparse = load_indexes(tmp_path)[0]
        lengths = np.bincount(sparse.refs, weights=sparse.tfs, minlength=sparse.N)
        assert lengths.tolist() == [3.0, 5.0, 2.0]
        assert_same_array(sparse.doc_lengths, lengths)
        assert sparse.avg_len == 10 / 3
        assert_same_array(sparse.norms, 1.2 * (1.0 - 0.75 + 0.75 * (lengths / (10 / 3))))
        expected = []
        for text in texts:
            words, score = text.split(), 0.0
            for term in ("alpha", "beta"):
                n_t = sum(term in other.split() for other in texts)
                idf = math.log((3 - n_t + 0.5) / (n_t + 0.5) + 1)
                tf = words.count(term)
                score += idf * tf * 2.2 / (tf + 1.2 * (0.25 + 0.75 * len(words) / (10 / 3)))
            expected.append(score)
        assert np.allclose(bm25_score_array(sparse, "alpha beta"), expected, rtol=1e-12, atol=0)

    def test_checksum_mismatch_detected(self, tmp_path):
        sparse, dense, path, digest = self._build(tmp_path)
        save_indexes(tmp_path, sparse, dense, path, digest)
        payload = (tmp_path / "index.npz").read_bytes()
        (tmp_path / "index.npz").write_bytes(payload[:-2] + b"xx")
        with pytest.raises(ValueError, match="checksum"):
            load_indexes(tmp_path)

    def test_chunk_file_changed_since_the_build_rejected(self, tmp_path):
        sparse, dense, path, digest = self._build(tmp_path)
        path.write_bytes(path.read_bytes() + b"\n")
        with pytest.raises(ValueError, match="changed while the index was built"):
            save_indexes(tmp_path / "index", sparse, dense, path, digest)
        assert not (tmp_path / "index" / "index_meta.json").exists()


    def test_counts_of_300_get_a_wider_dtype_and_round_trip_exactly(self, tmp_path):
        """A tf and a vector count of 300 (past uint8/int8) are stored in 16 bits,
        uncompressed, and load back equal, never wrapped."""
        chunks = [make_chunk(0, "a " * 300 + "b"), make_chunk(1, "b c")]
        sparse = build_sparse(chunks)
        dense = build_dense(chunks, HashedBowEmbedder(dim=32))
        path = tmp_path / "input_chunks.jsonl"
        dump_chunks(chunks, path)
        save_indexes(tmp_path, sparse, dense, path, sha256_file(path))
        with zipfile.ZipFile(tmp_path / "index.npz") as archive:
            assert {info.compress_type for info in archive.infolist()} == {zipfile.ZIP_STORED}
        with np.load(tmp_path / "index.npz") as data:
            assert data["tfs"].dtype == np.uint16 and data["tfs"].max() == 300
            assert data["refs"].dtype == data["offsets"].dtype == np.uint8
            assert data["vectors"].dtype == np.int16
            assert np.abs(data["vectors"]).max() >= 300
        sparse2, dense2 = load_indexes(tmp_path)
        assert sparse2.postings["a"][1].tolist() == [300]
        assert np.array_equal(dense2.vectors, dense.vectors)
        assert dense2.vectors.dtype == dense.vectors.dtype == np.int16  # kept as stored
        assert bm25_scores(sparse2, "a b") == bm25_scores(sparse, "a b")
        query = embed(HashedBowEmbedder(dim=32), ["a b"])[0]
        assert dense_search(dense2, query, 2) == dense_search(dense, query, 2)

    def test_remote_vectors_stored_as_float64(self, tmp_path):
        sparse, dense, path, digest = self._build(tmp_path)
        remote = DenseIndex(vectors=dense.vectors / dense.norms[:, None],
                            chunk_ids=dense.chunk_ids, backend="remote")
        save_indexes(tmp_path, sparse, remote, path, digest)
        with np.load(tmp_path / "index.npz") as data:
            assert data["vectors"].dtype == np.float64
        assert np.array_equal(load_indexes(tmp_path)[1].vectors, remote.vectors)


class TestIdfSmoothing:
    def test_idf_positive_even_for_ubiquitous_terms(self):
        idx = build_sparse([make_chunk(i, "common unique%d" % i) for i in range(10)])
        # "common" is in every chunk, yet it still scores each of them
        assert (bm25_score_array(idx, "common") > 0).all()

    def test_idf_zero_for_unknown_term(self):
        idx = build_sparse([make_chunk(0, "a")])
        assert bm25_score_array(idx, "unknown") is None


def test_sparse_index_handles_zero_length_corpus_edge():
    # whitespace-only chunk: no postings, zero avg_len, queries return nothing
    idx = build_sparse([make_chunk(0, "...")])
    assert idx.avg_len == 0.0
    assert bm25_scores(idx, "anything") == []
    assert isinstance(idx, SparseIndex)


class TestBuildMemory:
    """Traced peak bytes per token of each build step, on 300 chunks of 250 words
    of Zipf(1.15) text over a 20,000-word vocabulary (7,751 distinct terms).

    The bounds sit between the block-wise build (16.3, 15.3 and 11.8 for
    term_rows, build_dense and build_sparse) and the build that held an int64
    term id per token, an int64 sort key and row per token for the postings, and
    an n x dim float64 count matrix (20.3, 36.3 and 21.1).
    """

    BOUNDS = {"term_rows": 18.0, "build_dense": 24.0, "build_sparse": 16.0}

    @staticmethod
    def zipf_chunks(n_chunks: int = 300, words: int = 250) -> list:
        rng = np.random.default_rng(0)
        weights = 1.0 / np.arange(1, 20001) ** 1.15
        ids = rng.choice(20000, size=(n_chunks, words), p=weights / weights.sum())
        return [make_chunk(i, " ".join(f"w{j}" for j in row), doc_id=f"d{i // 30}")
                for i, row in enumerate(ids)]

    @staticmethod
    def traced_peak(step):
        """``step()``'s result and the peak traced bytes it allocated."""
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = step()
            return result, tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    @pytest.fixture(scope="class")
    def per_token(self) -> dict[str, float]:
        chunks = self.zipf_chunks()
        texts = [c.full_text for c in chunks]
        peaks = {}
        rows, peaks["term_rows"] = self.traced_peak(lambda: term_rows(texts))
        _, peaks["build_dense"] = self.traced_peak(
            lambda: build_dense(chunks, HashedBowEmbedder(dim=256), rows=rows))
        _, peaks["build_sparse"] = self.traced_peak(lambda: build_sparse(chunks, rows=rows))
        tokens = int(rows.lengths.sum())
        return {step: peak / tokens for step, peak in peaks.items()}

    @pytest.mark.parametrize("step", sorted(BOUNDS))
    def test_peak_bytes_per_token(self, per_token, step):
        assert per_token[step] <= self.BOUNDS[step], f"{per_token[step]:.2f} B/token"


class TestLoadMemory:
    """Traced memory of the query side's two loads, on 1,000 chunks of
    ``TestBuildMemory``'s Zipf text (a 1.1 MB chunk file) indexed at dim 256.

    ``load_index_chunks`` parses chunks.jsonl as a stream: its transient peak (its
    peak less the chunks it returns) was 0.10 of the file's size, against 1.04
    when the file was read whole before the parse. ``load_indexes`` keeps the int8
    vectors as stored and peaked at 8.4 traced bytes per stored vector value,
    against 18.4 with a float64 copy of them (the figure holds the terms, postings
    and chunk ids as well).
    """

    @pytest.fixture(scope="class")
    def index_dir(self, tmp_path_factory) -> Path:
        chunks = TestBuildMemory.zipf_chunks(n_chunks=1000)
        base = tmp_path_factory.mktemp("load_memory")
        path = base / "input_chunks.jsonl"
        dump_chunks(chunks, path)
        save_indexes(base / "index", build_sparse(chunks),
                     build_dense(chunks, HashedBowEmbedder(dim=256)), path, sha256_file(path))
        return base / "index"

    def test_chunk_file_is_parsed_without_its_bytes_held(self, index_dir):
        chunk_ids = load_indexes(index_dir)[0].chunk_ids
        tracemalloc.start()
        try:
            chunks = load_index_chunks(index_dir, chunk_ids)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(chunks) == 1000
        transient = (peak - retained) / (index_dir / "chunks.jsonl").stat().st_size
        assert transient <= 0.25, f"{transient:.2f} of the file's size"

    def test_vectors_load_without_a_float64_copy(self, index_dir):
        dense, peak = TestBuildMemory.traced_peak(lambda: load_indexes(index_dir)[1])
        assert dense.vectors.dtype == np.int8
        per_value = peak / dense.vectors.size
        assert per_value <= 12.0, f"{per_value:.1f} B per stored vector value"
