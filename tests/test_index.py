import hashlib
import math
import zipfile
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexrag.chunker import dump_chunks
from lexrag.embedding import HashedBowEmbedder
from lexrag.index import (
    DenseIndex,
    SparseIndex,
    bm25_score_array,
    bm25_scores,
    build_dense,
    build_sparse,
    dense_search,
    embed,
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
    each array in the narrowest unsigned dtype that holds it (index format v5)."""
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
                vectors = super().embed(texts, rows)
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
                "chunk_id_bytes", "chunk_id_offsets", "offsets", "params", "refs",
                "term_bytes", "term_offsets", "tfs", "vectors"]
            assert data["params"].tolist() == [1.2, 0.75]

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
