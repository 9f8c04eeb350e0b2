import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from lexrag.embedding import HashedBowEmbedder
from lexrag.index import (
    SparseIndex,
    bm25_scores,
    build_dense,
    build_sparse,
    dense_search,
    load_indexes,
    save_indexes,
)
from lexrag.textutils import tokenize
from tests.conftest import make_chunk


class TestBuildSparse:
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
        chunks = [make_chunk(i, f"words {i} more") for i in range(4)]
        dense = build_dense(chunks, HashedBowEmbedder(dim=64))
        np.testing.assert_allclose(np.linalg.norm(dense.vectors, axis=1), 1.0, atol=1e-6)


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
    def _build(self):
        chunks = [make_chunk(i, f"docwords {i} alpha beta gamma"[:40]) for i in range(5)]
        sparse = build_sparse(chunks)
        dense = build_dense(chunks, HashedBowEmbedder(dim=32))
        return sparse, dense

    def test_round_trip(self, tmp_path):
        sparse, dense = self._build()
        save_indexes(tmp_path, sparse, dense)
        sparse2, dense2 = load_indexes(tmp_path)
        assert sparse2.N == sparse.N
        assert sparse2.chunk_ids == sparse.chunk_ids
        assert sparse2.avg_len == sparse.avg_len
        assert set(sparse2.postings) == set(sparse.postings)
        for term in sparse.postings:
            assert np.array_equal(sparse2.postings[term][0], sparse.postings[term][0])
        assert np.array_equal(dense2.vectors, dense.vectors)
        assert dense2.backend == dense.backend
        query = "alpha"
        assert bm25_scores(sparse2, query) == bm25_scores(sparse, query)

    def test_checksum_mismatch_detected(self, tmp_path):
        sparse, dense = self._build()
        save_indexes(tmp_path, sparse, dense)
        payload = (tmp_path / "dense.npz").read_bytes()
        (tmp_path / "dense.npz").write_bytes(payload[:-2] + b"xx")
        with pytest.raises(ValueError, match="checksum"):
            load_indexes(tmp_path)


class TestIdfSmoothing:
    def test_idf_positive_even_for_ubiquitous_terms(self):
        idx = build_sparse([make_chunk(i, "common unique%d" % i) for i in range(10)])
        assert idx.idf("common") > 0

    def test_idf_zero_for_unknown_term(self):
        idx = build_sparse([make_chunk(0, "a")])
        assert idx.idf("unknown") == 0.0


def test_sparse_index_handles_zero_length_corpus_edge():
    # whitespace-only chunk: no postings, zero avg_len, queries return nothing
    idx = build_sparse([make_chunk(0, "...")])
    assert idx.avg_len == 0.0
    assert bm25_scores(idx, "anything") == []
    assert isinstance(idx, SparseIndex)
