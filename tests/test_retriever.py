import numpy as np
import pytest

from lexrag.chunker import Chunk
from lexrag.embedding import HashedBowEmbedder
from lexrag.index import DenseIndex, build_dense, build_sparse, bm25_scores, dense_search, embed
from lexrag.retriever import (
    FusionConfig,
    RankedChunk,
    RetrievalContext,
    RetrievalResult,
    hybrid_retrieve,
    normalize_scores,
)
from tests.conftest import make_chunk, random_document_text


class TestNormalizeScores:
    def test_two_values(self):
        assert normalize_scores([("a", 2.0), ("b", 4.0)]) == [("a", 0.0), ("b", 1.0)]

    def test_constant_scores_map_to_one(self):
        assert normalize_scores([("a", 3.0), ("b", 3.0)]) == [("a", 1.0), ("b", 1.0)]

    def test_three_values(self):
        out = dict(normalize_scores([("a", 1.0), ("b", 2.0), ("c", 4.0)]))
        assert out["a"] == 0.0
        assert abs(out["b"] - 1 / 3) < 1e-12
        assert out["c"] == 1.0

    def test_empty(self):
        assert normalize_scores([]) == []


class TestFusionConfig:
    def test_defaults(self):
        cfg = FusionConfig(k=4)
        assert cfg.alpha == 0.8
        assert cfg.candidate_pool == 100

    def test_pool_scales_with_k(self):
        assert FusionConfig(k=200).candidate_pool == 200

    def test_validation(self):
        with pytest.raises(ValueError):
            FusionConfig(k=0)
        with pytest.raises(ValueError):
            FusionConfig(k=4, alpha=1.5)
        with pytest.raises(ValueError):
            FusionConfig(k=10, candidate_pool=5)


def build_corpus(rng, n_chunks=20):
    chunks = [make_chunk(i, random_document_text(rng, int(rng.integers(8, 30))),
                         doc_id=f"doc{i % 5}") for i in range(n_chunks)]
    embedder = HashedBowEmbedder(dim=128)
    return chunks, build_sparse(chunks), build_dense(chunks, embedder), embedder


class TestHybridRetrieve:
    def test_fusion_arithmetic(self):
        # candidate with dense 1.0 / sparse 0.0 beats 0.5 / 1.0 at alpha 0.8
        assert 0.8 * 1.0 + 0.2 * 0.0 > 0.8 * 0.5 + 0.2 * 1.0

    def test_alpha_one_matches_dense_ranking(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            chunks, sparse, dense, embedder = build_corpus(rng)
            query = chunks[int(rng.integers(0, len(chunks)))].text.split()[0]
            k = int(rng.integers(1, len(chunks) + 1))
            result = hybrid_retrieve(query, sparse, dense, embedder,
                                     FusionConfig(k=k, alpha=1.0))
            qv = embed(embedder, [query])[0]
            expected = [dense.chunk_ids[r] for r, _ in dense_search(dense, qv, k)]
            assert result.chunk_ids() == expected

    def test_alpha_zero_matches_bm25_ranking(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            chunks, sparse, dense, embedder = build_corpus(rng)
            query = " ".join(chunks[int(rng.integers(0, len(chunks)))].text.split()[:3])
            k = int(rng.integers(1, len(chunks) + 1))
            result = hybrid_retrieve(query, sparse, dense, embedder,
                                     FusionConfig(k=k, alpha=0.0))
            bm25 = [sparse.chunk_ids[r] for r, _ in bm25_scores(sparse, query)]
            m = min(k, len(bm25))
            assert result.chunk_ids()[:m] == bm25[:m]

    def test_fused_scores_in_unit_interval(self):
        rng = np.random.default_rng(2)
        chunks, sparse, dense, embedder = build_corpus(rng)
        result = hybrid_retrieve(chunks[3].text, sparse, dense, embedder,
                                 FusionConfig(k=10, alpha=0.8))
        for rc in result.ranked:
            assert 0.0 <= rc.fused <= 1.0
            assert 0.0 <= rc.dense_norm <= 1.0
            assert 0.0 <= rc.sparse_norm <= 1.0

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        chunks, sparse, dense, embedder = build_corpus(rng)
        cfg = FusionConfig(k=8, alpha=0.8)
        a = hybrid_retrieve("query words", sparse, dense, embedder, cfg)
        b = hybrid_retrieve("query words", sparse, dense, embedder, cfg)
        assert a == b

    def test_bm25_only_candidates_get_zero_dense(self):
        # tiny pool forces sparse-only candidates
        rng = np.random.default_rng(4)
        chunks, sparse, dense, embedder = build_corpus(rng, n_chunks=30)
        cfg = FusionConfig(k=30, alpha=0.5, candidate_pool=30)
        query = " ".join(c.text.split()[0] for c in chunks[:10])
        result = hybrid_retrieve(query, sparse, dense, embedder, cfg)
        assert len(result.ranked) == 30

    def test_index_size_mismatch_rejected(self):
        rng = np.random.default_rng(5)
        chunks, sparse, dense, embedder = build_corpus(rng)
        short_sparse = build_sparse(chunks[:-1])
        with pytest.raises(ValueError, match="mismatch"):
            hybrid_retrieve("q", short_sparse, dense, embedder, FusionConfig(k=2))

    def test_result_serialization_round_trip(self):
        rng = np.random.default_rng(6)
        chunks, sparse, dense, embedder = build_corpus(rng)
        result = hybrid_retrieve(chunks[0].text, sparse, dense, embedder,
                                 FusionConfig(k=5), query_id="q1")
        from lexrag.retriever import RetrievalResult
        round_tripped = RetrievalResult.from_dict(result.to_dict())
        assert round_tripped == result

    def test_raising_dense_score_never_causes_inversion(self):
        # fixed query direction; chunk vectors with controlled cosines
        class AxisEmbedder:
            backend = "deterministic-test"
            dim = 2

            def embed(self, texts):
                return np.array([[1.0, 0.0] for _ in texts])

        rng = np.random.default_rng(12)
        embedder = AxisEmbedder()
        for _ in range(30):
            n = 8
            cosines = rng.random(n)
            tfs = rng.integers(0, 5, n)
            texts = [("q " * int(tf)).strip() or "filler" for tf in tfs]
            chunks = [make_chunk(i, texts[i]) for i in range(n)]
            sparse = build_sparse(chunks)

            def dense_for(cos):
                vectors = np.stack([cos, np.sqrt(1 - cos ** 2)], axis=1)
                from lexrag.index import DenseIndex
                return DenseIndex(vectors=vectors,
                                  chunk_ids=[c.chunk_id for c in chunks],
                                  backend="deterministic-test")

            cfg = FusionConfig(k=n, alpha=0.8)
            before = hybrid_retrieve("q", sparse, dense_for(cosines), embedder, cfg)
            rank_before = {rc.chunk_id: pos for pos, rc in enumerate(before.ranked)}
            comp_before = {rc.chunk_id: (rc.dense_norm, rc.sparse_norm)
                           for rc in before.ranked}

            target = int(rng.integers(0, n))
            raised = cosines.copy()
            raised[target] = min(1.0, raised[target] + float(rng.random()) * 0.5)
            after = hybrid_retrieve("q", sparse, dense_for(raised), embedder, cfg)
            rank_after = {rc.chunk_id: pos for pos, rc in enumerate(after.ranked)}

            target_id = chunks[target].chunk_id
            td, ts = comp_before[target_id]
            for other_id, (od, os_) in comp_before.items():
                if other_id == target_id:
                    continue
                beat_on_both = td >= od and ts >= os_ and (td, ts) != (od, os_)
                if beat_on_both and rank_before[target_id] < rank_before[other_id]:
                    assert rank_after[target_id] < rank_after[other_id]

    def test_context_helper(self):
        rng = np.random.default_rng(7)
        chunks, sparse, dense, embedder = build_corpus(rng)
        ctx = RetrievalContext(
            sparse=sparse, dense=dense, embedder=embedder, fusion=FusionConfig(k=4),
            chunk_table={c.chunk_id: (c.doc_id, c.start, c.end) for c in chunks})
        result = ctx.retrieve(chunks[0].text, query_id="q9")
        assert result.query_id == "q9"
        assert len(result.ranked) == 4


def reference_hybrid_retrieve(question, sparse, dense, embedder, cfg, query_id=""):
    """The dict/list fusion that the array path replaced, kept as its oracle.

    Rankings come from Python sorts keyed on chunk_id strings, not from the
    index's id_rank; BM25 hits come from ``bm25_scores``, used as a dict.
    """
    query_vec = embed(embedder, [question])[0]
    scores = dense.vectors @ query_vec
    by_dense = sorted(range(dense.N), key=lambda r: (-scores[r], dense.chunk_ids[r]))
    dense_hits = {r: float(scores[r]) for r in by_dense[:min(cfg.candidate_pool, dense.N)]}
    sparse_hits = dict(bm25_scores(sparse, question))
    candidates = sorted(set(dense_hits) | set(sparse_hits))

    def side_norms(hits):
        if not hits:
            return {row: 0.0 for row in candidates}
        values = [hits.get(row, 0.0) for row in candidates]
        lo, hi = min(values), max(values)
        if hi == lo:
            return {row: 1.0 for row in candidates}
        return {row: (v - lo) / (hi - lo) for row, v in zip(candidates, values)}

    dense_norm = side_norms(dense_hits)
    sparse_norm = side_norms(sparse_hits)
    fused = [
        RankedChunk(chunk_id=dense.chunk_ids[row],
                    fused=cfg.alpha * dense_norm[row] + (1.0 - cfg.alpha) * sparse_norm[row],
                    dense_norm=dense_norm[row], sparse_norm=sparse_norm[row])
        for row in candidates
    ]
    fused.sort(key=lambda rc: (-rc.fused, rc.chunk_id))
    return RetrievalResult(query_id=query_id, ranked=fused[:cfg.k], k=cfg.k)


class FixedEmbedder:
    """Returns one preset unit vector for every text."""

    backend = "deterministic-test"

    def __init__(self, vector):
        self.vector = vector
        self.dim = vector.shape[0]

    def embed(self, texts):
        return np.tile(self.vector, (len(texts), 1))


def tie_heavy_corpus(rng, n):
    """Chunks over a 5-word vocabulary and vectors from 3 directions, so scores tie.

    Chunk ids are unpadded (``d1#2`` sorts after ``d1#10``) and shuffled, so
    row order, id order and ordinal order all differ; one in ten corpora
    repeats an id.
    """
    vocab = ["alpha", "beta", "gamma", "delta", "eps"]
    ids = [f"d{int(rng.integers(0, 3))}#{i}" for i in rng.permutation(n)]
    if rng.random() < 0.1 and n > 1:
        ids[-1] = ids[0]
    chunks = [Chunk(chunk_id=cid, doc_id=cid.split("#")[0], start=0, end=1,
                    text=" ".join(rng.choice(vocab, size=int(rng.integers(1, 5)))),
                    ordinal=i, core_start=0)
              for i, cid in enumerate(ids)]
    directions = np.array([[1.0, 0.0], [0.6, 0.8], [0.0, 1.0]])
    dense = DenseIndex(vectors=directions[rng.integers(0, 3, size=n)],
                       chunk_ids=ids, backend="deterministic-test")
    return build_sparse(chunks), dense


def test_hybrid_retrieve_matches_reference_fusion():
    rng = np.random.default_rng(20)
    queries = ["alpha", "beta gamma", "eps eps delta", "zebra", "alpha zebra beta"]
    for _ in range(300):
        n = int(rng.integers(1, 25))
        sparse, dense = tie_heavy_corpus(rng, n)
        angle = float(rng.choice([0.0, 0.3, np.pi / 4, 1.2]))
        embedder = FixedEmbedder(np.array([np.cos(angle), np.sin(angle)]))
        k = int(rng.integers(1, n + 6))
        pool = int(rng.choice([k, k + 1, n, n + 5, 100]))
        alpha = float(rng.choice([0.0, 0.3, 0.8, 1.0]))
        cfg = FusionConfig(k=k, alpha=alpha, candidate_pool=max(pool, k))
        question = queries[int(rng.integers(0, len(queries)))]
        got = hybrid_retrieve(question, sparse, dense, embedder, cfg, query_id="q")
        want = reference_hybrid_retrieve(question, sparse, dense, embedder, cfg, query_id="q")
        assert got == want, (question, dense.chunk_ids, cfg)


def test_hybrid_retrieve_matches_reference_on_prose():
    rng = np.random.default_rng(21)
    for _ in range(10):
        chunks, sparse, dense, embedder = build_corpus(rng, n_chunks=40)
        for pool, k in ((3, 3), (10, 5), (40, 40), (200, 64)):
            query = " ".join(chunks[int(rng.integers(0, 40))].text.split()[:4])
            cfg = FusionConfig(k=k, alpha=0.8, candidate_pool=pool)
            assert hybrid_retrieve(query, sparse, dense, embedder, cfg) == \
                reference_hybrid_retrieve(query, sparse, dense, embedder, cfg)


def test_list_scorers_keep_row_score_pairs_ranked_by_score_then_chunk_id():
    rng = np.random.default_rng(22)
    for _ in range(50):
        n = int(rng.integers(1, 25))
        sparse, dense = tie_heavy_corpus(rng, n)
        hits = bm25_scores(sparse, "alpha beta")
        assert all(type(r) is int and type(s) is float for r, s in hits)
        scores = dict(hits)
        assert [r for r, _ in hits] == sorted(
            sorted(scores), key=lambda r: (-scores[r], sparse.chunk_ids[r]))
        query = np.array([0.8, 0.6])
        m = int(rng.integers(1, n + 3))
        hits = dense_search(dense, query, m)
        assert all(type(r) is int and type(s) is float for r, s in hits)
        scores = dense.vectors @ query
        expected = sorted(range(n), key=lambda r: (-scores[r], dense.chunk_ids[r]))[:m]
        assert hits == [(r, float(scores[r])) for r in expected]
