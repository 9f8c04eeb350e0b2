from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest

from lexrag.chunker import Chunk
from lexrag.embedding import HashedBowEmbedder
from lexrag import retriever
from lexrag.index import (DenseIndex, build_dense, build_sparse, bm25_scores, dense_scores,
                          dense_search, embed)
from lexrag.textutils import read_jsonl
from lexrag.retriever import (
    POOL,
    QUERY_BLOCK,
    FusionConfig,
    RetrievalContext,
    RetrievalResult,
    dump_results,
    hybrid_retrieve,
    minmax_normalize,
    retrieve_many,
)
from tests.conftest import make_chunk, random_document_text


class TestNormalizeScores:
    def test_two_values(self):
        assert minmax_normalize(np.array([2.0, 4.0])).tolist() == [0.0, 1.0]

    def test_constant_scores_map_to_one(self):
        assert minmax_normalize(np.array([3.0, 3.0])).tolist() == [1.0, 1.0]

    def test_three_values(self):
        out = minmax_normalize(np.array([1.0, 2.0, 4.0]))
        assert out[0] == 0.0
        assert abs(out[1] - 1 / 3) < 1e-12
        assert out[2] == 1.0

    def test_empty(self):
        assert minmax_normalize(np.array([])).tolist() == []


class TestFusionConfig:
    def test_defaults(self):
        cfg = FusionConfig(k=4)
        assert cfg.alpha == 0.8
        assert [f.name for f in fields(FusionConfig)] == ["k", "alpha"]
        assert POOL == 100

    def test_pool_scales_with_k(self, monkeypatch):
        # a query sharing no term with the corpus has no BM25 hits, so the dense
        # pool alone makes the candidates: max(POOL, k) rows
        monkeypatch.setattr(retriever, "POOL", 2)
        chunks, sparse, dense, embedder = build_corpus(np.random.default_rng(8))
        for k, ranked in ((1, 1), (5, 5), (40, 20)):
            result = hybrid_retrieve("qqqqqqqqqqqqqqqqqqqq", sparse, dense, embedder,
                                     FusionConfig(k=k, alpha=1.0))
            assert len(result.ranked) == ranked

    def test_validation(self):
        with pytest.raises(ValueError):
            FusionConfig(k=0)
        with pytest.raises(ValueError):
            FusionConfig(k=4, alpha=1.5)


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
            assert result.ranked == [r for r, _ in dense_search(dense, qv, k)]

    def test_alpha_zero_matches_bm25_ranking(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            chunks, sparse, dense, embedder = build_corpus(rng)
            query = " ".join(chunks[int(rng.integers(0, len(chunks)))].text.split()[:3])
            k = int(rng.integers(1, len(chunks) + 1))
            result = hybrid_retrieve(query, sparse, dense, embedder,
                                     FusionConfig(k=k, alpha=0.0))
            bm25 = [r for r, _ in bm25_scores(sparse, query)]
            m = min(k, len(bm25))
            assert result.ranked[:m] == bm25[:m]

    def test_fused_scores_in_unit_interval(self):
        rng = np.random.default_rng(2)
        chunks, sparse, dense, embedder = build_corpus(rng)
        result = hybrid_retrieve(chunks[3].text, sparse, dense, embedder,
                                 FusionConfig(k=10, alpha=0.8))
        assert len(result.fused) == len(result.dense_norm) == len(result.sparse_norm) == 10
        for column in (result.fused, result.dense_norm, result.sparse_norm):
            assert all(0.0 <= score <= 1.0 for score in column)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        chunks, sparse, dense, embedder = build_corpus(rng)
        cfg = FusionConfig(k=8, alpha=0.8)
        a = hybrid_retrieve("query words", sparse, dense, embedder, cfg)
        b = hybrid_retrieve("query words", sparse, dense, embedder, cfg)
        assert a == b

    def test_bm25_only_candidates_get_zero_dense(self, monkeypatch):
        # a pool of k = 12 of 30 rows leaves BM25 hits outside it: they rank with
        # a dense_norm of exactly 0 (the raw 0 they enter with is the minimum)
        monkeypatch.setattr(retriever, "POOL", 2)
        rng = np.random.default_rng(4)
        chunks, sparse, dense, embedder = build_corpus(rng, n_chunks=30)
        cfg = FusionConfig(k=12, alpha=0.5)
        query = " ".join(c.text.split()[0] for c in chunks[:10])
        result = hybrid_retrieve(query, sparse, dense, embedder, cfg)
        qv = embed(embedder, [query])[0]
        pool = {r for r, _ in dense_search(dense, qv, 12)}
        outside = [i for i, row in enumerate(result.ranked) if row not in pool]
        assert len(result.ranked) == 12 and outside
        assert all(result.dense_norm[i] == 0.0 and result.sparse_norm[i] > 0.0
                   for i in outside)

    def test_index_size_mismatch_rejected(self):
        rng = np.random.default_rng(5)
        chunks, sparse, dense, embedder = build_corpus(rng)
        short_sparse = build_sparse(chunks[:-1])
        with pytest.raises(ValueError, match="mismatch"):
            hybrid_retrieve("q", short_sparse, dense, embedder, FusionConfig(k=2))

    def test_dump_results_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        chunks, sparse, dense, embedder = build_corpus(rng)
        results = [hybrid_retrieve(chunks[i].text, sparse, dense, embedder,
                                   FusionConfig(k=5), query_id=f"q{i}") for i in (0, 1)]
        dump_results(results, dense.chunk_ids, tmp_path / "results.jsonl")
        rows = [row for _, row in read_jsonl(tmp_path / "results.jsonl")]
        assert rows == [{"query_id": r.query_id, "k": 5,
                         "ranked": [[dense.chunk_ids[row], f, d, s] for row, f, d, s in
                                    zip(r.ranked, r.fused, r.dense_norm, r.sparse_norm)]}
                        for r in results]
        for row, result in zip(rows, results):
            ids, *columns = zip(*row["ranked"])
            assert RetrievalResult(row["query_id"], [dense.chunk_ids.index(c) for c in ids],
                                   *map(list, columns), row["k"]) == result
            assert len(result.ranked) == 5

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
            rank_before = {row: pos for pos, row in enumerate(before.ranked)}
            comp_before = dict(zip(before.ranked, zip(before.dense_norm, before.sparse_norm)))

            target = int(rng.integers(0, n))
            raised = cosines.copy()
            raised[target] = min(1.0, raised[target] + float(rng.random()) * 0.5)
            after = hybrid_retrieve("q", sparse, dense_for(raised), embedder, cfg)
            rank_after = {row: pos for pos, row in enumerate(after.ranked)}

            td, ts = comp_before[target]
            for other, (od, os_) in comp_before.items():
                if other == target:
                    continue
                beat_on_both = td >= od and ts >= os_ and (td, ts) != (od, os_)
                if beat_on_both and rank_before[target] < rank_before[other]:
                    assert rank_after[target] < rank_after[other]

    def test_context_helper(self):
        rng = np.random.default_rng(7)
        chunks, sparse, dense, embedder = build_corpus(rng)
        ctx = RetrievalContext(
            sparse=sparse, dense=dense, embedder=embedder, fusion=FusionConfig(k=4),
            chunk_table=[(c.doc_id, c.start, c.end) for c in chunks])
        result, = ctx.retrieve_many([chunks[0].text], ["q9"])
        assert result.query_id == "q9"
        assert len(result.ranked) == 4


def reference_hybrid_retrieve(question, sparse, dense, embedder, cfg, pool, query_id=""):
    """The dict/list fusion that the array path replaced, kept as its oracle.

    Rankings come from Python sorts keyed on chunk_id strings, not from the
    index's id_rank; BM25 hits come from ``bm25_scores``, used as a dict. Dense
    scores come from ``dense_scores`` (pinned by the exact-cosine tie oracle).
    The top ``max(pool, k)`` dense rows are candidates.
    """
    query_vec = embed(embedder, [question])[0]
    scores = dense_scores(dense, query_vec[None, :])[0]
    by_dense = sorted(range(dense.N), key=lambda r: (-scores[r], dense.chunk_ids[r]))
    dense_hits = {r: float(scores[r]) for r in by_dense[:min(max(pool, cfg.k), dense.N)]}
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
    fused = {row: cfg.alpha * dense_norm[row] + (1.0 - cfg.alpha) * sparse_norm[row]
             for row in candidates}
    top = sorted(candidates, key=lambda row: (-fused[row], dense.chunk_ids[row]))[:cfg.k]
    return RetrievalResult(query_id, top, [fused[row] for row in top],
                           [dense_norm[row] for row in top],
                           [sparse_norm[row] for row in top], cfg.k)


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


def test_hybrid_retrieve_matches_reference_fusion(monkeypatch):
    rng = np.random.default_rng(20)
    queries = ["alpha", "beta gamma", "eps eps delta", "zebra", "alpha zebra beta"]
    for _ in range(300):
        n = int(rng.integers(1, 25))
        sparse, dense = tie_heavy_corpus(rng, n)
        angle = float(rng.choice([0.0, 0.3, np.pi / 4, 1.2]))
        embedder = FixedEmbedder(np.array([np.cos(angle), np.sin(angle)]))
        k = int(rng.integers(1, n + 6))
        # pools below k, and pools of fewer rows than the corpus holds
        pool = int(rng.choice([1, k, k + 1, n, n + 5, 100]))
        monkeypatch.setattr(retriever, "POOL", pool)
        alpha = float(rng.choice([0.0, 0.3, 0.8, 1.0]))
        cfg = FusionConfig(k=k, alpha=alpha)
        question = queries[int(rng.integers(0, len(queries)))]
        got = hybrid_retrieve(question, sparse, dense, embedder, cfg, query_id="q")
        want = reference_hybrid_retrieve(question, sparse, dense, embedder, cfg, pool,
                                         query_id="q")
        assert got == want, (question, dense.chunk_ids, cfg, pool)


def test_hybrid_retrieve_matches_reference_on_prose(monkeypatch):
    rng = np.random.default_rng(21)
    for _ in range(10):
        chunks, sparse, dense, embedder = build_corpus(rng, n_chunks=40)
        for pool, k in ((3, 3), (10, 5), (2, 5), (40, 40), (POOL, 10), (POOL, 64)):
            monkeypatch.setattr(retriever, "POOL", pool)
            query = " ".join(chunks[int(rng.integers(0, 40))].text.split()[:4])
            cfg = FusionConfig(k=k, alpha=0.8)
            assert hybrid_retrieve(query, sparse, dense, embedder, cfg) == \
                reference_hybrid_retrieve(query, sparse, dense, embedder, cfg, pool)


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


def _cosine_key(row: np.ndarray, query: np.ndarray) -> Fraction:
    """sign(dot) * dot**2 / (|row|**2 * |query|**2): orders rows as their cosines do,
    exactly, for integer vectors."""
    row_ints, query_ints = [int(v) for v in row], [int(v) for v in query]
    dot = sum(a * b for a, b in zip(row_ints, query_ints))
    return Fraction((dot > 0) - (dot < 0)) * Fraction(
        dot * dot, sum(a * a for a in row_ints) * sum(b * b for b in query_ints))


def test_tied_cosines_rank_as_the_exact_rational_oracle():
    """Duplicate and reordered chunks (equal count vectors) and rows orthogonal to a
    query tie exactly; every dense path ranks them as exact rationals do, chunk_id
    breaking ties."""
    texts = ["alpha beta gamma", "gamma alpha beta", "alpha beta gamma", "delta epsilon",
             "beta", "zeta eta theta", "beta beta alpha", "epsilon delta", "alpha", "iota"]
    order = [7, 2, 9, 0, 5, 1, 8, 3, 6, 4]  # row order is not chunk_id order
    chunks = [make_chunk(i, texts[i]) for i in order]
    embedder = HashedBowEmbedder(dim=256)
    sparse, dense = build_sparse(chunks), build_dense(chunks, embedder)
    questions = ["alpha beta gamma", "beta", "delta", "alpha zeta", "kappa"]
    queries = embed(embedder, questions)
    orthogonal = [q for q in queries if any(row @ q == 0 for row in dense.vectors)]
    assert len(orthogonal) >= 3
    cfg = FusionConfig(k=dense.N, alpha=1.0)
    batch = list(retrieve_many(questions, sparse, dense, embedder, cfg, questions))
    block = dense_scores(dense, queries)
    for question, query, from_batch, scores in zip(questions, queries, batch, block):
        keys = [_cosine_key(row, query) for row in dense.vectors]
        oracle = sorted(range(dense.N), key=lambda r: (-keys[r], dense.chunk_ids[r]))
        want = [dense.chunk_ids[r] for r in oracle]
        assert [dense.chunk_ids[r] for r, _ in dense_search(dense, query, dense.N)] == want
        alone_result = hybrid_retrieve(question, sparse, dense, embedder, cfg, query_id=question)
        assert [dense.chunk_ids[r] for r in alone_result.ranked] == want
        assert [dense.chunk_ids[r] for r in from_batch.ranked] == want
        alone = dense_scores(dense, query[None, :])[0]
        assert alone.tobytes() == scores.tobytes()


def test_batch_equals_one_query_at_a_time_across_blocks(monkeypatch):
    """retrieve_many over more than two blocks gives each query exactly the result
    hybrid_retrieve gives it alone, and each score row the same bits."""
    rng = np.random.default_rng(23)
    chunks, sparse, dense, embedder = build_corpus(rng, n_chunks=60)
    questions = [" ".join(chunks[int(rng.integers(0, 60))].text.split()[:5])
                 for _ in range(2 * QUERY_BLOCK + 7)]
    query_ids = [f"q{i}" for i in range(len(questions))]
    monkeypatch.setattr(retriever, "POOL", 20)
    cfg = FusionConfig(k=10, alpha=0.8)
    batch = list(retrieve_many(questions, sparse, dense, embedder, cfg, query_ids))
    assert batch == [hybrid_retrieve(q, sparse, dense, embedder, cfg, query_id=i)
                     for q, i in zip(questions, query_ids)]
    queries = embed(embedder, questions)
    together = dense_scores(dense, queries)
    for query, row in zip(queries, together):
        assert dense_scores(dense, query[None, :])[0].tobytes() == row.tobytes()
