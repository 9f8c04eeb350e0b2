"""Hybrid retrieval: fuse normalized dense and sparse scores into one ranking.

Dense cosines and unbounded BM25 scores are made commensurable by per-query
min-max normalization over the candidate union (the top ``max(POOL, k)``
dense rows plus every nonzero BM25 row); a candidate missing from one side
enters that side's min-max as raw 0 rather than being re-scored. The fused
score is ``alpha * dense_norm + (1 - alpha) * sparse_norm``.

``RetrievalContext.retrieve_many`` is the one query loop. It retrieves queries in
blocks of ``QUERY_BLOCK``: one embedding call and one ``index.dense_scores`` call
per block, then BM25 and fusion per query. ``hybrid_retrieve`` runs it on one
query, and since a query's dense scores are the same bits in any block
(deterministic embedder), a query gets the same result alone or in a batch.
Each query's scores stay N-length float64 arrays from scoring to top-k: the
candidate union is a boolean mask, both sides are normalized over the masked
rows, and only the rows tied at or above the k-th fused score are sorted, by
score descending then the index's integer ``id_rank`` (chunk_id ascending). A
result holds its top k rows and their scores as lists; only ``dump_results`` maps
rows to chunk ids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from lexrag.configs import FusionConfig
from lexrag.embedding import EmbeddingProvider
# bm25_scores and dense_search are unused here, but perfbench's tracer wraps
# them under this module's name, so the names must stay importable from it.
from lexrag.index import (DenseIndex, SparseIndex, bm25_score_array, bm25_scores,  # noqa: F401
                          dense_scores, dense_search, embed, top_rows)
from lexrag.textutils import write_jsonl

# queries per embedding call and dense_scores call; a block's dense scores take
# QUERY_BLOCK x N x 8 bytes (12.8 MB at 50k chunks)
QUERY_BLOCK = 32
# dense rows that enter fusion as candidates, or k rows when k is larger
POOL = 100


@dataclass
class RetrievalResult:
    """One query's top chunk rows, best first, and each one's scores, as plain lists."""

    query_id: str
    ranked: list[int]
    fused: list[float]
    dense_norm: list[float]
    sparse_norm: list[float]
    k: int


def minmax_normalize(values: np.ndarray) -> np.ndarray:
    """Min-max normalize a float64 array to [0, 1].

    When all values are equal every entry maps to 1.0, so a degenerate side
    still ranks above candidates the retriever did not return at all. An
    empty array maps to an empty array.
    """
    if values.size == 0:
        return values.copy()
    lo, hi = values.min(), values.max()
    if hi == lo:
        return np.ones_like(values)
    return (values - lo) / (hi - lo)


def hybrid_retrieve(question: str, sparse: SparseIndex, dense: DenseIndex,
                    embedder: EmbeddingProvider, cfg: FusionConfig,
                    query_id: str = "") -> RetrievalResult:
    """Retrieve top-k chunks by fused dense+sparse score: ``RetrievalContext.retrieve_many``
    of one query.

    Candidates are the union of the top ``max(POOL, k)`` dense hits and all
    nonzero BM25 hits. Bitwise-equal fused scores break ties by chunk_id ascending.
    """
    ctx = RetrievalContext(sparse, dense, embedder, cfg)
    return next(ctx.retrieve_many([question], [query_id]))


@dataclass
class RetrievalContext:
    """Everything needed to answer queries against one built index pair."""

    sparse: SparseIndex
    dense: DenseIndex
    embedder: EmbeddingProvider
    fusion: FusionConfig
    chunk_table: list[tuple[str, int, int]] = field(default_factory=list)  # by row

    def __post_init__(self) -> None:
        if self.sparse.N != self.dense.N:
            raise ValueError(f"index size mismatch: sparse N={self.sparse.N}, dense N={self.dense.N}")

    def retrieve_many(self, questions: Sequence[str],
                      query_ids: Sequence[str]) -> Iterator[RetrievalResult]:
        """Each question's ranking in turn, dense-scored ``QUERY_BLOCK`` questions at a time."""
        for lo in range(0, len(questions), QUERY_BLOCK):
            block = questions[lo:lo + QUERY_BLOCK]
            scores = dense_scores(self.dense, embed(self.embedder, block))
            for question, query_id, row in zip(block, query_ids[lo:lo + QUERY_BLOCK], scores):
                yield self._fuse(question, row, query_id)

    def _fuse(self, question: str, dense_row: np.ndarray, query_id: str) -> RetrievalResult:
        """One query's ranking from its dense scores (``dense_row``) and its BM25 scores."""
        dense, cfg = self.dense, self.fusion
        in_pool = np.zeros(dense.N, dtype=bool)
        in_pool[top_rows(dense_row, min(max(POOL, cfg.k), dense.N), dense.id_rank)] = True
        bm25 = bm25_score_array(self.sparse, question)
        in_bm25 = bm25 != 0
        rows = np.flatnonzero(in_pool | in_bm25)

        # Candidates a side never returned enter its min-max as raw 0, so present
        # hits keep their relative order and never collapse onto the absent ones;
        # a side with no hits at all (only BM25 can have none) contributes 0.
        dense_norm = minmax_normalize(np.where(in_pool[rows], dense_row[rows], 0.0))
        if in_bm25.any():
            sparse_norm = minmax_normalize(bm25[rows])
        else:
            sparse_norm = np.zeros(rows.shape[0])
        fused = cfg.alpha * dense_norm + (1.0 - cfg.alpha) * sparse_norm

        top = top_rows(fused, cfg.k, dense.id_rank[rows])
        return RetrievalResult(query_id, rows[top].tolist(), fused[top].tolist(),
                               dense_norm[top].tolist(), sparse_norm[top].tolist(), cfg.k)


def dump_results(results: Sequence[RetrievalResult], chunk_ids: Sequence[str],
                 path: str | Path) -> None:
    """JSON-lines, one line per query: its id, k and ranked
    ``[chunk_id, fused, dense_norm, sparse_norm]`` rows, each row's id from ``chunk_ids``."""
    write_jsonl(({"query_id": r.query_id, "k": r.k,
                  "ranked": [[chunk_ids[row], *scores] for row, *scores in
                             zip(r.ranked, r.fused, r.dense_norm, r.sparse_norm)]}
                 for r in results), path)
