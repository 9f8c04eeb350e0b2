"""Hybrid retrieval: fuse normalized dense and sparse scores into one ranking.

Dense cosines and unbounded BM25 scores are made commensurable by per-query
min-max normalization over the candidate union (the top ``candidate_pool``
dense rows plus every nonzero BM25 row); a candidate missing from one side
enters that side's min-max as raw 0 rather than being re-scored. The fused
score is ``alpha * dense_norm + (1 - alpha) * sparse_norm``.

Queries are retrieved in blocks of ``QUERY_BLOCK``: one embedding call and
one ``index.dense_scores`` matrix product per block, then BM25 and fusion per
query. ``hybrid_retrieve`` is a block of one, and since a query's dense scores
are the same bits in any block (deterministic embedder), a query gets the
same result alone or in a batch. Each query's scores stay N-length float64
arrays from scoring to top-k: the candidate union is a boolean mask, both
sides are normalized over the masked rows, and only the rows tied at or above
the k-th fused score are sorted, by score descending then the index's integer
``id_rank`` (chunk_id ascending). ``RankedChunk`` objects are built for the
top k alone.
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

# queries per embedding call and dense matrix product; a block's dense scores take
# QUERY_BLOCK x N x 8 bytes (12.8 MB at 50k chunks)
QUERY_BLOCK = 32


@dataclass
class RankedChunk:
    chunk_id: str
    fused: float
    dense_norm: float
    sparse_norm: float

    def to_list(self) -> list:
        return [self.chunk_id, self.fused, self.dense_norm, self.sparse_norm]


@dataclass
class RetrievalResult:
    query_id: str
    ranked: list[RankedChunk]
    k: int

    def to_dict(self) -> dict:
        return {"query_id": self.query_id, "k": self.k,
                "ranked": [r.to_list() for r in self.ranked]}


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


def retrieve_many(questions: Sequence[str], sparse: SparseIndex, dense: DenseIndex,
                  embedder: EmbeddingProvider, cfg: FusionConfig,
                  query_ids: Sequence[str]) -> Iterator[RetrievalResult]:
    """``hybrid_retrieve`` of each question in turn, dense-scored QUERY_BLOCK at a time."""
    if sparse.N != dense.N:
        raise ValueError(f"index size mismatch: sparse N={sparse.N}, dense N={dense.N}")
    for lo in range(0, len(questions), QUERY_BLOCK):
        block = questions[lo:lo + QUERY_BLOCK]
        scores = dense_scores(dense, embed(embedder, block))
        for question, query_id, row in zip(block, query_ids[lo:lo + QUERY_BLOCK], scores):
            yield _fuse(question, row, sparse, dense, cfg, query_id)


def hybrid_retrieve(question: str, sparse: SparseIndex, dense: DenseIndex,
                    embedder: EmbeddingProvider, cfg: FusionConfig,
                    query_id: str = "") -> RetrievalResult:
    """Retrieve top-k chunks by fused dense+sparse score (a block of one query).

    Candidates are the union of the top ``candidate_pool`` dense hits and all
    nonzero BM25 hits. Bitwise-equal fused scores break ties by chunk_id ascending.
    """
    return next(retrieve_many([question], sparse, dense, embedder, cfg, [query_id]))


def _fuse(question: str, dense_row: np.ndarray, sparse: SparseIndex, dense: DenseIndex,
          cfg: FusionConfig, query_id: str) -> RetrievalResult:
    """One query's ranking from its dense scores (``dense_row``) and its BM25 scores."""
    in_pool = np.zeros(dense.N, dtype=bool)
    in_pool[top_rows(dense_row, min(cfg.candidate_pool, dense.N), dense.id_rank)] = True
    bm25 = bm25_score_array(sparse, question)
    if bm25 is None:
        bm25 = np.zeros(dense.N)
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
    ranked = [
        RankedChunk(chunk_id=dense.chunk_ids[row], fused=f, dense_norm=d, sparse_norm=s)
        for row, f, d, s in zip(rows[top].tolist(), fused[top].tolist(),
                                dense_norm[top].tolist(), sparse_norm[top].tolist())
    ]
    return RetrievalResult(query_id=query_id, ranked=ranked, k=cfg.k)


@dataclass
class RetrievalContext:
    """Everything needed to answer queries against one built index pair."""

    sparse: SparseIndex
    dense: DenseIndex
    embedder: EmbeddingProvider
    fusion: FusionConfig
    chunk_table: dict[str, tuple[str, int, int]] = field(default_factory=dict)

    def retrieve_many(self, questions: Sequence[str],
                      query_ids: Sequence[str]) -> Iterator[RetrievalResult]:
        return retrieve_many(questions, self.sparse, self.dense, self.embedder,
                             self.fusion, query_ids)


def dump_results(results: Sequence[RetrievalResult], path: str | Path) -> None:
    """JSON-lines, one RetrievalResult per query with per-component scores."""
    write_jsonl((result.to_dict() for result in results), path)
