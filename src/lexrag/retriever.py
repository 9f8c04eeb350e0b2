"""Hybrid retrieval: fuse normalized dense and sparse scores into one ranking.

Dense cosines and unbounded BM25 scores are made commensurable by per-query
min-max normalization over the candidate union (the top ``candidate_pool``
dense rows plus every nonzero BM25 row); a candidate missing from one side
enters that side's min-max as raw 0 rather than being re-scored. The fused
score is ``alpha * dense_norm + (1 - alpha) * sparse_norm``.

Each query's scores stay N-length float64 arrays from scoring to top-k: the
candidate union is a boolean mask, both sides are normalized over the masked
rows, and only the rows tied at or above the k-th fused score are sorted, by
score descending then the index's integer ``id_rank`` (chunk_id ascending).
``RankedChunk`` objects are built for the top k alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from lexrag.embedding import EmbeddingProvider
# bm25_scores and dense_search are unused here, but perfbench's tracer wraps
# them under this module's name, so the names must stay importable from it.
from lexrag.index import (DenseIndex, SparseIndex, bm25_score_array, bm25_scores,  # noqa: F401
                          dense_search, embed, top_rows)
from lexrag.textutils import write_jsonl


@dataclass
class FusionConfig:
    k: int
    alpha: float = 0.8
    candidate_pool: int = 0  # 0 -> max(100, k)

    def __post_init__(self) -> None:
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError("alpha must be in [0, 1]")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.candidate_pool == 0:
            self.candidate_pool = max(100, self.k)
        if self.candidate_pool < self.k:
            raise ValueError("candidate_pool must be >= k")


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

    def chunk_ids(self) -> list[str]:
        return [r.chunk_id for r in self.ranked]

    def to_dict(self) -> dict:
        return {"query_id": self.query_id, "k": self.k,
                "ranked": [r.to_list() for r in self.ranked]}

    @classmethod
    def from_dict(cls, d: dict) -> "RetrievalResult":
        return cls(query_id=d["query_id"], k=d["k"],
                   ranked=[RankedChunk(*row) for row in d["ranked"]])


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
    """Retrieve top-k chunks by fused dense+sparse score.

    Candidates are the union of the top ``candidate_pool`` dense hits and all
    nonzero BM25 hits. Ties break by chunk_id ascending for reproducibility.
    """
    if dense.N == 0:
        return RetrievalResult(query_id=query_id, ranked=[], k=cfg.k)
    if sparse.N != dense.N:
        raise ValueError(f"index size mismatch: sparse N={sparse.N}, dense N={dense.N}")
    query_vec = embed(embedder, [question])[0]

    dense_scores = dense.vectors @ query_vec
    in_pool = np.zeros(dense.N, dtype=bool)
    in_pool[top_rows(dense_scores, min(cfg.candidate_pool, dense.N), dense.id_rank)] = True
    bm25 = bm25_score_array(sparse, question)
    if bm25 is None:
        bm25 = np.zeros(dense.N)
    in_bm25 = bm25 != 0
    rows = np.flatnonzero(in_pool | in_bm25)

    # Candidates a side never returned enter its min-max as raw 0, so present
    # hits keep their relative order and never collapse onto the absent ones;
    # a side with no hits at all (only BM25 can have none) contributes 0.
    dense_norm = minmax_normalize(np.where(in_pool[rows], dense_scores[rows], 0.0))
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

    def retrieve(self, question: str, query_id: str = "") -> RetrievalResult:
        return hybrid_retrieve(question, self.sparse, self.dense, self.embedder,
                               self.fusion, query_id=query_id)


def dump_results(results: Sequence[RetrievalResult], path: str | Path) -> None:
    """JSON-lines, one RetrievalResult per query with per-component scores."""
    write_jsonl((result.to_dict() for result in results), path)
