"""Hybrid retrieval: fuse normalized dense and sparse scores into one ranking.

Dense cosines and unbounded BM25 scores are made commensurable by per-query
min-max normalization over each retriever's candidate list; a candidate
missing from one list contributes 0 on that side rather than being re-scored.
The fused score is ``alpha * dense_norm + (1 - alpha) * sparse_norm``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from lexrag.embedding import EmbeddingProvider
from lexrag.index import DenseIndex, SparseIndex, bm25_scores, dense_search, embed
from lexrag.textutils import read_jsonl, write_jsonl


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


def normalize_scores(scores: Sequence[tuple[int | str, float]]) -> list[tuple[int | str, float]]:
    """Min-max normalize to [0, 1] over the given list.

    When all scores are equal every entry maps to 1.0, so a degenerate list
    still ranks above candidates the retriever did not return at all.
    """
    if not scores:
        return []
    values = [s for _, s in scores]
    lo, hi = min(values), max(values)
    if hi == lo:
        return [(ref, 1.0) for ref, _ in scores]
    span = hi - lo
    return [(ref, (s - lo) / span) for ref, s in scores]


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

    dense_hits = dict(dense_search(dense, query_vec, min(cfg.candidate_pool, dense.N)))
    sparse_hits = dict(bm25_scores(sparse, question))
    candidates = sorted(set(dense_hits) | set(sparse_hits))

    def side_norms(hits: dict[int, float]) -> dict[int, float]:
        # a side with no hits contributes 0 everywhere; otherwise candidates the
        # side never returned enter the min-max as raw 0, so present hits keep
        # their relative order and never collapse onto the absent ones
        if not hits:
            return {row: 0.0 for row in candidates}
        extended = [(row, hits.get(row, 0.0)) for row in candidates]
        return dict(normalize_scores(extended))

    dense_norm = side_norms(dense_hits)
    sparse_norm = side_norms(sparse_hits)

    fused = [
        RankedChunk(
            chunk_id=dense.chunk_ids[row],
            fused=cfg.alpha * dense_norm[row] + (1.0 - cfg.alpha) * sparse_norm[row],
            dense_norm=dense_norm[row],
            sparse_norm=sparse_norm[row],
        )
        for row in candidates
    ]
    fused.sort(key=lambda rc: (-rc.fused, rc.chunk_id))
    return RetrievalResult(query_id=query_id, ranked=fused[:cfg.k], k=cfg.k)


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


def load_results(path: str | Path) -> list[RetrievalResult]:
    return [RetrievalResult.from_dict(row) for row in read_jsonl(path)]
