"""Hybrid sparse+dense retrieval and evaluation toolkit for long legal documents.

The package covers the full desk-scale pipeline: corpus ingestion, recursive
offset-tracked chunking, metadata enrichment of chunks, BM25 + dense vector
indexing, score fusion, retrieval-failure metrics with bootstrap statistics,
answer-span alignment, and preference-pair dataset construction with refusal
evaluation.
"""

__version__ = "0.1.0"

from lexrag.corpus import (
    Document,
    DocumentCollection,
    DocumentMeta,
    GoldSpan,
    QueryRecord,
    load_documents,
    load_qa_dataset,
    validate_annotations,
)
from lexrag.chunker import Chunk, ChunkConfig, count_tokens, split_recursive
from lexrag.enricher import WindowSummary, enrich_chunk, window_summaries
from lexrag.index import DenseIndex, SparseIndex, bm25_scores, build_dense, build_sparse, dense_search
from lexrag.retriever import FusionConfig, RetrievalResult, hybrid_retrieve, normalize_scores
from lexrag.evaluator import MetricReport, PairedComparison, drm, span_recall, sweep
from lexrag.stats import bonferroni, bootstrap_ci, paired_ttest

__all__ = [
    "Document",
    "DocumentCollection",
    "DocumentMeta",
    "GoldSpan",
    "QueryRecord",
    "load_documents",
    "load_qa_dataset",
    "validate_annotations",
    "Chunk",
    "ChunkConfig",
    "count_tokens",
    "split_recursive",
    "WindowSummary",
    "enrich_chunk",
    "window_summaries",
    "SparseIndex",
    "DenseIndex",
    "build_sparse",
    "build_dense",
    "bm25_scores",
    "dense_search",
    "FusionConfig",
    "RetrievalResult",
    "normalize_scores",
    "hybrid_retrieve",
    "MetricReport",
    "PairedComparison",
    "drm",
    "span_recall",
    "sweep",
    "bootstrap_ci",
    "paired_ttest",
    "bonferroni",
    "__version__",
]
