"""Hybrid sparse+dense retrieval and evaluation toolkit for long legal documents.

The package covers the full desk-scale pipeline: corpus ingestion, recursive
offset-tracked chunking, metadata enrichment of chunks, BM25 + dense vector
indexing, score fusion, retrieval-failure metrics with bootstrap statistics,
answer-span alignment, and preference-pair dataset construction with refusal
evaluation.

The API lives in the submodules (``lexrag.corpus``, ``lexrag.chunker``,
``lexrag.index``, ``lexrag.retriever``, ``lexrag.evaluator``, ...). This module
imports none of them, so ``import lexrag`` loads no numpy and ``lexrag.cli``
can set up the process before numpy loads.
"""

__version__ = "0.1.0"
