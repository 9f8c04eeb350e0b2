"""Metadata enrichment of chunks: document header plus local window summaries.

Each chunk gets a header of the form ``[DOC] title | jurisdiction | type
[SUMMARY] <local summary>``, which ``Chunk.full_text`` puts before its text.
Summaries describe overlapping windows of ``WINDOW`` (4) consecutive chunks, one
starting at each chunk that leaves a full window (stride 1). Each chunk takes the
summary of the window whose center is nearest its position in the document's
chunk list, which in every file ``lexrag chunk`` writes is its ordinal. The
header is truncated from the summary end to at most a quarter of the enriched
chunk's tokens: ``h / (h + body) <= 1/4`` holds exactly when ``3h <= body``, so
a chunk keeps at most ``body // 3`` header tokens.

Enrichment returns a copy of the chunk with only the header fields set; it
never touches offsets or text, so retrieval metrics always score against the
original document positions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Protocol

from lexrag.chunker import Chunk, count_tokens, dump_chunks, load_chunks
from lexrag.corpus import DocumentMeta
from lexrag.textutils import split_sentences

SUMMARY_TOKEN_CAP = 200
# consecutive chunks per summary window
WINDOW = 4


class SummarizerProvider(Protocol):
    """Contract for summary backends: a batch of texts in, one summary out.

    Deterministic backends must return identical output for identical input.
    """

    def summarize(self, texts: list[str], max_tokens: int) -> str: ...


@dataclass
class WindowSummary:
    summary_text: str
    fallback: bool = False


class ExtractiveSummarizer:
    """Deterministic offline summarizer: round-robin leading sentences."""

    def summarize(self, texts: list[str], max_tokens: int) -> str:
        return extractive_fallback_summary(texts, max_tokens)


class RemoteSummarizer:
    """HTTP summarizer: {"texts": [...], "max_tokens": N} -> {"summary": "..."}."""

    def __init__(self, config):
        self.config = config

    def summarize(self, texts: list[str], max_tokens: int) -> str:
        from lexrag.remote import post_json

        response = post_json(self.config, {"texts": list(texts), "max_tokens": max_tokens})
        summary = response.get("summary")
        if not isinstance(summary, str):
            raise ValueError(f"summarizer returned no summary field: {response!r}")
        return summary


def extractive_fallback_summary(texts: list[str], budget_tokens: int) -> str:
    """Concatenate leading sentences of each text round-robin, then truncate.

    Round r takes the (r+1)-th sentence of every text that still has one, in
    input order, until the token budget is reached. Deterministic; returns ""
    when every text is empty.
    """
    return _round_robin_summary([_counted_sentences(t) for t in texts], budget_tokens)


def _counted_sentences(text: str) -> tuple[list[str], list[int]]:
    """A text's sentences and the token count of each."""
    sentences = split_sentences(text)
    return sentences, [count_tokens(s) for s in sentences]


def _round_robin_summary(split_texts: list[tuple[list[str], list[int]]],
                         budget_tokens: int) -> str:
    """``extractive_fallback_summary`` over texts already split by ``_counted_sentences``."""
    if budget_tokens < 1:
        raise ValueError("budget_tokens must be >= 1")
    picked: list[str] = []
    total = 0
    for round_idx in range(max((len(s) for s, _ in split_texts), default=0)):
        for sentences, counts in split_texts:
            if round_idx >= len(sentences):
                continue
            picked.append(sentences[round_idx])
            total += counts[round_idx]
            if total >= budget_tokens:
                break
        if total >= budget_tokens:
            break
    tokens = " ".join(picked).split()
    return " ".join(tokens[:budget_tokens])


def window_start(position: int, n_chunks: int, window: int) -> int:
    """Start of the window whose center is nearest list position ``position``;
    ties go to the earlier window.

    Windows start at 0 ... max(n_chunks - window, 0), and a window's center is
    its start plus (window - 1) / 2: the nearest start is ``position - window // 2``
    (of two equally near, the lower), clamped to that range.
    """
    return min(max(position - window // 2, 0), max(n_chunks - window, 0))


def window_summaries(chunks: list[Chunk], provider: SummarizerProvider,
                     max_workers: int = 1) -> list[WindowSummary]:
    """Summarize overlapping windows of consecutive chunks from one document,
    the i-th summary that of the window starting at list position i.

    Provider failures fall back to the extractive summary for that window and
    set the fallback flag; the pipeline always completes. Provider calls may
    run concurrently (``max_workers``); results are keyed by window position,
    so output is independent of completion order.
    """
    if not chunks:
        return []
    doc_ids = {c.doc_id for c in chunks}
    if len(doc_ids) != 1:
        raise ValueError(f"window_summaries expects chunks from one document, got {sorted(doc_ids)}")
    ordinals = [c.ordinal for c in chunks]
    if ordinals != sorted(ordinals):
        raise ValueError("chunks must be ordered by ordinal")

    starts = range(max(len(chunks) - WINDOW, 0) + 1)
    # each chunk's sentences, split on first use and shared by the windows holding it
    split_texts: list[tuple[list[str], list[int]] | None] = [None] * len(chunks)

    def extractive_at(pos: int) -> str:
        for i in range(pos, min(pos + WINDOW, len(chunks))):
            if split_texts[i] is None:
                split_texts[i] = _counted_sentences(chunks[i].text)
        return _round_robin_summary(split_texts[pos:pos + WINDOW], SUMMARY_TOKEN_CAP)

    def summarize_at(pos: int) -> tuple[str, bool]:
        if isinstance(provider, ExtractiveSummarizer):
            return extractive_at(pos), False
        try:
            return provider.summarize([c.text for c in chunks[pos:pos + WINDOW]],
                                      SUMMARY_TOKEN_CAP), False
        except Exception:
            return extractive_at(pos), True

    if max_workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            results = list(pool.map(summarize_at, starts))
    else:
        results = [summarize_at(p) for p in starts]

    summaries = []
    for text, fell_back in results:
        tokens = text.split()
        if len(tokens) > SUMMARY_TOKEN_CAP:
            text = " ".join(tokens[:SUMMARY_TOKEN_CAP])
        summaries.append(WindowSummary(summary_text=text, fallback=fell_back))
    return summaries


def build_header(meta: DocumentMeta, summary_text: str) -> str:
    doc_fields = [f for f in (meta.title, meta.jurisdiction or "", meta.doc_type or "") if f]
    parts = []
    if doc_fields:
        parts.append("[DOC] " + " | ".join(doc_fields))
    if summary_text:
        parts.append("[SUMMARY] " + summary_text)
    return " ".join(parts)


def enrich_chunk(chunk: Chunk, meta: DocumentMeta, summary: WindowSummary | None) -> Chunk:
    """Set the metadata header, its first ``body_tokens // 3`` tokens at most, so
    that ``header_tokens / (header_tokens + body_tokens) <= 1/4``.

    An empty header yields full_text identical to the chunk text.
    """
    summary_text = summary.summary_text if summary is not None else ""
    header_tokens = build_header(meta, summary_text).split()
    body_tokens = count_tokens(chunk.text)
    n_header = min(len(header_tokens), body_tokens // 3)
    if n_header and header_tokens[n_header - 1] in ("[SUMMARY]", "[DOC]"):
        n_header -= 1  # do not leave a dangling section marker
    header = " ".join(header_tokens[:n_header])
    return replace(
        chunk,
        header_text=header,
        metadata_fraction=n_header / (n_header + body_tokens) if n_header else 0.0,
        summary_fallback=summary.fallback if summary is not None else False,
    )


def enrich_document_chunks(chunks: list[Chunk], meta: DocumentMeta,
                           provider: SummarizerProvider, max_workers: int = 1) -> list[Chunk]:
    """Full enrichment for one document's chunk list."""
    summaries = window_summaries(chunks, provider, max_workers=max_workers)
    return [enrich_chunk(chunk, meta, summaries[window_start(i, len(chunks), WINDOW)])
            for i, chunk in enumerate(chunks)]


# The enriched file has its own reader/writer names because perfbench's tracer
# times them as enrichment I/O; both are the chunk file pair.
def dump_enriched(chunks: list[Chunk], path: str | Path) -> None:
    dump_chunks(chunks, path)


def load_enriched(path: str | Path) -> list[Chunk]:
    return load_chunks(path)
