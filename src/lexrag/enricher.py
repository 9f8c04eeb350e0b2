"""Metadata enrichment of chunks: document header plus local window summaries.

Each chunk gets a header of the form ``[DOC] title | jurisdiction | type
[SUMMARY] <local summary>``, which ``Chunk.full_text`` puts before its text.
Summaries describe overlapping windows of 4 consecutive chunks; each chunk
takes the summary of the window whose center is nearest its ordinal. The
header is truncated from the summary end so it never exceeds the configured
fraction of the enriched chunk's tokens (default 25%).

Enrichment returns a copy of the chunk with only the header fields set; it
never touches offsets or text, so retrieval metrics always score against the
original document positions.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Protocol

from lexrag.chunker import Chunk, count_tokens, dump_chunks, load_chunks
from lexrag.corpus import DocumentMeta
from lexrag.textutils import split_sentences

SUMMARY_TOKEN_CAP = 200
DEFAULT_WINDOW = 4


class SummarizerProvider(Protocol):
    """Contract for summary backends: a batch of texts in, one summary out.

    Deterministic backends must return identical output for identical input.
    """

    def summarize(self, texts: list[str], max_tokens: int) -> str: ...


@dataclass
class WindowSummary:
    window_start_ordinal: int
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


def window_positions(n_chunks: int, window: int, stride: int) -> list[int]:
    """Window start ordinals: 0, stride, ... plus the final full window."""
    if n_chunks <= 0:
        return []
    last = max(n_chunks - window, 0)
    positions = list(range(0, last + 1, stride))
    if positions[-1] != last:
        positions.append(last)
    return positions


def nearest_window_index(ordinal: int, positions: list[int], window: int) -> int:
    """Index of the window whose center is nearest the ordinal; ties go earlier.

    ``positions`` (window start ordinals) must be ascending. A window's center
    is its start plus (window - 1) / 2, so the nearest center belongs to the
    start nearest ``ordinal - (window - 1) / 2``: one of the two around it.
    """
    target = ordinal - (window - 1) / 2.0
    i = bisect_left(positions, target)
    if i > 0 and (i == len(positions) or target - positions[i - 1] <= positions[i] - target):
        i = bisect_left(positions, positions[i - 1])  # the first of equal starts
    return i


def window_summaries(chunks: list[Chunk], provider: SummarizerProvider,
                     window: int = DEFAULT_WINDOW, stride: int = 1,
                     max_workers: int = 1) -> list[WindowSummary]:
    """Summarize overlapping windows of consecutive chunks from one document.

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
    if window < 1 or stride < 1:
        raise ValueError("window and stride must be >= 1")

    positions = window_positions(len(chunks), window, stride)
    # each chunk's sentences, split on first use and shared by the windows holding it
    split_texts: list[tuple[list[str], list[int]] | None] = [None] * len(chunks)

    def extractive_at(pos: int) -> str:
        for i in range(pos, min(pos + window, len(chunks))):
            if split_texts[i] is None:
                split_texts[i] = _counted_sentences(chunks[i].text)
        return _round_robin_summary(split_texts[pos:pos + window], SUMMARY_TOKEN_CAP)

    def summarize_at(pos: int) -> tuple[str, bool]:
        if isinstance(provider, ExtractiveSummarizer):
            return extractive_at(pos), False
        try:
            return provider.summarize([c.text for c in chunks[pos:pos + window]],
                                      SUMMARY_TOKEN_CAP), False
        except Exception:
            return extractive_at(pos), True

    if max_workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            results = list(pool.map(summarize_at, positions))
    else:
        results = [summarize_at(p) for p in positions]

    summaries = []
    for pos, (text, fell_back) in zip(positions, results):
        tokens = text.split()
        if len(tokens) > SUMMARY_TOKEN_CAP:
            text = " ".join(tokens[:SUMMARY_TOKEN_CAP])
        summaries.append(WindowSummary(window_start_ordinal=chunks[pos].ordinal,
                                       summary_text=text, fallback=fell_back))
    return summaries


def build_header(meta: DocumentMeta, summary_text: str) -> str:
    doc_fields = [f for f in (meta.title, meta.jurisdiction or "", meta.doc_type or "") if f]
    parts = []
    if doc_fields:
        parts.append("[DOC] " + " | ".join(doc_fields))
    if summary_text:
        parts.append("[SUMMARY] " + summary_text)
    return " ".join(parts)


def header_budget(n_header: int, body_tokens: int, max_fraction: float) -> int:
    """The most header tokens, at most ``n_header``, that keep the header's share
    ``h / (h + body_tokens)`` at or below ``max_fraction``, or 0 if none do.

    Starts from the real-valued bound ``max_fraction * body / (1 - max_fraction)``
    and settles the boundary with the float test itself. The computed share
    rises with h (rounding is monotone), so the answer is where the test flips.
    """
    h = min(n_header, int(max_fraction * body_tokens / (1 - max_fraction)))
    while h < n_header and (h + 1) / (h + 1 + body_tokens) <= max_fraction:
        h += 1
    while h and h / (h + body_tokens) > max_fraction:
        h -= 1
    return h


def enrich_chunk(chunk: Chunk, meta: DocumentMeta, summary: WindowSummary | None,
                 max_fraction: float = 0.25) -> Chunk:
    """Set the metadata header, truncated to the token-fraction budget.

    Header tokens are dropped from the end until
    ``header_tokens / (header_tokens + body_tokens) <= max_fraction``
    (``header_budget``).
    An empty header yields full_text identical to the chunk text.
    """
    if not (0 < max_fraction < 1):
        raise ValueError("max_fraction must be in (0, 1)")
    summary_text = summary.summary_text if summary is not None else ""
    header_tokens = build_header(meta, summary_text).split()
    body_tokens = count_tokens(chunk.text)
    n_header = header_budget(len(header_tokens), body_tokens, max_fraction)
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
                           provider: SummarizerProvider,
                           window: int = DEFAULT_WINDOW, stride: int = 1,
                           max_fraction: float = 0.25,
                           max_workers: int = 1) -> list[Chunk]:
    """Full enrichment for one document's chunk list."""
    if not chunks:
        return []
    summaries = window_summaries(chunks, provider, window=window, stride=stride,
                                 max_workers=max_workers)
    positions = [s.window_start_ordinal for s in summaries]
    enriched = []
    for chunk in chunks:
        summary = summaries[nearest_window_index(chunk.ordinal, positions, window)]
        enriched.append(enrich_chunk(chunk, meta, summary, max_fraction=max_fraction))
    return enriched


# The enriched file has its own reader/writer names because perfbench's tracer
# times them as enrichment I/O; both are the chunk file pair.
def dump_enriched(chunks: list[Chunk], path: str | Path) -> None:
    dump_chunks(chunks, path)


def load_enriched(path: str | Path) -> list[Chunk]:
    return load_chunks(path)
