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

A summary is a list of at most ``SUMMARY_TOKEN_CAP`` whitespace-split tokens, from
one of two summarizers: the extractive one (leading sentences, round-robin) or a
remote endpoint, whose failed windows fall back to the extractive summary and are
flagged. ``[SUMMARY]`` enters the header only before a summary of at least one
token. Remote calls run in a pool of ``max_workers`` threads (``lexrag enrich
--workers``); extractive summaries run in a plain loop, whatever it says.

Enrichment returns a copy of the chunk with only the header fields set; it
never touches offsets or text, so retrieval metrics always score against the
original document positions.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

from lexrag.chunker import Chunk, count_tokens, dump_chunks, load_chunks
from lexrag.corpus import DocumentMeta
from lexrag.textutils import split_sentences

SUMMARY_TOKEN_CAP = 200
# consecutive chunks per summary window
WINDOW = 4


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


def extractive_summary(texts: list[str], budget_tokens: int) -> list[str]:
    """The first ``budget_tokens`` tokens of the texts' leading sentences, taken
    round-robin.

    Round r takes the (r+1)-th sentence of every text that still has one, in
    input order, until the token budget is reached. Deterministic; returns []
    when every text is empty.
    """
    return _round_robin_summary([_counted_sentences(t) for t in texts], budget_tokens)


def _counted_sentences(text: str) -> tuple[list[str], list[int]]:
    """A text's sentences and the token count of each."""
    sentences = split_sentences(text)
    return sentences, [count_tokens(s) for s in sentences]


def _round_robin_summary(split_texts: list[tuple[list[str], list[int]]],
                         budget_tokens: int) -> list[str]:
    """``extractive_summary`` over texts already split by ``_counted_sentences``."""
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
    return " ".join(picked).split()[:budget_tokens]


def window_start(position: int, n_chunks: int, window: int) -> int:
    """Start of the window whose center is nearest list position ``position``;
    ties go to the earlier window.

    Windows start at 0 ... max(n_chunks - window, 0), and a window's center is
    its start plus (window - 1) / 2: the nearest start is ``position - window // 2``
    (of two equally near, the lower), clamped to that range.
    """
    return min(max(position - window // 2, 0), max(n_chunks - window, 0))


def window_summaries(chunks: list[Chunk], remote: RemoteSummarizer | None = None,
                     max_workers: int = 1) -> list[tuple[list[str], bool]]:
    """Summarize overlapping windows of consecutive chunks from one document,
    the i-th ``(tokens, fell_back)`` pair that of the window starting at list
    position i.

    Without ``remote`` every summary is extractive. With it, each window is one
    ``remote.summarize`` call, up to ``max_workers`` at a time, and its reply keeps
    its first ``SUMMARY_TOKEN_CAP`` tokens; a call that fails takes the window's
    extractive summary and sets ``fell_back``, so the pipeline always completes.
    Results are kept in window order, whatever order the calls finish in.
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

    def extractive_at(pos: int) -> list[str]:
        for i in range(pos, min(pos + WINDOW, len(chunks))):
            if split_texts[i] is None:
                split_texts[i] = _counted_sentences(chunks[i].text)
        return _round_robin_summary(split_texts[pos:pos + WINDOW], SUMMARY_TOKEN_CAP)

    if remote is None:
        return [(extractive_at(pos), False) for pos in starts]

    def remote_at(pos: int) -> list[str] | None:
        try:
            return remote.summarize([c.text for c in chunks[pos:pos + WINDOW]],
                                    SUMMARY_TOKEN_CAP).split()[:SUMMARY_TOKEN_CAP]
        except Exception:
            return None

    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        replies = list(pool.map(remote_at, starts))
    return [(extractive_at(pos), True) if tokens is None else (tokens, False)
            for pos, tokens in zip(starts, replies)]


def header_tokens(meta: DocumentMeta, summary: list[str]) -> list[str]:
    """The full header as tokens: ``[DOC]`` and the document fields that are set,
    then ``[SUMMARY]`` and the summary if it has a token."""
    doc_fields = [f for f in (meta.title, meta.jurisdiction or "", meta.doc_type or "") if f]
    tokens = ("[DOC] " + " | ".join(doc_fields)).split() if doc_fields else []
    if summary:
        tokens += ["[SUMMARY]", *summary]
    return tokens


def enrich_chunk(chunk: Chunk, meta: DocumentMeta, summary: list[str],
                 fallback: bool = False) -> Chunk:
    """Set the metadata header, its first ``body_tokens // 3`` tokens at most, so
    that ``header_tokens / (header_tokens + body_tokens) <= 1/4``.

    An empty header yields full_text identical to the chunk text.
    """
    tokens = header_tokens(meta, summary)
    body_tokens = count_tokens(chunk.text)
    n_header = min(len(tokens), body_tokens // 3)
    if n_header and tokens[n_header - 1] in ("[SUMMARY]", "[DOC]"):
        n_header -= 1  # do not leave a dangling section marker
    return replace(
        chunk,
        header_text=" ".join(tokens[:n_header]),
        metadata_fraction=n_header / (n_header + body_tokens) if n_header else 0.0,
        summary_fallback=fallback,
    )


def enrich_document_chunks(chunks: list[Chunk], meta: DocumentMeta,
                           remote: RemoteSummarizer | None = None,
                           max_workers: int = 1) -> list[Chunk]:
    """Full enrichment for one document's chunk list."""
    summaries = window_summaries(chunks, remote, max_workers)
    return [enrich_chunk(chunk, meta, *summaries[window_start(i, len(chunks), WINDOW)])
            for i, chunk in enumerate(chunks)]


# The enriched file has its own reader/writer names because perfbench's tracer
# times them as enrichment I/O; both are the chunk file pair.
def dump_enriched(chunks: list[Chunk], path: str | Path) -> None:
    dump_chunks(chunks, path)


def load_enriched(path: str | Path) -> list[Chunk]:
    return load_chunks(path)
