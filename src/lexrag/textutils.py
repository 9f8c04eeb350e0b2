"""Shared text helpers: tokenization, whitespace normalization, sentence splitting,
and the JSON-lines reader/writer pair for the ``*.jsonl`` files the pipeline writes.

Two distinct token notions coexist in this package and must not be mixed up:

* budget tokens -- maximal whitespace-delimited segments, used for chunk
  sizing and overlap (see ``chunker.count_tokens``);
* index terms -- lowercased alphanumeric runs, used by the sparse index,
  the deterministic embedder, and token-level F1 (``tokenize`` below).
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Iterable, Iterator

_WS_RUN = re.compile(r"\s+")
_WORD = re.compile(r"\w+", re.UNICODE)
_SENTENCE_BREAK = re.compile(r"(?<=[.!?])\s+")
_TERMINAL_PUNCT = re.compile(r"[\s.,;:!?'\"…]+$")


def normalize_whitespace(text: str) -> str:
    """Collapse whitespace runs to single spaces and trim. Case-preserving."""
    return _WS_RUN.sub(" ", text).strip()


def tokenize(text: str) -> list[str]:
    """Lowercased, punctuation-stripped terms for indexing and scoring."""
    return _WORD.findall(text.lower())


def split_sentences(text: str) -> list[str]:
    """Split on sentence-final punctuation followed by whitespace."""
    stripped = text.strip()
    if not stripped:
        return []
    return [s for s in _SENTENCE_BREAK.split(stripped) if s]


def normalize_for_match(text: str) -> str:
    """Lowercased whitespace-collapsed form used by fuzzy matching and refusal checks."""
    return normalize_whitespace(text).lower()


def strip_terminal_punctuation(text: str) -> str:
    return _TERMINAL_PUNCT.sub("", text)


def write_jsonl(rows: Iterable[dict], path: str | Path) -> None:
    """One JSON object per line, keys sorted and non-ASCII kept, so reruns are byte-identical."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False, sort_keys=True) + "\n")


def read_jsonl(path: str | Path) -> Iterator[dict]:
    """Yield the objects of a JSON-lines file in order, skipping blank lines."""
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                yield json.loads(line)
