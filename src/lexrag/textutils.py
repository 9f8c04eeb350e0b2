"""Shared text helpers: tokenization, whitespace normalization, sentence splitting,
file checksums, and the only code that knows how the pipeline's JSON files look
on disk:

* ``write_jsonl`` / ``read_jsonl`` -- JSON-lines files, one object per line;
* ``write_json`` / ``read_json`` -- whole-file JSON (reports, headers, configs).

Both writers sort keys and keep non-ASCII text, so reruns are byte-identical;
both readers, and ``read_text`` under them, raise a ValueError naming the file
(and line) for bad input, bytes that are not UTF-8 included.

Two distinct token notions coexist in this package and must not be mixed up:

* budget tokens -- maximal whitespace-delimited segments, used for chunk
  sizing and overlap (see ``chunker.count_tokens``);
* index terms -- lowercased alphanumeric runs, used by the sparse index,
  the deterministic embedder, and token-level F1 (``tokenize`` below).
  ``embedding.term_rows`` tokenizes a batch of texts once into integer term
  ids, which the sparse index build and the deterministic embedder both read.

This module loads no numpy, so the commands that only read and write text
(ingest, chunk, enrich) never load it.
"""

from __future__ import annotations

import hashlib
import io
import json
import re
from pathlib import Path
from typing import Iterable, Iterator

_WS_RUN = re.compile(r"\s+")
_SENTENCE_BREAK = re.compile(r"(?<=[.!?])\s+")
_TERMINAL_PUNCT = re.compile(r"[\s.,;:!?'\"…]+$")
# what errors="surrogateescape" decodes a byte that is not UTF-8 to
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


def normalize_whitespace(text: str) -> str:
    """Collapse whitespace runs to single spaces and trim. Case-preserving."""
    return _WS_RUN.sub(" ", text).strip()


class _WordTable(dict):
    """``str.translate`` table that keeps word characters and maps every other
    code point to a space, filled as code points are first seen.

    A word character is one that ``re``'s Unicode ``\\w`` matches: alphanumeric
    (``str.isalnum``) or the underscore. No word character is whitespace, so
    ``split()`` on the translated text yields exactly the ``\\w+`` runs.
    """

    def __missing__(self, code_point: int) -> int:
        char = chr(code_point)
        value = code_point if char.isalnum() or char == "_" else ord(" ")
        self[code_point] = value
        return value


_WORD_TABLE = _WordTable()


def tokenize(text: str) -> list[str]:
    """Lowercased, punctuation-stripped terms for indexing and scoring: the
    ``\\w+`` runs of the lowercased text."""
    return text.lower().translate(_WORD_TABLE).split()


def split_sentences(text: str) -> list[str]:
    """Split on sentence-final punctuation followed by whitespace."""
    stripped = text.strip()
    if not stripped:
        return []
    return [s for s in _SENTENCE_BREAK.split(stripped) if s]


def normalize_for_match(text: str) -> str:
    """Lowercased, whitespace-collapsed form used by fuzzy matching and refusal checks.

    Word-final "ς" is folded to "σ": ``str.lower`` lowers "Σ" to either by its
    neighbours, and with the fold every character lowers alone, so the form of a
    slice of a text is the matching slice of the text's form (whitespace aside).
    """
    return normalize_whitespace(text).lower().replace("ς", "σ")


def strip_terminal_punctuation(text: str) -> str:
    return _TERMINAL_PUNCT.sub("", text)


def write_jsonl(rows: Iterable[dict], path: str | Path) -> None:
    """One JSON object per line, keys sorted and non-ASCII kept, so reruns are byte-identical."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False, sort_keys=True) + "\n")


def write_json(payload, path: str | Path) -> None:
    """Pretty JSON (indent 2, keys sorted, non-ASCII kept) plus a trailing newline."""
    Path(path).write_text(json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True)
                          + "\n", encoding="utf-8")


def sha256_file(path: str | Path) -> str:
    """Hex SHA-256 of a file, read in 1 MiB blocks."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def read_text(path: str | Path) -> str:
    """A UTF-8 text file's content, with universal newlines.

    A byte that is not UTF-8 is a ValueError naming the path and its line.
    """
    text = Path(path).read_text(encoding="utf-8", errors="surrogateescape")
    _check_utf8(text, path)
    return text


def _check_utf8(text: str, path: str | Path, line: int = 1) -> None:
    """Raise the ValueError for the first byte that was not UTF-8 in ``text``,
    which was read with errors="surrogateescape" and starts on line ``line``."""
    bad = None if text.isascii() else _ESCAPED_BYTE.search(text)
    if bad:
        line += text.count("\n", 0, bad.start())
        raise ValueError(f"{path}, line {line}: not UTF-8 text "
                         f"(byte 0x{ord(bad.group()) - 0xDC00:02x})")


def read_json(path: str | Path, kind: type = dict):
    """The JSON value a whole file holds, which must be a ``kind`` (dict or list).

    Text that is not UTF-8 or not valid JSON is a ValueError naming the path and
    line; a top-level value of another type is a ValueError naming the path.
    """
    try:
        value = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}, line {exc.lineno}: not valid JSON "
                         f"({exc.msg}, column {exc.colno})") from None
    if not isinstance(value, kind):
        raise ValueError(f"{path}: not a JSON {'object' if kind is dict else 'array'}")
    return value


class _DigestingFile(io.FileIO):
    """A file opened for unbuffered reading that feeds every byte it reads to ``digest``."""

    def __init__(self, path: str | Path, digest) -> None:
        super().__init__(str(path))  # so that errors name a Path as open()'s do
        self._digest = digest

    def readinto(self, buffer) -> int:
        size = super().readinto(buffer)
        if size:
            self._digest.update(memoryview(buffer)[:size])
        return size


def read_jsonl(path: str | Path, digest=None) -> Iterator[tuple[int, dict]]:
    """Yield (1-based line number, object) for each nonblank line of a JSON-lines file.

    The file is read as a stream and decoded as UTF-8 with universal newlines.
    ``digest``, when given (a ``hashlib`` object), is fed each of its bytes as they
    are read, so once every line is read it digests exactly the bytes that were
    parsed. A line that is not UTF-8 or not a JSON object is a ValueError naming
    the path and the line number.
    """
    raw = open(path, "rb", buffering=0) if digest is None else _DigestingFile(path, digest)
    binary = io.BufferedReader(raw, 1 << 16)
    with io.TextIOWrapper(binary, encoding="utf-8", errors="surrogateescape") as fh:
        for number, line in enumerate(fh, 1):
            _check_utf8(line, path, number)
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}, line {number}: not valid JSON "
                                 f"({exc.msg}, column {exc.colno})") from None
            if not isinstance(row, dict):
                raise ValueError(f"{path}, line {number}: not a JSON object")
            yield number, row
