"""Recursive character splitting into offset-tracked chunks with token overlap.

The splitter walks a separator hierarchy (paragraph, line, sentence, word,
character) and greedily packs pieces into chunks under a token budget, then
realizes overlap by extending each chunk's start backward to include the tail
tokens of its predecessor. Chunk text is always an exact slice of the source
document; nothing is ever copied or rewritten, so downstream span metrics can
score against original character offsets.

Tokens here are maximal whitespace-delimited segments (see ``count_tokens``).
Piece weights are per-piece token counts; summed weights can only overestimate
the merged text's token count, which keeps the packing bound safe.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from lexrag.configs import ChunkConfig
from lexrag.corpus import Document
from lexrag.textutils import read_jsonl, write_jsonl

_NONSPACE = re.compile(r"\S+")

DEFAULT_SEPARATORS = ["\n\n", "\n", ". ", " ", ""]

# the types a chunk row's keys may hold, matched exactly: JSON true is no int
_ROW_TYPES = {**dict.fromkeys(("chunk_id", "doc_id", "text", "header_text", "full_text"), (str,)),
              **dict.fromkeys(("start", "end", "ordinal", "core_start"), (int,)),
              **dict.fromkeys(("hard_split", "summary_fallback"), (bool,)),
              "metadata_fraction": (int, float)}


def count_tokens(text: str) -> int:
    """Number of maximal nonempty whitespace-delimited segments."""
    return len(text.split())


@dataclass
class Chunk:
    """One chunk record, bare or enriched.

    A bare chunk has ``header_text`` None. Enrichment (``enricher.enrich_chunk``)
    sets the header and its token share and leaves every other field as is, so
    ``text`` stays the exact document slice while ``full_text`` is what gets
    indexed.
    """

    chunk_id: str
    doc_id: str
    start: int
    end: int
    text: str
    ordinal: int
    core_start: int = 0  # where this chunk's own (non-overlap) region begins
    hard_split: bool = False
    header_text: str | None = None
    metadata_fraction: float = 0.0
    summary_fallback: bool = False

    @property
    def full_text(self) -> str:
        return self.header_text + "\n" + self.text if self.header_text else self.text

    def to_dict(self) -> dict:
        d = {
            "chunk_id": self.chunk_id,
            "doc_id": self.doc_id,
            "start": self.start,
            "end": self.end,
            "text": self.text,
            "ordinal": self.ordinal,
            "core_start": self.core_start,
            "hard_split": self.hard_split,
        }
        if self.header_text is not None:
            d.update(header_text=self.header_text, full_text=self.full_text,
                     metadata_fraction=self.metadata_fraction,
                     summary_fallback=self.summary_fallback)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Chunk":
        """The chunk a ``to_dict`` row holds; a missing key, one holding a value of
        another type, or one whose value ``_check_values`` rejects is a ValueError
        naming it."""
        for key, kinds in _ROW_TYPES.items():
            if key in d and type(d[key]) not in kinds:
                raise ValueError(f"chunk {d.get('chunk_id')!r}: key {key!r} holds "
                                 f"{type(d[key]).__name__}, not {kinds[-1].__name__}")
        try:
            chunk = cls(
                chunk_id=d["chunk_id"], doc_id=d["doc_id"], start=d["start"], end=d["end"],
                text=d["text"], ordinal=d["ordinal"],
                core_start=d.get("core_start", d["start"]),
                hard_split=d.get("hard_split", False),
            )
            if "header_text" in d or "full_text" in d:
                chunk.header_text = d["header_text"]
                chunk.metadata_fraction = d["metadata_fraction"]
                chunk.summary_fallback = d.get("summary_fallback", False)
                if d["full_text"] != chunk.full_text:
                    raise ValueError(f"chunk {chunk.chunk_id!r}: stored full_text is not "
                                     f"header_text + newline + text")
        except KeyError as exc:
            raise ValueError(f"chunk {d.get('chunk_id')!r}: missing key {exc.args[0]!r}") from None
        chunk._check_values()
        return chunk

    def _check_values(self) -> None:
        """Offsets 0 <= start <= core_start <= end, text of length end - start,
        ordinal >= 0 and metadata_fraction in [0, 1], as the chunker and the
        enricher write them."""
        if self.start < 0:
            raise self._bad("start", "below 0")
        if self.end < self.start:
            raise self._bad("end", f"below start {self.start}")
        if not self.start <= self.core_start <= self.end:
            raise self._bad("core_start", f"outside [start, end] = [{self.start}, {self.end}]")
        if len(self.text) != self.end - self.start:
            raise ValueError(f"chunk {self.chunk_id!r}: key 'text' holds {len(self.text)} "
                             f"characters, not end - start = {self.end - self.start}")
        if self.ordinal < 0:
            raise self._bad("ordinal", "below 0")
        if not 0.0 <= self.metadata_fraction <= 1.0:  # NaN fails too
            raise self._bad("metadata_fraction", "not in [0, 1]")

    def _bad(self, key: str, why: str) -> ValueError:
        return ValueError(f"chunk {self.chunk_id!r}: key {key!r} holds "
                          f"{getattr(self, key)!r}, {why}")


@dataclass
class _Core:
    """A chunk's own region before overlap extension: [start, end), packed weight."""

    start: int
    end: int
    weight: int
    hard: bool


class _CorePacker:
    """Greedy accumulator emitting core intervals in document order.

    The document's first core may use the full target; every later core
    reserves ``overlap`` tokens of capacity for the tail it will borrow from
    its predecessor. A single piece over capacity stands as its own core (the
    overlap borrow shrinks instead, see ``split_recursive``). Pieces with zero
    weight (pure whitespace) never force an emit; they glue to the open core.
    """

    def __init__(self, target: int, overlap: int):
        self.target = target
        self.overlap = overlap
        self.cores: list[_Core] = []
        self._start: int | None = None
        self._end = 0
        self._weight = 0
        self._hard = False

    def _capacity(self) -> int:
        if not self.cores:
            return self.target
        return max(1, self.target - self.overlap)

    def add(self, start: int, end: int, weight: int, hard: bool) -> None:
        if self._start is None:
            self._start, self._end = start, end
            self._weight, self._hard = weight, hard
            return
        if self._weight > 0 and weight > 0 and self._weight + weight > self._capacity():
            self.flush()
            if self._start is None:
                self._start, self._end = start, end
                self._weight, self._hard = weight, hard
                return
        self._end = end
        self._weight += weight
        self._hard = self._hard or hard

    def flush(self, force: bool = False) -> None:
        """Emit the open region as a core.

        A token-free region (pure whitespace) is glued to the previous core,
        or kept open to merge into whatever comes next, so no chunk ever
        consists solely of whitespace; ``force`` (end of document) emits it
        regardless when there is no neighbor to glue to.
        """
        if self._start is None:
            return
        if self._weight == 0:
            if self.cores:
                self.cores[-1].end = self._end
            elif not force:
                return  # keep open; the next add() will absorb it
            else:
                self.cores.append(_Core(self._start, self._end, 0, self._hard))
        else:
            self.cores.append(_Core(self._start, self._end, self._weight, self._hard))
        self._start = None
        self._end = 0
        self._weight = 0
        self._hard = False


def _find_boundaries(text: str, lo: int, hi: int, sep: str) -> list[int]:
    """Starts of non-overlapping separator occurrences strictly inside (lo, hi)."""
    boundaries = []
    pos = text.find(sep, lo, hi)
    while pos != -1:
        if pos > lo:
            boundaries.append(pos)
        pos = text.find(sep, pos + len(sep), hi)
    return boundaries


def _emit_cores(text: str, lo: int, hi: int, separators: list[str], target: int,
                packer: _CorePacker) -> None:
    """Split [lo, hi) at the first occurring separator and pack the parts.

    Parts within budget accumulate greedily at this level; an oversized part
    flushes the accumulator and recurses with the remaining separators, so a
    chunk never spans the boundary of a region that needed deeper splitting.
    The "" fallback packs single characters (whitespace weighs 0) and marks
    the resulting cores hard, recording that they were cut mid-token.
    """
    if lo >= hi:
        return
    for si, sep in enumerate(separators):
        if sep == "":
            for i in range(lo, hi):
                packer.add(i, i + 1, 0 if text[i].isspace() else 1, True)
            packer.flush()
            return
        boundaries = _find_boundaries(text, lo, hi, sep)
        if not boundaries:
            continue
        rest = separators[si + 1:]
        edges = [lo] + boundaries + [hi]
        for plo, phi in zip(edges, edges[1:]):
            w = count_tokens(text[plo:phi])
            if w <= target:
                packer.add(plo, phi, w, False)
            else:
                packer.flush()
                _emit_cores(text, plo, phi, rest, target, packer)
        packer.flush()
        return
    # no separator occurs in the region: it is one indivisible piece
    packer.add(lo, hi, count_tokens(text[lo:hi]), False)
    packer.flush()


def split_recursive(doc: Document, cfg: ChunkConfig | None = None) -> list[Chunk]:
    """Split a document into offset-tracked chunks under the token budget.

    Every chunk satisfies ``count_tokens(text) <= target_tokens``. Consecutive
    chunks overlap by exactly ``overlap_tokens`` tokens of the earlier chunk's
    tail whenever that many whole tokens can be borrowed without exceeding the
    budget or swallowing the earlier chunk entirely.
    """
    cfg = cfg or ChunkConfig()
    text = doc.text
    if not text:
        return []

    packer = _CorePacker(cfg.target_tokens, cfg.overlap_tokens)
    _emit_cores(text, 0, len(text), DEFAULT_SEPARATORS, cfg.target_tokens, packer)
    packer.flush(force=True)

    chunks: list[Chunk] = []
    prev: Chunk | None = None
    for ordinal, core in enumerate(packer.cores):
        start = core.start
        if prev is not None and cfg.overlap_tokens > 0:
            # rsplit scans from the end, so only the borrowed tail is looked at
            tail = prev.text.rsplit(None, cfg.overlap_tokens)
            borrow = min(len(tail) - 1, cfg.target_tokens - core.weight)
            if borrow > 0:
                head = prev.text.rsplit(None, borrow)[0]  # ends at the last unborrowed token
                start = _NONSPACE.search(text, prev.start + len(head)).start()
        chunk = Chunk(
            chunk_id=f"{doc.doc_id}#{ordinal:06d}",
            doc_id=doc.doc_id,
            start=start,
            end=core.end,
            text=text[start:core.end],
            ordinal=ordinal,
            core_start=core.start,
            hard_split=core.hard,
        )
        chunks.append(chunk)
        prev = chunk
    return chunks


def dump_chunks(chunks: list[Chunk], path: str | Path) -> None:
    """Write chunks as JSON-lines, one chunk per line with all fields."""
    write_jsonl((chunk.to_dict() for chunk in chunks), path)


def load_chunks(path: str | Path, data: bytes | None = None) -> list[Chunk]:
    """Read a bare or enriched chunk file (from ``data``, its bytes, when given);
    a bad row or a repeated chunk_id is a ValueError."""
    chunks = []
    seen: set[str] = set()
    for number, row in read_jsonl(path, data):
        try:
            chunk = Chunk.from_dict(row)
        except ValueError as exc:
            raise ValueError(f"{path}, line {number}: {exc}") from None
        if chunk.chunk_id in seen:
            raise ValueError(f"repeated chunk_id {chunk.chunk_id!r} in {path}")
        seen.add(chunk.chunk_id)
        chunks.append(chunk)
    return chunks
