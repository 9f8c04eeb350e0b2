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
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path

from lexrag.configs import ChunkConfig
from lexrag.corpus import Document
from lexrag.schema import BOOLEAN, INTEGER, NUMBER, REQUIRED_STRING, check, invalid
from lexrag.textutils import read_jsonl, write_jsonl

_NONSPACE = re.compile(r"\S+")

DEFAULT_SEPARATORS = ["\n\n", "\n", ". ", " ", ""]

# a chunk row, as ``Chunk.to_dict`` writes it (see ``lexrag.schema``); metadata_fraction last
CHUNK_ROW = (
    ("chunk_id", *REQUIRED_STRING), ("doc_id", *REQUIRED_STRING), ("text", *REQUIRED_STRING),
    ("start", INTEGER, True, None, "an integer"), ("end", INTEGER, True, None, "an integer"),
    ("ordinal", INTEGER, True, lambda value: value >= 0, "an integer >= 0"),
    ("core_start", INTEGER, False, None, "an integer"),
    ("hard_split", BOOLEAN, False, None, "a boolean"),
    ("summary_fallback", BOOLEAN, False, None, "a boolean"),
    ("metadata_fraction", NUMBER, False, lambda value: 0 <= value <= 1, "a number in [0, 1]"))
# an enriched row: the same rows, with the header's keys (metadata_fraction too) required
ENRICHED_ROW = (*CHUNK_ROW[:-1], ("metadata_fraction", NUMBER, True, *CHUNK_ROW[-1][3:]),
                ("header_text", *REQUIRED_STRING), ("full_text", *REQUIRED_STRING))


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
        """The chunk a ``to_dict`` row holds; a ValueError names its chunk id and the key
        where ``ENRICHED_ROW`` (for a row with a header_text or a full_text) or
        ``CHUNK_ROW`` rejects it, or its offsets, text and full_text disagree."""
        where = f"chunk {d.get('chunk_id')!r}"
        enriched = "header_text" in d or "full_text" in d
        check(d, ENRICHED_ROW if enriched else CHUNK_ROW, where)
        start, end, text = d["start"], d["end"], d["text"]
        core_start = d.get("core_start", start)
        if not 0 <= start <= core_start <= end or len(text) != end - start:
            raise _offsets_error(start, core_start, end, len(text), where)
        # positional, in field order: keywords cost ~0.4 µs more a row on Python 3.11
        chunk = cls(d["chunk_id"], d["doc_id"], start, end, text, d["ordinal"], core_start,
                    d.get("hard_split", False))
        if enriched:
            chunk.header_text = d["header_text"]
            chunk.metadata_fraction = d["metadata_fraction"]
            chunk.summary_fallback = d.get("summary_fallback", False)
            if d["full_text"] != chunk.full_text:
                raise ValueError(f"{where}: key 'full_text' is not header_text + newline "
                                 f"+ text")
        return chunk


def _offsets_error(start: int, core_start: int, end: int, length: int, where: str) -> ValueError:
    """Which of 0 <= start <= core_start <= end and len(text) == end - start fails."""
    if start < 0:
        return invalid(where, "start", "an integer >= 0", start)
    if end < start:
        return invalid(where, "end", f"an integer >= start = {start}", end)
    if not start <= core_start <= end:
        return invalid(where, "core_start", f"an integer in [start, end] = [{start}, {end}]",
                       core_start)
    return ValueError(f"{where}: key 'text' must hold end - start = {end - start} "
                      f"characters, not {length}")


class FullTexts(Sequence[str]):
    """The ``full_text`` of each chunk of a list, made when it is read: what an index
    build embeds and tokenizes, without a list that holds every text at once."""

    def __init__(self, chunks: Sequence[Chunk]):
        self._chunks = chunks

    def __len__(self) -> int:
        return len(self._chunks)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [chunk.full_text for chunk in self._chunks[i]]
        return self._chunks[i].full_text

    def __iter__(self) -> Iterator[str]:
        return (chunk.full_text for chunk in self._chunks)


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


def load_chunks(path: str | Path, digest=None) -> list[Chunk]:
    """Read a bare or enriched chunk file as a stream that feeds ``digest`` (see
    ``read_jsonl``); a bad row or a repeated chunk_id is a ValueError."""
    chunks = []
    seen: set[str] = set()
    for number, row in read_jsonl(path, digest):
        try:
            chunk = Chunk.from_dict(row)
        except ValueError as exc:
            raise ValueError(f"{path}, line {number}: {exc}") from None
        if chunk.chunk_id in seen:
            raise ValueError(f"repeated chunk_id {chunk.chunk_id!r} in {path}")
        seen.add(chunk.chunk_id)
        chunks.append(chunk)
    return chunks
