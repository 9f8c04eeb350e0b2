"""Locate gold answer text inside source documents to reconstruct span annotations.

Matching runs in three tiers, cheapest first:

1. exact substring (verbatim occurrence, score 1.0);
2. whitespace-insensitive match through a normalized view of the document
   with an offset map back to raw positions (score 1.0);
3. seed and extend, over the normalized texts (``normalize_for_match``:
   lowercased, whitespace-collapsed, final sigma folded). The answer's
   ``ANCHOR``-character pieces at a stride of ``ANCHOR``, and the piece that
   ends it, are anchors. Each occurrence of an anchor (``str.find``) votes for
   its diagonal, document position minus answer position, unless the anchor
   has more than ``ANCHOR_HITS``. From the earliest diagonal with the most
   votes a chain runs out both ways: each anchor joins at its occurrence
   nearest the chain's diagonal, within ``ANCHOR_DRIFT``, and a moved diagonal
   holds only if the next anchor out occurs on it too. The first and last
   chained anchors place the window. An edge placed by the answer's own first
   or last anchor stays; any other climbs one token boundary at a time,
   outward when that strictly raises the score, else inward when that does,
   keeping the window within ±30% of the answer's length (``WINDOW_SLACK``),
   the right edge first, until neither moves. The score is the multiset
   Jaccard similarity of character 3-gram shingles (``SHINGLE``), its counts
   updated as an edge moves.

A span is returned only when the final score reaches ``MIN_SCORE``; otherwise
the failure carries that score, or says why no window was seeded.

Tiers 2 and 3 read a ``DocumentView`` of the normalized text and its
normalized->raw offset map, built the first time a record of the document misses
tier 1 and shared by the document's later records. The map is a run table, not
one entry per character: normalized and raw offsets differ by a shift that
changes only after a collapsed whitespace run and at "İ", which lowers to two
code points, so the table holds one entry for each of those and an offset's
entry is found with ``bisect``.

A span whose normalized text equals its answer's (any tier-1 span, and a tier-2
span unless its match ends inside an "İ") scores 1.0 in ``alignment_report.json``
without shingling: equal texts have equal shingles.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections import Counter
from dataclasses import asdict, dataclass, replace
from functools import cached_property
from pathlib import Path

from lexrag.corpus import Document, DocumentCollection, GoldSpan, QueryRecord
from lexrag.textutils import normalize_for_match, write_json

# characters per shingle, and the fraction of the answer's length that tier-3
# windows may be shorter or longer by; both are fixed, as in Broder's resemblance
SHINGLE = 3
WINDOW_SLACK = 0.3
# the tier-3 score a span must reach
MIN_SCORE = 0.6
# characters per anchor, and the stride between anchors; an answer shorter than
# one is not seeded, so tier-3 windows hold more than one shingle
ANCHOR = 8
# an anchor found more often than this in the document casts no votes
ANCHOR_HITS = 8
# how far, in characters, the chain's diagonal may move from one anchor to the next
ANCHOR_DRIFT = 16

# the characters that lower to more than one code point: "İ", to "i" and a combining dot
LOWERS_TO_TWO = "İ"
# where normalized and raw offsets move apart: a run of two or more whitespace
# characters collapses to one space, a character of LOWERS_TO_TWO becomes two
_SHIFT = re.compile(rf"\s\s+|[{LOWERS_TO_TWO}]")


@dataclass
class AlignmentFailure:
    score: float
    reason: str


def _shingles(text: str) -> Counter:
    """The multiset of ``text``'s shingles; a text no longer than one is its own."""
    if len(text) <= SHINGLE:
        return Counter((text,) if text else ())
    return Counter(text[i:i + SHINGLE] for i in range(len(text) - SHINGLE + 1))


def _jaccard(a: Counter, b: Counter) -> float:
    if not a and not b:
        return 1.0
    inter = (a & b).total()
    return inter / (a.total() + b.total() - inter)


class RawOffsets:
    """A normalized->raw offset map as a run table: from normalized offset
    ``starts[k]`` up to the next start, the raw offset is the normalized one plus
    ``shifts[k]``. ``offsets[i]`` looks ``i`` up with ``bisect``."""

    __slots__ = ("starts", "shifts", "size")

    def __init__(self, starts: list[int], shifts: list[int], size: int):
        self.starts, self.shifts, self.size = starts, shifts, size

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.size:
            raise IndexError(f"normalized offset {i} not in [0, {self.size})")
        return i + self.shifts[bisect_right(self.starts, i) - 1]


def _normalized_view(text: str) -> tuple[str, RawOffsets]:
    """``normalize_for_match(text)`` and its normalized->raw offset map: a non-space
    character maps to its raw offset, a collapsed space to the first character of
    its run, and each code point a character lowers to ("İ") to it. One entry
    starts the table, and each ``_SHIFT`` match inside the trimmed text adds one."""
    norm = normalize_for_match(text)
    shift = len(text) - len(text.lstrip())
    starts, shifts = [0], [shift]
    for match in _SHIFT.finditer(text, shift, len(text.rstrip())):
        start, end = match.span()
        # the match's first character keeps the shift; what follows it moves by
        # the run's extra characters, or back by the second code point of an "İ"
        starts.append(start - shift + 1)
        shift += end - start - 1 if end - start > 1 else -1
        shifts.append(shift)
    return norm, RawOffsets(starts, shifts, len(norm))


class DocumentView:
    """What tiers 2 and 3 read of one document: ``normalized`` is
    ``_normalized_view(text)``, built on first use."""

    def __init__(self, text: str):
        self.text = text

    @cached_property
    def normalized(self) -> tuple[str, RawOffsets]:
        return _normalized_view(self.text)


def _occurrences(norm: str, anchor: str, start: int, end: int, most: int) -> list[int]:
    """Where ``anchor`` occurs in ``norm[start:end]``, in order, stopping at ``most + 1``."""
    found = []
    pos = norm.find(anchor, start, end)
    while pos != -1 and len(found) <= most:
        found.append(pos)
        pos = norm.find(anchor, pos + 1, end)
    return found


def _chain(norm_doc: str, norm_answer: str) -> list[tuple[int, int]]:
    """The chained anchors as (answer position, diagonal), in answer order; empty
    when no anchor votes."""
    last = len(norm_answer) - ANCHOR  # where the anchor that ends the answer starts
    anchors = [(at, norm_answer[at:at + ANCHOR])
               for at in sorted({*range(0, last + 1, ANCHOR), last})]
    votes, voted = Counter(), []
    for at, anchor in anchors:
        hits = _occurrences(norm_doc, anchor, 0, len(norm_doc), ANCHOR_HITS)
        voted.append([pos - at for pos in hits] if len(hits) <= ANCHOR_HITS else [])
        votes.update(voted[-1])
    if not votes:
        return []
    best = min(votes, key=lambda diagonal: (-votes[diagonal], diagonal))
    first = next(i for i, diagonals in enumerate(voted) if best in diagonals)
    chain = {}
    for order in (anchors[first::-1], anchors[first:]):
        diagonal = best
        for k, (at, anchor) in enumerate(order):
            band = at + diagonal - ANCHOR_DRIFT  # a negative end would count from the back
            hits = _occurrences(norm_doc, anchor, max(0, band),
                                max(0, band + 2 * ANCHOR_DRIFT + ANCHOR), len(norm_doc))
            near = min((pos - at for pos in hits), key=lambda d: abs(d - diagonal), default=None)
            # a move holds only if the next anchor out occurs on the new diagonal too
            if near == diagonal or near is not None and any(
                    after + near >= 0 and norm_doc.startswith(piece, after + near)
                    for after, piece in order[k + 1:k + 2]):
                chain[at] = diagonal = near
    return sorted(chain.items())


def _neighbours(norm: str, edge: int, right: bool) -> list[int]:
    """The token boundaries one token outward and one token inward of ``edge``,
    outward first: token ends (before a space, or the text's end) for a right
    edge, token starts (after a space, or the text's start) for a left one."""
    if right:
        outer = norm.find(" ", edge + 1)
        return [p for p in (len(norm) if outer == -1 else outer, norm.rfind(" ", 0, edge))
                if 0 < p != edge]
    return [p for p in (norm.rfind(" ", 0, edge - 1) + 1 if edge else -1,
                        norm.find(" ", edge) + 1 or -1) if p >= 0]


def _extend(norm: str, want: Counter, lo: int, hi: int, lengths: range,
            moving: list[bool]) -> tuple[int, int, float]:
    """Climb the ``moving`` edges of the window ``[lo, hi)`` (True: the right one)
    in turn, each one token outward when that strictly raises the score, else one
    token inward when that does, keeping the length in ``lengths``, until neither
    moves; the final window and its score."""
    counts = _shingles(norm[lo:hi])
    inter = (counts & want).total()

    def score(lo: int, hi: int, inter: int) -> float:  # windows are longer than a shingle
        return inter / (hi - lo - SHINGLE + 1 + want.total() - inter)

    current, moved = score(lo, hi, inter), True
    while moved:
        moved = False
        for right in moving:
            for new in _neighbours(norm, hi if right else lo, right):
                new_lo, new_hi = (lo, new) if right else (new, hi)
                if new_hi - new_lo not in lengths:
                    continue
                # the shingles starting in [first, last) join the window (sign 1) or leave it
                sign = 1 if new_hi - new_lo > hi - lo else -1
                first, last = sorted((hi - SHINGLE + 1, new - SHINGLE + 1) if right else (lo, new))
                change = Counter(norm[p:p + SHINGLE] for p in range(first, last))
                new_inter = inter + sum(min(counts[s] + sign * k, want[s]) - min(counts[s], want[s])
                                        for s, k in change.items())
                new_score = score(new_lo, new_hi, new_inter)
                if new_score > current:
                    current, lo, hi, inter = new_score, new_lo, new_hi, new_inter
                    counts.update({s: sign * k for s, k in change.items()})
                    moved = True
                    break
    return lo, hi, current


def align_answer(doc: Document, answer: str, *,
                 view: DocumentView | None = None) -> GoldSpan | AlignmentFailure:
    """Find the contiguous span of ``doc`` best matching ``answer``.

    ``view``, when given, is a ``DocumentView`` of ``doc.text``, shared with
    other answers in the same document.
    """
    if not answer:
        raise ValueError("answer must be nonempty")
    text = doc.text
    if len(answer) > len(text):
        return AlignmentFailure(score=0.0, reason="answer longer than document")

    # tier 1: verbatim occurrence
    pos = text.find(answer)
    if pos != -1:
        return GoldSpan(doc_id=doc.doc_id, start=pos, end=pos + len(answer),
                        answer_text=answer)

    # tier 2: whitespace-insensitive occurrence
    if view is None:
        view = DocumentView(text)
    elif view.text != text:
        raise ValueError("view is not of this document")
    norm_doc, offsets = view.normalized
    norm_answer = normalize_for_match(answer)
    if norm_answer:
        npos = norm_doc.find(norm_answer)
        if npos != -1:
            return GoldSpan(doc_id=doc.doc_id, start=offsets[npos],
                            end=offsets[npos + len(norm_answer) - 1] + 1, answer_text=answer)

    # tier 3: seed a window on the anchor chain, then climb its free edges
    if len(norm_answer) < ANCHOR:
        return AlignmentFailure(score=0.0, reason="answer shorter than an anchor")
    chain = _chain(norm_doc, norm_answer)
    if not chain:
        return AlignmentFailure(score=0.0, reason="no anchor of the answer in the document")
    base = len(norm_answer)
    (first_at, first), (last_at, last) = chain[0], chain[-1]
    lo, hi = max(0, first), min(len(norm_doc), last + base)
    if hi - lo < ANCHOR:  # the chain drifted back over a short answer
        hi, last_at = min(len(norm_doc), lo + base), -1
    moving = [True] * (last_at != base - ANCHOR) + [False] * (first_at > 0)  # unpinned edges
    lengths = range(round(base * (1.0 - WINDOW_SLACK)), round(base * (1.0 + WINDOW_SLACK)) + 1)
    lo, hi, score = _extend(norm_doc, _shingles(norm_answer), lo, hi, lengths, moving)

    if score >= MIN_SCORE:
        return GoldSpan(doc_id=doc.doc_id, start=offsets[lo], end=offsets[hi - 1] + 1,
                        answer_text=answer)
    return AlignmentFailure(score=score, reason="best window below min_score")


@dataclass
class AlignmentEntry:
    query_id: str
    status: str  # "aligned" | "below_threshold" | "missing_document" | "missing_context"
    score: float = 0.0
    span: list | None = None


@dataclass
class AlignmentReport:
    entries: list[AlignmentEntry]
    min_score: float

    @property
    def aligned(self) -> int:
        return sum(1 for e in self.entries if e.status == "aligned")

    @property
    def failed(self) -> int:
        return len(self.entries) - self.aligned

    def to_dict(self) -> dict:
        return {"min_score": self.min_score, "aligned": self.aligned,
                "failed": self.failed, "entries": [asdict(e) for e in self.entries]}


def _alignment_score(doc: Document, span: GoldSpan) -> float:
    """The Jaccard of the span's and its answer's shingles, each of its normalized
    text; 1.0, without shingling, when the two texts are equal."""
    found = normalize_for_match(doc.text[span.start:span.end])
    wanted = normalize_for_match(span.answer_text)
    return 1.0 if found == wanted else _jaccard(_shingles(found), _shingles(wanted))


def reconstruct_dataset(records: list[QueryRecord],
                        docs: DocumentCollection) -> tuple[list[QueryRecord], AlignmentReport]:
    """Fill gold spans by aligning each record's context excerpt to its document.

    Records whose source document is missing (or that lack a context excerpt)
    are marked failed; other records are unaffected. Successful records carry
    exactly one reconstructed span whose answer_text is the context excerpt.
    """
    out_records: list[QueryRecord] = []
    entries: list[AlignmentEntry] = []
    view = None  # of the last document aligned; at most one is kept
    for record in records:
        doc = docs.get(record.source_doc_id) if record.source_doc_id else None
        if not record.context_text or doc is None:
            status = "missing_document" if record.context_text else "missing_context"
            entries.append(AlignmentEntry(record.query_id, status))
            out_records.append(record)
            continue
        if view is None or view.text is not doc.text:
            view = DocumentView(doc.text)
        aligned = align_answer(doc, record.context_text, view=view)
        if isinstance(aligned, AlignmentFailure):
            entries.append(AlignmentEntry(record.query_id, "below_threshold",
                                          score=aligned.score))
            out_records.append(record)
            continue
        score = _alignment_score(doc, aligned)
        entries.append(AlignmentEntry(record.query_id, "aligned", score=score,
                                      span=[doc.doc_id, aligned.start, aligned.end]))
        out_records.append(replace(record, gold_spans=[aligned]))
    return out_records, AlignmentReport(entries, MIN_SCORE)


def records_to_snippet_json(records: list[QueryRecord]) -> list[dict]:
    """Re-emit aligned records in the snippet QA schema for uniform evaluation."""
    out = []
    for record in records:
        entry = {"query_id": record.query_id, "query": record.question, "snippets": [
            {"file_path": s.doc_id, "span": [s.start, s.end], "answer": s.answer_text}
            for s in record.gold_spans]}
        if record.gold_answer:
            entry["answer"] = record.gold_answer
        out.append(entry)
    return out


def save_aligned_dataset(records: list[QueryRecord], path: str | Path) -> None:
    write_json(records_to_snippet_json(records), path)
