"""Locate gold answer text inside source documents to reconstruct span annotations.

Matching runs in three tiers, cheapest first:

1. exact substring (verbatim occurrence, score 1.0);
2. whitespace-insensitive match through a normalized view of the document
   with an offset map back to raw positions (score 1.0);
3. fuzzy scan: candidate windows with lengths within a slack of the answer
   length slide across the document at a coarse step, scored by Jaccard
   similarity of character 3-gram shingles over normalized lowercased text;
   the best window is then shrunk greedily from both ends while the score
   does not decrease (ties shrink from the right first).

A span is returned only when the final score clears ``min_score``; otherwise
the failure carries the best score seen so it can be audited per dataset.

Tiers 2 and 3 read a ``DocumentView``, built the first time a record of the
document misses tier 1 and shared by the document's later records. It holds
the normalized text, its raw-offset map and, for tier 3, one integer id per
shingle position. A raw window maps to a normalized range by two binary
searches on the offsets, and its distinct shingles are the positions whose
previous occurrence of the same id lies before the range, so a window is
scored without building any string. The score is the same integer ratio as
the Jaccard of the window's normalized text, hence the same float. The one
exception is a document containing a capital sigma "Σ": ``str.lower`` lowers
it by context (word-final "ς"), so lowering a window can differ from lowering
the document, and such a document is scored on the window strings instead.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from lexrag.configs import AlignConfig
from lexrag.corpus import Document, DocumentCollection, GoldSpan, QueryRecord
from lexrag.textutils import normalize_for_match, write_json

# window characters per scoring call in the coarse scan: bounds its temporaries
# (a 2D pass over all windows at once grows peak memory with document length)
_SCAN_CELLS = 1 << 15


@dataclass
class AlignmentFailure:
    score: float
    reason: str


def _shingles(text: str, size: int) -> frozenset[str]:
    if len(text) <= size:
        return frozenset((text,)) if text else frozenset()
    return frozenset(text[i:i + size] for i in range(len(text) - size + 1))


def _jaccard(a: frozenset[str], b: frozenset[str]) -> float:
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    inter = len(a & b)
    return inter / (len(a) + len(b) - inter)


def _normalized_view(text: str) -> tuple[str, np.ndarray]:
    """Lowercased whitespace-collapsed text plus normalized->raw offset map.

    The text is ``normalize_for_match(text)``. Lowering it whole lowers each
    non-space run as a unit, since a space ends the context by which a
    word-final "Σ" lowers to "ς". Each non-space character maps to its raw
    offset, each collapsed space to the first character of its run, and a
    character that lowers to several code points ("İ") maps each of them to
    its offset.
    """
    norm = normalize_for_match(text)
    codes = _code_points(text)
    space = np.zeros(len(codes), dtype=bool)
    for ch in set(text):
        if ch.isspace():
            space |= codes == ord(ch)
    keep = ~space
    keep[1:] |= space[1:] & ~space[:-1]
    offsets = np.flatnonzero(keep)
    if len(offsets) and space[offsets[-1]]:  # trailing whitespace collapses to nothing
        offsets = offsets[:-1]
    if len(offsets) != len(norm):
        offsets = np.repeat(offsets, [len(text[i].lower()) for i in offsets.tolist()])
    return norm, offsets


def _code_points(text: str) -> np.ndarray:
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)


class DocumentView:
    """What tiers 2 and 3 read of one document, each part built on first use.

    ``normalized`` is ``_normalized_view(text)``. ``shingle_ids`` gives, for each
    normalized position ``p`` that starts a full shingle, the int32 id of
    ``norm[p:p + shingle_size]`` (equal strings, equal ids), the last earlier
    position holding the same id (-1 for none) and the first position of each
    id; it is None for a text containing "Σ" (see the module docstring).
    """

    def __init__(self, text: str, shingle_size: int):
        self.text = text
        self.shingle_size = shingle_size

    @cached_property
    def normalized(self) -> tuple[str, np.ndarray]:
        return _normalized_view(self.text)

    @cached_property
    def shingle_ids(self) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        if "Σ" in self.text:
            return None
        norm, size = self.normalized[0], self.shingle_size
        codes = _code_points(norm).astype(np.int64)
        count = max(0, len(norm) - size + 1)
        # each shingle as a number, its code points the digits; renumbered densely
        # whenever the next digit could overflow int64
        base = int(codes.max(initial=0)) + 1
        keys, bound = codes[:count], base
        for j in range(1, size):
            if bound * base >= 2 ** 63:
                distinct, keys = np.unique(keys, return_inverse=True)
                bound = len(distinct)
            keys = keys * base + codes[j:j + count]
            bound *= base
        order = np.argsort(keys, kind="stable")
        starts_id = np.ones(count, dtype=bool)  # in sorted order: the first of its id
        starts_id[1:] = keys[order[1:]] != keys[order[:-1]]
        ids = np.empty(count, dtype=np.int32)
        ids[order] = np.cumsum(starts_id) - 1
        prev = np.full(count, -1, dtype=np.int32)
        prev[order[1:][~starts_id[1:]]] = order[:-1][~starts_id[1:]]
        return ids, prev, order[starts_id].astype(np.int32)


def _string_scorer(text: str, answer_shingles: frozenset[str], size: int):
    """Jaccard of each raw window's normalized text, built as a string."""
    def score(los: np.ndarray, his: np.ndarray) -> np.ndarray:
        return np.array([
            _jaccard(_shingles(normalize_for_match(text[lo:hi]), size), answer_shingles)
            for lo, hi in zip(los.tolist(), his.tolist())], dtype=np.float64)
    return score


def _array_scorer(view: DocumentView, answer_shingles: frozenset[str]):
    """The same scores as ``_string_scorer``, counted on the view's shingle ids."""
    norm, offsets = view.normalized
    ids, prev, first = view.shingle_ids
    size, n_answer = view.shingle_size, len(answer_shingles)
    in_answer = np.fromiter((norm[p:p + size] in answer_shingles for p in first.tolist()),
                            dtype=bool, count=len(first))[ids]
    # one False past the end, so the edge tests below may index len(norm) and -1
    space = np.append(_code_points(norm) == ord(" "), False)

    def score(los: np.ndarray, his: np.ndarray) -> np.ndarray:
        a = np.searchsorted(offsets, los)
        b = np.searchsorted(offsets, his)
        a += (a < b) & space[a]  # strip() drops one collapsed space at each edge
        b -= (b > a) & space[b - 1]
        short = b - a <= size
        ends = np.where(short, a, b - size + 1)  # full shingles start in [a, ends)
        pos = a[:, None] + np.arange(int((ends - a).max(initial=0)))
        new = (pos < ends[:, None]) & (prev.take(pos, mode="clip") < a[:, None])
        distinct = np.count_nonzero(new, axis=1)
        inter = np.count_nonzero(new & in_answer.take(pos, mode="clip"), axis=1)
        for i in np.flatnonzero(short):  # the whole window is one shingle, or none
            window = norm[a[i]:b[i]]
            distinct[i], inter[i] = bool(window), window in answer_shingles
        if not n_answer:
            return (distinct == 0).astype(np.float64)
        return np.where(distinct == 0, 0.0, inter / (n_answer + distinct - inter))
    return score


def align_answer(doc: Document, answer: str, cfg: AlignConfig | None = None, *,
                 view: DocumentView | None = None) -> GoldSpan | AlignmentFailure:
    """Find the minimal contiguous span of ``doc`` best matching ``answer``.

    ``view``, when given, is a ``DocumentView`` of ``doc.text`` at the config's
    shingle size, shared with other answers in the same document.
    """
    cfg = cfg or AlignConfig()
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
        view = DocumentView(text, cfg.shingle_size)
    elif view.text != text or view.shingle_size != cfg.shingle_size:
        raise ValueError("view is not of this document at this shingle size")
    norm_doc, offsets = view.normalized
    norm_answer = normalize_for_match(answer)
    if norm_answer:
        npos = norm_doc.find(norm_answer)
        if npos != -1:
            start = int(offsets[npos])
            end = int(offsets[npos + len(norm_answer) - 1]) + 1
            return GoldSpan(doc_id=doc.doc_id, start=start, end=end, answer_text=answer)

    # tier 3: fuzzy shingle scan
    answer_shingles = _shingles(norm_answer, cfg.shingle_size)
    score_windows = (_string_scorer(text, answer_shingles, cfg.shingle_size)
                     if view.shingle_ids is None else _array_scorer(view, answer_shingles))

    base = len(answer)
    lengths = sorted({
        max(1, round(base * (1.0 - cfg.max_window_slack))),
        base,
        min(len(text), round(base * (1.0 + cfg.max_window_slack))),
    })
    step = max(1, base // 10)
    best_score = -1.0
    best_lo, best_hi = 0, min(base, len(text))
    for length in lengths:
        last_start = max(0, len(text) - length)
        starts = np.arange(0, last_start + 1, step)
        if starts[-1] != last_start:
            starts = np.append(starts, last_start)
        block = max(1, _SCAN_CELLS // length)
        for first in range(0, len(starts), block):
            los = starts[first:first + block]
            scores = score_windows(los, los + length)
            i = int(np.argmax(scores))  # the first best window, as a scan in order keeps it
            if scores[i] > best_score:
                best_score, best_lo, best_hi = float(scores[i]), int(los[i]), int(los[i]) + length

    lo, hi, score = best_lo, best_hi, best_score
    while hi - lo > 1:
        score_right, score_left = score_windows(np.array([lo, lo + 1]), np.array([hi - 1, hi]))
        if score_right >= score and score_right >= score_left:
            hi -= 1
            score = float(score_right)
        elif score_left >= score:
            lo += 1
            score = float(score_left)
        else:
            break

    if score >= cfg.min_score:
        return GoldSpan(doc_id=doc.doc_id, start=lo, end=hi, answer_text=answer)
    return AlignmentFailure(score=max(score, 0.0), reason="best window below min_score")


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


def _alignment_score(doc: Document, span: GoldSpan, cfg: AlignConfig) -> float:
    return _jaccard(
        _shingles(normalize_for_match(doc.text[span.start:span.end]), cfg.shingle_size),
        _shingles(normalize_for_match(span.answer_text), cfg.shingle_size))


def reconstruct_dataset(records: list[QueryRecord], docs: DocumentCollection,
                        cfg: AlignConfig | None = None) -> tuple[list[QueryRecord], AlignmentReport]:
    """Fill gold spans by aligning each record's context excerpt to its document.

    Records whose source document is missing (or that lack a context excerpt)
    are marked failed; other records are unaffected. Successful records carry
    exactly one reconstructed span whose answer_text is the context excerpt.
    """
    cfg = cfg or AlignConfig()
    out_records: list[QueryRecord] = []
    entries: list[AlignmentEntry] = []
    view = None  # of the last document aligned; at most one is kept
    for record in records:
        if not record.context_text:
            entries.append(AlignmentEntry(record.query_id, "missing_context"))
            out_records.append(record)
            continue
        doc = docs.get(record.source_doc_id) if record.source_doc_id else None
        if doc is None:
            entries.append(AlignmentEntry(record.query_id, "missing_document"))
            out_records.append(record)
            continue
        if view is None or view.text is not doc.text:
            view = DocumentView(doc.text, cfg.shingle_size)
        aligned = align_answer(doc, record.context_text, cfg, view=view)
        if isinstance(aligned, AlignmentFailure):
            entries.append(AlignmentEntry(record.query_id, "below_threshold",
                                          score=aligned.score))
            out_records.append(record)
            continue
        score = _alignment_score(doc, aligned, cfg)
        entries.append(AlignmentEntry(record.query_id, "aligned", score=score,
                                      span=[doc.doc_id, aligned.start, aligned.end]))
        out_records.append(replace(record, gold_spans=[aligned]))
    return out_records, AlignmentReport(entries, cfg.min_score)


def records_to_snippet_json(records: list[QueryRecord]) -> list[dict]:
    """Re-emit aligned records in the snippet QA schema for uniform evaluation."""
    out = []
    for record in records:
        entry = {
            "query_id": record.query_id,
            "query": record.question,
            "snippets": [
                {"file_path": s.doc_id, "span": [s.start, s.end], "answer": s.answer_text}
                for s in record.gold_spans
            ],
        }
        if record.gold_answer:
            entry["answer"] = record.gold_answer
        out.append(entry)
    return out


def save_aligned_dataset(records: list[QueryRecord], path: str | Path) -> None:
    write_json(records_to_snippet_json(records), path)
