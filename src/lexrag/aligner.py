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
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from pathlib import Path

from lexrag.corpus import Document, DocumentCollection, GoldSpan, QueryRecord
from lexrag.textutils import normalize_for_match, write_json


@dataclass
class AlignConfig:
    shingle_size: int = 3
    min_score: float = 0.6
    max_window_slack: float = 0.3

    def __post_init__(self) -> None:
        if self.shingle_size < 1:
            raise ValueError("shingle_size must be >= 1")
        if not (0.0 < self.min_score <= 1.0):
            raise ValueError("min_score must be in (0, 1]")
        if self.max_window_slack < 0.0:
            raise ValueError("max_window_slack must be >= 0")


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


def _normalized_view(text: str) -> tuple[str, list[int]]:
    """Lowercased whitespace-collapsed text plus normalized->raw offset map."""
    chars: list[str] = []
    offsets: list[int] = []
    pending_space_at = -1
    for i, ch in enumerate(text):
        if ch.isspace():
            if chars and pending_space_at < 0:
                pending_space_at = i
            continue
        if pending_space_at >= 0:
            chars.append(" ")
            offsets.append(pending_space_at)
            pending_space_at = -1
        chars.append(ch.lower())
        offsets.append(i)
    norm = "".join(chars)
    if len(norm) != len(offsets):  # some character lowers to several code points ("İ")
        offsets = [offset for piece, offset in zip(chars, offsets) for _ in piece]
    return norm, offsets


def align_answer(doc: Document, answer: str,
                 cfg: AlignConfig | None = None) -> GoldSpan | AlignmentFailure:
    """Find the minimal contiguous span of ``doc`` best matching ``answer``."""
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
    norm_doc, offsets = _normalized_view(text)
    norm_answer = normalize_for_match(answer)
    if norm_answer:
        npos = norm_doc.find(norm_answer)
        if npos != -1:
            start = offsets[npos]
            end = offsets[npos + len(norm_answer) - 1] + 1
            return GoldSpan(doc_id=doc.doc_id, start=start, end=end, answer_text=answer)

    # tier 3: fuzzy shingle scan
    answer_shingles = _shingles(norm_answer, cfg.shingle_size)

    def score_range(lo: int, hi: int) -> float:
        return _jaccard(_shingles(normalize_for_match(text[lo:hi]), cfg.shingle_size),
                        answer_shingles)

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
        starts = list(range(0, last_start + 1, step))
        if starts[-1] != last_start:
            starts.append(last_start)
        for lo in starts:
            s = score_range(lo, lo + length)
            if s > best_score:
                best_score, best_lo, best_hi = s, lo, lo + length

    lo, hi, score = best_lo, best_hi, best_score
    while hi - lo > 1:
        score_right = score_range(lo, hi - 1)
        score_left = score_range(lo + 1, hi)
        if score_right >= score and score_right >= score_left:
            hi -= 1
            score = score_right
        elif score_left >= score:
            lo += 1
            score = score_left
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
        aligned = align_answer(doc, record.context_text, cfg)
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
