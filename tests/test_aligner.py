import json

import numpy as np
import pytest

from lexrag.aligner import (
    AlignConfig,
    AlignmentFailure,
    align_answer,
    records_to_snippet_json,
    reconstruct_dataset,
    save_aligned_dataset,
)
from lexrag.corpus import DocumentCollection, GoldSpan, QueryRecord, load_qa_dataset
from lexrag.textutils import normalize_whitespace
from tests.conftest import make_doc, random_document_text


def rewrap(text: str, rng: np.random.Generator) -> str:
    """Perturb whitespace only: random line breaks and doubled spaces."""
    words = text.split()
    out = []
    for i, word in enumerate(words):
        out.append(word)
        if i == len(words) - 1:
            break
        roll = rng.random()
        if roll < 0.15:
            out.append("\n")
        elif roll < 0.25:
            out.append("  ")
        else:
            out.append(" ")
    return "".join(out)


class TestAlignAnswer:
    def test_verbatim_answer_exact_span(self):
        rng = np.random.default_rng(0)
        body = random_document_text(rng, 300)
        answer = body[120:260]
        doc = make_doc("d", body)
        span = align_answer(doc, answer)
        assert isinstance(span, GoldSpan)
        assert doc.text[span.start:span.end] == answer

    def test_disjoint_vocabulary_fails_with_low_score(self):
        doc = make_doc("d", "aaaa bbbb cccc dddd eeee ffff gggg hhhh " * 10)
        result = align_answer(doc, "zzzz yyyy xxxx wwww vvvv uuuu")
        assert isinstance(result, AlignmentFailure)
        assert result.score < 0.2

    def test_whitespace_perturbed_answer_normalized_equality(self):
        rng = np.random.default_rng(1)
        body = random_document_text(rng, 400)
        original = body[100:320]
        perturbed = rewrap(original, rng)
        assert perturbed != original
        doc = make_doc("d", body)
        span = align_answer(doc, perturbed)
        assert isinstance(span, GoldSpan)
        piece = doc.text[span.start:span.end]
        assert normalize_whitespace(piece) == normalize_whitespace(perturbed)

    def test_whitespace_match_after_multi_code_point_lowercase(self):
        # "İ".lower() is two code points; offsets after it must not drift
        doc = make_doc("d", "İstanbul court.  The   tenant shall pay rent monthly.")
        span = align_answer(doc, "the tenant shall  pay rent")
        assert isinstance(span, GoldSpan)
        assert (span.start, span.end) == (17, 44)
        assert doc.text[span.start:span.end] == "The   tenant shall pay rent"

    def test_answer_longer_than_document(self):
        doc = make_doc("d", "short text")
        result = align_answer(doc, "x" * 100)
        assert isinstance(result, AlignmentFailure)

    def test_empty_answer_rejected(self):
        with pytest.raises(ValueError):
            align_answer(make_doc("d", "text"), "")

    def test_idempotent_on_unique_slices(self):
        rng = np.random.default_rng(2)
        body = random_document_text(rng, 350)
        answer = body[50:200]
        doc = make_doc("d", body)
        first = align_answer(doc, answer)
        assert isinstance(first, GoldSpan)
        again = align_answer(doc, doc.text[first.start:first.end])
        assert isinstance(again, GoldSpan)
        assert doc.text[again.start:again.end] == doc.text[first.start:first.end]

    def test_fuzzy_path_finds_noisy_region(self):
        rng = np.random.default_rng(3)
        body = random_document_text(rng, 400)
        original = body[150:350]
        # corrupt a few characters so neither exact tier applies
        noisy = list(original)
        for pos in rng.integers(5, len(noisy) - 5, size=4):
            noisy[int(pos)] = "q"
        noisy = "".join(noisy)
        doc = make_doc("d", body)
        result = align_answer(doc, noisy, AlignConfig(min_score=0.5))
        assert isinstance(result, GoldSpan)
        # the found window substantially overlaps the true region
        inter = min(result.end, 350) - max(result.start, 150)
        assert inter > 100

    def test_repeated_occurrence_returns_first(self):
        body = "prefix blah. THE HOLDING IS X. middle. THE HOLDING IS X. tail"
        doc = make_doc("d", body)
        span = align_answer(doc, "THE HOLDING IS X.")
        assert span.start == body.index("THE HOLDING IS X.")


def aus_records(docs: list, rng: np.random.Generator, n: int = 10,
                perturb: set[int] = frozenset()):
    records = []
    for i in range(n):
        doc = docs[i % len(docs)]
        lo = int(rng.integers(0, max(1, len(doc.text) - 260)))
        excerpt = doc.text[lo:lo + 240]
        if i in perturb:
            excerpt = rewrap(excerpt, rng)
        records.append(QueryRecord(
            query_id=f"q{i:03d}", question=f"question {i}?",
            gold_answer=f"answer {i}", context_text=excerpt,
            source_doc_id=doc.doc_id))
    return records


class TestReconstructDataset:
    def _docs(self, rng, n=4):
        return [make_doc(f"court/case{i}.txt", random_document_text(rng, 500))
                for i in range(n)]

    def test_exact_excerpts_align(self):
        rng = np.random.default_rng(4)
        docs = self._docs(rng)
        records = aus_records(docs, rng, n=6)
        out, report = reconstruct_dataset(records, DocumentCollection(docs))
        assert report.aligned == 6
        assert all(len(r.gold_spans) == 1 for r in out)
        for r in out:
            entry = next(e for e in report.entries if e.query_id == r.query_id)
            assert entry.status == "aligned"
            assert entry.score == 1.0

    def test_missing_document_isolated(self):
        rng = np.random.default_rng(5)
        docs = self._docs(rng, n=2)
        records = aus_records(docs, rng, n=4)
        records[2].source_doc_id = "court/gone.txt"
        out, report = reconstruct_dataset(records, DocumentCollection(docs))
        statuses = {e.query_id: e.status for e in report.entries}
        assert statuses["q002"] == "missing_document"
        assert report.aligned == 3
        assert out[2].gold_spans == []

    def test_perturbed_contexts_flagged_below_perfect(self):
        rng = np.random.default_rng(6)
        docs = self._docs(rng)
        records = aus_records(docs, rng, n=10, perturb={3, 7})
        out, report = reconstruct_dataset(records, DocumentCollection(docs))
        assert report.aligned == 10
        by_id = {e.query_id: e for e in report.entries}
        # perturbed ones matched via the normalized tier; their raw slices differ
        for i in (3, 7):
            rec = out[i]
            span = rec.gold_spans[0]
            doc = next(d for d in docs if d.doc_id == span.doc_id)
            piece = doc.text[span.start:span.end]
            assert piece != rec.context_text
            assert normalize_whitespace(piece) == normalize_whitespace(rec.context_text)
            assert by_id[f"q{i:03d}"].score >= 0.9

    def test_missing_context_flagged(self):
        rng = np.random.default_rng(7)
        docs = self._docs(rng, n=2)
        record = QueryRecord("q0", "q?", gold_answer="a", context_text=None,
                             source_doc_id=docs[0].doc_id)
        _, report = reconstruct_dataset([record], DocumentCollection(docs))
        assert report.entries[0].status == "missing_context"

    def test_report_is_json_serializable(self):
        rng = np.random.default_rng(8)
        docs = self._docs(rng, n=2)
        records = aus_records(docs, rng, n=3)
        _, report = reconstruct_dataset(records, DocumentCollection(docs))
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["min_score"] == 0.6
        assert payload["aligned"] == 3


class TestSnippetReemission:
    def test_round_trip_through_snippet_loader(self, tmp_path):
        rng = np.random.default_rng(9)
        docs = [make_doc("court/caseA.txt", random_document_text(rng, 400))]
        records = aus_records(docs, rng, n=3)
        aligned, _ = reconstruct_dataset(records, DocumentCollection(docs))
        path = tmp_path / "aligned.json"
        save_aligned_dataset(aligned, path)
        loaded, errors = load_qa_dataset(path, "snippet_qa")
        assert not errors
        assert len(loaded) == 3
        for original, reread in zip(aligned, loaded):
            assert reread.query_id == original.query_id
            assert reread.question == original.question
            assert [(s.doc_id, s.start, s.end) for s in reread.gold_spans] == \
                [(s.doc_id, s.start, s.end) for s in original.gold_spans]

    def test_snippet_schema_fields(self):
        record = QueryRecord("q1", "what?", gold_spans=[GoldSpan("d.txt", 3, 9, "answer")],
                             gold_answer="the answer")
        payload = records_to_snippet_json([record])
        assert payload == [{
            "query_id": "q1",
            "query": "what?",
            "snippets": [{"file_path": "d.txt", "span": [3, 9], "answer": "answer"}],
            "answer": "the answer",
        }]
