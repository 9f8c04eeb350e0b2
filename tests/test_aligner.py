import json
from itertools import zip_longest
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lexrag import aligner
from lexrag.aligner import (
    AlignmentFailure,
    DocumentView,
    _normalized_view,
    align_answer,
    records_to_snippet_json,
    reconstruct_dataset,
    save_aligned_dataset,
)
from lexrag.corpus import Document, DocumentCollection, GoldSpan, QueryRecord, load_qa_dataset
from lexrag.textutils import normalize_for_match, normalize_whitespace
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

    def test_fuzzy_path_finds_noisy_region(self, monkeypatch):
        rng = np.random.default_rng(3)
        body = random_document_text(rng, 400)
        original = body[150:350]
        # corrupt a few characters so neither exact tier applies
        noisy = list(original)
        for pos in rng.integers(5, len(noisy) - 5, size=4):
            noisy[int(pos)] = "q"
        noisy = "".join(noisy)
        doc = make_doc("d", body)
        monkeypatch.setattr(aligner, "MIN_SCORE", 0.5)
        result = align_answer(doc, noisy)
        assert isinstance(result, GoldSpan)
        # the found window substantially overlaps the true region
        inter = min(result.end, 350) - max(result.start, 150)
        assert inter > 100

    def test_repeated_occurrence_returns_first(self):
        body = "prefix blah. THE HOLDING IS X. middle. THE HOLDING IS X. tail"
        doc = make_doc("d", body)
        span = align_answer(doc, "THE HOLDING IS X.")
        assert span.start == body.index("THE HOLDING IS X.")


# the aligner's fixed shingle width, window slack and threshold, restated for the oracle
REF_SHINGLE = 3
REF_SLACK = 0.3
REF_MIN_SCORE = 0.6


def _ref_shingles(text: str) -> frozenset[str]:
    if len(text) <= REF_SHINGLE:
        return frozenset((text,)) if text else frozenset()
    return frozenset(text[i:i + REF_SHINGLE] for i in range(len(text) - REF_SHINGLE + 1))


def _ref_jaccard(a: frozenset[str], b: frozenset[str]) -> float:
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    inter = len(a & b)
    return inter / (len(a) + len(b) - inter)


def reference_align_answer(doc: Document, answer: str,
                           min_score: float = REF_MIN_SCORE) -> GoldSpan | AlignmentFailure:
    """Oracle for ``align_answer``: tiers 1 and 2 alike, and tier 3 as it was
    before shingle ids, normalizing and shingling the text of every window."""
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
            start = int(offsets[npos])
            end = int(offsets[npos + len(norm_answer) - 1]) + 1
            return GoldSpan(doc_id=doc.doc_id, start=start, end=end, answer_text=answer)

    # tier 3: fuzzy shingle scan
    answer_shingles = _ref_shingles(norm_answer)

    def score_range(lo: int, hi: int) -> float:
        return _ref_jaccard(_ref_shingles(normalize_for_match(text[lo:hi])), answer_shingles)

    base = len(answer)
    lengths = sorted({
        max(1, round(base * (1.0 - REF_SLACK))),
        base,
        min(len(text), round(base * (1.0 + REF_SLACK))),
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

    if score >= min_score:
        return GoldSpan(doc_id=doc.doc_id, start=lo, end=hi, answer_text=answer)
    return AlignmentFailure(score=max(score, 0.0), reason="best window below min_score")


# lowercase and uppercase letters, characters whose lowercase differs in length
# ("İ") or that are already lowercase ligatures ("ß", "ﬁ"), the Kelvin sign,
# both Greek sigmas, and four kinds of whitespace
_ALPHABET = "aAbBc .İßﬁ\u212aσς\u00a0\t\n"


@st.composite
def alignment_cases(draw):
    # "Σ" lowers by context ("σ", or "ς" at a word's end): half the documents hold it
    alphabet = draw(st.sampled_from([_ALPHABET, _ALPHABET + "Σ"]))
    text = draw(st.text(alphabet, min_size=1, max_size=300))
    if draw(st.booleans()):
        lo = draw(st.integers(0, len(text) - 1))
        chars = list(text[lo:draw(st.integers(lo + 1, len(text)))])
        for _ in range(draw(st.integers(0, 3))):
            chars[draw(st.integers(0, len(chars) - 1))] = draw(st.sampled_from(alphabet))
        answer = "".join(chars)
    else:
        answer = draw(st.text(alphabet, min_size=1, max_size=80))
    return make_doc("d", text), answer, draw(st.sampled_from([0.05, 0.3, 0.6, 1.0]))


def zipf_document(rng: np.random.Generator, n_chars: int) -> str:
    """Zipf(1.15) words over a 3,000-word vocabulary, with sentence and line breaks."""
    vocab = ["".join(rng.choice(list("abcdefghijklmnopqrstuvwxyz"), size=int(rng.integers(2, 10))))
             for _ in range(3000)]
    weights = 1.0 / np.arange(1, len(vocab) + 1) ** 1.15
    picks = rng.choice(len(vocab), size=n_chars // 4, p=weights / weights.sum())
    breaks = rng.choice([" ", ". ", "\n"], size=len(picks), p=[0.9, 0.07, 0.03])
    return "".join(vocab[w] + b for w, b in zip(picks, breaks))[:n_chars]


class TestShingleIdScorer:
    """Tier 3 on shingle ids returns exactly what scoring window strings returns."""

    @settings(max_examples=600, deadline=None)
    @given(alignment_cases())
    # windows of two lengths tie at the best score: the shorter, scanned first, wins
    @example((make_doc("d", "AABbaA "), "BAaB", 0.05))
    def test_same_result_as_string_scorer(self, case):
        doc, answer, min_score = case
        with patch.object(aligner, "MIN_SCORE", min_score):
            assert align_answer(doc, answer) == reference_align_answer(doc, answer, min_score)

    def test_same_spans_on_long_zipf_documents(self):
        rng = np.random.default_rng(11)
        docs = [make_doc(f"case/{i}.txt", zipf_document(rng, 28_000)) for i in range(2)]
        records = []
        for i in range(4):  # two excerpts per document, each with two words replaced
            doc = docs[i // 2]
            lo = doc.text.index(" ", int(rng.integers(0, len(doc.text) - 600))) + 1
            words = doc.text[lo:doc.text.index(" ", lo + 500)].split(" ")
            for j in rng.choice(np.arange(1, len(words) - 1), size=2, replace=False):
                words[j] = "zz" + words[j]
            excerpt = " ".join(words) if i % 2 else "\n ".join(words)
            records.append(QueryRecord(f"q{i}", "?", context_text=excerpt,
                                       source_doc_id=doc.doc_id))
        out, _ = reconstruct_dataset(records, DocumentCollection(docs))
        for record, result in zip(records, out):
            expected = reference_align_answer(docs[int(record.query_id[1:]) // 2],
                                              record.context_text)
            assert isinstance(expected, GoldSpan)
            assert result.gold_spans == [expected]

    def test_capital_sigma_document_has_shingle_ids(self):
        # "ΑΣ" alone lowers to "ας", but inside "ΑΣΑ" to "ασα"; with "ς" folded to
        # "σ" both match, and the document gets shingle ids like any other
        doc = make_doc("d", "ΑΣΑ ΒΒΒ")
        assert DocumentView(doc.text).shingle_ids is not None
        span = align_answer(doc, "ας")
        assert span == reference_align_answer(doc, "ας")
        assert (span.start, span.end) == (0, 2)

    def test_view_of_another_document_rejected(self):
        doc = make_doc("d", "alpha beta gamma")
        with pytest.raises(ValueError):
            align_answer(doc, "beta  gamma", view=DocumentView("other text"))

    def test_code_points_near_the_top_share_one_int64_key(self):
        # three code points near U+10FFFF make keys near 0x110000 ** 3; the ids must
        # still be equal exactly where the shingle strings are, and tier 3 score
        # as the string-set scorer does
        rng = np.random.default_rng(21)
        alphabet = list("ab .") + [chr(0x10FFFF - i) for i in range(3)]
        for _ in range(40):
            text = "".join(rng.choice(alphabet, size=int(rng.integers(3, 120))))
            view = DocumentView(text)
            norm = view.normalized[0]
            ids = view.shingle_ids[0].tolist()
            shingles = [norm[p:p + REF_SHINGLE] for p in range(len(ids))]
            first = {}
            assert ids == [first.setdefault(s, ids[p]) for p, s in enumerate(shingles)]
            assert len(set(ids)) == len(set(shingles))
            doc = make_doc("d", text)
            for _ in range(5):
                lo = int(rng.integers(0, len(text) - 1))
                chars = list(text[lo:lo + int(rng.integers(2, 40))])
                chars[int(rng.integers(len(chars)))] = str(rng.choice(alphabet))
                answer = "".join(chars)
                for min_score in (0.05, REF_MIN_SCORE):
                    with patch.object(aligner, "MIN_SCORE", min_score):
                        assert align_answer(doc, answer, view=view) == \
                            reference_align_answer(doc, answer, min_score)


class TestNormalizedView:
    @pytest.mark.parametrize("separator", ["Α", "Σ"])
    def test_normalize_for_match_works_per_character(self, separator):
        # every code point but surrogates and whitespace (which collapses), each
        # between two separators, so "Σ" meets every neighbour on both sides
        chars = [chr(c) for c in range(0x110000)
                 if not 0xD800 <= c <= 0xDFFF and not chr(c).isspace()]
        whole = normalize_for_match(separator.join(chars))
        parts = normalize_for_match(separator).join(map(normalize_for_match, chars))
        if whole != parts:  # report a few characters: a diff of 2M would take minutes
            at = next(i for i, (x, y) in enumerate(zip_longest(whole, parts)) if x != y)
            pytest.fail(f"forms differ at {at}: {whole[at:at + 8]!r} != {parts[at:at + 8]!r}")

    @settings(max_examples=300, deadline=None)
    @given(st.text("aΑΣσς İ\u00a0\t\nb.", max_size=60))
    def test_text_is_normalize_for_match(self, text):
        assert _normalized_view(text)[0] == normalize_for_match(text)

    def test_reflowed_greek_excerpt_found_by_whitespace_tier(self, monkeypatch):
        def no_fuzzy_scan(*args):
            raise AssertionError("tier 3 reached")
        monkeypatch.setattr(aligner, "_shingles", no_fuzzy_scan)
        body = "Προοίμιο. Ο ΝΟΜΟΣ ΚΑΙ Η ΤΑΞΗ ορίζουν τα όρια της εξουσίας."
        doc = make_doc("d", body)
        span = align_answer(doc, "Ο ΝΟΜΟΣ  ΚΑΙ Η\nΤΑΞΗ ορίζουν")
        assert doc.text[span.start:span.end] == "Ο ΝΟΜΟΣ ΚΑΙ Η ΤΑΞΗ ορίζουν"


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
        assert payload["min_score"] == aligner.MIN_SCORE == REF_MIN_SCORE
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
