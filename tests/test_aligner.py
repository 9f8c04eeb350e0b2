import json
import re
import unicodedata
from collections import Counter
from itertools import zip_longest
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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


# the aligner's fixed shingle width, window slack, threshold, anchor length,
# anchor occurrence cap and chain drift, restated for the oracle
REF_SHINGLE = 3
REF_SLACK = 0.3
REF_MIN_SCORE = 0.6
REF_ANCHOR = 8
REF_ANCHOR_HITS = 8
REF_DRIFT = 16


def _ref_shingles(text: str) -> Counter:
    if len(text) <= REF_SHINGLE:
        return Counter((text,) if text else ())
    return Counter(text[i:i + REF_SHINGLE] for i in range(len(text) - REF_SHINGLE + 1))


def _ref_jaccard(a: Counter, b: Counter) -> float:
    """Multiset Jaccard: shared counts over the counts of either."""
    if not a and not b:
        return 1.0
    inter = sum(min(count, b[s]) for s, count in a.items())
    return inter / (sum(a.values()) + sum(b.values()) - inter)


def reference_align_answer(doc: Document, answer: str,
                           min_score: float = REF_MIN_SCORE) -> GoldSpan | AlignmentFailure:
    """Oracle for ``align_answer``: tiers 1 and 2 alike, and tier 3 by brute force.
    Anchors are looked up in a table of every anchor-long substring of the
    document, token boundaries are listed in full, and each window is scored by
    shingling its own text."""
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

    # tier 3, votes: anchors at a stride of one anchor, and the one ending the answer
    base = len(norm_answer)
    if base < REF_ANCHOR:
        return AlignmentFailure(score=0.0, reason="answer shorter than an anchor")
    table = {}
    for p in range(len(norm_doc) - REF_ANCHOR + 1):
        table.setdefault(norm_doc[p:p + REF_ANCHOR], []).append(p)
    starts = list(range(0, base - REF_ANCHOR + 1, REF_ANCHOR))
    if starts[-1] != base - REF_ANCHOR:
        starts.append(base - REF_ANCHOR)
    anchors = [(at, norm_answer[at:at + REF_ANCHOR]) for at in starts]
    votes = Counter()
    for at, piece in anchors:
        if len(table.get(piece, [])) <= REF_ANCHOR_HITS:
            votes.update(p - at for p in table.get(piece, []))
    if not votes:
        return AlignmentFailure(score=0.0, reason="no anchor of the answer in the document")
    most = max(votes.values())
    best = min(d for d, count in votes.items() if count == most)

    # tier 3, chain: out from the first anchor on the winning diagonal, both ways
    first = next(i for i, (at, piece) in enumerate(anchors)
                 if len(table.get(piece, [])) <= REF_ANCHOR_HITS
                 and best + at in table.get(piece, []))
    chain = {}
    for order in (anchors[first::-1], anchors[first:]):
        diagonal = best
        for k, (at, piece) in enumerate(order):
            near = [p - at for p in table.get(piece, []) if abs(p - at - diagonal) <= REF_DRIFT]
            if not near:
                continue
            nearest = min(near, key=lambda d: abs(d - diagonal))
            confirmed = k + 1 < len(order) and nearest + order[k + 1][0] in table.get(
                order[k + 1][1], [])
            if nearest == diagonal or confirmed:
                chain[at] = diagonal = nearest
    chained = sorted(chain.items())
    (first_at, first_diagonal), (last_at, last_diagonal) = chained[0], chained[-1]
    lo, hi = max(0, first_diagonal), min(len(norm_doc), last_diagonal + base)
    if hi - lo < REF_ANCHOR:
        hi, last_at = min(len(norm_doc), lo + base), -1
    moving = []
    if last_at != base - REF_ANCHOR:
        moving.append(True)
    if first_at != 0:
        moving.append(False)

    # tier 3, climb: each unpinned edge in turn, one token outward while that
    # strictly raises the score, else one token inward while that does
    ends = [e for e in range(1, len(norm_doc) + 1) if e == len(norm_doc) or norm_doc[e] == " "]
    token_starts = [s for s in range(len(norm_doc)) if s == 0 or norm_doc[s - 1] == " "]
    lengths = range(round(base * (1.0 - REF_SLACK)), round(base * (1.0 + REF_SLACK)) + 1)
    want = _ref_shingles(norm_answer)
    score = _ref_jaccard(_ref_shingles(norm_doc[lo:hi]), want)
    moved = True
    while moved:
        moved = False
        for right in moving:
            edge, boundaries = (hi, ends) if right else (lo, token_starts)
            below = [b for b in boundaries if b < edge][-1:]
            above = [b for b in boundaries if b > edge][:1]
            for new in above + below if right else below + above:
                new_lo, new_hi = (lo, new) if right else (new, hi)
                if new_hi - new_lo in lengths:
                    new_score = _ref_jaccard(_ref_shingles(norm_doc[new_lo:new_hi]), want)
                    if new_score > score:
                        score, lo, hi, moved = new_score, new_lo, new_hi, True
                        break

    if score >= min_score:
        return GoldSpan(doc_id=doc.doc_id, start=int(offsets[lo]), end=int(offsets[hi - 1]) + 1,
                        answer_text=answer)
    return AlignmentFailure(score=score, reason="best window below min_score")


def reference_alignment_score(doc: Document, span: GoldSpan) -> float:
    """The report score, always shingled: the Jaccard of the span's and its answer's
    shingles, each of its normalized text."""
    return _ref_jaccard(_ref_shingles(normalize_for_match(doc.text[span.start:span.end])),
                        _ref_shingles(normalize_for_match(span.answer_text)))


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


@st.composite
def tier3_cases(draw):
    """A document of words drawn from a small vocabulary over ``_ALPHABET``'s
    letters, and an answer made of a run of its words with up to three words
    substituted, inserted or deleted, rejoined with single spaces."""
    letters = st.sampled_from("aAbBcİßﬁ\u212aσςΣ")
    vocabulary = draw(st.lists(st.text(letters, min_size=1, max_size=7), min_size=3,
                               max_size=30, unique=True))
    words = draw(st.lists(st.sampled_from(vocabulary), min_size=4, max_size=150))
    gaps = draw(st.lists(st.sampled_from([" ", "  ", "\n", "\u00a0", " \t", ". "]),
                         min_size=len(words), max_size=len(words)))
    lo = draw(st.integers(0, len(words) - 2))
    answer = words[lo:draw(st.integers(lo + 2, len(words)))]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(answer) - 1))
        edit = draw(st.sampled_from(["substitute", "insert", "delete"]))
        if edit == "delete" and len(answer) > 1:
            del answer[at]
        else:
            answer[at:at + (edit == "substitute")] = [draw(st.sampled_from(vocabulary))]
    text = "".join(word + gap for word, gap in zip(words, gaps))
    return make_doc("d", text), " ".join(answer), draw(st.sampled_from([0.05, 0.3, 0.6, 1.0]))


def zipf_document(rng: np.random.Generator, n_chars: int) -> str:
    """Zipf(1.15) words over a 3,000-word vocabulary, with sentence and line breaks."""
    vocab = ["".join(rng.choice(list("abcdefghijklmnopqrstuvwxyz"), size=int(rng.integers(2, 10))))
             for _ in range(3000)]
    weights = 1.0 / np.arange(1, len(vocab) + 1) ** 1.15
    picks = rng.choice(len(vocab), size=n_chars // 4, p=weights / weights.sum())
    breaks = rng.choice([" ", ". ", "\n"], size=len(picks), p=[0.9, 0.07, 0.03])
    return "".join(vocab[w] + b for w, b in zip(picks, breaks))[:n_chars]


class TestTier3AgainstReference:
    """Tier 3 returns exactly what the brute-force reference of its rule returns."""

    def test_constants_restated(self):
        assert (aligner.SHINGLE, aligner.WINDOW_SLACK, aligner.MIN_SCORE, aligner.ANCHOR,
                aligner.ANCHOR_HITS, aligner.ANCHOR_DRIFT) == \
            (REF_SHINGLE, REF_SLACK, REF_MIN_SCORE, REF_ANCHOR, REF_ANCHOR_HITS, REF_DRIFT)

    @settings(max_examples=600, deadline=None)
    @given(alignment_cases())
    def test_same_result_as_reference(self, case):
        doc, answer, min_score = case
        with patch.object(aligner, "MIN_SCORE", min_score):
            assert align_answer(doc, answer) == reference_align_answer(doc, answer, min_score)

    @settings(max_examples=600, deadline=None)
    @given(tier3_cases())
    # the chain's band around a diagonal far before the text must not wrap to its end
    @example((make_doc("d", "bbΣßİBς  bbΣßİBς \tİbA ΣςßσK \tAbİΣB\u00a0bbΣßİBς\nbbΣßİBς\n"
                            "AςAßcΣB. İbA\nİςσBßİσ bbΣßİBς  İςσBßİσ\nbbΣßİBς  İςσBßİσ\n"),
              "bbΣßİBς AςAßcΣB AςAßcΣB İςσBßİσ bbΣßİBς bbΣßİBς bbΣßİBς", 0.05))
    def test_same_result_as_reference_on_edited_word_runs(self, case):
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

    def test_capital_sigma_document_normalizes_per_character(self):
        # "ΑΣ" alone lowers to "ας", but inside "ΑΣΑ" to "ασα"; with "ς" folded to
        # "σ" both match, and each character keeps its own offset
        doc = make_doc("d", "ΑΣΑ ΒΒΒ")
        norm, offsets = DocumentView(doc.text).normalized
        assert norm == "ασα βββ"
        assert [offsets[i] for i in range(len(norm))] == list(range(7))
        span = align_answer(doc, "ας")
        assert span == reference_align_answer(doc, "ας")
        assert (span.start, span.end) == (0, 2)

    def test_view_of_another_document_rejected(self):
        doc = make_doc("d", "alpha beta gamma")
        with pytest.raises(ValueError):
            align_answer(doc, "beta  gamma", view=DocumentView("other text"))

    def test_answer_shorter_than_an_anchor_fails(self):
        doc = make_doc("d", "the tenant shall pay rent monthly")
        answer = "tenamt"  # one letter off, and shorter than an anchor
        assert len(answer) < aligner.ANCHOR == REF_ANCHOR
        result = align_answer(doc, answer)
        assert result == AlignmentFailure(score=0.0, reason="answer shorter than an anchor")
        assert result == reference_align_answer(doc, answer)

    def test_answer_with_no_anchor_in_the_document_fails(self):
        doc = make_doc("d", "the tenant shall pay rent monthly to the landlord")
        answer = "tha tenamt shal pey rant monthy to"  # each anchor holds a changed letter
        result = align_answer(doc, answer)
        assert result == AlignmentFailure(score=0.0,
                                          reason="no anchor of the answer in the document")
        assert result == reference_align_answer(doc, answer)

    def test_anchor_found_too_often_casts_no_votes(self):
        # the answer's only anchor that occurs in the document occurs ANCHOR_HITS + 1
        # times; below the cap it votes and the answer aligns on its first occurrence
        assert aligner.ANCHOR_HITS == REF_ANCHOR_HITS
        doc = make_doc("d", "rent due " * (aligner.ANCHOR_HITS + 1) + "end")
        answer = "rent due zz"
        result = align_answer(doc, answer)
        assert result == AlignmentFailure(score=0.0,
                                          reason="no anchor of the answer in the document")
        with patch.object(aligner, "ANCHOR_HITS", aligner.ANCHOR_HITS + 1):
            span = align_answer(doc, answer)
        assert (span.start, span.end) == (0, 8)


def _words(text: str) -> list[tuple[int, int]]:
    return [m.span() for m in re.finditer(r"\S+", text)]


# one Zipf document for the boundary property, and the words edits draw from
BOUNDARY_DOC = zipf_document(np.random.default_rng(31), 28_000)
BOUNDARY_WORDS = sorted({w.strip(".") for w in BOUNDARY_DOC.split()} - {""})


@st.composite
def edited_excerpts(draw):
    """A unique excerpt of ``BOUNDARY_DOC`` from a word's start to a word's end,
    300-600 chars long, with one or two interior words substituted or one word
    inserted; its span, the edited answer, the longest word the edit touched and
    the excerpt's word indices the edit lies between or on."""
    text, words = BOUNDARY_DOC, _words(BOUNDARY_DOC)
    first = draw(st.integers(0, len(words) - 200))
    last = first
    length = draw(st.integers(300, 600))
    while words[last][1] - words[first][0] < length:
        last += 1
    start, end = words[first][0], words[last][1]
    excerpt = text[start:end]
    assume(text.count(excerpt) == 1)
    assume(normalize_for_match(text).count(normalize_for_match(excerpt)) == 1)
    spans = _words(excerpt)
    new = draw(st.lists(st.sampled_from(BOUNDARY_WORDS), min_size=1, max_size=2))
    if draw(st.booleans()):  # insert one word between two words
        i = draw(st.integers(1, len(spans) - 2))
        answer = excerpt[:spans[i][0]] + new[0] + " " + excerpt[spans[i][0]:]
        edited, touched = [new[0]], [i - 1, i]
    else:  # substitute one or two interior words
        touched = draw(st.lists(st.integers(1, len(spans) - 2), min_size=len(new),
                                max_size=len(new), unique=True))
        answer, edited = excerpt, []
        for i, word in sorted(zip(touched, new), reverse=True):
            lo, hi = spans[i]
            assume(word != excerpt[lo:hi].lower().strip("."))
            answer = answer[:lo] + word + answer[hi:]
            edited += [word, excerpt[lo:hi]]
    return (start, end), answer, max(map(len, edited)), spans, (min(touched), max(touched))


class TestTier3Boundaries:
    """Tier-3 edges land within one edited word of the true ones (ROADMAP item 1)."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(edited_excerpts())
    def test_edges_stay_within_the_longest_edited_word(self, case):
        # An edit among an edge's three words widens that edge's bound by those
        # words: a score over shingle counts cannot tell a short or repeated edge
        # word from an edited neighbour ("w w x" against "w y x" reads as either
        # an insertion or a substitution).
        (start, end), answer, longest, spans, (first, last) = case
        doc = make_doc("d", BOUNDARY_DOC)
        view = DocumentView(doc.text)
        span = align_answer(doc, answer, view=view)
        assert isinstance(span, GoldSpan)
        widen_start = spans[2][1] + 1 if first < 3 else 0
        widen_end = spans[-1][1] - spans[-3][0] + 1 if last > len(spans) - 4 else 0
        assert abs(span.start - start) <= longest + 1 + widen_start
        assert abs(span.end - end) <= longest + 1 + widen_end
        # the excerpt itself, and with its spaces reflowed, align exactly (tiers 1 and 2)
        excerpt = BOUNDARY_DOC[start:end]
        reflowed = excerpt.replace(" ", "\n  ", 3)
        for exact in (excerpt, reflowed):
            span = align_answer(doc, exact, view=view)
            assert (span.start, span.end) == (start, end)


def assert_same_forms(got, want):
    """Fail naming the first difference and a few items around it: pytest's own
    diff of sequences a million long would take minutes."""
    if got != want:
        at = next(i for i, (x, y) in enumerate(zip_longest(got, want)) if x != y)
        pytest.fail(f"forms differ at {at}: {got[at:at + 8]!r} != {want[at:at + 8]!r}")


class TestNormalizedView:
    @pytest.mark.parametrize("separator", ["Α", "Σ"])
    def test_normalize_for_match_works_per_character(self, separator):
        # every code point but surrogates and whitespace (which collapses), each
        # between two separators, so "Σ" meets every neighbour on both sides
        chars = [chr(c) for c in range(0x110000)
                 if not 0xD800 <= c <= 0xDFFF and not chr(c).isspace()]
        whole = normalize_for_match(separator.join(chars))
        parts = normalize_for_match(separator).join(map(normalize_for_match, chars))
        assert_same_forms(whole, parts)

    @settings(max_examples=300, deadline=None)
    @given(st.text("aΑΣσς İ\u00a0\t\nb.", max_size=60))
    def test_text_is_normalize_for_match(self, text):
        assert _normalized_view(text)[0] == normalize_for_match(text)

    @settings(max_examples=300, deadline=None)
    @given(st.text("aΑΣσς İ\u00a0\t\nb.", max_size=60))
    def test_offsets_map_each_normalized_character_to_its_source(self, text):
        # character by character: a kept one maps to its offset once per code point
        # it lowers to, an inner whitespace run to its first character
        lead, expected = len(text) - len(text.lstrip()), []
        for i, ch in enumerate(text.strip(), lead):
            if not ch.isspace():
                expected += [i] * len(ch.lower())
            elif not text[i - 1].isspace():
                expected.append(i)
        norm, offsets = _normalized_view(text)
        assert len(offsets) == len(norm)
        assert [offsets[i] for i in range(len(norm))] == expected
        with pytest.raises(IndexError):
            offsets[len(norm)]

    def test_normalize_whitespace_is_the_regex_form_on_every_code_point(self):
        # each code point as an inner character, as a run of three, and at both
        # ends, against the form that collapsed "\s+" runs with re and stripped
        chars = [chr(c) for c in range(0x110000) if not 0xD800 <= c <= 0xDFFF]

        def regex_form(text: str) -> str:
            return re.sub(r"\s+", " ", text).strip()

        for text in ("a" + "a".join(chars) + "a", "a" + "a".join(c * 3 for c in chars) + "a"):
            assert_same_forms(normalize_whitespace(text), regex_form(text))
        ends = [c + "a" + c * 2 for c in chars]
        assert_same_forms(list(map(normalize_whitespace, ends)), list(map(regex_form, ends)))

    def test_lowers_to_two_is_every_character_lowering_to_more_than_one(self):
        # the run table shifts by one code point at each of these characters
        longer = {chr(c): len(chr(c).lower()) for c in range(0x110000)
                  if not 0xD800 <= c <= 0xDFFF and len(chr(c).lower()) > 1}
        assert longer == dict.fromkeys(aligner.LOWERS_TO_TWO, 2), unicodedata.unidata_version

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

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(alignment_cases(), tier3_cases()))
    def test_report_score_is_the_shingled_score_bitwise(self, case):
        # tiers 1 and 2 score 1.0 without shingling; the shingled score must agree
        doc, answer, min_score = case
        record = QueryRecord("q", "?", context_text=answer, source_doc_id=doc.doc_id)
        with patch.object(aligner, "MIN_SCORE", min_score):
            out, report = reconstruct_dataset([record], DocumentCollection([doc]))
        if report.aligned:
            expected = reference_alignment_score(doc, out[0].gold_spans[0])
            assert report.entries[0].score.hex() == expected.hex()

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
