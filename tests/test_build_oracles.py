"""Oracle tests for the build path: each rewritten stage against the code it replaced.

The references below are the earlier implementations, kept here only as
oracles: the per-text embedding loop, the per-chunk ``finditer`` overlap, the
header truncation that pops one token at a time, the summary that splits
every window's chunks into sentences again, and the ``\\w+`` regex tokenizer.
On seeded inputs each rewritten stage must give exactly what its reference
gives, bit for bit.
"""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexrag import kernels
from lexrag.chunker import (DEFAULT_SEPARATORS, ChunkConfig, _CorePacker, _emit_cores,
                            count_tokens, split_recursive)
from lexrag.corpus import Document, DocumentMeta
from lexrag.embedding import HashedBowEmbedder, term_rows
from lexrag.enricher import (ExtractiveSummarizer, WindowSummary, build_header, enrich_chunk,
                             enrich_document_chunks, extractive_fallback_summary,
                             header_budget, window_summaries)
from lexrag.index import build_dense, build_sparse, embed
from lexrag.textutils import _WordTable, split_sentences, tokenize
from tests.conftest import make_chunk, random_document_text

_NONSPACE = re.compile(r"\S+")
WORDS = ["offer", "price", "share", "Gericht", "straße", "élan", "naïve", "Ωμέγα", "法院",
         "判决", "x1", "2004", "Court", "COURT", "court"]


# ---------------------------------------------------------------------------
# references

def reference_embed(texts: list[str], dim: int) -> np.ndarray:
    """Hash each text's unseen terms, then add its ±1 signs into its row one text at a
    time; a row left all zero gets the fixed vector e0."""
    cache: dict[str, tuple[int, float]] = {}
    vectors = np.zeros((len(texts), dim), dtype=np.float64)
    for row, text in enumerate(texts):
        terms = tokenize(text)
        missing = sorted({t for t in terms if t not in cache})
        if missing:
            blob = b"".join(t.encode("utf-8") for t in missing)
            offsets = np.zeros(len(missing) + 1, dtype=np.int64)
            np.cumsum([len(t.encode("utf-8")) for t in missing], out=offsets[1:])
            buckets, signs = kernels.hash_tokens(blob, offsets, dim)
            for term, bucket, sign in zip(missing, buckets, signs):
                cache[term] = (int(bucket), float(sign))
        if terms:
            buckets = np.fromiter((cache[t][0] for t in terms), dtype=np.int64, count=len(terms))
            signs = np.fromiter((cache[t][1] for t in terms), dtype=np.float64, count=len(terms))
            np.add.at(vectors[row], buckets, signs)
        if not vectors[row].any():
            vectors[row, 0] = 1.0
    return vectors


def reference_spans(doc: Document, cfg: ChunkConfig) -> list[tuple[int, int]]:
    """(start, end) of each chunk, the overlap taken from a ``finditer`` over the
    previous chunk's own text."""
    text = doc.text
    if not text:
        return []
    packer = _CorePacker(cfg.target_tokens, cfg.overlap_tokens)
    _emit_cores(text, 0, len(text), DEFAULT_SEPARATORS, cfg.target_tokens, packer)
    packer.flush(force=True)
    spans: list[tuple[int, int]] = []
    for core in packer.cores:
        start = core.start
        if spans and cfg.overlap_tokens > 0:
            prev_start, prev_end = spans[-1]
            prev_token_starts = [m.start() + prev_start
                                 for m in _NONSPACE.finditer(text[prev_start:prev_end])]
            borrow = min(cfg.overlap_tokens, len(prev_token_starts) - 1,
                         cfg.target_tokens - core.weight)
            if borrow > 0:
                start = prev_token_starts[-borrow]
        spans.append((start, core.end))
    return spans


def reference_header_count(n_header: int, body_tokens: int, max_fraction: float) -> int:
    """Header tokens left after popping one at a time while over the fraction."""
    tokens = list(range(n_header))
    while tokens and len(tokens) / (len(tokens) + body_tokens) > max_fraction:
        tokens.pop()
    return len(tokens)


def reference_enrich_chunk(chunk, meta, summary, max_fraction):
    header_tokens = build_header(meta, summary.summary_text if summary else "").split()
    body_tokens = count_tokens(chunk.text)
    while header_tokens and len(header_tokens) / (len(header_tokens) + body_tokens) > max_fraction:
        header_tokens.pop()
    if header_tokens and header_tokens[-1] in ("[SUMMARY]", "[DOC]"):
        header_tokens.pop()
    n = len(header_tokens)
    return replace(chunk, header_text=" ".join(header_tokens),
                   metadata_fraction=n / (n + body_tokens) if n else 0.0,
                   summary_fallback=summary.fallback if summary else False)


def reference_summary(texts: list[str], budget_tokens: int) -> str:
    """Round-robin leading sentences, each text split and each pick counted per call."""
    sentence_lists = [split_sentences(t) for t in texts]
    picked: list[str] = []
    total = 0
    for round_idx in range(max((len(s) for s in sentence_lists), default=0)):
        for sentences in sentence_lists:
            if round_idx >= len(sentences):
                continue
            picked.append(sentences[round_idx])
            total += count_tokens(sentences[round_idx])
            if total >= budget_tokens:
                break
        if total >= budget_tokens:
            break
    return " ".join(" ".join(picked).split()[:budget_tokens])


class PerWindowSummarizer:
    """A provider that splits and summarizes each window anew, as the reference does."""

    def summarize(self, texts, max_tokens):
        return reference_summary(list(texts), max_tokens)


class FailingSummarizer:
    def summarize(self, texts, max_tokens):
        raise RuntimeError("backend down")


# ---------------------------------------------------------------------------
# seeded inputs

def random_terms_text(rng: np.random.Generator, n_max: int = 60) -> str:
    """Words drawn with repeats from a small mixed-script list, with punctuation."""
    n = int(rng.integers(0, n_max))
    seps = [" ", ", ", ". ", "\n", " - ", "'s "]
    return "".join(WORDS[int(rng.integers(len(WORDS)))] + seps[int(rng.integers(len(seps)))]
                   for _ in range(n))


def embedding_texts(seed: int) -> list[str]:
    rng = np.random.default_rng(seed)
    texts = [random_terms_text(rng) for _ in range(40)]
    texts += ["...", "!!! ???", "—", "x", "court court court court"]  # no terms, one, repeats
    return [t if t.strip() else "..." for t in texts]


def sentence_text(rng: np.random.Generator) -> str:
    """Prose of 0-12 sentences of 1-30 words, ended by . ! or ?, some runs of spaces."""
    sentences = []
    for _ in range(int(rng.integers(0, 13))):
        words = [WORDS[int(rng.integers(len(WORDS)))] for _ in range(int(rng.integers(1, 31)))]
        sentences.append(" ".join(words) + ".!?"[int(rng.integers(3))])
    return ("  " if rng.random() < 0.2 else " ").join(sentences)


def hard_split_text(rng: np.random.Generator) -> str:
    """Paragraphs of words joined by whitespace that is no separator (tab, NBSP,
    U+2028) or by spaces: the chunker must cut the former mid-token."""
    parts = []
    for _ in range(int(rng.integers(1, 5))):
        longest = int(rng.choice([9, 30]))  # words longer than a small target span cores
        words = ["".join(chr(97 + int(rng.integers(26)))
                         for _ in range(int(rng.integers(1, longest))))
                 for _ in range(int(rng.integers(5, 60)))]
        glue = ["\t", "\xa0", "\u2028", " "][int(rng.integers(4))]
        parts.append(glue.join(words))
    return "\n\n".join(parts)


# ---------------------------------------------------------------------------
# (a) embedding: one bincount fill against the per-text loop

@pytest.mark.parametrize("dim", [2, 3, 16, 256])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_embed_equals_per_text_loop(seed, dim):
    texts = embedding_texts(seed)
    expected = reference_embed(texts, dim)
    embedder = HashedBowEmbedder(dim=dim)
    assert np.array_equal(embedder.embed(texts), expected)
    # again through the cache, and one text at a time, as queries are embedded
    assert np.array_equal(embedder.embed(texts), expected)
    one_by_one = np.vstack([HashedBowEmbedder(dim=dim).embed([t]) for t in texts])
    assert np.array_equal(one_by_one, expected)


def test_embed_rows_spanning_several_blocks():
    rng = np.random.default_rng(5)
    texts = [random_terms_text(rng, 8) or "..." for _ in range(700)]
    assert np.array_equal(HashedBowEmbedder(dim=8).embed(texts), reference_embed(texts, 8))


def test_text_without_terms_gets_the_fixed_unit_vector():
    vectors = HashedBowEmbedder(dim=4).embed(["...", "a", "!!"])
    assert vectors[0].tolist() == vectors[2].tolist() == [1.0, 0.0, 0.0, 0.0]


def test_index_builds_from_shared_term_rows_equal_their_own():
    rng = np.random.default_rng(9)
    chunks = [make_chunk(i, random_terms_text(rng) + "end") for i in range(60)]
    rows = term_rows([c.full_text for c in chunks])
    for dim in (2, 64):
        own = build_dense(chunks, HashedBowEmbedder(dim=dim))
        shared = build_dense(chunks, HashedBowEmbedder(dim=dim), rows=rows)
        assert np.array_equal(own.vectors, shared.vectors)
        assert np.array_equal(shared.vectors,
                              reference_embed([c.full_text for c in chunks], dim))
    own, shared = build_sparse(chunks), build_sparse(chunks, rows=rows)
    assert own.terms == shared.terms
    for name in ("offsets", "refs", "tfs", "doc_lengths"):
        assert np.array_equal(getattr(own, name), getattr(shared, name))


def test_index_embed_passes_rows_to_the_provider():
    seen = []

    class Recording(HashedBowEmbedder):
        def embed(self, texts, rows=None):
            seen.append(rows)
            return super().embed(texts, rows)

    rows = term_rows(["alpha beta"])
    embed(Recording(dim=8), ["alpha beta"], rows)
    embed(Recording(dim=8), ["alpha beta"])
    assert seen == [rows, None]


# ---------------------------------------------------------------------------
# (b) chunker overlap against the per-chunk finditer

CONFIGS = [ChunkConfig(256, 50), ChunkConfig(64, 16), ChunkConfig(16, 5), ChunkConfig(8, 7),
           ChunkConfig(6, 3), ChunkConfig(3, 2), ChunkConfig(2, 1)]


def spans(doc: Document, cfg: ChunkConfig) -> list[tuple[int, int]]:
    return [(c.start, c.end) for c in split_recursive(doc, cfg)]


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: f"{c.target_tokens}-{c.overlap_tokens}")
def test_overlap_equals_finditer_on_prose(cfg):
    rng = np.random.default_rng(11)
    for _ in range(12):
        doc = Document("d", random_document_text(rng, int(rng.integers(5, 700))))
        assert spans(doc, cfg) == reference_spans(doc, cfg)


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: f"{c.target_tokens}-{c.overlap_tokens}")
def test_overlap_equals_finditer_on_hard_splits(cfg):
    rng = np.random.default_rng(12)
    borrowed_from_mid_token = 0
    for _ in range(12):
        doc = Document("d", hard_split_text(rng))
        chunks = split_recursive(doc, cfg)
        assert [(c.start, c.end) for c in chunks] == reference_spans(doc, cfg)
        text = doc.text
        for prev, chunk in zip(chunks, chunks[1:]):
            mid_token = (prev.start > 0 and not text[prev.start - 1].isspace()
                         and not text[prev.start].isspace())
            borrowed_from_mid_token += mid_token and chunk.start < prev.end
    if (cfg.target_tokens, cfg.overlap_tokens) in ((16, 5), (6, 3)):
        # these inputs hold the case where the previous chunk starts inside a token, so
        # its text's first token start is not one of the document's
        assert borrowed_from_mid_token > 0


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.text(alphabet=list("ab .\n\t\xa0\u2028é"), max_size=300),
       st.integers(min_value=2, max_value=30), st.integers(min_value=0, max_value=20))
def test_overlap_equals_finditer_on_arbitrary_text(text, target, overlap):
    cfg = ChunkConfig(target, min(overlap, target - 1))
    doc = Document("d", text)
    assert spans(doc, cfg) == reference_spans(doc, cfg)


# ---------------------------------------------------------------------------
# (c) header budget in closed form against the pop loop

FRACTIONS = [0.25, 0.1, 1 / 3, 0.2, 0.3, 0.5, 2 / 3, 0.05, 0.01, 0.75, 0.9, 0.999]


@pytest.mark.parametrize("max_fraction", FRACTIONS)
def test_header_budget_equals_pop_loop(max_fraction):
    for body in range(0, 160):
        for n_header in range(0, 70, 3):
            assert (header_budget(n_header, body, max_fraction)
                    == reference_header_count(n_header, body, max_fraction)), (n_header, body)


def test_header_budget_on_random_fractions_and_large_bodies():
    rng = np.random.default_rng(13)
    for _ in range(3000):
        f = float(rng.random()) or 0.5
        body = int(rng.integers(0, 5000))
        n_header = int(rng.integers(0, 400))
        assert header_budget(n_header, body, f) == reference_header_count(n_header, body, f)


@pytest.mark.parametrize("n_header,body,max_fraction,kept", [
    (1, 3, 0.25, 1),  # 1 / 4 == 0.25 exactly: kept
    (2, 6, 0.25, 2),
    (3, 6, 0.25, 2),
    (1, 9, 0.1, 1),  # 1 / 10 == 0.1 in floats too
    (2, 9, 0.1, 1),
    (1, 2, 1 / 3, 1),  # 1 / 3 == 1 / 3
    (5, 10, 1 / 3, 5),
    (6, 10, 1 / 3, 5),
    (4, 0, 0.25, 0),  # no body: no header
    (0, 10, 0.25, 0),
])
def test_header_budget_at_the_boundary(n_header, body, max_fraction, kept):
    assert header_budget(n_header, body, max_fraction) == kept
    assert reference_header_count(n_header, body, max_fraction) == kept


def test_enrich_chunk_equals_pop_loop():
    rng = np.random.default_rng(14)
    metas = [DocumentMeta(), DocumentMeta(title="Smith v Jones"),
             DocumentMeta(title="R v Brown", jurisdiction="NSW", doc_type="decision")]
    for i in range(400):
        body = " ".join(WORDS[int(rng.integers(len(WORDS)))]
                        for _ in range(int(rng.integers(0, 40)))) or "x"
        chunk = make_chunk(i, body)
        summary_words = [WORDS[int(rng.integers(len(WORDS)))]
                         for _ in range(int(rng.integers(0, 30)))]
        summary = (None if i % 7 == 0 else
                   WindowSummary("doc", 0, 4, " ".join(summary_words), len(summary_words),
                                 fallback=bool(i % 2)))
        meta = metas[i % len(metas)]
        for f in (0.25, 0.1, 1 / 3, 0.5):
            assert enrich_chunk(chunk, meta, summary, f) == \
                reference_enrich_chunk(chunk, meta, summary, f)


# ---------------------------------------------------------------------------
# (d) sentences split once per document against a split per window

def sentence_chunks(rng: np.random.Generator, n: int) -> list:
    return [make_chunk(i, sentence_text(rng)) for i in range(n)]


@pytest.mark.parametrize("window,stride", [(4, 1), (4, 2), (4, 3), (4, 5), (1, 1), (2, 1),
                                           (6, 4)])
def test_window_summaries_equal_per_window_split(window, stride):
    rng = np.random.default_rng(15)
    for n in (1, 2, 3, 5, 9, 17):  # shorter than one window, and longer
        chunks = sentence_chunks(rng, n)
        shared = window_summaries(chunks, ExtractiveSummarizer(), window=window, stride=stride)
        expected = window_summaries(chunks, PerWindowSummarizer(), window=window, stride=stride)
        assert shared == expected
        fell_back = window_summaries(chunks, FailingSummarizer(), window=window, stride=stride)
        assert fell_back == [replace(s, fallback=True) for s in expected]


def test_enrich_document_chunks_equal_per_window_split():
    rng = np.random.default_rng(16)
    meta = DocumentMeta(title="Re Estate of Smith", jurisdiction="VIC")
    for n in (1, 4, 11):
        chunks = sentence_chunks(rng, n)
        for workers in (1, 3):
            assert (enrich_document_chunks(chunks, meta, ExtractiveSummarizer(),
                                           max_workers=workers)
                    == enrich_document_chunks(chunks, meta, PerWindowSummarizer()))


def test_extractive_summary_equals_reference_at_every_budget():
    rng = np.random.default_rng(17)
    for _ in range(60):
        texts = [sentence_text(rng) for _ in range(int(rng.integers(0, 6)))]
        for budget in (1, 2, 7, 40, 200):
            assert extractive_fallback_summary(texts, budget) == reference_summary(texts, budget)


# ---------------------------------------------------------------------------
# (e) tokenize: a translate table and a split against the regex findall

_WORD = re.compile(r"\w+")
# cased, titlecase, expanding lowercase, digits of other scripts, marks,
# connector punctuation and unusual whitespace
TRICKY = list("aZ_09 \t\n\x0b\x1c\x85\xa0\u2028\u3000.-'İıẞßΣςǅﬁ²٣Ⅻ①\u0301\u200d‿⁀法")


def reference_tokenize(text: str) -> list[str]:
    return _WORD.findall(text.lower())


def test_word_table_keeps_exactly_the_regex_word_characters():
    """Every code point, in blocks so that no table grows large."""
    block = 1 << 16
    for lo in range(0, 0x110000, block):
        chars = "".join(map(chr, range(lo, lo + block)))
        assert chars.translate(_WordTable()) == re.sub(r"\W", " ", chars), hex(lo)
        assert not any(c.isspace() for c in _WORD.findall(chars)), hex(lo)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.text(alphabet=TRICKY, max_size=80) | st.text(max_size=80))
def test_tokenize_equals_regex_findall(text):
    assert tokenize(text) == reference_tokenize(text)
