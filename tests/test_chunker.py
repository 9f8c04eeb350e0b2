import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexrag.chunker import Chunk, ChunkConfig, count_tokens, dump_chunks, load_chunks, split_recursive
from lexrag.corpus import Document
from tests.conftest import random_document_text


def tok_starts(text: str) -> list[int]:
    return [m.start() for m in re.finditer(r"\S+", text)]


def words(n: int, prefix: str = "w") -> str:
    return " ".join(f"{prefix}{i}" for i in range(n))


class TestCountTokens:
    def test_empty(self):
        assert count_tokens("") == 0

    def test_mixed_whitespace(self):
        assert count_tokens("a  b\nc") == 3

    def test_answer_fragment_hand_count(self):
        fragment = "...at a price per share of $22.00 (the Offer Price),\nnet to the holder ..."
        assert count_tokens(fragment) == 15

    @given(st.text(alphabet=st.sampled_from(
        ["a", "Z", "é", "数", "\t", "\n", "\x1c", "\x1f", "\x85", "\xa0", "\u1680",
         "\u2000", "\u2028", "\u2029", "\u202f", "\u3000", " ", "\u200b", "\ufeff"])))
    @settings(max_examples=300, deadline=None)
    def test_equals_regex_run_count_on_unicode_whitespace(self, text):
        assert count_tokens(text) == len(re.findall(r"\S+", text))


class TestChunkConfig:
    def test_overlap_must_be_smaller_than_target(self):
        with pytest.raises(ValueError):
            ChunkConfig(target_tokens=50, overlap_tokens=50)


class TestSplitExamples:
    def test_small_doc_single_chunk(self):
        doc = Document("d", words(10))
        chunks = split_recursive(doc, ChunkConfig(256, 50))
        assert len(chunks) == 1
        assert (chunks[0].start, chunks[0].end) == (0, len(doc.text))

    def test_empty_doc(self):
        assert split_recursive(Document("d", ""), ChunkConfig(256, 50)) == []

    def test_two_paragraphs_split_at_paragraph_boundary(self):
        p1 = words(200, "a")
        p2 = words(200, "b")
        doc = Document("d", p1 + "\n\n" + p2)
        chunks = split_recursive(doc, ChunkConfig(256, 50))
        assert len(chunks) == 2
        assert chunks[0].end == len(p1)
        # second chunk begins 50 tokens before the end of P1
        assert chunks[1].start == tok_starts(p1)[-50]
        assert chunks[1].end == len(doc.text)

    def test_600_token_paragraph_three_chunks_sharing_50(self):
        doc = Document("d", words(600))
        cfg = ChunkConfig(256, 50)
        chunks = split_recursive(doc, cfg)
        assert len(chunks) == 3
        for chunk in chunks:
            assert count_tokens(chunk.text) <= 256
        for earlier, later in zip(chunks, chunks[1:]):
            shared = doc.text[later.start:earlier.end]
            assert count_tokens(shared) == 50

    def test_overlap_shrinks_when_core_nearly_fills_target(self):
        # middle paragraph of 210 tokens leaves only 46 tokens of headroom
        doc = Document("d", words(200, "a") + "\n\n" + words(210, "b") + "\n\n" + words(100, "c"))
        chunks = split_recursive(doc, ChunkConfig(256, 50))
        assert len(chunks) == 3
        shared_1 = count_tokens(doc.text[chunks[1].start:chunks[0].end])
        shared_2 = count_tokens(doc.text[chunks[2].start:chunks[1].end])
        assert shared_1 == 46  # min(50, 199, 256 - 210)
        assert shared_2 == 50
        assert count_tokens(chunks[1].text) == 256

    def test_giant_token_hard_split(self):
        doc = Document("d", "x" * 2000)
        chunks = split_recursive(doc, ChunkConfig(256, 50))
        assert len(chunks) > 1
        assert all(c.hard_split for c in chunks)
        assert all(count_tokens(c.text) <= 256 for c in chunks)
        assert chunks[0].start == 0 and chunks[-1].end == len(doc.text)
        starts = [c.start for c in chunks]
        assert starts == sorted(set(starts))

    def test_whitespace_only_doc_single_chunk(self):
        doc = Document("d", "   \n\n  ")
        chunks = split_recursive(doc, ChunkConfig(256, 50))
        assert len(chunks) == 1
        assert (chunks[0].start, chunks[0].end) == (0, len(doc.text))


def assert_invariants(doc: Document, chunks: list[Chunk], cfg: ChunkConfig) -> None:
    if not doc.text:
        assert chunks == []
        return
    assert chunks, "nonempty document must yield chunks"
    assert [c.ordinal for c in chunks] == list(range(len(chunks)))
    assert chunks[0].start == 0
    assert chunks[-1].end == len(doc.text)
    prev = None
    rebuilt = []
    for chunk in chunks:
        assert chunk.text == doc.text[chunk.start:chunk.end]
        assert count_tokens(chunk.text) <= cfg.target_tokens
        if prev is not None:
            assert prev.start < chunk.start
            assert chunk.start <= prev.end
            rebuilt.append(chunk.text[prev.end - chunk.start:])
        else:
            rebuilt.append(chunk.text)
        prev = chunk
    assert "".join(rebuilt) == doc.text


class TestInvariants:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_random_prose_documents(self, seed):
        rng = np.random.default_rng(seed)
        doc = Document("d", random_document_text(rng))
        cfg = ChunkConfig(256, 50)
        chunks = split_recursive(doc, cfg)
        assert_invariants(doc, chunks, cfg)

    @settings(max_examples=150, deadline=None)
    @given(st.text(alphabet=list("ab .\n\té$—"), max_size=400),
           st.integers(min_value=2, max_value=40),
           st.integers(min_value=0, max_value=20))
    def test_arbitrary_text_and_configs(self, text, target, overlap):
        if overlap >= target:
            overlap = target - 1
        doc = Document("d", text)
        cfg = ChunkConfig(target, overlap)
        chunks = split_recursive(doc, cfg)
        assert_invariants(doc, chunks, cfg)

    def test_determinism(self):
        rng = np.random.default_rng(42)
        doc = Document("d", random_document_text(rng, 700))
        cfg = ChunkConfig(128, 30)
        assert split_recursive(doc, cfg) == split_recursive(doc, cfg)

    def test_exact_overlap_on_bounded_paragraph_docs(self):
        # every piece stays under target - overlap, so the borrow is never shrunk
        rng = np.random.default_rng(7)
        for _ in range(25):
            doc = Document("d", random_document_text(rng, int(rng.integers(300, 900))))
            chunks = split_recursive(doc, ChunkConfig(256, 50))
            for earlier, later in zip(chunks, chunks[1:]):
                shared = count_tokens(doc.text[later.start:earlier.end])
                assert shared == min(50, count_tokens(earlier.text) - 1)


def test_chunk_jsonl_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    doc = Document("docs/one.txt", random_document_text(rng, 400))
    chunks = split_recursive(doc, ChunkConfig(64, 10))
    path = tmp_path / "chunks.jsonl"
    dump_chunks(chunks, path)
    assert load_chunks(path) == chunks
