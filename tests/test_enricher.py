import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexrag import enricher
from lexrag.chunker import count_tokens
from lexrag.corpus import DocumentMeta
from lexrag.enricher import (
    enrich_chunk,
    enrich_document_chunks,
    extractive_summary,
    window_start,
    window_summaries,
)
from tests.conftest import make_chunk

BASE_FIELDS = ("chunk_id", "doc_id", "start", "end", "text", "ordinal", "core_start",
               "hard_split")


def base_fields(chunk) -> dict:
    return {name: getattr(chunk, name) for name in BASE_FIELDS}


class FailingSummarizer:
    def summarize(self, texts, max_tokens):
        raise RuntimeError("backend down")


class RecordingSummarizer:
    """Deterministic fake remote that tags output with its window content."""

    def __init__(self):
        self.calls = []

    def summarize(self, texts, max_tokens):
        self.calls.append(list(texts))
        return "summary of " + " / ".join(t.split()[0] for t in texts if t.split())


class TestWindowPositions:
    def test_eight_chunks_window4_gives_five_windows(self):
        assert enricher.WINDOW == 4
        provider = RecordingSummarizer()
        window_summaries([make_chunk(i, f"c{i}.") for i in range(8)], provider)
        assert provider.calls == [[f"c{i}." for i in range(s, s + 4)] for s in range(5)]

    def test_single_chunk_degenerate_window(self):
        assert len(window_summaries([make_chunk(0, "c0.")], RecordingSummarizer())) == 1


class TestWindowSummaries:
    def test_one_summary_per_position(self):
        chunks = [make_chunk(i, f"c{i} text.") for i in range(8)]
        result = window_summaries(chunks, RecordingSummarizer())
        assert len(result) == 5
        assert all(not fell_back for _, fell_back in result)
        assert all(1 <= len(tokens) <= 200 for tokens, _ in result)

    def test_single_chunk_window_covers_it(self):
        chunks = [make_chunk(0, "only chunk here.")]
        provider = RecordingSummarizer()
        result = window_summaries(chunks, provider)
        assert len(result) == 1
        assert provider.calls == [["only chunk here."]]

    def test_provider_failure_falls_back_everywhere(self):
        chunks = [make_chunk(i, f"sentence {i}.") for i in range(6)]
        result = window_summaries(chunks, FailingSummarizer())
        assert len(result) == 3
        assert all(fell_back for _, fell_back in result)
        assert all(tokens for tokens, _ in result)

    def test_summary_capped_at_200_tokens(self):
        class Verbose:
            def summarize(self, texts, max_tokens):
                return " ".join(f"t{i}" for i in range(500))

        result = window_summaries([make_chunk(0, "x.")], Verbose())
        assert result == [([f"t{i}" for i in range(200)], False)]

    def test_mixed_documents_rejected(self):
        chunks = [make_chunk(0, "a", doc_id="d1"), make_chunk(1, "b", doc_id="d2")]
        with pytest.raises(ValueError):
            window_summaries(chunks, RecordingSummarizer())

    def test_workers_do_not_change_output(self):
        class OutOfOrder:
            """A fake remote whose later windows answer first, and whose every third
            window fails."""

            def summarize(self, texts, max_tokens):
                n = int(texts[0].split()[0][1:])
                time.sleep(0.002 * (10 - n))
                if n % 3 == 2:
                    raise RuntimeError("backend down")
                return f"  window\t{n}\n"

        chunks = [make_chunk(i, f"w{i} text here.") for i in range(10)]
        serial = window_summaries(chunks, OutOfOrder(), max_workers=1)
        threaded = window_summaries(chunks, OutOfOrder(), max_workers=4)
        assert serial == threaded
        assert [fell_back for _, fell_back in serial] == [n % 3 == 2 for n in range(7)]
        assert serial[0] == (["window", "0"], False)

    def test_extractive_windows_start_no_thread(self, monkeypatch):
        def refuse(thread):
            raise AssertionError(f"thread {thread.name} started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        chunks = [make_chunk(i, f"w{i} text here.") for i in range(10)]
        enriched = enrich_document_chunks(chunks, DocumentMeta(title="T"), None, max_workers=4)
        assert len(enriched) == 10


def scan_nearest_window_index(position: int, starts: list[int], window: int) -> int:
    """Reference: the linear scan over every window center, first minimum wins."""
    best = 0
    best_dist = None
    for i, p in enumerate(starts):
        dist = abs(position - (p + (window - 1) / 2.0))
        if best_dist is None or dist < best_dist:
            best, best_dist = i, dist
    return best


class TestNearestWindow:
    def test_ties_prefer_earlier_window(self):
        # 5 chunks, windows of 4 start at 0 and 1, centers 1.5 and 2.5: position 2
        # is equidistant
        assert window_start(2, 5, 4) == 0

    def test_each_chunk_maps_to_nearest_center(self):
        # 8 chunks, windows of 4 start at 0 .. 4, centers 1.5 .. 5.5; equidistant
        # positions (2, 3, 4, 5) fall to the earlier window
        assert [window_start(i, 8, 4) for i in range(8)] == [0, 0, 0, 1, 2, 3, 4, 4]

    def test_matches_linear_scan(self):
        for n in range(1, 61):
            for window in range(1, 13):
                starts = list(range(max(n - window, 0) + 1))
                for position in range(n):
                    assert (window_start(position, n, window)
                            == scan_nearest_window_index(position, starts, window)), \
                        (position, n, window)

    def test_skipped_ordinals_windowed_by_list_position(self, monkeypatch):
        # a hand-edited file whose ordinals skip: windows and nearest centers
        # follow the chunks' places in the list, not their ordinals
        monkeypatch.setattr(enricher, "WINDOW", 2)
        provider = RecordingSummarizer()
        chunks = [make_chunk(o, f"c{o} " + " ".join(["body"] * 60)) for o in (0, 1, 5, 6)]
        enriched = enrich_document_chunks(chunks, DocumentMeta(), provider)
        assert [[t.split()[0] for t in call] for call in provider.calls] == [
            ["c0", "c1"], ["c1", "c5"], ["c5", "c6"]]
        assert [e.header_text for e in enriched] == [
            "[SUMMARY] summary of c0 / c1", "[SUMMARY] summary of c0 / c1",
            "[SUMMARY] summary of c1 / c5", "[SUMMARY] summary of c5 / c6"]


class TestExtractiveFallback:
    def test_round_robin_sentence_pick(self):
        assert extractive_summary(["A. B.", "C."], 100) == ["A.", "C.", "B."]

    def test_all_empty_texts(self):
        assert extractive_summary([""], 10) == []

    def test_truncates_to_exact_budget(self):
        text = " ".join(f"t{i}." for i in range(500))
        assert extractive_summary([text], 200) == text.split()[:200]

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            extractive_summary(["x"], 0)


def summary_of(text: str) -> list[str]:
    return text.split()


class TestEnrichChunk:
    def test_empty_meta_and_summary(self):
        chunk = make_chunk(0, "plain body text")
        enriched = enrich_chunk(chunk, DocumentMeta(), summary_of(""))
        assert enriched.header_text == ""
        assert enriched.full_text == chunk.text
        assert enriched.metadata_fraction == 0.0

    def test_header_truncated_to_quarter(self):
        chunk = make_chunk(0, " ".join(f"b{i}" for i in range(100)))
        summary = summary_of(" ".join(f"s{i}" for i in range(100)))
        enriched = enrich_chunk(chunk, DocumentMeta(), summary)
        n_header = count_tokens(enriched.header_text)
        assert n_header == 33  # 100 // 3: 33 / 133 <= 1/4 < 34 / 134
        assert enriched.metadata_fraction <= 0.25

    def test_title_appears_verbatim(self):
        chunk = make_chunk(0, " ".join(f"b{i}" for i in range(60)))
        meta = DocumentMeta(title="R v Gutierrez [2004] NSWCCA 22",
                            jurisdiction="NSW", doc_type="judgment")
        enriched = enrich_chunk(chunk, meta, summary_of("short summary."))
        assert "R v Gutierrez [2004] NSWCCA 22" in enriched.full_text
        assert enriched.full_text.startswith("[DOC] ")

    def test_base_text_is_verbatim_suffix(self):
        chunk = make_chunk(0, "the original slice\nwith newline")
        enriched = enrich_chunk(chunk, DocumentMeta(title="T"), summary_of("s."))
        assert enriched.full_text.endswith(chunk.text)
        assert base_fields(enriched) == base_fields(chunk)
        assert chunk.header_text is None

    def test_no_dangling_section_marker(self):
        chunk = make_chunk(0, "a b c")  # 3 body tokens -> header budget 1 token
        enriched = enrich_chunk(chunk, DocumentMeta(), summary_of("one two three"))
        assert enriched.header_text != "[SUMMARY]"

    @pytest.mark.parametrize("title,header", [("Smith v Jones", "[DOC] Smith v Jones"),
                                              ("[DOC]", "[DOC]"), ("  ", "")])
    def test_blank_remote_summary_adds_no_summary_marker(self, title, header):
        # a whitespace-only reply is a summary of no tokens, so no [SUMMARY] enters the
        # header; a title that is literally "[DOC]", or blank, then ends the header in a
        # section marker, which is dropped like any other dangling one
        class Blank:
            def summarize(self, texts, max_tokens):
                return " \t\n "

        chunks = [make_chunk(0, " ".join(["body"] * 60))]
        enriched = enrich_document_chunks(chunks, DocumentMeta(title=title), Blank())
        assert [(e.header_text, e.summary_fallback) for e in enriched] == [(header, False)]

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=1, max_value=120), st.integers(min_value=0, max_value=120))
    def test_fraction_bound_holds(self, n_body, n_summary):
        chunk = make_chunk(0, " ".join(f"b{i}" for i in range(n_body)))
        summary = summary_of(" ".join(f"s{i}" for i in range(n_summary)))
        enriched = enrich_chunk(chunk, DocumentMeta(title="title words here"), summary)
        assert enriched.metadata_fraction <= 0.25
        assert enriched.full_text.endswith(chunk.text)


class TestEnrichDocumentChunks:
    def test_offsets_and_text_untouched(self):
        chunks = [replace(make_chunk(i, f"chunk {i} body.", start=i * 20),
                          core_start=i * 20 + 3, hard_split=i % 2 == 1) for i in range(6)]
        enriched = enrich_document_chunks(chunks, DocumentMeta(title="T"))
        assert [base_fields(e) for e in enriched] == [base_fields(c) for c in chunks]
        assert all(e.header_text is not None for e in enriched)

    def test_empty_header_keeps_texts_identical(self):
        class Silent:
            def summarize(self, texts, max_tokens):
                return ""

        chunks = [make_chunk(i, f"chunk {i} body.") for i in range(4)]
        enriched = enrich_document_chunks(chunks, DocumentMeta(), Silent())
        assert [e.full_text for e in enriched] == [c.text for c in chunks]
