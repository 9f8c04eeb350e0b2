from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexrag.chunker import count_tokens
from lexrag.corpus import DocumentMeta
from lexrag.enricher import (
    ExtractiveSummarizer,
    WindowSummary,
    enrich_chunk,
    enrich_document_chunks,
    extractive_fallback_summary,
    nearest_window_index,
    window_positions,
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
    """Deterministic provider that tags output with its window content."""

    def __init__(self):
        self.calls = []

    def summarize(self, texts, max_tokens):
        self.calls.append(list(texts))
        return "summary of " + " / ".join(t.split()[0] for t in texts if t.split())


class TestWindowPositions:
    def test_eight_chunks_window4_gives_five_windows(self):
        assert window_positions(8, 4, 1) == [0, 1, 2, 3, 4]

    def test_single_chunk_degenerate_window(self):
        assert window_positions(1, 4, 1) == [0]

    def test_stride_includes_final_window(self):
        assert window_positions(8, 4, 3) == [0, 3, 4]


class TestWindowSummaries:
    def test_one_summary_per_position(self):
        chunks = [make_chunk(i, f"c{i} text.") for i in range(8)]
        result = window_summaries(chunks, RecordingSummarizer())
        assert len(result) == 5
        assert [s.window_start_ordinal for s in result] == [0, 1, 2, 3, 4]
        assert all(not s.fallback for s in result)
        assert all(1 <= s.token_count <= 200 for s in result)

    def test_single_chunk_window_covers_it(self):
        chunks = [make_chunk(0, "only chunk here.")]
        result = window_summaries(chunks, RecordingSummarizer())
        assert len(result) == 1
        assert result[0].window_len == 1

    def test_provider_failure_falls_back_everywhere(self):
        chunks = [make_chunk(i, f"sentence {i}.") for i in range(6)]
        result = window_summaries(chunks, FailingSummarizer())
        assert len(result) == 3
        assert all(s.fallback for s in result)
        assert all(s.summary_text for s in result)

    def test_summary_capped_at_200_tokens(self):
        class Verbose:
            def summarize(self, texts, max_tokens):
                return " ".join(f"t{i}" for i in range(500))

        result = window_summaries([make_chunk(0, "x.")], Verbose())
        assert result[0].token_count == 200

    def test_mixed_documents_rejected(self):
        chunks = [make_chunk(0, "a", doc_id="d1"), make_chunk(1, "b", doc_id="d2")]
        with pytest.raises(ValueError):
            window_summaries(chunks, RecordingSummarizer())

    def test_workers_do_not_change_output(self):
        chunks = [make_chunk(i, f"w{i} text here.") for i in range(10)]
        serial = window_summaries(chunks, ExtractiveSummarizer(), max_workers=1)
        threaded = window_summaries(chunks, ExtractiveSummarizer(), max_workers=4)
        assert serial == threaded


class TestNearestWindow:
    def test_ties_prefer_earlier_window(self):
        # centers at 1.5, 2.5; ordinal 2 is equidistant
        assert nearest_window_index(2, [0, 1], 4) == 0

    def test_each_chunk_maps_to_nearest_center(self):
        positions = window_positions(8, 4, 1)  # centers 1.5 .. 5.5
        mapping = [nearest_window_index(o, positions, 4) for o in range(8)]
        # equidistant ordinals (2, 3, 4, 5) fall to the earlier window
        assert mapping == [0, 0, 0, 1, 2, 3, 4, 4]


class TestExtractiveFallback:
    def test_round_robin_sentence_pick(self):
        assert extractive_fallback_summary(["A. B.", "C."], 100) == "A. C. B."

    def test_all_empty_texts(self):
        assert extractive_fallback_summary([""], 10) == ""

    def test_truncates_to_exact_budget(self):
        text = " ".join(f"t{i}." for i in range(500))
        out = extractive_fallback_summary([text], 200)
        assert count_tokens(out) == 200
        assert out.split() == text.split()[:200]

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            extractive_fallback_summary(["x"], 0)


def summary_of(text: str) -> WindowSummary:
    return WindowSummary(doc_id="doc", window_start_ordinal=0, window_len=4,
                         summary_text=text, token_count=count_tokens(text))


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
        enriched = enrich_chunk(chunk, DocumentMeta(), summary, max_fraction=0.25)
        n_header = count_tokens(enriched.header_text)
        assert n_header <= 33
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
        enriched = enrich_document_chunks(chunks, DocumentMeta(title="T"),
                                          ExtractiveSummarizer())
        assert [base_fields(e) for e in enriched] == [base_fields(c) for c in chunks]
        assert all(e.header_text is not None for e in enriched)

    def test_empty_header_keeps_texts_identical(self):
        class Silent:
            def summarize(self, texts, max_tokens):
                return ""

        chunks = [make_chunk(i, f"chunk {i} body.") for i in range(4)]
        enriched = enrich_document_chunks(chunks, DocumentMeta(), Silent())
        assert [e.full_text for e in enriched] == [c.text for c in chunks]
