import json

import numpy as np
import pytest

from lexrag.corpus import GoldSpan, QueryRecord
from lexrag.embedding import HashedBowEmbedder
from lexrag.evaluator import (
    MetricReport,
    compare_reports,
    drm,
    render_comparison_table,
    render_table,
    span_recall,
    sweep,
)
from lexrag.index import build_dense, build_sparse
from lexrag.retriever import FusionConfig, RetrievalContext
from tests.conftest import make_chunk, random_document_text


def ranked(ids: tuple[str, ...], *chunk_ids: str) -> list[int]:
    """The rows of ``chunk_ids``, best first, in a chunk table whose rows hold ``ids``."""
    return [ids.index(cid) for cid in chunk_ids]


class TestDrm:
    ids = ("g#000000", "g#000001", "g#000002", "g#000003",
           "a#000000", "b#000001", "c#000000", "d#000000", "x#000000")
    table = [(cid.split("#")[0], 0, 100) for cid in ids]  # the id part before "#"

    def test_all_top_chunks_from_gold_doc(self):
        result = ranked(self.ids, "g#000000", "g#000001", "g#000002", "g#000003")
        assert drm(result, {"g"}, self.table, 4) == 0.0

    def test_no_top_chunks_from_gold_docs(self):
        result = ranked(self.ids, "a#000000", "b#000001", "c#000000", "d#000000")
        assert drm(result, {"g"}, self.table, 4) == 1.0

    def test_one_of_four_mismatched(self):
        result = ranked(self.ids, "g#000000", "g#000001", "x#000000", "g#000002")
        assert drm(result, {"g"}, self.table, 4) == 0.25

    def test_k_larger_than_ranking_uses_available(self):
        result = ranked(self.ids, "g#000000", "x#000000")
        assert drm(result, {"g"}, self.table, 10) == 0.5

    def test_empty_ranking_is_undefined(self):
        with pytest.raises(ValueError):
            drm([], {"g"}, self.table, 4)


class TestSpanRecall:
    ids = ("g#000000", "g#000001", "x#000000")
    table = [("g", 0, 100), ("g", 80, 200), ("x", 0, 100)]

    def test_span_inside_single_chunk(self):
        result = ranked(self.ids, "g#000000")
        spans = [GoldSpan("g", 10, 50, "a")]
        assert span_recall(result, spans, self.table, 1) == 1.0

    def test_two_spans_one_overlapped(self):
        result = ranked(self.ids, "g#000000")
        spans = [GoldSpan("g", 10, 50, "a"), GoldSpan("g", 150, 180, "b")]
        assert span_recall(result, spans, self.table, 1) == 0.5

    def test_one_span_two_chunks_exceeds_one(self):
        result = ranked(self.ids, "g#000000", "g#000001")
        spans = [GoldSpan("g", 85, 95, "a")]
        assert span_recall(result, spans, self.table, 2) == 2.0

    def test_wrong_document_no_credit(self):
        result = ranked(self.ids, "x#000000")
        spans = [GoldSpan("g", 0, 100, "a")]
        assert span_recall(result, spans, self.table, 1) == 0.0

    def test_touching_intervals_do_not_overlap(self):
        result = ranked(self.ids, "g#000000")
        spans = [GoldSpan("g", 100, 120, "a")]  # starts exactly at chunk end
        assert span_recall(result, spans, self.table, 1) == 0.0

    def test_empty_gold_spans_rejected(self):
        with pytest.raises(ValueError):
            span_recall(ranked(self.ids, "g#000000"), [], self.table, 1)

    def test_random_intervals_match_brute_force(self):
        rng = np.random.default_rng(13)
        s_doc = rng.integers(0, 4, 30)
        s_start = rng.integers(0, 500, 30)
        s_end = s_start + rng.integers(1, 80, 30)
        c_doc = rng.integers(0, 4, 50)
        c_start = rng.integers(0, 500, 50)
        c_end = c_start + rng.integers(1, 120, 50)
        spans = [GoldSpan(f"d{s_doc[i]}", int(s_start[i]), int(s_end[i]), "a")
                 for i in range(30)]
        table = [(f"d{c_doc[j]}", int(c_start[j]), int(c_end[j])) for j in range(50)]

        brute = sum(
            1
            for i in range(30)
            for j in range(50)
            if s_doc[i] == c_doc[j] and min(s_end[i], c_end[j]) - max(s_start[i], c_start[j]) >= 1
        )
        assert span_recall(list(range(50)), spans, table, 50) == brute / 30

    def test_empty_ranking_gives_zero(self):
        spans = [GoldSpan("g", 10, 50, "a")]
        assert span_recall([], spans, self.table, 4) == 0.0


def build_context(rng, n_docs=5, chunks_per_doc=6, dim=96):
    chunks = []
    for d in range(n_docs):
        offset = 0
        for o in range(chunks_per_doc):
            text = random_document_text(rng, int(rng.integers(6, 20)))
            chunks.append(make_chunk(o, text, doc_id=f"doc{d}", start=offset))
            offset += len(text)
    embedder = HashedBowEmbedder(dim=dim)
    ctx = RetrievalContext(
        sparse=build_sparse(chunks),
        dense=build_dense(chunks, embedder),
        embedder=embedder,
        fusion=FusionConfig(k=8, alpha=0.8),
        chunk_table=[(c.doc_id, c.start, c.end) for c in chunks],
    )
    return chunks, ctx


def records_for(chunks, rng, n_queries=6):
    records = []
    for i in range(n_queries):
        chunk = chunks[int(rng.integers(0, len(chunks)))]
        span_len = max(1, (chunk.end - chunk.start) // 2)
        records.append(QueryRecord(
            query_id=f"q{i}",
            question=" ".join(chunk.text.split()[:5]),
            gold_spans=[GoldSpan(chunk.doc_id, chunk.start, chunk.start + span_len,
                                 chunk.text[:span_len])],
        ))
    return records


class TestSweep:
    def test_perfect_single_query(self):
        chunks, ctx = build_context(np.random.default_rng(0))
        target = chunks[0]
        record = QueryRecord("q0", target.text,
                             gold_spans=[GoldSpan(target.doc_id, target.start,
                                                  target.end, target.text)])
        report = sweep([record], ctx, ks=[1], iterations=200)
        assert report.per_k[1]["drm_mean"] == 0.0
        assert report.per_k[1]["span_recall_mean"] >= 1.0

    def test_sweep_matches_independent_brute_force(self):
        rng = np.random.default_rng(1)
        chunks, ctx = build_context(rng)
        records = records_for(chunks, rng)
        ks = [1, 2, 4, 8]
        report = sweep(records, ctx, ks=ks, iterations=100)
        results = ctx.retrieve_many([r.question for r in records],
                                    [r.query_id for r in records])
        for record, result in zip(records, results):
            gold_docs = {s.doc_id for s in record.gold_spans}
            for k in ks:
                top = result.ranked[:min(k, len(result.ranked))]
                expect_drm = sum(
                    1 for row in top
                    if ctx.chunk_table[row][0] not in gold_docs) / len(top)
                expect_pairs = 0
                for span in record.gold_spans:
                    for row in top:
                        doc_id, start, end = ctx.chunk_table[row]
                        if doc_id == span.doc_id and min(span.end, end) - max(span.start, start) >= 1:
                            expect_pairs += 1
                expect_recall = expect_pairs / len(record.gold_spans)
                assert report.per_query[record.query_id]["drm"][k] == expect_drm
                assert report.per_query[record.query_id]["span_recall"][k] == expect_recall
        for k in ks:
            values = [report.per_query[q]["drm"][k] for q in report.per_query]
            assert report.per_k[k]["drm_mean"] == pytest.approx(np.mean(values))

    def test_span_recall_non_decreasing_in_k(self):
        rng = np.random.default_rng(2)
        chunks, ctx = build_context(rng)
        records = records_for(chunks, rng)
        report = sweep(records, ctx, ks=[1, 2, 4, 8, 16], iterations=50)
        for per_metric in report.per_query.values():
            recalls = [per_metric["span_recall"][k] for k in [1, 2, 4, 8, 16]]
            assert recalls == sorted(recalls)

    def test_unresolvable_and_spanless_queries_excluded(self):
        rng = np.random.default_rng(3)
        chunks, ctx = build_context(rng)
        records = [
            QueryRecord("q_missing", "question", gold_spans=[GoldSpan("nowhere", 0, 5, "x")]),
            QueryRecord("q_nospans", "question", gold_spans=[]),
        ]
        report = sweep(records, ctx, ks=[1], iterations=10)
        reasons = {e["query_id"]: e["reason"] for e in report.excluded}
        assert reasons == {"q_missing": "no_resolvable_gold_docs",
                          "q_nospans": "no_gold_spans"}
        assert report.per_query == {}

    def test_report_round_trips_through_json(self):
        rng = np.random.default_rng(4)
        chunks, ctx = build_context(rng)
        records = records_for(chunks, rng, n_queries=3)
        report = sweep(records, ctx, ks=[1, 2], dataset="synthetic",
                       variant="baseline", iterations=50)
        payload = json.dumps(report.to_dict(), sort_keys=True)
        restored = MetricReport.from_dict(json.loads(payload))
        assert restored.per_k == report.per_k
        assert restored.per_query == report.per_query
        assert restored.ks == report.ks


class TestCompare:
    def _report_from_values(self, values_by_query, ks=(1, 2)):
        report = MetricReport(dataset="d", variant="v", ks=list(ks))
        for qid, v in values_by_query.items():
            report.per_query[qid] = {
                "drm": {k: v for k in ks},
                "span_recall": {k: 1.0 - v for k in ks},
            }
        return report

    def test_identical_variants_give_zero_deltas_and_p_one(self):
        report = self._report_from_values({"q1": 0.25, "q2": 0.5, "q3": 0.75})
        comparisons = compare_reports(report, report, iterations=200)
        assert len(comparisons) == 4  # 2 metrics x 2 ks
        for c in comparisons:
            assert c.delta_mean == 0.0
            assert c.delta_ci == (0.0, 0.0)
            assert c.p_value == 1.0
            assert c.p_adjusted == 1.0

    def test_constant_improvement_flagged_degenerate(self):
        # dyadic values so every per-query delta is exactly -0.25
        base = self._report_from_values({"q1": 0.5, "q2": 0.75, "q3": 1.0})
        enh = self._report_from_values({"q1": 0.25, "q2": 0.5, "q3": 0.75})
        comparisons = compare_reports(base, enh, iterations=200)
        drm_comp = [c for c in comparisons if c.metric == "drm"][0]
        assert drm_comp.delta_mean == pytest.approx(-0.25)
        assert drm_comp.degenerate_variance
        assert drm_comp.p_value == 0.0

    def test_bonferroni_m_is_ks_times_metrics(self):
        base = self._report_from_values({"q1": 0.1, "q2": 0.9, "q3": 0.4})
        enh = self._report_from_values({"q1": 0.2, "q2": 0.3, "q3": 0.5})
        comparisons = compare_reports(base, enh, iterations=100)
        m = len(comparisons)
        for c in comparisons:
            assert c.p_adjusted == pytest.approx(min(1.0, c.p_value * m))

    def test_disjoint_queries_yield_nothing(self):
        a = self._report_from_values({"q1": 0.1})
        b = self._report_from_values({"q2": 0.1})
        assert compare_reports(a, b) == []


class TestRendering:
    def test_table_contains_all_ks_and_cis(self):
        rng = np.random.default_rng(5)
        chunks, ctx = build_context(rng)
        records = records_for(chunks, rng, n_queries=3)
        report = sweep(records, ctx, ks=[1, 4], dataset="synth", iterations=50)
        table = render_table(report)
        assert "k=1" in table and "k=4" in table
        assert "DRM (%)" in table and "Span Recall" in table
        assert "(" in table  # CI bounds in parentheses

    def test_comparison_table_renders(self):
        base = MetricReport(dataset="d", variant="baseline", ks=[1])
        base.per_query = {"q1": {"drm": {1: 0.2}, "span_recall": {1: 0.3}},
                          "q2": {"drm": {1: 0.6}, "span_recall": {1: 0.1}}}
        enh = MetricReport(dataset="d", variant="enhanced", ks=[1])
        enh.per_query = {"q1": {"drm": {1: 0.1}, "span_recall": {1: 0.5}},
                         "q2": {"drm": {1: 0.2}, "span_recall": {1: 0.4}}}
        table = render_comparison_table(compare_reports(base, enh, iterations=100))
        assert "drm" in table and "span_recall" in table
        assert "p_adj" in table
