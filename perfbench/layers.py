"""Per-layer metrics from the spans of a traced run.

Every workload reports every metric; a layer the workload never calls reads 0,
which is the prediction for it there. A span's net time is its duration minus
the tracer's own counting work inside it; its self time is its net time minus
the net time of its direct children.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracer import COUNTS, END, EXCLUDED, NAME, PARENT, REQUEST, START

COMMANDS = ["ingest", "chunk", "enrich", "index", "retrieve", "eval-retrieval", "compare",
            "align-spans", "dpo-build", "eval-refusal", "eval-answers"]
BOOTSTRAP = {"stats.bootstrap_ci", "stats.bootstrap_minmax", "stats.paired_delta_ci",
             "stats.bootstrap_means"}

# (metric, unit), in the order BENCHMARK.json lists them
METRICS = (
    [(f"cli.{c}.self_s", "s") for c in COMMANDS]
    + [(f"cli.{c}.overhead_s", "s") for c in COMMANDS]
    + [("trace.overhead_s", "s"),
       ("corpus.load_documents_s", "s"), ("corpus.docs", "count"),
       ("corpus.load_qa_dataset_s", "s"),
       ("chunker.split_recursive_s", "s"), ("chunker.chunks", "count"),
       ("chunker.jsonl_io_s", "s"),
       ("enricher.enrich_document_chunks_s", "s"), ("enricher.summary_fallbacks", "count"),
       ("enricher.jsonl_io_s", "s"),
       ("embedding.embed_s", "s"), ("embedding.embed.p50_ms", "ms"),
       ("embedding.terms", "count"), ("embedding.term_cache_hit_ratio", "ratio"),
       ("kernels.hash_tokens_s", "s"), ("kernels.hash_tokens.terms", "count"),
       ("index.build_sparse_s", "s"), ("index.postings", "count"),
       ("index.build_dense_s", "s"), ("index.save_indexes_s", "s"), ("index.saved_mb", "MB"),
       ("index.load_indexes_s", "s"),
       ("index.bm25_scores.p50_ms", "ms"), ("index.bm25_scores.p99_ms", "ms"),
       ("index.bm25_hits_per_query", "count"), ("index.postings_per_query", "count"),
       ("index.dense_search.p50_ms", "ms"), ("index.dense_search.p99_ms", "ms"),
       ("index.dense_bytes_per_query", "B"),
       ("retriever.hybrid_retrieve.p50_ms", "ms"), ("retriever.hybrid_retrieve.p99_ms", "ms"),
       ("retriever.fusion_self.p50_ms", "ms"), ("retriever.candidates_per_query", "count"),
       ("retriever.kept_ratio", "ratio"), ("retriever.calls_per_query", "ratio"),
       ("evaluator.sweep_s", "s"), ("evaluator.sweep_self_s", "s"),
       ("evaluator.drm_s", "s"), ("evaluator.span_recall_s", "s"),
       ("evaluator.compare_reports_s", "s"),
       ("evaluator.drm_k4", "fraction"), ("evaluator.span_recall_k4", "ratio"),
       ("stats.bootstrap_s", "s"), ("stats.bootstrap_calls", "count"),
       ("stats.resamples_drawn", "count"), ("stats.paired_ttest_s", "s")]
    + [(f"aligner.align_answer.tier{t}.{q}_ms", "ms") for t in (1, 2, 3) for q in ("p50", "max")]
    + [("aligner.reconstruct_dataset_s", "s"), ("aligner.tier3_err_chars", "chars"),
       ("aligner.aligned_share", "fraction"),
       ("preference.build_preference_pairs_s", "s"), ("preference.pairs", "count"),
       ("preference.refusal_rates_s", "s"), ("preference.token_f1_s", "s"),
       ("preference.mean_score_with_delta_ci_s", "s")]
)

# per-layer names that come from checking outputs rather than from spans
QUALITY = {"index.saved_mb": "index_mb", "evaluator.drm_k4": "drm_k4", "evaluator.span_recall_k4": "span_recall_k4",
           "aligner.tier3_err_chars": "align_err_chars", "aligner.aligned_share": "aligned_share"}

TOTALS = {
    "corpus.load_documents_s": ["corpus.load_documents"],
    "corpus.load_qa_dataset_s": ["corpus.load_qa_dataset"],
    "chunker.split_recursive_s": ["chunker.split_recursive"],
    "chunker.jsonl_io_s": ["chunker.dump_chunks", "chunker.load_chunks"],
    "enricher.enrich_document_chunks_s": ["enricher.enrich_document_chunks"],
    "enricher.jsonl_io_s": ["enricher.dump_enriched", "enricher.load_enriched"],
    "kernels.hash_tokens_s": ["kernels.hash_tokens"],
    "index.build_sparse_s": ["index.build_sparse"],
    "index.build_dense_s": ["index.build_dense"],
    "index.save_indexes_s": ["index.save_indexes"],
    "index.load_indexes_s": ["index.load_indexes"],
    "evaluator.sweep_s": ["evaluator.sweep"],
    "evaluator.drm_s": ["evaluator.drm"],
    "evaluator.span_recall_s": ["evaluator.span_recall"],
    "evaluator.compare_reports_s": ["evaluator.compare_reports"],
    "stats.paired_ttest_s": ["stats.paired_ttest"],
    "aligner.reconstruct_dataset_s": ["aligner.reconstruct_dataset"],
    "preference.build_preference_pairs_s": ["preference.build_preference_pairs"],
    "preference.refusal_rates_s": ["preference.refusal_rates"],
    "preference.token_f1_s": ["preference.token_f1"],
    "preference.mean_score_with_delta_ci_s": ["preference.mean_score_with_delta_ci"],
}
SUMS = {  # metric -> (span name, count key)
    "chunker.chunks": ("chunker.split_recursive", "chunks"),
    "enricher.summary_fallbacks": ("enricher.enrich_document_chunks", "fallbacks"),
    "embedding.terms": ("index.embed", "terms"),
    "kernels.hash_tokens.terms": ("kernels.hash_tokens", "terms"),
    "index.postings": ("index.build_sparse", "postings"),
    "stats.resamples_drawn": ("stats.bootstrap_means", "resamples"),
    "preference.pairs": ("preference.build_preference_pairs", "pairs"),
}


def net(span) -> float:
    return span[END] - span[START] - span[EXCLUDED]


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _p99(values) -> float:
    if len(values) < 2:
        return _median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


class CommandTrace:
    """One lexrag command run twice: untraced, then traced with its spans."""

    def __init__(self, argv: list[str], main_untraced: float, main_traced: float,
                 spans: list[list]):
        self.command = argv[0]
        self.main_untraced = main_untraced
        self.main_traced = main_traced
        self.spans = spans
        self.children: dict[int, list[int]] = defaultdict(list)
        for i, span in enumerate(spans):
            self.children[span[PARENT]].append(i)

    def self_time(self, i: int) -> float:
        return net(self.spans[i]) - sum(net(self.spans[c]) for c in self.children[i])

    def self_times(self) -> list[float]:
        return [self.self_time(i) for i in range(len(self.spans))]

    def parent_name(self, span) -> str | None:
        return self.spans[span[PARENT]][NAME] if span[PARENT] >= 0 else None


def per_layer(traces: list[CommandTrace], queries: int, tiers: dict[str, int],
              quality: dict[str, tuple[float, str]]) -> dict[str, float]:
    totals: dict[str, float] = defaultdict(float)
    counts: dict[tuple[str, str], float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    samples: dict[str, list] = defaultdict(list)  # per-call times, or count dicts
    out: dict[str, float] = {name: 0.0 for name, _ in METRICS}

    for trace in traces:
        cmd = trace.command
        out[f"cli.{cmd}.self_s"] += trace.self_time(0)
        out[f"cli.{cmd}.overhead_s"] += trace.main_traced - trace.main_untraced
        for i, span in enumerate(trace.spans):
            name, parent = span[NAME], trace.parent_name(span)
            totals[name] += net(span)
            calls[name] += 1
            for key, value in (span[COUNTS] or {}).items():
                counts[(name, key)] += value
            if name in BOOTSTRAP and parent not in BOOTSTRAP:
                out["stats.bootstrap_s"] += net(span)
            if name == "index.embed" and parent == "index.build_dense":
                out["embedding.embed_s"] += net(span)
            elif name == "index.embed" and parent == "retriever.hybrid_retrieve":
                samples["embed"].append(net(span))
            elif name in ("index.bm25_scores", "index.dense_search"):
                samples[name].append(net(span))
                samples[name + ".counts"].append(span[COUNTS])
            elif name == "retriever.hybrid_retrieve":
                samples[name].append(net(span))
                samples["fusion_self"].append(trace.self_time(i))
                samples["hybrid.counts"].append(span[COUNTS])
                if cmd == "retrieve":
                    calls["retrieve.hybrid"] += 1
            elif name == "evaluator.sweep":
                out["evaluator.sweep_self_s"] += net(span) - sum(
                    net(trace.spans[c]) for c in trace.children[i]
                    if trace.spans[c][NAME] in BOOTSTRAP | {"retriever.hybrid_retrieve"})
            elif name == "aligner.align_answer":
                samples[f"tier{tiers.get(span[REQUEST], 0)}"].append(net(span))

    for metric, names in TOTALS.items():
        out[metric] = sum(totals[n] for n in names)
    for metric, span_key in SUMS.items():
        out[metric] = counts[span_key]
    out["corpus.docs"] = counts[("corpus.load_documents", "docs")] / max(  # per load
        1, calls["corpus.load_documents"])
    out["stats.bootstrap_calls"] = calls["stats.bootstrap_means"]
    out["trace.overhead_s"] = sum(t.main_traced - t.main_untraced for t in traces)

    ms = 1000.0
    out["embedding.embed.p50_ms"] = _median(samples["embed"]) * ms
    terms = counts[("index.embed", "terms")]
    out["embedding.term_cache_hit_ratio"] = (
        1.0 - counts[("kernels.hash_tokens", "terms")] / terms if terms else 0.0)
    for name in ("index.bm25_scores", "index.dense_search", "retriever.hybrid_retrieve"):
        out[f"{name}.p50_ms"] = _median(samples[name]) * ms
        out[f"{name}.p99_ms"] = _p99(samples[name]) * ms
    bm25 = samples["index.bm25_scores.counts"]
    out["index.bm25_hits_per_query"] = _mean([c["hits"] for c in bm25])
    out["index.postings_per_query"] = _mean([c["postings"] for c in bm25])
    out["index.dense_bytes_per_query"] = _mean(
        [c["bytes"] for c in samples["index.dense_search.counts"]])
    hybrid = samples["hybrid.counts"]
    out["retriever.fusion_self.p50_ms"] = _median(samples["fusion_self"]) * ms
    out["retriever.candidates_per_query"] = _mean([c["candidates"] for c in hybrid])
    candidates = sum(c["candidates"] for c in hybrid)
    out["retriever.kept_ratio"] = sum(c["kept"] for c in hybrid) / candidates if candidates else 0.0
    out["retriever.calls_per_query"] = calls["retrieve.hybrid"] / queries if queries else 0.0
    for tier in (1, 2, 3):
        values = samples[f"tier{tier}"]
        out[f"aligner.align_answer.tier{tier}.p50_ms"] = _median(values) * ms
        out[f"aligner.align_answer.tier{tier}.max_ms"] = max(values, default=0.0) * ms
    for metric, key in QUALITY.items():
        out[metric] = quality.get(key, (0.0, None))[0]
    return out
