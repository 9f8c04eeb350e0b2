"""Retrieval failure metrics (DRM, span recall) with k-sweeps and statistics.

DRM (document retrieval mismatch) is the proportion of top-k retrieved chunks
that do not originate from any gold-evidence document; a query-level variant
(share of queries with at least one mismatched chunk) is emitted alongside.
Span recall counts (gold span, retrieved chunk) pairs with same-document
character overlap, divided by the number of gold spans; multiple chunks
covering one span push it above 1.0 by design. Both metrics read a ranked
chunk's document and character offsets only from the chunk table,
``chunk_id -> (doc_id, start, end)``, that the index's ``chunks.jsonl`` fills.

Sweeps evaluate nested ranking prefixes, so one retrieval pass per query
serves every k. Confidence intervals come from seeded percentile bootstrap;
min-max ranges across the resampled means are reported alongside, labeled
distinctly. Every metric x k cell of a sweep (every delta of a comparison)
has the same seed and sample size, so all of them share one resample draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

# bootstrap_ci, bootstrap_minmax and paired_delta_ci are unused here, but
# perfbench's tracer wraps them under this module's name.
from lexrag.stats import (bonferroni, bootstrap_ci, bootstrap_minmax,  # noqa: F401
                          paired_delta_ci, paired_ttest, percentile_ci, shared_bootstrap_means)

if TYPE_CHECKING:  # for annotations alone, so `compare` and `report` load neither module
    from lexrag.corpus import QueryRecord
    from lexrag.retriever import RetrievalContext, RetrievalResult

DEFAULT_KS = [1, 2, 4, 8, 16, 32, 64]
# The metrics every sweep reports and every comparison tests, in output order.
METRICS = ("drm", "span_recall")


def drm(result: RetrievalResult, gold_docs: set[str],
        chunk_table: dict[str, tuple[str, int, int]], k: int) -> float:
    """Proportion of the top-min(k, |ranked|) chunks from non-gold documents."""
    if not gold_docs:
        raise ValueError("gold_docs must be nonempty")
    if not result.ranked:
        raise ValueError("DRM is undefined for an empty ranking")
    top = result.ranked[:k]
    mismatched = 0
    for ranked_chunk in top:
        if chunk_table[ranked_chunk.chunk_id][0] not in gold_docs:
            mismatched += 1
    return mismatched / len(top)


def span_recall(result: RetrievalResult, gold_spans,
                chunk_table: dict[str, tuple[str, int, int]], k: int) -> float:
    """Overlapping (gold span, top-k chunk) pair count divided by span count.

    A pair overlaps when span and chunk share a document and at least one
    character.
    """
    if not gold_spans:
        raise ValueError("gold_spans must be nonempty")
    pairs = 0
    for ranked_chunk in result.ranked[:k]:
        doc_id, start, end = chunk_table[ranked_chunk.chunk_id]
        for span in gold_spans:
            if span.doc_id == doc_id and min(span.end, end) - max(span.start, start) >= 1:
                pairs += 1
    return pairs / len(gold_spans)


@dataclass
class PairedComparison:
    metric: str
    k: int
    delta_mean: float
    delta_ci: tuple[float, float]
    p_value: float
    p_adjusted: float
    n: int
    degenerate_variance: bool = False


@dataclass
class MetricReport:
    dataset: str
    variant: str
    ks: list[int]
    per_k: dict[int, dict[str, object]] = field(default_factory=dict)
    per_query: dict[str, dict[str, dict[int, float]]] = field(default_factory=dict)
    excluded: list[dict] = field(default_factory=list)
    bootstrap_iterations: int = 10000
    bootstrap_seed: int = 0

    def to_dict(self) -> dict:
        return {
            "dataset": self.dataset,
            "variant": self.variant,
            "ks": self.ks,
            "per_k": {str(k): v for k, v in self.per_k.items()},
            "per_query": {
                qid: {metric: {str(k): val for k, val in by_k.items()}
                      for metric, by_k in metrics.items()}
                for qid, metrics in self.per_query.items()
            },
            "excluded": self.excluded,
            "bootstrap_iterations": self.bootstrap_iterations,
            "bootstrap_seed": self.bootstrap_seed,
        }

    @classmethod
    def from_dict(cls, d: dict, where: str = "metric report") -> "MetricReport":
        """The report a ``to_dict`` payload holds. A missing key, or a per-query
        value that is not a finite number in its metric's range at exactly the
        report's ks, is a ValueError naming ``where`` (the report's file) and the
        key, or the query, metric and k."""
        for key in ("dataset", "variant", "ks", "per_k", "per_query"):
            if key not in d:
                raise ValueError(f"{where}: key {key!r} is missing")
        ks = d["ks"]
        if not isinstance(ks, list) or any(type(k) is not int for k in ks):
            raise ValueError(f"{where}: key 'ks' must be a list of integers, not {ks!r}")
        if not isinstance(d["per_query"], dict):
            raise ValueError(f"{where}: key 'per_query' must be an object")
        for qid, metrics in d["per_query"].items():
            for metric in METRICS:
                by_k = metrics.get(metric) if isinstance(metrics, dict) else None
                if not isinstance(by_k, dict):
                    raise ValueError(f"{where}: query {qid!r}, metric {metric!r} is missing")
                _check_values(by_k, ks, metric, f"{where}: query {qid!r}, metric {metric!r}")
        return cls(
            dataset=d["dataset"],
            variant=d["variant"],
            ks=list(ks),
            per_k={int(k): v for k, v in d["per_k"].items()},
            per_query={
                qid: {metric: {int(k): val for k, val in by_k.items()}
                      for metric, by_k in metrics.items()}
                for qid, metrics in d["per_query"].items()
            },
            excluded=list(d.get("excluded", [])),
            bootstrap_iterations=d.get("bootstrap_iterations", 10000),
            bootstrap_seed=d.get("bootstrap_seed", 0),
        )


def _check_values(by_k: dict, ks: list[int], metric: str, where: str) -> None:
    """One query's values of one metric, keyed by str(k): exactly the ks, each a
    finite number (JSON true is none), DRM in [0, 1] and span recall >= 0."""
    extra = sorted(set(by_k) - {str(k) for k in ks})
    if extra:
        raise ValueError(f"{where}, k={extra[0]} is not one of the report's ks {ks}")
    for k in ks:
        if str(k) not in by_k:
            raise ValueError(f"{where}, k={k}: value is missing")
        value = by_k[str(k)]
        if type(value) not in (int, float) or not math.isfinite(value):
            raise ValueError(f"{where}, k={k}: value must be a finite number, not {value!r}")
        if (metric == "drm" and not 0 <= value <= 1) or value < 0:
            wanted = "in [0, 1]" if metric == "drm" else ">= 0"
            raise ValueError(f"{where}, k={k}: value must be {wanted}, not {value!r}")


def sweep(records: list[QueryRecord], ctx: RetrievalContext, ks: list[int] | None = None,
          dataset: str = "", variant: str = "baseline", seed: int = 0,
          iterations: int = 10000) -> MetricReport:
    """Evaluate DRM and span recall for every query at every k.

    Queries whose gold documents never appear in the indexed corpus, or whose
    retrieval comes back empty, are excluded and logged in the report. The other
    queries are retrieved in blocks (``RetrievalContext.retrieve_many``).
    """
    ks = sorted(ks or DEFAULT_KS)
    report = MetricReport(dataset=dataset, variant=variant, ks=ks,
                          bootstrap_iterations=iterations, bootstrap_seed=seed)
    corpus_docs = {doc_id for doc_id, _, _ in ctx.chunk_table.values()}

    def exclusion(record: QueryRecord) -> str | None:
        if not record.gold_spans:
            return "no_gold_spans"
        if not ({s.doc_id for s in record.gold_spans} & corpus_docs):
            return "no_resolvable_gold_docs"
        return None

    reasons = [exclusion(record) for record in records]
    kept = [record for record, reason in zip(records, reasons) if reason is None]
    results = ctx.retrieve_many([r.question for r in kept], [r.query_id for r in kept])
    for record, reason in zip(records, reasons):
        result = next(results) if reason is None else None
        if result is not None and not result.ranked:
            reason = "empty_ranking"
        if reason is not None:
            report.excluded.append({"query_id": record.query_id, "reason": reason})
            continue
        gold_docs = {s.doc_id for s in record.gold_spans}
        drm_by_k = {k: drm(result, gold_docs, ctx.chunk_table, k) for k in ks}
        recall_by_k = {k: span_recall(result, record.gold_spans, ctx.chunk_table, k)
                       for k in ks}
        report.per_query[record.query_id] = {"drm": drm_by_k, "span_recall": recall_by_k}

    qids = list(report.per_query)
    if not qids:
        report.per_k = {k: {f"{metric}_mean": None for metric in METRICS} for k in ks}
        return report
    values = np.array([[[report.per_query[q][metric][k] for q in qids] for metric in METRICS]
                       for k in ks], dtype=np.float64)
    means = shared_bootstrap_means(values.reshape(-1, len(qids)), iterations, seed)
    means = means.reshape(len(ks), len(METRICS), iterations)
    for k, values_k, means_k in zip(ks, values, means):
        entry: dict[str, object] = {}
        for metric, vals, resampled in zip(METRICS, values_k, means_k):
            entry[f"{metric}_mean"] = float(vals.mean())
            entry[f"{metric}_ci"] = list(percentile_ci(resampled))
            entry[f"{metric}_minmax"] = [float(resampled.min()), float(resampled.max())]
        entry["drm_query_mean"] = float(np.mean(values_k[0] > 0))
        report.per_k[k] = entry
    return report


def compare_reports(baseline: MetricReport, enhanced: MetricReport,
                    iterations: int = 10000, seed: int = 0) -> list[PairedComparison]:
    """Paired per-query comparison over shared queries: delta = enhanced - baseline.

    p-values are Bonferroni-adjusted with m = (number of shared k settings) x
    (number of metrics); m is recoverable from the output length.
    """
    shared_queries = sorted(set(baseline.per_query) & set(enhanced.per_query))
    shared_ks = sorted(set(baseline.ks) & set(enhanced.ks))
    if not shared_queries or not shared_ks:
        return []
    m = len(shared_ks) * len(METRICS)
    cells = [(metric, k) for metric in METRICS for k in shared_ks]
    base_vals = np.array([[baseline.per_query[q][metric][k] for q in shared_queries]
                          for metric, k in cells])
    enh_vals = np.array([[enhanced.per_query[q][metric][k] for q in shared_queries]
                         for metric, k in cells])
    deltas = enh_vals - base_vals
    means = shared_bootstrap_means(deltas, iterations, seed)
    comparisons = []
    for (metric, k), base, enh, delta, resampled in zip(cells, base_vals, enh_vals, deltas, means):
        if len(shared_queries) >= 2:
            t, p = paired_ttest(enh, base)
        else:
            t, p = 0.0, 1.0
        comparisons.append(PairedComparison(
            metric=metric,
            k=k,
            delta_mean=float(delta.mean()),
            delta_ci=percentile_ci(resampled),
            p_value=p,
            p_adjusted=bonferroni(p, m),
            n=len(shared_queries),
            degenerate_variance=math.isinf(t),
        ))
    return comparisons


def render_table(report: MetricReport) -> str:
    """Per-k grid: mean with CI bounds in parentheses, one row per metric."""
    ks = report.ks
    header = ["Metric".ljust(24)] + [f"k={k}" for k in ks]
    lines = [f"dataset={report.dataset} variant={report.variant}"]
    rows = []
    for metric, label, scale in (("drm", "DRM (%)", 100.0),
                                 ("span_recall", "Span Recall", 1.0)):
        cells = []
        for k in ks:
            entry = report.per_k.get(k, {})
            mean = entry.get(f"{metric}_mean")
            ci = entry.get(f"{metric}_ci")
            if mean is None:
                cells.append("n/a")
            elif scale == 100.0:
                cells.append(f"{mean * scale:.1f} ({ci[0] * scale:.1f}-{ci[1] * scale:.1f})")
            else:
                cells.append(f"{mean:.3f} ({ci[0]:.3f}-{ci[1]:.3f})")
        rows.append([label.ljust(24)] + cells)
    widths = [max(len(row[i]) for row in [header] + rows) for i in range(len(header))]
    for row in [header] + rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def render_comparison_table(comparisons: list[PairedComparison]) -> str:
    lines = [f"{'metric':<14}{'k':>4}  {'delta':>9}  {'95% CI':>20}  "
             f"{'p':>10}  {'p_adj':>10}"]
    for c in comparisons:
        ci = f"[{c.delta_ci[0]:+.4f}, {c.delta_ci[1]:+.4f}]"
        flag = " *" if c.degenerate_variance else ""
        lines.append(f"{c.metric:<14}{c.k:>4}  {c.delta_mean:>+9.4f}  {ci:>20}  "
                     f"{c.p_value:>10.4g}  {c.p_adjusted:>10.4g}{flag}")
    if any(c.degenerate_variance for c in comparisons):
        lines.append("* zero-variance differences; t degenerate")
    return "\n".join(lines)
