"""Retrieval failure metrics (DRM, span recall) with k-sweeps and statistics.

DRM (document retrieval mismatch) is the proportion of top-k retrieved chunks
that do not originate from any gold-evidence document; a query-level variant
(share of queries with at least one mismatched chunk) is emitted alongside.
Span recall counts (gold span, retrieved chunk) pairs with same-document
character overlap, divided by the number of gold spans; multiple chunks
covering one span push it above 1.0 by design. Both metrics take a ranking as
index rows and read each row's document and character offsets only from the
chunk table, ``(doc_id, start, end)`` by row, that the index's ``chunks.jsonl``
fills.

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

from lexrag.schema import (ARRAY, INTEGER, NULL, NUMBER, OBJECT, REQUIRED_OBJECT,
                           REQUIRED_STRING, check)
# bootstrap_ci, bootstrap_minmax and paired_delta_ci are unused here, but
# perfbench's tracer wraps them under this module's name.
from lexrag.stats import (bonferroni, bootstrap_ci, bootstrap_minmax,  # noqa: F401
                          check_bootstrap, paired_delta_ci, paired_ttest, percentile_ci,
                          shared_bootstrap_means)

if TYPE_CHECKING:  # for annotations alone, so `compare` and `report` load neither module
    from lexrag.corpus import QueryRecord
    from lexrag.retriever import RetrievalContext

# The metrics every sweep reports and every comparison tests, in output order.
METRICS = ("drm", "span_recall")


def drm(rows: list[int], gold_docs: set[str],
        chunk_table: list[tuple[str, int, int]], k: int) -> float:
    """Proportion of the top-min(k, |rows|) ranked chunk rows from non-gold documents."""
    if not gold_docs:
        raise ValueError("gold_docs must be nonempty")
    if not rows:
        raise ValueError("DRM is undefined for an empty ranking")
    top = rows[:k]
    return sum(chunk_table[row][0] not in gold_docs for row in top) / len(top)


def span_recall(rows: list[int], gold_spans,
                chunk_table: list[tuple[str, int, int]], k: int) -> float:
    """Overlapping (gold span, top-k chunk row) pair count divided by span count.

    A pair overlaps when span and chunk share a document and at least one
    character.
    """
    if not gold_spans:
        raise ValueError("gold_spans must be nonempty")
    pairs = 0
    for row in rows[:k]:
        doc_id, start, end = chunk_table[row]
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
        """The report a ``to_dict`` payload holds. A ValueError names ``where`` (its
        file) and the key, with the k or the query and metric, where ``REPORT``, a per-k
        entry's ``PER_K_ENTRY`` (or a mean without its interval), a query's ``QUERY``
        or a metric's ``VALUES`` rejects it, or per_k or a metric's values are not at
        exactly the report's ks."""
        check(d, REPORT, where)
        ks, per_query = d["ks"], d["per_query"]
        per_k = _check_at_ks(d["per_k"], REQUIRED_OBJECT, ks, f"{where}: per_k")
        for k in ks:
            entry_where = f"{where}: per_k, k={k}"
            entry = check(per_k[str(k)], PER_K_ENTRY, entry_where)
            for metric in METRICS:
                if entry.get(f"{metric}_mean") is not None and f"{metric}_ci" not in entry:
                    raise ValueError(f"{entry_where}: key '{metric}_ci' is missing")
        check(per_query, tuple((qid, *ANY_QUERY) for qid in per_query), f"{where}: per_query")
        for qid, metrics in per_query.items():
            check(metrics, QUERY, f"{where}: query {qid!r}")
            for metric in METRICS:
                _check_at_ks(metrics[metric], VALUES[metric], ks,
                             f"{where}: query {qid!r}, metric {metric!r}")
        return cls(d["dataset"], d["variant"], list(ks), {k: per_k[str(k)] for k in ks},
                   {qid: {metric: {k: metrics[metric][str(k)] for k in ks} for metric in METRICS}
                    for qid, metrics in per_query.items()},
                   list(d.get("excluded", [])), d.get("bootstrap_iterations", 10000),
                   d.get("bootstrap_seed", 0))


# A metric report's header, as ``MetricReport.to_dict`` writes it (see ``lexrag.schema``):
# ks as ``sweep`` takes them, and the bootstrap settings ``check_bootstrap`` accepts.
REPORT = (
    ("dataset", *REQUIRED_STRING), ("variant", *REQUIRED_STRING),
    ("ks", ARRAY, True, lambda ks: all(type(k) is int for k in ks)
     and all(a < b for a, b in zip([0, *ks], ks)), "distinct integers >= 1 in ascending order"),
    ("per_k", *REQUIRED_OBJECT), ("per_query", *REQUIRED_OBJECT),
    ("excluded", ARRAY, False, lambda excluded: all(type(e) is dict for e in excluded),
     "a list of objects"),
    ("bootstrap_iterations", INTEGER, False, lambda n: n >= 1, "an integer >= 1"),
    ("bootstrap_seed", INTEGER, False, lambda seed: 0 <= seed < 2**64, "an integer in [0, 2**64)"))
# one k's entry of per_k: a null or absent mean renders as n/a, a number with its interval
PER_K_ENTRY = tuple(row for metric in METRICS for row in (
    (f"{metric}_mean", NUMBER + NULL, False, lambda mean: mean is None or math.isfinite(mean),
     "null or a finite number"),
    (f"{metric}_ci", ARRAY, False, lambda ci: len(ci) == 2 and all(
        type(x) in NUMBER and math.isfinite(x) for x in ci), "two finite numbers")))
# any query's entry of per_query, what it holds, and each metric's values (``_check_at_ks``)
ANY_QUERY = (OBJECT, False, None, "an object")
QUERY = tuple((metric, *REQUIRED_OBJECT) for metric in METRICS)
VALUES = {"drm": (NUMBER, True, lambda value: 0 <= value <= 1, "a number in [0, 1]"),
          "span_recall": (NUMBER, True, lambda value: 0 <= value < math.inf,
                          "a finite number >= 0")}


def _check_at_ks(by_k: dict, rule: tuple, ks: list[int], where: str) -> dict:
    """``by_k`` once it holds a value that ``rule`` accepts at exactly the report's ks."""
    check(by_k, tuple((str(k), *rule) for k in ks), where)
    extra = sorted(set(by_k) - {str(k) for k in ks})
    if extra:
        raise ValueError(f"{where}: key {extra[0]!r} is not one of the report's ks {ks}")
    return by_k


def sweep(records: list[QueryRecord], ctx: RetrievalContext, ks: list[int],
          dataset: str = "", variant: str = "baseline", seed: int = 0,
          iterations: int = 10000) -> MetricReport:
    """Evaluate DRM and span recall for every query at every k.

    Queries whose gold documents never appear in the indexed corpus, or whose
    retrieval comes back empty, are excluded and logged in the report. The other
    queries are retrieved in blocks (``RetrievalContext.retrieve_many``).
    """
    import numpy as np
    check_bootstrap(iterations, seed)
    ks = sorted(ks)
    report = MetricReport(dataset=dataset, variant=variant, ks=ks,
                          bootstrap_iterations=iterations, bootstrap_seed=seed)
    corpus_docs = {doc_id for doc_id, _, _ in ctx.chunk_table}

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
        drm_by_k = {k: drm(result.ranked, gold_docs, ctx.chunk_table, k) for k in ks}
        recall_by_k = {k: span_recall(result.ranked, record.gold_spans, ctx.chunk_table, k)
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
    import numpy as np
    check_bootstrap(iterations, seed)
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
