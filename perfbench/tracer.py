"""Outside-in tracing of lexrag: wrap public functions where callers look them up.

A wrapper must replace the name in the module that *calls* it, because
``from x import f`` copies the reference: patching ``lexrag.index.embed``
alone would never fire for ``lexrag.retriever``'s calls. ``SITES`` therefore
lists (calling module, name) pairs. Each call records one span:

    [name, parent index, start, end, request id, excluded seconds, counts]

Spans stay in a list in memory and are written when the run ends. Counting
work done after a call (e.g. postings touched by a BM25 query) is timed and
added to ``excluded`` of every open ancestor, so it never shows up as any
layer's time.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import time

# (calling module, names looked up there)
SITES = [
    ("lexrag.cli", [
        "load_documents", "load_qa_dataset", "validate_annotations", "convert_spans_to_char",
        "dataset_counts", "split_recursive", "dump_chunks", "load_chunks",
        "enrich_document_chunks", "dump_enriched", "load_enriched", "build_sparse",
        "build_dense", "save_indexes", "load_indexes", "sweep", "compare_reports",
        "render_table", "render_comparison_table", "reconstruct_dataset",
        "save_aligned_dataset", "build_preference_pairs", "dump_pairs", "load_model_outputs",
        "mean_score_with_delta_ci", "refusal_rates", "split_dataset", "token_f1",
        "dump_results", "get_embedder",
    ]),
    ("lexrag.retriever", ["embed", "bm25_scores", "dense_search", "hybrid_retrieve"]),
    ("lexrag.evaluator", ["drm", "span_recall", "bootstrap_ci", "bootstrap_minmax",
                          "paired_ttest", "paired_delta_ci"]),
    ("lexrag.stats", ["bootstrap_means", "bootstrap_ci"]),
    ("lexrag.preference", ["bootstrap_ci"]),
    ("lexrag.index", ["embed"]),
    ("lexrag.kernels", ["hash_tokens"]),
    ("lexrag.aligner", ["align_answer"]),
]

NAME, PARENT, START, END, REQUEST, EXCLUDED, COUNTS = range(7)


def _terms(text: str) -> list[str]:
    from lexrag.textutils import tokenize
    return tokenize(text)


def _count_bm25(tracer, idx, args, kwargs, result):
    index, query = args[0], args[1]
    touched = sum(index.postings[t][0].shape[0] for t in _terms(query) if t in index.postings)
    return {"hits": len(result), "postings": touched, "rows": [r for r, _ in result]}


def _count_dense(tracer, idx, args, kwargs, result):
    index = args[0]
    return {"bytes": index.N * index.dim * 8, "rows": [r for r, _ in result]}


def _count_hybrid(tracer, idx, args, kwargs, result):
    rows: set[int] = set()
    for child in tracer.children(idx):
        counts = child[COUNTS]
        if counts and "rows" in counts:
            rows.update(counts.pop("rows"))
    return {"candidates": len(rows), "kept": len(result.ranked)}


def _count_embed(tracer, idx, args, kwargs, result):
    texts = args[1]
    return {"texts": len(texts), "terms": sum(len(_terms(t)) for t in texts)}


COUNTERS = {
    "index.bm25_scores": _count_bm25,
    "index.dense_search": _count_dense,
    "retriever.hybrid_retrieve": _count_hybrid,
    "index.embed": _count_embed,
    "kernels.hash_tokens": lambda t, i, a, k, r: {"terms": int(a[1].shape[0] - 1)},
    "stats.bootstrap_means": lambda t, i, a, k, r: {
        "resamples": int(a[1] if len(a) > 1 else k["iterations"]) * len(a[0])},
    "chunker.split_recursive": lambda t, i, a, k, r: {"chunks": len(r)},
    "enricher.enrich_document_chunks": lambda t, i, a, k, r: {
        "fallbacks": sum(1 for e in r if e.summary_fallback)},
    "corpus.load_documents": lambda t, i, a, k, r: {"docs": len(r)},
    "index.build_sparse": lambda t, i, a, k, r: {
        "postings": sum(rows.shape[0] for rows, _ in r.postings.values())},
    "preference.build_preference_pairs": lambda t, i, a, k, r: {"pairs": len(r)},
}

REQUESTS = {
    "retriever.hybrid_retrieve": lambda a, k: k.get("query_id", ""),
    "aligner.align_answer": lambda a, k: answer_key(a[1]),
}


def answer_key(answer: str) -> str:
    """Request id of an alignment call: a digest of the excerpt being aligned."""
    return hashlib.sha1(answer.encode("utf-8")).hexdigest()[:16]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = [-1]

    def children(self, idx: int):
        return (s for s in self.spans[idx + 1:] if s[PARENT] == idx)

    def wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        counter, request = COUNTERS.get(name), REQUESTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, stack[-1], 0.0, 0.0, None, 0.0, None]
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if counter or request:
                t0 = clock()
                if request:
                    span[REQUEST] = request(args, kwargs)
                if counter:
                    span[COUNTS] = counter(self, idx, args, kwargs, result)
                spent = clock() - t0
                for open_idx in stack[1:]:
                    spans[open_idx][EXCLUDED] += spent
            return result

        return wrapper

    def install(self) -> None:
        for module_name, names in SITES:
            module = importlib.import_module(module_name)
            for attr in names:
                fn = getattr(module, attr)
                layer = fn.__module__.rsplit(".", 1)[-1]
                setattr(module, attr, self.wrap(fn, f"{layer}.{fn.__name__}"))

    def run_command(self, main, argv: list[str]) -> int:
        """Run one lexrag command under a root span named ``cli.<command>``."""
        return self.wrap(main, f"cli.{argv[0]}")(argv)

    def export(self) -> list[list]:
        for span in self.spans:
            if span[COUNTS]:
                span[COUNTS].pop("rows", None)
        return self.spans
