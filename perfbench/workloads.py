"""The three benchmark workloads: inputs, lexrag command sequences and output checks.

Each workload generates its inputs from the seed, names the commands that set
up and the commands that are timed, says which timed commands its throughput
is measured over, and checks the outputs. A check that passes or fails counts
as one operation in ``Ops``; ``check`` returns the workload's quality and size
figures as ``{name: (value, unit)}``.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np

import gen

SIZES = {
    # docs x tokens/doc for build and query, records x chars/doc for align
    "full": {"build_docs": 40, "query_docs": 20, "tokens": 4000, "queries": 100,
             "records": 15, "doc_chars": 28000},
    "toy": {"build_docs": 3, "query_docs": 3, "tokens": 1200, "queries": 8,
            "records": 6, "doc_chars": 5000},
}
TARGET, OVERLAP, DIM, K1, B, ALPHA = 256, 50, 256, 1.2, 0.75, 0.8
KS = [1, 2, 4, 8, 16, 32, 64]
RETRIEVE_TOP, RETRIEVE_K, POOL = 4, 10, 100
SCORE_TOL = 1e-12
SAMPLED_QUERIES = 20

_WORD = re.compile(r"\w+")
_NONSPACE = re.compile(r"\S+")


class Ops:
    """Operations attempted and failed; a failure keeps its description."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


def _read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _doc_texts(root: Path) -> dict[str, str]:
    return {p.relative_to(root).as_posix(): p.read_text(encoding="utf-8")
            for p in sorted(root.rglob("*")) if p.is_file()}


def output_bytes(dirs: list[Path]) -> int:
    """Bytes of every file under ``dirs`` except the timestamped run manifests."""
    return sum(p.stat().st_size for d in dirs for p in d.rglob("*")
               if p.is_file() and p.name != "run_manifest.json")


def _index_round_trip(index_dir: Path, n_chunks: int, ops: Ops) -> None:
    from lexrag.index import load_indexes

    sparse, dense = load_indexes(index_dir)
    ops.check(sparse.N == dense.N == n_chunks,
              f"{index_dir.name}: loaded N={sparse.N}/{dense.N}, expected {n_chunks}")


class Workload:
    name = ""
    core: tuple[str, ...] = ()  # timed commands that items_per_cpu_s is measured over

    def setup(self, info, out: Path) -> list[list[str]]:
        return []

    def tiers(self, info) -> dict[str, int]:
        """Request id of each alignment call -> the match tier of its record."""
        return {}


class Build(Workload):
    """Write side: chunk, enrich, index and save a corpus twice the size of ``query``'s."""

    name = "build"
    core = ("chunk", "enrich", "index")

    def generate(self, inputs: Path, seed: int, size: dict):
        return gen.retrieval_corpus(inputs, seed, size["build_docs"], size["tokens"],
                                    size["queries"])

    def timed(self, info, out: Path) -> list[list[str]]:
        corpus = ["--root", str(info.root), "--manifest", str(info.manifest)]
        return [
            ["ingest", *corpus, "--qa", str(info.qa), "--format", "snippet_qa",
             "--out", str(out / "ingest")],
            ["chunk", *corpus, "--target", str(TARGET), "--overlap", str(OVERLAP),
             "--out", str(out / "chunks")],
            ["enrich", *corpus, "--chunks", str(out / "chunks" / "chunks.jsonl"),
             "--summarizer", "extractive", "--out", str(out / "enriched")],
            ["index", "--chunks", str(out / "enriched" / "enriched.jsonl"),
             "--embedder", "deterministic", "--dim", str(DIM), "--out", str(out / "index")],
        ]

    def items(self, info, out: Path) -> int:
        return len(_read_jsonl(out / "chunks" / "chunks.jsonl"))

    def check(self, info, out: Path, ops: Ops) -> dict:
        docs = _doc_texts(info.root)
        chunks = _read_jsonl(out / "chunks" / "chunks.jsonl")
        for c in chunks:
            ops.check(c["text"] == docs[c["doc_id"]][c["start"]:c["end"]],
                      f"chunk {c['chunk_id']} is not its document slice")
            ops.check(len(_NONSPACE.findall(c["text"])) <= TARGET,
                      f"chunk {c['chunk_id']} exceeds {TARGET} tokens")
        report = json.loads((out / "ingest" / "ingest_report.json").read_text())
        ops.check(report["documents"] == info.docs, "ingest document count")
        _index_round_trip(out / "index", len(chunks), ops)
        return {"chunks": (len(chunks), "count"),
                "index_mb": (output_bytes([out / "index"]) / 2**20, "MB")}


class Query(Workload):
    """Read side: the paper's baseline-vs-enhanced retrieval experiment."""

    name = "query"
    core = ("retrieve",)

    def generate(self, inputs: Path, seed: int, size: dict):
        return gen.retrieval_corpus(inputs, seed, size["query_docs"], size["tokens"],
                                    size["queries"])

    def setup(self, info, out: Path) -> list[list[str]]:
        corpus = ["--root", str(info.root), "--manifest", str(info.manifest)]
        index = ["--embedder", "deterministic", "--dim", str(DIM)]
        return [
            ["chunk", *corpus, "--target", str(TARGET), "--overlap", str(OVERLAP),
             "--out", str(out / "chunks")],
            ["enrich", *corpus, "--chunks", str(out / "chunks" / "chunks.jsonl"),
             "--summarizer", "extractive", "--out", str(out / "enriched")],
            ["index", "--chunks", str(out / "chunks" / "chunks.jsonl"), *index,
             "--out", str(out / "index_baseline")],
            ["index", "--chunks", str(out / "enriched" / "enriched.jsonl"), *index,
             "--out", str(out / "index_enhanced")],
        ]

    def timed(self, info, out: Path) -> list[list[str]]:
        qa = ["--qa", str(info.qa)]
        ev = ["--k", ",".join(map(str, KS)), "--bootstrap-iterations", "10000", "--seed", "0"]
        return [
            ["retrieve", "--index", str(out / "index_enhanced"), *qa,
             "--top", str(RETRIEVE_TOP), "--out", str(out / "retrieved")],
            ["eval-retrieval", "--index", str(out / "index_baseline"), *qa, *ev,
             "--variant", "baseline", "--out", str(out / "eval_baseline")],
            ["eval-retrieval", "--index", str(out / "index_enhanced"), *qa, *ev,
             "--variant", "enhanced", "--out", str(out / "eval_enhanced")],
            ["compare", "--baseline", str(out / "eval_baseline" / "metric_report.json"),
             "--enhanced", str(out / "eval_enhanced" / "metric_report.json"),
             "--bootstrap-iterations", "10000", "--seed", "0", "--out", str(out / "compare")],
        ]

    def items(self, info, out: Path) -> int:
        return info.queries

    def check(self, info, out: Path, ops: Ops) -> dict:
        from lexrag.embedding import get_embedder
        from lexrag.index import bm25_scores, dense_search, embed, load_indexes

        index_dir = out / "index_enhanced"
        rows = _read_jsonl(index_dir / "chunks.jsonl")
        sparse, dense = load_indexes(index_dir)
        ops.check(sparse.N == dense.N == len(rows), "enhanced index size")
        chunk_ids = [r["chunk_id"] for r in rows]
        table = {r["chunk_id"]: (r["doc_id"], r["start"], r["end"]) for r in rows}
        oracle = _Bm25Oracle([r.get("full_text", r["text"]) for r in rows])
        embedder = get_embedder("deterministic", dim=DIM)

        qa = {r["query_id"]: r for r in json.loads(info.qa.read_text(encoding="utf-8"))}
        results = {r["query_id"]: r for r in _read_jsonl(out / "retrieved" / "results.jsonl")}
        ops.check(len(results) == info.queries, "one retrieval result per query")
        rng = np.random.default_rng(info.queries)
        sample = sorted(rng.choice(sorted(results), size=min(SAMPLED_QUERIES, len(results)),
                                   replace=False).tolist())
        for qid in sample:
            question = qa[qid]["query"]
            sparse_hits = bm25_scores(sparse, question)
            expected = oracle.scores(question)
            ops.check(_same_ranking(sparse_hits, expected, chunk_ids),
                      f"{qid}: bm25_scores disagrees with the BM25 formula")
            qvec = embed(embedder, [question])[0]
            dense_hits = dense_search(dense, qvec, min(POOL, dense.N))
            fused = _fuse(dense_hits, sparse_hits, chunk_ids)[:RETRIEVE_K]
            ranked = results[qid]["ranked"]
            ops.check(len(ranked) == len(fused) and all(
                got[0] == want[0] and all(abs(g - w) <= SCORE_TOL
                                          for g, w in zip(got[1:], want[1:]))
                for got, want in zip(ranked, fused)),
                f"{qid}: results.jsonl disagrees with min-max fusion")

        report = json.loads((out / "eval_enhanced" / "metric_report.json").read_text())
        check_ks = [k for k in KS if k <= RETRIEVE_K]
        for qid, per_metric in report["per_query"].items():
            top_ids = [row[0] for row in results[qid]["ranked"]]
            spans = qa[qid]["snippets"]
            ok = all(per_metric["drm"][str(k)] == _drm(top_ids[:k], spans, table)
                     and per_metric["span_recall"][str(k)]
                     == _span_recall(top_ids[:k], spans, table)
                     for k in check_ks)
            ops.check(ok, f"{qid}: metric_report disagrees with results.jsonl")
        for k in check_ks:
            for metric in ("drm", "span_recall"):
                values = [m[metric][str(k)] for m in report["per_query"].values()]
                ops.check(abs(report["per_k"][str(k)][f"{metric}_mean"]
                              - float(np.mean(values))) <= SCORE_TOL,
                          f"per-k {metric} mean at k={k}")
        comparison = json.loads((out / "compare" / "comparison.json").read_text())
        ops.check(comparison["m"] == 2 * len(KS), "compare tests every metric at every k")
        return {"drm_k4": (report["per_k"]["4"]["drm_mean"], "fraction"),
                "span_recall_k4": (report["per_k"]["4"]["span_recall_mean"], "ratio"),
                "index_mb": (output_bytes([out / "index_baseline", index_dir]) / 2**20, "MB")}


class _Bm25Oracle:
    """Okapi BM25 written from the formula in ``bm25_scores``'s docstring."""

    def __init__(self, texts: list[str]):
        self.postings: dict[str, dict[int, int]] = {}
        lengths = []
        for row, text in enumerate(texts):
            terms = _WORD.findall(text.lower())
            lengths.append(len(terms))
            for term in terms:
                self.postings.setdefault(term, {}).setdefault(row, 0)
                self.postings[term][row] += 1
        self.n = len(texts)
        avg = sum(lengths) / self.n
        self.norms = [K1 * (1.0 - B + B * (length / avg)) for length in lengths]

    def scores(self, query: str) -> dict[int, float]:
        scores: dict[int, float] = {}
        for term in _WORD.findall(query.lower()):
            posting = self.postings.get(term)
            if not posting:
                continue
            n_t = len(posting)
            idf = math.log((self.n - n_t + 0.5) / (n_t + 0.5) + 1.0)
            for row, tf in posting.items():
                scores[row] = scores.get(row, 0.0) + idf * tf * (K1 + 1.0) / (tf + self.norms[row])
        return {row: s for row, s in scores.items() if s != 0.0}


def _same_ranking(hits: list[tuple[int, float]], expected: dict[int, float],
                  chunk_ids: list[str]) -> bool:
    order = sorted(expected, key=lambda r: (-expected[r], chunk_ids[r]))
    return (len(hits) == len(order)
            and all(row == want and abs(score - expected[want]) <= SCORE_TOL
                    for (row, score), want in zip(hits, order)))


def _fuse(dense_hits, sparse_hits, chunk_ids: list[str]) -> list[list]:
    """Min-max fusion over the candidate union, as the retriever documents it."""
    dense_d, sparse_d = dict(dense_hits), dict(sparse_hits)
    rows = np.array(sorted(set(dense_d) | set(sparse_d)), dtype=np.int64)

    def side(hits: dict[int, float]) -> np.ndarray:
        if not hits:
            return np.zeros(len(rows))
        values = np.array([hits.get(int(r), 0.0) for r in rows])
        lo, hi = values.min(), values.max()
        return np.ones(len(rows)) if hi == lo else (values - lo) / (hi - lo)

    d, s = side(dense_d), side(sparse_d)
    fused = ALPHA * d + (1.0 - ALPHA) * s
    ids = np.array([chunk_ids[r] for r in rows])
    order = np.lexsort((ids, -fused))
    return [[str(ids[i]), float(fused[i]), float(d[i]), float(s[i])] for i in order]


def _drm(top_ids: list[str], spans: list[dict], table: dict) -> float:
    gold = {s["file_path"] for s in spans}
    return sum(1 for cid in top_ids if table[cid][0] not in gold) / len(top_ids)


def _span_recall(top_ids: list[str], spans: list[dict], table: dict) -> float:
    pairs = sum(1 for s in spans for cid in top_ids
                if table[cid][0] == s["file_path"]
                and min(s["span"][1], table[cid][2]) - max(s["span"][0], table[cid][1]) >= 1)
    return pairs / len(spans)


class Align(Workload):
    """Span alignment over three match tiers, then the preference and refusal commands."""

    name = "align"
    core = ("align-spans",)

    def generate(self, inputs: Path, seed: int, size: dict):
        return gen.align_corpus(inputs, seed, size["records"], size["doc_chars"])

    def timed(self, info, out: Path) -> list[list[str]]:
        qa = ["--qa", str(info.qa)]
        return [
            ["align-spans", "--root", str(info.root), *qa, "--out", str(out / "aligned")],
            ["dpo-build", *qa, "--train", str(info.records - 6), "--validation", "3",
             "--test", "3", "--seed", "0", "--out", str(out / "dpo")],
            ["eval-refusal", "--outputs", str(info.outputs_a), "--mode", "both",
             "--out", str(out / "refusal")],
            ["eval-answers", "--outputs", str(info.outputs_a), *qa,
             "--compare-with", str(info.outputs_b), "--bootstrap-iterations", "10000",
             "--seed", "0", "--out", str(out / "answers")],
        ]

    def items(self, info, out: Path) -> int:
        return info.records

    def tiers(self, info) -> dict[str, int]:
        from tracer import answer_key

        records = _read_jsonl(info.qa)
        return {answer_key(r["Context"]): info.truth[r["query_id"]]["tier"] for r in records}

    def check(self, info, out: Path, ops: Ops) -> dict:
        aligned = {r["query_id"]: r for r in
                   json.loads((out / "aligned" / "aligned_dataset.json").read_text())}
        errors = []
        for qid, truth in info.truth.items():
            spans = aligned[qid]["snippets"] if qid in aligned else []
            got = (spans[0]["file_path"], *spans[0]["span"]) if len(spans) == 1 else None
            want = (truth["doc_id"], truth["start"], truth["end"])
            if truth["tier"] < 3:
                ops.check(got == want, f"{qid}: tier-{truth['tier']} span {got} != {want}")
            elif got is not None and got[0] == want[0]:
                errors.append(abs(got[1] - want[1]) + abs(got[2] - want[2]))

        manifest = json.loads((out / "dpo" / "dpo_manifest.json").read_text())
        for split, counts in manifest["splits"].items():
            lines = len(_read_jsonl(out / "dpo" / f"{split}.jsonl"))
            ops.check(counts["pairs"] == lines == 2 * counts["records"],
                      f"dpo {split}: {lines} pairs for {counts['records']} records")

        refusal = json.loads((out / "refusal" / "refusal_report.json").read_text())
        for key, planted in info.planted.items():
            strict = 100.0 * planted["canonical"] / planted["total"]
            soft = 100.0 * (planted["canonical"] + planted["hedged"]) / planted["total"]
            ops.check(refusal["strict"][f"{key}_rate"]["exact"] == strict, f"strict {key} rate")
            ops.check(refusal["soft"][f"{key}_rate"]["exact"] == soft, f"soft {key} rate")

        answers = json.loads((out / "answers" / "answer_report.json").read_text())
        ops.check(answers["outputs"] == answers["comparison"]["n"] == info.records,
                  "eval-answers scored every output")
        report = json.loads((out / "aligned" / "alignment_report.json").read_text())
        return {"align_err_chars": (float(np.mean(errors)) if errors else 0.0, "chars"),
                "aligned_share": (report["aligned"] / info.records, "fraction")}


WORKLOADS = {w.name: w for w in (Build(), Query(), Align())}
