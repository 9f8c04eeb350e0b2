"""Command-line pipeline orchestration.

Every command reads declared inputs, writes declared outputs under --out, and
exits 0 on success or nonzero with a machine-readable error JSON on stderr.
Identical config and seeds produce byte-identical outputs; wall-clock
timestamps appear only in each run's run_manifest.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import lexrag
from lexrag.aligner import AlignConfig, reconstruct_dataset, save_aligned_dataset
from lexrag.chunker import Chunk, ChunkConfig, dump_chunks, load_chunks, split_recursive
from lexrag.corpus import (
    convert_spans_to_char,
    dataset_counts,
    load_documents,
    load_qa_dataset,
    validate_annotations,
)
from lexrag.embedding import get_embedder
from lexrag.enricher import (
    EnrichedChunk,
    ExtractiveSummarizer,
    RemoteSummarizer,
    dump_enriched,
    enrich_document_chunks,
    load_enriched,
)
from lexrag.evaluator import (
    MetricReport,
    compare_reports,
    render_comparison_table,
    render_table,
    sweep,
)
from lexrag.index import build_dense, build_sparse, load_indexes, save_indexes, sha256_file
from lexrag.preference import (
    RefusalConfig,
    SplitSpec,
    build_preference_pairs,
    dump_pairs,
    load_model_outputs,
    mean_score_with_delta_ci,
    refusal_rates,
    split_dataset,
    token_f1,
)
from lexrag.remote import RemoteConfig
from lexrag.retriever import FusionConfig, RetrievalContext, RetrievalResult, dump_results
from lexrag.textutils import read_jsonl, write_jsonl


# ---------------------------------------------------------------------------
# small shared helpers

def _write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _write_run_manifest(out_dir: Path, config: dict, inputs: list[Path]) -> None:
    """Reproducibility record: config hash, input checksums, component version.

    This is the only artifact allowed to contain a timestamp.
    """
    manifest = {
        "version": lexrag.__version__,
        "config": config,
        "config_sha256": hashlib.sha256(
            json.dumps(config, sort_keys=True).encode("utf-8")).hexdigest(),
        "inputs": {
            str(p): sha256_file(p) for p in inputs if p is not None and Path(p).is_file()
        },
        "created_at": datetime.now(timezone.utc).isoformat(),
    }
    _write_json(out_dir / "run_manifest.json", manifest)


@dataclass
class PipelineConfig:
    """Structured view of a --config file; individual flags override its keys.

    Keys mirror flag names (target, overlap, alpha, k, seed, out, ...).
    Referenced input paths must exist at validation time, and seeding is
    always explicit: defaults are fixed constants, never wall clock.
    """

    values: dict

    PATH_KEYS = ("root", "manifest", "qa", "chunks", "index", "outputs",
                 "baseline", "enhanced", "compare_with", "report")

    def validate(self) -> None:
        for key in self.PATH_KEYS:
            value = self.values.get(key)
            if value and not Path(value).exists():
                raise FileNotFoundError(f"config key {key!r}: path does not exist: {value}")

    @classmethod
    def from_file(cls, path: str | Path) -> "PipelineConfig":
        config = cls(json.loads(Path(path).read_text(encoding="utf-8")))
        config.validate()
        return config


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    return PipelineConfig.from_file(path).values


def _cfg(args: argparse.Namespace, key: str, default=None):
    """Flag value, falling back to the --config file, then the default."""
    value = getattr(args, key.replace("-", "_"), None)
    if value is not None:
        return value
    return getattr(args, "_config_data", {}).get(key, default)


def _parse_k_list(raw: str) -> list[int]:
    ks = sorted({int(part) for part in raw.split(",") if part.strip()})
    if not ks or any(k < 1 for k in ks):
        raise ValueError(f"invalid k list: {raw!r}")
    return ks


def _load_any_chunks(path: Path) -> list:
    """Load a chunk JSONL that may be base or enriched (sniffed from its first row)."""
    if "full_text" in next(read_jsonl(path), {}):
        return load_enriched(path)
    return load_chunks(path)


def _base_chunk(chunk) -> Chunk:
    return chunk.base if isinstance(chunk, EnrichedChunk) else chunk


def _chunk_table(chunks: list) -> dict[str, tuple[str, int, int]]:
    table = {}
    for chunk in chunks:
        base = _base_chunk(chunk)
        table[base.chunk_id] = (base.doc_id, base.start, base.end)
    return table


def _embedder_for_index(index_dir: Path, args: argparse.Namespace):
    meta = json.loads((index_dir / "index_meta.json").read_text(encoding="utf-8"))
    backend = meta["embedder_backend"]
    dim = meta["dim"]
    if backend == "remote":
        endpoint = _cfg(args, "endpoint")
        if not endpoint:
            raise ValueError("index was built with the remote embedder; pass --endpoint")
        remote = RemoteConfig(endpoint=endpoint,
                              auth_token=os.environ.get("LEXRAG_API_TOKEN"),
                              timeout_seconds=_cfg(args, "timeout", 30.0),
                              retries=_cfg(args, "retries", 2))
        return get_embedder("remote", dim=dim, remote=remote)
    return get_embedder("deterministic", dim=dim)


def _retrieval_context(index_dir: Path, args: argparse.Namespace, k: int,
                       alpha: float, pool: int) -> tuple[RetrievalContext, dict[str, str]]:
    sparse, dense = load_indexes(index_dir)
    chunks = _load_any_chunks(index_dir / "chunks.jsonl")
    embedder = _embedder_for_index(index_dir, args)
    ctx = RetrievalContext(
        sparse=sparse, dense=dense, embedder=embedder,
        fusion=FusionConfig(k=k, alpha=alpha, candidate_pool=pool),
        chunk_table=_chunk_table(chunks),
    )
    chunk_texts = {_base_chunk(c).chunk_id: _base_chunk(c).text for c in chunks}
    return ctx, chunk_texts


@dataclass
class ContextResult:
    text: str
    short_context: bool
    n_used: int


def end_to_end_context(result: RetrievalResult, chunk_table: dict[str, tuple[str, int, int]],
                       chunk_texts: dict[str, str], n: int = 4) -> ContextResult:
    """Concatenate the top-n retrieved base chunk texts for downstream QA.

    Chunks appear in rank order, separated by blank lines, each prefixed with
    its source document id. Enriched headers never enter generated contexts.
    """
    top = result.ranked[:n]
    blocks = [f"[{chunk_table[rc.chunk_id][0]}]\n{chunk_texts[rc.chunk_id]}"
              for rc in top]
    return ContextResult(text="\n\n".join(blocks), short_context=len(top) < n,
                         n_used=len(top))


# ---------------------------------------------------------------------------
# commands

def cmd_ingest(args) -> None:
    out_dir = Path(_cfg(args, "out", "."))
    root = Path(_cfg(args, "root"))
    manifest = _cfg(args, "manifest")
    docs = load_documents(root, manifest)
    report = {
        "documents": len(docs),
        "document_errors": [e.to_dict() for e in docs.errors],
    }
    qa_path = _cfg(args, "qa")
    inputs = [Path(manifest)] if manifest else []
    if qa_path:
        records, errors = load_qa_dataset(qa_path, _cfg(args, "format", "snippet_qa"))
        if _cfg(args, "span_unit", "char") == "byte":
            errors = errors + convert_spans_to_char(records, docs)
        validation = validate_annotations(records, docs)
        report["qa"] = dataset_counts(records)
        report["qa_errors"] = [e.to_dict() for e in errors]
        report["validation"] = validation.to_dict()
        inputs.append(Path(qa_path))
    _write_json(out_dir / "ingest_report.json", report)
    _write_run_manifest(out_dir, _command_config(args), inputs)
    print(json.dumps({k: v for k, v in report.items() if k in ("documents", "qa")},
                     sort_keys=True))


def cmd_chunk(args) -> None:
    out_dir = Path(_cfg(args, "out", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    docs = load_documents(Path(_cfg(args, "root")), _cfg(args, "manifest"))
    cfg = ChunkConfig(target_tokens=_cfg(args, "target", 256),
                      overlap_tokens=_cfg(args, "overlap", 50))
    all_chunks = []
    for doc in docs:
        all_chunks.extend(split_recursive(doc, cfg))
    dump_chunks(all_chunks, out_dir / "chunks.jsonl")
    _write_run_manifest(out_dir, _command_config(args), [])
    print(json.dumps({"documents": len(docs), "chunks": len(all_chunks)}, sort_keys=True))


def cmd_enrich(args) -> None:
    out_dir = Path(_cfg(args, "out", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    docs = load_documents(Path(_cfg(args, "root")), _cfg(args, "manifest"))
    chunks = load_chunks(Path(_cfg(args, "chunks")))
    backend = _cfg(args, "summarizer", "extractive")
    if backend == "remote":
        endpoint = _cfg(args, "endpoint")
        if not endpoint:
            raise ValueError("remote summarizer requires --endpoint")
        provider = RemoteSummarizer(RemoteConfig(
            endpoint=endpoint, auth_token=os.environ.get("LEXRAG_API_TOKEN"),
            timeout_seconds=_cfg(args, "timeout", 30.0), retries=_cfg(args, "retries", 2)))
    else:
        provider = ExtractiveSummarizer()

    by_doc: dict[str, list[Chunk]] = {}
    for chunk in chunks:
        by_doc.setdefault(chunk.doc_id, []).append(chunk)
    enriched = []
    fallbacks = 0
    for doc_id in sorted(by_doc):
        doc = docs.get(doc_id)
        meta = doc.meta if doc else None
        if meta is None:
            raise ValueError(f"chunked document {doc_id!r} not present under --root")
        doc_chunks = sorted(by_doc[doc_id], key=lambda c: c.ordinal)
        out = enrich_document_chunks(
            doc_chunks, meta, provider,
            window=_cfg(args, "window", 4), stride=_cfg(args, "stride", 1),
            max_fraction=_cfg(args, "max_fraction", 0.25),
            max_workers=_cfg(args, "workers", 1))
        fallbacks += sum(1 for e in out if e.summary_fallback)
        enriched.extend(out)
    dump_enriched(enriched, out_dir / "enriched.jsonl")
    _write_run_manifest(out_dir, _command_config(args), [Path(_cfg(args, "chunks"))])
    print(json.dumps({"chunks": len(enriched), "summary_fallbacks": fallbacks}, sort_keys=True))


def cmd_index(args) -> None:
    out_dir = Path(_cfg(args, "out", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    chunks_path = Path(_cfg(args, "chunks"))
    chunks = _load_any_chunks(chunks_path)
    if not chunks:
        raise ValueError(f"no chunks in {chunks_path}")
    backend = _cfg(args, "embedder", "deterministic")
    dim = _cfg(args, "dim", 256)
    if backend == "remote":
        endpoint = _cfg(args, "endpoint")
        if not endpoint:
            raise ValueError("remote embedder requires --endpoint")
        embedder = get_embedder("remote", dim=dim, remote=RemoteConfig(
            endpoint=endpoint, auth_token=os.environ.get("LEXRAG_API_TOKEN"),
            timeout_seconds=_cfg(args, "timeout", 30.0), retries=_cfg(args, "retries", 2)))
        embedder.max_workers = _cfg(args, "workers", 4)
    else:
        embedder = get_embedder("deterministic", dim=dim)
    sparse = build_sparse(chunks, k1=_cfg(args, "k1", 1.2), b=_cfg(args, "b", 0.75))
    dense = build_dense(chunks, embedder)
    save_indexes(out_dir, sparse, dense)
    # canonical copy so the index directory is self-contained for retrieval
    write_jsonl((chunk.to_dict() for chunk in chunks), out_dir / "chunks.jsonl")
    _write_run_manifest(out_dir, _command_config(args), [chunks_path])
    print(json.dumps({"chunks": sparse.N, "dim": dense.dim, "embedder": dense.backend},
                     sort_keys=True))


def cmd_retrieve(args) -> None:
    out_dir = Path(_cfg(args, "out", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    index_dir = Path(_cfg(args, "index"))
    top = _cfg(args, "top", 4)
    k = max(_cfg(args, "k", 10), top)
    ctx, chunk_texts = _retrieval_context(
        index_dir, args, k=k, alpha=_cfg(args, "alpha", 0.8),
        pool=_cfg(args, "pool", 0) or max(100, k))
    records, errors = load_qa_dataset(_cfg(args, "qa"), _cfg(args, "format", "snippet_qa"))
    results = []
    contexts = []
    for record in records:
        result = ctx.retrieve(record.question, query_id=record.query_id)
        results.append(result)
        context = end_to_end_context(result, ctx.chunk_table, chunk_texts, n=top)
        contexts.append({
            "query_id": record.query_id,
            "context": context.text,
            "short_context": context.short_context,
            "n_used": context.n_used,
        })
    dump_results(results, out_dir / "results.jsonl")
    write_jsonl(contexts, out_dir / "contexts.jsonl")
    _write_run_manifest(out_dir, _command_config(args),
                        [Path(_cfg(args, "qa")), index_dir / "index_meta.json"])
    print(json.dumps({"queries": len(results), "load_errors": len(errors)}, sort_keys=True))


def cmd_eval_retrieval(args) -> None:
    out_dir = Path(_cfg(args, "out", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    ks = _parse_k_list(_cfg(args, "k", "1,2,4,8,16,32,64"))
    index_dir = Path(_cfg(args, "index"))
    ctx, _ = _retrieval_context(index_dir, args, k=max(ks),
                                alpha=_cfg(args, "alpha", 0.8),
                                pool=_cfg(args, "pool", 0) or max(100, max(ks)))
    records, _ = load_qa_dataset(_cfg(args, "qa"), _cfg(args, "format", "snippet_qa"))
    report = sweep(records, ctx, ks,
                   dataset=_cfg(args, "dataset_name", Path(_cfg(args, "qa")).stem),
                   variant=_cfg(args, "variant", "baseline"),
                   seed=_cfg(args, "seed", 0),
                   iterations=_cfg(args, "bootstrap_iterations", 10000))
    _write_json(out_dir / "metric_report.json", report.to_dict())
    (out_dir / "metric_report.txt").write_text(render_table(report) + "\n", encoding="utf-8")
    _write_run_manifest(out_dir, _command_config(args),
                        [Path(_cfg(args, "qa")), index_dir / "index_meta.json"])
    print(render_table(report))


def cmd_align_spans(args) -> None:
    out_dir = Path(_cfg(args, "out", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    docs = load_documents(Path(_cfg(args, "root")), _cfg(args, "manifest"))
    records, errors = load_qa_dataset(_cfg(args, "qa"), "aus_legal_qa")
    cfg = AlignConfig(shingle_size=_cfg(args, "shingle_size", 3),
                      min_score=_cfg(args, "min_score", 0.6),
                      max_window_slack=_cfg(args, "slack", 0.3))
    aligned, align_report = reconstruct_dataset(records, docs, cfg)
    keep = [r for r in aligned if r.gold_spans]
    save_aligned_dataset(keep, out_dir / "aligned_dataset.json")
    _write_json(out_dir / "alignment_report.json", align_report.to_dict())
    _write_run_manifest(out_dir, _command_config(args), [Path(_cfg(args, "qa"))])
    print(json.dumps({"aligned": align_report.aligned, "failed": align_report.failed,
                      "load_errors": len(errors)}, sort_keys=True))


def cmd_dpo_build(args) -> None:
    out_dir = Path(_cfg(args, "out", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    records, errors = load_qa_dataset(_cfg(args, "qa"), "aus_legal_qa")
    seed = _cfg(args, "seed", 0)
    spec = SplitSpec(train=_cfg(args, "train", 1918), validation=_cfg(args, "validation", 50),
                     test=_cfg(args, "test", 150), seed=seed)
    train, validation, test = split_dataset(records, spec)
    template = _cfg(args, "template", "with_refusal_instruction")
    style = _cfg(args, "export_style", "plain")
    counts = {}
    for name, split in (("train", train), ("validation", validation), ("test", test)):
        pairs = build_preference_pairs(split, seed=seed, template=template) if split else []
        dump_pairs(pairs, out_dir / f"{name}.jsonl", style=style)
        counts[name] = {"records": len(split), "pairs": len(pairs)}
    _write_json(out_dir / "dpo_manifest.json", {"splits": counts, "seed": seed,
                                                "load_errors": len(errors)})
    _write_run_manifest(out_dir, _command_config(args), [Path(_cfg(args, "qa"))])
    print(json.dumps(counts, sort_keys=True))


def cmd_eval_refusal(args) -> None:
    out_dir = Path(_cfg(args, "out", "."))
    outputs = load_model_outputs(Path(_cfg(args, "outputs")))
    mode = _cfg(args, "mode", "both")
    report: dict = {"outputs": len(outputs)}
    for m in (("strict", "soft") if mode == "both" else (mode,)):
        rates = refusal_rates(outputs, RefusalConfig(mode=m))
        report[m] = {
            key: (None if value is None else {"exact": value, "rendered": f"{value:.1f}%"})
            for key, value in rates.items()
        }
    _write_json(out_dir / "refusal_report.json", report)
    _write_run_manifest(out_dir, _command_config(args), [Path(_cfg(args, "outputs"))])
    print(json.dumps(report, sort_keys=True))


def cmd_eval_answers(args) -> None:
    out_dir = Path(_cfg(args, "out", "."))
    records, _ = load_qa_dataset(_cfg(args, "qa"), _cfg(args, "format", "aus_legal_qa"))
    references = {r.query_id: r.gold_answer for r in records}

    def score_file(path: Path) -> list[tuple[str, float]]:
        outputs = load_model_outputs(path)
        scored = []
        for query_id, _tag, output_text in outputs:
            if query_id not in references:
                raise ValueError(f"output {query_id!r} has no reference record")
            scored.append((query_id, token_f1(output_text, references[query_id])))
        return scored

    scores_a = score_file(Path(_cfg(args, "outputs")))
    report: dict = {
        "outputs": len(scores_a),
        "mean_f1": float(sum(s for _, s in scores_a) / len(scores_a)) if scores_a else None,
    }
    compare_path = _cfg(args, "compare_with")
    if compare_path:
        scores_b = score_file(Path(compare_path))
        report["comparison"] = mean_score_with_delta_ci(
            scores_a, scores_b,
            iterations=_cfg(args, "bootstrap_iterations", 10000),
            seed=_cfg(args, "seed", 0))
    _write_json(out_dir / "answer_report.json", report)
    _write_run_manifest(out_dir, _command_config(args), [Path(_cfg(args, "outputs"))])
    print(json.dumps(report, sort_keys=True))


def cmd_compare(args) -> None:
    out_dir = Path(_cfg(args, "out", "."))
    baseline = MetricReport.from_dict(
        json.loads(Path(_cfg(args, "baseline")).read_text(encoding="utf-8")))
    enhanced = MetricReport.from_dict(
        json.loads(Path(_cfg(args, "enhanced")).read_text(encoding="utf-8")))
    comparisons = compare_reports(baseline, enhanced,
                                  iterations=_cfg(args, "bootstrap_iterations", 10000),
                                  seed=_cfg(args, "seed", 0))
    payload = {
        "baseline": {"dataset": baseline.dataset, "variant": baseline.variant},
        "enhanced": {"dataset": enhanced.dataset, "variant": enhanced.variant},
        "m": len(comparisons),
        "comparisons": [c.to_dict() for c in comparisons],
    }
    _write_json(out_dir / "comparison.json", payload)
    table = render_comparison_table(comparisons)
    (out_dir / "comparison.txt").write_text(table + "\n", encoding="utf-8")
    _write_run_manifest(out_dir, _command_config(args),
                        [Path(_cfg(args, "baseline")), Path(_cfg(args, "enhanced"))])
    print(table)


def cmd_report(args) -> None:
    report = MetricReport.from_dict(
        json.loads(Path(_cfg(args, "report")).read_text(encoding="utf-8")))
    table = render_table(report)
    out = _cfg(args, "out")
    if out:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(table + "\n", encoding="utf-8")
    print(table)


# ---------------------------------------------------------------------------
# parser assembly

def _command_config(args: argparse.Namespace) -> dict:
    skip = {"func", "_config_data", "config"}
    return {key: value for key, value in sorted(vars(args).items())
            if key not in skip and value is not None}


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file; flags override its keys")
    sub.add_argument("--out", help="output directory")
    sub.add_argument("--seed", type=int, help="explicit RNG seed (default 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lexrag",
        description="Hybrid retrieval and evaluation pipeline for long legal documents")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("ingest", help="load corpus + QA dataset, validate annotations")
    p.add_argument("--root", required=True)
    p.add_argument("--manifest")
    p.add_argument("--qa")
    p.add_argument("--format", choices=["snippet_qa", "aus_legal_qa"])
    p.add_argument("--span-unit", choices=["char", "byte"])
    _add_common(p)
    p.set_defaults(func=cmd_ingest)

    p = commands.add_parser("chunk", help="recursively split documents into chunks")
    p.add_argument("--root", required=True)
    p.add_argument("--manifest")
    p.add_argument("--target", type=int)
    p.add_argument("--overlap", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_chunk)

    p = commands.add_parser("enrich", help="add metadata headers and window summaries")
    p.add_argument("--root", required=True)
    p.add_argument("--manifest")
    p.add_argument("--chunks", required=True)
    p.add_argument("--summarizer", choices=["extractive", "remote"])
    p.add_argument("--endpoint")
    p.add_argument("--window", type=int)
    p.add_argument("--stride", type=int)
    p.add_argument("--max-fraction", type=float)
    p.add_argument("--workers", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_enrich)

    p = commands.add_parser("index", help="build sparse and dense indexes over chunks")
    p.add_argument("--chunks", required=True)
    p.add_argument("--embedder", choices=["deterministic", "remote"])
    p.add_argument("--dim", type=int)
    p.add_argument("--endpoint")
    p.add_argument("--workers", type=int, help="concurrent remote embedding batches")
    p.add_argument("--k1", type=float)
    p.add_argument("--b", type=float)
    _add_common(p)
    p.set_defaults(func=cmd_index)

    p = commands.add_parser("retrieve", help="run hybrid retrieval and emit contexts")
    p.add_argument("--index", required=True)
    p.add_argument("--qa", required=True)
    p.add_argument("--format", choices=["snippet_qa", "aus_legal_qa"])
    p.add_argument("--k", type=int)
    p.add_argument("--top", type=int, help="chunks per generated context (default 4)")
    p.add_argument("--alpha", type=float)
    p.add_argument("--pool", type=int)
    p.add_argument("--endpoint")
    _add_common(p)
    p.set_defaults(func=cmd_retrieve)

    p = commands.add_parser("eval-retrieval", help="DRM / span-recall sweep over k")
    p.add_argument("--index", required=True)
    p.add_argument("--qa", required=True)
    p.add_argument("--format", choices=["snippet_qa", "aus_legal_qa"])
    p.add_argument("--k", help="comma-separated depths, default 1,2,4,8,16,32,64")
    p.add_argument("--alpha", type=float)
    p.add_argument("--pool", type=int)
    p.add_argument("--variant", choices=["baseline", "enhanced"])
    p.add_argument("--dataset-name")
    p.add_argument("--bootstrap-iterations", type=int)
    p.add_argument("--endpoint")
    _add_common(p)
    p.set_defaults(func=cmd_eval_retrieval)

    p = commands.add_parser("align-spans", help="reconstruct gold spans from answer text")
    p.add_argument("--root", required=True)
    p.add_argument("--manifest")
    p.add_argument("--qa", required=True)
    p.add_argument("--min-score", type=float)
    p.add_argument("--shingle-size", type=int)
    p.add_argument("--slack", type=float)
    _add_common(p)
    p.set_defaults(func=cmd_align_spans)

    p = commands.add_parser("dpo-build", help="build preference pairs and dataset splits")
    p.add_argument("--qa", required=True)
    p.add_argument("--train", type=int)
    p.add_argument("--validation", type=int)
    p.add_argument("--test", type=int)
    p.add_argument("--template", choices=["with_refusal_instruction",
                                          "without_refusal_instruction"])
    p.add_argument("--export-style", choices=["plain", "conversation"])
    _add_common(p)
    p.set_defaults(func=cmd_dpo_build)

    p = commands.add_parser("eval-refusal", help="refusal rates from model outputs")
    p.add_argument("--outputs", required=True)
    p.add_argument("--mode", choices=["strict", "soft", "both"])
    _add_common(p)
    p.set_defaults(func=cmd_eval_refusal)

    p = commands.add_parser("eval-answers", help="token-F1 answer scoring")
    p.add_argument("--outputs", required=True)
    p.add_argument("--qa", required=True)
    p.add_argument("--format", choices=["snippet_qa", "aus_legal_qa"])
    p.add_argument("--compare-with")
    p.add_argument("--bootstrap-iterations", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_eval_answers)

    p = commands.add_parser("compare", help="paired comparison of two metric reports")
    p.add_argument("--baseline", required=True)
    p.add_argument("--enhanced", required=True)
    p.add_argument("--bootstrap-iterations", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_compare)

    p = commands.add_parser("report", help="render a metric report as a text table")
    p.add_argument("--report", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args._config_data = _load_config_file(getattr(args, "config", None))
        args.func(args)
    except Exception as exc:  # surface every failure as machine-readable JSON
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
