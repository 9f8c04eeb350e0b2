"""Command-line pipeline orchestration.

Every command reads declared inputs, writes declared outputs under --out, and
exits 0 on success or nonzero with a machine-readable error JSON on stderr.
Identical config and seeds produce byte-identical outputs; wall-clock
timestamps appear only in each run's run_manifest.json.

``main`` merges the given flags over the --config file into one settings
dict, creates the output directory, runs the command and writes the run
manifest from the settings and the input paths the command returns.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
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
from lexrag.retriever import FusionConfig, RetrievalContext, dump_results
from lexrag.textutils import read_jsonl, write_jsonl

# config-file keys naming inputs; each must exist when the file is read
PATH_KEYS = ("root", "manifest", "qa", "chunks", "index", "outputs",
             "baseline", "enhanced", "compare_with", "report")


# ---------------------------------------------------------------------------
# settings, manifest and small shared helpers

def _settings(args: argparse.Namespace) -> dict:
    """The --config file's keys with every given flag over them.

    Keys mirror flag dests (target, overlap, alpha, k, seed, out, ...); a key
    that neither sets falls back to the command's built-in default. Seeding
    is always explicit: defaults are fixed constants, never wall clock.
    """
    settings = {}
    if args.config:
        settings = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if not isinstance(settings, dict):
            raise ValueError(f"config file must hold a JSON object: {args.config}")
        for key in PATH_KEYS:
            value = settings.get(key)
            if value and not Path(value).exists():
                raise FileNotFoundError(f"config key {key!r}: path does not exist: {value}")
    settings.update((key, value) for key, value in vars(args).items()
                    if value is not None and key not in ("func", "config"))
    return settings


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _write_run_manifest(out_dir: Path, settings: dict, inputs: list) -> None:
    """Reproducibility record: effective config, its hash, input checksums, version.

    This is the only artifact allowed to contain a timestamp.
    """
    manifest = {
        "version": lexrag.__version__,
        "config": settings,
        "config_sha256": hashlib.sha256(
            json.dumps(settings, sort_keys=True).encode("utf-8")).hexdigest(),
        "inputs": {str(Path(p)): sha256_file(p) for p in inputs if p and Path(p).is_file()},
        "created_at": datetime.now(timezone.utc).isoformat(),
    }
    _write_json(out_dir / "run_manifest.json", manifest)


def _remote_config(settings: dict, missing_endpoint: str) -> RemoteConfig:
    endpoint = settings.get("endpoint")
    if not endpoint:
        raise ValueError(missing_endpoint)
    return RemoteConfig(endpoint=endpoint, auth_token=os.environ.get("LEXRAG_API_TOKEN"),
                        timeout_seconds=settings.get("timeout", 30.0),
                        retries=settings.get("retries", 2))


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


def _retrieval_context(settings: dict, k: int) -> tuple[RetrievalContext, dict[str, Chunk]]:
    """Open the index under --index; also return its base chunks by chunk_id."""
    index_dir = Path(settings["index"])
    sparse, dense = load_indexes(index_dir)
    chunks = {}
    for chunk in _load_any_chunks(index_dir / "chunks.jsonl"):
        base = chunk.base if isinstance(chunk, EnrichedChunk) else chunk
        chunks[base.chunk_id] = base
    meta = json.loads((index_dir / "index_meta.json").read_text(encoding="utf-8"))
    if meta["embedder_backend"] == "remote":
        remote = _remote_config(settings,
                                "index was built with the remote embedder; pass --endpoint")
        embedder = get_embedder("remote", dim=meta["dim"], remote=remote)
    else:
        embedder = get_embedder("deterministic", dim=meta["dim"])
    ctx = RetrievalContext(
        sparse=sparse, dense=dense, embedder=embedder,
        fusion=FusionConfig(k=k, alpha=settings.get("alpha", 0.8),
                            candidate_pool=settings.get("pool") or 0),
        chunk_table={cid: (c.doc_id, c.start, c.end) for cid, c in chunks.items()},
    )
    return ctx, chunks


# ---------------------------------------------------------------------------
# commands: each takes (settings, out_dir), writes under out_dir, prints a
# summary and returns the input paths its run manifest checksums

def cmd_ingest(settings: dict, out_dir: Path) -> list:
    manifest = settings.get("manifest")
    docs = load_documents(Path(settings["root"]), manifest)
    report = {
        "documents": len(docs),
        "document_errors": [e.to_dict() for e in docs.errors],
    }
    qa_path = settings.get("qa")
    if qa_path:
        records, errors = load_qa_dataset(qa_path, settings.get("format", "snippet_qa"))
        if settings.get("span_unit", "char") == "byte":
            errors = errors + convert_spans_to_char(records, docs)
        validation = validate_annotations(records, docs)
        report["qa"] = dataset_counts(records)
        report["qa_errors"] = [e.to_dict() for e in errors]
        report["validation"] = validation.to_dict()
    _write_json(out_dir / "ingest_report.json", report)
    print(json.dumps({k: v for k, v in report.items() if k in ("documents", "qa")},
                     sort_keys=True))
    return [manifest, qa_path]


def cmd_chunk(settings: dict, out_dir: Path) -> list:
    docs = load_documents(Path(settings["root"]), settings.get("manifest"))
    cfg = ChunkConfig(target_tokens=settings.get("target", 256),
                      overlap_tokens=settings.get("overlap", 50))
    all_chunks = [chunk for doc in docs for chunk in split_recursive(doc, cfg)]
    dump_chunks(all_chunks, out_dir / "chunks.jsonl")
    print(json.dumps({"documents": len(docs), "chunks": len(all_chunks)}, sort_keys=True))
    return []


def cmd_enrich(settings: dict, out_dir: Path) -> list:
    docs = load_documents(Path(settings["root"]), settings.get("manifest"))
    chunks = load_chunks(Path(settings["chunks"]))
    if settings.get("summarizer", "extractive") == "remote":
        provider = RemoteSummarizer(
            _remote_config(settings, "remote summarizer requires --endpoint"))
    else:
        provider = ExtractiveSummarizer()

    by_doc: dict[str, list[Chunk]] = {}
    for chunk in chunks:
        by_doc.setdefault(chunk.doc_id, []).append(chunk)
    enriched = []
    for doc_id in sorted(by_doc):
        doc = docs.get(doc_id)
        if doc is None:
            raise ValueError(f"chunked document {doc_id!r} not present under --root")
        enriched.extend(enrich_document_chunks(
            sorted(by_doc[doc_id], key=lambda c: c.ordinal), doc.meta, provider,
            window=settings.get("window", 4), stride=settings.get("stride", 1),
            max_fraction=settings.get("max_fraction", 0.25),
            max_workers=settings.get("workers", 1)))
    dump_enriched(enriched, out_dir / "enriched.jsonl")
    fallbacks = sum(1 for e in enriched if e.summary_fallback)
    print(json.dumps({"chunks": len(enriched), "summary_fallbacks": fallbacks}, sort_keys=True))
    return [settings["chunks"]]


def cmd_index(settings: dict, out_dir: Path) -> list:
    chunks_path = Path(settings["chunks"])
    chunks = _load_any_chunks(chunks_path)
    if not chunks:
        raise ValueError(f"no chunks in {chunks_path}")
    dim = settings.get("dim", 256)
    if settings.get("embedder", "deterministic") == "remote":
        embedder = get_embedder("remote", dim=dim, remote=_remote_config(
            settings, "remote embedder requires --endpoint"))
        embedder.max_workers = settings.get("workers", 4)
    else:
        embedder = get_embedder("deterministic", dim=dim)
    sparse = build_sparse(chunks, k1=settings.get("k1", 1.2), b=settings.get("b", 0.75))
    dense = build_dense(chunks, embedder)
    save_indexes(out_dir, sparse, dense)
    # canonical copy so the index directory is self-contained for retrieval
    write_jsonl((chunk.to_dict() for chunk in chunks), out_dir / "chunks.jsonl")
    print(json.dumps({"chunks": sparse.N, "dim": dense.dim, "embedder": dense.backend},
                     sort_keys=True))
    return [chunks_path]


def cmd_retrieve(settings: dict, out_dir: Path) -> list:
    top = settings.get("top", 4)
    ctx, chunks = _retrieval_context(settings, k=max(settings.get("k", 10), top))
    records, errors = load_qa_dataset(settings["qa"], settings.get("format", "snippet_qa"))
    results = []
    contexts = []
    for record in records:
        result = ctx.retrieve(record.question, query_id=record.query_id)
        results.append(result)
        # the top base chunks in rank order, each under its document id, for
        # downstream QA; enriched headers never enter generated contexts
        used = [chunks[rc.chunk_id] for rc in result.ranked[:top]]
        contexts.append({
            "query_id": record.query_id,
            "context": "\n\n".join(f"[{c.doc_id}]\n{c.text}" for c in used),
            "short_context": len(used) < top,
            "n_used": len(used),
        })
    dump_results(results, out_dir / "results.jsonl")
    write_jsonl(contexts, out_dir / "contexts.jsonl")
    print(json.dumps({"queries": len(results), "load_errors": len(errors)}, sort_keys=True))
    return [settings["qa"], Path(settings["index"]) / "index_meta.json"]


def cmd_eval_retrieval(settings: dict, out_dir: Path) -> list:
    ks = _parse_k_list(settings.get("k", "1,2,4,8,16,32,64"))
    ctx, _ = _retrieval_context(settings, k=max(ks))
    qa_path = settings["qa"]
    records, _ = load_qa_dataset(qa_path, settings.get("format", "snippet_qa"))
    report = sweep(records, ctx, ks,
                   dataset=settings.get("dataset_name", Path(qa_path).stem),
                   variant=settings.get("variant", "baseline"),
                   seed=settings.get("seed", 0),
                   iterations=settings.get("bootstrap_iterations", 10000))
    _write_json(out_dir / "metric_report.json", report.to_dict())
    (out_dir / "metric_report.txt").write_text(render_table(report) + "\n", encoding="utf-8")
    print(render_table(report))
    return [qa_path, Path(settings["index"]) / "index_meta.json"]


def cmd_align_spans(settings: dict, out_dir: Path) -> list:
    docs = load_documents(Path(settings["root"]), settings.get("manifest"))
    records, errors = load_qa_dataset(settings["qa"], "aus_legal_qa")
    cfg = AlignConfig(shingle_size=settings.get("shingle_size", 3),
                      min_score=settings.get("min_score", 0.6),
                      max_window_slack=settings.get("slack", 0.3))
    aligned, align_report = reconstruct_dataset(records, docs, cfg)
    save_aligned_dataset([r for r in aligned if r.gold_spans], out_dir / "aligned_dataset.json")
    _write_json(out_dir / "alignment_report.json", align_report.to_dict())
    print(json.dumps({"aligned": align_report.aligned, "failed": align_report.failed,
                      "load_errors": len(errors)}, sort_keys=True))
    return [settings["qa"]]


def cmd_dpo_build(settings: dict, out_dir: Path) -> list:
    records, errors = load_qa_dataset(settings["qa"], "aus_legal_qa")
    seed = settings.get("seed", 0)
    spec = SplitSpec(train=settings.get("train", 1918),
                     validation=settings.get("validation", 50),
                     test=settings.get("test", 150), seed=seed)
    train, validation, test = split_dataset(records, spec)
    template = settings.get("template", "with_refusal_instruction")
    style = settings.get("export_style", "plain")
    counts = {}
    for name, split in (("train", train), ("validation", validation), ("test", test)):
        pairs = build_preference_pairs(split, seed=seed, template=template) if split else []
        dump_pairs(pairs, out_dir / f"{name}.jsonl", style=style)
        counts[name] = {"records": len(split), "pairs": len(pairs)}
    _write_json(out_dir / "dpo_manifest.json", {"splits": counts, "seed": seed,
                                                "load_errors": len(errors)})
    print(json.dumps(counts, sort_keys=True))
    return [settings["qa"]]


def cmd_eval_refusal(settings: dict, out_dir: Path) -> list:
    outputs = load_model_outputs(Path(settings["outputs"]))
    mode = settings.get("mode", "both")
    report: dict = {"outputs": len(outputs)}
    for m in (("strict", "soft") if mode == "both" else (mode,)):
        rates = refusal_rates(outputs, RefusalConfig(mode=m))
        report[m] = {
            key: (None if value is None else {"exact": value, "rendered": f"{value:.1f}%"})
            for key, value in rates.items()
        }
    _write_json(out_dir / "refusal_report.json", report)
    print(json.dumps(report, sort_keys=True))
    return [settings["outputs"]]


def cmd_eval_answers(settings: dict, out_dir: Path) -> list:
    records, _ = load_qa_dataset(settings["qa"], settings.get("format", "aus_legal_qa"))
    references = {r.query_id: r.gold_answer for r in records}

    def score_file(path: Path) -> list[tuple[str, float]]:
        outputs = load_model_outputs(path)
        scored = []
        for query_id, _tag, output_text in outputs:
            if query_id not in references:
                raise ValueError(f"output {query_id!r} has no reference record")
            scored.append((query_id, token_f1(output_text, references[query_id])))
        return scored

    scores_a = score_file(Path(settings["outputs"]))
    report: dict = {
        "outputs": len(scores_a),
        "mean_f1": float(sum(s for _, s in scores_a) / len(scores_a)) if scores_a else None,
    }
    compare_path = settings.get("compare_with")
    if compare_path:
        scores_b = score_file(Path(compare_path))
        report["comparison"] = mean_score_with_delta_ci(
            scores_a, scores_b,
            iterations=settings.get("bootstrap_iterations", 10000),
            seed=settings.get("seed", 0))
    _write_json(out_dir / "answer_report.json", report)
    print(json.dumps(report, sort_keys=True))
    return [settings["outputs"]]


def _read_report(path: str) -> MetricReport:
    return MetricReport.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def cmd_compare(settings: dict, out_dir: Path) -> list:
    baseline = _read_report(settings["baseline"])
    enhanced = _read_report(settings["enhanced"])
    comparisons = compare_reports(baseline, enhanced,
                                  iterations=settings.get("bootstrap_iterations", 10000),
                                  seed=settings.get("seed", 0))
    payload = {
        "baseline": {"dataset": baseline.dataset, "variant": baseline.variant},
        "enhanced": {"dataset": enhanced.dataset, "variant": enhanced.variant},
        "m": len(comparisons),
        "comparisons": [c.to_dict() for c in comparisons],
    }
    _write_json(out_dir / "comparison.json", payload)
    table = render_comparison_table(comparisons)
    (out_dir / "comparison.txt").write_text(table + "\n", encoding="utf-8")
    print(table)
    return [settings["baseline"], settings["enhanced"]]


def cmd_report(settings: dict) -> None:
    """Render a metric report; --out here names the text file, not a run directory."""
    table = render_table(_read_report(settings["report"]))
    out = settings.get("out")
    if out:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(table + "\n", encoding="utf-8")
    print(table)


# ---------------------------------------------------------------------------
# parser assembly

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lexrag",
        description="Hybrid retrieval and evaluation pipeline for long legal documents")
    commands = parser.add_subparsers(dest="command", required=True)

    def flags(*specs: tuple[str, dict]) -> argparse.ArgumentParser:
        """A parent parser holding flags that several commands share."""
        group = argparse.ArgumentParser(add_help=False)
        for flag, options in specs:
            group.add_argument(flag, **options)
        return group

    common = flags(("--config", {"help": "JSON config file; flags override its keys"}),
                   ("--out", {"help": "output directory"}),
                   ("--seed", {"type": int, "help": "explicit RNG seed (default 0)"}))
    corpus = flags(("--root", {"required": True}), ("--manifest", {}))
    qa = flags(("--qa", {"required": True}))
    qa_format = flags(("--format", {"choices": ["snippet_qa", "aus_legal_qa"]}))
    endpoint = flags(("--endpoint", {}))
    bootstrap = flags(("--bootstrap-iterations", {"type": int}))
    search = flags(("--index", {"required": True}), ("--alpha", {"type": float}),
                   ("--pool", {"type": int}))

    def command(name: str, func, help: str, *parents) -> argparse.ArgumentParser:
        sub = commands.add_parser(name, help=help, parents=[*parents, common])
        sub.set_defaults(func=func)
        return sub

    p = command("ingest", cmd_ingest, "load corpus + QA dataset, validate annotations",
                corpus, qa_format)
    p.add_argument("--qa")
    p.add_argument("--span-unit", choices=["char", "byte"])

    p = command("chunk", cmd_chunk, "recursively split documents into chunks", corpus)
    p.add_argument("--target", type=int)
    p.add_argument("--overlap", type=int)

    p = command("enrich", cmd_enrich, "add metadata headers and window summaries",
                corpus, endpoint)
    p.add_argument("--chunks", required=True)
    p.add_argument("--summarizer", choices=["extractive", "remote"])
    p.add_argument("--window", type=int)
    p.add_argument("--stride", type=int)
    p.add_argument("--max-fraction", type=float)
    p.add_argument("--workers", type=int)

    p = command("index", cmd_index, "build sparse and dense indexes over chunks", endpoint)
    p.add_argument("--chunks", required=True)
    p.add_argument("--embedder", choices=["deterministic", "remote"])
    p.add_argument("--dim", type=int)
    p.add_argument("--workers", type=int, help="concurrent remote embedding batches")
    p.add_argument("--k1", type=float)
    p.add_argument("--b", type=float)

    p = command("retrieve", cmd_retrieve, "run hybrid retrieval and emit contexts",
                search, qa, qa_format, endpoint)
    p.add_argument("--k", type=int)
    p.add_argument("--top", type=int, help="chunks per generated context (default 4)")

    p = command("eval-retrieval", cmd_eval_retrieval, "DRM / span-recall sweep over k",
                search, qa, qa_format, endpoint, bootstrap)
    p.add_argument("--k", help="comma-separated depths, default 1,2,4,8,16,32,64")
    p.add_argument("--variant", choices=["baseline", "enhanced"])
    p.add_argument("--dataset-name")

    p = command("align-spans", cmd_align_spans, "reconstruct gold spans from answer text",
                corpus, qa)
    p.add_argument("--min-score", type=float)
    p.add_argument("--shingle-size", type=int)
    p.add_argument("--slack", type=float)

    p = command("dpo-build", cmd_dpo_build, "build preference pairs and dataset splits", qa)
    p.add_argument("--train", type=int)
    p.add_argument("--validation", type=int)
    p.add_argument("--test", type=int)
    p.add_argument("--template", choices=["with_refusal_instruction",
                                          "without_refusal_instruction"])
    p.add_argument("--export-style", choices=["plain", "conversation"])

    p = command("eval-refusal", cmd_eval_refusal, "refusal rates from model outputs")
    p.add_argument("--outputs", required=True)
    p.add_argument("--mode", choices=["strict", "soft", "both"])

    p = command("eval-answers", cmd_eval_answers, "token-F1 answer scoring",
                qa, qa_format, bootstrap)
    p.add_argument("--outputs", required=True)
    p.add_argument("--compare-with")

    p = command("compare", cmd_compare, "paired comparison of two metric reports", bootstrap)
    p.add_argument("--baseline", required=True)
    p.add_argument("--enhanced", required=True)

    p = command("report", cmd_report, "render a metric report as a text table")
    p.add_argument("--report", required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        settings = _settings(args)
        if args.command == "report":
            cmd_report(settings)
        else:
            out_dir = Path(settings.get("out", "."))
            out_dir.mkdir(parents=True, exist_ok=True)
            inputs = args.func(settings, out_dir)
            _write_run_manifest(out_dir, settings, [*inputs, args.config])
    except Exception as exc:  # surface every failure as machine-readable JSON
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
