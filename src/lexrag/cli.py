"""Command-line pipeline orchestration.

Every command reads declared inputs, writes declared outputs under --out, and
exits 0 on success or nonzero with a machine-readable error JSON on stderr.
Identical config and seeds produce byte-identical outputs; wall-clock
timestamps appear only in each run's run_manifest.json.

Each command's settings are declared once, in ``COMMANDS``: the table builds
the command's flags, checks its --config file values and fills the settings
dict that ``main`` hands the command and hashes into the run manifest.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple

# One BLAS thread per lexrag process, set before any lexrag module loads numpy.
# This module loads none: numpy loads with the first command module that needs
# it (`_LAZY` below), so the text-only commands never load it. numpy's OpenBLAS
# starts a worker pool when it loads; starting it and letting its worker spin
# cost every command 0.07-0.24 s of CPU on a 2-core VM, 31-49% of the command's
# CPU. The only BLAS calls on a command path are `index.dense_scores`' matrix
# products, where more threads cut wall time but spend more CPU. Over the
# deterministic embedder's integer counts the scores are the same bits under any
# thread count or BLAS kernel; remote vectors are floats, whose scores hold only
# per kernel and thread count.
# A caller's own OPENBLAS_NUM_THREADS wins. The variable sizes the pool only if
# numpy is not loaded yet; the run manifest records whether it was (a caller that
# imported numpy first keeps the pool it started).
BLAS_ENV_IN_EFFECT = "numpy" not in sys.modules
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import lexrag  # noqa: E402
from lexrag.configs import (WITH_REFUSAL_INSTRUCTION, WITHOUT_REFUSAL_INSTRUCTION, ChunkConfig,
                            FusionConfig, RemoteConfig, SplitSpec)
from lexrag.textutils import read_json, sha256_file, write_json, write_jsonl

if TYPE_CHECKING:
    from lexrag.chunker import Chunk
    from lexrag.corpus import DocumentCollection
    from lexrag.evaluator import MetricReport
    from lexrag.retriever import RetrievalContext

# The names commands use from every lexrag module but configs and textutils, each
# module imported on first use by this module's __getattr__ (PEP 562), so a command
# compiles and runs only the modules it calls, and numpy loads only with the
# modules that compute arrays. Commands read these names as `_cli.<name>` when
# they run, which looks in the namespace this code runs in: a wrapper set on
# `lexrag.cli.<name>` (perfbench's tracer) is then what they call. That namespace
# is this module's, or under runpy (`python -m lexrag.cli`, `python -m cProfile -m
# lexrag.cli`) the dict runpy made, which need not be any module in sys.modules.
# load_enriched is unused here, but perfbench's tracer wraps it under this
# module's name, so the name must stay importable from it.
_LAZY = {name: module for module, names in (
    ("lexrag.aligner", ("reconstruct_dataset", "save_aligned_dataset")),
    ("lexrag.chunker", ("FullTexts", "dump_chunks", "load_chunks", "split_recursive")),
    ("lexrag.corpus", ("convert_spans_to_char", "dataset_counts", "load_documents",
                       "load_qa_dataset", "validate_annotations")),
    ("lexrag.embedding", ("get_embedder", "term_rows")),
    ("lexrag.enricher", ("RemoteSummarizer", "dump_enriched", "enrich_document_chunks",
                         "load_enriched")),
    ("lexrag.evaluator", ("MetricReport", "compare_reports", "render_comparison_table",
                          "render_table", "sweep")),
    ("lexrag.index", ("META_FILE", "build_dense", "build_sparse", "load_index_chunks",
                      "load_indexes", "save_indexes")),
    ("lexrag.preference", ("build_preference_pairs", "dump_pairs", "load_model_outputs",
                           "mean_score_with_delta_ci", "refusal_rates", "split_dataset",
                           "token_f1")),
    ("lexrag.retriever", ("RetrievalContext", "dump_results")),
) for name in names}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_LAZY[name]), name)
    globals()[name] = value  # later lookups find it without this hook
    return value


class _Globals:
    """This code's global names as attributes, the lazy ones loaded on first use."""

    def __getattr__(self, name: str):
        # the module-level __getattr__ above, not this method
        return globals()[name] if name in globals() else __getattr__(name)


_cli = _Globals()


# config-file keys naming inputs; each must exist when the file is read
PATH_KEYS = ("root", "manifest", "qa", "chunks", "index", "outputs",
             "baseline", "enhanced", "compare_with", "report")


# ---------------------------------------------------------------------------
# manifest and small shared helpers

def _write_run_manifest(out_dir: Path, settings: dict, inputs: list) -> None:
    """Reproducibility record: effective config, its hash, input checksums, version and
    the environment: python and numpy versions (numpy null when the process never
    loaded it), OPENBLAS_NUM_THREADS and whether it sized the BLAS pool that ran
    (remote-embedder scores depend on that pool and the BLAS kernel;
    deterministic-embedder scores do not).

    This is the only artifact allowed to contain a timestamp.
    """
    numpy = sys.modules.get("numpy")
    manifest = {
        "version": lexrag.__version__,
        "environment": {"python": platform.python_version(),
                        "numpy": numpy.__version__ if numpy else None,
                        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
                        "OPENBLAS_NUM_THREADS_in_effect": BLAS_ENV_IN_EFFECT},
        "config": settings,
        "config_sha256": hashlib.sha256(
            json.dumps(settings, sort_keys=True).encode("utf-8")).hexdigest(),
        "inputs": {str(Path(p)): sha256_file(p) for p in inputs if p and Path(p).is_file()},
        "created_at": datetime.now(timezone.utc).isoformat(),
    }
    write_json(manifest, out_dir / "run_manifest.json")


def _remote_config(settings: dict, missing_endpoint: str) -> RemoteConfig:
    if not settings["endpoint"]:
        raise ValueError(missing_endpoint)
    return RemoteConfig(endpoint=settings["endpoint"],
                        auth_token=os.environ.get("LEXRAG_API_TOKEN"),
                        timeout_seconds=settings["timeout"], retries=settings["retries"])


def _at_least_one(settings: dict, key: str) -> int:
    """A count setting, rejected by name below 1 (nothing clamps it silently)."""
    value = settings[key]
    if value < 1:
        raise ValueError(f"{key} must be >= 1, not {value}")
    return value


def _parse_k_list(raw: str) -> list[int]:
    try:
        ks = sorted({int(part) for part in raw.split(",") if part.strip()})
    except ValueError:
        ks = []
    if not ks or any(k < 1 for k in ks):
        raise ValueError(f"invalid k list: {raw!r}")
    return ks


def _corpus_inputs(settings: dict, docs: DocumentCollection) -> list:
    """The --manifest sidecar and every document file loaded from --root."""
    root = Path(settings["root"])
    return [settings["manifest"], *(root / doc.doc_id for doc in docs)]


def _retrieval_context(settings: dict, k: int) -> tuple[RetrievalContext, list[Chunk]]:
    """Open the index under --index; also return its chunks, in row order."""
    index_dir = Path(settings["index"])
    sparse, dense = _cli.load_indexes(index_dir)
    chunks = _cli.load_index_chunks(index_dir, sparse.chunk_ids)
    remote = (_remote_config(settings, "index was built with the remote embedder; "
                             "pass --endpoint") if dense.backend == "remote" else None)
    ctx = _cli.RetrievalContext(
        sparse=sparse, dense=dense,
        embedder=_cli.get_embedder(dense.backend, dim=dense.dim, remote=remote),
        fusion=FusionConfig(k=k, alpha=settings["alpha"]),
        chunk_table=[(c.doc_id, c.start, c.end) for c in chunks],
    )
    return ctx, chunks


# ---------------------------------------------------------------------------
# commands: each takes (settings, out_dir), writes under out_dir, prints a
# summary and returns the input paths its run manifest checksums

def cmd_ingest(settings: dict, out_dir: Path) -> list:
    docs = _cli.load_documents(Path(settings["root"]), settings["manifest"])
    report = {
        "documents": len(docs),
        "document_errors": [asdict(e) for e in docs.errors],
    }
    qa_path = settings["qa"]
    if qa_path:
        records, errors = _cli.load_qa_dataset(qa_path, settings["format"])
        if settings["span_unit"] == "byte":
            errors = errors + _cli.convert_spans_to_char(records, docs)
        validation = _cli.validate_annotations(records, docs)
        report["qa"] = _cli.dataset_counts(records)
        report["qa_errors"] = [asdict(e) for e in errors]
        report["validation"] = validation.to_dict()
    write_json(report, out_dir / "ingest_report.json")
    print(json.dumps({k: v for k, v in report.items() if k in ("documents", "qa")},
                     sort_keys=True))
    return [*_corpus_inputs(settings, docs), qa_path]


def cmd_chunk(settings: dict, out_dir: Path) -> list:
    docs = _cli.load_documents(Path(settings["root"]), settings["manifest"])
    cfg = ChunkConfig(target_tokens=settings["target"], overlap_tokens=settings["overlap"])
    all_chunks = [chunk for doc in docs for chunk in _cli.split_recursive(doc, cfg)]
    _cli.dump_chunks(all_chunks, out_dir / "chunks.jsonl")
    print(json.dumps({"documents": len(docs), "chunks": len(all_chunks)}, sort_keys=True))
    return _corpus_inputs(settings, docs)


def cmd_enrich(settings: dict, out_dir: Path) -> list:
    workers = _at_least_one(settings, "workers")
    docs = _cli.load_documents(Path(settings["root"]), settings["manifest"])
    chunks = _cli.load_chunks(Path(settings["chunks"]))
    remote = None
    if settings["summarizer"] == "remote":
        remote = _cli.RemoteSummarizer(
            _remote_config(settings, "remote summarizer requires --endpoint"))

    by_doc: dict[str, list[Chunk]] = {}
    for chunk in chunks:
        by_doc.setdefault(chunk.doc_id, []).append(chunk)
    enriched = []
    for doc_id in sorted(by_doc):
        doc = docs.get(doc_id)
        if doc is None:
            raise ValueError(f"chunked document {doc_id!r} not present under --root")
        for c in by_doc[doc_id]:
            if doc.text[c.start:c.end] != c.text:
                raise ValueError(f"chunk {c.chunk_id!r} is not characters [{c.start}, {c.end}) "
                                 f"of document {doc_id!r} under --root")
        enriched.extend(_cli.enrich_document_chunks(
            sorted(by_doc[doc_id], key=lambda c: c.ordinal), doc.meta, remote,
            max_workers=workers))
    _cli.dump_enriched(enriched, out_dir / "enriched.jsonl")
    fallbacks = sum(1 for e in enriched if e.summary_fallback)
    print(json.dumps({"chunks": len(enriched), "summary_fallbacks": fallbacks}, sort_keys=True))
    return [*_corpus_inputs(settings, docs), settings["chunks"]]


def cmd_index(settings: dict, out_dir: Path) -> list:
    workers = _at_least_one(settings, "workers")
    chunks_path = Path(settings["chunks"])
    # the index stores this file as given, under the sha256 of the bytes parsed here
    digest = hashlib.sha256()
    chunks = _cli.load_chunks(chunks_path, digest=digest)
    if not chunks:
        raise ValueError(f"no chunks in {chunks_path}")
    if settings["embedder"] == "remote":
        embedder = _cli.get_embedder("remote", dim=settings["dim"], remote=_remote_config(
            settings, "remote embedder requires --endpoint"))
        embedder.max_workers = workers
    else:
        embedder = _cli.get_embedder("deterministic", dim=settings["dim"])
    # one tokenize pass serves both indexes, over each full_text made as it is read;
    # building dense first and dropping the term rows before saving measured the
    # lowest peak memory
    rows = _cli.term_rows(_cli.FullTexts(chunks))
    dense = _cli.build_dense(chunks, embedder, rows=rows)
    sparse = _cli.build_sparse(chunks, rows=rows)
    del rows
    _cli.save_indexes(out_dir, sparse, dense, chunks_path, digest.hexdigest())
    print(json.dumps({"chunks": sparse.N, "dim": dense.dim, "embedder": dense.backend},
                     sort_keys=True))
    return [chunks_path]


def cmd_retrieve(settings: dict, out_dir: Path) -> list:
    top = _at_least_one(settings, "top")
    ctx, chunks = _retrieval_context(settings, k=max(_at_least_one(settings, "k"), top))
    records, errors = _cli.load_qa_dataset(settings["qa"], settings["format"])
    results = list(ctx.retrieve_many([r.question for r in records],
                                     [r.query_id for r in records]))
    contexts = []
    for record, result in zip(records, results):
        # the top chunks' body text in rank order, each under its document id,
        # for downstream QA; enriched headers never enter generated contexts
        used = [chunks[row] for row in result.ranked[:top]]
        contexts.append({
            "query_id": record.query_id,
            "context": "\n\n".join(f"[{c.doc_id}]\n{c.text}" for c in used),
            "short_context": len(used) < top,
            "n_used": len(used),
        })
    _cli.dump_results(results, ctx.sparse.chunk_ids, out_dir / "results.jsonl")
    write_jsonl(contexts, out_dir / "contexts.jsonl")
    print(json.dumps({"queries": len(results), "load_errors": len(errors)}, sort_keys=True))
    return [settings["qa"], Path(settings["index"]) / _cli.META_FILE]


def cmd_eval_retrieval(settings: dict, out_dir: Path) -> list:
    ks = _parse_k_list(settings["k"])
    ctx, _ = _retrieval_context(settings, k=max(ks))
    qa_path = settings["qa"]
    records, _ = _cli.load_qa_dataset(qa_path, settings["format"])
    report = _cli.sweep(records, ctx, ks,
                        dataset=settings["dataset_name"] or Path(qa_path).stem,
                        variant=settings["variant"],
                        seed=settings["seed"],
                        iterations=settings["bootstrap_iterations"])
    write_json(report.to_dict(), out_dir / "metric_report.json")
    (out_dir / "metric_report.txt").write_text(_cli.render_table(report) + "\n", encoding="utf-8")
    print(_cli.render_table(report))
    return [qa_path, Path(settings["index"]) / _cli.META_FILE]


def cmd_align_spans(settings: dict, out_dir: Path) -> list:
    docs = _cli.load_documents(Path(settings["root"]), settings["manifest"])
    records, errors = _cli.load_qa_dataset(settings["qa"], "aus_legal_qa")
    aligned, align_report = _cli.reconstruct_dataset(records, docs)
    _cli.save_aligned_dataset([r for r in aligned if r.gold_spans],
                              out_dir / "aligned_dataset.json")
    write_json(align_report.to_dict(), out_dir / "alignment_report.json")
    print(json.dumps({"aligned": align_report.aligned, "failed": align_report.failed,
                      "load_errors": len(errors)}, sort_keys=True))
    return [*_corpus_inputs(settings, docs), settings["qa"]]


def cmd_dpo_build(settings: dict, out_dir: Path) -> list:
    records, errors = _cli.load_qa_dataset(settings["qa"], "aus_legal_qa")
    seed = settings["seed"]
    spec = SplitSpec(train=settings["train"], validation=settings["validation"],
                     test=settings["test"], seed=seed)
    train, validation, test = _cli.split_dataset(records, spec)
    counts = {}
    start = len(records) - 1  # the shuffle read counters 0 to n - 2 of the seed
    for name, split in (("train", train), ("validation", validation), ("test", test)):
        pairs = (_cli.build_preference_pairs(split, seed=seed, template=settings["template"],
                                             start=start) if split else [])
        start += len(split)
        _cli.dump_pairs(pairs, out_dir / f"{name}.jsonl", style=settings["export_style"])
        counts[name] = {"records": len(split), "pairs": len(pairs)}
    write_json({"splits": counts, "seed": seed, "load_errors": len(errors)},
               out_dir / "dpo_manifest.json")
    print(json.dumps(counts, sort_keys=True))
    return [settings["qa"]]


def cmd_eval_refusal(settings: dict, out_dir: Path) -> list:
    outputs = _cli.load_model_outputs(Path(settings["outputs"]))
    mode = settings["mode"]
    report: dict = {"outputs": len(outputs)}
    for m in (("strict", "soft") if mode == "both" else (mode,)):
        rates = _cli.refusal_rates(outputs, m)
        report[m] = {
            key: (None if value is None else {"exact": value, "rendered": f"{value:.1f}%"})
            for key, value in rates.items()
        }
    write_json(report, out_dir / "refusal_report.json")
    print(json.dumps(report, sort_keys=True))
    return [settings["outputs"]]


def cmd_eval_answers(settings: dict, out_dir: Path) -> list:
    records, _ = _cli.load_qa_dataset(settings["qa"], settings["format"])
    references = {r.query_id: r.gold_answer for r in records}

    def score_file(path: Path) -> list[tuple[str, float]]:
        outputs = _cli.load_model_outputs(path)
        scored = []
        for query_id, _tag, output_text in outputs:
            if query_id not in references:
                raise ValueError(f"output {query_id!r} has no reference record")
            scored.append((query_id, _cli.token_f1(output_text, references[query_id])))
        return scored

    scores_a = score_file(Path(settings["outputs"]))
    report: dict = {
        "outputs": len(scores_a),
        "mean_f1": float(sum(s for _, s in scores_a) / len(scores_a)) if scores_a else None,
    }
    compare_path = settings["compare_with"]
    if compare_path:
        scores_b = score_file(Path(compare_path))
        report["comparison"] = _cli.mean_score_with_delta_ci(
            scores_a, scores_b,
            iterations=settings["bootstrap_iterations"],
            seed=settings["seed"])
    write_json(report, out_dir / "answer_report.json")
    print(json.dumps(report, sort_keys=True))
    return [settings["outputs"]]


def _read_report(path: str) -> MetricReport:
    return _cli.MetricReport.from_dict(read_json(path), where=path)


def cmd_compare(settings: dict, out_dir: Path) -> list:
    baseline = _read_report(settings["baseline"])
    enhanced = _read_report(settings["enhanced"])
    comparisons = _cli.compare_reports(baseline, enhanced,
                                       iterations=settings["bootstrap_iterations"],
                                       seed=settings["seed"])
    payload = {
        "baseline": {"dataset": baseline.dataset, "variant": baseline.variant},
        "enhanced": {"dataset": enhanced.dataset, "variant": enhanced.variant},
        "m": len(comparisons),
        "comparisons": [asdict(c) for c in comparisons],
    }
    write_json(payload, out_dir / "comparison.json")
    table = _cli.render_comparison_table(comparisons)
    (out_dir / "comparison.txt").write_text(table + "\n", encoding="utf-8")
    print(table)
    return [settings["baseline"], settings["enhanced"]]


def cmd_report(settings: dict) -> None:
    """Render a metric report; --out here names the text file, not a run directory."""
    table = _cli.render_table(_read_report(settings["report"]))
    out = settings["out"]
    if out:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(table + "\n", encoding="utf-8")
    print(table)


# ---------------------------------------------------------------------------
# the settings table, and the parser and settings dict built from it

class Setting(NamedTuple):
    """One setting of one command: its key is the flag's dest and the config-file key."""
    key: str
    type: type = str  # int, float or str
    default: object = None
    choices: tuple[str, ...] | None = None
    required: bool = False
    help: str | None = None
    flag: bool = True  # False: set only from the config file


class Command(NamedTuple):
    func: Callable
    help: str
    settings: tuple[Setting, ...]


OUT = Setting("out", default=".", help="output directory")
SEED = Setting("seed", int, 0, help="explicit RNG seed")
CORPUS = (Setting("root", required=True), Setting("manifest"))
QA = Setting("qa", required=True)
QA_FORMAT = Setting("format", default="snippet_qa", choices=("snippet_qa", "aus_legal_qa"))
REMOTE = (Setting("endpoint"),
          Setting("timeout", float, RemoteConfig.timeout_seconds, flag=False),
          Setting("retries", int, RemoteConfig.retries, flag=False))
SEARCH = (Setting("index", required=True), Setting("alpha", float, FusionConfig.alpha),
          QA, QA_FORMAT, *REMOTE)
BOOTSTRAP = Setting("bootstrap_iterations", int, 10000)

COMMANDS = {
    "ingest": Command(cmd_ingest, "load corpus + QA dataset, validate annotations", (
        OUT, *CORPUS, QA_FORMAT, Setting("qa"),
        Setting("span_unit", default="char", choices=("char", "byte")))),
    "chunk": Command(cmd_chunk, "recursively split documents into chunks", (
        OUT, *CORPUS, Setting("target", int, ChunkConfig.target_tokens),
        Setting("overlap", int, ChunkConfig.overlap_tokens))),
    "enrich": Command(cmd_enrich, "add metadata headers and window summaries", (
        OUT, *CORPUS, *REMOTE, Setting("chunks", required=True),
        Setting("summarizer", default="extractive", choices=("extractive", "remote")),
        Setting("workers", int, 1, help="concurrent remote summarizer calls"))),
    "index": Command(cmd_index, "build sparse and dense indexes over chunks", (
        OUT, *REMOTE, Setting("chunks", required=True),
        Setting("embedder", default="deterministic", choices=("deterministic", "remote")),
        Setting("dim", int, 256),
        Setting("workers", int, 4, help="concurrent remote embedding batches"))),
    "retrieve": Command(cmd_retrieve, "run hybrid retrieval and emit contexts", (
        OUT, *SEARCH, Setting("k", int, 10),
        Setting("top", int, 4, help="chunks per generated context"))),
    "eval-retrieval": Command(cmd_eval_retrieval, "DRM / span-recall sweep over k", (
        OUT, SEED, *SEARCH, BOOTSTRAP,
        Setting("k", default="1,2,4,8,16,32,64", help="comma-separated depths"),
        Setting("variant", default="baseline", choices=("baseline", "enhanced")),
        Setting("dataset_name", help="dataset label (default: the --qa file's stem)"))),
    "align-spans": Command(cmd_align_spans, "reconstruct gold spans from answer text", (
        OUT, *CORPUS, QA)),
    "dpo-build": Command(cmd_dpo_build, "build preference pairs and dataset splits", (
        OUT, SEED, QA, Setting("train", int, SplitSpec.train),
        Setting("validation", int, SplitSpec.validation), Setting("test", int, SplitSpec.test),
        Setting("template", default=WITH_REFUSAL_INSTRUCTION,
                choices=(WITH_REFUSAL_INSTRUCTION, WITHOUT_REFUSAL_INSTRUCTION)),
        Setting("export_style", default="plain", choices=("plain", "conversation")))),
    "eval-refusal": Command(cmd_eval_refusal, "refusal rates from model outputs", (
        OUT, Setting("outputs", required=True),
        Setting("mode", default="both", choices=("strict", "soft", "both")))),
    "eval-answers": Command(cmd_eval_answers, "token-F1 answer scoring", (
        OUT, SEED, QA, QA_FORMAT._replace(default="aus_legal_qa"), BOOTSTRAP,
        Setting("outputs", required=True), Setting("compare_with"))),
    "compare": Command(cmd_compare, "paired comparison of two metric reports", (
        OUT, SEED, BOOTSTRAP, Setting("baseline", required=True),
        Setting("enhanced", required=True))),
    "report": Command(cmd_report, "render a metric report as a text table", (
        Setting("out", help="text file for the table"), Setting("report", required=True))),
}


def build_parser(command: str | None) -> argparse.ArgumentParser:
    """One subcommand per ``COMMANDS`` entry, and one flag per setting that has one
    on the subcommand named ``command`` alone: the one that parses its arguments.

    Flags default to None, so ``_settings`` can tell a given flag from an
    absent one; the help text shows the table's default. No flag is required
    here, since a --config file may supply it; ``main`` checks the merged
    settings instead, through the subcommand's ``error``.
    """
    parser = argparse.ArgumentParser(
        prog="lexrag",
        description="Hybrid retrieval and evaluation pipeline for long legal documents")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, spec in COMMANDS.items():
        sub = commands.add_parser(name, help=spec.help)
        if name != command:
            continue
        sub.set_defaults(error=sub.error)
        sub.add_argument("--config", help="JSON config file; flags override its keys")
        for s in filter(lambda s: s.flag, spec.settings):
            default = ("(required)" if s.required else
                       None if s.default is None else f"(default: {s.default})")
            help = " ".join(filter(None, (s.help, default))) or None
            sub.add_argument(_flag(s), type=None if s.type is str else s.type,
                             choices=s.choices, help=help)
    return parser


def _flag(setting: Setting) -> str:
    return "--" + setting.key.replace("_", "-")


def _checked(setting: Setting, value):
    """A config-file value, held to its flag's type and choices check.

    null means "not set" where the default is None, as in a run manifest's config.
    """
    if value is None and setting.default is None:
        return None
    if setting.type is float and type(value) is int:
        value = float(value)
    if type(value) is not setting.type or (setting.choices and value not in setting.choices):
        wanted = f"one of {list(setting.choices)}" if setting.choices else setting.type.__name__
        raise ValueError(f"config key {setting.key!r} must be {wanted}, not {value!r}")
    return value


def _settings(args: argparse.Namespace) -> dict:
    """The command's effective settings: defaults, then the --config file, then flags.

    Keys are the table's; a config-file key that the command does not read is
    left out. Seeding is always explicit: defaults are fixed constants, never
    wall clock.
    """
    config = read_json(args.config) if args.config else {}
    settings = {"command": args.command}
    for s in COMMANDS[args.command].settings:
        value = _checked(s, config[s.key]) if s.key in config else s.default
        flag = getattr(args, s.key, None)
        settings[s.key] = value if flag is None else flag
    for key in PATH_KEYS:
        value = config.get(key)
        if isinstance(value, str) and value and not Path(value).exists():
            raise FileNotFoundError(f"config key {key!r}: path does not exist: {value}")
    return settings


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        settings = _settings(args)
        missing = [_flag(s) for s in COMMANDS[args.command].settings
                   if s.required and settings[s.key] is None]
        if missing:
            args.error(f"the following arguments are required: {', '.join(missing)}")
        if args.command == "report":
            cmd_report(settings)
        else:
            out_dir = Path(settings["out"])
            out_dir.mkdir(parents=True, exist_ok=True)
            inputs = COMMANDS[args.command].func(settings, out_dir)
            _write_run_manifest(out_dir, settings, [*inputs, args.config])
    except Exception as exc:  # surface every failure as machine-readable JSON
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
