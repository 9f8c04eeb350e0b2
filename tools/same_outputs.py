"""Check that two lexrag source trees write the same outputs for the same inputs,
or that one tree writes the outputs whose digests are committed.

    python3 tools/same_outputs.py PARENT_TREE [CHANGE_TREE]
    python3 tools/same_outputs.py --check | --write [TREE]

CHANGE_TREE and TREE default to the tree this script sits in. The script generates
one set of inputs with ``tests/synthcorpus.py`` (a near-duplicate legal corpus
with a snippet-QA file, and an Aus-format corpus with model outputs), adds one
Greek decision to both corpora (capital and final sigmas, curly quotes, "§"),
so the tokenizer and the aligner also see non-ASCII text, a second copy of it
under a Greek file name to the legal corpus, so the index stores multi-byte doc
ids and chunk ids, and one Aus-format record whose reworded excerpt of it
aligns only by the fuzzy tier, and a hand-written chunk file with CRLF line
endings, a blank line and no final newline, which is indexed, retrieved from
and evaluated. A third, one-document Aus-format corpus has its own
``align-spans`` run: its document holds CRLF line endings, runs of mixed
whitespace (ideographic space, tab, the separator "\x1c") inside and at both
ends, and "İ", which lowers to two code points, before and inside excerpts that
align by each tier. The legal corpus is also enriched by the remote summarizer at a
local port nothing listens on, so every window falls back to its extractive
summary through the summarizer's thread pool, and chunked small (16 tokens), so
its index holds more chunks than fusion's dense pool (``lexrag.retriever.POOL``)
and rows outside the pool enter fusion. Three more small input files reach branches
the corpora alone do not: a snippet-QA file of one query whose terms the index never
saw and one of punctuation alone, so BM25 scores no chunk; one whose spans are UTF-8
byte offsets into the Greek decision (``ingest --span-unit byte``), one crossing
multi-byte characters and one splitting a character; and an Aus-format file of one
record whose document URL names no file and one with an empty ``Context``. ``dpo-build``
also runs with the prompt template that has no refusal instruction. It then runs one
fixed sequence of ``lexrag`` commands per tree, each in a fresh ``python -m
lexrag.cli`` process with that tree's ``src`` alone on ``PYTHONPATH``. It compares every file the commands wrote, except
``run_manifest.json`` (the one artifact allowed to hold a timestamp), plus
each command's stdout and exit code. It prints what differs (for JSON files,
the differing keys) and exits 1 if anything does, 0 if nothing does.

Every process runs under its own random ``PYTHONHASHSEED``, and every process of
the second tree under ``OPENBLAS_CORETYPE=Prescott`` (numpy's OpenBLAS then runs
its generic SSE3 kernels, whatever the CPU offers) and ``OPENBLAS_NUM_THREADS=4``
(the first tree keeps lexrag's own one thread, unless the caller set the
variable). So comparing a tree with itself (``python3 tools/same_outputs.py .``)
catches outputs that depend on set or hash order, or on which BLAS kernel and how
many threads summed a dot product.

``--check`` and ``--write`` run the sequence once, in one tree, and compare its
outputs with ``tools/golden_outputs.json`` or rewrite that file. It holds each
command's exit code and the sha256 of its stdout, the sha256 of every output file
but ``run_manifest.json``, and the Python, numpy and Unicode database versions it
was written under. ``--check`` names each command and file that differs, prints the
recorded versions next to the running ones, and exits 1; a version mismatch alone
is not a difference. A change that means to change outputs rewrites the file in the
same commit, so its diff lists exactly the artifacts that changed.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import unicodedata
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
DIGEST_FILE = HERE / "tools" / "golden_outputs.json"

GREEK_DECISION = """ΑΠΟΦΑΣΗ ΤΟΥ ΔΙΟΙΚΗΤΙΚΟΥ ΕΦΕΤΕΙΟΥ ΑΘΗΝΩΝ

§ 1. Ο ΝΟΜΟΣ ΤΗΣ ΠΟΛΕΩΣ ορίζει ότι η «αίτηση ακυρώσεως» του ενάγοντος κατατίθεται
εντός της προθεσμίας. Το Δικαστήριο σημειώνει ότι ο όρος “προθεσμία” ερμηνεύεται
στενά, και ότι η ΣΥΜΒΑΣΗ ΜΙΣΘΩΣΕΩΣ δεν μεταβάλλει τον κανόνα.

§ 2. Ο εναγόμενος ισχυρίστηκε ότι η ‘ειδοποίηση’ επιδόθηκε νομίμως. ΟΙ ΙΣΧΥΡΙΣΜΟΙ ΤΟΥ
ΕΝΑΓΟΜΕΝΟΥ ΑΠΟΡΡΙΠΤΟΝΤΑΙ, διότι η επίδοση έγινε σε λάθος διεύθυνση και ο ΟΡΟΣ ΤΗΣ
ΣΥΜΒΑΣΕΩΣ για τις κοινοποιήσεις δεν τηρήθηκε.

§ 3. ΓΙΑ ΤΟΥΣ ΛΟΓΟΥΣ ΑΥΤΟΥΣ το Δικαστήριο δέχεται την αίτηση, ακυρώνει την πράξη και
επιβάλλει στον εναγόμενο τη δικαστική δαπάνη του ενάγοντος.
"""
GREEK_DOC = "greek_decision.txt"
GREEK_NAMED_DOC = "απόφαση_εφετείου.txt"
# the second tree's BLAS: generic kernels, and more threads than lexrag's default one
SECOND_TREE_BLAS = {"OPENBLAS_CORETYPE": "Prescott", "OPENBLAS_NUM_THREADS": "4"}
# § 2, its line breaks reflowed and one word replaced ("λάθος" -> "άλλη"), so
# neither the verbatim nor the whitespace-insensitive tier finds it
GREEK_EXCERPT = ("Ο εναγόμενος ισχυρίστηκε ότι η ‘ειδοποίηση’ επιδόθηκε νομίμως. ΟΙ ΙΣΧΥΡΙΣΜΟΙ "
                 "ΤΟΥ ΕΝΑΓΟΜΕΝΟΥ ΑΠΟΡΡΙΠΤΟΝΤΑΙ, διότι η επίδοση έγινε σε άλλη διεύθυνση και "
                 "ο ΟΡΟΣ ΤΗΣ ΣΥΜΒΑΣΕΩΣ για τις κοινοποιήσεις δεν τηρήθηκε.")
# a document whose whitespace runs and "İ"s move normalized offsets off raw ones
SPACES_DOC = "spaces.txt"
SPACES_DECISION = ("\r\n \u3000\tİSTANBUL REGIONAL COURT\r\n\r\n"
                   "1.  The tenant shall pay the rent\u3000\tmonthly to the landlord\x1cat the "
                   "İzmir office of the agent.\r\nNotice of any breach must be served in writing "
                   "within fourteen days, and the İnspector's report on the premises is "
                   "admissible  evidence of the breach.\r\n2. The lease ends on the day the "
                   "İzmir office closes.\t \r\n \u3000")
SPACES_EXCERPTS = [
    # tier 1: verbatim
    "The lease ends on the day the İzmir office closes.",
    # tier 2: whitespace collapsed; from the first "İ", across "İ"s, and to the first
    # code point of one
    "İSTANBUL REGIONAL COURT 1. The tenant",
    "The tenant shall pay the rent monthly to the landlord at the İzmir office of the agent.",
    "the İnspector's\nreport",
    "landlord at the i",
    # tier 3: "fourteen" reworded, an "İ" inside
    "Notice of any breach must be served in writing within fifteen days, and the "
    "İnspector's report on the premises is admissible evidence",
    # below the threshold
    "The landlord may enter the premises at any reasonable hour of the day.",
]


def make_inputs(base: Path) -> dict[str, Path]:
    sys.path.insert(0, str(HERE))
    from tests.synthcorpus import build_aus_corpus, build_legal_corpus

    root, manifest, qa, _ = build_legal_corpus(base / "legal", n_docs=6, seed=0)
    aus_root, aus_qa = build_aus_corpus(base / "aus", n_records=24, n_docs=6, seed=2)
    for cases in (root / "cases", aus_root / "courts.example.au" / "cases"):
        (cases / GREEK_DOC).write_text(GREEK_DECISION, encoding="utf-8")
    (root / "cases" / GREEK_NAMED_DOC).write_text(GREEK_DECISION, encoding="utf-8")
    spaces_root = base / "spaces" / "aus_corpus"
    (spaces_root / "courts.example.au").mkdir(parents=True)
    (spaces_root / "courts.example.au" / SPACES_DOC).write_bytes(SPACES_DECISION.encode("utf-8"))
    spaces_qa = base / "spaces" / "aus_qa.jsonl"
    spaces_qa.write_text("".join(json.dumps(
        {"query_id": f"spaces-{i}", "Question": "What does the decision say?",
         "document URL": f"https://courts.example.au/{SPACES_DOC}", "Context": excerpt,
         "Answer": "It says so."}, ensure_ascii=False) + "\n"
        for i, excerpt in enumerate(SPACES_EXCERPTS)), encoding="utf-8")
    records = [json.loads(line) for line in aus_qa.read_text(encoding="utf-8").splitlines()]
    records.append({"query_id": "aus-greek", "Question": "Γιατί απορρίφθηκαν οι ισχυρισμοί;",
                    "document URL": f"https://courts.example.au/cases/{GREEK_DOC}",
                    "Context": GREEK_EXCERPT, "Document MetaData": "απόφαση εφετείου",
                    "Answer": "Η επίδοση έγινε σε λάθος διεύθυνση."})
    aus_qa.write_text("\n".join(json.dumps(r, ensure_ascii=False) for r in records),
                      encoding="utf-8")
    # every fifth output a refusal, canonical or hedged, under both set tags
    refusals = ["Given context is not sufficient to answer.",
                "I'm afraid the given context is not sufficient to answer this."]
    tags = ["set1_correct_context", "set2_incorrect_context"]
    good = [{"query_id": r["query_id"], "set_tag": tags[i % 2],
             "output": refusals[i % 10 // 5] if i % 5 == 0 else r["Answer"]}
            for i, r in enumerate(records)]
    bad = [{"query_id": r["query_id"], "set_tag": "set1_correct_context",
            "output": f"Unrelated words {i}."} for i, r in enumerate(records)]
    for name, rows in (("good", good), ("bad", bad)):
        lines = (json.dumps(row) + "\n" for row in rows)
        (base / f"{name}.jsonl").write_text("".join(lines), encoding="utf-8")
    # a chunk file as a hand edit on Windows might leave it: CRLF endings, a blank
    # line, no final newline. `index` parses it as a stream, and `retrieve` and
    # `eval-retrieval` parse the index's copy of it as a stream too, which must give
    # the chunk ids index.npz holds
    rows = [("hand/a.txt", 0, 0, "The tenant shall pay the rent on the first day of each month."),
            ("hand/a.txt", 1, 62, "Notice must be served at the address in the lease."),
            ("hand/β.txt", 0, 0, "Η προθεσμία ερμηνεύεται στενά."),
            ("hand/β.txt", 1, 31, "... ;;; ...")]
    lines = [json.dumps({"chunk_id": f"{doc}#{n:06d}", "doc_id": doc, "start": start,
                         "end": start + len(text), "text": text, "ordinal": n},
                        ensure_ascii=False).encode("utf-8") for doc, n, start, text in rows]
    (base / "crlf_chunks.jsonl").write_bytes(b"\r\n".join(lines[:2] + [b""] + lines[2:]))
    # queries that no BM25 posting matches: words the index never saw, and no word at all
    greek_span = {"file_path": f"cases/{GREEK_DOC}", "span": [0, 40]}
    unmatched = [{"query_id": "unindexed", "query": "zyzzyva quixotry xylograph",
                  "snippets": [greek_span]},
                 {"query_id": "punctuation", "query": "?! ... ;; --", "snippets": [greek_span]}]
    (base / "unmatched_qa.json").write_text(json.dumps(unmatched), encoding="utf-8")
    # UTF-8 byte spans into the Greek decision: one over two-byte letters, «» and a
    # space, and one whose start falls inside a two-byte letter
    encoded = GREEK_DECISION.encode("utf-8")
    phrase = "«αίτηση ακυρώσεως»".encode("utf-8")
    start = encoded.index(phrase)
    byte_spans = [{"query_id": "bytes-whole", "query": "Τι κατατίθεται εντός της προθεσμίας;",
                   "snippets": [{"file_path": f"cases/{GREEK_DOC}",
                                 "span": [start, start + len(phrase)],
                                 "answer": "«αίτηση ακυρώσεως»"}]},
                  {"query_id": "bytes-split", "query": "Ποιος νόμος ορίζει την προθεσμία;",
                   "snippets": [{"file_path": f"cases/{GREEK_DOC}",
                                 "span": [encoded.index("ΝΟΜΟΣ".encode("utf-8")) + 1,
                                          start]}]}]
    (base / "byte_span_qa.json").write_text(json.dumps(byte_spans, ensure_ascii=False),
                                            encoding="utf-8")
    # records align-spans cannot align: a document URL naming no file, an empty Context
    missing = [{"query_id": "no-document", "Question": "What was decided?",
                "document URL": "https://courts.example.au/cases/no_such_decision.txt",
                "Context": "The appeal is dismissed.", "Answer": "The appeal was dismissed."},
               {"query_id": "no-context", "Question": "What was decided?",
                "document URL": f"https://courts.example.au/cases/{GREEK_DOC}",
                "Context": "", "Answer": "The application was allowed."}]
    (base / "missing_qa.jsonl").write_text("".join(json.dumps(r) + "\n" for r in missing),
                                           encoding="utf-8")
    # settings for one retrieve run; "index" resolves against the run directory, and the
    # required settings are repeated as flags, which argparse insists on
    config = {"index": "index", "qa": str(qa), "format": "snippet_qa", "top": 8, "alpha": 0.3}
    (base / "config.json").write_text(json.dumps(config), encoding="utf-8")
    # no retries for the remote summarizer run, whose endpoint nothing listens on
    (base / "no_retries.json").write_text(json.dumps({"retries": 0}), encoding="utf-8")
    return {"root": root, "manifest": manifest, "qa": qa, "aus_root": aus_root,
            "aus_qa": aus_qa, "good": base / "good.jsonl", "bad": base / "bad.jsonl",
            "config": base / "config.json", "crlf_chunks": base / "crlf_chunks.jsonl",
            "no_retries": base / "no_retries.json", "spaces_root": spaces_root,
            "spaces_qa": spaces_qa, "unmatched_qa": base / "unmatched_qa.json",
            "byte_span_qa": base / "byte_span_qa.json", "missing_qa": base / "missing_qa.jsonl"}


def commands(i: dict[str, Path]) -> list[list[str]]:
    """The command sequence; output paths are relative to the tree's run directory."""
    legal = ["--root", str(i["root"]), "--manifest", str(i["manifest"])]
    qa = ["--qa", str(i["qa"]), "--format", "snippet_qa"]
    unmatched = ["--qa", str(i["unmatched_qa"]), "--format", "snippet_qa"]
    sweep = ["--k", "1,2,4,8", "--seed", "0", "--bootstrap-iterations", "500"]
    return [
        ["ingest", *legal, *qa, "--out", "ingest"],
        ["ingest", *legal, "--qa", str(i["byte_span_qa"]), "--format", "snippet_qa",
         "--span-unit", "byte", "--out", "ingest_byte_spans"],
        ["chunk", *legal, "--target", "48", "--overlap", "10", "--out", "chunks"],
        ["enrich", *legal, "--chunks", "chunks/chunks.jsonl", "--summarizer", "extractive",
         "--out", "enriched"],
        # the discard port, where nothing listens: every window's call fails at once and
        # falls back to its extractive summary, through the summarizer's thread pool
        ["enrich", *legal, "--chunks", "chunks/chunks.jsonl", "--summarizer", "remote",
         "--endpoint", "http://127.0.0.1:9/", "--workers", "3", "--config",
         str(i["no_retries"]), "--out", "enriched_remote_fallback"],
        ["index", "--chunks", "enriched/enriched.jsonl", "--dim", "128", "--out", "index"],
        ["retrieve", "--index", "index", *qa, "--top", "4", "--out", "retrieved"],
        ["eval-retrieval", "--index", "index", *qa, *sweep, "--out", "eval"],
        # no query term is indexed, so every candidate's BM25 score is 0
        ["retrieve", "--index", "index", *unmatched, "--top", "4", "--out", "retrieved_unmatched"],
        ["eval-retrieval", "--index", "index", *unmatched, *sweep, "--out", "eval_unmatched"],
        ["index", "--chunks", "chunks/chunks.jsonl", "--dim", "128", "--out", "index_baseline"],
        ["eval-retrieval", "--index", "index_baseline", *qa, *sweep, "--variant", "baseline",
         "--out", "eval_baseline"],
        ["compare", "--baseline", "eval_baseline/metric_report.json",
         "--enhanced", "eval/metric_report.json", "--seed", "0",
         "--bootstrap-iterations", "500", "--out", "compare"],
        ["retrieve", "--index", "index", *qa, "--top", "16", "--alpha", "0.5",
         "--out", "retrieved_top16"],
        ["retrieve", "--config", str(i["config"]), "--index", "index", "--qa", str(i["qa"]),
         "--out", "retrieved_config"],
        ["report", "--report", "eval/metric_report.json", "--out", "report/metric_report.txt"],
        ["index", "--chunks", str(i["crlf_chunks"]), "--dim", "32", "--out", "index_crlf"],
        ["retrieve", "--index", "index_crlf", *qa, "--top", "2", "--out", "retrieved_crlf"],
        ["eval-retrieval", "--index", "index_crlf", *qa, *sweep, "--out", "eval_crlf"],
        # more chunks than the dense pool, so the pool does not hold every row
        ["chunk", *legal, "--target", "16", "--overlap", "4", "--out", "chunks_small"],
        ["index", "--chunks", "chunks_small/chunks.jsonl", "--dim", "128",
         "--out", "index_small"],
        ["retrieve", "--index", "index_small", *qa, "--out", "retrieved_small"],
        ["ingest", "--root", str(i["aus_root"]), "--qa", str(i["aus_qa"]),
         "--format", "aus_legal_qa", "--out", "ingest_aus"],
        ["align-spans", "--root", str(i["aus_root"]), "--qa", str(i["aus_qa"]),
         "--out", "aligned"],
        ["align-spans", "--root", str(i["spaces_root"]), "--qa", str(i["spaces_qa"]),
         "--out", "aligned_spaces"],
        ["align-spans", "--root", str(i["aus_root"]), "--qa", str(i["missing_qa"]),
         "--out", "aligned_missing"],
        ["dpo-build", "--qa", str(i["aus_qa"]), "--train", "18", "--validation", "2",
         "--test", "4", "--seed", "5", "--out", "dpo"],
        ["dpo-build", "--qa", str(i["aus_qa"]), "--train", "18", "--validation", "2",
         "--test", "4", "--seed", "5", "--export-style", "conversation", "--out", "dpo_conv"],
        ["dpo-build", "--qa", str(i["aus_qa"]), "--train", "18", "--validation", "2",
         "--test", "4", "--seed", "5", "--template", "without_refusal_instruction",
         "--out", "dpo_without_refusal"],
        # a seed of 2**64 or more, which the stream rejects: the command exits 1
        ["dpo-build", "--qa", str(i["aus_qa"]), "--train", "18", "--validation", "2",
         "--test", "4", "--seed", "18446744073709551621", "--out", "dpo_wide_seed"],
        ["eval-refusal", "--outputs", str(i["good"]), "--out", "refusal"],
        ["eval-answers", "--outputs", str(i["good"]), "--qa", str(i["aus_qa"]),
         "--compare-with", str(i["bad"]), "--bootstrap-iterations", "300", "--out", "answers"],
    ]


def run_tree(tree: Path, run_dir: Path, sequence: list[list[str]],
             blas_env: dict[str, str] | None = None) -> list[tuple[int, str]]:
    run_dir.mkdir(parents=True)
    # each process draws its own string-hash seed, so an output that follows set or
    # dict-of-hash order differs between runs and shows up as a difference
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONHASHSEED": "random",
           **(blas_env or {})}
    ran = []
    for argv in sequence:
        done = subprocess.run([sys.executable, "-m", "lexrag.cli", *argv], cwd=run_dir, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        ran.append((done.returncode, done.stdout))
    return ran


def outputs(run_dir: Path) -> dict[str, bytes]:
    return {str(p.relative_to(run_dir)): p.read_bytes() for p in sorted(run_dir.rglob("*"))
            if p.is_file() and p.name != "run_manifest.json"}


def json_diff(a, b, where: str = "") -> list[str]:
    """Key paths at which two parsed JSON values differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        return [d for key in sorted(a.keys() | b.keys(), key=str)
                for d in (json_diff(a[key], b[key], f"{where}.{key}")
                          if key in a and key in b else [f"{where}.{key}"])]
    return [] if a == b else [where or "."]


def versions() -> dict[str, str]:
    """What the outputs may depend on beyond the tree: the versions of Python, numpy
    and the Unicode database that ``str.isalnum`` reads."""
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "unicode": unicodedata.unidata_version}


def sha256(data: str | bytes) -> str:
    return hashlib.sha256(data.encode("utf-8") if isinstance(data, str) else data).hexdigest()


def digest(sequence: list[list[str]], ran: list[tuple[int, str]], run_dir: Path) -> dict:
    """The committed record of one tree's run: versions, commands and output files."""
    return {"versions": versions(),
            "commands": {f"{argv[0]} --out {argv[-1]}": {"exit": code, "stdout_sha256": sha256(out)}
                         for argv, (code, out) in zip(sequence, ran)},
            "files": {name: sha256(data) for name, data in outputs(run_dir).items()}}


def digest_differences(recorded: dict, current: dict) -> list[str]:
    """Each command and output file whose digest differs between two ``digest`` records."""
    differ = []
    for kind in ("commands", "files"):
        was, now = recorded[kind], current[kind]
        for name in sorted(was.keys() | now.keys()):
            if name not in was or name not in now:
                differ.append(f"{name}: only in {'this run' if name in now else 'the digest'}")
            elif was[name] != now[name] and kind == "files":
                differ.append(f"{name}: differs")
            elif was[name] != now[name]:
                a, b = was[name], now[name]
                differ.append(f"lexrag {name}: exit {a['exit']} -> {b['exit']}" + (
                    "" if a["stdout_sha256"] == b["stdout_sha256"] else ", stdout differs"))
    return differ


def run_one_tree(tree: Path, write: bool) -> int:
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        base = Path(tmp)
        sequence = commands(make_inputs(base / "inputs"))
        current = digest(sequence, run_tree(tree, base / "run", sequence), base / "run")
    if write:
        DIGEST_FILE.write_text(json.dumps(current, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {DIGEST_FILE.relative_to(HERE)}: {len(current['commands'])} commands, "
              f"{len(current['files'])} output files")
        return 0
    recorded = json.loads(DIGEST_FILE.read_text(encoding="utf-8"))
    differ = digest_differences(recorded, current)
    print(f"{len(current['commands'])} commands, {len(current['files'])} output files "
          f"checked against {DIGEST_FILE.relative_to(HERE)}")
    for line in differ:
        print("DIFFERS " + line)
    if not differ:
        print("same outputs")
        return 0
    for label, record in (("recorded", recorded["versions"]), ("running", current["versions"])):
        print(f"{label:>9}: " + ", ".join(f"{k} {v}" for k, v in sorted(record.items())))
    print(f"{len(differ)} difference(s)")
    return 1


def main(argv: list[str]) -> int:
    if len(argv) in (2, 3) and argv[1] in ("--check", "--write"):
        return run_one_tree(Path(argv[2] if len(argv) == 3 else HERE).resolve(),
                            write=argv[1] == "--write")
    if len(argv) not in (2, 3) or argv[1].startswith("-"):
        print("\n".join(line.strip() for line in __doc__.splitlines()[3:5]), file=sys.stderr)
        return 2
    trees = [Path(argv[1]).resolve(), Path(argv[2] if len(argv) == 3 else HERE).resolve()]
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        base = Path(tmp)
        sequence = commands(make_inputs(base / "inputs"))
        parent = run_tree(trees[0], base / "parent", sequence)
        change = run_tree(trees[1], base / "change", sequence, SECOND_TREE_BLAS)
        differ = []
        for argv_, (code_a, out_a), (code_b, out_b) in zip(sequence, parent, change):
            if (code_a, out_a) != (code_b, out_b):
                differ.append(f"lexrag {argv_[0]} (--out {argv_[-1]}): exit {code_a} -> {code_b}"
                              + ("" if out_a == out_b else ", stdout differs"))
        files_a, files_b = outputs(base / "parent"), outputs(base / "change")
        for name in sorted(files_a.keys() | files_b.keys()):
            if name not in files_a or name not in files_b:
                differ.append(f"{name}: only in {'change' if name in files_b else 'parent'}")
            elif files_a[name] != files_b[name]:
                keys = ""
                if name.endswith(".json"):
                    keys = " at " + ", ".join(json_diff(json.loads(files_a[name]),
                                                        json.loads(files_b[name])))
                differ.append(f"{name}: differs{keys}")
    codes = sorted({code for code, _ in parent + change})
    print(f"{len(sequence)} commands per tree (exit codes seen: {codes}), "
          f"{len(files_a)} output files compared")
    for line in differ:
        print("DIFFERS " + line)
    print("same outputs" if not differ else f"{len(differ)} difference(s)")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
