"""Check that two lexrag source trees write the same outputs for the same inputs.

    python3 tools/same_outputs.py PARENT_TREE [CHANGE_TREE]

CHANGE_TREE defaults to the tree this script sits in. The script generates
one set of inputs with ``tests/synthcorpus.py`` (a near-duplicate legal corpus
with a snippet-QA file, and an Aus-format corpus with model outputs), adds one
Greek decision to both corpora (capital and final sigmas, curly quotes, "§"),
so the tokenizer and the aligner also see non-ASCII text, a second copy of it
under a Greek file name to the legal corpus, so the index stores multi-byte doc
ids and chunk ids, and one Aus-format record whose reworded excerpt of it
aligns only by the fuzzy tier, then
runs one fixed sequence of ``lexrag`` commands per tree, each in a fresh
``python -m lexrag.cli`` process with that tree's ``src`` alone on
``PYTHONPATH``. It compares every file the commands wrote, except
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
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent

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


def make_inputs(base: Path) -> dict[str, Path]:
    sys.path.insert(0, str(HERE))
    from tests.synthcorpus import build_aus_corpus, build_legal_corpus

    root, manifest, qa, _ = build_legal_corpus(base / "legal", n_docs=6, seed=0)
    aus_root, aus_qa = build_aus_corpus(base / "aus", n_records=24, n_docs=6, seed=2)
    for cases in (root / "cases", aus_root / "courts.example.au" / "cases"):
        (cases / GREEK_DOC).write_text(GREEK_DECISION, encoding="utf-8")
    (root / "cases" / GREEK_NAMED_DOC).write_text(GREEK_DECISION, encoding="utf-8")
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
    # settings for one retrieve run; "index" resolves against the run directory, and the
    # required settings are repeated as flags, which argparse insists on
    config = {"index": "index", "qa": str(qa), "format": "snippet_qa", "top": 8, "alpha": 0.3}
    (base / "config.json").write_text(json.dumps(config), encoding="utf-8")
    return {"root": root, "manifest": manifest, "qa": qa, "aus_root": aus_root,
            "aus_qa": aus_qa, "good": base / "good.jsonl", "bad": base / "bad.jsonl",
            "config": base / "config.json"}


def commands(i: dict[str, Path]) -> list[list[str]]:
    """The command sequence; output paths are relative to the tree's run directory."""
    legal = ["--root", str(i["root"]), "--manifest", str(i["manifest"])]
    qa = ["--qa", str(i["qa"]), "--format", "snippet_qa"]
    sweep = ["--k", "1,2,4,8", "--seed", "0", "--bootstrap-iterations", "500"]
    return [
        ["ingest", *legal, *qa, "--out", "ingest"],
        ["chunk", *legal, "--target", "48", "--overlap", "10", "--out", "chunks"],
        ["enrich", *legal, "--chunks", "chunks/chunks.jsonl", "--summarizer", "extractive",
         "--out", "enriched"],
        ["index", "--chunks", "enriched/enriched.jsonl", "--dim", "128", "--out", "index"],
        ["retrieve", "--index", "index", *qa, "--top", "4", "--out", "retrieved"],
        ["eval-retrieval", "--index", "index", *qa, *sweep, "--out", "eval"],
        ["index", "--chunks", "chunks/chunks.jsonl", "--dim", "128", "--out", "index_baseline"],
        ["eval-retrieval", "--index", "index_baseline", *qa, *sweep, "--variant", "baseline",
         "--out", "eval_baseline"],
        ["compare", "--baseline", "eval_baseline/metric_report.json",
         "--enhanced", "eval/metric_report.json", "--seed", "0",
         "--bootstrap-iterations", "500", "--out", "compare"],
        ["retrieve", "--index", "index", *qa, "--top", "16", "--alpha", "0.5",
         "--out", "retrieved_top16"],
        ["retrieve", "--index", "index", *qa, "--pool", "10", "--out", "retrieved_pool10"],
        ["retrieve", "--config", str(i["config"]), "--index", "index", "--qa", str(i["qa"]),
         "--out", "retrieved_config"],
        ["report", "--report", "eval/metric_report.json", "--out", "report/metric_report.txt"],
        ["ingest", "--root", str(i["aus_root"]), "--qa", str(i["aus_qa"]),
         "--format", "aus_legal_qa", "--out", "ingest_aus"],
        ["align-spans", "--root", str(i["aus_root"]), "--qa", str(i["aus_qa"]),
         "--out", "aligned"],
        ["dpo-build", "--qa", str(i["aus_qa"]), "--train", "18", "--validation", "2",
         "--test", "4", "--seed", "5", "--out", "dpo"],
        ["dpo-build", "--qa", str(i["aus_qa"]), "--train", "18", "--validation", "2",
         "--test", "4", "--seed", "5", "--export-style", "conversation", "--out", "dpo_conv"],
        # a seed of three 32-bit words, so the seeding reads more than one entropy word
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


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 3):
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
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
