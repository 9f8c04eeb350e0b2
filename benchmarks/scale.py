#!/usr/bin/env python3
"""Each lexrag command's CPU, wall time and peak memory at two corpus sizes.

    python3 benchmarks/scale.py [--size {default,toy}] [--docs N[,N...]] [--tree TREE]
        [--out FILE] [--work DIR]

For each corpus size (``--docs``; 200 and 2,000 documents by default) a child
process generates a seeded Zipf corpus and its span queries with
``perfbench.gen.retrieval_corpus`` (seed 7, 4,000 tokens a document, 200 queries),
so this process never loads numpy. Then ``chunk`` (256/50), ``enrich``
(extractive), ``index`` over the enriched chunks and over the plain ones (dim 256),
``retrieve`` (top 4) from the enriched index, ``eval-retrieval`` over both indexes
(k 1-64, 10,000 bootstrap resamples) and ``compare`` each run three times, each
time as a fresh ``python -c`` process started by ``os.posix_spawn``
that imports TREE's ``lexrag.cli`` (this tree by default) and calls its ``main``.
``os.wait4`` gives the child's CPU time (user + system) and ``ru_maxrss``; the
child writes its own ``VmHWM`` as it exits.

One entry is appended to ``--out`` (a JSON list; ``BENCH_scale.json`` by
default). Per size and command it holds the median CPU and wall seconds, every
run's CPU seconds, the largest ``ru_maxrss`` and ``VmHWM`` in MiB, the items
the command reports and the bytes it wrote; per size, DRM and span recall at
k 1 and 4 of both variants; and the environment. CPU times of different
sessions differ widely with no code change, so compare entries of one session
only. The work directory (``.benchmarks/scale``) is emptied before each size
and removed after it. ``--size toy`` is a three-document run of a few seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import unicodedata
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
SIZES = {"default": {"docs": [200, 2000], "tokens": 4000, "queries": 200, "repeats": 3},
         "toy": {"docs": [3], "tokens": 300, "queries": 8, "repeats": 1}}
# perfbench's query workload settings
TARGET, OVERLAP, DIM, TOP, KS, ITERATIONS = 256, 50, 256, 4, "1,2,4,8,16,32,64", 10000
QUALITY_KS = ("1", "4")

# argv: perfbench dir, output dir, seed, docs, tokens per doc, queries; prints numpy's version
GENERATE = """
import sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import gen, numpy
gen.retrieval_corpus(Path(sys.argv[2]), *map(int, sys.argv[3:]))
print(numpy.__version__)
"""
# argv: VmHWM file, then the lexrag command; the file gets the kB the kernel reports
COMMAND = """
import sys
from lexrag.cli import main
code = main(sys.argv[2:])
try:
    with open("/proc/self/status") as status:
        hwm = next((line.split()[1] for line in status if line.startswith("VmHWM:")), "")
except OSError:
    hwm = ""
with open(sys.argv[1], "w") as out:
    out.write(hwm)
sys.exit(code)
"""


def spawn(argv: list[str], env: dict, log: Path) -> tuple[float, float, int]:
    """Run ``argv`` with stdout to ``log``: its wall and CPU seconds and ru_maxrss (KiB).
    A child that exits nonzero stops the run (its stderr is this process's)."""
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(log), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    if os.waitstatus_to_exitcode(status) != 0:
        raise SystemExit(f"the run writing {log.name} exited {os.waitstatus_to_exitcode(status)}")
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss


def commands(inputs: Path, out: Path) -> dict[str, list[str]]:
    corpus = ["--root", str(inputs / "corpus"), "--manifest", str(inputs / "manifest.json")]
    qa = ["--qa", str(inputs / "qa.json")]
    index = ["--embedder", "deterministic", "--dim", str(DIM)]
    ev = ["--k", KS, "--bootstrap-iterations", str(ITERATIONS), "--seed", "0"]
    return {
        "chunk": ["chunk", *corpus, "--target", str(TARGET), "--overlap", str(OVERLAP),
                  "--out", str(out / "chunk")],
        "enrich": ["enrich", *corpus, "--chunks", str(out / "chunk" / "chunks.jsonl"),
                   "--summarizer", "extractive", "--out", str(out / "enrich")],
        "index_enhanced": ["index", "--chunks", str(out / "enrich" / "enriched.jsonl"), *index,
                           "--out", str(out / "index_enhanced")],
        "index_baseline": ["index", "--chunks", str(out / "chunk" / "chunks.jsonl"), *index,
                           "--out", str(out / "index_baseline")],
        "retrieve": ["retrieve", "--index", str(out / "index_enhanced"), *qa,
                     "--top", str(TOP), "--out", str(out / "retrieve")],
        "eval_baseline": ["eval-retrieval", "--index", str(out / "index_baseline"), *qa, *ev,
                          "--variant", "baseline", "--out", str(out / "eval_baseline")],
        "eval_enhanced": ["eval-retrieval", "--index", str(out / "index_enhanced"), *qa, *ev,
                          "--variant", "enhanced", "--out", str(out / "eval_enhanced")],
        "compare": ["compare", "--baseline", str(out / "eval_baseline" / "metric_report.json"),
                    "--enhanced", str(out / "eval_enhanced" / "metric_report.json"),
                    "--bootstrap-iterations", str(ITERATIONS), "--seed", "0",
                    "--out", str(out / "compare")],
    }


def items(name: str, out_dir: Path, stdout: str) -> int:
    """What the command worked through: chunks, queries or comparisons."""
    if name.startswith("eval"):
        return len(json.loads((out_dir / "metric_report.json").read_text())["per_query"])
    if name == "compare":
        return json.loads((out_dir / "comparison.json").read_text())["m"]
    counts = json.loads(stdout.splitlines()[-1])
    return counts["queries" if name == "retrieve" else "chunks"]


def output_bytes(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.rglob("*")
               if p.is_file() and p.name != "run_manifest.json")


def measure(name: str, argv: list[str], repeats: int, env: dict, work: Path) -> dict:
    """``repeats`` fresh runs of one lexrag command, summarized."""
    log, hwm_file = work / f"{name}.stdout", work / f"{name}.vmhwm"
    walls, cpus, rss, hwm = [], [], [], []
    for _ in range(repeats):
        wall, cpu, maxrss = spawn([sys.executable, "-c", COMMAND, str(hwm_file), *argv], env, log)
        walls.append(wall)
        cpus.append(cpu)
        rss.append(maxrss)
        kb = hwm_file.read_text()
        hwm.append(int(kb) if kb else None)
    out_dir = Path(argv[-1])
    return {"cpu_s": round(statistics.median(cpus), 3), "cpu_s_runs": [round(c, 3) for c in cpus],
            "wall_s": round(statistics.median(walls), 3),
            "ru_maxrss_mib": round(max(rss) / 1024, 1),
            "vmhwm_mib": round(max(hwm) / 1024, 1) if None not in hwm else None,
            "items": items(name, out_dir, log.read_text(encoding="utf-8")),
            "output_bytes": output_bytes(out_dir)}


def quality(out: Path) -> dict:
    """DRM and span recall means at k 1 and 4, per variant."""
    result = {}
    for variant in ("baseline", "enhanced"):
        per_k = json.loads((out / f"eval_{variant}" / "metric_report.json").read_text())["per_k"]
        result[variant] = {f"{metric}@{k}": per_k[k][f"{metric}_mean"]
                           for metric in ("drm", "span_recall") for k in QUALITY_KS}
    return result


def run_size(docs: int, size: dict, env: dict, work: Path) -> tuple[dict, str]:
    """One corpus size: its entry and the numpy version the generator loaded."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs, out = work / "inputs", work / "out"
    log = work / "generate.stdout"
    wall, _, _ = spawn([sys.executable, "-c", GENERATE, str(ROOT / "perfbench"), str(inputs),
                        str(SEED), str(docs), str(size["tokens"]), str(size["queries"])],
                       env, log)
    numpy_version = log.read_text(encoding="utf-8").strip()
    measured = {}
    for name, argv in commands(inputs, out).items():
        measured[name] = measure(name, argv, size["repeats"], env, work)
        m = measured[name]
        print(f"{docs:>6} docs  {name:<15} cpu {m['cpu_s']:8.3f} s  wall {m['wall_s']:8.3f} s  "
              f"rss {m['ru_maxrss_mib']:7.1f} MiB  items {m['items']}", flush=True)
    entry = {"docs": docs, "generate_wall_s": round(wall, 3), "commands": measured,
             "quality": quality(out)}
    shutil.rmtree(work)
    return entry, numpy_version


def git_revision(tree: Path) -> str | None:
    """HEAD of ``tree``, with ``+dirty`` when its tracked files under ``src`` differ from it."""
    try:
        head = subprocess.run(["git", "-C", str(tree), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        dirty = subprocess.run(["git", "-C", str(tree), "status", "--porcelain",
                                "--untracked-files=no", "--", "src"],
                               capture_output=True, text=True)
    except OSError:
        return None
    if head.returncode != 0:
        return None
    return head.stdout.strip() + ("+dirty" if dirty.stdout.strip() else "")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", choices=sorted(SIZES), default="default")
    parser.add_argument("--docs", help="comma-separated corpus sizes, overriding --size's")
    parser.add_argument("--tree", type=Path, default=ROOT, help="lexrag source tree to run")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_scale.json")
    parser.add_argument("--work", type=Path, default=ROOT / ".benchmarks" / "scale")
    args = parser.parse_args(argv)
    size = SIZES[args.size]
    docs = [int(n) for n in args.docs.split(",")] if args.docs else size["docs"]
    tree = args.tree.resolve()
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}

    started = time.perf_counter()
    entry = {"revision": git_revision(tree),
             "date": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
             "settings": {"seed": SEED, "tokens_per_doc": size["tokens"],
                          "queries": size["queries"], "repeats": size["repeats"],
                          "target": TARGET, "overlap": OVERLAP, "dim": DIM, "top": TOP,
                          "ks": KS, "bootstrap_iterations": ITERATIONS},
             "sizes": []}
    numpy_version = None
    for n in docs:
        result, numpy_version = run_size(n, size, env, args.work)
        entry["sizes"].append(result)
    entry["environment"] = {
        "cores": os.cpu_count(), "python": platform.python_version(), "numpy": numpy_version,
        "unicode": unicodedata.unidata_version,
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        # unset means lexrag's own default of one thread
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}
    entry["wall_s"] = round(time.perf_counter() - started, 1)

    entries = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else []
    entries.append(entry)
    args.out.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    print(f"appended entry {len(entries)} to {args.out.name} in {entry['wall_s']} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
