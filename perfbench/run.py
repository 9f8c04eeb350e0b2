#!/usr/bin/env python3
"""Pipeline benchmark for lexrag: each command timed end to end, each layer traced.

    python3 perfbench/run.py --workload {build,query,align,all} --seed N \
        --seconds S --trace {0,1} [--size {full,toy}]

Run it from the root of a lexrag source tree; it imports lexrag from ./src and
writes only under ./.perfbench_work. A closed loop with one client: this
process starts one lexrag command at a time as a fresh subprocess
(``launch.py``) and waits for it.

``--trace 0`` sets up several times (the median CPU time is ``setup_s``), then
repeats the workload's command sequence until ``--seconds`` have passed and
reports the end-to-end metrics as medians over the repeats. ``--trace 1`` runs every
command of the workload, set-up commands included, once untraced and once
traced with wrappers around lexrag's public functions, checks that both wrote
identical bytes, and reports the per-layer metrics and the tracing overhead.
Both modes check the outputs; each command run and each checked item counts as
one operation. The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import layers
from workloads import SIZES, WORKLOADS, Ops, output_bytes

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
DEADLINE_S = 170.0  # a run must end within 180 s; commands still running then are killed

# Times are CPU seconds (user + system) of the lexrag processes: on a shared host,
# wall time also counts the time other tenants hold the CPU. Wall figures are
# printed alongside but are not part of the result.
END_TO_END = [  # (metric, unit)
    ("setup_s", "s"), ("cpu_s", "s"), ("cold_start_s", "s"), ("peak_rss_mb", "MB"),
    ("items_per_cpu_s", "1/s"),
]
# the work items_per_cpu_s counts on each workload, and its wall-time form
ITEMS = {"build": ("build_chunks_per_s", "chunks/s"), "query": ("retrieve_qps", "queries/s"),
         "align": ("align_records_per_s", "records/s")}


@dataclass
class Launch:
    """One child process: wall and CPU seconds, peak RSS, and the record it wrote."""

    wall: float
    cpu: float
    rss_mb: float
    record: dict


class Bench:
    def __init__(self, root: Path, workload, seed: int, size: dict, started: float):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.size = size
        self.deadline = started + DEADLINE_S
        self.work = root / ".perfbench_work" / workload.name
        self.inputs = self.work / "inputs"
        self.ops = Ops()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.launches = 0
        self.environment: dict = {}
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)

    def launch(self, commands: list[list[str]], trace: bool = False,
               environment: bool = False) -> Launch:
        """Run commands in one fresh child process and wait for it."""
        self.launches += 1
        tag = f"{self.launches:04d}"
        job, record_path = self.work / f"job{tag}.json", self.work / f"record{tag}.json"
        job.write_text(json.dumps({"commands": commands, "trace": trace,
                                   "environment": environment, "record": str(record_path)}),
                       encoding="utf-8")
        log = self.work / f"log{tag}.txt"
        with open(log, "wb") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, str(HERE / "launch.py"), str(job)],
                                    stdout=fh, stderr=subprocess.STDOUT, cwd=self.root,
                                    env=self.env)
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.perf_counter() > self.deadline:
                    proc.kill()
                time.sleep(0.002)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        record = (json.loads(record_path.read_text(encoding="utf-8"))
                  if record_path.is_file() else {"commands": []})
        ran = {tuple(c["argv"]): c["rc"] for c in record["commands"]}
        for argv in commands:
            self.ops.check(ran.get(tuple(argv)) == 0,
                           f"lexrag {argv[0]} exited {ran.get(tuple(argv))}: "
                           + log.read_text(errors="replace")[-400:])
        return Launch(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, record)

    def warm_up(self) -> None:
        """Compile bytecode and fill the page cache; record the environment."""
        self.environment = self.launch([], environment=True).record.get("environment", {})

    def generate(self):
        shutil.rmtree(self.inputs, ignore_errors=True)
        self.inputs.mkdir(parents=True)
        return self.workload.generate(self.inputs, self.seed, self.size)

    # -- untraced: end-to-end metrics -------------------------------------------------

    def measure(self, seconds: float) -> tuple[dict, dict]:
        self.warm_up()
        out = self.work / "out"
        setup_cpu, setup_wall = [], []
        for _ in range(SETUP_REPEATS):
            wall, cpu = time.perf_counter(), time.process_time()
            shutil.rmtree(out, ignore_errors=True)
            info = self.generate()
            setup = self.workload.setup(info, out)
            children = self.launch(setup).cpu if setup else 0.0
            setup_cpu.append(time.process_time() - cpu + children)
            setup_wall.append(time.perf_counter() - wall)

        commands = self.workload.timed(info, out)
        out_dirs = [Path(argv[argv.index("--out") + 1]) for argv in commands]
        reps: list[list[Launch]] = []
        start = time.perf_counter()
        while not reps or (time.perf_counter() - start < seconds
                           and time.perf_counter() < self.deadline - 60):
            for d in out_dirs:
                shutil.rmtree(d, ignore_errors=True)
            reps.append([self.launch([argv]) for argv in commands])

        report = self.workload.check(info, out, self.ops)
        items = self.workload.items(info, out)

        def total(field: str, names=None) -> float:
            """Sum over the selected commands of each command's median over repeats."""
            return sum(statistics.median(getattr(rep[i], field) for rep in reps)
                       for i, argv in enumerate(commands) if names is None or argv[0] in names)

        launches = [l for rep in reps for l in rep]
        metrics = {
            "setup_s": statistics.median(setup_cpu),
            "cpu_s": total("cpu"),
            "cold_start_s": statistics.median(l.record.get("import_cpu_s", 0.0) for l in launches),
            "peak_rss_mb": statistics.median(max(l.rss_mb for l in rep) for rep in reps),
            "items_per_cpu_s": items / total("cpu", self.workload.core),
        }
        alias, unit = ITEMS[self.workload.name]
        report.update({
            "setup_wall_s": (statistics.median(setup_wall), "s"),
            "wall_s": (total("wall"), "s"),
            "cold_start_wall_s": (statistics.median(l.record.get("import_s", 0.0)
                                                    for l in launches), "s"),
            alias: (items / total("wall", self.workload.core), unit),
            "output_mb": (output_bytes(out_dirs) / 2**20, "MB"),
            "repeats": (len(reps), "count"),
        })
        if self.workload.name == "query":
            report["experiment_s"] = (total("wall", {"eval-retrieval", "compare"}), "s")
        detail = {"commands": [{"command": argv[0], "wall_s": [rep[i].wall for rep in reps],
                                "cpu_s": [rep[i].cpu for rep in reps]}
                               for i, argv in enumerate(commands)],
                  "report": report}
        return metrics, detail

    # -- traced: per-layer metrics ----------------------------------------------------

    def trace(self) -> tuple[dict, dict]:
        self.warm_up()
        info = self.generate()
        bases = {"untraced": self.work / "untraced", "traced": self.work / "traced"}
        plans = {mode: self.workload.setup(info, base) + self.workload.timed(info, base)
                 for mode, base in bases.items()}
        runs = []
        for plain, traced in zip(plans["untraced"], plans["traced"]):
            u, t = self.launch([plain]), self.launch([traced], trace=True)
            spans = t.record.get("spans") or [[f"cli.{traced[0]}", -1, 0.0, 0.0, None, 0.0, None]]
            runs.append(layers.CommandTrace(traced, _main_s(u), _main_s(t), spans))

        untraced = {p.relative_to(bases["untraced"]): p
                    for p in sorted(bases["untraced"].rglob("*"))
                    if p.is_file() and p.name != "run_manifest.json"}
        for rel, path in untraced.items():
            other = bases["traced"] / rel
            self.ops.check(other.is_file() and other.read_bytes() == path.read_bytes(),
                           f"traced output {rel} differs from untraced")
        for run in runs:
            self.ops.check(all(t >= -1e-6 for t in run.self_times())
                           and sum(run.self_times()) <= run.main_traced,
                           f"{run.command}: self times negative or above the command wall")

        quality = self.workload.check(info, bases["untraced"], self.ops)
        metrics = layers.per_layer(runs, getattr(info, "queries", 0),
                                   self.workload.tiers(info), quality)
        detail = {"commands": [{"command": r.command, "main_untraced_s": r.main_untraced,
                                "main_traced_s": r.main_traced,
                                "self_sum_s": sum(r.self_times())} for r in runs]}
        return metrics, detail


def _main_s(launched: Launch) -> float:
    """In-process time of a launch's single command, without interpreter start and import."""
    return sum(c["main_s"] for c in launched.record["commands"])


def git_commit(root: Path) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def run_workload(root: Path, name: str, args, started: float) -> dict:
    bench = Bench(root, WORKLOADS[name], args.seed, SIZES[args.size], started)
    if args.trace:
        values, detail = bench.trace()
        units = dict(layers.METRICS)
    else:
        values, detail = bench.measure(args.seconds)
        units = dict(END_TO_END)
    environment = {"workload": name, "seed": args.seed, "size": args.size,
                   "cores": os.cpu_count(), "usable_cores": len(os.sched_getaffinity(0)),
                   "git_commit": git_commit(root), **bench.environment}
    print(json.dumps({"environment": environment}, sort_keys=True))
    print(json.dumps({"detail": detail}, sort_keys=True))
    for metric, unit in units.items():
        print(f"{name:6s} {metric:44s} {values[metric]:14.6g} {unit}")
    for metric, (value, unit) in detail.get("report", {}).items():
        print(f"{name:6s} {metric:44s} {value:14.6g} {unit}")
    for failure in bench.ops.failures[:10]:
        print(f"FAILED: {failure}", file=sys.stderr)
    return {
        "correct": bench.ops.failed == 0,
        "attempted": bench.ops.attempted,
        "failed": bench.ops.failed,
        "metrics": {m: {"value": values[m], "unit": u} for m, u in units.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=list(SIZES), default="full")
    args = parser.parse_args()
    started = time.perf_counter()

    root = Path.cwd()
    if not (root / "src" / "lexrag" / "cli.py").is_file():
        print("perfbench: run from the root of a lexrag source tree (no src/lexrag/cli.py here)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))  # the output checks call lexrag directly
    if args.workload != "all":
        print(json.dumps(run_workload(root, args.workload, args, started)))
        return 0
    results = {name: run_workload(root, name, args, time.perf_counter()) for name in WORKLOADS}
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
