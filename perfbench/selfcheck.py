#!/usr/bin/env python3
"""Self-check of the benchmark at toy size.

    python3 perfbench/selfcheck.py

For every workload, untraced and traced, checks that the result line has
exactly the keys correct, attempted, failed and metrics, that every metric
BENCHMARK.json names is present with its unit and a direction, that the output checks report no
failed operation, that each traced command's per-layer self times sum to no
more than its wall time, and that a second traced run repeats every count,
size and quality figure exactly. It also runs the benchmark in a directory that
holds only BENCHMARK.json and perfbench/, where it must fail without a result.
Exits nonzero on the first violation.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIME_UNITS = {"s", "ms"}


def run(cwd: Path, workload: str, trace: int) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "toy"],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout.strip().splitlines()


def expect(ok: bool, what: str) -> None:
    if not ok:
        sys.exit(f"selfcheck FAILED: {what}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            rc, lines = run(ROOT, workload, trace)
            expect(rc == 0 and lines, f"{workload} trace={trace} exited {rc}")
            result = json.loads(lines[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{workload}: result keys {sorted(result)}")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{workload} trace={trace}: {result['failed']} of "
                   f"{result['attempted']} operations failed")
            declared = {m["name"]: m for m in spec[group]}
            expect(set(result["metrics"]) == set(declared),
                   f"{workload}: metrics differ from BENCHMARK.json {group}: "
                   f"{sorted(set(result['metrics']) ^ set(declared))}")
            for name, value in result["metrics"].items():
                expect(value["unit"] == declared[name]["unit"], f"{name}: unit {value['unit']}")
                expect(declared[name]["better"] in ("higher", "lower"), f"{name}: direction")
                expect(isinstance(value["value"], (int, float))
                       and math.isfinite(value["value"]), f"{name}: value {value['value']}")
            if trace:
                detail = next(json.loads(l)["detail"] for l in lines if l.startswith('{"detail"'))
                for command in detail["commands"]:
                    expect(command["self_sum_s"] <= command["main_traced_s"],
                           f"{workload} {command['command']}: self times exceed wall")
                rc, again = run(ROOT, workload, trace)
                expect(rc == 0, f"{workload}: second traced run exited {rc}")
                repeat = json.loads(again[-1])["metrics"]
                for name, value in result["metrics"].items():
                    expect(value["unit"] in TIME_UNITS or repeat[name] == value,
                           f"{workload} {name}: {value['value']} then {repeat[name]['value']}")
            print(f"selfcheck {workload} trace={trace}: ok "
                  f"({result['attempted']} operations, {len(result['metrics'])} metrics)")

    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    rc, lines = run(bare, spec["workloads"][0]["name"], 0)
    expect(rc != 0 and not any(l.startswith('{"correct"') for l in lines),
           f"benchmark without the program exited {rc} with {lines[-1:]}")
    shutil.rmtree(bare)
    print("selfcheck: bare directory fails as it should")
    return 0


if __name__ == "__main__":
    sys.exit(main())
