"""The committed output digest (``tools/golden_outputs.json``) against this tree's run."""

import subprocess
import sys
from pathlib import Path

from tools.same_outputs import digest_differences

ROOT = Path(__file__).resolve().parents[1]


def test_outputs_match_the_committed_digest():
    # every command of tools/same_outputs.py, one fresh process each; an output that
    # changes on purpose is rewritten with `tools/same_outputs.py --write`
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "same_outputs.py"), "--check"],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "same outputs"


def test_digest_differences_name_each_command_and_file():
    recorded = {"commands": {"index --out index": {"exit": 0, "stdout_sha256": "a"},
                             "dpo-build --out dpo": {"exit": 0, "stdout_sha256": "b"},
                             "report --out report": {"exit": 0, "stdout_sha256": "c"}},
                "files": {"index/index.npz": "d", "dpo/train.jsonl": "e", "gone.json": "f"}}
    current = {"commands": {"index --out index": {"exit": 0, "stdout_sha256": "a"},
                            "dpo-build --out dpo": {"exit": 1, "stdout_sha256": "x"},
                            "report --out report": {"exit": 0, "stdout_sha256": "y"}},
               "files": {"index/index.npz": "d", "dpo/train.jsonl": "z", "new.json": "g"}}
    assert digest_differences(recorded, current) == [
        "lexrag dpo-build --out dpo: exit 0 -> 1, stdout differs",
        "lexrag report --out report: exit 0 -> 0, stdout differs",
        "dpo/train.jsonl: differs",
        "gone.json: only in the digest",
        "new.json: only in this run",
    ]
    assert digest_differences(recorded, recorded) == []
