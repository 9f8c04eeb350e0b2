"""``benchmarks/scale.py`` at its toy size: the shape of the entry it appends, not its times."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = ["chunk", "enrich", "index_enhanced", "index_baseline", "retrieve",
            "eval_baseline", "eval_enhanced", "compare"]
# main() in a fresh process, which must end without having loaded numpy
RUN = ("import sys; sys.path.insert(0, sys.argv[1]); import scale; "
       "code = scale.main(sys.argv[2:]); sys.exit(3 if 'numpy' in sys.modules else code)")


def test_toy_run_appends_one_entry(tmp_path):
    out = tmp_path / "BENCH_scale.json"
    out.write_text(json.dumps([{"revision": "earlier"}]), encoding="utf-8")
    done = subprocess.run([sys.executable, "-c", RUN, str(ROOT / "benchmarks"), "--size", "toy",
                           "--out", str(out), "--work", str(tmp_path / "work")],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    earlier, entry = json.loads(out.read_text(encoding="utf-8"))
    assert earlier == {"revision": "earlier"}
    assert not (tmp_path / "work").exists()

    assert "revision" in entry and "date" in entry and entry["wall_s"] > 0
    assert set(entry["environment"]) == {"cores", "python", "numpy", "unicode",
                                         "PYTHONDONTWRITEBYTECODE", "OPENBLAS_NUM_THREADS"}
    assert entry["environment"]["numpy"]
    assert entry["settings"]["repeats"] == 1
    size, = entry["sizes"]
    assert size["docs"] == 3
    assert list(size["commands"]) == COMMANDS
    for name, measured in size["commands"].items():
        assert len(measured["cpu_s_runs"]) == 1, name
        assert measured["cpu_s"] == measured["cpu_s_runs"][0] >= 0, name
        assert measured["wall_s"] > 0 and measured["ru_maxrss_mib"] > 0, name
        assert measured["vmhwm_mib"] is None or measured["vmhwm_mib"] > 0, name
        assert measured["items"] > 0 and measured["output_bytes"] > 0, name
    chunks = size["commands"]["chunk"]["items"]
    assert [size["commands"][n]["items"] for n in COMMANDS[1:4]] == [chunks] * 3
    assert size["commands"]["retrieve"]["items"] == entry["settings"]["queries"]
    for variant in ("baseline", "enhanced"):
        figures = size["quality"][variant]
        assert set(figures) == {"drm@1", "drm@4", "span_recall@1", "span_recall@4"}
        assert 0 <= figures["drm@1"] <= 1 and 0 <= figures["drm@4"] <= 1
        assert figures["span_recall@1"] >= 0 and figures["span_recall@4"] >= 0
