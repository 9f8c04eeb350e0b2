"""What each lexrag command loads, and that wrappers set on ``lexrag.cli`` names fire.

``import lexrag.cli`` loads no numpy and no lexrag module but ``configs`` and
``textutils``: every other module is imported when a command first reads one of
its names from ``lexrag.cli``. Each load check runs its command in a fresh
process, since this one has loaded them all.
"""

import importlib
import json
import subprocess
import sys

import numpy as np
import pytest

from lexrag import cli
from tests.conftest import child_env, write_jsonl
from tests.synthcorpus import build_aus_corpus, build_legal_corpus

# every lexrag module that imports numpy when it loads
NUMPY_SIDE = {f"lexrag.{name}" for name in ("embedding", "index", "kernels", "retriever")}


def _fresh_process(code: str) -> list[str]:
    """The stdout lines of ``python -c code`` in a fresh process that imports this lexrag."""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=child_env())
    return out.stdout.splitlines()


def _run_in_fresh_process(argv: list[str]) -> set[str]:
    """Run one command through ``lexrag.cli.main`` in a fresh process; the modules
    loaded when it ends."""
    code = ("import sys, lexrag.cli; rc = lexrag.cli.main(%r); "
            "print(rc); print(' '.join(sorted(sys.modules)))" % (argv,))
    rc, modules = _fresh_process(code)[-2:]  # after the command's own output
    assert rc == "0"
    return set(modules.split())


def assert_no_numpy_random(loaded: set[str]) -> None:
    """Every draw is lexrag.stats' own stream, so no command loads numpy.random
    (12-20 ms of CPU to import on a 2-core VM). The commands that load numpy are
    checked through ``test_percentile_intervals_load_no_numpy_ma`` and
    ``test_array_commands_load_only_their_own_modules``; the others load no numpy
    at all. A numpy before 2.0 loads numpy.random with numpy itself."""
    if np.lib.NumpyVersion(np.__version__) >= "2.0.0":
        assert "numpy.random" not in loaded


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A legal corpus chunked, enriched and indexed, and an aus corpus with model outputs."""
    base = tmp_path_factory.mktemp("commands")
    root, manifest, qa, _ = build_legal_corpus(base, n_docs=3, seed=0)
    aus_root, aus_qa = build_aus_corpus(base / "aus", n_records=4, n_docs=2, seed=1)
    records = [json.loads(line) for line in aus_qa.read_text(encoding="utf-8").splitlines()]
    outputs = base / "outputs.jsonl"
    write_jsonl(outputs, [{"query_id": r["query_id"], "set_tag": "set1_correct_context",
                           "output": r["Answer"]} for r in records])
    other_outputs = base / "other_outputs.jsonl"
    write_jsonl(other_outputs, [{"query_id": r["query_id"], "set_tag": "set1_correct_context",
                                 "output": r["Question"]} for r in records])
    corpus = ["--root", str(root), "--manifest", str(manifest)]
    assert cli.main(["chunk", *corpus, "--out", str(base / "chunks")]) == 0
    chunks = base / "chunks" / "chunks.jsonl"
    assert cli.main(["index", "--chunks", str(chunks), "--out", str(base / "index")]) == 0
    assert cli.main(["enrich", *corpus, "--chunks", str(chunks), "--out", str(base / "enriched")]) == 0
    assert cli.main(["index", "--chunks", str(base / "enriched" / "enriched.jsonl"),
                     "--out", str(base / "index_enriched")]) == 0
    for variant, index in (("baseline", "index"), ("enhanced", "index_enriched")):
        assert cli.main(["eval-retrieval", "--index", str(base / index), "--qa", str(qa),
                         "--k", "1,4", "--bootstrap-iterations", "50", "--variant", variant,
                         "--out", str(base / f"eval_{variant}")]) == 0
    argvs = {
        "ingest": ["ingest", *corpus, "--qa", str(qa)],
        "chunk": ["chunk", *corpus],
        "enrich": ["enrich", *corpus, "--chunks", str(chunks)],
        "index": ["index", "--chunks", str(chunks)],
        "retrieve": ["retrieve", "--index", str(base / "index"), "--qa", str(qa)],
        "eval-retrieval": ["eval-retrieval", "--index", str(base / "index"), "--qa", str(qa),
                           "--k", "1,4", "--bootstrap-iterations", "50"],
        "align-spans": ["align-spans", "--root", str(aus_root), "--qa", str(aus_qa)],
        "dpo-build": ["dpo-build", "--qa", str(aus_qa), "--train", "4", "--validation", "0",
                      "--test", "0"],
        "eval-refusal": ["eval-refusal", "--outputs", str(outputs)],
        "eval-answers": ["eval-answers", "--outputs", str(outputs), "--qa", str(aus_qa),
                         "--format", "aus_legal_qa"],
        "compare": ["compare", "--bootstrap-iterations", "50",
                    "--baseline", str(base / "eval_baseline" / "metric_report.json"),
                    "--enhanced", str(base / "eval_enhanced" / "metric_report.json")],
    }
    argvs["report"] = ["report", "--report", str(base / "eval_baseline" / "metric_report.json")]
    argvs["eval-answers --compare-with"] = [*argvs["eval-answers"], "--bootstrap-iterations",
                                            "50", "--compare-with", str(other_outputs)]
    return base, argvs


def _argv(inputs, command: str, out: str) -> list[str]:
    base, argvs = inputs
    return [*argvs[command], "--out", str(base / out)]


def test_cli_import_loads_no_third_party_or_numpy_side_module():
    # Every lexrag command pays for what importing the CLI loads; numpy, every
    # lexrag module a command runs, scipy, thread pools and the HTTP stack
    # (urllib.request -> http.client, ssl) are imported by the code that uses them.
    code = ("import sys; before = set(sys.modules); import lexrag.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    new = set(_fresh_process(code)[-1].split())
    assert {m.split(".")[0] for m in new} - set(sys.stdlib_module_names) == {"lexrag"}
    assert {m for m in new if m.split(".")[0] == "lexrag"} == {
        "lexrag", "lexrag.cli", "lexrag.configs", "lexrag.textutils"}
    assert not new & {"concurrent.futures", "urllib.request", "http.client", "ssl"}


def test_schema_loads_only_the_stdlib():
    # every reader checks its records through lexrag.schema, so every command that
    # reads a file loads it; it must bring nothing else with it
    code = ("import sys; before = set(sys.modules); import lexrag.schema; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    new = set(_fresh_process(code)[-1].split())
    assert {m.split(".")[0] for m in new} - set(sys.stdlib_module_names) == {"lexrag"}
    assert {m for m in new if m.split(".")[0] == "lexrag"} == {"lexrag", "lexrag.schema"}


@pytest.mark.parametrize("command,not_loaded", [
    ("compare", {"index", "retriever", "embedding", "kernels", "chunker", "corpus", "enricher"}),
    ("ingest", {"chunker", "enricher"}),
    *((command, {"chunker", "enricher", "index"})
      for command in ("align-spans", "dpo-build", "eval-answers")),
    ("eval-refusal", {"chunker", "enricher", "index", "corpus"}),
])
def test_commands_skip_modules_they_do_not_run(inputs, command, not_loaded):
    loaded = _run_in_fresh_process(_argv(inputs, command, f"skipping_{command}"))
    assert not loaded & {f"lexrag.{name}" for name in not_loaded}


@pytest.mark.parametrize("command", ["ingest", "chunk", "enrich", "align-spans", "dpo-build",
                                     "eval-refusal", "eval-answers", "report"])
def test_text_commands_never_load_numpy(inputs, command):
    base = inputs[0]
    loaded = _run_in_fresh_process(_argv(inputs, command, f"fresh_{command}"))
    assert "numpy" not in loaded and not loaded & NUMPY_SIDE
    if command == "report":  # its --out is the table's file, and it writes no manifest
        assert "DRM (%)" in (base / "fresh_report").read_text()
        return
    manifest = json.loads((base / f"fresh_{command}" / "run_manifest.json").read_text())
    assert manifest["environment"]["numpy"] is None


@pytest.mark.parametrize("command,needed", [
    ("index", {"lexrag.embedding", "lexrag.index", "lexrag.kernels"}),
    ("retrieve", {"lexrag.embedding", "lexrag.index", "lexrag.kernels", "lexrag.retriever"}),
])
def test_array_commands_load_only_their_own_modules(inputs, command, needed):
    base = inputs[0]
    loaded = _run_in_fresh_process(_argv(inputs, command, f"fresh_{command}"))
    assert loaded & NUMPY_SIDE == needed
    assert "scipy" not in loaded
    assert_no_numpy_random(loaded)
    manifest = json.loads((base / f"fresh_{command}" / "run_manifest.json").read_text())
    assert manifest["environment"]["numpy"] == np.__version__


@pytest.mark.parametrize("command", ["compare", "eval-answers --compare-with"])
def test_comparisons_load_numpy_and_no_scipy(inputs, command):
    # the paired t-test's tail is stdlib arithmetic; numpy hashes the bootstrap's draws
    base = inputs[0]
    out = f"fresh_{command.replace(' --', '_')}"
    loaded = _run_in_fresh_process(_argv(inputs, command, out))
    assert "numpy" in loaded and "scipy" not in loaded
    if command == "compare":
        p_values = [c["p_value"] for c in
                    json.loads((base / out / "comparison.json").read_text())["comparisons"]]
        assert any(0.0 < p < 1.0 for p in p_values)  # the tail itself ran
    else:
        report = json.loads((base / out / "answer_report.json").read_text())
        assert "comparison" in report


@pytest.mark.parametrize("command", ["eval-retrieval", "compare", "eval-answers --compare-with"])
def test_percentile_intervals_load_no_numpy_ma(inputs, command):
    # np.percentile imports numpy.ma (~19 ms of CPU); stats.percentile_ci does not
    # call it, and nothing else on these commands' paths does either
    loaded = _run_in_fresh_process(_argv(inputs, command, f"no_ma_{command.replace(' --', '_')}"))
    assert "numpy" in loaded and "numpy.ma" not in loaded
    assert_no_numpy_random(loaded)


def test_command_that_loads_numpy_keeps_blas_to_one_thread(inputs):
    # the pin is set when lexrag.cli is imported and must still size the pool that
    # starts when `index` first loads numpy
    code = ("import os, sys, lexrag.cli; rc = lexrag.cli.main(%r); "
            "task = '/proc/self/task'; print(rc, 'numpy' in sys.modules); "
            "print(len(os.listdir(task)) if os.path.isdir(task) else 'no ' + task)"
            % (_argv(inputs, "index", "fresh_index_threads"),))
    ran, tasks = _fresh_process(code)[-2:]
    assert ran == "0 True"
    if tasks.startswith("no "):
        pytest.skip(f"{tasks[3:]} is absent; cannot count this process's threads")
    assert tasks == "1"


def test_python_m_runs_the_cli_module_once(inputs):
    # under -m the module runs as __main__; importing lexrag.cli as well would run
    # it a second time and leave it in sys.modules, read here at exit.
    # runpy._run_module_as_main is what `python -m` calls.
    code = ("import atexit, runpy, sys; "
            "atexit.register(lambda: print(' '.join(sorted(sys.modules)))); "
            "runpy._run_module_as_main('lexrag.cli')")
    out = subprocess.run([sys.executable, "-c", code, *_argv(inputs, "chunk", "fresh_chunk_m")],
                         capture_output=True, text=True, env=child_env())
    assert out.returncode == 0, out.stderr
    loaded = set(out.stdout.splitlines()[-1].split())
    assert "lexrag.chunker" in loaded
    assert "lexrag.cli" not in loaded and "numpy" not in loaded


@pytest.mark.parametrize("command", ["index", "retrieve"])
def test_commands_run_under_cprofile(inputs, tmp_path, command):
    # cProfile runs the module through runpy, in a namespace that is not the module
    # sys.modules["__main__"] names, so lazily loaded names must resolve through the
    # namespace the code runs in. cProfile drops the exit code: read stderr instead.
    base = inputs[0]
    out = subprocess.run([sys.executable, "-m", "cProfile", "-o", str(tmp_path / "profile"),
                          "-m", "lexrag.cli", *_argv(inputs, command, f"profiled_{command}")],
                         capture_output=True, text=True, env=child_env())
    assert out.returncode == 0 and out.stderr == "", out.stderr
    assert (base / f"profiled_{command}" / "run_manifest.json").exists()


@pytest.mark.parametrize("name,command", [
    ("reconstruct_dataset", "align-spans"),  # lexrag.aligner
    ("split_recursive", "chunk"),  # lexrag.chunker
    ("load_documents", "ingest"),  # lexrag.corpus
    ("enrich_document_chunks", "enrich"),  # lexrag.enricher
    ("term_rows", "index"),  # lexrag.embedding
    ("sweep", "eval-retrieval"),  # lexrag.evaluator
    ("load_indexes", "retrieve"),  # lexrag.index
    ("refusal_rates", "eval-refusal"),  # lexrag.preference
    ("dump_results", "retrieve"),  # lexrag.retriever
])
def test_wrapper_set_on_a_cli_name_is_what_the_command_calls(inputs, monkeypatch,
                                                             name, command):
    calls = []
    wrapped = getattr(cli, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return wrapped(*args, **kwargs)

    monkeypatch.setattr(cli, name, counting)
    assert cli.main(_argv(inputs, command, f"wrapped_{name}")) == 0
    assert calls


def test_lazy_names_resolve_to_their_modules_objects():
    for name, module in cli._LAZY.items():
        assert getattr(cli, name) is getattr(importlib.import_module(module), name), name
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        cli.no_such_name
