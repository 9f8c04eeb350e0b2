import hashlib
import json
import math
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lexrag import preference, stats
from lexrag.chunker import dump_chunks, load_chunks
from lexrag.cli import COMMANDS, main
from lexrag.index import INDEX_FORMAT_VERSION, sha256_file
from lexrag.preference import REFUSAL_STRING
from tests.conftest import child_env, write_jsonl
from tests.synthcorpus import build_aus_corpus, build_legal_corpus


def run(args: list[str]) -> int:
    return main(args)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    base = tmp_path_factory.mktemp("pipeline")
    root, manifest, qa_path, doc_ids = build_legal_corpus(base, n_docs=8, seed=0)
    return {"base": base, "root": root, "manifest": manifest, "qa": qa_path,
            "doc_ids": doc_ids}


@pytest.fixture(scope="module")
def built_pipeline(workspace):
    """chunk -> enrich -> index (baseline and enhanced), shared by later tests."""
    base = workspace["base"]
    chunks_dir = base / "chunks"
    enrich_dir = base / "enriched"
    index_base = base / "index_baseline"
    index_enh = base / "index_enhanced"

    assert run(["chunk", "--root", str(workspace["root"]),
                "--manifest", str(workspace["manifest"]),
                "--target", "48", "--overlap", "10",
                "--out", str(chunks_dir)]) == 0
    assert run(["enrich", "--root", str(workspace["root"]),
                "--manifest", str(workspace["manifest"]),
                "--chunks", str(chunks_dir / "chunks.jsonl"),
                "--summarizer", "extractive",
                "--out", str(enrich_dir)]) == 0
    assert run(["index", "--chunks", str(chunks_dir / "chunks.jsonl"),
                "--embedder", "deterministic", "--dim", "128",
                "--out", str(index_base)]) == 0
    assert run(["index", "--chunks", str(enrich_dir / "enriched.jsonl"),
                "--embedder", "deterministic", "--dim", "128",
                "--out", str(index_enh)]) == 0
    return {"chunks": chunks_dir, "enriched": enrich_dir,
            "index_baseline": index_base, "index_enhanced": index_enh, **workspace}


def test_ingest_reports_counts(workspace, capsys):
    out_dir = workspace["base"] / "ingest"
    code = run(["ingest", "--root", str(workspace["root"]),
                "--manifest", str(workspace["manifest"]),
                "--qa", str(workspace["qa"]), "--format", "snippet_qa",
                "--out", str(out_dir)])
    assert code == 0
    report = json.loads((out_dir / "ingest_report.json").read_text())
    assert report["documents"] == 8
    assert report["qa"]["records"] == 16
    assert report["qa"]["gold_spans"] == 32
    assert report["validation"]["errors"] == 0
    assert (out_dir / "run_manifest.json").exists()


def test_chunk_and_enrich_outputs(built_pipeline):
    chunks = (built_pipeline["chunks"] / "chunks.jsonl").read_text().splitlines()
    enriched = (built_pipeline["enriched"] / "enriched.jsonl").read_text().splitlines()
    assert len(chunks) == len(enriched) > 8
    first = json.loads(enriched[0])
    assert "full_text" in first and "header_text" in first
    assert first["metadata_fraction"] <= 0.25
    # enrich windows a document's chunks by list position; in a file `chunk`
    # writes, that position is each chunk's ordinal
    ordinals: dict[str, list[int]] = {}
    for row in map(json.loads, chunks):
        ordinals.setdefault(row["doc_id"], []).append(row["ordinal"])
    assert all(o == list(range(len(o))) for o in ordinals.values())


def test_index_directory_self_contained(built_pipeline):
    index_dir = built_pipeline["index_baseline"]
    meta = json.loads((index_dir / "index_meta.json").read_text())
    assert meta["embedder_backend"] == "deterministic-test"
    assert meta["format_version"] == 7
    assert sorted(meta) == ["embedder_backend", "format_version", "sha256"]
    assert sorted(meta["sha256"]) == ["chunks.jsonl", "index.npz"]
    with np.load(index_dir / "index.npz") as data:
        assert data["vectors"].shape[1] == 128
    assert sorted(path.name for path in index_dir.iterdir()) == [
        "chunks.jsonl", "index.npz", "index_meta.json", "run_manifest.json"]


def test_retrieve_emits_results_and_contexts(built_pipeline):
    out_dir = built_pipeline["base"] / "retrieve"
    code = run(["retrieve", "--index", str(built_pipeline["index_enhanced"]),
                "--qa", str(built_pipeline["qa"]), "--format", "snippet_qa",
                "--top", "4", "--out", str(out_dir)])
    assert code == 0
    results = [json.loads(l) for l in (out_dir / "results.jsonl").read_text().splitlines()]
    contexts = [json.loads(l) for l in (out_dir / "contexts.jsonl").read_text().splitlines()]
    assert len(results) == len(contexts) == 16
    for ctx in contexts:
        assert ctx["n_used"] == 4
        assert not ctx["short_context"]
        assert ctx["context"].count("[cases/") == 4  # doc_id prefixes
    for res in results:
        assert len(res["ranked"][0]) == 4  # chunk_id + three score components


@pytest.mark.parametrize("top", ["0", "-1"])
def test_retrieve_top_below_one_rejected(built_pipeline, tmp_path, capsys, top):
    out_dir = tmp_path / "out"
    code = run(["retrieve", "--index", str(built_pipeline["index_baseline"]),
                "--qa", str(built_pipeline["qa"]), "--format", "snippet_qa",
                "--top", top, "--k", "4", "--out", str(out_dir)])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err == {"error": "ValueError", "message": f"top must be >= 1, not {top}"}
    assert not any(out_dir.glob("*"))


@pytest.mark.parametrize("k", ["0", "-3"])
def test_retrieve_k_below_one_rejected(built_pipeline, tmp_path, capsys, k):
    # the fusion depth is max(k, top), so a k below 1 once ranked `top` chunks
    # while the run manifest recorded the k given
    out_dir = tmp_path / "out"
    code = run(["retrieve", "--index", str(built_pipeline["index_baseline"]),
                "--qa", str(built_pipeline["qa"]), "--format", "snippet_qa",
                "--top", "4", "--k", k, "--out", str(out_dir)])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err == {"error": "ValueError", "message": f"k must be >= 1, not {k}"}
    assert not any(out_dir.glob("*"))


@pytest.mark.parametrize("command,workers", [("enrich", "0"), ("enrich", "-2"), ("index", "0")])
def test_workers_below_one_rejected(built_pipeline, tmp_path, capsys, command, workers):
    # both commands once ran one worker without saying so, and recorded the 0
    chunks = str(built_pipeline["chunks"] / "chunks.jsonl")
    args = (["enrich", "--root", str(built_pipeline["root"]),
             "--manifest", str(built_pipeline["manifest"]), "--chunks", chunks]
            if command == "enrich" else ["index", "--chunks", chunks, "--dim", "32"])
    out_dir = tmp_path / "out"
    assert run([*args, "--workers", workers, "--out", str(out_dir)]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err == {"error": "ValueError", "message": f"workers must be >= 1, not {workers}"}
    assert not any(out_dir.glob("*"))


@pytest.mark.parametrize("command", ["eval-retrieval", "compare"])
def test_zero_bootstrap_iterations_rejected(built_pipeline, tmp_path, capsys, command):
    search = ["--index", str(built_pipeline["index_baseline"]), "--qa", str(built_pipeline["qa"]),
              "--k", "1,2"]
    report = tmp_path / "eval" / "metric_report.json"
    assert run(["eval-retrieval", *search, "--bootstrap-iterations", "20",
                "--out", str(report.parent)]) == 0
    args = search if command == "eval-retrieval" else ["--baseline", str(report),
                                                       "--enhanced", str(report)]
    code = run([command, *args, "--bootstrap-iterations", "0", "--out", str(tmp_path / "out")])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ValueError"
    assert "bootstrap iterations must be >= 1" in err["message"]


def test_retrieve_short_context_flag(built_pipeline):
    out_dir = built_pipeline["base"] / "retrieve_short"
    code = run(["retrieve", "--index", str(built_pipeline["index_baseline"]),
                "--qa", str(built_pipeline["qa"]), "--format", "snippet_qa",
                "--top", "500", "--out", str(out_dir)])
    assert code == 0
    contexts = [json.loads(l) for l in (out_dir / "contexts.jsonl").read_text().splitlines()]
    assert all(c["short_context"] for c in contexts)


def test_eval_retrieval_and_compare_and_report(built_pipeline, capsys):
    base = built_pipeline["base"]
    for variant, index_dir in (("baseline", built_pipeline["index_baseline"]),
                               ("enhanced", built_pipeline["index_enhanced"])):
        code = run(["eval-retrieval", "--index", str(index_dir),
                    "--qa", str(built_pipeline["qa"]), "--format", "snippet_qa",
                    "--k", "1,2,4,8", "--variant", variant,
                    "--dataset-name", "synthetic",
                    "--bootstrap-iterations", "300",
                    "--out", str(base / f"eval_{variant}")])
        assert code == 0
        report = json.loads((base / f"eval_{variant}" / "metric_report.json").read_text())
        assert set(report) == {"dataset", "variant", "ks", "per_k", "per_query", "excluded",
                               "bootstrap_iterations", "bootstrap_seed"}
        assert set(report["per_k"]) == {"1", "2", "4", "8"}
        assert report["variant"] == variant

    code = run(["compare",
                "--baseline", str(base / "eval_baseline" / "metric_report.json"),
                "--enhanced", str(base / "eval_enhanced" / "metric_report.json"),
                "--bootstrap-iterations", "300",
                "--out", str(base / "cmp")])
    assert code == 0
    comparison = json.loads((base / "cmp" / "comparison.json").read_text())
    assert comparison["m"] == 8  # 2 metrics x 4 ks
    for entry in comparison["comparisons"]:
        assert entry["p_adjusted"] >= entry["p_value"]
    assert (base / "cmp" / "comparison.txt").read_text().strip()

    code = run(["report", "--report",
               str(base / "eval_baseline" / "metric_report.json"),
               "--out", str(base / "table.txt")])
    assert code == 0
    table = (base / "table.txt").read_text()
    assert "DRM (%)" in table and "k=8" in table


class _CreatesFileWhenUnpickled:
    def __init__(self, path: Path):
        self.path = str(path)

    def __reduce__(self):
        return (open, (self.path, "w"))


def _retrieve_from(index_dir: Path, built_pipeline, out: Path) -> int:
    return run(["retrieve", "--index", str(index_dir), "--qa", str(built_pipeline["qa"]),
                "--format", "snippet_qa", "--out", str(out)])


def test_tampered_index_with_pickled_payload_rejected_without_running_it(
        built_pipeline, tmp_path, capsys):
    index_dir = tmp_path / "index"
    shutil.copytree(built_pipeline["index_enhanced"], index_dir)
    sentinel = tmp_path / "sentinel"
    index_path = index_dir / "index.npz"
    payload = np.array([_CreatesFileWhenUnpickled(sentinel)], dtype=object)
    with np.load(index_path) as data:
        names = data.files
    np.savez(index_path, **{name: payload for name in names})
    meta_path = index_dir / "index_meta.json"
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    meta["sha256"]["index.npz"] = sha256_file(index_path)
    meta_path.write_text(json.dumps(meta), encoding="utf-8")

    assert _retrieve_from(index_dir, built_pipeline, tmp_path / "out") == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ValueError"
    assert not sentinel.exists()
    # the payload is live: a loader that unpickles would have run it
    with np.load(index_path, allow_pickle=True) as data:
        data[names[0]]
    assert sentinel.exists()


@pytest.mark.parametrize("path", ["../outside_chunks.jsonl", "sub/chunks.jsonl", "..", ".", "",
                                  "ABSOLUTE"])
def test_index_file_path_outside_the_directory_rejected(built_pipeline, tmp_path, capsys, path):
    """The loader reads only the fixed file names inside the index directory: a header
    entry (as format v5 wrote) pointing elsewhere, at a file that exists and matches
    the recorded sha256, is never followed."""
    index_dir = tmp_path / "index"
    shutil.copytree(built_pipeline["index_enhanced"], index_dir)
    outside = tmp_path / "outside_chunks.jsonl"
    shutil.move(index_dir / "chunks.jsonl", outside)
    (index_dir / "sub").mkdir()
    shutil.copy(outside, index_dir / "sub" / "chunks.jsonl")
    meta_path = index_dir / "index_meta.json"
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    meta["files"] = {"chunks": {"path": str(outside) if path == "ABSOLUTE" else path,
                                "sha256": meta["sha256"]["chunks.jsonl"]}}
    meta_path.write_text(json.dumps(meta), encoding="utf-8")

    assert _retrieve_from(index_dir, built_pipeline, tmp_path / "out") == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ValueError"
    assert str(index_dir / "chunks.jsonl") in err["message"]
    assert err["message"].endswith("rebuild with `lexrag index`")
    assert not (tmp_path / "out" / "contexts.jsonl").exists()


@pytest.mark.parametrize("name", ["index_meta.json", "index.npz", "chunks.jsonl"])
def test_index_missing_a_file_asks_for_rebuild(built_pipeline, tmp_path, capsys, name):
    index_dir = tmp_path / "index"
    shutil.copytree(built_pipeline["index_enhanced"], index_dir)
    (index_dir / name).unlink()
    assert _retrieve_from(index_dir, built_pipeline, tmp_path / "out") == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ValueError"
    assert err["message"] == f"{index_dir / name}: file is missing; rebuild with `lexrag index`"
    assert not (tmp_path / "out" / "contexts.jsonl").exists()


def test_version_1_index_asks_for_rebuild(built_pipeline, tmp_path, capsys):
    index_dir = tmp_path / "index"
    shutil.copytree(built_pipeline["index_enhanced"], index_dir)
    meta_path = index_dir / "index_meta.json"
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    meta["format_version"] = 1
    meta_path.write_text(json.dumps(meta), encoding="utf-8")

    assert _retrieve_from(index_dir, built_pipeline, tmp_path / "out") == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ValueError"
    assert "version 1" in err["message"] and "rebuild with `lexrag index`" in err["message"]


def test_version_3_index_asks_for_rebuild(built_pipeline, tmp_path, capsys):
    index_dir = tmp_path / "index"
    shutil.copytree(built_pipeline["index_enhanced"], index_dir)
    meta_path = index_dir / "index_meta.json"
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    meta["format_version"] = 3
    meta_path.write_text(json.dumps(meta), encoding="utf-8")

    assert _retrieve_from(index_dir, built_pipeline, tmp_path / "out") == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert "version 3" in err["message"] and "rebuild with `lexrag index`" in err["message"]


def _earlier_header(version: int, meta: dict) -> dict:
    """The index_meta.json a format v4 (sparse.npz and dense.npz) or v5 (index.npz)
    directory holds: counts in the header, and a path and sha256 per file."""
    names = {4: ("sparse", "dense"), 5: ("index",)}[version]
    return {"format_version": version, "n_chunks": 3, "dim": 128,
            "embedder_backend": meta["embedder_backend"],
            "files": {name: {"path": f"{name}.npz", "sha256": "0" * 64} for name in names}
            | {"chunks": {"path": "chunks.jsonl", "sha256": meta["sha256"]["chunks.jsonl"]}}}


def _assert_earlier_version_refused(built_pipeline, tmp_path, capsys, version: int) -> None:
    index_dir = tmp_path / "index"
    shutil.copytree(built_pipeline["index_enhanced"], index_dir)
    meta_path = index_dir / "index_meta.json"
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    meta_path.write_text(json.dumps(_earlier_header(version, meta)), encoding="utf-8")

    assert _retrieve_from(index_dir, built_pipeline, tmp_path / "out") == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ValueError"
    assert f"version {version}" in err["message"]
    assert "rebuild with `lexrag index`" in err["message"]


def test_version_4_index_asks_for_rebuild(built_pipeline, tmp_path, capsys):
    """A v4 directory (sparse.npz and dense.npz) is refused by its header."""
    _assert_earlier_version_refused(built_pipeline, tmp_path, capsys, 4)


def test_version_5_index_asks_for_rebuild(built_pipeline, tmp_path, capsys):
    """A v5 directory (file paths and counts in its header) is refused by its header."""
    _assert_earlier_version_refused(built_pipeline, tmp_path, capsys, 5)


def test_version_6_index_asks_for_rebuild(built_pipeline, tmp_path, capsys):
    """A v6 directory (BM25's k1 and b stored as index.npz's ``params``, a header
    otherwise like v7's) is refused by its header."""
    index_dir = tmp_path / "index"
    shutil.copytree(built_pipeline["index_enhanced"], index_dir)
    path = index_dir / "index.npz"
    with np.load(path) as data:
        arrays = {key: data[key] for key in data.files}
    np.savez(path, **arrays, params=np.array([1.2, 0.75]))
    meta_path = index_dir / "index_meta.json"
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    meta["format_version"] = 6
    meta["sha256"]["index.npz"] = sha256_file(path)
    meta_path.write_text(json.dumps(meta), encoding="utf-8")

    assert _retrieve_from(index_dir, built_pipeline, tmp_path / "out") == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err == {"error": "ValueError", "message":
                   "unsupported index format version 6 (this lexrag reads version 7); "
                   "rebuild with `lexrag index`"}
    assert not (tmp_path / "out" / "contexts.jsonl").exists()


def _set(name: str, index, value, dtype=None):
    """An edit that sets ``arrays[name][index] = value``, first widened to ``dtype``."""
    def edit(arrays, meta):
        values = arrays[name].astype(dtype or arrays[name].dtype)
        values[index] = value
        arrays[name] = values
    return edit


def _swap_rising_offsets(arrays, meta):
    offsets = arrays["offsets"].copy()
    i = int(np.flatnonzero(offsets[1:] > offsets[:-1])[0])
    offsets[i], offsets[i + 1] = offsets[i + 1], offsets[i]
    arrays["offsets"] = offsets


def _ref_past_the_last_row(arrays, meta):
    n = arrays["vectors"].shape[0]
    _set("refs", 0, n, np.min_scalar_type(n))(arrays, meta)


def _drop_last_row(arrays, meta):
    arrays["vectors"] = arrays["vectors"][:-1]


def _repeat_first_chunk_id(arrays, meta):
    ids = arrays["chunk_ids"].tobytes().split(b"\0")
    ids[1] = ids[0]
    arrays["chunk_ids"] = np.frombuffer(b"\0".join(ids), dtype=np.uint8)


def _as(name: str, dtype):
    def edit(arrays, meta):
        arrays[name] = arrays[name].astype(dtype)
    return edit


def _remote_with_inf(arrays, meta):
    meta["embedder_backend"] = "remote"
    _set("vectors", (0, 0), np.inf, np.float64)(arrays, meta)


def _avg_len_param(arrays, meta):
    arrays["params"] = np.array([1.2, 0.75, -1.0])  # k1, b and a stored avg_len


def _reversed_doc_lengths(arrays, meta):
    lengths = np.bincount(arrays["refs"], weights=arrays["tfs"]).astype(np.uint16)
    arrays["doc_lengths"] = lengths[::-1]


def _no_chunks(arrays, meta):
    arrays.update(chunk_ids=np.zeros(0, np.uint8),
                  offsets=np.zeros(arrays["offsets"].shape, np.uint8), refs=np.zeros(0, np.uint8),
                  tfs=np.zeros(0, np.uint8), vectors=arrays["vectors"][:0].astype(np.int8))


_SPARSE_ORDER = "offsets do not start at 0, rise and end at len(refs)"


@pytest.mark.parametrize("edit,problem", [
    pytest.param(_set("offsets", 0, 1), _SPARSE_ORDER, id="offsets-start"),
    pytest.param(_swap_rising_offsets, _SPARSE_ORDER, id="offsets-decrease"),
    pytest.param(_set("offsets", -1, 0), _SPARSE_ORDER, id="offsets-end"),
    pytest.param(_ref_past_the_last_row, "refs hold a row outside [0, ", id="refs-range"),
    pytest.param(_set("tfs", 0, 0), "tfs hold a term frequency below 1", id="tfs-zero"),
    pytest.param(_as("refs", np.int64),
                 "refs is not a 1-D array in its narrowest unsigned dtype", id="refs-dtype"),
    pytest.param(_as("tfs", np.float64),
                 "tfs is not a 1-D array in its narrowest unsigned dtype", id="tfs-dtype"),
    # BM25's chunk lengths and their mean are derived from refs and tfs, and its k1
    # and b are constants, so none is read: at format v4, a stored avg_len and
    # doc_lengths loaded and changed every BM25 score
    pytest.param(_avg_len_param, "members ['params'] are missing or not part of",
                 id="params-avg-len"),
    pytest.param(_reversed_doc_lengths, "members ['doc_lengths'] are missing or not part of",
                 id="doc-lengths-member"),
    pytest.param(_no_chunks, "a sparse index holds no chunks", id="no-chunks"),
    pytest.param(_drop_last_row, "vectors have shape", id="dense-shape"),
    # the term and chunk id blobs; at format v5 a repeated chunk id loaded, and a
    # term blob starting with 0xff failed with a bare UnicodeDecodeError
    pytest.param(_set("terms", 0, 0xFF), "terms is not UTF-8 text", id="terms-not-utf8"),
    pytest.param(_as("terms", np.int64), "terms is not a 1-D uint8 array", id="terms-dtype"),
    pytest.param(_as("chunk_ids", np.uint16), "chunk_ids is not a 1-D uint8 array",
                 id="chunk-ids-dtype"),
    pytest.param(_repeat_first_chunk_id, "a chunk id repeats", id="chunk-id-repeats"),
    pytest.param(_as("vectors", np.float64), "stored as float64", id="dense-dtype"),
    pytest.param(_set("vectors", 0, 0), "a vector is not finite or has norm 0",
                 id="dense-zero-row"),
    pytest.param(_remote_with_inf, "a vector is not finite or has norm 0", id="dense-inf"),
])
def test_tampered_v4_arrays_rejected(built_pipeline, tmp_path, capsys, edit, problem):
    """An index.npz member edited to break the format, its sha256 recomputed in the
    header, fails the load with the error JSON naming the file and the broken
    invariant. (The name dates from format v4; the cases are format v7's.)"""
    index_dir = tmp_path / "index"
    shutil.copytree(built_pipeline["index_enhanced"], index_dir)
    path = index_dir / "index.npz"
    meta_path = index_dir / "index_meta.json"
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    with np.load(path) as data:
        arrays = {key: data[key] for key in data.files}
    edit(arrays, meta)
    np.savez(path, **arrays)
    meta["sha256"]["index.npz"] = sha256_file(path)
    meta_path.write_text(json.dumps(meta), encoding="utf-8")

    assert _retrieve_from(index_dir, built_pipeline, tmp_path / "out") == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ValueError"
    assert "index.npz: " in err["message"] and problem in err["message"]
    assert err["message"].endswith("rebuild with `lexrag index`")


def _drop_first_row(path: Path) -> str:
    """Delete the first line of a chunk file; return its chunk_id."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[1:]), encoding="utf-8")
    return json.loads(lines[0])["chunk_id"]


def _add_renamed_row(path: Path) -> str:
    """Append a copy of the last line of a chunk file under a new chunk_id; return it."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    row = json.loads(lines[-1])
    row["chunk_id"] += "-extra"
    path.write_text("".join(lines) + json.dumps(row) + "\n", encoding="utf-8")
    return row["chunk_id"]


def _rehash_chunks(index_dir: Path) -> None:
    """Record the index's edited chunks.jsonl checksum in index_meta.json, so a load
    gets past the checksum check to the chunk id checks."""
    meta_path = index_dir / "index_meta.json"
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    meta["sha256"]["chunks.jsonl"] = sha256_file(index_dir / "chunks.jsonl")
    meta_path.write_text(json.dumps(meta), encoding="utf-8")


def _swap_rows(path: Path) -> str:
    """Swap the second and fourth lines of a chunk file; return the chunk_id moved off
    the second."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[1], lines[3] = lines[3], lines[1]
    path.write_text("".join(lines), encoding="utf-8")
    return json.loads(lines[3])["chunk_id"]


@pytest.mark.parametrize("tamper,where", [(_drop_first_row, "missing from chunks.jsonl"),
                                          (_add_renamed_row, "only in chunks.jsonl"),
                                          (_swap_rows, "missing from chunks.jsonl at row 1")])
def test_index_chunks_file_disagreeing_with_index_rejected(
        built_pipeline, tmp_path, capsys, tamper, where):
    """Both query commands read a ranked chunk by its index row, so chunks.jsonl must
    hold the index's ids in the index's order: other ids, or the same ids reordered,
    are rejected naming the first row that differs."""
    index_dir = tmp_path / "index"
    shutil.copytree(built_pipeline["index_enhanced"], index_dir)
    chunk_id = tamper(index_dir / "chunks.jsonl")
    _rehash_chunks(index_dir)
    assert _retrieve_from(index_dir, built_pipeline, tmp_path / "out") == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ValueError"
    assert repr(chunk_id) in err["message"] and where in err["message"]
    assert not (tmp_path / "out" / "contexts.jsonl").exists()
    assert run(["eval-retrieval", "--index", str(index_dir), "--qa", str(built_pipeline["qa"]),
                "--bootstrap-iterations", "20", "--out", str(tmp_path / "eval")]) == 1
    assert json.loads(capsys.readouterr().err.strip()) == err
    assert not (tmp_path / "eval" / "metric_report.json").exists()


def _repeat_first_row(path: Path) -> str:
    """Append a copy of the first line of a chunk file; return its chunk_id."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines) + lines[0], encoding="utf-8")
    return json.loads(lines[0])["chunk_id"]


def test_repeated_chunk_id_rejected(built_pipeline, tmp_path, capsys):
    chunks_path = tmp_path / "chunks.jsonl"
    shutil.copy(built_pipeline["chunks"] / "chunks.jsonl", chunks_path)
    repeated = _repeat_first_row(chunks_path)
    index_dir = tmp_path / "tampered_index"
    shutil.copytree(built_pipeline["index_baseline"], index_dir)
    assert _repeat_first_row(index_dir / "chunks.jsonl") == repeated
    _rehash_chunks(index_dir)
    commands = {
        "index": ["index", "--chunks", str(chunks_path), "--dim", "64",
                  "--out", str(tmp_path / "index")],
        "enrich": ["enrich", "--root", str(built_pipeline["root"]),
                   "--chunks", str(chunks_path), "--out", str(tmp_path / "enriched")],
        "retrieve": ["retrieve", "--index", str(index_dir), "--qa", str(built_pipeline["qa"]),
                     "--format", "snippet_qa", "--out", str(tmp_path / "retrieved")],
    }
    for name, argv in commands.items():
        assert run(argv) == 1, name
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ValueError", name
        assert repeated in err["message"], name
    assert not (tmp_path / "retrieved" / "contexts.jsonl").exists()


def test_manifest_checksums_corpus_and_sidecar(built_pipeline, tmp_path):
    root, sidecar = built_pipeline["root"], built_pipeline["manifest"]
    expected = {str(sidecar): sha256_file(sidecar)}
    expected.update((str(root / doc_id), sha256_file(root / doc_id))
                    for doc_id in built_pipeline["doc_ids"])
    chunks_path = built_pipeline["chunks"] / "chunks.jsonl"
    for argv in (["ingest"], ["chunk"], ["enrich", "--chunks", str(chunks_path)]):
        out_dir = tmp_path / argv[0]
        assert run([*argv, "--root", str(root), "--manifest", str(sidecar),
                    "--out", str(out_dir)]) == 0
        inputs = json.loads((out_dir / "run_manifest.json").read_text())["inputs"]
        corpus = {path: digest for path, digest in inputs.items() if path != str(chunks_path)}
        assert corpus == expected, argv[0]

    root, qa_path = build_aus_corpus(tmp_path / "aus", n_records=6, n_docs=3, seed=1)
    assert run(["align-spans", "--root", str(root), "--qa", str(qa_path),
                "--out", str(tmp_path / "aligned")]) == 0
    inputs = json.loads((tmp_path / "aligned" / "run_manifest.json").read_text())["inputs"]
    docs = sorted(p for p in root.rglob("*") if p.is_file())
    assert docs and all(inputs[str(p)] == sha256_file(p) for p in docs)


def test_chunk_manifest_inputs_differ_when_one_corpus_byte_does(workspace, tmp_path):
    root = tmp_path / "corpus"
    shutil.copytree(workspace["root"], root)
    doc = root / workspace["doc_ids"][3]

    def chunk_inputs(out_name: str) -> dict:
        assert run(["chunk", "--root", str(root), "--out", str(tmp_path / out_name)]) == 0
        return json.loads((tmp_path / out_name / "run_manifest.json").read_text())["inputs"]

    before = chunk_inputs("a")
    raw = bytearray(doc.read_bytes())
    raw[10] = ord("X") if raw[10] != ord("X") else ord("Y")
    doc.write_bytes(bytes(raw))
    after = chunk_inputs("b")
    assert before != after
    assert before.keys() == after.keys()
    assert [path for path in before if before[path] != after[path]] == [str(doc)]


# SHA-256 over the NUL-joined full_text values of the built pipeline's
# enriched.jsonl, as written when full_text was a stored field of its own
ENRICHED_FULL_TEXT_SHA256 = "292c16705ff6571d9ecbec7d31159f4fe41c51e3ad0e8156db5c20ce583e17b3"


@pytest.mark.parametrize("name,n_keys", [("chunks", 8), ("enriched", 12)])
def test_chunk_file_round_trips_byte_for_byte(built_pipeline, tmp_path, name, n_keys):
    path = built_pipeline[name] / f"{name}.jsonl"
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    assert {len(row) for row in rows} == {n_keys}
    chunks = load_chunks(path)
    dump_chunks(chunks, tmp_path / "copy.jsonl")
    assert (tmp_path / "copy.jsonl").read_bytes() == path.read_bytes()
    assert [c.full_text for c in chunks] == [row.get("full_text", row["text"]) for row in rows]
    assert all((c.header_text is None) == (n_keys == 8) for c in chunks)


@pytest.mark.parametrize("name,index", [("chunks", "index_baseline"),
                                        ("enriched", "index_enhanced")])
def test_index_stores_its_chunk_file_as_given(built_pipeline, name, index):
    stored = (built_pipeline[index] / "chunks.jsonl").read_bytes()
    assert stored == (built_pipeline[name] / f"{name}.jsonl").read_bytes()


def test_index_over_key_reordered_chunk_file_retrieves_the_same(built_pipeline, tmp_path):
    source = built_pipeline["enriched"] / "enriched.jsonl"
    path = tmp_path / "reordered.jsonl"
    rows = [json.loads(line) for line in source.read_text(encoding="utf-8").splitlines()]
    path.write_text("".join(json.dumps(dict(reversed(row.items()))) + "\n" for row in rows),
                    encoding="utf-8")
    assert path.read_bytes() != source.read_bytes()
    index_dir = tmp_path / "index"
    assert run(["index", "--chunks", str(path), "--embedder", "deterministic", "--dim", "128",
                "--out", str(index_dir)]) == 0
    assert (index_dir / "chunks.jsonl").read_bytes() == path.read_bytes()
    assert _retrieve_from(index_dir, built_pipeline, tmp_path / "reordered_out") == 0
    assert _retrieve_from(built_pipeline["index_enhanced"], built_pipeline,
                          tmp_path / "canonical_out") == 0
    for name in ("results.jsonl", "contexts.jsonl"):
        assert ((tmp_path / "reordered_out" / name).read_bytes()
                == (tmp_path / "canonical_out" / name).read_bytes())


def test_index_over_row_shuffled_chunk_file_retrieves_the_same(tmp_path):
    """Row order is storage, not meaning: a chunk file with its rows shuffled gives
    another index.npz but the same results, contexts and metric report, down to
    k = 64, past the chunk count, where every row is ranked and every tie broken."""
    root, manifest, qa, _ = build_legal_corpus(tmp_path / "corpus", n_docs=6, seed=0)
    legal = ["--root", str(root), "--manifest", str(manifest)]
    assert run(["chunk", *legal, "--target", "48", "--overlap", "10",
                "--out", str(tmp_path / "chunks")]) == 0
    assert run(["enrich", *legal, "--chunks", str(tmp_path / "chunks" / "chunks.jsonl"),
                "--out", str(tmp_path / "enriched")]) == 0
    search = ["--qa", str(qa), "--format", "snippet_qa"]
    for source in (tmp_path / "chunks" / "chunks.jsonl", tmp_path / "enriched" / "enriched.jsonl"):
        lines = source.read_bytes().splitlines(keepends=True)
        shuffled = tmp_path / f"shuffled_{source.name}"
        order = np.random.default_rng(3).permutation(len(lines))
        shuffled.write_bytes(b"".join(lines[i] for i in order))
        assert len(lines) < 64 and shuffled.read_bytes() != source.read_bytes()
        outs = {}
        for path in (source, shuffled):
            out = outs[path] = tmp_path / f"run_{path.stem}"
            assert run(["index", "--chunks", str(path), "--dim", "128",
                        "--out", str(out / "index")]) == 0
            assert run(["retrieve", "--index", str(out / "index"), *search, "--k", "64",
                        "--out", str(out / "retrieved")]) == 0
            assert run(["eval-retrieval", "--index", str(out / "index"), *search,
                        "--bootstrap-iterations", "300", "--out", str(out / "eval")]) == 0
        a, b = outs[source], outs[shuffled]
        assert (a / "index" / "index.npz").read_bytes() != (b / "index" / "index.npz").read_bytes()
        for name in ("retrieved/results.jsonl", "retrieved/contexts.jsonl",
                     "eval/metric_report.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), (source.name, name)


def test_index_rebuilt_in_place_from_its_own_chunk_file(built_pipeline, tmp_path):
    index_dir = tmp_path / "index"
    shutil.copytree(built_pipeline["index_enhanced"], index_dir)
    assert run(["index", "--chunks", str(index_dir / "chunks.jsonl"), "--embedder",
                "deterministic", "--dim", "128", "--out", str(index_dir)]) == 0
    for name in ("chunks.jsonl", "index.npz", "index_meta.json"):
        assert ((index_dir / name).read_bytes()
                == (built_pipeline["index_enhanced"] / name).read_bytes())


def test_enrich_rejects_chunks_of_an_edited_document(tmp_path, capsys):
    # a chunk file made before a document was rewritten: its offsets no longer slice
    # its text out of the document, so every offset-based metric downstream would
    # score text the document does not hold
    root = tmp_path / "corpus"
    root.mkdir()
    (root / "a.txt").write_text("The tenant shall pay the rent on the first day of each month.",
                                encoding="utf-8")
    (root / "b.txt").write_text("Notice must be served at the address in the lease.",
                                encoding="utf-8")
    assert run(["chunk", "--root", str(root), "--out", str(tmp_path / "chunks")]) == 0
    (root / "a.txt").write_text("The landlord shall pay the rent on the first day of each month.",
                                encoding="utf-8")
    out_dir = tmp_path / "enriched"
    chunks = str(tmp_path / "chunks" / "chunks.jsonl")
    assert run(["enrich", "--root", str(root), "--chunks", chunks, "--out", str(out_dir)]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ValueError"
    assert "'a.txt#000000'" in err["message"] and "'a.txt'" in err["message"], err
    assert not (out_dir / "enriched.jsonl").exists()


def test_enriched_full_text_unchanged(built_pipeline):
    chunks = load_chunks(built_pipeline["enriched"] / "enriched.jsonl")
    joined = "\x00".join(c.full_text for c in chunks).encode("utf-8")
    assert hashlib.sha256(joined).hexdigest() == ENRICHED_FULL_TEXT_SHA256


def test_tampered_full_text_rejected(built_pipeline, tmp_path, capsys):
    path = tmp_path / "enriched.jsonl"
    rows = [json.loads(line) for line in
            (built_pipeline["enriched"] / "enriched.jsonl").read_text().splitlines()]
    rows[3]["full_text"] = rows[3]["full_text"].replace("\n", " ", 1)
    write_jsonl(path, rows)
    with pytest.raises(ValueError, match=rows[3]["chunk_id"]):
        load_chunks(path)
    assert run(["index", "--chunks", str(path), "--out", str(tmp_path / "index")]) == 1
    assert json.loads(capsys.readouterr().err.strip())["error"] == "ValueError"


def test_chunk_row_missing_a_key_named_with_file_and_line(built_pipeline, tmp_path, capsys):
    path = tmp_path / "enriched.jsonl"
    rows = [json.loads(line) for line in
            (built_pipeline["enriched"] / "enriched.jsonl").read_text().splitlines()]
    del rows[5]["full_text"]
    write_jsonl(path, rows)
    assert run(["index", "--chunks", str(path), "--out", str(tmp_path / "index")]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ValueError"
    for named in (f"{path}, line 6", repr(rows[5]["chunk_id"]), "'full_text'"):
        assert named in err["message"]


@pytest.mark.parametrize("key,value", [
    ("chunk_id", 7), ("text", ["hello"]), ("start", True), ("ordinal", 2.0),
    ("hard_split", 1), ("metadata_fraction", "0.1"), ("header_text", None)])
def test_chunk_row_key_of_another_type_named_with_file_and_line(
        built_pipeline, tmp_path, capsys, key, value):
    path = tmp_path / "enriched.jsonl"
    rows = [json.loads(line) for line in
            (built_pipeline["enriched"] / "enriched.jsonl").read_text().splitlines()]
    rows[5][key] = value
    write_jsonl(path, rows)
    assert run(["index", "--chunks", str(path), "--out", str(tmp_path / "index")]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ValueError"
    for named in (f"{path}, line 6", repr(rows[5]["chunk_id"]), repr(key)):
        assert named in err["message"]


@pytest.mark.parametrize("edit,key", [
    pytest.param(lambda row: {"start": -1}, "start", id="start-below-0"),
    pytest.param(lambda row: {"start": 50, "end": -3}, "end", id="end-before-start"),
    pytest.param(lambda row: {"core_start": row["end"] + 1}, "core_start",
                 id="core-start-past-end"),
    pytest.param(lambda row: {"core_start": row["start"] - 1}, "core_start",
                 id="core-start-before-start"),
    pytest.param(lambda row: {"end": row["end"] - 1}, "text", id="text-longer-than-span"),
    pytest.param(lambda row: {"ordinal": -7}, "ordinal", id="ordinal-below-0"),
    pytest.param(lambda row: {"metadata_fraction": math.nan}, "metadata_fraction",
                 id="fraction-nan"),
    pytest.param(lambda row: {"metadata_fraction": math.inf}, "metadata_fraction",
                 id="fraction-inf"),
    pytest.param(lambda row: {"metadata_fraction": 1.5}, "metadata_fraction",
                 id="fraction-above-1"),
    pytest.param(lambda row: {"metadata_fraction": -0.25}, "metadata_fraction",
                 id="fraction-below-0"),
])
def test_chunk_row_value_out_of_range_named_with_file_and_line(
        built_pipeline, tmp_path, capsys, edit, key):
    """Offsets that are not 0 <= start <= core_start <= end, text whose length is not
    end - start, a negative ordinal or a metadata_fraction outside [0, 1] fail `index`."""
    path = tmp_path / "enriched.jsonl"
    rows = [json.loads(line) for line in
            (built_pipeline["enriched"] / "enriched.jsonl").read_text().splitlines()]
    row = rows[5]
    assert 0 < row["start"] < row["core_start"] < row["end"]
    row.update(edit(row))
    write_jsonl(path, rows)
    assert run(["index", "--chunks", str(path), "--out", str(tmp_path / "index")]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ValueError"
    for named in (f"{path}, line 6", repr(row["chunk_id"]), repr(key)):
        assert named in err["message"]
    assert not (tmp_path / "index" / "index_meta.json").exists()


@pytest.mark.parametrize("new_id,problem", [("{}\ud800", "holds a lone surrogate"),
                                            ("{}\x00", "is empty or holds NUL"),
                                            ("", "is empty or holds NUL")])
def test_chunk_id_an_index_cannot_store_named(built_pipeline, tmp_path, capsys, new_id, problem):
    """A chunk id holding NUL or a lone surrogate (legal JSON escapes), or an empty one,
    fails `index` with a ValueError naming it, not with an encoding error."""
    path = tmp_path / "chunks.jsonl"
    lines = (built_pipeline["chunks"] / "chunks.jsonl").read_text().splitlines(keepends=True)
    row = json.loads(lines[3])
    row["chunk_id"] = new_id.format(row["chunk_id"])
    lines[3] = json.dumps(row) + "\n"  # ASCII: the character as a JSON escape
    path.write_text("".join(lines), encoding="utf-8")
    assert run(["index", "--chunks", str(path), "--out", str(tmp_path / "index")]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ValueError"
    assert f"chunk id {row['chunk_id']!r} {problem}" in err["message"]


def test_index_chunk_text_edited_with_id_kept_rejected(built_pipeline, tmp_path, capsys):
    index_dir = tmp_path / "index"
    shutil.copytree(built_pipeline["index_enhanced"], index_dir)
    chunks_path = index_dir / "chunks.jsonl"
    rows = [json.loads(line) for line in chunks_path.read_text().splitlines()]
    row = rows[2]
    row["text"] = row["text"].replace("tribunal", "registrar")
    row["full_text"] = row["header_text"] + "\n" + row["text"]
    assert row["text"] != load_chunks(chunks_path)[2].text
    write_jsonl(chunks_path, rows)
    assert _retrieve_from(index_dir, built_pipeline, tmp_path / "out") == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ValueError"
    assert "checksum mismatch for chunks.jsonl" in err["message"]
    assert not (tmp_path / "out" / "contexts.jsonl").exists()


def _tamper_bytes(lines: list[bytes], how: str) -> bytes:
    """A chunk file's lines with one fault that its row parse would reject."""
    if how == "bad-json-line":
        return b"".join([*lines[:3], b'{"chunk_id": oops}\n', *lines[3:]])
    if how == "not-utf8-byte":
        lines[2] = lines[2].replace(b'"text": "', b'"text": "\xe9', 1)
        return b"".join(lines)
    if how == "repeated-chunk-id-row":
        return b"".join([*lines, lines[0]])
    data = b"".join(lines)  # cut mid-row
    return data[:len(data) - len(lines[-1]) // 2]


@pytest.mark.parametrize("how", ["bad-json-line", "not-utf8-byte", "repeated-chunk-id-row",
                                 "cut-mid-row"])
def test_index_chunk_file_that_no_longer_parses_fails_its_checksum(
        built_pipeline, tmp_path, capsys, how):
    """A changed chunks.jsonl fails its checksum whatever its rows hold, also when its
    parse stops on a row first."""
    index_dir = tmp_path / "index"
    shutil.copytree(built_pipeline["index_enhanced"], index_dir)
    chunks_path = index_dir / "chunks.jsonl"
    chunks_path.write_bytes(_tamper_bytes(chunks_path.read_bytes().splitlines(keepends=True),
                                          how))
    with pytest.raises(ValueError):
        load_chunks(chunks_path)
    assert _retrieve_from(index_dir, built_pipeline, tmp_path / "out") == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ValueError"
    assert err["message"].startswith("checksum mismatch for chunks.jsonl")
    assert not (tmp_path / "out" / "contexts.jsonl").exists()


def test_index_header_without_chunks_entry_rejected(built_pipeline, tmp_path, capsys):
    index_dir = tmp_path / "index"
    shutil.copytree(built_pipeline["index_enhanced"], index_dir)
    meta_path = index_dir / "index_meta.json"
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    del meta["sha256"]["chunks.jsonl"]
    meta_path.write_text(json.dumps(meta), encoding="utf-8")
    assert _retrieve_from(index_dir, built_pipeline, tmp_path / "out") == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ValueError"
    assert f"{meta_path}: key 'sha256' gives no string for chunks.jsonl" in err["message"]
    assert not (tmp_path / "out" / "contexts.jsonl").exists()


@pytest.mark.parametrize("line,problem", [
    (b'{"chunk_id": "x", oops}', "not valid JSON"),
    (b'["not", "an", "object"]', "not a JSON object"),
    (b'{"chunk_id": "caf\xe9"}', "not UTF-8 text (byte 0xe9)"),
])
def test_chunk_file_line_that_is_no_object_named_with_file_and_line(
        built_pipeline, tmp_path, capsys, line, problem):
    path = tmp_path / "chunks.jsonl"
    lines = (built_pipeline["chunks"] / "chunks.jsonl").read_bytes().splitlines(keepends=True)
    lines[4] = line + b"\n"
    path.write_bytes(b"".join(lines))
    assert run(["index", "--chunks", str(path), "--out", str(tmp_path / "index")]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ValueError"
    assert f"{path}, line 5: {problem}" in err["message"]


def test_align_spans_command(tmp_path):
    root, qa_path = build_aus_corpus(tmp_path, n_records=12, n_docs=4, seed=1)
    out_dir = tmp_path / "aligned"
    code = run(["align-spans", "--root", str(root), "--qa", str(qa_path),
                "--out", str(out_dir)])
    assert code == 0
    report = json.loads((out_dir / "alignment_report.json").read_text())
    assert report["aligned"] == 12
    aligned = json.loads((out_dir / "aligned_dataset.json").read_text())
    assert len(aligned) == 12
    assert all(len(rec["snippets"]) == 1 for rec in aligned)


def test_mistyped_qa_records_are_load_errors_not_failures(tmp_path, capsys):
    """A QA record with a field of the wrong type is listed as a load error, and
    ingest and align-spans still exit 0 over the records that load."""
    root, qa_path = build_aus_corpus(tmp_path, n_records=4, n_docs=2, seed=1)
    rows = [json.loads(line) for line in qa_path.read_text(encoding="utf-8").splitlines()]
    rows[1]["document URL"] = 5
    qa_path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    code = run(["ingest", "--root", str(root), "--qa", str(qa_path),
                "--format", "aus_legal_qa", "--out", str(tmp_path / "ingest")])
    assert code == 0
    report = json.loads((tmp_path / "ingest" / "ingest_report.json").read_text())
    assert report["qa"]["records"] == 3
    assert [e["where"] for e in report["qa_errors"]] == ["record[1]"]
    assert "'document URL'" in report["qa_errors"][0]["message"]
    code = run(["align-spans", "--root", str(root), "--qa", str(qa_path),
                "--out", str(tmp_path / "aligned")])
    assert code == 0
    assert '"load_errors": 1' in capsys.readouterr().out


def test_dpo_build_command(tmp_path):
    _, qa_path = build_aus_corpus(tmp_path, n_records=24, n_docs=6, seed=2)
    out_dir = tmp_path / "dpo"
    code = run(["dpo-build", "--qa", str(qa_path),
                "--train", "18", "--validation", "2", "--test", "4",
                "--seed", "5", "--out", str(out_dir)])
    assert code == 0
    manifest = json.loads((out_dir / "dpo_manifest.json").read_text())
    assert manifest["splits"]["train"] == {"records": 18, "pairs": 36}
    assert manifest["splits"]["test"] == {"records": 4, "pairs": 8}
    train_rows = [json.loads(l) for l in (out_dir / "train.jsonl").read_text().splitlines()]
    assert len(train_rows) == 36
    assert {r["set_tag"] for r in train_rows} == {"set1_correct_context",
                                                  "set2_incorrect_context"}
    assert all({"prompt", "chosen", "rejected"} <= set(r) for r in train_rows)


def test_dpo_build_reads_each_counter_of_its_seed_once(tmp_path, monkeypatch):
    """One run's draws are distinct counters of --seed: the shuffle of n records reads
    0 .. n - 2, and the record at shuffled position p takes its set-2 context from
    n - 1 + p, whichever split it falls in."""
    _, qa_path = build_aus_corpus(tmp_path, n_records=24, n_docs=6, seed=2)
    read, draw_below = [], stats.draw_below

    def recording(seed, i, n):
        read.append(i)
        return draw_below(seed, i, n)

    monkeypatch.setattr(stats, "draw_below", recording)  # where permutation looks it up
    monkeypatch.setattr(preference, "draw_below", recording)
    assert run(["dpo-build", "--qa", str(qa_path), "--train", "18", "--validation", "2",
                "--test", "3", "--seed", "5", "--out", str(tmp_path / "dpo")]) == 0
    assert sorted(read) == list(range(23 + 23))
    assert read[23:] == list(range(23, 23 + 23))


def test_dpo_build_negative_seed_rejected(tmp_path, capsys):
    _, qa_path = build_aus_corpus(tmp_path, n_records=4, n_docs=2, seed=3)
    code = run(["dpo-build", "--qa", str(qa_path), "--train", "4", "--validation", "0",
                "--test", "0", "--seed", "-1", "--out", str(tmp_path / "dpo")])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ValueError" and "non-negative integer" in err["message"]


def test_dpo_build_seed_of_64_bits_rejected(tmp_path, capsys):
    # the stream's seed is one 64-bit word; a wider seed is named, not truncated
    _, qa_path = build_aus_corpus(tmp_path, n_records=4, n_docs=2, seed=3)
    out_dir = tmp_path / "dpo"
    code = run(["dpo-build", "--qa", str(qa_path), "--train", "4", "--validation", "0",
                "--test", "0", "--seed", str(2**64 + 5), "--out", str(out_dir)])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err == {"error": "ValueError",
                   "message": "seed must be below 2**64, not 18446744073709551621"}
    assert not any(out_dir.glob("*"))


def test_bootstrap_commands_negative_seed_rejected(built_pipeline, tmp_path, capsys):
    """Every command that bootstraps names its --seed when it is negative, as
    dpo-build does, and writes no report."""
    _, aus_qa = build_aus_corpus(tmp_path, n_records=4, n_docs=2, seed=3)
    outputs = tmp_path / "outputs.jsonl"
    write_jsonl(outputs, [{"query_id": json.loads(line)["query_id"],
                           "set_tag": "set1_correct_context", "output": "An answer."}
                          for line in aus_qa.read_text(encoding="utf-8").splitlines()])
    search = ["--index", str(built_pipeline["index_baseline"]), "--qa", str(built_pipeline["qa"]),
              "--format", "snippet_qa", "--k", "1,4", "--bootstrap-iterations", "50"]
    report = tmp_path / "eval" / "metric_report.json"
    assert run(["eval-retrieval", *search, "--out", str(report.parent)]) == 0
    commands = {
        "eval-retrieval": ["eval-retrieval", *search],
        "compare": ["compare", "--baseline", str(report), "--enhanced", str(report),
                    "--bootstrap-iterations", "50"],
        "eval-answers": ["eval-answers", "--outputs", str(outputs), "--qa", str(aus_qa),
                         "--compare-with", str(outputs), "--bootstrap-iterations", "50"],
    }
    for name, argv in commands.items():
        out_dir = tmp_path / name
        assert run([*argv, "--seed", "-3", "--out", str(out_dir)]) == 1, name
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "ValueError",
                       "message": "seed must be a non-negative integer, not -3"}, name
        assert not any(out_dir.glob("*")), name


@pytest.mark.parametrize("flag,value,message", [
    ("--seed", "-3", "seed must be a non-negative integer, not -3"),
    ("--bootstrap-iterations", "0", "bootstrap iterations must be >= 1, not 0")])
def test_bootstrap_settings_checked_when_no_bootstrap_runs(
        workspace, tmp_path, capsys, flag, value, message):
    """An index holding none of the gold documents excludes every query, and two
    reports without a query draw no resample; a bad seed or count still fails."""
    chunks = tmp_path / "chunks.jsonl"
    write_jsonl(chunks, [{"chunk_id": "hand/a.txt#000000", "doc_id": "hand/a.txt", "start": 0,
                          "end": 25, "text": "The tenant shall pay rent", "ordinal": 0}])
    assert run(["index", "--chunks", str(chunks), "--dim", "16",
                "--out", str(tmp_path / "index")]) == 0
    search = ["--index", str(tmp_path / "index"), "--qa", str(workspace["qa"]), "--k", "1,2"]
    report = tmp_path / "eval" / "metric_report.json"
    assert run(["eval-retrieval", *search, "--bootstrap-iterations", "20",
                "--out", str(report.parent)]) == 0
    assert json.loads(report.read_text())["per_query"] == {}
    commands = {"eval-retrieval": ["eval-retrieval", *search],
                "compare": ["compare", "--baseline", str(report), "--enhanced", str(report)]}
    for name, argv in commands.items():
        out_dir = tmp_path / name
        assert run([*argv, flag, value, "--out", str(out_dir)]) == 1, name
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "ValueError", "message": message}, name
        assert not any(out_dir.glob("*")), name


@pytest.mark.parametrize("raw", ["0,2", "1,a", "1.5", ","])
def test_malformed_k_list_rejected_naming_it(built_pipeline, tmp_path, capsys, raw):
    out_dir = tmp_path / "out"
    code = run(["eval-retrieval", "--index", str(built_pipeline["index_baseline"]),
                "--qa", str(built_pipeline["qa"]), "--k", raw, "--out", str(out_dir)])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err == {"error": "ValueError", "message": f"invalid k list: {raw!r}"}
    assert not any(out_dir.glob("*"))


@pytest.mark.parametrize("key,value", [("retries", -1), ("timeout", -1), ("timeout", 0)])
@pytest.mark.parametrize("command", ["enrich", "index"])
def test_remote_settings_out_of_range_rejected_naming_the_key(
        built_pipeline, tmp_path, capsys, command, key, value):
    # both settings come from the config file alone; the endpoint is never reached
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({key: value}), encoding="utf-8")
    chunks = str(built_pipeline["chunks"] / "chunks.jsonl")
    if command == "enrich":
        argv = ["enrich", "--root", str(built_pipeline["root"]), "--manifest",
                str(built_pipeline["manifest"]), "--chunks", chunks, "--summarizer", "remote"]
    else:
        argv = ["index", "--chunks", chunks, "--embedder", "remote", "--dim", "16"]
    out_dir = tmp_path / "out"
    assert run([*argv, "--endpoint", "http://127.0.0.1:9/", "--config", str(config_path),
                "--out", str(out_dir)]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ValueError" and key in err["message"], err
    assert not any(out_dir.glob("*"))


def test_ingest_byte_span_conversion(tmp_path):
    root = tmp_path / "corpus"
    root.mkdir()
    (root / "doc.txt").write_text("café law matters", encoding="utf-8")
    qa = [{"query": "what law?",
           "snippets": [{"file_path": "doc.txt", "span": [6, 9], "answer": "law"}]}]
    qa_path = tmp_path / "qa.json"
    qa_path.write_text(json.dumps(qa), encoding="utf-8")
    out_dir = tmp_path / "ingest"
    # "law" sits at UTF-8 bytes [6, 9) but chars [5, 8): the 2-byte e-acute shifts it
    code = run(["ingest", "--root", str(root), "--qa", str(qa_path),
                "--format", "snippet_qa", "--span-unit", "byte",
                "--out", str(out_dir)])
    assert code == 0
    report = json.loads((out_dir / "ingest_report.json").read_text())
    assert report["validation"]["errors"] == 0
    assert report["validation"]["clean_records"] == ["q00000"]


def test_dpo_build_conversation_export(tmp_path):
    # one document per record so every split supports cross-document sampling
    _, qa_path = build_aus_corpus(tmp_path, n_records=12, n_docs=12, seed=6)
    out_dir = tmp_path / "dpo_conv"
    code = run(["dpo-build", "--qa", str(qa_path),
                "--train", "8", "--validation", "2", "--test", "2",
                "--export-style", "conversation", "--out", str(out_dir)])
    assert code == 0
    rows = [json.loads(l) for l in (out_dir / "train.jsonl").read_text().splitlines()]
    assert rows[0]["conversations"][0]["from"] == "human"
    assert rows[0]["chosen"]["from"] == "gpt"


def test_eval_refusal_command(tmp_path):
    rows = []
    for i in range(150):
        rows.append({"query_id": f"s2-{i}", "set_tag": "set2_incorrect_context",
                     "output": REFUSAL_STRING if i < 131 else f"Answer {i}."})
    for i in range(500):
        rows.append({"query_id": f"s1-{i}", "set_tag": "set1_correct_context",
                     "output": REFUSAL_STRING if i < 266 else f"Answer {i}."})
    outputs_path = tmp_path / "outputs.jsonl"
    write_jsonl(outputs_path, rows)
    out_dir = tmp_path / "refusal"
    code = run(["eval-refusal", "--outputs", str(outputs_path), "--mode", "both",
                "--out", str(out_dir)])
    assert code == 0
    report = json.loads((out_dir / "refusal_report.json").read_text())
    assert report["strict"]["set2_rate"]["rendered"] == "87.3%"
    assert report["strict"]["set1_rate"]["rendered"] == "53.2%"
    assert report["soft"]["set2_rate"]["exact"] >= report["strict"]["set2_rate"]["exact"]


def test_eval_answers_command(tmp_path):
    _, qa_path = build_aus_corpus(tmp_path, n_records=10, n_docs=4, seed=3)
    records = [json.loads(l) for l in qa_path.read_text().splitlines()]
    good = [{"query_id": r["query_id"], "set_tag": "set1_correct_context",
             "output": r["Answer"]} for r in records]
    bad = [{"query_id": r["query_id"], "set_tag": "set1_correct_context",
            "output": "unrelated words entirely"} for r in records]
    write_jsonl(tmp_path / "good.jsonl", good)
    write_jsonl(tmp_path / "bad.jsonl", bad)
    out_dir = tmp_path / "answers"
    code = run(["eval-answers", "--outputs", str(tmp_path / "good.jsonl"),
                "--qa", str(qa_path), "--format", "aus_legal_qa",
                "--compare-with", str(tmp_path / "bad.jsonl"),
                "--bootstrap-iterations", "300",
                "--out", str(out_dir)])
    assert code == 0
    report = json.loads((out_dir / "answer_report.json").read_text())
    assert report["mean_f1"] == 1.0
    assert report["comparison"]["mean_b"] == 0.0
    assert report["comparison"]["delta"] == 1.0


@pytest.mark.parametrize("row,key,problem", [
    ({"query_id": "q1", "set_tag": "set1_correct_context"}, "output", "is missing"),
    ({"query_id": "q1", "set_tag": "set1_correct_context", "output": 7}, "output",
     "must be a string, not 7"),
], ids=["row0-output-missing", "row1-output-not a string"])
def test_model_output_row_named_with_file_line_and_key(tmp_path, capsys, row, key, problem):
    _, qa_path = build_aus_corpus(tmp_path, n_records=4, n_docs=2, seed=3)
    good = {"query_id": "q0", "set_tag": "set1_correct_context", "output": "An answer."}
    path = tmp_path / "outputs.jsonl"
    write_jsonl(path, [good, good, row])
    for argv in (["eval-refusal", "--outputs", str(path)],
                 ["eval-answers", "--outputs", str(path), "--qa", str(qa_path),
                  "--format", "aus_legal_qa"]):
        assert run([*argv, "--out", str(tmp_path / argv[0])]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ValueError", argv[0]
        assert err["message"] == f"{path}, line 3: key {key!r} {problem}", argv[0]


@pytest.mark.parametrize("command", ["eval-refusal", "eval-answers"])
def test_repeated_model_output_row_named_with_file_and_both_lines(tmp_path, capsys, command):
    # counted twice, the aus-000 row would make set1_rate 66.7% (eval-refusal) or
    # mean_f1 0.667 (eval-answers without --compare-with) instead of 50% or 0.5
    _, qa_path = build_aus_corpus(tmp_path, n_records=4, n_docs=2, seed=3)
    records = [json.loads(line) for line in qa_path.read_text().splitlines()]
    first = {"query_id": "aus-000", "set_tag": "set1_correct_context",
             "output": REFUSAL_STRING if command == "eval-refusal" else records[0]["Answer"]}
    miss = {"query_id": "aus-001", "set_tag": "set1_correct_context", "output": "Unrelated."}
    path = tmp_path / "outputs.jsonl"
    write_jsonl(path, [first, miss, first])
    extra = ["--qa", str(qa_path)] if command == "eval-answers" else []
    out_dir = tmp_path / "out"
    assert run([command, "--outputs", str(path), *extra, "--out", str(out_dir)]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ValueError"
    assert (f"{path}, lines 1 and 3: query_id 'aus-000' repeats under set_tag "
            f"'set1_correct_context'") in err["message"]
    assert not list(out_dir.glob("*_report.json"))


def test_sidecar_entry_naming_no_file_rejected(tmp_path, capsys):
    root = tmp_path / "corpus"
    root.mkdir()
    (root / "a.txt").write_text("The court held the appeal was allowed.", encoding="utf-8")
    (root / "empty.txt").write_bytes(b"")  # a LoadError, but a file the sidecar may name
    sidecar = tmp_path / "sidecar.json"
    sidecar.write_text(json.dumps({"a.txt": {"title": "A"}, "b.txt": {"title": "B"},
                                   "c.txt": {"title": "C"}, "empty.txt": {"title": "E"}}),
                       encoding="utf-8")
    assert run(["chunk", "--root", str(root), "--manifest", str(sidecar),
                "--out", str(tmp_path / "chunks")]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ValueError"
    assert str(sidecar) in err["message"]
    assert "entry 'b.txt' names no file" in err["message"]
    assert "2 of 4 entries unmatched" in err["message"]


def test_bad_manifest_sidecar_named_with_doc_id_and_key(workspace, tmp_path, capsys):
    sidecar = tmp_path / "sidecar.json"
    doc_id = workspace["doc_ids"][0]
    cases = [(["a"], "not a JSON object"),
             ({doc_id: {"title": 5}}, f"entry {doc_id!r}: key 'title'"),
             ({doc_id: {"extra": {"court": 3}}}, f"entry {doc_id!r}: key 'extra'")]
    for i, (content, named) in enumerate(cases):
        sidecar.write_text(json.dumps(content), encoding="utf-8")
        assert run(["chunk", "--root", str(workspace["root"]), "--manifest", str(sidecar),
                    "--out", str(tmp_path / f"chunks{i}")]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ValueError", content
        assert str(sidecar) in err["message"] and named in err["message"], content


def test_hostile_corpus_fails_cleanly_or_not_at_all(tmp_path, capsys):
    """chunk -> enrich -> index -> retrieve over files a careless loader trips on."""
    root = tmp_path / "corpus"
    root.mkdir()
    (root / "empty.txt").write_bytes(b"")
    (root / "blank.txt").write_text(" \n\t \r\n  \n", encoding="utf-8")
    (root / "one_token.txt").write_text("x" * 1_000_000, encoding="utf-8")
    (root / "odd_chars.txt").write_text(
        "Clause 1\x00 binds the parties. \U0001d518\U0001d52b\U0001d526 \U0001f600 "
        "applies\x00\x00 here.\n\nClause 2 \U00010348 follows.", encoding="utf-8")
    (root / "bad_utf8.txt").write_bytes(b"Clause 3 \xff\xfe applies \xc3\x28 today.")
    qa_path = tmp_path / "qa.json"
    qa_path.write_text(json.dumps([{"query": "which clause binds the parties?", "snippets": [
        {"file_path": "odd_chars.txt", "span": [0, 8], "answer": "Clause 1"}]}]),
        encoding="utf-8")
    steps = [
        ["chunk", "--root", str(root), "--out", str(tmp_path / "chunks")],
        ["enrich", "--root", str(root), "--chunks", str(tmp_path / "chunks" / "chunks.jsonl"),
         "--out", str(tmp_path / "enriched")],
        ["index", "--chunks", str(tmp_path / "enriched" / "enriched.jsonl"), "--dim", "64",
         "--out", str(tmp_path / "index")],
        ["retrieve", "--index", str(tmp_path / "index"), "--qa", str(qa_path),
         "--out", str(tmp_path / "retrieved")],
    ]
    for argv in steps:
        code = run(argv)
        out, err = capsys.readouterr()
        assert "Traceback" not in out + err, argv[0]
        assert code in (0, 1), argv[0]
        if code == 1:
            assert set(json.loads(err.strip())) == {"error", "message"}, argv[0]


_NO_DATASET = json.dumps({"variant": "baseline", "ks": [1], "per_k": {}, "per_query": {}})
_HEADER = {"format_version": INDEX_FORMAT_VERSION, "embedder_backend": "deterministic-test"}
_NO_FILES = json.dumps(_HEADER)
_FILES_LIST = json.dumps({**_HEADER, "sha256": ["index.npz", "chunks.jsonl"]})
_NO_SHA = json.dumps({**_HEADER, "sha256": {"index.npz": "0" * 64}})
_SHA_NUMBER = json.dumps({**_HEADER, "sha256": {"index.npz": 7, "chunks.jsonl": "0" * 64}})
_NO_FILE_LISTED = ": key 'sha256' gives no string for "
_TRUNCATED = ", line 2: not valid JSON"
_NOT_UTF8 = b'{"top": 4,\n "dataset": "caf\xe9"}\n'  # Latin-1, not UTF-8


@pytest.mark.parametrize("target,command,content,problem", [
    pytest.param("config", "report", '{"top": 4,\n', _TRUNCATED, id="config-truncated"),
    pytest.param("config", "report", "[4]", ": not a JSON object", id="config-array"),
    pytest.param("sidecar", "chunk", '{"a.txt": {},\n', _TRUNCATED, id="sidecar-truncated"),
    pytest.param("sidecar", "chunk", '"a.txt"', ": not a JSON object", id="sidecar-string"),
    pytest.param("snippet_qa", "retrieve", '[{"query": "q"},\n', _TRUNCATED,
                 id="snippet_qa-truncated"),
    pytest.param("snippet_qa", "retrieve", '{"query": "q"}', ": not a JSON array",
                 id="snippet_qa-object"),
    # an aus_legal_qa file opening with "[" is the array form, any other is JSON lines
    pytest.param("aus_legal_qa", "retrieve", '[{"Question": "q"},\n', _TRUNCATED,
                 id="aus_legal_qa-truncated"),
    pytest.param("metric_report", "compare", '{"ks": [1],\n', _TRUNCATED,
                 id="compare-truncated"),
    pytest.param("metric_report", "compare", "[]", ": not a JSON object", id="compare-array"),
    pytest.param("metric_report", "compare", _NO_DATASET, ": key 'dataset' is missing",
                 id="compare-no-dataset"),
    pytest.param("metric_report", "report", '{"ks": [1],\n', _TRUNCATED,
                 id="report-truncated"),
    pytest.param("metric_report", "report", "[]", ": not a JSON object", id="report-array"),
    pytest.param("metric_report", "report", _NO_DATASET, ": key 'dataset' is missing",
                 id="report-no-dataset"),
    pytest.param("index_meta", "retrieve", '{"dim": 128,\n', _TRUNCATED,
                 id="index_meta-truncated"),
    pytest.param("index_meta", "retrieve", "[]", ": not a JSON object", id="index_meta-array"),
    pytest.param("index_meta", "retrieve", _NO_FILES, _NO_FILE_LISTED + "index.npz",
                 id="index_meta-no-files"),
    pytest.param("index_meta", "retrieve", _FILES_LIST, _NO_FILE_LISTED + "index.npz",
                 id="index_meta-files-list"),
    pytest.param("index_meta", "retrieve", _NO_SHA, _NO_FILE_LISTED + "chunks.jsonl",
                 id="index_meta-no-sha256"),
    pytest.param("index_meta", "retrieve", _SHA_NUMBER, _NO_FILE_LISTED + "index.npz",
                 id="index_meta-sha256-number"),
    pytest.param("config", "report", b"\xff" + _NOT_UTF8, ", line 1: not UTF-8 text (byte 0xff)",
                 id="config-not-utf8"),
    pytest.param("sidecar", "chunk", _NOT_UTF8, ", line 2: not UTF-8 text (byte 0xe9)",
                 id="sidecar-not-utf8"),
    pytest.param("snippet_qa", "retrieve", _NOT_UTF8, ", line 2: not UTF-8 text (byte 0xe9)",
                 id="snippet_qa-not-utf8"),
    pytest.param("aus_legal_qa", "retrieve", _NOT_UTF8, ", line 2: not UTF-8 text (byte 0xe9)",
                 id="aus_legal_qa-not-utf8"),
    pytest.param("metric_report", "compare", _NOT_UTF8, ", line 2: not UTF-8 text (byte 0xe9)",
                 id="compare-not-utf8"),
    pytest.param("index_meta", "retrieve", _NOT_UTF8, ", line 2: not UTF-8 text (byte 0xe9)",
                 id="index_meta-not-utf8"),
])
def test_bad_whole_file_json_input_named_with_its_path(
        built_pipeline, tmp_path, capsys, target, command, content, problem):
    """Each whole-file JSON input, truncated, not UTF-8, of the wrong top-level
    type or missing a key, fails with a ValueError naming the file."""
    index_dir = built_pipeline["index_enhanced"]
    if target == "index_meta":
        index_dir = tmp_path / "index"
        shutil.copytree(built_pipeline["index_enhanced"], index_dir)
        path = index_dir / "index_meta.json"
    else:
        path = tmp_path / f"{target}.json"
    path.write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
    qa = ["--qa", str(built_pipeline["qa"])]
    if target in ("snippet_qa", "aus_legal_qa"):
        qa = ["--qa", str(path), "--format", target]
    argv = {
        "report": ["report", "--report", str(path)],
        "compare": ["compare", "--baseline", str(path), "--enhanced", str(path)],
        "chunk": ["chunk", "--root", str(built_pipeline["root"]), "--manifest", str(path)],
        "retrieve": ["retrieve", "--index", str(index_dir), *qa],
    }[command]
    if target == "config":
        argv += ["--config", str(path)]
    out = tmp_path / "out"
    assert run([*argv, "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ValueError"
    assert f"{path}{problem}" in err["message"]
    assert not any(out.glob("*"))


def _hand_written_report(metric: str, k: str | None, value) -> dict:
    """A two-k, four-query metric report whose query-q2 value of ``metric`` at
    ``k`` is ``value``, or absent when ``value`` is ``...``; ``k`` None drops the
    metric from q2 altogether."""
    per_query = {f"q{i}": {"drm": {"1": i / 4, "4": 0.25}, "span_recall": {"1": 1.0, "4": i + 0.5}}
                 for i in range(4)}
    if k is None:
        del per_query["q2"][metric]
    elif value is ...:
        del per_query["q2"][metric][k]
    elif value is not None:
        per_query["q2"][metric][k] = value
    return {"dataset": "hand", "variant": "baseline", "ks": [1, 4], "per_k": _PER_K,
            "per_query": per_query}


_PER_K = {k: {"drm_mean": 0.5, "drm_ci": [0.0, 1.0], "span_recall_mean": 2.0,
              "span_recall_ci": [0.5, 3.5]} for k in ("1", "4")}


@pytest.mark.parametrize("command", ["compare", "report"])
@pytest.mark.parametrize("metric,k,value,problem", [
    ("drm", "4", None, None),  # the report as written is valid
    ("drm", "4", math.nan, ", metric 'drm': key '4' must be a number in [0, 1], not nan"),
    ("span_recall", "1", math.inf, ", metric 'span_recall': key '1' must be a finite number "
                                   ">= 0, not inf"),
    ("span_recall", "4", "x", ", metric 'span_recall': key '4' must be a finite number >= 0, "
                              "not 'x'"),
    ("drm", "1", True, ", metric 'drm': key '1' must be a number in [0, 1], not True"),
    ("drm", "4", ..., ", metric 'drm': key '4' is missing"),
    ("drm", "4", 1.5, ", metric 'drm': key '4' must be a number in [0, 1], not 1.5"),
    ("span_recall", "4", -0.5, ", metric 'span_recall': key '4' must be a finite number >= 0, "
                               "not -0.5"),
    ("span_recall", "8", 1.0, ", metric 'span_recall': key '8' is not one of the report's ks "
                              "[1, 4]"),
    ("span_recall", None, None, ": key 'span_recall' is missing"),
], ids=["drm-4-None-None",
        "drm-4-nan-'drm', k=4: value must be a finite number, not nan",
        "span_recall-1-inf-'span_recall', k=1: value must be a finite number, not inf",
        "span_recall-4-x-'span_recall', k=4: value must be a finite number, not 'x'",
        "drm-1-True-'drm', k=1: value must be a finite number, not True",
        "drm-4-value5-'drm', k=4: value is missing",
        "drm-4-1.5-'drm', k=4: value must be in [0, 1], not 1.5",
        "span_recall-4--0.5-'span_recall', k=4: value must be >= 0, not -0.5",
        "span_recall-8-1.0-'span_recall', k=8 is not one of the report's ks [1, 4]",
        "span_recall-None-None-'span_recall' is missing"])
def test_metric_report_value_named_with_query_metric_and_k(tmp_path, capsys, command,
                                                           metric, k, value, problem):
    path = tmp_path / "metric_report.json"
    path.write_text(json.dumps(_hand_written_report(metric, k, value)), encoding="utf-8")
    argv = {"compare": ["compare", "--baseline", str(path), "--enhanced", str(path),
                        "--bootstrap-iterations", "20", "--out", str(tmp_path / "out")],
            "report": ["report", "--report", str(path)]}[command]
    if problem is None:
        assert run(argv) == 0
        return
    assert run(argv) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ValueError"
    assert err["message"] == f"{path}: query 'q2'{problem}"


def _per_k_with(k: str, key: str | None, value) -> dict:
    """``_PER_K`` with ``per_k[k][key]`` set to ``value`` (deleted when ``...``), or,
    where ``key`` is None, ``per_k[k]`` itself (deleted when ``...``)."""
    per_k = {name: dict(entry) for name, entry in _PER_K.items()}
    target, name = (per_k, k) if key is None else (per_k.setdefault(k, {}), key)
    if value is ...:
        del target[name]
    else:
        target[name] = value
    return per_k


@pytest.mark.parametrize("command", ["compare", "report"])
@pytest.mark.parametrize("k,key,value,problem", [
    ("1", "drm_mean", None, None),  # no mean to render: the cell reads n/a
    ("x", None, {}, ": key 'x' is not one of the report's ks [1, 4]"),
    ("4", None, ..., ": key '4' is missing"),
    ("1", None, "s", ": key '1' must be an object, not 's'"),
    ("1", "drm_ci", 3, ", k=1: key 'drm_ci' must be two finite numbers, not 3"),
    ("4", "span_recall_ci", [0.5], ", k=4: key 'span_recall_ci' must be two finite numbers, "
                                   "not [0.5]"),
    ("1", "drm_ci", [0, math.inf], ", k=1: key 'drm_ci' must be two finite numbers, "
                                   "not [0, inf]"),
    ("1", "drm_mean", "0.5", ", k=1: key 'drm_mean' must be null or a finite number, "
                             "not '0.5'"),
    ("4", "span_recall_mean", True, ", k=4: key 'span_recall_mean' must be null or a finite "
                                    "number, not True"),
    ("4", "span_recall_mean", ..., None),  # absent is null
    ("4", "span_recall_ci", ..., ", k=4: key 'span_recall_ci' is missing"),
], ids=["mean-null", "k-not-in-ks", "k-missing", "entry-string", "ci-int", "ci-one-value",
        "ci-inf", "mean-string", "mean-true", "mean-absent", "ci-absent"])
def test_metric_report_per_k_named_with_k_and_key(tmp_path, capsys, command, k, key, value,
                                                  problem):
    """A per-k entry that the table cannot render fails with the file, k and key,
    not with a bare TypeError or AttributeError from the renderer."""
    path = tmp_path / "metric_report.json"
    report = {**_hand_written_report("drm", "4", None), "per_k": _per_k_with(k, key, value)}
    path.write_text(json.dumps(report), encoding="utf-8")
    argv = {"compare": ["compare", "--baseline", str(path), "--enhanced", str(path),
                        "--bootstrap-iterations", "20", "--out", str(tmp_path / "out")],
            "report": ["report", "--report", str(path)]}[command]
    if problem is None:
        assert run(argv) == 0
        return
    assert run(argv) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err == {"error": "ValueError", "message": f"{path}: per_k{problem}"}


@pytest.mark.parametrize("command", ["compare", "report"])
@pytest.mark.parametrize("key,value,problem", [
    ("excluded", [{"query_id": "q9", "reason": "no gold spans"}], None),
    ("excluded", 5, "key 'excluded' must be a list of objects, not 5"),
    ("excluded", ["q9"], "key 'excluded' must be a list of objects, not ['q9']"),
    ("dataset", ["x"], "key 'dataset' must be a string, not ['x']"),
    ("variant", 3, "key 'variant' must be a string, not 3"),
    ("variant", None, "key 'variant' must be a string, not None"),
    ("bootstrap_iterations", "many", "key 'bootstrap_iterations' must be an integer >= 1, "
                                     "not 'many'"),
    ("bootstrap_iterations", 0, "key 'bootstrap_iterations' must be an integer >= 1, not 0"),
    ("bootstrap_seed", -1, "key 'bootstrap_seed' must be an integer in [0, 2**64), not -1"),
], ids=["excluded-listed", "excluded-int", "excluded-strings", "dataset-list", "variant-int",
        "variant-null", "iterations-string", "iterations-0", "seed-negative"])
def test_metric_report_header_keys_named_with_file_and_key(tmp_path, capsys, command, key,
                                                          value, problem):
    """A report's excluded list, dataset, variant and bootstrap settings are checked
    as it loads, so a wrong type fails with the file and key, not a bare TypeError
    or a list printed as a dataset name."""
    path = tmp_path / "metric_report.json"
    report = {**_hand_written_report("drm", "4", None), key: value}
    path.write_text(json.dumps(report), encoding="utf-8")
    argv = {"compare": ["compare", "--baseline", str(path), "--enhanced", str(path),
                        "--bootstrap-iterations", "20", "--out", str(tmp_path / "out")],
            "report": ["report", "--report", str(path)]}[command]
    if problem is None:
        assert run(argv) == 0
        return
    assert run(argv) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err == {"error": "ValueError", "message": f"{path}: {problem}"}


@pytest.mark.parametrize("command", ["compare", "report"])
@pytest.mark.parametrize("ks", [[0, 1, 4], [1, 1, 4], [4, 1]],
                         ids=["k-zero", "k-repeated", "k-descending"])
def test_metric_report_ks_not_as_sweep_writes_them_named(tmp_path, capsys, command, ks):
    """ks are distinct integers >= 1 in ascending order, as sweep writes them. A k=0
    with its entries once loaded, so compare tested an empty prefix and counted it
    in Bonferroni's m; a repeated k printed its column twice."""
    report = json.loads(json.dumps(_hand_written_report("drm", "4", None)))
    for by_k in [report["per_k"], *(by_k for metrics in report["per_query"].values()
                                    for by_k in metrics.values())]:
        by_k["0"] = by_k["1"]
    report["ks"] = ks
    path = tmp_path / "metric_report.json"
    path.write_text(json.dumps(report), encoding="utf-8")
    argv = {"compare": ["compare", "--baseline", str(path), "--enhanced", str(path),
                        "--bootstrap-iterations", "20", "--out", str(tmp_path / "out")],
            "report": ["report", "--report", str(path)]}[command]
    assert run(argv) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err == {"error": "ValueError", "message": f"{path}: key 'ks' must be distinct "
                                                     f"integers >= 1 in ascending order, "
                                                     f"not {ks}"}


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["frobnicate"])
    assert exc_info.value.code == 2


def test_help_lists_every_command_and_each_commands_flags(capsys):
    # main adds flags only to the subcommand it parses
    with pytest.raises(SystemExit) as exc_info:
        main(["--help"])
    assert exc_info.value.code == 0
    listed = capsys.readouterr().out
    for name, command in COMMANDS.items():
        assert f"    {name} " in listed and command.help in listed
        with pytest.raises(SystemExit) as exc_info:
            main([name, "--help"])
        assert exc_info.value.code == 0
        flags = capsys.readouterr().out
        assert all(f"--{s.key.replace('_', '-')} " in flags
                   for s in command.settings if s.flag), name


def test_failure_emits_error_json(tmp_path, capsys):
    code = run(["chunk", "--root", str(tmp_path / "missing"), "--out", str(tmp_path)])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "FileNotFoundError"
    assert "missing" in err["message"]


def test_config_with_missing_path_rejected(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"qa": str(tmp_path / "nope.json")}),
                           encoding="utf-8")
    code = run(["report", "--report", str(tmp_path / "irrelevant.json"),
                "--config", str(config_path)])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "FileNotFoundError"
    assert "nope.json" in err["message"]


def test_config_file_supplies_defaults(tmp_path, workspace):
    config = {"target": 48, "overlap": 10, "root": str(workspace["root"])}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    out_dir = tmp_path / "chunks"
    code = run(["chunk", "--root", str(workspace["root"]),
                "--config", str(config_path), "--out", str(out_dir)])
    assert code == 0
    rows = [json.loads(l) for l in (out_dir / "chunks.jsonl").read_text().splitlines()]
    from lexrag.chunker import count_tokens
    assert all(count_tokens(r["text"]) <= 48 for r in rows)


def test_manifest_records_config_file_values(tmp_path, workspace):
    """Each run is a fresh `lexrag` process: by default it pins BLAS to one thread,
    and a caller's OPENBLAS_NUM_THREADS is kept and recorded. `chunk` never loads
    numpy, so the manifest records no numpy version."""
    manifests = []
    for target, blas_threads in ((48, None), (64, "2")):
        config_path = tmp_path / f"config_{target}.json"
        config_path.write_text(json.dumps({"target": target, "overlap": 10}), encoding="utf-8")
        out_dir = tmp_path / f"chunks_{target}"
        subprocess.run([sys.executable, "-m", "lexrag.cli", "chunk",
                        "--root", str(workspace["root"]), "--config", str(config_path),
                        "--out", str(out_dir)],
                       env=child_env(blas_threads), check=True, capture_output=True)
        manifest = json.loads((out_dir / "run_manifest.json").read_text())
        assert manifest["config"]["target"] == target
        assert manifest["inputs"][str(config_path)] == sha256_file(config_path)
        assert manifest["environment"] == {
            "python": platform.python_version(), "numpy": None,
            "OPENBLAS_NUM_THREADS": blas_threads or "1", "OPENBLAS_NUM_THREADS_in_effect": True}
        manifests.append(manifest)
    assert manifests[0]["config_sha256"] != manifests[1]["config_sha256"]


def test_flag_overrides_config_file_value(tmp_path, workspace):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"target": 64, "overlap": 10}), encoding="utf-8")
    out_dir = tmp_path / "chunks"
    assert run(["chunk", "--root", str(workspace["root"]), "--target", "32",
                "--config", str(config_path), "--out", str(out_dir)]) == 0
    manifest = json.loads((out_dir / "run_manifest.json").read_text())
    assert manifest["config"]["target"] == 32
    assert "config" not in manifest["config"]


def test_equal_chunk_runs_hash_equally(tmp_path, workspace):
    """A default, the same value as a flag and the same value in a config file."""
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"target": 256}), encoding="utf-8")
    out_dir = tmp_path / "chunks"
    manifests = []
    for extra in ([], ["--target", "256"], ["--config", str(config_path)]):
        assert run(["chunk", "--root", str(workspace["root"]), *extra,
                    "--out", str(out_dir)]) == 0
        manifests.append(json.loads((out_dir / "run_manifest.json").read_text()))
    assert manifests[0]["config"]["target"] == 256
    assert [m["config"] for m in manifests[1:]] == [manifests[0]["config"]] * 2
    assert len({m["config_sha256"] for m in manifests}) == 1
    assert str(config_path) in manifests[2]["inputs"]
    # a manifest's config, fed back as the config file, reproduces itself
    config_path.write_text(json.dumps(manifests[0]["config"]), encoding="utf-8")
    assert run(["chunk", "--root", str(workspace["root"]), "--config", str(config_path)]) == 0
    replayed = json.loads((out_dir / "run_manifest.json").read_text())
    assert replayed["config_sha256"] == manifests[0]["config_sha256"]


def test_manifest_config_replays_a_run_with_required_settings(built_pipeline, tmp_path):
    """retrieve's required --index and --qa may come from the config file alone."""
    out_dir = tmp_path / "retrieved"
    assert _retrieve_from(built_pipeline["index_enhanced"], built_pipeline, out_dir) == 0
    first = (out_dir / "results.jsonl").read_bytes()
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(json.loads(
        (out_dir / "run_manifest.json").read_text())["config"]), encoding="utf-8")
    (out_dir / "results.jsonl").unlink()
    assert run(["retrieve", "--config", str(config_path)]) == 0
    assert (out_dir / "results.jsonl").read_bytes() == first


def test_required_setting_missing_from_flags_and_config_exits_2(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"k": 5, "index": None}), encoding="utf-8")
    with pytest.raises(SystemExit) as exc_info:
        main(["retrieve", "--config", str(config_path), "--out", str(tmp_path / "out")])
    assert exc_info.value.code == 2
    assert ("lexrag retrieve: error: the following arguments are required: --index, --qa"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_manifest_config_leaves_out_keys_the_command_does_not_read(tmp_path, workspace):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"alpha": 0.5, "variant": "enhanced"}), encoding="utf-8")
    out_dir = tmp_path / "chunks"
    assert run(["chunk", "--root", str(workspace["root"]), "--config", str(config_path),
                "--out", str(out_dir)]) == 0
    manifest = json.loads((out_dir / "run_manifest.json").read_text())
    assert "alpha" not in manifest["config"] and "variant" not in manifest["config"]
    assert manifest["inputs"][str(config_path)] == sha256_file(config_path)


@pytest.mark.parametrize("command,key,value", [
    ("enrich", "stride", 1), ("align-spans", "shingle_size", 3), ("align-spans", "slack", 0.3),
    ("enrich", "max_fraction", 0.25), ("index", "k1", 1.2), ("index", "b", 0.75),
    ("enrich", "window", 4), ("align-spans", "min_score", 0.6), ("retrieve", "pool", 0),
    ("eval-retrieval", "pool", 0)])
def test_fixed_settings_are_unknown_flags_and_ignored_config_keys(
        built_pipeline, tmp_path, capsys, command, key, value):
    # enrichment's window, stride and header share, the aligner's shingle width,
    # slack and threshold, the fusion's dense pool and BM25's k1 and b are
    # constants: a flag naming one is a usage error, and a run manifest's config
    # holding the value every run used replays to the same bytes
    if command == "enrich":
        inputs = ["--root", str(built_pipeline["root"]), "--manifest",
                  str(built_pipeline["manifest"]),
                  "--chunks", str(built_pipeline["chunks"] / "chunks.jsonl")]
    elif command == "index":
        inputs = ["--chunks", str(built_pipeline["chunks"] / "chunks.jsonl"), "--dim", "16"]
    elif command in ("retrieve", "eval-retrieval"):
        inputs = ["--index", str(built_pipeline["index_baseline"]),
                  "--qa", str(built_pipeline["qa"])]
        if command == "eval-retrieval":
            inputs += ["--k", "1,4", "--bootstrap-iterations", "50"]
    else:
        root, qa_path = build_aus_corpus(tmp_path / "aus", n_records=6, n_docs=3, seed=1)
        inputs = ["--root", str(root), "--qa", str(qa_path)]
    with pytest.raises(SystemExit) as exc_info:
        main([command, *inputs, f"--{key.replace('_', '-')}", str(value),
              "--out", str(tmp_path / "flag")])
    assert exc_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert run([command, *inputs, "--out", str(tmp_path / "plain")]) == 0
    config = json.loads((tmp_path / "plain" / "run_manifest.json").read_text())["config"]
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({**config, key: value}), encoding="utf-8")
    assert run([command, *inputs, "--config", str(config_path),
                "--out", str(tmp_path / "replayed")]) == 0
    replayed = json.loads((tmp_path / "replayed" / "run_manifest.json").read_text())
    assert key not in replayed["config"]
    written = [{p.name: p.read_bytes() for p in (tmp_path / out).iterdir()
                if p.name != "run_manifest.json"} for out in ("plain", "replayed")]
    assert written[0] and written[0] == written[1]


@pytest.mark.parametrize("command,config,key", [
    ("chunk", {"target": True, "overlap": 0}, "target"),
    ("chunk", {"target": 64.5}, "target"),
    ("retrieve", {"alpha": "0.5"}, "alpha"),
    ("eval-retrieval", {"variant": "nonsense"}, "variant"),
    ("eval-retrieval", {"k": 8}, "k"),
])
def test_bad_config_value_rejected_naming_its_key(
        built_pipeline, tmp_path, capsys, command, config, key):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    if command == "chunk":
        inputs = ["--root", str(built_pipeline["root"])]
    else:
        inputs = ["--index", str(built_pipeline["index_baseline"]),
                  "--qa", str(built_pipeline["qa"])]
    out_dir = tmp_path / "out"
    assert run([command, *inputs, "--config", str(config_path), "--out", str(out_dir)]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ValueError"
    assert f"config key {key!r}" in err["message"]
    assert not out_dir.exists()


def test_seed_is_a_usage_error_where_nothing_is_seeded(tmp_path, workspace):
    with pytest.raises(SystemExit) as exc_info:
        main(["chunk", "--root", str(workspace["root"]), "--seed", "1",
              "--out", str(tmp_path / "chunks")])
    assert exc_info.value.code == 2


def _pipeline_once(base: Path, root, manifest, qa) -> dict[str, bytes]:
    for step in (
        ["chunk", "--root", str(root), "--manifest", str(manifest),
         "--target", "48", "--overlap", "10", "--out", str(base / "chunks")],
        ["enrich", "--root", str(root), "--manifest", str(manifest),
         "--chunks", str(base / "chunks" / "chunks.jsonl"),
         "--summarizer", "extractive", "--out", str(base / "enriched")],
        ["index", "--chunks", str(base / "enriched" / "enriched.jsonl"),
         "--embedder", "deterministic", "--dim", "128", "--out", str(base / "index")],
        ["retrieve", "--index", str(base / "index"), "--qa", str(qa),
         "--format", "snippet_qa", "--top", "4", "--out", str(base / "retrieved")],
        ["eval-retrieval", "--index", str(base / "index"), "--qa", str(qa),
         "--format", "snippet_qa", "--k", "1,2,4", "--seed", "0",
         "--bootstrap-iterations", "200", "--out", str(base / "eval")],
    ):
        assert run(step) == 0
    return {
        str(p.relative_to(base)): p.read_bytes()
        for p in sorted(base.rglob("*"))
        if p.is_file() and p.name != "run_manifest.json"
    }


def test_pipeline_byte_identical_across_runs(tmp_path, workspace):
    run_a = _pipeline_once(tmp_path / "a", workspace["root"], workspace["manifest"],
                           workspace["qa"])
    run_b = _pipeline_once(tmp_path / "b", workspace["root"], workspace["manifest"],
                           workspace["qa"])
    assert run_a.keys() == run_b.keys()
    for name in run_a:
        assert run_a[name] == run_b[name], f"{name} differs between identical runs"
