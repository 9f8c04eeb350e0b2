import hashlib
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from lexrag.chunker import dump_chunks, load_chunks
from lexrag.cli import main
from lexrag.index import sha256_file
from lexrag.preference import REFUSAL_STRING
from tests.conftest import write_jsonl
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


def test_index_directory_self_contained(built_pipeline):
    index_dir = built_pipeline["index_baseline"]
    meta = json.loads((index_dir / "index_meta.json").read_text())
    assert meta["embedder_backend"] == "deterministic-test"
    assert meta["dim"] == 128
    assert (index_dir / "chunks.jsonl").exists()
    assert (index_dir / "sparse.npz").exists()
    assert (index_dir / "dense.npz").exists()


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
    sparse_path = index_dir / "sparse.npz"
    payload = np.array([_CreatesFileWhenUnpickled(sentinel)], dtype=object)
    with np.load(sparse_path) as data:
        names = data.files
    np.savez(sparse_path, **{name: payload for name in names})
    meta_path = index_dir / "index_meta.json"
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    meta["files"]["sparse"]["sha256"] = sha256_file(sparse_path)
    meta_path.write_text(json.dumps(meta), encoding="utf-8")

    assert _retrieve_from(index_dir, built_pipeline, tmp_path / "out") == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ValueError"
    assert not sentinel.exists()
    # the payload is live: a loader that unpickles would have run it
    with np.load(sparse_path, allow_pickle=True) as data:
        data[names[0]]
    assert sentinel.exists()


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


def test_index_with_mismatched_chunk_id_lists_rejected(built_pipeline, tmp_path, capsys):
    index_dir = tmp_path / "index"
    shutil.copytree(built_pipeline["index_enhanced"], index_dir)
    dense_path = index_dir / "dense.npz"
    with np.load(dense_path) as data:
        arrays = {name: data[name] for name in data.files}
    blob = arrays["chunk_id_bytes"].tobytes()
    bounds = arrays["chunk_id_offsets"].tolist()
    ids = [blob[lo:hi] for lo, hi in zip(bounds, bounds[1:])][::-1]
    arrays["chunk_id_bytes"] = np.frombuffer(b"".join(ids), dtype=np.uint8)
    arrays["chunk_id_offsets"] = np.cumsum([0] + [len(i) for i in ids]).astype(np.int64)
    np.savez_compressed(dense_path, **arrays)
    meta_path = index_dir / "index_meta.json"
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    meta["files"]["dense"]["sha256"] = sha256_file(dense_path)
    meta_path.write_text(json.dumps(meta), encoding="utf-8")

    assert _retrieve_from(index_dir, built_pipeline, tmp_path / "out") == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ValueError"
    assert "different chunk ids" in err["message"]


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


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["frobnicate"])
    assert exc_info.value.code == 2


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
    manifests = []
    for target in (48, 64):
        config_path = tmp_path / f"config_{target}.json"
        config_path.write_text(json.dumps({"target": target, "overlap": 10}), encoding="utf-8")
        out_dir = tmp_path / f"chunks_{target}"
        assert run(["chunk", "--root", str(workspace["root"]),
                    "--config", str(config_path), "--out", str(out_dir)]) == 0
        manifest = json.loads((out_dir / "run_manifest.json").read_text())
        assert manifest["config"]["target"] == target
        assert manifest["inputs"][str(config_path)] == sha256_file(config_path)
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
