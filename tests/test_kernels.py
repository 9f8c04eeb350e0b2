"""The numeric kernels (token hashing, BM25 accumulation, resample means)
against plain-Python loop references."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from lexrag import kernels, stats
from lexrag.index import B, K1, SparseIndex, bm25_score_array
from tests.conftest import child_env


def _token_blob(tokens: list[str]) -> tuple[bytes, np.ndarray]:
    blob = b"".join(t.encode("utf-8") for t in tokens)
    offsets = np.zeros(len(tokens) + 1, dtype=np.int64)
    np.cumsum([len(t.encode("utf-8")) for t in tokens], out=offsets[1:])
    return blob, offsets


def reference_hash_tokens(tokens: list[str], dim: int) -> tuple[list[int], list[float]]:
    """FNV-1a one token and one byte at a time over Python ints masked to 64 bits: the
    loop ``kernels.hash_tokens`` ran before it hashed whole batches."""
    buckets, signs = [], []
    for t in tokens:
        h1 = 0xCBF29CE484222325
        h2 = 0x84222325CBF29CE4
        for byte in t.encode("utf-8"):
            h1 = ((h1 ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
            h2 = ((h2 ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        buckets.append(h1 % dim)
        signs.append(1.0 if (h2 & 1) == 0 else -1.0)
    return buckets, signs


def test_hash_tokens_matches_python_fnv_reference():
    rng = np.random.default_rng(7)
    random_tokens = ["".join(chr(97 + int(rng.integers(0, 26))) for _ in range(int(rng.integers(1, 14))))
                     for _ in range(500)]
    multibyte = ["éclair", "straße", "§", "数据", "žluťoučký", "🙂ok", "ü" * 40]
    tokens = ["hello", "world", "a", "jurisdiction", "nsw", "", *multibyte, *random_tokens]
    for dim in (64, 256, 1000):
        blob, offsets = _token_blob(tokens)
        buckets, signs = kernels.hash_tokens(blob, offsets, dim)
        assert buckets.dtype == np.int64 and signs.dtype == np.float64
        assert buckets.shape == signs.shape == (len(tokens),)
        assert (buckets.tolist(), signs.tolist()) == reference_hash_tokens(tokens, dim)


def test_hash_tokens_whole_batch_matches_reference_at_every_length():
    # lengths 0-300 in shuffled order, repeats included: the batch is hashed longest
    # first, and each token must still get its own hash in its own place
    rng = np.random.default_rng(8)
    alphabet = list("abcdefghijklmnopqrstuvwxyzäß数")
    tokens = ["".join(rng.choice(alphabet, size=int(n))) for n in rng.integers(0, 301, 400)]
    tokens += tokens[:50]
    blob, offsets = _token_blob(tokens)
    buckets, signs = kernels.hash_tokens(blob, offsets, 97)
    assert (buckets.tolist(), signs.tolist()) == reference_hash_tokens(tokens, 97)


def test_hash_tokens_empty_batch():
    buckets, signs = kernels.hash_tokens(b"", np.zeros(1, dtype=np.int64), 64)
    assert buckets.shape == signs.shape == (0,)


def test_bm25_score_array_bitwise_matches_posting_loop():
    rng = np.random.default_rng(11)
    n_chunks, n_terms = 80, 40
    terms = sorted(f"t{i}" for i in range(n_terms))
    rows = [np.sort(rng.choice(n_chunks, int(rng.integers(1, n_chunks)), replace=False))
            for _ in terms]
    offsets = np.cumsum([0] + [len(r) for r in rows]).astype(np.int64)
    refs = np.concatenate(rows).astype(np.int64)
    tfs = rng.integers(1, 12, refs.shape[0]).astype(np.float64)
    index = SparseIndex(terms=terms, offsets=offsets, refs=refs, tfs=tfs,
                        chunk_ids=[f"doc#{i:03d}" for i in range(n_chunks)])
    doc_lengths = [0.0] * n_chunks
    for r, tf in zip(refs, tfs):
        doc_lengths[r] += tf
    avg_len = sum(doc_lengths) / n_chunks
    query = "t3 T7 t3 unseen t19 t0 t3"
    got = bm25_score_array(index, query)

    expected = np.zeros(n_chunks)
    for term in ["t3", "t7", "t3", "t19", "t0", "t3"]:
        lo, hi = offsets[terms.index(term)], offsets[terms.index(term) + 1]
        n_t = hi - lo
        idf = math.log((n_chunks - n_t + 0.5) / (n_t + 0.5) + 1.0)
        for r, tf in zip(refs[lo:hi], tfs[lo:hi]):
            norm = K1 * (1.0 - B + B * (doc_lengths[r] / avg_len))
            expected[r] += idf * tf * (K1 + 1.0) / (tf + norm)
    assert got.shape == (n_chunks,)
    assert np.count_nonzero(got) > n_chunks // 2
    assert np.array_equal(got, expected)


def test_shared_bootstrap_means_match_loop_reference():
    rng = np.random.default_rng(19)
    values = rng.random((2, 30))
    # a full block and a partial one, each index from the stdlib form of the stream
    iterations, seed = stats._BLOCK_DRAWS // 30 + 52, 3
    got = stats.shared_bootstrap_means(values, iterations, seed)

    idx = [[stats.draw_below(seed, b * 30 + j, 30) for j in range(30)]
           for b in range(iterations)]
    expected = np.array([[sum(float(row_values[j]) for j in row) / len(row) for row in idx]
                         for row_values in values])
    assert got.shape == (2, iterations)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


def _python(code: str, blas_threads: str | None = None) -> list[str]:
    """The stdout lines of ``python -c code`` in a fresh process (see ``child_env``)."""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=child_env(blas_threads))
    return out.stdout.split("\n")


def test_cli_import_pins_blas_to_one_thread():
    # OpenBLAS starts its worker pool when numpy loads; pinned, the process keeps
    # its one thread
    code = ("import os; import lexrag.cli; print(os.environ['OPENBLAS_NUM_THREADS']); "
            "task = '/proc/self/task'; "
            "print(len(os.listdir(task)) if os.path.isdir(task) else 'no ' + task)")
    value, tasks = _python(code)[:2]
    assert value == "1"
    if tasks.startswith("no "):
        pytest.skip(f"{tasks[3:]} is absent; cannot count this process's threads")
    assert tasks == "1"


def test_callers_blas_thread_count_wins():
    code = "import os; import lexrag.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _python(code, blas_threads="2")[0] == "2"


@pytest.mark.parametrize("imports,in_effect", [("lexrag.cli", True),
                                               ("numpy, lexrag.cli", False)])
def test_manifest_records_whether_the_blas_pin_took_effect(tmp_path, imports, in_effect):
    """A process that loads numpy before lexrag.cli keeps the BLAS pool numpy started;
    its run manifest says the variable was not in effect."""
    root, out = tmp_path / "docs", tmp_path / "out"
    root.mkdir()
    (root / "a.txt").write_text("Some words here.", encoding="utf-8")
    argv = ["chunk", "--root", str(root), "--out", str(out)]
    code = f"import {imports}; import sys; sys.exit(lexrag.cli.main({argv!r}))"
    subprocess.run([sys.executable, "-c", code], check=True, env=child_env())
    environment = json.loads((out / "run_manifest.json").read_text())["environment"]
    assert environment["OPENBLAS_NUM_THREADS"] == "1"
    assert environment["OPENBLAS_NUM_THREADS_in_effect"] is in_effect


def test_library_import_loads_no_numpy_early_and_leaves_environment_alone():
    code = ("import os, sys; before = dict(os.environ); import lexrag; "
            "print('numpy' in sys.modules); import lexrag.index; "
            "print(dict(os.environ) == before)")
    assert _python(code)[:2] == ["False", "True"]
