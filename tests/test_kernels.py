"""The numpy kernels against plain-Python loop references."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import lexrag
from lexrag import kernels


def _token_blob(tokens: list[str]) -> tuple[bytes, np.ndarray]:
    blob = b"".join(t.encode("utf-8") for t in tokens)
    offsets = np.zeros(len(tokens) + 1, dtype=np.int64)
    np.cumsum([len(t.encode("utf-8")) for t in tokens], out=offsets[1:])
    return blob, offsets


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

        # independent FNV-1a reference
        for t, bucket, sign in zip(tokens, buckets, signs):
            h1 = 0xCBF29CE484222325
            h2 = 0x84222325CBF29CE4
            for byte in t.encode("utf-8"):
                h1 = ((h1 ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
                h2 = ((h2 ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
            assert bucket == h1 % dim
            assert sign == (1.0 if (h2 & 1) == 0 else -1.0)


def test_hash_tokens_empty_batch():
    buckets, signs = kernels.hash_tokens(b"", np.zeros(1, dtype=np.int64), 64)
    assert buckets.shape == signs.shape == (0,)


def test_bm25_accumulate_bitwise_matches_posting_loop():
    rng = np.random.default_rng(11)
    n_chunks, n_postings = 80, 5000
    refs = rng.integers(0, n_chunks, n_postings).astype(np.int64)
    tfs = rng.integers(1, 12, n_postings).astype(np.float64)
    idfs = rng.random(n_postings)
    norms = rng.random(n_chunks) + 0.3
    k1 = 1.2
    got = kernels.bm25_accumulate(refs, tfs, idfs, norms, k1)

    expected = np.zeros(n_chunks)
    for r, tf, idf in zip(refs, tfs, idfs):
        expected[r] += idf * tf * (k1 + 1.0) / (tf + norms[r])
    assert got.shape == (n_chunks,)
    assert np.array_equal(got, expected)


def test_gather_means_matches_loop_reference():
    rng = np.random.default_rng(19)
    values = rng.random(30)
    idx = rng.integers(0, 30, size=(50, 30))
    got = kernels.gather_means(values, idx)
    expected = np.array([values[row].sum() / len(row) for row in idx])
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


def test_cli_import_loads_no_third_party_module_but_numpy():
    # Every lexrag command pays for what importing the CLI loads; scipy and the
    # HTTP stack (urllib.request -> http.client, ssl) are imported lazily by the
    # functions that need them.
    code = ("import sys; before = set(sys.modules); import lexrag.cli; "
            "new = set(sys.modules) - before; "
            "print(' '.join(sorted({m.split('.')[0] for m in new}"
            " - set(sys.stdlib_module_names)))); "
            "print(' '.join(sorted(new & {'urllib.request', 'http.client', 'ssl'})))")
    env = dict(os.environ, PYTHONPATH=str(Path(lexrag.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    third_party, http_stack = out.stdout.split("\n")[:2]
    assert third_party.split() == ["lexrag", "numpy"]
    assert http_stack.split() == []
