"""Hot numeric kernels: token hashing, BM25 accumulation, resample means.

Each kernel has one implementation. ``hash_tokens`` is a per-byte loop over
Python ints, which wrap modulo 2**64 by masking; the embedder calls it with a
dozen or so unseen terms per text, too few for a whole-array form to pay off.
The others are whole-array numpy. Token hashing is exact; BM25 accumulation
sums each chunk's contributions in posting order, so it is bitwise equal to a
per-posting loop. ``gather_means`` uses numpy's pairwise ``mean`` and may
differ from a sequential sum by a few ULPs, while staying exactly
deterministic for a fixed input.
"""

from __future__ import annotations

import numpy as np

# Its only reader is perfbench/launch.py, which records it in the benchmark's
# environment block.
NUMBA_ENABLED = False

_U64_MASK = 0xFFFFFFFFFFFFFFFF


def hash_tokens(token_bytes: bytes, offsets: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """FNV-1a hash a batch of tokens into (bucket, sign) pairs.

    ``token_bytes`` is the UTF-8 concatenation of all tokens and ``offsets``
    (len = n_tokens + 1) delimits each token within it. Bucket comes from one
    64-bit FNV-1a stream modulo ``dim``; the sign comes from the parity of a
    second stream with a different offset basis. Deterministic across runs
    and platforms.
    """
    n = offsets.shape[0] - 1
    buckets = np.empty(n, dtype=np.int64)
    signs = np.empty(n, dtype=np.float64)
    for t in range(n):
        h1 = 0xCBF29CE484222325
        h2 = 0x84222325CBF29CE4
        for b in token_bytes[offsets[t]:offsets[t + 1]]:
            h1 = ((h1 ^ b) * 0x100000001B3) & _U64_MASK
            h2 = ((h2 ^ b) * 0x100000001B3) & _U64_MASK
        buckets[t] = h1 % dim
        signs[t] = 1.0 if (h2 & 1) == 0 else -1.0
    return buckets, signs


def bm25_accumulate(refs: np.ndarray, tfs: np.ndarray, idfs: np.ndarray,
                    norms: np.ndarray, k1: float) -> np.ndarray:
    """Per-chunk BM25 scores summed from per-posting contributions.

    ``refs``/``tfs``/``idfs`` are parallel posting arrays (chunk row, term
    frequency, query-term idf); ``norms`` is the precomputed per-chunk length
    normalization k1*(1-b+b*len/avg_len) and sets the output length.
    """
    contrib = idfs * tfs * (k1 + 1.0) / (tfs + norms[refs])
    return np.bincount(refs, weights=contrib, minlength=norms.shape[0])


def gather_means(values: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Mean of ``values[idx[i]]`` per resample row ``i``."""
    return values[idx].mean(axis=1)
