"""Token hashing for the deterministic embedder.

The embedder hashes each distinct term of a batch once, with one
``hash_tokens`` call for the terms it has not seen before: an index build
sends its whole vocabulary in that call, a query its dozen or so terms.
``hash_tokens`` is a per-byte loop over Python ints, which wrap modulo 2**64
by masking; it is exact and platform-independent. A whole-array form (one
numpy step per byte position across all terms) gives the same hashes and is
~20x faster on a build vocabulary of ~14k terms, but ~3x slower on a query's
dozen, and queries are most of this function's calls.
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

