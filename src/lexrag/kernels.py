"""Token hashing for the deterministic embedder.

The embedder hashes each distinct term of a batch once, with one
``hash_tokens`` call per batch and no cache across calls: an index build sends
its whole vocabulary, a block of queries their few hundred terms.
``hash_tokens`` runs FNV-1a over the whole batch at once, one numpy step
per byte position: uint64 arithmetic wraps modulo 2**64 exactly as the
definition does, so the hashes are exact and platform-independent. The step
count is the batch's longest term in bytes, not its term count: a whole build
vocabulary (~14k terms) hashes in ~3 ms, but one 100 kB word takes ~0.5 s,
~15x a per-byte loop over Python ints. Chunk terms stay short, since the
chunker hard-splits any run longer than its token budget; only a query can
carry such a word.
"""

from __future__ import annotations

import numpy as np

# Its only reader is perfbench/launch.py, which records it in the benchmark's
# environment block.
NUMBA_ENABLED = False

_FNV_PRIME = np.uint64(0x100000001B3)
_BASIS_BUCKET = np.uint64(0xCBF29CE484222325)
_BASIS_SIGN = np.uint64(0x84222325CBF29CE4)


def hash_tokens(token_bytes: bytes, offsets: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """FNV-1a hash a batch of tokens into (bucket, sign) pairs.

    ``token_bytes`` is the UTF-8 concatenation of all tokens and ``offsets``
    (len = n_tokens + 1) delimits each token within it. Bucket comes from one
    64-bit FNV-1a stream modulo ``dim``; the sign comes from the parity of a
    second stream with a different offset basis. Deterministic across runs
    and platforms.
    """
    lengths = np.diff(offsets)
    # longest token first, so the tokens still hashing at byte p are a prefix
    order = np.argsort(-lengths, kind="stable")
    starts, lengths = offsets[:-1][order], lengths[order]
    data = np.frombuffer(token_bytes, dtype=np.uint8)
    # row 0 is the bucket stream, row 1 the sign stream
    h = np.repeat(np.array([[_BASIS_BUCKET], [_BASIS_SIGN]]), order.shape[0], axis=1)
    longest = int(lengths[0]) if lengths.size else 0
    # tokens longer than p, for each byte position p
    active = np.searchsorted(-lengths, -np.arange(longest), side="left")
    for p, n in enumerate(active.tolist()):
        live = h[:, :n]
        live ^= data[starts[:n] + p]
        live *= _FNV_PRIME
    buckets = np.empty(order.shape[0], dtype=np.int64)
    buckets[order] = (h[0] % np.uint64(dim)).astype(np.int64)
    signs = np.empty(order.shape[0], dtype=np.float64)
    signs[order] = np.where(h[1] & np.uint64(1), -1.0, 1.0)
    return buckets, signs
