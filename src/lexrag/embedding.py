"""Embedding providers: a deterministic offline backend and a remote HTTP backend,
and ``term_rows``, which tokenizes a batch of texts once into int32 term ids
that the deterministic backend and the sparse index build both read (4 bytes a
token; a batch of more than 2**31 distinct terms is a ValueError).

The deterministic backend is a hashed bag-of-words (Weinberger et al., 2009):
every term is hashed to one of D buckets with a ±1 sign from a second hash
stream, and occurrences are summed. The vector is those integer counts, left
unnormalized and in the narrowest signed dtype that holds them: the dense index
divides by the norms when it scores, so every dot product it takes is an exact
integer. It has no network dependency, is bit-stable across runs and
platforms, and preserves enough lexical-similarity structure for offline
evaluation of the retrieval stack. Queries and chunks
take the same path: a block of queries is one batch, and each batch hashes
its own distinct terms, with no cache kept between calls.

Remote wire contract: POST {"texts": [...]} -> ``VECTORS_REPLY``.
"""

from __future__ import annotations

import sys
from array import array
from collections import defaultdict
from dataclasses import dataclass
from itertools import count
from typing import Protocol, Sequence

import numpy as np

from lexrag import kernels
from lexrag.remote import RemoteConfig, RemoteError, post_json
from lexrag.schema import ARRAY, NUMBER, check
from lexrag.textutils import tokenize

# rows per block wherever a build works through its chunks a block at a time
# (count matrix, row norms, postings), so its temporaries stay a block's size; at
# most 256, since build_sparse keeps a row's place in its block in 8 bits
BLOCK_ROWS = 64
# term ids are C ints, 32 bits wide on every platform numpy supports
_ID_CODE = "i"
_SIGNED = tuple(np.dtype(code) for code in ("i1", "i2", "i4", "i8"))
_UNSIGNED = tuple(np.dtype(code) for code in ("u1", "u2", "u4", "u8"))


def narrowest_dtype(lo, hi, signed: bool = False) -> np.dtype | None:
    """The narrowest unsigned (or signed) integer dtype that holds every integer in
    [lo, hi]; None if none does."""
    for dtype in _SIGNED if signed else _UNSIGNED:
        info = np.iinfo(dtype)
        if info.min <= lo and hi <= info.max:
            return dtype
    return None


@dataclass
class TermRows:
    """A batch of texts as index terms.

    ``vocab`` lists the distinct terms in first-seen order; ``ids`` (int32) holds
    each text's terms as positions in ``vocab``, text after text; ``lengths``
    (int64) is each text's term count.
    """

    vocab: list[str]
    ids: np.ndarray
    lengths: np.ndarray


def term_rows(texts: Sequence[str]) -> TermRows:
    """``tokenize`` each text once and number the terms in first-seen order.

    Ids are int32, 4 bytes per token; a batch with more distinct terms than int32
    numbers is a ValueError.
    """
    vocab: defaultdict[str, int] = defaultdict(count().__next__)  # term -> first-seen id
    ids = array(_ID_CODE)
    lengths = np.empty(len(texts), dtype=np.int64)
    for row, text in enumerate(texts):
        terms = tokenize(text)
        lengths[row] = len(terms)
        try:
            ids.extend(map(vocab.__getitem__, terms))
        except OverflowError:
            raise ValueError(f"more than {2 ** (8 * ids.itemsize - 1)} distinct terms; "
                             f"term ids are {8 * ids.itemsize}-bit") from None
    return TermRows(vocab=list(vocab), ids=np.frombuffer(ids, dtype=f"i{ids.itemsize}"),
                    lengths=lengths)


class EmbeddingError(RuntimeError):
    def __init__(self, message: str, failed_indices: list[int] | None = None):
        super().__init__(message)
        self.failed_indices = failed_indices or []


class EmbeddingProvider(Protocol):
    """Batch of texts -> batch of finite, nonzero vectors, one per text; scores are
    cosines, so a vector's length does not matter.

    ``rows``, when given, is ``term_rows(texts)`` already computed; a provider
    that embeds terms may read it instead of tokenizing again.
    """

    backend: str
    dim: int

    def embed(self, texts: Sequence[str], rows: TermRows | None = None) -> np.ndarray: ...


class HashedBowEmbedder:
    """Deterministic test embedder over hashed bag-of-words term counts.

    Each call hashes every distinct term of its batch once, in one
    ``kernels.hash_tokens`` call, then fills the ``n x dim`` count matrix
    ``BLOCK_ROWS`` rows at a time, each block with one ``np.bincount`` over
    ``row * dim + bucket`` keys weighted by the term signs. The counts are sums
    of +-1, integers far below 2**53, so the order of summation cannot change a
    bit of them. ``embed`` returns them unnormalized, in the narrowest signed
    integer dtype that holds them all (the matrix widens when a block needs it),
    which is how an index stores them; a text without terms (or whose signs all
    cancel) gets the fixed vector e0, a count of 1 in bucket 0.
    """

    backend = "deterministic-test"

    def __init__(self, dim: int = 256):
        if dim < 2:
            raise ValueError("dim must be >= 2")
        self.dim = dim

    def embed(self, texts: Sequence[str], rows: TermRows | None = None) -> np.ndarray:
        if rows is None:
            rows = term_rows(texts)
        encoded = [term.encode("utf-8") for term in rows.vocab]
        offsets = np.zeros(len(encoded) + 1, dtype=np.int64)
        np.cumsum([len(e) for e in encoded], dtype=np.int64, out=offsets[1:])
        buckets, signs = kernels.hash_tokens(b"".join(encoded), offsets, self.dim)
        n, dim = rows.lengths.shape[0], self.dim
        vectors = np.zeros((n, dim), dtype=np.int8)
        bounds = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(rows.lengths, out=bounds[1:])
        for lo in range(0, n, BLOCK_ROWS):
            hi = min(lo + BLOCK_ROWS, n)
            ids = rows.ids[bounds[lo]:bounds[hi]]
            keys = np.repeat(np.arange(0, (hi - lo) * dim, dim, dtype=np.int64),
                             rows.lengths[lo:hi])
            keys += buckets[ids]
            block = np.bincount(keys, weights=signs[ids], minlength=(hi - lo) * dim)
            needed = narrowest_dtype(block.min(), block.max(), signed=True)
            if needed.itemsize > vectors.itemsize:
                vectors = vectors.astype(needed)
            vectors[lo:hi] = block.reshape(hi - lo, dim)
        vectors[~vectors.any(axis=1), 0] = 1  # degenerate text: fixed vector e0
        return vectors


# a remote embedding reply (see ``lexrag.schema``): each value one that float64 holds
VECTORS_REPLY = (("vectors", ARRAY, True, lambda vectors: all(
    type(row) is list and len(row) == len(vectors[0]) and all(
        type(x) in NUMBER and -sys.float_info.max <= x <= sys.float_info.max for x in row)
    for row in vectors), "a list of equal-length lists of finite numbers"),)


class RemoteEmbedder:
    """HTTP embedding backend; batches requests with bounded concurrency."""

    backend = "remote"

    def __init__(self, config: RemoteConfig, dim: int, batch_size: int = 32,
                 max_workers: int = 4):
        self.config = config
        self.dim = dim
        self.batch_size = batch_size
        self.max_workers = max_workers

    def _embed_batch(self, batch_index: int, texts: Sequence[str]) -> np.ndarray:
        where = f"{self.config.endpoint}: batch {batch_index}"
        response = post_json(self.config, {"texts": list(texts)})
        try:
            check(response, VECTORS_REPLY, where)
        except ValueError as exc:
            raise RemoteError(str(exc)) from None
        vectors = np.asarray(response["vectors"], dtype=np.float64)
        if vectors.shape != (len(texts), self.dim):
            raise RemoteError(f"{where}: expected shape {(len(texts), self.dim)}, "
                              f"got {vectors.shape}")
        norms = np.linalg.norm(vectors, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        return vectors / norms

    def embed(self, texts: Sequence[str], rows: TermRows | None = None) -> np.ndarray:
        """Embed ``texts`` remotely; ``rows`` is not read, the endpoint gets the texts."""
        batches = [(i, texts[i:i + self.batch_size])
                   for i in range(0, len(texts), self.batch_size)]

        def run(entry) -> np.ndarray | RemoteError:
            start, batch = entry
            try:
                return self._embed_batch(start // self.batch_size, batch)
            except RemoteError as exc:
                return exc

        # imported here, not at module level: concurrent.futures loads logging, which
        # the commands that never embed remotely need not pay for
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=self.max_workers) as pool:
            results = list(pool.map(run, batches))
        errors = [(start, len(batch), result) for (start, batch), result in zip(batches, results)
                  if isinstance(result, RemoteError)]
        if errors:
            failed = [i for start, n, _ in errors for i in range(start, start + n)]
            raise EmbeddingError(
                f"embedding failed for {len(failed)} text(s) after retries: {errors[0][2]}",
                failed_indices=failed)
        if not batches:
            return np.zeros((0, self.dim), dtype=np.float64)
        return np.vstack(results)


def get_embedder(backend: str, dim: int = 256,
                 remote: RemoteConfig | None = None) -> EmbeddingProvider:
    if backend in ("deterministic", "deterministic-test"):
        return HashedBowEmbedder(dim=dim)
    if backend == "remote":
        if remote is None:
            raise ValueError("remote backend requires a RemoteConfig")
        return RemoteEmbedder(remote, dim=dim)
    raise ValueError(f"unknown embedder backend: {backend!r}")
