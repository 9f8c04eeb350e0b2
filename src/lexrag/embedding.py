"""Embedding providers: a deterministic offline backend and a remote HTTP backend,
and ``term_rows``, which tokenizes a batch of texts once into integer term ids
that the deterministic backend and the sparse index build both read.

The deterministic backend is a hashed bag-of-words (Weinberger et al., 2009):
every term is hashed to one of D buckets with a ±1 sign from a second hash
stream, and occurrences are summed. The vector is those integer counts, left
unnormalized: the dense index divides by the norms when it scores, so every
dot product it takes is an exact integer. It has no network dependency, is
bit-stable across runs and platforms, and preserves enough lexical-similarity
structure for offline evaluation of the retrieval stack. Queries and chunks
take the same path: a block of queries is one batch.

Remote wire contract: POST {"texts": [...]} -> {"vectors": [[...], ...]}.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from dataclasses import dataclass
from itertools import count
from typing import Protocol, Sequence

import numpy as np

from lexrag import kernels
from lexrag.remote import RemoteConfig, RemoteError, post_json
from lexrag.textutils import tokenize

# rows of the count matrix filled per np.bincount call
_BLOCK_ROWS = 256


@dataclass
class TermRows:
    """A batch of texts as index terms.

    ``vocab`` lists the distinct terms in first-seen order; ``ids`` (int64) holds
    each text's terms as positions in ``vocab``, text after text; ``lengths``
    (int64) is each text's term count.
    """

    vocab: list[str]
    ids: np.ndarray
    lengths: np.ndarray


def term_rows(texts: Sequence[str]) -> TermRows:
    """``tokenize`` each text once and number the terms in first-seen order."""
    vocab: defaultdict[str, int] = defaultdict(count().__next__)  # term -> first-seen id
    ids = array("q")
    lengths = np.empty(len(texts), dtype=np.int64)
    for row, text in enumerate(texts):
        terms = tokenize(text)
        lengths[row] = len(terms)
        ids.extend(map(vocab.__getitem__, terms))
    return TermRows(vocab=list(vocab), ids=np.frombuffer(ids, dtype=np.int64), lengths=lengths)


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

    Each call hashes every distinct term of its batch once (terms seen by an
    earlier call come from a cache), then fills the ``n x dim`` count matrix
    with one ``np.bincount`` over ``row * dim + bucket`` keys weighted by the
    term signs. The counts are sums of +-1, integers far below 2**53, so the
    order of summation cannot change a bit of them. ``embed`` returns them as
    float64, unnormalized; a text without terms (or whose signs all cancel)
    gets the fixed vector e0, a count of 1 in bucket 0.
    """

    backend = "deterministic-test"

    def __init__(self, dim: int = 256):
        if dim < 2:
            raise ValueError("dim must be >= 2")
        self.dim = dim
        self._buckets: dict[str, int] = {}  # every term hashed so far
        self._signs: dict[str, float] = {}

    def _hash_vocab(self, vocab: list[str]) -> tuple[np.ndarray, np.ndarray]:
        """(bucket int64, sign float64) arrays, one entry per vocabulary term."""
        missing = [t for t in vocab if t not in self._buckets]
        if missing:
            encoded = [t.encode("utf-8") for t in missing]
            offsets = np.zeros(len(encoded) + 1, dtype=np.int64)
            np.cumsum([len(e) for e in encoded], out=offsets[1:])
            buckets, signs = kernels.hash_tokens(b"".join(encoded), offsets, self.dim)
            self._buckets.update(zip(missing, buckets.tolist()))
            self._signs.update(zip(missing, signs.tolist()))
        return (np.fromiter(map(self._buckets.__getitem__, vocab), np.int64, len(vocab)),
                np.fromiter(map(self._signs.__getitem__, vocab), np.float64, len(vocab)))

    def embed(self, texts: Sequence[str], rows: TermRows | None = None) -> np.ndarray:
        if rows is None:
            rows = term_rows(texts)
        buckets, signs = self._hash_vocab(rows.vocab)
        n, dim = rows.lengths.shape[0], self.dim
        vectors = np.empty((n, dim), dtype=np.float64)
        bounds = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(rows.lengths, out=bounds[1:])
        for lo in range(0, n, _BLOCK_ROWS):  # blocks bound the keys array's memory
            hi = min(lo + _BLOCK_ROWS, n)
            ids = rows.ids[bounds[lo]:bounds[hi]]
            keys = np.repeat(np.arange(0, (hi - lo) * dim, dim, dtype=np.int64),
                             rows.lengths[lo:hi])
            keys += buckets[ids]
            vectors[lo:hi] = np.bincount(keys, weights=signs[ids],
                                         minlength=(hi - lo) * dim).reshape(hi - lo, dim)
        vectors[~vectors.any(axis=1), 0] = 1.0  # degenerate text: fixed vector e0
        return vectors


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
        response = post_json(self.config, {"texts": list(texts)})
        vectors = np.asarray(response.get("vectors", []), dtype=np.float64)
        if vectors.shape != (len(texts), self.dim):
            raise RemoteError(
                f"batch {batch_index}: expected shape {(len(texts), self.dim)}, "
                f"got {vectors.shape}")
        norms = np.linalg.norm(vectors, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        return vectors / norms

    def embed(self, texts: Sequence[str], rows: TermRows | None = None) -> np.ndarray:
        """Embed ``texts`` remotely; ``rows`` is not read, the endpoint gets the texts."""
        batches = [(i, texts[i:i + self.batch_size])
                   for i in range(0, len(texts), self.batch_size)]
        results: dict[int, np.ndarray] = {}
        failed: list[int] = []

        def run(entry):
            start, batch = entry
            try:
                results[start] = self._embed_batch(start // self.batch_size, batch)
            except RemoteError:
                failed.extend(range(start, start + len(batch)))

        if self.max_workers > 1 and len(batches) > 1:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=self.max_workers) as pool:
                list(pool.map(run, batches))
        else:
            for entry in batches:
                run(entry)

        if failed:
            raise EmbeddingError(
                f"embedding failed for {len(failed)} text(s) after retries",
                failed_indices=sorted(failed))
        if not batches:
            return np.zeros((0, self.dim), dtype=np.float64)
        return np.vstack([results[start] for start, _ in batches])


def get_embedder(backend: str, dim: int = 256,
                 remote: RemoteConfig | None = None) -> EmbeddingProvider:
    if backend in ("deterministic", "deterministic-test"):
        return HashedBowEmbedder(dim=dim)
    if backend == "remote":
        if remote is None:
            raise ValueError("remote backend requires a RemoteConfig")
        return RemoteEmbedder(remote, dim=dim)
    raise ValueError(f"unknown embedder backend: {backend!r}")
