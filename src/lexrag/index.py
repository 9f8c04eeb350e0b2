"""Sparse (Okapi BM25) and dense (exact cosine) indexes over chunks.

Both indexes are immutable after build and safe for concurrent queries.
Dense search is exact brute-force inner product over unit vectors; corpora
here stay in the low hundreds of thousands of chunks, and exactness keeps
metric results reproducible. Indexes persist to versioned binary files with
a JSON header carrying dimensions, counts, backend tag, and checksums.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from lexrag import kernels
from lexrag.chunker import Chunk
from lexrag.embedding import EmbeddingProvider
from lexrag.enricher import EnrichedChunk
from lexrag.textutils import tokenize

INDEX_FORMAT_VERSION = 1


def chunk_text_for_indexing(chunk: Chunk | EnrichedChunk) -> str:
    """Enriched chunks index their full (header + body) text; bare chunks their slice."""
    if isinstance(chunk, EnrichedChunk):
        return chunk.full_text
    return chunk.text


def chunk_identity(chunk: Chunk | EnrichedChunk) -> str:
    if isinstance(chunk, EnrichedChunk):
        return chunk.base.chunk_id
    return chunk.chunk_id


@dataclass
class SparseIndex:
    """Inverted index with per-term postings and BM25 parameters."""

    postings: dict[str, tuple[np.ndarray, np.ndarray]]  # term -> (chunk rows, tfs)
    doc_lengths: np.ndarray
    avg_len: float
    N: int
    chunk_ids: list[str]
    k1: float = 1.2
    b: float = 0.75
    norms: np.ndarray = field(default=None, repr=False)
    id_array: np.ndarray = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.norms is None:
            if self.avg_len > 0:
                rel = self.doc_lengths / self.avg_len
            else:
                rel = np.zeros_like(self.doc_lengths, dtype=np.float64)
            self.norms = self.k1 * (1.0 - self.b + self.b * rel)
        if self.id_array is None:
            self.id_array = np.asarray(self.chunk_ids)

    def idf(self, term: str) -> float:
        post = self.postings.get(term)
        if post is None:
            return 0.0
        n_t = post[0].shape[0]
        return math.log((self.N - n_t + 0.5) / (n_t + 0.5) + 1.0)


def build_sparse(chunks: Sequence[Chunk | EnrichedChunk],
                 k1: float = 1.2, b: float = 0.75) -> SparseIndex:
    """Build the BM25 index over lowercased, punctuation-stripped terms."""
    if not chunks:
        raise ValueError("cannot build a sparse index over an empty chunk list")
    chunk_ids = [chunk_identity(c) for c in chunks]
    doc_lengths = np.zeros(len(chunks), dtype=np.float64)
    term_rows: dict[str, list[int]] = {}
    term_tfs: dict[str, list[int]] = {}
    for row, chunk in enumerate(chunks):
        terms = tokenize(chunk_text_for_indexing(chunk))
        doc_lengths[row] = len(terms)
        for term, tf in sorted(Counter(terms).items()):
            term_rows.setdefault(term, []).append(row)
            term_tfs.setdefault(term, []).append(tf)
    postings = {
        term: (np.asarray(term_rows[term], dtype=np.int64),
               np.asarray(term_tfs[term], dtype=np.float64))
        for term in sorted(term_rows)
    }
    avg_len = float(doc_lengths.mean()) if len(chunks) else 0.0
    return SparseIndex(postings=postings, doc_lengths=doc_lengths, avg_len=avg_len,
                       N=len(chunks), chunk_ids=chunk_ids, k1=k1, b=b)


def bm25_scores(index: SparseIndex, query: str) -> list[tuple[int, float]]:
    """Okapi BM25 scores for every chunk matching at least one query term.

    score(q, d) = sum over query term occurrences of
    idf(t) * tf * (k1+1) / (tf + k1 * (1 - b + b * len/avg_len)), with
    idf(t) = ln((N - n_t + 0.5) / (n_t + 0.5) + 1). Zero-score chunks are
    omitted; the result is sorted by score descending, ties by chunk_id
    ascending.
    """
    terms = tokenize(query)
    if not terms:
        return []
    refs_parts, tfs_parts, idfs_parts = [], [], []
    for term in terms:
        post = index.postings.get(term)
        if post is None:
            continue
        rows, tfs = post
        refs_parts.append(rows)
        tfs_parts.append(tfs)
        idfs_parts.append(np.full(rows.shape[0], index.idf(term)))
    if not refs_parts:
        return []
    refs = np.concatenate(refs_parts)
    tfs = np.concatenate(tfs_parts)
    idfs = np.concatenate(idfs_parts)
    scores = kernels.bm25_accumulate(refs, tfs, idfs, index.norms, index.k1)
    hit_rows = np.nonzero(scores)[0]
    order = hit_rows[np.lexsort((index.id_array[hit_rows], -scores[hit_rows]))]
    return [(int(r), float(scores[r])) for r in order]


@dataclass
class DenseIndex:
    """Unit-norm vector matrix with row -> chunk_id mapping."""

    vectors: np.ndarray
    chunk_ids: list[str]
    backend: str
    id_array: np.ndarray = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.id_array is None:
            self.id_array = np.asarray(self.chunk_ids)

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])

    @property
    def N(self) -> int:
        return int(self.vectors.shape[0])


def embed(provider: EmbeddingProvider, texts: Sequence[str]) -> np.ndarray:
    """Embed texts through a provider, enforcing the unit-norm contract."""
    if any(not isinstance(t, str) or not t for t in texts):
        raise ValueError("texts must be nonempty strings")
    vectors = provider.embed(texts)
    if vectors.shape != (len(texts), provider.dim):
        raise ValueError(f"provider returned shape {vectors.shape}, "
                         f"expected {(len(texts), provider.dim)}")
    norms = np.linalg.norm(vectors, axis=1)
    if len(texts) and not np.allclose(norms, 1.0, atol=1e-6):
        raise ValueError("provider returned non-unit vectors")
    return vectors


def build_dense(chunks: Sequence[Chunk | EnrichedChunk],
                provider: EmbeddingProvider) -> DenseIndex:
    """Embed chunk texts in ordinal order into an exact-search matrix."""
    if not chunks:
        raise ValueError("cannot build a dense index over an empty chunk list")
    texts = [chunk_text_for_indexing(c) for c in chunks]
    vectors = embed(provider, texts)
    return DenseIndex(vectors=vectors,
                      chunk_ids=[chunk_identity(c) for c in chunks],
                      backend=provider.backend)


def dense_search(index: DenseIndex, query_vec: np.ndarray, n: int) -> list[tuple[int, float]]:
    """Exact top-n rows by inner product (cosine over unit vectors).

    Ties break by chunk_id ascending. n >= N returns all rows.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    query_vec = np.asarray(query_vec, dtype=np.float64).reshape(-1)
    if query_vec.shape[0] != index.dim:
        raise ValueError(f"query dimension {query_vec.shape[0]} != index dimension {index.dim}")
    scores = index.vectors @ query_vec
    order = np.lexsort((index.id_array, -scores))[:n]
    return [(int(r), float(scores[r])) for r in order]


# ---------------------------------------------------------------------------
# persistence

def sha256_file(path: Path) -> str:
    """Hex SHA-256 of a file, read in 1 MiB blocks."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def save_indexes(directory: str | Path, sparse: SparseIndex, dense: DenseIndex) -> Path:
    """Write sparse.npz, dense.npz, and the index_meta.json header."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    terms = sorted(sparse.postings)
    lengths = [sparse.postings[t][0].shape[0] for t in terms]
    offsets = np.zeros(len(terms) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    refs = (np.concatenate([sparse.postings[t][0] for t in terms])
            if terms else np.zeros(0, dtype=np.int64))
    tfs = (np.concatenate([sparse.postings[t][1] for t in terms])
           if terms else np.zeros(0, dtype=np.float64))
    sparse_path = directory / "sparse.npz"
    np.savez_compressed(
        sparse_path,
        terms=np.asarray(terms, dtype=object) if terms else np.zeros(0, dtype=object),
        offsets=offsets, refs=refs, tfs=tfs,
        doc_lengths=sparse.doc_lengths,
        chunk_ids=np.asarray(sparse.chunk_ids, dtype=object),
        params=np.asarray([sparse.k1, sparse.b, sparse.avg_len], dtype=np.float64),
    )

    dense_path = directory / "dense.npz"
    np.savez_compressed(
        dense_path,
        vectors=dense.vectors,
        chunk_ids=np.asarray(dense.chunk_ids, dtype=object),
    )

    meta = {
        "format_version": INDEX_FORMAT_VERSION,
        "n_chunks": sparse.N,
        "dim": dense.dim,
        "embedder_backend": dense.backend,
        "files": {
            "sparse": {"path": sparse_path.name, "sha256": sha256_file(sparse_path)},
            "dense": {"path": dense_path.name, "sha256": sha256_file(dense_path)},
        },
    }
    meta_path = directory / "index_meta.json"
    meta_path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return meta_path


def load_indexes(directory: str | Path) -> tuple[SparseIndex, DenseIndex]:
    """Load and checksum-verify a persisted index pair."""
    directory = Path(directory)
    meta = json.loads((directory / "index_meta.json").read_text(encoding="utf-8"))
    if meta["format_version"] != INDEX_FORMAT_VERSION:
        raise ValueError(f"unsupported index format version {meta['format_version']}")
    for entry in meta["files"].values():
        path = directory / entry["path"]
        actual = sha256_file(path)
        if actual != entry["sha256"]:
            raise ValueError(f"checksum mismatch for {path.name}: "
                             f"expected {entry['sha256']}, got {actual}")

    with np.load(directory / meta["files"]["sparse"]["path"], allow_pickle=True) as data:
        terms = [str(t) for t in data["terms"]]
        offsets = data["offsets"]
        refs = data["refs"]
        tfs = data["tfs"]
        doc_lengths = data["doc_lengths"]
        chunk_ids = [str(c) for c in data["chunk_ids"]]
        k1, b, avg_len = (float(v) for v in data["params"])
    postings = {
        term: (refs[offsets[i]:offsets[i + 1]], tfs[offsets[i]:offsets[i + 1]])
        for i, term in enumerate(terms)
    }
    sparse = SparseIndex(postings=postings, doc_lengths=doc_lengths, avg_len=avg_len,
                         N=len(chunk_ids), chunk_ids=chunk_ids, k1=k1, b=b)

    with np.load(directory / meta["files"]["dense"]["path"], allow_pickle=True) as data:
        dense = DenseIndex(vectors=data["vectors"],
                           chunk_ids=[str(c) for c in data["chunk_ids"]],
                           backend=meta["embedder_backend"])
    return sparse, dense
