"""Sparse (Okapi BM25) and dense (exact cosine) indexes over chunks.

Both indexes are immutable after build and safe for concurrent queries.
Dense search is exact brute-force inner product over unit vectors; corpora
here stay in the low hundreds of thousands of chunks, and exactness keeps
metric results reproducible.

Scores are N-length float64 arrays indexed by chunk row (``bm25_score_array``,
``vectors @ q``); ``bm25_scores`` and ``dense_search`` are list views of them.
Ties break by chunk_id ascending through ``id_rank``, each row's position in
the sorted chunk ids, computed once per index: rows are stored in chunk order,
which is not id order (``doc#10`` sorts before ``doc#2``), and an integer key
keeps string comparisons out of every ranking.

Indexes persist to versioned ``.npz`` files with a JSON header carrying
dimensions, counts, backend tag, and checksums. Strings (terms, chunk ids) are
stored as one UTF-8 byte blob plus int64 offsets, so loading never unpickles:
a checksum recomputed by whoever wrote the directory cannot make a load run
code.
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
from lexrag.textutils import tokenize

INDEX_FORMAT_VERSION = 2


def id_ranks(chunk_ids: Sequence[str]) -> np.ndarray:
    """Position of each row's chunk_id in the stably sorted id list, as int64."""
    order = sorted(range(len(chunk_ids)), key=chunk_ids.__getitem__)
    rank = np.empty(len(chunk_ids), dtype=np.int64)
    rank[order] = np.arange(len(chunk_ids), dtype=np.int64)
    return rank


def top_rows(scores: np.ndarray, n: int, id_rank: np.ndarray) -> np.ndarray:
    """Positions of the ``n`` highest scores, by score descending then id_rank.

    Equal to the first ``n`` of a full ``lexsort((id_rank, -scores))``, but only
    the entries scoring at or above the n-th highest value are sorted.
    """
    size = scores.shape[0]
    if n < size:
        kth = np.partition(scores, size - n)[size - n]
        rows = np.flatnonzero(scores >= kth)
    else:
        rows = np.arange(size)
    return rows[np.lexsort((id_rank[rows], -scores[rows]))][:n]


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
    id_rank: np.ndarray = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.norms is None:
            if self.avg_len > 0:
                rel = self.doc_lengths / self.avg_len
            else:
                rel = np.zeros_like(self.doc_lengths, dtype=np.float64)
            self.norms = self.k1 * (1.0 - self.b + self.b * rel)
        if self.id_rank is None:
            self.id_rank = id_ranks(self.chunk_ids)

    def idf(self, term: str) -> float:
        post = self.postings.get(term)
        if post is None:
            return 0.0
        n_t = post[0].shape[0]
        return math.log((self.N - n_t + 0.5) / (n_t + 0.5) + 1.0)


def build_sparse(chunks: Sequence[Chunk], k1: float = 1.2, b: float = 0.75) -> SparseIndex:
    """Build the BM25 index over the lowercased, punctuation-stripped terms of full_text."""
    if not chunks:
        raise ValueError("cannot build a sparse index over an empty chunk list")
    chunk_ids = [c.chunk_id for c in chunks]
    doc_lengths = np.zeros(len(chunks), dtype=np.float64)
    term_rows: dict[str, list[int]] = {}
    term_tfs: dict[str, list[int]] = {}
    for row, chunk in enumerate(chunks):
        terms = tokenize(chunk.full_text)
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


def bm25_score_array(index: SparseIndex, query: str) -> np.ndarray | None:
    """Okapi BM25 score of every chunk row for ``query``, as an N-length array.

    score(q, d) = sum over query term occurrences of
    idf(t) * tf * (k1+1) / (tf + k1 * (1 - b + b * len/avg_len)), with
    idf(t) = ln((N - n_t + 0.5) / (n_t + 0.5) + 1). Chunks matching no query
    term score 0. Returns None when no query term is in the vocabulary.
    """
    refs_parts, tfs_parts, idfs_parts = [], [], []
    for term in tokenize(query):
        post = index.postings.get(term)
        if post is None:
            continue
        rows, tfs = post
        refs_parts.append(rows)
        tfs_parts.append(tfs)
        idfs_parts.append(np.full(rows.shape[0], index.idf(term)))
    if not refs_parts:
        return None
    refs = np.concatenate(refs_parts)
    tfs = np.concatenate(tfs_parts)
    idfs = np.concatenate(idfs_parts)
    return kernels.bm25_accumulate(refs, tfs, idfs, index.norms, index.k1)


def bm25_scores(index: SparseIndex, query: str) -> list[tuple[int, float]]:
    """(row, score) for every chunk matching at least one query term.

    Scores are ``bm25_score_array``'s; zero-score chunks are omitted and the
    list is sorted by score descending, ties by chunk_id ascending.
    """
    scores = bm25_score_array(index, query)
    if scores is None:
        return []
    hit_rows = np.flatnonzero(scores)
    order = hit_rows[np.lexsort((index.id_rank[hit_rows], -scores[hit_rows]))]
    return [(int(r), float(scores[r])) for r in order]


@dataclass
class DenseIndex:
    """Unit-norm vector matrix with row -> chunk_id mapping."""

    vectors: np.ndarray
    chunk_ids: list[str]
    backend: str
    id_rank: np.ndarray = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.id_rank is None:
            self.id_rank = id_ranks(self.chunk_ids)

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


def build_dense(chunks: Sequence[Chunk], provider: EmbeddingProvider) -> DenseIndex:
    """Embed each chunk's full_text, in order, into an exact-search matrix."""
    if not chunks:
        raise ValueError("cannot build a dense index over an empty chunk list")
    texts = [c.full_text for c in chunks]
    vectors = embed(provider, texts)
    return DenseIndex(vectors=vectors, chunk_ids=[c.chunk_id for c in chunks],
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
    order = top_rows(scores, n, index.id_rank)
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


def _pack_strings(strings: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """UTF-8 blob (uint8) and int64 offsets (len + 1) delimiting each string in it."""
    encoded = [text.encode("utf-8") for text in strings]
    offsets = np.zeros(len(encoded) + 1, dtype=np.int64)
    np.cumsum([len(e) for e in encoded], out=offsets[1:])
    return np.frombuffer(b"".join(encoded), dtype=np.uint8), offsets


def _unpack_strings(blob: np.ndarray, offsets: np.ndarray) -> list[str]:
    raw = blob.tobytes()
    bounds = offsets.tolist()
    return [raw[lo:hi].decode("utf-8") for lo, hi in zip(bounds, bounds[1:])]


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
    term_bytes, term_offsets = _pack_strings(terms)
    id_bytes, id_offsets = _pack_strings(sparse.chunk_ids)
    sparse_path = directory / "sparse.npz"
    np.savez_compressed(
        sparse_path,
        term_bytes=term_bytes, term_offsets=term_offsets,
        offsets=offsets, refs=refs, tfs=tfs,
        doc_lengths=sparse.doc_lengths,
        chunk_id_bytes=id_bytes, chunk_id_offsets=id_offsets,
        params=np.asarray([sparse.k1, sparse.b, sparse.avg_len], dtype=np.float64),
    )

    id_bytes, id_offsets = _pack_strings(dense.chunk_ids)
    dense_path = directory / "dense.npz"
    np.savez_compressed(dense_path, vectors=dense.vectors,
                        chunk_id_bytes=id_bytes, chunk_id_offsets=id_offsets)

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
    """Load and checksum-verify a persisted index pair; never unpickles."""
    directory = Path(directory)
    meta = json.loads((directory / "index_meta.json").read_text(encoding="utf-8"))
    if meta["format_version"] != INDEX_FORMAT_VERSION:
        raise ValueError(f"unsupported index format version {meta['format_version']} "
                         f"(this lexrag reads version {INDEX_FORMAT_VERSION}); "
                         f"rebuild with `lexrag index`")
    for entry in meta["files"].values():
        path = directory / entry["path"]
        actual = sha256_file(path)
        if actual != entry["sha256"]:
            raise ValueError(f"checksum mismatch for {path.name}: "
                             f"expected {entry['sha256']}, got {actual}")

    with np.load(directory / meta["files"]["sparse"]["path"], allow_pickle=False) as data:
        terms = _unpack_strings(data["term_bytes"], data["term_offsets"])
        offsets = data["offsets"]
        refs = data["refs"]
        tfs = data["tfs"]
        doc_lengths = data["doc_lengths"]
        chunk_ids = _unpack_strings(data["chunk_id_bytes"], data["chunk_id_offsets"])
        k1, b, avg_len = (float(v) for v in data["params"])
    bounds = offsets.tolist()
    if len(bounds) != len(terms) + 1:
        raise ValueError(f"sparse index holds {len(terms)} terms but {len(bounds)} offsets")
    postings = {
        term: (refs[lo:hi], tfs[lo:hi])
        for term, lo, hi in zip(terms, bounds, bounds[1:])
    }
    sparse = SparseIndex(postings=postings, doc_lengths=doc_lengths, avg_len=avg_len,
                         N=len(chunk_ids), chunk_ids=chunk_ids, k1=k1, b=b)

    with np.load(directory / meta["files"]["dense"]["path"], allow_pickle=False) as data:
        dense = DenseIndex(vectors=data["vectors"],
                           chunk_ids=_unpack_strings(data["chunk_id_bytes"],
                                                     data["chunk_id_offsets"]),
                           backend=meta["embedder_backend"])
    if sparse.chunk_ids != dense.chunk_ids:
        raise ValueError("sparse and dense indexes list different chunk ids")
    return sparse, dense
