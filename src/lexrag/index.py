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

The sparse index is held in the CSR layout it is stored in: the postings of
``terms[i]`` (sorted) are ``refs`` (int64 chunk rows, ascending) and ``tfs``
(float64) at ``offsets[i]:offsets[i + 1]``; ``postings`` maps terms to views.

This module alone writes and reads an index directory: ``sparse.npz``,
``dense.npz``, ``chunks.jsonl`` and the ``index_meta.json`` header holding
format version, dimensions, backend tag and each file's sha256, checked on the
bytes a load parses. Strings (terms, chunk ids) are stored as one UTF-8 byte
blob plus int64 offsets, so loading never unpickles: a checksum recomputed by
whoever wrote the directory cannot make a load run code.
"""

from __future__ import annotations

import hashlib
import io
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from lexrag.chunker import Chunk, load_chunks
from lexrag.embedding import EmbeddingProvider
from lexrag.textutils import TermRows, read_json, term_rows, tokenize, write_json

INDEX_FORMAT_VERSION = 3
META_FILE = "index_meta.json"
CHUNKS_FILE = "chunks.jsonl"


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
    """Inverted index in CSR form with BM25 parameters (see the module docstring)."""

    terms: list[str]  # sorted
    offsets: np.ndarray  # int64, len(terms) + 1
    refs: np.ndarray  # int64 chunk rows, ascending within each term
    tfs: np.ndarray  # float64
    doc_lengths: np.ndarray
    avg_len: float
    N: int
    chunk_ids: list[str]
    k1: float = 1.2
    b: float = 0.75
    norms: np.ndarray = field(init=False, repr=False)
    id_rank: np.ndarray = field(init=False, repr=False)
    postings: dict[str, tuple[np.ndarray, np.ndarray]] = field(init=False, repr=False)  # views

    def __post_init__(self) -> None:
        bounds = self.offsets.tolist()
        if len(bounds) != len(self.terms) + 1:
            raise ValueError(f"sparse index holds {len(self.terms)} terms but {len(bounds)} offsets")
        self.postings = {term: (self.refs[lo:hi], self.tfs[lo:hi])
                         for term, lo, hi in zip(self.terms, bounds, bounds[1:])}
        rel = (self.doc_lengths / self.avg_len if self.avg_len > 0
               else np.zeros_like(self.doc_lengths, dtype=np.float64))
        self.norms = self.k1 * (1.0 - self.b + self.b * rel)
        self.id_rank = id_ranks(self.chunk_ids)

    def idf(self, term: str) -> float:
        post = self.postings.get(term)
        if post is None:
            return 0.0
        n_t = post[0].shape[0]
        return math.log((self.N - n_t + 0.5) / (n_t + 0.5) + 1.0)


def build_sparse(chunks: Sequence[Chunk], k1: float = 1.2, b: float = 0.75,
                 rows: TermRows | None = None) -> SparseIndex:
    """Build the BM25 index over the lowercased, punctuation-stripped terms of full_text.

    ``rows``, when given, is ``term_rows`` of the chunks' full_text, already computed.
    """
    # first-seen term ids remapped to sorted-term order; sorting the term * N + row
    # keys then gives the CSR postings, and each distinct key's run length its tf
    if not chunks:
        raise ValueError("cannot build a sparse index over an empty chunk list")
    n = len(chunks)
    if rows is None:
        rows = term_rows([c.full_text for c in chunks])
    keys = id_ranks(rows.vocab)[rows.ids]
    keys *= n
    keys += np.repeat(np.arange(n, dtype=np.int64), rows.lengths)
    keys.sort()  # in place: np.unique would sort a copy
    first = np.ones(keys.shape[0], dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    tfs = np.diff(np.flatnonzero(first), append=keys.shape[0])
    keys = keys[first]
    offsets = np.zeros(len(rows.vocab) + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // n, minlength=len(rows.vocab)), out=offsets[1:])
    doc_lengths = rows.lengths.astype(np.float64)
    return SparseIndex(terms=sorted(rows.vocab), offsets=offsets, refs=keys % n,
                       tfs=tfs.astype(np.float64), doc_lengths=doc_lengths,
                       avg_len=float(doc_lengths.mean()), N=n,
                       chunk_ids=[c.chunk_id for c in chunks], k1=k1, b=b)


def bm25_score_array(index: SparseIndex, query: str) -> np.ndarray | None:
    """Okapi BM25 score of every chunk row for ``query``, as an N-length array.

    score(q, d) = sum over query term occurrences of
    idf(t) * tf * (k1+1) / (tf + k1 * (1 - b + b * len/avg_len)), with
    idf(t) = ln((N - n_t + 0.5) / (n_t + 0.5) + 1). Chunks matching no query
    term score 0. Returns None when no query term is in the vocabulary.
    ``np.bincount`` sums each chunk's contributions in posting order, so the
    result is bitwise equal to a per-posting loop.
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
    contrib = idfs * tfs * (index.k1 + 1.0) / (tfs + index.norms[refs])
    return np.bincount(refs, weights=contrib, minlength=index.norms.shape[0])


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
    id_rank: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.id_rank = id_ranks(self.chunk_ids)

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])

    @property
    def N(self) -> int:
        return int(self.vectors.shape[0])


def embed(provider: EmbeddingProvider, texts: Sequence[str],
          rows: TermRows | None = None) -> np.ndarray:
    """Embed texts through a provider, enforcing the unit-norm contract.

    ``rows``, when given, is ``term_rows(texts)``, passed on to the provider.
    """
    if any(not isinstance(t, str) or not t for t in texts):
        raise ValueError("texts must be nonempty strings")
    vectors = provider.embed(texts) if rows is None else provider.embed(texts, rows)
    if vectors.shape != (len(texts), provider.dim):
        raise ValueError(f"provider returned shape {vectors.shape}, "
                         f"expected {(len(texts), provider.dim)}")
    # np.allclose(norms, 1.0, atol=1e-6) as one expression: allclose's own checks cost
    # more than the rest of a one-query embedding
    if not np.all(np.abs(np.linalg.norm(vectors, axis=1) - 1.0) <= 1e-6 + 1e-5):
        raise ValueError("provider returned non-unit vectors")
    return vectors


def build_dense(chunks: Sequence[Chunk], provider: EmbeddingProvider,
                rows: TermRows | None = None) -> DenseIndex:
    """Embed each chunk's full_text, in order, into an exact-search matrix.

    ``rows``, when given, is ``term_rows`` of those texts, already computed.
    """
    if not chunks:
        raise ValueError("cannot build a dense index over an empty chunk list")
    texts = [c.full_text for c in chunks]
    vectors = embed(provider, texts, rows)
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


def save_indexes(directory: str | Path, sparse: SparseIndex, dense: DenseIndex,
                 chunks_file: str | Path, chunks_sha256: str) -> Path:
    """Write sparse.npz, dense.npz, a byte copy of ``chunks_file`` (the chunk file the
    indexes were built from, so its rows are in row order) as chunks.jsonl, and the
    index_meta.json header listing each written file with its sha256.

    ``chunks_sha256`` is the sha256 of the bytes the indexes were built from; a copy
    with another one (the file changed since) is a ValueError and writes no header.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    files = {}

    term_bytes, term_offsets = _pack_strings(sparse.terms)
    id_bytes, id_offsets = _pack_strings(sparse.chunk_ids)
    files["sparse"] = directory / "sparse.npz"
    np.savez_compressed(
        files["sparse"],
        term_bytes=term_bytes, term_offsets=term_offsets,
        offsets=sparse.offsets, refs=sparse.refs, tfs=sparse.tfs,
        doc_lengths=sparse.doc_lengths,
        chunk_id_bytes=id_bytes, chunk_id_offsets=id_offsets,
        params=np.asarray([sparse.k1, sparse.b, sparse.avg_len], dtype=np.float64),
    )

    id_bytes, id_offsets = _pack_strings(dense.chunk_ids)
    files["dense"] = directory / "dense.npz"
    np.savez_compressed(files["dense"], vectors=dense.vectors,
                        chunk_id_bytes=id_bytes, chunk_id_offsets=id_offsets)

    files["chunks"] = directory / CHUNKS_FILE
    if not (files["chunks"].exists() and files["chunks"].samefile(chunks_file)):
        shutil.copyfile(chunks_file, files["chunks"])

    digests = {name: sha256_file(path) for name, path in files.items()}
    if digests["chunks"] != chunks_sha256:
        raise ValueError(f"{chunks_file} changed while the index was built; "
                         f"rerun `lexrag index`")
    meta = {
        "format_version": INDEX_FORMAT_VERSION,
        "n_chunks": sparse.N,
        "dim": dense.dim,
        "embedder_backend": dense.backend,
        "files": {name: {"path": path.name, "sha256": digests[name]}
                  for name, path in files.items()},
    }
    meta_path = directory / META_FILE
    write_json(meta, meta_path)
    return meta_path


def _read_checked(directory: Path, name: str) -> tuple[dict, bytes]:
    """The index_meta.json header and the bytes of its ``name`` file, after checking the
    header's keys, the format version, that all three index files are listed, each with
    a string sha256 and a string path that is a plain file name in ``directory`` (no
    separator, not "." or ".."), and the returned bytes' sha256."""
    meta_path = directory / META_FILE
    meta = read_json(meta_path)
    for key in ("format_version", "embedder_backend", "files"):
        if key not in meta:
            raise ValueError(f"{meta_path}: key {key!r} is missing; rebuild with `lexrag index`")
    if meta["format_version"] != INDEX_FORMAT_VERSION:
        raise ValueError(f"unsupported index format version {meta['format_version']} "
                         f"(this lexrag reads version {INDEX_FORMAT_VERSION}); "
                         f"rebuild with `lexrag index`")
    files = meta["files"]
    if not isinstance(files, dict):
        raise ValueError(f"{meta_path}: key 'files' is not an object; rebuild with `lexrag index`")
    for key in ("chunks", "dense", "sparse"):
        if key not in files:
            raise ValueError(f"{meta_path} lists no {key} file; rebuild with `lexrag index`")
        entry = files[key]
        if not (isinstance(entry, dict) and isinstance(entry.get("path"), str)
                and isinstance(entry.get("sha256"), str)):
            raise ValueError(f"{meta_path}: files entry {key!r} is not an object with string "
                             f"'path' and 'sha256'; rebuild with `lexrag index`")
        if entry["path"] in ("", ".", "..") or "/" in entry["path"] or "\\" in entry["path"]:
            raise ValueError(f"{meta_path}: files entry {key!r} path {entry['path']!r} is not a "
                             f"file name inside the index directory; rebuild with `lexrag index`")
    entry = files[name]
    data = (directory / entry["path"]).read_bytes()
    actual = hashlib.sha256(data).hexdigest()
    if actual != entry["sha256"]:
        raise ValueError(f"checksum mismatch for {entry['path']}: "
                         f"expected {entry['sha256']}, got {actual}")
    return meta, data


def load_indexes(directory: str | Path) -> tuple[SparseIndex, DenseIndex]:
    """Load a persisted index pair, each file checked against its sha256; never unpickles."""
    directory = Path(directory)
    with np.load(io.BytesIO(_read_checked(directory, "sparse")[1]), allow_pickle=False) as data:
        chunk_ids = _unpack_strings(data["chunk_id_bytes"], data["chunk_id_offsets"])
        k1, b, avg_len = (float(v) for v in data["params"])
        sparse = SparseIndex(terms=_unpack_strings(data["term_bytes"], data["term_offsets"]),
                             offsets=data["offsets"], refs=data["refs"], tfs=data["tfs"],
                             doc_lengths=data["doc_lengths"], avg_len=avg_len,
                             N=len(chunk_ids), chunk_ids=chunk_ids, k1=k1, b=b)

    meta, raw = _read_checked(directory, "dense")
    with np.load(io.BytesIO(raw), allow_pickle=False) as data:
        dense = DenseIndex(vectors=data["vectors"],
                           chunk_ids=_unpack_strings(data["chunk_id_bytes"],
                                                     data["chunk_id_offsets"]),
                           backend=meta["embedder_backend"])
    if sparse.chunk_ids != dense.chunk_ids:
        raise ValueError("sparse and dense indexes list different chunk ids")
    return sparse, dense


def load_index_chunks(directory: str | Path) -> list[Chunk]:
    """The chunks saved with the index, in row order, checked against their sha256."""
    meta, raw = _read_checked(Path(directory), "chunks")
    return load_chunks(Path(directory) / meta["files"]["chunks"]["path"], raw)
