"""Sparse (Okapi BM25) and dense (exact cosine) indexes over chunks.

Both indexes are immutable after build and safe for concurrent queries.
Dense search is exact brute-force cosine; corpora here stay in the low
hundreds of thousands of chunks, and exactness keeps metric results
reproducible.

Scores are float64 arrays indexed by chunk row (``bm25_score_array``,
``dense_scores``); ``bm25_scores`` and ``dense_search`` are list views of them.
Dense scores come from one expression, ``(Q @ V.T) / (|q| ⊗ norms)``, for one
query or a block of them. The deterministic embedder's vectors are integer
term counts, so every product and partial sum is an exact integer: a query's
scores are the same bits alone or in a block, under any BLAS kernel or thread
count. Remote (float) vectors keep that guarantee only per kernel.
Ties among bitwise-equal scores break by chunk_id ascending through
``id_rank``, each row's position in the sorted chunk ids, computed once per
index: rows are stored in chunk order, which is not id order (``doc#10``
sorts before ``doc#2``), and an integer key keeps string comparisons out of
every ranking. Cosines equal only in exact arithmetic, such as those of
proportional count vectors v and 3v, can differ in the last bit, and that
bit, not the chunk_id, orders them.

The sparse index is held in the CSR layout it is stored in: the postings of
``terms[i]`` (sorted) are ``refs`` (chunk rows, ascending) and ``tfs`` at
``offsets[i]:offsets[i + 1]``, each array in the narrowest unsigned dtype
that holds its values; numpy promotes them to float64 exactly wherever BM25
computes. Chunk lengths (sums of tfs), their mean and the length norms are
derived from them, on a build and a load alike, so no stored value sets them.

This module alone writes and reads an index directory (format v5):
``index.npz``, ``chunks.jsonl`` and the ``index_meta.json`` header holding
format version, dimensions, backend tag and each file's sha256, checked on the
bytes a load parses. ``index.npz`` is uncompressed and holds only what cannot
be derived: terms, chunk ids, the CSR arrays, the vectors in the narrowest
signed dtype (float64 for remote vectors) and ``params`` = [k1, b]. Strings
are stored as one UTF-8 byte blob plus int64 offsets, so loading never
unpickles: a checksum recomputed by whoever wrote the directory cannot make a
load run code. A load also checks the member names, every array's dtype and
shape and the CSR invariants, so a tampered file fails with a ValueError
instead of ranking wrongly.
"""

from __future__ import annotations

import hashlib
import io
import math
import shutil
from bisect import bisect_left
from functools import cached_property
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from lexrag.chunker import Chunk, load_chunks
from lexrag.embedding import EmbeddingProvider, TermRows, term_rows
from lexrag.textutils import read_json, sha256_file, tokenize, write_json

INDEX_FORMAT_VERSION = 5
META_FILE = "index_meta.json"
INDEX_FILE = "index.npz"
CHUNKS_FILE = "chunks.jsonl"
REMOTE_BACKEND = "remote"  # the one backend whose vectors are stored as floats
_CSR_ARRAYS = ("offsets", "refs", "tfs")
_MEMBERS = frozenset({"term_bytes", "term_offsets", "chunk_id_bytes", "chunk_id_offsets",
                      *_CSR_ARRAYS, "vectors", "params"})
_UNSIGNED = tuple(np.dtype(code) for code in ("u1", "u2", "u4", "u8"))
_SIGNED = tuple(np.dtype(code) for code in ("i1", "i2", "i4", "i8"))


def _narrowest(values: np.ndarray, signed: bool = False) -> np.ndarray:
    """``values`` in the narrowest unsigned (or signed) integer dtype that holds each
    one exactly; a ValueError when one is not an integer that any of them holds."""
    lo, hi = (values.min(), values.max()) if values.size else (0, 0)
    for dtype in _SIGNED if signed else _UNSIGNED:
        info = np.iinfo(dtype)
        if info.min <= lo and hi <= info.max:
            out = values.astype(dtype, copy=False)
            if values.dtype.kind in "iu" or np.array_equal(out, values):
                return out
            break
    raise ValueError(f"values in [{lo}, {hi}] do not all fit one "
                     f"{'signed' if signed else 'unsigned'} integer dtype exactly")


def _row_norms(vectors: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a 2-D float64 array; exact-integer rows give
    exact sums of squares, so the norms do not depend on summation order."""
    return np.sqrt(np.einsum("ij,ij->i", vectors, vectors))


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
    """Inverted index in CSR form with BM25 parameters (see the module docstring);
    the fields not taken by the constructor are derived from those it takes."""

    terms: list[str]  # sorted
    offsets: np.ndarray  # len(terms) + 1
    refs: np.ndarray  # chunk rows, ascending within each term
    tfs: np.ndarray
    chunk_ids: list[str]
    k1: float = 1.2
    b: float = 0.75
    N: int = field(init=False)
    doc_lengths: np.ndarray = field(init=False, repr=False)  # float64 term counts
    avg_len: float = field(init=False)
    norms: np.ndarray = field(init=False, repr=False)
    id_rank: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # built or loaded, every index passes here: a negative or infinite k1 zeroes
        # or breaks every score, and b outside [0, 1] can make a length norm negative
        if not 0.0 <= self.k1 < math.inf:
            raise ValueError(f"BM25 k1 must be >= 0 and finite, not {self.k1}")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError(f"BM25 b must be in [0, 1], not {self.b}")
        if not self.chunk_ids:
            raise ValueError("a sparse index holds no chunks")
        if self.offsets.shape[0] != len(self.terms) + 1:
            raise ValueError(f"sparse index holds {len(self.terms)} terms but "
                             f"{self.offsets.shape[0]} offsets")
        self.N = len(self.chunk_ids)
        # sums and mean of integer counts, exact in float64 in any summation order
        self.doc_lengths = np.bincount(self.refs, weights=self.tfs, minlength=self.N)
        self.avg_len = float(self.doc_lengths.mean())
        rel = self.doc_lengths / self.avg_len if self.avg_len > 0 else np.zeros(self.N)
        self.norms = self.k1 * (1.0 - self.b + self.b * rel)
        self.id_rank = id_ranks(self.chunk_ids)

    @cached_property
    def postings(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """term -> (refs, tfs) views of its CSR slice, built on first read. Scoring
        finds a term with ``term_span`` (bisection over the sorted terms), so neither
        a build nor a load makes this dict; the benchmark's posting counter and the
        layout tests read it."""
        bounds = self.offsets.tolist()
        return {term: (self.refs[lo:hi], self.tfs[lo:hi])
                for term, lo, hi in zip(self.terms, bounds, bounds[1:])}

    def term_span(self, term: str) -> tuple[int, int] | None:
        """(lo, hi) of ``term``'s postings in ``refs`` and ``tfs``; None if absent."""
        i = bisect_left(self.terms, term)
        if i == len(self.terms) or self.terms[i] != term:
            return None
        return int(self.offsets[i]), int(self.offsets[i + 1])


def _idf(n: int, n_t: int) -> float:
    return math.log((n - n_t + 0.5) / (n_t + 0.5) + 1.0)


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
    return SparseIndex(terms=sorted(rows.vocab), offsets=_narrowest(offsets),
                       refs=_narrowest(keys % n), tfs=_narrowest(tfs),
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
    spans = [span for span in map(index.term_span, tokenize(query)) if span is not None]
    if not spans:
        return None
    refs = np.concatenate([index.refs[lo:hi] for lo, hi in spans])
    tfs = np.concatenate([index.tfs[lo:hi] for lo, hi in spans])
    idfs = np.concatenate([np.full(hi - lo, _idf(index.N, hi - lo)) for lo, hi in spans])
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
    """Embedding matrix (float64; integer counts from the deterministic embedder),
    its row norms and the row -> chunk_id mapping."""

    vectors: np.ndarray
    chunk_ids: list[str]
    backend: str
    norms: np.ndarray = field(init=False, repr=False)
    id_rank: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        self.norms = _row_norms(self.vectors)
        self.id_rank = id_ranks(self.chunk_ids)

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])

    @property
    def N(self) -> int:
        return int(self.vectors.shape[0])


def embed(provider: EmbeddingProvider, texts: Sequence[str],
          rows: TermRows | None = None) -> np.ndarray:
    """Embed texts through a provider: one row per text, each with a finite,
    nonzero norm (so NaN, inf and all-zero rows are rejected).

    ``rows``, when given, is ``term_rows(texts)``, passed on to the provider.
    """
    if any(not isinstance(t, str) or not t for t in texts):
        raise ValueError("texts must be nonempty strings")
    vectors = provider.embed(texts) if rows is None else provider.embed(texts, rows)
    if vectors.shape != (len(texts), provider.dim):
        raise ValueError(f"provider returned shape {vectors.shape}, "
                         f"expected {(len(texts), provider.dim)}")
    norms = _row_norms(vectors)
    if not np.all(np.isfinite(norms) & (norms > 0)):
        raise ValueError("provider returned a vector with a zero, NaN or infinite norm")
    return vectors


def build_dense(chunks: Sequence[Chunk], provider: EmbeddingProvider,
                rows: TermRows | None = None,
                texts: Sequence[str] | None = None) -> DenseIndex:
    """Embed each chunk's full_text, in order, into an exact-search matrix.

    ``texts``, when given, is that list of full_text strings, and ``rows`` its
    ``term_rows``, already computed.
    """
    if not chunks:
        raise ValueError("cannot build a dense index over an empty chunk list")
    if texts is None:
        texts = [c.full_text for c in chunks]
    vectors = embed(provider, texts, rows)
    return DenseIndex(vectors=vectors, chunk_ids=[c.chunk_id for c in chunks],
                      backend=provider.backend)


def dense_scores(index: DenseIndex, query_vecs: np.ndarray) -> np.ndarray:
    """Cosine of each query vector (a row of ``query_vecs``) with every chunk row:
    the (queries, N) array ``(Q @ V.T) / (|q| ⊗ norms)``.

    Every dense score comes from here, one query or a block. Over integer counts
    the products are exact, so each score is one correctly rounded division of
    exact values: the same bits whatever the block, BLAS kernel or thread count.
    The scores are the only (queries, N) array; the division runs row by row.
    """
    queries = np.asarray(query_vecs, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[1] != index.dim:
        raise ValueError(f"query dimension {queries.shape[-1]} != index dimension {index.dim}")
    scores = queries @ index.vectors.T
    for row, norm in zip(scores, _row_norms(queries)):
        np.divide(row, norm * index.norms, out=row)
    return scores


def dense_search(index: DenseIndex, query_vec: np.ndarray, n: int) -> list[tuple[int, float]]:
    """Exact top-n rows by cosine (``dense_scores`` of one query).

    Ties break by chunk_id ascending. n >= N returns all rows.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    scores = dense_scores(index, np.asarray(query_vec).reshape(1, -1))[0]
    order = top_rows(scores, n, index.id_rank)
    return [(int(r), float(scores[r])) for r in order]


# ---------------------------------------------------------------------------
# persistence

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
    """Write index.npz, a byte copy of ``chunks_file`` (the chunk file the indexes were
    built from, so its rows are in row order) as chunks.jsonl, and the index_meta.json
    header listing both with their sha256.

    index.npz is uncompressed. The CSR arrays go in their narrowest unsigned dtype, and
    the vectors in their narrowest signed dtype (a ValueError if one is not an
    integer), or as float64 for the remote backend. The chunk ids are the sparse
    index's; both indexes are built over the same chunks.

    ``chunks_sha256`` is the sha256 of the bytes the indexes were built from; a copy
    with another one (the file changed since) is a ValueError and writes no header.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    files = {"index": directory / INDEX_FILE, "chunks": directory / CHUNKS_FILE}

    term_bytes, term_offsets = _pack_strings(sparse.terms)
    id_bytes, id_offsets = _pack_strings(sparse.chunk_ids)
    vectors = (dense.vectors if dense.backend == REMOTE_BACKEND
               else _narrowest(dense.vectors, signed=True))
    np.savez(files["index"], term_bytes=term_bytes, term_offsets=term_offsets,
             chunk_id_bytes=id_bytes, chunk_id_offsets=id_offsets,
             **{name: _narrowest(getattr(sparse, name)) for name in _CSR_ARRAYS},
             vectors=vectors, params=np.asarray([sparse.k1, sparse.b], dtype=np.float64))

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
    header's keys, the format version, that both files are listed, each with a string
    sha256 and a string path that is a plain file name in ``directory`` (no separator,
    not "." or ".."), and the returned bytes' sha256."""
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
    for key in ("chunks", "index"):
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


def _invalid(path: Path, why: str) -> ValueError:
    return ValueError(f"{path}: {why}; rebuild with `lexrag index`")


def _check_arrays(path: Path, arrays: dict[str, np.ndarray], meta: dict) -> None:
    """index.npz's members: the format's names; each CSR array 1-D in its narrowest
    unsigned dtype; offsets start at 0, never decrease and end at len(refs); 0 <= refs
    < n_chunks; tfs >= 1; two finite params; (n_chunks, dim) vectors as saved."""
    if arrays.keys() != _MEMBERS:
        odd = sorted(arrays.keys() ^ _MEMBERS)
        raise _invalid(path, f"members {odd} are missing or not part of the format")
    for name in _CSR_ARRAYS:
        values = arrays[name]
        if values.ndim != 1 or values.dtype.kind != "u" or _narrowest(values) is not values:
            raise _invalid(path, f"{name} is not a 1-D array in its narrowest unsigned dtype")
    offsets, refs, tfs = (arrays[name] for name in _CSR_ARRAYS)
    n = meta["n_chunks"]
    if (offsets.shape[0] == 0 or offsets[0] != 0 or np.any(offsets[1:] < offsets[:-1])
            or offsets[-1] != refs.shape[0]):
        raise _invalid(path, "offsets do not start at 0, rise and end at len(refs)")
    if tfs.shape != refs.shape:
        raise _invalid(path, f"{tfs.shape[0]} tfs for {refs.shape[0]} refs")
    if refs.size and refs.max() >= n:
        raise _invalid(path, f"refs hold a row outside [0, {n})")
    if tfs.size and tfs.min() < 1:
        raise _invalid(path, "tfs hold a term frequency below 1")
    params = arrays["params"]
    if params.shape != (2,) or params.dtype != np.float64 or not np.isfinite(params).all():
        raise _invalid(path, "params is not 2 finite float64 values (k1, b)")
    vectors, backend = arrays["vectors"], meta["embedder_backend"]
    if backend == REMOTE_BACKEND:
        exact = vectors.dtype == np.float64
    else:
        exact = vectors.dtype.kind == "i" and _narrowest(vectors, signed=True) is vectors
    if not exact:
        raise _invalid(path, f"vectors of the {backend!r} backend are stored as {vectors.dtype}")
    if vectors.shape != (n, meta["dim"]):
        raise _invalid(path, f"vectors have shape {vectors.shape}, the header gives "
                             f"{(n, meta['dim'])}")


def load_indexes(directory: str | Path) -> tuple[SparseIndex, DenseIndex]:
    """Load a persisted index pair from index.npz, checked against its sha256 and the
    format (see ``_check_arrays``; each vector must also be finite with a nonzero
    norm); never unpickles."""
    directory = Path(directory)
    meta, raw = _read_checked(directory, "index")
    if not all(type(meta.get(key)) is int and meta[key] >= 0 for key in ("n_chunks", "dim")):
        raise _invalid(directory / META_FILE, "key 'n_chunks' or 'dim' is not a count")
    path = directory / meta["files"]["index"]["path"]
    with np.load(io.BytesIO(raw), allow_pickle=False) as data:
        arrays = dict(data)  # each member read once: an NpzFile reads on every lookup
    _check_arrays(path, arrays, meta)
    chunk_ids = _unpack_strings(arrays["chunk_id_bytes"], arrays["chunk_id_offsets"])
    terms = _unpack_strings(arrays["term_bytes"], arrays["term_offsets"])
    if len(chunk_ids) != meta["n_chunks"]:
        raise _invalid(path, f"{len(chunk_ids)} chunk ids for {meta['n_chunks']} chunks")
    if any(a >= b for a, b in zip(terms, terms[1:])):
        raise _invalid(path, "terms are not strictly ascending")
    k1, b = arrays["params"].tolist()
    try:
        sparse = SparseIndex(terms=terms, **{name: arrays[name] for name in _CSR_ARRAYS},
                             chunk_ids=chunk_ids, k1=k1, b=b)
    except ValueError as exc:
        raise _invalid(path, str(exc)) from None
    dense = DenseIndex(vectors=arrays["vectors"], chunk_ids=chunk_ids,
                       backend=meta["embedder_backend"])
    if not np.all(np.isfinite(dense.norms) & (dense.norms > 0)):
        raise _invalid(path, "a vector is not finite or has norm 0")
    return sparse, dense


def load_index_chunks(directory: str | Path) -> list[Chunk]:
    """The chunks saved with the index, in row order, checked against their sha256."""
    meta, raw = _read_checked(Path(directory), "chunks")
    return load_chunks(Path(directory) / meta["files"]["chunks"]["path"], raw)
