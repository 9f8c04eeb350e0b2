"""Sparse (Okapi BM25) and dense (exact cosine) indexes over chunks.

Both indexes are immutable after build and safe for concurrent queries.
Dense search is exact brute-force cosine; corpora here stay in the low
hundreds of thousands of chunks, and exactness keeps metric results
reproducible.

Scores are float64 arrays indexed by chunk row (``bm25_score_array``,
``dense_scores``), N long for every query, all zeros for a query with no indexed
term; ``bm25_scores`` and ``dense_search`` are list views of them, each ordered
by ``top_rows``.
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
derived from them, on a build and a load alike, so no stored value sets them;
nor do BM25's k1 and b, the standard ``K1 = 1.2`` and ``B = 0.75``.

A build's one array with an entry per token is ``term_rows``' int32 term ids.
The postings are inverted ``BLOCK_ROWS`` chunk rows at a time (``build_sparse``),
the count matrix is filled in its narrowest signed dtype and its norms are taken
a block at a time, and each chunk's full_text is made when it is read
(``FullTexts``), so no n x dim float64 matrix or list of every text is held. A
load keeps the vectors in the dtype they are stored in, as a build does.

This module alone writes and reads an index directory (format v7): the fixed
file names ``index.npz`` and ``chunks.jsonl``, and the ``index_meta.json``
header holding format version, backend tag and each file's sha256, checked on
the bytes a load parses: ``index.npz`` is read whole (a zip reader seeks), and
``chunks.jsonl`` as a stream that feeds its sha256; a ``chunks.jsonl`` whose parse
fails is hashed whole first, so any change to it fails its checksum, whatever its
rows hold. Row i of ``chunks.jsonl`` must then hold the chunk id of the index's
row i, since queries read a ranked row's chunk by row: the same ids in another
order are rejected, naming the first row that differs. ``index.npz`` is
uncompressed and holds only what cannot be derived: terms and chunk ids, each as
one uint8 array of their UTF-8 with NUL between them, the CSR arrays and the
vectors in the narrowest signed dtype (float64 for remote vectors); the chunk
count comes from the chunk ids and the dimension from the vectors. Loading never
unpickles: a checksum recomputed by whoever wrote the directory cannot make a
load run code. A load also checks the member names, every array's dtype and
shape, that the strings decode and the CSR invariants, so a tampered file fails
with a ValueError instead of ranking wrongly.
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

from lexrag.chunker import Chunk, FullTexts, load_chunks
from lexrag.embedding import BLOCK_ROWS, EmbeddingProvider, TermRows, narrowest_dtype, term_rows
from lexrag.textutils import read_json, sha256_file, tokenize, write_json

INDEX_FORMAT_VERSION = 7
META_FILE = "index_meta.json"
INDEX_FILE = "index.npz"
CHUNKS_FILE = "chunks.jsonl"
REMOTE_BACKEND = "remote"  # the one backend whose vectors are stored as floats
_CSR_ARRAYS = ("offsets", "refs", "tfs")
_MEMBERS = frozenset({"terms", "chunk_ids", *_CSR_ARRAYS, "vectors"})
# postings summed per np.bincount call where chunk lengths are derived
_POSTINGS_SLICE = 1 << 14
SCORE_ROWS = 1024  # rows cast to float64 per product in dense_scores: 2 MB at dim 256, in L2
# BM25's term-frequency saturation and length normalization: the standard values
# (Robertson & Zaragoza, "The Probabilistic Relevance Framework: BM25 and Beyond", 2009)
K1, B = 1.2, 0.75


def _narrowest(values: np.ndarray, signed: bool = False) -> np.ndarray:
    """``values`` in the narrowest unsigned (or signed) integer dtype that holds each
    one exactly; a ValueError when one is not an integer that any of them holds."""
    lo, hi = (values.min(), values.max()) if values.size else (0, 0)
    dtype = narrowest_dtype(lo, hi, signed)
    if dtype is not None:
        out = values.astype(dtype, copy=False)
        if values.dtype.kind in "iu" or np.array_equal(out, values):
            return out
    raise ValueError(f"values in [{lo}, {hi}] do not all fit one "
                     f"{'signed' if signed else 'unsigned'} integer dtype exactly")


def _row_norms(vectors: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a 2-D array, in float64, taken ``BLOCK_ROWS``
    rows at a time so that integer rows are cast a block at a time; exact-integer
    rows give exact sums of squares, so the norms do not depend on summation order."""
    norms = np.empty(vectors.shape[0])
    for lo in range(0, vectors.shape[0], BLOCK_ROWS):
        block = np.asarray(vectors[lo:lo + BLOCK_ROWS], dtype=np.float64)
        np.sqrt(np.einsum("ij,ij->i", block, block), out=norms[lo:lo + BLOCK_ROWS])
    return norms


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
    """Inverted index in CSR form (see the module docstring); the fields not
    taken by the constructor are derived from those it takes."""

    terms: list[str]  # sorted
    offsets: np.ndarray  # len(terms) + 1
    refs: np.ndarray  # chunk rows, ascending within each term
    tfs: np.ndarray
    chunk_ids: list[str]
    N: int = field(init=False)
    doc_lengths: np.ndarray = field(init=False, repr=False)  # float64 term counts
    avg_len: float = field(init=False)
    norms: np.ndarray = field(init=False, repr=False)
    id_rank: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.chunk_ids:
            raise ValueError("a sparse index holds no chunks")
        if self.offsets.shape[0] != len(self.terms) + 1:
            raise ValueError(f"sparse index holds {len(self.terms)} terms but "
                             f"{self.offsets.shape[0]} offsets")
        self.N = len(self.chunk_ids)
        # sums and mean of integer counts, exact in float64 in any summation order, so
        # the postings are summed a slice at a time and cast to float64 a slice at a time
        self.doc_lengths = np.zeros(self.N)
        for lo in range(0, self.refs.shape[0], _POSTINGS_SLICE):
            self.doc_lengths += np.bincount(self.refs[lo:lo + _POSTINGS_SLICE],
                                            weights=self.tfs[lo:lo + _POSTINGS_SLICE],
                                            minlength=self.N)
        self.avg_len = float(self.doc_lengths.mean())
        rel = self.doc_lengths / self.avg_len if self.avg_len > 0 else np.zeros(self.N)
        self.norms = K1 * (1.0 - B + B * rel)
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


def build_sparse(chunks: Sequence[Chunk], rows: TermRows | None = None) -> SparseIndex:
    """Build the BM25 index over the lowercased, punctuation-stripped terms of full_text.

    ``rows``, when given, is ``term_rows`` of the chunks' full_text, already computed.

    Single-pass inversion, a block of ``BLOCK_ROWS`` rows at a time (Heinz & Zobel,
    JASIST 2003): each block's (term, row) keys are sorted and their runs counted
    into that block's postings, term-major; counting their terms gives the offsets,
    and each block's postings then go to the next free places of their terms. Blocks
    come in row order, so each term's rows ascend, as a sort of every posting would
    leave them; no array is as long as the token count but ``rows.ids`` itself.
    """
    if not chunks:
        raise ValueError("cannot build a sparse index over an empty chunk list")
    n = len(chunks)
    if rows is None:
        rows = term_rows(FullTexts(chunks))
    # the terms sorted (distinct, so any sort gives one order), and each first-seen
    # term id's position among them
    vocab = np.array(rows.vocab, dtype=object)
    order = vocab.argsort()
    terms = vocab[order].tolist()
    del vocab
    rank = np.empty_like(order)
    rank[order] = np.arange(order.shape[0])
    bounds = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(rows.lengths, out=bounds[1:])
    df = np.zeros(len(terms), dtype=np.int64)
    blocks = []  # per block with terms: its first row and _block_postings
    for lo in range(0, n, BLOCK_ROWS):
        hi = min(lo + BLOCK_ROWS, n)
        if bounds[hi] > bounds[lo]:
            block = _block_postings(rank[rows.ids[bounds[lo]:bounds[hi]]], rows.lengths[lo:hi])
            runs, counts = _runs(block[0])
            df[runs] += counts
            blocks.append((lo, *block))
    offsets = np.zeros(len(terms) + 1, dtype=np.int64)
    np.cumsum(df, out=offsets[1:])
    # each array in the dtype _narrowest gives it: refs up to the last row with terms
    last_row = blocks[-1][0] + int(blocks[-1][2].max()) if blocks else 0
    max_tf = max((int(block[3].max()) for block in blocks), default=0)
    refs = np.empty(offsets[-1], dtype=narrowest_dtype(0, last_row))
    tfs = np.empty(offsets[-1], dtype=narrowest_dtype(0, max_tf))
    free = offsets[:-1].copy()  # each term's next free place
    for i, (lo, block_terms, in_block, block_tfs) in enumerate(blocks):
        blocks[i] = None  # each block's postings are freed once placed
        runs, counts = _runs(block_terms)
        # the k-th posting of a term's run in this block goes k places after its next free one
        places = np.repeat(free[runs] - (np.cumsum(counts) - counts), counts)
        places += np.arange(block_terms.shape[0])
        refs[places] = lo + in_block.astype(refs.dtype)
        tfs[places] = block_tfs
        free[runs] += counts
    del rank, df, free, blocks  # before the index derives its chunk lengths
    return SparseIndex(terms=terms, offsets=_narrowest(offsets), refs=refs, tfs=tfs,
                       chunk_ids=[c.chunk_id for c in chunks])


def _block_postings(keys: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, ...]:
    """One block's postings, by term then row: (term positions as int32, rows within
    the block as uint8, tfs), from the sorted-term position of each of its tokens,
    row after row, and each row's token count."""
    width = lengths.shape[0]
    keys *= width
    keys += np.repeat(np.arange(width), lengths)
    keys.sort()
    keys, tfs = _runs(keys)
    terms, in_block = np.divmod(keys, width)
    return terms.astype(np.int32), in_block.astype(np.uint8), _narrowest(tfs)


def _runs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of a sorted array, and how many times each occurs."""
    first = np.ones(values.shape[0], dtype=bool)
    np.not_equal(values[1:], values[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    return values[starts], np.diff(starts, append=values.shape[0])


def bm25_score_array(index: SparseIndex, query: str) -> np.ndarray:
    """Okapi BM25 score of every chunk row for ``query``, as an N-length array.

    score(q, d) = sum over query term occurrences of
    idf(t) * tf * (K1+1) / (tf + K1 * (1 - B + B * len/avg_len)), with
    idf(t) = ln((N - n_t + 0.5) / (n_t + 0.5) + 1). Chunks matching no query
    term score 0, so every chunk does when no query term is in the vocabulary.
    ``np.bincount`` sums each chunk's contributions in posting order, so the
    result is bitwise equal to a per-posting loop.
    """
    spans = [span for span in map(index.term_span, tokenize(query)) if span is not None]
    if not spans:
        return np.zeros(index.N)
    refs = np.concatenate([index.refs[lo:hi] for lo, hi in spans])
    tfs = np.concatenate([index.tfs[lo:hi] for lo, hi in spans])
    idfs = np.concatenate([np.full(hi - lo, _idf(index.N, hi - lo)) for lo, hi in spans])
    contrib = idfs * tfs * (K1 + 1.0) / (tfs + index.norms[refs])
    return np.bincount(refs, weights=contrib, minlength=index.norms.shape[0])


def bm25_scores(index: SparseIndex, query: str) -> list[tuple[int, float]]:
    """(row, score) for every chunk matching at least one query term.

    Scores are ``bm25_score_array``'s; zero-score chunks are omitted and the
    list is in ``top_rows`` order: score descending, ties by chunk_id ascending.
    """
    scores = bm25_score_array(index, query)
    hit_rows = np.flatnonzero(scores)
    order = hit_rows[top_rows(scores[hit_rows], hit_rows.shape[0], index.id_rank[hit_rows])]
    return [(int(r), float(scores[r])) for r in order]


@dataclass
class DenseIndex:
    """Embedding matrix, its row norms and the row -> chunk_id mapping.

    A build and a load alike keep the matrix as an index stores it: integer counts in
    their narrowest signed dtype, remote vectors as float64.
    """

    vectors: np.ndarray
    chunk_ids: list[str]
    backend: str
    norms: np.ndarray = field(init=False, repr=False)
    id_rank: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
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

    ``rows``, when given, is ``term_rows(texts)``, passed on to the provider as the
    ``EmbeddingProvider`` protocol declares.
    """
    if any(not isinstance(t, str) or not t for t in texts):
        raise ValueError("texts must be nonempty strings")
    vectors = provider.embed(texts, rows)
    if vectors.shape != (len(texts), provider.dim):
        raise ValueError(f"provider returned shape {vectors.shape}, "
                         f"expected {(len(texts), provider.dim)}")
    norms = _row_norms(vectors)
    if not np.all(np.isfinite(norms) & (norms > 0)):
        raise ValueError("provider returned a vector with a zero, NaN or infinite norm")
    return vectors


def build_dense(chunks: Sequence[Chunk], provider: EmbeddingProvider,
                rows: TermRows | None = None) -> DenseIndex:
    """Embed each chunk's full_text, in order, into an exact-search matrix.

    ``rows``, when given, is ``term_rows`` of those texts, already computed. The
    texts reach the provider as ``FullTexts``, each made when it is read.
    """
    if not chunks:
        raise ValueError("cannot build a dense index over an empty chunk list")
    vectors = embed(provider, FullTexts(chunks), rows)
    return DenseIndex(vectors=vectors, chunk_ids=[c.chunk_id for c in chunks],
                      backend=provider.backend)


def dense_scores(index: DenseIndex, query_vecs: np.ndarray) -> np.ndarray:
    """Cosine of each query vector (a row of ``query_vecs``) with every chunk row:
    the (queries, N) array ``(Q @ V.T) / (|q| ⊗ norms)``.

    Every dense score comes from here, one query or a block, ``V`` cast to float64
    ``SCORE_ROWS`` rows at a time. Over integer counts the products are exact, so each
    score is one correctly rounded division of exact values: the same bits whatever
    the blocks, BLAS kernel or thread count. The scores are the only (queries, N)
    array; the division runs row by row.
    """
    queries = np.asarray(query_vecs, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[1] != index.dim:
        raise ValueError(f"query dimension {queries.shape[-1]} != index dimension {index.dim}")
    scores = np.empty((queries.shape[0], index.N))
    for lo in range(0, index.N, SCORE_ROWS):
        block = np.asarray(index.vectors[lo:lo + SCORE_ROWS], dtype=np.float64)
        np.matmul(queries, block.T, out=scores[:, lo:lo + SCORE_ROWS])
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

def _nul_joined(strings: Sequence[str], what: str) -> np.ndarray:
    """The UTF-8 of ``strings`` with NUL between them, as one uint8 array (empty for an
    empty list); a string that is empty or holds NUL or a lone surrogate is a ValueError."""
    for text in strings:
        if not text or "\0" in text:
            raise ValueError(f"{what} {text!r} is empty or holds NUL; an index cannot store it")
    joined = "\0".join(strings)
    try:
        return np.frombuffer(joined.encode("utf-8"), dtype=np.uint8)
    except UnicodeEncodeError as exc:
        text = strings[joined.count("\0", 0, exc.start)]
        raise ValueError(f"{what} {text!r} holds a lone surrogate, which is not "
                         f"Unicode text; an index cannot store it") from None


def save_indexes(directory: str | Path, sparse: SparseIndex, dense: DenseIndex,
                 chunks_file: str | Path, chunks_sha256: str) -> Path:
    """Write index.npz, a byte copy of ``chunks_file`` (the chunk file the indexes were
    built from, so its rows are in row order) as chunks.jsonl, and the index_meta.json
    header giving the sha256 of both.

    index.npz is uncompressed. The CSR arrays go in their narrowest unsigned dtype, and
    the vectors in their narrowest signed dtype (a ValueError if one is not an
    integer), or as float64 for the remote backend. The chunk ids are the sparse
    index's; both indexes are built over the same chunks. A term or chunk id that
    ``_nul_joined`` cannot store is a ValueError naming it.

    ``chunks_sha256`` is the sha256 of the bytes the indexes were built from; a copy
    with another one (the file changed since) is a ValueError and writes no header.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    vectors = (dense.vectors if dense.backend == REMOTE_BACKEND
               else _narrowest(dense.vectors, signed=True))
    np.savez(directory / INDEX_FILE, terms=_nul_joined(sparse.terms, "term"),
             chunk_ids=_nul_joined(sparse.chunk_ids, "chunk id"),
             **{name: _narrowest(getattr(sparse, name)) for name in _CSR_ARRAYS},
             vectors=vectors)

    chunks_copy = directory / CHUNKS_FILE
    if not (chunks_copy.exists() and chunks_copy.samefile(chunks_file)):
        shutil.copyfile(chunks_file, chunks_copy)

    digests = {name: sha256_file(directory / name) for name in (INDEX_FILE, CHUNKS_FILE)}
    if digests[CHUNKS_FILE] != chunks_sha256:
        raise ValueError(f"{chunks_file} changed while the index was built; "
                         f"rerun `lexrag index`")
    meta_path = directory / META_FILE
    write_json({"format_version": INDEX_FORMAT_VERSION, "embedder_backend": dense.backend,
                "sha256": digests}, meta_path)
    return meta_path


def _read_meta(directory: Path) -> dict:
    """The index_meta.json header, its version, backend, sha256s and files checked."""
    meta_path = directory / META_FILE
    try:
        meta = read_json(meta_path)
    except FileNotFoundError:
        raise _invalid(meta_path, "file is missing") from None
    if meta.get("format_version") != INDEX_FORMAT_VERSION:
        raise ValueError(f"unsupported index format version {meta.get('format_version')} "
                         f"(this lexrag reads version {INDEX_FORMAT_VERSION}); "
                         f"rebuild with `lexrag index`")
    if not isinstance(meta.get("embedder_backend"), str):
        raise _invalid(meta_path, "key 'embedder_backend' is not a string")
    digests = meta.get("sha256")
    for listed in (INDEX_FILE, CHUNKS_FILE):
        if not (isinstance(digests, dict) and isinstance(digests.get(listed), str)):
            raise _invalid(meta_path, f"key 'sha256' gives no string for {listed}")
        if not (directory / listed).exists():
            raise _invalid(directory / listed, "file is missing")
    return meta


def _check_digest(meta: dict, name: str, actual: str) -> None:
    if actual != meta["sha256"][name]:
        raise ValueError(f"checksum mismatch for {name}: "
                         f"expected {meta['sha256'][name]}, got {actual}")


def _invalid(path: Path, why: str) -> ValueError:
    return ValueError(f"{path}: {why}; rebuild with `lexrag index`")


def _nul_split(path: Path, arrays: dict[str, np.ndarray], name: str) -> list[str]:
    """The strings ``_nul_joined`` stored as index.npz's member ``name``."""
    blob = arrays[name]
    if blob.ndim != 1 or blob.dtype != np.uint8:
        raise _invalid(path, f"{name} is not a 1-D uint8 array")
    try:
        text = blob.tobytes().decode("utf-8")
    except UnicodeDecodeError:
        raise _invalid(path, f"{name} is not UTF-8 text") from None
    return text.split("\0") if text else []


def _check_arrays(path: Path, arrays: dict[str, np.ndarray], n: int, backend: str) -> None:
    """index.npz's numeric members for ``n`` chunks: each CSR array 1-D in its narrowest
    unsigned dtype; offsets start at 0, never decrease and end at len(refs); 0 <= refs
    < n; tfs >= 1; n rows of vectors in the dtype the backend's
    vectors are saved in."""
    for name in _CSR_ARRAYS:
        values = arrays[name]
        if values.ndim != 1 or values.dtype.kind != "u" or _narrowest(values) is not values:
            raise _invalid(path, f"{name} is not a 1-D array in its narrowest unsigned dtype")
    offsets, refs, tfs = (arrays[name] for name in _CSR_ARRAYS)
    if (offsets.shape[0] == 0 or offsets[0] != 0 or np.any(offsets[1:] < offsets[:-1])
            or offsets[-1] != refs.shape[0]):
        raise _invalid(path, "offsets do not start at 0, rise and end at len(refs)")
    if tfs.shape != refs.shape:
        raise _invalid(path, f"{tfs.shape[0]} tfs for {refs.shape[0]} refs")
    if refs.size and refs.max() >= n:
        raise _invalid(path, f"refs hold a row outside [0, {n})")
    if tfs.size and tfs.min() < 1:
        raise _invalid(path, "tfs hold a term frequency below 1")
    vectors = arrays["vectors"]
    if not (vectors.dtype == np.float64 if backend == REMOTE_BACKEND else
            vectors.dtype.kind == "i" and _narrowest(vectors, signed=True) is vectors):
        raise _invalid(path, f"vectors of the {backend!r} backend are stored as {vectors.dtype}")
    if vectors.ndim != 2 or vectors.shape[0] != n:
        raise _invalid(path, f"vectors have shape {vectors.shape}, not {n} rows")


def load_indexes(directory: str | Path) -> tuple[SparseIndex, DenseIndex]:
    """Load a persisted index pair from index.npz, checked against its sha256 and the
    format (the member names, ``_nul_split``, ``_check_arrays``, terms strictly
    ascending, chunk ids distinct, vectors finite and nonzero); never unpickles."""
    directory = Path(directory)
    meta = _read_meta(directory)
    path = directory / INDEX_FILE
    raw = path.read_bytes()
    _check_digest(meta, INDEX_FILE, hashlib.sha256(raw).hexdigest())
    with np.load(io.BytesIO(raw), allow_pickle=False) as data:
        arrays = dict(data)  # each member read once: an NpzFile reads on every lookup
    del raw  # before the strings and derived arrays are made
    if arrays.keys() != _MEMBERS:
        odd = sorted(arrays.keys() ^ _MEMBERS)
        raise _invalid(path, f"members {odd} are missing or not part of the format")
    terms, chunk_ids = (_nul_split(path, arrays, name) for name in ("terms", "chunk_ids"))
    _check_arrays(path, arrays, len(chunk_ids), meta["embedder_backend"])
    if any(a >= b for a, b in zip(terms, terms[1:])):
        raise _invalid(path, "terms are not strictly ascending")
    if len(set(chunk_ids)) < len(chunk_ids):
        raise _invalid(path, "a chunk id repeats")
    try:
        sparse = SparseIndex(terms=terms, **{name: arrays[name] for name in _CSR_ARRAYS},
                             chunk_ids=chunk_ids)
    except ValueError as exc:
        raise _invalid(path, str(exc)) from None
    dense = DenseIndex(arrays["vectors"], chunk_ids, meta["embedder_backend"])
    if not np.all(np.isfinite(dense.norms) & (dense.norms > 0)):
        raise _invalid(path, "a vector is not finite or has norm 0")
    return sparse, dense


def load_index_chunks(directory: str | Path, chunk_ids: list[str]) -> list[Chunk]:
    """The chunks saved with the index, checked as the module docstring says: row i of
    chunks.jsonl must hold ``chunk_ids[i]``, the index's chunk id of row i."""
    directory = Path(directory)
    meta = _read_meta(directory)
    path = directory / CHUNKS_FILE
    digest = hashlib.sha256()
    try:
        chunks = load_chunks(path, digest)
    except ValueError:  # a changed file fails its checksum first, whatever its rows hold
        _check_digest(meta, CHUNKS_FILE, sha256_file(path))
        raise
    _check_digest(meta, CHUNKS_FILE, digest.hexdigest())
    file_ids = [c.chunk_id for c in chunks]
    if file_ids != chunk_ids:  # name the first row that differs
        row = next((i for i, (a, b) in enumerate(zip(chunk_ids, file_ids)) if a != b),
                   min(len(chunk_ids), len(file_ids)))
        stray, where = ((chunk_ids[row], "missing from") if row < len(chunk_ids)
                        else (file_ids[row], "only in"))
        raise ValueError(f"index directory {directory} is inconsistent: chunk id "
                         f"{stray!r} is {where} chunks.jsonl at row {row}")
    return chunks
