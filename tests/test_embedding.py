import hashlib

import numpy as np
import pytest

from lexrag import embedding
from lexrag.embedding import HashedBowEmbedder, get_embedder, term_rows


def test_same_text_same_vector():
    emb = HashedBowEmbedder(dim=128)
    v = emb.embed(["the offer price was $22.00", "the offer price was $22.00"])
    assert np.array_equal(v[0], v[1])


# sha256 of the unit vectors HashedBowEmbedder(dim=64) returned for UNIT_TEXTS while it
# still normalized them (index format v3)
UNIT_TEXTS = ["alpha beta gamma", "one", "a b c d e f g", "...", "alpha alpha alpha beta"]
UNIT_SHA256 = "8da1f7262a019b30e9be2f17321da9e9b763fb16aa1881c87897b379b39314e7"


def test_vectors_are_unit_norm():
    """The embedder returns integer counts; counts / sqrt(sum(counts**2)) are unit
    vectors, bit for bit the ones it returned when it normalized them itself."""
    counts = HashedBowEmbedder(dim=64).embed(UNIT_TEXTS)
    assert np.array_equal(counts, np.rint(counts))
    unit = counts / np.sqrt((counts * counts).sum(axis=1))[:, None]
    np.testing.assert_allclose(np.linalg.norm(unit, axis=1), 1.0, atol=1e-6)
    assert hashlib.sha256(unit.tobytes()).hexdigest() == UNIT_SHA256


def test_unrelated_texts_not_collinear():
    emb = HashedBowEmbedder(dim=256)
    a = "merger agreement consideration shareholders voting rights escrow closing"
    b = "privacy policy cookies tracking consent data retention browser telemetry"
    v = emb.embed([a + " tender delaware parent subsidiary purchase offer conditions "
                   "termination fees representations warranties",
                   b + " advertising opt out profile deletion export gdpr controller "
                   "processor storage"])
    cosine = float(v[0] @ v[1] / (np.linalg.norm(v[0]) * np.linalg.norm(v[1])))
    assert cosine < 0.99


def test_shared_vocabulary_raises_similarity():
    emb = HashedBowEmbedder(dim=256)
    v = emb.embed(["offer price per share tender", "offer price per share merger",
                   "completely different legal words here"])
    assert v[0] @ v[1] > v[0] @ v[2]


def test_degenerate_text_gets_fixed_unit_vector():
    emb = HashedBowEmbedder(dim=16)
    v = emb.embed(["...", "!!!"])  # no alphanumeric terms
    assert np.array_equal(v[0], v[1])
    assert np.linalg.norm(v[0]) == 1.0


def test_fresh_instances_agree():
    texts = ["jurisdiction nsw judgment", "contract merger apollo"]
    a = HashedBowEmbedder(dim=64).embed(texts)
    b = HashedBowEmbedder(dim=64).embed(texts)
    assert np.array_equal(a, b)


def test_get_embedder_backends():
    emb = get_embedder("deterministic", dim=32)
    assert emb.backend == "deterministic-test"
    assert emb.dim == 32
    with pytest.raises(ValueError):
        get_embedder("nope")
    with pytest.raises(ValueError):
        get_embedder("remote")  # needs a RemoteConfig


def test_term_rows_number_terms_first_seen_in_int32():
    rows = term_rows(["b a b", "...", "c a"])
    assert rows.vocab == ["b", "a", "c"]
    assert rows.ids.dtype == np.int32 and rows.ids.tolist() == [0, 1, 0, 2, 1]
    assert rows.lengths.tolist() == [3, 0, 2]


def test_term_rows_reject_more_terms_than_their_ids_number(monkeypatch):
    # 2**31 distinct terms cannot be made here; with 8-bit ids the 129th term overflows
    monkeypatch.setattr(embedding, "_ID_CODE", "b")
    assert term_rows([" ".join(f"t{i}" for i in range(128))]).ids.dtype == np.int8
    with pytest.raises(ValueError, match="^more than 128 distinct terms; term ids are 8-bit$"):
        term_rows(["t0 t1", " ".join(f"t{i}" for i in range(129))])
