"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Dataset-count checks run against synthetic datasets generated at the
official scales; pointing LEXRAG_PRIVACYQA_JSON / LEXRAG_MAUD_JSON at the real
files adds a verification pass over them.
"""

import json
import math
import os
import time
from pathlib import Path

import numpy as np

from lexrag.chunker import ChunkConfig, count_tokens, split_recursive
from lexrag.cli import main as cli_main
from lexrag.corpus import Document, GoldSpan, QueryRecord, dataset_counts, load_qa_dataset
from lexrag.embedding import HashedBowEmbedder
from lexrag.enricher import enrich_document_chunks
from lexrag.evaluator import span_recall, sweep
from lexrag.index import bm25_scores, build_dense, build_sparse, dense_search, embed
from lexrag.retriever import POOL, FusionConfig, RetrievalContext, hybrid_retrieve
from lexrag.stats import bonferroni, bootstrap_ci, paired_ttest
from lexrag.aligner import align_answer
from lexrag.corpus import load_documents
from lexrag.preference import (
    REFUSAL_STRING,
    SplitSpec,
    build_preference_pairs,
    detect_refusal,
    refusal_rates,
    split_dataset,
)
from lexrag.textutils import normalize_whitespace
from tests.conftest import make_chunk, random_document_text
from tests.synthcorpus import build_legal_corpus
from tests.test_aligner import rewrap
from tools import same_outputs


def report(name: str, elapsed: float) -> None:
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.1f}s)")


def test_dataset_count_fidelity(tmp_path):
    start = time.time()

    # PrivacyQA-scale snippet dataset: 194 records, 453 spans
    privacy = []
    for i in range(194):
        n_spans = 3 if i < 65 else 2
        privacy.append({
            "query": f"privacy question {i}?",
            "snippets": [{"file_path": f"policies/p{i % 7}.txt",
                          "span": [j * 10, j * 10 + 5], "answer": "..."}
                         for j in range(n_spans)],
        })
    path = tmp_path / "privacy.json"
    path.write_text(json.dumps(privacy), encoding="utf-8")
    records, errors = load_qa_dataset(path, "snippet_qa")
    counts = dataset_counts(records)
    assert not errors
    assert counts["records"] == 194
    assert counts["gold_spans"] == 453

    # MAUD-scale snippet dataset: 1,676 records, 2,839 spans, 150 documents
    maud = []
    for i in range(1676):
        n_spans = 2 if i < 1163 else 1
        maud.append({
            "query": f"contract question {i}?",
            "snippets": [{"file_path": f"maud/agreement_{i % 150:03d}.txt",
                          "span": [j * 20, j * 20 + 9], "answer": "..."}
                         for j in range(n_spans)],
        })
    path = tmp_path / "maud.json"
    path.write_text(json.dumps(maud), encoding="utf-8")
    records, errors = load_qa_dataset(path, "snippet_qa")
    counts = dataset_counts(records)
    assert not errors
    assert counts["records"] == 1676
    assert counts["gold_spans"] == 2839
    assert counts["distinct_span_docs"] == 150

    # Australian-scale QA: 2,118 records -> 1918/50/150 split, 1918 x 2 pairs
    aus = [QueryRecord(query_id=f"q{i:05d}", question=f"q{i}?",
                       gold_answer=f"answer {i}", context_text=f"context {i}",
                       source_doc_id=f"court/case{i % 40}.txt")
           for i in range(2118)]
    train, validation, test = split_dataset(aus, SplitSpec(1918, 50, 150, seed=0))
    assert (len(train), len(validation), len(test)) == (1918, 50, 150)
    assert not ({r.query_id for r in train} & {r.query_id for r in validation}
                | {r.query_id for r in train} & {r.query_id for r in test}
                | {r.query_id for r in validation} & {r.query_id for r in test})
    pairs = build_preference_pairs(train, seed=0)
    assert len(pairs) == 3836

    # official files, when supplied
    real_privacy = os.environ.get("LEXRAG_PRIVACYQA_JSON")
    if real_privacy:
        records, _ = load_qa_dataset(real_privacy, "snippet_qa")
        counts = dataset_counts(records)
        assert counts["records"] == 194 and counts["gold_spans"] == 453
    real_maud = os.environ.get("LEXRAG_MAUD_JSON")
    if real_maud:
        records, _ = load_qa_dataset(real_maud, "snippet_qa")
        counts = dataset_counts(records)
        assert (counts["records"], counts["gold_spans"], counts["distinct_span_docs"]) == \
            (1676, 2839, 150)

    elapsed = time.time() - start
    assert elapsed < 60
    report("dataset-count fidelity", elapsed)


def test_bm25_oracle():
    start = time.time()
    chunks = [make_chunk(i, text) for i, text in enumerate(
        ["a b", "b c", "a a d", "e f g h", "b d f"])]
    idx = build_sparse(chunks)

    # the two-chunk hand case: corpus ["a b", "b c"], query "a" -> ln 2
    two = build_sparse(chunks[:2])
    got = bm25_scores(two, "a")
    assert len(got) == 1
    assert abs(got[0][1] - math.log(2)) < 1e-6

    # full-formula recomputation on the 5-chunk corpus
    lengths = [2, 2, 3, 4, 3]
    avg = sum(lengths) / 5
    for query in ("a", "b", "d", "a b", "f"):
        expected = {}
        for term in query.split():
            rows = [r for r, c in enumerate(chunks) if term in c.text.split()]
            tfs = {r: chunks[r].text.split().count(term) for r in rows}
            n_t = len(rows)
            idf = math.log((5 - n_t + 0.5) / (n_t + 0.5) + 1)
            for r in rows:
                tf = tfs[r]
                norm = 1.2 * (1 - 0.75 + 0.75 * lengths[r] / avg)
                expected[r] = expected.get(r, 0.0) + idf * tf * 2.2 / (tf + norm)
        got = dict(bm25_scores(idx, query))
        assert set(got) == set(expected)
        for r in expected:
            assert abs(got[r] - expected[r]) < 1e-6
    elapsed = time.time() - start
    assert elapsed < 30
    report("BM25 oracle", elapsed)


def test_fusion_degeneration():
    start = time.time()
    rng = np.random.default_rng(20250101)
    embedder = HashedBowEmbedder(dim=96)
    for trial in range(100):
        n = int(rng.integers(3, 30))
        chunks = [make_chunk(i, random_document_text(rng, int(rng.integers(5, 25))),
                             doc_id=f"doc{i % 4}") for i in range(n)]
        sparse = build_sparse(chunks)
        dense = build_dense(chunks, embedder)
        anchor = chunks[int(rng.integers(0, n))].text.split()
        query = " ".join(anchor[:min(4, len(anchor))])
        k = int(rng.integers(1, n + 1))

        dense_only = hybrid_retrieve(query, sparse, dense, embedder,
                                     FusionConfig(k=k, alpha=1.0))
        qv = embed(embedder, [query])[0]
        expected_dense = [r for r, _ in dense_search(dense, qv, k)]
        assert dense_only.ranked == expected_dense, f"alpha=1 trial {trial}"

        sparse_only = hybrid_retrieve(query, sparse, dense, embedder,
                                      FusionConfig(k=k, alpha=0.0))
        bm25 = [r for r, _ in bm25_scores(sparse, query)]
        m = min(k, len(bm25))
        assert sparse_only.ranked[:m] == bm25[:m], f"alpha=0 trial {trial}"
    elapsed = time.time() - start
    assert elapsed < 60
    report("fusion degeneration", elapsed)


def test_chunker_invariants_thousand_documents():
    start = time.time()
    rng = np.random.default_rng(424242)
    cfg = ChunkConfig(target_tokens=256, overlap_tokens=50)
    multi_chunk_docs = 0
    for i in range(1000):
        doc = Document(f"doc{i}", random_document_text(rng))
        chunks = split_recursive(doc, cfg)
        assert chunks, "nonempty doc must chunk"
        assert chunks[0].start == 0
        assert chunks[-1].end == len(doc.text)
        prev = None
        for chunk in chunks:
            assert chunk.text == doc.text[chunk.start:chunk.end]  # offset-slice identity
            assert count_tokens(chunk.text) <= 256  # token bound
            if prev is not None:
                assert prev.start < chunk.start <= prev.end  # coverage, no gaps
                shared = count_tokens(doc.text[chunk.start:prev.end])
                assert shared == min(50, count_tokens(prev.text) - 1)  # 50-token overlap
            prev = chunk
        if len(chunks) > 1:
            multi_chunk_docs += 1
    assert multi_chunk_docs > 300  # the sweep actually exercised overlap
    elapsed = time.time() - start
    assert elapsed < 120
    report("chunker invariants (1000 docs)", elapsed)


def test_metric_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(77)
    embedder = HashedBowEmbedder(dim=96)
    saw_recall_above_one = False
    for trial in range(8):
        n_docs = int(rng.integers(2, 5))
        chunks = []
        doc_lengths = {}
        for d in range(n_docs):
            doc = Document(f"doc{d}", random_document_text(rng, int(rng.integers(80, 200))))
            doc_lengths[doc.doc_id] = len(doc.text)
            chunks.extend(split_recursive(doc, ChunkConfig(24, 8)))
        chunks = chunks[:50]
        table = [(c.doc_id, c.start, c.end) for c in chunks]
        ctx = RetrievalContext(
            sparse=build_sparse(chunks), dense=build_dense(chunks, embedder),
            embedder=embedder, fusion=FusionConfig(k=16, alpha=0.8), chunk_table=table)
        records = []
        for q in range(5):
            chunk = chunks[int(rng.integers(0, len(chunks)))]
            # span crossing into the overlap region so neighbouring chunks also hit
            span_end = min(chunk.end + 20, doc_lengths[chunk.doc_id])
            span = GoldSpan(chunk.doc_id, chunk.start, span_end, chunk.text[:20])
            records.append(QueryRecord(
                query_id=f"t{trial}q{q}", question=" ".join(chunk.text.split()[:6]),
                gold_spans=[span]))
        ks = [1, 2, 4, 8, 16]
        swept = sweep(records, ctx, ks=ks, iterations=50)
        results = ctx.retrieve_many([r.question for r in records],
                                    [r.query_id for r in records])
        for record, result in zip(records, results):
            gold_docs = {s.doc_id for s in record.gold_spans}
            for k in ks:
                top = result.ranked[:min(k, len(result.ranked))]
                brute_drm = sum(1 for row in top
                                if table[row][0] not in gold_docs) / len(top)
                brute_pairs = 0
                for span in record.gold_spans:
                    for row in top:
                        doc_id, s, e = table[row]
                        if doc_id == span.doc_id and min(span.end, e) - max(span.start, s) >= 1:
                            brute_pairs += 1
                brute_recall = brute_pairs / len(record.gold_spans)
                assert swept.per_query[record.query_id]["drm"][k] == brute_drm
                assert swept.per_query[record.query_id]["span_recall"][k] == brute_recall
                if brute_recall > 1.0:
                    saw_recall_above_one = True

    # explicit >100% fixture: one gold span covered by two retrieved chunks
    table = [("g", 0, 100), ("g", 80, 200)]  # rows 0 and 1: g#000000 and g#000001
    value = span_recall([0, 1], [GoldSpan("g", 85, 95, "x")], table, 2)
    assert value == 2.0
    assert value > 1.0 or saw_recall_above_one
    elapsed = time.time() - start
    assert elapsed < 60
    report("metric oracle equivalence (incl. >100% span recall)", elapsed)


def _directional_effect(tmp_path, n_docs: int) -> tuple[int, dict, dict]:
    """Chunk count and the baseline and enhanced per-k reports on the legal corpus."""
    root, manifest, qa_path, _ = build_legal_corpus(tmp_path, n_docs=n_docs, seed=0)
    docs = load_documents(root, manifest)
    records, errors = load_qa_dataset(qa_path, "snippet_qa")
    assert not errors

    cfg = ChunkConfig(target_tokens=48, overlap_tokens=10)
    baseline_chunks, enhanced_chunks = [], []
    for doc in docs:
        chunks = split_recursive(doc, cfg)
        baseline_chunks.extend(chunks)
        enhanced_chunks.extend(enrich_document_chunks(chunks, doc.meta))
    assert len(baseline_chunks) >= 64  # k sweep reaches 64

    ks = [1, 2, 4, 8, 16, 32, 64]

    def run_variant(chunks, variant):
        embedder = HashedBowEmbedder(dim=256)
        table = [(c.doc_id, c.start, c.end) for c in chunks]
        ctx = RetrievalContext(
            sparse=build_sparse(chunks), dense=build_dense(chunks, embedder),
            embedder=embedder, fusion=FusionConfig(k=max(ks), alpha=0.8),
            chunk_table=table)
        return sweep(records, ctx, ks=ks, variant=variant, iterations=200, seed=0)

    baseline = run_variant(baseline_chunks, "baseline")
    enhanced = run_variant(enhanced_chunks, "enhanced")
    return len(baseline_chunks), baseline.per_k, enhanced.per_k


def test_directional_metadata_enhancement_effect(tmp_path):
    start = time.time()
    _, baseline, enhanced = _directional_effect(tmp_path, n_docs=12)
    for k in (2, 4, 8):
        assert enhanced[k]["drm_mean"] < baseline[k]["drm_mean"], f"DRM not improved at k={k}"
    for k in (4, 8):
        assert enhanced[k]["span_recall_mean"] > baseline[k]["span_recall_mean"], \
            f"span recall not improved at k={k}"
    elapsed = time.time() - start
    assert elapsed < 120
    report("directional metadata-enhancement effect", elapsed)


def test_directional_effect_with_more_chunks_than_the_dense_pool(tmp_path):
    """48 documents give more chunks than the fusion's dense pool, so rows outside the
    pool enter fusion with a raw dense score of 0; enrichment still lowers DRM."""
    start = time.time()
    n_chunks, baseline, enhanced = _directional_effect(tmp_path, n_docs=48)
    assert n_chunks > POOL
    for k in (1, 2, 4, 8):
        assert enhanced[k]["drm_mean"] < baseline[k]["drm_mean"], f"DRM not improved at k={k}"
    for k in (4, 8):
        assert enhanced[k]["span_recall_mean"] > baseline[k]["span_recall_mean"], \
            f"span recall not improved at k={k}"
    elapsed = time.time() - start
    assert elapsed < 120
    report("directional effect, N > dense pool", elapsed)


def test_statistics_criteria():
    start = time.time()

    # constant series collapses to a point
    assert bootstrap_ci([1.25] * 40, iterations=2000, seed=0) == (1.25, 1.25)

    # Monte Carlo coverage of the 95% CI over 200 seeded trials
    master = np.random.SeedSequence(20240817)
    hits = 0
    trials = 200
    for i, child in enumerate(master.spawn(trials)):
        sample = np.random.default_rng(child).normal(size=50)
        lo, hi = bootstrap_ci(sample, iterations=10000, seed=i)
        hits += lo <= 0.0 <= hi
    coverage = hits / trials
    assert 0.91 <= coverage <= 0.98, f"coverage {coverage}"

    # hand-derived paired t case: d = [1,2,3] -> t = 2*sqrt(3), p ~ 0.0742
    t, p = paired_ttest([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
    assert abs(t - 2 * math.sqrt(3)) < 1e-9
    assert abs(p - 0.0742) < 1e-3

    # Bonferroni exactness
    assert bonferroni(0.01, 14) == 0.01 * 14
    assert bonferroni(0.2, 14) == 1.0
    assert bonferroni(0.42, 1) == 0.42
    elapsed = time.time() - start
    assert elapsed < 120
    report(f"statistics (coverage {coverage:.3f})", elapsed)


def test_refusal_evaluation_criteria():
    start = time.time()
    outputs = []
    for i in range(150):
        outputs.append(("s2-%d" % i, "set2_incorrect_context",
                        REFUSAL_STRING if i < 131 else f"The outcome was {i}."))
    for i in range(500):
        outputs.append(("s1-%d" % i, "set1_correct_context",
                        REFUSAL_STRING if i < 266 else f"The outcome was {i}."))
    rates = refusal_rates(outputs, "strict")
    assert f"{rates['set2_rate']:.1f}" == "87.3"
    assert f"{rates['set1_rate']:.1f}" == "53.2"

    soft_only = [
        "The context does not provide the specific expenses mentioned in the question.",
        "There is no information in the context that specifies the required details.",
    ]
    for text in soft_only:
        assert not detect_refusal(text, "strict")
        assert detect_refusal(text, "soft")
    # canonical string is a refusal under every mode and decoration
    for mode in ("strict", "soft"):
        assert detect_refusal("  " + REFUSAL_STRING.upper() + "  ", mode)
    elapsed = time.time() - start
    assert elapsed < 30
    report("refusal evaluation", elapsed)


def test_aligner_criteria():
    start = time.time()
    rng = np.random.default_rng(9090)
    for trial in range(100):
        doc = Document(f"doc{trial}", random_document_text(rng, int(rng.integers(150, 500))))
        lo = int(rng.integers(0, max(1, len(doc.text) // 2)))
        hi = min(len(doc.text), lo + int(rng.integers(40, 300)))
        answer = doc.text[lo:hi]
        if not answer.strip():
            continue

        span = align_answer(doc, answer)
        assert isinstance(span, GoldSpan), f"trial {trial} failed to align"
        assert doc.text[span.start:span.end] == answer  # exact boundaries, score 1.0

        perturbed = rewrap(answer, rng)
        span2 = align_answer(doc, perturbed)
        assert isinstance(span2, GoldSpan), f"trial {trial} perturbed alignment failed"
        piece = doc.text[span2.start:span2.end]
        assert normalize_whitespace(piece) == normalize_whitespace(perturbed)
    elapsed = time.time() - start
    assert elapsed < 60
    report("aligner exact + perturbed alignment", elapsed)


def test_full_pipeline_determinism(tmp_path, monkeypatch, capsys):
    # tools/same_outputs.py's inputs and command sequence, run twice in this process,
    # each run from its own directory (the sequence's output paths are relative to it)
    start = time.time()
    sequence = same_outputs.commands(same_outputs.make_inputs(tmp_path / "inputs"))

    def run_once(base: Path) -> tuple[list[tuple[int, str]], dict[str, bytes]]:
        base.mkdir()
        monkeypatch.chdir(base)
        ran = []
        for argv in sequence:
            code = cli_main(argv)
            ran.append((code, capsys.readouterr().out))
        return ran, same_outputs.outputs(base)

    first_ran, first = run_once(tmp_path / "run_a")
    second_ran, second = run_once(tmp_path / "run_b")
    # every command succeeds but the one given a seed the stream rejects
    assert {argv[-1] for argv, (code, _) in zip(sequence, first_ran) if code} == {"dpo_wide_seed"}
    assert first_ran == second_ran
    assert first.keys() == second.keys()
    for name, payload in first.items():
        assert payload == second[name], f"{name} differs between identical seeded runs"
    elapsed = time.time() - start
    assert elapsed < 120
    report("full-pipeline byte determinism", elapsed)
