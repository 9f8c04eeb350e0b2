import json

import pytest

from lexrag.corpus import QueryRecord
from lexrag.preference import (
    REFUSAL_STRING,
    SplitSpec,
    build_preference_pairs,
    detect_refusal,
    dump_pairs,
    load_model_outputs,
    mean_score_with_delta_ci,
    refusal_rates,
    render_prompt,
    split_dataset,
    token_f1,
)
from lexrag.stats import draw_below, permutation


def qa_records(n: int, n_docs: int = 7) -> list[QueryRecord]:
    return [
        QueryRecord(
            query_id=f"q{i:05d}",
            question=f"What was decided in matter {i}?",
            gold_answer=f"The court held outcome {i}.",
            context_text=f"In matter {i} the tribunal considered issue {i} at length.",
            source_doc_id=f"court/case{i % n_docs}.txt",
        )
        for i in range(n)
    ]


class TestSplitDataset:
    def test_official_scale_split(self):
        records = qa_records(2118)
        train, val, test = split_dataset(records, SplitSpec(1918, 50, 150, seed=3))
        assert (len(train), len(val), len(test)) == (1918, 50, 150)
        ids = [r.query_id for r in train + val + test]
        assert len(set(ids)) == 2118

    def test_zero_split(self):
        train, val, test = split_dataset(qa_records(5), SplitSpec(0, 0, 0, seed=1))
        assert train == [] and val == [] and test == []

    def test_deterministic_per_seed(self):
        records = qa_records(40)
        a = split_dataset(records, SplitSpec(30, 5, 5, seed=9))
        b = split_dataset(records, SplitSpec(30, 5, 5, seed=9))
        c = split_dataset(records, SplitSpec(30, 5, 5, seed=10))
        assert [r.query_id for r in a[0]] == [r.query_id for r in b[0]]
        assert [r.query_id for r in a[0]] != [r.query_id for r in c[0]]

    def test_golden_split(self):
        # literal ids: the stream is lexrag's (lexrag.stats.permutation), and a
        # change of it, or of numpy, must not move a split unannounced
        train, val, test = split_dataset(qa_records(20, n_docs=4), SplitSpec(12, 4, 4, seed=5))
        assert [int(r.query_id[1:]) for r in train] == [2, 0, 8, 19, 9, 11, 15, 10, 16, 17, 12, 18]
        assert [int(r.query_id[1:]) for r in val] == [6, 13, 5, 3]
        assert [int(r.query_id[1:]) for r in test] == [1, 4, 14, 7]

    def test_oversized_split_rejected(self):
        with pytest.raises(ValueError):
            split_dataset(qa_records(10), SplitSpec(10, 1, 0, seed=0))


class TestBuildPreferencePairs:
    def test_pair_count_is_twice_records(self):
        records = qa_records(1918)
        pairs = build_preference_pairs(records, seed=0)
        assert len(pairs) == 3836

    def test_set1_embeds_own_context_and_prefers_answer(self):
        records = qa_records(6)
        pairs = build_preference_pairs(records, seed=0)
        set1 = [p for p in pairs if p.set_tag == "set1_correct_context"]
        by_query = {r.query_id: r for r in records}
        for pair in set1:
            record = by_query[pair.source_query_id]
            assert record.context_text in pair.prompt
            assert record.question in pair.prompt
            assert pair.chosen == record.gold_answer
            assert pair.rejected == REFUSAL_STRING

    def test_golden_set2_contexts(self):
        # literal matter numbers of each set-2 context, as in test_golden_split, from
        # the counters dpo-build gives 8 records shuffled into one split: 7 to 14
        pairs = build_preference_pairs(qa_records(8, n_docs=4), seed=5, start=7)
        sampled = [int(p.prompt.split("In matter ")[1].split()[0]) for p in pairs
                   if p.set_tag == "set2_incorrect_context"]
        assert sampled == [5, 3, 4, 2, 1, 7, 3, 6]

    def test_set2_contexts_match_per_record_candidate_lists(self):
        # 500 records over 9 source documents holding 1 to 130 records each, in
        # shuffled order; the oracle rebuilds every record's candidate list, as
        # the sampler once did, and takes record i's context from draw i
        sizes = [130, 1, 97, 64, 2, 88, 41, 7, 70]
        docs = [doc for doc, size in enumerate(sizes) for _ in range(size)]
        order = permutation(3, len(docs))
        records = [QueryRecord(query_id=f"q{i:05d}", question=f"Question {i}?",
                               gold_answer=f"Answer {i}.", context_text=f"Context {i}.",
                               source_doc_id=f"court/case{docs[j]}.txt")
                   for i, j in enumerate(order)]
        expected = []
        for i, record in enumerate(records):
            others = [r for r in records if r.source_doc_id != record.source_doc_id]
            expected.append(others[draw_below(11, i, len(others))].context_text)
        pairs = build_preference_pairs(records, seed=11)
        set2 = [p for p in pairs if p.set_tag == "set2_incorrect_context"]
        assert [p.prompt.split("Context: ")[1].split("\n")[0] for p in set2] == expected

    def test_set2_context_never_from_own_document(self):
        records = qa_records(40, n_docs=5)
        pairs = build_preference_pairs(records, seed=7)
        context_to_doc = {r.context_text: r.source_doc_id for r in records}
        by_query = {r.query_id: r for r in records}
        set2 = [p for p in pairs if p.set_tag == "set2_incorrect_context"]
        assert len(set2) == 40
        for pair in set2:
            record = by_query[pair.source_query_id]
            sampled_doc = next(doc for ctx, doc in context_to_doc.items()
                               if ctx in pair.prompt)
            assert sampled_doc != record.source_doc_id
            assert pair.chosen == REFUSAL_STRING
            assert pair.rejected == record.gold_answer

    def test_chosen_never_equals_rejected(self):
        pairs = build_preference_pairs(qa_records(20), seed=1)
        assert all(p.chosen != p.rejected for p in pairs)

    def test_single_document_corpus_rejected(self):
        records = qa_records(4, n_docs=1)
        with pytest.raises(ValueError, match="two source documents"):
            build_preference_pairs(records, seed=0)

    def test_incomplete_record_rejected(self):
        records = qa_records(3)
        records[1].gold_answer = ""
        with pytest.raises(ValueError):
            build_preference_pairs(records, seed=0)

    def test_deterministic_dump(self, tmp_path):
        records = qa_records(30)
        for run in ("a", "b"):
            dump_pairs(build_preference_pairs(records, seed=5), tmp_path / f"{run}.jsonl")
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()


class TestRenderPrompt:
    def test_with_variant_contains_refusal_sentence(self):
        prompt = render_prompt("with_refusal_instruction", "some context", "a question?")
        assert REFUSAL_STRING in prompt

    def test_without_variant_omits_it(self):
        prompt = render_prompt("without_refusal_instruction", "some context", "a question?")
        assert REFUSAL_STRING not in prompt

    def test_both_variants_embed_context_then_question(self):
        for template in ("with_refusal_instruction", "without_refusal_instruction"):
            prompt = render_prompt(template, "CTX-MARKER", "QUESTION-MARKER?")
            assert "CTX-MARKER" in prompt
            assert "QUESTION-MARKER?" in prompt
            assert prompt.index("CTX-MARKER") < prompt.index("QUESTION-MARKER?")

    def test_unknown_template_rejected(self):
        with pytest.raises(ValueError):
            render_prompt("mystery", "c", "q")


class TestDetectRefusal:
    def test_canonical_string_strict(self):
        assert detect_refusal("Given context is not sufficient to answer.")

    def test_substantive_answer_not_refusal(self):
        assert not detect_refusal("The offer price was $22.00 per share.")

    def test_soft_refusal_differs_by_mode(self):
        text = "The context does not provide the specific expenses mentioned in the question."
        assert not detect_refusal(text, "strict")
        assert detect_refusal(text, "soft")

    def test_second_soft_pattern(self):
        text = "There is no information in the context that specifies the required details."
        assert not detect_refusal(text, "strict")
        assert detect_refusal(text, "soft")

    def test_case_whitespace_punctuation_robust(self):
        for mode in ("strict", "soft"):
            assert detect_refusal("  given   CONTEXT is not sufficient to answer ", mode)
            assert detect_refusal("Given context is not sufficient to answer!!!", mode)

    def test_embedded_in_longer_output(self):
        text = "I reviewed it. Given context is not sufficient to answer. Sorry."
        assert detect_refusal(text)

    def test_unknown_mode_rejected_by_name(self):
        message = "refusal mode must be 'strict' or 'soft', not 'both'"
        with pytest.raises(ValueError, match=message):
            detect_refusal(REFUSAL_STRING, "both")
        with pytest.raises(ValueError, match=message):
            refusal_rates([], "both")


class TestRefusalRates:
    def test_all_set2_refusals(self):
        outputs = [(f"q{i}", "set2_incorrect_context", REFUSAL_STRING) for i in range(10)]
        rates = refusal_rates(outputs)
        assert rates["set2_rate"] == 100.0
        assert rates["set1_rate"] is None

    def test_half_and_half(self):
        outputs = [
            ("q1", "set1_correct_context", REFUSAL_STRING),
            ("q2", "set1_correct_context", "A real answer."),
            ("q3", "set2_incorrect_context", REFUSAL_STRING),
            ("q4", "set2_incorrect_context", "Another answer."),
        ]
        rates = refusal_rates(outputs)
        assert rates["set1_rate"] == 50.0
        assert rates["set2_rate"] == 50.0

    def test_engineered_fixture_rates_reproduce_exactly(self):
        outputs = []
        for i in range(150):  # 131/150 = 87.333 -> 87.3
            text = REFUSAL_STRING if i < 131 else f"Answer {i}."
            outputs.append((f"s2-{i}", "set2_incorrect_context", text))
        for i in range(500):  # 266/500 = 53.2 exactly
            text = REFUSAL_STRING if i < 266 else f"Answer {i}."
            outputs.append((f"s1-{i}", "set1_correct_context", text))
        rates = refusal_rates(outputs)
        assert f"{rates['set2_rate']:.1f}" == "87.3"
        assert f"{rates['set1_rate']:.1f}" == "53.2"

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            refusal_rates([("q1", "set3", "text")])


class TestTokenF1:
    def test_identical(self):
        assert token_f1("the offer price", "the offer price") == 1.0

    def test_disjoint(self):
        assert token_f1("alpha beta", "gamma delta") == 0.0

    def test_half_overlap(self):
        assert token_f1("a b", "b c") == 0.5

    def test_empty_sides(self):
        assert token_f1("", "reference") == 0.0
        assert token_f1("prediction", "") == 0.0

    def test_multiset_counting(self):
        # pred has one 'a', ref has two: P = 1/1, R = 1/2 -> F1 = 2/3
        assert token_f1("a", "a a") == pytest.approx(2 / 3)


class TestMeanScoreWithDeltaCi:
    def test_identical_scores(self):
        pairs = [(f"q{i}", 0.5 + i / 100) for i in range(10)]
        out = mean_score_with_delta_ci(pairs, pairs, iterations=500, seed=0)
        assert out["delta"] == 0.0
        assert out["delta_ci"] == [0.0, 0.0]

    def test_constant_improvement(self):
        a = [(f"q{i}", 0.75) for i in range(8)]
        b = [(f"q{i}", 0.70) for i in range(8)]
        out = mean_score_with_delta_ci(a, b, iterations=500, seed=0)
        assert out["delta"] == pytest.approx(0.05)
        assert out["delta_ci"][0] == pytest.approx(0.05)
        assert out["delta_ci"][1] == pytest.approx(0.05)

    def test_ci_brackets_mean_delta(self):
        import numpy as np
        rng = np.random.default_rng(0)
        ids = [f"q{i}" for i in range(40)]
        a = [(q, float(rng.random())) for q in ids]
        b = [(q, float(rng.random())) for q in ids]
        out = mean_score_with_delta_ci(a, b, iterations=2000, seed=1)
        assert out["delta_ci"][0] <= out["delta"] <= out["delta_ci"][1]

    def test_id_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mean_score_with_delta_ci([("q1", 0.5)], [("q2", 0.5)], iterations=10, seed=0)


def test_model_output_jsonl_loader(tmp_path):
    rows = [
        {"query_id": "q1", "set_tag": "set1_correct_context", "output": "answer text"},
        {"query_id": "q2", "set_tag": "set2_incorrect_context", "output": REFUSAL_STRING},
    ]
    path = tmp_path / "outputs.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in rows), encoding="utf-8")
    outputs = load_model_outputs(path)
    assert outputs == [("q1", "set1_correct_context", "answer text"),
                       ("q2", "set2_incorrect_context", REFUSAL_STRING)]
