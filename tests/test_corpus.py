import json

import pytest

from lexrag.corpus import (
    DocumentCollection,
    DuplicateDocumentError,
    GoldSpan,
    QueryRecord,
    byte_span_to_char_span,
    convert_spans_to_char,
    dataset_counts,
    load_documents,
    load_qa_dataset,
    url_to_doc_id,
    validate_annotations,
)
from tests.conftest import make_doc


def test_load_documents_enumerates_files(tiny_corpus):
    docs = load_documents(tiny_corpus)
    assert len(docs) == 2
    assert [d.doc_id for d in docs] == ["a.txt", "b.txt"]
    assert docs["a.txt"].text == "x"
    assert not docs.errors


def test_load_documents_nested_path_doc_id(tmp_path):
    root = tmp_path / "corpus"
    (root / "maud").mkdir(parents=True)
    (root / "maud" / "Michaels_Companies_Apollo.txt").write_text("agreement text",
                                                                 encoding="utf-8")
    docs = load_documents(root)
    assert [d.doc_id for d in docs] == ["maud/Michaels_Companies_Apollo.txt"]


def test_load_documents_empty_directory(tmp_path):
    root = tmp_path / "empty"
    root.mkdir()
    docs = load_documents(root)
    assert len(docs) == 0
    assert docs.errors == []


def test_load_documents_bad_files_become_errors(tmp_path):
    root = tmp_path / "corpus"
    root.mkdir()
    (root / "good.txt").write_text("fine", encoding="utf-8")
    (root / "binary.bin").write_bytes(b"\xff\xfe\x00\x80\xff")
    (root / "empty.txt").write_text("", encoding="utf-8")
    docs = load_documents(root)
    assert [d.doc_id for d in docs] == ["good.txt"]
    assert {e.where for e in docs.errors} == {"binary.bin", "empty.txt"}


def test_load_documents_manifest_populates_meta(tmp_path):
    root = tmp_path / "corpus"
    root.mkdir()
    (root / "case1.txt").write_text("body", encoding="utf-8")
    manifest = tmp_path / "meta.json"
    manifest.write_text(json.dumps({
        "case1.txt": {"title": "R v Gutierrez [2004] NSWCCA 22",
                      "jurisdiction": "NSW", "doc_type": "judgment"},
    }), encoding="utf-8")
    docs = load_documents(root, manifest)
    meta = docs["case1.txt"].meta
    assert meta.title == "R v Gutierrez [2004] NSWCCA 22"
    assert meta.jurisdiction == "NSW"
    # documents missing from the manifest default to the file name
    (root / "case2.txt").write_text("body2", encoding="utf-8")
    docs = load_documents(root, manifest)
    assert docs["case2.txt"].meta.title == "case2.txt"


def test_duplicate_doc_id_is_fatal():
    with pytest.raises(DuplicateDocumentError):
        DocumentCollection([make_doc("a", "x"), make_doc("a", "y")])


def test_url_to_doc_id_slug():
    url = "https://example.org/cases/nsw/2004/22?format=txt"
    slug = url_to_doc_id(url)
    assert slug == "example.org/cases/nsw/2004/22_format_txt"
    assert url_to_doc_id(url) == slug


def test_load_snippet_qa_listing_shape(tmp_path):
    payload = [{
        "query": "What is the Type of Consideration in the acquisition?",
        "snippets": [
            {"file_path": "maud/Michaels_Companies_Apollo.txt", "span": [5284, 5913],
             "answer": "...at a price per share of $22.00 (the Offer Price), net to the holder ..."},
            {"file_path": "maud/Michaels_Companies_Apollo.txt", "span": [86031, 86699],
             "answer": "Each Share shall be converted into the right to receive ..."},
        ],
    }]
    path = tmp_path / "qa.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    records, errors = load_qa_dataset(path, "snippet_qa")
    assert not errors
    assert len(records) == 1
    rec = records[0]
    assert len(rec.gold_spans) == 2
    assert all(s.doc_id == "maud/Michaels_Companies_Apollo.txt" for s in rec.gold_spans)
    assert rec.gold_spans[0].start == 5284 and rec.gold_spans[0].end == 5913


def test_load_snippet_qa_empty_array(tmp_path):
    path = tmp_path / "qa.json"
    path.write_text("[]", encoding="utf-8")
    records, errors = load_qa_dataset(path, "snippet_qa")
    assert records == [] and errors == []


def test_load_snippet_qa_record_level_errors(tmp_path):
    payload = [
        {"snippets": []},  # missing query
        {"query": "ok?", "snippets": [{"file_path": "d", "span": [1, 2, 3], "answer": "a"}]},
        {"query": "fine?", "snippets": [{"file_path": "d", "span": [0, 4], "answer": "a"}]},
    ]
    path = tmp_path / "qa.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    records, errors = load_qa_dataset(path, "snippet_qa")
    assert len(records) == 1
    assert records[0].question == "fine?"
    assert len(errors) == 2
    assert "record[0]" in errors[0].where
    assert "snippets[0]" in errors[1].where


def test_load_aus_legal_qa(tmp_path):
    rows = [{
        "Question": "What did the court decide?",
        "document URL": "https://courts.example.au/judgments/2004/22.txt",
        "Context": "<Text excerpt from doc to answer>",
        "Document MetaData": "Supreme Court 2004",
        "Answer": "The appeal was dismissed.",
    }]
    path = tmp_path / "aus.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in rows), encoding="utf-8")
    records, errors = load_qa_dataset(path, "aus_legal_qa")
    assert not errors
    rec = records[0]
    assert rec.gold_spans == []
    assert rec.context_text == "<Text excerpt from doc to answer>"
    assert rec.gold_answer == "The appeal was dismissed."
    assert rec.source_doc_id == "courts.example.au/judgments/2004/22.txt"


def test_load_aus_legal_qa_missing_key(tmp_path):
    path = tmp_path / "aus.json"
    path.write_text(json.dumps([{"Question": "q?", "Answer": "a"}]), encoding="utf-8")
    records, errors = load_qa_dataset(path, "aus_legal_qa")
    assert records == []
    assert len(errors) == 1 and errors[0].message == "record[0]: key 'Context' is missing"


def _aus_row(question: str, **extra) -> dict:
    return {"Question": question, "document URL": "https://example.au/case.txt",
            "Context": "context", "Answer": "answer", **extra}


def test_load_aus_legal_qa_malformed_line_keeps_loading(tmp_path):
    path = tmp_path / "aus.jsonl"
    path.write_text("\n".join([json.dumps(_aus_row("first?")), '{"Question": "cut off',
                               "", json.dumps(_aus_row("third?"))]) + "\n", encoding="utf-8")
    records, errors = load_qa_dataset(path, "aus_legal_qa")
    assert [r.question for r in records] == ["first?", "third?"]
    assert [r.query_id for r in records] == ["q00000", "q00002"]
    assert len(errors) == 1
    assert errors[0].where == "record[1]" and "invalid JSON" in errors[0].message


def test_load_aus_legal_qa_line_separator_inside_a_string_is_not_a_line_break(tmp_path):
    # JSON allows U+2028, U+2029 and U+0085 raw inside strings; str.splitlines breaks there
    context = "first part\u2028second\u2029third\u0085fourth"
    path = tmp_path / "aus.jsonl"
    path.write_text("\n".join(json.dumps(row, ensure_ascii=False) for row in [
        _aus_row("first?", Context=context), _aus_row("second?")]) + "\n", encoding="utf-8")
    records, errors = load_qa_dataset(path, "aus_legal_qa")
    assert errors == []
    assert [(r.query_id, r.question) for r in records] == [("q00000", "first?"),
                                                           ("q00001", "second?")]
    assert records[0].context_text == context


def test_load_snippet_qa_duplicate_query_ids_keep_first(tmp_path):
    snippets = [{"file_path": "d", "span": [0, 4], "answer": "a"}]
    payload = [
        {"query_id": "q00002", "query": "first?", "snippets": snippets},
        {"query_id": "q00002", "query": "repeat?", "snippets": snippets},
        {"query": "fallback collides?", "snippets": snippets},  # falls back to q00002
        {"query": "own id?", "snippets": snippets},
    ]
    path = tmp_path / "qa.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    records, errors = load_qa_dataset(path, "snippet_qa")
    assert [(r.query_id, r.question) for r in records] == [("q00002", "first?"),
                                                           ("q00003", "own id?")]
    assert [e.where for e in errors] == ["record[1]", "record[2]"]
    assert all("duplicate query_id" in e.message for e in errors)


def test_load_aus_legal_qa_duplicate_query_ids_keep_first(tmp_path):
    rows = [_aus_row("first?", query_id="q00001"), _aus_row("fallback collides?"),
            _aus_row("repeat?", query_id="q00001")]
    path = tmp_path / "aus.json"
    path.write_text(json.dumps(rows), encoding="utf-8")
    records, errors = load_qa_dataset(path, "aus_legal_qa")
    assert [(r.query_id, r.question) for r in records] == [("q00001", "first?")]
    assert [e.where for e in errors] == ["record[1]", "record[2]"]


_SNIPPET = {"file_path": "d", "span": [0, 4], "answer": "a"}


@pytest.mark.parametrize("record,where,key", [
    ({"query": "q?", "snippets": 5}, "record[0]", "snippets"),
    ({"query": "q?", "snippets": {"file_path": "d"}}, "record[0]", "snippets"),
    ({"query_id": ["x"], "query": "q?", "snippets": [_SNIPPET]}, "record[0]", "query_id"),
    ({"query_id": 7, "query": "q?", "snippets": [_SNIPPET]}, "record[0]", "query_id"),
    ({"query": "q?", "snippets": [_SNIPPET], "answer": 5}, "record[0]", "answer"),
    ({"query": "q?", "snippets": ["d"]}, "record[0].snippets[0]", "snippets"),
    ({"query": "q?", "snippets": [{**_SNIPPET, "file_path": 5}]},
     "record[0].snippets[0]", "file_path"),
    ({"query": "q?", "snippets": [{**_SNIPPET, "answer": None}]},
     "record[0].snippets[0]", "answer"),
    ({"query": "q?", "snippets": [{**_SNIPPET, "span": [True, 4]}]},
     "record[0].snippets[0]", "span"),
    ({"query": "q?", "snippets": [{**_SNIPPET, "span": [0, 4.0]}]},
     "record[0].snippets[0]", "span"),
    ({"query": "q?", "snippets": [{**_SNIPPET, "span": [4, 0]}]},
     "record[0].snippets[0]", "span"),
    ({"query": "q?", "snippets": [{**_SNIPPET, "span": [4, 4]}]},
     "record[0].snippets[0]", "span"),
    ({"query": "q?", "snippets": [{**_SNIPPET, "span": [-2, 4]}]},
     "record[0].snippets[0]", "span"),
], ids=["snippets-int", "snippets-object", "query-id-list", "query-id-int", "answer-int",
        "snippet-string", "file-path-int", "snippet-answer-null", "span-bool", "span-float",
        "span-reversed", "span-empty", "span-negative"])
def test_load_snippet_qa_mistyped_field_is_a_load_error(tmp_path, record, where, key):
    """A field of the wrong JSON type, or a span that is not 0 <= start < end, fails
    its record alone, naming the record and the key, and the next record still
    loads. A reversed span once loaded, and scored its query's span recall 0."""
    path = tmp_path / "qa.json"
    path.write_text(json.dumps([record, {"query": "fine?", "snippets": [_SNIPPET]}]),
                    encoding="utf-8")
    records, errors = load_qa_dataset(path, "snippet_qa")
    assert [(r.query_id, r.question) for r in records] == [("q00001", "fine?")]
    assert len(errors) == 1
    assert errors[0].where == where and repr(key) in errors[0].message


@pytest.mark.parametrize("key,value", [
    ("document URL", 5), ("document URL", None), ("Context", ["c"]), ("Answer", 1.5),
    ("Question", 3), ("query_id", 7), ("query_id", ["x"]),
], ids=["url-int", "url-null", "context-list", "answer-float", "question-int", "query-id-int",
        "query-id-list"])
def test_load_aus_legal_qa_mistyped_field_is_a_load_error(tmp_path, key, value):
    path = tmp_path / "aus.jsonl"
    path.write_text("\n".join(json.dumps(row) for row in [
        _aus_row("bad?", **{key: value}), _aus_row("fine?")]) + "\n", encoding="utf-8")
    records, errors = load_qa_dataset(path, "aus_legal_qa")
    assert [(r.query_id, r.question) for r in records] == [("q00001", "fine?")]
    assert len(errors) == 1
    assert errors[0].where == "record[0]" and repr(key) in errors[0].message


def test_validate_annotations_clean_and_out_of_bounds():
    docs = DocumentCollection([make_doc("d", "0123456789")])
    clean = QueryRecord("q1", "q?", [GoldSpan("d", 0, 5, "01234")])
    oob = QueryRecord("q2", "q?", [GoldSpan("d", 8, 20, "nope")])
    missing = QueryRecord("q3", "q?", [GoldSpan("other", 0, 2, "xx")])
    report = validate_annotations([clean, oob, missing], docs)
    assert report.clean_records == ["q1"]
    kinds = {f.query_id: f.kind for f in report.findings}
    assert kinds == {"q2": "out_of_bounds", "q3": "unresolved_doc"}
    assert report.spans_checked == 3


def test_validate_annotations_case_mismatch_reports_both_facts():
    docs = DocumentCollection([make_doc("d", "the Offer Price stands")])
    rec = QueryRecord("q1", "q?", [GoldSpan("d", 4, 15, "offer  price")])
    report = validate_annotations([rec], docs)
    assert report.clean_records == []
    finding = report.findings[0]
    assert finding.kind == "mismatch"
    assert finding.raw_equal is False
    assert finding.normalized_equal is False  # case-preserving normalization
    assert finding.loose_equal is True  # passes once case-folded
    assert json.dumps(report.to_dict())  # JSON-serializable


def test_validate_annotations_whitespace_only_difference_is_clean():
    docs = DocumentCollection([make_doc("d", "an Offer  Price here")])
    rec = QueryRecord("q1", "q?", [GoldSpan("d", 3, 15, "Offer Price")])
    report = validate_annotations([rec], docs)
    assert report.clean_records == ["q1"]
    assert report.findings == []


def test_byte_span_conversion():
    text = "café law"  # é is 2 bytes in UTF-8
    assert byte_span_to_char_span(text, 0, 3) == (0, 3)
    assert byte_span_to_char_span(text, 0, 5) == (0, 4)
    assert byte_span_to_char_span(text, 5, 9) == (4, 8)
    with pytest.raises(ValueError):
        byte_span_to_char_span(text, 0, 4)  # splits é
    with pytest.raises(ValueError):
        byte_span_to_char_span(text, 0, 99)


def test_convert_spans_to_char_in_place():
    docs = DocumentCollection([make_doc("d", "café law")])
    rec = QueryRecord("q1", "q?", [GoldSpan("d", 5, 9, "law ")])
    errors = convert_spans_to_char([rec], docs)
    assert errors == []
    assert (rec.gold_spans[0].start, rec.gold_spans[0].end) == (4, 8)


def test_dataset_counts():
    records = [
        QueryRecord("q1", "a?", [GoldSpan("d1", 0, 1, "x"), GoldSpan("d2", 0, 1, "y")]),
        QueryRecord("q2", "b?", [GoldSpan("d1", 2, 3, "z")]),
    ]
    assert dataset_counts(records) == {"records": 2, "gold_spans": 3, "distinct_span_docs": 2}


def test_load_documents_deterministic_order(tmp_path):
    root = tmp_path / "c"
    root.mkdir()
    for name in ["z.txt", "a.txt", "m.txt"]:
        (root / name).write_text(name, encoding="utf-8")
    first = [d.doc_id for d in load_documents(root)]
    second = [d.doc_id for d in load_documents(root)]
    assert first == second == ["a.txt", "m.txt", "z.txt"]
