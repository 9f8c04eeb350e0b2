"""``lexrag.schema.check``, and a hostile-input test derived from every reader's spec.

For each spec and each of its keys, the hostile-input test starts from a valid file
that the toy pipeline writes, replaces the key's value with one of each other JSON
type, and deletes the key where it is required. The reading command runs in-process
through ``cli.main``. A command that stops on a bad record must exit 1 with exactly
one error JSON line naming the file, the line or record, and the key; a QA file's bad
record is a load error instead, so ``ingest`` exits 0 and lists exactly one error
naming the record and the key. The cases come from the specs, so a key added to one
is covered with no new test code.
"""

import json

import pytest

from lexrag import chunker, corpus, evaluator, preference, schema
from lexrag.cli import main
from tests.conftest import write_jsonl
from tests.synthcorpus import build_aus_corpus, build_legal_corpus

# one value of each JSON type, under the Python type json parses it to
SAMPLES = {str: "x", int: 7, float: 0.5, bool: True, type(None): None, list: [], dict: {}}
DELETE = object()


def hostile_cases(spec: tuple):
    """(key, value) for each value of another JSON type, and (key, DELETE) for each
    required key."""
    for key, types, required, _, _ in spec:
        for kind, sample in SAMPLES.items():
            if kind not in types:
                yield key, sample
        if required:
            yield key, DELETE


class TestCheck:
    SPEC = (("name", *schema.REQUIRED_STRING),
            ("count", schema.INTEGER, False, lambda n: n >= 1, "an integer >= 1"),
            ("note", schema.STRING + schema.NULL, False, None, "a string or null"))

    def test_valid_record_is_returned(self):
        record = {"name": "a", "count": 2, "note": None, "other": [1]}
        assert schema.check(record, self.SPEC, "here") is record

    @pytest.mark.parametrize("record,message", [
        ({}, "here: key 'name' is missing"),
        ({"name": 3}, "here: key 'name' must be a string, not 3"),
        ({"name": "a", "count": True}, "here: key 'count' must be an integer >= 1, not True"),
        ({"name": "a", "count": 1.0}, "here: key 'count' must be an integer >= 1, not 1.0"),
        ({"name": "a", "count": 0}, "here: key 'count' must be an integer >= 1, not 0"),
        ({"name": "a", "note": 5}, "here: key 'note' must be a string or null, not 5"),
    ], ids=["missing", "mistyped", "true-is-no-int", "float-is-no-int", "test-fails",
            "null-or-string"])
    def test_one_message_per_fault(self, record, message):
        with pytest.raises(ValueError) as exc_info:
            schema.check(record, self.SPEC, "here")
        assert str(exc_info.value) == message

    def test_long_rejected_value_is_cut(self):
        value = ["x" * 40] * 50
        with pytest.raises(ValueError) as exc_info:
            schema.check({"name": value}, self.SPEC, "here")
        assert str(exc_info.value) == (
            "here: key 'name' must be a string, not " + repr(value)[:schema.REPR_CHARS] + "…")

    def test_cases_cover_every_other_type_and_required_deletion(self):
        cases = list(hostile_cases(self.SPEC))
        assert ("name", DELETE) in cases and ("count", DELETE) not in cases
        assert [v for k, v in cases if k == "count"] == ["x", 0.5, True, None, [], {}]
        assert [v for k, v in cases if k == "note"] == [7, 0.5, True, [], {}]


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """The files a toy pipeline writes: a legal corpus's sidecar, snippet-QA file,
    chunks, enriched chunks and metric report, and an aus corpus's QA file and
    model outputs."""
    base = tmp_path_factory.mktemp("written")
    root, manifest, qa, _ = build_legal_corpus(base, n_docs=2, seed=0)
    aus_root, aus_qa = build_aus_corpus(base / "aus", n_records=3, n_docs=2, seed=1)
    outputs = base / "outputs.jsonl"
    write_jsonl(outputs, [{"query_id": json.loads(line)["query_id"],
                           "set_tag": "set1_correct_context", "output": "An answer."}
                          for line in aus_qa.read_text(encoding="utf-8").splitlines()])
    corpus_args = ["--root", str(root), "--manifest", str(manifest)]
    chunks = base / "chunks" / "chunks.jsonl"
    assert main(["chunk", *corpus_args, "--target", "48", "--overlap", "8",
                 "--out", str(chunks.parent)]) == 0
    assert main(["enrich", *corpus_args, "--chunks", str(chunks),
                 "--out", str(base / "enriched")]) == 0
    assert main(["index", "--chunks", str(chunks), "--dim", "16",
                 "--out", str(base / "index")]) == 0
    assert main(["eval-retrieval", "--index", str(base / "index"), "--qa", str(qa),
                 "--k", "1,4", "--bootstrap-iterations", "20", "--out", str(base / "eval")]) == 0
    return {"root": root, "manifest": manifest, "qa": qa, "chunks": chunks,
            "enriched": base / "enriched" / "enriched.jsonl",
            "report": base / "eval" / "metric_report.json", "aus_root": aus_root,
            "aus_qa": aus_qa, "outputs": outputs}


def _targets(w: dict) -> dict:
    """Per spec: (the file, the steps from its parsed content to the record, where the
    messages say the record is, given the copy's path, and the command that reads
    the copy)."""
    report = json.loads(w["report"].read_text(encoding="utf-8"))
    at_ks, qid = [str(k) for k in report["ks"]], next(iter(report["per_query"]))
    doc_id = next(iter(json.loads(w["manifest"].read_text(encoding="utf-8"))))
    ingest = ["ingest", "--root", str(w["root"]), "--qa"]
    aus_ingest = ["ingest", "--root", str(w["aus_root"]), "--format", "aus_legal_qa", "--qa"]
    line_2 = lambda path: f"{path}, line 2"  # noqa: E731
    report_where = lambda tail: lambda path: f"{path}: {tail}"  # noqa: E731
    return {
        "chunk_row": (chunker.CHUNK_ROW, w["chunks"], [1], line_2, ["index", "--chunks"]),
        "enriched_row": (chunker.ENRICHED_ROW, w["enriched"], [1], line_2,
                         ["index", "--chunks"]),
        "report": (evaluator.REPORT, w["report"], [], str, ["report", "--report"]),
        "report_per_k": (tuple((k, *schema.REQUIRED_OBJECT) for k in at_ks), w["report"],
                         ["per_k"], report_where("per_k"), ["report", "--report"]),
        "report_per_k_entry": (evaluator.PER_K_ENTRY, w["report"], ["per_k", at_ks[0]],
                               report_where(f"per_k, k={at_ks[0]}"), ["report", "--report"]),
        "report_per_query": (tuple((q, *evaluator.ANY_QUERY) for q in report["per_query"]),
                             w["report"], ["per_query"], report_where("per_query"),
                             ["report", "--report"]),
        "report_query": (evaluator.QUERY, w["report"], ["per_query", qid],
                         report_where(f"query {qid!r}"), ["report", "--report"]),
        **{f"report_{metric}_values": (
            tuple((k, *evaluator.VALUES[metric]) for k in at_ks), w["report"],
            ["per_query", qid, metric], report_where(f"query {qid!r}, metric {metric!r}"),
            ["report", "--report"]) for metric in evaluator.METRICS},
        "sidecar_entry": (corpus.SIDECAR_ENTRY, w["manifest"], [doc_id],
                          report_where(f"entry {doc_id!r}"),
                          ["chunk", "--root", str(w["root"]), "--manifest"]),
        "snippet_qa_record": (corpus.SNIPPET_QA_RECORD, w["qa"], [1],
                              lambda path: "record[1]", ingest),
        "snippet": (corpus.SNIPPET, w["qa"], [1, "snippets", 0],
                    lambda path: "record[1].snippets[0]", ingest),
        "aus_legal_qa_record": (corpus.AUS_LEGAL_QA_RECORD, w["aus_qa"], [1],
                                lambda path: "record[1]", aus_ingest),
        "model_output": (preference.MODEL_OUTPUT, w["outputs"], [1], line_2,
                         ["eval-refusal", "--outputs"]),
    }


SPECS = ["chunk_row", "enriched_row", "report", "report_per_k", "report_per_k_entry",
         "report_per_query", "report_query", "report_drm_values", "report_span_recall_values",
         "sidecar_entry",
         "snippet_qa_record", "snippet", "aus_legal_qa_record", "model_output"]


@pytest.mark.parametrize("name", SPECS)
def test_each_key_of_each_spec_hostile_value_named(written, tmp_path, capsys, name):
    spec, source, steps, where, argv = _targets(written)[name]
    lines = source.suffix == ".jsonl"
    text = source.read_text(encoding="utf-8")
    path = tmp_path / source.name
    out = tmp_path / "out"
    faults = []
    for key, value in hostile_cases(spec):
        content = [json.loads(line) for line in text.splitlines()] if lines else json.loads(text)
        record = content
        for step in steps:
            record = record[step]
        if value is DELETE:
            del record[key]
        else:
            record[key] = value
        path.write_text("".join(json.dumps(row) + "\n" for row in content) if lines
                        else json.dumps(content), encoding="utf-8")
        code = main([*argv, str(path), "--out", str(out)])
        stdout, stderr = capsys.readouterr()
        case = (key, "deleted" if value is DELETE else value)
        if argv[0] == "ingest":  # a bad QA record is a load error, and loading goes on
            errors = json.loads((out / "ingest_report.json").read_text())["qa_errors"]
            if code != 0 or len(errors) != 1 or errors[0]["where"] != where(path) \
                    or repr(key) not in errors[0]["message"]:
                faults.append((case, code, errors))
            continue
        message = json.loads(stderr) if code == 1 and len(stderr.splitlines()) == 1 else {}
        named = (where(path), repr(key))
        if set(message) != {"error", "message"} or not all(n in message["message"]
                                                           for n in named):
            faults.append((case, code, stderr))
    assert not faults
