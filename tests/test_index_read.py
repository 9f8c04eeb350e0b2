"""`lexrag index` reads its chunk file line by line: what it parses, and the errors
it gives, for the line endings and faults a hand-edited file can hold.

Each case is the same five chunk rows written another way. Every file that
parses must give the same ``index.npz``, keep its own bytes as the index's
``chunks.jsonl`` and record their sha256; every file that does not must fail
with the error JSON naming the file and the line that a universal-newline
reader counts (a lone ``\\r`` ends a line).
"""

import hashlib
import json

import pytest

from lexrag.chunker import load_chunks
from lexrag.cli import main
from lexrag.index import load_index_chunks
from tests.conftest import make_chunk

_CHUNKS = [make_chunk(0, "The Court held the offer void.", "a"),
           make_chunk(1, "Straße und Gericht: naïve élan, 2004.", "a", start=31),
           make_chunk(2, "The price was the offer's price.", "a", start=69),
           make_chunk(0, "Ωμέγα court 法院判决 x1", "b"),
           make_chunk(1, "... ;;; ...", "b", start=20)]  # no index term at all
LINES = [json.dumps(c.to_dict(), ensure_ascii=False, sort_keys=True).encode("utf-8")
         for c in _CHUNKS]
NOT_UTF8 = b'{"chunk_id": "caf\xe9"}'  # Latin-1, not UTF-8
BAD_JSON = b'{"chunk_id": oops}'


def _with_line_3(line: bytes) -> list[bytes]:
    return [*LINES[:2], line, *LINES[2:]]


CASES = {
    "lf": b"\n".join(LINES) + b"\n",
    "crlf": b"\r\n".join(LINES) + b"\r\n",
    "lone-cr": b"\r".join(LINES) + b"\r",
    "no-trailing-newline": b"\n".join(LINES),
    "crlf-no-trailing-newline": b"\r\n".join(LINES),
    "blank-lines": b"\n" + b"\n\n".join(LINES) + b"\n \t\n\r\n\n",
    "not-utf8-line-3": b"\n".join(_with_line_3(NOT_UTF8)) + b"\n",
    "not-utf8-line-3-crlf": b"\r\n".join(_with_line_3(NOT_UTF8)),
    "not-utf8-line-3-lone-cr": b"\r".join(_with_line_3(NOT_UTF8)),
    "not-utf8-last-line": b"\n".join([*LINES, NOT_UTF8]),
    "bad-json-line-3": b"\n".join(_with_line_3(BAD_JSON)) + b"\n",
    "bad-json-line-3-lone-cr": b"\r".join(_with_line_3(BAD_JSON)) + b"\r",
    "bad-json-after-blank-lines": b"\n\n" + b"\r\n".join(_with_line_3(BAD_JSON)),
    "repeated-chunk-id": b"\r\n".join([*LINES, LINES[3]]),
    "only-blank-lines": b"\n\r\n \n",
    "empty": b"",
}
# the error each failing case gives, {path} standing for the chunk file
ERRORS = {
    "not-utf8-line-3": "{path}, line 3: not UTF-8 text (byte 0xe9)",
    "not-utf8-line-3-crlf": "{path}, line 3: not UTF-8 text (byte 0xe9)",
    "not-utf8-line-3-lone-cr": "{path}, line 3: not UTF-8 text (byte 0xe9)",
    "not-utf8-last-line": "{path}, line 6: not UTF-8 text (byte 0xe9)",
    "bad-json-line-3": "{path}, line 3: not valid JSON (Expecting value, column 14)",
    "bad-json-line-3-lone-cr": "{path}, line 3: not valid JSON (Expecting value, column 14)",
    "bad-json-after-blank-lines": "{path}, line 5: not valid JSON (Expecting value, column 14)",
    "repeated-chunk-id": "repeated chunk_id 'b#000000' in {path}",
    "only-blank-lines": "no chunks in {path}",
    "empty": "no chunks in {path}",
}


def _index(tmp_path, name: str, data: bytes, capsys):
    """Run `lexrag index` on ``data`` written as a chunk file; (exit code, stderr
    JSON or None, chunk file, output directory)."""
    path = tmp_path / f"{name}.jsonl"
    path.write_bytes(data)
    out = tmp_path / f"index_{name}"
    code = main(["index", "--chunks", str(path), "--dim", "32", "--out", str(out)])
    err = capsys.readouterr().err.strip()
    return code, json.loads(err) if err else None, path, out


@pytest.mark.parametrize("name", sorted(CASES))
def test_index_reads_each_line_ending_and_fault_alike(tmp_path, capsys, name):
    code, err, path, out = _index(tmp_path, name, CASES[name], capsys)
    if name in ERRORS:
        assert code == 1
        assert err == {"error": "ValueError", "message": ERRORS[name].format(path=path)}
        assert not (out / "index.npz").exists()
        return
    assert (code, err) == (0, None)
    _, _, _, reference = _index(tmp_path, "reference", CASES["lf"], capsys)
    assert (out / "index.npz").read_bytes() == (reference / "index.npz").read_bytes()
    assert (out / "chunks.jsonl").read_bytes() == CASES[name]
    meta = json.loads((out / "index_meta.json").read_text(encoding="utf-8"))
    assert meta["sha256"]["chunks.jsonl"] == hashlib.sha256(CASES[name]).hexdigest()
    # the index's copy, read as a stream, holds what the file held
    ids = [c.chunk_id for c in _CHUNKS]
    assert load_index_chunks(out, ids) == load_chunks(path) == _CHUNKS


def test_index_of_a_missing_chunk_file_names_it(tmp_path, capsys):
    path = tmp_path / "absent.jsonl"
    assert main(["index", "--chunks", str(path), "--out", str(tmp_path / "index")]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err == {"error": "FileNotFoundError",
                   "message": f"[Errno 2] No such file or directory: '{path}'"}
