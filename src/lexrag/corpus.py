"""Corpus data model, document ingestion, and QA dataset loading/validation.

Documents are plain UTF-8 text files; ``doc_id`` is the path relative to the
corpus root (POSIX separators) or, for records that reference documents by
URL, a slug derived from the URL. All span offsets are indexed over Unicode
code points, matching Python string indexing. A byte-offset compatibility
switch exists for datasets whose span integers turn out to be byte-based.
Sidecar entries and QA records and snippets are checked against the specs here
(``SIDECAR_ENTRY``, ``SNIPPET_QA_RECORD``, ``SNIPPET``, ``AUS_LEGAL_QA_RECORD``).
"""

from __future__ import annotations

import json
import re
import unicodedata
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterator

from lexrag.schema import (ARRAY, NULL, OBJECT, OPTIONAL_STRING, REQUIRED_STRING, STRING,
                           check, invalid)
from lexrag.textutils import normalize_whitespace, read_json, read_text

_URL_SCHEME = re.compile(r"^[A-Za-z][A-Za-z0-9+.-]*://")
_UNSAFE_ID_CHARS = re.compile(r"[^A-Za-z0-9._/-]+")


@dataclass
class DocumentMeta:
    """Document-level descriptors used for chunk enrichment."""

    title: str = ""
    jurisdiction: str | None = None
    doc_type: str | None = None
    source_url: str | None = None
    extra: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.title = _sanitize(self.title)
        self.jurisdiction = _sanitize(self.jurisdiction) if self.jurisdiction else self.jurisdiction
        self.doc_type = _sanitize(self.doc_type) if self.doc_type else self.doc_type
        self.source_url = _sanitize(self.source_url) if self.source_url else self.source_url
        self.extra = {k: _sanitize(v) for k, v in self.extra.items()}


@dataclass
class Document:
    doc_id: str
    text: str
    meta: DocumentMeta = field(default_factory=DocumentMeta)


@dataclass
class GoldSpan:
    """A gold evidence location: ``[start, end)`` character span in one document."""

    doc_id: str
    start: int
    end: int
    answer_text: str


@dataclass
class QueryRecord:
    query_id: str
    question: str
    gold_spans: list[GoldSpan] = field(default_factory=list)
    gold_answer: str = ""
    context_text: str | None = None
    source_doc_id: str | None = None


@dataclass
class LoadError:
    where: str
    message: str


class DuplicateDocumentError(ValueError):
    pass


class DocumentCollection:
    """Immutable-by-convention mapping of doc_id -> Document, ordered by doc_id.

    Loading is single-writer; once built, the collection is safe to read from
    many threads concurrently.
    """

    def __init__(self, documents: list[Document], errors: list[LoadError] | None = None):
        self._docs: dict[str, Document] = {}
        for doc in sorted(documents, key=lambda d: d.doc_id):
            if doc.doc_id in self._docs:
                raise DuplicateDocumentError(f"duplicate doc_id: {doc.doc_id!r}")
            self._docs[doc.doc_id] = doc
        self.errors = errors or []

    def __len__(self) -> int:
        return len(self._docs)

    def __iter__(self) -> Iterator[Document]:
        return iter(self._docs.values())

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._docs

    def __getitem__(self, doc_id: str) -> Document:
        return self._docs[doc_id]

    def get(self, doc_id: str) -> Document | None:
        return self._docs.get(doc_id)


def _sanitize(value: str) -> str:
    """Drop control characters; metadata values must be plain text."""
    return "".join(c for c in value if unicodedata.category(c) != "Cc" or c in "\t")


def url_to_doc_id(url: str) -> str:
    """Derive a filesystem-safe doc_id slug from a source URL.

    The scheme is dropped and characters outside [A-Za-z0-9._/-] become "_",
    so a fetch utility can store judgments under predictable relative paths.
    """
    stripped = _URL_SCHEME.sub("", url.strip())
    return _UNSAFE_ID_CHARS.sub("_", stripped).strip("/")


# one entry of a corpus sidecar, the metadata of one document (see ``lexrag.schema``)
SIDECAR_ENTRY = (
    ("title", *OPTIONAL_STRING),
    *((key, STRING + NULL, False, None, "a string or null")
      for key in ("jurisdiction", "doc_type", "source_url")),
    ("extra", OBJECT, False, lambda e: all(type(v) is str for v in e.values()),
     "an object of strings"))


def load_documents(root: str | Path, manifest: str | Path | None = None) -> DocumentCollection:
    """Load every file under ``root`` as one Document.

    doc_id is the POSIX relative path. Unreadable or empty files become
    per-file error entries and loading continues. An optional sidecar
    manifest (JSON object doc_id -> meta fields) populates DocumentMeta;
    documents without an entry get a default title of their file name. An entry
    that ``SIDECAR_ENTRY`` rejects, or that names no file under ``root``, is a
    ValueError naming the sidecar and the doc_id; an empty or unreadable file counts.
    """
    root = Path(root)
    if not root.is_dir():
        raise FileNotFoundError(f"corpus root does not exist: {root}")

    meta_by_id: dict[str, DocumentMeta] = {}
    manifest_path = Path(manifest).resolve() if manifest else None
    if manifest_path is not None:
        for doc_id, entry in read_json(manifest_path).items():
            if type(entry) is not dict:
                raise invalid(str(manifest_path), doc_id, "an object", entry)
            check(entry, SIDECAR_ENTRY, f"{manifest_path}: entry {doc_id!r}")
            meta_by_id[doc_id] = DocumentMeta(**{key: entry[key] for key, *_ in SIDECAR_ENTRY
                                                 if key in entry})

    files = {path.relative_to(root).as_posix(): path
             for path in sorted(p for p in root.rglob("*") if p.is_file())
             if manifest_path is None or path.resolve() != manifest_path}
    unmatched = sorted(meta_by_id.keys() - files.keys())
    if unmatched:
        raise ValueError(f"{manifest_path}: entry {unmatched[0]!r} names no file under "
                         f"{root} ({len(unmatched)} of {len(meta_by_id)} entries unmatched)")

    documents: list[Document] = []
    errors: list[LoadError] = []
    for doc_id, path in files.items():
        try:
            text = path.read_text(encoding="utf-8")
        except (UnicodeDecodeError, OSError) as exc:
            errors.append(LoadError(doc_id, f"unreadable: {exc}"))
            continue
        if not text:
            errors.append(LoadError(doc_id, "empty file"))
            continue
        meta = meta_by_id.get(doc_id) or DocumentMeta(title=path.name)
        documents.append(Document(doc_id=doc_id, text=text, meta=meta))
    return DocumentCollection(documents, errors)


def byte_span_to_char_span(text: str, start: int, end: int) -> tuple[int, int]:
    """Convert a UTF-8 byte span to a code-point span.

    Raises ValueError when either offset falls inside a multi-byte sequence
    or outside the document.
    """
    encoded = text.encode("utf-8")
    if not (0 <= start < end <= len(encoded)):
        raise ValueError(f"byte span [{start}, {end}) out of range for {len(encoded)}-byte text")
    try:
        char_start = len(encoded[:start].decode("utf-8"))
        char_end = char_start + len(encoded[start:end].decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ValueError(f"byte span [{start}, {end}) splits a multi-byte character") from exc
    return char_start, char_end


def load_qa_dataset(path: str | Path, format: str) -> tuple[list[QueryRecord], list[LoadError]]:
    """Load a QA dataset in either supported format.

    ``snippet_qa`` is a JSON array of records with a ``query`` and a
    ``snippets`` list of ``{file_path, span: [start, end), answer}`` entries.
    ``aus_legal_qa`` is a JSON array or JSON-lines file of records with
    ``Question``, ``document URL``, ``Context``, and ``Answer`` keys; its
    gold spans start empty and are filled later by alignment.

    A JSON-lines line that does not parse, a record or snippet that its spec
    rejects, or a record whose ``query_id`` (given, or the ``q{i:05d}`` fallback)
    repeats an earlier one becomes an error entry naming it; loading continues.
    Spans are read as character offsets. ``convert_spans_to_char`` converts UTF-8 byte
    offsets (ingest's --span-unit byte), and ``validate_annotations`` finds spans past
    their document's end: both need the loaded documents.
    """
    if format not in {"snippet_qa", "aus_legal_qa"}:
        raise ValueError(f"unknown dataset format: {format!r}")
    if format == "snippet_qa":
        return _parse_qa(read_json(path, list), format)
    raw_text = read_text(path)
    if raw_text.lstrip().startswith("["):
        return _parse_qa(read_json(path, list), format)
    # split at "\n" alone, as read_jsonl does: str.splitlines would also break at
    # U+2028, U+2029 and U+0085, which JSON strings may hold raw
    return _parse_qa([_json_line(line) for line in raw_text.split("\n") if line.strip()],
                     format)


# a snippet_qa record and each of its snippets, and an aus_legal_qa record (see
# ``lexrag.schema``); a record without a query_id takes q{i:05d}
_QUESTION = (STRING, True, lambda text: bool(text.strip()), "a string that is not blank")
SNIPPET_QA_RECORD = (("query_id", *OPTIONAL_STRING), ("query", *_QUESTION),
                     ("answer", *OPTIONAL_STRING), ("snippets", ARRAY, True, None, "a list"))
SNIPPET = (("file_path", *REQUIRED_STRING),
           ("span", ARRAY, True, lambda span: len(span) == 2 and all(type(v) is int for v in span)
            and 0 <= span[0] < span[1], "two integers [start, end] with 0 <= start < end"),
           ("answer", *OPTIONAL_STRING))
AUS_LEGAL_QA_RECORD = (("query_id", *OPTIONAL_STRING), ("Question", *_QUESTION),
                       *((key, *REQUIRED_STRING) for key in ("Answer", "Context", "document URL")))


def _parse_qa(rows: list, format: str) -> tuple[list[QueryRecord], list[LoadError]]:
    """``load_qa_dataset``'s records and error entries from the file's parsed rows."""
    records: dict[str, QueryRecord] = {}
    errors: list[LoadError] = []
    spec, question_key = ((SNIPPET_QA_RECORD, "query") if format == "snippet_qa"
                          else (AUS_LEGAL_QA_RECORD, "Question"))
    for i, rec in enumerate(rows):
        where = f"record[{i}]"
        try:
            if isinstance(rec, json.JSONDecodeError):
                raise ValueError(f"{where}: invalid JSON: {rec}")
            if type(rec) is not dict:
                raise ValueError(f"{where}: not a JSON object")
            check(rec, spec, where)
            record = QueryRecord(rec.get("query_id", f"q{i:05d}"), rec[question_key])
            if format == "aus_legal_qa":
                record.gold_answer, record.context_text = rec["Answer"], rec["Context"]
                record.source_doc_id = url_to_doc_id(rec["document URL"])
            else:
                record.gold_answer = rec.get("answer", "")
                for j, snip in enumerate(rec["snippets"]):
                    where = f"record[{i}].snippets[{j}]"
                    if type(snip) is not dict:
                        raise invalid(f"record[{i}]", "snippets", "a list of objects",
                                      rec["snippets"])
                    check(snip, SNIPPET, where)
                    record.gold_spans.append(GoldSpan(snip["file_path"], *snip["span"],
                                                      snip.get("answer", "")))
        except ValueError as exc:
            errors.append(LoadError(where, str(exc)))
            continue
        if record.query_id in records:  # the first record keeps the id
            errors.append(LoadError(f"record[{i}]", f"record[{i}]: duplicate query_id: "
                                                    f"{record.query_id!r}"))
        else:
            records[record.query_id] = record
    return list(records.values()), errors


def _json_line(line: str):
    """The parsed line, or the decode error so the caller can record it and go on."""
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        return exc


def convert_spans_to_char(records: list[QueryRecord], docs: DocumentCollection) -> list[LoadError]:
    """Reinterpret gold span offsets as UTF-8 byte offsets, converting in place.

    Companion to ``load_qa_dataset(..., span_unit="byte")`` for datasets whose
    validation mismatch rate indicates byte-based annotation. Returns per-span
    conversion errors.
    """
    errors: list[LoadError] = []
    for rec in records:
        for k, span in enumerate(rec.gold_spans):
            doc = docs.get(span.doc_id)
            if doc is None:
                errors.append(LoadError(f"{rec.query_id}.spans[{k}]",
                                        f"unresolved doc_id {span.doc_id!r}"))
                continue
            try:
                span.start, span.end = byte_span_to_char_span(doc.text, span.start, span.end)
            except ValueError as exc:
                errors.append(LoadError(f"{rec.query_id}.spans[{k}]", str(exc)))
    return errors


@dataclass
class SpanFinding:
    query_id: str
    span_index: int
    doc_id: str
    kind: str  # "out_of_bounds" | "unresolved_doc" | "mismatch"
    raw_equal: bool = False
    normalized_equal: bool = False
    loose_equal: bool = False
    detail: str = ""


@dataclass
class ValidationReport:
    findings: list[SpanFinding]
    records_checked: int
    spans_checked: int
    clean_records: list[str]

    @property
    def error_count(self) -> int:
        return sum(1 for f in self.findings if f.kind in ("out_of_bounds", "unresolved_doc"))

    @property
    def warning_count(self) -> int:
        return sum(1 for f in self.findings if f.kind == "mismatch")

    def to_dict(self) -> dict:
        return {
            "records_checked": self.records_checked,
            "spans_checked": self.spans_checked,
            "errors": self.error_count,
            "warnings": self.warning_count,
            "clean_records": self.clean_records,
            "findings": [asdict(f) for f in self.findings],
        }


def validate_annotations(records: list[QueryRecord], docs: DocumentCollection) -> ValidationReport:
    """Check every gold span against its document.

    A span is clean when its document slice equals its answer text after
    whitespace normalization (case-preserving). Slices that only match
    case-insensitively are mismatch warnings carrying all three comparison
    outcomes, so scrape noise can be audited without failing the load.
    """
    findings: list[SpanFinding] = []
    spans_checked = 0
    clean_records: list[str] = []
    for rec in records:
        record_clean = True
        for k, span in enumerate(rec.gold_spans):
            spans_checked += 1
            doc = docs.get(span.doc_id)
            if doc is None:
                findings.append(SpanFinding(rec.query_id, k, span.doc_id, "unresolved_doc",
                                            detail="doc_id not in collection"))
                record_clean = False
                continue
            if not (0 <= span.start < span.end <= len(doc.text)):
                findings.append(SpanFinding(
                    rec.query_id, k, span.doc_id, "out_of_bounds",
                    detail=f"span [{span.start}, {span.end}) vs doc length {len(doc.text)}"))
                record_clean = False
                continue
            piece = doc.text[span.start:span.end]
            raw_equal = piece == span.answer_text
            norm_piece = normalize_whitespace(piece)
            norm_answer = normalize_whitespace(span.answer_text)
            normalized_equal = norm_piece == norm_answer
            loose_equal = norm_piece.casefold() == norm_answer.casefold()
            if not normalized_equal:
                findings.append(SpanFinding(
                    rec.query_id, k, span.doc_id, "mismatch",
                    raw_equal=raw_equal, normalized_equal=normalized_equal,
                    loose_equal=loose_equal,
                    detail="slice differs from answer text after whitespace normalization"))
                record_clean = False
        if record_clean:
            clean_records.append(rec.query_id)
    return ValidationReport(findings, len(records), spans_checked, clean_records)


def dataset_counts(records: list[QueryRecord]) -> dict:
    """Counts summary used by ingest reporting: records, spans, distinct docs."""
    span_docs = {s.doc_id for r in records for s in r.gold_spans}
    return {
        "records": len(records),
        "gold_spans": sum(len(r.gold_spans) for r in records),
        "distinct_span_docs": len(span_docs),
    }
