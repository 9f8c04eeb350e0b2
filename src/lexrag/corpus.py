"""Corpus data model, document ingestion, and QA dataset loading/validation.

Documents are plain UTF-8 text files; ``doc_id`` is the path relative to the
corpus root (POSIX separators) or, for records that reference documents by
URL, a slug derived from the URL. All span offsets are indexed over Unicode
code points, matching Python string indexing. A byte-offset compatibility
switch exists for datasets whose span integers turn out to be byte-based.
"""

from __future__ import annotations

import json
import re
import unicodedata
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterator

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


def _sidecar_meta(path: Path, doc_id: str, entry) -> DocumentMeta:
    """DocumentMeta from one sidecar entry; a mistyped value is a ValueError
    naming the sidecar, the doc_id and the key."""
    where = f"{path}: entry {doc_id!r}"
    if not isinstance(entry, dict):
        raise ValueError(f"{where} is not a JSON object")
    title, extra = entry.get("title", ""), entry.get("extra", {})
    optional = {key: entry.get(key) for key in ("jurisdiction", "doc_type", "source_url")}
    if not isinstance(title, str):
        raise ValueError(f"{where}: key 'title' must be a string")
    for key, value in optional.items():
        if value is not None and not isinstance(value, str):
            raise ValueError(f"{where}: key {key!r} must be a string or null")
    if not isinstance(extra, dict) or not all(isinstance(v, str) for v in extra.values()):
        raise ValueError(f"{where}: key 'extra' must map strings to strings")
    return DocumentMeta(title=title, extra=dict(extra), **optional)


def load_documents(root: str | Path, manifest: str | Path | None = None) -> DocumentCollection:
    """Load every file under ``root`` as one Document.

    doc_id is the POSIX relative path. Unreadable or empty files become
    per-file error entries and loading continues. An optional sidecar
    manifest (JSON object doc_id -> meta fields) populates DocumentMeta;
    documents without an entry get a default title of their file name. A
    sidecar entry naming no file under ``root`` is a ValueError naming the
    sidecar and the doc_id; an empty or unreadable file counts as named.
    """
    root = Path(root)
    if not root.is_dir():
        raise FileNotFoundError(f"corpus root does not exist: {root}")

    meta_by_id: dict[str, DocumentMeta] = {}
    manifest_path = Path(manifest).resolve() if manifest else None
    if manifest_path is not None:
        for doc_id, entry in read_json(manifest_path).items():
            meta_by_id[doc_id] = _sidecar_meta(manifest_path, doc_id, entry)

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

    Malformed records (a JSON-lines line that does not parse, or a field of
    the wrong type: every field read is a string, ``query_id`` too, and a span
    two ints, not JSON true) become error entries with their index; loading
    continues. A record whose
    ``query_id`` (given, or the ``q{i:05d}`` fallback) repeats an earlier one
    is an error entry too; the first keeps the id. Span integers are read as
    character offsets; datasets annotated in UTF-8 byte offsets are converted
    afterwards with ``convert_spans_to_char`` (ingest's --span-unit byte),
    which needs the loaded documents.
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


def _field(rec: dict, key: str, kind: type = str, default=None):
    """``rec[key]``, which must be a ``kind``, or ``default`` where the key is absent
    and a default is given; anything else is a ValueError naming the key."""
    if key not in rec and default is None:
        raise ValueError(f"missing required key: {key!r}")
    value = rec.get(key, default)
    if not isinstance(value, kind):
        raise ValueError(f"key {key!r} must be a {'string' if kind is str else kind.__name__}, "
                         f"not {value!r}")
    return value


def _gold_span(snip) -> GoldSpan:
    """One snippet_qa snippet; a span end that is not an int (JSON true included)
    is a ValueError naming the key, as is any other field of the wrong type."""
    if not isinstance(snip, dict):
        raise ValueError(f"key 'snippets' must hold objects, not {snip!r}")
    span = _field(snip, "span", list)
    if len(span) != 2 or any(type(v) is not int for v in span):
        raise ValueError(f"key 'span' must be two integers [start, end], not {span!r}")
    return GoldSpan(doc_id=_field(snip, "file_path"), start=span[0], end=span[1],
                    answer_text=_field(snip, "answer", default=""))


def _parse_qa(rows: list, format: str) -> tuple[list[QueryRecord], list[LoadError]]:
    """``load_qa_dataset``'s records and error entries from the file's parsed rows."""
    records: dict[str, QueryRecord] = {}
    errors: list[LoadError] = []
    question_key = "query" if format == "snippet_qa" else "Question"
    for i, rec in enumerate(rows):
        where = f"record[{i}]"
        try:
            if isinstance(rec, json.JSONDecodeError):
                raise ValueError(f"invalid JSON: {rec}")
            if not isinstance(rec, dict):
                raise ValueError("record is not an object")
            record = QueryRecord(query_id=_field(rec, "query_id", default=f"q{i:05d}"),
                                 question=_field(rec, question_key))
            if not record.question.strip():
                raise ValueError(f"key {question_key!r} holds an empty question")
            if format == "aus_legal_qa":
                record.gold_answer = _field(rec, "Answer")
                record.context_text = _field(rec, "Context")
                record.source_doc_id = url_to_doc_id(_field(rec, "document URL"))
            else:
                record.gold_answer = _field(rec, "answer", default="")
                for j, snip in enumerate(_field(rec, "snippets", list)):
                    where = f"record[{i}].snippets[{j}]"
                    record.gold_spans.append(_gold_span(snip))
        except ValueError as exc:
            errors.append(LoadError(where, str(exc)))
            continue
        if record.query_id in records:  # the first record keeps the id
            errors.append(LoadError(f"record[{i}]", f"duplicate query_id: {record.query_id!r}"))
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
