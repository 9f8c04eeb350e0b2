"""Seeded synthetic inputs for the pipeline benchmark.

Everything here is a pure function of the seed and the size arguments, so two
runs with the same seed feed lexrag byte-identical files. Text is Zipf(1.15)
over a seeded vocabulary of random lowercase words, broken into sentences and
paragraphs so the chunker's separator hierarchy has real boundaries to use.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ZIPF_EXPONENT = 1.15
VOCAB_SIZE = 30_000
REFUSAL = "Given context is not sufficient to answer."
HEDGE = "The context does not provide enough detail on this point."

_TOKEN = re.compile(r"\S+")


def _vocabulary(rng: np.random.Generator, size: int) -> list[str]:
    letters = np.frombuffer(b"abcdefghijklmnopqrstuvwxyz", dtype=np.uint8)
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < size:
        lengths = rng.integers(2, 10, size=size)
        pool = letters[rng.integers(0, 26, size=(size, 9))]
        for row, n in zip(pool, lengths):
            word = row[:n].tobytes().decode("ascii")
            if word not in seen:
                seen.add(word)
                words.append(word)
                if len(words) == size:
                    break
    return words


class ZipfText:
    """Draws Zipf-distributed words and lays them out as prose."""

    def __init__(self, rng: np.random.Generator, vocab_size: int = VOCAB_SIZE):
        self.rng = rng
        self.vocab = _vocabulary(rng, vocab_size)
        weights = np.arange(1, vocab_size + 1, dtype=np.float64) ** -ZIPF_EXPONENT
        self.cdf = np.cumsum(weights / weights.sum())

    def words(self, n: int) -> list[str]:
        ranks = np.searchsorted(self.cdf, self.rng.random(n), side="right")
        ranks = np.minimum(ranks, len(self.vocab) - 1)
        return [self.vocab[r] for r in ranks]

    def document(self, n_tokens: int) -> str:
        words = self.words(n_tokens)
        paragraphs, sentences, i = [], [], 0
        while i < len(words):
            n = int(self.rng.integers(8, 25))
            sentence = words[i:i + n]
            i += n
            sentences.append(" ".join(sentence).capitalize() + ".")
            if len(sentences) >= int(self.rng.integers(4, 9)) or i >= len(words):
                paragraphs.append(" ".join(sentences))
                sentences = []
        return "\n\n".join(paragraphs) + "\n"


def _write_corpus(root: Path, texts: dict[str, str], manifest_path: Path,
                  rng: np.random.Generator) -> None:
    manifest = {}
    for i, (doc_id, text) in enumerate(texts.items()):
        path = root / doc_id
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        manifest[doc_id] = {
            "title": f"matter {i:04d} determination",
            "jurisdiction": f"region_{int(rng.integers(0, 12)):02d}",
            "doc_type": ["tribunal decision", "appeal judgment", "practice note"][i % 3],
        }
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                             encoding="utf-8")


@dataclass
class RetrievalInputs:
    root: Path
    manifest: Path
    qa: Path
    docs: int
    queries: int


def retrieval_corpus(out: Path, seed: int, n_docs: int, tokens_per_doc: int,
                     n_queries: int, query_words: int = 12) -> RetrievalInputs:
    """Zipfian corpus, metadata manifest and a snippet-QA file of span queries.

    Each query is ``query_words`` consecutive words copied from a document;
    its gold span is exactly where they were copied from.
    """
    rng = np.random.default_rng([seed, 1])
    text = ZipfText(rng)
    root = out / "corpus"
    texts = {f"docs/doc_{i:04d}.txt": text.document(tokens_per_doc) for i in range(n_docs)}
    manifest = out / "manifest.json"
    _write_corpus(root, texts, manifest, rng)

    doc_ids = list(texts)
    records = []
    for q in range(n_queries):
        doc_id = doc_ids[int(rng.integers(0, n_docs))]
        tokens = [m.span() for m in _TOKEN.finditer(texts[doc_id])]
        first = int(rng.integers(0, len(tokens) - query_words))
        start, end = tokens[first][0], tokens[first + query_words - 1][1]
        answer = texts[doc_id][start:end]
        records.append({
            "query_id": f"q{q:05d}",
            "query": " ".join(answer.split()),
            "snippets": [{"file_path": doc_id, "span": [start, end], "answer": answer}],
            "answer": answer,
        })
    qa = out / "qa.json"
    qa.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return RetrievalInputs(root=root, manifest=manifest, qa=qa, docs=n_docs,
                           queries=n_queries)


@dataclass
class AlignInputs:
    root: Path
    qa: Path
    outputs_a: Path
    outputs_b: Path
    truth: dict          # query_id -> {"doc_id", "start", "end", "tier"}
    planted: dict        # outputs_a refusal counts per set and kind
    records: int


def _normalized(text: str) -> str:
    return " ".join(text.split()).lower()


def _reflow(excerpt: str, rng: np.random.Generator) -> str:
    """Same words, different whitespace: some spaces become newlines or doubles."""
    parts = excerpt.split()
    out = [parts[0]]
    for word in parts[1:]:
        out.append(["\n", "  ", " \n"][int(rng.integers(0, 3))] if rng.random() < 0.3 else " ")
        out.append(word)
    reflowed = "".join(out)
    if reflowed == excerpt:
        reflowed = reflowed.replace(" ", "\n", 1)
    return reflowed


def _substitute(excerpt: str, text: ZipfText, rng: np.random.Generator, n: int = 2) -> str:
    """Replace ``n`` distinct interior words with different vocabulary words."""
    spans = [m.span() for m in _TOKEN.finditer(excerpt)]
    picks = sorted(rng.choice(np.arange(1, len(spans) - 1), size=n, replace=False).tolist())
    pieces, last = [], 0
    for i in picks:
        s, e = spans[i]
        old = excerpt[s:e]
        new = old
        while new.lower().strip(".") == old.lower().strip("."):
            new = text.words(1)[0]
        pieces.append(excerpt[last:s])
        pieces.append(new)
        last = e
    pieces.append(excerpt[last:])
    return "".join(pieces)


def align_corpus(out: Path, seed: int, n_records: int, doc_chars: int,
                 context_chars: int = 500, records_per_doc: int = 2) -> AlignInputs:
    """Aus-format QA records whose Context excerpts have a known true span.

    Record ``i`` is tier ``i % 3 + 1``: a verbatim excerpt, a whitespace-
    reflowed excerpt, or an excerpt with two words substituted. Two model-
    output files plant known numbers of canonical and hedged refusals.
    """
    rng = np.random.default_rng([seed, 2])
    text = ZipfText(rng)
    n_docs = -(-n_records // records_per_doc)
    texts = {}
    for i in range(n_docs):
        body = text.document(doc_chars // 6)
        while len(body) < doc_chars:
            body += text.document(200)
        texts[f"judgments.example.org/case/{i:04d}.txt"] = body
    root = out / "corpus"
    _write_corpus(root, texts, out / "manifest.json", rng)

    doc_ids = list(texts)
    records, truth = [], {}
    for i in range(n_records):
        doc_id = doc_ids[i // records_per_doc]
        doc = texts[doc_id]
        tokens = [m.span() for m in _TOKEN.finditer(doc)]
        norm_doc = _normalized(doc)
        while True:
            first = int(rng.integers(0, len(tokens) - 200))
            last = first
            while tokens[last][1] - tokens[first][0] < context_chars:
                last += 1
            start, end = tokens[first][0], tokens[last][1]
            excerpt = doc[start:end]
            if doc.count(excerpt) == 1 and norm_doc.count(_normalized(excerpt)) == 1:
                break
        tier = i % 3 + 1
        context = (excerpt if tier == 1 else _reflow(excerpt, rng) if tier == 2
                   else _substitute(excerpt, text, rng))
        query_id = f"r{i:04d}-t{tier}"
        answer_words = excerpt.split()[:20]
        records.append({
            "query_id": query_id,
            "Question": f"What did the decision hold about {' '.join(text.words(3))}?",
            "document URL": f"https://{doc_id}",
            "Context": context,
            "Answer": " ".join(answer_words),
        })
        truth[query_id] = {"doc_id": doc_id, "start": start, "end": end, "tier": tier}
    qa = out / "aus_qa.jsonl"
    qa.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records),
                  encoding="utf-8")

    def model_outputs(path: Path, salt: int) -> dict:
        orng = np.random.default_rng([seed, 3, salt])
        planted = {"set1": {"canonical": 0, "hedged": 0, "total": 0},
                   "set2": {"canonical": 0, "hedged": 0, "total": 0}}
        lines = []
        for i, record in enumerate(records):
            key = "set1" if i % 2 == 0 else "set2"
            roll = orng.random()
            if roll < 0.25:
                output, kind = REFUSAL, "canonical"
            elif roll < 0.4:
                output, kind = HEDGE, "hedged"
            else:
                words = record["Answer"].split()
                keep = int(orng.integers(len(words) // 2, len(words) + 1))
                output, kind = " ".join(words[:keep] + text.words(4)), None
            planted[key]["total"] += 1
            if kind:
                planted[key][kind] += 1
            tag = "set1_correct_context" if key == "set1" else "set2_incorrect_context"
            lines.append(json.dumps({"query_id": record["query_id"], "set_tag": tag,
                                     "output": output}, sort_keys=True) + "\n")
        path.write_text("".join(lines), encoding="utf-8")
        return planted

    outputs_a, outputs_b = out / "outputs_a.jsonl", out / "outputs_b.jsonl"
    planted = model_outputs(outputs_a, 0)
    model_outputs(outputs_b, 1)
    return AlignInputs(root=root, qa=qa, outputs_a=outputs_a, outputs_b=outputs_b,
                       truth=truth, planted=planted, records=n_records)
