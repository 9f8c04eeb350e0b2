import json
import os
from pathlib import Path

import numpy as np
import pytest

import lexrag
from lexrag.chunker import Chunk
from lexrag.corpus import Document, DocumentMeta


@pytest.fixture
def tiny_corpus(tmp_path: Path) -> Path:
    root = tmp_path / "corpus"
    root.mkdir()
    (root / "a.txt").write_text("x", encoding="utf-8")
    (root / "b.txt").write_text("y", encoding="utf-8")
    return root


def child_env(blas_threads: str | None = None) -> dict[str, str]:
    """The environment for a fresh Python process that imports this lexrag: it sees
    OPENBLAS_NUM_THREADS only when ``blas_threads`` is given."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(lexrag.__file__).parents[1])
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    return env


def make_chunk(ordinal: int, text: str, doc_id: str = "doc", start: int = 0) -> Chunk:
    return Chunk(chunk_id=f"{doc_id}#{ordinal:06d}", doc_id=doc_id, start=start,
                 end=start + len(text), text=text, ordinal=ordinal, core_start=start)


def make_doc(doc_id: str, text: str, title: str = "", jurisdiction: str | None = None,
             doc_type: str | None = None) -> Document:
    return Document(doc_id=doc_id, text=text,
                    meta=DocumentMeta(title=title, jurisdiction=jurisdiction,
                                      doc_type=doc_type))


def random_document_text(rng: np.random.Generator, n_tokens: int | None = None,
                         max_paragraph_tokens: int = 100) -> str:
    """Synthetic prose with paragraph, line, and sentence structure.

    Paragraph runs are capped so no single piece ever approaches the default
    chunk budget; with target 256 / overlap 50 the overlap borrow is then
    never shrunk by the capacity term.
    """
    n_tokens = n_tokens or int(rng.integers(5, 900))
    words = []
    for _ in range(n_tokens):
        length = int(rng.integers(1, 11))
        word = "".join(chr(97 + int(rng.integers(0, 26))) for _ in range(length))
        words.append(word)
    parts = []
    since_break = 0
    i = 0
    while i < len(words):
        parts.append(words[i])
        since_break += 1
        i += 1
        if i >= len(words):
            break
        roll = rng.random()
        if roll < 0.03 or since_break >= max_paragraph_tokens:
            parts.append("\n\n")
            since_break = 0
        elif roll < 0.08:
            parts.append("\n")
        elif roll < 0.16:
            parts.append(". ")
        else:
            parts.append(" ")
    return "".join(parts)


def write_jsonl(path: Path, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")
