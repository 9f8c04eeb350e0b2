"""Preference-pair dataset construction and refusal-behavior evaluation.

Two pair sets are built from context-grounded QA records:

* set 1 (correct context): the record's own context; answering is preferred
  over refusing.
* set 2 (incorrect context): a context sampled from a record belonging to a
  different source document; refusing is preferred over answering.

Refusal detection normalizes model output and, in strict mode, matches only
the canonical refusal sentence; soft mode additionally matches hedged
non-answers ("does not provide", "no information in the context"). Both rates
are worth reporting: real model output contains plenty of non-canonical
refusals.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from lexrag.configs import WITH_REFUSAL_INSTRUCTION, WITHOUT_REFUSAL_INSTRUCTION, SplitSpec
from lexrag.schema import OPTIONAL_STRING, REQUIRED_STRING, check
from lexrag.stats import bootstrap_ci, draw_below, permutation
from lexrag.textutils import (
    normalize_for_match,
    read_jsonl,
    strip_terminal_punctuation,
    tokenize,
    write_jsonl,
)

if TYPE_CHECKING:  # for annotations alone, so `eval-refusal` does not load it
    from lexrag.corpus import QueryRecord

REFUSAL_STRING = "Given context is not sufficient to answer."

DEFAULT_SOFT_PATTERNS = [
    "does not provide",
    "no information in the context",
]

# the forms ``detect_refusal`` looks for, normalized once
_CANONICAL_REFUSAL = strip_terminal_punctuation(normalize_for_match(REFUSAL_STRING))
_SOFT_FORMS = [normalize_for_match(p) for p in DEFAULT_SOFT_PATTERNS]


@dataclass
class PreferencePair:
    pair_id: str
    prompt: str
    chosen: str
    rejected: str
    set_tag: str  # "set1_correct_context" | "set2_incorrect_context"
    source_query_id: str


def split_dataset(records: list[QueryRecord],
                  spec: SplitSpec) -> tuple[list[QueryRecord], list[QueryRecord], list[QueryRecord]]:
    """Seeded shuffle (``lexrag.stats.permutation``, which reads counters 0 to n - 2
    of the seed for n records), then contiguous train/validation/test slices."""
    total = spec.train + spec.validation + spec.test
    if total > len(records):
        raise ValueError(f"split sizes sum to {total} but only {len(records)} records exist")
    order = permutation(spec.seed, len(records))
    shuffled = [records[i] for i in order]
    train = shuffled[:spec.train]
    validation = shuffled[spec.train:spec.train + spec.validation]
    test = shuffled[spec.train + spec.validation:total]
    return train, validation, test


def render_prompt(template: str, context: str, question: str) -> str:
    """Build the QA prompt, context first, then the question.

    The "with" variant carries the explicit instruction to emit the canonical
    refusal sentence when the context is insufficient; the "without" variant
    omits it (the instruction-ablation configuration).
    """
    if template == WITH_REFUSAL_INSTRUCTION:
        instruction = (
            "Answer the question using only the provided context. "
            f'If it cannot be answered, give the answer: "{REFUSAL_STRING}"'
        )
    elif template == WITHOUT_REFUSAL_INSTRUCTION:
        instruction = "Answer the question using only the provided context."
    else:
        raise ValueError(f"unknown prompt template: {template!r}")
    return f"{instruction}\n\nContext: {context}\n\nQuestion: {question}\n\nAnswer:"


def build_preference_pairs(records: list[QueryRecord], seed: int = 0,
                           template: str = WITH_REFUSAL_INSTRUCTION,
                           start: int = 0) -> list[PreferencePair]:
    """Emit one set-1 and one set-2 pair per record (2 x |records| total).

    Set-2 contexts are sampled uniformly (seeded) from records whose source
    document differs: record i takes candidate ``draw_below(seed, start + i, len(
    candidates))`` of those records, in record order; ``dpo-build`` starts each split
    past the counters read before it. One source document cannot support set 2: it raises.
    """
    for record in records:
        if not record.question or not record.context_text or not record.gold_answer:
            raise ValueError(f"record {record.query_id!r} lacks question/context/answer")
        if normalize_for_match(record.gold_answer) == normalize_for_match(REFUSAL_STRING):
            raise ValueError(f"record {record.query_id!r}: gold answer equals the refusal string")
    if len({r.source_doc_id for r in records}) < 2:
        raise ValueError("set 2 needs records from at least two source documents")

    # each source document's candidate list, in record order, built once
    others: dict[str | None, list[QueryRecord]] = {}
    pairs: list[PreferencePair] = []
    for i, record in enumerate(records):
        pairs.append(PreferencePair(
            pair_id=f"{record.query_id}:set1",
            prompt=render_prompt(template, record.context_text, record.question),
            chosen=record.gold_answer,
            rejected=REFUSAL_STRING,
            set_tag="set1_correct_context",
            source_query_id=record.query_id,
        ))
        if record.source_doc_id not in others:
            others[record.source_doc_id] = [r for r in records
                                            if r.source_doc_id != record.source_doc_id]
        candidates = others[record.source_doc_id]
        wrong = candidates[draw_below(seed, start + i, len(candidates))]
        pairs.append(PreferencePair(
            pair_id=f"{record.query_id}:set2",
            prompt=render_prompt(template, wrong.context_text, record.question),
            chosen=REFUSAL_STRING,
            rejected=record.gold_answer,
            set_tag="set2_incorrect_context",
            source_query_id=record.query_id,
        ))
    return pairs


def _check_mode(mode: str) -> None:
    if mode not in ("strict", "soft"):
        raise ValueError(f"refusal mode must be 'strict' or 'soft', not {mode!r}")


def detect_refusal(output: str, mode: str = "strict") -> bool:
    """True when the output is (or contains) the canonical refusal.

    Normalization: lowercase, collapse whitespace, strip terminal punctuation.
    Soft mode additionally accepts the hedge patterns in ``DEFAULT_SOFT_PATTERNS``;
    a mode other than "strict" or "soft" is a ValueError naming it.
    """
    _check_mode(mode)
    normalized = strip_terminal_punctuation(normalize_for_match(output))
    return _CANONICAL_REFUSAL in normalized or mode == "soft" and any(
        form in normalized for form in _SOFT_FORMS)


def refusal_rates(outputs: list[tuple[str, str, str]],
                  mode: str = "strict") -> dict[str, float | None]:
    """Percentage of refusals per set from (query_id, set_tag, output) triples, under
    ``detect_refusal``'s ``mode``.

    Empty sets report None (not applicable). Rates are exact percentages;
    rendering rounds to one decimal place.
    """
    _check_mode(mode)
    counts = {"set1": [0, 0], "set2": [0, 0]}
    for query_id, set_tag, output_text in outputs:
        if set_tag.startswith("set1"):
            key = "set1"
        elif set_tag.startswith("set2"):
            key = "set2"
        else:
            raise ValueError(f"output {query_id!r} has unknown set tag {set_tag!r}")
        counts[key][1] += 1
        if detect_refusal(output_text, mode):
            counts[key][0] += 1
    return {
        f"{key}_rate": (100.0 * hit / total if total else None)
        for key, (hit, total) in counts.items()
    }


def token_f1(prediction: str, reference: str) -> float:
    """Token-overlap F1 between prediction and reference (0 if either is empty)."""
    pred = tokenize(prediction)
    ref = tokenize(reference)
    if not pred or not ref:
        return 0.0
    overlap = Counter(pred) & Counter(ref)
    n_common = sum(overlap.values())
    if n_common == 0:
        return 0.0
    precision = n_common / len(pred)
    recall = n_common / len(ref)
    return 2 * precision * recall / (precision + recall)


def mean_score_with_delta_ci(pairs_a: list[tuple[str, float]], pairs_b: list[tuple[str, float]],
                             iterations: int = 10000, seed: int = 0) -> dict:
    """Paired bootstrap comparison of two per-query score sets (a - b)."""
    import numpy as np
    by_id_a = dict(pairs_a)
    by_id_b = dict(pairs_b)
    if len(by_id_a) != len(pairs_a) or len(by_id_b) != len(pairs_b):
        raise ValueError("duplicate query ids in score list")
    if set(by_id_a) != set(by_id_b):
        raise ValueError("query id sets differ between the two score lists")
    ids = sorted(by_id_a)
    a = np.array([by_id_a[q] for q in ids])
    b = np.array([by_id_b[q] for q in ids])
    deltas = a - b
    lo, hi = bootstrap_ci(deltas, iterations=iterations, seed=seed)
    return {
        "mean_a": float(a.mean()),
        "mean_b": float(b.mean()),
        "delta": float(deltas.mean()),
        "delta_ci": [lo, hi],
        "n": len(ids),
    }


def dump_pairs(pairs: list[PreferencePair], path: str | Path,
               style: str = "plain") -> None:
    """JSON-lines export.

    ``plain`` writes flat prompt/chosen/rejected records (the shape most
    preference trainers consume); ``conversation`` wraps the prompt in a
    single-turn conversation structure.
    """
    if style == "plain":
        rows = (asdict(pair) for pair in pairs)
    elif style == "conversation":
        rows = ({
            "pair_id": pair.pair_id,
            "conversations": [{"from": "human", "value": pair.prompt}],
            "chosen": {"from": "gpt", "value": pair.chosen},
            "rejected": {"from": "gpt", "value": pair.rejected},
            "set_tag": pair.set_tag,
            "source_query_id": pair.source_query_id,
        } for pair in pairs)
    else:
        raise ValueError(f"unknown export style: {style!r}")
    write_jsonl(rows, path)


# one row of a model-output file (see ``lexrag.schema``); set_tag defaults to "set1"
MODEL_OUTPUT = (("query_id", *REQUIRED_STRING), ("set_tag", *OPTIONAL_STRING),
                ("output", *REQUIRED_STRING))


def load_model_outputs(path: str | Path) -> list[tuple[str, str, str]]:
    """Read model-output JSON-lines: {query_id, set_tag, output}.

    A row that ``MODEL_OUTPUT`` rejects is a ValueError naming the path, the line
    and the key. Once every row has passed, a repeated (query_id, set_tag) is a
    ValueError naming the path and both lines.
    """
    outputs = []
    numbers = []
    for number, rec in read_jsonl(path):
        check(rec, MODEL_OUTPUT, f"{path}, line {number}")
        outputs.append((rec["query_id"], rec.get("set_tag", "set1"), rec["output"]))
        numbers.append(number)
    first_line: dict[tuple[str, str], int] = {}
    for number, (query_id, set_tag, _) in zip(numbers, outputs):
        first = first_line.setdefault((query_id, set_tag), number)
        if first != number:
            raise ValueError(f"{path}, lines {first} and {number}: query_id {query_id!r} "
                             f"repeats under set_tag {set_tag!r}")
    return outputs
