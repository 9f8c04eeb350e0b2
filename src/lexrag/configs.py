"""Configuration records whose defaults the CLI's settings table reads.

They live here, apart from the code that uses them, so the table can be built
without loading any other lexrag module. Each is also importable from the module
that uses it: ``lexrag.chunker.ChunkConfig``, ``lexrag.remote.RemoteConfig``,
``lexrag.retriever.FusionConfig``, ``lexrag.preference.SplitSpec`` and the two
prompt template names in ``lexrag.preference``.

A setting no caller varies is a constant of the module that uses it instead:
the aligner's shingle width, window slack, tier-3 threshold, anchor length,
anchor occurrence cap and chain drift (``lexrag.aligner.SHINGLE``,
``WINDOW_SLACK``, ``MIN_SCORE``, ``ANCHOR``, ``ANCHOR_HITS`` and
``ANCHOR_DRIFT``), the width of enrichment's summary windows
(``lexrag.enricher.WINDOW``) and their stride (one chunk), the header's share of
an enriched chunk (at most a quarter: ``body // 3`` header tokens), the fusion's
dense candidate pool (``lexrag.retriever.POOL``) and BM25's ``lexrag.index.K1``
and ``B``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class ChunkConfig:
    target_tokens: int = 256
    overlap_tokens: int = 50

    def __post_init__(self) -> None:
        if self.target_tokens <= 0:
            raise ValueError("target_tokens must be positive")
        if not (0 <= self.overlap_tokens < self.target_tokens):
            raise ValueError("overlap_tokens must satisfy 0 <= overlap < target")


@dataclass
class RemoteConfig:
    endpoint: str
    auth_token: str | None = None
    timeout_seconds: float = 30.0
    retries: int = 2
    backoff_seconds: float = 0.5

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, not {self.retries!r}")
        if not 0 < self.timeout_seconds < float("inf"):  # NaN fails too
            raise ValueError(
                f"timeout_seconds must be finite and > 0, not {self.timeout_seconds!r}")


@dataclass
class FusionConfig:
    k: int
    alpha: float = 0.8

    def __post_init__(self) -> None:
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError("alpha must be in [0, 1]")
        if self.k < 1:
            raise ValueError("k must be >= 1")


WITH_REFUSAL_INSTRUCTION = "with_refusal_instruction"
WITHOUT_REFUSAL_INSTRUCTION = "without_refusal_instruction"


@dataclass
class SplitSpec:
    train: int = 1918
    validation: int = 50
    test: int = 150
    seed: int = 0

    def __post_init__(self) -> None:
        if min(self.train, self.validation, self.test) < 0:
            raise ValueError("split sizes must be >= 0")
