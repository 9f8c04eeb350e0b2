"""Configuration records whose defaults the CLI's settings table reads.

They live here, apart from the code that uses them, so the table can be built
without loading any other lexrag module. Each is also importable from the module
that uses it: ``lexrag.chunker.ChunkConfig``, ``lexrag.enricher.DEFAULT_WINDOW``,
``lexrag.remote.RemoteConfig``, ``lexrag.retriever.FusionConfig``,
``lexrag.aligner.AlignConfig``, ``lexrag.preference.SplitSpec`` and the two
prompt template names in ``lexrag.preference``.
"""

from __future__ import annotations

from dataclasses import dataclass

# chunks per enrichment summary window
DEFAULT_WINDOW = 4


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


@dataclass
class FusionConfig:
    k: int
    alpha: float = 0.8
    candidate_pool: int = 0  # 0 -> max(100, k)

    def __post_init__(self) -> None:
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError("alpha must be in [0, 1]")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.candidate_pool == 0:
            self.candidate_pool = max(100, self.k)
        if self.candidate_pool < self.k:
            raise ValueError("candidate_pool must be >= k")


@dataclass
class AlignConfig:
    shingle_size: int = 3
    min_score: float = 0.6
    max_window_slack: float = 0.3

    def __post_init__(self) -> None:
        if self.shingle_size < 1:
            raise ValueError("shingle_size must be >= 1")
        if not (0.0 < self.min_score <= 1.0):
            raise ValueError("min_score must be in (0, 1]")
        if self.max_window_slack < 0.0:
            raise ValueError("max_window_slack must be >= 0")


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
