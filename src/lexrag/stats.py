"""Bootstrap confidence intervals, paired t-tests, and multiple-comparison correction.

Resampling is driven by a seeded numpy Generator so every interval is exactly
reproducible; index generation happens in blocks to bound memory, and each
block's resample means are one numpy gather and pairwise ``mean``, which may
differ from a sequential sum by a few ULPs but is exactly deterministic. Intervals
that share a seed and a sample size share one draw: ``shared_bootstrap_means``
applies each index block to every value row, which is how a sweep or a
comparison gets all its metric x k intervals from one resample matrix. The t-test
tail comes from ``scipy.special.stdtr``. numpy and scipy are imported on first
use, so importing this module loads neither.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

_BLOCK_ITERATIONS = 2048


def bootstrap_means(values: list[float] | np.ndarray, iterations: int,
                    seed: int) -> np.ndarray:
    """Means of ``iterations`` with-replacement resamples of the full sample."""
    return shared_bootstrap_means([values], iterations, seed)[0]


def shared_bootstrap_means(rows: np.ndarray, iterations: int, seed: int) -> np.ndarray:
    """Resampled means of every row of an (m, n) array under one shared draw.

    Each 2048-resample index block is drawn once and applied to every row in
    turn, so row ``i`` of the (m, iterations) result equals
    ``bootstrap_means(rows[i], iterations, seed)`` bit for bit. Rows are
    gathered one at a time: an (m, block, n) gather would hold m times the
    memory for no arithmetic saved.
    """
    import numpy as np
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] == 0:
        raise ValueError("values must be nonempty")
    if iterations < 1:
        raise ValueError(f"bootstrap iterations must be >= 1, not {iterations}")
    n = rows.shape[1]
    rng = np.random.default_rng(seed)
    out = np.empty((rows.shape[0], iterations), dtype=np.float64)
    done = 0
    while done < iterations:
        block = min(_BLOCK_ITERATIONS, iterations - done)
        idx = rng.integers(0, n, size=(block, n))
        for values, means in zip(rows, out):
            means[done:done + block] = values[idx].mean(axis=1)
        done += block
    return out


def percentile_ci(means: np.ndarray) -> tuple[float, float]:
    """95% percentile interval of resampled means (2.5th/97.5th pct)."""
    import numpy as np
    # This expression gives 2.500000000000002, not 2.5; every stored CI was
    # computed with it, and a literal 2.5 can move np.percentile.
    tail = (1.0 - 0.95) / 2.0 * 100.0
    lo, hi = np.percentile(means, [tail, 100.0 - tail])
    return float(lo), float(hi)


def bootstrap_ci(values: list[float] | np.ndarray, iterations: int = 10000,
                 seed: int = 0) -> tuple[float, float]:
    """95% percentile bootstrap CI of the mean."""
    return percentile_ci(bootstrap_means(values, iterations, seed))


def bootstrap_minmax(values: list[float] | np.ndarray, iterations: int = 10000,
                     seed: int = 0) -> tuple[float, float]:
    """Min and max of the resampled means; reported alongside the percentile CI."""
    means = bootstrap_means(values, iterations, seed)
    return float(means.min()), float(means.max())


def paired_ttest(a: list[float] | np.ndarray, b: list[float] | np.ndarray) -> tuple[float, float]:
    """Two-sided paired t-test on per-item differences a - b.

    Returns (t, p). All-zero differences give (0, 1). Zero-variance nonzero
    differences are degenerate: t is ±inf and p is 0; callers can detect the
    condition with ``math.isinf(t)``.
    """
    import numpy as np
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("a and b must be 1-d arrays of equal length")
    n = a.size
    if n < 2:
        raise ValueError("need at least 2 pairs")
    d = a - b
    mean = float(d.mean())
    sd = float(d.std(ddof=1))
    if sd == 0.0:
        if mean == 0.0:
            return 0.0, 1.0
        return math.copysign(math.inf, mean), 0.0
    from scipy.special import stdtr  # only comparisons need the t tail

    t = mean / (sd / math.sqrt(n))
    p = 2.0 * float(stdtr(n - 1, -abs(t)))
    return t, min(p, 1.0)


def bonferroni(p: float, m: int) -> float:
    """min(1, p * m) correction for m simultaneous comparisons."""
    if not (0.0 <= p <= 1.0):
        raise ValueError("p must be in [0, 1]")
    if m < 1:
        raise ValueError("m must be >= 1")
    return min(1.0, p * m)


def paired_delta_ci(deltas: list[float] | np.ndarray, iterations: int = 10000,
                    seed: int = 0) -> tuple[float, float]:
    """95% percentile CI of the mean of paired per-item deltas."""
    return bootstrap_ci(deltas, iterations=iterations, seed=seed)
