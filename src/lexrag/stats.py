"""Bootstrap confidence intervals, paired t-tests, and multiple-comparison correction.

Resampling is driven by a seeded numpy Generator so every interval is exactly
reproducible; index generation happens in blocks to bound memory, and the
gather-and-mean inner loop runs through ``kernels.gather_means``. The t-test
tail comes from ``scipy.special.stdtr``, imported on first use.
"""

from __future__ import annotations

import math

import numpy as np

from lexrag import kernels

_BLOCK_ITERATIONS = 2048


def bootstrap_means(values: list[float] | np.ndarray, iterations: int,
                    seed: int) -> np.ndarray:
    """Means of ``iterations`` with-replacement resamples of the full sample."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("values must be nonempty")
    rng = np.random.default_rng(seed)
    n = values.size
    out = np.empty(iterations, dtype=np.float64)
    done = 0
    while done < iterations:
        block = min(_BLOCK_ITERATIONS, iterations - done)
        idx = rng.integers(0, n, size=(block, n))
        out[done:done + block] = kernels.gather_means(values, idx)
        done += block
    return out


def bootstrap_ci(values: list[float] | np.ndarray, iterations: int = 10000,
                 level: float = 0.95, seed: int = 0) -> tuple[float, float]:
    """Percentile bootstrap CI of the mean (2.5th/97.5th pct at level 0.95)."""
    if not (0.0 < level < 1.0):
        raise ValueError("level must be in (0, 1)")
    means = bootstrap_means(values, iterations, seed)
    tail = (1.0 - level) / 2.0 * 100.0
    lo, hi = np.percentile(means, [tail, 100.0 - tail])
    return float(lo), float(hi)


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
    # Imported here, not at module level: every lexrag command imports this
    # module, and only comparisons need the t tail (cold start).
    from scipy.special import stdtr

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
                    level: float = 0.95, seed: int = 0) -> tuple[float, float]:
    """Percentile CI of the mean of paired per-item deltas."""
    return bootstrap_ci(deltas, iterations=iterations, level=level, seed=seed)
