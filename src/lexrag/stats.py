"""Bootstrap confidence intervals, paired t-tests, and multiple-comparison correction,
and the one seeded random stream every lexrag command draws from.

The stream is lexrag's own, so a seed gives the same draws under any numpy (NEP
19 lets numpy change its Generator streams between releases). Output i of seed s
(0 <= s < 2**64) is SplitMix64's finalizer (Steele, Lea & Flood, "Fast Splittable
Pseudorandom Number Generators", OOPSLA 2014) applied to
s + (i + 1) * 0x9E3779B97F4A7C15 mod 2**64: a pure function of (s, i), so any draw
can be computed without the ones before it. ``draw_below(s, i, n)`` bounds output
i to [0, n) by Lemire's multiply-shift with rejection ("Fast Random Integer
Generation in an Interval", ACM TOMACS 2019) in stdlib Python; ``draws_below``
computes the same values for a block of counters with numpy; ``permutation`` is
Fisher-Yates over ``draw_below``.

Resample b of a bootstrap over n values takes indices ``draw_below(seed, b * n + j,
n)``, j < n. ``shared_bootstrap_means`` draws them in blocks to bound memory, and
each block's resample means are one numpy gather and pairwise ``mean``, which may
differ from a sequential sum by a few ULPs but is exactly deterministic. Intervals
that share a seed and a sample size share one draw: ``shared_bootstrap_means``
applies each index block to every value row, which is how a sweep or a comparison
gets all its metric x k intervals from one resample matrix. numpy is imported on
first use, so importing this module loads nothing third-party, and the
preference-pair splits, which draw through ``permutation`` and ``draw_below``, load
no numpy.

The t-test's two-sided tail is stdlib arithmetic: the regularized incomplete beta
p = I_x(df/2, 1/2) at x = df/(df + t^2) (Abramowitz & Stegun 26.7.1, 26.5.8),
evaluated as in DiDonato & Morris, "Algorithm 708" (ACM TOMS 1992). The factor
x^a y^(1/2) / B(a, 1/2) is summed in logs from log1p(t^2/df), y = t^2/(df + t^2)
computed directly rather than as 1 - x, and a series for log Γ(a + 1/2) - log Γ(a)
at large a; the continued fraction is TOMS 708's BFRAC, on I_x(a, 1/2) or on
1 - I_y(1/2, a), whichever has a nonnegative lambda. On 20,000 seeded pairs with
|t| <= 40, against mpmath at 40 digits, its largest relative error was 9.8e-14 for
df <= 1000 and 2.6e-13 for df <= 1e5, at about 18 µs a call on a 2-core VM.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

# draws per block of resamples: a block's indices and gathers stay in cache
_BLOCK_DRAWS = 1 << 15


def bootstrap_means(values: list[float] | np.ndarray, iterations: int,
                    seed: int) -> np.ndarray:
    """Means of ``iterations`` with-replacement resamples of the full sample."""
    return shared_bootstrap_means([values], iterations, seed)[0]


def shared_bootstrap_means(rows: np.ndarray, iterations: int, seed: int) -> np.ndarray:
    """Resampled means of every row of an (m, n) array under one shared draw.

    Index j of resample b is ``draw_below(seed, b * n + j, n)``. Each block of
    about 2**15 draws is drawn once and applied to every row in turn, so row ``i``
    of the (m, iterations) result equals ``bootstrap_means(rows[i], iterations,
    seed)`` bit for bit; the block size bounds memory and changes no draw. Rows
    are gathered one at a time: an (m, block, n) gather would hold m times the
    memory for no arithmetic saved.
    """
    import numpy as np
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] == 0:
        raise ValueError("values must be nonempty")
    check_bootstrap(iterations, seed)
    n = rows.shape[1]
    out = np.empty((rows.shape[0], iterations), dtype=np.float64)
    step = max(1, _BLOCK_DRAWS // n)
    for done in range(0, iterations, step):
        block = min(step, iterations - done)
        # every draw is below 2**32, so the int64 view is the same integers
        idx = draws_below(seed, done * n, block * n, n).view(np.int64).reshape(block, n)
        for values, means in zip(rows, out):
            means[done:done + block] = values[idx].mean(axis=1)
    return out


def percentile_ci(means: np.ndarray) -> tuple[float, float]:
    """95% percentile interval of resampled means (2.5th/97.5th pct).

    Bit for bit what ``np.percentile(means, [tail, 100 - tail])`` gives with its
    default linear method, from one ``np.partition``: the q-th value sits at
    index (n - 1) * q / 100 of the sorted means, between the order statistics
    at its floor and the next one (at or past the last index, both are the
    maximum), and is interpolated with numpy's ``_lerp``, which counts back
    from the upper value once the weight reaches 0.5. ``np.percentile`` itself
    imports ``numpy.ma``, ~19 ms of CPU per process.
    """
    import numpy as np
    # This expression gives 2.500000000000002, not 2.5; every stored CI was
    # computed with it, and a literal 2.5 can move the interval.
    tail = (1.0 - 0.95) / 2.0 * 100.0
    means = np.asarray(means, dtype=np.float64)
    last = means.shape[0] - 1
    neighbours = []  # (index below, index above, weight) of each percentile
    for q in (tail, 100.0 - tail):
        index = last * (q / 100)
        # at or past the last index numpy takes index -1 for both, in the weight too
        below = math.floor(index) if index < last else -1
        neighbours.append((below, below + 1 if below >= 0 else -1, index - below))
    ordered = np.partition(means, sorted({i % (last + 1) for below, above, _ in neighbours
                                          for i in (below, above)}))
    bounds = []
    for below, above, weight in neighbours:
        a, b = float(ordered[below]), float(ordered[above])
        bounds.append(b - (b - a) * (1 - weight) if weight >= 0.5 else a + (b - a) * weight)
    return bounds[0], bounds[1]


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
    t = mean / (sd / math.sqrt(n))
    return t, _two_sided_t_tail(t, n - 1)


def _log_gamma_half_ratio(a: float) -> float:
    """log Γ(a + 1/2) - log Γ(a). From a = 30 on it is the asymptotic series, whose
    first omitted term is below 1e-16 there; a difference of two ``lgamma`` values
    would lose about 5 digits at a = 5e4."""
    if a < 30.0:
        return math.lgamma(a + 0.5) - math.lgamma(a)
    z = 1.0 / (a * a)
    return 0.5 * math.log(a) - (1 / 8 - z * (1 / 192 - z * (1 / 640 - z * (17 / 14336)))) / a


def _beta_fraction(a: float, b: float, x: float, y: float, lam: float) -> float:
    """I_x(a, b) divided by x^a y^b / B(a, b), for y = 1 - x and lam = (a + b) y - b
    >= 0: the continued fraction of TOMS 708's BFRAC. x enters each term only as a
    factor, and 1 - x only through y and lam, so x near 1 costs no precision."""
    c = lam + 1.0
    c0 = b / a
    c1 = 1.0 / a + 1.0
    yp1 = y + 1.0
    p = 1.0
    s = a + 1.0
    an, bn, anp1, bnp1 = 0.0, 1.0, 1.0, c / c1
    r = c1 / c
    for n in range(1, 1000):  # at most ~170 terms for any df
        t = n / a
        w = n * (b - n) * x
        e = a / s
        alpha = p * (p + c0) * e * e * (w * x)
        e = (t + 1.0) / (c1 + t + t)
        beta = n + w / s + e * (c + n * yp1)
        p = t + 1.0
        s += 2.0
        an, anp1 = anp1, alpha * an + beta * anp1
        bn, bnp1 = bnp1, alpha * bn + beta * bnp1
        r0, r = r, anp1 / bnp1
        if abs(r - r0) <= 1e-16 * r:
            return r
        an /= bnp1
        bn /= bnp1
        anp1, bnp1 = r, 1.0
    raise ArithmeticError(f"incomplete beta fraction did not converge at a={a}, b={b}, x={x}")


def _two_sided_t_tail(t: float, df: int) -> float:
    """P(|T| >= |t|) for Student's t with ``df`` degrees of freedom."""
    t = abs(t)
    if math.isnan(t):
        return t
    q = t * t / df  # x = df / (df + t^2) = 1 / (1 + q), y = 1 - x = q / (1 + q)
    if q == 0.0:  # t = 0, or t^2 below the smallest float: 1 - p < 1e-150
        return 1.0
    if q < math.inf:
        x, y, log_x = 1.0 / (1.0 + q), q / (1.0 + q), -math.log1p(q)
    else:  # t^2 overflows; x = df / t^2 is below 1e-290
        x, y, log_x = 0.0, 1.0, math.log(df) - 2.0 * math.log(t)
    a = df / 2.0
    front = math.exp(a * log_x + 0.5 * math.log(y) + _log_gamma_half_ratio(a)
                     - 0.5 * math.log(math.pi))  # x^a y^(1/2) / B(a, 1/2)
    lam = (a + 0.5) * y - 0.5
    if lam >= 0.0:
        return front * _beta_fraction(a, 0.5, x, y, lam)
    return 1.0 - front * _beta_fraction(0.5, a, y, x, -lam)


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


# SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): the golden-ratio increment and the
# finalizer's multipliers
_M32, _M64 = (1 << 32) - 1, (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX_A, _MIX_B = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


def check_bootstrap(iterations: int, seed: int) -> None:
    """Reject a resample count below 1 or a seed that ``draw_below`` rejects."""
    if iterations < 1:
        raise ValueError(f"bootstrap iterations must be >= 1, not {iterations}")
    _check_seed(seed)


def _check_seed(seed: int) -> None:
    if not isinstance(seed, int) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, not {seed!r}")
    if seed > _M64:
        raise ValueError(f"seed must be below 2**64, not {seed}")


def _mix(z: int) -> int:
    """SplitMix64's finalizer on a 64-bit word."""
    z = (z ^ z >> 30) * _MIX_A & _M64
    z = (z ^ z >> 27) * _MIX_B & _M64
    return z ^ z >> 31


def _check_bound(n: int) -> None:
    if not 1 <= n <= 1 << 32:
        raise ValueError(f"draws need 1 <= n <= 2**32, not {n}")


def draw_below(seed: int, i: int, n: int) -> int:
    """Draw ``i`` of ``seed``'s stream: uniform in [0, n), for 1 <= n <= 2**32.

    Output i is ``_mix(seed + (i + 1) * GAMMA mod 2**64)``. Lemire's multiply-shift
    takes its high 32 bits x to ``x * n >> 32``, and rejects x when ``x * n mod 2**32``
    is below ``2**32 mod n``, which keeps the draw exactly uniform. A rejected output z
    is replaced by ``_mix(z + GAMMA mod 2**64)`` until one is accepted, so the result
    is a function of (seed, i, n) alone.
    """
    _check_seed(seed)
    _check_bound(n)
    z = _mix((seed + (i + 1) * _GAMMA) & _M64)
    scaled = (z >> 32) * n
    if scaled & _M32 < n:  # below n, the bound on the threshold
        threshold = ((1 << 32) - n) % n
        while scaled & _M32 < threshold:
            z = _mix((z + _GAMMA) & _M64)
            scaled = (z >> 32) * n
    return scaled >> 32


def draws_below(seed: int, start: int, count: int, n: int) -> np.ndarray:
    """``draw_below(seed, i, n)`` for i in [start, start + count), as a uint64 array.

    The block is hashed in place; the few rejected entries (each with probability
    below n / 2**32) are taken from ``draw_below``, which holds the retry rule.
    """
    import numpy as np
    _check_seed(seed)
    _check_bound(n)
    z = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z *= np.uint64(_GAMMA)
    z += np.uint64(seed)
    shifted = np.empty_like(z)
    for shift, multiplier in ((30, _MIX_A), (27, _MIX_B)):
        z ^= np.right_shift(z, np.uint64(shift), out=shifted)
        z *= np.uint64(multiplier)
    z ^= np.right_shift(z, np.uint64(31), out=shifted)
    z >>= np.uint64(32)
    z *= np.uint64(n)
    threshold = ((1 << 32) - n) % n
    rejected = np.flatnonzero(np.bitwise_and(z, np.uint64(_M32), out=shifted) < threshold)
    z >>= np.uint64(32)
    for j in rejected.tolist():
        z[j] = draw_below(seed, start + j, n)
    return z


def permutation(seed: int, n: int) -> list[int]:
    """A seeded shuffle of ``range(n)``: Fisher-Yates, whose step k (k = 0 .. n - 2)
    swaps position n - 1 - k with position ``draw_below(seed, k, n - k)``."""
    _check_seed(seed)
    order = list(range(n))
    for k in range(n - 1):
        i, j = n - 1 - k, draw_below(seed, k, n - k)
        order[i], order[j] = order[j], order[i]
    return order
