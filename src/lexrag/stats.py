"""Bootstrap confidence intervals, paired t-tests, and multiple-comparison correction.

Resampling is driven by a seeded numpy Generator so every interval is exactly
reproducible; index generation happens in blocks to bound memory, and each
block's resample means are one numpy gather and pairwise ``mean``, which may
differ from a sequential sum by a few ULPs but is exactly deterministic. Intervals
that share a seed and a sample size share one draw: ``shared_bootstrap_means``
applies each index block to every value row, which is how a sweep or a
comparison gets all its metric x k intervals from one resample matrix. numpy is
imported on first use, so importing this module loads nothing third-party.
``DefaultRng`` draws what ``numpy.random.default_rng(seed)`` would for a
permutation or a bounded integer, in stdlib Python, so the preference-pair
splits load no numpy.

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
    check_bootstrap(iterations, seed)
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


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx) and the
# PCG64 multiplier (numpy/random/src/pcg64/pcg64.h)
_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def check_bootstrap(iterations: int, seed: int) -> None:
    """Reject a resample count below 1 or a seed that is not a non-negative integer."""
    if iterations < 1:
        raise ValueError(f"bootstrap iterations must be >= 1, not {iterations}")
    _check_seed(seed)


def _check_seed(seed: int) -> None:
    if not isinstance(seed, int) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, not {seed!r}")


def _seed_words(seed: int) -> list[int]:
    """``SeedSequence(seed).generate_state(4, np.uint64)``: PCG64's seed and increment words."""
    _check_seed(seed)
    entropy = [0] if seed == 0 else []
    while seed:  # little-endian 32-bit words
        entropy.append(seed & _M32)
        seed >>= 32
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = _INIT_B
    state = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * _MULT_B & _M32
        value = value * hash_const & _M32
        state.append(value ^ value >> 16)
    return [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]


class DefaultRng:
    """``numpy.random.default_rng(seed)`` in stdlib Python, for the draws lexrag makes
    without numpy: ``permutation(n)`` and ``integers(low, high)``, bit for bit.

    The generator is PCG64 (XSL-RR 128/64; O'Neill, "PCG", HMC-CS-2014-0905) seeded
    through numpy's SeedSequence. A 32-bit draw hands out the low half of a 64-bit
    output and keeps the high half for the next 32-bit draw, across calls, as
    numpy's bit generator does. ``permutation`` is numpy's Fisher-Yates over its
    masked-rejection ``random_interval``; ``integers`` is Lemire's bounded draw
    ("Fast Random Integer Generation in an Interval", ACM TOMACS 2019) on 32 bits
    when the range fits, as in numpy's ``random_bounded_uint64_fill``. NEP 19 lets
    numpy change its Generator streams between releases; these stay as they are.
    """

    def __init__(self, seed: int):
        s_hi, s_lo, i_hi, i_lo = _seed_words(seed)
        self._inc = ((i_hi << 64 | i_lo) << 1 | 1) & _M128
        self._state = ((self._inc + (s_hi << 64 | s_lo)) * _PCG_MULT + self._inc) & _M128
        self._spare: int | None = None  # the unused high half of the last 64-bit draw

    def _next64(self) -> int:
        state = self._state = (self._state * _PCG_MULT + self._inc) & _M128
        rot = state >> 122
        value = (state >> 64 ^ state) & _M64
        return (value >> rot | value << (64 - rot)) & _M64

    def _next32(self) -> int:
        if self._spare is not None:
            value, self._spare = self._spare, None
            return value
        value = self._next64()
        self._spare = value >> 32
        return value & _M32

    def _interval(self, high: int) -> int:
        """Uniform in [0, high] for high < 2**32: 32-bit draws masked to high's bit
        length until one fits. (numpy draws 64 bits above that, for arrays no list
        of records reaches.)"""
        mask = (1 << high.bit_length()) - 1
        value = self._next32() & mask
        while value > high:
            value = self._next32() & mask
        return value

    def permutation(self, n: int) -> list[int]:
        order = list(range(n))
        for i in range(n - 1, 0, -1):
            j = self._interval(i)
            order[i], order[j] = order[j], order[i]
        return order

    def integers(self, low: int, high: int) -> int:
        """Uniform in [low, high), as numpy's int64 draw for 0 <= low < high <= 2**63."""
        if not 0 <= low < high <= 1 << 63:
            raise ValueError(f"integers needs 0 <= low < high <= 2**63, not {low}, {high}")
        span = high - 1 - low
        if span == 0:
            return low
        if span == _M32:
            return low + self._next32()
        draw, bits = (self._next32, 32) if span < _M32 else (self._next64, 64)
        mask = (1 << bits) - 1
        scaled = draw() * (span + 1)
        if scaled & mask <= span:  # below span + 1, the bound on the threshold
            threshold = (mask - span) % (span + 1)
            while scaled & mask < threshold:
                scaled = draw() * (span + 1)
        return low + (scaled >> bits)
