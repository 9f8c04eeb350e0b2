import math
import random

import mpmath
import numpy as np
import pytest
from scipy import integrate

from lexrag.stats import (
    DefaultRng,
    _two_sided_t_tail,
    bonferroni,
    bootstrap_ci,
    bootstrap_means,
    bootstrap_minmax,
    paired_delta_ci,
    paired_ttest,
    percentile_ci,
    shared_bootstrap_means,
)


def t_pdf(x: float, df: int) -> float:
    """Student t density written out directly, for the quadrature oracle."""
    coeff = math.gamma((df + 1) / 2) / (math.sqrt(df * math.pi) * math.gamma(df / 2))
    return coeff * (1 + x * x / df) ** (-(df + 1) / 2)


def two_sided_p_by_quadrature(t: float, df: int) -> float:
    tail, _ = integrate.quad(t_pdf, abs(t), np.inf, args=(df,))
    return 2 * tail


class TestBootstrap:
    def test_constant_series_collapses_to_point(self):
        lo, hi = bootstrap_ci([0.42] * 25, iterations=500, seed=1)
        assert lo == hi == 0.42

    def test_ci_contains_sample_mean(self):
        rng = np.random.default_rng(2)
        values = rng.normal(size=40)
        lo, hi = bootstrap_ci(values, iterations=3000, seed=3)
        assert lo <= values.mean() <= hi

    def test_deterministic_under_fixed_seed(self):
        values = list(np.random.default_rng(4).normal(size=30))
        assert bootstrap_ci(values, iterations=2000, seed=7) == \
            bootstrap_ci(values, iterations=2000, seed=7)
        assert bootstrap_ci(values, iterations=2000, seed=7) != \
            bootstrap_ci(values, iterations=2000, seed=8)

    def test_blocked_generation_matches_single_pass(self):
        # block size is internal; the seeded stream must make output independent of it
        values = np.arange(10.0)
        means_a = bootstrap_means(values, 100, seed=5)
        means_b = bootstrap_means(values, 100, seed=5)
        assert np.array_equal(means_a, means_b)

    def test_minmax_brackets_ci(self):
        rng = np.random.default_rng(6)
        values = rng.normal(size=35)
        lo, hi = bootstrap_ci(values, iterations=2000, seed=9)
        mn, mx = bootstrap_minmax(values, iterations=2000, seed=9)
        assert mn <= lo <= hi <= mx

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError):
            bootstrap_ci([], iterations=10, seed=0)

    def test_coverage_quick(self):
        # reduced-size version of the acceptance Monte Carlo experiment
        rng_master = np.random.SeedSequence(1234)
        hits = 0
        trials = 60
        for i, child in enumerate(rng_master.spawn(trials)):
            rng = np.random.default_rng(child)
            sample = rng.normal(size=50)
            lo, hi = bootstrap_ci(sample, iterations=1500, seed=1000 + i)
            hits += lo <= 0.0 <= hi
        assert 0.85 <= hits / trials <= 1.0


def reference_bootstrap_means(values, iterations, seed, block_size=2048):
    """One sample's resampled means, drawn block by block as a per-sample loop would."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < iterations:
        block = min(block_size, iterations - len(out))
        idx = rng.integers(0, len(values), size=(block, len(values)))
        out.extend(np.asarray(values)[idx].mean(axis=1))
    return np.array(out)


class TestSharedDraw:
    @pytest.mark.parametrize("n", [1, 2, 37])
    @pytest.mark.parametrize("iterations", [1, 2047, 2049, 4500])
    def test_rows_match_per_row_bootstrap_bit_for_bit(self, n, iterations):
        rng = np.random.default_rng(n * 10000 + iterations)
        rows = np.vstack([rng.random(n), np.full(n, 0.25), rng.integers(0, 2, n) * 1.0,
                          rng.normal(size=n)])
        shared = shared_bootstrap_means(rows, iterations, seed=7)
        assert shared.shape == (rows.shape[0], iterations)
        for row, means in zip(rows, shared):
            assert np.array_equal(means, reference_bootstrap_means(row, iterations, 7))
            assert np.array_equal(means, bootstrap_means(row, iterations, seed=7))
            assert percentile_ci(means) == bootstrap_ci(row, iterations=iterations, seed=7)
            assert percentile_ci(means) == paired_delta_ci(row, iterations=iterations, seed=7)
            assert (float(means.min()), float(means.max())) == \
                bootstrap_minmax(row, iterations=iterations, seed=7)

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError):
            shared_bootstrap_means(np.zeros((3, 0)), 10, seed=0)

    @pytest.mark.parametrize("iterations", [0, -1])
    def test_fewer_than_one_iteration_rejected(self, iterations):
        with pytest.raises(ValueError, match="bootstrap iterations must be >= 1"):
            shared_bootstrap_means(np.ones((2, 3)), iterations, seed=0)


class TestPairedTtest:
    def test_identical_series_gives_p_one(self):
        a = [0.1, 0.4, 0.3, 0.9]
        t, p = paired_ttest(a, a)
        assert t == 0.0 and p == 1.0

    def test_constant_nonzero_difference_degenerate(self):
        t, p = paired_ttest([1.0, 1.0, 1.0, 1.0], [0.0, 0.0, 0.0, 0.0])
        assert math.isinf(t) and t > 0
        assert p == 0.0

    def test_hand_derived_case_matches_quadrature(self):
        # d = [1, 2, 3]: mean 2, sd 1, t = 2*sqrt(3), df 2
        t, p = paired_ttest([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
        assert abs(t - 2 * math.sqrt(3)) < 1e-12
        assert abs(p - 0.0742) < 1e-3
        assert abs(p - two_sided_p_by_quadrature(t, 2)) < 1e-9

    def test_random_cases_match_quadrature(self):
        rng = np.random.default_rng(11)
        for n in (5, 12, 40):
            a = rng.normal(size=n)
            b = rng.normal(size=n)
            t, p = paired_ttest(a, b)
            assert abs(p - two_sided_p_by_quadrature(t, n - 1)) < 1e-8

    def test_sign_symmetry(self):
        a = [1.0, 2.0, 4.0]
        b = [0.5, 1.0, 2.0]
        t_ab, p_ab = paired_ttest(a, b)
        t_ba, p_ba = paired_ttest(b, a)
        assert t_ab == -t_ba
        assert abs(p_ab - p_ba) < 1e-15

    def test_input_validation(self):
        with pytest.raises(ValueError):
            paired_ttest([1.0], [2.0])
        with pytest.raises(ValueError):
            paired_ttest([1.0, 2.0], [1.0])


def exact_two_sided_p(t: float, df: int) -> mpmath.mpf:
    """I_x(df/2, 1/2) at x = df/(df + t^2) with the float t taken exactly, at 40 digits."""
    with mpmath.workdps(40):
        nu = mpmath.mpf(df)
        t2 = mpmath.mpf(t) ** 2
        return mpmath.betainc(nu / 2, 0.5, 0, nu / (nu + t2), regularized=True)


def relative_error(t: float, df: int) -> float:
    """The tail's relative error against mpmath; 0 when both are below 1e-300, where
    p underflows and a relative error says nothing."""
    exact = exact_two_sided_p(t, df)
    p = _two_sided_t_tail(t, df)
    if exact < 1e-300:
        return 0.0 if p < 1e-290 else math.inf
    return float(abs(p - exact) / exact)


class TestTwoSidedTail:
    def test_seeded_pairs_match_mpmath(self):
        # df log-uniform in [1, 1e5], |t| log-uniform in [1e-3, 40]
        rng = random.Random(708)
        worst = {True: 0.0, False: 0.0}
        for _ in range(1000):
            df = round(10 ** rng.uniform(0, 5))
            t = rng.choice((-1, 1)) * 10 ** rng.uniform(-3, math.log10(40))
            p = _two_sided_t_tail(t, df)
            assert 0.0 <= p <= 1.0
            assert _two_sided_t_tail(-t, df) == p
            worst[df <= 1000] = max(worst[df <= 1000], relative_error(t, df))
        assert worst[True] <= 2e-13
        assert worst[False] <= 1e-11

    @pytest.mark.parametrize("df", [1, 2, 3, 7, 100, 10**5])
    def test_zero_t_gives_exactly_one(self, df):
        assert _two_sided_t_tail(0.0, df) == 1.0
        assert _two_sided_t_tail(-0.0, df) == 1.0

    @pytest.mark.parametrize("df", [1, 2, 3, 10**5])
    @pytest.mark.parametrize("t", [1e-300, 1e-12, 0.5, 1.0, 2.0, 10.0, 40.0])
    def test_fixed_cases_match_mpmath(self, t, df):
        assert 0.0 <= _two_sided_t_tail(t, df) <= 1.0
        assert relative_error(t, df) <= 2e-13

    def test_tiny_t_rounds_to_one(self):
        # 1 - p is about 1e-300 and 6e-13: the first rounds away, the second does not
        assert _two_sided_t_tail(1e-300, 1) == 1.0
        assert math.isclose(1.0 - _two_sided_t_tail(1e-12, 1), 2e-12 / math.pi, rel_tol=1e-3)

    @pytest.mark.parametrize("t", [1e-6, 0.25, 1.0, 3.0, 1e8])
    def test_closed_forms(self, t):
        # df 1 is the Cauchy distribution, p = (2/pi) atan(1/t); df 2 has
        # p = 1 - t / r with r = sqrt(2 + t^2), written here without the cancellation
        r = math.sqrt(2 + t * t)
        assert math.isclose(_two_sided_t_tail(t, 1), 2 / math.pi * math.atan(1 / t),
                            rel_tol=1e-14)
        assert math.isclose(_two_sided_t_tail(t, 2), 2 / (r * (r + t)), rel_tol=1e-14)

    def test_unbounded_t(self):
        assert _two_sided_t_tail(math.inf, 5) == 0.0
        assert math.isclose(_two_sided_t_tail(1e200, 1), 2 / math.pi / 1e200, rel_tol=1e-12)
        assert math.isnan(_two_sided_t_tail(math.nan, 5))


class TestBonferroni:
    def test_basic_product(self):
        assert bonferroni(0.01, 14) == pytest.approx(0.14)

    def test_clamped_at_one(self):
        assert bonferroni(0.2, 14) == 1.0

    def test_identity_at_m_one(self):
        assert bonferroni(0.123, 1) == 0.123

    def test_validation(self):
        with pytest.raises(ValueError):
            bonferroni(1.5, 2)
        with pytest.raises(ValueError):
            bonferroni(0.1, 0)


class TestDefaultRng:
    """The stdlib port of numpy.random.default_rng, draw for draw against numpy."""

    BOUNDS = [1, 2, 3, 2**31 + 11, 2**32 - 1, 2**32, 2**33, 2**63 - 1]

    def test_interleaved_draws_match_numpy(self):
        # permutation and integers share the spare 32-bit half of a 64-bit output,
        # so the calls alternate: a half one call leaves must be the next one's
        for seed in [*range(200), 2**32 + 1, 2**64 + 3, 2**128 + 9]:
            ours, theirs = DefaultRng(seed), np.random.default_rng(seed)
            for i, high in enumerate(self.BOUNDS * 2):
                n = (seed + 7 * i) % 41
                assert ours.permutation(n) == theirs.permutation(n).tolist(), (seed, n)
                assert ours.integers(0, high) == int(theirs.integers(0, high)), (seed, high)
                assert ours.integers(3, 10) == int(theirs.integers(3, 10)), seed

    @pytest.mark.parametrize("seed", [-1, 1.0, "1"])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ValueError, match="non-negative integer"):
            DefaultRng(seed)

    @pytest.mark.parametrize("low,high", [(0, 0), (-1, 3), (5, 4), (0, 2**63 + 1)])
    def test_integers_outside_int64_draws_rejected(self, low, high):
        with pytest.raises(ValueError, match="0 <= low < high <= 2\\*\\*63"):
            DefaultRng(0).integers(low, high)
