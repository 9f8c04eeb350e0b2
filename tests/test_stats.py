import math

import numpy as np
import pytest
from scipy import integrate

from lexrag.stats import (
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

    def test_level_validated(self):
        with pytest.raises(ValueError):
            percentile_ci(np.arange(5.0), level=1.0)


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
