import functools
import math
import random

import mpmath
import numpy as np
import pytest
from scipy import integrate
from scipy.stats import chi2

from lexrag import stats
from lexrag.stats import (
    _two_sided_t_tail,
    bonferroni,
    bootstrap_ci,
    bootstrap_means,
    bootstrap_minmax,
    draw_below,
    draws_below,
    paired_delta_ci,
    paired_ttest,
    percentile_ci,
    permutation,
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

    def test_blocked_generation_matches_single_pass(self, monkeypatch):
        # block size is internal; the counter stream must make output independent of it
        values = np.arange(10.0)
        means = bootstrap_means(values, 100, seed=5)
        for draws in (10, 30, 1000):  # one resample a block, 3 a block, all in one
            monkeypatch.setattr(stats, "_BLOCK_DRAWS", draws)
            assert np.array_equal(bootstrap_means(values, 100, seed=5), means)

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


@functools.lru_cache(maxsize=4)
def stdlib_indices(n: int, iterations: int, seed: int) -> np.ndarray:
    """Every resample's indices from the stdlib form: index j of resample b is draw b*n + j."""
    return np.array([[draw_below(seed, b * n + j, n) for j in range(n)]
                     for b in range(iterations)])


def reference_bootstrap_means(values, iterations, seed):
    """One sample's resampled means, each index drawn by ``draw_below`` alone."""
    return np.asarray(values)[stdlib_indices(len(values), iterations, seed)].mean(axis=1)


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

    def test_golden_stream(self):
        # literal means, as test_golden_split has literal ids: the stream is
        # lexrag's, and a change of it (or of numpy) must not move an interval
        # unannounced. Eight integer values make every mean an exact multiple of 1/8.
        rows = np.array([[0, 1, 2, 3, 4, 5, 6, 7], [3, 0, 0, 1, 0, 2, 0, 0]], dtype=float)
        means = shared_bootstrap_means(rows, 4101, seed=11)  # a full block and a partial one
        assert means[:, :6].tolist() == [[3.0, 4.25, 4.75, 4.875, 3.25, 4.25],
                                         [0.625, 0.0, 0.375, 0.875, 0.75, 1.0]]
        assert means[:, 4096:].tolist() == [[2.0, 3.375, 2.25, 3.375, 4.875],
                                            [1.75, 0.875, 0.875, 1.0, 0.5]]
        assert percentile_ci(means[0]) == (1.875, 5.0)

    @pytest.mark.parametrize("seed", [-3, 1.0])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ValueError, match=f"seed must be a non-negative integer, not {seed}"):
            shared_bootstrap_means(np.ones((2, 3)), 10, seed=seed)

    def test_seed_of_64_bits_or_more_rejected(self):
        with pytest.raises(ValueError, match="below 2\\*\\*64, not 18446744073709551616"):
            shared_bootstrap_means(np.ones((2, 3)), 10, seed=2**64)
        shared_bootstrap_means(np.ones((2, 3)), 10, seed=2**64 - 1)

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError):
            shared_bootstrap_means(np.zeros((3, 0)), 10, seed=0)

    @pytest.mark.parametrize("iterations", [0, -1])
    def test_fewer_than_one_iteration_rejected(self, iterations):
        with pytest.raises(ValueError, match="bootstrap iterations must be >= 1"):
            shared_bootstrap_means(np.ones((2, 3)), iterations, seed=0)


class TestPercentileCi:
    """``percentile_ci`` against ``np.percentile``, which it replaces, bit for bit."""

    TAIL = (1.0 - 0.95) / 2.0 * 100.0

    def expected(self, means: np.ndarray) -> list[str]:
        return [float(v).hex() for v in np.percentile(means, [self.TAIL, 100.0 - self.TAIL])]

    def test_matches_np_percentile_on_seeded_arrays(self):
        # uniform draws, steps of k/7 (ties, and interpolation between equal values)
        # and tiny normals (subnormal differences), n from 1 to 20,000
        rng = np.random.default_rng(23)
        for i in range(3000):
            n = i + 1 if i < 100 else int(np.exp(rng.uniform(0.0, math.log(20000))))
            kind = i % 3
            means = (rng.uniform(size=n) if kind == 0 else
                     rng.integers(-20, 50, n) / 7 if kind == 1 else
                     rng.normal(0.0, 1e-300, n))
            assert [v.hex() for v in percentile_ci(means)] == self.expected(means), (i, n)

    @pytest.mark.parametrize("means", [[0.5], [-0.0], [0.0, -0.0], [-0.0, -0.0, -0.0],
                                       [3.0, 1.0, 2.0], [1e308, -1e308, 0.0]])
    def test_matches_np_percentile_on_edge_arrays(self, means):
        means = np.array(means)
        assert [v.hex() for v in percentile_ci(means)] == self.expected(means)

    def test_leaves_its_input_unsorted(self):
        means = np.array([3.0, 1.0, 2.0])
        percentile_ci(means)
        assert means.tolist() == [3.0, 1.0, 2.0]


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


class TestStream:
    """``draw_below`` (stdlib) and ``draws_below`` (numpy): one stream, two forms."""

    BOUNDS = [1, 2, 3, 100, 2**31 + 1, 2**32 - 1, 2**32]

    @pytest.mark.parametrize("n", BOUNDS)
    def test_forms_agree(self, n):
        for seed, start in ((0, 0), (2**64 - 1, 7), (12345, 2**40)):
            got = draws_below(seed, start, 4000, n)
            assert got.dtype == np.uint64
            assert got.tolist() == [draw_below(seed, start + i, n) for i in range(4000)]
            assert int(got.max()) < n

    def test_forms_agree_where_about_half_the_draws_are_rejected(self):
        # at n = 2**31 + 1 the multiply-shift rejects a first output with probability
        # (2**32 mod n) / 2**32, just below 1/2; the retries must match too
        n = 2**31 + 1
        first = draws_below(3, 0, 4000, n)
        unretried = [(stats._mix((3 + (i + 1) * stats._GAMMA) & stats._M64) >> 32) * n >> 32
                     for i in range(4000)]
        retried = sum(a != b for a, b in zip(first.tolist(), unretried))
        assert 1600 < retried < 2400
        assert first.tolist() == [draw_below(3, i, n) for i in range(4000)]

    def test_an_output_of_zero_is_mixed_again(self):
        # SplitMix64's finalizer maps 0 to 0, so this seed's output 0 is 0, which
        # n = 3 rejects; the retry steps the state first, so it ends
        seed = -stats._GAMMA % 2**64
        assert stats._mix((seed + stats._GAMMA) & stats._M64) == 0
        assert draw_below(seed, 0, 3) == draws_below(seed, 0, 1, 3)[0] < 3

    @pytest.mark.parametrize("n", [2, 3, 10, 1000, 2**31 + 1])
    def test_draws_are_uniform(self, n):
        # chi-square over 10**6 seeded draws, at most 1000 bins (larger n binned by
        # value); the fixed bound is the chi-square quantile at 1 - 1e-6
        bins = min(n, 1000)
        draws = draws_below(20261020, 0, 10**6, n)
        counts = np.bincount((draws * np.uint64(bins) // np.uint64(n)).astype(np.int64)
                             if n > bins else draws.astype(np.int64), minlength=bins)
        expected = np.array([(n * (b + 1) + bins - 1) // bins - (n * b + bins - 1) // bins
                             for b in range(bins)]) * 10**6 / n
        statistic = float(((counts - expected) ** 2 / expected).sum())
        assert statistic < chi2.ppf(1 - 1e-6, bins - 1)

    def test_permutation(self):
        for n in (0, 1, 2, 50):
            assert sorted(permutation(7, n)) == list(range(n))
        assert permutation(7, 50) == permutation(7, 50) != permutation(8, 50)
        # step k swaps position n - 1 - k with draw k, bounded by n - k
        order = list(range(5))
        for k in range(4):
            j = draw_below(7, k, 5 - k)
            order[4 - k], order[j] = order[j], order[4 - k]
        assert permutation(7, 5) == order

    @pytest.mark.parametrize("seed", [-1, 1.0, "1"])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        for draw in (lambda: draw_below(seed, 0, 3), lambda: draws_below(seed, 0, 3, 3),
                     lambda: permutation(seed, 3)):
            with pytest.raises(ValueError, match="non-negative integer"):
                draw()

    def test_seed_of_64_bits_or_more_rejected(self):
        for draw in (lambda s: draw_below(s, 0, 3), lambda s: draws_below(s, 0, 3, 3),
                     lambda s: permutation(s, 0)):
            with pytest.raises(ValueError, match="seed must be below 2\\*\\*64"):
                draw(2**64)
            draw(2**64 - 1)

    @pytest.mark.parametrize("n", [0, -1, 2**32 + 1])
    def test_bound_outside_32_bits_rejected(self, n):
        with pytest.raises(ValueError, match="1 <= n <= 2\\*\\*32"):
            draw_below(0, 0, n)
        with pytest.raises(ValueError, match="1 <= n <= 2\\*\\*32"):
            draws_below(0, 0, 3, n)
