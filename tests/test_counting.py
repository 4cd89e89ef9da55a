"""Count laws: p.m.f.s, transforms, posteriors, joint grids, identities."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from minuexp import (
    LinearMu,
    MinUExpParams,
    conditional_binomial_pmf,
    count_mean_var,
    count_pmf,
    factorial_moment,
    increments_pmf,
    increments_to_ordered,
    make_stream,
    mean_xi_given_count,
    ordered_pmf,
    ordered_to_increments,
    pdf,
    pgf,
    raw_moment,
    sample_grid_counts,
    scale,
    scaled_count_params,
    variance,
    xi_given_count_pdf,
)
from minuexp import counting
from minuexp._mixture import log_mixing_kernel
from minuexp.oracle import mix_integral
from minuexp.validation import pgf_series_coefficient

from conftest import (
    FROZEN_COUNT_MEAN,
    FROZEN_COUNT_PMF_2,
    FROZEN_COUNT_VAR,
    FROZEN_LST_AT_1,
    FROZEN_MEAN,
    FROZEN_TAU_PDF_AT_1,
    FROZEN_VARIANCE,
    FROZEN_XI_MEAN_GIVEN_N0,
    P11,
    P110,
    PARAM_GRID,
    log_uniform_params,
    mp_mean_variance,
)


class TestCountPmf:
    def test_frozen_values(self):
        assert count_pmf(P11, 0) == pytest.approx(FROZEN_LST_AT_1, rel=1e-12, abs=0.0)
        assert count_pmf(P11, 1) == pytest.approx(FROZEN_TAU_PDF_AT_1, rel=1e-12, abs=0.0)
        assert count_pmf(P11, 2) == pytest.approx(FROZEN_COUNT_PMF_2, rel=1e-12, abs=0.0)

    def test_mixture_oracle(self):
        for p in PARAM_GRID:
            for n in (0, 1, 3, 10, 30):
                ref = mix_integral(
                    p, lambda x, n=n: x**n * math.exp(-x) / math.factorial(n)
                )
                assert count_pmf(p, n) == pytest.approx(ref.value, rel=1e-8, abs=0.0)

    def test_truncated_normalization(self):
        for p in PARAM_GRID + [P110]:
            total, n = 0.0, 0
            while True:
                p_n = float(count_pmf(p, n))
                total += p_n
                if p_n < 1e-16 and total > 0.5:
                    break
                n += 1
                assert n < 10_000
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_log_space_survives_large_counts(self):
        # direct evaluation overflows near n ~ 150; the log path must not
        mpmath.mp.dps = 60
        for n in (150, 400):
            a, lam = 1.0, 1.0
            c = mpmath.mpf(lam + 1.0)
            integrand = lambda x: x**n * mpmath.e ** (-x * c) * (1 + lam * a - lam * x) / a
            ref = float(mpmath.quad(integrand, [0, a]) / mpmath.factorial(n))
            got = float(count_pmf(P11, n))
            assert got == pytest.approx(ref, rel=1e-10, abs=0.0)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            count_pmf(P11, -1)


class TestScaledParams:
    def test_examples(self):
        assert scaled_count_params(P11, 1.0) == MinUExpParams(1.0, 1.0)
        assert scaled_count_params(P11, 2.0) == MinUExpParams(2.0, 0.5)

    def test_matches_single_time_marginal(self):
        for p in PARAM_GRID:
            for mu_t in (0.5, 1.0, 2.7):
                scaled = scaled_count_params(p, mu_t)
                for n in range(0, 11):
                    marginal = ordered_pmf(p, [mu_t], [n])
                    assert count_pmf(scaled, n) == pytest.approx(marginal, rel=1e-12, abs=0.0)

    def test_is_the_scaled_mixing_law(self):
        for p in PARAM_GRID + [MinUExpParams(110.0, 0.04)]:
            for mu_t in (1e-3, 0.3, 1.0, 7.5, 1e4):
                assert scaled_count_params(p, mu_t) == scale(p, mu_t)

    def test_domain_error(self):
        for mu_t in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="accumulated intensity mu_t must be positive"):
                scaled_count_params(P11, mu_t)


class TestPgf:
    def test_at_zero_equals_zero_count(self):
        for p in PARAM_GRID:
            assert pgf(p, 1.0, 0.0) == pytest.approx(float(count_pmf(p, 0)), rel=1e-12, abs=0.0)

    def test_at_one_is_normalized(self):
        for p in PARAM_GRID:
            assert pgf(p, 1.0, 1.0) == 1.0
            assert pgf(p, 3.7, 1.0) == 1.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            pgf(P11, 1.0, 1.5)
        with pytest.raises(ValueError):
            pgf(P11, 0.0, 0.5)

    def test_series_coefficients_recover_pmf(self):
        for p in PARAM_GRID + [P110]:
            for k in range(5):
                est = pgf_series_coefficient(p, 1.0, k)
                assert abs(est - float(count_pmf(p, k))) < 1e-6


def _mp_count_mean_var(a, lam, mu_t):
    """Count mean and variance from the closed-form moments of xi,

        E xi = (z - 1 + e^-z)/(z lambda),  E xi^2 = (2 + 2 e^-z - 4(1 - e^-z)/z)/lambda^2

    with z = a lambda, to 50 digits: the working precision adds the digits
    their cancellation costs at small z (mp.quad is no help there, since its
    stopping rule is absolute)."""
    with mpmath.workdps(50 + 3 * max(0, math.ceil(-math.log10(a * lam)))):
        a, lam, mu_t = mpmath.mpf(a), mpmath.mpf(lam), mpmath.mpf(mu_t)
        z = a * lam
        e = mpmath.exp(-z)
        mean = (z - 1 + e) / (z * lam)
        second = (2 + 2 * e - 4 * (1 - e) / z) / lam**2
        return float(mu_t * mean), float(mu_t * mean + mu_t**2 * (second - mean**2))


class TestMeanVar:
    def test_frozen_pair(self):
        mean, var = count_mean_var(P11, 1.0)
        assert mean == pytest.approx(FROZEN_COUNT_MEAN, rel=1e-10, abs=0.0)
        assert var == pytest.approx(FROZEN_COUNT_VAR, rel=1e-10, abs=0.0)

    def test_overdispersion_decomposition(self):
        mean, var = count_mean_var(P11, 1.0)
        assert var - mean == pytest.approx(FROZEN_VARIANCE, rel=1e-10, abs=0.0)
        for p in PARAM_GRID + [P110]:
            for mu_t in (0.5, 1.0, 4.0):
                m, v = count_mean_var(p, mu_t)
                assert v > m
                assert m == pytest.approx(mu_t * raw_moment(p, 1), rel=1e-12, abs=0.0)
                assert v - m == pytest.approx(mu_t**2 * variance(p), rel=1e-12, abs=0.0)

    def test_against_mpmath_over_a_wide_domain(self):
        # the expanded forms in z = a lambda were up to 1.7e7 (mean) and
        # 5.1e16 (variance) off on these draws
        mu_ts = np.exp(np.random.default_rng(20252).uniform(np.log(1e-4), np.log(1e4), 2000))
        for p, mu_t in zip(log_uniform_params(20253, 2000), mu_ts.tolist()):
            mean, var = mp_mean_variance(p.a, p.lam)
            m, v = count_mean_var(p, mu_t)
            assert m == pytest.approx(mu_t * mean, rel=1e-13, abs=0.0)
            assert v == pytest.approx(mu_t * mean + mu_t**2 * var, rel=1e-13, abs=0.0)

    def test_extreme_products(self):
        # a lambda = 1e-300 raised ZeroDivisionError, and a = 1e-300 gave a
        # variance of 4 for a mean of 5e-301
        mean, var = count_mean_var(MinUExpParams(1.0, 1e-300), 1.0)
        assert mean == pytest.approx(0.5, rel=1e-15, abs=0.0)
        assert var == pytest.approx(0.5 + 1.0 / 12.0, rel=1e-15, abs=0.0)
        mean, var = count_mean_var(MinUExpParams(1e-300, 1.0), 1.0)
        assert mean == pytest.approx(5e-301, rel=1e-12, abs=0.0)
        assert var == mean
        assert count_mean_var(MinUExpParams(1e200, 1e-200), 1.0)[1] == math.inf

    @pytest.mark.parametrize(
        "a, lam, mu_t",
        [(1e-200, 1.0, 1e200), (1e-170, 1.0, 1e170), (1e-300, 1.0, 1e300), (1e-100, 3.0, 1e101), (1.0, 1.0, 1e150)],
    )
    def test_small_a_at_large_intensity(self, a, lam, mu_t):
        # mu_t**2 raised OverflowError at the first three points, where Var(xi)
        # has underflowed to 0 too; log J1 is down to -691 there, whose half
        # ulp is 7.7e-14 of relative error in exp(log J1)
        mean, var = count_mean_var(MinUExpParams(a, lam), mu_t)
        ref_mean, ref_var = _mp_count_mean_var(a, lam, mu_t)
        assert mean == pytest.approx(ref_mean, rel=1e-13, abs=0.0)
        assert var == pytest.approx(ref_var, rel=1e-13, abs=0.0)

    def test_variance_is_inf_only_past_overflow(self):
        assert count_mean_var(P11, 1e160)[1] == math.inf
        reference = _mp_count_mean_var(1.0, 1.0, 1e154)[1]
        assert count_mean_var(P11, 1e154)[1] == pytest.approx(reference, rel=1e-13, abs=0.0)

    def test_mean_linear_in_intensity(self):
        for p in PARAM_GRID:
            m1, _ = count_mean_var(p, 0.8)
            m2, _ = count_mean_var(p, 1.6)
            assert m2 == 2.0 * m1

    def test_pmf_moment_consistency(self):
        for p in (P11, PARAM_GRID[0], PARAM_GRID[-1]):
            ns = np.arange(0, 400)
            pmf = count_pmf(p, ns)
            assert pmf[-1] < 1e-18
            mean, var = count_mean_var(p, 1.0)
            assert float(np.sum(ns * pmf)) == pytest.approx(mean, rel=1e-8, abs=0.0)
            assert float(np.sum(ns**2 * pmf) - mean**2) == pytest.approx(var, rel=1e-8, abs=0.0)


class TestFactorialMoment:
    def test_first_equals_mean(self):
        for p in PARAM_GRID:
            mean, _ = count_mean_var(p, 1.3)
            assert factorial_moment(p, 1.3, 1) == pytest.approx(mean, rel=1e-12, abs=0.0)

    def test_second_equals_second_mixing_moment(self):
        ref = mix_integral(P11, lambda x: x * x).value
        assert factorial_moment(P11, 1.0, 2) == pytest.approx(ref, rel=1e-10, abs=0.0)

    def test_monte_carlo_band(self):
        counts = sample_grid_counts(P11, LinearMu(1.0), [1.0], 1_000_000, make_stream(61))
        n = counts[:, 0].astype(float)
        stat = n * (n - 1.0)
        est = float(np.mean(stat))
        stderr = float(np.std(stat, ddof=1) / math.sqrt(stat.size))
        assert abs(est - factorial_moment(P11, 1.0, 2)) <= 3.0 * stderr

    def test_domain_error(self):
        with pytest.raises(ValueError):
            factorial_moment(P11, 1.0, 0)


class TestJointGrids:
    def test_frozen_example(self):
        assert ordered_pmf(P11, [0.5, 1.0], [1, 2]) == pytest.approx(0.02702077239885585, rel=1e-12, abs=0.0)
        assert increments_pmf(P11, [0.5, 1.0], [1, 1]) == pytest.approx(
            0.02702077239885585, rel=1e-12, abs=0.0
        )

    def test_single_time_zero_count(self):
        assert ordered_pmf(P11, [1.0], [0]) == pytest.approx(FROZEN_LST_AT_1, rel=1e-12, abs=0.0)
        assert increments_pmf(P11, [1.0], [0]) == pytest.approx(FROZEN_LST_AT_1, rel=1e-12, abs=0.0)

    def test_non_monotone_is_outside_support(self):
        assert ordered_pmf(P11, [0.5, 1.0], [2, 1]) == 0.0
        assert increments_pmf(P11, [0.5, 1.0], [1, -1]) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ordered_pmf(P11, [0.5, 1.0], [1])
        with pytest.raises(ValueError):
            increments_pmf(P11, [0.5], [1, 1])
        with pytest.raises(ValueError):
            ordered_pmf(P11, [1.0, 0.5], [1, 2])

    @pytest.mark.parametrize(
        "grid, message",
        [
            ([[0.5, 1.0]], "intensity grid must be a nonempty one-dimensional vector"),
            ([], "intensity grid must be a nonempty one-dimensional vector"),
            ([1.0, 0.5], "intensity grid must be positive and strictly increasing"),
            ([0.0, 0.5], "intensity grid must be positive and strictly increasing"),
            ([0.5, math.nan], "intensity grid must be positive and strictly increasing"),
        ],
    )
    def test_grid_messages(self, grid, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ordered_pmf(P11, grid, [1, 2])

    def test_mixture_oracle(self):
        for p in PARAM_GRID:
            grid = [0.5, 1.0, 1.8]
            for kvec in ([0, 1, 3], [2, 2, 2], [1, 2, 2]):
                steps = np.diff(kvec, prepend=0)
                widths = np.diff(grid, prepend=0.0)
                product = float(
                    np.prod(widths**steps)
                    / np.prod([math.factorial(int(s)) for s in steps])
                )
                bracket = mix_integral(
                    p, lambda x, k=kvec[-1]: x**k * math.exp(-grid[-1] * x)
                ).value
                assert ordered_pmf(p, grid, kvec) == pytest.approx(product * bracket, rel=1e-8, abs=0.0)

    def test_increments_equal_reparameterized_ordered(self):
        for m1 in range(7):
            for m2 in range(7):
                lhs = increments_pmf(P11, [0.5, 1.0], [m1, m2])
                rhs = ordered_pmf(P11, [0.5, 1.0], [m1, m1 + m2])
                assert lhs == pytest.approx(rhs, rel=1e-12, abs=0.0)

    def test_total_mass_truncated(self):
        total = sum(
            increments_pmf(P11, [0.5, 1.0], [m1, m2])
            for m1 in range(13)
            for m2 in range(13)
        )
        assert total >= 1.0 - 1e-6


class TestCountTransforms:
    def test_examples(self):
        assert np.array_equal(ordered_to_increments([1, 2]), [1, 1])
        assert np.array_equal(ordered_to_increments([0, 0, 0]), [0, 0, 0])
        assert np.array_equal(ordered_to_increments([2, 5, 5]), [2, 3, 0])
        assert np.array_equal(increments_to_ordered([1, 1]), [1, 2])
        assert np.array_equal(increments_to_ordered([0, 0]), [0, 0])

    def test_errors(self):
        with pytest.raises(ValueError):
            ordered_to_increments([2, 1])
        with pytest.raises(ValueError):
            increments_to_ordered([1, -1])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 50), min_size=1, max_size=8))
    def test_round_trip_is_identity(self, m):
        assert np.array_equal(ordered_to_increments(increments_to_ordered(m)), m)
        k = np.cumsum(m)
        assert np.array_equal(increments_to_ordered(ordered_to_increments(k)), k)


_COUNT_VECTOR_CALLS = {
    "count_pmf n": lambda v: count_pmf(P11, v),
    "count_pmf n vector": lambda v: count_pmf(P11, [0, v]),
    "mean_xi_given_count n": lambda v: mean_xi_given_count(P11, 1.0, v),
    "ordered_pmf k": lambda v: ordered_pmf(P11, [1.0], [v]),
    "increments_pmf m": lambda v: increments_pmf(P11, [0.5, 1.0], [1, v]),
    "ordered_to_increments k": lambda v: ordered_to_increments([0, v]),
    "increments_to_ordered m": lambda v: increments_to_ordered([1, v]),
}


@pytest.mark.parametrize("value", [math.inf, -math.inf, 1e19, math.nan, 1.5])
@pytest.mark.parametrize("name", list(_COUNT_VECTOR_CALLS))
def test_count_entries_must_be_finite_integers(name, value):
    # inf and 1e19 equal their floors and were cast to -2**63, with a
    # RuntimeWarning: ordered_pmf(P11, [1.0], [inf]) returned 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite integers"):
            _COUNT_VECTOR_CALLS[name](value)


class TestXiGivenCount:
    def test_normalization(self):
        for p in (P11, P110, PARAM_GRID[3]):
            total = integrate.quad(
                lambda x: xi_given_count_pdf(p, 1.0, 0, x), 0.0, p.a, epsabs=0.0, epsrel=1e-11
            )[0]
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_proportional_to_tilted_prior(self):
        # Bayes shape: x^n e^(-x mu) times the prior density (whose own
        # e^(-lambda x) completes the e^(-x(lambda+mu)) in the closed form)
        for p in PARAM_GRID:
            n, mu_t = 3, 1.4
            xs = np.linspace(0.05 * p.a, 0.95 * p.a, 9)
            shape = xs**n * np.exp(-xs * mu_t) * pdf(p, xs)
            ratio = xi_given_count_pdf(p, mu_t, n, xs) / shape
            assert np.max(ratio) / np.min(ratio) - 1.0 < 1e-10

    def test_outside_support(self):
        assert xi_given_count_pdf(P11, 1.0, 2, 1.5) == 0.0
        assert xi_given_count_pdf(P11, 1.0, 2, 0.0) == 0.0
        assert xi_given_count_pdf(P11, 1.0, 2, 1.0) > 0.0  # right end included

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            xi_given_count_pdf(P11, 0.0, 1, 0.5)
        with pytest.raises(ValueError):
            xi_given_count_pdf(P11, 1.0, -1, 0.5)

    def test_normalizer_is_computed_once_per_point(self, monkeypatch):
        # quadrature over x repeats (params, mu_t, n): the kernel runs once
        calls = []

        def counted(params, s, c):
            calls.append((params, s, c))
            return log_mixing_kernel(params, s, c)

        counting._log_posterior_norm.cache_clear()
        monkeypatch.setattr(counting, "log_mixing_kernel", counted)
        p, mu_t, n = PARAM_GRID[4], 0.7, 5
        c = p.lam + mu_t
        xs = np.linspace(0.0, 1.2 * p.a, 13)
        values = [xi_given_count_pdf(p, mu_t, n, x) for x in xs.tolist()]
        assert xi_given_count_pdf(p, mu_t, n, xs).tolist() == values
        assert calls == [(p, n, c)]
        # the same bits as the unmemoized formula
        log_norm = math.log(p.a) + log_mixing_kernel(p, n, c)
        inside = (xs > 0.0) & (xs <= p.a)
        x_in = np.where(inside, xs, 0.5 * p.a)
        log_num = -x_in * c + np.log(p.lam * p.a + 1.0 - p.lam * x_in) + n * np.log(x_in)
        assert values == np.where(inside, np.exp(log_num - log_norm), 0.0).tolist()


class TestMeanXiGivenCount:
    def test_frozen_value(self):
        assert mean_xi_given_count(P11, 1.0, 0) == pytest.approx(
            FROZEN_XI_MEAN_GIVEN_N0, rel=1e-12, abs=0.0
        )

    def test_quadrature_oracle(self):
        for p in PARAM_GRID:
            for n in (0, 1, 4):
                num = mix_integral(p, lambda x, n=n: x ** (n + 1) * math.exp(-x * 0.9)).value
                den = mix_integral(p, lambda x, n=n: x**n * math.exp(-x * 0.9)).value
                assert mean_xi_given_count(p, 0.9, n) == pytest.approx(num / den, rel=1e-8, abs=0.0)

    def test_shrinks_below_prior_at_zero_count(self):
        assert mean_xi_given_count(P11, 1.0, 0) < FROZEN_MEAN

    def test_monotone_in_count_and_bounded(self):
        for p in PARAM_GRID:
            values = [mean_xi_given_count(p, 1.0, n) for n in range(11)]
            assert all(0.0 < v < p.a for v in values)
            assert all(b >= a for a, b in zip(values, values[1:]))

    def test_vector_counts_match_scalar_calls(self):
        ns = np.array([0, 1, 7, 60, 180])
        for p in (P11, P110):
            values = mean_xi_given_count(p, 2.5, ns)
            assert isinstance(values, np.ndarray) and values.shape == ns.shape
            assert values.tolist() == [mean_xi_given_count(p, 2.5, int(n)) for n in ns]
        assert isinstance(mean_xi_given_count(P11, 2.5, 3), float)
        for bad in ([0, -1], [0.5], np.zeros((2, 2), dtype=int)):
            with pytest.raises(ValueError):
                mean_xi_given_count(P11, 2.5, bad)


class TestConditionalBinomial:
    def test_examples(self):
        assert conditional_binomial_pmf(2, 0.5, 1) == pytest.approx(0.5, rel=1e-15, abs=0.0)
        assert conditional_binomial_pmf(2, 0.5, 0) == pytest.approx(0.25, rel=1e-15, abs=0.0)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(0, 40), ratio=st.floats(0.01, 0.99))
    def test_sums_to_one(self, n, ratio):
        total = sum(conditional_binomial_pmf(n, ratio, j) for j in range(n + 1))
        assert total == pytest.approx(1.0, rel=1e-12, abs=0.0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            conditional_binomial_pmf(2, 0.5, 3)
        with pytest.raises(ValueError):
            conditional_binomial_pmf(2, 1.0, 1)
        with pytest.raises(ValueError):
            conditional_binomial_pmf(-1, 0.5, 0)
