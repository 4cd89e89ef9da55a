"""Structure law: closed forms vs oracle, sampler correctness, invariants."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

import minuexp as mx
from minuexp import (
    MinUExpParams,
    bivariate_pdf,
    cdf,
    erlang_pdf,
    hazard,
    lst,
    make_stream,
    pdf,
    raw_moment,
    sample,
    scale,
    tau_cdf,
    tau_pdf,
    variance,
    xi_given_count_pdf,
    xi_given_tau_pdf,
)
from minuexp.oracle import ks_statistic, mc_mean, mix_integral

from conftest import (
    CORNER_GRID,
    FROZEN_CDF_AT_HALF,
    FROZEN_LST_AT_1,
    FROZEN_MEAN,
    FROZEN_MEAN_110,
    FROZEN_PDF_AT_HALF,
    FROZEN_SECOND_MOMENT,
    FROZEN_VARIANCE,
    KS_BOUND_1E5,
    P11,
    P110,
    PARAM_GRID,
    log_uniform_params,
    mp_mean_variance,
)


def test_params_validation():
    with pytest.raises(ValueError):
        MinUExpParams(0.0, 1.0)
    with pytest.raises(ValueError):
        MinUExpParams(1.0, -2.0)
    with pytest.raises(ValueError):
        MinUExpParams(math.inf, 1.0)


class TestCdf:
    def test_value_at_half(self):
        assert cdf(P11, 0.5) == pytest.approx(FROZEN_CDF_AT_HALF, rel=1e-14, abs=0.0)

    def test_monte_carlo_cross_check(self):
        rng = make_stream(101)
        res = mc_mean(
            lambda g, n: sample(P11, g, size=n),
            lambda v: (v <= 0.5).astype(float),
            1_000_000,
            rng,
        )
        assert abs(res.value - FROZEN_CDF_AT_HALF) <= 3.0 * res.err_estimate

    def test_boundaries(self):
        for p in PARAM_GRID:
            assert cdf(p, p.a) == pytest.approx(1.0, abs=1e-15)
            assert cdf(p, p.a + 1.0) == 1.0
            assert cdf(p, 0.0) == 0.0
            assert cdf(p, -3.0) == 0.0

    def test_nondecreasing_and_right_continuous_shape(self):
        xs = np.linspace(-1.0, 3.0, 400)
        values = cdf(P11, xs)
        assert np.all(np.diff(values) >= 0.0)
        assert np.all((values >= 0.0) & (values <= 1.0))

    def test_no_warning_where_lambda_x_overflows(self):
        # lambda x overflows at the last point, where e^(-lambda x) is 0 and
        # F is 1; this warned "overflow encountered in multiply"
        a, lam = 1e300, 9e307
        xs = [1e-308, 1e-300, 1e-10, 5e299]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = cdf(MinUExpParams(a, lam), np.array(xs))
            assert values.tolist() == [cdf(MinUExpParams(a, lam), x) for x in xs]
        with mpmath.workdps(60):
            am, lm = mpmath.mpf(a), mpmath.mpf(lam)
            ref = [float(1 - mpmath.exp(-lm * x) * (1 - x / am)) for x in xs]
        assert values.tolist() == pytest.approx(ref, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("p", PARAM_GRID + CORNER_GRID, ids=repr)
    def test_small_x_against_mpmath(self, p):
        # 1 - e^(-lambda x) + (x/a) e^(-lambda x) cancelled in its first
        # difference: 1.1e-5 off at P11 and x = 1e-12
        xs = p.a * np.array([1e-12, 1e-8, 1e-4])
        with mpmath.workdps(60):
            am, lm = mpmath.mpf(p.a), mpmath.mpf(p.lam)
            ref = [float(1 - mpmath.exp(-lm * x) * (1 - x / am)) for x in xs.tolist()]
        assert cdf(p, xs).tolist() == pytest.approx(ref, rel=1e-15, abs=0.0)


class TestPdf:
    def test_value_at_half(self):
        assert pdf(P11, 0.5) == pytest.approx(FROZEN_PDF_AT_HALF, rel=1e-14, abs=0.0)

    def test_outside_support(self):
        assert pdf(P11, 1.5) == 0.0
        assert pdf(P11, -0.5) == 0.0
        assert pdf(P11, 0.0) == 0.0

    def test_limit_at_zero(self):
        for p in PARAM_GRID:
            assert pdf(p, 1e-12) == pytest.approx(p.lam + 1.0 / p.a, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("a, lam", [(1e300, 9e307), (1e10, 1e300), (2.0, 1.7976931348623157e308)])
    def test_finite_where_lambda_a_overflows(self, a, lam):
        # at (1e300, 9e307) this gave [inf, nan] at [1e-308, 1e-300]: the
        # factor lambda a + 1 - lambda x was inf
        p = MinUExpParams(a, lam)
        xs = [x for x in (5e-324, 1e-308, 5e-308, 1e-300, 1e-10, 0.5 * a) if x < a]
        with mpmath.workdps(60):
            am, lm = mpmath.mpf(a), mpmath.mpf(lam)
            ref = [float(mpmath.exp(-lm * x) / am * (lm * am + 1 - lm * x)) for x in xs]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = pdf(p, np.array(xs))
            assert values.tolist() == [pdf(p, x) for x in xs]
        normal = np.abs(ref) >= 2.2250738585072014e-308
        gap = np.abs(values - ref)
        assert np.all(np.where(normal, gap <= 1e-15 * np.abs(ref), gap <= 1e-322)), (values, ref)
        assert max(ref) > 0.3 * lam

    def test_normalization_quadrature(self):
        for p in PARAM_GRID:
            total = mix_integral(p, lambda x: 1.0)
            assert total.value == pytest.approx(1.0, abs=1e-10)

    def test_pdf_is_derivative_of_cdf(self):
        h = 1e-6
        for p in PARAM_GRID:
            xs = np.linspace(0.1 * p.a, 0.9 * p.a, 9)
            derivative = (cdf(p, xs + h) - cdf(p, xs - h)) / (2.0 * h)
            assert np.max(np.abs(derivative - pdf(p, xs))) < 1e-6


class TestHazard:
    def test_figure_parameters_value(self):
        assert hazard(P110, 100.0) == pytest.approx(0.04 + 0.1, rel=1e-14, abs=0.0)

    def test_simple_value(self):
        assert hazard(P11, 0.5) == pytest.approx(3.0, rel=1e-14, abs=0.0)

    def test_infinite_at_right_end(self):
        for p in PARAM_GRID:
            assert hazard(p, p.a) == math.inf

    def test_zero_outside(self):
        assert hazard(P11, -1.0) == 0.0
        assert hazard(P11, 2.0) == 0.0

    def test_matches_pdf_over_survival(self):
        for p in PARAM_GRID:
            xs = np.linspace(0.05 * p.a, 0.95 * p.a, 9)
            # survival in cancellation-free form: naive 1 - cdf(x) loses
            # all digits once the tail is ~1e-10
            survival = np.exp(-p.lam * xs) * (1.0 - xs / p.a)
            ref = pdf(p, xs) / survival
            assert np.max(np.abs(hazard(p, xs) / ref - 1.0)) < 1e-10
            naive = pdf(p, xs[:3]) / (1.0 - cdf(p, xs[:3]))
            assert np.max(np.abs(hazard(p, xs[:3]) / naive - 1.0)) < 1e-10

    def test_strictly_increasing_inside(self):
        xs = np.linspace(0.01, 0.99, 99)
        values = hazard(P11, xs)
        assert np.all(np.diff(values) > 0.0)


class TestScale:
    def test_examples(self):
        assert scale(MinUExpParams(1.0, 1.0), 2.0) == MinUExpParams(2.0, 0.5)
        assert scale(MinUExpParams(3.0, 0.7), 1.0) == MinUExpParams(3.0, 0.7)
        assert scale(P110, 0.5) == MinUExpParams(55.0, 0.08)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            scale(P11, 0.0)
        with pytest.raises(ValueError):
            scale(P11, -1.0)

    @settings(max_examples=200, deadline=None)
    @given(
        a=st.floats(0.1, 50.0),
        lam=st.floats(0.02, 10.0),
        k=st.floats(0.05, 20.0),
        q=st.floats(0.0, 1.2),
    )
    def test_cdf_scaling_property(self, a, lam, k, q):
        p = MinUExpParams(a, lam)
        x = q * a
        assert abs(cdf(scale(p, k), k * x) - cdf(p, x)) <= 1e-14


class TestMoments:
    def test_mean_and_second_moment_frozen(self):
        assert raw_moment(P11, 1) == pytest.approx(FROZEN_MEAN, rel=1e-12, abs=0.0)
        assert raw_moment(P11, 2) == pytest.approx(FROZEN_SECOND_MOMENT, rel=1e-12, abs=0.0)
        assert raw_moment(P110, 1) == pytest.approx(FROZEN_MEAN_110, rel=1e-12, abs=0.0)

    def test_mean_elementary_form_identity(self):
        for p in PARAM_GRID:
            z = p.a * p.lam
            elementary = (z - 1.0 + math.exp(-z)) / (p.a * p.lam**2)
            assert raw_moment(p, 1) == pytest.approx(elementary, rel=1e-12, abs=0.0)

    def test_quadrature_match_higher_orders(self):
        for p in PARAM_GRID:
            for k in (1, 2, 3, 5):
                ref = mix_integral(p, lambda x, k=k: x**k)
                assert raw_moment(p, k) == pytest.approx(ref.value, rel=1e-10, abs=0.0)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            raw_moment(P11, 0)
        with pytest.raises(ValueError):
            raw_moment(P11, -2)


class TestVariance:
    def test_frozen_value(self):
        assert variance(P11) == pytest.approx(FROZEN_VARIANCE, rel=1e-12, abs=0.0)

    def test_moment_identity_everywhere(self):
        for p in PARAM_GRID + [P110]:
            ref = raw_moment(p, 2) - raw_moment(p, 1) ** 2
            assert variance(p) == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_against_mpmath_over_a_wide_domain(self):
        # the expanded form in z = a lambda was up to 2.6e21 off on these draws
        for p in log_uniform_params(20251, 2000):
            assert variance(p) == pytest.approx(mp_mean_variance(p.a, p.lam)[1], rel=1e-13, abs=0.0)

    def test_extreme_products(self):
        # a lambda = 1e-300 raised ZeroDivisionError; at a = 1e-300 the true
        # 8e-602 underflows, where the expanded form gave 4.0
        assert variance(MinUExpParams(1.0, 1e-300)) == pytest.approx(1.0 / 12.0, rel=1e-15, abs=0.0)
        assert variance(MinUExpParams(1e-300, 1.0)) == 0.0
        assert variance(MinUExpParams(1e200, 1e-200)) == math.inf

    def test_pure_exponential_limit(self):
        # variance -> 1/lambda^2 at rate 2/(a lambda); the stated 1e-10
        # closeness needs a lambda ~ 4e10 (at a lambda = 50 the gap is ~4%)
        p = MinUExpParams(4e10, 1.0)
        assert abs(variance(p) - 1.0) < 1e-10
        p50 = MinUExpParams(50.0, 1.0)
        assert abs(variance(p50) - 1.0) == pytest.approx(2.0 / 50.0, rel=0.03, abs=0.0)


class TestLst:
    def test_frozen_value(self):
        assert lst(P11, 1.0) == pytest.approx(FROZEN_LST_AT_1, rel=1e-13, abs=0.0)

    def test_at_zero_and_decay(self):
        for p in PARAM_GRID:
            assert lst(p, 0.0) == 1.0
        assert lst(P11, 1e6) < 1e-5

    def test_domain_error(self):
        with pytest.raises(ValueError):
            lst(P11, -0.5)

    def test_large_t_does_not_overflow(self):
        # lambda/c + 1/(a c) (1 - e^(-ac)) ~ (lambda + 1/a)/c: with c^2 in the
        # denominator the second term overflowed to 0 past t = 1.3e154
        for t in (1e150, 1e160, 1e300):
            assert lst(MinUExpParams(0.5, 1.0), t) == pytest.approx(3.0 / (1.0 + t), rel=1e-15, abs=0.0)

    def test_quadrature_match(self):
        for p in PARAM_GRID:
            for t in (0.1, 1.0, 5.0):
                ref = mix_integral(p, lambda x, t=t: math.exp(-t * x))
                assert lst(p, t) == pytest.approx(ref.value, rel=1e-10, abs=0.0)

    def test_complement_of_waiting_time_cdf(self):
        for p in PARAM_GRID:
            for t in (0.05, 0.7, 3.0, 20.0):
                assert lst(p, t) == pytest.approx(1.0 - tau_cdf(p, t), rel=1e-10, abs=0.0)


class TestSampler:
    def test_support(self):
        rng = make_stream(7)
        for p in PARAM_GRID:
            draws = sample(p, rng, size=10_000)
            assert np.all((draws > 0.0) & (draws < p.a))

    def test_ks_against_cdf(self):
        draws = sample(P11, make_stream(11), size=100_000)
        assert ks_statistic(draws, lambda x: cdf(P11, x)) < KS_BOUND_1E5

    def test_mean_clt_band(self):
        rng = make_stream(13)
        res = mc_mean(lambda g, n: sample(P11, g, size=n), lambda v: v, 1_000_000, rng)
        assert abs(res.value - FROZEN_MEAN) <= 3.0 * res.err_estimate

    def test_bit_exact_reproducibility(self):
        a = sample(P11, make_stream(99), size=1000)
        b = sample(P11, make_stream(99), size=1000)
        assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "evaluator",
    [
        cdf,
        pdf,
        hazard,
        tau_cdf,
        tau_pdf,
        lambda p, x: erlang_pdf(p, 3, x),
        lambda p, x: xi_given_tau_pdf(p, 1.0, x),
        lambda p, x: xi_given_count_pdf(p, 1.0, 2, x),
        lambda p, x: bivariate_pdf(p, x, 0.5),
        lambda p, x: bivariate_pdf(p, 1.0, x),
    ],
    ids=[
        "cdf", "pdf", "hazard", "tau_cdf", "tau_pdf", "erlang_pdf", "xi_given_tau_pdf",
        "xi_given_count_pdf", "bivariate_pdf_t", "bivariate_pdf_x",
    ],
)
def test_nan_in_gives_nan_out(evaluator):
    # these evaluators used to return 0 (or a body value for cdf) at NaN
    assert math.isnan(evaluator(P11, math.nan))
    out = evaluator(P11, np.array([math.nan, 0.5, 2.0, math.nan]))
    assert np.array_equal(np.isnan(out), [True, False, False, True])
    assert out[1] == evaluator(P11, 0.5)
    assert out[2] == evaluator(P11, 2.0)


@pytest.mark.parametrize("evaluator", [lst, tau_cdf, tau_pdf], ids=["lst", "tau_cdf", "tau_pdf"])
def test_scalar_calls_equal_array_calls_exactly(evaluator):
    # a 0-d c**2 went through libm pow: lst(MinUExpParams(0.5, 0.25), 0.366875)
    # ended in ...274 as a scalar and ...273 inside an array
    rng = np.random.default_rng(20261018)
    t = np.concatenate([
        [0.366875],
        rng.uniform(0.0, 3.0, 400),
        np.exp(rng.uniform(math.log(1e-3), math.log(1e3), 400)),
    ])
    for p in PARAM_GRID + [P110]:
        assert [evaluator(p, float(v)) for v in t] == evaluator(p, t).tolist(), p


_MU = mx.LinearMu(1.0)

# every integer argument goes through structure._integer: (call, lowest value)
_INTEGER_ARGUMENTS = {
    "raw_moment k": (lambda v: mx.raw_moment(P11, v), 1),
    "factorial_moment k": (lambda v: mx.factorial_moment(P11, 0.8, v), 1),
    "erlang_pdf n": (lambda v: mx.erlang_pdf(P11, v, 1.0), 1),
    "erlang_moment n": (lambda v: mx.erlang_moment(P11, v, 0.5), 1),
    "interarrival_vector_sample k": (lambda v: mx.interarrival_vector_sample(P11, v, make_stream(0)), 1),
    "simulate_first_arrivals k": (lambda v: mx.simulate_first_arrivals(P11, _MU, v, make_stream(0)), 1),
    "sample_arrival_times k": (lambda v: mx.sample_arrival_times(P11, _MU, v, 3, make_stream(0)), 1),
    "sample_arrival_times paths": (lambda v: mx.sample_arrival_times(P11, _MU, 2, v, make_stream(0)), 1),
    "simulate_paths paths": (lambda v: list(mx.simulate_paths(P11, _MU, 1.0, v, 0)), 1),
    "sample_grid_counts paths": (lambda v: mx.sample_grid_counts(P11, _MU, [1.0], v, make_stream(0)), 1),
    "thinning_check n": (lambda v: mx.thinning_check(P11, _MU, 0.5, 1.0, v, 10, make_stream(0)), 1),
    "xi_given_count_pdf n": (lambda v: mx.xi_given_count_pdf(P11, 1.0, v, 0.5), 0),
    "conditional_binomial_pmf n": (lambda v: mx.conditional_binomial_pmf(v, 0.5, 0), 0),
    "conditional_binomial_pmf j": (lambda v: mx.conditional_binomial_pmf(3, 0.5, v), 0),
}


@pytest.mark.parametrize(
    "name, value",
    [
        (name, value)
        for name, (_, lowest) in _INTEGER_ARGUMENTS.items()
        for value in (1.5, math.inf, math.nan) + ((0,) if lowest == 1 else ())
    ],
)
def test_integer_arguments_reject_fractions_nan_inf_and_too_small(name, value):
    # inf used to raise OverflowError, and a fractional path count was truncated
    call, _ = _INTEGER_ARGUMENTS[name]
    with pytest.raises(ValueError, match="integer"):
        call(value)
