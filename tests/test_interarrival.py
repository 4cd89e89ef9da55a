"""Waiting-time laws: closed forms vs the mixture oracle, samplers, identities."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy import integrate, stats

from minuexp import (
    MinUExpParams,
    bivariate_pdf,
    erlang_moment,
    erlang_pdf,
    interarrival_vector_sample,
    lst,
    make_stream,
    mean_xi_given_tau,
    multivariate_pdf_II,
    pdf,
    sample,
    tau_cdf,
    tau_moment,
    tau_pdf,
    tau_sample,
    xi_given_tau_pdf,
)
from minuexp.oracle import ks_statistic, mc_mean, mix_integral

from conftest import (
    CORNER_GRID,
    FROZEN_BIVARIATE_1_HALF,
    FROZEN_ERLANG2_MOMENT_HALF,
    FROZEN_LST_AT_1,
    FROZEN_MULTIVARIATE_2,
    FROZEN_TAU_CDF_AT_1,
    FROZEN_TAU_MOMENT_HALF,
    FROZEN_TAU_PDF_AT_1,
    FROZEN_XI_MEAN_GIVEN_TAU1,
    KS_BOUND_1E5,
    P11,
    P110,
    PARAM_GRID,
    rel_err,
)

T_GRID = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0)


def truncated_normalization(density, lam: float, a: float, n: int = 1) -> float:
    """Integral of a waiting-time density over (0, T*) where the analytic
    tail bound n (lambda + 1/a) / T* is below 1e-9."""
    t_star = n * (lam + 1.0 / a) * 1e9
    edges = np.geomspace(1e-6, t_star, 40)
    total = integrate.quad(density, 0.0, edges[0], epsabs=1e-14, limit=200)[0]
    for lo, hi in zip(edges[:-1], edges[1:]):
        total += integrate.quad(density, lo, hi, epsabs=0.0, epsrel=1e-11, limit=200)[0]
    return total


class TestTauCdf:
    def test_frozen_value(self):
        assert tau_cdf(P11, 1.0) == pytest.approx(FROZEN_TAU_CDF_AT_1, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("params", CORNER_GRID, ids=lambda p: f"a={p.a:g},lam={p.lam:g}")
    def test_small_corner_matches_mpmath(self, params):
        # t/c - t/(a c^2) (1 - e^(-ac)) at 60 digits, where double arithmetic
        # in that form cancels as ac -> 0
        ts = np.geomspace(1e-12, 1e6, 37)
        with mpmath.workdps(60):
            a, lam = mpmath.mpf(params.a), mpmath.mpf(params.lam)

            def reference(t):
                c = lam + t
                return float(t / c - t / (a * c**2) * -mpmath.expm1(-a * c))

            ref = [reference(mpmath.mpf(t)) for t in ts.tolist()]
        assert rel_err(tau_cdf(params, ts), ref) <= 1e-12

    def test_support_and_properness(self):
        assert tau_cdf(P11, 0.0) == 0.0
        assert tau_cdf(P11, -2.0) == 0.0
        assert tau_cdf(P11, 1e12) == pytest.approx(1.0, abs=1e-11)

    def test_equals_one_minus_transform(self):
        for p in PARAM_GRID:
            ts = np.array(T_GRID)
            assert np.max(np.abs(tau_cdf(p, ts) - (1.0 - lst(p, ts)))) < 1e-14


class TestTauPdf:
    def test_frozen_value(self):
        assert tau_pdf(P11, 1.0) == pytest.approx(FROZEN_TAU_PDF_AT_1, rel=1e-13, abs=0.0)

    def test_support(self):
        assert tau_pdf(P11, -1.0) == 0.0
        assert tau_pdf(P11, 0.0) == 0.0

    def test_mixture_oracle(self):
        for p in PARAM_GRID:
            for t in T_GRID:
                ref = mix_integral(p, lambda x, t=t: x * math.exp(-t * x))
                assert tau_pdf(p, t) == pytest.approx(ref.value, rel=1e-8, abs=0.0)

    def test_tail_truncated_normalization(self):
        for p in (P11, PARAM_GRID[0], PARAM_GRID[-1]):
            total = truncated_normalization(lambda t: tau_pdf(p, t), p.lam, p.a)
            assert total == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize(
        "params", CORNER_GRID + PARAM_GRID, ids=lambda p: f"a={p.a:g},lam={p.lam:g}"
    )
    def test_matches_mpmath_down_to_small_corners(self, params):
        # the three-term form at 60 digits; in double arithmetic it cancelled
        # to 8.5e-5 relative at (1e-3, 1e-3) and to the wrong sign at (1e-6, 1e-6)
        ts = np.geomspace(1e-12, 1e6, 37)
        with mpmath.workdps(60):
            a, lam = mpmath.mpf(params.a), mpmath.mpf(params.lam)

            def reference(t):
                c = lam + t
                e = mpmath.exp(-a * c)
                return float(lam / c**2 + (t - lam) / (a * c**3) * (1 - e) - t / c**2 * e)

            ref = [reference(mpmath.mpf(t)) for t in ts.tolist()]
        assert rel_err(tau_pdf(params, ts), ref) <= 1e-12

    def test_nonnegative_at_the_smallest_corner(self):
        # the direct form was negative at 116 of these points
        assert (tau_pdf(CORNER_GRID[0], np.geomspace(1e-12, 1e6, 400)) >= 0.0).all()

    def test_large_t_does_not_overflow(self):
        # (lambda + 1/a) / c^2 for t past 1e154, where c^3 overflows
        for t in (1e150, 1e160):
            with mpmath.workdps(30):
                ref = float((1 + 1 / mpmath.mpf(0.5)) / (1 + mpmath.mpf(t)) ** 2)
            assert tau_pdf(MinUExpParams(0.5, 1.0), t) == pytest.approx(ref, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("evaluator,limit", [(tau_cdf, 1.0), (tau_pdf, 0.0), (lst, 0.0)])
def test_limit_at_infinity(evaluator, limit):
    # each used to give NaN from inf/inf, with a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in (P11, P110, CORNER_GRID[0]):
            assert evaluator(p, math.inf) == limit
            out = evaluator(p, np.array([2.0, math.inf, 0.5]))
            assert out[1] == limit
            assert out[[0, 2]].tolist() == [evaluator(p, 2.0), evaluator(p, 0.5)]


class TestTauMoment:
    def test_frozen_value(self):
        assert tau_moment(P11, 0.5) == pytest.approx(FROZEN_TAU_MOMENT_HALF, rel=1e-10, abs=0.0)

    def test_zeroth_moment_is_one(self):
        for p in PARAM_GRID:
            assert tau_moment(p, 0.0) == pytest.approx(1.0, rel=1e-13, abs=0.0)

    def test_infinite_outside_range(self):
        assert tau_moment(P11, 1.0) == math.inf
        assert tau_moment(P11, -1.0) == math.inf
        assert tau_moment(P11, 1.7) == math.inf

    def test_moment_identity_with_inverse_moments(self):
        for p in PARAM_GRID:
            for power in (-0.9, -0.5, 0.5, 0.9):
                ref = math.gamma(power + 1.0) * mix_integral(
                    p, lambda x, power=power: x ** (-power)
                ).value
                assert tau_moment(p, power) == pytest.approx(ref, rel=1e-8, abs=0.0)


class TestTauSampler:
    def test_ks(self):
        draws = tau_sample(P11, make_stream(23), size=100_000)
        assert ks_statistic(draws, lambda t: tau_cdf(P11, t)) < KS_BOUND_1E5

    def test_positive(self):
        draws = tau_sample(P110, make_stream(29), size=10_000)
        assert np.all(draws > 0.0)

    def test_survival_clt_band(self):
        res = mc_mean(
            lambda g, n: tau_sample(P11, g, size=n),
            lambda v: (v > 1.0).astype(float),
            1_000_000,
            make_stream(31),
        )
        assert abs(res.value - FROZEN_LST_AT_1) <= 3.0 * res.err_estimate


# (params, t) where a (lambda + t) overflows although t is finite
OVERFLOWING_AC = [
    (MinUExpParams(1e3, 1.0), (1e306, 1e307, 1.7e308)),
    (MinUExpParams(1e300, 1.0), (1e9, 1e12, 1e100)),
    (MinUExpParams(1e300, 1e-300), (1e9, 1e200)),
]


def _mp_tau_cdf(a, lam, t):
    c = lam + t
    return t / c - t / (a * c**2) * -mpmath.expm1(-a * c)


def _mp_tau_pdf(a, lam, t):
    c = lam + t
    e = mpmath.exp(-a * c)
    return lam / c**2 + (t - lam) / (a * c**3) * (1 - e) - t / c**2 * e


def _mp_lst(a, lam, t):
    c = lam + t
    return lam / c + t / (a * c**2) * -mpmath.expm1(-a * c)


@pytest.mark.parametrize(
    "evaluator,reference",
    [(tau_cdf, _mp_tau_cdf), (tau_pdf, _mp_tau_pdf), (lst, _mp_lst)],
    ids=["tau_cdf", "tau_pdf", "lst"],
)
def test_finite_where_ac_overflows(evaluator, reference):
    # these gave NaN (tau_cdf, tau_pdf) or dropped the 1/(ac) term (lst),
    # with overflow and invalid-value RuntimeWarnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for params, ts in OVERFLOWING_AC:
            with mpmath.workdps(60):
                a, lam = mpmath.mpf(params.a), mpmath.mpf(params.lam)
                ref = [float(reference(a, lam, mpmath.mpf(t))) for t in ts]
            # mixed with points where ac is finite, which keep their values
            points = np.array([*ts, 1e-3 / params.a, 0.5])
            values = evaluator(params, points)
            assert rel_err(values[: len(ts)], ref) <= 1e-15
            assert values.tolist() == [evaluator(params, t) for t in points.tolist()]


# (params, t) where c = lambda + t itself overflows although t is finite
OVERFLOWING_C = [
    (MinUExpParams(1.0, 1e308), (1.5e308, 1e308, 1.7976931348623157e308)),
    (MinUExpParams(1e-300, 1.7e308), (1e307, 1.7e308)),
    (MinUExpParams(1e300, 9e307), (9e307, 1.5e308)),
]


@pytest.mark.parametrize(
    "evaluator,reference",
    [(tau_cdf, _mp_tau_cdf), (tau_pdf, _mp_tau_pdf), (lst, _mp_lst)],
    ids=["tau_cdf", "tau_pdf", "lst"],
)
def test_finite_where_c_overflows(evaluator, reference):
    # at (1, 1e308), t = 1.5e308 these gave 0.0 with an "overflow
    # encountered in add" RuntimeWarning; the values are about 0.6, 1.6e-309
    # (subnormal, so compared to an absolute 1e-322) and 0.4
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for params, ts in OVERFLOWING_C:
            with mpmath.workdps(60):
                a, lam = mpmath.mpf(params.a), mpmath.mpf(params.lam)
                ref = np.array([float(reference(a, lam, mpmath.mpf(t))) for t in ts])
            points = np.array([*ts, 1e-3, 0.5, 1e300])
            values = evaluator(params, points)
            normal = np.abs(ref) >= 2.2250738585072014e-308
            gap = np.abs(values[: len(ts)] - ref)
            assert np.all(np.where(normal, gap / np.abs(ref) <= 1e-15, gap <= 1e-322))
            assert values.tolist() == [evaluator(params, t) for t in points.tolist()]


def _mp_bivariate(a, lam, t, x):
    return x / a * mpmath.exp(-(lam + t) * x) * (1 + lam * a - lam * x)


def _mp_xi_given_tau(a, lam, t, x):
    return _mp_bivariate(a, lam, t, x) / _mp_tau_pdf(a, lam, t)


@pytest.mark.parametrize(
    "evaluator,reference",
    [(bivariate_pdf, _mp_bivariate), (xi_given_tau_pdf, _mp_xi_given_tau)],
    ids=["bivariate_pdf", "xi_given_tau_pdf"],
)
def test_joint_and_posterior_finite_where_c_overflows(evaluator, reference):
    # at (1, 1e308), t = 1.5e308 bivariate_pdf gave 0.0 at every x with an
    # "overflow encountered in add" RuntimeWarning, and xi_given_tau_pdf
    # gave NaN; x = k / c puts the exponent c x at k.  At the third pair
    # lambda a overflows too, where both gave NaN from the factor
    # 1 + lambda a - lambda x; t = 1e10 keeps c finite there
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for params, ts in OVERFLOWING_C[:2] + [(OVERFLOWING_C[2][0], (1e10, *OVERFLOWING_C[2][1]))]:
            # the last factor: 1 + lambda a - lambda x, or that over a where
            # lambda a overflows
            over_a = params.lam * params.a == math.inf
            for t in ts:
                with mpmath.workdps(60):
                    a, lam, tm = mpmath.mpf(params.a), mpmath.mpf(params.lam), mpmath.mpf(t)
                    c = lam + tm
                    xs = [float(k / c) for k in (0.01, 0.5, 2.0, 30.0)] + [0.5 * params.a]
                    xs = [x for x in xs if 0.0 < x < params.a]
                    ref = [reference(a, lam, tm, mpmath.mpf(x)) for x in xs]
                    # where the product before the last factor (x/a e^(-c x),
                    # or x e^(-c x)) is subnormal it carries an absolute error
                    # up to its ulp, 2^-1074, which the last factor scales
                    slack = [
                        2.0**-1074
                        * float(abs(r * (1 if over_a else a) / (mpmath.mpf(x) * mpmath.exp(-c * mpmath.mpf(x)))))
                        for r, x in zip(ref, xs)
                    ]
                ref = [float(r) for r in ref]
                values = evaluator(params, t, np.array(xs))
                assert values.tolist() == [evaluator(params, t, x) for x in xs]
                for value, r, extra in zip(values.tolist(), ref, slack):
                    assert abs(value - r) <= 1e-14 * abs(r) + extra, (params, t, value, r)
                assert max(ref) > 0.0


class TestBivariate:
    def test_frozen_value(self):
        assert bivariate_pdf(P11, 1.0, 0.5) == pytest.approx(FROZEN_BIVARIATE_1_HALF, rel=1e-13, abs=0.0)

    def test_outside_support(self):
        assert bivariate_pdf(P11, 1.0, 2.0) == 0.0
        assert bivariate_pdf(P11, -1.0, 0.5) == 0.0
        assert bivariate_pdf(P11, 1.0, 0.0) == 0.0

    def test_conditional_times_marginal_identity(self):
        for p in PARAM_GRID:
            for t in (0.5, 2.0):
                xs = np.linspace(0.1 * p.a, 0.9 * p.a, 7)
                ref = xs * np.exp(-t * xs) * pdf(p, xs)
                assert np.max(np.abs(bivariate_pdf(p, t, xs) / ref - 1.0)) < 1e-12

    def test_marginalizes_to_tau_pdf(self):
        for t in (0.5, 1.0, 3.0):
            marginal = integrate.quad(
                lambda x: bivariate_pdf(P11, t, x), 0.0, 1.0, epsabs=0.0, epsrel=1e-12
            )[0]
            assert marginal == pytest.approx(tau_pdf(P11, t), rel=1e-10, abs=0.0)


class TestXiGivenTau:
    def test_normalization(self):
        for p in (P11, P110, PARAM_GRID[2]):
            total = integrate.quad(
                lambda x: xi_given_tau_pdf(p, 1.0, x), 0.0, p.a, epsabs=0.0, epsrel=1e-11
            )[0]
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_bayes_identity(self):
        for p in PARAM_GRID:
            t = 0.8
            xs = np.linspace(0.05 * p.a, 0.95 * p.a, 9)
            ref = bivariate_pdf(p, t, xs) / tau_pdf(p, t)
            assert np.max(np.abs(xi_given_tau_pdf(p, t, xs) / ref - 1.0)) < 1e-10

    @pytest.mark.parametrize(
        "params", CORNER_GRID + PARAM_GRID, ids=lambda p: f"a={p.a:g},lam={p.lam:g}"
    )
    def test_matches_mpmath_down_to_small_corners(self, params):
        # x c^3 e^(-cx) (1 + lambda a - lambda x) / D(t) at 60 digits; in double
        # arithmetic D(t) cancelled, to -8129.5 at (1e-6, 1e-6), t = 1e-3
        ts = np.geomspace(1e-12, 1e6, 37)
        xs = params.a * np.array([0.1, 0.4, 0.9])
        with mpmath.workdps(60):
            a, lam = mpmath.mpf(params.a), mpmath.mpf(params.lam)

            def reference(t, x):
                c = lam + t
                e = mpmath.exp(-a * c)
                denom = a * lam * c + (t - lam) * (1 - e) - a * t * c * e
                return float(x * c**3 * mpmath.exp(-c * x) * (1 + lam * a - lam * x) / denom)

            ref = np.array([[reference(mpmath.mpf(t), mpmath.mpf(x)) for x in xs.tolist()] for t in ts.tolist()])
        got = np.array([xi_given_tau_pdf(params, t, xs) for t in ts.tolist()])
        normal = ref >= np.finfo(float).tiny
        assert normal.sum() >= 0.5 * ref.size
        assert rel_err(got[normal], ref[normal]) <= 1e-12

    @pytest.mark.parametrize("params", [P11, P110, CORNER_GRID[0]], ids=["P11", "P110", "corner"])
    def test_large_t_where_the_marginal_underflows(self, params):
        # tau_pdf is subnormal past t = 1.5e154 and 0 past about 1e162, while
        # the posterior near x = 1/t is a normal double; dividing by tau_pdf
        # itself lost 1e-5 relative at t = 1e160 and then divided by zero
        ts = [1e100, 1e155, 1e160, 1e200, 1e300]
        with mpmath.workdps(60):
            a, lam = mpmath.mpf(params.a), mpmath.mpf(params.lam)

            def reference(t):
                c, x = lam + t, 1 / t
                e = mpmath.exp(-a * c)
                denom = a * lam * c + (t - lam) * (1 - e) - a * t * c * e
                return float(x * c**3 * mpmath.exp(-c * x) * (1 + lam * a - lam * x) / denom)

            ref = [reference(mpmath.mpf(t)) for t in ts]
        got = [xi_given_tau_pdf(params, t, 1.0 / t) for t in ts]
        assert rel_err(got, ref) <= 1e-14

    def test_nonnegative_at_the_smallest_corner(self):
        params = CORNER_GRID[0]
        values = [xi_given_tau_pdf(params, t, 0.4 * params.a) for t in np.geomspace(1e-12, 1e6, 400).tolist()]
        assert min(values) >= 0.0

    def test_outside_support_and_domain(self):
        assert xi_given_tau_pdf(P11, 1.0, 1.5) == 0.0
        assert xi_given_tau_pdf(P11, 1.0, -0.2) == 0.0
        with pytest.raises(ValueError):
            xi_given_tau_pdf(P11, 0.0, 0.5)
        with pytest.raises(ValueError):
            xi_given_tau_pdf(P11, -1.0, 0.5)
        with pytest.raises(ValueError):
            xi_given_tau_pdf(P11, math.inf, 0.5)


class TestRegressions:
    def test_mean_xi_given_tau_oracle(self):
        assert mean_xi_given_tau(P11, 1.0) == pytest.approx(FROZEN_XI_MEAN_GIVEN_TAU1, rel=1e-12, abs=0.0)
        for p in PARAM_GRID:
            for t in (0.2, 1.0, 4.0):
                num = mix_integral(p, lambda x, t=t: x * x * math.exp(-t * x)).value
                den = mix_integral(p, lambda x, t=t: x * math.exp(-t * x)).value
                assert mean_xi_given_tau(p, t) == pytest.approx(num / den, rel=1e-8, abs=0.0)

    def test_mean_xi_given_tau_range_and_monotonicity(self):
        for p in PARAM_GRID:
            ts = np.geomspace(0.1, 10.0, 25)
            values = mean_xi_given_tau(p, ts)
            assert np.all((values > 0.0) & (values < p.a))
            assert np.all(np.diff(values) <= 1e-14)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            mean_xi_given_tau(P11, 0.0)


class TestMultivariateII:
    def test_frozen_value(self):
        assert multivariate_pdf_II(P11, [0.5, 0.5]) == pytest.approx(
            FROZEN_MULTIVARIATE_2, rel=1e-12, abs=0.0
        )

    def test_reduces_to_tau_pdf(self):
        for p in PARAM_GRID:
            for t in (0.3, 1.0, 4.0):
                assert multivariate_pdf_II(p, [t]) == pytest.approx(tau_pdf(p, t), rel=1e-12, abs=0.0)

    def test_symmetry_through_the_sum(self):
        assert multivariate_pdf_II(P11, [0.3, 0.7]) == multivariate_pdf_II(P11, [0.7, 0.3])

    def test_mixture_oracle(self):
        for p in PARAM_GRID:
            for tv in ([0.6], [0.2, 0.9], [0.5, 0.1, 0.4]):
                k, s = len(tv), sum(tv)
                ref = mix_integral(p, lambda x, k=k, s=s: x**k * math.exp(-s * x))
                assert multivariate_pdf_II(p, tv) == pytest.approx(ref.value, rel=1e-8, abs=0.0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            multivariate_pdf_II(P11, [])
        with pytest.raises(ValueError):
            multivariate_pdf_II(P11, [0.5, -0.1])


class TestErlangPdf:
    def test_frozen_value(self):
        assert erlang_pdf(P11, 2, 1.0) == pytest.approx(FROZEN_MULTIVARIATE_2, rel=1e-12, abs=0.0)

    def test_reduction_to_tau_pdf(self):
        for p in PARAM_GRID:
            for t in (0.3, 1.0, 4.0):
                assert erlang_pdf(p, 1, t) == pytest.approx(tau_pdf(p, t), rel=1e-12, abs=0.0)

    def test_support(self):
        assert erlang_pdf(P11, 3, 0.0) == 0.0
        assert erlang_pdf(P11, 3, -1.0) == 0.0

    def test_limit_at_infinity(self):
        # the limit at t = +inf is 0, as tau_pdf's; a NaN t stays NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for p in (P11, P110, CORNER_GRID[0]):
                assert erlang_pdf(p, 3, math.inf) == 0.0
                assert erlang_pdf(p, 1, [math.inf]).tolist() == tau_pdf(p, [math.inf]).tolist()
                out = erlang_pdf(p, 2, np.array([2.0, math.inf, math.nan, 0.5]))
                assert out[1] == 0.0 and math.isnan(out[2])
                assert out[[0, 3]].tolist() == [erlang_pdf(p, 2, 2.0), erlang_pdf(p, 2, 0.5)]

    def test_mixture_oracle(self):
        for p in PARAM_GRID:
            for n in (1, 2, 3, 5):
                for t in (0.5, 2.0):
                    ref = mix_integral(
                        p,
                        lambda x, n=n, t=t: x**n
                        * t ** (n - 1)
                        * math.exp(-x * t)
                        / math.factorial(n - 1),
                    )
                    assert erlang_pdf(p, n, t) == pytest.approx(ref.value, rel=1e-8, abs=0.0)

    def test_tail_truncated_normalization(self):
        total = truncated_normalization(lambda t: erlang_pdf(P11, 2, t), 1.0, 1.0, n=2)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            erlang_pdf(P11, 0, 1.0)


class TestErlangMoment:
    def test_frozen_value(self):
        assert erlang_moment(P11, 2, 0.5) == pytest.approx(FROZEN_ERLANG2_MOMENT_HALF, rel=1e-10, abs=0.0)

    def test_zeroth_is_one_and_infinite_range(self):
        assert erlang_moment(P11, 2, 0.0) == pytest.approx(1.0, rel=1e-13, abs=0.0)
        assert erlang_moment(P11, 2, 1.0) == math.inf
        assert erlang_moment(P11, 2, -2.0) == math.inf
        assert erlang_moment(P11, 3, -2.5) != math.inf

    def test_nan_power_raises(self):
        # a NaN power raises, as NaN does in every scalar-argument evaluator;
        # an infinite one lies outside the finite range and gives inf
        for moment in (tau_moment, lambda p, power: erlang_moment(p, 2, power)):
            with pytest.raises(ValueError, match="power"):
                moment(P11, math.nan)
            assert moment(P11, math.inf) == moment(P11, -math.inf) == math.inf

    def test_cross_identity_with_tau_moment(self):
        for p in PARAM_GRID:
            for power in (-0.9, -0.5, 0.0, 0.5, 0.9):
                assert erlang_moment(p, 1, power) == pytest.approx(
                    tau_moment(p, power), rel=1e-10, abs=0.0
                )

    def test_mixture_oracle(self):
        for p in PARAM_GRID:
            for n in (2, 4):
                for power in (-0.5, 0.5):
                    ref = (
                        math.gamma(power + n)
                        / math.gamma(n)
                        * mix_integral(p, lambda x, power=power: x ** (-power)).value
                    )
                    assert erlang_moment(p, n, power) == pytest.approx(ref, rel=1e-8, abs=0.0)


class TestVectorSampler:
    def test_shapes_and_positivity(self):
        rng = make_stream(41)
        one = interarrival_vector_sample(P11, 3, rng)
        assert one.shape == (3,) and np.all(one > 0.0)
        many = interarrival_vector_sample(P11, 4, rng, size=500)
        assert many.shape == (500, 4) and np.all(many > 0.0)

    def test_marginals_pass_ks(self):
        draws = interarrival_vector_sample(P11, 2, make_stream(43), size=100_000)
        for j in (0, 1):
            assert ks_statistic(draws[:, j], lambda t: tau_cdf(P11, t)) < KS_BOUND_1E5

    def test_positive_dependence_through_shared_mixing(self):
        draws = interarrival_vector_sample(P11, 2, make_stream(47), size=100_000)
        rho, pvalue = stats.spearmanr(draws[:, 0], draws[:, 1])
        assert rho > 0.0 and pvalue < 1e-6

    def test_partial_sums_match_arrival_epoch_law(self):
        rng = make_stream(53)
        partial = interarrival_vector_sample(P11, 2, rng, size=100_000).sum(axis=1)
        xi = sample(P11, rng, size=100_000)
        direct = rng.gamma(shape=2.0, size=100_000) / xi
        stat = stats.ks_2samp(partial, direct)
        assert stat.pvalue > 0.01

    def test_domain_error(self):
        with pytest.raises(ValueError):
            interarrival_vector_sample(P11, 0, make_stream(1))
