"""Estimators: moment system, ratio function, fallbacks, least squares."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minuexp import (
    MinUExpParams,
    cdf,
    ecdf,
    empirical_moments,
    fit_lsq,
    fit_mom,
    fit_mom_from_moments,
    make_stream,
    ratio_G,
    raw_moment,
    sample,
)
from minuexp import estimation
from minuexp.oracle import mc_mean

from conftest import FROZEN_G_AT_1, FROZEN_MEAN, P11, P110, PARAM_GRID


def vectorized_quantiles(params, levels):
    """Population quantiles by bisection on the closed-form c.d.f."""
    lo = np.zeros_like(levels)
    hi = np.full_like(levels, params.a)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        below = cdf(params, mid) < levels
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def bisection_roots(r_hats):
    """Roots of G(x) = r_hat as fit_mom_from_moments found them by bisection.

    Double a bracket out from [1e-8, 1] until G(lo) < r_hat < G(hi), bisect
    it until no double lies between the ends, then step from the lower end
    to a neighbouring double, up and then down, while that brings G nearer
    r_hat.  Run in lockstep over a vector of ratios; ratio_G is elementwise,
    so each ratio meets the doubles of a scalar run.  Returns the roots and
    their misses |G(x) - r_hat|.
    """
    r = np.asarray(r_hats, dtype=float)
    lo, hi = np.full_like(r, 1e-8), np.ones_like(r)
    while (low := ratio_G(lo) >= r).any():
        lo[low] *= 0.5
    while (high := ratio_G(hi) <= r).any():
        hi[high] *= 2.0
    while (split := (lo < (mid := 0.5 * (lo + hi))) & (mid < hi)).any():
        below = ratio_G(mid) < r
        lo = np.where(split & below, mid, lo)
        hi = np.where(split & ~below, mid, hi)
    x, miss = lo, np.abs(ratio_G(lo) - r)
    for toward in (np.inf, 0.0):
        moving = np.ones(r.shape, dtype=bool)
        while moving.any():
            step = np.nextafter(x, toward)
            step_miss = np.abs(ratio_G(step) - r)
            moving &= step_miss < miss
            x, miss = np.where(moving, step, x), np.where(moving, step_miss, miss)
    return x, miss


class TestEmpiricalMoments:
    def test_examples(self):
        m1, m2 = empirical_moments([1.0, 2.0, 3.0])
        assert m1 == pytest.approx(2.0, rel=1e-15, abs=0.0)
        assert m2 == pytest.approx(14.0 / 3.0, rel=1e-15, abs=0.0)
        m1, m2 = empirical_moments([0.7] * 5)
        assert (m1, m2) == (pytest.approx(0.7), pytest.approx(0.49))

    def test_clt_band(self):
        res = mc_mean(
            lambda g, n: sample(P11, g, size=n), lambda v: v, 1_000_000, make_stream(3)
        )
        assert abs(res.value - FROZEN_MEAN) <= 3.0 * res.err_estimate

    def test_errors(self):
        with pytest.raises(ValueError):
            empirical_moments([1.0])
        with pytest.raises(ValueError):
            empirical_moments([1.0, -2.0])


class TestRatioG:
    def test_lower_limit(self):
        assert abs(ratio_G(1e-6) - 4.0 / 3.0) < 1e-3
        assert abs(ratio_G(1e-6) - 4.0 / 3.0) < 1e-5  # actually much tighter

    def test_upper_limit(self):
        assert abs(ratio_G(1e3) - 2.0) < 1e-2

    def test_value_at_one_is_the_moment_ratio(self):
        assert ratio_G(1.0) == pytest.approx(FROZEN_G_AT_1, rel=1e-12, abs=0.0)
        ref = raw_moment(P11, 2) / raw_moment(P11, 1) ** 2
        assert ratio_G(1.0) == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_matches_population_ratio_across_grid(self):
        for p in PARAM_GRID:
            ref = raw_moment(p, 2) / raw_moment(p, 1) ** 2
            assert ratio_G(p.a * p.lam) == pytest.approx(ref, rel=1e-11, abs=0.0)

    def test_strictly_increasing_on_log_grid(self):
        xs = np.geomspace(1e-6, 1e4, 400)
        values = ratio_G(xs)
        assert np.all(np.diff(values) > 0.0)
        assert np.all((values > 4.0 / 3.0) & (values < 2.0))

    def test_series_direct_crossover_consistency(self):
        # the series branch (x < 1) and the direct branch (x >= 1) must both
        # track a high-precision reference through the crossover
        import mpmath

        mpmath.mp.dps = 50

        def reference(x):
            xm = mpmath.mpf(x)
            num = 2 * xm * (xm - 2 + (xm + 2) * mpmath.e**-xm)
            return float(num / (xm - 1 + mpmath.e**-xm) ** 2)

        for x in (1e-8, 1e-4, 0.3, 0.99999999, 1.0, 1.00000001, 2.0, 40.0):
            assert ratio_G(x) == pytest.approx(reference(x), rel=1e-12, abs=0.0)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            ratio_G(0.0)
        with pytest.raises(ValueError):
            ratio_G(-1.0)


class TestFitMom:
    def test_population_fixed_point_unit(self):
        result = fit_mom_from_moments(FROZEN_MEAN, 0.2072766470286539)
        assert result.converged
        assert result.x_star == pytest.approx(1.0, abs=1e-6)
        assert result.a_hat == pytest.approx(1.0, abs=1e-6)
        assert result.lambda_hat == pytest.approx(1.0, abs=1e-6)

    def test_population_recovery_full_grid(self):
        for p in PARAM_GRID + [P110]:
            result = fit_mom_from_moments(raw_moment(p, 1), raw_moment(p, 2))
            assert result.converged
            assert result.a_hat == pytest.approx(p.a, rel=1e-6, abs=0.0)
            assert result.lambda_hat == pytest.approx(p.lam, rel=1e-6, abs=0.0)

    def test_uniform_fallback(self):
        result = fit_mom_from_moments(1.0, 1.2, x_max=1.9)
        assert result.converged
        assert result.lambda_hat == 0.0
        assert result.a_hat == 1.9
        values = make_stream(5).uniform(0.0, 3.0, 500) + 1e-9
        result = fit_mom(values)  # uniform data drives the ratio to ~4/3
        if result.r_hat <= 4.0 / 3.0:
            assert result.lambda_hat == 0.0
            assert result.a_hat == np.max(values)

    @pytest.mark.parametrize("excess", [1e-9, 1e-12])
    def test_ratio_just_above_four_thirds(self, excess):
        # below G(1e-8) = 4/3 + 2.2e-9 the root lies under the first bracket end
        r_hat = 4.0 / 3.0 + excess
        result = fit_mom_from_moments(1.0, r_hat)
        assert result.converged
        assert abs(ratio_G(result.x_star) - r_hat) <= 1e-15

    @pytest.mark.parametrize(
        "r_hat",
        [4.0 / 3.0 + 1e-12, 1.5, 2.0 - 1e-9]
        + [raw_moment(p, 2) / raw_moment(p, 1) ** 2 for p in PARAM_GRID + [P110]],
    )
    def test_root_is_best_among_neighbouring_doubles(self, r_hat):
        # no neighbouring double lies nearer the root in G
        x = fit_mom_from_moments(1.0, r_hat).x_star
        miss = abs(ratio_G(x) - r_hat)
        assert miss <= abs(ratio_G(np.nextafter(x, 0.0)) - r_hat)
        assert miss <= abs(ratio_G(np.nextafter(x, np.inf)) - r_hat)

    def test_never_misses_more_than_bisection(self, monkeypatch):
        # |G(x*) - r_hat| is never above that of the bisection-and-walk
        # solver, at most 12 vector G calls per fit, and the counts say so
        ratios = np.concatenate(
            [
                [4.0 / 3.0 + 1e-12, 4.0 / 3.0 + 1e-9, 2.0 - 1e-9, 2.0 - 1e-12],
                make_stream(41).uniform(4.0 / 3.0, 2.0, 1800),
                4.0 / 3.0 + np.geomspace(1e-15, 0.66, 200),
            ]
        )
        _, bisection_misses = bisection_roots(ratios)
        calls = 0

        def counted(x):
            nonlocal calls
            calls += 1
            return ratio_G(x)

        monkeypatch.setattr(estimation, "ratio_G", counted)
        for r_hat, bisection_miss in zip(ratios.tolist(), bisection_misses.tolist()):
            calls = 0
            result = fit_mom_from_moments(1.0, r_hat)
            assert abs(ratio_G(result.x_star) - r_hat) <= bisection_miss
            assert result.converged == (bisection_miss <= 1e-10)
            assert calls <= 12
            assert result.iterations == calls - 1  # the rounds, then the final window
            assert result.iterations < result.evaluations <= 65 * calls + 128

    def test_out_of_range_ratio_reports_nonconvergence(self):
        result = fit_mom_from_moments(1.0, 2.5)
        assert not result.converged
        assert result.lambda_hat == pytest.approx(1.0)
        assert "exponential" in result.diagnostic

    def test_degenerate_sample(self):
        result = fit_mom([2.0, 2.0, 2.0])
        assert not result.converged
        assert "degenerate" in result.diagnostic

    def test_seeded_recovery(self):
        values = sample(P110, make_stream(2024), size=100_000)
        result = fit_mom(values)
        assert result.converged
        assert result.a_hat == pytest.approx(110.0, rel=0.10, abs=0.0)
        assert result.lambda_hat == pytest.approx(0.04, rel=0.10, abs=0.0)

    def test_order_invariance_exact(self):
        values = sample(P11, make_stream(8), size=5_000)
        shuffled = values[make_stream(9).permutation(values.size)]
        a, b = fit_mom(values), fit_mom(shuffled)
        assert (a.a_hat, a.lambda_hat, a.x_star) == (b.a_hat, b.lambda_hat, b.x_star)

    @settings(max_examples=30, deadline=None)
    @given(k=st.floats(0.01, 100.0))
    def test_scaling_equivariance(self, k):
        values = sample(P11, make_stream(77), size=2_000)
        base = fit_mom(values)
        scaled = fit_mom(k * values)
        assert scaled.a_hat == pytest.approx(k * base.a_hat, rel=1e-9, abs=0.0)
        assert scaled.lambda_hat == pytest.approx(base.lambda_hat / k, rel=1e-9, abs=0.0)


class TestEcdf:
    def test_examples(self):
        f = ecdf([1.0, 2.0, 3.0])
        assert f(2.0) == pytest.approx(2.0 / 3.0)
        assert f(0.5) == 0.0
        assert f(3.0) == 1.0
        assert f(10.0) == 1.0

    def test_right_continuity_jumps(self):
        f = ecdf([1.0, 1.0, 2.0])
        assert f(1.0) == pytest.approx(2.0 / 3.0)
        assert f(1.0 - 1e-12) == 0.0


class TestFitLsq:
    def test_true_parameter_objective_on_quantile_pseudo_sample(self):
        n = 10_000
        levels = (np.arange(1, n + 1) - 0.5) / n
        pseudo = vectorized_quantiles(P11, levels)
        f_hat = ecdf(pseudo)(pseudo)
        objective = float(np.sum((f_hat - cdf(P11, pseudo)) ** 2))
        assert objective <= 1e-4

    def test_seeded_recovery_and_objective_dominance(self):
        values = sample(P11, make_stream(4096), size=100_000)
        result = fit_lsq(values)
        assert result.converged
        assert result.a_hat == pytest.approx(1.0, rel=0.10, abs=0.0)
        assert result.lambda_hat == pytest.approx(1.0, rel=0.10, abs=0.0)
        f_hat = ecdf(values)(values)
        wrong = MinUExpParams(2.0, 0.5)
        objective_wrong = float(np.sum((f_hat - cdf(wrong, values)) ** 2))
        assert result.objective < objective_wrong

    def test_constraint_respected(self):
        for seed in (1, 2, 3):
            values = sample(P11, make_stream(seed), size=2_000)
            result = fit_lsq(values)
            assert result.a_hat >= np.max(values)

    def test_order_invariance_exact(self):
        values = sample(P11, make_stream(11), size=2_000)
        shuffled = values[make_stream(12).permutation(values.size)]
        a, b = fit_lsq(values), fit_lsq(shuffled)
        assert (a.a_hat, a.lambda_hat, a.objective) == (b.a_hat, b.lambda_hat, b.objective)

    def test_scaling_equivariance(self):
        values = sample(P11, make_stream(13), size=5_000)
        base = fit_lsq(values)
        scaled = fit_lsq(10.0 * values)
        assert scaled.a_hat == pytest.approx(10.0 * base.a_hat, rel=1e-4, abs=0.0)
        assert scaled.lambda_hat == pytest.approx(base.lambda_hat / 10.0, rel=1e-4, abs=0.0)

    @pytest.mark.parametrize(
        "params, seed", [(P11, 21), (P110, 22), (MinUExpParams(2.0, 4.0), 23)]
    )
    def test_objective_no_higher_than_nelder_mead(self, params, seed):
        arr = sample(params, make_stream(seed), size=20_000)
        ref = _nelder_mead_reference(arr)
        fit = fit_lsq(arr)
        assert fit.converged
        assert fit.objective <= ref.fun * (1.0 + 1e-9)
        # the reported objective belongs to the reported parameters
        model = cdf(MinUExpParams(fit.a_hat, fit.lambda_hat), arr)
        recomputed = float(np.sum((ecdf(arr)(arr) - model) ** 2))
        assert fit.objective == pytest.approx(recomputed, rel=1e-9, abs=0.0)

    def test_pure_exponential_boundary(self):
        # a is not identifiable here: the least-squares optimum lies at
        # 1/a = 0, which a search in a can only approach
        arr = sample(MinUExpParams(5.0, 4.0), make_stream(8), size=20_000)
        fit = fit_lsq(arr)
        assert fit.a_hat == math.inf
        assert fit.converged
        assert "pure exponential" in fit.diagnostic
        assert fit.evaluations <= 50
        assert fit.objective <= _nelder_mead_reference(arr).fun * (1.0 + 1e-9)
        model = -np.expm1(-fit.lambda_hat * arr)
        recomputed = float(np.sum((ecdf(arr)(arr) - model) ** 2))
        assert fit.objective == pytest.approx(recomputed, rel=1e-9, abs=0.0)

    def test_pure_uniform_boundary(self):
        arr = np.random.default_rng(0).uniform(0.0, 2.0, 20_000)
        fit = fit_lsq(arr)
        assert fit.lambda_hat == 0.0
        assert fit.converged
        assert "uniform" in fit.diagnostic
        assert fit.a_hat >= np.max(arr)
        assert fit.objective <= _nelder_mead_reference(arr).fun * (1.0 + 1e-9)


class TestBoundedBrent:
    """_bounded_brent tries the same points as scipy's bounded minimize_scalar."""

    @staticmethod
    def assert_matches_scipy(f, lo, hi, xatol):
        from scipy.optimize import minimize_scalar

        ours, theirs = [], []

        def record(points):
            def g(v):
                points.append(float(v))
                return f(v)

            return g

        converged, evaluations = estimation._bounded_brent(record(ours), lo, hi, xatol)
        ref = minimize_scalar(
            record(theirs), bounds=(lo, hi), method="bounded", options={"xatol": xatol}
        )
        assert ours == theirs  # bit for bit, point by point
        assert evaluations == ref.nfev
        assert converged == ref.success
        best = min(range(len(ours)), key=lambda i: (f(ours[i]), -i))  # later wins a tie
        assert (ours[best], f(ours[best])) == (ref.x, ref.fun)

    @pytest.mark.parametrize("params", PARAM_GRID + [P110], ids=str)
    def test_fit_lsq_objectives(self, params, monkeypatch):
        searches = []
        real = estimation._bounded_brent

        def spy(f, lo, hi, xatol):
            searches.append((f, lo, hi, xatol))
            return real(f, lo, hi, xatol)

        monkeypatch.setattr(estimation, "_bounded_brent", spy)
        fit_lsq(sample(params, make_stream(17), size=2_000))
        (search,) = searches
        self.assert_matches_scipy(*search)

    def test_quadratic(self):
        self.assert_matches_scipy(lambda v: (v - 1.234567) ** 2 + 0.5, -3.0, 7.0, 1e-8)

    @pytest.mark.parametrize("slope", [1.0, -1.0])
    def test_minimum_at_a_bracket_end(self, slope):
        self.assert_matches_scipy(lambda v: slope * v + 0.1 * v**2, 0.0, 4.0, 1e-8)


def _nelder_mead_reference(values):
    """The former fit_lsq: a bounded 2-D Nelder-Mead simplex in (a, lambda).

    Started from the method-of-moments fit when it is usable, on the c.d.f.
    with its (0, a] masks.
    """
    from scipy.optimize import Bounds, minimize

    arr = np.sort(values)
    x_max = float(np.max(arr))
    ecdf_at_obs = ecdf(arr)(arr)
    mom = fit_mom(arr)
    if mom.converged and mom.lambda_hat > 0.0 and math.isfinite(mom.a_hat):
        start = (max(mom.a_hat, x_max), mom.lambda_hat)
    else:
        start = (1.05 * x_max, 1.0 / float(np.mean(arr)))

    def masked_objective(theta):
        a, lam = theta
        e = np.exp(-lam * arr)
        body = 1.0 - e + arr / a * e
        model = np.where(arr > a, 1.0, np.where(arr <= 0.0, 0.0, body))
        return float(np.sum((ecdf_at_obs - model) ** 2))

    return minimize(
        masked_objective,
        x0=np.asarray(start),
        method="Nelder-Mead",
        bounds=Bounds(lb=[x_max, 0.0], ub=[np.inf, np.inf]),
        options={"maxiter": 4000, "maxfev": 8000, "xatol": 1e-10, "fatol": 1e-12},
    )


def test_fit_result_serialization_handles_infinities():
    result = fit_mom_from_moments(1.0, 2.5)
    payload = result.to_dict()
    assert payload["a_hat"] is None  # math.inf is not valid strict JSON
    assert payload["method"] == "mom"
    assert payload["converged"] is False


@pytest.mark.parametrize("m2", [1.5, 1.2, 2.5], ids=["interior", "uniform", "ratio-above-2"])
def test_fit_result_with_numpy_moments_serializes(m2):
    result = fit_mom_from_moments(np.float64(1.0), np.float64(m2), x_max=np.float64(3.0))
    payload = json.loads(json.dumps(result.to_dict()))
    assert type(result.converged) is bool
    assert type(result.r_hat) is float
    assert payload["r_hat"] == m2
