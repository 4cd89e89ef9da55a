"""Incomplete gamma layer: examples, identities, extreme-argument paths, and
its two routes: the converged ascending series, which serves x <= 8,
8 < x < s with x <= 128, and the elements where scipy's regularized
function underflows, with NaN and a warning past its cap; and scipy's
regularized function everywhere else."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import integrate, special

from minuexp import (
    MinUExpParams,
    _mixture,
    count_pmf,
    erlang_pdf,
    gamma_kernel,
    mean_xi_given_count,
)
from minuexp.gamma_kernel import log_lower_incomplete_gamma

S_GRID = [0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0]
X_GRID = [0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 100.0]


def lower_incomplete_gamma(s, x):
    """gamma(s, x) itself, as the exponential of the log form."""
    with np.errstate(over="ignore"):
        out = np.exp(log_lower_incomplete_gamma(s, x))
    return out if np.ndim(out) else float(out)


def test_lower_gamma_shape_one_closed_form():
    for x in (0.0, 0.3, 1.0, 4.0, 50.0):
        assert lower_incomplete_gamma(1.0, x) == pytest.approx(-math.expm1(-x), rel=1e-14)


def test_lower_gamma_at_zero_limit_is_zero():
    for s in S_GRID:
        assert lower_incomplete_gamma(s, 0.0) == 0.0


def test_lower_gamma_2_2_against_quadrature_oracle():
    oracle, err = integrate.quad(lambda u: u * math.exp(-u), 0.0, 2.0, epsabs=1e-14)
    assert err < 1e-12
    assert lower_incomplete_gamma(2.0, 2.0) == pytest.approx(oracle, rel=1e-13)
    # same value through the first-order recurrence gamma(2,x) = 1 - e^-x (1+x)
    assert lower_incomplete_gamma(2.0, 2.0) == pytest.approx(1.0 - math.exp(-2.0) * 3.0, rel=1e-14)


def test_complement_identity_on_grid():
    # gamma(s, x) + Gamma(s, x) = Gamma(s), with the upper function from mpmath
    mpmath.mp.dps = 40
    for s in S_GRID:
        for x in X_GRID:
            total = lower_incomplete_gamma(s, x) + float(mpmath.gammainc(s, x, mpmath.inf))
            assert total == pytest.approx(math.gamma(s), rel=1e-12)


def test_recurrence_identity_on_grid():
    # gamma(s+1, x) = s gamma(s, x) - x^s e^-x
    for s in S_GRID:
        for x in X_GRID:
            lhs = lower_incomplete_gamma(s + 1.0, x)
            rhs = s * lower_incomplete_gamma(s, x) - x**s * math.exp(-x)
            if lhs == 0.0:
                assert abs(rhs) < 1e-300
            else:
                assert rhs == pytest.approx(lhs, rel=1e-11)


def test_monotone_in_x_at_fixed_s():
    xs = np.linspace(0.0, 30.0, 200)
    for s in S_GRID:
        values = lower_incomplete_gamma(s, xs)
        assert np.all(np.diff(values) >= 0.0)


def test_accuracy_against_mpmath_reference():
    mpmath.mp.dps = 40
    for s in (0.5, 1.5, 10.0, 30.0, 50.0):
        for x in (0.1, 1.0, 10.0, 100.0, 700.0):
            ref = float(mpmath.gammainc(s, 0, x))
            assert lower_incomplete_gamma(s, x) == pytest.approx(ref, rel=1e-13)


@pytest.mark.parametrize("s, x", [(200.0, 1.0), (172.0, 50.0)])
def test_orders_past_gamma_overflow(s, x):
    # Gamma(s) overflows past s = 171.6 while gamma(s, x) stays finite
    mpmath.mp.dps = 40
    ref = float(mpmath.gammainc(s, 0, x))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = lower_incomplete_gamma(s, x)
    assert value == pytest.approx(ref, rel=1e-12)


def test_domain_errors():
    with pytest.raises(ValueError):
        lower_incomplete_gamma(0.0, 1.0)
    with pytest.raises(ValueError):
        lower_incomplete_gamma(-1.0, 1.0)
    with pytest.raises(ValueError):
        lower_incomplete_gamma(1.0, -0.1)


def test_log_variant_matches_direct_in_ordinary_range():
    # the direct gamma(s, x) of 40-digit mpmath, then its log
    mpmath.mp.dps = 40
    for s in S_GRID:
        for x in (0.1, 1.0, 10.0, 100.0):
            direct = math.log(float(mpmath.gammainc(s, 0, x)))
            assert log_lower_incomplete_gamma(s, x) == pytest.approx(direct, abs=1e-12)


def test_log_variant_survives_underflow_regime():
    # the regularized function underflows around x << s for large s
    mpmath.mp.dps = 60
    for s, x in ((200.0, 2.0), (500.0, 10.0), (1000.0, 3.0)):
        ref = float(mpmath.log(mpmath.gammainc(s, 0, x)))
        got = log_lower_incomplete_gamma(s, x)
        assert got == pytest.approx(ref, rel=1e-12)


def test_log_variant_vectorized_mixed_regimes():
    s = np.array([2.0, 400.0])
    x = np.array([2.0, 2.0])
    out = log_lower_incomplete_gamma(s, x)
    assert out.shape == (2,)
    assert out[0] == pytest.approx(math.log(lower_incomplete_gamma(2.0, 2.0)), abs=1e-12)
    mpmath.mp.dps = 60
    assert out[1] == pytest.approx(float(mpmath.log(mpmath.gammainc(400.0, 0, 2.0))), rel=1e-12)


def _log_series_reference(s, x):
    # a scalar ascending-series loop that stops on a term below 1e-18 of its
    # sum: later than the kernel's 2^-54 (5.6e-17), and the terms it adds
    # past the kernel's stop leave every converged sum as it is
    total = term = 1.0
    k = 1
    while True:
        term *= x / (s + k)
        total += term
        if term < 1e-18 * total or k > 10_000:
            break
        k += 1
    return s * np.log(x) - x - np.log(s) + np.log(total)


SERIES_CAP_WARNING = f"did not converge in {gamma_kernel._SERIES_CAP} terms"


def test_log_variant_series_matches_scalar_loop_exactly():
    rng = np.random.default_rng(20261018)
    # far below the shape (a few terms), near the underflow boundary
    # (hundreds to thousands of terms), and past the cap
    s1 = np.exp(rng.uniform(math.log(200.0), math.log(1e5), 3000))
    x1 = s1 * rng.uniform(0.0, 0.6, s1.size)
    s2 = np.exp(rng.uniform(math.log(1e3), math.log(1e7), 600))
    x2 = s2 - rng.uniform(38.0, 45.0, s2.size) * np.sqrt(s2)
    s3 = np.array([1e9, 4e9])
    x3 = s3 - 38.0 * np.sqrt(s3)
    s, x = np.concatenate([s1, s2, s3]), np.concatenate([x1, x2, x3])
    series = (special.gammainc(s, x) <= 1e-290) & (x > 0.0)
    s, x = s[series], x[series]
    assert s.size > 2000 and series[-2:].all()
    with pytest.warns(RuntimeWarning, match=SERIES_CAP_WARNING) as caught:
        got = log_lower_incomplete_gamma(s, x)
    assert len(caught) == 1
    ref = [_log_series_reference(a, b) for a, b in zip(s[:-2].tolist(), x[:-2].tolist())]
    assert got[:-2].tolist() == ref
    # the two elements past the cap have not converged in its terms
    assert np.isnan(got[-2:]).all()
    for i in range(0, s.size - 2, 97):
        assert log_lower_incomplete_gamma(float(s[i]), float(x[i])) == got[i]


def test_series_past_the_cap_is_nan_with_one_warning():
    # 38 standard deviations below s = 1e10 the series needs 97 238 terms;
    # the sum of its first 10^4 leaves gamma 2.2 % low
    s, x = 1e10, 1e10 - 38.0 * 1e5
    with pytest.warns(RuntimeWarning, match=SERIES_CAP_WARNING) as caught:
        assert math.isnan(log_lower_incomplete_gamma(s, x))
    assert len(caught) == 1
    with pytest.warns(RuntimeWarning, match=SERIES_CAP_WARNING) as caught:
        got = log_lower_incomplete_gamma(np.full(20, s), np.linspace(x - 1.0, x, 20))
    assert len(caught) == 1 and np.isnan(got).all()
    # in a mixed array only the unconverged element is NaN
    s_mix = np.array([s] + [900.0] * 19)
    x_mix = np.array([x] + [150.0] * 19)
    with pytest.warns(RuntimeWarning, match=SERIES_CAP_WARNING) as caught:
        got = log_lower_incomplete_gamma(s_mix, x_mix)
    assert len(caught) == 1 and math.isnan(got[0])
    assert (got[1:] == log_lower_incomplete_gamma(900.0, 150.0)).all()


def test_series_stops_relative_to_its_sum():
    # near x = s at large s the sum is in the hundreds, and its terms are
    # absorbed well above 2^-54: here at term 8649 of the 10 000 allowed,
    # where a stop at 2^-54 itself would not come before the cap
    s = 1e9
    x = s - 116.0 * math.sqrt(s)
    assert special.gammainc(s, x) <= gamma_kernel._REGULARIZED_FLOOR
    ref = _log_series_reference(s, x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert log_lower_incomplete_gamma(s, x) == ref
        got = log_lower_incomplete_gamma(np.full(20, s), np.full(20, x))
        assert (got == ref).all()
    total, passes = gamma_kernel._ascending_sum(s, x)
    assert total > 250.0 and passes < gamma_kernel._SERIES_CAP


@pytest.mark.parametrize(
    "s, x",
    [
        # the underflow fallback, whose largest x is above its smallest order
        ([900.0, 1.2e5], [150.0, 1e5]),
        # the route for 8 < x < s, from an order just above 8 to x at the cap
        ([8.5, 129.0], [8.4, 128.0]),
    ],
)
def test_series_arrays_stop_on_their_own_elements(s, x):
    # each element keeps the bits of its own scalar sum, with no warning,
    # though the pair (smallest s, largest x) would need far more passes
    s, x = np.tile(s, 9), np.tile(x, 9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = log_lower_incomplete_gamma(s, x)
        assert got.tolist() == [log_lower_incomplete_gamma(a, b) for a, b in zip(s.tolist(), x.tolist())]
    assert np.isfinite(got).all()
    if s[0] == 900.0:
        assert (special.gammainc(s, x) <= gamma_kernel._REGULARIZED_FLOOR).all()
    else:
        assert gamma_kernel._ascending_mask(s, x).all()


# --------------------------------------------------------------------------
# The ascending series at x <= 8, any order

SERIES_S = [1e-6, 1e-3, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 100.0, 1e3, 1e4, 1e5]
SERIES_X = [1e-300, 1e-100, 1e-10, 1e-3, 0.1, 0.5, 1.0, 2.0, 3.0, 5.0, 7.0, 7.999, 8.0]


def test_series_route_against_mpmath():
    # 1e-14 relative in log gamma, or absolute where |log gamma| < 1
    mpmath.mp.dps = 60
    for s in SERIES_S:
        for x in SERIES_X:
            ref = mpmath.log(mpmath.gammainc(mpmath.mpf(s), 0, mpmath.mpf(x)))
            got = log_lower_incomplete_gamma(s, x)
            assert abs(mpmath.mpf(got) - ref) <= 1e-14 * max(abs(ref), 1.0), (s, x)


def test_series_passes_at_x_up_to_8_are_the_docstring_bound():
    # the terms x^k/((s+1)...(s+k)) grow with x and fall with s, so an
    # element needs the most passes at x = 8 as s -> 0, where they are
    # 8^k/k! and the sum e^8
    doc = " ".join(gamma_kernel.__doc__.split())
    worst = gamma_kernel._ascending_sum(5e-324, 8.0)[1]
    assert f"At x <= 8 one element needs at most {worst} passes, as s -> 0 at x = 8" in doc
    assert worst == 42
    orders = [5e-324, 1e-300, 1e-9, 1e-3, 0.1, 1.0, 5.0, 50.0, 1e4]
    for x in np.linspace(0.0, 8.0, 81).tolist() + BOUNDARY[:2]:
        passes = [gamma_kernel._ascending_sum(s, x)[1] for s in orders]
        assert passes == sorted(passes, reverse=True) and passes[0] <= worst, x
    # the stop is the first term below 2^-54 of the sum: 42 of them are
    # not yet absorbed, and what the rest add is below half an ulp of e^8
    mpmath.mp.dps = 40
    terms = [mpmath.mpf(8) ** k / mpmath.factorial(k) for k in range(400)]
    absorbed = mpmath.mpf(2) ** -54
    assert terms[41] >= absorbed * mpmath.fsum(terms[:42])
    assert terms[42] < absorbed * mpmath.fsum(terms[:43])
    assert mpmath.fsum(terms[43:]) < absorbed * mpmath.fsum(terms)


def test_early_stop_keeps_every_bit_of_the_full_sum():
    rng = np.random.default_rng(20261019)
    s = np.concatenate([np.exp(rng.uniform(math.log(1e-8), math.log(1e6), 3000)), [1e-300, 5e-324]])
    x = np.concatenate([rng.uniform(0.0, 8.0, 3000), [8.0, 8.0]])
    x[::7] = np.exp(rng.uniform(math.log(1e-12), math.log(8.0), x[::7].size))
    pairs = list(zip(s.tolist(), x.tolist()))
    full = [_ascending_full(a, b, passes=200) for a, b in pairs]
    assert [gamma_kernel._ascending_sum(a, b)[0] for a, b in pairs] == full
    got = log_lower_incomplete_gamma(s, x)
    assert got.tolist() == [gamma_kernel._log_from_sum(a, b, t) for (a, b), t in zip(pairs, full)]
    assert [log_lower_incomplete_gamma(a, b) for a, b in pairs] == got.tolist()
    # a scalar order over an array of x; same bits
    for order in (1e-6, 2.0, 21.0, 1e4):
        ref = [log_lower_incomplete_gamma(order, b) for b in x.tolist()]
        assert log_lower_incomplete_gamma(np.asarray(order), x).tolist() == ref


def test_log_zero_limit_is_minus_inf_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert log_lower_incomplete_gamma(2.0, 0.0) == -math.inf
        for size in (3, 100):
            x = np.linspace(0.0, 12.0, size)
            out = log_lower_incomplete_gamma(2.0, x)
            assert out[0] == -math.inf and np.isfinite(out[1:]).all()
        assert (log_lower_incomplete_gamma(np.linspace(0.5, 5.0, 50), 0.0) == -math.inf).all()


def _assert_scalar_calls_equal(s, x):
    got = np.broadcast_to(log_lower_incomplete_gamma(s, x), np.broadcast_shapes(np.shape(s), np.shape(x)))
    for (a, b), value in zip(np.broadcast(s, x), got.ravel()):
        assert log_lower_incomplete_gamma(float(a), float(b)) == value, (a, b)


BOUNDARY = [np.nextafter(8.0, -np.inf), 8.0, np.nextafter(8.0, np.inf)]


@pytest.mark.parametrize("size", [1, 2, 3, 4, 16, 17, 33, 500])
def test_scalar_calls_equal_array_calls_across_the_route(size):
    rng = np.random.default_rng(size)
    x = np.concatenate([BOUNDARY, rng.uniform(4.0, 12.0, size)])[:size]
    s = np.exp(rng.uniform(math.log(1e-3), math.log(300.0), size))
    _assert_scalar_calls_equal(s, x)  # array s, array x
    _assert_scalar_calls_equal(2.5, x)  # scalar s, array x
    for xv in BOUNDARY:
        _assert_scalar_calls_equal(s, xv)  # array s, scalar x
    # a mixed array equals its parts
    small = x <= 8.0
    both = log_lower_incomplete_gamma(s, x)
    if small.any():
        assert (log_lower_incomplete_gamma(s[small], x[small]) == both[small]).all()
    if (~small).any():
        assert (log_lower_incomplete_gamma(s[~small], x[~small]) == both[~small]).all()


def test_broadcast_shapes_keep_one_value_per_point():
    s = np.array([[0.5], [3.0], [40.0]])
    x = np.array([0.0, 1.0, 7.5, 8.0, 9.0, 30.0] * 8)
    out = log_lower_incomplete_gamma(s, x)
    assert out.shape == (3, 48)
    _assert_scalar_calls_equal(s, x)


@pytest.mark.parametrize("a, lam", [(1.0, 1.0), (0.5, 0.25), (5.0, 0.25), (110.0, 0.04)])
def test_evaluators_array_equals_scalars_across_the_route(a, lam):
    p = MinUExpParams(a, lam)
    counts = np.arange(0, 120)
    pmf = count_pmf(p, counts)
    assert pmf.tolist() == [count_pmf(p, int(n)) for n in counts]
    # erlang_pdf puts a (lambda + t) on both sides of 8 within one array
    t = np.concatenate([np.linspace(0.01, 3.0, 40), 8.0 / a - lam + np.array([-1e-9, 0.0, 1e-9])])
    t = t[t > 0.0]
    for n in (1, 2, 5, 20):
        dens = erlang_pdf(p, n, t)
        assert dens.tolist() == [erlang_pdf(p, n, float(v)) for v in t]
    for mu_t in (0.25, 8.0 / a - lam, 8.0 / a - lam + 1e-9, 30.0):
        if mu_t > 0.0:
            means = mean_xi_given_count(p, mu_t, counts[:60])
            assert means.tolist() == [mean_xi_given_count(p, mu_t, int(n)) for n in counts[:60]]


# --------------------------------------------------------------------------
# Integer orders up to 128 at x >= max(s, 8): scipy's regularized function

ORDER_MAX = 128
INTEGER_X = [8.0 + 2e-15, 8.5, 9.0, 10.0, 12.5, 20.0, 33.3, 50.0, 64.0, 100.0, 127.9, 128.0,
             129.0, 150.0, 200.0, 300.0, 500.0, 700.0, 710.0, 745.0, 800.0, 1e3, 3e3, 1e4, 1e5, 1e6]


def _integer_points(s):
    root = math.sqrt(s)
    near = [float(s), float(np.nextafter(s, np.inf)), s + 0.5 * root, s + 2.0 * root]
    return sorted({x for x in INTEGER_X + near if x >= s and x > 8.0})


def test_integer_orders_at_x_from_s_to_1e6_against_mpmath():
    # 1e-14 relative in log gamma, or absolute where |log gamma| < 1, for
    # every integer order up to 128, from x = max(s, 8) to 1e6
    mpmath.mp.dps = 50
    for s in range(1, ORDER_MAX + 1):
        xs = _integer_points(s)
        got = log_lower_incomplete_gamma(float(s), np.array(xs))
        for x, value in zip(xs, got.tolist()):
            ref = mpmath.log(mpmath.gammainc(s, 0, mpmath.mpf(x)))
            assert abs(mpmath.mpf(value) - ref) <= 1e-14 * max(abs(ref), 1.0), (s, x)
            assert log_lower_incomplete_gamma(float(s), x) == value, (s, x)


def test_large_x_is_log_gamma_without_warning():
    # gamma(s, x) rounds to Gamma(s) far above s
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert log_lower_incomplete_gamma(2.0, 1e5) == 0.0
        assert log_lower_incomplete_gamma(1.0, 800.0) == 0.0
        x = np.concatenate([np.geomspace(9.0, 1e6, 40), [np.inf]])
        for s in (1.0, 2.0, 7.0, 110.0):
            out = log_lower_incomplete_gamma(s, x)
            assert np.isfinite(out).all()
        out = log_lower_incomplete_gamma(np.arange(1.0, 41.0), np.full(40, 1e5))
        # count p.m.f.s at (110, 0.04) send orders 129..200 at x = 114.4
        count_pmf(MinUExpParams(110.0, 0.04), np.arange(0, 200))
    mpmath.mp.dps = 40
    exact = [float(mpmath.log(mpmath.factorial(k))) for k in range(40)]
    assert all(abs(a - b) <= 2.0 * math.ulp(b) for a, b in zip(out.tolist(), exact))


# --------------------------------------------------------------------------
# The ascending series above 8: finite 8 < x < s, x <= cap

X_CAP = gamma_kernel._ASCENDING_X_MAX
ABOVE_8 = float(np.nextafter(8.0, np.inf))


def _ascending_points(s):
    top = min(s, X_CAP)
    near = [ABOVE_8, 8.5, 10.0, 12.5, 20.0, 33.3, 50.0, 64.0, 100.0, 114.4, X_CAP,
            float(np.nextafter(s, 0.0)), s - 0.5 * math.sqrt(s), s - 3.0 * math.sqrt(s)]
    return sorted({x for x in near if 8.0 < x < s and x <= top})


ASCENDING_S = [float(s) for s in range(9, 130)] + [150.0, 200.0, 300.0, 500.0, 1000.0, 2000.0, 3000.0]
ASCENDING_S += [float(np.nextafter(ABOVE_8, 9.0)), 8.5, 9.3, 20.7, 64.25, 127.9, 128.5, 300.3, 2999.9]


def test_ascending_route_against_mpmath():
    # 1e-14 relative in log gamma, for integer and real orders from just
    # above 8 to 3000, x from just above 8 to min(s, cap)
    mpmath.mp.dps = 50
    for s in ASCENDING_S:
        xs = _ascending_points(s)
        got = log_lower_incomplete_gamma(s, np.array(xs))
        for x, value in zip(xs, got.tolist()):
            ref = mpmath.log(mpmath.gammainc(mpmath.mpf(s), 0, mpmath.mpf(x)))
            assert abs(mpmath.mpf(value) - ref) <= 1e-14 * max(abs(ref), 1.0), (s, x)


def test_ascending_route_takes_exactly_its_elements():
    below_cap, above_cap = X_CAP, float(np.nextafter(X_CAP, np.inf))
    s = np.array([21.0, 21.0, 200.0, 21.5, 1e4, 21.0, 21.0, 200.0, 21.5, 200.0, 8.0])
    x = np.array([ABOVE_8, np.nextafter(21.0, 0.0), below_cap, np.nextafter(21.5, 0.0), below_cap,
                  8.0, 21.0, above_cap, 21.5, np.inf, 7.5])
    taken = gamma_kernel._ascending_mask(s, x)
    # x <= 8 takes the series whatever the order
    assert taken.tolist() == [True] * 6 + [False] * 4 + [True]
    got = log_lower_incomplete_gamma(s, x)
    assert (got[taken] == gamma_kernel._log_ascending(s[taken], x[taken])).all()
    # the elements at s <= x, past the cap or at x = inf go to scipy
    rest = ~taken
    assert (got[rest] == gamma_kernel._log_regularized(s[rest], x[rest])).all()
    # a scalar order
    xs = np.array([8.0, ABOVE_8, below_cap, above_cap, np.inf])
    taken = gamma_kernel._ascending_mask(np.asarray(200.0), xs)
    assert taken.tolist() == [True, True, True, False, False]
    for order in (8.0, ABOVE_8, 5.0):
        assert gamma_kernel._ascending_mask(np.asarray(order), xs).tolist() == [True] + [False] * 4


def test_ascending_cap_is_the_docstring_bound():
    # raising the cap means re-measuring the costs the module docstring
    # gives, so the docstring must state the new cap and pass counts
    doc = " ".join(gamma_kernel.__doc__.split())
    assert f"finite 8 < x < s and x <= {X_CAP:g}, any real s:" in doc
    # the mixing kernel's own sums stop at order 127, so the integer gamma
    # orders it sends here start above the cap
    assert f"The cap is {X_CAP:g}: at finite x the mixing kernel sends integer orders of" in doc
    assert f"{_mixture._OWN_MAX_ORDER + 2} and above only" in doc
    assert _mixture._OWN_MAX_ORDER + 2 > X_CAP
    # a single element needs the most passes near x = s = cap
    single = [gamma_kernel._ascending_sum(float(np.nextafter(b, np.inf)), b)[1]
              for b in np.linspace(ABOVE_8, X_CAP, 2000).tolist()]
    worst = max(single)
    assert f"and up to {worst} where s is just above an x near {X_CAP:g}" in doc
    grid_s = np.geomspace(ABOVE_8, 3000.0, 30).tolist()
    grid_x = np.linspace(ABOVE_8, X_CAP, 30).tolist()
    assert max(gamma_kernel._ascending_sum(a, b)[1] for a in grid_s for b in grid_x if b < a) <= worst
    for (s, x), words in {
        (float(np.nextafter(ABOVE_8, 9.0)), ABOVE_8): "{} passes at s -> x -> 8",
        (21.0, 20.99): "{} at (21, 20.99)",
        (115.0, 114.4): "{} at (115, 114.4)",
    }.items():
        assert words.format(gamma_kernel._ascending_sum(s, x)[1]) in doc
    # an array checks its terms every few passes, so a call runs past its
    # slowest element by less than one check interval
    check = gamma_kernel._CHECK_PASSES
    assert f"checks its terms every {check} passes" in doc
    assert f"runs at most {check - 1} passes past its slowest element" in doc
    assert f"one call makes at most {worst + check - 1} passes" in doc


def _ascending_full(s, x, passes=3000):
    # the definition, run far past every element's convergence
    term = total = 1.0
    for k in range(1, passes):
        term *= x / (s + k)
        total += term
    return total


def test_ascending_stop_keeps_every_bit():
    worst = gamma_kernel._ascending_sum(float(np.nextafter(X_CAP, np.inf)), X_CAP)[1]
    for s in (ABOVE_8 + 1e-9, 9.0, 21.0, 64.5, 115.0, 129.0, 1e4):
        for x in (ABOVE_8, 0.5 * (8.0 + min(s, X_CAP)), float(np.nextafter(min(s, X_CAP), 0.0))):
            total, passes = gamma_kernel._ascending_sum(s, x)
            assert total == _ascending_full(s, x) and passes <= worst, (s, x)
    # one array call runs until every element's own terms are absorbed,
    # and each element keeps the bits of its own full sum
    rng = np.random.default_rng(20261020)
    s = np.exp(rng.uniform(math.log(8.01), math.log(3000.0), 300))
    x = 8.0 + (np.minimum(s, X_CAP) - 8.0) * rng.uniform(1e-9, 1.0, s.size)
    x = np.where(x < s, x, np.nextafter(s, 0.0))
    pairs = list(zip(s.tolist(), x.tolist())) + [(21.0, b) for b in x[x < 21.0].tolist()]
    ref = [gamma_kernel._log_from_sum(a, b, _ascending_full(a, b)) for a, b in pairs]
    got = gamma_kernel._log_ascending(s, x).tolist()
    got += gamma_kernel._log_ascending(np.asarray(21.0), x[x < 21.0]).tolist()
    assert got == ref


_CLOSED_FORMS_SCIPY = """
import json, sys
import numpy as np
import minuexp as mx
grid = [(a, lam) for a in (0.5, 1.0, 2.0, 5.0) for lam in (0.25, 1.0, 4.0)] + [(110.0, 0.04)]
t = np.geomspace(1e-2, 1e2, 300)
x = np.linspace(0.0, 1.0, 300)
for a, lam in grid:
    p = mx.MinUExpParams(a, lam)
    mx.count_pmf(p, np.arange(2001))
    for n in range(1, 21):
        mx.erlang_pdf(p, n, t)
    for fn in (mx.cdf, mx.pdf, mx.hazard):
        fn(p, a * x)
    for fn in (mx.lst, mx.tau_pdf, mx.tau_cdf):
        fn(p, t)
    for n in range(0, 150):
        mx.count_pmf(p, n)
    for mu in np.geomspace(0.1, 10.0, 7).tolist():
        mx.mean_xi_given_count(p, mu, np.arange(100))
        for n in range(0, 100, 9):
            mx.mean_xi_given_count(p, mu, n)
    for power in (0.25, 0.5, 0.75):
        if 1.0 - power <= a * lam <= 8.0:
            mx.tau_moment(p, power)
            mx.erlang_moment(p, 3, power)
print(json.dumps([m for m in sys.modules if m.startswith("scipy")]))
"""


def test_closed_forms_load_no_scipy():
    # every incomplete-gamma element of these evaluators has x <= 8, or an
    # integer order above 128 at x <= 128, so none reaches scipy's gammainc;
    # the moments' real orders 1 - p at 1 - p <= a lambda <= 8 are the
    # elements that take the series at x <= 8; a fresh interpreter, since
    # this process has imported scipy long ago
    env = dict(os.environ)
    package_root = str(Path(gamma_kernel.__file__).resolve().parents[1])
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = package_root + os.pathsep + inherited if inherited else package_root
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", _CLOSED_FORMS_SCIPY],
        capture_output=True, env=env, text=True, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == []


ROUTE_S = [1.0, 2.0, 7.0, 8.0, 9.0, 21.0, np.nextafter(21.0, 22.0), np.nextafter(21.0, 0.0), 64.0,
           X_CAP - 1.0, X_CAP, X_CAP + 1.0, np.nextafter(X_CAP, np.inf), 2.5, 150.5, 300.0]


@pytest.mark.parametrize("size", [1, 5, 16, 17, 64])
def test_scalar_calls_equal_array_calls_across_both_routes(size):
    rng = np.random.default_rng(1000 + size)
    special_x = [21.0, np.nextafter(21.0, 0.0), np.nextafter(21.0, 40.0), X_CAP, X_CAP + 1.0,
                 np.nextafter(X_CAP, np.inf), 150.5, np.inf]
    x = np.concatenate([BOUNDARY, special_x, rng.uniform(4.0, 200.0, size)])[:size]
    for s in ROUTE_S:
        _assert_scalar_calls_equal(s, x)  # scalar s, array x
        _assert_scalar_calls_equal(np.nextafter(s, np.inf), x)
        _assert_scalar_calls_equal(np.nextafter(s, -np.inf), x)
    # array orders whose elements straddle both routes
    s = rng.choice(np.array(ROUTE_S + [3.0, 12.0, 40.0]), size)
    _assert_scalar_calls_equal(s, x)
    for xv in (np.nextafter(8.0, 0.0), np.nextafter(8.0, 9.0), 21.0, X_CAP, X_CAP + 1.0, 1e5):
        _assert_scalar_calls_equal(s, xv)  # array s, scalar x
    # a two-route array equals its parts
    both = log_lower_incomplete_gamma(s, x)
    ascending = gamma_kernel._ascending_mask(s, x)
    for part in (ascending, ~ascending):
        if part.any():
            assert (log_lower_incomplete_gamma(s[part], x[part]) == both[part]).all()


def test_scalar_types_give_the_same_bits():
    for s, x in ((3, 9.5), (21, 30.0), (200, 300.0), (2.5, 12.0), (5, 2.0)):
        ref = log_lower_incomplete_gamma(np.array([s] * 20, dtype=float), np.full(20, x))[0]
        kinds = [(s, x), (float(s), x), (np.float64(s), np.float64(x))]
        kinds.append((np.asarray(float(s)), np.asarray(x)))
        if float(s).is_integer():
            kinds.append((np.int64(s), x))
        for a, b in kinds:
            value = log_lower_incomplete_gamma(a, b)
            assert type(value) is float and value == ref
