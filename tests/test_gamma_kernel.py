"""Incomplete gamma layer and the series engine it shares with the mixing
kernel: examples, identities and extreme arguments; the engine's stop rule,
drop of absorbed elements and cap, at theta = 0 (the gamma series) and
theta > 0 (Kummer's series of the mixing kernel); and the two routes of the
incomplete gamma, the series at x <= 8 and scipy's regularized function
above it, NaN with a warning where that underflows."""

import contextlib
import json
import math
import os
import re
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
from minuexp.gamma_kernel import _log_lower_incomplete_gamma as log_lower_incomplete_gamma

S_GRID = [0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0]
X_GRID = [0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 100.0]


def lower_incomplete_gamma(s, x):
    """gamma(s, x) itself, as the exponential of the log form."""
    with np.errstate(over="ignore"):
        out = np.exp(log_lower_incomplete_gamma(s, x))
    return out if np.ndim(out) else float(out)


def test_lower_gamma_shape_one_closed_form():
    for x in (0.0, 0.3, 1.0, 4.0, 50.0):
        assert lower_incomplete_gamma(1.0, x) == pytest.approx(-math.expm1(-x), rel=1e-14, abs=0.0)


def test_lower_gamma_at_zero_limit_is_zero():
    for s in S_GRID:
        assert lower_incomplete_gamma(s, 0.0) == 0.0


def test_lower_gamma_2_2_against_quadrature_oracle():
    oracle, err = integrate.quad(lambda u: u * math.exp(-u), 0.0, 2.0, epsabs=1e-14)
    assert err < 1e-12
    assert lower_incomplete_gamma(2.0, 2.0) == pytest.approx(oracle, rel=1e-13, abs=0.0)
    # same value through the first-order recurrence gamma(2,x) = 1 - e^-x (1+x)
    assert lower_incomplete_gamma(2.0, 2.0) == pytest.approx(1.0 - math.exp(-2.0) * 3.0, rel=1e-14, abs=0.0)


def test_complement_identity_on_grid():
    # gamma(s, x) + Gamma(s, x) = Gamma(s), with the upper function from mpmath
    mpmath.mp.dps = 40
    for s in S_GRID:
        for x in X_GRID:
            total = lower_incomplete_gamma(s, x) + float(mpmath.gammainc(s, x, mpmath.inf))
            assert total == pytest.approx(math.gamma(s), rel=1e-12, abs=0.0)


def test_recurrence_identity_on_grid():
    # gamma(s+1, x) = s gamma(s, x) - x^s e^-x
    for s in S_GRID:
        for x in X_GRID:
            lhs = lower_incomplete_gamma(s + 1.0, x)
            rhs = s * lower_incomplete_gamma(s, x) - x**s * math.exp(-x)
            if lhs == 0.0:
                assert abs(rhs) < 1e-300
            else:
                assert rhs == pytest.approx(lhs, rel=1e-11, abs=0.0)


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
            assert lower_incomplete_gamma(s, x) == pytest.approx(ref, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("s, x", [(200.0, 1.0), (172.0, 50.0)])
def test_orders_past_gamma_overflow(s, x):
    # Gamma(s) overflows past s = 171.6 while gamma(s, x) stays finite
    mpmath.mp.dps = 40
    ref = float(mpmath.gammainc(s, 0, x))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = lower_incomplete_gamma(s, x)
    assert value == pytest.approx(ref, rel=1e-12, abs=0.0)


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


def test_series_serves_any_order_at_x_up_to_8():
    # the regularized function underflows at x << s for large s; at x <= 8
    # the series has no such limit
    mpmath.mp.dps = 60
    for s, x in ((200.0, 2.0), (500.0, 8.0), (1000.0, 3.0)):
        assert special.gammainc(s, x) <= gamma_kernel._REGULARIZED_FLOOR
        ref = float(mpmath.log(mpmath.gammainc(s, 0, x)))
        got = log_lower_incomplete_gamma(s, x)
        assert got == pytest.approx(ref, rel=1e-12, abs=0.0)


UNDERFLOW_WARNING = "regularized incomplete gamma at or below 1e-290"


def test_regularized_underflow_is_nan_with_one_warning():
    # above x = 8 far below the order the regularized function is too close
    # to underflow to take a log of: NaN and a warning, never -inf or a
    # finite number
    s, x = 500.0, 10.0
    assert special.gammainc(s, x) <= gamma_kernel._REGULARIZED_FLOOR
    with pytest.warns(RuntimeWarning, match=UNDERFLOW_WARNING) as caught:
        assert math.isnan(log_lower_incomplete_gamma(s, x))
    assert len(caught) == 1
    # in an array only the underflowing elements are NaN, with one warning
    s_mix = np.array([s] * 3 + [40.0] * 17)
    x_mix = np.array([x] * 3 + [50.0] * 17)
    with pytest.warns(RuntimeWarning, match=UNDERFLOW_WARNING) as caught:
        got = log_lower_incomplete_gamma(s_mix, x_mix)
    assert len(caught) == 1 and np.isnan(got[:3]).all()
    assert (got[3:] == log_lower_incomplete_gamma(40.0, 50.0)).all()


def test_log_variant_vectorized_mixed_regimes():
    s = np.array([2.0, 400.0])
    x = np.array([2.0, 2.0])
    out = log_lower_incomplete_gamma(s, x)
    assert out.shape == (2,)
    assert out[0] == pytest.approx(math.log(lower_incomplete_gamma(2.0, 2.0)), abs=1e-12)
    mpmath.mp.dps = 60
    assert out[1] == pytest.approx(float(mpmath.log(mpmath.gammainc(400.0, 0, 2.0))), rel=1e-12, abs=0.0)


# --------------------------------------------------------------------------
# The series engine: sum_k T_k w_k run to convergence, at theta = 0 (the
# gamma series) and theta > 0 (Kummer's series of the mixing kernel)

THETAS = [0.0, 0.3, 1.0, 4.4, 1e6, 1e300]


def _series_reference(s, x):
    # a scalar ascending-series loop that stops on a term below 1e-18 of its
    # sum: later than the engine's 2^-54 (5.6e-17), and the terms it adds
    # past the engine's stop leave every converged sum as it is
    total = term = 1.0
    k = 1
    while True:
        term *= x / (s + k)
        total += term
        if term < 1e-18 * total or k > 10_000:
            break
        k += 1
    return total


def _weighted_full(s, x, theta=0.0, passes=3000):
    # the weighted series by its definition, in the engine's operations, run
    # far past every element's convergence
    u, v = (1.0, theta) if theta <= 1.0 else (1.0 / theta, 1.0)
    d = s + 1.0
    term, total = 1.0, u + v * (1.0 / d)
    for k in range(1, passes):
        term *= x / d
        d = s + (k + 1)
        total += term * (u + v * ((k + 1) / d))
    return total


def test_series_matches_scalar_loop_exactly():
    rng = np.random.default_rng(20261018)
    # far below the order (a few terms), near x = s (hundreds to thousands
    # of terms), and past the cap
    s1 = np.exp(rng.uniform(math.log(200.0), math.log(1e5), 3000))
    x1 = s1 * rng.uniform(0.0, 0.6, s1.size)
    s2 = np.exp(rng.uniform(math.log(1e3), math.log(1e7), 600))
    x2 = s2 - rng.uniform(38.0, 45.0, s2.size) * np.sqrt(s2)
    s3 = np.array([1e9, 4e9])
    x3 = s3 - 38.0 * np.sqrt(s3)
    s, x = np.concatenate([s1, s2, s3]), np.concatenate([x1, x2, x3])
    # the elements whose regularized function underflows: the long sums
    series = (special.gammainc(s, x) <= 1e-290) & (x > 0.0)
    s, x = s[series], x[series]
    assert s.size > 2000 and series[-2:].all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = gamma_kernel._ascending(s, x)
    assert got[:-2].tolist() == [_series_reference(a, b) for a, b in zip(s[:-2].tolist(), x[:-2].tolist())]
    # the two elements past the cap have not converged in its terms
    assert np.isnan(got[-2:]).all()
    for i in range(0, s.size, 97):
        assert gamma_kernel._ascending_sum(float(s[i]), float(x[i]))[0] == got[i]


def test_series_past_the_cap_is_nan_without_a_warning():
    # 38 standard deviations below s = 1e10 the series needs 97 238 terms;
    # the sum of its first 10^4 would leave gamma 2.2 % low
    s, x = 1e10, 1e10 - 38.0 * 1e5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for theta in (0.0, 4.4):
            total, passes = gamma_kernel._ascending_sum(s, x, theta)
            assert math.isnan(total) and passes == gamma_kernel._SERIES_CAP
            assert np.isnan(gamma_kernel._ascending(s, np.linspace(x - 1.0, x, 20), theta)).all()
            # in a mixed array only the unconverged element is NaN
            got = gamma_kernel._ascending(np.array([s] + [900.0] * 19), np.array([x] + [150.0] * 19), theta)
            assert math.isnan(got[0])
            assert (got[1:] == gamma_kernel._ascending_sum(900.0, 150.0, theta)[0]).all()


def test_series_stops_relative_to_its_sum():
    # near x = s at large s the sum is in the hundreds, and its terms are
    # absorbed well above 2^-54: here at term 8649 of the 10 000 allowed,
    # where a stop at 2^-54 itself would not come before the cap
    s = 1e9
    x = s - 116.0 * math.sqrt(s)
    total, passes = gamma_kernel._ascending_sum(s, x)
    assert total == _series_reference(s, x) and total > 250.0
    assert passes == 8649 < gamma_kernel._SERIES_CAP
    assert (gamma_kernel._ascending(np.full(20, s), np.full(20, x)) == total).all()


@pytest.mark.parametrize(
    "s, x",
    [
        # orders far apart, whose largest x is above their smallest order
        ([900.0, 1.2e5], [150.0, 1e5]),
        # from an order just above 8 to x near 128
        ([8.5, 129.0], [8.4, 128.0]),
    ],
)
@pytest.mark.parametrize("theta", THETAS)
def test_series_arrays_stop_on_their_own_elements(s, x, theta):
    # each element keeps the bits of its own scalar sum, though the pair
    # (smallest s, largest x) would need far more passes
    s, x = np.tile(s, 9), np.tile(x, 9)
    got = gamma_kernel._ascending(s, x, theta)
    assert got.tolist() == [gamma_kernel._ascending_sum(a, b, theta)[0] for a, b in zip(s.tolist(), x.tolist())]
    assert np.isfinite(got).all()


@pytest.mark.parametrize("theta", THETAS)
def test_series_stop_keeps_every_bit(theta):
    # the weighted terms rise and then fall, so the first one below 2^-54
    # of the sum is followed by smaller ones only: the stop gives the bits
    # of the full sum, at one element and in every call shape
    for s in (0.001, 1.0, 8.5, 21.0, 128.0, 129.0, 1e3, 1e4):
        for x in (0.0, 1e-300, 0.5, 8.0, 0.5 * s, float(np.nextafter(s, 0.0)), s):
            total, passes = gamma_kernel._ascending_sum(s, x, theta)
            assert total == _weighted_full(s, x, theta) and passes < 1000, (s, x)
    rng = np.random.default_rng(20261020)
    s = np.exp(rng.uniform(math.log(1e-3), math.log(3000.0), 300))
    x = s * rng.uniform(0.0, 1.0, s.size)
    ref = [_weighted_full(a, b, theta) for a, b in zip(s.tolist(), x.tolist())]
    assert gamma_kernel._ascending(s, x, theta).tolist() == ref
    # one order over an array of x, and an array of orders at one x
    below = x[x < 21.0]
    assert gamma_kernel._ascending(21.0, below, theta).tolist() == [
        _weighted_full(21.0, b, theta) for b in below.tolist()
    ]
    assert gamma_kernel._ascending(s, 114.4, theta).tolist() == [
        _weighted_full(a, 114.4, theta) for a in s.tolist()
    ]


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


def _expected_nan(s, x) -> bool:
    """Whether gamma(s, x) takes scipy's route with its regularized value at
    or below the floor, where the kernel gives NaN."""
    return x > 8.0 and special.gammainc(s, x) <= gamma_kernel._REGULARIZED_FLOOR


def _assert_value(value, s, x, ref=None):
    """NaN exactly where the regularized value underflows; elsewhere finite
    (-inf at x = 0) and, given ref, equal to it."""
    if _expected_nan(s, x):
        assert math.isnan(value) and (ref is None or math.isnan(ref)), (s, x)
    else:
        assert math.isfinite(value) or (x == 0.0 and value == -math.inf), (s, x, value)
        assert ref is None or value == ref, (s, x)


@contextlib.contextmanager
def _underflow_warning_only():
    """Warnings as the suite sets them, with the one underflow message
    ignored."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", re.escape(gamma_kernel._UNDERFLOW_WARNING), RuntimeWarning)
        yield


def _assert_scalar_calls_equal(s, x):
    with _underflow_warning_only():
        got = np.broadcast_to(log_lower_incomplete_gamma(s, x), np.broadcast_shapes(np.shape(s), np.shape(x)))
        for (a, b), value in zip(np.broadcast(s, x), got.ravel()):
            _assert_value(log_lower_incomplete_gamma(float(a), float(b)), float(a), float(b), value)


def _assert_parts_equal_the_whole(s, x):
    # a two-route array equals its parts
    with _underflow_warning_only():
        both = log_lower_incomplete_gamma(s, x)
        small = x <= 8.0
        for part in (small, ~small):
            if part.any():
                for a, b, value, ref in zip(s[part], x[part], log_lower_incomplete_gamma(s[part], x[part]), both[part]):
                    _assert_value(value, float(a), float(b), ref)


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
    _assert_parts_equal_the_whole(s, x)


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
        count_pmf(MinUExpParams(110.0, 0.04), np.arange(0, 200))
    mpmath.mp.dps = 40
    exact = [float(mpmath.log(mpmath.factorial(k))) for k in range(40)]
    assert all(abs(a - b) <= 2.0 * math.ulp(b) for a, b in zip(out.tolist(), exact))


# --------------------------------------------------------------------------
# The series above 8: the engine at theta = 0 where 8 < x < s, as the
# mixing kernel's route A runs it below x = s + 1 at gamma order s + 1

ABOVE_8 = float(np.nextafter(8.0, np.inf))


def _ascending_points(s):
    near = [ABOVE_8, 8.5, 10.0, 12.5, 20.0, 33.3, 50.0, 64.0, 100.0, 114.4, 128.0,
            float(np.nextafter(s, 0.0)), s - 0.5 * math.sqrt(s), s - 3.0 * math.sqrt(s)]
    return sorted({x for x in near if 8.0 < x < s})


ASCENDING_S = [float(s) for s in range(9, 130)] + [150.0, 200.0, 300.0, 500.0, 1000.0, 2000.0, 3000.0]
ASCENDING_S += [float(np.nextafter(ABOVE_8, 9.0)), 8.5, 9.3, 20.7, 64.25, 127.9, 128.5, 300.3, 2999.9]


def test_series_above_8_against_mpmath():
    # 1e-14 relative in log gamma, for integer and real orders from just
    # above 8 to 3000, x from just above 8 to just below s
    mpmath.mp.dps = 50
    for s in ASCENDING_S:
        xs = np.array(_ascending_points(s))
        got = gamma_kernel._log_from_sum(s, xs, gamma_kernel._ascending(s, xs))
        for x, value in zip(xs.tolist(), got.tolist()):
            ref = mpmath.log(mpmath.gammainc(mpmath.mpf(s), 0, mpmath.mpf(x)))
            assert abs(mpmath.mpf(value) - ref) <= 1e-14 * max(abs(ref), 1.0), (s, x)


def test_routes_take_exactly_their_elements():
    s = np.array([21.0, 21.0, 200.0, 21.5, 1e4, 21.0, 21.0, 200.0, 21.5, 200.0, 8.0, 0.5])
    x = np.array([7.5, 8.0, 8.0, 1e-300, 0.0, ABOVE_8, 21.0, 300.0, 64.0, np.inf, 9.0, 1e5])
    got = log_lower_incomplete_gamma(s, x)
    # x <= 8 takes the series whatever the order, x > 8 scipy's function
    series = x <= 8.0
    assert series.tolist() == [True] * 5 + [False] * 7
    assert (got[series] == gamma_kernel._log_series(s[series], x[series])).all()
    assert (got[~series] == gamma_kernel._log_regularized(s[~series], x[~series])).all()


def test_series_passes_near_the_order_are_the_docstring_counts():
    # the mixing kernel's route A at z just below s + 1, theta = 1: the
    # passes grow like sqrt(s), and the cap is first reached near s = 1.6e6
    doc = " ".join(_mixture.__doc__.split())
    passes = {s: gamma_kernel._ascending_sum(s + 1.0, float(np.nextafter(s + 1.0, 0.0)), 1.0)[1]
              for s in (127.0, 1000.0, 1e4)}
    assert f"({passes[127.0]} at s = 127, {passes[1000.0]} at s = 1000, {passes[1e4]} at s = 10^4" in doc
    below, above = (float(np.nextafter(s + 1.0, 0.0)) for s in (1.5e6, 1.7e6))
    for theta in (0.0, 1.0, 1e300):
        assert gamma_kernel._ascending_sum(1.5e6 + 1.0, below, theta)[1] < gamma_kernel._SERIES_CAP
        assert math.isnan(gamma_kernel._ascending_sum(1.7e6 + 1.0, above, theta)[0])


def _ascending_full(s, x, passes=3000):
    # the plain gamma series by its definition, run far past every
    # element's convergence
    term = total = 1.0
    for k in range(1, passes):
        term *= x / (s + k)
        total += term
    return total


def test_series_at_theta_zero_is_the_gamma_series():
    # every weight is exactly 1 at theta = 0, so the engine sums the plain
    # series term by term, at x above 8 as below it
    for s in (ABOVE_8 + 1e-9, 9.0, 21.0, 64.5, 115.0, 129.0, 1e4):
        for x in (ABOVE_8, 0.5 * (8.0 + min(s, 128.0)), float(np.nextafter(min(s, 128.0), 0.0))):
            assert gamma_kernel._ascending_sum(s, x)[0] == _ascending_full(s, x), (s, x)
    rng = np.random.default_rng(20261020)
    s = np.exp(rng.uniform(math.log(8.01), math.log(3000.0), 300))
    x = 8.0 + (np.minimum(s, 128.0) - 8.0) * rng.uniform(1e-9, 1.0, s.size)
    x = np.where(x < s, x, np.nextafter(s, 0.0))
    assert gamma_kernel._ascending(s, x).tolist() == [_ascending_full(a, b) for a, b in zip(s.tolist(), x.tolist())]


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
    # the count laws' orders above 127 all have a (lambda + t) below the
    # order plus one, where the mixing kernel's route A needs no incomplete
    # gamma; the moments' real orders 1 - p at 1 - p <= a lambda <= 8 are
    # the elements that reach it, and take its series at x <= 8; a fresh
    # interpreter, since this process has imported scipy long ago
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
           127.0, 128.0, 129.0, np.nextafter(128.0, np.inf), 2.5, 150.5, 300.0]


@pytest.mark.parametrize("size", [1, 5, 16, 17, 64])
def test_scalar_calls_equal_array_calls_across_both_routes(size):
    rng = np.random.default_rng(1000 + size)
    special_x = [21.0, np.nextafter(21.0, 0.0), np.nextafter(21.0, 40.0), 128.0, 129.0,
                 np.nextafter(128.0, np.inf), 150.5, np.inf]
    x = np.concatenate([BOUNDARY, special_x, rng.uniform(4.0, 200.0, size)])[:size]
    for s in ROUTE_S:
        _assert_scalar_calls_equal(s, x)  # scalar s, array x
        _assert_scalar_calls_equal(np.nextafter(s, np.inf), x)
        _assert_scalar_calls_equal(np.nextafter(s, -np.inf), x)
    # array orders whose elements straddle both routes
    s = rng.choice(np.array(ROUTE_S + [3.0, 12.0, 40.0]), size)
    _assert_scalar_calls_equal(s, x)
    for xv in (np.nextafter(8.0, 0.0), np.nextafter(8.0, 9.0), 21.0, 128.0, 129.0, 1e5):
        _assert_scalar_calls_equal(s, xv)  # array s, scalar x
    _assert_parts_equal_the_whole(s, x)


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
