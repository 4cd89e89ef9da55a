"""Incomplete gamma layer: examples, identities, and extreme-argument paths."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy import integrate, special

from minuexp.gamma_kernel import log_lower_incomplete_gamma, lower_incomplete_gamma

S_GRID = [0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0]
X_GRID = [0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 100.0]


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
    for s in S_GRID:
        for x in (0.1, 1.0, 10.0, 100.0):
            direct = math.log(lower_incomplete_gamma(s, x))
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
    # the scalar ascending-series loop the vectorized series reproduces
    total = term = 1.0
    k = 1
    while True:
        term *= x / (s + k)
        total += term
        if term < 1e-18 * total or k > 10_000:
            break
        k += 1
    return s * np.log(x) - x - np.log(s) + np.log(total)


def test_log_variant_series_matches_scalar_loop_exactly():
    rng = np.random.default_rng(20261018)
    # far below the shape (a few terms), near the underflow boundary
    # (hundreds to thousands of terms, several blocks), and past the cap
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
    got = log_lower_incomplete_gamma(s, x)
    assert got.tolist() == [_log_series_reference(a, b) for a, b in zip(s.tolist(), x.tolist())]
    for i in range(0, s.size, 97):
        assert log_lower_incomplete_gamma(float(s[i]), float(x[i])) == got[i]
