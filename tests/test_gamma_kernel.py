"""Incomplete gamma layer: examples, identities, and extreme-argument paths."""

import math

import mpmath
import numpy as np
import pytest
from scipy import integrate

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

