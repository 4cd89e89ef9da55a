"""The Min-U-Exp structure distribution: the law of min(U(0, a), Exp(lambda)).

This is the mixing variable of the whole package.  Its c.d.f. is

    F(x) = 0                                   x <= 0
    F(x) = 1 - e^(-lambda x) + (x/a) e^(-lambda x)   0 < x <= a
    F(x) = 1                                   x > a

Evaluators accept scalars or numpy arrays in the variate argument and are
pure; a NaN argument gives NaN.  Sampling mutates only the generator
passed in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._mixture import log_mixing_kernel, mixing_kernel

__all__ = [
    "MinUExpParams",
    "cdf",
    "pdf",
    "hazard",
    "scale",
    "raw_moment",
    "variance",
    "lst",
    "sample",
]


@dataclass(frozen=True)
class MinUExpParams:
    """Parameter pair of the Min-U-Exp law.

    a is the right end of the uniform support (same units as the variate),
    lam the exponential rate (inverse units).  Both must be positive.
    """

    a: float
    lam: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and self.a > 0.0):
            raise ValueError("parameter a must be a finite positive real")
        if not (math.isfinite(self.lam) and self.lam > 0.0):
            raise ValueError("parameter lambda must be a finite positive real")


def _integer(value, message: str, lowest: int = 1) -> int:
    """value as an int no less than lowest; ValueError(message) for fractions, NaN and inf."""
    if not (lowest <= value < math.inf and int(value) == value):
        raise ValueError(message)
    return int(value)


def _increasing_grid(values, name: str) -> np.ndarray:
    """values as a nonempty, positive, strictly increasing float vector; errors call it name."""
    grid = np.asarray(values, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError(f"{name} must be a nonempty one-dimensional vector")
    # written so that NaN fails too
    if not (np.all(grid > 0.0) and np.all(np.diff(grid) > 0.0)):
        raise ValueError(f"{name} must be positive and strictly increasing")
    return grid


def _scaled_rate(a: float, lam: float, t: np.ndarray):
    """c = lambda + t and z = a c as arrays, and the mask where z overflows
    (None if nowhere).

    There z reads 1.0, a stand-in that keeps B(z)/z, C(z)/z and
    (1 - e^(-z))/z finite; the caller overwrites those elements with the
    limits 1, 1/(ac) and 1/(ac), which hold to double precision once ac
    exceeds the largest double.  Where c itself overflows, z does too,
    though ac may not: the caller mends those elements with
    _where_c_overflows.
    """
    with np.errstate(over="ignore"):
        c = lam + t
        z = np.asarray(a * c)
    huge = np.isinf(z)
    if not huge.any():
        return c, z, None
    return c, np.where(huge, 1.0, z), huge


def _where_c_overflows(c: np.ndarray, body: np.ndarray, halved) -> np.ndarray:
    """body, but where c = lambda + t overflowed at finite t, halved().

    halved() evaluates the same law at (2a, lambda/2, t/2): xi -> 2 xi maps
    (a, lambda) to (2a, lambda/2), so transforms and waiting-time c.d.f.s
    agree there and densities in t halve, and c/2 is finite.  A 2a past the
    largest double reads inf, which drops only terms far below half an ulp
    of the result.  Callers reach this only where z overflowed, which every
    overflowing c makes it do, so other calls pay nothing.
    """
    wide = np.isinf(c)
    return np.where(wide, halved(), body) if wide.any() else body


def _finish(arg: np.ndarray, out: np.ndarray):
    """Pointwise result: NaN wherever the argument was NaN, a float for 0-d."""
    out = np.where(np.isnan(arg), np.nan, out)
    return float(out) if out.ndim == 0 else out


def cdf(params: MinUExpParams, x):
    """Distribution function; total on the reals, right-continuous."""
    a, lam = params.a, params.lam
    arr = np.asarray(x, dtype=float)
    inside = (arr > 0.0) & (arr <= a)
    xi = np.where(inside, arr, 0.5 * a)
    # an overflowing lambda x stands for e^(-lambda x) = 0
    with np.errstate(over="ignore"):
        exponent = -lam * xi
    # -expm1, not 1 - e^(-lambda x), which cancels at small lambda x
    body = -np.expm1(exponent) + (xi / a) * np.exp(exponent)
    out = np.where(arr <= 0.0, 0.0, np.where(arr > a, 1.0, body))
    return _finish(arr, out)


def pdf(params: MinUExpParams, x):
    """Density (e^(-lambda x)/a)(lambda a + 1 - lambda x) on (0, a), else 0.

    Where lambda a overflows it is taken as e^(-lambda x)(lambda (1 - x/a)
    + 1/a); there an overflowing lambda x stands for e^(-lambda x) = 0.
    """
    a, lam = params.a, params.lam
    arr = np.asarray(x, dtype=float)
    inside = (arr > 0.0) & (arr < a)
    xi = np.where(inside, arr, 0.5 * a)
    if lam * a < math.inf:
        body = np.exp(-lam * xi) / a * (lam * a + 1.0 - xi * lam)
    else:
        with np.errstate(over="ignore"):
            body = np.exp(-lam * xi) * (lam * (1.0 - xi / a) + 1.0 / a)
    out = np.where(inside, body, 0.0)
    return _finish(arr, out)


def hazard(params: MinUExpParams, x):
    """Hazard rate lambda + 1/(a - x) on (0, a); +inf at a; 0 elsewhere.

    The boundary value at x = a is the one-sided limit, reported as an
    explicit infinity so plots can carry the right endpoint.
    """
    a, lam = params.a, params.lam
    arr = np.asarray(x, dtype=float)
    inside = (arr > 0.0) & (arr < a)
    xi = np.where(inside, arr, 0.5 * a)
    body = lam + 1.0 / (a - xi)
    out = np.where(inside, body, 0.0)
    out = np.where(arr == a, np.inf, out)
    return _finish(arr, out)


def scale(params: MinUExpParams, k: float) -> MinUExpParams:
    """Parameters of k*xi: (k a, lambda/k).  Requires k > 0."""
    if not (math.isfinite(k) and k > 0.0):
        raise ValueError("scaling constant k must be a finite positive real")
    return MinUExpParams(k * params.a, params.lam / k)


def raw_moment(params: MinUExpParams, k: int) -> float:
    """k-th raw moment E(xi^k) = J(k, lambda) for integer k >= 1.

    J is the mixing kernel, evaluated in log space: the result stays
    accurate where the moment is a small double and is inf past overflow.
    """
    k = _integer(k, "moment order k must be a positive integer")
    return float(mixing_kernel(params, k, params.lam))


def variance(params: MinUExpParams) -> float:
    """Variance J(2, lambda) - J(1, lambda)^2 of xi from the mixing kernel, as
    J1^2 expm1(log J2 - 2 log J1): J2/J1^2 lies in (4/3, 2), so it loses at
    most two bits.  inf past overflow."""
    log_j1 = log_mixing_kernel(params, 1, params.lam)
    log_j2 = log_mixing_kernel(params, 2, params.lam)
    with np.errstate(over="ignore"):
        return float(np.exp(2.0 * log_j1) * np.expm1(log_j2 - 2.0 * log_j1))


def lst(params: MinUExpParams, t):
    """Laplace-Stieltjes transform E e^(-t xi) for t >= 0; 0 at t = +inf.

    lambda/c + (t/c) (1 - e^(-ac))/(ac) with c = lambda + t: both factors of
    the second term are at most 1, so large t does not overflow.  Where ac
    itself overflows, the second term is (t/c)/a/c; where c does, the
    value is the one at (2a, lambda/2, t/2).
    """
    a, lam = params.a, params.lam
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0.0) or np.any(np.isnan(arr)):
        raise ValueError("transform argument t must be nonnegative")
    finite = arr < np.inf
    out = np.where(finite, _lst_finite(a, lam, np.where(finite, arr, 0.0)), 0.0)
    return _finish(arr, out)


def _lst_finite(a: float, lam: float, t: np.ndarray) -> np.ndarray:
    """lst at finite t >= 0."""
    c, z, huge = _scaled_rate(a, lam, t)
    body = lam / c + t / c * (-np.expm1(-z) / z)
    if huge is not None:
        body = np.where(huge, lam / c + t / c / a / c, body)
        body = _where_c_overflows(c, body, lambda: _lst_finite(2.0 * a, 0.5 * lam, 0.5 * t))
    return body


def sample(params: MinUExpParams, rng: np.random.Generator, size=None):
    """Exact draws of min(u, e), u ~ U(0, a) and e ~ Exp(lambda) independent.

    One uniform and one exponential are consumed per draw, uniform first.
    Returns a float for size=None, else an array of the requested shape.
    """
    u = rng.uniform(0.0, params.a, size=size)
    e = rng.exponential(scale=1.0 / params.lam, size=size)
    if size is None:
        return float(np.minimum(u, e))
    return np.minimum(u, e, out=u)
