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

from ._mixture import mixing_kernel

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


def _scaled_rate(a: float, c: np.ndarray):
    """z = a c as an array, and the mask where the product overflows (None if nowhere).

    There z reads 1.0, a stand-in that keeps B(z)/z, C(z)/z and
    (1 - e^(-z))/z finite; the caller overwrites those elements with the
    limits 1, 1/(ac) and 1/(ac), which hold to double precision once ac
    exceeds the largest double.
    """
    with np.errstate(over="ignore"):
        z = np.asarray(a * c)
    huge = np.isinf(z)
    if not huge.any():
        return z, None
    return np.where(huge, 1.0, z), huge


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
    body = 1.0 - np.exp(-lam * xi) + (xi / a) * np.exp(-lam * xi)
    out = np.where(arr <= 0.0, 0.0, np.where(arr > a, 1.0, body))
    return _finish(arr, out)


def pdf(params: MinUExpParams, x):
    """Density (e^(-lambda x)/a)(lambda a + 1 - lambda x) on (0, a), else 0."""
    a, lam = params.a, params.lam
    arr = np.asarray(x, dtype=float)
    inside = (arr > 0.0) & (arr < a)
    xi = np.where(inside, arr, 0.5 * a)
    body = np.exp(-lam * xi) / a * (lam * a + 1.0 - xi * lam)
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
    """Variance of xi in closed form."""
    a, lam = params.a, params.lam
    z = a * lam
    e = math.exp(-z)
    return (2.0 + 2.0 * e - ((z + 1.0 - e) / z) ** 2) / lam**2


def lst(params: MinUExpParams, t):
    """Laplace-Stieltjes transform E e^(-t xi) for t >= 0; 0 at t = +inf.

    lambda/c + (t/c) (1 - e^(-ac))/(ac) with c = lambda + t: both factors of
    the second term are at most 1, so large t does not overflow.  Where ac
    itself overflows, the second term is (t/c)/a/c.
    """
    a, lam = params.a, params.lam
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0.0) or np.any(np.isnan(arr)):
        raise ValueError("transform argument t must be nonnegative")
    finite = arr < np.inf
    ti = np.where(finite, arr, 0.0)
    c = lam + ti
    z, huge = _scaled_rate(a, c)
    body = lam / c + ti / c * (-np.expm1(-z) / z)
    if huge is not None:
        body = np.where(huge, lam / c + ti / c / a / c, body)
    out = np.where(finite, body, 0.0)
    return _finish(arr, out)


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
