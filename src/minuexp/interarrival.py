"""Waiting-time laws driven by a Min-U-Exp mixing variable.

Conditionally on xi = x the waiting time is Exp(x); integrating x out
gives the Exp-Min-U-Exp law of a single inter-arrival, its multivariate
version for a vector of inter-arrivals sharing one xi, and the
Erlang-Min-U-Exp law of the n-th arrival epoch.  Closed forms here carry
corrected algebra where the naive transcription fails the quadrature
oracle; see the validation report for the rejected variants.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import structure
from ._mixture import _stable_B, _stable_C, log_mixing_kernel, mixing_kernel
from .structure import MinUExpParams, _finish, _integer, _scaled_rate, _where_c_overflows

__all__ = [
    "tau_cdf",
    "tau_pdf",
    "tau_moment",
    "tau_sample",
    "bivariate_pdf",
    "xi_given_tau_pdf",
    "mean_xi_given_tau",
    "multivariate_pdf_II",
    "erlang_pdf",
    "erlang_moment",
    "interarrival_vector_sample",
]


def tau_cdf(params: MinUExpParams, t):
    """C.d.f. of one inter-arrival, with c = lambda + t:

    F(t) = t/c - t/(a c^2) (1 - e^(-ac)) = (t/c) B(ac)/(ac),  t > 0

    0 for t <= 0 and 1 at t = +inf, where B(x) = x - 1 + e^(-x) is summed as
    a series for small x, so F keeps its relative precision when ac is
    small; the factor t/c keeps large t from overflowing, and where ac
    overflows F is t/c; where c does, F is the one at (2a, lambda/2, t/2).
    Equals 1 minus the structure law's transform.
    """
    a, lam = params.a, params.lam
    arr = np.asarray(t, dtype=float)
    finite = (arr > 0.0) & (arr < np.inf)
    ti = np.where(finite, arr, 1.0)
    out = np.where(finite, _tau_cdf_finite(a, lam, ti), np.where(arr == np.inf, 1.0, 0.0))
    return _finish(arr, out)


def _tau_cdf_finite(a: float, lam: float, t: np.ndarray) -> np.ndarray:
    """tau_cdf at finite t > 0."""
    c, ac, huge = _scaled_rate(a, lam, t)
    body = t / c * (_stable_B(ac) / ac)
    if huge is not None:
        body = np.where(huge, t / c, body)
        body = _where_c_overflows(c, body, lambda: _tau_cdf_finite(2.0 * a, 0.5 * lam, 0.5 * t))
    return body


def tau_pdf(params: MinUExpParams, t):
    """Density of one inter-arrival on t > 0, with c = lambda + t and z = ac:

    lambda/c^2 + (t-lambda)/(a c^3) (1 - e^(-z)) - t/c^2 e^(-z)
        = (lambda B(z) + t C(z)) / (z c^2)

    where B(z) = z - 1 + e^(-z) and C(z) = 1 - (1+z) e^(-z) are both
    nonnegative and free of cancellation, so the density keeps its relative
    precision (and its sign) at small a and lambda.  B/z and C/z are at most
    1, and dividing by c twice keeps large t from overflowing; where z
    overflows they are 1 and 1/(ac), and where c does, the density is half
    the one at (2a, lambda/2, t/2).  0 for t <= 0 and at t = +inf.
    """
    arr = np.asarray(t, dtype=float)
    finite = (arr > 0.0) & (arr < np.inf)
    ti = np.where(finite, arr, 1.0)
    out = np.where(finite, _tau_pdf_finite(params.a, params.lam, ti), 0.0)
    return _finish(arr, out)


def _tau_pdf_finite(a: float, lam: float, t: np.ndarray) -> np.ndarray:
    """tau_pdf at finite t > 0."""
    c, z, huge = _scaled_rate(a, lam, t)
    body = _tau_pdf_times_c2(a, lam, t, c, z, huge) / c / c
    if huge is not None:
        body = _where_c_overflows(c, body, lambda: 0.5 * _tau_pdf_finite(2.0 * a, 0.5 * lam, 0.5 * t))
    return body


def _tau_pdf_times_c2(a: float, lam: float, t, c, z, huge):
    """c^2 tau_pdf(t) = lambda B(z)/z + t C(z)/z at finite t > 0, given
    c = lambda + t, z = ac and the overflow mask as _scaled_rate returns them.

    At most lambda + t/c, and about lambda + 1/a once t is large, so it is a
    normal double even where tau_pdf itself underflows (t past about 1e154).
    """
    b = _stable_B(z)
    body = lam * (b / z) + t * (_stable_C(z, b) / z)
    if huge is not None:
        body = np.where(huge, lam + t / c / a, body)
    return body


def tau_moment(params: MinUExpParams, power: float) -> float:
    """E(tau^p) = Gamma(p+1) J(-p, lambda), finite exactly for p in (-1, 1).

    tau = eta/xi with eta ~ Exp(1) independent of xi, so this is the
    arrival-epoch moment at n = 1.  Returns math.inf outside that range
    (the moment diverges there), and raises ValueError for a NaN power.
    """
    return erlang_moment(params, 1, power)


def tau_sample(params: MinUExpParams, rng: np.random.Generator, size=None):
    """Draws of eta/xi with eta ~ Exp(1) independent of xi (xi drawn first)."""
    xi = structure.sample(params, rng, size=size)
    eta = rng.exponential(size=size)
    out = eta / xi
    return float(out) if size is None else out


def bivariate_pdf(params: MinUExpParams, t, x):
    """Joint density of (tau, xi):

    (1/a) x e^(-(lambda+t)x) (1 + lambda a - lambda x),  t > 0, x in (0, a)

    i.e. the conditional Exp(x) density of tau times the mixing density.
    Broadcasts t against x; NaN wherever either argument is NaN.  Where
    c = lambda + t overflows at finite t, the exponent c x is taken as
    (c/2)(2x), its value at (2a, lambda/2, t/2) and 2x.  Where lambda a
    overflows, the last two factors are taken as lambda (1 - x/a) + 1/a.
    """
    a, lam = params.a, params.lam
    t_arr = np.asarray(t, dtype=float)
    x_arr = np.asarray(x, dtype=float)
    inside = (t_arr > 0.0) & (x_arr > 0.0) & (x_arr < a)
    ts = np.where(inside, t_arr, 1.0)
    xs = np.where(inside, x_arr, 0.5 * a)
    tilt = np.exp(-_tilt_times_x(a, lam, t_arr, ts, xs))
    if lam * a < math.inf:
        body = xs / a * tilt * (1.0 + lam * a - xs * lam)
    else:
        body = xs * tilt * (lam * (1.0 - xs / a) + 1.0 / a)
    out = np.where(np.isnan(t_arr) | np.isnan(x_arr), np.nan, np.where(inside, body, 0.0))
    return float(out) if out.ndim == 0 else out


def _tilt_times_x(
    a: float, lam: float, t_arr: np.ndarray, ts: np.ndarray, xs: np.ndarray
) -> np.ndarray:
    """(lambda + t) x at the masked points ts, xs of bivariate_pdf.

    Where (lambda + t) a is finite at the largest t, the common case, one
    Python check settles that: no product overflows, as x < a.  Otherwise
    overflowing elements of lambda + t are mended by _where_c_overflows,
    with c/2 finite.  There a product c x or (c/2)(2x) that overflows
    stands for an exponent past the largest double, whose exponential is 0
    either way, so the overflow is silent.
    """
    top = float(t_arr) if t_arr.ndim == 0 else float(t_arr.max(initial=-math.inf))
    if (lam + top) * a < math.inf:
        return (lam + ts) * xs
    with np.errstate(over="ignore"):
        c = lam + ts
        return _where_c_overflows(c, c * xs, lambda: (0.5 * lam + 0.5 * ts) * (2.0 * xs))


@functools.lru_cache(maxsize=64)
def _marginal_times_c2(a: float, lam: float, t: float) -> float:
    """c^2 tau_pdf(t), memoized: quadrature over x repeats (a, lambda, t)."""
    t = np.asarray(t)
    return float(_tau_pdf_times_c2(a, lam, t, *_scaled_rate(a, lam, t)))


def xi_given_tau_pdf(params: MinUExpParams, t: float, x):
    """Posterior density of xi given tau = t, supported on (0, a):

    bivariate_pdf(t, x) / tau_pdf(t), the joint density over the marginal.

    The marginal is the cancellation-free form of tau_pdf, so the density
    keeps its relative precision and its sign at small a and lambda.  It is
    computed once per (params, t), as c^2 tau_pdf(t) with c = lambda + t,
    and the quotient is multiplied by c twice: tau_pdf itself underflows
    for t past about 1e154, where the posterior is still a normal double.
    Where c itself overflows, the density is twice the one at
    (2a, lambda/2, t/2) and 2x, whose joint density equals bivariate_pdf
    at (t, x) and whose c/2 is finite.
    """
    if not 0.0 < t < math.inf:
        raise ValueError("conditioning time t must be a finite positive real")
    a, lam, t = params.a, params.lam, float(t)
    c = lam + t
    if c < math.inf:
        return bivariate_pdf(params, t, x) / _marginal_times_c2(a, lam, t) * c * c
    half_c = 0.5 * lam + 0.5 * t
    marginal = _marginal_times_c2(2.0 * a, 0.5 * lam, 0.5 * t)
    return 2.0 * bivariate_pdf(params, t, x) / marginal * half_c * half_c


def mean_xi_given_tau(params: MinUExpParams, t):
    """Posterior mean E(xi | tau = t) for t > 0.

    Computed as the ratio of tilted moments E(xi^2 e^(-t xi)) / E(xi e^(-t xi)),
    which the quadrature oracle confirms; always lies in (0, a).
    """
    arr = np.asarray(t, dtype=float)
    # written so that NaN fails too
    if not (arr > 0.0).all():
        raise ValueError("conditioning time t must be positive")
    c = params.lam + arr
    out = np.exp(log_mixing_kernel(params, 2, c) - log_mixing_kernel(params, 1, c))
    return float(out) if out.ndim == 0 else out


def multivariate_pdf_II(params: MinUExpParams, t) -> float:
    """Joint density of k inter-arrivals sharing one mixing draw.

    Depends on t = (t_1, ..., t_k) only through s = sum(t); with c = lambda+s:

    gamma(k+1, ac) (a lambda c + s - lambda k) / (a c^(k+2))
    + lambda a^k e^(-ac) / c

    All components must be positive.
    """
    t_arr = np.asarray(t, dtype=float)
    if t_arr.ndim != 1 or t_arr.size < 1:
        raise ValueError("argument vector must be one-dimensional and nonempty")
    if np.any(~(t_arr > 0.0)):
        raise ValueError("all components must be positive")
    k = t_arr.size
    s = float(np.sum(t_arr))
    return mixing_kernel(params, k, params.lam + s)


def erlang_pdf(params: MinUExpParams, n: int, t):
    """Density of the n-th arrival epoch on t > 0, with c = lambda + t:

    t^(n-1) gamma(n+1, ac) (lambda a c + t - lambda n) / ((n-1)! a c^(n+2))
    + lambda a^n t^(n-1) e^(-ac) / ((n-1)! c)

    The leading power of c is n+2: that is what the n = 1 reduction to the
    single inter-arrival density and the quadrature oracle require.
    Evaluated in log space so large n does not overflow.  0 for t <= 0 and
    at t = +inf, NaN at NaN.
    """
    n = _integer(n, "event index n must be a positive integer")
    arr = np.asarray(t, dtype=float)
    # every t in (0, inf), and so none NaN: nothing to mask
    if arr.size and arr.min() > 0.0 and arr.max() < math.inf:
        out = np.exp(_log_erlang_body(params, n, arr))
        return float(out) if out.ndim == 0 else out
    inside = (arr > 0.0) & (arr < math.inf)
    ti = np.where(inside, arr, 1.0)
    out = np.where(inside, np.exp(_log_erlang_body(params, n, ti)), 0.0)
    return _finish(arr, out)


def _log_erlang_body(params: MinUExpParams, n: int, t: np.ndarray):
    """log of erlang_pdf at t in (0, inf)."""
    return (n - 1) * np.log(t) - math.lgamma(n) + log_mixing_kernel(params, n, params.lam + t)


def erlang_moment(params: MinUExpParams, n: int, power: float) -> float:
    """E(T_n^p) of the n-th arrival epoch, finite exactly for p in (-n, 1):

    Gamma(p+n)/Gamma(n) J(-p, lambda),

    since T_n = G/xi with G ~ Gamma(n, 1) independent of xi.  The gamma
    ratio and the kernel are combined in log space, so large n stays
    finite.  Returns math.inf outside that range, and raises ValueError for
    a NaN power.
    """
    n = _integer(n, "event index n must be a positive integer")
    if math.isnan(power):
        raise ValueError("moment power p must be a real number, not NaN")
    if not -float(n) < power < 1.0:
        return math.inf
    log_ratio = math.lgamma(power + n) - math.lgamma(n)
    with np.errstate(over="ignore"):
        return float(np.exp(log_ratio + log_mixing_kernel(params, -power, params.lam)))


def interarrival_vector_sample(params: MinUExpParams, k: int, rng: np.random.Generator, size=None):
    """Joint draws (eta_1/xi, ..., eta_k/xi) with one shared xi per vector.

    Returns shape (k,) for size=None, else (size, k).  The shared mixing
    draw makes the components exchangeable and positively dependent.
    """
    k = _integer(k, "vector length k must be a positive integer")
    if size is None:
        xi = structure.sample(params, rng)
        return rng.exponential(size=k) / xi
    xi = structure.sample(params, rng, size=size)
    eta = rng.exponential(size=(size, k))
    return eta / xi[:, None]
