"""Count laws of the mixed Poisson family with Min-U-Exp mixing.

The one-dimensional count p.m.f., its generating function and moments, the
joint p.m.f.s of counts along an increasing intensity grid (cumulative and
incremental forms), the posterior of the mixing variable given a count,
and the binomial law of a past count given a later one.

All p.m.f. evaluation runs in log space: a^n / n! and gamma(n+1, .) leave
double range near n ~ 150 in direct form.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ._mixture import log_mixing_kernel
from .structure import (
    MinUExpParams,
    _finish,
    _increasing_grid,
    _integer,
    lst,
    raw_moment,
    scale,
    variance,
)

__all__ = [
    "count_pmf",
    "scaled_count_params",
    "pgf",
    "count_mean_var",
    "factorial_moment",
    "ordered_pmf",
    "increments_pmf",
    "ordered_to_increments",
    "increments_to_ordered",
    "xi_given_count_pdf",
    "mean_xi_given_count",
    "conditional_binomial_pmf",
]


def _validate_counts(values, name: str) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a nonempty one-dimensional vector")
    if not np.issubdtype(arr.dtype, np.integer):
        # inf equals its floor, and int64 casts it, or any value past 2**63, to -2**63
        if not ((arr == np.floor(arr)) & (np.abs(arr) < 2.0**63)).all():
            raise ValueError(f"{name} must contain finite integers below 2**63 in magnitude")
        arr = arr.astype(np.int64)
    return arr


def _count_indices(n, name: str) -> tuple[np.ndarray, bool]:
    """n as a nonempty vector of nonnegative integers, and whether it was a scalar."""
    n_arr = np.asarray(n)
    counts = _validate_counts(np.atleast_1d(n_arr), name)
    if (counts < 0).any():
        raise ValueError(f"{name} must be nonnegative")
    return counts, n_arr.ndim == 0


def _plain_count(n) -> bool:
    """Whether n is one integer count that the scalar entries take as it is.

    Anything else, bad values included, goes through _count_indices, so
    both kinds of call raise the same errors.
    """
    return isinstance(n, (int, np.integer)) and 0 <= n < 2**63


def _check_mu_t(mu_t: float) -> None:
    if not (math.isfinite(mu_t) and mu_t > 0.0):
        raise ValueError("accumulated intensity mu_t must be positive")


def count_pmf(params: MinUExpParams, n):
    """P(N = n) of the unit-intensity count law, with c = lambda + 1:

    (1/n!) { gamma(n+1, ac) (lambda a c + 1 - n lambda) / (a c^(n+2))
             + lambda a^n e^(-ac) / c }

    Vectorized over n; raises for negative n.  A scalar n takes the
    kernel's scalar path, with the bits of the same n inside an array.
    """
    if _plain_count(n):
        log_pmf = log_mixing_kernel(params, n, params.lam + 1.0) - math.lgamma(n + 1.0)
        return float(np.exp(log_pmf))
    counts, scalar = _count_indices(n, "count index n")
    order = counts[0] if scalar else counts
    log_pmf = log_mixing_kernel(params, order, params.lam + 1.0) - _log_factorials(counts)
    out = np.exp(log_pmf)
    return float(out[0]) if scalar else out


# count_pmf's log n! values for n below this are kept, 8 bytes each
_LOG_FACTORIAL_CAP = 1 << 14
_log_factorial_table = np.zeros(0)


def _log_factorials(counts: np.ndarray) -> np.ndarray:
    """math.lgamma(n + 1) of each count, from a table of those values that
    grows to the largest count asked for, up to _LOG_FACTORIAL_CAP; counts
    past the cap take math.lgamma one by one."""
    global _log_factorial_table
    table = _log_factorial_table
    top = int(counts.max())
    if top >= table.size and table.size < _LOG_FACTORIAL_CAP:
        grown = range(table.size, min(top + 1, _LOG_FACTORIAL_CAP))
        table = np.concatenate([table, [math.lgamma(k + 1.0) for k in grown]])
        _log_factorial_table = table
    if top < table.size:
        return table.take(counts)
    out = table.take(np.minimum(counts, table.size - 1))
    past = np.flatnonzero(counts >= table.size)
    out[past] = [math.lgamma(k + 1.0) for k in counts.take(past).tolist()]
    return out


def scaled_count_params(params: MinUExpParams, mu_t: float) -> MinUExpParams:
    """Count-law parameters at accumulated intensity mu_t: (a mu_t, lambda/mu_t)."""
    _check_mu_t(mu_t)
    return scale(params, mu_t)


def pgf(params: MinUExpParams, mu_t: float, z):
    """Probability generating function E z^N(t) for |z| <= 1.

    Equals the mixing variable's Laplace-Stieltjes transform at
    mu_t (1 - z); in particular pgf(1) = 1 and pgf(0) = P(N(t) = 0).
    """
    _check_mu_t(mu_t)
    z_arr = np.asarray(z, dtype=float)
    if np.any(np.abs(z_arr) > 1.0) or np.any(np.isnan(z_arr)):
        raise ValueError("generating-function argument z must satisfy |z| <= 1")
    return lst(params, mu_t * (1.0 - z_arr) if z_arr.ndim else mu_t * (1.0 - float(z_arr)))


def count_mean_var(params: MinUExpParams, mu_t: float) -> tuple[float, float]:
    """Mean and variance of N(t) at accumulated intensity mu_t.

    mean = mu E(xi) and var = mean + mu^2 Var(xi), both moments of xi from
    the mixing kernel.  The law is over-dispersed: var > mean.
    """
    _check_mu_t(mu_t)
    mean = mu_t * raw_moment(params, 1)
    return mean, mean + mu_t**2 * variance(params)


def factorial_moment(params: MinUExpParams, mu_t: float, k: int) -> float:
    """k-th factorial moment E[N(N-1)...(N-k+1)] = mu^k J(k, lambda) at
    intensity mu_t: the k-th raw moment of the Poisson mean mu xi.

    The power of mu is added to log J, so the result is inf past overflow.
    """
    _check_mu_t(mu_t)
    k = _integer(k, "factorial-moment order k must be a positive integer")
    with np.errstate(over="ignore"):
        return float(np.exp(k * math.log(mu_t) + log_mixing_kernel(params, k, params.lam)))


def ordered_pmf(params: MinUExpParams, mu, k) -> float:
    """Joint p.m.f. of cumulative counts along the grid mu_1 < ... < mu_n.

    Product of Poisson-increment factors
    mu_1^k1 (mu_2-mu_1)^(k2-k1) ... / (k1! (k2-k1)! ...) times the mixing
    bracket at (k_n, mu_n); the bracket's tail term carries a^(k_n), which
    is what consistency with the mixture integral forces (the variant with
    a single power of a agrees only at a = 1).  Non-monotone or negative
    count vectors are outside the support and return 0.
    """
    grid = _increasing_grid(mu, "intensity grid")
    counts = _validate_counts(k, "count vector k")
    if counts.size != grid.size:
        raise ValueError("count vector and intensity grid must have matching length")
    steps = np.diff(counts, prepend=0)
    if np.any(steps < 0):
        return 0.0
    widths = np.diff(grid, prepend=0.0)
    log_product = float(np.sum(steps * np.log(widths) - _log_factorials(steps)))
    log_bracket = log_mixing_kernel(params, int(counts[-1]), params.lam + float(grid[-1]))
    return math.exp(log_product + log_bracket)


def increments_pmf(params: MinUExpParams, mu, m) -> float:
    """Joint p.m.f. of count increments over the grid cells.

    Product of mu_1^m1 (mu_2-mu_1)^m2 ... / (m1! m2! ...) times the mixing
    bracket at (m1+...+mn, mu_n), evaluated as the cumulative form at the
    cumulative sums of m.  Negative entries return 0: their cumulative sums
    are not nondecreasing, so they fall outside the cumulative support.
    """
    return ordered_pmf(params, mu, np.cumsum(_validate_counts(m, "increment vector m")))


def ordered_to_increments(k):
    """First differences (k1, k2-k1, ...); raises if k is not nondecreasing."""
    counts = _validate_counts(k, "count vector k")
    steps = np.diff(counts, prepend=0)
    if np.any(steps < 0):
        raise ValueError("cumulative count vector must be nondecreasing and nonnegative")
    return steps


def increments_to_ordered(m):
    """Cumulative sums; raises on negative entries.  Inverse of the above."""
    incs = _validate_counts(m, "increment vector m")
    if np.any(incs < 0):
        raise ValueError("increment vector must be componentwise nonnegative")
    return np.cumsum(incs)


@functools.lru_cache(maxsize=64)
def _log_posterior_norm(a: float, lam: float, n: int, c: float) -> float:
    """log(a J(n, c)), memoized: quadrature over x repeats (params, mu_t, n)."""
    return math.log(a) + log_mixing_kernel(MinUExpParams(a, lam), n, c)


def xi_given_count_pdf(params: MinUExpParams, mu_t: float, n: int, x):
    """Posterior density of xi given N(t) = n, supported on (0, a]:

    x^n e^(-x(lambda+mu)) (lambda a + 1 - lambda x) / (a J)

    where a J is the normalizing mixture integral at (n, lambda+mu).
    A NaN x gives NaN.
    """
    _check_mu_t(mu_t)
    n = _integer(n, "count n must be a nonnegative integer", 0)
    a, lam = params.a, params.lam
    c = lam + mu_t
    log_norm = _log_posterior_norm(a, lam, n, c)
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    inside = (arr > 0.0) & (arr <= a)
    xs = np.where(inside, arr, 0.5 * a)
    log_num = -xs * c + np.log(lam * a + 1.0 - lam * xs)
    if n > 0:
        log_num = log_num + n * np.log(xs)
    out = _finish(arr, np.where(inside, np.exp(log_num - log_norm), 0.0))
    return float(out[0]) if scalar else out


def mean_xi_given_count(params: MinUExpParams, mu_t: float, n):
    """Posterior mean E(xi | N(t) = n), always in (0, a).

    Ratio of the mixture integrals at orders n+1 and n; the coefficient in
    the expanded numerator is (n+1) lambda, linear in n (the quadratic
    variant overshoots the prior mean at n = 0 and fails the oracle).
    Vectorized over n; a scalar n returns a float, from the kernel's
    scalar path with the bits of the same n inside an array.
    """
    _check_mu_t(mu_t)
    c = params.lam + mu_t
    if _plain_count(n):
        return math.exp(log_mixing_kernel(params, n + 1, c) - log_mixing_kernel(params, n, c))
    counts, scalar = _count_indices(n, "count n")
    log_j = log_mixing_kernel(params, np.stack([counts + 1, counts]), c)
    # math.exp per entry, as for scalars: np.exp differs from it in the last
    # bit on a few percent of arguments, and the CLI prints all 17 digits
    out = np.array([math.exp(d) for d in (log_j[0] - log_j[1]).tolist()])
    return float(out[0]) if scalar else out


def conditional_binomial_pmf(n: int, ratio: float, j: int) -> float:
    """Binomial p.m.f. Bi(n, ratio) at j: the law of an earlier count given
    a later count n, with ratio the accumulated-intensity quotient."""
    n = _integer(n, "total count n must be a nonnegative integer", 0)
    j = _integer(j, "count j must be an integer with 0 <= j <= n", 0)
    if j > n:
        raise ValueError("count j must be an integer with 0 <= j <= n")
    if not 0.0 < ratio < 1.0:
        raise ValueError("intensity ratio must lie strictly inside (0, 1)")
    return math.comb(n, j) * ratio**j * (1.0 - ratio) ** (n - j)
