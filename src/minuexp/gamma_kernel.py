"""Lower incomplete gamma function in log space.

    gamma(s, x) = integral_0^x u^(s-1) e^(-u) du

The mixing kernel in minuexp._mixture builds every closed form of the
family from log gamma(s, x); nothing else in the package needs incomplete
gamma algebra.  Each element takes one of two routes, chosen by its own
argument x:

* x <= 8: the ascending series (DLMF 8.7.1, A&S 6.5.29)

      gamma(s, x) = x^s e^(-x) / s * sum_k c_k x^k,
      c_0 = 1,  c_k = c_(k-1) / (s+k),

  a sum of positive terms, summed in order over the fixed 43 terms
  k = 0..42.  Relative to the sum, the neglected tail is largest at x = 8
  as s -> 0, where the terms are x^k/k!: with 43 terms it is below 2^-56
  of the sum for every s > 0, with 42 it is not (tests/test_gamma_kernel.py
  re-derives both), so the truncation is well inside half an ulp.
  Because the length is fixed, an element's bits depend on (s, x) alone,
  never on the call's shape or on the other elements.  The sum may stop
  sooner only once every later term is below 2^-54, less than half an ulp
  of a sum that is at least 1, so stopping changes no bit.  A scalar
  order keeps its coefficients c_k as Python floats, and calls of a few
  elements go element by element in Python floats, whose + * / are the
  same IEEE operations as numpy's, with the logs by np.log.  No scipy.
* x > 8: the regularized scipy.special.gammainc, times Gamma(s) through
  gammaln of the order as given (never its broadcast); where the
  regularized function underflows (x much smaller than s, as in count
  p.m.f.s with large totals) an ascending series summed in log space
  until it converges, vectorized in blocks.  Calls of a few elements take
  the same ufuncs one element at a time.

scipy.special is imported only when some element has x > 8: importing it
takes about 0.26 s, more than half the wall time of a short CLI command,
while count p.m.f.s and posterior means at a moderate intensity
a (lambda + mu) <= 8 need only the first route.  A repeat import inside a
call is a dictionary lookup.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["log_lower_incomplete_gamma"]

# Elements with x at most this take the fixed-length series.
_SERIES_X_MAX = 8.0
# Terms k = 0.._FIXED_TERMS - 1 of the fixed-length series.
_FIXED_TERMS = 43
# A term below this is under half an ulp of the sum, which is at least 1.
_ABSORBED = 2.0**-54
# Calls with at most this many elements run element by element in Python
# floats: a numpy pass costs about a microsecond however few its elements,
# and the array series makes three to five passes per term.
_PER_ELEMENT_MAX = 16

# Below this the regularized lower gamma is too close to the underflow
# threshold to take a log of safely.
_REGULARIZED_FLOOR = 1e-290

# The converged series adds terms until one falls below _SERIES_TOL of
# the running sum, or until the term index passes _SERIES_CAP, converged
# or not.  One pass adds at most _SERIES_MAX_WIDTH terms to each element.
_SERIES_TOL = 1e-18
_SERIES_CAP = 10_000
_SERIES_MAX_WIDTH = 512


_S_DOMAIN = "shape argument s must be a finite positive real"
_X_DOMAIN = "limit argument x must be a nonnegative real"


def _validate_args(s: np.ndarray, x: np.ndarray) -> None:
    if not ((s > 0.0) & (s < np.inf)).all():
        raise ValueError(_S_DOMAIN)
    if not (x >= 0.0).all():
        raise ValueError(_X_DOMAIN)


def _fixed_sum(s: float, x: float) -> tuple[float, int]:
    """The fixed-length series sum at one element in Python floats, and
    the index of the last term it had to add.

    Term k is c_k x^k, with c_k = c_(k-1)/(s+k) and x^k = x^(k-1) x.  Past
    k > x the exact ratio of consecutive terms is at most 8/9, so the
    rounded terms fall too: once one is below _ABSORBED, so is every later
    term, and stopping there gives the bits of all 43 terms.
    """
    c = power = total = 1.0
    for k in range(1, _FIXED_TERMS):
        c /= s + k
        power *= x
        term = c * power
        total += term
        if term < _ABSORBED and k > x:
            break
    return total, k


def _fixed_sums(s: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The fixed-length series sums over the broadcast of s and x.

    Each element gets exactly the bits of _fixed_sum.  Every rounded term
    grows with x and falls with s, so the array loop stops where
    _fixed_sum stops at the largest x and the smallest s.  A scalar order
    keeps its coefficients c_k as Python floats, never broadcast, and the
    loop holds four arrays at most, whatever the number of terms.
    """
    shape = np.broadcast_shapes(s.shape, x.shape)
    last = _fixed_sum(float(s.min()), float(x.max()))[1]
    s_k, x_k = (float(v) if v.ndim == 0 else v for v in (s, x))
    c = 1.0 if s.ndim == 0 else np.ones(s.shape)
    power = 1.0 if x.ndim == 0 else np.ones(x.shape)
    total = np.ones(shape)
    term = np.empty(shape)
    for k in range(1, last + 1):
        c /= s_k + k
        power *= x_k
        np.multiply(c, power, out=term)
        total += term
    return total


def _log_from_sum(s, x, total):
    """log gamma(s, x) from the series sum: s log x - x - log s + log(sum)."""
    with np.errstate(divide="ignore"):
        return s * np.log(x) - x - np.log(s) + np.log(total)


def _log_fixed(s: np.ndarray, x: np.ndarray) -> np.ndarray:
    """log gamma(s, x) by the fixed-length series, for x <= 8."""
    return _log_from_sum(s, x, _fixed_sums(s, x))


def _log_series(s: np.ndarray, x: np.ndarray) -> np.ndarray:
    """log gamma(s, x) by the ascending series run to convergence; 1-d s, x > 0.

    Stable for x << s, where the regularized function underflows.  Each
    element adds its terms in order and stops at the first term below
    _SERIES_TOL of its running sum, or once the term index k passes
    _SERIES_CAP.  A pass builds a block of terms for every unfinished
    element: the cumulative product of the ratios x/(s+k), the first scaled
    by the last term, and the cumulative sum of the terms, the first raised
    by the last total, repeat the scalar recurrence term *= x/(s+k),
    total += term bit for bit.
    """
    totals = np.empty(s.shape)
    active, s_a, x_a = np.arange(s.size), s, x
    term = total = 1.0
    k0 = 1
    # term k is at most r^k with r = x/(s+1) < 1, and the sum at least 1, so
    # the first block settles every element unless the cap or rounding
    # intervenes; an r that underflows to 0 needs one term
    r = float((x / (s + 1.0)).max())
    width = 1 if r == 0.0 else min(int(math.log(_SERIES_TOL) / math.log(r)) + 2, _SERIES_MAX_WIDTH)
    while True:
        ratios = x_a[:, None] / (s_a[:, None] + np.arange(k0, k0 + width))
        ratios[:, 0] *= term
        terms = ratios.cumprod(axis=1)
        ratios[:] = terms
        ratios[:, 0] += total
        sums = ratios.cumsum(axis=1)
        stop = terms < _SERIES_TOL * sums
        stop[:, max(_SERIES_CAP + 1 - k0, 0):] = True
        # a row that stops stays stopped: x < s wherever the regularized
        # function underflows, so its terms shrink while its sum grows
        going = ~stop[:, -1]
        stop[:, -1] = True
        last = stop.argmax(axis=1)
        totals[active] = sums[np.arange(last.size), last]
        if not going.any():
            return _log_from_sum(s, x, totals)
        active, s_a, x_a = active[going], s_a[going], x_a[going]
        term, total = terms[going, -1], sums[going, -1]
        k0 += width
        width = min(2 * width, _SERIES_MAX_WIDTH)


def _log_regularized(s: np.ndarray, x: np.ndarray) -> np.ndarray:
    """log gamma(s, x) through scipy's regularized function, for x > 8.

    gammaln is taken on the order as given, not on its broadcast; elements
    whose regularized value is too close to underflow take _log_series.
    """
    from scipy import special as sp

    reg = sp.gammainc(s, x)
    with np.errstate(divide="ignore"):
        out = np.asarray(np.log(reg) + sp.gammaln(s))
    series = reg <= _REGULARIZED_FLOOR
    if series.any():
        s_b, x_b = np.broadcast_arrays(s, x)
        out[series] = _log_series(s_b[series], x_b[series])
    return out


def _log_one(s: float, x: float):
    """log gamma(s, x) at one element: the array routes' arithmetic, element
    by element, without numpy's fixed cost per array operation."""
    if not 0.0 < s < math.inf:
        raise ValueError(_S_DOMAIN)
    if not x >= 0.0:
        raise ValueError(_X_DOMAIN)
    if x == 0.0:
        return -math.inf
    if x <= _SERIES_X_MAX:
        return s * np.log(x) - x - np.log(s) + np.log(_fixed_sum(s, x)[0])
    from scipy import special as sp

    reg = sp.gammainc(s, x)
    if reg <= _REGULARIZED_FLOOR:
        return _log_series(np.array([s]), np.array([x]))[0]
    return np.log(reg) + sp.gammaln(s)


def log_lower_incomplete_gamma(s, x):
    """log of gamma(s, x), usable where gamma(s, x) itself underflows.

    Each element takes the fixed-length series where x <= 8 and scipy's
    regularized function otherwise (see the module docstring); a call
    loads scipy only if some element has x > 8.  Returns -inf at x = 0.
    Raises ValueError for s <= 0, s = inf or x < 0.  Accepts scalars or
    arrays, broadcast against each other.
    """
    s = np.asarray(s, dtype=float)
    x = np.asarray(x, dtype=float)
    pairs = np.broadcast(s, x)
    if pairs.size <= _PER_ELEMENT_MAX:
        out = np.array([_log_one(float(a), float(b)) for a, b in pairs]).reshape(pairs.shape)
        return out if out.ndim else float(out)
    _validate_args(s, x)
    small = x <= _SERIES_X_MAX
    if small.all():
        out = _log_fixed(s, x)
    elif not small.any():
        out = _log_regularized(s, x)
    else:
        # x is an array: each route takes its elements by index (cheaper
        # than a boolean mask), and a scalar order stays a scalar
        shape = pairs.shape
        x_b = np.broadcast_to(x, shape).ravel()
        s_b = s if s.ndim == 0 else np.broadcast_to(s, shape).ravel()
        out = np.empty(x_b.size)
        for route, index in (
            (_log_fixed, np.flatnonzero(np.broadcast_to(small, shape))),
            (_log_regularized, np.flatnonzero(np.broadcast_to(~small, shape))),
        ):
            out[index] = route(s_b if s.ndim == 0 else s_b.take(index), x_b.take(index))
        out = out.reshape(shape)
    return out
