"""Lower incomplete gamma function in log space.

    gamma(s, x) = integral_0^x u^(s-1) e^(-u) du

The mixing kernel in minuexp._mixture sums orders up to 127 itself and
takes log gamma(s, x) only on its route C: kernel orders above 127 (gamma
orders of 129 and above), non-integer orders with ac at least the order
plus one, and non-finite arguments.  minuexp.validation calls it too, in
the rejected closed-form variants it checks.  Each element takes one of
two routes, chosen by its own (s, x):

* x <= 8, or finite 8 < x < s and x <= 128, any real s: the ascending
  series (DLMF 8.7.1, A&S 6.5.29)

      gamma(s, x) = x^s e^(-x) / s * sum_k t_k,
      t_0 = 1,  t_k = t_(k-1) x / (s+k),

  a sum of positive terms, summed in order in passes of
  term *= x/(s+k), total += term, run to convergence.  The rounded ratios
  x/(s+k) fall with k, so the terms rise while the ratios are at least 1
  and fall once they are below it; once a term is below 2^-54 of the sum,
  under half an ulp of it, every later one is too, and the sum stops,
  which changes no bit.  An array runs the same passes on all its
  elements until each element's own last term is absorbed: the terms an
  element adds past its own stop leave its sum as it is, so it keeps the
  bits of its own sum, whatever the call's shape or its other elements.
  It checks its terms every 8 passes and drops the absorbed elements once
  they are at least half of those left; with one order it first runs the
  passes of its largest x, the slowest element.  Calls of a few elements
  go element by element in Python floats, whose + * / are the same IEEE
  operations as numpy's, with the logs by np.log.  No scipy.

  At x <= 8 one element needs at most 42 passes, as s -> 0 at x = 8,
  where the terms are 8^k/k! (tests/test_gamma_kernel.py re-derives the
  bound).  Above 8 it needs 34 passes at s -> x -> 8, 49 at (21, 20.99),
  100 at (115, 114.4) and up to 105 where s is just above an x near 128.
  A call runs at most 7 passes past its slowest element, so one call
  makes at most 112 passes.  Where x < s no term exceeds 1, whatever x,
  so the cap on x stands only for cost against gammainc.  On 10^4
  elements (2-vCPU x86-64 host, best of 9 timeit repeats, ranges over
  three runs on a noisy host) the series took 0.9-1.0 ms against
  2.3-3.5 ms for the second route at s = 21 and x in (8, 21), the band of
  the arrival-epoch densities, and 1.7-2.5 against 2.2-3.3 ms for a
  made-up mix of s in (8, 2000) with x in (8, min(s, 128)).  On orders
  115..2001 at x = 114.4 it took 0.5-0.8 against 0.3-0.5 ms: gammainc
  underflows at most of those orders, and there the second route sums
  this series in a few passes, while here order 115 needs 100.  Element
  by element it takes 7-18 us against 1.5-2.8 us for gammainc.  The cap
  is 128: at finite x the mixing kernel sends integer orders of 129 and
  above only, so none of them loads scipy at x <= 128.
* otherwise (finite x > 8 with s <= x, x > 128 or x = inf): the
  regularized scipy.special.gammainc, times Gamma(s) through gammaln of
  the order as given (never its broadcast).  Where the regularized
  function underflows (x much smaller than s, as in count p.m.f.s with
  large totals) the elements take the series of the first route, at any
  x.  At large s, near that underflow, the series is long: an element
  whose term 10 000 is not yet below 2^-54 of its sum is NaN, with one
  RuntimeWarning, since the sum so far is not the answer (at s = 1e10 and
  x = s - 38 sqrt(s) it leaves gamma 2.2 % low).  Calls of a few elements
  take the same ufuncs one element at a time.

scipy.special is imported only when some element takes the second route:
importing it takes about 0.26 s, more than half the wall time of a short
CLI command.  Count p.m.f.s, arrival-epoch densities and posterior means
reach this module at integer orders only above 128, which the first
route serves wherever a (lambda + t) <= 128; so they load scipy only
where both exceed 128.  A repeat import inside a call is a dictionary
lookup.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

__all__ = ["log_lower_incomplete_gamma"]

# Elements with x at most this take the ascending series, whatever their order.
_SERIES_X_MAX = 8.0
# Elements with 8 < x < s and x at most this take it too (see the module
# docstring for the cost this bounds).
_ASCENDING_X_MAX = 128.0
# A term below this times the sum is under half an ulp of it.
_ABSORBED = 2.0**-54
# Calls with at most this many elements run element by element in Python
# floats: a numpy pass costs about a microsecond however few its elements,
# and the array series makes three to five passes per term.
_PER_ELEMENT_MAX = 16

# Below this the regularized lower gamma is too close to the underflow
# threshold to take a log of safely.
_REGULARIZED_FLOOR = 1e-290

# The converged series gives up, with NaN, on an element whose term
# _SERIES_CAP is still not absorbed; an array checks its terms once every
# _CHECK_PASSES passes.
_SERIES_CAP = 10_000
_CHECK_PASSES = 8
_CAP_WARNING = f"incomplete gamma series did not converge in {_SERIES_CAP} terms; returning NaN"

_S_DOMAIN = "shape argument s must be a finite positive real"
_X_DOMAIN = "limit argument x must be a nonnegative real"


def _validate_args(s: np.ndarray, x: np.ndarray) -> None:
    if not ((s > 0.0) & (s < np.inf)).all():
        raise ValueError(_S_DOMAIN)
    if not (x >= 0.0).all():
        raise ValueError(_X_DOMAIN)


def _log_from_sum(s, x, total):
    """log gamma(s, x) from the series sum: s log x - x - log s + log(sum)."""
    with np.errstate(divide="ignore"):
        return s * np.log(x) - x - np.log(s) + np.log(total)


def _ascending_sum(s: float, x: float) -> tuple[float, int]:
    """The ascending series sum 1 + sum_(k>=1) prod_(i<=k) x/(s+i) at one
    element in Python floats, and the index of the last term it added.

    Term k is term_(k-1) x/(s+k), the recurrence of _log_ascending.  The
    rounded ratios fall with k, so the terms rise from 1 while the ratios
    are at least 1 and fall once they are below it.  A term below
    _ABSORBED times the sum is below half an ulp of it, and comes after
    that peak (before it each term is at least the mean of the terms so
    far), so every later term is below it too: stopping there gives the
    bits of the series run to any length.  A sum whose term _SERIES_CAP is
    not yet absorbed is NaN.
    """
    term = total = 1.0
    for k in range(1, _SERIES_CAP + 1):
        term *= x / (s + k)
        total += term
        if term < _ABSORBED * total:
            return total, k
    return math.nan, _SERIES_CAP


def _log_ascending(s: np.ndarray, x: np.ndarray) -> np.ndarray:
    """log gamma(s, x) by the converged ascending series.

    Each element gets exactly the bits of _ascending_sum.  The elements run
    the same in-place passes, checked every _CHECK_PASSES passes, until each
    one's own last term is absorbed; the terms an element adds after its own
    stop leave its sum as it is.  Once at least half of those left are
    absorbed, they keep their sums and leave the passes.  With one order,
    the element of largest x is the slowest but for rounding, and its pass
    count comes before the first check.  Elements whose term _SERIES_CAP is
    not absorbed are NaN, with one RuntimeWarning.
    """
    shape = np.broadcast_shapes(s.shape, x.shape)
    # flat copies of the order and x, each a float where it is one value
    s_k, x_k = (
        float(v) if v.ndim == 0 else (v if v.shape == shape else np.broadcast_to(v, shape)).ravel()
        for v in (s, x)
    )
    size = math.prod(shape)
    term = np.ones(size)
    sums = total = np.ones(size)
    ratio = np.empty(size)
    # the elements still summed: all, until most of them are done
    index = slice(None)
    k = 0
    stop = _CHECK_PASSES
    if s.ndim == 0:
        stop = _ascending_sum(s_k, float(x.max()))[1]
    while True:
        for k in range(k + 1, stop + 1):
            np.divide(x_k, s_k + k, out=ratio)
            term *= ratio
            total += term
        going = term >= np.multiply(total, _ABSORBED, out=ratio)
        left = np.count_nonzero(going)
        if left == 0 or k == _SERIES_CAP:
            break
        if 2 * left <= going.size:
            # most elements' terms are absorbed: keep their sums, drop them
            sums[index] = total
            index = np.flatnonzero(going) if isinstance(index, slice) else index[going]
            term, total, ratio = term[going], total[going], ratio[:left]
            s_k, x_k = (v if isinstance(v, float) else v[going] for v in (s_k, x_k))
        stop = min(k + _CHECK_PASSES, _SERIES_CAP)
    if left:
        warnings.warn(_CAP_WARNING, RuntimeWarning)
        total[going] = np.nan
    sums[index] = total
    return _log_from_sum(s, x, sums.reshape(shape))


def _log_regularized(s: np.ndarray, x: np.ndarray) -> np.ndarray:
    """log gamma(s, x) through scipy's regularized function, for x > 8.

    gammaln is taken on the order as given, not on its broadcast; elements
    whose regularized value is too close to underflow take _log_ascending.
    """
    from scipy import special as sp

    reg = sp.gammainc(s, x)
    with np.errstate(divide="ignore"):
        out = np.asarray(np.log(reg) + sp.gammaln(s))
    series = reg <= _REGULARIZED_FLOOR
    if series.any():
        s_b, x_b = np.broadcast_arrays(s, x)
        out[series] = _log_ascending(s_b[series], x_b[series])
    return out


def _ascending_mask(s, x):
    """Where the ascending series serves, over arrays or at one element of
    floats: x <= 8, or 8 < x < s and x <= the cap."""
    return (x <= _SERIES_X_MAX) | ((x < s) & (x <= _ASCENDING_X_MAX))


def _log_one(s: float, x: float):
    """log gamma(s, x) at one element: the array routes' arithmetic, element
    by element, without numpy's fixed cost per array operation."""
    if not 0.0 < s < math.inf:
        raise ValueError(_S_DOMAIN)
    if not x >= 0.0:
        raise ValueError(_X_DOMAIN)
    if x == 0.0:
        return -math.inf
    if not _ascending_mask(s, x):
        from scipy import special as sp

        reg = sp.gammainc(s, x)
        if reg > _REGULARIZED_FLOOR:
            return np.log(reg) + sp.gammaln(s)
    total = _ascending_sum(s, x)[0]
    if math.isnan(total):
        warnings.warn(_CAP_WARNING, RuntimeWarning)
    return s * np.log(x) - x - np.log(s) + np.log(total)


def log_lower_incomplete_gamma(s, x):
    """log of gamma(s, x), usable where gamma(s, x) itself underflows.

    Each element takes the ascending series run to convergence where
    x <= 8, or where x < s and x <= 128, and scipy's regularized function
    otherwise (see the module docstring); a call loads scipy only if some
    element takes that second route.  Returns -inf at x = 0.  Raises
    ValueError for s <= 0, s = inf or x < 0.  Accepts scalars or arrays,
    broadcast against each other.
    """
    if isinstance(s, (float, int)) and isinstance(x, (float, int)):
        return float(_log_one(float(s), float(x)))
    s = np.asarray(s, dtype=float)
    x = np.asarray(x, dtype=float)
    pairs = np.broadcast(s, x)
    if pairs.size <= _PER_ELEMENT_MAX:
        out = np.array([_log_one(float(a), float(b)) for a, b in pairs]).reshape(pairs.shape)
        return out if out.ndim else float(out)
    _validate_args(s, x)
    ascending = _ascending_mask(s, x)
    if ascending.all():
        return _log_ascending(s, x)
    if not ascending.any():
        return _log_regularized(s, x)
    # each route takes its elements by index (cheaper than a boolean mask),
    # and a scalar order stays a scalar
    shape = pairs.shape
    x_b = np.broadcast_to(x, shape).ravel()
    s_b = s if s.ndim == 0 else np.broadcast_to(s, shape).ravel()
    out = np.empty(x_b.size)
    for route, mask in ((_log_ascending, ascending), (_log_regularized, ~ascending)):
        index = np.flatnonzero(np.broadcast_to(mask, shape))
        out[index] = route(s_b if s.ndim == 0 else s_b.take(index), x_b.take(index))
    return out.reshape(shape)
