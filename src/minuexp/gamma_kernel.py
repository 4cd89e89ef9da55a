"""Lower incomplete gamma function in log space.

    gamma(s, x) = integral_0^x u^(s-1) e^(-u) du

The mixing kernel in minuexp._mixture takes log gamma(s, x) for the
elements it does not sum itself: kernel orders above 127, non-integer
orders with ac at least the order plus one, and non-finite arguments.
Nothing else in the package needs incomplete gamma algebra.  Each element
takes one of four routes, chosen by its own (s, x):

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
* finite x > 8, integer s <= x and s <= 128: the finite Poisson sum
  (DLMF 8.4.10)

      gamma(s, x) = (s-1)! (1 - Q),  Q = e^E S,
      E = (s-1) log x - x - lgamma(s),
      S = sum_(j<s) prod_(i<=j) (s-i)/x,

  the upper regularized function Q being e^(-x) sum_(k<s) x^k/k! with its
  largest term x^(s-1)/(s-1)! taken out; log gamma = lgamma(s) + log1p(-Q).
  Every term of S is at most 1 (s - i < x), so nothing overflows at any
  finite x, and Q = P(Poisson(x) < s) is below 1/2 where x >= s, so
  the log1p does not cancel.  S adds term *= (s-j)/x in order; once a
  term is below 2^-54 every later one is too, and the sum stops, which
  changes no bit.  An array of orders runs the passes that its largest
  order needs at its smallest x: the factor (s-j)/x is exactly 0 at
  j = s, so each element keeps the bits of its own sum.  lgamma of
  integer orders comes from a table built once, of exact sums
  (math.fsum) of the rounded logs of 2..s-1: correctly rounded at 125 of
  the 128 orders, where math.lgamma is off by up to 3.2 ulps and left the
  route about an ulp low in log gamma at s = 5.  Where E < -700, Q is set
  to exactly 0 and np.exp is not called there: on 10^4 elements it costs
  1.3 ns an element for ordinary arguments, about 22 ns where the result
  is 0 and 130-200 ns where it is subnormal, and E reaches about -11 000
  in count p.m.f.s at (a, lambda) = (110, 0.04).  No scipy.

  The cap on s bounds the loop.  S needs s - 1 passes at most, fewer
  once its terms fall below 2^-54: at x = s that takes about 7.4 sqrt(s)
  passes, and at x >= 10 s about 16.  On 10^4 elements with x in
  [s, s + 3 sqrt(s) + 5] (2-vCPU x86-64 host, best of 9 timeit repeats,
  ranges over two runs on a noisy host) the sum took 0.4-0.8 ms against
  2.1-2.6 ms for scipy's gammainc with gammaln at s = 21, 1.0-1.3
  against 2.7-2.8 ms at s = 64, 1.6-1.7 against 2.8-3.7 ms at s = 128,
  and 2.6 against 2.7 ms at s = 256, where the two break even.  Element
  by element a pass costs about 75 ns in Python floats against about
  3 us for one gammainc element, so there the sum loses past s of about
  40, by up to 4 us at the cap.  The cap is 128: it keeps the arrays'
  gain and bounds that loss.  One call makes at
  most 127 passes: 83 at x = s = 128, fewer at larger x, and all 127
  only where an array of orders pairs order 128 with an x far below it.
* finite 8 < x < s and x <= 128, any real s: the ascending series of
  the first route run to convergence, term t_k = t_(k-1) x/(s+k) from
  t_0 = 1, summed in order in passes of term *= x/(s+k), total += term.
  Every ratio x/(s+k) is below 1 where x < s, so the rounded terms fall
  from 1; once one is below 2^-54 of the sum, under half an ulp of it,
  every later one is too, and the sum stops, which changes no bit.  An
  array runs the same passes on all its elements until each element's
  own last term is absorbed: the terms an element adds past its own stop
  leave its sum as it is, so it keeps the bits of its own sum.  It
  checks its terms every 8 passes and drops the absorbed elements once
  they are at least half of those left; with one order it first runs
  the passes of its largest x, the slowest element.  No scipy.

  One element needs 34 passes at s -> x -> 8, 49 at (21, 20.99), 100 at
  (115, 114.4) and up to 105 where s is just above an x near 128.  A
  call runs at most 7 passes past its slowest element, so one call makes
  at most 112 passes.  No term exceeds 1, whatever x, so the cap on x
  stands only for cost against gammainc.  On 10^4 elements (2-vCPU
  x86-64 host, best of 9 timeit repeats, ranges over three runs on a
  noisy host) the series took 0.9-1.0 ms against 2.3-3.5 ms for the
  fourth route at s = 21 and x in (8, 21), the band of the arrival-epoch
  densities, and 1.7-2.5 against 2.2-3.3 ms for a made-up mix of s in
  (8, 2000) with x in (8, min(s, 128)).  On orders 115..2001 at
  x = 114.4 it took 0.5-0.8 against 0.3-0.5 ms: gammainc underflows at
  most of those orders, and there the fourth route sums this series in
  a few passes, while here order 115 needs 100.  Element by element it
  takes 7-18 us against 1.5-2.8 us for gammainc.  The cap is 128, the
  cap of the finite Poisson sum: no integer order at x <= 128 loads
  scipy.
* otherwise (non-integer s <= x, such as the moments' orders at large
  x, x > 128 or x = inf): the regularized scipy.special.gammainc, times
  Gamma(s) through gammaln of the order as given (never its broadcast).
  Where the regularized function underflows (x much smaller than s, as
  in count p.m.f.s with large totals) the elements take the series of
  the third route, at any x.  At large s, near that underflow, the series
  is long: an element whose term 10 000 is not yet below 2^-54 of its
  sum is NaN, with one RuntimeWarning, since the sum so far is not the
  answer (at s = 1e10 and x = s - 38 sqrt(s) it leaves gamma 2.2 % low).
  Calls of a few elements take the same ufuncs one element at a time.

scipy.special is imported only when some element takes the fourth route:
importing it takes about 0.26 s, more than half the wall time of a short
CLI command, while every integer order at x <= 128 needs only the first
three.  Count p.m.f.s, arrival-epoch densities and posterior means reach
this module only at kernel orders of 128 and above (gamma orders of 129
and above), which the first and third routes serve wherever
a (lambda + t) <= 128; so they load scipy only where both exceed 128.  A
repeat import inside a call is a dictionary lookup.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

__all__ = ["log_lower_incomplete_gamma"]

# Elements with x at most this take the fixed-length series.
_SERIES_X_MAX = 8.0
# Terms k = 0.._FIXED_TERMS - 1 of the fixed-length series.
_FIXED_TERMS = 43
# A term below this times the sum is under half an ulp of it; the fixed-length
# and Poisson sums, at least 1, stop on a term below this itself.
_ABSORBED = 2.0**-54
# Calls with at most this many elements run element by element in Python
# floats: a numpy pass costs about a microsecond however few its elements,
# and the array series makes three to five passes per term.
_PER_ELEMENT_MAX = 16

# Integer orders up to this, with s <= x and x > 8, take the finite Poisson
# sum: at most _SUM_MAX_ORDER - 1 passes per call (see the module docstring).
_SUM_MAX_ORDER = 128
# log gamma(k) = log (k-1)! of the integer orders k = 1.._SUM_MAX_ORDER, at
# their own index: exact sums of the rounded logs of 2..k-1.  These are the
# correctly rounded values at 125 of the 128 orders; math.lgamma misses at
# 58 of them, by up to 3.2 ulps (log 2 at k = 3)
_LOGS = [math.log(j) for j in range(2, _SUM_MAX_ORDER)]
_LGAMMA = np.array(
    [math.nan, 0.0] + [math.fsum(_LOGS[: k - 2]) for k in range(2, _SUM_MAX_ORDER + 1)]
)
# Below this, Q <= 128 e^E is under 2e-302 and 1 - Q rounds to 1: Q is 0.
_EXP_FLOOR = -700.0

# Elements with 8 < x < s and x at most this take the converged ascending
# series (see the module docstring for the cost this bounds).
_ASCENDING_X_MAX = 128.0

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


def _poisson_sum(s: float, x: float) -> tuple[float, int]:
    """S = sum_(j<s) prod_(i<=j) (s-i)/x at one element in Python floats, and
    the index of the first pass it left out (s if none).

    The factors (s-j)/x fall with j and are below 1 where s <= x, and the
    rounded terms fall too: once one is below _ABSORBED, so is every later
    term, and stopping there gives the bits of all s - 1 passes.
    """
    order = int(s)
    term = total = 1.0
    # factor = s - j, an integer and so exact as a float
    for factor in range(order - 1, 0, -1):
        term *= factor / x
        if term < _ABSORBED:
            return total, order - factor
        total += term
    return total, order


def _log_poisson(s: np.ndarray, x: np.ndarray) -> np.ndarray:
    """log gamma(s, x) by the finite Poisson sum, for integer s <= x, finite
    x > 8 and s <= _SUM_MAX_ORDER.

    Each element gets exactly the bits of _log_poisson_one.  Every rounded
    term grows with s and falls with x, so the passes stop where
    _poisson_sum stops at the largest s and the smallest x; with an array
    of orders, the terms of an element past its own order are exactly 0.
    """
    shape = np.broadcast_shapes(s.shape, x.shape)
    stop = _poisson_sum(float(s.max()), float(x.min()))[1]
    if s.ndim == 0:
        s_j, lgamma = float(s), float(_LGAMMA[int(s)])
    else:
        s_j, lgamma = s, _LGAMMA[s.astype(np.intp)]
    term = np.ones(shape)
    total = np.ones(shape)
    ratio = np.empty(shape)
    for j in range(1, stop):
        np.divide(s_j - j, x, out=ratio)
        term *= ratio
        total += term
    e = (s_j - 1.0) * np.log(x) - x - lgamma
    q = np.zeros(shape)
    np.exp(e, out=q, where=e >= _EXP_FLOOR)
    q *= total
    return lgamma + np.log1p(-q)


def _log_poisson_one(s: float, x: float):
    """_log_poisson at one element, in Python floats and np.exp/log/log1p."""
    lgamma = float(_LGAMMA[int(s)])
    e = (s - 1.0) * np.log(x) - x - lgamma
    q = np.exp(e) * _poisson_sum(s, x)[0] if e >= _EXP_FLOOR else 0.0
    return lgamma + np.log1p(-q)


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
    """log gamma(s, x) by the converged ascending series, for x < s.

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
    if s <= x < math.inf and s <= _SUM_MAX_ORDER and s.is_integer():
        return _log_poisson_one(s, x)
    if not (x < s and x <= _ASCENDING_X_MAX):
        from scipy import special as sp

        reg = sp.gammainc(s, x)
        if reg > _REGULARIZED_FLOOR:
            return np.log(reg) + sp.gammaln(s)
    total = _ascending_sum(s, x)[0]
    if math.isnan(total):
        warnings.warn(_CAP_WARNING, RuntimeWarning)
    return s * np.log(x) - x - np.log(s) + np.log(total)


def _poisson_mask(s: np.ndarray, x: np.ndarray, small: np.ndarray) -> np.ndarray:
    """Where the finite Poisson sum serves: finite x > 8, integer s <= x,
    s <= the cap.  (At x = inf the terms would make 0 * inf.)"""
    finite = x < np.inf
    if s.ndim:
        return ~small & finite & (x >= s) & (s == np.floor(s)) & (s <= _SUM_MAX_ORDER)
    order = float(s)
    if not (order <= _SUM_MAX_ORDER and order.is_integer()):
        return np.zeros(x.shape, dtype=bool)
    # x >= s > 8 already puts x past the series route
    return finite & (x >= order if order > _SERIES_X_MAX else ~small)


def _ascending_mask(s: np.ndarray, x: np.ndarray, small: np.ndarray) -> np.ndarray:
    """Where the converged ascending series serves: 8 < x < s, x <= the cap."""
    return ~small & (x < s) & (x <= _ASCENDING_X_MAX)


def log_lower_incomplete_gamma(s, x):
    """log of gamma(s, x), usable where gamma(s, x) itself underflows.

    Each element takes the fixed-length series where x <= 8, the finite
    Poisson sum where x > 8 and s is an integer up to min(x, 128), the
    converged ascending series where 8 < x < s and x <= 128, and scipy's
    regularized function otherwise (see the module docstring); a call
    loads scipy only if some element takes that last route.  Returns
    -inf at x = 0.  Raises ValueError for s <= 0, s = inf or x < 0.
    Accepts scalars or arrays, broadcast against each other.
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
    small = x <= _SERIES_X_MAX
    poisson = _poisson_mask(s, x, small)
    ascending = _ascending_mask(s, x, small)
    routes = [
        (route, mask)
        for route, mask in (
            (_log_fixed, small),
            (_log_poisson, poisson),
            (_log_ascending, ascending),
            (_log_regularized, ~(small | poisson | ascending)),
        )
        if mask.any()
    ]
    if len(routes) == 1:
        return routes[0][0](s, x)
    # each route takes its elements by index (cheaper than a boolean mask),
    # and a scalar order stays a scalar
    shape = pairs.shape
    x_b = np.broadcast_to(x, shape).ravel()
    s_b = s if s.ndim == 0 else np.broadcast_to(s, shape).ravel()
    out = np.empty(x_b.size)
    for route, mask in routes:
        index = np.flatnonzero(np.broadcast_to(mask, shape))
        out[index] = route(s_b if s.ndim == 0 else s_b.take(index), x_b.take(index))
    return out.reshape(shape)
