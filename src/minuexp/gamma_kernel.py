"""Lower incomplete gamma function in log space, and the converged ascending
series it shares with the mixing kernel.

    gamma(s, x) = integral_0^x u^(s-1) e^(-u) du

The series.  With T_0 = 1 and T_k = T_(k-1) x/(s+k), the ascending series
(DLMF 8.7.1, A&S 6.5.29) is gamma(s, x) = x^s e^(-x) / s * sum_k T_k.  The
engine here sums the weighted series

    sum_k T_k w_k,   w_k = u + v f_k,   f_k = (k+1)/(s+1+k),

with (u, v) = (1, theta) where theta <= 1 and (1/theta, 1) where theta > 1;
in the second case the sum is the one over theta, and the caller adds
log theta.  At theta = 0 every w_k is exactly 1 and the sum is the gamma
series itself.  At gamma order s + 1 of a kernel order s and theta =
lambda a it is Kummer's series of the mixing kernel's route A (see
minuexp._mixture), whose P0 part is this gamma series.  Every term is
positive and no sum overflows at any finite theta.

Each pass takes term *= x/(s+k), then the weighted term, then adds it.  The
ratio of consecutive weighted terms, x/(s+k) times w_k/w_(k-1), falls with
k (the first as it rounds monotonically, the second as w_k rises by ever
smaller steps), so the weighted terms rise and then fall.  Once a
weighted term is below 2^-54 of the sum, under half an ulp of it,
every later one is too, and the sum stops, which changes no bit.  An array
runs the same passes on all its elements until each element's own last
term is absorbed: the terms an element adds past its own stop leave its
sum as it is, so it keeps the bits of its own sum, whatever the call's
shape or its other elements.  It checks its terms every 8 passes and drops
the absorbed elements once they are at least half of those left; with one
order it first runs the passes of its largest x, the slowest element.
_ascending_sum is the same sum at one element in Python floats, whose
+ * / are the same IEEE operations as numpy's.  An element whose term
_SERIES_CAP = 10 000 is not yet absorbed is NaN, without a warning; the
caller decides what to do with it.

The incomplete gamma.  The mixing kernel takes log gamma(s, x) only on its
route C (see minuexp._mixture); minuexp.validation calls it too, at orders
up to 5, in the rejected closed-form variants it checks.  Each element
takes one of two routes, chosen by its own x:

* x <= 8, any real s: the series above at theta = 0.  At x <= 8 one
  element needs at most 42 passes, as s -> 0 at x = 8, where the terms
  are 8^k/k! (tests/test_gamma_kernel.py re-derives the bound).  No
  scipy.
* x > 8: the regularized scipy.special.gammainc, times Gamma(s) through
  gammaln of the order as given (never its broadcast).  Where the
  regularized value is at or below 1e-290, too close to underflow to take
  a log of, the element is NaN, with one RuntimeWarning per call.  x far
  below s takes that outcome; route C sends such elements only at kernel
  orders above about 1e8, in its cap band.

scipy.special is imported only when some element takes the second route:
importing it takes about 0.26 s, more than half the wall time of a short
CLI command.  A repeat import inside a call is a dictionary lookup.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

__all__: list[str] = []

# Elements with x at most this take the series; the others take gammainc.
_SERIES_X_MAX = 8.0
# A term below this times the sum is under half an ulp of it.
_ABSORBED = 2.0**-54

# At or below this the regularized lower gamma is too close to the
# underflow threshold to take a log of.
_REGULARIZED_FLOOR = 1e-290
_UNDERFLOW_WARNING = (
    f"regularized incomplete gamma at or below {_REGULARIZED_FLOOR:g}; returning NaN"
)

# The series gives up, with NaN, on an element whose term _SERIES_CAP is
# still not absorbed; an array checks its terms once every _CHECK_PASSES
# passes.
_SERIES_CAP = 10_000
_CHECK_PASSES = 8

_S_DOMAIN = "shape argument s must be a finite positive real"
_X_DOMAIN = "limit argument x must be a nonnegative real"


def _weights(theta: float) -> tuple[float, float, float]:
    """(u, v, log_out) of the weights w_k = u + v f_k: (1, theta, 0) where
    theta <= 1, and (1/theta, 1, log theta), for the sum over theta,
    otherwise."""
    if theta <= 1.0:
        return 1.0, theta, 0.0
    return 1.0 / theta, 1.0, math.log(theta)


def _ascending_sum(s: float, x: float, theta: float = 0.0) -> tuple[float, int]:
    """The weighted series sum_k T_k w_k at one element in Python floats,
    and the index of the last term it added; NaN if term _SERIES_CAP is not
    yet absorbed (see the module docstring)."""
    u, v, _ = _weights(theta)
    d = s + 1.0
    term = 1.0
    total = u + v * (1.0 / d)
    for k in range(1, _SERIES_CAP + 1):
        term *= x / d
        d = s + (k + 1)
        weighted = term * (u + v * ((k + 1) / d)) if v else term
        total += weighted
        if weighted < _ABSORBED * total:
            return total, k
    return math.nan, _SERIES_CAP


def _ascending(s, x, theta: float = 0.0):
    """_ascending_sum over s and x, each a float or a flat array of one
    size, with each element's exact bits: NaN where term _SERIES_CAP is not
    absorbed (see the module docstring for the passes, checks and drops)."""
    if isinstance(s, float) and isinstance(x, float):
        return _ascending_sum(s, x, theta)[0]
    u, v, _ = _weights(theta)
    size = x.size if isinstance(x, np.ndarray) else s.size
    d = s + 1.0
    term = np.ones(size)
    sums = total = np.full(size, u) + v * (1.0 / d)
    ratio, step = np.empty(size), np.empty(size)
    weighted = term
    # the elements still summed: all, until most of them are done
    index = slice(None)
    k = 0
    stop = _CHECK_PASSES
    if isinstance(s, float):
        stop = _ascending_sum(s, float(x.max()), theta)[1]
    while True:
        for k in range(k + 1, stop + 1):
            np.divide(x, d, out=ratio)
            term *= ratio
            d = s + (k + 1) if isinstance(d, float) else np.add(s, k + 1, out=d)
            if v:
                # term (u + v f_k), and v f_k = f_k exactly where v = 1
                weighted = np.divide(k + 1, d, out=step)
                if v != 1.0:
                    weighted *= v
                weighted += u
                weighted *= term
            total += weighted
        going = weighted >= np.multiply(total, _ABSORBED, out=ratio)
        left = np.count_nonzero(going)
        if left == 0 or k == _SERIES_CAP:
            break
        if 2 * left <= going.size:
            # most elements' terms are absorbed: keep their sums, drop them
            sums[index] = total
            index = np.flatnonzero(going) if isinstance(index, slice) else index[going]
            term, total, ratio, step = term[going], total[going], ratio[:left], step[:left]
            s, x, d = (w if isinstance(w, float) else w[going] for w in (s, x, d))
            weighted = term
        stop = min(k + _CHECK_PASSES, _SERIES_CAP)
    if left:
        total[going] = np.nan
    sums[index] = total
    return sums


def _log_from_sum(s, x, total):
    """log gamma(s, x) from the series sum: s log x - x - log s + log(sum)."""
    with np.errstate(divide="ignore"):
        return s * np.log(x) - x - np.log(s) + np.log(total)


def _log_series(s, x):
    """log gamma(s, x) by the series, for x <= 8 (floats or flat arrays)."""
    return _log_from_sum(s, x, _ascending(s, x))


def _log_regularized(s, x):
    """log gamma(s, x) through scipy's regularized function, for x > 8.

    gammaln is taken on the order as given, not on its broadcast; elements
    whose regularized value is at or below _REGULARIZED_FLOOR are NaN, with
    one RuntimeWarning.
    """
    from scipy import special as sp

    reg = sp.gammainc(s, x)
    with np.errstate(divide="ignore"):
        out = np.asarray(np.log(reg) + sp.gammaln(s))
    low = reg <= _REGULARIZED_FLOOR
    if low.any():
        warnings.warn(_UNDERFLOW_WARNING, RuntimeWarning)
        out[low] = np.nan
    return out


def _log_lower_incomplete_gamma(s, x):
    """log of gamma(s, x), usable where gamma(s, x) itself underflows.

    Each element takes the ascending series where x <= 8 and scipy's
    regularized function otherwise (see the module docstring); a call loads
    scipy only if some element takes that second route.  Returns -inf at
    x = 0, and NaN with a RuntimeWarning where the regularized function is
    at or below 1e-290.  Raises ValueError for s <= 0, s = inf or x < 0.
    Accepts scalars or arrays, broadcast against each other.
    """
    if isinstance(s, (float, int)) and isinstance(x, (float, int)):
        s, x = float(s), float(x)
        if not 0.0 < s < math.inf:
            raise ValueError(_S_DOMAIN)
        if not x >= 0.0:
            raise ValueError(_X_DOMAIN)
        return float((_log_series if x <= _SERIES_X_MAX else _log_regularized)(s, x))
    s = np.asarray(s, dtype=float)
    x = np.asarray(x, dtype=float)
    if not ((s > 0.0) & (s < np.inf)).all():
        raise ValueError(_S_DOMAIN)
    if not (x >= 0.0).all():
        raise ValueError(_X_DOMAIN)
    # each route takes its elements by index, and a scalar order stays a
    # float
    shape = np.broadcast_shapes(s.shape, x.shape)
    x_b = np.broadcast_to(x, shape).ravel()
    s_b = float(s) if s.ndim == 0 else np.broadcast_to(s, shape).ravel()
    series = x_b <= _SERIES_X_MAX
    out = np.empty(x_b.size)
    for route, mask in ((_log_series, series), (_log_regularized, ~series)):
        if mask.any():
            index = np.flatnonzero(mask)
            out[index] = route(s_b if isinstance(s_b, float) else s_b.take(index), x_b.take(index))
    return out.reshape(shape) if shape else float(out[0])
