"""Lower incomplete gamma function, direct and in log space.

    gamma(s, x) = integral_0^x u^(s-1) e^(-u) du

The mixing kernel in minuexp._mixture builds every closed form of the
family from log gamma(s, x); nothing else in the package needs incomplete
gamma algebra.  The regularized scipy.special routine, times Gamma(s)
through gammaln of the order as given, backs the ordinary range; a
log-space ascending series covers arguments where the regularized function
underflows (x much smaller than s), which happens in count p.m.f.
evaluations with large totals.  The series is vectorized: all elements
that need it are summed together, block by block, each with the terms and
stopping point of the scalar recurrence.  The direct gamma(s, x) serves
the validation report's reference rows; past s = 171.6, where Gamma(s)
overflows, it is the exponential of the log form.

scipy.special is imported inside the two functions, not at module level,
so that `import minuexp` loads no scipy: loading it is more than half the
wall time of a short CLI command that never evaluates the kernel
(`eval --fn hazard`, `sample`, `fit`).  A repeat import inside a call is
a dictionary lookup.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["lower_incomplete_gamma", "log_lower_incomplete_gamma"]

# Below this the regularized lower gamma is too close to the underflow
# threshold to take a log of safely.
_REGULARIZED_FLOOR = 1e-290

# The ascending series adds terms until one falls below _SERIES_TOL of the
# running sum, or until the term index passes _SERIES_CAP, converged or not.
# One pass adds at most _SERIES_MAX_WIDTH terms to each element.
_SERIES_TOL = 1e-18
_SERIES_CAP = 10_000
_SERIES_MAX_WIDTH = 512


def _validate_args(s, x) -> tuple[np.ndarray, np.ndarray]:
    s = np.asarray(s, dtype=float)
    x = np.asarray(x, dtype=float)
    if not ((s > 0.0) & (s < np.inf)).all():
        raise ValueError("shape argument s must be a finite positive real")
    if not (x >= 0.0).all():
        raise ValueError("limit argument x must be a nonnegative real")
    return s, x


def lower_incomplete_gamma(s, x):
    """Non-regularized lower incomplete gamma function gamma(s, x).

    Raises ValueError for s <= 0 or x < 0.  Accepts scalars or arrays.
    """
    from scipy import special as sp

    s, x = _validate_args(s, x)
    gamma_s = sp.gamma(s)
    # Gamma(s) overflows past s = 171.6 (inf * 0 is NaN); take the log route
    # there, where gamma(s, x) overflows only if its true value does
    overflow = np.isinf(gamma_s)
    with np.errstate(invalid="ignore", over="ignore"):
        out = sp.gammainc(s, x) * gamma_s
        if overflow.any():
            out = np.where(overflow, np.exp(log_lower_incomplete_gamma(s, x)), out)
    return out if out.ndim else float(out)


def _log_series(s: np.ndarray, x: np.ndarray) -> np.ndarray:
    """log gamma(s, x) by the ascending series, stable for x << s; 1-d s, x > 0.

    gamma(s, x) = x^s e^(-x) / s * (1 + x/(s+1) + x^2/((s+1)(s+2)) + ...)

    Each element adds its terms in order and stops at the first term below
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
            return s * np.log(x) - x - np.log(s) + np.log(totals)
        active, s_a, x_a = active[going], s_a[going], x_a[going]
        term, total = terms[going, -1], sums[going, -1]
        k0 += width
        width = min(2 * width, _SERIES_MAX_WIDTH)


def log_lower_incomplete_gamma(s, x):
    """log of gamma(s, x), usable where gamma(s, x) itself underflows.

    Routes through the regularized scipy function, with gammaln taken on
    the order as given (not on its broadcast), when that is comfortably
    above the underflow threshold; otherwise sums the ascending series in
    log space, vectorized over the elements that need it.  Returns -inf at
    x = 0.
    """
    from scipy import special as sp

    s, x = _validate_args(s, x)
    reg = sp.gammainc(s, x)
    with np.errstate(divide="ignore"):
        out = np.asarray(np.log(reg) + sp.gammaln(s))
    series = (reg <= _REGULARIZED_FLOOR) & (x > 0.0)
    if series.any():
        s_b, x_b = np.broadcast_arrays(s, x)
        out[series] = _log_series(s_b[series], x_b[series])
    return out if out.ndim else float(out)
