"""Lower incomplete gamma function, direct and in log space.

    gamma(s, x) = integral_0^x u^(s-1) e^(-u) du

The mixing kernel in minuexp._mixture builds every closed form of the
family from log gamma(s, x); nothing else in the package needs incomplete
gamma algebra.  The regularized scipy.special routine backs the ordinary
range; a log-space ascending series covers arguments where the regularized
function underflows (x much smaller than s), which happens in count p.m.f.
evaluations with large totals.  The direct gamma(s, x) serves the
validation report's reference rows.
"""

from __future__ import annotations

import numpy as np
from scipy import special as sp

__all__ = ["lower_incomplete_gamma", "log_lower_incomplete_gamma"]

# Below this the regularized lower gamma is too close to the underflow
# threshold to take a log of safely.
_REGULARIZED_FLOOR = 1e-290


def _validate_args(s, x) -> tuple[np.ndarray, np.ndarray]:
    s = np.asarray(s, dtype=float)
    x = np.asarray(x, dtype=float)
    if np.any(~np.isfinite(s)) or np.any(s <= 0.0):
        raise ValueError("shape argument s must be a finite positive real")
    if np.any(np.isnan(x)) or np.any(x < 0.0):
        raise ValueError("limit argument x must be a nonnegative real")
    return s, x


def lower_incomplete_gamma(s, x):
    """Non-regularized lower incomplete gamma function gamma(s, x).

    Raises ValueError for s <= 0 or x < 0.  Accepts scalars or arrays.
    """
    s, x = _validate_args(s, x)
    out = sp.gammainc(s, x) * sp.gamma(s)
    return out if out.ndim else float(out)


def _log_lower_gamma_series(s: float, x: float) -> float:
    """log gamma(s, x) by the ascending series, stable for x << s.

    gamma(s, x) = x^s e^(-x) / s * (1 + x/(s+1) + x^2/((s+1)(s+2)) + ...)
    """
    if x == 0.0:
        return -np.inf
    total = 1.0
    term = 1.0
    k = 1
    while True:
        term *= x / (s + k)
        total += term
        if term < 1e-18 * total or k > 10_000:
            break
        k += 1
    return s * np.log(x) - x - np.log(s) + np.log(total)


def log_lower_incomplete_gamma(s, x):
    """log of gamma(s, x), usable where gamma(s, x) itself underflows.

    Routes through the regularized scipy function when it is comfortably
    above the underflow threshold, otherwise evaluates the ascending
    series in log space.  Returns -inf at x = 0.
    """
    s, x = _validate_args(s, x)
    s_b, x_b = np.broadcast_arrays(s, x)
    reg = sp.gammainc(s_b, x_b)
    out = np.full(reg.shape, -np.inf)
    safe = reg > _REGULARIZED_FLOOR
    if np.any(safe):
        out[safe] = np.log(reg[safe]) + sp.gammaln(s_b[safe])
    tiny = (~safe) & (x_b > 0.0)
    for idx in np.argwhere(tiny):
        key = tuple(idx)
        out[key] = _log_lower_gamma_series(float(s_b[key]), float(x_b[key]))
    return out if out.ndim else float(out)
