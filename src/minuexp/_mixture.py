"""Shared closed-form kernel of all mixture expressions.

Every density, mass function and moment of the family reduces to

    J(s, c) = E[ xi^s e^(-(c - lambda) xi) ]
            = gamma(s+1, ac) (lambda a c + c - lambda (s+1)) / (a c^(s+2))
              + lambda a^s e^(-ac) / c

with xi ~ Min-U-Exp(a, lambda), real order s > -1 and c > 0 the
exponential tilt shifted by lambda.  Count p.m.f.s and the arrival-epoch
density use integer s; the moments use c = lambda:

    raw moment          E(xi^k)      = J(k, lambda)
    factorial moment    E(N)_k       = mu^k J(k, lambda)
    waiting-time moment E(tau^p)     = Gamma(p+1) J(-p, lambda)
    arrival-epoch moment E(T_n^p)    = Gamma(p+n)/Gamma(n) J(-p, lambda)

The polynomial coefficient q = lambda a c + c - lambda (s+1) can go
negative for large s while the total stays positive (the integrand is
positive), so the two terms are combined in log space with sign tracking;
a^s, e^(-ac) and c^(s+2) all overflow or underflow in direct form once s
or ac is large.  With l1 = log|t1|, l2 = log t2 and m = max(l1, l2) the
combine is one expression over every element, whatever the sign of q:

    log J = m + log(max(sign(q) e^(l1-m) + e^(l2-m), 0))

At q = 0 the t1 term drops out exactly.  Where q < 0 and rounding leaves
the sum non-positive, the clamp gives log J = -inf (J = 0), never NaN.
There is no branch on the sign of q, so a scalar call and the same point
inside any array give the same bits.

A call with 0-d s and c takes a scalar path: the domain checks, q, the
products and sums and the combine run on Python floats, whose + - * are
the IEEE operations numpy applies to each array element, and the
incomplete gamma comes from the public log_lower_incomplete_gamma on two
floats.  Each numpy operation on a 0-d array costs a microsecond or more,
and the array path makes some twenty of them; the scalar path takes
about a fifth of the time.  Its exp, log and log1p are np.exp, np.log
and np.log1p applied to floats, never math's: those can differ from
numpy's in the last bit (math.exp did at s = 1), and the scalar path
must give the bits of the same point inside an array.  At q = 0 it takes
log|q| = -inf without calling np.log, where the array path silences the
divide warning instead.

The module also holds B(x) = x - 1 + e^(-x), A(x) = x - 2 + (x + 2) e^(-x)
and C(x) = 1 - (1 + x) e^(-x) without cancellation (_stable_B, _stable_A,
_stable_C): the moment ratio of the estimators is 2x A(x) / B(x)^2, the
waiting-time c.d.f. is (t/c) B(ac)/(ac) and its density
(lambda B(ac) + t C(ac)) / (ac c^2).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .gamma_kernel import log_lower_incomplete_gamma

if TYPE_CHECKING:
    from .structure import MinUExpParams

__all__ = ["log_mixing_kernel", "mixing_kernel"]

_SERIES_CUTOFF = 1.0
_SERIES_TERMS = 42

# ascending power-series coefficients of
#   B(x) = x - 1 + e^(-x)            = sum_{j>=2} (-1)^j x^j / j!
#   A(x) = x - 2 + (x + 2) e^(-x)    = sum_{j>=3} (-1)^j (2 - j) x^j / j!
_B_COEF = np.array(
    [(-1.0) ** j / math.factorial(j) if j >= 2 else 0.0 for j in range(_SERIES_TERMS)]
)
_A_COEF = np.array(
    [
        (-1.0) ** j * (2.0 - j) / math.factorial(j) if j >= 3 else 0.0
        for j in range(_SERIES_TERMS)
    ]
)


_S_DOMAIN = "order s must be a finite real greater than -1"
_C_DOMAIN = "tilt argument c must be positive and finite"


def _is_scalar(value) -> bool:
    """A number or a 0-d array (cheaper than np.ndim, which converts floats)."""
    return isinstance(value, (int, float, np.number)) or (
        isinstance(value, np.ndarray) and value.ndim == 0
    )


def log_mixing_kernel(params: MinUExpParams, s, c):
    """log J(s, c) for real order s > -1 and c > 0; broadcasts s against c."""
    if _is_scalar(s) and _is_scalar(c):
        return _log_mixing_kernel_one(params.a, params.lam, float(s), float(c))
    a, lam = params.a, params.lam
    s = np.asarray(s, dtype=float)
    if not ((s > -1.0) & (s < np.inf)).all():
        raise ValueError(_S_DOMAIN)
    c = np.asarray(c, dtype=float)
    if not ((c > 0.0) & (c < np.inf)).all():
        raise ValueError(_C_DOMAIN)

    log_c = np.log(c)
    q = lam * a * c + c - lam * (s + 1.0)
    with np.errstate(divide="ignore"):
        log_abs_q = np.log(np.abs(q))
    log_abs_t1 = (
        log_lower_incomplete_gamma(s + 1.0, a * c)
        + log_abs_q
        - np.log(a)
        - (s + 2.0) * log_c
    )
    log_t2 = np.log(lam) + s * np.log(a) - a * c - log_c

    # the single combine of the module docstring; shifting by m keeps both
    # exponentials in [0, 1] however far |t1| exceeds t2 where q > 0
    with np.errstate(divide="ignore"):
        m = np.maximum(log_abs_t1, log_t2)
        total = np.copysign(np.exp(log_abs_t1 - m), q) + np.exp(log_t2 - m)
        out = m + np.log(np.maximum(total, 0.0))
    return out if out.ndim else float(out)


def _log_mixing_kernel_one(a: float, lam: float, s: float, c: float) -> float:
    """log_mixing_kernel at one point, in the array path's operations and
    order on Python floats (see the module docstring)."""
    if not -1.0 < s < math.inf:
        raise ValueError(_S_DOMAIN)
    if not 0.0 < c < math.inf:
        raise ValueError(_C_DOMAIN)
    log_a, log_c = float(np.log(a)), float(np.log(c))
    q = lam * a * c + c - lam * (s + 1.0)
    log_abs_q = float(np.log(abs(q))) if q != 0.0 else -math.inf
    log_abs_t1 = (
        log_lower_incomplete_gamma(s + 1.0, a * c) + log_abs_q - log_a - (s + 2.0) * log_c
    )
    log_t2 = float(np.log(lam)) + s * log_a - a * c - log_c
    # np.maximum's choice, NaN included, without its microsecond
    m = log_abs_t1 if log_abs_t1 >= log_t2 or log_abs_t1 != log_abs_t1 else log_t2
    total = math.copysign(float(np.exp(log_abs_t1 - m)), q) + float(np.exp(log_t2 - m))
    return m + (float(np.log(total)) if not total <= 0.0 else -math.inf)


def mixing_kernel(params: MinUExpParams, s, c):
    """J(s, c) itself, evaluated through the log-space path; inf past overflow."""
    with np.errstate(over="ignore"):
        return np.exp(log_mixing_kernel(params, s, c))


def _stable_B(x: np.ndarray) -> np.ndarray:
    """x - 1 + e^(-x) without cancellation (series below the cutoff)."""
    small = x < _SERIES_CUTOFF
    out = np.empty_like(x)
    # each branch only where it has elements: the series alone is some 40
    # numpy calls, costly even on an empty selection
    if small.any():
        out[small] = np.polynomial.polynomial.polyval(x[small], _B_COEF)
    if not small.all():
        out[~small] = x[~small] + np.expm1(-x[~small])
    return out


def _stable_A(x: np.ndarray) -> np.ndarray:
    """x - 2 + (x + 2) e^(-x) without cancellation."""
    small = x < _SERIES_CUTOFF
    out = np.empty_like(x)
    if small.any():
        out[small] = np.polynomial.polynomial.polyval(x[small], _A_COEF)
    if not small.all():
        xb = x[~small]
        out[~small] = xb - 2.0 + (xb + 2.0) * np.exp(-xb)
    return out


def _stable_C(x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """1 - (1 + x) e^(-x) without cancellation, given b = _stable_B(x).

    Below the cutoff it is B(x) - A(x), with A(x) < B(x)/3 there; above it,
    -expm1(-x) - x e^(-x), whose second term is at most 0.58 of the first.
    """
    small = x < _SERIES_CUTOFF
    out = np.empty_like(x)
    if small.any():
        out[small] = b[small] - _stable_A(x[small])
    if not small.all():
        xb = x[~small]
        out[~small] = -np.expm1(-xb) - xb * np.exp(-xb)
    return out
