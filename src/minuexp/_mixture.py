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

The polynomial coefficient can go negative for large s while the total
stays positive (the integrand is positive), so the two terms are combined
in log space with sign tracking; a^s, e^(-ac) and c^(s+2) all overflow or
underflow in direct form once s or ac is large.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .gamma_kernel import log_lower_incomplete_gamma

if TYPE_CHECKING:
    from .structure import MinUExpParams

__all__ = ["log_mixing_kernel", "mixing_kernel"]


def log_mixing_kernel(params: MinUExpParams, s, c):
    """log J(s, c) for real order s > -1 and c > 0; broadcasts s against c."""
    a, lam = params.a, params.lam
    s_arr = np.asarray(s, dtype=float)
    if not np.all(np.isfinite(s_arr) & (s_arr > -1.0)):
        raise ValueError("order s must be a finite real greater than -1")
    c_arr = np.asarray(c, dtype=float)
    if np.any(~(c_arr > 0.0)) or np.any(~np.isfinite(c_arr)):
        raise ValueError("tilt argument c must be positive and finite")

    scalar = s_arr.ndim == 0 and c_arr.ndim == 0
    s_b, c_b = np.broadcast_arrays(np.atleast_1d(s_arr), np.atleast_1d(c_arr))
    s_b, c_b = np.ascontiguousarray(s_b), np.ascontiguousarray(c_b)

    q = lam * a * c_b + c_b - lam * (s_b + 1.0)
    with np.errstate(divide="ignore"):
        log_abs_q = np.where(q != 0.0, np.log(np.abs(np.where(q != 0.0, q, 1.0))), -np.inf)
    log_abs_t1 = (
        log_lower_incomplete_gamma(s_b + 1.0, a * c_b)
        + log_abs_q
        - np.log(a)
        - (s_b + 2.0) * np.log(c_b)
    )
    log_t2 = np.log(lam) + s_b * np.log(a) - a * c_b - np.log(c_b)

    out = np.empty(s_b.shape)
    pos = q >= 0.0
    out[pos] = np.logaddexp(log_abs_t1[pos], log_t2[pos])
    neg = ~pos
    if np.any(neg):
        # total = t2 - |t1| is positive because the underlying integrand is
        diff = -np.expm1(log_abs_t1[neg] - log_t2[neg])
        with np.errstate(divide="ignore"):
            out[neg] = log_t2[neg] + np.log(np.maximum(diff, 0.0))
    return float(out[0]) if scalar else out.reshape(np.broadcast_shapes(s_arr.shape, c_arr.shape))


def mixing_kernel(params: MinUExpParams, s, c):
    """J(s, c) itself, evaluated through the log-space path; inf past overflow."""
    with np.errstate(over="ignore"):
        return np.exp(log_mixing_kernel(params, s, c))
