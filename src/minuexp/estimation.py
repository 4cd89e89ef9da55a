"""Parameter estimation for Min-U-Exp samples.

Method of moments: with x = a lambda, the moment ratio E(xi^2)/(E xi)^2
equals

    G(x) = 2x (x - 2 + x e^(-x) + 2 e^(-x)) / (x - 1 + e^(-x))^2,

which increases from 4/3 (x -> 0) to 2 (x -> inf).  A sample ratio inside
(4/3, 2) pins x by root finding and the first-moment equation then gives
lambda = (x - 1 + e^(-x)) / (x m1) and a = x / lambda.  A ratio at or
below 4/3 degenerates to the uniform-only fit (lambda = 0, a = maximum
observation); a ratio at or above 2 is outside the family and is reported
as non-convergence with a pure-exponential diagnostic.

Least squares: fit the c.d.f. to the empirical one by one bounded search
over lambda, with 1/a solved in closed form at each step (see fit_lsq).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

__all__ = [
    "FitResult",
    "EmpiricalCdf",
    "empirical_moments",
    "ratio_G",
    "fit_mom",
    "fit_mom_from_moments",
    "ecdf",
    "fit_lsq",
]

_G_LOWER = 4.0 / 3.0
_G_UPPER = 2.0
_SERIES_CUTOFF = 1.0
_SERIES_TERMS = 42
_RATE_MAX = 4.0  # fit_lsq's bracket [0, _RATE_MAX] for v = lambda * mean
_RATE_TOL = 1e-8  # and its absolute tolerance in v

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


@dataclass(frozen=True)
class FitResult:
    """Fitted (a, lambda) pair plus method diagnostics."""

    a_hat: float
    lambda_hat: float
    method: str
    converged: bool
    r_hat: float | None = None
    x_star: float | None = None
    objective: float | None = None
    diagnostic: str | None = None
    iterations: int | None = None  # optimizer iterations (lsq only)
    evaluations: int | None = None  # objective evaluations (lsq only)

    def to_dict(self) -> dict:
        """JSON-ready mapping; non-finite numbers become None."""
        out = asdict(self)
        for key, value in out.items():
            if isinstance(value, float) and not math.isfinite(value):
                out[key] = None
        return out


def _validate_sample(values, min_size: int = 2) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size < min_size:
        raise ValueError(f"sample must be a one-dimensional vector of at least {min_size} values")
    if np.any(~np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ValueError("sample values must be finite and positive")
    # sorting fixes the summation order, making the fitters exactly
    # invariant to the ordering of the input sample
    return np.sort(arr)


def empirical_moments(values) -> tuple[float, float]:
    """First two raw sample moments (mean, mean of squares)."""
    arr = _validate_sample(values)
    return float(np.mean(arr)), float(np.mean(arr**2))


def _stable_B(x: np.ndarray) -> np.ndarray:
    """x - 1 + e^(-x) without cancellation (series below the cutoff)."""
    small = x < _SERIES_CUTOFF
    out = np.empty_like(x)
    out[small] = np.polynomial.polynomial.polyval(x[small], _B_COEF)
    out[~small] = x[~small] + np.expm1(-x[~small])
    return out


def _stable_A(x: np.ndarray) -> np.ndarray:
    """x - 2 + (x + 2) e^(-x) without cancellation."""
    small = x < _SERIES_CUTOFF
    out = np.empty_like(x)
    out[small] = np.polynomial.polynomial.polyval(x[small], _A_COEF)
    xb = x[~small]
    out[~small] = xb - 2.0 + (xb + 2.0) * np.exp(-xb)
    return out


def ratio_G(x):
    """Moment-ratio function G(x) = 2x A(x) / B(x)^2, strictly in (4/3, 2).

    Stable down to arbitrarily small positive x; raises for x <= 0.
    """
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if np.any(~(arr > 0.0)) or np.any(~np.isfinite(arr)):
        raise ValueError("ratio argument x must be a finite positive real")
    out = 2.0 * arr * _stable_A(arr) / _stable_B(arr) ** 2
    return float(out[0]) if scalar else out


def fit_mom_from_moments(m1: float, m2: float, x_max: float | None = None) -> FitResult:
    """Method-of-moments fit from raw moments (m1, m2).

    x_max (the largest observation) is required only when the uniform
    fallback triggers, where it is the natural estimate of a.
    """
    from scipy.optimize import brentq

    if not (math.isfinite(m1) and m1 > 0.0 and math.isfinite(m2) and m2 > 0.0):
        raise ValueError("moments m1 and m2 must be finite and positive")
    if m2 - m1**2 <= 0.0:
        return FitResult(
            a_hat=x_max if x_max is not None else m1,
            lambda_hat=0.0,
            method="mom",
            converged=False,
            r_hat=m2 / m1**2,
            diagnostic="degenerate sample: zero variance, moment ratio out of range",
        )
    r_hat = m2 / m1**2

    if r_hat <= _G_LOWER:
        if x_max is None:
            raise ValueError("uniform fallback needs the maximum observation x_max")
        return FitResult(
            a_hat=float(x_max),
            lambda_hat=0.0,
            method="mom",
            converged=True,
            r_hat=r_hat,
            diagnostic="moment ratio at or below 4/3: uniform-only fit (lambda = 0)",
        )
    if r_hat >= _G_UPPER:
        return FitResult(
            a_hat=math.inf,
            lambda_hat=1.0 / m1,
            method="mom",
            converged=False,
            r_hat=r_hat,
            diagnostic=(
                "moment ratio at or above 2: outside the family, consistent with a"
                " pure exponential regime (a -> inf, lambda ~ 1/m1)"
            ),
        )

    # G rises from 4/3 to 2, so widening each end until it brackets r_hat
    # ends: G(x) rounds to 4/3 for x near 1e-16 and to 2.0 by x = 2^60
    lo, hi = 1e-8, 1.0
    while ratio_G(lo) >= r_hat:
        lo *= 0.5
    while ratio_G(hi) <= r_hat:
        hi *= 2.0
    x_star = brentq(lambda x: ratio_G(x) - r_hat, lo, hi, xtol=1e-14, rtol=8.9e-16)
    converged = abs(ratio_G(x_star) - r_hat) <= 1e-10
    lambda_hat = float(_stable_B(np.array([x_star]))[0]) / (x_star * m1)
    return FitResult(
        a_hat=x_star / lambda_hat,
        lambda_hat=lambda_hat,
        method="mom",
        converged=converged,
        r_hat=r_hat,
        x_star=float(x_star),
    )


def fit_mom(values) -> FitResult:
    """Method-of-moments fit of a positive sample (size >= 2)."""
    arr = _validate_sample(values)
    m1, m2 = empirical_moments(arr)
    return fit_mom_from_moments(m1, m2, x_max=float(np.max(arr)))


class EmpiricalCdf:
    """Right-continuous step function with jumps 1/n at the order statistics."""

    def __init__(self, values):
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("sample must be a nonempty one-dimensional vector")
        if np.any(~np.isfinite(arr)):
            raise ValueError("sample values must be finite")
        self._sorted = np.sort(arr)
        self.n = arr.size

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        out = np.searchsorted(self._sorted, arr, side="right") / self.n
        return float(out) if arr.ndim == 0 else out


def ecdf(values) -> EmpiricalCdf:
    """Empirical distribution function of a sample."""
    return EmpiricalCdf(values)


def fit_lsq(values) -> FitResult:
    """Least-squares fit of the c.d.f. against the empirical one.

    Minimizes sum_i (Fhat(x_i) - F(x_i))^2, Fhat taken at the observations
    with its jumps, over a >= max observation and lambda >= 0.  F is linear
    in theta = 1/a on (0, a], so for each lambda the best theta is a clipped
    ratio of dot products, and one bounded search over v = lambda * mean in
    [0, 4] does the rest (variable projection: Golub and Pereyra, SIAM J.
    Numer. Anal. 10, 1973); the population has v < 1.  Both ends are tried
    too; the best v wins, the smaller on a tie, so a pure-uniform sample
    gives lambda = 0 exactly.  diagnostic names each boundary reached:
    theta = 0 is a_hat = inf, still converged; the upper end of v is not.
    """
    from scipy.optimize import minimize_scalar

    arr = _validate_sample(values)
    m1 = float(np.mean(arr))
    u = arr / m1  # in units of the mean the fit is exactly scale-equivariant
    phi_max = 1.0 / float(u[-1])
    one_minus_ecdf = 1.0 - EmpiricalCdf(arr)(arr)
    trials = {}  # rate v -> (objective, phi = theta * mean)

    def objective(v):
        e = np.exp(-v * u)
        y = e - one_minus_ecdf
        z = u * e
        phi = min(max(float(y @ z) / float(z @ z), 0.0), phi_max)
        r = y - phi * z
        trials[float(v)] = (float(r @ r), phi)
        return trials[float(v)][0]

    objective(0.0)
    objective(_RATE_MAX)
    search = minimize_scalar(
        objective, bounds=(0.0, _RATE_MAX), method="bounded", options={"xatol": _RATE_TOL}
    )
    v = min(trials, key=lambda t: (trials[t][0], t))
    best, phi = trials[v]
    boundaries = (
        (v == 0.0, "lambda = 0: uniform-only fit"),
        (phi == 0.0, "1/a = 0: pure exponential fit (a -> inf)"),
        (phi == phi_max, "a at the largest observation"),
        (v == _RATE_MAX, "rate at the upper end of the search bracket"),
    )
    return FitResult(
        a_hat=max(m1 / phi, float(arr[-1])) if phi else math.inf,  # rounding: a >= x_max
        lambda_hat=v / m1,
        method="lsq",
        converged=bool(search.success) and v != _RATE_MAX,
        r_hat=float(np.mean(arr**2)) / m1**2,
        objective=best,
        diagnostic="; ".join(text for hit, text in boundaries if hit) or None,
        iterations=int(search.nit),
        evaluations=int(search.nfev) + 2,
    )
