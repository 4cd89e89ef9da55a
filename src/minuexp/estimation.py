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

Least squares: minimize the squared gap between the empirical distribution
function at the observations and the closed-form c.d.f., over
a >= max observation and lambda >= 0, with a derivative-free simplex.
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

    lo = 1e-8
    hi = 1.0
    for _ in range(200):
        if ratio_G(hi) > r_hat:
            break
        hi *= 2.0
    else:  # unreachable for r_hat < 2; defensive
        return FitResult(
            a_hat=math.inf,
            lambda_hat=1.0 / m1,
            method="mom",
            converged=False,
            r_hat=r_hat,
            diagnostic="bracket expansion failed",
        )
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

    Objective: sum over observations of (Fhat(x_i) - F(x_i; a, lambda))^2,
    with the empirical value taken at the data points, jumps included.
    Constraints a >= max observation, lambda >= 0; Nelder-Mead simplex
    started from the method-of-moments fit when it is usable.  The bounds
    clip every vertex into the constraint set and the sample is positive,
    so every observation lies in (0, a] and the objective evaluates the
    c.d.f. body 1 - e^(-lambda x) + (x/a) e^(-lambda x) without masks; it
    stays continuous at lambda = 0, the pure uniform.  iterations and
    evaluations report the simplex's iteration and objective-call counts.
    """
    from scipy.optimize import Bounds, minimize

    arr = _validate_sample(values)
    x_max = float(np.max(arr))
    m1 = float(np.mean(arr))
    ecdf_at_obs = EmpiricalCdf(arr)(arr)

    mom = fit_mom(arr)
    if mom.converged and mom.lambda_hat > 0.0 and math.isfinite(mom.a_hat):
        start = (max(mom.a_hat, x_max), mom.lambda_hat)
    else:
        start = (1.05 * x_max, 1.0 / m1)

    def objective(theta):
        a, lam = theta
        e = np.exp(-lam * arr)
        return float(np.sum((ecdf_at_obs - (1.0 - e + arr / a * e)) ** 2))

    result = minimize(
        objective,
        x0=np.asarray(start),
        method="Nelder-Mead",
        bounds=Bounds(lb=[x_max, 0.0], ub=[np.inf, np.inf]),
        options={"maxiter": 4000, "maxfev": 8000, "xatol": 1e-10, "fatol": 1e-12},
    )
    return FitResult(
        a_hat=float(result.x[0]),
        lambda_hat=float(result.x[1]),
        method="lsq",
        converged=bool(result.success),
        r_hat=float(np.mean(arr**2)) / m1**2,
        objective=float(result.fun),
        diagnostic=None if result.success else str(result.message),
        iterations=int(result.nit),
        evaluations=int(result.nfev),
    )
