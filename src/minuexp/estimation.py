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

Both fits use local solvers and import no scipy: the moment equation is
solved by k-section on the bit patterns of doubles, one vector G call per
round, and the least-squares search is Brent's bounded minimizer
(_bounded_brent).  A `fit` command therefore loads numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from ._mixture import _stable_A, _stable_B

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
_RATE_MAX = 4.0  # fit_lsq's bracket [0, _RATE_MAX] for v = lambda * mean
_RATE_TOL = 1e-8  # and its absolute tolerance in v
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))  # golden-section fraction, (3 - sqrt 5) / 2
_SQRT_EPS = math.sqrt(2.2e-16)
_BRENT_MAXITER = 500
_KSECTION_CELLS = 64  # fit_mom's cells per round, one G value at each end
_FINAL_SPAN = 64  # and the doubles searched beyond each end of the last cell


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
    iterations: int | None = None  # solver rounds (mom) or optimizer iterations (lsq)
    evaluations: int | None = None  # G values (mom) or objective evaluations (lsq)

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
    if not (math.isfinite(m1) and m1 > 0.0 and math.isfinite(m2) and m2 > 0.0):
        raise ValueError("moments m1 and m2 must be finite and positive")
    # numpy-float moments would make every field below a numpy scalar, and a
    # numpy bool is not JSON-serializable
    m1, m2 = float(m1), float(m2)
    r_hat = m2 / m1**2
    if m2 - m1**2 <= 0.0:
        return FitResult(
            a_hat=float(x_max) if x_max is not None else m1,
            lambda_hat=0.0,
            method="mom",
            converged=False,
            r_hat=r_hat,
            diagnostic="degenerate sample: zero variance, moment ratio out of range",
        )
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

    # G rises from 4/3 to 2, and positive doubles sort like their int64 bit
    # patterns, so k-section on the patterns narrows [1e-16, 2^60] (where G
    # rounds to 4/3 and to 2.0) by about 64 per vector call, keeping a cell
    # with G(lo) < r_hat <= G(hi)
    lo, hi = (int(b) for b in np.array([1e-16, 2.0**60]).view(np.int64))
    rounds = evaluations = 0
    cells = np.arange(_KSECTION_CELLS + 1, dtype=np.int64)
    while hi - lo > _KSECTION_CELLS:
        bits = lo + (hi - lo) // _KSECTION_CELLS * cells
        bits[-1] = hi
        g = ratio_G(bits.view(np.float64))
        rounds, evaluations = rounds + 1, evaluations + bits.size
        cross = int(np.argmax(g >= r_hat))
        lo, hi = int(bits[cross - 1]), int(bits[cross])
    # G's rounding noise spans tens of doubles near the root, more than G
    # changes per double, so the nearest G may lie outside the last cell
    bits = np.arange(lo - _FINAL_SPAN, hi + _FINAL_SPAN + 1, dtype=np.int64)
    window = bits.view(np.float64)
    misses = np.abs(ratio_G(window) - r_hat)
    evaluations += bits.size
    best = int(np.argmin(misses))
    x_star, miss = float(window[best]), float(misses[best])
    converged = miss <= 1e-10
    lambda_hat = float(_stable_B(np.array([x_star]))[0]) / (x_star * m1)
    return FitResult(
        a_hat=x_star / lambda_hat,
        lambda_hat=lambda_hat,
        method="mom",
        converged=converged,
        r_hat=r_hat,
        x_star=x_star,
        iterations=rounds,
        evaluations=evaluations,
    )


def fit_mom(values) -> FitResult:
    """Method-of-moments fit of a positive sample (size >= 2)."""
    arr = _validate_sample(values)
    m1, m2 = float(np.mean(arr)), float(np.mean(arr**2))
    return fit_mom_from_moments(m1, m2, x_max=float(arr[-1]))


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


def _bounded_brent(f, lo: float, hi: float, xatol: float) -> tuple[bool, int]:
    """Minimize f over [lo, hi] by Brent's bounded method.

    Golden-section steps safeguarded by parabolic interpolation (Brent,
    Algorithms for Minimization without Derivatives, 1973, ch. 5), with the
    steps and arithmetic of scipy.optimize.minimize_scalar(method="bounded"),
    so the points tried are the same.  It stops once the bracket around the
    best point is within about xatol, or after _BRENT_MAXITER evaluations.
    The caller keeps the points and values f sees; this returns (converged,
    evaluations), converged False at the cap or on a NaN.
    """
    a, b = lo, hi
    fulc = nfc = xf = a + _GOLDEN * (b - a)
    rat = e = 0.0
    fx = fu = f(xf)
    evaluations = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabola through the three best points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = p / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm >= xf else -tol1
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = _GOLDEN * e
        step = max(abs(rat), tol1)
        x = xf - step if rat < 0.0 else xf + step
        fu = f(x)
        evaluations += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if evaluations >= _BRENT_MAXITER:
            return False, evaluations
    return not (math.isnan(xf) or math.isnan(fx) or math.isnan(fu)), evaluations


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
    arr = _validate_sample(values)
    m1 = float(np.mean(arr))
    u = arr / m1  # in units of the mean the fit is exactly scale-equivariant
    phi_max = 1.0 / float(u[-1])
    one_minus_ecdf = 1.0 - np.searchsorted(arr, arr, side="right") / arr.size  # at the observations
    trials = {}  # rate v -> (objective, phi = theta * mean)
    e, y, z = np.empty_like(u), np.empty_like(u), np.empty_like(u)

    def objective(v):
        np.multiply(u, -v, out=e)
        np.exp(e, out=e)  # e^(-v u)
        np.subtract(e, one_minus_ecdf, out=y)
        np.multiply(u, e, out=z)
        phi = min(max(float(y @ z) / float(z @ z), 0.0), phi_max)
        np.subtract(y, np.multiply(z, phi, out=e), out=e)  # residual y - phi z
        trials[v] = (float(e @ e), phi)
        return trials[v][0]

    objective(0.0)
    objective(_RATE_MAX)
    converged, evaluations = _bounded_brent(objective, 0.0, _RATE_MAX, _RATE_TOL)
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
        converged=converged and v != _RATE_MAX,
        r_hat=float(np.mean(arr**2)) / m1**2,
        objective=best,
        diagnostic="; ".join(text for hit, text in boundaries if hit) or None,
        iterations=evaluations,  # one evaluation per step, as scipy counts them
        evaluations=evaluations + 2,
    )
