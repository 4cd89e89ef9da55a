"""Independent ground truth: quadrature against the mixing density,
seeded Monte Carlo with error bands, and goodness-of-fit comparators.

Every closed form in the package is checked against this layer before it
is trusted; the quadrature route never reuses the closed form it checks,
only the mixing density and the kernel under the integral sign.  The
density is evaluated in plain Python floats inside the integrand closure,
so each quadrature node costs one Python call besides the kernel's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special

from .structure import MinUExpParams

__all__ = [
    "OracleError",
    "OracleResult",
    "mix_integral",
    "mc_mean",
    "ks_statistic",
    "chi_square_pmf",
]


class OracleError(RuntimeError):
    """Raised when a reference computation fails to converge."""


@dataclass(frozen=True)
class OracleResult:
    """A reference value with an error estimate."""

    value: float
    err_estimate: float
    method: str
    n_or_evals: int


def _integrand(params: MinUExpParams, kernel):
    """x -> kernel(x) times the Min-U-Exp density at a float x in (0, a).

    The density takes the operations of structure.pdf in the same order, in
    plain floats, without its array conversion and (0, a) mask, which cost
    far more per scalar call; QUADPACK calls this once per node.
    """
    a, neg_lam, lam = params.a, -params.lam, params.lam
    head = lam * a + 1.0

    def integrand(x: float) -> float:
        return kernel(x) * (math.exp(neg_lam * x) / a * (head - x * lam))

    return integrand


def mix_integral(params: MinUExpParams, kernel, epsrel: float = 1e-12) -> OracleResult:
    """Adaptive quadrature of integral_0^a kernel(x) * density(x) dx.

    kernel is a scalar function of x.  The density
    (e^(-lambda x)/a)(lambda a + 1 - lambda x) is evaluated in plain floats,
    with no (0, a) mask, because QUADPACK's qags samples interior nodes only.

    Convergence is driven in relative terms so that very small mixture
    values (deep p.m.f. tails) are still resolved to full relative
    precision.  If no tolerance up to 100 * epsrel converges, the last
    result is accepted only when its error estimate is at most 1e-10 of
    its value, relative at every scale; otherwise OracleError is raised.
    """
    integrand = _integrand(params, kernel)
    last = None
    for eps in (epsrel, 10 * epsrel, 100 * epsrel):
        out = integrate.quad(
            integrand, 0.0, params.a, epsabs=0.0, epsrel=eps, limit=200, full_output=1
        )
        value, abserr, info = out[0], out[1], out[2]
        last = (value, abserr, info, len(out) > 3)
        if len(out) == 3:
            return OracleResult(value, abserr, "quadrature", int(info["neval"]))
    value, abserr, info, _ = last
    if abserr <= 1e-10 * abs(value):
        return OracleResult(value, abserr, "quadrature", int(info["neval"]))
    raise OracleError(
        f"quadrature did not converge (value {value!r}, error estimate {abserr!r})"
    )


def mc_mean(sampler, statistic, n: int, rng: np.random.Generator) -> OracleResult:
    """Monte Carlo mean of statistic(sampler draws) with its standard error.

    sampler(rng, size) must return an array of draws; statistic maps it to
    an array of the same length.  Requires n >= 1000.
    """
    if n < 1000:
        raise ValueError("Monte Carlo oracle needs at least 1000 draws")
    values = np.asarray(statistic(sampler(rng, int(n))), dtype=float)
    if values.shape != (int(n),):
        raise ValueError("statistic must return one value per draw")
    stderr = float(np.std(values, ddof=1) / math.sqrt(n))
    return OracleResult(float(np.mean(values)), stderr, "monte_carlo", int(n))


def ks_statistic(sample, cdf) -> float:
    """Kolmogorov-Smirnov sup-distance between the sample ECDF and cdf.

    Both one-sided gaps are taken at every order statistic.
    """
    arr = np.sort(np.asarray(sample, dtype=float))
    if arr.size == 0:
        raise ValueError("sample must be nonempty")
    n = arr.size
    f = np.asarray(cdf(arr), dtype=float)
    upper = np.arange(1, n + 1) / n - f
    lower = f - np.arange(0, n) / n
    return float(max(np.max(upper), np.max(lower)))


def chi_square_pmf(observed, expected, total: int) -> tuple[float, int, float]:
    """Pearson chi-square of observed counts against expected probabilities.

    observed holds counts for categories 0..K-1 and must sum to at most
    total; any remaining draws and probability mass form an implicit
    overflow cell.  Cells are pooled inward from both tails until every
    expected count is at least 5.  Returns (statistic, dof, p_value).
    """
    obs = np.asarray(observed, dtype=float)
    exp_p = np.asarray(expected, dtype=float)
    if obs.ndim != 1 or exp_p.ndim != 1 or obs.size != exp_p.size or obs.size == 0:
        raise ValueError("observed and expected tables must be matching nonempty vectors")
    if np.any(obs < 0) or np.any(exp_p < 0):
        raise ValueError("counts and probabilities must be nonnegative")
    if total < 1:
        raise ValueError("total draw count must be positive")
    overflow_n = total - float(np.sum(obs))
    overflow_p = 1.0 - float(np.sum(exp_p))
    if overflow_n < -1e-9 or overflow_p < -1e-9:
        raise ValueError("observed counts or expected mass exceed the stated total")
    obs = np.append(obs, max(overflow_n, 0.0))
    exp_n = np.append(exp_p, max(overflow_p, 0.0)) * total

    obs, exp_n = list(obs), list(exp_n)
    while len(exp_n) > 1 and exp_n[-1] < 5.0:
        e, o = exp_n.pop(), obs.pop()
        exp_n[-1] += e
        obs[-1] += o
    while len(exp_n) > 1 and exp_n[0] < 5.0:
        e, o = exp_n.pop(0), obs.pop(0)
        exp_n[0] += e
        obs[0] += o
    if len(exp_n) < 2 or min(exp_n) < 5.0:
        raise ValueError("insufficient total for a chi-square comparison after pooling")

    obs_a, exp_a = np.asarray(obs), np.asarray(exp_n)
    statistic = float(np.sum((obs_a - exp_a) ** 2 / exp_a))
    dof = len(exp_n) - 1
    return statistic, dof, float(special.chdtrc(dof, statistic))
