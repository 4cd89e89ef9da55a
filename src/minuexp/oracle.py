"""Independent ground truth: quadrature against the mixing density,
seeded Monte Carlo with error bands, and goodness-of-fit comparators.

Every closed form in the package is checked against this layer before it
is trusted; the quadrature route never reuses the closed form it checks,
only the mixing density and the kernel under the integral sign.  The
density is evaluated in plain Python floats inside the integrand closure,
so each quadrature node costs one Python call besides the kernel's.

The quadrature is QUADPACK's qagse, the routine behind scipy.integrate.quad
at finite limits, called with quad's own arguments, so every value, error
estimate and evaluation count is quad's.  Only its extension,
scipy.integrate._quadpack, is loaded, from its file, on the first integral:
the scipy.integrate package's __init__ loads some 350 scipy modules
(optimize, sparse.linalg, special and more), which cost a fresh `validate
--quick` several times its report.  An extension already imported with the
package is reused; without the extension file, the package is imported.
scipy.special is imported only by chi_square_pmf.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

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


@functools.cache
def _quadpack():
    """scipy.integrate._quadpack, loaded once and without the package's __init__."""
    name = "scipy.integrate._quadpack"
    if name in sys.modules:
        return sys.modules[name]
    import scipy

    folder = os.path.join(os.path.dirname(scipy.__file__), "integrate")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(folder, "_quadpack" + suffix)
        if os.path.isfile(path):
            spec = importlib.util.spec_from_file_location(name, path)
            module = importlib.util.module_from_spec(spec)
            sys.modules[name] = module
            spec.loader.exec_module(module)
            return module
    return importlib.import_module(name)


def _qagse(f, b: float, epsrel: float) -> tuple[float, float, int, bool]:
    """One qagse pass over (0, b): (value, error estimate, evaluations, converged).

    The call scipy.integrate.quad makes for finite limits and no weight, at
    epsabs = 0 and 200 subintervals; invalid input (ier 6, here an epsrel
    below 50 machine epsilons) raises ValueError, as quad does.
    """
    value, abserr, info, ier = _quadpack()._qagse(f, 0.0, b, (), 1, 0.0, epsrel, 200)
    if ier == 6:
        raise ValueError(
            "If 'epsabs'<=0, 'epsrel' must be greater than both 5e-29 and 50*(machine epsilon)."
        )
    return value, abserr, int(info["neval"]), ier == 0


def _quadrature(f, b: float, epsrel: float = 1e-12) -> OracleResult:
    """integral_0^b f(x) dx, driven in relative terms.

    If no tolerance up to 100 * epsrel converges, the last result is
    accepted only when its error estimate is at most 1e-10 of its value,
    relative at every scale; otherwise OracleError is raised.
    """
    for eps in (epsrel, 10 * epsrel, 100 * epsrel):
        value, abserr, evals, converged = _qagse(f, b, eps)
        if converged:
            return OracleResult(value, abserr, "quadrature", evals)
    if abserr <= 1e-10 * abs(value):
        return OracleResult(value, abserr, "quadrature", evals)
    raise OracleError(
        f"quadrature did not converge (value {value!r}, error estimate {abserr!r})"
    )


def mix_integral(params: MinUExpParams, kernel, epsrel: float = 1e-12) -> OracleResult:
    """Adaptive quadrature of integral_0^a kernel(x) * density(x) dx.

    kernel is a scalar function of x.  The density
    (e^(-lambda x)/a)(lambda a + 1 - lambda x) is evaluated in plain floats,
    with no (0, a) mask, because QUADPACK's qags samples interior nodes only.

    Convergence is driven in relative terms so that very small mixture
    values (deep p.m.f. tails) are still resolved to full relative
    precision; the retry and acceptance rule is _quadrature's.
    """
    return _quadrature(_integrand(params, kernel), params.a, epsrel)


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
    from scipy import special

    return statistic, dof, float(special.chdtrc(dof, statistic))
