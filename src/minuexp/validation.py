"""Closed form versus oracle: the validation report behind `validate`.

Each row compares one closed-form value against an independently computed
reference (quadrature against the mixing density, or an identity built
from already-validated pieces).  Rows tagged ``expect=deviate`` hold
rejected algebraic variants of five expressions whose naive transcription
fails the oracle; they are retained so the report demonstrates both that
the implemented forms match and that the variants do not.

The report is one table.  ``_pair_entries`` yields the entries
``(name, value, reference, tol)`` of one parameter pair in report order,
``_adjudication_entries`` adds each variant row's ``expect``, and ``_row``
builds the ``CheckRow``.  A reference integral is named by a kernel
factory and its arguments; ``_integrals`` computes each name once per pair.
Kernels keep each row's integrand expression (``x**2`` and ``x * x``
differ in the last bit on some doubles), so no reference moves.  Three
rows integrate ``bivariate_pdf``, ``xi_given_tau_pdf`` and
``xi_given_count_pdf`` themselves, since those rows check the evaluators.
Count p.m.f.s are evaluated in blocks of n, one vector call per block,
not one scalar call per n.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from . import counting, interarrival, structure
from .gamma_kernel import _log_lower_incomplete_gamma
from .oracle import mix_integral
from .structure import MinUExpParams

__all__ = ["CheckRow", "run_validation"]

_PMF_LAST = 10_001  # the last n the count p.m.f. normalization adds


@dataclass(frozen=True)
class CheckRow:
    """One validation comparison."""

    name: str
    value: float
    reference: float
    rel_err: float
    tol: float
    expect: str  # "match": rel_err <= tol passes; "deviate": rel_err > tol passes
    passed: bool


def _row(name: str, value, reference, tol: float, expect: str = "match", relative: bool = True) -> CheckRow:
    """The comparison of value with reference; rel_err is an absolute gap when relative is False."""
    value, reference = float(value), float(reference)
    err = abs(value - reference) / (max(abs(reference), 1e-300) if relative else 1.0)
    return CheckRow(name, value, reference, err, tol, expect, err <= tol if expect == "match" else err > tol)


def _central_difference(f, k: int, h: float) -> float:
    """Plain k-th central difference of f at 0 with step h."""
    js = np.arange(k + 1)
    coef = np.array([math.comb(k, int(j)) * (-1.0) ** j for j in js])
    pts = (k / 2.0 - js) * h
    return float(np.sum(coef * np.array([f(z) for z in pts]))) / h**k


def pgf_series_coefficient(params: MinUExpParams, mu_t: float, k: int, h: float = 0.1) -> float:
    """k-th power-series coefficient of the p.g.f. at 0, i.e. an independent
    estimate of the p.m.f. at k, from Richardson-extrapolated central
    differences (error O(h^6), ~1e-8 absolute at the default step)."""
    f = lambda z: counting.pgf(params, mu_t, z)
    d1 = _central_difference(f, k, h)
    d2 = _central_difference(f, k, h / 2.0)
    d3 = _central_difference(f, k, h / 4.0)
    r1 = (4.0 * d2 - d1) / 3.0
    r2 = (4.0 * d3 - d2) / 3.0
    return (16.0 * r2 - r1) / 15.0 / math.factorial(k)


# ----------------------------------------------------------------------
# Rejected algebraic variants, kept only for the adjudication rows.
# ----------------------------------------------------------------------


def _erlang_pdf_low_power_variant(params: MinUExpParams, n: int, t: float) -> float:
    """Arrival-epoch density variant with total power c^n instead of c^(n+2).

    Fails the oracle already at n = 1, where the corrected form reduces to
    the single inter-arrival density.
    """
    a, lam = params.a, params.lam
    c = lam + t
    g = math.exp(_log_lower_incomplete_gamma(n + 1, a * c))
    first = t ** (n - 1) * g / (a * math.factorial(n - 1) * c ** (n - 1)) * (
        lam * a + (t - lam * n) / c
    )
    second = lam * a**n * t ** (n - 1) / (math.factorial(n - 1) * c) * math.exp(-a * c)
    return first + second


def _ordered_pmf_unit_tail_variant(params: MinUExpParams, mu, k) -> float:
    """Joint count p.m.f. variant whose bracket tail carries a^1, not a^(k_n).

    Coincides with the corrected form only at a = 1.
    """
    a, lam = params.a, params.lam
    grid = np.asarray(mu, dtype=float)
    counts = np.asarray(k, dtype=np.int64)
    steps = np.diff(counts, prepend=0)
    widths = np.diff(grid, prepend=0.0)
    product = float(
        np.prod(widths**steps / np.array([math.factorial(int(s)) for s in steps]))
    )
    kn, mun = int(counts[-1]), float(grid[-1])
    c = lam + mun
    bracket = math.exp(_log_lower_incomplete_gamma(kn + 1, a * c)) / (a * c ** (kn + 2)) * (
        lam * a * c + mun - lam * kn
    ) + a * lam / c * math.exp(-a * c)
    return product * bracket


def _increments_pmf_misplaced_exponent_variant(params: MinUExpParams, mu, m) -> float:
    """Increment p.m.f. variant with tail a^1 e^(-a(lambda + m_n)): the last
    count, not the last accumulated intensity, sits in the exponent."""
    a, lam = params.a, params.lam
    grid = np.asarray(mu, dtype=float)
    incs = np.asarray(m, dtype=np.int64)
    widths = np.diff(grid, prepend=0.0)
    product = float(
        np.prod(widths**incs / np.array([math.factorial(int(s)) for s in incs]))
    )
    total, mun = int(np.sum(incs)), float(grid[-1])
    c = lam + mun
    bracket = math.exp(_log_lower_incomplete_gamma(total + 1, a * c)) / (a * c ** (total + 2)) * (
        lam * a * c + mun - lam * total
    ) + a * lam / c * math.exp(-a * (lam + float(incs[-1])))
    return product * bracket


def _posterior_mean_quadratic_coefficient_variant(
    params: MinUExpParams, mu_t: float, n: int
) -> float:
    """Count-posterior mean variant with numerator coefficient (n+1) n lambda.

    At n = 0 it collapses the subtraction entirely and pushes the posterior
    mean above the prior mean, which no amount of non-observation can do.
    """
    a, lam = params.a, params.lam
    c = lam + mu_t
    num = math.exp(_log_lower_incomplete_gamma(n + 2, a * c)) / c ** (n + 3) * (
        a * lam * c + mu_t - (n + 1) * n * lam
    ) + lam * a ** (n + 2) / c * math.exp(-a * c)
    den = math.exp(_log_lower_incomplete_gamma(n + 1, a * c)) / c ** (n + 2) * (
        a * lam * c + mu_t - n * lam
    ) + lam * a ** (n + 1) / c * math.exp(-a * c)
    return num / den


def _tau_posterior_mean_sign_variant(params: MinUExpParams, t: float) -> float:
    """Waiting-time-posterior mean variant with -2(t - 2 lambda) inside the
    exponential bracket; the oracle requires the opposite sign."""
    a, lam = params.a, params.lam
    c = lam + t
    e = math.exp(-a * c)
    num = (
        2.0 * (t - 2.0 * lam)
        + 2.0 * a * lam * (t + lam)
        - e * (a**2 * t * c**2 + 2.0 * a * (t**2 - lam**2) - 2.0 * (t - 2.0 * lam))
    )
    den = a * lam * c**2 + (t**2 - lam**2) * (1.0 - e) - a * t * c**2 * e
    return num / den


# ----------------------------------------------------------------------
# Reference integrals.  A kernel factory and its arguments name an
# integrand; the report integrates each name once per parameter pair.
# ----------------------------------------------------------------------


def _power_exp(k, t):
    """x**k e^(-t x).  A zero k or t contributes an exact factor 1.0, so the
    normalization, plain moments and transforms are members too."""
    return lambda x: x**k * math.exp(-t * x)


def _square_exp(t):
    """x * x e^(-t x), apart from x**2: the two differ in the last bit on some doubles."""
    return lambda x: x * x * math.exp(-t * x)


def _epoch(n, t):
    """The Erlang(n, x) density at t: the arrival-epoch kernel."""
    return lambda x: x**n * t ** (n - 1) * math.exp(-x * t) / math.factorial(n - 1)


def _count(n):
    """The Poisson(x) p.m.f. at n: the count kernel."""
    return lambda x: x**n * math.exp(-x) / math.factorial(n)


def _integrals(params: MinUExpParams):
    """integral(kernel, *args): mix_integral of kernel(*args) at params, once per distinct name."""
    return functools.cache(lambda kernel, *args: mix_integral(params, kernel(*args)).value)


def _quad(f, a: float) -> float:
    """Quadrature of a vectorized evaluator over (0, a), driven to 1e-12 relative."""
    return integrate.quad(f, 0.0, a, epsabs=0.0, epsrel=1e-12, limit=200)[0]


def _count_pmf_and_mass(params: MinUExpParams, n_min: int) -> tuple[np.ndarray, float]:
    """count_pmf at n = 0, 1, ... and the adaptively truncated total mass.

    The total adds p_0, p_1, ... in order and stops at the first n with
    p_n < 1e-16 and total > 0.5, or at n = _PMF_LAST.  The p.m.f. is
    evaluated in blocks of 256, 512, ... values (the first holds at least
    n_min), and each block's running sum is a cumsum seeded by the total so
    far, so the additions are those of a scalar loop, in its order.
    """
    blocks, total, start, size = [], 0.0, 0, max(256, n_min)
    while True:
        n = np.arange(start, min(start + size, _PMF_LAST + 1))
        block = counting.count_pmf(params, n)
        blocks.append(block)
        sums = np.cumsum(np.concatenate(([total], block)))[1:]
        stop = ((block < 1e-16) & (sums > 0.5)) | (n == _PMF_LAST)
        if stop.any():
            return np.concatenate(blocks), float(sums[np.argmax(stop)])
        total, start, size = float(sums[-1]), start + size, 2 * size


def _pair_entries(params: MinUExpParams, t_grid, n_erlang: int, n_count: int):
    """(name, value, reference, tol) of each row at one parameter pair, in report order.

    The p.g.f. rows add ("match", False): they compare in absolute terms.
    """
    tag = f"(a={params.a:g}, lambda={params.lam:g})"
    ref = _integrals(params)
    m1, m2 = ref(_power_exp, 1, 0), ref(_square_exp, 0)
    yield f"{tag} density normalization", ref(_power_exp, 0, 0), 1.0, 1e-10
    for k in (1, 2):
        yield f"{tag} raw moment k={k}", structure.raw_moment(params, k), ref(_power_exp, k, 0), 1e-10
    yield f"{tag} variance", structure.variance(params), m2 - m1**2, 1e-10
    for t in (0.5, 2.0):
        yield f"{tag} transform t={t}", structure.lst(params, t), ref(_power_exp, 0, t), 1e-10
        yield f"{tag} waiting-time cdf t={t}", interarrival.tau_cdf(params, t), 1.0 - ref(_power_exp, 0, t), 1e-10

    for t in t_grid:
        yield f"{tag} waiting-time pdf t={t}", interarrival.tau_pdf(params, t), ref(_power_exp, 1, t), 1e-8
    for p in (-0.5, 0.5):
        moment = math.gamma(p + 1.0) * ref(_power_exp, -p, 0)
        yield f"{tag} waiting-time moment p={p}", interarrival.tau_moment(params, p), moment, 1e-8
    t = t_grid[0]
    marginal = _quad(lambda x: interarrival.bivariate_pdf(params, t, x), params.a)
    yield f"{tag} joint density marginal t={t}", marginal, interarrival.tau_pdf(params, t), 1e-8
    posterior = _quad(lambda x: interarrival.xi_given_tau_pdf(params, t, x), params.a)
    yield f"{tag} rate-posterior normalization t={t}", posterior, 1.0, 1e-8
    mean = ref(_square_exp, t) / ref(_power_exp, 1, t)
    yield f"{tag} rate-posterior mean t={t}", interarrival.mean_xi_given_tau(params, t), mean, 1e-8
    for k in (1, 2, 3):
        density = interarrival.multivariate_pdf_II(params, [0.4] * k)
        yield f"{tag} joint inter-arrival density k={k}", density, ref(_power_exp, k, 0.4 * k), 1e-8
    for n in range(1, n_erlang + 1):
        for t in (t_grid[0], t_grid[-1]):
            density = interarrival.erlang_pdf(params, n, t)
            yield f"{tag} arrival-epoch pdf n={n} t={t}", density, ref(_epoch, n, t), 1e-8
    for n in (1, 2):
        for p in (-0.5, 0.5):
            moment = math.gamma(p + n) / math.gamma(n) * ref(_power_exp, -p, 0)
            yield f"{tag} arrival-epoch moment n={n} p={p}", interarrival.erlang_moment(params, n, p), moment, 1e-8

    pmf, total = _count_pmf_and_mass(params, n_count + 1)
    for n in range(n_count + 1):
        yield f"{tag} count pmf n={n}", pmf[n], ref(_count, n), 1e-8
    yield f"{tag} count pmf normalization", total, 1.0, 1e-10
    mean, var = counting.count_mean_var(params, 1.0)
    yield f"{tag} count mean", mean, m1, 1e-10
    yield f"{tag} count variance", var, m1 + m2 - m1**2, 1e-10
    for k in (1, 2, 3):
        moment = 0.8**k * ref(_power_exp, k, 0)
        yield f"{tag} factorial moment k={k}", counting.factorial_moment(params, 0.8, k), moment, 1e-8
    # Poisson increments over (0, 0.5] and (0.5, 1.2] times the mixing bracket
    joint = 0.5**1 * 0.7**2 / (math.factorial(1) * math.factorial(2)) * ref(_power_exp, 3, 1.2)
    yield f"{tag} cumulative joint pmf", counting.ordered_pmf(params, [0.5, 1.2], [1, 3]), joint, 1e-8
    yield f"{tag} increment joint pmf", counting.increments_pmf(params, [0.5, 1.2], [1, 2]), joint, 1e-8
    norm = _quad(lambda x: counting.xi_given_count_pdf(params, 0.7, 2, x), params.a)
    yield f"{tag} count-posterior normalization", norm, 1.0, 1e-8
    mean = ref(_power_exp, 3, 0.7) / ref(_power_exp, 2, 0.7)
    yield f"{tag} count-posterior mean", counting.mean_xi_given_count(params, 0.7, 2), mean, 1e-8
    # p.g.f. derivatives at 0 recover the pmf
    for k in range(5):
        coefficient = pgf_series_coefficient(params, 1.0, k)
        yield f"{tag} pgf series coefficient k={k}", coefficient, pmf[k], 1e-6, "match", False


def _adjudication_entries() -> list[tuple]:
    """(name, value, reference, tol, expect): each corrected form beside its rejected variant."""
    p11, p21 = MinUExpParams(1.0, 1.0), MinUExpParams(2.0, 1.0)
    ref11, ref21 = _integrals(p11), _integrals(p21)
    epoch = ref11(_power_exp, 1, 1.0)
    ordered = 1.0 / math.factorial(2) * ref21(_power_exp, 2, 1.0)
    increments = 0.5**2 * 0.5**1 / (math.factorial(2) * math.factorial(1)) * ref21(_power_exp, 3, 1.0)
    count_mean = ref11(_power_exp, 1, 1.0) / ref11(_power_exp, 0, 1.0)
    tau_mean = ref11(_square_exp, 1.0) / ref11(_power_exp, 1, 1.0)
    return [
        ("arrival-epoch pdf corrected form n=1", interarrival.erlang_pdf(p11, 1, 1.0), epoch, 1e-8, "match"),
        ("arrival-epoch pdf low-power variant n=1", _erlang_pdf_low_power_variant(p11, 1, 1.0), epoch, 1e-2, "deviate"),
        ("cumulative joint pmf corrected form a=2", counting.ordered_pmf(p21, [1.0], [2]), ordered, 1e-8, "match"),
        (
            "cumulative joint pmf unit-tail variant a=2",
            _ordered_pmf_unit_tail_variant(p21, [1.0], [2]), ordered, 1e-2, "deviate",
        ),
        (
            "increment joint pmf corrected form a=2",
            counting.increments_pmf(p21, [0.5, 1.0], [2, 1]), increments, 1e-8, "match",
        ),
        (
            "increment joint pmf misplaced-exponent variant a=2",
            _increments_pmf_misplaced_exponent_variant(p21, [0.5, 1.0], [2, 1]), increments, 1e-2, "deviate",
        ),
        (
            "count-posterior mean corrected form n=0",
            counting.mean_xi_given_count(p11, 1.0, 0), count_mean, 1e-8, "match",
        ),
        (
            "count-posterior mean quadratic-coefficient variant n=0",
            _posterior_mean_quadratic_coefficient_variant(p11, 1.0, 0), count_mean, 1e-2, "deviate",
        ),
        ("rate-posterior mean corrected form t=1", interarrival.mean_xi_given_tau(p11, 1.0), tau_mean, 1e-8, "match"),
        ("rate-posterior mean sign variant t=1", _tau_posterior_mean_sign_variant(p11, 1.0), tau_mean, 1e-2, "deviate"),
    ]


def run_validation(quick: bool = False) -> list[CheckRow]:
    """Build the full report.  quick=True trims the parameter grid and the
    count range; the adjudication rows are always included."""
    if quick:
        param_grid = [MinUExpParams(1.0, 1.0), MinUExpParams(110.0, 0.04)]
        n_count, n_erlang, t_grid = 8, 2, (0.5, 2.0)
    else:
        param_grid = [
            MinUExpParams(a, lam) for a in (0.5, 1.0, 2.0, 5.0) for lam in (0.25, 1.0, 4.0)
        ] + [MinUExpParams(110.0, 0.04)]
        n_count, n_erlang, t_grid = 30, 5, (0.1, 0.5, 1.0, 2.0, 5.0)
    entries = [e for params in param_grid for e in _pair_entries(params, t_grid, n_erlang, n_count)]
    return [_row(*entry) for entry in entries + _adjudication_entries()]
