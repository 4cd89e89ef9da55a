"""Closed form versus oracle: the validation report behind `validate`.

Each row compares one closed-form value against an independently computed
reference (quadrature against the mixing density, or an identity built
from already-validated pieces).  Rows tagged ``expect=deviate`` hold
rejected algebraic variants of five expressions whose naive transcription
fails the oracle; they are retained so the report demonstrates both that
the implemented forms match and that the variants do not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from . import counting, interarrival, structure
from .gamma_kernel import lower_incomplete_gamma
from .oracle import mix_integral
from .structure import MinUExpParams

__all__ = ["CheckRow", "run_validation"]


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


def _rel_err(value: float, reference: float) -> float:
    scale = max(abs(reference), 1e-300)
    return abs(value - reference) / scale


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


def _match(name: str, value: float, reference: float, tol: float) -> CheckRow:
    err = float(_rel_err(value, reference))
    return CheckRow(name, float(value), float(reference), err, tol, "match", bool(err <= tol))


def _deviate(name: str, value: float, reference: float, tol: float) -> CheckRow:
    err = float(_rel_err(value, reference))
    return CheckRow(name, float(value), float(reference), err, tol, "deviate", bool(err > tol))


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
    g = lower_incomplete_gamma(n + 1, a * c)
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
    bracket = lower_incomplete_gamma(kn + 1, a * c) / (a * c ** (kn + 2)) * (
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
    bracket = lower_incomplete_gamma(total + 1, a * c) / (a * c ** (total + 2)) * (
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
    num = lower_incomplete_gamma(n + 2, a * c) / c ** (n + 3) * (
        a * lam * c + mu_t - (n + 1) * n * lam
    ) + lam * a ** (n + 2) / c * math.exp(-a * c)
    den = lower_incomplete_gamma(n + 1, a * c) / c ** (n + 2) * (
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
# Report assembly.  An integral that several rows need is computed once
# per parameter pair, and only where the integrand expression is the same,
# so every row's reference is the value its own integrand would give.
# ----------------------------------------------------------------------


def _structure_rows(
    rows: list[CheckRow], params: MinUExpParams, tag: str
) -> tuple[dict[int, float], float, float]:
    """Append the structure rows; return the integrals of x**k (k = 1, 2), x
    and x * x against the density, which the count rows reuse."""
    rows.append(
        _match(f"{tag} density normalization", mix_integral(params, lambda x: 1.0).value, 1.0, 1e-10)
    )
    raw = {k: mix_integral(params, lambda x, k=k: x**k).value for k in (1, 2)}
    for k, ref in raw.items():
        rows.append(_match(f"{tag} raw moment k={k}", structure.raw_moment(params, k), ref, 1e-10))
    m1 = mix_integral(params, lambda x: x).value
    m2 = mix_integral(params, lambda x: x * x).value
    rows.append(_match(f"{tag} variance", structure.variance(params), m2 - m1**2, 1e-10))
    for t in (0.5, 2.0):
        ref = mix_integral(params, lambda x, t=t: math.exp(-t * x)).value
        rows.append(_match(f"{tag} transform t={t}", structure.lst(params, t), ref, 1e-10))
        rows.append(
            _match(f"{tag} waiting-time cdf t={t}", interarrival.tau_cdf(params, t), 1.0 - ref, 1e-10)
        )
    return raw, m1, m2


def _interarrival_rows(
    rows: list[CheckRow], params: MinUExpParams, tag: str, t_grid, n_erlang: int
) -> None:
    tau_pdf_ref = {t: mix_integral(params, lambda x, t=t: x * math.exp(-t * x)).value for t in t_grid}
    for t, ref in tau_pdf_ref.items():
        rows.append(_match(f"{tag} waiting-time pdf t={t}", interarrival.tau_pdf(params, t), ref, 1e-8))
    inverse_moment = {p: mix_integral(params, lambda x, p=p: x**-p).value for p in (-0.5, 0.5)}
    for p, integral in inverse_moment.items():
        ref = math.gamma(p + 1.0) * integral
        rows.append(_match(f"{tag} waiting-time moment p={p}", interarrival.tau_moment(params, p), ref, 1e-8))
    # bivariate density marginalizes to the waiting-time density
    t = t_grid[0]
    marginal = integrate.quad(
        lambda x: interarrival.bivariate_pdf(params, t, x), 0.0, params.a,
        epsabs=0.0, epsrel=1e-12, limit=200,
    )[0]
    rows.append(
        _match(f"{tag} joint density marginal t={t}", marginal, interarrival.tau_pdf(params, t), 1e-8)
    )
    post_norm = integrate.quad(
        lambda x: interarrival.xi_given_tau_pdf(params, t, x), 0.0, params.a,
        epsabs=0.0, epsrel=1e-12, limit=200,
    )[0]
    rows.append(_match(f"{tag} rate-posterior normalization t={t}", post_norm, 1.0, 1e-8))
    num = mix_integral(params, lambda x, t=t: x * x * math.exp(-t * x)).value
    den = tau_pdf_ref[t]
    rows.append(
        _match(f"{tag} rate-posterior mean t={t}", interarrival.mean_xi_given_tau(params, t), num / den, 1e-8)
    )
    for k in (1, 2, 3):
        tv = [0.4] * k
        s = 0.4 * k
        ref = mix_integral(params, lambda x, k=k, s=s: x**k * math.exp(-s * x)).value
        rows.append(
            _match(f"{tag} joint inter-arrival density k={k}", interarrival.multivariate_pdf_II(params, tv), ref, 1e-8)
        )
    for n in range(1, n_erlang + 1):
        for t in (t_grid[0], t_grid[-1]):
            ref = mix_integral(
                params,
                lambda x, n=n, t=t: x**n * t ** (n - 1) * math.exp(-x * t) / math.factorial(n - 1),
            ).value
            rows.append(
                _match(f"{tag} arrival-epoch pdf n={n} t={t}", interarrival.erlang_pdf(params, n, t), ref, 1e-8)
            )
    for n in (1, 2):
        for p, integral in inverse_moment.items():
            ref = math.gamma(p + n) / math.gamma(n) * integral
            rows.append(
                _match(f"{tag} arrival-epoch moment n={n} p={p}", interarrival.erlang_moment(params, n, p), ref, 1e-8)
            )


def _counting_rows(
    rows: list[CheckRow],
    params: MinUExpParams,
    tag: str,
    n_max: int,
    raw: dict[int, float],
    m1: float,
    m2: float,
) -> None:
    """Append the count rows; raw, m1 and m2 are _structure_rows' integrals."""
    for n in range(0, n_max + 1):
        ref = mix_integral(
            params, lambda x, n=n: x**n * math.exp(-x) / math.factorial(n)
        ).value
        rows.append(_match(f"{tag} count pmf n={n}", counting.count_pmf(params, n), ref, 1e-8))
    # adaptive truncation of the total mass
    total, n = 0.0, 0
    while True:
        p_n = counting.count_pmf(params, n)
        total += p_n
        if (p_n < 1e-16 and total > 0.5) or n > 10_000:
            break
        n += 1
    rows.append(_match(f"{tag} count pmf normalization", total, 1.0, 1e-10))
    mean, var = counting.count_mean_var(params, 1.0)
    rows.append(_match(f"{tag} count mean", mean, m1, 1e-10))
    rows.append(_match(f"{tag} count variance", var, m1 + m2 - m1**2, 1e-10))
    for k in (1, 2, 3):
        ref = 0.8**k * (raw[k] if k in raw else mix_integral(params, lambda x, k=k: x**k).value)
        rows.append(
            _match(f"{tag} factorial moment k={k}", counting.factorial_moment(params, 0.8, k), ref, 1e-8)
        )
    grid, kvec = [0.5, 1.2], [1, 3]
    product = 0.5**1 * 0.7**2 / (math.factorial(1) * math.factorial(2))
    bracket = mix_integral(params, lambda x: x**3 * math.exp(-1.2 * x)).value
    rows.append(
        _match(f"{tag} cumulative joint pmf", counting.ordered_pmf(params, grid, kvec), product * bracket, 1e-8)
    )
    rows.append(
        _match(f"{tag} increment joint pmf", counting.increments_pmf(params, grid, [1, 2]), product * bracket, 1e-8)
    )
    mu_t, n = 0.7, 2
    norm = integrate.quad(
        lambda x: counting.xi_given_count_pdf(params, mu_t, n, x), 0.0, params.a,
        epsabs=0.0, epsrel=1e-12, limit=200,
    )[0]
    rows.append(_match(f"{tag} count-posterior normalization", norm, 1.0, 1e-8))
    num = mix_integral(params, lambda x: x ** (n + 1) * math.exp(-mu_t * x)).value
    den = mix_integral(params, lambda x: x**n * math.exp(-mu_t * x)).value
    rows.append(
        _match(f"{tag} count-posterior mean", counting.mean_xi_given_count(params, mu_t, n), num / den, 1e-8)
    )
    # p.g.f. derivatives at 0 recover the pmf (absolute 1e-6 comparison)
    for k in range(5):
        deriv = float(pgf_series_coefficient(params, 1.0, k))
        pmf_k = float(counting.count_pmf(params, k))
        gap = abs(deriv - pmf_k)
        rows.append(
            CheckRow(
                f"{tag} pgf series coefficient k={k}",
                deriv, pmf_k, gap, 1e-6, "match", bool(gap <= 1e-6),
            )
        )


def _adjudication_rows(rows: list[CheckRow]) -> None:
    p11 = MinUExpParams(1.0, 1.0)
    p21 = MinUExpParams(2.0, 1.0)

    # integral of x e^(-x) at (1, 1): three rows below use it
    x_exp = mix_integral(p11, lambda x: x * math.exp(-x)).value
    rows.append(
        _match("arrival-epoch pdf corrected form n=1", interarrival.erlang_pdf(p11, 1, 1.0), x_exp, 1e-8)
    )
    rows.append(
        _deviate("arrival-epoch pdf low-power variant n=1", _erlang_pdf_low_power_variant(p11, 1, 1.0), x_exp, 1e-2)
    )

    grid, kvec = [1.0], [2]
    bracket = mix_integral(p21, lambda x: x**2 * math.exp(-x)).value
    product = 1.0 / math.factorial(2)
    rows.append(
        _match("cumulative joint pmf corrected form a=2", counting.ordered_pmf(p21, grid, kvec), product * bracket, 1e-8)
    )
    rows.append(
        _deviate(
            "cumulative joint pmf unit-tail variant a=2",
            _ordered_pmf_unit_tail_variant(p21, grid, kvec),
            product * bracket,
            1e-2,
        )
    )

    mgrid, mvec = [0.5, 1.0], [2, 1]
    m_bracket = mix_integral(p21, lambda x: x**3 * math.exp(-x)).value
    m_product = 0.5**2 * 0.5**1 / (math.factorial(2) * math.factorial(1))
    rows.append(
        _match(
            "increment joint pmf corrected form a=2",
            counting.increments_pmf(p21, mgrid, mvec),
            m_product * m_bracket,
            1e-8,
        )
    )
    rows.append(
        _deviate(
            "increment joint pmf misplaced-exponent variant a=2",
            _increments_pmf_misplaced_exponent_variant(p21, mgrid, mvec),
            m_product * m_bracket,
            1e-2,
        )
    )

    den = mix_integral(p11, lambda x: math.exp(-x)).value
    rows.append(
        _match("count-posterior mean corrected form n=0", counting.mean_xi_given_count(p11, 1.0, 0), x_exp / den, 1e-8)
    )
    rows.append(
        _deviate(
            "count-posterior mean quadratic-coefficient variant n=0",
            _posterior_mean_quadratic_coefficient_variant(p11, 1.0, 0),
            x_exp / den,
            1e-2,
        )
    )

    tnum = mix_integral(p11, lambda x: x * x * math.exp(-x)).value
    rows.append(
        _match("rate-posterior mean corrected form t=1", interarrival.mean_xi_given_tau(p11, 1.0), tnum / x_exp, 1e-8)
    )
    rows.append(
        _deviate(
            "rate-posterior mean sign variant t=1",
            _tau_posterior_mean_sign_variant(p11, 1.0),
            tnum / x_exp,
            1e-2,
        )
    )


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

    rows: list[CheckRow] = []
    for params in param_grid:
        tag = f"(a={params.a:g}, lambda={params.lam:g})"
        raw, m1, m2 = _structure_rows(rows, params, tag)
        _interarrival_rows(rows, params, tag, t_grid, n_erlang)
        _counting_rows(rows, params, tag, n_count, raw, m1, m2)
    _adjudication_rows(rows)
    return rows
