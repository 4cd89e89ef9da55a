"""Shared fixtures and frozen oracle constants.

The FROZEN_* values were produced by the package's own oracle layer
(adaptive quadrature against the mixing density, Monte Carlo with error
bands) before the closed forms were trusted; tests assert closed forms
against these numbers, not the other way round.
"""

import numpy as np
import pytest

from minuexp import MinUExpParams

# (a, lambda) test grid used across the suite
PARAM_GRID = [
    MinUExpParams(a, lam) for a in (0.5, 1.0, 2.0, 5.0) for lam in (0.25, 1.0, 4.0)
]
# small-(a, lambda) corners below PARAM_GRID, where direct closed forms cancel
CORNER_GRID = [
    MinUExpParams(a, lam) for a, lam in ((1e-6, 1e-6), (1e-3, 1e-3), (1e-4, 5.0), (1e-8, 1e3))
]
P11 = MinUExpParams(1.0, 1.0)
P110 = MinUExpParams(110.0, 0.04)

# quadrature oracle values at (a=1, lambda=1) unless stated otherwise
FROZEN_CDF_AT_HALF = 0.6967346701436833
FROZEN_PDF_AT_HALF = 0.9097959895689501
FROZEN_MEAN = 0.36787944117144233
FROZEN_SECOND_MOMENT = 0.2072766470286539
FROZEN_VARIANCE = 0.07194136379204119
FROZEN_LST_AT_1 = 0.7161661791908468
FROZEN_TAU_CDF_AT_1 = 0.2838338208091532
FROZEN_TAU_PDF_AT_1 = 0.21616617919084682
FROZEN_TAU_MOMENT_HALF = 2.3115916313154896
FROZEN_ERLANG2_MOMENT_HALF = 3.4673874469732344
# 0.75/e = 0.2759095808785817411966..., correctly rounded
FROZEN_BIVARIATE_1_HALF = 0.27590958087858175
FROZEN_MULTIVARIATE_2 = 0.1080830895954234
FROZEN_COUNT_PMF_2 = 0.0540415447977117
FROZEN_ORDERED_12 = 0.02702077239885585
FROZEN_XI_MEAN_GIVEN_TAU1 = 0.5
FROZEN_XI_MEAN_GIVEN_N0 = 0.30183801675063743
FROZEN_G_AT_1 = 1.5315787728929706
FROZEN_COUNT_MEAN = 0.36787944117144233
FROZEN_COUNT_VAR = 0.4398208049634835
FROZEN_MEAN_110 = 19.387939431267437

# KS bound for 1e5 draws used throughout (slightly above the 1% critical value)
KS_BOUND_1E5 = 0.0065


def rel_err(value, reference):
    reference = np.asarray(reference, dtype=float)
    return np.max(np.abs(np.asarray(value, dtype=float) - reference) / np.maximum(np.abs(reference), 1e-300))


def mp_mean_variance(a, lam):
    """Mean and variance of xi in 60-digit mpmath, from the expanded forms

        E xi = (z - 1 + e^-z)/(z lambda),  E xi^2 = (2 + 2 e^-z - 4(1 - e^-z)/z)/lambda^2

    with z = a lambda; their cancellation at z down to 1e-12 costs 24 of
    the 60 digits."""
    import mpmath

    with mpmath.workdps(60):
        a, lam = mpmath.mpf(a), mpmath.mpf(lam)
        z = a * lam
        e = mpmath.exp(-z)
        mean = (z - 1 + e) / (z * lam)
        second = (2 + 2 * e - 4 * (1 - e) / z) / lam**2
        return float(mean), float(second - mean**2)


def log_uniform_params(seed, count, lo=1e-6, hi=1e3):
    """count seeded (a, lambda) pairs, each log-uniform in [lo, hi]."""
    draws = np.exp(np.random.default_rng(seed).uniform(np.log(lo), np.log(hi), (count, 2)))
    return [MinUExpParams(a, lam) for a, lam in draws.tolist()]


def numeric_erlang_cdf_at_sorted(params, n, sorted_t):
    """Numeric c.d.f. of the n-th arrival epoch at sorted points, by
    cumulative fixed-order Gauss-Legendre panels of the closed-form density
    (the family exposes no closed-form c.d.f. for it on purpose)."""
    from minuexp import erlang_pdf

    nodes, weights = np.polynomial.legendre.leggauss(16)
    edges = np.concatenate([[0.0], np.asarray(sorted_t, dtype=float)])
    lo, hi = edges[:-1], edges[1:]
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    points = mid[:, None] + half[:, None] * nodes[None, :]
    panel = (erlang_pdf(params, n, points.ravel()).reshape(points.shape) * weights).sum(
        axis=1
    ) * half
    return np.cumsum(panel)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
