"""Properties over a wide parameter domain, below and above the test grid.

PARAM_GRID keeps a >= 0.5 and lambda >= 0.25; here a and lambda are drawn
log-uniformly from [1e-6, 1e3], orders up to 2000 and times from 1e-6 to
1e6, where direct closed forms used to cancel to wrong signs.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

# loaded here, not inside the first example that reaches the kernel's
# scipy route, whose import time would count against Hypothesis's deadline
import scipy.special  # noqa: F401
from hypothesis import given, settings
from hypothesis import strategies as st

from minuexp import (
    MinUExpParams,
    bivariate_pdf,
    count_mean_var,
    count_pmf,
    erlang_pdf,
    factorial_moment,
    lst,
    mean_xi_given_count,
    pgf,
    raw_moment,
    scale,
    tau_cdf,
    tau_pdf,
)
from minuexp._mixture import log_mixing_kernel


def _log_uniform(lo: float, hi: float):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


params_st = st.builds(MinUExpParams, _log_uniform(1e-6, 1e3), _log_uniform(1e-6, 1e3))
times_st = st.lists(_log_uniform(1e-6, 1e6), min_size=1, max_size=8)


@given(params=params_st, s=st.integers(0, 2000), ts=times_st)
def test_log_kernel_is_never_nan_and_arrays_equal_scalars(params, s, ts):
    cs = params.lam + np.array(ts)
    out = log_mixing_kernel(params, s, cs)
    assert not np.isnan(out).any()
    assert out.tolist() == [log_mixing_kernel(params, s, float(c)) for c in cs]


# a fixed log-spaced sweep besides the drawn times: the direct tau_pdf form
# was negative somewhere on it for about 9% of parameter pairs
T_SWEEP = np.geomspace(1e-6, 1e6, 200)


@given(params=params_st, n=st.integers(1, 2000), ts=times_st)
def test_densities_are_nonnegative(params, n, ts):
    t = np.concatenate([ts, T_SWEEP])
    assert (erlang_pdf(params, n, t) >= 0.0).all()
    assert (tau_pdf(params, t) >= 0.0).all()


@given(params=params_st, ts=times_st)
def test_waiting_time_cdf_is_monotone_in_unit_interval(params, ts):
    cdf = tau_cdf(params, np.sort(ts))
    assert ((cdf >= 0.0) & (cdf <= 1.0)).all()
    assert (np.diff(cdf) >= 0.0).all()


@given(
    params=params_st,
    mu_t=_log_uniform(1e-6, 1e6),
    ns=st.lists(st.integers(0, 2000), min_size=1, max_size=8),
)
def test_posterior_means_lie_inside_the_support(params, mu_t, ns):
    # E(xi | N = n) in (0, a), for an array of counts and for each count alone
    means = mean_xi_given_count(params, mu_t, np.array(ns))
    assert ((means > 0.0) & (means < params.a)).all()
    assert means.tolist() == [mean_xi_given_count(params, mu_t, n) for n in ns]


# --------------------------------------------------------------------------
# The paper's relations between laws coded apart, at 1e-12 wherever both
# sides are normal doubles: the sign-tracked combine missed them by up to
# 1.3e-11 where q < 0.  The orders stop at 250: past about 300 the terms an
# evaluator adds in log space, such as (n-1) log t and lgamma(n), reach
# 1e4, and their rounding alone comes near 1e-12

TINY = 2.2250738585072014e-308


def _normal(*values):
    return all(TINY <= abs(v) < math.inf for v in values)


@settings(max_examples=400, deadline=None)
@given(params=params_st, n=st.integers(1, 250), t=_log_uniform(1e-4, 1e4))
def test_erlang_density_is_the_count_law_at_the_scaled_parameters(params, n, t):
    # T_n <= t exactly when N(t) >= n, and scaling xi by t gives the count law
    # at unit intensity: f_n(t) = (n/t) p_n at scale(p, t)
    density = erlang_pdf(params, n, t)
    p_n = count_pmf(scale(params, t), n)
    # a subnormal p_n has lost bits before n/t can bring it back to range
    if _normal(density, p_n, n / t * p_n):
        assert density == pytest.approx(n / t * p_n, rel=1e-12, abs=0.0)


@settings(max_examples=400, deadline=None)
@given(params=params_st, n=st.integers(0, 250), mu_t=_log_uniform(1e-4, 1e4))
def test_posterior_mean_is_a_ratio_of_count_probabilities(params, n, mu_t):
    # E(xi | N = n) = (n+1) p_(n+1) / (mu p_n), p at scale(p, mu)
    scaled = scale(params, mu_t)
    p_n, p_next = count_pmf(scaled, n), count_pmf(scaled, n + 1)
    mean = mean_xi_given_count(params, mu_t, n)
    if _normal(p_n, p_next, mean):
        assert mean == pytest.approx((n + 1) * p_next / (mu_t * p_n), rel=1e-12, abs=0.0)


@settings(max_examples=400, deadline=None)
@given(params=params_st, mu_t=_log_uniform(1e-4, 1e4))
def test_no_arrival_is_the_transform_at_the_intensity(params, mu_t):
    # P(N(t) = 0) = E e^(-mu xi), the count law at scale(p, mu) and unit intensity
    p_0, transform = count_pmf(scale(params, mu_t), 0), lst(params, mu_t)
    if _normal(p_0, transform):
        assert p_0 == pytest.approx(transform, rel=1e-12, abs=0.0)


@settings(max_examples=400, deadline=None)
@given(params=params_st, t=_log_uniform(1e-4, 1e4))
def test_waiting_time_density_is_the_first_epoch_density(params, t):
    # tau = T_1
    density, first = tau_pdf(params, t), erlang_pdf(params, 1, t)
    if _normal(density, first):
        assert density == pytest.approx(first, rel=1e-12, abs=0.0)


@settings(max_examples=400, deadline=None)
@given(params=params_st, t=_log_uniform(1e-4, 1e4))
def test_waiting_time_survival_is_the_transform(params, t):
    # P(tau > t) = E e^(-xi t); only where lst >= 1/2 does 1 - tau_cdf not
    # cancel
    transform = lst(params, t)
    if transform >= 0.5:
        assert 1.0 - tau_cdf(params, t) == pytest.approx(transform, rel=1e-12, abs=0.0)


@settings(max_examples=400, deadline=None)
@given(params=params_st, mu_t=_log_uniform(1e-4, 1e4), z=st.floats(-1.0, 1.0))
def test_pgf_is_the_transform_at_the_thinned_intensity(params, mu_t, z):
    # E z^N = E e^(-mu xi (1 - z))
    value, transform = pgf(params, mu_t, z), lst(params, mu_t * (1.0 - z))
    if _normal(value, transform):
        assert value == pytest.approx(transform, rel=1e-12, abs=0.0)


@settings(max_examples=400, deadline=None)
@given(params=params_st, mu_t=_log_uniform(1e-4, 1e4), k=st.integers(1, 60))
def test_factorial_moments_are_raw_moments_of_the_poisson_mean(params, mu_t, k):
    # E(N)_k = E (mu xi)^k; mu^k is at most 1e240 here, so it is finite
    value, raw = factorial_moment(params, mu_t, k), raw_moment(params, k)
    if _normal(value, raw, mu_t**k * raw):
        assert value == pytest.approx(mu_t**k * raw, rel=1e-12, abs=0.0)


@settings(max_examples=400, deadline=None)
@given(params=params_st, mu_t=_log_uniform(1e-4, 1e4))
def test_count_mean_is_the_first_factorial_moment(params, mu_t):
    # E N = mu E xi = E(N)_1
    mean, first = count_mean_var(params, mu_t)[0], factorial_moment(params, mu_t, 1)
    if _normal(mean, first):
        assert mean == pytest.approx(first, rel=1e-14, abs=0.0)


@settings(max_examples=400, deadline=None)
@given(
    params=st.builds(MinUExpParams, _log_uniform(1e-6, 1e6), _log_uniform(1e-6, 1e6)),
    t=_log_uniform(1e-6, 1e6),
    j=st.integers(-30, 30),
    u=st.floats(1e-3, 0.999),
)
def test_waiting_time_laws_are_equivariant_under_power_of_two_scaling(params, t, j, u):
    # xi -> k xi maps (a, lambda) to (k a, lambda/k), tau to tau/k and the
    # joint density at (t, x) to the one at (t/k, k x); with k = 2^j every
    # scaled input is exact, so transforms, c.d.f.s and joint densities keep
    # their bits and the density of tau scales by exactly k
    k = 2.0**j
    scaled, x = scale(params, k), u * params.a
    scaled_pdf = tau_pdf(scaled, t / k)
    pairs = [
        (lst(params, t), lst(scaled, t / k)),
        (tau_cdf(params, t), tau_cdf(scaled, t / k)),
        (tau_pdf(params, t), scaled_pdf / k if _normal(scaled_pdf) else math.nan),
        (bivariate_pdf(params, t, x), bivariate_pdf(scaled, t / k, k * x)),
    ]
    for value, image in pairs:
        if _normal(value, image):
            assert value == image


def test_every_relative_check_sets_its_absolute_tolerance():
    # pytest.approx(x, rel=r) with no abs= also passes any pair within its
    # default abs=1e-12, whatever their ratio: below that it checks nothing
    missing = []
    for path in sorted(Path(__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            func = getattr(node, "func", None)
            if getattr(func, "attr", getattr(func, "id", None)) == "approx":
                keywords = {k.arg for k in node.keywords}
                if "rel" in keywords and "abs" not in keywords:
                    missing.append(f"{path.name}:{node.lineno}")
    assert missing == []
