"""Stress the shared log-space mixture kernel where direct math dies.

The reference route is deliberately not an integral: boundary-layer
integrands at large n defeat generic quadrature.  Instead the two-gamma
closed form is evaluated in 80-digit arithmetic with ascending-series
lower gammas, which stays exact through the cancellation regime where the
kernel's two bracket terms nearly cancel (term ratio ~ lambda (n+1) / c).
The moments that route through the kernel are checked the same way,
against their own incomplete-gamma closed forms.
"""

import math
import warnings

import mpmath
import numpy as np
import pytest

import minuexp
import minuexp.gamma_kernel
from minuexp import (
    MinUExpParams,
    count_pmf,
    counting,
    erlang_moment,
    factorial_moment,
    interarrival,
    raw_moment,
    structure,
)
from minuexp import _mixture
from minuexp._mixture import log_mixing_kernel, mixing_kernel

from conftest import CORNER_GRID, P11, P110, PARAM_GRID


def _gamma_series(s, x):
    s, x = mpmath.mpf(s), mpmath.mpf(x)
    term, total, k = mpmath.mpf(1), mpmath.mpf(1), 1
    while True:
        term *= x / (s + k)
        total += term
        if term < mpmath.mpf(10) ** -70 * total:
            break
        k += 1
    return x**s * mpmath.e**-x * total / s


def _gamma_ref(s, x):
    # ascending series below the shape, mpmath's own routine otherwise
    return _gamma_series(s, x) if x < s else mpmath.gammainc(mpmath.mpf(s), 0, mpmath.mpf(x))


def _kernel_reference(a, lam, s, c):
    # real order s > -1
    am, lm, cm, sm = map(mpmath.mpf, (a, lam, c, s))
    return (1 / am) * (
        (1 + lm * am) * _gamma_ref(sm + 1, am * cm) / cm ** (sm + 1)
        - lm * _gamma_ref(sm + 2, am * cm) / cm ** (sm + 2)
    )


def _log_kernel_reference(a, lam, s, c):
    return float(mpmath.log(_kernel_reference(a, lam, s, c)))


def _raw_moment_reference(a, lam, k):
    # E(xi^k) = (k / lambda^k) (gamma(k, a lambda) - gamma(k+1, a lambda)/(a lambda))
    lm, z = mpmath.mpf(lam), mpmath.mpf(a) * mpmath.mpf(lam)
    return k / lm**k * (_gamma_ref(k, z) - _gamma_ref(k + 1, z) / z)


def _erlang_moment_reference(a, lam, n, p):
    # E(T_n^p) = Gamma(p+n)/(n-1)! lambda^p ((1 + p/z) gamma(1-p, z) + e^(-z)/z^p), z = a lambda
    lm, pm = mpmath.mpf(lam), mpmath.mpf(p)
    z = mpmath.mpf(a) * lm
    bracket = (1 + pm / z) * _gamma_ref(1 - pm, z) + mpmath.e**-z / z**pm
    return mpmath.gamma(pm + n) / mpmath.factorial(n - 1) * lm**pm * bracket


def _is_normal_double(value):
    return mpmath.mpf(2.2250738585072014e-308) <= value <= mpmath.mpf(1.7976931348623157e308)


EXTREME_CASES = [
    # (a, lam, n, c): negative-coefficient, underflow, and overflow regimes
    (0.5, 0.25, 150, 0.1),
    (0.5, 0.25, 1200, 0.1),
    (0.5, 0.25, 1200, 200.0),
    (1.0, 1.0, 150, 2.0),
    (1.0, 1.0, 400, 2.0),
    (1.0, 1.0, 1200, 200.0),
    (5.0, 4.0, 150, 10.0),
    (5.0, 4.0, 400, 1.04),
    (110.0, 0.04, 150, 1.04),
    (110.0, 0.04, 400, 200.0),
    (110.0, 0.04, 1200, 2.0),
]


@pytest.mark.parametrize("a,lam,n,c", EXTREME_CASES)
def test_log_kernel_tracks_high_precision_reference(a, lam, n, c):
    mpmath.mp.dps = 80
    got = log_mixing_kernel(MinUExpParams(a, lam), n, c)
    ref = _log_kernel_reference(a, lam, n, c)
    assert got == pytest.approx(ref, abs=1e-8)


def test_kernel_broadcasts_and_matches_scalars():
    # orders past 127 take route A's converged series where ac < s + 1 and
    # route C elsewhere; the orders up to 127 take their tables
    ns = np.array([0, 3, 17, 150, 400, 1000, 2000])
    cs = np.array([0.5, 2.0, 40.0])
    for p in (P11, P110):
        grid = log_mixing_kernel(p, ns[:, None], cs[None, :])
        assert grid.shape == (7, 3)
        for i, n in enumerate(ns):
            for j, c in enumerate(cs):
                assert grid[i, j] == log_mixing_kernel(p, int(n), float(c))
        # a scalar order against an array of c, as erlang_pdf calls it
        cs_row = np.geomspace(0.01, 100.0, 60)
        for n in (1, 20, 2000):
            row = log_mixing_kernel(p, n, cs_row)
            assert row.shape == cs_row.shape
            assert row.tolist() == [log_mixing_kernel(p, n, float(c)) for c in cs_row]


def test_kernel_raises_no_warning_where_q_changes_sign():
    # where q >= 0 and c is large, |t1| / t2 is about e^c: an expm1 taken
    # over the whole array would overflow there
    ns = np.arange(301)[:, None]
    cs = np.geomspace(1.01, 1000.0, 200)[None, :]
    q = P11.lam * P11.a * cs + cs - P11.lam * (ns + 1.0)
    assert (q < 0.0).any() and (q > 0.0).any()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = log_mixing_kernel(P11, ns, cs)
    assert out.shape == q.shape and not np.isnan(out).any()


def test_kernel_validation():
    for order in (-1, -1.5, math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            log_mixing_kernel(P11, order, 1.0)
    with pytest.raises(ValueError):
        log_mixing_kernel(P11, 1, 0.0)
    # the order may be any real above -1
    mpmath.mp.dps = 40
    for order in (1.5, -0.5):
        for c in (1.0, 2.5):
            ref = _log_kernel_reference(1.0, 1.0, order, c)
            assert log_mixing_kernel(P11, order, c) == pytest.approx(ref, abs=1e-12)


def test_incomplete_gamma_lives_only_in_the_kernel():
    gk = minuexp.gamma_kernel
    assert gk.__all__ == [] and "log_lower_incomplete_gamma" not in vars(minuexp)
    bound = {id(gk), id(gk._log_lower_incomplete_gamma)}
    for module in (structure, counting, interarrival):
        names = [name for name, value in vars(module).items() if id(value) in bound]
        assert names == [], module.__name__


def test_zero_coefficient_edge():
    # c (1 + lambda a) = lambda (n + 1) makes the polynomial term vanish
    a, lam, n = 1.0, 1.0, 3
    c = lam * (n + 1) / (1.0 + lam * a)
    got = mixing_kernel(MinUExpParams(a, lam), n, c)
    mpmath.mp.dps = 60
    ref = math.exp(_log_kernel_reference(a, lam, n, c))
    assert got == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_count_pmf_across_the_zero_coefficient():
    # at (1, 1) the count p.m.f. has c = 2 and q = 3 - n: positive below
    # n = 3, exactly 0 at n = 3 (only the t2 term is left) and negative above
    mpmath.mp.dps = 60
    got = count_pmf(P11, np.arange(11))
    for n in range(11):
        ref = mpmath.exp(_log_kernel_reference(1.0, 1.0, n, 2.0)) / mpmath.factorial(n)
        assert got[n] == pytest.approx(float(ref), rel=1e-14, abs=0.0), n
    assert count_pmf(P11, 3) == pytest.approx(float(mpmath.exp(-2) / 12), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("params", [P11, MinUExpParams(0.5, 0.25)], ids=str)
def test_count_pmf_array_equals_scalars_where_q_changes_sign(params):
    # q changes sign at n = 3 and n = 4.6; the combine once took a different
    # branch for all-positive, all-negative and mixed arrays
    ns = np.arange(2001)
    assert count_pmf(params, ns).tolist() == [count_pmf(params, int(n)) for n in ns]


def test_erlang_pdf_array_equals_scalars_where_q_changes_sign():
    # at (1, 1) q = 2 (1 + t) - (n + 1) changes sign at t = (n - 1)/2
    ts = np.geomspace(1e-3, 1e3, 120)
    for n in range(1, 21):
        assert interarrival.erlang_pdf(P11, n, ts).tolist() == [
            interarrival.erlang_pdf(P11, n, float(t)) for t in ts
        ], n


def test_large_count_pmf_at_figure_parameters():
    # a = 110 pushes a^n and e^(-ac) far outside double range
    mpmath.mp.dps = 80
    for n in (150, 500):
        ref = math.exp(
            _log_kernel_reference(110.0, 0.04, n, 1.04) - float(mpmath.log(mpmath.factorial(n)))
        )
        assert float(count_pmf(P110, n)) == pytest.approx(ref, rel=1e-8, abs=0.0)


MOMENT_ORDERS = (1, 2, 5, 20, 60, 100, 130, 145, 160, 171, 200, 250)


def test_raw_and_factorial_moments_at_high_orders():
    # the direct gamma(k, .) Gamma(k) product underflowed to 0 or gave NaN here
    mpmath.mp.dps = 80
    for p in PARAM_GRID + [P110]:
        for k in MOMENT_ORDERS:
            ref = _raw_moment_reference(p.a, p.lam, k)
            if _is_normal_double(ref):
                assert raw_moment(p, k) == pytest.approx(float(ref), rel=1e-10, abs=0.0), (p, k)
            fact_ref = mpmath.mpf(0.8) ** k * ref
            if _is_normal_double(fact_ref):
                assert factorial_moment(p, 0.8, k) == pytest.approx(float(fact_ref), rel=1e-10, abs=0.0), (p, k)


def test_raw_moment_overflows_to_inf():
    mpmath.mp.dps = 80
    assert not _is_normal_double(_raw_moment_reference(110.0, 0.04, 250))
    assert raw_moment(P110, 250) == math.inf


@pytest.mark.parametrize("n", [172, 200, 1000])
def test_erlang_moment_at_large_event_index(n):
    mpmath.mp.dps = 80
    for p in (P11, MinUExpParams(0.5, 4.0), P110):
        for power in (-20.0, -0.5, 0.5):
            got = erlang_moment(p, n, power)
            assert math.isfinite(got)
            assert got == pytest.approx(float(_erlang_moment_reference(p.a, p.lam, n, power)), rel=1e-10, abs=0.0)


# --------------------------------------------------------------------------
# The scalar path: 0-d (s, c) on Python floats, with the array path's bits

SCALAR_GRID = PARAM_GRID + CORNER_GRID + [P110]
# integer orders on all three gamma routes, and real ones (the moments)
SCALAR_ORDERS = [0, 1, 2, 3, 7, 8, 20, 21, 64, 113, 127, 128, 150, 400, -0.5, -0.999, 0.5, 2.5,
                 float(np.nextafter(20.0, 21.0))]


def _scalar_kinds(value):
    """value as a Python float, a numpy float, a 0-d array, and as an int if it is one."""
    kinds = [float(value), np.float64(value), np.asarray(float(value))]
    if float(value).is_integer():
        kinds += [int(value), np.int64(value)]
    return kinds


@pytest.mark.parametrize("params", SCALAR_GRID, ids=str)
def test_kernel_scalar_path_equals_array_path(params):
    # c = lambda + t puts a c on both sides of 8 and near each order
    a, lam = params.a, params.lam
    cs = np.concatenate([lam + np.geomspace(1e-3, 1e3, 14), np.array([8.0, 21.0, 128.0, 400.0]) / a])
    cs = cs[(cs > 0.0) & (cs < np.inf)]
    grid = log_mixing_kernel(params, np.array(SCALAR_ORDERS, dtype=float)[:, None], cs[None, :])
    for i, s in enumerate(SCALAR_ORDERS):
        # a scalar order against an array of c, as erlang_pdf calls it
        assert log_mixing_kernel(params, s, cs).tolist() == grid[i].tolist(), s
        for j, c in enumerate(cs.tolist()):
            for s_k in _scalar_kinds(s):
                value = log_mixing_kernel(params, s_k, c)
                assert type(value) is float
                assert value == grid[i, j] or (math.isnan(value) and math.isnan(grid[i, j])), (s_k, c)
            assert log_mixing_kernel(params, float(s), np.asarray(c)) == grid[i, j]


@pytest.mark.parametrize("params", SCALAR_GRID, ids=str)
def test_count_laws_scalar_n_equal_array_n(params):
    ns = np.arange(0, 161)
    pmf = counting.count_pmf(params, ns)
    for n in ns[::3].tolist() + [113, 127, 128]:
        for n_k in (n, np.int64(n), float(n), np.asarray(n)):
            value = counting.count_pmf(params, n_k)
            assert type(value) is float and value == pmf[n], (n_k,)
    for mu_t in (0.1, 8.0 / params.a, 30.0):
        means = counting.mean_xi_given_count(params, mu_t, ns)
        for n in ns[::4].tolist():
            for n_k in (n, np.int64(n), float(n)):
                assert counting.mean_xi_given_count(params, mu_t, n_k) == means[n], (mu_t, n_k)


@pytest.mark.parametrize("params", SCALAR_GRID, ids=str)
def test_kernel_evaluators_scalar_equal_array_kernel(params):
    lam = params.lam
    ks = np.arange(1, 130)
    with np.errstate(over="ignore"):
        for mu_t in (0.2, 3.0):
            row = log_mixing_kernel(params, ks.astype(float), np.full(ks.size, lam))
            for k in (1, 2, 7, 21, 64, 129):
                ref = float(np.exp(k * math.log(mu_t) + row[k - 1]))
                assert factorial_moment(params, mu_t, k) == ref, (mu_t, k)
        powers = np.array([-0.9, -0.5, 0.0, 0.25, 0.5, 0.9])
        row = log_mixing_kernel(params, -powers, np.full(powers.size, lam))
        for n in (1, 2, 5):
            for power, log_j in zip(powers.tolist(), row.tolist()):
                ratio = math.lgamma(power + n) - math.lgamma(n)
                assert erlang_moment(params, n, power) == float(np.exp(ratio + log_j)), (n, power)
    grid, counts = np.array([0.5, 1.5, 4.0]), np.array([1, 3, 9])
    bracket = log_mixing_kernel(params, np.full(20, 9.0), np.full(20, lam + 4.0))[0]
    widths = np.diff(grid, prepend=0.0)
    steps = np.diff(counts, prepend=0)
    log_factorials = np.array([math.lgamma(s + 1.0) for s in steps])
    log_product = float(np.sum(steps * np.log(widths) - log_factorials))
    assert counting.ordered_pmf(params, grid, counts) == math.exp(log_product + bracket)


@pytest.mark.parametrize("params", SCALAR_GRID, ids=str)
def test_time_evaluators_at_0d_t_equal_array(params):
    t = np.concatenate([np.geomspace(1e-3, 1e3, 30), np.array([8.0, 21.0]) / params.a - params.lam])
    t = t[t > 0.0]
    for n in (1, 2, 7, 20, 127, 128):
        dens = interarrival.erlang_pdf(params, n, t)
        for i, v in enumerate(t.tolist()):
            for v_k in (v, np.float64(v), np.asarray(v)):
                assert interarrival.erlang_pdf(params, n, v_k) == dens[i], (n, v_k)
    means = interarrival.mean_xi_given_tau(params, t)
    assert means.tolist() == [interarrival.mean_xi_given_tau(params, v) for v in t.tolist()]


def _error_text(call):
    with pytest.raises(ValueError) as info:
        call()
    return str(info.value)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0, -2.5])
def test_kernel_scalar_path_raises_as_the_array_path_for_orders(bad):
    expected = _error_text(lambda: log_mixing_kernel(P11, np.full(20, bad), 1.5))
    assert expected == _error_text(lambda: log_mixing_kernel(P11, np.array([bad]), 1.5))
    for bad_k in (bad, np.float64(bad), np.asarray(bad)):
        assert _error_text(lambda: log_mixing_kernel(P11, bad_k, 1.5)) == expected
    if bad.is_integer():
        assert _error_text(lambda: log_mixing_kernel(P11, int(bad), 1.5)) == expected


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0])
def test_kernel_scalar_path_raises_as_the_array_path_for_tilts(bad):
    expected = _error_text(lambda: log_mixing_kernel(P11, 2.0, np.full(20, bad)))
    for bad_k in (bad, np.float64(bad), np.asarray(bad)):
        assert _error_text(lambda: log_mixing_kernel(P11, 2, bad_k)) == expected


@pytest.mark.parametrize(
    "bad", [-1, -1.0, np.int64(-3), 2.5, np.float64(0.5), math.nan, math.inf, -math.inf, 2**64]
)
def test_count_laws_scalar_n_raise_as_the_array_path(bad):
    pmf = _error_text(lambda: counting.count_pmf(P11, np.array([bad, 1.0])))
    assert _error_text(lambda: counting.count_pmf(P11, bad)) == pmf
    mean = _error_text(lambda: counting.mean_xi_given_count(P11, 2.0, np.array([bad, 1.0])))
    assert _error_text(lambda: counting.mean_xi_given_count(P11, 2.0, bad)) == mean


# --------------------------------------------------------------------------
# The array dispatcher, branch by branch: one order over an array of c, with
# each element's bits those of the scalar path


def _scalar_row(params, s, cs):
    return [log_mixing_kernel(params, s, c) for c in cs.tolist()]


@pytest.mark.parametrize("params", [P11, P110, MinUExpParams(5.0, 4.0)], ids=str)
def test_dispatcher_one_route_in_place(params):
    # every z below s + 1 (route A alone), and every finite z at or above it
    # (route B alone): the route runs on the whole array, without a gather
    for s in (0.0, 3.0, 20.0, 126.5, 127.0):
        cs = np.geomspace(1e-3, 0.999, 50) * (s + 1.0) / params.a
        assert (params.a * cs < s + 1.0).all()
        assert log_mixing_kernel(params, s, cs).tolist() == _scalar_row(params, s, cs), s
    for s in (0, 1, 3, 20, 127):
        cs = np.geomspace(1.0, 1e6, 50) * (s + 1.0) / params.a
        assert (params.a * cs >= s + 1.0).all()
        assert log_mixing_kernel(params, s, cs).tolist() == _scalar_row(params, s, cs), s


@pytest.mark.parametrize("params", [P11, P110, MinUExpParams(5.0, 4.0)], ids=str)
def test_dispatcher_mixed_routes(params):
    # routes A and B within one array, the order's z = s + 1 itself included
    for s in (1, 5, 20, 127):
        cs = np.concatenate([np.geomspace(1e-2, 1e2, 61) * (s + 1.0) / params.a,
                             [(s + 1.0) / params.a]])
        z = params.a * cs
        assert (z < s + 1.0).any() and (z >= s + 1.0).any()
        assert log_mixing_kernel(params, s, cs).tolist() == _scalar_row(params, s, cs), s
    # route C elements: a real order past z = s + 1 beside its route-A
    # elements, and orders past 127, which take route C alone
    for s in (127.5, 128, 300):
        cs = np.geomspace(1e-2, 1e2, 41) * (s + 1.0) / params.a
        assert log_mixing_kernel(params, s, cs).tolist() == _scalar_row(params, s, cs), s


def test_dispatcher_where_z_overflows():
    # where z = ac overflows at finite c, every order takes route B's limit,
    # g = theta + 1 and e^E = 0, without a warning.  Beside it: route B or
    # C at 1e300, route A at 1e-3
    p = MinUExpParams(1e3, 1.0)
    mpmath.mp.dps = 40
    cs = np.array([1e300, 1e306, 1e-3, 1.7e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s in (0, 1, 3, 5, 127, 0.5, 127.5, 128, 300, 2000):
            row = log_mixing_kernel(p, s, cs)
            assert row.tolist() == _scalar_row(p, s, cs), s
            for c, value in zip(cs.tolist(), row.tolist()):
                ref = _log_kernel_reference(p.a, p.lam, s, c)
                assert value == pytest.approx(ref, rel=1e-14, abs=0.0), (s, c)
        got = log_mixing_kernel(p, [0, 1, 5], 1e306)
        mixed = log_mixing_kernel(p, [0.5, 128.0], [1e306, 1e306])
        assert mixed.tolist() == [log_mixing_kernel(p, 0.5, 1e306), log_mixing_kernel(p, 128, 1e306)]
    assert got.tolist() == pytest.approx([-704.59003895584490, -1409.1810774120229,
                                          -4222.7577394939527], rel=1e-15, abs=0.0)
    # a real order and an order past 127, which gave NaN here
    ref = [_log_kernel_reference(p.a, p.lam, s, 1e306) for s in (0.5, 128)]
    assert mixed.tolist() == pytest.approx(ref, rel=1e-14, abs=0.0)


def test_public_evaluators_where_z_overflows():
    p = MinUExpParams(1e3, 1.0)
    mpmath.mp.dps = 40
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert interarrival.erlang_pdf(p, 1, 1e306) == 0.0
        assert interarrival.erlang_pdf(p, 3, [1e300, 1e306]).tolist() == [0.0, 0.0]
        # past order 127, which gave NaN here
        assert interarrival.erlang_pdf(p, 128, 1e306) == 0.0
        assert interarrival.erlang_pdf(p, 128, [1e300, 1e306]).tolist() == [0.0, 0.0]
        # E(xi | N = 2) = J(3, c)/J(2, c) and E(xi | tau = t) = J(2, c)/J(1, c)
        count_mean = counting.mean_xi_given_count(p, 1e306, 2)
        tau_mean = interarrival.mean_xi_given_tau(p, 1e306)
        assert counting.mean_xi_given_count(p, 1e306, [2]).tolist() == [count_mean]
        assert interarrival.mean_xi_given_tau(p, [1e306]).tolist() == [tau_mean]
    c = 1e306
    ref = _kernel_reference(p.a, p.lam, 3, c) / _kernel_reference(p.a, p.lam, 2, c)
    assert count_mean == pytest.approx(float(ref), rel=1e-12, abs=0.0)
    assert count_mean == pytest.approx(3e-306, rel=1e-12, abs=0.0)
    c = p.lam + 1e306
    ref = _kernel_reference(p.a, p.lam, 2, c) / _kernel_reference(p.a, p.lam, 1, c)
    assert tau_mean == pytest.approx(float(ref), rel=1e-12, abs=0.0)
    assert tau_mean == pytest.approx(2e-306, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("params", [P11, P110] + CORNER_GRID, ids=str)
def test_erlang_pdf_masked_points_keep_the_bits_of_positive_ones(params):
    # an array holding 0, -1, NaN or inf takes the masked path; its positive
    # finite points keep the bits of the all-positive array, which does not
    ts = np.geomspace(1e-3, 1e3, 40)
    odd = np.array([0.0, -1.0, math.nan, math.inf, -math.inf])
    mixed = np.insert(ts, [0, 7, 13, 29, 40], odd)
    inside = (mixed > 0.0) & (mixed < math.inf)
    for n in (1, 2, 7, 20):
        out = interarrival.erlang_pdf(params, n, mixed)
        assert out[inside].tolist() == interarrival.erlang_pdf(params, n, ts).tolist(), n
        assert out[~inside & ~np.isnan(mixed)].tolist() == [0.0] * 4
        assert np.isnan(out[np.isnan(mixed)]).all()


def test_count_pmf_as_its_log_factorial_table_grows(monkeypatch):
    # the table of log n! starts empty and grows with the largest count seen;
    # counts past its cap take math.lgamma one by one
    monkeypatch.setattr(counting, "_log_factorial_table", np.zeros(0))
    cap = counting._LOG_FACTORIAL_CAP
    lam1 = P11.lam + 1.0

    def direct(ns):
        log_factorials = np.array([math.lgamma(k + 1.0) for k in ns.tolist()])
        return np.exp(log_mixing_kernel(P11, ns, lam1) - log_factorials).tolist()

    for ns in (np.arange(10), np.arange(3000), np.arange(10), np.array([5, cap + 7, 0, cap])):
        assert count_pmf(P11, ns).tolist() == direct(ns), ns.size
    assert counting._log_factorial_table.size == cap
    assert count_pmf(P11, cap + 7) == direct(np.array([cap + 7]))[0]


# --------------------------------------------------------------------------
# The kernel's own sums: routes A (z < s + 1) and B (z >= s + 1), s <= 127


def _kummer_tails(s, terms):
    """Tails of P0 = sum z^k/(b)_k and P1 = sum z^k (k+1)/(b)_(k+1) past
    `terms` terms, over their heads, at z = s + 1 (b = s + 2)."""
    b, z = mpmath.mpf(s) + 2, mpmath.mpf(s) + 1
    t0, heads, tails = mpmath.mpf(1), [0, 0], [0, 0]
    k = 0
    while k < terms or t0 > mpmath.mpf(10) ** -30 * heads[0]:
        t1 = t0 * (k + 1) / (b + k)
        part = heads if k < terms else tails
        part[0] += t0
        part[1] += t1
        t0 *= z / (b + k)
        k += 1
    return max(tails[0] / heads[0], tails[1] / heads[1])


def _route_a_terms(s):
    return _mixture._table(_mixture._kummer_tables, float(s))[1]


def test_route_a_table_lengths():
    # K(s) terms leave both tails below 2^-54 of their sums at z = s + 1,
    # where they are largest, and K(s) - 2 terms do not
    mpmath.mp.dps = 30
    counts = {}
    for s in list(range(0, 128, 9)) + [127]:
        count = _route_a_terms(s)
        assert _kummer_tails(s, count) < mpmath.mpf(2) ** -54, s
        assert _kummer_tails(s, count - 2) >= mpmath.mpf(2) ** -54, s
        counts[s] = count
    assert (counts[0], counts[127], _route_a_terms(20)) == (18, 110, 51)
    assert counts[127] == _mixture._KUMMER_WIDTH
    # an array of orders runs the passes of its largest order
    lengths = [_route_a_terms(s) for s in range(128)]
    assert lengths == sorted(lengths)


def test_lgamma_table_is_within_an_ulp_of_log_factorial():
    # route B's log s!, not math.lgamma: that misses log 2 at s = 2 by 3.2 ulps
    mpmath.mp.dps = 50
    exact = [float(mpmath.log(mpmath.factorial(s))) for s in range(_mixture._OWN_MAX_ORDER + 1)]
    table = _mixture._integer_tables(_mixture._poisson_tables)[2].tolist()
    assert len(table) == len(exact) == 128
    assert sum(a != b for a, b in zip(table, exact)) <= 3
    assert all(abs(a - b) <= math.ulp(b) for a, b in zip(table, exact))
    assert table[2] == math.log(2.0) != math.lgamma(3.0)


def test_taylor_terms_of_stable_b_and_a():
    # below x = 1 the alternating series of B and A stop at _TAYLOR_TERMS
    # terms: the first term left out, largest against the sum as x -> 1, is
    # below 2^-54 of B(1) = 1/e and of A(1) = 3/e - 1, and with one term
    # fewer it is not
    mpmath.mp.dps = 30
    b1, a1 = mpmath.e**-1, 3 * mpmath.e**-1 - 1

    def first_left_out(j):
        return max(1 / mpmath.factorial(j) / b1, (j - 2) / mpmath.factorial(j) / a1)

    terms = _mixture._TAYLOR_TERMS
    assert first_left_out(terms) < mpmath.mpf(2) ** -54 <= first_left_out(terms - 1)
    xs = np.concatenate([np.geomspace(1e-300, 0.999, 60), np.array([0.5, 0.999999])])
    values = zip(xs.tolist(), _mixture._stable_B(xs).tolist(), _mixture._stable_A(xs).tolist())
    for x, b, a in values:
        # both forms cancel to their leading terms x^2/2 and x^3/6, so the
        # reference carries three more digits per decade of x below 1
        with mpmath.workdps(30 + 3 * int(max(0.0, -math.log10(x)))):
            xm = mpmath.mpf(x)
            ref_b, ref_a = float(xm - 1 + mpmath.e**-xm), float(xm - 2 + (xm + 2) * mpmath.e**-xm)
        assert b == pytest.approx(ref_b, rel=4e-16, abs=0.0), x
        assert a == pytest.approx(ref_a, rel=4e-16, abs=0.0), x


# orders spread over 0..127, both routes at every tilt below
GATE_ORDERS = [0, 1, 2, 3, 5, 8, 13, 20, 21, 34, 55, 64, 89, 113, 126, 127]


@pytest.mark.parametrize("params", PARAM_GRID + CORNER_GRID + [P110], ids=str)
def test_log_kernel_to_1e12_at_orders_up_to_127(params):
    # |log J - log J_ref| is the relative error of J; the sign-tracked
    # combine left up to 8e-11 here where q < 0
    mpmath.mp.dps = 40
    for mu in (0.01, 1.0, 100.0):
        c = params.lam + mu
        got = log_mixing_kernel(params, np.array(GATE_ORDERS), c)
        for n, value in zip(GATE_ORDERS, got.tolist()):
            ref = _log_kernel_reference(params.a, params.lam, n, c)
            assert abs(value - ref) <= 1e-12, (mu, n)


def _log_kernel_reference_120(a, lam, s, c):
    # the closed form in 120 digits, with gamma(s+2, z) from gamma(s+1, z)
    # by the recurrence gamma(s+2, z) = (s+1) gamma(s+1, z) - z^(s+1) e^(-z),
    # which costs at most log10(s/z) of the digits
    with mpmath.workdps(120):
        am, lm, cm, sm = map(mpmath.mpf, (a, lam, c, s))
        z = am * cm
        g1 = _gamma_ref(sm + 1, z)
        g2 = (sm + 1) * g1 - z ** (sm + 1) * mpmath.exp(-z)
        return mpmath.log(((1 + lm * am) * g1 / cm ** (sm + 1) - lm * g2 / cm ** (sm + 2)) / am)


def _log_kernel_references_120(a, lam, c, top):
    # log J(s, c) at every order s = 0..top in 120 digits: gamma(s+1, z) by
    # the backward recurrence gamma(s, z) = (gamma(s+1, z) + z^s e^(-z)) / s
    # from gamma(top+2, z), which adds positive terms only
    with mpmath.workdps(120):
        am, lm, cm = map(mpmath.mpf, (a, lam, c))
        z = am * cm
        gammas = [mpmath.mpf(0)] * (top + 3)
        gammas[top + 2] = _gamma_ref(top + 2, z)
        power = z ** (top + 1) * mpmath.exp(-z)
        for s in range(top + 1, 0, -1):
            gammas[s] = (gammas[s + 1] + power) / s
            power /= z
        out, c_power = [], cm
        for s in range(top + 1):
            # the closed form, (1 + lambda a) gamma(s+1, z) / c^(s+1) - lambda
            # gamma(s+2, z) / c^(s+2), over a
            out.append(mpmath.log(((1 + lm * am) * gammas[s + 1] - lm * gammas[s + 2] / cm) / (c_power * am)))
            c_power *= cm
        return out


@pytest.mark.parametrize("params", PARAM_GRID + [P110], ids=str)
def test_log_kernel_against_120_digits_at_every_order_up_to_2000(params):
    # |log J - log J_ref| is the relative error of J; at most 1e-12, or 4
    # ulps of the largest term the routes add in log space where that is
    # more.  Routes B and C add lgamma(s+1) and -(s+1) log c, which reach
    # 2400 here at (5, 1), mu = 100, and each carries about an ulp from its
    # library log and its product, with half an ulp at each addition: the
    # kernel is 2.5 ulps (1.1e-12) off there at s = 464, and at most 2.9
    # ulps anywhere on this grid.  Only where log J lies within +-700.
    # Route C's sign-tracked combine left up to 1.5e-9 where z < s + 1.
    orders = np.arange(2001.0)
    for mu in (0.01, 1.0, 100.0):
        c = params.lam + mu
        refs = _log_kernel_references_120(params.a, params.lam, c, 2000)
        for n in (0, 128, 2000):
            assert mpmath.almosteq(refs[n], _log_kernel_reference_120(params.a, params.lam, n, c), 1e-60)
        got = log_mixing_kernel(params, orders, c)
        for n, value, ref in zip(range(2001), got.tolist(), refs):
            if abs(ref) <= 700:
                terms = (math.lgamma(n + 1.0), (n + 1) * math.log(c), n * math.log(params.a), params.a * c)
                tol = max(1e-12, 4 * float(np.spacing(max(map(abs, terms)))))
                assert abs(mpmath.mpf(value) - ref) <= tol, (mu, n)


@pytest.mark.parametrize("params", CORNER_GRID, ids=str)
def test_erlang_pdf_to_1e12_at_the_corners(params):
    mpmath.mp.dps = 40
    ts = np.geomspace(1e-12, 1e6, 37)
    for n in (1, 2, 7, 20, 64, 127):
        got = interarrival.erlang_pdf(params, n, ts)
        for t, value in zip(ts.tolist(), got.tolist()):
            # the exact c = lambda + t, not its rounding
            kernel = _kernel_reference(params.a, params.lam, n, mpmath.mpf(params.lam) + t)
            ref = mpmath.mpf(t) ** (n - 1) / mpmath.factorial(n - 1) * kernel
            if _is_normal_double(ref):
                assert value == pytest.approx(float(ref), rel=1e-12, abs=0.0), (n, t)


# --------------------------------------------------------------------------
# Route A at every order: the tables of the integer orders up to 127, the
# converged series otherwise, and route C where the series meets its cap


def test_integer_orders_up_to_127_keep_their_tables(monkeypatch):
    # in every call shape the integer orders up to 127 take their tables;
    # real orders and orders past 127 take the series engine
    seen = []

    def spy(engine):
        def wrapped(s, x, theta=0.0):
            seen.append(s)
            return engine(s, x, theta)
        return wrapped

    monkeypatch.setattr(_mixture, "_ascending", spy(_mixture._ascending))
    c = 0.5
    assert (P11.a * c < np.arange(128) + 1.0).all()
    log_mixing_kernel(P11, np.arange(128), c)
    log_mixing_kernel(P11, np.arange(128), np.full(128, c))
    for s in (0, 20, 127):
        log_mixing_kernel(P11, s, np.array([c, c / 2]))
        log_mixing_kernel(P11, s, c)
    assert seen == []
    log_mixing_kernel(P11, [0.5, 127.5, 128.0, 2000.0], c)
    log_mixing_kernel(P11, 128, c)
    assert len(seen) == 2 and seen[0].tolist() == [1.5, 128.5, 129.0, 2001.0] and seen[1] == 129.0


def test_tables_round_each_coefficient_once_above_theta_one():
    # at theta = lambda a = 20 route A's tables sum d_k = c0_k / theta + c1_k;
    # (1 / theta) c0_k + c1_k rounds twice and moves both values by an ulp
    p = MinUExpParams(5.0, 4.0)
    for s, c, ref in ((78, 7.8193900730652715, 83.11449072512556), (66, 10.044621314517999, 53.700611544144785)):
        assert p.a * c < s + 1
        assert log_mixing_kernel(p, float(s), c) == ref
        assert log_mixing_kernel(p, np.arange(128.0), c)[s] == ref


def test_count_pmf_makes_no_incomplete_gamma_call(monkeypatch):
    # at each (a, lambda) of the benchmark's grid every order past 127 has
    # a (lambda + 1) below the order plus one, so no element reaches route C
    calls = []
    monkeypatch.setattr(_mixture, "_log_lower_incomplete_gamma", lambda s, x: calls.append((s, x)))
    for params in PARAM_GRID + [P110]:
        count_pmf(params, np.arange(2001))
    count_pmf(P11, np.arange(201))
    for n in range(201):
        count_pmf(P11, n)
    assert calls == []


def _log_kernel_reference_upper(a, lam, s, c):
    # the closed form in 60 digits, with gamma(s, z) = Gamma(s) - Gamma(s, z):
    # next to z = s at these orders the regularized function is not small
    with mpmath.workdps(60):
        am, lm, cm, sm = map(mpmath.mpf, (a, lam, c, s))
        z = am * cm
        g1, g2 = (mpmath.gamma(v) - mpmath.gammainc(v, z) for v in (sm + 1, sm + 2))
        return mpmath.log(((1 + lm * am) * g1 / cm ** (sm + 1) - lm * g2 / cm ** (sm + 2)) / am)


@pytest.mark.parametrize("s", [2e6, 1e7])
@pytest.mark.parametrize(
    "params", [P11, MinUExpParams(0.5, 3.0), MinUExpParams(1.0, 100.0), MinUExpParams(1.0, 1e4)], ids=str
)
def test_cap_band_matches_the_closed_form(params, s):
    # z within 1e-3 s of s + 1: where route A's series has not converged at
    # its cap, which is next to z = s + 1 at both orders and the whole band
    # at s = 1e7, the elements take route C; at theta = 1e4 its g is
    # negative in most of the band
    deltas = np.array([1e-3 * s, 5e-4 * s, 1e-4 * s, 10.0, 1.0, 0.0])
    cs = (s + 1.0 - deltas) / params.a
    theta = params.lam * params.a
    stuck = [math.isnan(minuexp.gamma_kernel._ascending_sum(s + 1.0, z, theta)[0]) for z in (params.a * cs).tolist()]
    assert stuck[3:] == [True] * 3 and all(stuck) == (s == 1e7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = log_mixing_kernel(params, s, cs)
        assert got.tolist() == [log_mixing_kernel(params, s, c) for c in cs.tolist()]
    for c, value in zip(cs.tolist(), got.tolist()):
        ref = _log_kernel_reference_upper(params.a, params.lam, s, c)
        assert abs(value - ref) <= 1e-14 * abs(ref), c


def test_cap_band_where_the_regularized_gamma_underflows():
    # at s = 1e10 the band reaches z = s + 1 - 3e-3 s, where the regularized
    # function is far below 1e-290: NaN and one RuntimeWarning, never a
    # wrong finite number
    s = 1e10
    c = s + 1.0 - 3e-3 * s
    assert math.isnan(minuexp.gamma_kernel._ascending_sum(s + 1.0, c, P11.lam * P11.a)[0])
    for call in (lambda: log_mixing_kernel(P11, s, c), lambda: log_mixing_kernel(P11, s, np.array([c]))):
        with pytest.warns(RuntimeWarning, match="regularized incomplete gamma") as caught:
            assert np.isnan(call())
        assert len(caught) == 1
