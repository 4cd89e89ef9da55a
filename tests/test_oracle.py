"""The ground-truth layer itself: quadrature, Monte Carlo, comparators."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import minuexp
from minuexp import cdf, make_stream, pdf, sample, tau_sample
from minuexp.oracle import (
    OracleError,
    OracleResult,
    _integrand,
    _qagse,
    chi_square_pmf,
    ks_statistic,
    mc_mean,
    mix_integral,
)
from minuexp.validation import _count, _epoch

from conftest import FROZEN_LST_AT_1, FROZEN_MEAN, P11, P110, PARAM_GRID


class TestMixIntegral:
    def test_exponential_kernel_defines_zero_count_constant(self):
        res = mix_integral(P11, lambda x: math.exp(-x))
        assert res.value == pytest.approx(FROZEN_LST_AT_1, rel=1e-11, abs=0.0)
        assert res.method == "quadrature"

    def test_unit_kernel_normalization(self):
        for p in PARAM_GRID:
            res = mix_integral(p, lambda x: 1.0)
            assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_identity_kernel_mean(self):
        res = mix_integral(P11, lambda x: x)
        assert res.value == pytest.approx(FROZEN_MEAN, rel=1e-11, abs=0.0)

    def test_error_estimate_bound(self):
        res = mix_integral(P11, lambda x: x * math.exp(-2.0 * x))
        assert res.err_estimate <= 1e-10
        assert res.n_or_evals > 0

    def test_deterministic(self):
        a = mix_integral(P11, lambda x: x**3)
        b = mix_integral(P11, lambda x: x**3)
        assert a == b

    def test_scalar_density_equals_structure_pdf(self):
        rng = make_stream(31)
        for p in PARAM_GRID + [P110]:
            density = _integrand(p, lambda x: 1.0)
            for x in rng.uniform(0.0, p.a, size=200):
                x = float(x)
                if 0.0 < x < p.a:
                    assert density(x) == pytest.approx(pdf(p, x), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("scale", [1.0, 1e-6, 1e-9, 1e-12])
    def test_unresolved_integral_raises_at_every_scale(self, scale):
        # an error estimate above the value itself must not pass as
        # converged, however small the value
        with pytest.raises(OracleError):
            mix_integral(P11, lambda x: scale * math.sin(1e4 * x))

    def test_invalid_tolerance_raises_value_error(self):
        # QUADPACK's ier 6 at epsabs = 0: quad's own error, not OracleError
        with pytest.raises(ValueError, match="epsrel"):
            mix_integral(P11, lambda x: x, epsrel=1e-16)


def _quad_full(f, b, epsrel=1e-12):
    """scipy.integrate.quad as (value, error estimate, evaluations, converged)."""
    from scipy import integrate

    out = integrate.quad(f, 0.0, b, epsabs=0.0, epsrel=epsrel, limit=200, full_output=1)
    return out[0], out[1], int(out[2]["neval"]), len(out) == 3


class TestQuadpackRoute:
    @pytest.mark.parametrize("p", PARAM_GRID + [P110], ids=lambda p: f"{p.a:g},{p.lam:g}")
    def test_count_and_epoch_kernels_equal_quad(self, p):
        kernels = [_count(n) for n in (0, 1, 5, 30)]
        kernels += [_epoch(n, t) for n in (1, 2, 5) for t in (0.1, 2.0)]
        for kernel in kernels:
            f = _integrand(p, kernel)
            assert _qagse(f, p.a, 1e-12) == _quad_full(f, p.a)

    @pytest.mark.parametrize("epsrel", [1e-12, 1e-10])
    def test_non_converging_kernel_equals_quad(self, epsrel):
        f = _integrand(P11, lambda x: math.sin(1e4 * x))
        result = _qagse(f, P11.a, epsrel)
        assert result == _quad_full(f, P11.a, epsrel)
        assert result[3] is False


_INTEROP = """
import json, sys
from minuexp import MinUExpParams
from minuexp.oracle import _quadpack, mix_integral

p = MinUExpParams(1.0, 1.0)
first = mix_integral(p, lambda x: x * x).value
package_loaded = "scipy.integrate" in sys.modules
from scipy import integrate

out = {
    "package_loaded_by_oracle": package_loaded,
    "same_extension": sys.modules["scipy.integrate._quadpack"] is _quadpack(),
    "oracle": first,
    "quad": integrate.quad(lambda x: x * x, 0.0, 1.0, epsabs=0.0, epsrel=1e-12, limit=200)[0],
    "oracle_in_quad": integrate.quad(lambda y: mix_integral(p, lambda x: x**y).value, 0.0, 2.0)[0],
    "quad_in_oracle": mix_integral(p, lambda x: integrate.quad(lambda y: y, 0.0, x)[0]).value,
}
print(json.dumps(out))
"""


def _run_fresh(code):
    """The last stdout line of code run in a fresh interpreter, as JSON."""
    env = dict(os.environ)
    package_root = str(Path(minuexp.__file__).resolve().parents[1])
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = package_root + os.pathsep + inherited if inherited else package_root
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, env=env, text=True, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("fallback", [False, True], ids=["extension-file", "package-import"])
def test_quadpack_interoperates_with_scipy_integrate(fallback):
    # a fresh interpreter, since this process has imported scipy.integrate;
    # with no extension suffix to try, the oracle imports the package itself
    from scipy import integrate

    prefix = "import importlib.machinery\nimportlib.machinery.EXTENSION_SUFFIXES = []\n" if fallback else ""
    out = _run_fresh(prefix + _INTEROP)
    assert out.pop("package_loaded_by_oracle") is fallback
    assert out.pop("same_extension") is True
    expected = {
        "oracle": mix_integral(P11, lambda x: x * x).value,
        "quad": integrate.quad(lambda x: x * x, 0.0, 1.0, epsabs=0.0, epsrel=1e-12, limit=200)[0],
        "oracle_in_quad": integrate.quad(lambda y: mix_integral(P11, lambda x: x**y).value, 0.0, 2.0)[0],
        "quad_in_oracle": mix_integral(P11, lambda x: integrate.quad(lambda y: y, 0.0, x)[0]).value,
    }
    assert out == expected


class TestMcMean:
    def test_structure_mean(self):
        res = mc_mean(
            lambda g, n: sample(P11, g, size=n), lambda v: v, 1_000_000, make_stream(1)
        )
        assert abs(res.value - FROZEN_MEAN) <= 3.0 * res.err_estimate
        assert res.method == "monte_carlo" and res.n_or_evals == 1_000_000

    def test_tau_survival_indicator(self):
        res = mc_mean(
            lambda g, n: tau_sample(P11, g, size=n),
            lambda v: (v > 1.0).astype(float),
            200_000,
            make_stream(2),
        )
        assert abs(res.value - FROZEN_LST_AT_1) <= 3.0 * res.err_estimate

    def test_constant_statistic_has_zero_stderr(self):
        res = mc_mean(
            lambda g, n: sample(P11, g, size=n),
            lambda v: np.full(v.shape, 0.25),
            2_000,
            make_stream(3),
        )
        assert res.value == 0.25
        assert res.err_estimate == 0.0

    def test_reproducible_under_fixed_seed(self):
        runs = [
            mc_mean(lambda g, n: sample(P11, g, size=n), lambda v: v, 2_000, make_stream(9))
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_minimum_draw_count(self):
        with pytest.raises(ValueError):
            mc_mean(lambda g, n: sample(P11, g, size=n), lambda v: v, 999, make_stream(1))


class TestKsStatistic:
    def test_own_law_sample_is_close(self):
        draws = sample(P11, make_stream(5), size=100_000)
        assert ks_statistic(draws, lambda x: cdf(P11, x)) < 0.0065

    def test_single_point_at_median(self):
        median = 0.5
        assert ks_statistic([median], lambda x: np.full(np.shape(x), 0.5)) == pytest.approx(0.5)

    def test_detects_mismatched_law(self):
        draws = make_stream(6).exponential(size=100_000)
        assert ks_statistic(draws, lambda x: cdf(P11, x)) > 0.0065

    def test_empty_sample_error(self):
        with pytest.raises(ValueError):
            ks_statistic([], lambda x: x)


class TestChiSquare:
    def test_exact_match_gives_zero_statistic(self):
        expected = np.array([0.5, 0.3, 0.2])
        observed = expected * 1000
        stat, dof, p = chi_square_pmf(observed, expected, 1000)
        assert stat == 0.0
        assert dof == 2
        assert p == 1.0

    def test_calibration_under_the_null(self):
        rng = make_stream(12)
        expected = np.array([0.5, 0.25, 0.15, 0.07, 0.03])
        passes = 0
        for _ in range(50):
            draws = rng.choice(expected.size, size=20_000, p=expected)
            observed = np.bincount(draws, minlength=expected.size)
            _, _, p = chi_square_pmf(observed, expected, 20_000)
            passes += p > 0.001
        assert passes >= 49

    def test_power_against_shifted_law(self):
        expected = np.array([0.5, 0.25, 0.15, 0.07, 0.03])
        shifted = np.array([0.4, 0.3, 0.15, 0.1, 0.05])
        observed = np.round(shifted * 1_000_000)
        _, _, p = chi_square_pmf(observed, expected, 1_000_000)
        assert p < 1e-6

    def test_tail_pooling_keeps_expected_counts_large(self):
        expected = np.array([0.9, 0.06, 0.03, 0.009, 0.0009])
        observed = np.array([901, 58, 31, 9, 1])
        stat, dof, p = chi_square_pmf(observed, expected, 1000)
        # expected counts [900, 60, 30, 9, 0.9] plus overflow 0.1 pool
        # from the right into [900, 60, 30, 10]
        assert dof == 3
        assert 0.0 <= p <= 1.0

    def test_insufficient_total(self):
        with pytest.raises(ValueError):
            chi_square_pmf([3, 1], [0.7, 0.3], 4)

    def test_p_value_is_scipy_stats_chi2_sf_exactly(self):
        from scipy.stats import chi2

        rng = make_stream(31)
        for cells, total in ((2, 100), (5, 1000), (12, 20_000), (40, 500_000)):
            expected = rng.dirichlet(np.full(cells, 5.0))
            # drawn from the expected law (moderate p) and from another (p near 0)
            for law in (expected, rng.dirichlet(np.full(cells, 5.0))):
                stat, dof, p = chi_square_pmf(rng.multinomial(total, law), expected, total)
                assert p == float(chi2.sf(stat, dof))


def test_quadrature_and_monte_carlo_agree():
    kernels = [
        (lambda x: x, lambda v: v),
        (lambda x: math.exp(-x), lambda v: np.exp(-v)),
        (lambda x: x * x, lambda v: v * v),
    ]
    rng = make_stream(14)
    for scalar_kernel, vector_kernel in kernels:
        quad = mix_integral(P11, scalar_kernel)
        mc = mc_mean(lambda g, n: sample(P11, g, size=n), vector_kernel, 400_000, rng)
        assert abs(quad.value - mc.value) <= 4.0 * mc.err_estimate


def test_oracle_result_fields():
    res = OracleResult(1.0, 1e-12, "quadrature", 21)
    assert res.err_estimate >= 0.0
