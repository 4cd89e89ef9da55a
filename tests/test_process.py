"""Process simulation: exactness, determinism, and law checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from minuexp import (
    LinearMu,
    PowerMu,
    TableMu,
    Trajectory,
    count_mean_var,
    counts_on_grid,
    increments_on_grid,
    interarrivals,
    make_stream,
    ordered_to_increments,
    sample_arrival_times,
    sample_grid_counts,
    simulate,
    simulate_first_arrivals,
    simulate_paths,
    substream,
    tau_cdf,
    thinning_check,
)
from minuexp.oracle import ks_statistic
from minuexp.rng import split_seed

from conftest import KS_BOUND_1E5, P11, P110


# a table transform wide enough for s / xi at every seed the tests use
WIDE_TABLE = TableMu([(0.0, 0.0), (1.0, 2.0), (3.0, 3.0), (1e300, 1e300)])
MU_KINDS = [LinearMu(2.0), PowerMu(1.3, 0.7), WIDE_TABLE]


def _reference_xi(params, rng, paths):
    """Mixing draws as structure.sample made them before it worked in place."""
    u = rng.uniform(0.0, params.a, size=paths)
    return np.minimum(u, rng.exponential(scale=1.0 / params.lam, size=paths))


def _capped(k, paths):
    """paths, or 10 001 (still three blocks, the last one partial) where
    paths x k would pass two million cells, to keep the tests' memory small."""
    return paths if k * paths <= 2_000_000 else 10_001


def _working_memory(draw):
    """Peak traced allocation of draw() over the bytes of its result, after
    one untraced call has paid any first-call allocations."""
    import tracemalloc

    draw()
    tracemalloc.start()
    try:
        out = draw()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / out.nbytes


class TestMuTransforms:
    def test_linear(self):
        mu = LinearMu(2.0)
        assert mu(3.0) == 6.0
        assert mu.inverse(6.0) == 3.0
        with pytest.raises(ValueError):
            LinearMu(0.0)

    @settings(max_examples=100, deadline=None)
    @given(c=st.floats(0.1, 10.0), b=st.floats(0.2, 4.0), t=st.floats(1e-3, 100.0))
    def test_power_inverse_round_trip(self, c, b, t):
        mu = PowerMu(c, b)
        assert mu.inverse(mu(t)) == pytest.approx(t, rel=1e-10)

    def test_power_validation(self):
        with pytest.raises(ValueError):
            PowerMu(1.0, 0.0)
        with pytest.raises(ValueError):
            PowerMu(-1.0, 2.0)

    def test_table_interpolation_and_inverse(self):
        mu = TableMu([(0.0, 0.0), (1.0, 2.0), (3.0, 3.0)])
        assert mu(0.5) == pytest.approx(1.0)
        assert mu(2.0) == pytest.approx(2.5)
        # interpolation is exact for a piecewise-linear map, up to rounding
        for m in (0.4, 1.9, 2.5, 2.99):
            t = mu.inverse(m)
            assert mu(t) == pytest.approx(m, abs=1e-9)
        with pytest.raises(ValueError):
            mu(4.0)
        with pytest.raises(ValueError):
            mu.inverse(3.5)

    @pytest.mark.parametrize("mu", MU_KINDS, ids=lambda mu: type(mu).__name__)
    def test_inverse_leaves_argument_unchanged(self, mu):
        m = np.array([[0.5, 1.5], [2.5, 7.0]])
        before = m.copy()
        out = mu.inverse(m)
        assert np.array_equal(m, before)
        assert not np.shares_memory(out, m)

    def test_table_validation(self):
        with pytest.raises(ValueError):
            TableMu([(0.5, 0.0), (1.0, 1.0)])
        with pytest.raises(ValueError):
            TableMu([(0.0, 0.0), (1.0, 1.0), (1.0, 2.0)])
        with pytest.raises(ValueError):
            TableMu([(0.0, 0.0)])


class TestSimulate:
    def test_determinism(self):
        a = simulate(P11, LinearMu(1.0), 5.0, make_stream(3))
        b = simulate(P11, LinearMu(1.0), 5.0, make_stream(3))
        assert a.xi == b.xi
        assert np.array_equal(a.arrivals, b.arrivals)

    def test_trajectory_invariants(self):
        for i in range(200):
            traj = simulate(P11, LinearMu(1.0), 4.0, substream(17, i))
            assert 0.0 < traj.xi < 1.0
            if traj.arrivals.size:
                assert traj.arrivals[0] > 0.0
                assert traj.arrivals[-1] <= traj.horizon
                assert np.all(np.diff(traj.arrivals) > 0.0)

    def test_table_horizon_guard(self):
        mu = TableMu([(0.0, 0.0), (2.0, 1.0)])
        with pytest.raises(ValueError):
            simulate(P11, mu, 3.0, make_stream(1))
        simulate(P11, mu, 2.0, make_stream(1))

    def test_paths_do_not_depend_on_total_count(self):
        few = list(simulate_paths(P11, LinearMu(1.0), 2.0, 3, master_seed=99))
        many = list(simulate_paths(P11, LinearMu(1.0), 2.0, 10, master_seed=99))
        for a, b in zip(few, many[:3]):
            assert a.xi == b.xi and np.array_equal(a.arrivals, b.arrivals)

    def test_paths_match_marginal_law(self):
        # N(0.5) under the table transform, where mu(0.5) = 1, follows the
        # count law at intensity 1; the arrivals pass through the table inverse
        from minuexp import count_pmf, scaled_count_params
        from minuexp.oracle import chi_square_pmf

        mu = TableMu([(0.0, 0.0), (1.0, 2.0), (3.0, 3.0)])
        paths = simulate_paths(P11, mu, 3.0, 5_000, master_seed=72)
        counts = np.array([counts_on_grid(traj, [0.5])[0] for traj in paths])
        obs = np.bincount(counts)
        probs = count_pmf(scaled_count_params(P11, 1.0), np.arange(obs.size))
        _, _, p_value = chi_square_pmf(obs, probs, counts.size)
        assert p_value > 0.001

    def test_split_seed_rule(self):
        assert split_seed(99, 0) != split_seed(99, 1)
        assert split_seed(99, 5) == split_seed(99, 5)


class TestGridCounts:
    def test_counts_nondecreasing_and_consistent_with_increments(self):
        times = np.array([0.5, 1.0, 1.5, 2.0])
        for i in range(300):
            traj = simulate(P11, LinearMu(1.0), 2.0, substream(7, i))
            counts = counts_on_grid(traj, times)
            assert np.all(np.diff(counts) >= 0)
            assert np.array_equal(ordered_to_increments(counts), increments_on_grid(traj, times))

    def test_grid_validation(self):
        traj = simulate(P11, LinearMu(1.0), 2.0, make_stream(5))
        with pytest.raises(ValueError):
            counts_on_grid(traj, [1.0, 0.5])
        with pytest.raises(ValueError):
            counts_on_grid(traj, [1.0, 3.0])
        with pytest.raises(ValueError):
            counts_on_grid(traj, [-1.0, 0.5])
        for times in ([math.nan], [1.0, math.nan]):
            with pytest.raises(ValueError, match="positive and strictly increasing"):
                counts_on_grid(traj, times)
            with pytest.raises(ValueError, match="positive and strictly increasing"):
                sample_grid_counts(P11, LinearMu(1.0), times, 10, make_stream(6))

    def test_batch_matches_marginal_law(self):
        # marginal at t=0.5 follows the intensity-scaled count parameters
        from minuexp import count_pmf, scaled_count_params
        from minuexp.oracle import chi_square_pmf

        counts = sample_grid_counts(P11, LinearMu(1.0), [0.5], 100_000, make_stream(71))
        obs = np.bincount(counts[:, 0])
        probs = count_pmf(scaled_count_params(P11, 0.5), np.arange(obs.size))
        _, _, p_value = chi_square_pmf(obs, probs, counts.shape[0])
        assert p_value > 0.001

    def test_working_memory_bounded_by_output(self):
        import tracemalloc

        tracemalloc.start()
        try:
            out = sample_grid_counts(
                P11, LinearMu(5.0), np.linspace(0.1, 2.0, 20), 20_000, make_stream(79)
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * out.nbytes

    @pytest.mark.parametrize("k", [1, 3, 40, 200])
    @pytest.mark.parametrize("paths", [1, 4095, 4097, 100_001])
    def test_draws_match_unblocked_reference(self, k, paths):
        # the one-shot expression the blocked sampler replaced, on the same
        # stream: xi for every path first, then the Poisson cells row by row
        paths = _capped(k, paths)
        times = np.linspace(0.05, 3.0, k)
        mu = LinearMu(1.5)
        got = sample_grid_counts(P11, mu, times, paths, make_stream(101 + k))
        rng = make_stream(101 + k)
        widths = np.diff(mu(times), prepend=0.0)
        xi = _reference_xi(P11, rng, paths)
        expected = np.cumsum(rng.poisson(xi[:, None] * widths), axis=1)
        assert got.dtype == np.int64 and got.shape == (paths, k)
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("k, paths", [(3, 100_000), (40, 20_000)])
    def test_working_memory_near_output(self, k, paths):
        times = np.linspace(0.1, 2.0, k)
        ratio = _working_memory(
            lambda: sample_grid_counts(P11, LinearMu(2.0), times, paths, make_stream(80))
        )
        assert ratio <= 1.6

    def test_time_change_equivalence(self):
        # counts at t = 0.5 under mu = 2t match counts at t = 1 under mu = t
        fast = sample_grid_counts(P11, LinearMu(2.0), [0.5], 100_000, make_stream(73))
        unit = sample_grid_counts(P11, LinearMu(1.0), [1.0], 100_000, make_stream(74))
        k = max(fast.max(), unit.max()) + 1
        table = np.vstack(
            [np.bincount(fast[:, 0], minlength=k), np.bincount(unit[:, 0], minlength=k)]
        )
        keep = table.sum(axis=0) >= 10
        table = np.hstack([table[:, keep], table[:, ~keep].sum(axis=1, keepdims=True)])
        res = stats.chi2_contingency(table)
        assert res.pvalue > 0.001

    def test_empirical_mean_variance_overdispersion(self):
        counts = sample_grid_counts(P11, LinearMu(1.0), [1.0], 100_000, make_stream(75))
        n = counts[:, 0].astype(float)
        mean, var = count_mean_var(P11, 1.0)
        mean_err = np.std(n, ddof=1) / math.sqrt(n.size)
        assert abs(np.mean(n) - mean) <= 4.0 * mean_err
        sample_var = np.var(n, ddof=1)
        mu4 = np.mean((n - np.mean(n)) ** 4)
        var_err = math.sqrt(max(mu4 - sample_var**2, 0.0) / n.size)
        assert abs(sample_var - var) <= 4.0 * var_err
        assert np.mean(n) < sample_var  # over-dispersion visible empirically

    def test_increments_positively_correlated(self):
        counts = sample_grid_counts(P11, LinearMu(1.0), [1.0, 2.0], 100_000, make_stream(77))
        inc1 = counts[:, 0].astype(float)
        inc2 = (counts[:, 1] - counts[:, 0]).astype(float)
        rho = np.corrcoef(inc1, inc2)[0, 1]
        assert rho > 3.0 / math.sqrt(inc1.size)


class TestInterarrivals:
    def test_first_interarrival_law(self):
        arrivals = sample_arrival_times(P11, LinearMu(1.0), 1, 100_000, make_stream(81))
        assert ks_statistic(arrivals[:, 0], lambda t: tau_cdf(P11, t)) < KS_BOUND_1E5

    def test_second_arrival_epoch_law(self):
        from conftest import numeric_erlang_cdf_at_sorted

        arrivals = sample_arrival_times(P11, LinearMu(1.0), 2, 100_000, make_stream(83))
        t2 = np.sort(arrivals[:, 1])
        cdf_vals = numeric_erlang_cdf_at_sorted(P11, 2, t2)
        gaps_hi = np.arange(1, t2.size + 1) / t2.size - cdf_vals
        gaps_lo = cdf_vals - np.arange(0, t2.size) / t2.size
        assert max(gaps_hi.max(), gaps_lo.max()) < KS_BOUND_1E5

    @pytest.mark.parametrize("mu", MU_KINDS, ids=lambda mu: type(mu).__name__)
    @pytest.mark.parametrize("k", [1, 3, 40, 200])
    @pytest.mark.parametrize("paths", [1, 4095, 4097, 100_001])
    def test_draws_match_unsummed_reference(self, mu, k, paths):
        paths = _capped(k, paths)
        got = sample_arrival_times(P110, mu, k, paths, make_stream(201 + k))
        rng = make_stream(201 + k)
        xi = _reference_xi(P110, rng, paths)
        s = np.cumsum(rng.exponential(size=(paths, k)), axis=1)
        expected = mu.inverse(s / xi[:, None])
        assert got.shape == (paths, k)
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("mu", MU_KINDS, ids=lambda mu: type(mu).__name__)
    def test_working_memory_near_output(self, mu):
        ratio = _working_memory(lambda: sample_arrival_times(P11, mu, 20, 10_000, make_stream(82)))
        assert ratio <= 2.5

    def test_gaps_positive_and_match_diffs(self):
        traj = simulate(P11, LinearMu(1.0), 50.0, make_stream(85))
        gaps = interarrivals(traj)
        assert np.all(gaps > 0.0)
        assert np.allclose(np.cumsum(gaps), traj.arrivals)

    def test_empty_trajectory_error(self):
        traj = Trajectory(xi=0.5, arrivals=np.empty(0), horizon=1.0)
        with pytest.raises(ValueError):
            interarrivals(traj)

    def test_first_arrivals_exact_no_truncation(self):
        arr = simulate_first_arrivals(P11, LinearMu(1.0), 5, make_stream(87))
        assert arr.shape == (5,)
        assert np.all(np.diff(arr) > 0.0)


class TestThinning:
    def test_binomial_conditional_law(self):
        res = thinning_check(P11, LinearMu(1.0), 0.5, 1.0, 2, 300_000, make_stream(89))
        assert res.conclusive
        assert res.n_conditioning >= 10_000
        assert res.ratio == pytest.approx(0.5, rel=1e-14)
        assert res.p_value > 0.001

    def test_linear_ratio_is_time_quotient(self):
        res = thinning_check(P11, LinearMu(3.0), 0.25, 1.0, 1, 20_000, make_stream(91))
        assert res.ratio == pytest.approx(0.25, rel=1e-14)

    def test_power_ratio_is_squared_quotient(self):
        res = thinning_check(P11, PowerMu(1.0, 2.0), 0.5, 1.0, 1, 20_000, make_stream(93))
        assert res.ratio == pytest.approx(0.25, rel=1e-14)

    def test_inconclusive_with_too_few_paths(self):
        res = thinning_check(P11, LinearMu(1.0), 0.5, 1.0, 2, 2_000, make_stream(95))
        if res.n_conditioning < 1000:
            assert not res.conclusive
            assert math.isnan(res.p_value)

    def test_validation(self):
        with pytest.raises(ValueError):
            thinning_check(P11, LinearMu(1.0), 1.0, 0.5, 2, 1000, make_stream(1))
        with pytest.raises(ValueError):
            thinning_check(P11, LinearMu(1.0), 0.5, 1.0, 0, 1000, make_stream(1))
