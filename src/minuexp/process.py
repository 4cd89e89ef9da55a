"""Simulation of the mixed Poisson process N(t) = N1(xi * mu(t)).

One mixing value xi is drawn per path.  Given xi, counts over disjoint
cells are independent Poisson(xi * delta mu), and given N(h) = n the
arrival epochs in mu-time are n sorted uniforms on [0, mu(h)] (the
order-statistics property).  Both identities are sampled directly and
mapped through the inverse time change, so arrival times are exact (no
grid thinning, no discretization bias).  Deterministic time changes mu(t)
are nonnegative, strictly increasing, continuous and vanish at zero;
linear and power variants invert analytically, tabulated ones by linear
interpolation, which is exact for a piecewise-linear map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import structure
from .structure import MinUExpParams, _increasing_grid, _integer

__all__ = [
    "MuTransform",
    "LinearMu",
    "PowerMu",
    "TableMu",
    "Trajectory",
    "simulate",
    "simulate_paths",
    "simulate_first_arrivals",
    "sample_arrival_times",
    "sample_grid_counts",
    "counts_on_grid",
    "increments_on_grid",
    "interarrivals",
    "thinning_check",
    "ThinningResult",
]

# rows per block of sample_grid_counts: its rate and draw buffers of a few
# grid times then stay within the L2 cache
_BLOCK_ROWS = 4096


class MuTransform:
    """Deterministic accumulated-intensity function mu(t)."""

    def __call__(self, t):
        raise NotImplementedError

    def inverse(self, m):
        raise NotImplementedError


@dataclass(frozen=True)
class LinearMu(MuTransform):
    """mu(t) = c t."""

    c: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.c) and self.c > 0.0):
            raise ValueError("linear time-change slope c must be positive")

    def __call__(self, t):
        return self.c * np.asarray(t, dtype=float) if np.ndim(t) else self.c * float(t)

    def inverse(self, m):
        return np.asarray(m, dtype=float) / self.c if np.ndim(m) else float(m) / self.c


@dataclass(frozen=True)
class PowerMu(MuTransform):
    """mu(t) = c t^b."""

    c: float = 1.0
    b: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.c) and self.c > 0.0):
            raise ValueError("power time-change scale c must be positive")
        if not (math.isfinite(self.b) and self.b > 0.0):
            raise ValueError("power time-change exponent b must be positive")

    def __call__(self, t):
        arr = np.asarray(t, dtype=float)
        out = self.c * arr**self.b
        return out if arr.ndim else float(out)

    def inverse(self, m):
        arr = np.asarray(m, dtype=float)
        out = arr / self.c
        out **= 1.0 / self.b
        return out if arr.ndim else float(out)


class TableMu(MuTransform):
    """Piecewise-linear mu(t) through knots (t_i, mu_i), starting at (0, 0).

    Defined on [0, t_end] only; the inverse interpolates the swapped knots
    (mu_i, t_i), which is exact because the map is linear between knots.
    """

    def __init__(self, knots):
        arr = np.asarray(knots, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 2:
            raise ValueError("table transform needs at least two (t, mu) knot pairs")
        if arr[0, 0] != 0.0 or arr[0, 1] != 0.0:
            raise ValueError("table transform must start at the knot (0, 0)")
        if not (np.all(np.diff(arr[:, 0]) > 0.0) and np.all(np.diff(arr[:, 1]) > 0.0)):
            raise ValueError("table knots must be strictly increasing in both coordinates")
        self.knot_t = arr[:, 0].copy()
        self.knot_mu = arr[:, 1].copy()

    @property
    def t_end(self) -> float:
        return float(self.knot_t[-1])

    def __call__(self, t):
        arr = np.asarray(t, dtype=float)
        if np.any(arr < 0.0) or np.any(arr > self.knot_t[-1]):
            raise ValueError("time outside the table transform's domain")
        out = np.interp(arr, self.knot_t, self.knot_mu)
        return out if arr.ndim else float(out)

    def inverse(self, m):
        arr = np.asarray(m, dtype=float)
        if np.any(arr < 0.0) or np.any(arr > self.knot_mu[-1]):
            raise ValueError("intensity outside the table transform's range")
        out = np.interp(arr, self.knot_mu, self.knot_t)
        return out if arr.ndim else float(out)


@dataclass(frozen=True)
class Trajectory:
    """One realized path: mixing value, arrival times, and the horizon."""

    xi: float
    arrivals: np.ndarray = field(repr=False)
    horizon: float

    def __post_init__(self):
        arr = np.asarray(self.arrivals, dtype=float)
        if arr.size and (np.any(np.diff(arr) <= 0.0) or arr[0] <= 0.0 or arr[-1] > self.horizon):
            raise ValueError("arrival times must be strictly increasing in (0, horizon]")
        object.__setattr__(self, "arrivals", arr)


def _check_horizon(mu: MuTransform, horizon: float) -> float:
    if not (math.isfinite(horizon) and horizon > 0.0):
        raise ValueError("horizon must be a finite positive real")
    if isinstance(mu, TableMu) and horizon > mu.t_end:
        raise ValueError("horizon exceeds the table transform's domain")
    return float(mu(horizon))


def simulate(
    params: MinUExpParams, mu: MuTransform, horizon: float, rng: np.random.Generator
) -> Trajectory:
    """One exact path on [0, horizon].

    Draws xi once, then the total count n ~ Poisson(xi mu(horizon)), then
    n sorted uniforms U_(k) on [0, mu(horizon)], and sets T_k = mu^-1(U_(k)).
    """
    mu_h = _check_horizon(mu, horizon)
    xi = structure.sample(params, rng)
    n = rng.poisson(xi * mu_h)
    arrivals = mu.inverse(np.sort(rng.uniform(0.0, mu_h, n)))
    arrivals = np.minimum(np.asarray(arrivals, dtype=float), horizon)
    return Trajectory(xi=xi, arrivals=arrivals, horizon=float(horizon))


def simulate_paths(
    params: MinUExpParams, mu: MuTransform, horizon: float, paths: int, master_seed: int
):
    """Independent paths, path i on its own child stream of master_seed.

    Path contents depend only on (master_seed, i), never on the total path
    count, so parallel workers can split the range freely.
    """
    from .rng import substream

    for i in range(_integer(paths, "number of paths must be a positive integer")):
        yield simulate(params, mu, horizon, substream(master_seed, i))


def simulate_first_arrivals(
    params: MinUExpParams, mu: MuTransform, k: int, rng: np.random.Generator
) -> np.ndarray:
    """Exact times of the first k events, no horizon: one path of sample_arrival_times."""
    return sample_arrival_times(params, mu, k, 1, rng)[0]


def sample_arrival_times(
    params: MinUExpParams, mu: MuTransform, k: int, paths: int, rng: np.random.Generator
) -> np.ndarray:
    """Matrix (paths, k) of first-k arrival times over many paths.

    Vectorized over paths on the single stream supplied: all xi first, then
    one row of k exponentials per path, in path-major order.  The
    exponential block is summed and scaled in place, so working memory is
    the output, the block and one xi per path: about 2x the output, plus
    what mu.inverse needs.  Output is deterministic for fixed (stream
    state, paths).
    """
    k = _integer(k, "number of arrivals k must be a positive integer")
    paths = _integer(paths, "number of paths must be a positive integer")
    xi = structure.sample(params, rng, size=paths)
    s = rng.exponential(size=(paths, k))
    np.cumsum(s, axis=1, out=s)
    s /= xi[:, None]
    return np.asarray(mu.inverse(s), dtype=float)


def sample_grid_counts(
    params: MinUExpParams,
    mu: MuTransform,
    times,
    paths: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Counts N(t_j) for each path, as an integer matrix (paths, len(times)).

    Draws one xi per path on the single stream supplied, then independent
    Poisson(xi (mu(t_j) - mu(t_{j-1}))) cell increments in path-major
    order, and sums them along the grid.  Paths are drawn in consecutive
    blocks of _BLOCK_ROWS rows, written into the output and summed there in
    place, so working memory is the output, one xi per path and two blocks:
    about 1.4x the output at three grid times.  The draws do not depend on
    the block size; output is deterministic for fixed (stream state, paths).
    """
    t_arr = _increasing_grid(times, "times")
    paths = _integer(paths, "number of paths must be a positive integer")
    widths = np.diff(np.asarray(mu(t_arr), dtype=float), prepend=0.0)
    xi = structure.sample(params, rng, size=paths)
    counts = np.empty((paths, widths.size), dtype=np.int64)
    rates = np.empty((min(paths, _BLOCK_ROWS), widths.size))
    # column by column, so that numpy's inner loops run over the rows of a
    # block and not over the few grid times of each row
    for lo in range(0, paths, _BLOCK_ROWS):
        block = counts[lo : lo + _BLOCK_ROWS]
        cell_rates = rates[: len(block)]
        block_xi = xi[lo : lo + _BLOCK_ROWS]
        for j, width in enumerate(widths):
            np.multiply(block_xi, width, out=cell_rates[:, j])
        block[...] = rng.poisson(cell_rates)
        for j in range(1, widths.size):
            np.add(block[:, j], block[:, j - 1], out=block[:, j])
    return counts


def counts_on_grid(traj: Trajectory, times) -> np.ndarray:
    """Counts N(t_j) of one path on an increasing grid within its horizon."""
    t_arr = _increasing_grid(times, "times")
    if t_arr[-1] > traj.horizon:
        raise ValueError("grid extends beyond the trajectory horizon")
    return np.searchsorted(traj.arrivals, t_arr, side="right").astype(np.int64)


def increments_on_grid(traj: Trajectory, times) -> np.ndarray:
    """Count increments over the grid cells (first cell starts at 0)."""
    return np.diff(counts_on_grid(traj, times), prepend=0)


def interarrivals(traj: Trajectory) -> np.ndarray:
    """Gaps (T_1, T_2 - T_1, ...) between consecutive arrivals."""
    if traj.arrivals.size == 0:
        raise ValueError("trajectory has no arrivals")
    return np.diff(traj.arrivals, prepend=0.0)


@dataclass(frozen=True)
class ThinningResult:
    """Conditional-count tabulation against the binomial reference law."""

    observed: np.ndarray
    expected_pmf: np.ndarray
    n_conditioning: int
    ratio: float
    statistic: float
    dof: int
    p_value: float
    conclusive: bool


def thinning_check(
    params: MinUExpParams,
    mu: MuTransform,
    s: float,
    t: float,
    n: int,
    paths: int,
    rng: np.random.Generator,
) -> ThinningResult:
    """Tabulate N(s) among paths with N(t) = n against Bi(n, mu(s)/mu(t)).

    Runs a chi-square comparison when at least 1000 conditioning paths were
    found; otherwise the result is flagged inconclusive and the test
    statistics are NaN.
    """
    if not 0.0 < s < t:
        raise ValueError("conditioning times must satisfy 0 < s < t")
    n = _integer(n, "conditioning count n must be a positive integer")
    from .counting import conditional_binomial_pmf
    from .oracle import chi_square_pmf

    counts = sample_grid_counts(params, mu, [s, t], paths, rng)
    mask = counts[:, 1] == n
    n_cond = int(np.sum(mask))
    observed = np.bincount(counts[mask, 0], minlength=n + 1)[: n + 1]
    ratio = float(mu(s)) / float(mu(t))
    expected = np.array([conditional_binomial_pmf(n, ratio, j) for j in range(n + 1)])
    if n_cond < 1000:
        return ThinningResult(
            observed, expected, n_cond, ratio, math.nan, 0, math.nan, False
        )
    stat, dof, p = chi_square_pmf(observed, expected, n_cond)
    return ThinningResult(observed, expected, n_cond, ratio, stat, dof, p, True)
