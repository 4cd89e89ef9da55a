"""The benchmark's four workloads: inputs from a seed, jobs, and output checks.

Each workload is a fixed cycle of job specs.  The seed draws every input
(points, counts, streams, files), never the composition of the cycle, so
two seeds do the same kinds and sizes of work.  A job calls the library
and returns its raw output; ``summarize`` keeps the few numbers the check
needs; ``check`` compares them with references and returns
(values checked, values wrong).  See README.md for why each workload is
built the way it is.
"""

from __future__ import annotations

import collections
import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import minuexp as mx

# PARAM_GRID of the test suite, plus the large-a pair of the validation grid
GRID = [(a, lam) for a in (0.5, 1.0, 2.0, 5.0) for lam in (0.25, 1.0, 4.0)] + [(110.0, 0.04)]

# relative tolerance of the repo's oracle comparisons
REL_TOL = 1e-8
# standard errors a Monte Carlo mean may sit from its closed form
MC_SIGMAS = 5.0
# a is identifiable where the uniform end binds in at least this many of the
# draws on average (n e^(-a lambda) >= 10).  At (5, 4), n e^(-20) = 2e-4:
# the draws are exponential to within sampling error.  There fit_mom
# reports its documented non-convergence (ratio >= 2) on some seeds, and
# fit_lsq runs out of its 8000 evaluations (about 15 s), too slow for a
# timed job, so only fit_mom runs there.
FIT_MIN_BINDING = 10.0
# A fit's c.d.f. must lie within the DKW band of the draws' empirical
# c.d.f. at this level: sqrt(ln(2/level) / (2 n)), 0.0085 for 10^5 draws.
# That check holds whether or not a is identifiable.  Convergence is
# required where a is identifiable, and tallied as measured where not.
FIT_BAND_LEVEL = 1e-6


def _rel_wrong(value: float, ref: float | None) -> int | None:
    """1 when value misses ref by more than REL_TOL, 0 when not, None when unchecked."""
    if ref is None:
        return None
    return int(not abs(value - ref) <= REL_TOL * abs(ref))


def _compare(values, refs) -> tuple[int, int]:
    checked = wrong = 0
    for value, ref in zip(values, refs):
        miss = _rel_wrong(float(value), ref)
        if miss is not None:
            checked += 1
            wrong += miss
    return checked, wrong


class Workload:
    """Base: a cycle of job specs with run, summarize and check."""

    name = ""

    def __init__(self, seed: int, size: str = "full"):
        self.seed = seed
        self.tiny = size == "tiny"
        self.rng = np.random.default_rng([seed, sum(map(ord, self.name))])
        self.refs: dict = {}
        self.ref_report: dict = {}
        # counts that ``check`` adds to, reported beside the metrics
        self.tally: collections.Counter = collections.Counter()

    def cycle(self) -> list:
        raise NotImplementedError

    def run(self, spec, rep: int):
        raise NotImplementedError

    def summarize(self, spec, rep: int, out):
        return out

    def check(self, spec, rep: int, summary) -> tuple[int, int]:
        raise NotImplementedError

    def reference_list(self) -> list:
        return []

    def build_references(self, cross_check: int) -> None:
        refs = self.reference_list()
        if refs:
            import references

            self.refs, self.ref_report = references.build(refs, cross_check, self.rng)


# --------------------------------------------------------------------------
# closed_forms


@dataclass(eq=False)
class ClosedFormSpec:
    params: mx.MinUExpParams
    counts: np.ndarray
    x: np.ndarray
    t: np.ndarray
    scalar_n: list
    post_mu: list
    post_n: list
    picks: dict = field(default_factory=dict)


# every arrival-epoch order a closed_forms job evaluates
ERLANG_ORDERS = np.arange(1, 21)


class ClosedForms(Workload):
    """count_pmf at N in {50, 500, 2000}, erlang_pdf for n = 1..20 and six
    pointwise evaluators on 10^4 points, and 100 scalar calls, per grid
    parameter."""

    name = "closed_forms"
    POINTWISE = ("cdf", "pdf", "hazard", "lst", "tau_pdf", "tau_cdf")

    def __init__(self, seed: int, size: str = "full"):
        super().__init__(seed, size)
        rng = self.rng
        grid = [GRID[4], GRID[12]] if self.tiny else GRID
        n_points = 200 if self.tiny else 10_000
        n_scalar = 5 if self.tiny else 50
        pairs = [(p, n_max) for p in grid for n_max in (50, 500, 2000)]
        self.specs = []
        for i in rng.permutation(len(pairs)):
            (a, lam), n_max = pairs[i]
            spec = ClosedFormSpec(
                params=mx.MinUExpParams(a, lam),
                counts=np.arange(n_max + 1),
                x=rng.uniform(0.0, a, n_points),
                t=np.exp(rng.uniform(math.log(1e-2), math.log(1e2), n_points)),
                scalar_n=[int(v) for v in rng.integers(0, 150, n_scalar)],
                post_mu=[float(v) for v in np.exp(rng.uniform(math.log(0.1), math.log(10.0), n_scalar))],
                post_n=[int(v) for v in rng.integers(0, 100, n_scalar)],
            )
            spec.picks = {
                "count_pmf": rng.choice(n_max + 1, 12, replace=False),
                "erlang_pdf": rng.choice(ERLANG_ORDERS.size * n_points, 6, replace=False),
                **{fn: rng.choice(n_points, 4, replace=False) for fn in self.POINTWISE},
                "scalar_pmf": rng.choice(n_scalar, min(6, n_scalar), replace=False),
                "post_mean": rng.choice(n_scalar, min(6, n_scalar), replace=False),
            }
            self.specs.append(spec)

    def cycle(self):
        return self.specs

    def run(self, spec, rep):
        p = spec.params
        out = {
            "count_pmf": mx.count_pmf(p, spec.counts),
            "erlang_pdf": np.concatenate([mx.erlang_pdf(p, int(n), spec.t) for n in ERLANG_ORDERS]),
            "cdf": mx.cdf(p, spec.x),
            "pdf": mx.pdf(p, spec.x),
            "hazard": mx.hazard(p, spec.x),
            "lst": mx.lst(p, spec.t),
            "tau_pdf": mx.tau_pdf(p, spec.t),
            "tau_cdf": mx.tau_cdf(p, spec.t),
        }
        out["scalar_pmf"] = [mx.count_pmf(p, n) for n in spec.scalar_n]
        out["post_mean"] = [
            mx.mean_xi_given_count(p, mu, n) for mu, n in zip(spec.post_mu, spec.post_n)
        ]
        return out

    def summarize(self, spec, rep, out):
        return {key: np.asarray(out[key])[idx] for key, idx in spec.picks.items()}

    def _refs_of(self, spec) -> dict[str, list]:
        a, lam = spec.params.a, spec.params.lam
        pk = spec.picks
        refs = {
            "count_pmf": [("count_pmf", a, lam, int(n)) for n in spec.counts[pk["count_pmf"]]],
            "erlang_pdf": [
                ("erlang_pdf", a, lam, int(ERLANG_ORDERS[k // spec.t.size]), float(spec.t[k % spec.t.size]))
                for k in pk["erlang_pdf"]
            ],
            "scalar_pmf": [("count_pmf", a, lam, spec.scalar_n[i]) for i in pk["scalar_pmf"]],
            "post_mean": [
                ("mean_xi_given_count", a, lam, spec.post_mu[i], spec.post_n[i])
                for i in pk["post_mean"]
            ],
        }
        for fn in self.POINTWISE:
            points = spec.x if fn in ("cdf", "pdf", "hazard") else spec.t
            refs[fn] = [(fn, a, lam, float(v)) for v in points[pk[fn]]]
        return refs

    def reference_list(self):
        return [ref for spec in self.specs for refs in self._refs_of(spec).values() for ref in refs]

    def check(self, spec, rep, summary):
        checked = wrong = 0
        for key, refs in self._refs_of(spec).items():
            c, w = _compare(summary[key], [self.refs[r] for r in refs])
            checked += c
            wrong += w
        return checked, wrong


# --------------------------------------------------------------------------
# simulate


@dataclass(eq=False)
class SimSpec:
    kind: str  # "grid", "paths" or "arrivals"
    params: mx.MinUExpParams
    mu: object
    size: int
    times: tuple = ()
    probe: np.ndarray | None = None


class Simulate(Workload):
    """Grid counts at arrivals per path from about 0.4 to about 100, per-path
    simulation under a tabulated time change, and first-20 arrival times."""

    name = "simulate"
    # (parameter, LinearMu slope): mean arrivals per path at t = 1 are
    # 0.37, 1.2, 5.7, 19, 86 and 97
    GRID_JOBS = [
        ((1.0, 1.0), 1.0),
        ((0.5, 0.25), 5.0),
        ((2.0, 1.0), 10.0),
        ((110.0, 0.04), 1.0),
        ((5.0, 0.25), 50.0),
        ((110.0, 0.04), 5.0),
    ]

    def __init__(self, seed: int, size: str = "full"):
        super().__init__(seed, size)
        rng = self.rng
        n_grid, n_arrivals, n_paths = (1_000, 100, 10) if self.tiny else (100_000, 10_000, 100)
        knot_t = np.array([0.0, 0.5, 1.0, 2.0, 4.0])
        slopes = rng.uniform(0.4, 1.3, knot_t.size - 1)
        knot_mu = np.concatenate([[0.0], np.cumsum(slopes * np.diff(knot_t))])
        table = mx.TableMu(np.column_stack([knot_t, knot_mu]))
        probe = rng.uniform(0.0, knot_mu[-1], 16)
        power = mx.PowerMu(float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0)))
        self.specs = [
            SimSpec("arrivals", mx.MinUExpParams(2.0, 1.0), power, n_arrivals)
        ] + [
            SimSpec("grid", mx.MinUExpParams(*p), mx.LinearMu(c), n_grid, (0.25, 0.5, 1.0))
            for p, c in self.GRID_JOBS
        ] + [
            SimSpec("paths", mx.MinUExpParams(5.0, 0.25), table, n_paths, (1.0, 2.0, 4.0), probe),
            SimSpec("paths", mx.MinUExpParams(110.0, 0.04), table, n_paths // 2, (1.0, 2.0, 4.0), probe),
        ]
        self.stream_seed = int(rng.integers(2**62))

    def cycle(self):
        return self.specs

    def run(self, spec, rep):
        # rep is -1 for the warm-up job
        job_seed = mx.split_seed(self.stream_seed, (rep + 1) * len(self.specs) + self.specs.index(spec))
        if spec.kind == "grid":
            return mx.sample_grid_counts(spec.params, spec.mu, spec.times, spec.size, mx.make_stream(job_seed))
        if spec.kind == "arrivals":
            return mx.sample_arrival_times(spec.params, spec.mu, 20, spec.size, mx.make_stream(job_seed))
        paths = mx.simulate_paths(spec.params, spec.mu, spec.mu.t_end, spec.size, job_seed)
        rows = [(mx.counts_on_grid(traj, spec.times), traj.arrivals.size) for traj in paths]
        return rows, spec.mu.inverse(spec.probe)

    def summarize(self, spec, rep, out):
        if spec.kind == "grid":
            ok = bool(np.all(out >= 0) and np.all(np.diff(out, axis=1) >= 0))
            return {"means": out.mean(axis=0), "monotone": ok}
        if spec.kind == "arrivals":
            ok = bool(np.all(out > 0) and np.all(np.diff(out, axis=1) > 0))
            t0 = spec.mu.inverse(1.0)
            return {"survive": float(np.mean(out[:, 0] > t0)), "monotone": ok}
        rows, inverse = out
        ok = all(np.all(np.diff(c) >= 0) and c[-1] == n for c, n in rows)
        totals = np.array([c[-1] for c, _ in rows], dtype=float)
        return {"monotone": bool(ok), "mean_total": float(totals.mean()), "inverse": inverse}

    def check(self, spec, rep, s):
        p, n = spec.params, spec.size
        wrong = int(not s["monotone"])
        if spec.kind == "grid":
            for t, mean in zip(spec.times, s["means"]):
                m, v = mx.count_mean_var(p, float(spec.mu(t)))
                wrong += int(abs(mean - m) > MC_SIGMAS * math.sqrt(v / n))
            return 1 + len(spec.times), wrong
        if spec.kind == "arrivals":
            q = mx.lst(p, 1.0)  # P(T_1 > mu^-1(1)) = P(N at mu = 1 is 0)
            wrong += int(abs(s["survive"] - q) > MC_SIGMAS * math.sqrt(q * (1 - q) / n))
            return 2, wrong
        m, v = mx.count_mean_var(p, float(spec.mu(spec.mu.t_end)))
        wrong += int(abs(s["mean_total"] - m) > MC_SIGMAS * math.sqrt(v / n))
        round_trip = np.abs(spec.mu(s["inverse"]) - spec.probe)
        wrong += int(np.max(round_trip) > 1e-9 * spec.mu.knot_mu[-1])
        return 3, wrong


# --------------------------------------------------------------------------
# fit_validate


def _count_kernel(n: int):
    """P(N = n | xi = x) at unit intensity."""
    log_fact = math.lgamma(n + 1.0)
    return lambda x: math.exp(n * math.log(x) - x - log_fact) if x > 0 else float(n == 0)


def _epoch_kernel(n: int, t: float):
    """Density at t of the n-th arrival epoch given xi = x (Gamma(n, x))."""
    log_c = (n - 1) * math.log(t) - math.lgamma(n)
    return lambda x: math.exp(log_c + n * math.log(x) - x * t) if x > 0 else 0.0


def _true_cdf(a: float, lam: float, x: np.ndarray) -> np.ndarray:
    return 1.0 - np.clip(1.0 - x / a, 0.0, 1.0) * np.exp(-lam * x)


@dataclass(eq=False)
class FitSpec:
    kind: str  # "fit", "validate" or "oracle"
    params: mx.MinUExpParams
    oracle_counts: list = field(default_factory=list)
    oracle_epochs: list = field(default_factory=list)
    picks: np.ndarray | None = None  # oracle values checked against references
    identifiable: bool = True  # fit jobs: run fit_lsq and require convergence


class FitValidate(Workload):
    """Fits of 10^5 draws, quick validation and oracle batches, in turn."""

    name = "fit_validate"

    def __init__(self, seed: int, size: str = "full"):
        super().__init__(seed, size)
        import minuexp.oracle  # noqa: F401  (imported by the workload's set-up)
        import minuexp.validation  # noqa: F401

        rng = self.rng
        grid = [GRID[4], GRID[12]] if self.tiny else GRID
        self.draws = 100_000
        # 600 count and 600 epoch integrals.  An oracle job then costs
        # 0.25-3 s, as much as a quick validation or more, so the median job
        # sits inside one dense block of jobs, not at the edge between two
        # kinds whose order host noise can swap.
        batch = 4 if self.tiny else 600
        self.specs = []
        for a, lam in grid:
            p = mx.MinUExpParams(a, lam)
            self.specs.append(FitSpec("fit", p, identifiable=self.draws * math.exp(-a * lam) >= FIT_MIN_BINDING))
            self.specs.append(FitSpec("validate", p))
            counts = [int(n) for n in rng.integers(0, 31, batch)]
            epochs = [
                (int(n), float(t))
                for n, t in zip(rng.integers(1, 11, batch), np.exp(rng.uniform(math.log(0.1), math.log(5.0), batch)))
            ]
            picks = rng.choice(2 * batch, min(64, 2 * batch), replace=False)
            self.specs.append(FitSpec("oracle", p, counts, epochs, picks))
        self.stream_seed = int(rng.integers(2**62))

    def cycle(self):
        return self.specs

    def run(self, spec, rep):
        p = spec.params
        if spec.kind == "fit":
            index = (rep + 1) * len(self.specs) + self.specs.index(spec)  # rep is -1 for the warm-up
            stream = mx.make_stream(mx.split_seed(self.stream_seed, index))
            values = mx.sample(p, stream, self.draws)
            return [mx.fit_mom(values)] + ([mx.fit_lsq(values)] if spec.identifiable else [])
        if spec.kind == "validate":
            return mx.validation.run_validation(quick=True)
        counts = [mx.oracle.mix_integral(p, _count_kernel(n)).value for n in spec.oracle_counts]
        epochs = [mx.oracle.mix_integral(p, _epoch_kernel(n, t)).value for n, t in spec.oracle_epochs]
        return counts, epochs

    def summarize(self, spec, rep, out):
        if spec.kind == "validate":
            return [r.passed for r in out]
        if spec.kind == "oracle":
            values = out[0] + out[1]
            return [values[i] for i in spec.picks]
        return out

    def _oracle_refs(self, spec):
        a, lam = spec.params.a, spec.params.lam
        refs = [("count_pmf", a, lam, n) for n in spec.oracle_counts] + [
            ("erlang_pdf", a, lam, n, t) for n, t in spec.oracle_epochs
        ]
        return [refs[i] for i in spec.picks]

    def reference_list(self):
        return [r for spec in self.specs if spec.kind == "oracle" for r in self._oracle_refs(spec)]

    def check(self, spec, rep, s):
        if spec.kind == "validate":
            return len(s), sum(not passed for passed in s)
        if spec.kind == "oracle":
            return _compare(s, [self.refs[r] for r in self._oracle_refs(spec)])
        xs = np.linspace(0.0, 1.2 * spec.params.a, 512)
        truth = _true_cdf(spec.params.a, spec.params.lam, xs)
        band = math.sqrt(math.log(2.0 / FIT_BAND_LEVEL) / (2.0 * self.draws))
        where = "" if spec.identifiable else f" at unidentifiable ({spec.params.a:g}, {spec.params.lam:g})"
        wrong = 0
        for fit in s:
            gap = np.max(np.abs(_true_cdf(fit.a_hat, fit.lambda_hat, xs) - truth))
            wrong += int(not ((fit.converged or not spec.identifiable) and gap <= band))
            self.tally[f"fit_{fit.method} fits{where}"] += 1
            self.tally[f"fit_{fit.method} fits converged{where}"] += int(fit.converged)
        return len(s), wrong


# --------------------------------------------------------------------------
# cli


class Cli(Workload):
    """One fresh ``python -m minuexp.cli`` process per job, over eight commands.

    Children run in ``workdir`` with the absolute ``src`` path first on
    PYTHONPATH, so the package resolves without being installed.  Each
    job's stdout must equal, byte for byte, the first run of the same
    command in the benchmark run.
    """

    name = "cli"

    def __init__(self, seed: int, size: str = "full", workdir: str = ".", src: str = ""):
        super().__init__(seed, size)
        import minuexp.cli  # noqa: F401  (part of the workload's set-up cost)

        rng = self.rng
        self.workdir = Path(workdir)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(src).resolve())] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        # one fixed pair, so that the commands cost the same on every seed
        a, lam = 1.0, 1.0
        draws = mx.sample(mx.MinUExpParams(a, lam), mx.make_stream(int(rng.integers(2**62))), 10_000)
        (self.workdir / "draws.csv").write_text(
            "value\n" + "".join("%.17g\n" % v for v in draws), encoding="utf-8"
        )
        knot_mu = np.concatenate([[0.0], np.cumsum(rng.uniform(0.2, 0.7, 4))])
        knots = np.column_stack([[0.0, 0.5, 1.0, 2.0, 4.0], knot_mu])
        (self.workdir / "knots.csv").write_text(
            "t,mu\n" + "".join("%.17g,%.17g\n" % tuple(k) for k in knots), encoding="utf-8"
        )
        common = ["--a", repr(a), "--lambda", repr(lam)]
        n_draws = "200" if self.tiny else "10000"
        self.specs = [
            ["eval", "--fn", "hazard", *common, "--grid", f"0:{a!r}:{a / 1000!r}"],
            ["eval", "--fn", "count-pmf", *common, "--n", "0..200"],
            ["eval", "--fn", "posterior-mean", *common, "--mu-t", repr(float(rng.uniform(0.5, 5.0))), "--n", "0..50"],
            ["sample", *common, "--n-draws", n_draws, "--seed", str(int(rng.integers(2**31)))],
            ["fit", "--method", "mom", "--input", "draws.csv"],
            ["fit", "--method", "lsq", "--input", "draws.csv"],
            ["simulate", *common, "--mu", "table:knots.csv", "--horizon", "4", "--paths", "100",
             "--seed", str(int(rng.integers(2**31))), "--times", "1,2,4"],
            ["validate", "--quick"],
        ]
        self.first_digest: dict[int, bytes] = {}
        self.trace_runner: str | None = None  # set to cli_traced.py for the traced run
        self.child_records: list[dict] = []

    def cycle(self):
        return list(range(len(self.specs)))

    def run(self, index, rep):
        argv = self.specs[index]
        if self.trace_runner is None:
            cmd = [sys.executable, "-m", "minuexp.cli", *argv]
        else:
            record = self.workdir / "spans.json"
            cmd = [sys.executable, self.trace_runner, str(record), *argv]
        proc = subprocess.run(cmd, cwd=self.workdir, env=self.env, capture_output=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(
                f"exit code {proc.returncode} from {' '.join(argv)}: {proc.stderr.decode(errors='replace')[-500:]}"
            )
        if self.trace_runner is not None:
            self.child_records.append(json.loads(record.read_text(encoding="utf-8")))
        return proc.stdout

    def summarize(self, index, rep, out):
        digest = hashlib.sha256(out).digest()
        self.first_digest.setdefault(index, digest)
        return digest

    def check(self, index, rep, digest):
        return 1, int(digest != self.first_digest[index])


WORKLOADS = {w.name: w for w in (ClosedForms, Simulate, FitValidate, Cli)}


def make(name: str, seed: int, size: str = "full", **kwargs) -> Workload:
    return WORKLOADS[name](seed, size, **kwargs)
