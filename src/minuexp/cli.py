"""Command-line front end: evaluate, sample, fit, simulate, validate.

All inputs are explicit flags (or a --config JSON mirroring them); outputs
are pure functions of the flags and the seed, so repeated invocations are
byte-identical.  CSV numbers are printed with 17 significant digits, which
round-trips IEEE doubles exactly.

Exit codes: 0 success, 1 validation failures, 2 domain or usage errors,
3 fit non-convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import counting, estimation, interarrival, process, structure
from .rng import make_stream
from .structure import MinUExpParams

__all__ = ["main"]

_FMT = "%.17g"


def _fmt(x: float) -> str:
    return _FMT % x


def _parse_grid(spec: str) -> np.ndarray:
    """'start:stop:step' (both ends included when step divides) or one value."""
    parts = spec.split(":")
    if len(parts) not in (1, 3):
        raise ValueError("grid must look like start:stop:step or be a single value")
    values = [float(p) for p in parts]
    if not all(map(math.isfinite, values)):
        raise ValueError("grid values must be finite")
    if len(values) == 1:
        return np.array(values)
    start, stop, step = values
    if step <= 0.0 or stop < start:
        raise ValueError("grid needs stop >= start and step > 0")
    cells = (stop - start) / step
    if not math.isfinite(cells):
        raise ValueError("grid has too many points")
    return start + step * np.arange(int(math.floor(cells + 1e-9)) + 1)


def _parse_count_range(spec: str) -> np.ndarray:
    """'lo..hi' inclusive, or a single nonnegative integer."""
    if ".." in spec:
        lo_s, hi_s = spec.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
        if lo < 0 or hi < lo:
            raise ValueError("count range must satisfy 0 <= lo <= hi")
        return np.arange(lo, hi + 1)
    value = int(spec)
    if value < 0:
        raise ValueError("count index must be nonnegative")
    return np.array([value])


def _parse_mu(spec: str) -> process.MuTransform:
    """'linear:c', 'power:c,b', or 'table:path' (CSV of t,mu rows)."""
    kind, _, rest = spec.partition(":")
    if kind == "linear":
        return process.LinearMu(float(rest or 1.0))
    if kind == "power":
        c_s, _, b_s = rest.partition(",")
        if not b_s:
            raise ValueError("power time change needs 'power:c,b'")
        return process.PowerMu(float(c_s), float(b_s))
    if kind == "table":
        knots = []
        with open(rest, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                fields = line.split(",")
                try:
                    knots.append((float(fields[0]), float(fields[1])))
                except ValueError:
                    continue  # header row
        return process.TableMu(knots)
    raise ValueError("time change must be linear:c, power:c,b, or table:path")


def _read_sample(path: str) -> np.ndarray:
    """One value per line, or a single-column CSV with a header row."""
    values = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            token = line.strip().split(",")[0]
            if not token:
                continue
            try:
                values.append(float(token))
            except ValueError:
                continue  # header row
    if not values:
        raise ValueError(f"no numeric values found in sample file {path!r}")
    return np.asarray(values)


def _write(text: str, path: str | None) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _xy_table(xs, values, fmt: str) -> str:
    if fmt == "json":
        rows = [{"x": float(x), "value": float(v)} for x, v in zip(xs, values)]
        return json.dumps(rows, indent=2) + "\n"
    lines = ["x,value"]
    lines += [f"{_fmt(float(x))},{_fmt(float(v))}" for x, v in zip(xs, values)]
    return "\n".join(lines) + "\n"


# --fn names of the evaluators that take only the grid.  Each looks its
# function up when called, so a patched or wrapped module function is the
# one that runs.
_GRID_FNS = {
    "cdf": lambda params, xs: structure.cdf(params, xs),
    "pdf": lambda params, xs: structure.pdf(params, xs),
    "hazard": lambda params, xs: structure.hazard(params, xs),
    "lst": lambda params, xs: structure.lst(params, xs),
    "tau-pdf": lambda params, xs: interarrival.tau_pdf(params, xs),
}


def _cmd_eval(args) -> int:
    params = MinUExpParams(args.a, args.lam)
    fn = args.fn
    if fn in _GRID_FNS or fn == "erlang-pdf":
        if args.grid is None:
            raise ValueError(f"--fn {fn} requires --grid")
        xs = _parse_grid(args.grid)
        if fn in _GRID_FNS:
            values = _GRID_FNS[fn](params, xs)
        else:
            if args.erlang_n is None:
                raise ValueError("--fn erlang-pdf requires --erlang-n")
            values = interarrival.erlang_pdf(params, args.erlang_n, xs)
    elif fn == "count-pmf":
        if args.n is None:
            raise ValueError("--fn count-pmf requires --n (e.g. 0..5)")
        xs = _parse_count_range(args.n)
        values = counting.count_pmf(params, xs)
    elif fn == "pgf":
        if args.mu_t is None:
            raise ValueError("--fn pgf requires --mu-t")
        if args.grid is not None:
            xs = _parse_grid(args.grid)
        elif args.z is not None:
            xs = np.array([args.z])
        else:
            raise ValueError("--fn pgf requires --z or --grid")
        values = counting.pgf(params, args.mu_t, xs)
    elif fn == "posterior-mean":
        if args.mu_t is None or args.n is None:
            raise ValueError("--fn posterior-mean requires --mu-t and --n")
        xs = _parse_count_range(args.n)
        values = counting.mean_xi_given_count(params, args.mu_t, xs)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown function {fn!r}")
    _write(_xy_table(xs, np.atleast_1d(values), args.format), args.output)
    return 0


def _cmd_sample(args) -> int:
    params = MinUExpParams(args.a, args.lam)
    if args.n_draws < 1:
        raise ValueError("--n-draws must be a positive integer")
    rng = make_stream(args.seed)
    if args.dist == "structure":
        draws = structure.sample(params, rng, size=args.n_draws)
    else:
        draws = interarrival.tau_sample(params, rng, size=args.n_draws)
    lines = ["value"] + [_fmt(float(v)) for v in draws]
    _write("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_fit(args) -> int:
    values = _read_sample(args.input)
    if args.method == "mom":
        result = estimation.fit_mom(values)
    else:
        result = estimation.fit_lsq(values)
    _write(json.dumps(result.to_dict(), indent=2) + "\n", args.output)
    return 0 if result.converged else 3


def _cmd_simulate(args) -> int:
    params = MinUExpParams(args.a, args.lam)
    mu = _parse_mu(args.mu)
    if args.paths < 1:
        raise ValueError("--paths must be a positive integer")
    times = None
    if args.times is not None:
        times = np.array([float(tok) for tok in args.times.split(",") if tok])
    lines = ["path_id,xi,k,T_k"]
    count_lines = ["path_id,time,count"]
    for i, traj in enumerate(
        process.simulate_paths(params, mu, args.horizon, args.paths, args.seed)
    ):
        lines.append(f"{i},{_fmt(traj.xi)},0,{_fmt(0.0)}")
        for k, t_k in enumerate(traj.arrivals, start=1):
            lines.append(f"{i},{_fmt(traj.xi)},{k},{_fmt(float(t_k))}")
        if times is not None:
            for t, n_t in zip(times, process.counts_on_grid(traj, times)):
                count_lines.append(f"{i},{_fmt(float(t))},{int(n_t)}")
    _write("\n".join(lines) + "\n", args.output)
    if times is not None:
        _write("\n".join(count_lines) + "\n", args.counts_output)
    return 0


def _cmd_validate(args) -> int:
    from .validation import run_validation

    rows = run_validation(quick=args.quick)
    failed = [r for r in rows if not r.passed]
    if args.format == "json":
        payload = [
            {
                "name": r.name,
                "value": r.value,
                "reference": r.reference,
                "rel_err": r.rel_err,
                "tol": r.tol,
                "expect": r.expect,
                "passed": r.passed,
            }
            for r in rows
        ]
        text = json.dumps(payload, indent=2) + "\n"
    elif args.format == "csv":
        lines = ["name,value,reference,rel_err,tol,expect,passed"]
        for r in rows:
            lines.append(
                f'"{r.name}",{_fmt(r.value)},{_fmt(r.reference)},{_fmt(r.rel_err)},'
                f"{_fmt(r.tol)},{r.expect},{str(r.passed).lower()}"
            )
        text = "\n".join(lines) + "\n"
    else:
        width = max(len(r.name) for r in rows)
        lines = [
            f"{'check':<{width}}  {'value':>24} {'reference':>24} {'rel_err':>12} {'expect':>8} status"
        ]
        for r in rows:
            lines.append(
                f"{r.name:<{width}}  {r.value:>24.17g} {r.reference:>24.17g}"
                f" {r.rel_err:>12.3e} {r.expect:>8} {'pass' if r.passed else 'FAIL'}"
            )
        lines.append(
            f"{len(rows) - len(failed)} of {len(rows)} checks passed"
            + (f" ({len(failed)} FAILED)" if failed else "")
        )
        text = "\n".join(lines) + "\n"
    _write(text, args.output)
    return 1 if failed else 0


class _Parser(argparse.ArgumentParser):
    """Subcommand parser that records its option strings, to check config keys."""

    def __init__(self, *args, **kwargs):
        self.flags: set[str] = set()
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self.flags.update(action.option_strings)
        return action


def _config_parser() -> argparse.ArgumentParser:
    """The --config flag alone: read in a first pass, before or after the subcommand."""
    parser = argparse.ArgumentParser(prog="minuexp", add_help=False, allow_abbrev=False)
    parser.add_argument(
        "--config",
        default=None,
        metavar="PATH",
        help="JSON object of the subcommand's flags, given before or after it; "
        "explicit flags win",
    )
    return parser


def build_parser():
    parser = argparse.ArgumentParser(
        prog="minuexp",
        description=(
            "Min-U-Exp distribution family and its mixed Poisson process: "
            "evaluate closed forms, draw samples, fit parameters, simulate "
            "paths, and validate every formula against the numeric oracle."
        ),
        parents=[_config_parser()],
        allow_abbrev=False,  # an abbreviated --config would be parsed, then ignored
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    commands: dict[str, _Parser] = {}

    def add_common(p, with_params=True):
        if with_params:
            p.add_argument("--a", type=float, required=True, help="uniform right end a > 0")
            p.add_argument(
                "--lambda", dest="lam", type=float, required=True, help="exponential rate > 0"
            )
        p.add_argument("--output", default="-", help="output path (default stdout)")

    p_eval = sub.add_parser("eval", help="evaluate a closed form on a grid")
    add_common(p_eval)
    p_eval.add_argument(
        "--fn",
        required=True,
        choices=[*_GRID_FNS, "erlang-pdf", "count-pmf", "pgf", "posterior-mean"],
    )
    p_eval.add_argument("--grid", default=None, help="start:stop:step or a single value")
    p_eval.add_argument("--n", default=None, help="count index or range lo..hi")
    p_eval.add_argument("--erlang-n", dest="erlang_n", type=int, default=None)
    p_eval.add_argument("--mu-t", dest="mu_t", type=float, default=None)
    p_eval.add_argument("--z", type=float, default=None)
    p_eval.add_argument("--format", choices=["csv", "json"], default="csv")
    p_eval.set_defaults(func=_cmd_eval)
    commands["eval"] = p_eval

    p_sample = sub.add_parser("sample", help="draw one column of variates")
    add_common(p_sample)
    p_sample.add_argument("--dist", choices=["structure", "tau"], default="structure")
    p_sample.add_argument("--n-draws", dest="n_draws", type=int, required=True)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.set_defaults(func=_cmd_sample)
    commands["sample"] = p_sample

    p_fit = sub.add_parser("fit", help="estimate (a, lambda) from a sample file")
    p_fit.add_argument("--input", required=True, help="one value per line or 1-column CSV")
    p_fit.add_argument("--method", choices=["mom", "lsq"], required=True)
    p_fit.add_argument("--output", default="-")
    p_fit.set_defaults(func=_cmd_fit)
    commands["fit"] = p_fit

    p_sim = sub.add_parser("simulate", help="simulate process trajectories")
    add_common(p_sim)
    p_sim.add_argument("--mu", default="linear:1", help="linear:c | power:c,b | table:path")
    p_sim.add_argument("--horizon", type=float, required=True)
    p_sim.add_argument("--paths", type=int, default=1)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--times", default=None, help="comma-separated grid for count export")
    p_sim.add_argument("--counts-output", dest="counts_output", default="-")
    p_sim.set_defaults(func=_cmd_simulate)
    commands["simulate"] = p_sim

    p_val = sub.add_parser("validate", help="closed forms vs the numeric oracle")
    p_val.add_argument("--quick", action="store_true", help="reduced grid")
    p_val.add_argument("--format", choices=["table", "csv", "json"], default="table")
    p_val.add_argument("--output", default="-")
    p_val.set_defaults(func=_cmd_validate)
    commands["validate"] = p_val

    return parser, commands


def _apply_config(argv: list[str], commands: dict[str, _Parser]) -> list[str]:
    """Return argv without --config and with the config's flags after the subcommand.

    --config PATH and --config=PATH are read in a first pass, before or
    after the subcommand.  Keys are flag names, dashes optionally written
    as underscores ("lambda" for --lambda).  A value becomes --flag=value,
    true the bare flag and false nothing.  The inserted flags precede the
    command line's own, and argparse keeps the last value of a repeated
    flag, so explicit flags win.
    """
    known, rest = _config_parser().parse_known_args(argv)
    if known.config is None:
        return rest
    with open(known.config, encoding="utf-8") as handle:
        raw = json.load(handle)
    if not isinstance(raw, dict):
        raise ValueError("config file must hold a JSON object")
    at = next((i for i, tok in enumerate(rest) if not tok.startswith("-")), None)
    if at is None or rest[at] not in commands:
        return rest  # argparse reports the missing or unknown subcommand
    command = rest[at]
    flags = commands[command].flags - {"--help"}
    inserted = []
    for key, value in raw.items():
        flag = "--" + key.replace("_", "-")
        if flag not in flags:
            raise ValueError(f"unknown config key {key!r} for command {command!r}")
        if isinstance(value, bool):
            if value:
                inserted.append(flag)
        elif isinstance(value, (int, float, str)):
            inserted.append(f"{flag}={value}")
        else:
            raise ValueError(f"config key {key!r} needs a number, string or boolean")
    return rest[: at + 1] + inserted + rest[at + 1 :]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = build_parser()
    try:
        args = parser.parse_args(_apply_config(argv, commands))
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
