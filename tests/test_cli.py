"""CLI surface: values bit-identical to the library, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import minuexp
from minuexp import MinUExpParams, count_pmf, fit_mom, hazard, make_stream, sample
from minuexp.cli import main

from conftest import P11


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_hazard_grid_matches_library_bitwise(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--fn", "hazard", "--a", "110", "--lambda", "0.04",
            "--grid", "0:109:1",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,value"
        assert len(lines) == 111
        p = MinUExpParams(110.0, 0.04)
        for line in lines[1:]:
            x_s, v_s = line.split(",")
            assert float(v_s) == hazard(p, float(x_s))
        row_100 = dict(tuple(line.split(",")) for line in lines[1:])["100"]
        assert float(row_100) == pytest.approx(0.14, rel=1e-14)

    def test_count_pmf_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--fn", "count-pmf", "--a", "1", "--lambda", "1", "--n", "0..5"
        )
        assert code == 0
        first = out.strip().splitlines()[1]
        assert float(first.split(",")[1]) == float(count_pmf(P11, 0))

    def test_pgf_at_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--fn", "pgf", "--a", "1", "--lambda", "1", "--mu-t", "1",
            "--z", "1",
        )
        assert code == 0
        assert float(out.strip().splitlines()[1].split(",")[1]) == 1.0

    def test_json_format_round_trips(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--fn", "cdf", "--a", "1", "--lambda", "1",
            "--grid", "0:1:0.25", "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)
        assert rows[-1]["value"] == 1.0
        assert rows[2]["value"] == pytest.approx(0.6967346701436833, rel=1e-15)

    def test_erlang_pdf_and_posterior_mean_paths(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--fn", "erlang-pdf", "--a", "1", "--lambda", "1",
            "--erlang-n", "2", "--grid", "1:1:1",
        )
        assert code == 0
        from minuexp import erlang_pdf

        assert float(out.strip().splitlines()[1].split(",")[1]) == erlang_pdf(P11, 2, 1.0)
        code, out, _ = run_cli(
            capsys, "eval", "--fn", "posterior-mean", "--a", "1", "--lambda", "1",
            "--mu-t", "1", "--n", "0..3",
        )
        assert code == 0
        from minuexp import mean_xi_given_count

        first = float(out.strip().splitlines()[1].split(",")[1])
        assert first == mean_xi_given_count(P11, 1.0, 0)

    def test_domain_error_exit_code_and_message(self, capsys):
        code, _, err = run_cli(
            capsys, "eval", "--fn", "lst", "--a", "1", "--lambda", "1", "--grid=-1:1:0.5"
        )
        assert code == 2
        assert "nonnegative" in err

    def test_missing_required_companion_flag(self, capsys):
        code, _, err = run_cli(
            capsys, "eval", "--fn", "erlang-pdf", "--a", "1", "--lambda", "1",
            "--grid", "0:2:1",
        )
        assert code == 2
        assert "erlang-n" in err

    def test_invalid_params_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "eval", "--fn", "cdf", "--a", "-1", "--lambda", "1", "--grid", "0:1:1"
        )
        assert code == 2
        assert "positive" in err


    @pytest.mark.parametrize("grid", ["nan", "inf", "0:inf:1", "0:nan:0.1", "0:1e300:1e-10"])
    def test_non_finite_grid_exit_2(self, capsys, grid):
        code, out, err = run_cli(
            capsys, "eval", "--fn", "cdf", "--a", "1", "--lambda", "1", f"--grid={grid}"
        )
        assert code == 2
        assert out == ""
        assert "grid" in err


class TestSampleAndFit:
    def test_sample_matches_library_stream(self, capsys, tmp_path):
        out_path = tmp_path / "draws.csv"
        code, _, _ = run_cli(
            capsys, "sample", "--dist", "structure", "--a", "1", "--lambda", "1",
            "--n-draws", "100", "--seed", "7", "--output", str(out_path),
        )
        assert code == 0
        text = out_path.read_text().strip().splitlines()
        assert text[0] == "value"
        expected = sample(P11, make_stream(7), size=100)
        assert np.array_equal(np.array([float(v) for v in text[1:]]), expected)

    def test_fit_round_trip(self, capsys, tmp_path):
        draws = tmp_path / "draws.csv"
        run_cli(
            capsys, "sample", "--a", "110", "--lambda", "0.04", "--n-draws", "100000",
            "--seed", "2024", "--output", str(draws),
        )
        code, out, _ = run_cli(capsys, "fit", "--input", str(draws), "--method", "mom")
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "mom"
        assert payload["converged"] is True
        assert payload["a_hat"] == pytest.approx(110.0, rel=0.10)
        assert payload["lambda_hat"] == pytest.approx(0.04, rel=0.10)
        reference = fit_mom(sample(MinUExpParams(110.0, 0.04), make_stream(2024), size=100_000))
        assert payload["a_hat"] == reference.a_hat

    def test_fit_lsq(self, capsys, tmp_path):
        draws = tmp_path / "draws.csv"
        run_cli(
            capsys, "sample", "--a", "1", "--lambda", "1", "--n-draws", "20000",
            "--seed", "5", "--output", str(draws),
        )
        code, out, _ = run_cli(capsys, "fit", "--input", str(draws), "--method", "lsq")
        assert code == 0
        payload = json.loads(out)
        assert payload["objective"] >= 0.0
        assert payload["a_hat"] == pytest.approx(1.0, rel=0.10)

    def test_fit_reports_optimizer_counts(self, capsys, tmp_path):
        draws = tmp_path / "draws.csv"
        run_cli(
            capsys, "sample", "--a", "1", "--lambda", "1", "--n-draws", "5000",
            "--seed", "6", "--output", str(draws),
        )
        _, out, _ = run_cli(capsys, "fit", "--input", str(draws), "--method", "lsq")
        lsq = json.loads(out)
        assert isinstance(lsq["iterations"], int) and isinstance(lsq["evaluations"], int)
        assert 0 < lsq["iterations"] <= lsq["evaluations"]
        _, out, _ = run_cli(capsys, "fit", "--input", str(draws), "--method", "mom")
        mom = json.loads(out)
        assert isinstance(mom["iterations"], int) and isinstance(mom["evaluations"], int)
        assert 0 < mom["iterations"] <= mom["evaluations"]

    def test_fit_nonconvergence_exit_3(self, capsys, tmp_path):
        heavy = tmp_path / "heavy.txt"
        heavy.write_text("\n".join(["1.0", "1.0", "1.0", "10.0"]) + "\n")
        code, out, _ = run_cli(capsys, "fit", "--input", str(heavy), "--method", "mom")
        assert code == 3
        assert json.loads(out)["converged"] is False

    def test_fit_missing_file_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "fit", "--input", "/nonexistent.csv", "--method", "mom")
        assert code == 2


class TestSimulate:
    def test_trajectory_csv_schema(self, capsys, tmp_path):
        out_path = tmp_path / "traj.csv"
        code, _, _ = run_cli(
            capsys, "simulate", "--a", "1", "--lambda", "1", "--mu", "linear:1",
            "--horizon", "3", "--paths", "4", "--seed", "11", "--output", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "path_id,xi,k,T_k"
        seen_paths = {line.split(",")[0] for line in lines[1:]}
        assert seen_paths == {"0", "1", "2", "3"}  # anchor row even without arrivals
        for line in lines[1:]:
            _, xi, k, t_k = line.split(",")
            assert 0.0 < float(xi) < 1.0
            assert (int(k) == 0) == (float(t_k) == 0.0)

    def test_counts_export(self, capsys, tmp_path):
        counts_path = tmp_path / "counts.csv"
        code, _, _ = run_cli(
            capsys, "simulate", "--a", "1", "--lambda", "1", "--horizon", "2",
            "--paths", "3", "--seed", "13", "--times", "0.5,1,2",
            "--counts-output", str(counts_path), "--output", str(tmp_path / "t.csv"),
        )
        assert code == 0
        lines = counts_path.read_text().strip().splitlines()
        assert lines[0] == "path_id,time,count"
        assert len(lines) == 1 + 3 * 3

    def test_table_transform_from_file(self, capsys, tmp_path):
        table = tmp_path / "mu.csv"
        table.write_text("t,mu\n0,0\n1,0.5\n4,4\n")
        code, _, _ = run_cli(
            capsys, "simulate", "--a", "1", "--lambda", "1", "--mu",
            f"table:{table}", "--horizon", "4", "--paths", "2", "--seed", "3",
            "--output", str(tmp_path / "traj.csv"),
        )
        assert code == 0

    def test_byte_identical_repeats(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            run_cli(
                capsys, "simulate", "--a", "1", "--lambda", "1", "--horizon", "2",
                "--paths", "5", "--seed", "77", "--output", str(path),
            )
        assert a.read_bytes() == b.read_bytes()


class TestConfig:
    def test_config_supplies_flags(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"a": 1.0, "lambda": 1.0, "fn": "cdf", "grid": "0:1:0.5"}))
        code, out, _ = run_cli(capsys, "eval", "--config", str(config))
        assert code == 0
        assert out.strip().splitlines()[0] == "x,value"

    def test_explicit_flag_overrides_config(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"a": 2.0, "lambda": 1.0, "fn": "cdf", "grid": "1:1:1"}))
        code, out, _ = run_cli(capsys, "eval", "--config", str(config), "--a", "1")
        assert code == 0
        value = float(out.strip().splitlines()[1].split(",")[1])
        assert value == 1.0  # cdf at the right end under a = 1, not a = 2

    def test_unknown_config_key(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"bogus": 1}))
        code, _, err = run_cli(capsys, "eval", "--config", str(config))
        assert code == 2
        assert "bogus" in err

    @pytest.mark.parametrize(
        "before, after",
        [
            ([], ["--config", "{path}"]),
            ([], ["--config={path}"]),
            (["--config", "{path}"], []),
            (["--config={path}"], []),
        ],
        ids=["after-space", "after-equals", "before-space", "before-equals"],
    )
    def test_config_spellings_and_positions(self, capsys, tmp_path, before, after):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"a": 2.0, "lambda": 1.0, "fn": "cdf", "grid": "1:1:1"}))
        argv = [tok.format(path=config) for tok in [*before, "eval", *after, "--a", "1"]]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert float(out.strip().splitlines()[1].split(",")[1]) == 1.0

    def test_boolean_key_sets_flag(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"quick": True, "format": "csv"}))
        code, out, _ = run_cli(capsys, "validate", "--config", str(config))
        assert code == 0
        assert out.splitlines()[0] == "name,value,reference,rel_err,tol,expect,passed"

    def test_non_scalar_value_exit_2(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"grid": [0, 1]}))
        code, _, err = run_cli(capsys, "eval", "--config", str(config))
        assert code == 2
        assert "grid" in err


class TestValidate:
    def test_failures_exit_one(self, capsys, monkeypatch):
        from minuexp import validation
        from minuexp.validation import CheckRow

        failing = [CheckRow("forced failure", 1.0, 2.0, 0.5, 1e-8, "match", False)]
        monkeypatch.setattr(validation, "run_validation", lambda quick=False: failing)
        code, out, _ = run_cli(capsys, "validate", "--quick")
        assert code == 1
        assert "FAIL" in out

    def test_quick_pass_and_formats(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--quick")
        assert code == 0
        assert "checks passed" in out
        code, out, _ = run_cli(capsys, "validate", "--quick", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert all(r["passed"] for r in rows)
        code, out, _ = run_cli(capsys, "validate", "--quick", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "name,value,reference,rel_err,tol,expect,passed"


_COLD_START = """
import json, sys
module, argv = sys.argv[1], sys.argv[2:]
__import__(module)
code = sys.modules["minuexp.cli"].main(argv) if argv else 0
print(json.dumps({"code": code, "scipy": [m for m in sys.modules if m.startswith("scipy")]}))
"""

_PARAMS = ("--a", "1", "--lambda", "1")

# (module imported, CLI argv or none, scipy modules required, scipy modules
# and their submodules forbidden)
_COLD_START_TABLE = {
    "import-minuexp": ("minuexp", (), (), ("scipy",)),
    "import-minuexp.cli": ("minuexp.cli", (), (), ("scipy",)),
    "eval-hazard": (
        "minuexp.cli", ("eval", "--fn", "hazard", *_PARAMS, "--grid", "0:1:0.5"), (), ("scipy",),
    ),
    "sample": ("minuexp.cli", ("sample", *_PARAMS, "--n-draws", "10"), (), ("scipy",)),
    "simulate": (
        "minuexp.cli", ("simulate", *_PARAMS, "--horizon", "2", "--paths", "3"), (), ("scipy",),
    ),
    "fit-mom": ("minuexp.cli", ("fit", "--method", "mom", "--input", "draws.csv"), (), ("scipy",)),
    "fit-lsq": ("minuexp.cli", ("fit", "--method", "lsq", "--input", "draws.csv"), (), ("scipy",)),
    # kernel orders 0..3 at a (lambda + 1) = 2: every element takes the
    # kernel's own sums, route A or B
    "eval-count-pmf": (
        "minuexp.cli", ("eval", "--fn", "count-pmf", *_PARAMS, "--n", "0..3"), (), ("scipy",),
    ),
    "eval-posterior-mean": (
        "minuexp.cli",
        ("eval", "--fn", "posterior-mean", *_PARAMS, "--mu-t", "4.9", "--n", "0..50"),
        (),
        ("scipy",),
    ),
    # a (lambda + 1) = 114.4 and kernel orders 0..3: every element takes the
    # kernel's route B, its finite Poisson sum
    "eval-count-pmf-large-a": (
        "minuexp.cli",
        ("eval", "--fn", "count-pmf", "--a", "110", "--lambda", "0.04", "--n", "0..3"),
        (),
        ("scipy",),
    ),
    # orders 150..153 at a (lambda + 1) = 114.4: every element takes the
    # kernel's route A by its converged series
    "eval-count-pmf-large-a-deep": (
        "minuexp.cli",
        ("eval", "--fn", "count-pmf", "--a", "110", "--lambda", "0.04", "--n", "150..153"),
        (),
        ("scipy",),
    ),
    # orders 150..153 past 127 at a (lambda + 1) = 208, above the order plus
    # one: the kernel's route C needs scipy.special, and only it
    "eval-count-pmf-large-x": (
        "minuexp.cli",
        ("eval", "--fn", "count-pmf", "--a", "200", "--lambda", "0.04", "--n", "150..153"),
        ("scipy.special",),
        ("scipy.optimize",),
    ),
    # kernel order 20 at a (lambda + t) from 1.01 to 101: every element takes
    # the kernel's route A below 21 and its route B from 21 on
    "eval-erlang-pdf": (
        "minuexp.cli",
        ("eval", "--fn", "erlang-pdf", "--erlang-n", "20", *_PARAMS, "--grid", "0.01:100:0.01"),
        (),
        ("scipy",),
    ),
    "validate-quick": ("minuexp.cli", ("validate", "--quick"), ("scipy.integrate",), ()),
}


@pytest.mark.parametrize("row", list(_COLD_START_TABLE))
def test_cold_start_loads_scipy_submodules_only_where_called(row, tmp_path):
    """Each command loads only the scipy it computes with: importing the
    package or the CLI loads none, and neither do the commands that need no
    special function, quadrature or optimizer.  A fresh interpreter per row
    is needed because this test process has long since imported everything."""
    module, argv, required, forbidden = _COLD_START_TABLE[row]
    draws = tmp_path / "draws.csv"
    draws.write_text("".join("%.17g\n" % v for v in sample(P11, make_stream(3), size=500)))
    env = dict(os.environ)
    package_root = str(Path(minuexp.__file__).resolve().parents[1])
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = package_root + os.pathsep + inherited if inherited else package_root
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_START, module, *argv],
        capture_output=True, cwd=tmp_path, env=env, text=True, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["code"] == 0
    loaded = set(report["scipy"])
    assert set(required) <= loaded
    assert not [m for m in loaded for f in forbidden if m == f or m.startswith(f + ".")]
