"""Tests of the benchmark itself: smoke runs, fault injection, seeds, tracing.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import minuexp
import run
import spans
import worker
import workloads

ROOT = Path(__file__).resolve().parents[2]


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--seconds", "0.5", "--size", "tiny", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_each_workload_tiny(workload):
    proc = _bench("--workload", workload, "--seed", "3", "--trace", "0")
    result = _result(proc)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in bench["end_to_end"]]
    for name in ("setup_s", "jobs_per_s", "job_p50_ms", "job_tail_ms", "peak_rss_mb", "error_ratio", "wrong_value_ratio"):
        assert f"  {name} " in proc.stdout  # all seven, by name, in the report
    assert "fingerprint " in proc.stdout


def _run_in_process(name: str, seed: int = 5) -> dict:
    wl = workloads.make(name, seed, "tiny")
    wl.build_references(cross_check=0)
    return worker.check_outputs(wl, worker.measure(wl, 0.0, cycles=1))


def test_perturbed_output_raises_wrong_value_ratio(monkeypatch):
    clean = _run_in_process("closed_forms")
    assert clean["wrong"] == 0 and clean["checked"] > 0
    original = minuexp.count_pmf
    monkeypatch.setattr(minuexp, "count_pmf", lambda p, n: original(p, n) * (1.0 + 1e-6))
    record = _run_in_process("closed_forms")
    metrics, _ = run.end_to_end(dict(record, peak_rss_mb=1.0), [1.0])
    assert record["errors"] == 0
    assert metrics["wrong_value_ratio"] > 0.0


def test_raising_call_raises_error_ratio(monkeypatch):
    def broken(*args, **kwargs):
        raise FloatingPointError("injected")

    monkeypatch.setattr(minuexp, "sample_grid_counts", broken)
    record = _run_in_process("simulate")
    metrics, _ = run.end_to_end(dict(record, peak_rss_mb=1.0), [1.0])
    assert metrics["error_ratio"] == pytest.approx(6 / 9)  # the six grid-count jobs of nine
    assert "FloatingPointError" in record["error_samples"][0]


def test_second_seed_reported_alongside_first():
    first = _result(_bench("--workload", "closed_forms", "--seed", "1", "--trace", "0"))
    second = _result(_bench("--workload", "closed_forms", "--seed", "2", "--trace", "0"))
    print("seed 1:", json.dumps(first["metrics"]))
    print("seed 2:", json.dumps(second["metrics"]))
    assert first["correct"] and second["correct"]
    a, b, a_again = (workloads.make("closed_forms", s, "tiny") for s in (1, 2, 1))
    assert not np.array_equal(a.specs[0].x, b.specs[0].x)
    assert np.array_equal(a.specs[0].x, a_again.specs[0].x)


def test_traced_run_reports_every_layer_metric():
    result = _result(_bench("--workload", "simulate", "--seed", "4", "--trace", "1"))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert list(metrics) == [m["name"] for m in bench["per_layer"]]
    assert metrics["process.paths"] > 0 and metrics["rng.substreams"] > 0
    assert metrics["gamma_kernel.calls"] == 0  # the simulator does not use the kernel
    assert 0.8 < metrics["trace.coverage"] <= 1.0


def test_tracer_self_times_and_restore():
    tracer = spans.Tracer()
    original = minuexp.counting.log_mixing_kernel
    tracer.install()
    try:
        minuexp.count_pmf(minuexp.MinUExpParams(1.0, 1.0), np.arange(300))
    finally:
        tracer.uninstall()
    assert minuexp.counting.log_mixing_kernel is original
    names = [s[spans.NAME] for s in tracer.spans]
    assert names == ["count_pmf", "log_mixing_kernel", "log_lower_incomplete_gamma"]
    layer = spans.layer_metrics(tracer.spans)
    total = tracer.spans[0][spans.END] - tracer.spans[0][spans.START] - tracer.spans[0][spans.BOOK]
    self_sum = sum(v for k, v in layer.items() if k.endswith(".self_s"))
    assert self_sum == pytest.approx(total, rel=1e-9)
    assert layer["gamma_kernel.elems"] == 300 and layer["gamma_kernel.series_elems"] > 0


def test_tail_latency_keeps_ten_jobs_beyond():
    lat = [float(i) for i in range(100)]
    value, pct, beyond = run.tail_latency(lat)
    assert beyond == 10 and value == 89.0 and pct == pytest.approx(100 * 89 / 99)


def test_loop_runs_enough_jobs_for_a_tail_above_the_median():
    class EightJobs(workloads.Workload):
        def cycle(self):
            return list(range(8))

        def run(self, spec, rep):
            return spec

    record = worker.measure(EightJobs(1), 0.0)
    assert record["cycles"] == 3 and record["attempted"] == 24
    _, pct, beyond = run.tail_latency(sorted(record["latencies_s"]))
    assert beyond == 10 and pct > 50.0


def test_fit_at_unidentifiable_pair_runs_mom_and_checks_the_band():
    wl = workloads.make("fit_validate", 7)
    spec = next(s for s in wl.specs if s.kind == "fit" and (s.params.a, s.params.lam) == (5.0, 4.0))
    assert not spec.identifiable
    fits = wl.run(spec, 0)
    assert [f.method for f in fits] == ["mom"]
    assert wl.check(spec, 0, wl.summarize(spec, 0, fits)) == (1, 0)
    assert wl.tally["fit_mom fits at unidentifiable (5, 4)"] == 1
    assert wl.tally["fit_mom fits converged at unidentifiable (5, 4)"] == int(fits[0].converged)


def test_fails_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "closed_forms", "--seed", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
