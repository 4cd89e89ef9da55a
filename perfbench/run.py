"""minuexp benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload closed_forms --seed 1 --seconds 18 --trace 0

Run from the root of a checkout.  The package is taken from ``src/`` of
that checkout (it need not be installed).  With ``--trace 0`` the workload
runs untraced and the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it runs untraced and then traced, and
the last line carries the per-layer metrics.  The lines before it give all
seven end-to-end metrics by name and unit, the sample counts and the
machine fingerprint.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("closed_forms", "simulate", "fit_validate", "cli")
# A run must end within this many seconds, set-ups included.
DEADLINE_S = 170.0
# Fresh interpreters timed for setup_s: two set-up-only workers and the
# measuring one.  A --size tiny run times only the measuring one.
SETUPS = 3


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _launch(args, mode: str, workdir: Path, out: Path, deadline: float) -> tuple[float, dict | None]:
    """Start a worker, time it to READY, wait for it; returns (ready_s, record)."""
    src = ROOT / "src"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--mode", mode, "--size", args.size, "--src", str(src), "--out", str(out),
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(src), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=workdir, env=env, stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(deadline - time.monotonic(), 0.0))
        line = proc.stdout.readline() if ready else ""
        ready_s = time.perf_counter() - t0
        if line.strip() != "READY":
            raise BenchError(f"{mode} worker did not become ready (got {line.strip()!r})")
        proc.communicate(timeout=max(deadline - time.monotonic(), 0.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker ran past the {DEADLINE_S:.0f} s deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    if mode == "setup":
        return ready_s, None
    return ready_s, json.loads(out.read_text(encoding="utf-8"))


def tail_latency(sorted_latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten jobs beyond it.

    Returns (value, percentile, jobs beyond) with the percentile in numpy's
    linear convention, index = p/100 * (n - 1).  Below 11 jobs it is the
    maximum, with fewer than ten beyond.
    """
    n = len(sorted_latencies)
    k = max(n - 11, 0) if n >= 11 else n - 1
    return sorted_latencies[k], 100.0 * k / max(n - 1, 1), n - 1 - k


def end_to_end(record: dict, setup_times: list[float]) -> tuple[dict, list[str]]:
    """All seven end-to-end metrics, and the report lines that state them."""
    lat = sorted(record["latencies_s"])
    n = len(lat)
    if n == 0:
        raise BenchError("no job completed")
    tail, pct, beyond = tail_latency(lat)
    values = {
        "setup_s": (statistics.median(setup_times), "s"),
        "jobs_per_s": (n / record["wall_s"], "1/s"),
        "job_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "job_tail_ms": (1e3 * tail, "ms"),
        "peak_rss_mb": (record["peak_rss_mb"], "MB"),
        "error_ratio": (record["errors"] / record["attempted"], "ratio"),
        "wrong_value_ratio": (record["wrong"] / record["checked"] if record["checked"] else 0.0, "ratio"),
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} fresh interpreters: "
        + ", ".join(f"{t:.3f}" for t in setup_times),
        "jobs_per_s": f"{n} jobs in {record['wall_s']:.2f} s, {record['cycles']} whole cycles",
        "job_p50_ms": f"{n} samples",
        "job_tail_ms": f"p{pct:.1f}, {beyond} jobs beyond",
        "peak_rss_mb": "largest child process" if record.get("children_rss") else "workload process",
        "error_ratio": f"{record['errors']} of {record['attempted']} jobs",
        "wrong_value_ratio": f"{record['wrong']} of {record['checked']} values",
    }
    lines = [f"  {k:<18} {v:>14.6g} {u:<6} ({notes[k]})" for k, (v, u) in values.items()]
    return {k: v for k, (v, _) in values.items()}, lines


def _result_line(correct: bool, attempted: int, failed: int, metrics: dict, catalogue: list) -> str:
    missing = [m["name"] for m in catalogue if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in catalogue}
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": out})


def run(args) -> str:
    """Run the workload and return the result line; prints the report."""
    src_pkg = ROOT / "src" / "minuexp" / "__init__.py"
    bench_file = ROOT / "BENCHMARK.json"
    if not src_pkg.is_file() or not bench_file.is_file():
        raise BenchError(f"run from a checkout holding src/minuexp and BENCHMARK.json (looked in {ROOT})")
    bench = json.loads(bench_file.read_text(encoding="utf-8"))
    deadline = time.monotonic() + DEADLINE_S
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        out = workdir / "record.json"
        setup_times = []
        if not args.trace and args.size == "full":
            for i in range(SETUPS - 1):
                setup_dir = workdir / f"setup{i}"
                setup_dir.mkdir()
                setup_times.append(_launch(args, "setup", setup_dir, out, deadline)[0])
        ready_s, record = _launch(args, "trace" if args.trace else "run", workdir, out, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    setup_times.append(ready_s)

    refs = record["references"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  size {args.size}")
    if refs:
        print(
            f"  references: {refs['references']} at 120 digits, {refs['normal_doubles']} normal doubles, "
            f"{refs['cross_checked']} cross-checked by mp.quad, "
            f"{len(refs['route_mismatches'])} route mismatches"
        )
    loops = [record] if not args.trace else [record["untraced"], record["traced"]]
    for label, loop in zip(["untraced loop", "traced loop"], loops):
        if args.trace:
            print(f" {label}:")
        loop["peak_rss_mb"] = record["peak_rss_mb"]
        loop["children_rss"] = args.workload == "cli"
        _, lines = end_to_end(loop, setup_times)
        print("\n".join(lines))
        for name, count in sorted(loop["tally"].items()):
            print(f"  {name}: {count}")
        for sample in loop["error_samples"]:
            print("  job error: " + sample.strip().splitlines()[-1])
    print("fingerprint " + json.dumps(record["fingerprint"], sort_keys=True))

    attempted = sum(loop["attempted"] for loop in loops)
    failed = sum(loop["errors"] for loop in loops)
    correct = (
        all(loop["wrong"] == 0 and loop["checked"] > 0 for loop in loops)
        and not (refs and refs["route_mismatches"])
    )
    if args.trace:
        layer = record["layer"]
        for name in sorted(layer):
            print(f"  {name:<34} {layer[name]:>14.6g}")
        return _result_line(correct, attempted, failed, layer, bench["per_layer"])
    metrics, _ = end_to_end(record, setup_times)
    return _result_line(correct, attempted, failed, metrics, bench["end_to_end"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="minimum length of the timed loop")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full", help="tiny: smoke-test inputs")
    args = parser.parse_args(argv)
    try:
        line = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
