"""Run one workload in a fresh interpreter.

Set-up (imports, inputs, one untimed warm-up job) ends with a ``READY``
line on stdout, which the parent times.  In ``setup`` mode the worker then
exits.  In ``run`` mode it builds the references, runs whole cycles of
jobs as a closed loop with one client until ``--seconds`` have passed,
checks every kept output and writes a JSON record to ``--out``.  In
``trace`` mode it runs the same cycles twice, untraced then traced, and
records per-layer metrics from the spans and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

_T0 = time.perf_counter()

# Quad cross-checks per run; each costs about 0.2 s.
CROSS_CHECKS = 6
# A timed loop runs at least this many whole cycles.  The fit_validate and
# cli cycles take 9-19 s, so with an 18 s run the loop would do one or two
# cycles depending on the host's speed, and the tenth job from the top
# would change with it.
MIN_CYCLES = 2
# ... and at least this many jobs, so that the job_tail_ms percentile (ten
# jobs beyond it) lies above the median: n - 11 >= (n - 1) / 2.  The cli
# loop then runs three cycles of eight jobs, not two.
MIN_JOBS = 21


def _peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def fingerprint() -> dict:
    """Machine and library versions the numbers were measured on."""
    import ctypes
    import glob
    import platform

    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((ln.split(":", 1)[1].strip() for ln in handle if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas_threads = None
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                blas_threads = int(getter())
                break
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads,
    }


def measure(wl, seconds: float, cycles: int | None = None, tracer=None) -> dict:
    """Whole cycles of jobs, at least MIN_CYCLES and MIN_JOBS, until
    ``seconds`` pass (or exactly ``cycles``).

    Only the job's library calls are inside its latency; keeping the
    summary for the check is inside the loop's wall time.  The summaries
    are checked afterwards, by ``check_outputs``.
    """
    specs = wl.cycle()
    latencies, kept, errors = [], [], []
    attempted = rep = 0
    start = time.perf_counter()
    while True:
        for spec in specs:
            attempted += 1
            if tracer is not None:
                tracer.job = attempted
            t0 = time.perf_counter()
            try:
                out = wl.run(spec, rep)
            except Exception:  # a failing job is counted and the loop goes on
                errors.append(traceback.format_exc(limit=3))
                continue
            latencies.append(time.perf_counter() - t0)
            kept.append((spec, rep, wl.summarize(spec, rep, out)))
        rep += 1
        if cycles is not None and rep >= cycles:
            break
        if (
            cycles is None
            and rep >= MIN_CYCLES
            and attempted >= MIN_JOBS
            and time.perf_counter() - start >= seconds
        ):
            break
    wall = time.perf_counter() - start
    return {
        "latencies_s": latencies,
        "wall_s": wall,
        "cycles": rep,
        "attempted": attempted,
        "errors": len(errors),
        "error_samples": errors[:3],
        "kept": kept,
    }


def check_outputs(wl, record: dict) -> dict:
    """Replace the kept summaries by the counts of values checked and wrong,
    and the workload's tally of what the checks saw."""
    checked = wrong = 0
    wl.tally.clear()
    for spec, rep, summary in record.pop("kept"):
        c, w = wl.check(spec, rep, summary)
        checked += c
        wrong += w
    record.update(checked=checked, wrong=wrong, tally=dict(wl.tally))
    return record


def _trace_in_process(wl, seconds: float, import_s: float) -> dict:
    import spans

    untraced = check_outputs(wl, measure(wl, seconds / 2))
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = measure(wl, 0, cycles=untraced["cycles"], tracer=tracer)
    finally:
        tracer.uninstall()
    check_outputs(wl, traced)
    layer = spans.layer_metrics(tracer.spans)
    layer["cli.import_s"] = import_s
    layer["cli.stdout_bytes"] = 0
    return _trace_summary(untraced, traced, layer, len(tracer.spans), tracer.bookkeeping_s, import_s=0.0)


def _trace_cli(wl, seconds: float) -> dict:
    import spans

    untraced = check_outputs(wl, measure(wl, seconds / 2))
    wl.trace_runner = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_traced.py")
    traced = check_outputs(wl, measure(wl, 0, cycles=untraced["cycles"]))
    all_spans, imports, out_bytes, bookkeeping = [], [], 0, 0.0
    for record in wl.child_records:
        offset = len(all_spans)
        for s in record["spans"]:
            s[spans.PARENT] += offset if s[spans.PARENT] >= 0 else 0
            all_spans.append(s)
        imports.append(record["import_s"])
        out_bytes += record["stdout_bytes"]
        bookkeeping += record["bookkeeping_s"]
    layer = spans.layer_metrics(all_spans)
    layer["cli.import_s"] = sorted(imports)[len(imports) // 2] if imports else 0.0
    layer["cli.stdout_bytes"] = out_bytes
    return _trace_summary(untraced, traced, layer, len(all_spans), bookkeeping, import_s=sum(imports))


def _trace_summary(untraced, traced, layer, n_spans, bookkeeping_s, import_s) -> dict:
    """Overhead and coverage of the traced run next to the per-layer metrics.

    coverage = (sum of layer self times + child import time) / (traced job
    time - counter bookkeeping): how much of the traced job time the
    spans explain.  Totals are reported per cycle of the workload.
    """
    import spans

    job_traced = sum(traced["latencies_s"])
    job_untraced = sum(untraced["latencies_s"])
    self_total = sum(v for k, v in layer.items() if k.endswith(".self_s"))
    layer.update(
        {
            "trace.job_s": job_traced,
            "trace.untraced_job_s": job_untraced,
            "trace.overhead_ratio": job_traced / job_untraced - 1.0 if job_untraced else 0.0,
            "trace.bookkeeping_s": bookkeeping_s,
            "trace.coverage": (self_total + import_s) / (job_traced - bookkeeping_s)
            if job_traced > bookkeeping_s
            else 0.0,
            "trace.spans": n_spans,
        }
    )
    return {"untraced": untraced, "traced": traced, "layer": spans.per_cycle(layer, traced["cycles"])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=["setup", "run", "trace"], required=True)
    parser.add_argument("--size", choices=["full", "tiny"], default="full")
    parser.add_argument("--src", required=True, help="absolute path of the package's src directory")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    import workloads  # imports minuexp: part of set-up

    import_s = time.perf_counter() - _T0
    extra = {"workdir": os.getcwd(), "src": args.src} if args.workload == "cli" else {}
    wl = workloads.make(args.workload, args.seed, args.size, **extra)
    warm_spec = wl.cycle()[0]
    wl.summarize(warm_spec, -1, wl.run(warm_spec, -1))
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    wl.build_references(CROSS_CHECKS)
    if args.mode == "run":
        record = check_outputs(wl, measure(wl, args.seconds))
    elif args.workload == "cli":
        record = _trace_cli(wl, args.seconds)
    else:
        record = _trace_in_process(wl, args.seconds, import_s)
    record["peak_rss_mb"] = _peak_rss_mb(children=args.workload == "cli")
    record["references"] = wl.ref_report
    record["fingerprint"] = fingerprint()
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
