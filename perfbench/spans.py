"""Spans around the calls into each minuexp module, and per-layer metrics.

The tracer replaces every public function of the layer modules with a
wrapper, in every module that binds it (the defining module, the modules
that imported it by name and the ``minuexp`` package), so calls are seen
where the calling module makes them.
Spans stay in memory as plain lists and are turned into metrics, or
written out, once the run ends.  A layer's self time is its span time
minus the time of its direct child spans.

Work counts (elements, draws, paths, ...) are taken from the arguments and
results at the same boundaries.  Their cost, and the cost of tracemalloc
around process calls, is kept out of the span clocks and summed in
``Tracer.bookkeeping_s``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import tracemalloc

import numpy as np

LAYERS = (
    "gamma_kernel",
    "_mixture",
    "structure",
    "counting",
    "interarrival",
    "process",
    "rng",
    "estimation",
    "oracle",
    "validation",
    "cli",
)

# Metric names may not start with "_", so the _mixture layer reports as "mixture".
_PREFIX = {layer: layer.lstrip("_") for layer in LAYERS}

# Vectorized process calls whose working memory tracemalloc measures.  The
# per-path simulators are left out: tracemalloc slows their per-arrival
# Python loops about tenfold, which would swamp the process layer's times.
_ALLOC_TRACKED = {"sample_grid_counts", "sample_arrival_times"}

# Bindings left unwrapped.  The oracle's integrand calls structure.pdf once
# per quadrature node, about a million times per fit_validate cycle: a span
# each would take about half a gigabyte and double the job time.  That time
# counts as oracle self time.
_UNWRAPPED = {("minuexp.oracle", "pdf")}

# span record fields; BOOK is counter bookkeeping done inside the span's
# interval, which self times leave out
NAME, LAYER, START, END, PARENT, JOB, ATTRS, BOOK = range(8)


def _size(value) -> int:
    return int(np.size(value)) if isinstance(value, (np.ndarray, list, tuple, int, float)) else 1


class Tracer:
    """Span recorder.  ``install`` wraps the layers; ``uninstall`` restores them."""

    def __init__(self):
        self.spans: list[list] = []
        self.job = None
        self.bookkeeping_s = 0.0
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._tracking = False

    # -- wrapping ---------------------------------------------------------

    def _counts(self, layer: str, name: str, args, kwargs, result) -> dict:
        """Work counts of one call, from its arguments and result."""
        attrs: dict = {}
        if layer == "gamma_kernel" and name in (
            "lower_incomplete_gamma",
            "upper_incomplete_gamma",
            "log_lower_incomplete_gamma",
        ):
            s, x = np.broadcast_arrays(np.asarray(args[0], float), np.asarray(args[1], float))
            attrs["elems"] = int(s.size)
            if name == "log_lower_incomplete_gamma":
                from scipy import special

                attrs["series"] = int(np.count_nonzero((special.gammainc(s, x) <= 1e-290) & (x > 0)))
        elif layer == "gamma_kernel":
            attrs["elems"] = _size(args[0]) if args else 1
        elif layer == "_mixture":
            params, n, c = args[0], np.asarray(args[1], float), np.asarray(args[2], float)
            n_b, c_b = np.broadcast_arrays(n, c)
            q = params.lam * params.a * c_b + c_b - params.lam * (n_b + 1.0)
            attrs["elems"] = int(n_b.size)
            attrs["neg_q"] = int(np.count_nonzero(q < 0.0))
        elif layer in ("structure", "interarrival"):
            if name in ("sample", "tau_sample", "interarrival_vector_sample"):
                attrs["draws"] = _size(result)
            else:
                attrs["elems"] = max((a.size for a in args[1:] if isinstance(a, np.ndarray)), default=1)
        elif layer == "counting":
            attrs["scalar"] = all(np.ndim(a) == 0 for a in args[1:])
        elif layer == "process":
            if name == "TableMu.inverse":
                attrs["points"] = _size(args[1])
            elif name == "sample_grid_counts":
                attrs.update(paths=int(result.shape[0]), arrivals=int(result[:, -1].sum()))
            elif name == "sample_arrival_times":
                attrs.update(paths=int(result.shape[0]), arrivals=int(result.size))
            elif name in ("simulate", "simulate_paths"):
                attrs.update(paths=1, arrivals=int(result.arrivals.size))
            elif name == "simulate_first_arrivals":
                attrs.update(paths=1, arrivals=int(np.size(result)))
            if name in _ALLOC_TRACKED:
                attrs["out_bytes"] = int(result.nbytes)
        elif layer == "estimation" and name in ("fit_mom", "fit_lsq"):
            attrs.update(draws=_size(args[0]), converged=bool(result.converged))
        elif layer == "oracle" and name == "mix_integral":
            attrs["evals"] = int(result.n_or_evals)
        elif layer == "validation" and name == "run_validation":
            attrs.update(rows=len(result), rows_failed=sum(not r.passed for r in result))
        return attrs

    def _pay(self, t0: float) -> None:
        """Book the time since t0 as bookkeeping of every open span."""
        paid = time.perf_counter() - t0
        self.bookkeeping_s += paid
        for index in self._stack:
            self.spans[index][BOOK] += paid

    def _run(self, layer: str, name: str, fn, args, kwargs):
        """Call fn inside a span; returns the result or re-raises."""
        track = layer == "process" and name in _ALLOC_TRACKED and not self._tracking
        if track:
            b0 = time.perf_counter()
            tracemalloc.start()
            base = tracemalloc.get_traced_memory()[0]
            self._tracking = True
            self._pay(b0)
        span = [name, layer, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.job, None, 0.0]
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        span[START] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span[ATTRS] = {"error": type(exc).__name__}
            raise
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()
            if track:
                b0 = time.perf_counter()
                peak = tracemalloc.get_traced_memory()[1] - base
                tracemalloc.stop()
                self._tracking = False
                self._pay(b0)
        b0 = time.perf_counter()
        try:
            attrs = self._counts(layer, name, args, kwargs, result)
        except (TypeError, ValueError, AttributeError, IndexError):
            attrs = {"uncounted": True}  # a call shape the counters do not know
        if track:
            attrs["peak_alloc"] = peak
        span[ATTRS] = attrs
        self._pay(b0)
        return result

    def _wrap(self, layer: str, name: str, fn):
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # each item a generator yields is one span: the work happens on next()
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    index = len(tracer.spans)
                    try:
                        item = tracer._run(layer, name, next, (gen,), {})
                    except StopIteration:
                        if len(tracer.spans) == index + 1:
                            tracer.spans.pop()  # the final next() yielded nothing
                        return
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer._run(layer, name, fn, args, kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap the public functions of every layer wherever they are bound."""
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"minuexp.{layer}")
            for name in getattr(module, "__all__", ()):
                fn = getattr(module, name, None)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = self._wrap(layer, name, fn)
        table_mu = importlib.import_module("minuexp.process").TableMu
        self._patches.append((table_mu, "inverse", table_mu.__dict__["inverse"]))
        table_mu.inverse = self._wrap("process", "TableMu.inverse", table_mu.inverse)
        modules = [m for n, m in sys.modules.items() if n == "minuexp" or n.startswith("minuexp.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and (module.__name__, attr) not in _UNWRAPPED:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()


def _net(span: list) -> float:
    return span[END] - span[START] - span[BOOK]


def _self_times(spans: list[list]) -> list[float]:
    self_s = [_net(s) for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            self_s[s[PARENT]] -= _net(s)
    return self_s


def _outermost(spans: list[list], index: int, layer: str) -> bool:
    """True when no ancestor of the span belongs to the same layer."""
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][LAYER] == layer:
            return False
        parent = spans[parent][PARENT]
    return True


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# Per-layer metrics that are not totals: they are not divided by cycles.
INTENSIVE = {
    "mixture.ns_per_elem",
    "counting.scalar_call_us",
    "structure.draws_per_s",
    "process.paths_per_s",
    "process.peak_alloc_mb",
    "process.alloc_per_output_byte",
    "rng.us_per_substream",
    "estimation.converged_ratio",
    "oracle.us_per_eval",
    "cli.import_s",
    "trace.overhead_ratio",
    "trace.coverage",
}


def per_cycle(metrics: dict[str, float], cycles: int) -> dict[str, float]:
    """Totals divided by the number of workload cycles traced, so that runs
    of different lengths compare; ratios and rates are left as they are."""
    return {k: v if k in INTENSIVE else v / cycles for k, v in metrics.items()}


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of the BENCHMARK.json ``per_layer`` list from spans.

    Totals are over all spans given.  A layer the workload does not reach
    reads 0 on every metric.
    """
    self_s = _self_times(spans)
    calls = {layer: 0 for layer in LAYERS}
    busy = {layer: 0.0 for layer in LAYERS}
    sums: dict[str, float] = {}

    def add(key, value):
        sums[key] = sums.get(key, 0.0) + value

    for i, s in enumerate(spans):
        layer, name, attrs = s[LAYER], s[NAME], s[ATTRS] or {}
        dur = _net(s)
        calls[layer] += 1
        busy[layer] += self_s[i]
        if "error" in attrs:
            add(f"{layer}.errors", 1)
        if layer == "gamma_kernel":
            add("gk.elems", attrs.get("elems", 0))
            add("gk.series", attrs.get("series", 0))
        elif layer == "_mixture":
            add("mx.elems", attrs.get("elems", 0))
            add("mx.neg_q", attrs.get("neg_q", 0))
        elif layer == "counting" and attrs.get("scalar") and _outermost(spans, i, layer):
            add("ct.scalar_calls", 1)
            add("ct.scalar_s", dur)
        elif layer in ("structure", "interarrival"):
            add(f"{layer}.elems", attrs.get("elems", 0))
            if layer == "structure" and "draws" in attrs:
                add("st.draws", attrs["draws"])
                add("st.draw_s", dur)
        elif layer == "process":
            if name == "TableMu.inverse":
                add("proc.inv_points", attrs.get("points", 0))
                add("proc.inv_s", dur)
            if "paths" in attrs and _outermost(spans, i, layer):
                add("proc.paths", attrs["paths"])
                add("proc.arrivals", attrs["arrivals"])
                add("proc.path_s", dur)
            if "peak_alloc" in attrs:
                sums["proc.peak_alloc"] = max(sums.get("proc.peak_alloc", 0.0), attrs["peak_alloc"])
                add("proc.alloc_sum", attrs["peak_alloc"])
                add("proc.out_bytes", attrs.get("out_bytes", 0))
        elif layer == "rng" and name == "substream":
            add("rng.substreams", 1)
            add("rng.substream_s", dur)
        elif layer == "estimation" and name in ("fit_mom", "fit_lsq"):
            add(f"es.{name}_s", dur)
            if _outermost(spans, i, layer):
                add("es.draws", attrs.get("draws", 0))
                add("es.fits", 1)
                add("es.converged", 1 if attrs.get("converged") else 0)
        elif layer == "oracle" and name == "mix_integral":
            add("or.evals", attrs.get("evals", 0))
            if attrs.get("error") == "OracleError":
                add("or.failures", 1)
        elif layer == "validation" and name == "run_validation":
            add("va.rows", attrs.get("rows", 0))
            add("va.rows_failed", attrs.get("rows_failed", 0))
        elif layer == "cli" and name == "main":
            add("cli.main_s", dur)

    g = sums.get
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{_PREFIX[layer]}.calls"] = calls[layer]
        out[f"{_PREFIX[layer]}.self_s"] = busy[layer]
    out.update(
        {
            "gamma_kernel.elems": g("gk.elems", 0),
            "gamma_kernel.series_elems": g("gk.series", 0),
            "mixture.elems": g("mx.elems", 0),
            "mixture.ns_per_elem": 1e9 * _ratio(busy["_mixture"], g("mx.elems", 0)),
            "mixture.neg_q_elems": g("mx.neg_q", 0),
            "counting.scalar_call_us": 1e6 * _ratio(g("ct.scalar_s", 0), g("ct.scalar_calls", 0)),
            "interarrival.elems": g("interarrival.elems", 0),
            "structure.elems": g("structure.elems", 0),
            "structure.sample_draws": g("st.draws", 0),
            "structure.draws_per_s": _ratio(g("st.draws", 0), g("st.draw_s", 0)),
            "process.paths": g("proc.paths", 0),
            "process.arrivals": g("proc.arrivals", 0),
            "process.paths_per_s": _ratio(g("proc.paths", 0), g("proc.path_s", 0)),
            "process.peak_alloc_mb": g("proc.peak_alloc", 0) / 2**20,
            "process.alloc_per_output_byte": _ratio(g("proc.alloc_sum", 0), g("proc.out_bytes", 0)),
            "process.table_inverse_points": g("proc.inv_points", 0),
            "process.table_inverse_s": g("proc.inv_s", 0),
            "rng.substreams": g("rng.substreams", 0),
            "rng.us_per_substream": 1e6 * _ratio(g("rng.substream_s", 0), g("rng.substreams", 0)),
            "estimation.fit_mom_s": g("es.fit_mom_s", 0),
            "estimation.fit_lsq_s": g("es.fit_lsq_s", 0),
            "estimation.draws_fitted": g("es.draws", 0),
            "estimation.converged_ratio": _ratio(g("es.converged", 0), g("es.fits", 0)),
            "oracle.evals": g("or.evals", 0),
            "oracle.us_per_eval": 1e6 * _ratio(busy["oracle"], g("or.evals", 0)),
            "oracle.failures": g("or.failures", 0),
            "validation.rows": g("va.rows", 0),
            "validation.rows_failed": g("va.rows_failed", 0),
            "cli.main_s": g("cli.main_s", 0),
        }
    )
    return out
