"""120-digit references for the closed forms, built outside the timed loop.

Every mixture value of the family reduces to the kernel

    J(n, c) = (1/a) integral_0^a x^n e^(-c x) (lambda a + 1 - lambda x) dx,

so that count_pmf(n) = J(n, lambda+1)/n!, erlang_pdf(n, t) =
t^(n-1) J(n, lambda+t)/(n-1)!, lst(t) = J(0, lambda+t), tau_pdf(t) =
J(1, lambda+t), tau_cdf(t) = 1 - lst(t) and mean_xi_given_count(mu, n) =
J(n+1, lambda+mu)/J(n, lambda+mu).  Two independent routes evaluate J:

* ``closed``: the incomplete-gamma identity
  J = ((lambda a + 1) gamma(n+1, a c)/c^(n+1) - lambda gamma(n+2, a c)/c^(n+2)) / a;
* ``quad``: ``mpmath.quad`` of the integrand, split around its mode (or
  the right end when the mode lies beyond a) and rescaled by its maximum,
  since quad's stopping rule is absolute and J can be as small as 1e-600.

The structure law's c.d.f., density and hazard come from the elementary
survival form S(x) = (1 - x/a) e^(-lambda x) on the closed route, and from
``mp.quad`` of the density (c.d.f.) and ``mp.diff`` of S (density) on the
quad route.  At 80 digits quad with a naive split is wrong by 2e-5 at
(1, 1), n = 60; at 120 digits with the split above the routes agree to
about 1e-120 across the benchmark's grid.

A reference is a tuple ``(kind, a, lam, *args)`` of Python floats and ints.
"""

from __future__ import annotations

import sys

import mpmath as mp

DPS = 120
# Relative agreement the two routes must reach for a reference to be trusted.
ROUTE_TOL = mp.mpf(10) ** -40


def _kernel_closed(a, lam, n, c):
    g1 = mp.gammainc(n + 1, 0, a * c)
    g2 = mp.gammainc(n + 2, 0, a * c)
    return ((lam * a + 1) * g1 / c ** (n + 1) - lam * g2 / c ** (n + 2)) / a


def _kernel_quad(a, lam, n, c):
    peak = min(mp.mpf(n) / c, a)
    log_max = n * mp.log(peak) - c * peak if n else mp.mpf(0)

    def integrand(x):
        if x <= 0:
            return (lam * a + 1) / a if n == 0 else mp.mpf(0)
        return mp.exp(n * mp.log(x) - c * x - log_max) * (lam * a + 1 - lam * x) / a

    # width of the integrand's bulk: sqrt(n)/c at an interior mode, else
    # the decay length of x^n e^(-cx) below the right end
    width = mp.sqrt(n) / c if n and peak < a else 1 / max(n / a - c, 1 / a)
    points = {mp.mpf(0), a}
    for k in (1, 4, 16, 64):
        for x in (peak - k * width, peak + k * width):
            if 0 < x < a:
                points.add(x)
    if 0 < peak < a:
        points.add(peak)
    return mp.quad(integrand, sorted(points)) * mp.exp(log_max)


def _survival(a, lam, x):
    return (1 - x / a) * mp.exp(-lam * x)


def evaluate(ref: tuple, route: str = "closed"):
    """The reference value as an mpf, by the named route."""
    kind, a, lam, *args = ref
    with mp.workdps(DPS):
        a, lam = mp.mpf(a), mp.mpf(lam)
        kernel = _kernel_closed if route == "closed" else _kernel_quad
        if kind == "count_pmf":
            (n,) = args
            return kernel(a, lam, n, lam + 1) / mp.factorial(n)
        if kind == "erlang_pdf":
            n, t = args[0], mp.mpf(args[1])
            return t ** (n - 1) * kernel(a, lam, n, lam + t) / mp.factorial(n - 1)
        if kind == "lst":
            return kernel(a, lam, 0, lam + mp.mpf(args[0]))
        if kind == "tau_pdf":
            return kernel(a, lam, 1, lam + mp.mpf(args[0]))
        if kind == "tau_cdf":
            return 1 - kernel(a, lam, 0, lam + mp.mpf(args[0]))
        if kind == "mean_xi_given_count":
            mu, n = mp.mpf(args[0]), args[1]
            return kernel(a, lam, n + 1, lam + mu) / kernel(a, lam, n, lam + mu)
        if kind in ("cdf", "pdf", "hazard"):
            x = mp.mpf(args[0])
            if route == "closed":
                pdf = (mp.exp(-lam * x) / a) * (lam * a + 1 - lam * x)
                cdf = 1 - _survival(a, lam, x)
            else:
                pdf = -mp.diff(lambda u: _survival(a, lam, u), x)
                cdf = mp.quad(lambda u: (mp.exp(-lam * u) / a) * (lam * a + 1 - lam * u), [0, x])
            return {"cdf": cdf, "pdf": pdf, "hazard": pdf / (1 - cdf)}[kind]
        raise ValueError(f"unknown reference kind {kind!r}")


def as_double(value) -> float | None:
    """The reference as a float when it is a normal double, else None."""
    x = float(value)
    return x if sys.float_info.min <= abs(x) <= sys.float_info.max else None


def build(refs, cross_check, rng) -> tuple[dict, dict]:
    """Closed-route values of every reference, plus a quad cross-check.

    ``cross_check`` references, drawn by ``rng`` among those that are normal
    doubles, are evaluated again by the quad route (about 0.2 s each).
    Returns (values, report) where values maps each reference to its float
    (None where it is not a normal double).
    """
    exact = {ref: evaluate(ref) for ref in dict.fromkeys(refs)}
    values = {ref: as_double(v) for ref, v in exact.items()}
    usable = [ref for ref, v in values.items() if v is not None]
    picks = [usable[i] for i in rng.choice(len(usable), min(cross_check, len(usable)), replace=False)]
    mismatches = []
    for ref in picks:
        other = evaluate(ref, "quad")
        with mp.workdps(DPS):
            gap = abs(other / exact[ref] - 1)
        if gap > ROUTE_TOL:
            mismatches.append({"ref": list(ref), "rel_gap": float(gap)})
    report = {
        "references": len(values),
        "normal_doubles": len(usable),
        "cross_checked": len(picks),
        "route_mismatches": mismatches,
    }
    return values, report
