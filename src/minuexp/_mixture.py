"""Shared closed-form kernel of all mixture expressions.

Every density, mass function and moment of the family reduces to

    J(s, c) = E[ xi^s e^(-(c - lambda) xi) ]
            = gamma(s+1, ac) (lambda a c + c - lambda (s+1)) / (a c^(s+2))
              + lambda a^s e^(-ac) / c

with xi ~ Min-U-Exp(a, lambda), real order s > -1 and c > 0 the
exponential tilt shifted by lambda.  Count p.m.f.s and the arrival-epoch
density use integer s; the moments use c = lambda:

    raw moment          E(xi^k)      = J(k, lambda)
    factorial moment    E(N)_k       = mu^k J(k, lambda)
    waiting-time moment E(tau^p)     = Gamma(p+1) J(-p, lambda)
    arrival-epoch moment E(T_n^p)    = Gamma(p+n)/Gamma(n) J(-p, lambda)

Write z = ac, theta = lambda a and q = lambda a c + c - lambda (s+1), so
that a q = theta (z - s - 1) + z.  Each element takes one of four routes,
chosen by its own (s, z) and the call's theta:

* Route A, z < s + 1, any real s.  Substituting x = a u in the defining
  integral and expanding e^(z (1-u)) gives Kummer's transformation
  (A&S 13.1.27, DLMF 13.2.39): with b = s + 2,

      J = a^s e^(-z) / (s+1) * sum_k z^k / (b)_k [1 + theta (k+1)/(b+k)]
        = a^s e^(-z) / (s+1) * (P0(z) + theta P1(z)),
      P0 = sum_k c0_k z^k,  c0_k = 1/(b)_k,
      P1 = sum_k c1_k z^k,  c1_k = (k+1)/(b)_(k+1),

  so log J = s log a - log(s+1) - z + log(P0 + theta P1), a sum of
  positive terms.  This is the region where q can be negative and the
  two terms of the closed form cancel.  Where theta > 1 the sum is taken
  over theta and log theta is added, so that it does not overflow at any
  finite theta: every ratio z/(b+k) is below 1 here and c1_k <= c0_k, so
  P0 and P1 are both below b/(b-z) < b.  Integer orders up to 127 sum it
  by Horner over their tables; other orders by the series engine of
  minuexp.gamma_kernel, whose terms are P0's, the incomplete gamma's
  ascending series at order s + 1, with weights 1 + theta (k+1)/(b+k).
  The engine's passes are most at z just below s + 1 and grow like
  sqrt(s) there (106 at s = 127, 272 at s = 1000, 819 at s = 10^4 at
  theta = 1).  Elements not absorbed at its cap of 10 000 passes take
  route C: they lie at orders above about 1.6e6, with z within 0.09 % of
  s + 1 at s = 2e6 and 0.35 % at the largest orders.  Route C's error
  there was about 3e-15 of log J at s = 2e6 and 1e7.
* Route B, z >= s + 1 and integer s <= 127.  The finite Poisson
  sum (DLMF 8.4.10), gamma(s+1, z) = s! (1 - e^E S) with

      E = s log z - z - lgamma(s+1),  S = sum_(j<=s) s!/(s-j)! z^-j,

  turns the closed form into one positive product: with
  g = q / c = theta (z - s - 1)/z + 1 >= 1,

      J = s! g / (a c^(s+1)) * (1 + e^E (theta/g - S)),
      log J = lgamma(s+1) - log a - (s+1) log c + log g
              + log1p(e^E (theta/g - S)).

  The powers are taken of a and c, not of z = ac: s log a - (s+1) log z
  would cancel to -log a - (s+1) log c and keep the rounding of both
  large terms, which left the count p.m.f. at (a, lambda) = (110, 0.04)
  and n = 28 4.1e-14 off the oracle, against 1.3e-14 this way.

  e^E S is the Poisson(z) probability of at most s, below 1/2 since
  z >= s + 1, so the log1p argument is above -1/2 and does not cancel;
  e^E <= 1/e and theta/g <= theta, so nothing overflows.  S is summed by
  Horner in 1/z.  Where E < -700, e^E is taken as exactly 0: exp runs on
  max(E, -700), never on the subnormal results it is slow on, and those
  elements are zeroed after.  There z > s + 695, so theta/g and S are
  both below 1.2 and the dropped term is under 1e-303.  lgamma is the
  exact sum (math.fsum) of the rounded logs of 2..s, built with the
  route-B tables.
* The limit of route B, where z = ac overflows at finite c, any order:
  as z -> inf, g -> theta + 1 and e^E -> 0, so

      log J = lgamma(s+1) - log a - (s+1) log c + log(theta + 1),

  with lgamma(s+1) from the route-B tables at integer s <= 127 and
  math.lgamma otherwise.
* Route C: z >= s + 1 at real orders and orders above 127, route A's
  elements left at the engine's cap, and every element where theta = inf.
  The incomplete gamma of minuexp.gamma_kernel at (s + 1, z) and the
  sign-tracked combine of the two terms, with log|q| = log c + log|g|
  and route B's g, so that lambda a c is never formed: with
  l1 = log|t1|, l2 = log t2 and m = max(l1, l2),

      log J = m + log(max(sign(g) e^(l1-m) + e^(l2-m), 0))

  Where z >= s + 1, g >= 1 and both terms are positive; only the cap band
  holds negative g.  At g = 0 the t1 term drops out exactly.  Where
  rounding leaves the sum non-positive, the clamp gives log J = -inf
  (J = 0), never NaN.  There is no branch on the sign of g.  In the cap
  band the regularized incomplete gamma is 1e-21 or more up to s = 1e7,
  but it underflows from orders of about 1e8 on, where those elements are
  NaN with a RuntimeWarning.

Table lengths.  Both sums run over coefficient tables whose length
depends on the order alone.  Route A keeps K(s) terms: the fewest after
which the tails of both P0 and P1 are below 2^-54 of their sums at
z = s + 1.  The relative tail of a positive series grows with z, so that
bound holds on all of route A.  The ratio of consecutive terms, z/(b+k)
in P0 and z (k+2)/((k+1)(b+k+1)) in P1, falls with k, so from term k on
each tail is at most term k / (1 - ratio at k) once that ratio is below
1; K(s) is the first k where both bounds are below 2^-54 of the terms
before.  It is 18 at s = 0, 51 at s = 20 and 110 at s = 127, and grows
with s (tests/test_mixture_kernel.py re-derives these against exact
tails).  The coefficients are 1/(b)_k and (k+1)/(b)_(k+1) from a float
running product.  Route B keeps the s + 1 coefficients s!/(s-j)!, exact
integer products each rounded once.

Caches.  Every table is built on first use, never at import, and each
cache is bounded:

* _integer_tables, keyed by route: the tables of the 128 integer orders
  of that route, built in one go (about 2 ms), 225 kB for route A and
  131 kB for route B;
* _table, keyed by (route, order), at most 256 orders: an integer order's
  column of the above;
* _rows, keyed by (route, order), at most 256 orders: the same
  coefficients as lists of Python floats for the scalar path, about
  32 bytes each, so at most 7 kB per route-A order and 4 kB per route-B
  order; the 256 integer orders take about 1 MB (680 kB of route A and
  300 kB of route B, by tracemalloc).

count_pmf keeps one more, its array of log n! (minuexp.counting): it
grows to the largest count asked for, and stops at 2^14 entries (128 kB).

The bits do not depend on the call's shape.  Only where s and c are both
arrays are they broadcast against each other and flattened; a single
order or a single tilt stays a float.  z = ac and z < s + 1 are formed
once per call.  A route that takes every element runs on the inputs as
they are.  Otherwise each route takes its elements by index, and only
the arguments it reads (the tables of route A never read c), and its
results are put back by index.  Each Horner pass is one multiply and one
add, highest coefficient first:

* a scalar order over an array of c (as erlang_pdf calls it) runs its own
  table, the coefficients d_k formed once as floats;
* an array of orders (as count_pmf and mean_xi_given_count call it) runs
  every element over the largest table length its orders need, with one
  column of coefficients per order, a column shorter than the longest
  starting with zeros.  0 z + 0 = 0 exactly, so each element's sum starts
  on its own top coefficient, as its own table's does.  Memory goes with
  orders times table length, not elements times length: with one c the
  sums run over the columns, which the elements then take, and otherwise
  each pass takes its coefficients by each element's column;
* the series engine gives each element the bits of its own sum, whatever
  the call's shape (see minuexp.gamma_kernel);
* a call with 0-d s and c takes a scalar path on Python floats, whose
  + - * / are the IEEE operations numpy applies to each array element.
  Routes A, B and C run the same passes and operations there, route A's
  d_k formed inside its Horner loop from the order's cached rows, never as
  a numpy operation: each of those on a 0-d array or a short row costs a
  microsecond or more.  Their exp, log and log1p are np.exp, np.log and
  np.log1p applied to floats, never math's: those can differ from
  numpy's in the last bit (math.exp did at s = 1), and the scalar path
  must give the bits of the same point inside an array.  The series
  engine and the limit run their array functions on floats.

The module also holds B(x) = x - 1 + e^(-x), A(x) = x - 2 + (x + 2) e^(-x)
and C(x) = 1 - (1 + x) e^(-x) without cancellation (_stable_B, _stable_A,
_stable_C): the moment ratio of the estimators is 2x A(x) / B(x)^2, the
waiting-time c.d.f. is (t/c) B(ac)/(ac) and its density
(lambda B(ac) + t C(ac)) / (ac c^2).  Below x = 1, B and A are their
alternating Taylor series summed by the same Horner passes over the
_TAYLOR_TERMS = 21 coefficients x < 1 needs.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import TYPE_CHECKING

import numpy as np

from .gamma_kernel import _ABSORBED, _ascending, _log_lower_incomplete_gamma, _weights

if TYPE_CHECKING:
    from .structure import MinUExpParams

__all__ = ["log_mixing_kernel", "mixing_kernel"]

# Integer orders up to this take the kernel's tables (routes A and B).
_OWN_MAX_ORDER = 127
# Route-A tables are sized over this many terms and keep K(s) of them, at
# most K(127) = _KUMMER_WIDTH; tests/test_mixture_kernel.py re-derives both.
_KUMMER_SPAN = 128
_KUMMER_WIDTH = 110
# Route-B tables keep s + 1 coefficients, at most this many.
_POISSON_WIDTH = _OWN_MAX_ORDER + 1
# Below this, e^E is under 1e-304 and route B takes it as exactly 0.
_EXP_FLOOR = -700.0

_SERIES_CUTOFF = 1.0
# Alternating Taylor coefficients of B(x) and A(x) summed below the cutoff;
# tests/test_mixture_kernel.py re-derives the count.
_TAYLOR_TERMS = 21

_S_DOMAIN = "order s must be a finite real greater than -1"
_C_DOMAIN = "tilt argument c must be positive and finite"


def _is_scalar(value) -> bool:
    """A number or a 0-d array (cheaper than np.ndim, which converts floats)."""
    return isinstance(value, (int, float, np.number)) or (
        isinstance(value, np.ndarray) and value.ndim == 0
    )


# --------------------------------------------------------------------------
# coefficient tables of the integer orders 0..127, cached


def _kummer_tables(orders: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Route-A tables of the given orders, stacked along a last axis: rows
    c0_k = 1/(b)_k and c1_k = (k+1)/(b)_(k+1), b = s + 2, for k < K(s),
    highest k first and left-padded with zeros to _KUMMER_WIDTH rows; the
    counts K(s), as the module docstring's table lengths define them; and
    log(s + 1).
    """
    b = orders[:, None] + 2.0
    k = np.arange(_KUMMER_SPAN, dtype=float)
    rising = np.cumprod(np.concatenate([np.ones_like(b), b + k], axis=1), axis=1)
    coef = np.stack([1.0 / rising[:, :-1], (k + 1.0) / rising[:, 1:]])
    # both series at z = s + 1, where their relative tails are largest
    ratio = (b - 1.0) / (b + k)
    first = np.cumprod(np.concatenate([np.ones_like(b), ratio[:, :-1]], axis=1), axis=1)
    terms = np.stack([first, first * (k + 1.0) / (b + k)])
    ratios = np.stack([ratio, ratio * (k + 2.0) / (k + 1.0) * (b + k) / (b + k + 1.0)])
    with np.errstate(divide="ignore"):
        tails = np.where(ratios < 1.0, terms / (1.0 - ratios), np.inf)
    heads = np.cumsum(terms, axis=-1) - terms
    counts = np.argmax((tails < _ABSORBED * heads).all(axis=0), axis=-1)
    coef[:, k >= counts[:, None]] = 0.0
    table = np.moveaxis(coef[:, :, _KUMMER_WIDTH - 1 :: -1], 1, -1)
    return np.ascontiguousarray(table), counts, np.log(orders + 1.0)


def _poisson_tables(orders: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Route-B tables of the given integer orders, stacked along a last axis:
    e_j = s!/(s-j)! for j <= s, exact integer products each rounded once,
    highest j first and left-padded with zeros to _POISSON_WIDTH rows; the
    counts s + 1; and lgamma(s + 1) = log s!.

    log s! is the exact sum (math.fsum) of the rounded logs of 2..s: the
    correctly rounded value at 125 of the 128 orders, where math.lgamma
    misses at 58 of them, by up to 3.2 ulps (log 2 at s = 2).
    """
    table = np.zeros((_POISSON_WIDTH, orders.size))
    lgamma = np.zeros(orders.size)
    logs = [math.log(j) for j in range(2, _POISSON_WIDTH)]
    for i, order in enumerate(orders.astype(int).tolist()):
        products = itertools.accumulate(range(order, 0, -1), operator.mul, initial=1)
        table[_POISSON_WIDTH - order - 1 :, i] = np.array(list(products), dtype=float)[::-1]
        lgamma[i] = math.fsum(logs[: max(order - 1, 0)])
    return table, orders.astype(int) + 1, lgamma


@functools.lru_cache(maxsize=2)
def _integer_tables(builder):
    """builder's tables of the integer orders 0.._OWN_MAX_ORDER, built on
    first use, one column per order."""
    return builder(np.arange(_OWN_MAX_ORDER + 1.0))


@functools.lru_cache(maxsize=2 * _POISSON_WIDTH)
def _table(builder, s: float) -> tuple[np.ndarray, int, float]:
    """builder's table of one integer order (its column of the integer
    orders' tables), its count and its constant."""
    table, counts, consts = _integer_tables(builder)
    column = int(s)
    return table[..., column], int(counts[column]), float(consts[column])


@functools.lru_cache(maxsize=2 * _POISSON_WIDTH)
def _rows(builder, s: float) -> tuple[list, float]:
    """_table's coefficients of one order as Python floats, trimmed to its
    count, and its constant: what the scalar path sums over."""
    table, count, const = _table(builder, s)
    return table[..., table.shape[-1] - count :].tolist(), const


def _tables(builder, s):
    """The coefficients, the constant and the column index of integer order
    s, or of each element of an array of them.

    A scalar order gets its own table, its constant and None.  An array of
    orders gets the tables of all integer orders, stacked with one column
    per order, the constants of its elements and each element's column.
    The rows are trimmed to the longest table the orders need.
    """
    if isinstance(s, float):
        table, count, const = _table(builder, s)
        return table[..., table.shape[-1] - count :], const, None
    table, counts, consts = _integer_tables(builder)
    which = s.astype(np.intp)
    count = int(counts.take(which).max())
    return table[..., table.shape[-2] - count :, :], consts.take(which), which


def _log_factorial(s: float) -> float:
    """lgamma(s + 1): route B's table at integer s <= 127, math.lgamma
    otherwise, inf where that overflows."""
    if s <= _OWN_MAX_ORDER and s.is_integer():
        return _table(_poisson_tables, s)[2]
    try:
        return math.lgamma(s + 1.0)
    except OverflowError:
        return math.inf


# --------------------------------------------------------------------------
# Horner sums


def _horner(coef: np.ndarray, x, which) -> np.ndarray:
    """sum_k coef[k] x^(n-1-k) over the n rows of coef, by Horner.

    coef is one row of coefficients (which is None), or has one column per
    order, each element taking the column which gives it.  A column shorter
    than the longest starts with zeros, and 0 x + 0 = 0 exactly, so its
    elements start on their own top coefficient, as its own row does.  With
    one x for all elements, the sums run over the columns, which the
    elements then take.
    """
    if which is None:
        values = coef.tolist()
        if len(values) == 1:
            return np.full(x.shape, values[0])
        # x c_0, the first pass's product, without filling an array with c_0
        acc = x * values[0]
        acc += values[1]
        for value in values[2:]:
            acc *= x
            acc += value
        return acc
    if isinstance(x, float):
        acc = coef[0].copy()
        for row in coef[1:]:
            acc *= x
            acc += row
        return acc.take(which)
    acc = coef[0].take(which)
    step = np.empty(x.shape)
    for row in coef[1:]:
        acc *= x
        acc += row.take(which, out=step)
    return acc


# --------------------------------------------------------------------------
# the routes


def _log_kummer(log_a: float, theta: float, s, z) -> np.ndarray:
    """Route A on the tables, z < s + 1 at integer s <= 127:
    log J = s log a - log(s+1) - z + log sum, the sum by Horner over
    d_k = c0_k + theta c1_k where theta <= 1, and c0_k / theta + c1_k, the
    sum over theta, otherwise."""
    table, log_s1, which = _tables(_kummer_tables, s)
    if theta <= 1.0:
        coef, log_out = table[0] + theta * table[1], 0.0
    else:
        coef, log_out = table[0] / theta + table[1], math.log(theta)
    return s * log_a - log_s1 + log_out - z + np.log(_horner(coef, z, which))


def _log_kummer_one(log_a: float, theta: float, s: float, z: float) -> float:
    """_log_kummer at one element, on Python floats: each d_k is formed
    inside the Horner loop, from the order's cached rows, in the
    operations numpy applies to each element."""
    (c0, c1), log_s1 = _rows(_kummer_tables, s)
    # 0 z + d_0 = d_0 exactly at the finite z of route A
    total = 0.0
    if theta <= 1.0:
        log_out = 0.0
        for u, v in zip(c0, c1):
            total = total * z + (u + theta * v)
    else:
        log_out = math.log(theta)
        for u, v in zip(c0, c1):
            total = total * z + (u / theta + v)
    return s * log_a - log_s1 + log_out - z + float(np.log(total))


def _log_kummer_series(log_a: float, theta: float, s, z):
    """Route A by the gamma kernel's series engine at gamma order s + 1, for
    real orders and orders above 127, with the same log J as _log_kummer;
    NaN where the series has not converged at its cap."""
    sums = _ascending(s + 1.0, z, theta)
    return s * log_a - np.log(s + 1.0) + _weights(theta)[2] - z + np.log(sums)


def _log_poisson(log_a: float, theta: float, s, z, c) -> np.ndarray:
    """Route B, finite z >= s + 1 and integer s <= 127: with
    E = s log z - z - lgamma(s+1), S = sum_j s!/(s-j)! z^-j and
    g = theta (z - s - 1)/z + 1 = q / c,

        log J = lgamma(s+1) - log a - (s+1) log c + log g
                + log1p(e^E (theta/g - S)).
    """
    table, lgamma, which = _tables(_poisson_tables, s)
    total = _horner(table, 1.0 / z, which)
    e = s * np.log(z) - z - lgamma
    # e^E at E >= _EXP_FLOOR, exactly 0 below it (and at a NaN E)
    tail = np.exp(np.maximum(e, _EXP_FLOOR))
    np.putmask(tail, ~(e >= _EXP_FLOOR), 0.0)
    g = theta * ((z - (s + 1.0)) / z) + 1.0
    return (
        lgamma - log_a - (s + 1.0) * np.log(c) + np.log(g) + np.log1p(tail * (theta / g - total))
    )


def _log_poisson_one(log_a: float, theta: float, s: float, z: float, c: float) -> float:
    """_log_poisson at one element, on Python floats."""
    coef, lgamma = _rows(_poisson_tables, s)
    # _horner's passes over 1/z
    x, total = 1.0 / z, coef[0]
    for value in coef[1:]:
        total = total * x + value
    e = s * float(np.log(z)) - z - lgamma
    tail = float(np.exp(e)) if e >= _EXP_FLOOR else 0.0
    g = theta * ((z - (s + 1.0)) / z) + 1.0
    log_g, log_c = float(np.log(g)), float(np.log(c))
    return lgamma - log_a - (s + 1.0) * log_c + log_g + float(np.log1p(tail * (theta / g - total)))


def _log_limit(log_a: float, theta: float, s, c):
    """Where z = ac overflows at finite c, any order: the limit z -> inf of
    route B, g = theta + 1 and e^E = 0, so
    log J = lgamma(s+1) - log a - (s+1) log c + log(theta + 1)."""
    if isinstance(s, float):
        lgamma = _log_factorial(s)
    else:
        lgamma = np.array([_log_factorial(v) for v in s.tolist()])
    return lgamma - log_a - (s + 1.0) * np.log(c) + np.log(theta + 1.0)


def _log_combine(a: float, lam: float, s, z, c):
    """Route C: the incomplete gamma and the sign-tracked combine, with
    q = c g and route B's g = theta (z - s - 1)/z + 1."""
    log_a, log_c = np.log(a), np.log(c)
    g = lam * a * ((z - (s + 1.0)) / z) + 1.0
    with np.errstate(divide="ignore"):
        log_abs_g = np.log(np.abs(g))
    log_abs_t1 = _log_lower_incomplete_gamma(s + 1.0, z) + log_abs_g - log_a - (s + 1.0) * log_c
    log_t2 = np.log(lam) + s * log_a - z - log_c

    # shifting by m keeps both exponentials in [0, 1] however far |t1|
    # exceeds t2 where g > 0
    with np.errstate(divide="ignore"):
        m = np.maximum(log_abs_t1, log_t2)
        total = np.copysign(np.exp(log_abs_t1 - m), g) + np.exp(log_t2 - m)
        return m + np.log(np.maximum(total, 0.0))


def _log_combine_one(a: float, lam: float, s: float, z: float, c: float) -> float:
    """_log_combine at one element, on Python floats."""
    log_a, log_c = float(np.log(a)), float(np.log(c))
    g = lam * a * ((z - (s + 1.0)) / z) + 1.0
    log_abs_g = float(np.log(abs(g))) if g != 0.0 else -math.inf
    log_abs_t1 = _log_lower_incomplete_gamma(s + 1.0, z) + log_abs_g - log_a - (s + 1.0) * log_c
    log_t2 = float(np.log(lam)) + s * log_a - z - log_c
    # np.maximum's choice, NaN included, without its microsecond
    m = log_abs_t1 if log_abs_t1 >= log_t2 or log_abs_t1 != log_abs_t1 else log_t2
    total = math.copysign(float(np.exp(log_abs_t1 - m)), g) + float(np.exp(log_t2 - m))
    return m + (float(np.log(total)) if not total <= 0.0 else -math.inf)


# --------------------------------------------------------------------------
# the kernel


def _as_float(value):
    """value as a float if it is one number, else as a float array."""
    if _is_scalar(value):
        return float(value)
    arr = np.asarray(value, dtype=float)
    return float(arr) if arr.ndim == 0 else arr


def _span(value) -> tuple[float, float]:
    """The least and the greatest element of a float or an array, NaN where
    it holds a NaN (min and max propagate it); (inf, -inf) if it is empty."""
    if isinstance(value, float):
        return value, value
    return float(value.min(initial=math.inf)), float(value.max(initial=-math.inf))


def _pick(value, index):
    """The elements index selects of a flat array, or all of it where index
    is None; a float stands for every element."""
    return value if index is None or isinstance(value, float) else value.take(index)


def log_mixing_kernel(params: MinUExpParams, s, c):
    """log J(s, c) for real order s > -1 and c > 0; broadcasts s against c
    (see the module docstring for its routes)."""
    a, lam = params.a, params.lam
    s, c = _as_float(s), _as_float(c)
    if isinstance(s, float) and isinstance(c, float):
        return _log_mixing_kernel_one(a, lam, s, c)
    s_low, s_high = _span(s)
    if not (s_low > -1.0 and s_high < math.inf):
        raise ValueError(_S_DOMAIN)
    c_low, c_high = _span(c)
    if not (c_low > 0.0 and c_high < math.inf):
        raise ValueError(_C_DOMAIN)
    if s_low > s_high or c_low > c_high:
        return np.empty(np.broadcast_shapes(np.shape(s), np.shape(c)))

    # flat views; only two arrays are broadcast against each other
    if isinstance(s, float):
        shape, c = c.shape, c.ravel()
    elif isinstance(c, float):
        shape, s = s.shape, s.ravel()
    else:
        shape = np.broadcast_shapes(s.shape, c.shape)
        s, c = (np.broadcast_to(v, shape).ravel() for v in (s, c))
    # a c rounds monotonically in c, so a times the largest c is the largest z
    z_high = a * c_high
    if z_high < math.inf:
        z = a * c
    else:
        with np.errstate(over="ignore"):
            z = a * c
    theta = lam * a
    if not theta < math.inf:
        return _log_combine(a, lam, s, z, c).reshape(shape)

    # route A where z < s + 1, on the tables at integer s <= 127 and by the
    # series otherwise; route B at integer s <= 127 where z >= s + 1, route
    # C at the other orders there, and the limit of route B where z = inf.
    # Each route is (its elements, the route on the elements an index
    # picks), and reads only its own arguments.
    log_a = math.log(a)
    if isinstance(s, float):
        own = s <= _OWN_MAX_ORDER and s.is_integer()
    else:
        own = s == np.floor(s)
        if s_high > _OWN_MAX_ORDER:
            own &= s <= _OWN_MAX_ORDER
        if own.all():
            own = True
        elif not own.any():
            own = False

    def tables(i):
        return _log_kummer(log_a, theta, _pick(s, i), _pick(z, i))

    def series(i):
        # route C takes the elements the series leaves at its cap
        out = _log_kummer_series(log_a, theta, _pick(s, i), _pick(z, i))
        stuck = np.flatnonzero(np.isnan(out))
        if stuck.size:
            out[stuck] = combine(stuck if i is None else i.take(stuck))
        return out

    def poisson(i):
        return _log_poisson(log_a, theta, _pick(s, i), _pick(z, i), _pick(c, i))

    def combine(i):
        return _log_combine(a, lam, _pick(s, i), _pick(z, i), _pick(c, i))

    below = z < s + 1.0
    above = ~below
    routes = []
    if z_high == math.inf:
        limit = (z == math.inf) & above
        above &= ~limit
        routes.append((limit, lambda i: _log_limit(log_a, theta, _pick(s, i), _pick(c, i))))
    if isinstance(own, bool):
        routes += [(below, tables if own else series), (above, poisson if own else combine)]
    else:
        routes += [(below & own, tables), (below & ~own, series),
                   (above & own, poisson), (above & ~own, combine)]
    counts = [np.count_nonzero(mask) for mask, _ in routes]
    size = below.size
    if size in counts:
        # one route takes every element, on the inputs as they are
        out = routes[counts.index(size)][1](None)
    else:
        out = np.empty(size)
        for (mask, route), count in zip(routes, counts):
            if count:
                index = np.flatnonzero(mask)
                out[index] = route(index)
    return out.reshape(shape)


def _log_mixing_kernel_one(a: float, lam: float, s: float, c: float) -> float:
    """log_mixing_kernel at one point, in the array path's operations and
    order on Python floats (see the module docstring)."""
    if not -1.0 < s < math.inf:
        raise ValueError(_S_DOMAIN)
    if not 0.0 < c < math.inf:
        raise ValueError(_C_DOMAIN)
    z, theta = a * c, lam * a
    if theta < math.inf:
        own = s <= _OWN_MAX_ORDER and s.is_integer()
        if z < s + 1.0:
            if own:
                return _log_kummer_one(math.log(a), theta, s, z)
            value = float(_log_kummer_series(math.log(a), theta, s, z))
            if value == value:
                return value
        elif z == math.inf:
            return float(_log_limit(math.log(a), theta, s, c))
        elif own:
            return _log_poisson_one(math.log(a), theta, s, z, c)
    return _log_combine_one(a, lam, s, z, c)


def mixing_kernel(params: MinUExpParams, s, c):
    """J(s, c) itself, evaluated through the log-space path; inf past overflow."""
    with np.errstate(over="ignore"):
        return np.exp(log_mixing_kernel(params, s, c))


# --------------------------------------------------------------------------
# B, A and C without cancellation


def _taylor_rows() -> tuple[np.ndarray, np.ndarray]:
    """Ascending Taylor coefficients of B and A for j < _TAYLOR_TERMS,
    highest j first, as _horner takes them:
      B(x) = x - 1 + e^(-x)          = sum_{j>=2} (-1)^j x^j / j!
      A(x) = x - 2 + (x + 2) e^(-x)  = sum_{j>=3} (-1)^j (2 - j) x^j / j!
    """
    j = range(_TAYLOR_TERMS - 1, -1, -1)
    b = [(-1.0) ** i / math.factorial(i) if i >= 2 else 0.0 for i in j]
    a = [(-1.0) ** i * (2.0 - i) / math.factorial(i) if i >= 3 else 0.0 for i in j]
    return np.array(b), np.array(a)


_B_ROWS, _A_ROWS = _taylor_rows()


def _stable_B(x: np.ndarray) -> np.ndarray:
    """x - 1 + e^(-x) without cancellation (series below the cutoff)."""
    small = x < _SERIES_CUTOFF
    out = np.empty_like(x)
    # each branch only where it has elements: the series alone is some 40
    # numpy calls, costly even on an empty selection
    if small.any():
        out[small] = _horner(_B_ROWS, x[small], None)
    if not small.all():
        out[~small] = x[~small] + np.expm1(-x[~small])
    return out


def _stable_A(x: np.ndarray) -> np.ndarray:
    """x - 2 + (x + 2) e^(-x) without cancellation."""
    small = x < _SERIES_CUTOFF
    out = np.empty_like(x)
    if small.any():
        out[small] = _horner(_A_ROWS, x[small], None)
    if not small.all():
        xb = x[~small]
        out[~small] = xb - 2.0 + (xb + 2.0) * np.exp(-xb)
    return out


def _stable_C(x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """1 - (1 + x) e^(-x) without cancellation, given b = _stable_B(x).

    Below the cutoff it is B(x) - A(x), with A(x) < B(x)/3 there; above it,
    -expm1(-x) - x e^(-x), whose second term is at most 0.58 of the first.
    """
    small = x < _SERIES_CUTOFF
    out = np.empty_like(x)
    if small.any():
        out[small] = b[small] - _stable_A(x[small])
    if not small.all():
        xb = x[~small]
        out[~small] = -np.expm1(-xb) - xb * np.exp(-xb)
    return out
