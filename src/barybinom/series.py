"""Truncated formal Laurent series over exact big integers.

A series is expanded either at zero or at infinity.  In both cases the
coefficients are stored in one ascending direction, so a single
convolution kernel serves both points:

* AtZero: ``coeffs[i]`` is the coefficient of x^(lead_exponent + i);
* AtInfinity: ``coeffs[i]`` is the coefficient of x^-(lead_exponent + i),
  i.e. the series is read in ascending powers of u = 1/x.

``lead_exponent`` is a true support bound: every exponent before it is
exactly zero, every stored position is exact, and everything past the
retained window is unknown.  Asking for an unknown coefficient is an
error, never a silent zero.

_shift_subtract is the one builder of [x^r] 1/f_|n|(x) for n < 0: the
production kernel behind gf_expand and bary.shift_subtract_table.  It
splits the product by digits, 1/f_m(x) = (1 + x)^-m_0 * (1/f_{m div b})(x^b),
so only the lowest digit's divisions run over the full length and each
is one itertools.accumulate.
expand_cost counts gf_expand's steps for the step meter (digits.Meter).
series_inverse is generic series division; of the coefficient routes
only the series oracle (bary.series_table) runs it, inverting
gf_expand(|n|).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from operator import add, neg

from .digits import MAX_TERMS, to_digits


class ExpansionPoint(Enum):
    AT_ZERO = "zero"
    AT_INFINITY = "infinity"


class TruncationError(ValueError):
    """Requested coefficient lies past the retained truncation window."""


@dataclass(frozen=True)
class LaurentSeries:
    point: ExpansionPoint
    lead_exponent: int
    coeffs: tuple[int, ...]

    @property
    def order(self) -> int:
        """Number of retained terms."""
        return len(self.coeffs)

    def terms(self):
        """Yield (exponent of x, coefficient) in stored order.

        AtZero yields ascending exponents, AtInfinity descending ones.
        """
        for i, c in enumerate(self.coeffs):
            if self.point is ExpansionPoint.AT_ZERO:
                yield self.lead_exponent + i, c
            else:
                yield -(self.lead_exponent + i), c


def one(point: ExpansionPoint, order: int) -> LaurentSeries:
    """The constant-one series at the given point and order."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    return LaurentSeries(point, 0, (1,) + (0,) * (order - 1))


def series_mul(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    """Truncated product; lead exponents add, order = min of the orders."""
    if a.point is not b.point:
        raise ValueError("cannot multiply series at different expansion points")
    n = min(a.order, b.order)
    # iterate the sparser operand on the outside
    nz_a = [(i, v) for i, v in enumerate(a.coeffs[:n]) if v]
    nz_b = [(i, v) for i, v in enumerate(b.coeffs[:n]) if v]
    if len(nz_b) < len(nz_a):
        nz_a, dense = nz_b, a.coeffs
    else:
        dense = b.coeffs
    out = [0] * n
    for i, v in nz_a:
        lim = n - i
        for j in range(lim):
            w = dense[j]
            if w:
                out[i + j] += v * w
    return LaurentSeries(a.point, a.lead_exponent + b.lead_exponent, tuple(out))


def series_inverse(a: LaurentSeries) -> LaurentSeries:
    """Multiplicative inverse up to the same order; lead exponent negates.

    Requires a unit leading coefficient (+1 or -1): those are the only
    invertible leading terms over the integers.
    """
    if not a.coeffs or a.coeffs[0] not in (1, -1):
        raise ValueError("series inversion requires leading coefficient +1 or -1")
    c0 = a.coeffs[0]
    n = a.order
    nz = [(i, v) for i, v in enumerate(a.coeffs) if v and i > 0]
    inv = [0] * n
    inv[0] = c0  # 1/c0 = c0 for c0 = +-1
    for j in range(1, n):
        s = 0
        for i, v in nz:
            if i > j:
                break
            s += v * inv[j - i]
        if s:
            inv[j] = -c0 * s
    return LaurentSeries(a.point, -a.lead_exponent, tuple(inv))


def series_pow(a: LaurentSeries, e: int) -> LaurentSeries:
    """a**e by square-and-multiply; negative e inverts first a**|e|."""
    if e == 0:
        return one(a.point, a.order)
    if e < 0:
        return series_inverse(series_pow(a, -e))
    result = None
    base = a
    while e:
        if e & 1:
            result = base if result is None else series_mul(result, base)
        e >>= 1
        if e:
            base = series_mul(base, base)
    return result


def gf_expand(n: int, b: int, point: ExpansionPoint, order: int) -> LaurentSeries:
    """Expand f(x) = prod over digit positions l of (1 + x^(b^l))^(n_l).

    n_l are the sign-consistent digits of n, so they all share n's sign.
    For n >= 0 the polynomial f_n is built by one shift-add pass
    c[r] += c[r - b^l] (every r at once, from the previous values) per
    unit of each digit, over min(order, n + 1) entries: f_n has degree
    n, so the rest of the window is exact zeros.  For n < 0 the kernel
    _shift_subtract builds 1/f_|n| by digit recursion instead: the table
    of |n| div b at ceil(order / b) terms, spread to every b-th entry and
    divided by (1 + x) once per unit of the lowest digit, each division
    one running sum, so digit l costs (|n_l| + 1) * ceil(order / b^l)
    C-level steps.  A factor with b^l >= order leaves the retained terms
    unchanged.  At infinity f_|n| = x^|n| * prod (1 + u^(b^l))^|n_l|
    with u = 1/x, and f_|n| is palindromic, so the same coefficients are
    stored from lead -n: -|n| for n >= 0, and |n| (coefficient +1 at
    x^-|n|) for n < 0.
    """
    _check_expansion(b, order)
    lead = 0 if point is ExpansionPoint.AT_ZERO else -n
    if n < 0:
        return LaurentSeries(point, lead, _shift_subtract(n, b, order))
    size = min(order, n + 1)
    c = [0] * size
    c[0] = 1
    step = 1
    for d in to_digits(n, b):
        if step >= size:
            break
        for _ in range(d):
            c[step:] = map(add, c[step:], c)
        step *= b
    return LaurentSeries(point, lead, tuple(c) + (0,) * (order - size))


def _shift_subtract(n: int, base: int, size: int) -> tuple[int, ...]:
    # 1/f_m(x) = (1 + x)^-d_0 * (1/f_{m div b})(x^b), m = |n|: the table
    # of m div b at ceil(size / b) terms, spread to every b-th entry, then
    # divided by (1 + x) d_0 times.  Tables are kept as e[r] = (-1)^r c[r],
    # so each division c[r] -= c[r - 1] is a running sum of e.  Spreading
    # keeps the sign at odd bases; at even ones every spread entry sits at
    # an even r, so the small table's c is spread.  Levels whose step
    # b^l >= size leave every kept entry unchanged.
    m, levels = -n, []
    while m and size > 1:
        m, d = divmod(m, base)
        levels.append((d, size))
        size = (size - 1) // base + 1
    e = [1] + [0] * (size - 1)
    for d, size in reversed(levels):
        if base % 2 == 0:
            e[1::2] = map(neg, e[1::2])
        t, e = e, [0] * size
        e[::base] = t
        for _ in range(d):
            e = list(accumulate(e))
    e[1::2] = map(neg, e[1::2])
    return tuple(e)


def _check_expansion(b: int, order: int) -> None:
    if b < 2:
        raise ValueError(f"base must be >= 2, got {b}")
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if order > MAX_TERMS:
        raise ValueError(f"order {order} exceeds the limit of {MAX_TERMS} terms")


def expand_cost(n: int, b: int, order: int) -> int:
    """Steps of gf_expand(n, b, point, order), refusing what it refuses: the
    kernel's sum_l (|n_l| + 1) * ceil(order / b^l) for n < 0, a pass over
    min(order, n + 1) per unit of each digit for n >= 0, and one over order."""
    _check_expansion(b, order)
    m, steps, step = abs(n), order, 1
    size = order if n < 0 else min(order, n + 1)
    while m and step < size:
        m, d = divmod(m, b)
        steps += (d + 1) * -(-size // step) if n < 0 else d * size
        step *= b
    return steps


def coefficient(s: LaurentSeries, e: int) -> int:
    """The coefficient of x^e in s.

    Exponents on the zero side of the lead are exactly zero and are
    returned as such; exponents past the truncation window raise
    TruncationError so an insufficient order can never masquerade as 0.
    """
    if s.point is ExpansionPoint.AT_ZERO:
        idx = e - s.lead_exponent
    else:
        idx = -e - s.lead_exponent
    if idx < 0:
        return 0
    if idx >= s.order:
        raise TruncationError(
            f"coefficient of x^{e} lies outside the retained window "
            f"(point={s.point.value}, lead={s.lead_exponent}, order={s.order})"
        )
    return s.coeffs[idx]
