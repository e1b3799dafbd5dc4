"""Sign-consistent base-b digit expansions.

A negative integer is expanded so that every digit is nonpositive: the
digit tuple of -n is the elementwise negation of the digit tuple of n.
All digit-wise formulas in this package rely on that convention.
Digits are plain tuples, least-significant first.  digit_sum_table
gives S_b(j) for a whole range of j, built one digit level at a time.
Beside MAX_TERMS, the bound on memory, sits the step meter, on time,
with product_cost, its one rule for a big-integer product.  Beside that
sits the one packed-polynomial format the partition oracle and the chu
sweeps multiply in (Kronecker substitution): pack and unpack, with
slot_width and pack_cost.
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import repeat
from math import isqrt
from operator import add
from typing import Iterator, Sequence

# The most terms one truncated expansion, one value table or one padded
# digit tuple may need.  A request past it raises ValueError before
# anything is allocated, where it would otherwise end in MemoryError.  A
# multiple of 64, so bucketed sizes never round past it.
MAX_TERMS = 10**6

# The steps one metered request may take.  A step is about 0.1 us: one
# entry of a C-level pass or an interpreted loop, more for big integers.
# Each builder charges the open meter, if any, before it runs, from its
# request alone (cache hits included), so the refusal point depends only
# on the request; with no meter open it pays one None check.
WORK_BUDGET = 10 * MAX_TERMS

meter: Meter | None = None  # the open one, set by metered


class Meter:
    """Steps spent against a budget; charge raises ValueError past it."""

    def __init__(self, budget: int, what: str):
        self.budget, self.what, self.spent = budget, what, 0

    def charge(self, steps: int) -> None:
        self.spent += steps
        if self.spent > self.budget:
            raise ValueError(f"{self.what} takes more than {self.budget} steps")


def charge(steps: int) -> None:
    """Charge the open meter, if any, steps steps."""
    if meter is not None:
        meter.charge(steps)


def product_cost(a_bits: int, b_bits: int) -> int:
    """Steps one product of integers of a_bits and b_bits bits takes:
    (bits / 100) ** 1.5 at equal sizes, in proportion to the longer at
    unequal ones (timed up to 10**6 bits)."""
    low, high = sorted((a_bits, b_bits))
    return (1 + high // 100) * isqrt(1 + low // 100)


def slot_width(bound: int) -> int:
    """A packed slot's width: the least multiple of 8 bits holding +-bound."""
    return (bound.bit_length() + 8) // 8 * 8


def pack(c: Sequence[int], w: int, stride: int = 1) -> int:
    """The polynomial with c[i] at x^(i * stride), at x = 2**w: each slot
    is w // 8 little-endian bytes biased by 2**(w-1), so packing is
    linear in the slots.  While every coefficient fits a signed slot, the
    product of two packed lists is their packed product, and two agree in
    slots 0..size-1 exactly when they agree modulo 2**(w*size)."""
    half, width = 1 << (w - 1), w // 8
    gap = bytes(width * (stride - 1))
    data = gap.join([(x + half).to_bytes(width, "little") for x in c])
    bias = gap.join([half.to_bytes(width, "little")] * len(c))  # half in every slot
    return int.from_bytes(data, "little") - int.from_bytes(bias, "little")


def unpack(packed: int, w: int, size: int) -> list[int]:
    """Coefficients 0..size-1 of the polynomial packed at slot width w;
    exact while each fits a signed slot, whatever the slots past them."""
    half, width = 1 << (w - 1), w // 8
    bias = int.from_bytes(half.to_bytes(width, "little") * size, "little")
    data = ((packed + bias) & ((1 << w * size) - 1)).to_bytes(width * size, "little")
    return [int.from_bytes(data[i : i + width], "little") - half for i in range(0, len(data), width)]


def pack_cost(slots: int, w: int) -> int:
    """Steps to pack or unpack slots slots of w bits (timed to 8,000 bits)."""
    return slots * (2 + w // 128)


@contextmanager
def metered(budget: int, what: str) -> Iterator[Meter]:
    """A Meter of budget steps, open for the block."""
    global meter
    outer, meter = meter, Meter(budget, what)
    try:
        yield meter
    finally:
        meter = outer


def to_digits(n: int, b: int, min_len: int = 0) -> tuple[int, ...]:
    """The sign-consistent digits of n in base b, least-significant first.

    The expansion of 0 is the single digit 0.  ``min_len`` zero-pads on
    the most-significant side; it never truncates, and past MAX_TERMS it
    is refused before padding.
    """
    if b < 2:
        raise ValueError(f"base must be >= 2, got {b}")
    if not 0 <= min_len <= MAX_TERMS:
        raise ValueError(f"min_len must be in [0, {MAX_TERMS}], got {min_len}")
    m = abs(n)
    digits = []
    while m:
        m, r = divmod(m, b)
        digits.append(r)
    if not digits:
        digits.append(0)
    if n < 0:
        digits = [-d for d in digits]
    while len(digits) < min_len:
        digits.append(0)
    return tuple(digits)


def pair_length(n: int, k: int, b: int) -> int:
    """Shared padding length N = max(digit count of |n|, digit count of |k|).

    The digit count of 0 is 1, so N >= 1 always.
    """
    return max(len(to_digits(n, b)), len(to_digits(k, b)))


def digit_sum(n: int, b: int) -> int:
    """S_b(n), the sum of the sign-consistent digits; S_b(-n) = -S_b(n)."""
    if b < 2:
        raise ValueError(f"base must be >= 2, got {b}")
    m, s = abs(n), 0
    while m:
        m, r = divmod(m, b)
        s += r
    return -s if n < 0 else s


def digit_sum_table(top: int, b: int) -> list[int]:
    """[S_b(j) for j in range(top + 1)], for 0 <= top < MAX_TERMS.

    Built one digit level at a time from the top down: the top level is
    the top digit of j, and entry b*i + d of each lower level is entry i
    of the level above plus d, written for each d by one strided
    assignment.  A level builds at most top // b**l + b entries and
    keeps top // b**l + 1, so a base past top costs nothing.
    """
    if b < 2:
        raise ValueError(f"base must be >= 2, got {b}")
    if not 0 <= top < MAX_TERMS:
        raise ValueError(f"top must be in [0, {MAX_TERMS}), got {top}")
    levels = len(to_digits(top, b))
    step = b ** (levels - 1)
    # level l writes top // b**l + 1 entries in b slices
    charge(top // step + 1 + sum(top // b**l + 1 + b for l in range(levels - 1)))
    t = list(range(top // step + 1))
    while step > 1:
        step //= b
        new = [0] * (len(t) * b)
        for d in range(b):
            new[d::b] = map(add, t, repeat(d))
        del new[top // step + 1 :]
        t = new
    return t
