"""The b-ary binomial coefficient binom(n, k)_b for all integer n, k.

Auto dispatch uses the digit product for n >= 0 and, for n < 0, the
shift-subtract kernel: one table of [x^r] 1/f_{|n|}(x) that serves both
expansion points, built digit by digit in sum over l of
(|n_l| + 1) * ceil(r / b^l) C-level steps.  Its builder is
series._shift_subtract, which gf_expand also reads for n < 0; this
module caches and checks its tables.  Two independent algorithms stay
as oracles for the negative-n case: generic series inversion of the
generating product f_{|n|} expanded at zero (series route) and the
restricted-partition sum over closed-form classic binomials (partition
route).  The partition sum is built from the top digit down, one
exact product of packed integers (Kronecker substitution, in digits'
packed format) per residue class mod b of each level; it never
divides by 1 + x^(b^l).  The routes share nothing past the digit
expansion, which is what makes the cross-oracle sweeps meaningful.
f_{|n|} is palindromic, so each route builds one table per (n, b), and
row reads values off it: entry r = k for k >= 0, r = n - k for k <= n.

For n >= 0, row builds the digit product over a whole window one digit
level at a time (_digit_table).

Tables are rounded up to a multiple of 64 terms, so nearby requests
share one table, and none (digit-wise tables included) is longer than
MAX_TERMS.  Partition tables of up to 2 * MAX_TERMS //
PARTITION_CACHE_SIZE terms, which the verify suites share, have their
own lru_cache of PARTITION_CACHE_SIZE entries.  Every other table shares
one of CACHE_SIZE entries, save one longer than 2 * MAX_TERMS //
CACHE_SIZE terms, built for its one request.  So each cache holds at
most about 2 * MAX_TERMS entries.
Each table request charges an open step meter (digits.Meter) first,
cached or not, by the cost function beside its route's builder.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from math import comb, prod
from typing import Sequence

from . import digits, series
from .classic import classic_binom, classic_cost, classic_row
from .digits import MAX_TERMS, digit_sum, pair_length, to_digits
from .series import ExpansionPoint, gf_expand, series_inverse

# tables in the shared cache: sweeps and row scans reuse a table in runs
# per (n, b), not across the whole process
CACHE_SIZE = 32
# the longest table the cache keeps: CACHE_SIZE of them are 2 * MAX_TERMS
_CACHED_TERMS = 2 * MAX_TERMS // CACHE_SIZE
# partition tables in their own cache: four verify suites read the same
# 300, a base's 60 at a time, so they are kept for the whole run
PARTITION_CACHE_SIZE = 512
_PARTITION_TERMS = 2 * MAX_TERMS // PARTITION_CACHE_SIZE


class Method(Enum):
    AUTO = "auto"
    SERIES = "series"
    PARTITION = "partition"


def bary_binom(n: int, k: int, base: int, method: Method = Method.AUTO) -> int:
    """binom(n, k)_b.

    For n >= 0 this is the digit product over shared padding length N,
    which vanishes automatically outside 0 <= k <= n.  For n < 0 it is
    the coefficient of x^k in the expansion of f_{n,b} at zero (k >= 0)
    or at infinity (k < 0), with the band n < k < 0 identically zero.

    Auto dispatch uses the digit product for n >= 0 and the
    shift-subtract table for n < 0; Partition and Series stay available
    as independent cross-checks.
    """
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    if method is Method.AUTO:
        if n >= 0:
            return _digit_product(n, k, base)
        # f_|n| is palindromic, so the infinity side reads the same table:
        # binom(n, n - r)_b = [x^r] 1/f_|n|; the band n < k < 0 is 0
        r = k if k >= 0 else n - k
        return shift_subtract_table(n, base, r)[r] if r >= 0 else 0
    if method is Method.PARTITION:
        return bary_binom_partition(n, k, base)
    if method is Method.SERIES:
        return bary_binom_series(n, k, base)
    raise ValueError(f"unknown method {method!r}")


def _digit_product(n: int, k: int, b: int) -> int:
    """Product of classic_binom(n_l, k_l) over the sign-consistent digits
    of n and k, both zero-padded to the longer of the two expansions.

    For n >= 0 this is binom(n, k)_b; for n < 0 it is the star
    coefficient.  Zero digits on both sides contribute a factor 1, so
    running until both n and k are exhausted is the shared padding.
    """
    if n >= 0 and not 0 <= k <= n:
        return 0  # polynomial support: no negative powers, degree n
    if digits.meter is not None:  # every digit pair's classic_binom, first
        size = pair_length(n, k, b)
        digits.meter.charge(sum(map(classic_cost, to_digits(n, b, size), to_digits(k, b, size))))
    sn, sk = (-1 if n < 0 else 1), (-1 if k < 0 else 1)
    m, j = abs(n), abs(k)
    prod = 1
    while m or j:
        m, nl = divmod(m, b)
        j, kl = divmod(j, b)
        prod *= classic_binom(sn * nl, sk * kl)
        if not prod:
            return 0
    return prod


def _digit_table(n: int, b: int, top: int, sign: int = 1) -> list[int]:
    """[_digit_product(n, sign * j, b) for j in range(top + 1)], for
    0 <= top < MAX_TERMS; past MAX_TERMS it raises ValueError before
    allocating.

    Built one digit level at a time from the top down: entry b*i + d of
    a level is entry i of the level above times classic_binom(n_l,
    sign * d).  Above the digits of n only entry 0 is nonzero, because a
    nonzero digit of j against a zero digit of n gives a factor 0.  A
    level computes at most top // b**l + 1 values of d.
    """
    if top >= MAX_TERMS:
        raise ValueError(f"a table of {top + 1} terms exceeds the limit of {MAX_TERMS}")
    ds = to_digits(n, b)
    if digits.meter is not None:  # per level: 16 steps of setup, its products and values
        levels = [(d, top // b**l + 1, min(b, top // b**l + 1)) for l, d in enumerate(ds)]
        steps = sum(16 + w + v * classic_cost(d, v - 1) for d, w, v in levels)
        digits.meter.charge(steps)
    t = [1] + [0] * (top // b ** len(ds))
    for l in reversed(range(len(ds))):
        width = top // b**l + 1
        low = [classic_binom(ds[l], sign * d) for d in range(min(b, width))]
        t = [h * c for h in t for c in low][:width]
    return t


# the table caches, keyed by the route's builder, each with the longest
# table it keeps
_cache = lru_cache(maxsize=CACHE_SIZE)(lambda build, n, base, size: build(n, base, size))
_partition_cache = lru_cache(maxsize=PARTITION_CACHE_SIZE)(lambda build, n, base, size: build(n, base, size))
_SHARED = ((_cache, _CACHED_TERMS),)
_PARTITIONS = ((_partition_cache, _PARTITION_TERMS),) + _SHARED


def _table(build, cost, n: int, base: int, limit: int, caches=_SHARED) -> tuple[int, ...]:
    # entries 0..limit need limit + 1 terms: refused past MAX_TERMS before
    # allocating, else rounded up to a multiple of 64 (as MAX_TERMS is),
    # charged cost(n, base, size) steps whether cached or not, and kept in
    # the first of caches whose longest table it fits, else in none
    if limit >= MAX_TERMS:
        raise ValueError(f"a table of {limit + 1} terms exceeds the limit of {MAX_TERMS}")
    size = max(64, -(-(limit + 1) // 64) * 64)
    if digits.meter is not None:
        digits.meter.charge(cost(n, base, size))
    for cache, longest in caches:
        if size <= longest:
            return cache(build, n, base, size)
    return build(n, base, size)


def shift_subtract_table(n: int, base: int, limit: int) -> tuple[int, ...]:
    """Entries [x^r] 1/f_{|n|}(x) for n < 0 and 0 <= r <= limit.

    Entry r is binom(n, r)_base on the zero side and, since f_{|n|} is
    palindromic of degree |n|, binom(n, n - r)_base on the infinity
    side.  The tuple covers at least limit + 1 entries.
    """
    if n >= 0:
        raise ValueError("shift-subtract tables are defined for n < 0 only")
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    # looked up at call time: gf_expand reads the same builder
    return _table(series._shift_subtract, series.expand_cost, n, base, limit)


def partition_value_table(n: int, base: int, limit: int) -> tuple[int, ...]:
    """Partition-sum values of binom(n, .)_base for n < 0, in bulk.

    Entry r is binom(n, r)_base for 0 <= r <= limit and, since f_{|n|}
    is palindromic of degree |n|, binom(n, n - r)_base on the infinity
    side.  The tuple covers at least limit + 1 entries.
    """
    if n >= 0:
        raise ValueError("partition tables are defined for n < 0 only")
    return _table(_value_table, _partition_cost, n, base, limit, _PARTITIONS)


def _value_table(n: int, base: int, size: int) -> tuple[int, ...]:
    # The partition sum prod_l W_l(x^(b^l)), W_l(y) = sum_i classic_binom(n_l,
    # i) y^i, from the top level down: the top level's weights are its
    # table, and each level below is P(y) = W_l(y) Q(y^b) for the table Q
    # above, so P's residue class r is Q times W_l's weights at r, r + b,
    # ...: Q packed once, then one exact product per residue.  A zero digit
    # weighs [1], a copy of Q into residue 0.  Every partial product is 1/f
    # of a part of |n|, so its entries, like the weights, fit one signed
    # slot width w (_slot_width); residue r's low slots are entries of P.
    w = _slot_width(n, base, size)
    (d, slots), *lower = _levels(n, base, size)
    table = classic_row(d, range(slots))
    for d, slots in lower:
        weights, upper = classic_row(d, range(slots if d else 1)), digits.pack(table, w)
        table = [0] * slots
        for r in range(min(base, len(weights))):
            product = upper * digits.pack(weights[r::base], w)
            table[r::base] = digits.unpack(product, w, len(range(r, slots, base)))
    return tuple(table)


def _levels(n: int, base: int, size: int) -> list[tuple[int, int]]:
    # (n_l, the slots of y = x^(b^l) below x^size) for each level l with
    # b^l < size, top first: the levels _value_table builds its table from
    ds = to_digits(n, base)
    top = min(len(ds), len(to_digits(size - 1, base)))
    return [(ds[l], (size - 1) // base**l + 1) for l in reversed(range(top))]


def _slot_width(n: int, base: int, size: int) -> int:
    # |[x^r] 1/f_m| <= [x^r] (1 - x)^-S = C(S + r - 1, r) for S = S_b(m),
    # since each of the S factors 1/(1 + x^(b^l)) is bounded coefficient by
    # coefficient by 1/(1 - x); at r = size - 1 that bounds every entry and
    # weight.
    s = -digit_sum(n, base)
    return digits.slot_width(comb(s + size - 2, size - 1))


def _partition_cost(n: int, base: int, size: int) -> int:
    # The build's math.comb for the slot width is charged first, since the
    # rest depends on w.  Then the top level's weights and a lower nonzero
    # digit's, an uncached call each at one step more than classic_cost of
    # the middle one (about their mean); the table above and a level's
    # weights packed and every slot decoded (digits.pack_cost); and per
    # residue 16 steps of setup and one product of ints of w bits a slot
    # (digits.product_cost).  A lower zero digit's level is a copy: a pass
    # over its slots and the table above packed and decoded.
    s = -digit_sum(n, base)
    digits.charge(classic_cost(s + size - 2, min(s, size) - 1))
    w = _slot_width(n, base, size)
    (d, slots), *lower = _levels(n, base, size)
    steps = slots * (1 + classic_cost(d, slots // 2))
    for d, slots in lower:
        upper = (slots - 1) // base + 1
        if not d:
            steps += 16 + slots + digits.pack_cost(2 * upper, w)
            continue
        steps += slots * (1 + classic_cost(d, slots // 2)) + digits.pack_cost(upper + 2 * slots, w)
        for r in range(min(base, slots)):
            steps += 16 + digits.product_cost(w * upper, w * len(range(r, slots, base)))
    return steps


def series_table(n: int, base: int, limit: int) -> tuple[int, ...]:
    """Coefficients [x^r] f_{n,base}(x) at zero for 0 <= r <= limit:
    entry r is binom(n, r)_base and, for n < 0, also binom(n, n - r)_base.
    The tuple covers at least limit + 1 entries.

    This is the series oracle: gf_expand builds f_{|n|} by shift-add
    passes over at most |n| + 1 entries, and for n < 0 series_inverse
    divides 1 by it, so it shares nothing with the kernel or the
    partition sum past the digits.
    """
    return _table(_series, _series_cost, n, base, limit)


def _series(n: int, base: int, size: int) -> tuple[int, ...]:
    f = gf_expand(abs(n), base, ExpansionPoint.AT_ZERO, size)
    return (series_inverse(f) if n < 0 else f).coeffs


def _series_cost(n: int, base: int, size: int) -> int:
    # gf_expand, and for n < 0 series_inverse: a pass over the size
    # entries for each of the at most prod(|n_l| + 1) nonzero terms of f
    steps = series.expand_cost(abs(n), base, size)
    return steps + size * min(prod(1 - d for d in to_digits(n, base)), size) if n < 0 else steps


# Each route's table [x^r] 1/f_|n| for n < 0 (AUTO reads the kernel); the
# lambdas look their functions up at call time, so row reads a patched one.
_TABLES = {
    Method.AUTO: lambda n, b, span: shift_subtract_table(n, b, span),
    Method.PARTITION: lambda n, b, span: partition_value_table(n, b, span),
    Method.SERIES: lambda n, b, span: series_table(n, b, span),
}


def row(n: int, base: int, ks: Sequence[int], method: Method = Method.AUTO) -> list[int]:
    """binom(n, k)_base for every k in ks, in order.

    n >= 0 reads the digit product: one _digit_table over
    [0, min(n, max(ks))], outside which every value is 0.  n < 0 reads
    one table of the method's route at the least span that covers ks:
    entry k for k >= 0, entry n - k for k <= n, and 0 in the band
    n < k < 0.  When every k is in the band no table is built.  A table
    past MAX_TERMS raises ValueError before it is allocated.
    """
    if (build := _TABLES.get(method)) is None:
        raise ValueError(f"unknown method {method!r}")
    digits.charge(len(ks))  # the read-out
    if n >= 0:
        top = min(n, max(ks, default=-1))
        table = _digit_table(n, base, max(top, 0))
        return [table[k] if 0 <= k <= top else 0 for k in ks]
    span = max(max(ks, default=-1), n - min(ks, default=0))
    table = build(n, base, span) if span >= 0 else ()
    return [table[k] if k >= 0 else table[n - k] if k <= n else 0 for k in ks]


def bary_binom_partition(n: int, k: int, b: int) -> int:
    """binom(n, k)_b for n < 0 via the restricted-partition sum.

    For k >= 0 the sum runs over all tuples with weighted sum k.  The
    paper's k < 0 sum, over tuples with j_l >= |n_l| and weighted sum
    |k|, is entry r = n - k of the same table, since classic_binom(d,
    d - i) = classic_binom(d, i); the band n < k < 0 is 0.
    """
    if n >= 0:
        raise ValueError("partition method applies to n < 0 only")
    if b < 2:
        raise ValueError(f"base must be >= 2, got {b}")
    return row(n, b, (k,), Method.PARTITION)[0]


def bary_binom_series(n: int, k: int, b: int) -> int:
    """binom(n, k)_b by expanding f_{n,b} at zero and reading entry r.

    f_{|n|} is palindromic of degree |n|, so one series_table serves
    both sides: for n < 0 it is read as row reads it, and for n >= 0 at
    r = min(k, n - k), which is 0 outside 0 <= k <= n without expanding.
    """
    if b < 2:
        raise ValueError(f"base must be >= 2, got {b}")
    if n < 0:
        return row(n, b, (k,), Method.SERIES)[0]
    r = min(k, n - k)
    return series_table(n, b, r)[r] if r >= 0 else 0
