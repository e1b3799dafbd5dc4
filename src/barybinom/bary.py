"""The b-ary binomial coefficient binom(n, k)_b for all integer n, k.

Auto dispatch uses the digit product for n >= 0 and, for n < 0, the
shift-subtract kernel: one table of [x^r] 1/f_{|n|}(x), built in
O(r * S_b(|n|)) steps, that serves both expansion points.  Two
independent algorithms stay as oracles for the negative-n case:
coefficient extraction from the truncated generating-function expansion
at zero (series route) and the restricted-partition sum over closed-form
classic binomials (partition route).  They share nothing past the digit
expansion, which is what makes the cross-oracle sweeps meaningful.
f_{|n|} is palindromic, so each route builds one table per (n, b) and
reads entry r = k for k >= 0 and entry r = n - k for k <= n.

Every table and expansion is cached in an lru_cache of CACHE_SIZE
entries, and none may need more than MAX_TERMS terms.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache

from .classic import classic_binom
from .digits import to_digits
from .series import MAX_TERMS, ExpansionPoint, gf_expand

# entries per table or expansion cache: sweeps and row scans reuse a
# table in runs per (n, b), not across the whole process
CACHE_SIZE = 32


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
    return bary_binom_series(n, k, base)


def _digit_product(n: int, k: int, b: int) -> int:
    """Product of classic_binom(n_l, k_l) over the sign-consistent digits
    of n and k, both zero-padded to the longer of the two expansions.

    For n >= 0 this is binom(n, k)_b; for n < 0 it is the star
    coefficient.  Zero digits on both sides contribute a factor 1, so
    running until both n and k are exhausted is the shared padding.
    """
    if n >= 0 and not 0 <= k <= n:
        return 0  # polynomial support: no negative powers, degree n
    sn = -1 if n < 0 else 1
    sk = -1 if k < 0 else 1
    m, j = abs(n), abs(k)
    prod = 1
    while m or j:
        m, nl = divmod(m, b)
        j, kl = divmod(j, b)
        prod *= classic_binom(sn * nl, sk * kl)
        if not prod:
            return 0
    return prod


def _bucket(need: int) -> int:
    # round the table/order size up so nearby queries share one cache entry
    return max(64, -(-need // 64) * 64)


def _table_limit(limit: int) -> int:
    # entries 0..limit need limit + 1 terms; refuse before allocating
    if limit >= MAX_TERMS:
        raise ValueError(f"a table of {limit + 1} terms exceeds the limit of {MAX_TERMS}")
    return _bucket(limit)


def shift_subtract_table(n: int, base: int, limit: int) -> tuple[int, ...]:
    """Entries [x^r] 1/f_{|n|}(x) for n < 0 and 0 <= r <= limit.

    Entry r is binom(n, r)_base on the zero side and, since f_{|n|} is
    palindromic of degree |n|, binom(n, n - r)_base on the infinity
    side.  The returned tuple covers at least limit + 1 entries; it is
    rounded up so nearby requests share one cached table.
    """
    if n >= 0:
        raise ValueError("shift-subtract tables are defined for n < 0 only")
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    return _shift_subtract(-n, base, _table_limit(limit))


@lru_cache(maxsize=CACHE_SIZE)
def _shift_subtract(m: int, base: int, limit: int) -> tuple[int, ...]:
    # Start from 1 and divide by (1 + x^step) once per unit of each digit
    # of m: one ascending in-place pass c[r] -= c[r - step] per division.
    # A factor with step > limit leaves entries 0..limit unchanged.
    c = [0] * (limit + 1)
    c[0] = 1
    step = 1
    while m and step <= limit:
        m, d = divmod(m, base)
        for _ in range(d):
            for r in range(step, limit + 1):
                c[r] -= c[r - step]
        step *= base
    return tuple(c)


def partition_value_table(n: int, base: int, limit: int) -> tuple[int, ...]:
    """Partition-sum values of binom(n, .)_base for n < 0, in bulk.

    Entry r is binom(n, r)_base for 0 <= r <= limit and, since f_{|n|}
    is palindromic of degree |n|, binom(n, n - r)_base on the infinity
    side.  The returned tuple covers at least limit + 1 entries; it is
    rounded up so nearby requests share one cached table.

    The symmetry and cross-oracle sweeps read these tables as the
    independent oracle; single queries go through bary_binom_partition.
    """
    if n >= 0:
        raise ValueError("partition tables are defined for n < 0 only")
    return _value_table(n, base, _table_limit(limit))


@lru_cache(maxsize=CACHE_SIZE)
def _value_table(n: int, base: int, limit: int) -> tuple[int, ...]:
    # The sum over partition tuples is accumulated level by level: after
    # processing digit position l, entry r holds the sum over all partial
    # tuples (j_l, ..., j_0) with weighted sum r of the products of
    # classic_binom factors.  Positions with digit 0 force j_l = 0 and
    # are skipped.
    cur = [0] * (limit + 1)
    cur[0] = 1
    for l, d in enumerate(to_digits(n, base)):
        if d == 0:
            continue
        step = base**l
        if step > limit:
            break
        weights = [classic_binom(d, i) for i in range(limit // step + 1)]
        new = [0] * (limit + 1)
        for r, c in enumerate(cur):
            if not c:
                continue
            for j in range((limit - r) // step + 1):
                w = weights[j]
                if w:
                    new[r + j * step] += w * c
        cur = new
    return tuple(cur)


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
    r = k if k >= 0 else n - k
    return partition_value_table(n, b, r)[r] if r >= 0 else 0


@lru_cache(maxsize=CACHE_SIZE)
def _gf_cached(n: int, b: int, order: int):
    return gf_expand(n, b, ExpansionPoint.AT_ZERO, order)


def bary_binom_series(n: int, k: int, b: int) -> int:
    """binom(n, k)_b by expanding f_{n,b} at zero and reading entry r.

    f_{|n|} is palindromic of degree |n|, so one expansion serves both
    sides: r = k for k >= 0 and r = n - k for k < 0 when n < 0, and
    r = min(k, n - k) when n >= 0.  r < 0 (the band n < k < 0, or k
    outside 0 <= k <= n) is 0 without expanding.  The order r + 1 is
    rounded up so that a sweep over k reuses a handful of cached
    expansions; MAX_TERMS is a multiple of the rounding, so an order
    within the limit stays within it.
    """
    if b < 2:
        raise ValueError(f"base must be >= 2, got {b}")
    if n >= 0:
        r = min(k, n - k)
    else:
        r = k if k >= 0 else n - k
    return _gf_cached(n, b, _bucket(r + 1)).coeffs[r] if r >= 0 else 0
