"""Generalized binomial coefficient for arbitrary integer entries.

``classic_binom(n, k)`` is the coefficient of x^k in (1+x)^n, where for
n < 0 the expansion at zero is used when k >= 0 and the expansion at
infinity when k < 0.  Both expansions reduce to closed forms in ordinary
binomial coefficients, so the function is total and exact.

Values are cached in an lru_cache of CACHE_SIZE entries: enough for
the digit-sized keys the sweeps share (one `verify --suite all` ends
with 455), and a bound for any other caller.  A long or
one-off run of keys, such as the lucas grid or a partition table's
weights, is read past the cache by classic_row.  classic_cost is the
step count a caller charges to the step meter (digits.Meter) for a run
of values.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from math import comb

CACHE_SIZE = 2**12


@lru_cache(maxsize=CACHE_SIZE)
def classic_binom(n: int, k: int) -> int:
    """Coefficient of x^k in (1+x)^n, all integer n and k.

    Closed forms by sign quadrant:

    * n >= 0: standard C(n, k) for 0 <= k <= n, else 0;
    * n < 0, k >= 0: (-1)^k * C(-n+k-1, k);
    * n < 0, k <= n: (-1)^(n-k) * C(-k-1, n-k);
    * n < 0, n < k < 0: 0 (no term in either expansion).
    """
    if n >= 0:
        if 0 <= k <= n:
            return comb(n, k)
        return 0
    if k >= 0:
        return -comb(-n + k - 1, k) if k & 1 else comb(-n + k - 1, k)
    if k <= n:
        return -comb(-k - 1, n - k) if (n - k) & 1 else comb(-k - 1, n - k)
    return 0


def classic_row(n: int, ks: range) -> list[int]:
    """classic_binom(n, k) for k in the range ks, read past the cache (its
    __wrapped__), which keeps the digit-sized keys the sweeps share."""
    return list(map(classic_binom.__wrapped__, repeat(n, len(ks)), ks))


@lru_cache(maxsize=CACHE_SIZE)
def classic_cost(n: int, k: int) -> int:
    """Steps one uncached classic_binom(n, j) takes for |j| <= |k|: its
    value is C(N, K) with N <= |n| + |k| (N <= n for n >= 0) and
    K <= min(|n|, |k|), of at most min(N, K * log2(3N / K)) bits, and
    math.comb's time grows about as those bits times K."""
    big = abs(n) + (abs(k) if n < 0 else 0)
    small = min(abs(n), abs(k))
    bits = min(big, small * (3 * big // small).bit_length()) if small else 0
    return 1 + bits * small // 1024
