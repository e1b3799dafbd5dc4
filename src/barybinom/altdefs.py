"""Two alternative ways to extend the digit-product coefficient to n < 0.

The star coefficient keeps the digit product and feeds it negative upper
digits.  The double-star coefficient collapses k to its digit sum and
sums products of classic binomials over compositions of it; by
Chu-Vandermonde that sum is the single classic coefficient
classic_binom(S_b(n), S_b(k)), because the product over digits of
(1+y)^{n_l} is (1+y)^{S_b(n)}.  Neither agrees with the coefficient
extracted from f_{n,b}; both are defined here for negative first entry
only, which is the only regime where they differ.

star_row and dstar_row give either coefficient for a whole list of k,
built one digit level at a time (bary._digit_table and
digits.digit_sum_table) over [0, max |k|]; star_row stops at
b^L - 1, L the digit count of |n|, past which every star value is 0.
A table past MAX_TERMS raises ValueError before allocating, and an open
step meter (digits.Meter) is charged first, as in bary.row.
"""

from __future__ import annotations

from typing import Sequence

from . import digits
from .bary import _digit_product, _digit_table
from .classic import classic_binom, classic_cost
from .digits import digit_sum, digit_sum_table, to_digits


def star_binom(n: int, k: int, b: int) -> int:
    """Digit-wise product of classic binomials, n < 0.

    Both entries expand with sign-consistent digits padded to a common
    length, so a negative k contributes nonpositive digits.
    """
    _check_args(n, b)
    return _digit_product(n, k, b)


def dstar_binom(n: int, k: int, b: int) -> int:
    """Digit-sum coefficient classic_binom(S_b(n), S_b(k)), n < 0.

    This is the sum, over compositions (j_l) of the digit sum of |k|, of
    the products of classic_binom(n_l, j_l) for k >= 0 (k = 0 included),
    and of classic_binom(n_l, -j_l) with each j_l >= |n_l| for k < 0.
    """
    _check_args(n, b)
    s, j = digit_sum(n, b), digit_sum(k, b)
    if digits.meter is not None:
        digits.meter.charge(classic_cost(s, j))
    return classic_binom(s, j)


def star_row(n: int, b: int, ks: Sequence[int]) -> list[int]:
    """star_binom(n, k, b) for every k in ks, in order: one digit table
    for k >= 0 and one over the negated digits for k < 0, each over
    [0, min(max |k|, b^L - 1)], L the digit count of |n|.  Past b^L - 1
    a nonzero digit of k meets a zero digit of n, so every value is 0.
    """
    _check_args(n, b)
    digits.charge(len(ks))  # the read-out
    top = b ** len(to_digits(n, b)) - 1
    hi, lo = max(ks, default=0), min(ks, default=0)
    pos = _digit_table(n, b, min(max(hi, 0), top))
    neg = _digit_table(n, b, min(max(-lo, 0), top), -1)
    return [0 if abs(k) > top else pos[k] if k >= 0 else neg[-k] for k in ks]


def dstar_row(n: int, b: int, ks: Sequence[int]) -> list[int]:
    """dstar_binom(n, k, b) for every k in ks, in order: one digit_sum
    of n and one digit-sum table over [0, max |k|], S_b(-j) = -S_b(j)."""
    _check_args(n, b)
    sums = digit_sum_table(max(max(ks, default=0), -min(ks, default=0)), b)
    s, top = digit_sum(n, b), max(sums)
    if digits.meter is not None:  # the read-out and the values
        digits.meter.charge(len(ks) + 2 * (top + 1) * classic_cost(s, top))
    pos = [classic_binom(s, j) for j in range(top + 1)]
    neg = [classic_binom(s, -j) for j in range(len(pos))]
    return [pos[sums[k]] if k >= 0 else neg[sums[-k]] for k in ks]


def _check_args(n: int, b: int) -> None:
    if n >= 0:
        raise ValueError("star variants are defined for n < 0 only")
    if b < 2:
        raise ValueError(f"base must be >= 2, got {b}")
