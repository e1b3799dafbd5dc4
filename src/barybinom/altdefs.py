"""Two alternative ways to extend the digit-product coefficient to n < 0.

The star coefficient keeps the digit product and feeds it negative upper
digits.  The double-star coefficient collapses k to its digit sum and
sums products of classic binomials over compositions of it; by
Chu-Vandermonde that sum is the single classic coefficient
classic_binom(S_b(n), S_b(k)), because the product over digits of
(1+y)^{n_l} is (1+y)^{S_b(n)}.  Neither agrees with the coefficient
extracted from f_{n,b}; both are defined here for negative first entry
only, which is the only regime where they differ.
"""

from __future__ import annotations

from .bary import _digit_product
from .classic import classic_binom
from .digits import digit_sum


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
    return classic_binom(digit_sum(n, b), digit_sum(k, b))


def _check_args(n: int, b: int) -> None:
    if n >= 0:
        raise ValueError("star variants are defined for n < 0 only")
    if b < 2:
        raise ValueError(f"base must be >= 2, got {b}")
