"""Sign-consistent base-b digit expansions.

A negative integer is expanded so that every digit is nonpositive: the
digit tuple of -n is the elementwise negation of the digit tuple of n.
All digit-wise formulas in this package rely on that convention.
Digits are plain tuples, least-significant first.
"""

from __future__ import annotations


def to_digits(n: int, b: int, min_len: int = 0) -> tuple[int, ...]:
    """The sign-consistent digits of n in base b, least-significant first.

    The expansion of 0 is the single digit 0.  ``min_len`` zero-pads on
    the most-significant side; it never truncates.
    """
    if b < 2:
        raise ValueError(f"base must be >= 2, got {b}")
    if min_len < 0:
        raise ValueError(f"min_len must be >= 0, got {min_len}")
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
    return sum(to_digits(n, b))
