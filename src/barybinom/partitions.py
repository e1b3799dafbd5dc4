"""Restricted partitions of k into parts 1, b, ..., b^(N-1).

These are the index sets of the partition-sum formula: N-tuples
(j_{N-1}, ..., j_0) of nonnegative integers with sum of j_l * b^l equal
to k, optionally with per-position lower bounds j_l >= n_l.  One output
holds at most MAX_TERMS integers (tuples times N), and N is at most
MAX_TERMS even when no tuple matches; past either, ValueError is raised
before anything is built.
"""

from __future__ import annotations

from operator import add

from .series import MAX_TERMS


def enumerate_partitions(k: int, b: int, N: int) -> list[tuple[int, ...]]:
    """All N-tuples of nonnegative j_l with sum j_l * b^l = k, each as
    the multiplicities (j_{N-1}, ..., j_0), most significant part first.

    Output is in descending lexicographic order on (j_{N-1}, ..., j_0),
    i.e. largest most-significant part first; complete and duplicate-free.
    """
    if b < 2:
        raise ValueError(f"base must be >= 2, got {b}")
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    _check_size(1, N)  # the length alone, before any tuple is known
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    # positions with b^l > k take multiplicity 0 and are not recursed
    # into; position 0 always takes the remainder
    free = 1
    while free < N and b**free <= k:
        free += 1
    if free > 1:
        # parts 1 and b alone give k // b + 1 tuples, so this also
        # bounds the recursion depth below
        _check_size(k // b + 1, N)
    out: list[tuple[int, ...]] = []
    prefix = [0] * (N - free)

    # recursive descent on l = free-1 .. 0, largest multiplicity first;
    # at l = 0 the remainder forces j_0, so no scan is needed there
    def rec(l: int, rem: int) -> None:
        if l == 0:
            out.append((*prefix, rem))
            _check_size(len(out), N)
            return
        w = b**l
        for j in range(rem // w, -1, -1):
            prefix.append(j)
            rec(l - 1, rem - j * w)
            prefix.pop()

    rec(free - 1, k)
    return out


def enumerate_restricted(k: int, b: int, digits: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The subset of enumerate_partitions(k, b, N) with j_l >= n_l.

    ``digits`` are the base-b digits (n_0, ..., n_{N-1}) of a positive
    integer n, least significant first, as to_digits returns them; N is
    their count.  Lowering each j_l by n_l maps these tuples, in order,
    onto enumerate_partitions(k - n, b, N), so the set is empty
    whenever k < n.
    """
    if b < 2:
        raise ValueError(f"base must be >= 2, got {b}")
    _check_size(1, len(digits))
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if not any(digits) or not all(0 <= d < b for d in digits):
        raise ValueError(f"digits must expand a positive integer in base {b}")
    n = sum(d * b**l for l, d in enumerate(digits) if d)  # no powers for the padding
    if k < n:
        return []
    lows = digits[::-1]
    return [tuple(map(add, p, lows)) for p in enumerate_partitions(k - n, b, len(digits))]


def _check_size(tuples: int, N: int) -> None:
    if tuples * N > MAX_TERMS:
        raise ValueError(
            f"more than {MAX_TERMS} integers of output ({N} per tuple); "
            "lower k or the length"
        )
