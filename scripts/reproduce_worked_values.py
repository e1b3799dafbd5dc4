#!/usr/bin/env python3
"""Recompute every hand-checked value and compare against frozen copies.

Covers the single coefficients for (n, k) = (-6, 7) and (-6, -8) in
base 4 under all three definitions, both truncated expansions of
f_{-6,4}, the partition index sets behind the two coefficients, and
the full 10 x 19 base-4 star defect table.  Exits 1 on any mismatch.
"""

from __future__ import annotations

import sys

from barybinom.altdefs import dstar_binom, star_binom
from barybinom.bary import Method, bary_binom
from barybinom.digits import to_digits
from barybinom.identities import table1_matrix
from barybinom.partitions import enumerate_partitions, enumerate_restricted
from barybinom.series import ExpansionPoint, gf_expand

DEFECT_TABLE = (
    (0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, -3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 1, 0, 0, -1, -1, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 2, 1, 0, 0, 0, -1, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0),
    (0, 0, -2, 0, 0, 0, -4, 0, 0, 0, 4, 0, 0, 0, -3, 0, 0, 0, 0),
    (0, 0, 4, 0, 0, 0, 2, 0, 0, 0, -2, 0, 0, 0, 3, 0, 0, 0, 0),
    (0, 0, -1, -1, 0, 0, 0, 2, 0, 0, -1, -3, 0, 0, -1, 0, 0, 0, 0),
    (0, 0, 1, 0, 0, 0, 1, 1, 0, 0, -1, -2, 0, 0, -2, 0, 0, 0, 0),
    (0, 0, -3, 0, 0, 0, 1, 0, 0, 0, -5, 0, 0, 0, 6, 0, 0, 0, 0),
)

failures = 0


def check(label: str, got, want) -> None:
    global failures
    ok = got == want
    if not ok:
        failures += 1
    print(f"{'ok  ' if ok else 'FAIL'} {label}: got {got!r}, want {want!r}")


def main() -> int:
    print("-- single coefficients, base 4 --")
    for method in (Method.SERIES, Method.PARTITION):
        check(f"binom(-6,7) via {method.value}", bary_binom(-6, 7, 4, method), -4)
        check(f"binom(-6,-8) via {method.value}", bary_binom(-6, -8, 4, method), 3)
    check("star(-6,7)", star_binom(-6, 7, 4), 4)
    check("star(-6,-8)", star_binom(-6, -8, 4), -1)
    check("dstar(-6,7)", dstar_binom(-6, 7, 4), 15)
    check("dstar(-6,-8)", dstar_binom(-6, -8, 4), 0)

    print("-- expansions of f_{-6,4} --")
    zero = gf_expand(-6, 4, ExpansionPoint.AT_ZERO, 8)
    check("zero-side coefficients", zero.coeffs, (1, -2, 3, -4, 4, -4, 4, -4))
    inf = gf_expand(-6, 4, ExpansionPoint.AT_INFINITY, 3)
    check("infinity-side terms", list(inf.terms()), [(-6, 1), (-7, -2), (-8, 3)])

    print("-- partition index sets --")
    plain = enumerate_partitions(7, 4, 2)
    check("tuples for k = 7", plain, [(1, 3), (0, 7)])
    bounded = enumerate_restricted(8, 4, to_digits(6, 4))
    check("tuples for k = -8 (bounds 1,2)", bounded, [(1, 4)])

    print("-- 10 x 19 star defect table, base 4 --")
    got = table1_matrix()
    bad = [
        (n + 1, k + 1)
        for n in range(10)
        for k in range(19)
        if got[n][k] != DEFECT_TABLE[n][k]
    ]
    check("cells differing from the frozen copy", bad, [])

    print(f"{failures} mismatches")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
