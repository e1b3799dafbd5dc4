"""Sweep-based verification of the identities the coefficients satisfy.

Every check_* function sweeps an explicit finite domain, compares two
rows at a time (the two sides of one identity over a list of k) with
exact integer arithmetic, and returns an IdentityReport carrying any
counterexample witnesses.  Values are read a row at a time: the star
and double-star values through altdefs.star_row and altdefs.dstar_row,
every other through bary.row, which for n >= 0 builds the digit product
one digit level at a time and for n < 0 reads one table of one of
bary_binom's three routes, named by its Method.  Which route each side
reads is the point of a check:

- pascal, pascal-power, prop33 and lucas: the shift-subtract kernel;
- symmetry: the kernel against the partition sum at the mirror index;
- cross-oracle: the series expansion against the partition sum;
- chu-neg and chu-mixed: exact products of packed tables against the
  kernel on the zero sides and the partition sum on every infinity side.

verify runs each suite under a step meter (digits.Meter), charged by the
tables a check reads and by its own loops (compares, the chu packing and
products, the math.comb rows, prop33's shift-add passes).  Digit sums are
read off one digits.digit_sum_table per base: S_b(n) and S_b(k) in
aggregation, and carry-freeness in the chu sweeps, since each carry in
n + m lowers S_b(n + m) by b - 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import add
from typing import Callable, Iterable, Sequence

from . import digits
from .altdefs import dstar_row, star_row
from .bary import Method, row
from .classic import classic_cost, classic_row
from .digits import digit_sum_table, to_digits
from .series import MAX_TERMS


def _classic_row(n: int, ks: range) -> list[int]:
    """classic_row(n, ks), charged first: lucas reads about 29,000 keys."""
    digits.charge(len(ks) * classic_cost(n, max(-ks[0], ks[-1]) if ks else 0))
    return classic_row(n, ks)


def _product(a: int, b: int) -> int:
    """a * b, charged first (digits.product_cost)."""
    digits.charge(digits.product_cost(a.bit_length(), b.bit_length()))
    return a * b


@dataclass(frozen=True)
class Witness:
    """One failed instance: the swept inputs and both sides."""

    inputs: tuple
    lhs: int
    rhs: int


@dataclass(frozen=True)
class IdentityReport:
    identity_id: str
    swept_domain: str
    checked_count: int
    failures: tuple[Witness, ...] = ()
    skipped_count: int = 0

    @property
    def passed(self) -> bool:
        return not self.failures


class _Tally:
    """The checked and skipped counts and the witnesses of one sweep."""

    def __init__(self):
        self.checked = self.skipped = 0
        self.failures: list[Witness] = []

    def compare(self, key: tuple, ks: Sequence[int], lhs: list[int], rhs: list[int], tag=()):
        """Tally len(ks) cases, where lhs[i] and rhs[i] are the two sides
        at ks[i], with a Witness(key + (k,) + tag, lhs, rhs) for each k
        where they differ.  Comparing the whole lists first keeps the
        all-equal case out of the interpreter loop."""
        digits.charge(len(ks))
        self.checked += len(ks)
        if lhs != rhs:
            self.failures += [
                Witness(key + (k,) + tag, l, r) for k, l, r in zip(ks, lhs, rhs) if l != r
            ]

    def compare_packed(self, key, ks, lhs, product, w, tag, size=None) -> None:
        """compare for ks at the last len(ks) of slots 0..size-1 (size
        len(ks) by default) of lhs and product, packed at width w (see
        digits.pack): one masked compare, decoded only on a mismatch."""
        size = len(ks) if size is None else size
        digits.charge(size)
        if not (product - lhs) & ((1 << w * size) - 1):
            self.checked += len(ks)
            return
        lhs, rhs = (digits.unpack(v, w, size)[size - len(ks) :] for v in (lhs, product))
        self.compare(key, ks, lhs, rhs, (tag,))

    def report(self, identity_id: str, domain: str) -> IdentityReport:
        return IdentityReport(identity_id, domain, self.checked, tuple(self.failures), self.skipped)


# each coefficient variant's row function, (n, b, ks) -> values
_VARIANTS = {"std": row, "star": star_row, "dstar": dstar_row}


def _pascal(t: _Tally, variant: str, b: int, ks: Sequence[int], reach: int = 1) -> Callable:
    """step(key, n, s) checks v(-n,k) + v(-n,k-s) = v(-n+s,k) for k in ks
    and 0 < s <= reach, where v is the coefficient variant (std reads
    the kernel), tallied into t with witness inputs key + (k,).  A
    sweep walking n upward builds each row of v once: step reads
    v(-n+s, .) before v(-n, .), and the last two rows are kept.

    The single input (n, k) = (s, 0) is left out and counted as
    skipped: there the k-s term is read from the expansion at infinity,
    whose support reaches -s only when n = s, while the right side
    degenerates to v(0, .).  Each one-sided expansion satisfies the
    recurrence; splicing them double counts at exactly that point.
    """
    lo = min(ks, default=0) - reach
    window = range(lo, max(ks, default=0) + 1)

    @lru_cache(maxsize=2)
    def values(m: int) -> list[int]:
        # star and dstar extend to m = 0 as the empty digit product: 1 at
        # k = 0, else 0, which is binom(0, .)_b
        return _VARIANTS["std" if m == 0 else variant](m, b, window)

    def step(key: tuple, n: int, s: int) -> None:
        sub = [k for k in ks if k] if n == s and 0 in ks else ks
        t.skipped += len(ks) - len(sub)
        high, low = values(-n + s), values(-n)
        digits.charge(2 * len(sub))  # the two sides' lists, built here
        lhs = [low[k - lo] + low[k - s - lo] for k in sub]
        t.compare(key, sub, lhs, [high[k - lo] for k in sub])

    return step


def check_symmetry(
    bases: Iterable[int] = (2, 3, 4, 5, 6), n_max: int = 60, k_max: int = 120
) -> IdentityReport:
    """binom(n, k)_b = binom(n, n - k)_b for every integer pair.

    For n < 0 the left side reads the shift-subtract table and the right
    side the partition table, one per n, at the mirror index, so the
    kernel is never compared with itself.
    """
    bases = tuple(bases)
    t = _Tally()
    ks = range(-k_max, k_max + 1)
    for b in bases:
        for n in range(-n_max, n_max + 1):
            mirror = row(n, b, [n - k for k in ks], Method.PARTITION)
            t.compare((b, n), ks, row(n, b, ks), mirror)
    return t.report("symmetry", f"b in {_fmt(bases)}, |n| <= {n_max}, |k| <= {k_max}")


def check_pascal(
    bases: Iterable[int] = (2, 3, 4, 5, 6), n_max: int = 100, k_max: int = 200
) -> IdentityReport:
    """binom(-n,k)_b + binom(-n,k-1)_b = binom(-n+1,k)_b for b not
    dividing n.

    The single input (n, k) = (1, 0), where the two one-sided
    expansions splice (see _pascal), is counted as skipped.
    """
    return _step_one("std", bases, n_max, k_max)


def check_pascal_power(
    bases: Iterable[int] = (2, 3, 4, 5), n_max: int = 80, k_max: int = 160
) -> IdentityReport:
    """binom(-n,k)_b + binom(-n,k-b^s)_b = binom(-n+b^s,k)_b whenever
    digit s of n is nonzero.

    Skips (n, k) = (b^s, 0) for the same branch-splice reason as the
    step-one recurrence: it is the s = 0 exception rescaled.
    """
    bases = tuple(bases)
    t, ks = _Tally(), range(-k_max, k_max + 1)
    for b in bases:
        # the largest step is the largest power of b up to n_max
        step = _pascal(t, "std", b, ks, b ** (len(to_digits(max(n_max, 1), b)) - 1))
        for n in range(1, n_max + 1):
            for s, d in enumerate(to_digits(n, b)):
                if d:
                    step((b, n, s), n, b**s)
    return t.report(
        "pascal-power",
        f"b in {_fmt(bases)}, n in [1,{n_max}], s over nonzero digits, |k| <= {k_max}",
    )


def check_prop33(
    bases: Iterable[int] = (2, 3, 4), n_max: int = 64, k_max: int = 64
) -> IdentityReport:
    """Pascal step across a block of trailing zero digits.

    For n whose digits below position s all vanish (n_s != 0), any
    m < s, and any k with k >= b^s or k <= -n + b^m:

        binom(-n+b^s, k) = sum_j binom(b^s-b^m, j) * binom(-n+b^m, k-j)

    with j running over the multiples of b^m in [0, b^s].  The j = 0
    term belongs to the sum: the weight series is the expansion of
    prod_{l=m}^{s-1} (1+x^{b^l})^{b-1}, whose constant term is 1.
    k_max is the width of the swept window past each branch point.
    The sum is 1/f_{n-b^m} times that product, so each (n, m) reads one
    kernel row of -n + b^m, size = b^s + k_max + 1 entries, and applies
    the (b-1)(s-m) factors 1 + x^{b^l} in place, a shift-add pass of
    size steps each.  The product is palindromic: slot k serves k >= 0,
    slot b^s - n - k serves k <= -n + b^m.
    """
    bases = tuple(bases)
    t = _Tally()
    for b in bases:
        for n in range(b, n_max + 1, b):
            s = next(i for i, d in enumerate(to_digits(n, b)) if d)
            bs, size = b**s, max(b**s + k_max + 1, 0)
            for m in range(s):
                bm = b**m
                ks = [*range(bs, bs + k_max + 1), *range(-n + bm - k_max, -n + bm + 1)]
                product = row(-n + bm, b, range(size))
                digits.charge((b - 1) * (s - m) * size)
                for l in range(m, s):
                    for _ in range(b - 1):  # the map is read in full before the write
                        product[b**l :] = map(add, product[b**l :], product)
                rhs = [product[k] if k >= 0 else product[bs - n - k] for k in ks]
                t.compare((b, n, s, m), ks, row(-n + bs, b, ks), rhs)
    return t.report(
        "prop33",
        f"b in {_fmt(bases)}, n multiples of b up to {n_max}, all (s,m), "
        f"k windows of width {k_max}",
    )


def _pack_tables(*tables: dict[int, Sequence[int]]) -> int:
    """Pack one base's tables (maps from s to a coefficient list) in place
    at the slot width w that holds every entry and product coefficient
    of two lists (at most top**2 * longest), charged by
    digits.pack_cost; return w.  Each list is dropped as packed."""
    top = max((max(max(c), -min(c)) for t in tables for c in t.values() if c), default=0)
    longest = max((len(c) for t in tables for c in t.values()), default=0)
    w = digits.slot_width(top * top * longest)
    digits.charge(digits.pack_cost(sum(len(c) for t in tables for c in t.values()), w))
    for t in tables:
        for s, c in t.items():
            t[s] = digits.pack(c, w)
    return w


def check_chu_negative(
    bases: Iterable[int] = (2, 3, 4, 5, 6), n_max: int = 60, k_max: int = 120
) -> IdentityReport:
    """Convolution of two negative upper entries, carry-free n + m.

    Zero side, k >= m:   binom(-n-m,k) = sum_{j=0}^{k} binom(-n,k-j) binom(-m,j)
    Infinity side, k >= n+m:
                         binom(-n-m,-k) = sum_{j=1}^{k-1} binom(-n,-k+j) binom(-m,-j)

    n_max bounds n + m.  Pairs are swept unordered (the identity is
    symmetric in n and m); pairs that carry are counted as skipped.

    Both right-hand sides are one exact product of the packed kernel
    tables of -n and -m (see digits.pack): f_n is palindromic, so the
    infinity-side sum is its slot r = k - n - m.  The zero side compares
    it with the kernel table of -(n+m) at every k >= 0, where it holds,
    and reports k >= m; the infinity side with the partition sum, so a
    kernel fault cannot cancel against itself there.  Tables are packed
    once per base, n_max kernel and partition rows of k_max + 1 entries
    (slot r of the partition row of -s is binom(-s, -s - r)), and freed
    before the next base's.
    """
    bases = tuple(bases)
    t, size = _Tally(), max(k_max + 1, 0)
    for b in bases:
        kernel = {s: row(-s, b, range(size)) for s in range(1, n_max + 1)}
        at_inf = {s: row(-s, b, range(size), Method.PARTITION) for s in range(2, n_max + 1)}
        w, sums = _pack_tables(kernel, at_inf), digit_sum_table(max(n_max, 0), b)
        for n in range(1, n_max // 2 + 1):
            digits.charge(n_max - 2 * n + 1)  # the carry tests
            for m in range(n, n_max - n + 1):
                if sums[n] + sums[m] != sums[n + m]:  # n + m carries
                    t.skipped += 1
                    continue
                key, product, zero = (b, n, m), _product(kernel[n], kernel[m]), range(m, size)
                t.compare_packed(key, zero, kernel[n + m], product, w, "zero", size=size)
                inf = range(-(n + m), -k_max - 1, -1)
                t.compare_packed(key, inf, at_inf[n + m], product, w, "infinity")
        del kernel, at_inf
    return t.report(
        "chu-neg", f"b in {_fmt(bases)}, carry-free pairs with n+m <= {n_max}, k <= {k_max}"
    )


def check_chu_mixed(
    bases: Iterable[int] = (2, 3, 4, 5, 6), n_max: int = 60, k_max: int = 120
) -> IdentityReport:
    """Convolutions mixing one negative and one positive upper entry,
    for 0 < m < n with m + (n-m) carry-free.

    (1) 0 <= k <= n-m, both expansions of f_{-m}:
        binom(n-m,k) = sum_{j=0}^{k} binom(n,k-j) binom(-m,j)
                     = sum_{s=k+1}^{n} binom(n,s) binom(-m,k-s)
    (2) k >= 0:     binom(-n+m,k)  = sum_j binom(-n,k-j) binom(m,j)
    (3) k >= n-m:   binom(-n+m,-k) = sum_j binom(-n,-k-j) binom(m,j)

    In (2) and (3) the sum runs over the full support j in [0, m] of
    the polynomial f_m; truncating (3) at j = k would lose terms
    whenever k < m.  In the second form of (1), terms with s < k + m
    vanish (the factor falls in the band where every value is 0).

    Each sum is one exact product of packed tables (see digits.pack).
    f_s is palindromic: d_s is its own reverse, and slot r of the
    partition row of -s is binom(-s, -s - r).  So the second form of (1)
    is d_n times the partition row of -m, read at slot n - m - k against
    d_{n-m}, and (2) and (3) share the product of the kernel table of -n
    with d_m, read at slot k and r = k - (n - m): three products per
    split.  Every infinity side reads the partition sum, so a kernel
    fault cannot cancel against itself there.  Per base, n_max each of
    d_s, kernel rows of max(n_max, k_max) + 1 entries and partition rows
    of max(k_max, n_max - s) + 1 are packed once, and freed after it.
    """
    bases = tuple(bases)
    t, span, zero = _Tally(), max(n_max, k_max), range(max(k_max + 1, 0))
    for b in bases:
        pos = {s: row(s, b, range(s + 1)) for s in range(1, n_max + 1)}
        kernel = {s: row(-s, b, range(span + 1)) for s in pos}
        at_inf = {s: row(-s, b, range(max(k_max, n_max - s) + 1), Method.PARTITION) for s in pos}
        w, sums = _pack_tables(kernel, at_inf, pos), digit_sum_table(max(n_max, 0), b)
        for n in range(2, n_max + 1):
            digits.charge(n - 1)  # the carry tests
            for m in range(1, n):
                if sums[m] + sums[n - m] != sums[n]:  # m + (n - m) carries
                    t.skipped += 1
                    continue
                key, ks, neg = (b, n, m), range(n - m + 1), _product(kernel[n], pos[m])
                t.compare_packed(key, ks, pos[n - m], _product(pos[n], kernel[m]), w, "pos-j")
                t.compare_packed(key, ks[::-1], pos[n - m], _product(pos[n], at_inf[m]), w, "pos-s")
                t.compare_packed(key, zero, kernel[n - m], neg, w, "neg-zero")
                inf = range(-(n - m), -(n - m) - len(zero), -1)
                t.compare_packed(key, inf, at_inf[n - m], neg, w, "neg-inf")
        del kernel, at_inf, pos
    return t.report(
        "chu-mixed", f"b in {_fmt(bases)}, carry-free splits of n <= {n_max}, k <= {k_max}"
    )


def check_lucas(
    primes: Iterable[int] = (2, 3, 5, 7), n_max: int = 60, k_max: int = 120
) -> IdentityReport:
    """classic_binom(n,k) = binom(n,k)_p (mod p) over all four sign
    quadrants; residues compare in [0, p)."""
    primes = tuple(primes)
    t = _Tally()
    ks = range(-k_max, k_max + 1)
    for p in primes:
        for n in range(-n_max, n_max + 1):
            lhs = [v % p for v in _classic_row(n, ks)]
            t.compare((p, n), ks, lhs, [v % p for v in row(n, p, ks)])
    return t.report("lucas", f"p in {_fmt(primes)}, |n| <= {n_max}, |k| <= {k_max}")


def check_digit_sum_aggregation(
    bases: Iterable[int] = (2, 3, 4, 5, 6), n_max: int = 200
) -> IdentityReport:
    """C(S_b(n), j) = sum of binom(n,k)_b over 0 <= k <= n with
    S_b(k) = j, for positive n.  A nonzero binom(n,k)_b forces k's
    digits below n's, so no digit sum outside [0, S_b(n)] contributes.
    """
    bases = tuple(bases)
    t = _Tally()
    for b in bases:
        digit_sums = digit_sum_table(max(n_max, 0), b)
        for n in range(1, n_max + 1):
            total = digit_sums[n]
            sums = [0] * (total + 1)
            for k, v in enumerate(row(n, b, range(n + 1))):
                if v:
                    sums[digit_sums[k]] += v
            js = range(total + 1)
            t.compare((b, n), js, _classic_row(total, js), sums)
    return t.report("aggregation", f"b in {_fmt(bases)}, n in [1,{n_max}], all j")


def check_star_pascal(
    bases: Iterable[int] = (2, 3, 4, 5, 6), n_max: int = 200, k_max: int = 200
) -> IdentityReport:
    """star(-n,k) + star(-n,k-1) = star(-n+1,k) for positive n, k with
    b∤n and b∤k."""
    return _step_one("star", bases, n_max, k_max)


def check_dstar_pascal(
    bases: Iterable[int] = (2, 3, 4, 5, 6), n_max: int = 200, k_max: int = 200
) -> IdentityReport:
    """Same recurrence for the digit-sum coefficient."""
    return _step_one("dstar", bases, n_max, k_max)


def _step_one(variant: str, bases: Iterable[int], n_max: int, k_max: int) -> IdentityReport:
    """The step-one recurrence (see _pascal) at every n in [1, n_max] with
    b∤n: std over |k| <= k_max, a star variant over k in [1, k_max] with b∤k."""
    bases = tuple(bases)
    t, std = _Tally(), variant == "std"
    for b in bases:
        ks = range(-k_max, k_max + 1) if std else [k for k in range(1, k_max + 1) if k % b]
        step = _pascal(t, variant, b, ks)
        for n in range(1, n_max + 1):
            if n % b:
                step((b, n), n, 1)
    name, domain = f"{variant}-pascal", f"n,k in [1,{n_max}]x[1,{k_max}] with b∤n, b∤k"
    if std:
        name, domain = "pascal", f"n in [1,{n_max}] with b∤n, |k| <= {k_max}"
    return t.report(name, f"b in {_fmt(bases)}, {domain}")


def check_cross_oracle(
    bases: Iterable[int] = (2, 3, 4, 5, 6), n_max: int = 60, k_max: int = 120
) -> IdentityReport:
    """Series coefficient extraction against the partition sum.

    The two methods share only the digit expansion, so agreement over
    the grid is a strong end-to-end check of both.  Each n reads one
    expansion at zero, of k_max + 1 terms, and one partition table;
    f_|n| is palindromic, so each serves both sides.
    """
    bases = tuple(bases)
    t = _Tally()
    ks = range(-k_max, k_max + 1)
    for b in bases:
        for n in range(-n_max, 0):
            t.compare((b, n), ks, row(n, b, ks, Method.SERIES), row(n, b, ks, Method.PARTITION))
    return t.report("cross-oracle", f"b in {_fmt(bases)}, n in [-{n_max},-1], |k| <= {k_max}")


def pascal_defect_matrix(
    base: int, variant: str = "star", n_max: int = 10, k_max: int = 19
) -> tuple[tuple[int, ...], ...]:
    """Rows n = 1..n_max of v(-n,-k) + v(-n,-k-1) - v(-n+1,-k) over
    k = 1..k_max, where v is the chosen coefficient (std, star, or
    dstar); nonzero entries mark where the recurrence fails.  A table
    of more than MAX_TERMS entries raises ValueError before any row is
    built."""
    if variant not in _VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if min(n_max, k_max) < 1:
        raise ValueError(f"n_max and k_max must be at least 1, got {n_max} and {k_max}")
    if n_max * k_max > MAX_TERMS:
        raise ValueError(f"a table of {n_max} x {k_max} entries exceeds the limit of {MAX_TERMS}")
    t, ks = _Tally(), range(-1, -k_max - 1, -1)
    step = _pascal(t, variant, base, ks)
    for n in range(1, n_max + 1):
        step((n,), n, 1)
    defects = {w.inputs: w.lhs - w.rhs for w in t.failures}
    return tuple(tuple(defects.get((n, k), 0) for k in ks) for n in range(1, n_max + 1))


def table1_matrix() -> tuple[tuple[int, ...], ...]:
    """The 10 x 19 base-4 star defect matrix, as rows n = 1..10.

    The third term uses index -k, the Pascal form that matches the
    step-one recurrence; see the defect-matrix docstring.
    """
    return pascal_defect_matrix(4, "star", 10, 19)


def _fmt(values: Iterable[int]) -> str:
    return ",".join(str(v) for v in values)


@dataclass(frozen=True)
class SuiteSpec:
    """One registered sweep.  Its check sweeps either bases or primes;
    a driver reads which, and which bounds it takes, off the signature
    of func, which charges the open step meter as it works."""

    func: Callable[..., IdentityReport]


SUITES: dict[str, SuiteSpec] = {
    "symmetry": SuiteSpec(check_symmetry),
    "pascal": SuiteSpec(check_pascal),
    "pascal-power": SuiteSpec(check_pascal_power),
    "prop33": SuiteSpec(check_prop33),
    "chu-neg": SuiteSpec(check_chu_negative),
    "chu-mixed": SuiteSpec(check_chu_mixed),
    "lucas": SuiteSpec(check_lucas),
    "aggregation": SuiteSpec(check_digit_sum_aggregation),
    "star-pascal": SuiteSpec(check_star_pascal),
    "dstar-pascal": SuiteSpec(check_dstar_pascal),
    "cross-oracle": SuiteSpec(check_cross_oracle),
}
