"""Sweep-based verification of the identities the coefficients satisfy.

Every check_* function sweeps an explicit finite domain, compares both
sides of one identity with exact integer arithmetic, and returns an
IdentityReport carrying any counterexample witnesses.  Sweep defaults
are sized so the whole registry runs in well under a minute.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Callable, Iterable, Sequence

from .altdefs import dstar_binom, star_binom
from .bary import (
    bary_binom,
    bary_binom_series,
    partition_value_table,
    shift_subtract_table,
)
from .classic import classic_binom
from .digits import digit_sum, to_digits

# check_lucas reads its grid of about 29,000 keys past the cache (the
# lru_cache's __wrapped__), so the cache keeps the digit-sized keys the
# other sweeps share
_classic_uncached = classic_binom.__wrapped__


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


@dataclass(frozen=True)
class DefectMatrix:
    """Values of a Pascal-style expression; nonzero entries mark where
    the recurrence fails.  Rows are n = 1..rows, columns k = 1..cols."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise ValueError("entry grid does not match declared shape")

    def entry(self, n: int, k: int) -> int:
        if not (1 <= n <= self.rows and 1 <= k <= self.cols):
            raise ValueError(f"entry ({n}, {k}) outside {self.rows}x{self.cols} matrix")
        return self.entries[n - 1][k - 1]


def carry_free(n: int, m: int, b: int) -> bool:
    """True when adding n and m in base b carries in no digit position."""
    if n <= 0 or m <= 0:
        raise ValueError("carry_free is defined for positive n and m")
    if b < 2:
        raise ValueError(f"base must be >= 2, got {b}")
    # each carry lowers the digit sum of n + m by b - 1
    return digit_sum(n, b) + digit_sum(m, b) == digit_sum(n + m, b)


def _kernel_sides(n: int, b: int, span: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # f_|n| is palindromic: one table serves both expansion points
    table = shift_subtract_table(n, b, span)
    return table, table


def _partition_sides(n: int, b: int, span: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return partition_value_table(n, b, False, span), partition_value_table(n, b, True, span)


def _fn(n: int, b: int, span: int, sides=_kernel_sides) -> Callable[[int], int]:
    # point lookup binom(n, .)_b, table-backed for n < 0; sides gives the
    # zero-side table and the infinity-side table indexed from the start
    # of the support; span must bound |k| over every call the caller
    # will make
    if n >= 0:
        return lambda k, n=n, b=b: bary_binom(n, k, b)
    zero, inf = sides(n, b, span)
    size = -n

    def val(k: int) -> int:
        if k >= 0:
            return zero[k]
        r = -k - size
        return inf[r] if r >= 0 else 0

    return val


_VARIANTS = {"std": bary_binom, "star": star_binom, "dstar": dstar_binom}


def _variant_fn(variant: str, n: int, b: int) -> Callable[[int], int]:
    # point lookup v(n, .)_b for a coefficient variant; star and dstar
    # extend to n = 0, where the digit product degenerates to the empty
    # product: 1 at k = 0, else 0 (some digit of k exceeds 0)
    if n == 0:
        return lambda k: int(k == 0)
    coeff = _VARIANTS[variant]
    return lambda k: coeff(n, k, b)


def _pascal_step(
    val_n: Callable[[int], int], val_up: Callable[[int], int], n: int, step: int, ks: Sequence[int]
) -> tuple[int, list[tuple[int, int, int]]]:
    """Check v(-n,k) + v(-n,k-step) = v(-n+step,k) for k in ks, where
    val_n and val_up look up v(-n, .) and v(-n+step, .): the number of
    k checked, and (k, lhs, rhs) for each k where the sides differ.

    The single input (n, k) = (step, 0) is left out: there the k-step
    term is read from the expansion at infinity, whose support reaches
    -step only when n = step, while the right side degenerates to
    v(0, .).  Each one-sided expansion satisfies the recurrence;
    splicing them double counts at exactly that point.
    """
    if n == step:
        ks = [k for k in ks if k]
    lhs = [val_n(k) + val_n(k - step) for k in ks]
    rhs = [val_up(k) for k in ks]
    if lhs == rhs:
        return len(ks), []
    return len(ks), [(k, l, r) for k, l, r in zip(ks, lhs, rhs) if l != r]


def check_symmetry(
    bases: Iterable[int] = (2, 3, 4, 5, 6), n_max: int = 60, k_max: int = 120
) -> IdentityReport:
    """binom(n, k)_b = binom(n, n - k)_b for every integer pair.

    For n < 0 the left side reads the shift-subtract table and the right
    side the partition sum, so the kernel's palindrome is never compared
    with itself.
    """
    failures: list[Witness] = []
    checked = 0
    for b in bases:
        span = n_max + k_max
        for n in range(-n_max, n_max + 1):
            val = _fn(n, b, span)
            mirror = _fn(n, b, span, _partition_sides)
            for k in range(-k_max, k_max + 1):
                lhs, rhs = val(k), mirror(n - k)
                checked += 1
                if lhs != rhs:
                    failures.append(Witness((b, n, k), lhs, rhs))
    return IdentityReport(
        "symmetry",
        f"b in {_fmt(bases)}, |n| <= {n_max}, |k| <= {k_max}",
        checked,
        tuple(failures),
    )


def check_pascal(
    bases: Iterable[int] = (2, 3, 4, 5, 6), n_max: int = 100, k_max: int = 200
) -> IdentityReport:
    """binom(-n,k)_b + binom(-n,k-1)_b = binom(-n+1,k)_b for b not
    dividing n.

    The single input (n, k) = (1, 0), where the two one-sided
    expansions splice (see _pascal_step), is counted as skipped.
    """
    failures: list[Witness] = []
    checked = skipped = 0
    ks = range(-k_max, k_max + 1)
    for b in bases:
        span = k_max + 1
        for n in range(1, n_max + 1):
            if n % b == 0:
                continue
            count, diffs = _pascal_step(_fn(-n, b, span), _fn(-n + 1, b, span), n, 1, ks)
            checked += count
            skipped += len(ks) - count
            failures += [Witness((b, n, k), lhs, rhs) for k, lhs, rhs in diffs]
    return IdentityReport(
        "pascal",
        f"b in {_fmt(bases)}, n in [1,{n_max}] with b∤n, |k| <= {k_max}",
        checked,
        tuple(failures),
        skipped,
    )


def check_pascal_power(
    bases: Iterable[int] = (2, 3, 4, 5), n_max: int = 80, k_max: int = 160
) -> IdentityReport:
    """binom(-n,k)_b + binom(-n,k-b^s)_b = binom(-n+b^s,k)_b whenever
    digit s of n is nonzero.

    Skips (n, k) = (b^s, 0) for the same branch-splice reason as the
    step-one recurrence: it is the s = 0 exception rescaled.
    """
    failures: list[Witness] = []
    checked = skipped = 0
    ks = range(-k_max, k_max + 1)
    for b in bases:
        for n in range(1, n_max + 1):
            val_n = None
            for s, d in enumerate(to_digits(n, b)):
                if d == 0:
                    continue
                step = b**s
                span = k_max + step
                if val_n is None:
                    val_n = _fn(-n, b, span)
                count, diffs = _pascal_step(val_n, _fn(-n + step, b, span), n, step, ks)
                checked += count
                skipped += len(ks) - count
                failures += [Witness((b, n, s, k), lhs, rhs) for k, lhs, rhs in diffs]
    return IdentityReport(
        "pascal-power",
        f"b in {_fmt(bases)}, n in [1,{n_max}], s over nonzero digits, |k| <= {k_max}",
        checked,
        tuple(failures),
        skipped,
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
    """
    failures: list[Witness] = []
    checked = 0
    for b in bases:
        for n in range(b, n_max + 1, b):
            s = next(i for i, d in enumerate(to_digits(n, b)) if d)
            bs = b**s
            span = n + bs + k_max
            lhs_val = _fn(-n + bs, b, span)
            for m in range(s):
                bm = b**m
                weights = [
                    (j, bary_binom(bs - bm, j, b)) for j in range(0, bs + 1, bm)
                ]
                weights = [(j, w) for j, w in weights if w]
                rhs_val = _fn(-n + bm, b, span)
                k_window = list(range(bs, bs + k_max + 1)) + list(
                    range(-n + bm - k_max, -n + bm + 1)
                )
                for k in k_window:
                    rhs = sum(w * rhs_val(k - j) for j, w in weights)
                    lhs = lhs_val(k)
                    checked += 1
                    if lhs != rhs:
                        failures.append(Witness((b, n, s, m, k), lhs, rhs))
    return IdentityReport(
        "prop33",
        f"b in {_fmt(bases)}, n multiples of b up to {n_max}, all (s,m), "
        f"k windows of width {k_max}",
        checked,
        tuple(failures),
    )


def _convolve(a: Sequence[int], b: Sequence[int], size: int) -> list[int]:
    """Coefficients 0..size-1 of the product of the polynomials a and b.

    Kronecker substitution: each operand is packed into one int with a
    slot of w bytes per coefficient, the two ints are multiplied
    exactly, and the product's slots are read back.  No coefficient of
    the product exceeds max|a| * max|b| * min(len(a), len(b)) in
    magnitude, and w is the least width that holds that bound and every
    operand coefficient as a signed value.  Every slot is offset by half
    its range, so each holds a value in [0, 2^(8w)) and no borrow
    crosses a slot boundary.
    """
    a, b = a[:size], b[:size]
    if size <= 0 or not a or not b:
        return [0] * max(size, 0)
    top_a, top_b = max(map(abs, a)), max(map(abs, b))
    bound = max(top_a * top_b * min(len(a), len(b)), top_a, top_b)
    w = bound.bit_length() // 8 + 1
    half = 1 << (8 * w - 1)
    slot = bytes(w - 1) + b"\x80"  # half, little-endian

    def pack(c: Sequence[int]) -> int:
        packed = b"".join([(x + half).to_bytes(w, "little") for x in c])
        return int.from_bytes(packed, "little") - int.from_bytes(slot * len(c), "little")

    product = pack(a) * pack(b) + int.from_bytes(slot * size, "little")
    data = (product % (1 << (8 * w * size))).to_bytes(w * size, "little")
    return [int.from_bytes(data[i : i + w], "little") - half for i in range(0, w * size, w)]


class _Tables(dict):
    """Sweep-local map from a size s to its table, built on first use.

    A sweep makes one per base and drops it when the base ends, so it
    holds at most one table per size and nothing outlives the base.
    """

    def __init__(self, build: Callable[[int], list[int]]):
        super().__init__()
        self._build = build

    def __missing__(self, s: int) -> list[int]:
        table = self[s] = self._build(s)
        return table


def _chu_tables(b: int, span: int, k_max: int) -> tuple[_Tables, _Tables]:
    # kernel[s][r] = binom(-s, r)_b for r <= span; at_inf[s][r] is the
    # partition sum for binom(-s, -s - r)_b, r <= k_max
    kernel = _Tables(lambda s: list(shift_subtract_table(-s, b, span)[: span + 1]))
    at_inf = _Tables(lambda s: list(partition_value_table(-s, b, True, k_max)[: k_max + 1]))
    return kernel, at_inf


def _mismatches(lhs: list[int], rhs: list[int], ks: range) -> list[int]:
    # indices in ks where the two sides differ; comparing slices keeps
    # the all-equal case out of the interpreter loop
    if not ks or lhs[ks.start : ks.stop] == rhs[ks.start : ks.stop]:
        return []
    return [k for k in ks if lhs[k] != rhs[k]]


def check_chu_negative(
    bases: Iterable[int] = (2, 3, 4, 5, 6), n_max: int = 60, k_max: int = 120
) -> IdentityReport:
    """Convolution of two negative upper entries, carry-free n + m.

    Zero side, k >= m:   binom(-n-m,k) = sum_{j=0}^{k} binom(-n,k-j) binom(-m,j)
    Infinity side, k >= n+m:
                         binom(-n-m,-k) = sum_{j=1}^{k-1} binom(-n,-k+j) binom(-m,-j)

    n_max bounds n + m.  Pairs are swept unordered (the identity is
    symmetric in n and m); pairs that carry are counted as skipped.

    Both right-hand sides are one exact big-integer product of the
    kernel tables of -n and -m (see _convolve): f_n is palindromic, so
    the infinity-side sum is that product's coefficient r = k - n - m.
    The zero side compares it with the kernel table of -(n+m), the
    infinity side with the partition sum, so a kernel fault cannot
    cancel against itself there.  Tables are built once per base:
    at most n_max + 1 kernel and partition tables of at most
    k_max + 1 entries, freed when the base ends.
    """
    failures: list[Witness] = []
    checked = skipped = 0
    for b in bases:
        kernel, at_inf = _chu_tables(b, k_max, k_max)
        for n in range(1, n_max // 2 + 1):
            for m in range(n, n_max - n + 1):
                if not carry_free(n, m, b):
                    skipped += 1
                    continue
                conv = _convolve(kernel[n], kernel[m], k_max + 1)
                zero, lhs = range(m, k_max + 1), kernel[n + m]
                for k in _mismatches(lhs, conv, zero):
                    failures.append(Witness((b, n, m, k, "zero"), lhs[k], conv[k]))
                inf, lhs = range(k_max - n - m + 1), at_inf[n + m]
                for r in _mismatches(lhs, conv, inf):
                    failures.append(Witness((b, n, m, -(r + n + m), "infinity"), lhs[r], conv[r]))
                checked += len(zero) + len(inf)
    return IdentityReport(
        "chu-neg",
        f"b in {_fmt(bases)}, carry-free pairs with n+m <= {n_max}, k <= {k_max}",
        checked,
        tuple(failures),
        skipped,
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

    Each sum is one exact big-integer product (see _convolve).  The
    second form of (1) is a correlation: the product of the reversed
    row d_n with the kernel table of -m, read at n - m - k.  (3) is the
    product of the kernel table of -n with the reversed row d_m, read
    at r = k - (n - m), and its left side is the partition sum, so a
    kernel fault cannot cancel against itself there.  Tables are built
    once per base: at most n_max + 1 kernel tables, partition tables
    and rows, each of at most max(n_max, k_max) + 1 entries, freed when
    the base ends.
    """
    failures: list[Witness] = []
    checked = skipped = 0
    for b in bases:
        kernel, at_inf = _chu_tables(b, max(n_max, k_max), k_max)
        row = _Tables(lambda s, b=b: [bary_binom(s, i, b) for i in range(s + 1)])
        for n in range(2, n_max + 1):
            d_n = row[n]
            for m in range(1, n):
                if not carry_free(m, n - m, b):
                    skipped += 1
                    continue
                pos, lhs = range(n - m + 1), row[n - m]
                j_form = _convolve(d_n, kernel[m], len(pos))
                s_form = _convolve(d_n[::-1], kernel[m], len(pos))[::-1]
                if lhs != j_form or lhs != s_form:
                    for k in pos:
                        if lhs[k] != j_form[k]:
                            failures.append(Witness((b, n, m, k, "pos-j"), lhs[k], j_form[k]))
                        if lhs[k] != s_form[k]:
                            failures.append(Witness((b, n, m, k, "pos-s"), lhs[k], s_form[k]))
                neg = range(k_max + 1)
                conv = _convolve(kernel[n], row[m], len(neg))
                lhs = kernel[n - m]
                for k in _mismatches(lhs, conv, neg):
                    failures.append(Witness((b, n, m, k, "neg-zero"), lhs[k], conv[k]))
                conv = _convolve(kernel[n], row[m][::-1], len(neg))
                lhs = at_inf[n - m]
                for r in _mismatches(lhs, conv, neg):
                    failures.append(Witness((b, n, m, -(r + n - m), "neg-inf"), lhs[r], conv[r]))
                checked += 2 * len(pos) + 2 * len(neg)
    return IdentityReport(
        "chu-mixed",
        f"b in {_fmt(bases)}, carry-free splits of n <= {n_max}, k <= {k_max}",
        checked,
        tuple(failures),
        skipped,
    )


def check_lucas(
    primes: Iterable[int] = (2, 3, 5, 7), n_max: int = 60, k_max: int = 120
) -> IdentityReport:
    """classic_binom(n,k) = binom(n,k)_p (mod p) over all four sign
    quadrants; residues compare in [0, p)."""
    failures: list[Witness] = []
    checked = 0
    for p in primes:
        for n in range(-n_max, n_max + 1):
            val = _fn(n, p, k_max)
            for k in range(-k_max, k_max + 1):
                lhs = _classic_uncached(n, k) % p
                rhs = val(k) % p
                checked += 1
                if lhs != rhs:
                    failures.append(Witness((p, n, k), lhs, rhs))
    return IdentityReport(
        "lucas",
        f"p in {_fmt(primes)}, |n| <= {n_max}, |k| <= {k_max}",
        checked,
        tuple(failures),
    )


def check_digit_sum_aggregation(
    bases: Iterable[int] = (2, 3, 4, 5, 6), n_max: int = 200
) -> IdentityReport:
    """C(S_b(n), j) = sum of binom(n,k)_b over 0 <= k <= n with
    S_b(k) = j, for positive n.  A nonzero binom(n,k)_b forces k's
    digits below n's, so no digit sum outside [0, S_b(n)] contributes.
    """
    failures: list[Witness] = []
    checked = 0
    for b in bases:
        for n in range(1, n_max + 1):
            total = digit_sum(n, b)
            sums = [0] * (total + 1)
            for k in range(n + 1):
                v = bary_binom(n, k, b)
                if v:
                    sums[digit_sum(k, b)] += v
            for j in range(total + 1):
                checked += 1
                if sums[j] != comb(total, j):
                    failures.append(Witness((b, n, j), comb(total, j), sums[j]))
    return IdentityReport(
        "aggregation",
        f"b in {_fmt(bases)}, n in [1,{n_max}], all j",
        checked,
        tuple(failures),
    )


def check_star_pascal(
    bases: Iterable[int] = (2, 3, 4, 5, 6), n_max: int = 200, k_max: int = 200
) -> IdentityReport:
    """star(-n,k) + star(-n,k-1) = star(-n+1,k) for positive n, k with
    b∤n and b∤k."""
    return _alt_pascal("star", bases, n_max, k_max)


def check_dstar_pascal(
    bases: Iterable[int] = (2, 3, 4, 5, 6), n_max: int = 200, k_max: int = 200
) -> IdentityReport:
    """Same recurrence for the digit-sum coefficient."""
    return _alt_pascal("dstar", bases, n_max, k_max)


def _alt_pascal(variant, bases, n_max, k_max, sign=1) -> IdentityReport:
    # the step-one recurrence for a star variant at sign*k, k in [1,k_max]
    failures: list[Witness] = []
    checked = 0
    for b in bases:
        ks = [sign * k for k in range(1, k_max + 1) if k % b]
        for n in range(1, n_max + 1):
            if n % b == 0:
                continue
            val_n, val_up = _variant_fn(variant, -n, b), _variant_fn(variant, -n + 1, b)
            count, diffs = _pascal_step(val_n, val_up, n, 1, ks)
            checked += count
            failures += [Witness((b, n, k), lhs, rhs) for k, lhs, rhs in diffs]
    return IdentityReport(
        f"{variant}-pascal",
        f"b in {_fmt(bases)}, n,k in [1,{n_max}]x[1,{k_max}] with b∤n, b∤k",
        checked,
        tuple(failures),
    )


def find_star_negative_defects(base: int = 4, n_max: int = 10, k_max: int = 19) -> list[Witness]:
    """Counterexamples to the star recurrence at negative k.

    Returns every (n, k) in [1,n_max]x[1,k_max] with b∤n, b∤k where
    star(-n,-k) + star(-n,-k-1) != star(-n+1,-k).  Nonempty: the
    recurrence genuinely fails off the positive-k quadrant.
    """
    return list(_alt_pascal("star", (base,), n_max, k_max, sign=-1).failures)


def check_cross_oracle(
    bases: Iterable[int] = (2, 3, 4, 5, 6), n_max: int = 60, k_max: int = 120
) -> IdentityReport:
    """Series coefficient extraction against the partition sum.

    The two methods share only the digit expansion, so agreement over
    the grid is a strong end-to-end check of both.
    """
    failures: list[Witness] = []
    checked = 0
    for b in bases:
        for n in range(-n_max, 0):
            val = _fn(n, b, k_max, _partition_sides)
            for k in range(-k_max, k_max + 1):
                lhs = bary_binom_series(n, k, b)
                rhs = val(k)
                checked += 1
                if lhs != rhs:
                    failures.append(Witness((b, n, k), lhs, rhs))
    return IdentityReport(
        "cross-oracle",
        f"b in {_fmt(bases)}, n in [-{n_max},-1], |k| <= {k_max}",
        checked,
        tuple(failures),
    )


def pascal_defect_matrix(
    base: int, variant: str = "star", n_max: int = 10, k_max: int = 19
) -> DefectMatrix:
    """Matrix of v(-n,-k) + v(-n,-k-1) - v(-n+1,-k) over n, k >= 1,
    where v is the chosen coefficient (std, star, or dstar)."""
    if variant not in _VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    ks = range(-1, -k_max - 1, -1)
    rows = []
    for n in range(1, n_max + 1):
        val_n, val_up = _variant_fn(variant, -n, base), _variant_fn(variant, -n + 1, base)
        _, diffs = _pascal_step(val_n, val_up, n, 1, ks)
        defects = {k: lhs - rhs for k, lhs, rhs in diffs}
        rows.append(tuple(defects.get(k, 0) for k in ks))
    return DefectMatrix(n_max, k_max, tuple(rows))


def table1_matrix() -> DefectMatrix:
    """The 10 x 19 base-4 star defect matrix.

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
    of func."""

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
