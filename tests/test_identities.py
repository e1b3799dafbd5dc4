import inspect
import random
from collections import Counter

import pytest

from hypothesis import example, given, settings, strategies as st

from barybinom import bary, digits, identities, series
from barybinom.altdefs import star_binom
from barybinom.bary import (
    Method,
    bary_binom,
    partition_value_table,
    series_table,
    shift_subtract_table,
)
from barybinom.classic import classic_binom
from barybinom.digits import digit_sum_table, to_digits
from barybinom.identities import (
    SUITES,
    IdentityReport,
    SuiteSpec,
    Witness,
    check_chu_mixed,
    check_chu_negative,
    check_cross_oracle,
    check_digit_sum_aggregation,
    check_dstar_pascal,
    check_lucas,
    check_pascal,
    check_pascal_power,
    check_prop33,
    check_star_pascal,
    check_symmetry,
    pascal_defect_matrix,
    table1_matrix,
)
from barybinom.series import ExpansionPoint, gf_expand

SMALL_SWEEPS = [
    pytest.param(lambda: check_symmetry(bases=(2, 3), n_max=12, k_max=24), id="symmetry"),
    pytest.param(lambda: check_pascal(bases=(2, 3), n_max=12, k_max=24), id="pascal"),
    pytest.param(lambda: check_pascal_power(bases=(2, 3), n_max=12, k_max=24), id="pascal-power"),
    pytest.param(lambda: check_prop33(bases=(2, 3), n_max=18, k_max=12), id="prop33"),
    pytest.param(lambda: check_chu_negative(bases=(2, 3), n_max=14, k_max=28), id="chu-neg"),
    pytest.param(lambda: check_chu_mixed(bases=(2, 3), n_max=12, k_max=24), id="chu-mixed"),
    pytest.param(lambda: check_lucas(primes=(2, 3), n_max=10, k_max=20), id="lucas"),
    pytest.param(lambda: check_digit_sum_aggregation(bases=(2, 3), n_max=40), id="aggregation"),
    pytest.param(lambda: check_star_pascal(bases=(2, 5), n_max=30, k_max=30), id="star-pascal"),
    pytest.param(lambda: check_dstar_pascal(bases=(2, 5), n_max=30, k_max=30), id="dstar-pascal"),
    pytest.param(lambda: check_cross_oracle(bases=(2, 3), n_max=10, k_max=20), id="cross-oracle"),
]


@pytest.mark.parametrize("sweep", SMALL_SWEEPS)
def test_small_sweep_passes(sweep):
    r = sweep()
    assert r.checked_count > 0
    assert r.passed, r.failures[:3]


def test_lucas_reads_its_grid_past_the_classic_cache():
    # only the digit products' keys stay cached: pairs of base-7 digits
    classic_binom.cache_clear()
    r = check_lucas(primes=(7,), n_max=60, k_max=120)
    assert r.passed and r.checked_count == 121 * 241
    assert classic_binom.cache_info().currsize <= 13 * 13


def carry_free_literal(n, m, b):
    """Digit-by-digit schoolbook addition: no column reaches b."""
    while n or m:
        n, dn = divmod(n, b)
        m, dm = divmod(m, b)
        if dn + dm >= b:
            return False
    return True


def test_carry_free_examples():
    # the chu sweeps' rule: n + m carries nowhere when S[n] + S[m] == S[n + m]
    for n, m, free in ((1, 2, True), (3, 1, False), (5, 10, True), (21, 42, True)):
        assert carry_free_literal(n, m, 4) is free
    assert not carry_free_literal(1, 1, 2)
    for b in range(2, 8):
        S = digit_sum_table(200, b)
        for n in range(1, 101):
            for m in range(1, 101):
                assert (S[n] + S[m] == S[n + m]) == carry_free_literal(n, m, b), (n, m, b)


def test_aggregation_reads_its_digit_sums_from_one_table(monkeypatch):
    def refused(*args):
        raise AssertionError("digit_sum was called")

    assert not hasattr(identities, "digit_sum")
    monkeypatch.setattr(digits, "digit_sum", refused)
    r = check_digit_sum_aggregation(bases=(2, 3, 7), n_max=60)
    assert r.passed and r.checked_count > 0


def test_pascal_skips_exactly_the_splice_point():
    # base 2, n in {1}, k in [-3,3]: seven grid points, one skipped
    r = check_pascal(bases=(2,), n_max=2, k_max=3)
    assert r.passed
    assert r.checked_count == 6
    assert r.skipped_count == 1


def test_pascal_power_skips_one_point_per_power():
    r = check_pascal_power(bases=(2,), n_max=4, k_max=8)
    assert r.passed
    assert r.skipped_count == 3  # n = 1, 2, 4


def test_prop33_builds_one_kernel_table_per_shifted_row(monkeypatch):
    # the right side is one row of -n + b^m, b^s + k_max + 1 entries long,
    # times f_{b^s - b^m}: no weight j shifts it, so each shifted row's
    # table is built once, (-999, 10) included
    builds = Counter()
    real = series._shift_subtract

    def counting(n, b, size):
        builds[n, b] += 1
        return real(n, b, size)

    monkeypatch.setattr(series, "_shift_subtract", counting)
    report = check_prop33(bases=(10,), n_max=1000, k_max=64)
    assert report.passed and (report.checked_count, report.skipped_count) == (14430, 0)
    zeros = {n: next(i for i, d in enumerate(to_digits(n, 10)) if d) for n in range(10, 1001, 10)}
    shifted = {-n + 10**m for n, s in zeros.items() for m in range(s)}
    # a left row -n + b^s can coincide with another (n, m)'s shifted row
    left = {-n + 10**s for n, s in zeros.items()}
    assert builds[-999, 10] == 1
    assert [key for key in shifted - left if builds[key, 10] != 1] == []


def prop33_reference(bases, n_max, k_max):
    """The paper's weighted sum for prop33, read point by point, with the
    weights binom(b^s - b^m, j)_b, kept as an oracle."""
    failures, checked = [], 0
    for b in bases:
        for n in range(b, n_max + 1, b):
            s = next(i for i, d in enumerate(to_digits(n, b)) if d)
            for m in range(s):
                bs, bm = b**s, b**m
                weights = [(j, bary_binom(bs - bm, j, b)) for j in range(0, bs + 1, bm)]
                for k in [*range(bs, bs + k_max + 1), *range(-n + bm - k_max, -n + bm + 1)]:
                    lhs = bary_binom(-n + bs, k, b)
                    rhs = sum(w * bary_binom(-n + bm, k - j, b) for j, w in weights)
                    checked += 1
                    if lhs != rhs:
                        failures.append(Witness((b, n, s, m, k), lhs, rhs))
    return IdentityReport(
        "prop33",
        f"b in {','.join(map(str, bases))}, n multiples of b up to {n_max}, all (s,m), "
        f"k windows of width {k_max}",
        checked,
        tuple(failures),
    )


# (-12, 3) is only ever a left row -n + b^s (n = 15, s = 1) and (-11, 3)
# only a shifted row -n + b^m (n = 12, s = 1, m = 0) at n_max = 24
@pytest.mark.parametrize("fault", [None, (-12, 3), (-11, 3)], ids=["exact", "left", "shifted"])
def test_prop33_matches_the_weighted_sum(monkeypatch, fault):
    real = bary.shift_subtract_table

    def faulty(n, b, limit):
        table = real(n, b, limit)
        if (n, b) == fault:
            table = table[:5] + (table[5] + 1,) + table[6:]
        return table

    monkeypatch.setattr(bary, "shift_subtract_table", faulty)
    bases = (2, 3, 4)
    report = check_prop33(bases, 24, 12)
    assert report == prop33_reference(bases, 24, 12)
    assert report.checked_count > 0 and report.passed is (fault is None)


def test_chu_negative_counts_carrying_pairs_as_skipped():
    r = check_chu_negative(bases=(2,), n_max=6, k_max=12)
    assert r.passed
    assert r.skipped_count > 0


def test_one_wrong_kernel_entry_is_caught_and_cross_oracle_does_not_read_it(monkeypatch):
    # symmetry compares the kernel with the partition sum, so a fault in
    # the kernel's palindrome cannot cancel against itself there
    real = bary.shift_subtract_table

    def faulty(n, b, limit):
        table = real(n, b, limit)
        if (n, b) == (-7, 3):
            table = table[:5] + (table[5] + 1,) + table[6:]
        return table

    monkeypatch.setattr(bary, "shift_subtract_table", faulty)
    for sweep in (
        lambda: check_symmetry(bases=(3,), n_max=12, k_max=24),
        lambda: check_pascal(bases=(3,), n_max=12, k_max=24),
    ):
        assert not sweep().passed
    # the infinity sides compare the kernel's product with the partition
    # sum, so they report the fault on their own
    for sweep, branch in (
        (lambda: check_chu_negative(bases=(3,), n_max=14, k_max=28), "infinity"),
        (lambda: check_chu_mixed(bases=(3,), n_max=14, k_max=28), "neg-inf"),
    ):
        branches = [w.inputs[-1] for w in sweep().failures]
        assert branch in branches
        assert len(branches) > branches.count(branch)
    assert check_cross_oracle(bases=(3,), n_max=10, k_max=20).passed


def faulty_partition_table(monkeypatch):
    # entry 5 of the (-7, 3) partition table is off by one
    real = bary.partition_value_table

    def faulty(n, b, limit):
        table = real(n, b, limit)
        if (n, b) == (-7, 3):
            table = table[:5] + (table[5] + 1,) + table[6:]
        return table

    monkeypatch.setattr(bary, "partition_value_table", faulty)


def test_one_wrong_partition_entry_shows_exactly_where_the_partition_sum_is_read(monkeypatch):
    faulty_partition_table(monkeypatch)
    assert not check_symmetry(bases=(3,), n_max=12, k_max=24).passed
    assert not check_cross_oracle(bases=(3,), n_max=10, k_max=20).passed
    for sweep, branch in (
        (lambda: check_chu_negative(bases=(3,), n_max=14, k_max=28), "infinity"),
        (lambda: check_chu_mixed(bases=(3,), n_max=14, k_max=28), "neg-inf"),
    ):
        failures = sweep().failures
        assert failures
        assert {w.inputs[-1] for w in failures} == {branch}
    for sweep in (
        lambda: check_pascal(bases=(3,), n_max=12, k_max=24),
        lambda: check_pascal_power(bases=(3,), n_max=12, k_max=24),
        lambda: check_lucas(primes=(3,), n_max=10, k_max=20),
    ):
        assert sweep().passed


def test_the_second_form_of_the_first_mixed_convolution_reads_the_partition_sum(monkeypatch):
    # binom(-m, k - s) at k - s < 0 is read on the infinity side: one
    # wrong entry of the partition table of -1 shows in pos-s (m = 1)
    # and neg-inf (n - m = 1), and in no branch that reads the kernel
    real = bary.partition_value_table

    def faulty(n, b, limit):
        table = real(n, b, limit)
        if (n, b) == (-1, 3):
            table = table[:2] + (table[2] + 1,) + table[3:]
        return table

    monkeypatch.setattr(bary, "partition_value_table", faulty)
    failures = check_chu_mixed(bases=(3,), n_max=14, k_max=28).failures
    assert {w.inputs[-1] for w in failures} == {"pos-s", "neg-inf"}
    # the reference's s_form reads the same table: same witnesses, each
    # at its own k (the sweep lists them from k = n - m down)
    monkeypatch.setitem(globals(), "partition_value_table", faulty)
    want = chu_mixed_reference((3,), 14, 28).failures
    pos_s = [w for w in failures if w.inputs[-1] == "pos-s"]
    assert sorted(pos_s, key=str) == sorted((w for w in want if w.inputs[-1] == "pos-s"), key=str)
    assert {w.inputs[2] for w in pos_s} == {1}


def test_one_wrong_series_coefficient_shows_only_in_cross_oracle(monkeypatch):
    real = bary.series_table

    def faulty(n, b, limit):
        table = real(n, b, limit)
        if (n, b) == (-7, 3):
            table = table[:5] + (table[5] + 1,) + table[6:]
        return table

    monkeypatch.setattr(bary, "series_table", faulty)
    r = check_cross_oracle(bases=(3,), n_max=10, k_max=20)
    # one expansion at zero serves both sides: entry 5 is k = 5 and k = -12
    assert [w.inputs for w in r.failures] == [(3, -7, -12), (3, -7, 5)]
    assert check_symmetry(bases=(3,), n_max=12, k_max=24).passed


def test_sweeps_build_one_partition_table_and_one_expansion_per_n(monkeypatch):
    calls = []
    for name in ("partition_value_table", "series_table"):
        real = getattr(bary, name)

        def counted(n, b, limit, name=name, real=real):
            calls.append((name, n))
            return real(n, b, limit)

        monkeypatch.setattr(bary, name, counted)
    assert check_symmetry(bases=(3,), n_max=12, k_max=24).passed
    assert calls == [("partition_value_table", n) for n in range(-12, 0)]
    calls.clear()
    assert check_cross_oracle(bases=(3,), n_max=10, k_max=20).passed
    assert calls == [
        (name, n) for n in range(-10, 0) for name in ("series_table", "partition_value_table")
    ]


def test_symmetry_then_cross_oracle_build_each_partition_table_once(monkeypatch):
    # both read the partition table of every n in [-10, -1] at base 3, of
    # 64 terms; the partition cache keeps them between the two sweeps
    builds = []
    real = bary._value_table

    def counted(n, b, size):
        builds.append((n, b, size))
        return real(n, b, size)

    monkeypatch.setattr(bary, "_value_table", counted)
    bary._partition_cache.cache_clear()
    assert check_symmetry(bases=(3,), n_max=10, k_max=20).passed
    assert check_cross_oracle(bases=(3,), n_max=10, k_max=20).passed
    assert builds == [(n, 3, 64) for n in range(-10, 0)]
    bary._partition_cache.cache_clear()


def test_symmetry_and_cross_oracle_report_a_fault_in_the_shared_packer(monkeypatch):
    # digits.pack also packs the chu tables, but of the three routes only
    # the partition sum multiplies packed polynomials: a wrong slot 5
    # corrupts the partition tables, which the kernel and the series
    # route, which never pack, then disagree with
    real = digits.pack

    def faulty(c, w):
        c = list(c)
        if len(c) > 5:
            c[5] += 1
        return real(c, w)

    monkeypatch.setattr(digits, "pack", faulty)
    bary._cache.cache_clear()
    bary._partition_cache.cache_clear()
    for check in (check_symmetry, check_cross_oracle):
        report = check(bases=(3,), n_max=10, k_max=20)
        assert report.checked_count > 0 and len(report.failures) == 32, check
    monkeypatch.undo()
    bary._cache.cache_clear()
    bary._partition_cache.cache_clear()
    assert check_symmetry(bases=(3,), n_max=10, k_max=20).passed


@pytest.mark.parametrize("method", Method, ids=lambda m: m.value)
def test_row_matches_the_point_route_of_its_source(method):
    # the partition route is defined for n < 0 only; every route's row
    # reads the digit product for n >= 0
    ascending = range(-50, 51)
    for b in range(2, 8):
        for n in range(-40, 41):
            route = method if n < 0 else Method.AUTO
            for ks in (
                ascending,
                [n - k for k in ascending],  # the mirror, descending
                [],
                range(n + 1, 0),  # inside the band n < k < 0 only
                [n - 3],
            ):
                want = [bary_binom(n, k, b, route) for k in ks]
                assert bary.row(n, b, ks, method) == want, (b, n, ks)


def test_a_wrong_but_multiplicative_kernel_shows_on_the_infinity_side(monkeypatch):
    # a kernel that returns the coefficients of (1+x)^n ignores the base,
    # yet still satisfies f_{n+m} = f_n * f_m; the zero side of chu-neg
    # compares the kernel with itself and cannot see it, the infinity
    # side compares it with the partition sum
    def base_blind(n, b, limit):
        return tuple(classic_binom(n, r) for r in range(limit + 1))

    monkeypatch.setattr(bary, "shift_subtract_table", base_blind)
    r = check_chu_negative(bases=(3,), n_max=14, k_max=28)
    assert r.failures
    assert {w.inputs[-1] for w in r.failures} == {"infinity"}


def schoolbook(a, b, size):
    out = [0] * size
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < size:
                out[i + j] += x * y
    return out


COEFFS = st.lists(
    st.one_of(st.integers(-3, 3), st.integers(-(2**100), 2**100)), max_size=12
)


def seeded(length, bits, seed):
    # length coefficients in [-2**bits, 2**bits]
    rng = random.Random(seed)
    return [rng.randint(-(2**bits), 2**bits) for _ in range(length)]


@settings(deadline=None)
@given(COEFFS, COEFFS, st.integers(0, 30))
@example([], [1, 2], 3)
@example([5], [-7], 1)
@example([0, 0, 0], [0, 0], 4)
@example([0], [128], 1)
@example([-(2**64)] * 5, [2**64] * 5, 9)
@example([2**63 - 1, -(2**63)], [-(2**63), 2**63 - 1], 2)
@example([1, 2, 3], [4, 5, 6], 0)
# lists of up to 20,000 slots, at slot widths from 16 to about 1,000
# bits: packing is linear in the slots, and the schoolbook product of a
# long list by a short one is cheap; one-slot changes are tried at the
# top slot below size only
@example(seeded(20_000, 0, 1), seeded(5, 0, 2), 20_004)
@example(seeded(19_999, 40, 3), seeded(12, 40, 4), 19_000)
@example(seeded(20_000, 250, 5), seeded(3, 250, 6), 20_002)
@example(seeded(5, 250, 7), seeded(20_000, 1, 8), 20_004)
def test_packed_product_matches_the_schoolbook_product(a, b, size):
    # at the width _pack_tables picks, the product of two packed lists
    # decodes to the schoolbook product, and the masked compare flags a
    # change of one slot at every position below size and none above
    assert (digits.slot_width(127), digits.slot_width(128)) == (8, 16)
    exact = schoolbook(a, b, size)
    packed = {0: a, 1: b}
    w = identities._pack_tables(packed)
    assert packed == {0: digits.pack(a, w), 1: digits.pack(b, w)}
    assert digits.unpack(packed[0] * packed[1], w, size) == exact

    def witnesses(lhs):
        packed = {0: a, 1: b, 2: lhs}
        w = identities._pack_tables(packed)
        t = identities._Tally()
        t.compare_packed((), range(size), packed[2], packed[0] * packed[1], w, "x")
        assert t.checked == size
        return [(v.inputs, v.lhs, v.rhs) for v in t.failures]

    assert witnesses(exact + [1]) == []
    for i in range(size) if size <= 30 else (size - 1,):
        for delta in (1, -1, 2**70):
            changed = exact.copy()
            changed[i] += delta
            assert witnesses(changed) == [((i, "x"), changed[i], exact[i])]


def chu_negative_reference(bases, n_max, k_max):
    """The sum-per-coefficient chu-neg loops, kept as an oracle."""
    failures = []
    checked = skipped = 0
    for b in bases:
        for n in range(1, n_max // 2 + 1):
            for m in range(n, n_max - n + 1):
                if not carry_free_literal(n, m, b):
                    skipped += 1
                    continue
                t_n = shift_subtract_table(-n, b, k_max)
                t_m = shift_subtract_table(-m, b, k_max)
                t_nm = shift_subtract_table(-(n + m), b, k_max)
                for k in range(m, k_max + 1):
                    rhs = sum(t_n[k - j] * t_m[j] for j in range(k + 1))
                    checked += 1
                    if t_nm[k] != rhs:
                        failures.append(Witness((b, n, m, k, "zero"), t_nm[k], rhs))
                for k in range(n + m, k_max + 1):
                    rhs = sum(t_n[k - j - n] * t_m[j - m] for j in range(m, k - n + 1))
                    lhs = t_nm[k - n - m]
                    checked += 1
                    if lhs != rhs:
                        failures.append(Witness((b, n, m, -k, "infinity"), lhs, rhs))
    return IdentityReport(
        "chu-neg",
        f"b in {','.join(map(str, bases))}, carry-free pairs with n+m <= {n_max}, k <= {k_max}",
        checked,
        tuple(failures),
        skipped,
    )


def chu_mixed_reference(bases, n_max, k_max):
    """The sum-per-coefficient chu-mixed loops, kept as an oracle."""
    failures = []
    checked = skipped = 0
    for b in bases:
        for n in range(2, n_max + 1):
            d_n = [bary_binom(n, i, b) for i in range(n + 1)]
            for m in range(1, n):
                if not carry_free_literal(m, n - m, b):
                    skipped += 1
                    continue
                t_m = shift_subtract_table(-m, b, n)
                # binom(-m, k - s) at k - s < 0: entry s - k - m of the partition sum
                p_m = partition_value_table(-m, b, n)
                d_m = [bary_binom(m, j, b) for j in range(m + 1)]
                for k in range(n - m + 1):
                    lhs = bary_binom(n - m, k, b)
                    j_form = sum(d_n[k - j] * t_m[j] for j in range(k + 1))
                    s_form = sum(d_n[s] * p_m[s - k - m] for s in range(k + m, n + 1))
                    checked += 2
                    if lhs != j_form:
                        failures.append(Witness((b, n, m, k, "pos-j"), lhs, j_form))
                    if lhs != s_form:
                        failures.append(Witness((b, n, m, k, "pos-s"), lhs, s_form))
                t_nm = shift_subtract_table(-(n - m), b, k_max)
                t_n = shift_subtract_table(-n, b, k_max)
                for k in range(k_max + 1):
                    rhs = sum(t_n[k - j] * d_m[j] for j in range(min(k, m) + 1))
                    checked += 1
                    if t_nm[k] != rhs:
                        failures.append(Witness((b, n, m, k, "neg-zero"), t_nm[k], rhs))
                for k in range(n - m, n - m + k_max + 1):
                    lhs = t_nm[k - (n - m)]
                    rhs = sum(
                        t_n[k + j - n] * d_m[j] for j in range(max(0, n - k), m + 1)
                    )
                    checked += 1
                    if lhs != rhs:
                        failures.append(Witness((b, n, m, -k, "neg-inf"), lhs, rhs))
    return IdentityReport(
        "chu-mixed",
        f"b in {','.join(map(str, bases))}, carry-free splits of n <= {n_max}, k <= {k_max}",
        checked,
        tuple(failures),
        skipped,
    )


@pytest.mark.parametrize("n_max, k_max", [(40, 5), (12, 40), (30, 30), (2, 3), (1, 1)])
@pytest.mark.parametrize(
    "sweep, reference",
    [
        pytest.param(check_chu_negative, chu_negative_reference, id="chu-neg"),
        pytest.param(check_chu_mixed, chu_mixed_reference, id="chu-mixed"),
    ],
)
def test_chu_sweeps_match_the_sum_per_coefficient_loops(sweep, reference, n_max, k_max):
    bases = (2, 3, 7)
    assert sweep(bases, n_max, k_max) == reference(bases, n_max, k_max)


# the witnesses (inputs, lhs, rhs) of chu-neg and chu-mixed at base 3,
# n_max 14, k_max 28, with one entry of a (-7, 3) table off by one; frozen
# from the earlier sweeps that convolved each pair's lists one by one
CHU_FAULT_WITNESSES = {
    "kernel5": (
        [
            ((3, 1, 7, 7, "zero"), -24, -23), ((3, 1, 7, 8, "zero"), 30, 29),
            ((3, 1, 7, 9, "zero"), -40, -39), ((3, 1, 7, 10, "zero"), 50, 49),
            ((3, 1, 7, 11, "zero"), -60, -59), ((3, 1, 7, 12, "zero"), 75, 74),
            ((3, 1, 7, 13, "zero"), -90, -89), ((3, 1, 7, 14, "zero"), 105, 104),
            ((3, 1, 7, 15, "zero"), -126, -125), ((3, 1, 7, 16, "zero"), 147, 146),
            ((3, 1, 7, 17, "zero"), -168, -167), ((3, 1, 7, 18, "zero"), 196, 195),
            ((3, 1, 7, 19, "zero"), -224, -223), ((3, 1, 7, 20, "zero"), 252, 251),
            ((3, 1, 7, 21, "zero"), -288, -287), ((3, 1, 7, 22, "zero"), 324, 323),
            ((3, 1, 7, 23, "zero"), -360, -359), ((3, 1, 7, 24, "zero"), 405, 404),
            ((3, 1, 7, 25, "zero"), -450, -449), ((3, 1, 7, 26, "zero"), 495, 494),
            ((3, 1, 7, 27, "zero"), -550, -549), ((3, 1, 7, 28, "zero"), 605, 604),
            ((3, 1, 7, -13, "infinity"), -12, -11), ((3, 1, 7, -14, "infinity"), 18, 17),
            ((3, 1, 7, -15, "infinity"), -24, -23), ((3, 1, 7, -16, "infinity"), 30, 29),
            ((3, 1, 7, -17, "infinity"), -40, -39), ((3, 1, 7, -18, "infinity"), 50, 49),
            ((3, 1, 7, -19, "infinity"), -60, -59), ((3, 1, 7, -20, "infinity"), 75, 74),
            ((3, 1, 7, -21, "infinity"), -90, -89), ((3, 1, 7, -22, "infinity"), 105, 104),
            ((3, 1, 7, -23, "infinity"), -126, -125), ((3, 1, 7, -24, "infinity"), 147, 146),
            ((3, 1, 7, -25, "infinity"), -168, -167), ((3, 1, 7, -26, "infinity"), 196, 195),
            ((3, 1, 7, -27, "infinity"), -224, -223), ((3, 1, 7, -28, "infinity"), 252, 251),
            ((3, 3, 4, 5, "zero"), -2, -3),
        ],
        [
            ((3, 7, 1, 5, "neg-zero"), 0, 1), ((3, 7, 1, 6, "neg-zero"), 3, 4),
            ((3, 7, 1, -11, "neg-inf"), 0, 1), ((3, 7, 1, -12, "neg-inf"), 3, 4),
            ((3, 7, 3, 5, "neg-zero"), -2, -1), ((3, 7, 3, 8, "neg-zero"), 3, 4),
            ((3, 7, 3, -9, "neg-inf"), -2, -1), ((3, 7, 3, -12, "neg-inf"), 3, 4),
            ((3, 7, 4, 5, "neg-zero"), 0, 1), ((3, 7, 4, 6, "neg-zero"), 1, 2),
            ((3, 7, 4, 8, "neg-zero"), 0, 1), ((3, 7, 4, 9, "neg-zero"), -1, 0),
            ((3, 7, 4, -8, "neg-inf"), 0, 1), ((3, 7, 4, -9, "neg-inf"), 1, 2),
            ((3, 7, 4, -11, "neg-inf"), 0, 1), ((3, 7, 4, -12, "neg-inf"), -1, 0),
            ((3, 7, 6, 5, "neg-zero"), -1, 0), ((3, 7, 6, 8, "neg-zero"), 1, 3),
            ((3, 7, 6, 11, "neg-zero"), -1, 0), ((3, 7, 6, -6, "neg-inf"), -1, 0),
            ((3, 7, 6, -9, "neg-inf"), 1, 3), ((3, 7, 6, -12, "neg-inf"), -1, 0),
            ((3, 8, 1, 5, "neg-zero"), -2, -3),
        ],
    ),
    "kernel2": (
        [
            ((3, 1, 7, 7, "zero"), -24, -25), ((3, 1, 7, 8, "zero"), 30, 31),
            ((3, 1, 7, 9, "zero"), -40, -41), ((3, 1, 7, 10, "zero"), 50, 51),
            ((3, 1, 7, 11, "zero"), -60, -61), ((3, 1, 7, 12, "zero"), 75, 76),
            ((3, 1, 7, 13, "zero"), -90, -91), ((3, 1, 7, 14, "zero"), 105, 106),
            ((3, 1, 7, 15, "zero"), -126, -127), ((3, 1, 7, 16, "zero"), 147, 148),
            ((3, 1, 7, 17, "zero"), -168, -169), ((3, 1, 7, 18, "zero"), 196, 197),
            ((3, 1, 7, 19, "zero"), -224, -225), ((3, 1, 7, 20, "zero"), 252, 253),
            ((3, 1, 7, 21, "zero"), -288, -289), ((3, 1, 7, 22, "zero"), 324, 325),
            ((3, 1, 7, 23, "zero"), -360, -361), ((3, 1, 7, 24, "zero"), 405, 406),
            ((3, 1, 7, 25, "zero"), -450, -451), ((3, 1, 7, 26, "zero"), 495, 496),
            ((3, 1, 7, 27, "zero"), -550, -551), ((3, 1, 7, 28, "zero"), 605, 606),
            ((3, 1, 7, -10, "infinity"), 3, 4), ((3, 1, 7, -11, "infinity"), -6, -7),
            ((3, 1, 7, -12, "infinity"), 9, 10), ((3, 1, 7, -13, "infinity"), -12, -13),
            ((3, 1, 7, -14, "infinity"), 18, 19), ((3, 1, 7, -15, "infinity"), -24, -25),
            ((3, 1, 7, -16, "infinity"), 30, 31), ((3, 1, 7, -17, "infinity"), -40, -41),
            ((3, 1, 7, -18, "infinity"), 50, 51), ((3, 1, 7, -19, "infinity"), -60, -61),
            ((3, 1, 7, -20, "infinity"), 75, 76), ((3, 1, 7, -21, "infinity"), -90, -91),
            ((3, 1, 7, -22, "infinity"), 105, 106), ((3, 1, 7, -23, "infinity"), -126, -127),
            ((3, 1, 7, -24, "infinity"), 147, 148), ((3, 1, 7, -25, "infinity"), -168, -169),
            ((3, 1, 7, -26, "infinity"), 196, 197), ((3, 1, 7, -27, "infinity"), -224, -225),
            ((3, 1, 7, -28, "infinity"), 252, 253),
        ],
        [
            ((3, 7, 1, 2, "neg-zero"), 0, 1), ((3, 7, 1, 3, "neg-zero"), -2, -1),
            ((3, 7, 1, -8, "neg-inf"), 0, 1), ((3, 7, 1, -9, "neg-inf"), -2, -1),
            ((3, 7, 3, 2, "neg-zero"), 1, 2), ((3, 7, 3, 5, "neg-zero"), -2, -1),
            ((3, 7, 3, -6, "neg-inf"), 1, 2), ((3, 7, 3, -9, "neg-inf"), -2, -1),
            ((3, 7, 4, 2, "neg-zero"), 0, 1), ((3, 7, 4, 3, "neg-zero"), -1, 0),
            ((3, 7, 4, 5, "neg-zero"), 0, 1), ((3, 7, 4, 6, "neg-zero"), 1, 2),
            ((3, 7, 4, -5, "neg-inf"), 0, 1), ((3, 7, 4, -6, "neg-inf"), -1, 0),
            ((3, 7, 4, -8, "neg-inf"), 0, 1), ((3, 7, 4, -9, "neg-inf"), 1, 2),
            ((3, 7, 6, 2, "neg-zero"), 1, 2), ((3, 7, 6, 5, "neg-zero"), -1, 1),
            ((3, 7, 6, 8, "neg-zero"), 1, 2), ((3, 7, 6, -3, "neg-inf"), 1, 2),
            ((3, 7, 6, -6, "neg-inf"), -1, 1), ((3, 7, 6, -9, "neg-inf"), 1, 2),
            ((3, 8, 1, 2, "neg-zero"), 2, 1),
        ],
    ),
    "partition5": (
        [
            ((3, 1, 6, -12, "infinity"), -2, -3), ((3, 3, 4, -12, "infinity"), -2, -3),
        ],
        [
            ((3, 8, 1, -12, "neg-inf"), -2, -3),
        ],
    ),
}


@pytest.mark.parametrize(
    "fault, table, entry",
    [
        ("kernel5", "shift_subtract_table", 5),
        # below m for some pairs: the zero side's masked compare covers
        # it, its witnesses stay at k >= m
        ("kernel2", "shift_subtract_table", 2),
        ("partition5", "partition_value_table", 5),
    ],
)
def test_chu_witnesses_under_one_wrong_table_entry_stay_frozen(monkeypatch, fault, table, entry):
    real = getattr(bary, table)

    def faulty(n, b, *rest):
        values = real(n, b, *rest)
        if (n, b) == (-7, 3):
            values = values[:entry] + (values[entry] + 1,) + values[entry + 1 :]
        return values

    monkeypatch.setattr(bary, table, faulty)
    for sweep, want in zip((check_chu_negative, check_chu_mixed), CHU_FAULT_WITNESSES[fault]):
        report = sweep(bases=(3,), n_max=14, k_max=28)
        assert [(w.inputs, w.lhs, w.rhs) for w in report.failures] == want, sweep.__name__


def test_the_series_oracle_does_not_read_the_kernel(monkeypatch):
    # one wrong entry in the kernel's builder reaches gf_expand and AUTO,
    # which symmetry compares with the partition sum; the series oracle
    # inverts f_7 itself, so series_table and cross-oracle stay right
    real = series._shift_subtract

    def faulty(n, b, size):
        values = real(n, b, size)
        if (n, b) == (-7, 3):
            values = values[:5] + (values[5] + 1,) + values[6:]
        return values

    want = partition_value_table(-7, 3, 63)
    bary._cache.cache_clear()
    bary._partition_cache.cache_clear()
    monkeypatch.setattr(series, "_shift_subtract", faulty)
    try:
        assert gf_expand(-7, 3, ExpansionPoint.AT_ZERO, 16).coeffs[5] == want[5] + 1
        assert not check_symmetry(bases=(3,), n_max=12, k_max=24).passed
        assert series_table(-7, 3, 20)[:21] == want[:21]
        assert check_cross_oracle(bases=(3,), n_max=10, k_max=20).passed
    finally:
        bary._cache.cache_clear()
        bary._partition_cache.cache_clear()


def test_a_row_that_is_not_palindromic_shows_where_each_branch_reads_it(monkeypatch):
    # d_5 at base 3 with one wrong entry is no longer its own reverse.
    # chu-mixed reads d_s unreversed in every branch (as d_n, d_{n-m} or
    # d_m), so each reports the fault; the palindrome itself is what
    # symmetry checks for n >= 0, and it fails at n = 5 alone.  d_5 is
    # read through bary.row, which builds it as one digit table
    real = bary._digit_table

    def faulty(n, b, top, *sign):
        table = real(n, b, top, *sign)
        if (n, b) == (5, 3):
            table[1] += 1
        return table

    monkeypatch.setattr(bary, "_digit_table", faulty)
    failures = check_chu_mixed(bases=(3,), n_max=14, k_max=28).failures
    assert {w.inputs[-1] for w in failures} == {"pos-j", "pos-s", "neg-zero", "neg-inf"}
    failures = check_symmetry(bases=(3,), n_max=12, k_max=24).failures
    assert [(w.inputs, w.lhs, w.rhs) for w in failures] == [((3, 5, 1), 3, 2), ((3, 5, 4), 2, 3)]


def test_chu_mixed_makes_three_products_per_carry_free_split(monkeypatch):
    # pos-j, pos-s, and one product shared by neg-zero and neg-inf
    calls, real = [], identities._product

    def counted(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(identities, "_product", counted)
    r = check_chu_mixed(bases=(3,), n_max=14, k_max=28)
    splits = [(n, m) for n in range(2, 15) for m in range(1, n) if carry_free_literal(m, n - m, 3)]
    assert r.passed and r.skipped_count == 13 * 14 // 2 - len(splits)
    assert len(calls) == 3 * len(splits) > 0


def test_dstar_pascal_builds_each_row_once(monkeypatch):
    # n walks 1..29 over the window k in [0, 29]: the k in [1, 30] with
    # 5∤k and those k - 1; one dstar row per n of the walk
    calls = []
    real = identities._VARIANTS["dstar"]

    def counting(n, b, ks):
        calls.append((n, tuple(ks)))
        return real(n, b, ks)

    monkeypatch.setitem(identities._VARIANTS, "dstar", counting)
    assert check_dstar_pascal(bases=(5,), n_max=30, k_max=30).passed
    assert sorted(calls) == sorted((-n, tuple(range(30))) for n in range(1, 30))


def test_table_generator_reproduces_the_frozen_matrix(table1):
    assert table1_matrix() == table1


def test_block_pascal_needs_the_constant_weight_term():
    # base 2, n = 4 (digits 100), s = 2, m = 0, k = 4: the weights are
    # the coefficients of f_{3,2}; dropping the j = 0 weight breaks the
    # identity at this point, keeping it satisfies it
    b, k = 2, 4
    weights = [(j, bary_binom(3, j, b)) for j in range(5)]
    assert weights[0] == (0, 1)
    lhs = bary_binom(0, k, b)
    full = sum(w * bary_binom(-3, k - j, b) for j, w in weights)
    assert lhs == full == 0
    dropped = full - bary_binom(-3, k, b)
    assert dropped != lhs


def test_mixed_convolution_needs_the_full_polynomial_support():
    # base 4, n = 6, m = 5: on the infinity side the inner sum must run
    # over all j in [0, 5]; stopping at j = k gives the wrong value for
    # every k in [1, 4]
    for k, want in [(1, 1), (2, -1), (3, 1), (4, -1)]:
        lhs = bary_binom(-1, -k, 4)
        assert lhs == want
        full = sum(
            bary_binom(-6, -k - j, 4) * bary_binom(5, j, 4) for j in range(6)
        )
        trunc = sum(
            bary_binom(-6, -k - j, 4) * bary_binom(5, j, 4) for j in range(k + 1)
        )
        assert full == lhs
        assert trunc != lhs


def test_report_passes_iff_no_failures():
    assert IdentityReport("x", "d", 3).passed
    assert not IdentityReport("x", "d", 3, (Witness((1,), 0, 1),)).passed


def test_std_defects_sit_exactly_on_multiples_of_the_base():
    for base, rows in [(2, 8), (4, 10)]:
        m = pascal_defect_matrix(base, "std", rows, 15)
        assert len(m) == rows and {len(row) for row in m} == {15}
        for n, row in enumerate(m, start=1):
            assert (not any(row)) == (n % base != 0), (base, n)


def test_defect_matrix_rejects_unknown_variant():
    with pytest.raises(ValueError):
        pascal_defect_matrix(4, "classic")


@pytest.mark.parametrize("n_max, k_max", [(0, 19), (10, 0), (10, -2), (-1, -1)])
def test_defect_matrix_rejects_bounds_below_one(n_max, k_max):
    with pytest.raises(ValueError, match="n_max and k_max must be at least 1"):
        pascal_defect_matrix(4, "star", n_max, k_max)


def test_defect_matrix_refuses_more_than_max_terms_entries(monkeypatch):
    monkeypatch.setattr(identities, "MAX_TERMS", 12)
    assert len(pascal_defect_matrix(4, "star", 3, 4)) == 3
    assert len(pascal_defect_matrix(4, "star", 12, 1)) == 12
    for n_max, k_max in [(13, 1), (1, 13), (2, 7), (7, 2)]:
        with pytest.raises(ValueError, match="limit of 12"):
            pascal_defect_matrix(4, "star", n_max, k_max)


def test_star_recurrence_fails_at_negative_k(table1):
    # each entry of the Table 1 rows is the star recurrence's defect at
    # (-n, -k), read here from star_binom itself; the recurrence holds
    # for positive k with 4∤n, 4∤k, and fails there at negative k
    rows = table1_matrix()
    assert check_star_pascal(bases=(4,), n_max=10, k_max=19).passed
    failing = set()
    for n in range(1, 11):
        for k in range(1, 20):
            lhs = star_binom(-n, -k, 4) + star_binom(-n, -k - 1, 4)
            # star extends to n = 0 as binom(0, .)_b, which is 0 at k < 0
            defect = lhs - (star_binom(-n + 1, -k, 4) if n > 1 else 0)
            assert rows[n - 1][k - 1] == defect == table1[n - 1][k - 1], (n, k)
            if defect and n % 4 and k % 4:
                failing.add((n, k))
    assert failing


def test_suite_registry_names_every_sweep_once():
    assert set(SUITES) == {
        "symmetry",
        "pascal",
        "pascal-power",
        "prop33",
        "chu-neg",
        "chu-mixed",
        "lucas",
        "aggregation",
        "star-pascal",
        "dstar-pascal",
        "cross-oracle",
    }
    for name, spec in SUITES.items():
        assert isinstance(spec, SuiteSpec)
        # verify reads the swept axis off the signature: exactly one
        params = inspect.signature(spec.func).parameters
        assert len({"bases", "primes"} & set(params)) == 1, name


@pytest.mark.parametrize("name", sorted(SUITES))
def test_a_one_shot_iterator_of_bases_reports_as_a_tuple_does(name):
    # the domain string is written after the sweep has read the bases
    func = SUITES[name].func
    params = inspect.signature(func).parameters
    sweep = "bases" if "bases" in params else "primes"
    bounds = {p: 6 for p in ("n_max", "k_max") if p in params}
    report = func(**{sweep: iter((2, 3))}, **bounds)
    assert report == func(**{sweep: (2, 3)}, **bounds)
    assert report.swept_domain.startswith(f"{sweep[0]} in 2,3,")


@given(
    st.sampled_from(sorted(SUITES)),
    st.integers(2, 7),
    st.integers(-1, 12),
    st.integers(-1, 16),
)
@settings(max_examples=200, deadline=None)
def test_meter_charges_every_case_and_ignores_the_cache(name, b, n_max, k_max):
    # the steps charged are at least the cases checked and skipped, and
    # depend on the request alone: the same with the table cache cleared
    # and warm
    spec = SUITES[name]
    params = inspect.signature(spec.func).parameters
    sweep = "bases" if "bases" in params else "primes"
    if sweep == "primes":
        b = max(p for p in (2, 3, 5, 7) if p <= b)
    bounds = {p: v for p, v in (("n_max", n_max), ("k_max", k_max)) if p in params}
    spent = []
    for cleared in (True, False):
        if cleared:
            bary._cache.cache_clear()
            bary._partition_cache.cache_clear()
        with digits.metered(digits.WORK_BUDGET, name) as meter:
            report = spec.func(**{sweep: (b,)}, **bounds)
        spent.append(meter.spent)
    assert report.checked_count + report.skipped_count <= spent[0] == spent[1]
