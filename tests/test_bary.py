import pytest
from hypothesis import example, given, settings, strategies as st

from barybinom import altdefs, bary, digits
from barybinom.altdefs import dstar_binom, dstar_row, star_binom, star_row
from barybinom.bary import (
    Method,
    bary_binom,
    bary_binom_partition,
    bary_binom_series,
    partition_value_table,
    series_table,
    shift_subtract_table,
)
from barybinom.classic import classic_binom
from barybinom.digits import to_digits
from barybinom.partitions import enumerate_partitions, enumerate_restricted
from barybinom.series import MAX_TERMS, ExpansionPoint, gf_expand

NEG_METHODS = (Method.AUTO, Method.SERIES, Method.PARTITION)


def partition_sum_literal(n, k, b):
    """The partition-sum definition written as an explicit tuple sum.

    Kept deliberately naive: enumerate every index tuple, multiply the
    classic binomials position by position, add up.  The fast table
    accumulation in bary_binom_partition must agree with this.
    """
    assert n < 0
    if k >= 0:
        dv = to_digits(n, b)
        total = 0
        for p in enumerate_partitions(k, b, len(dv)):
            prod = 1
            for d, j in zip(dv[::-1], p):
                prod *= classic_binom(d, j)
            total += prod
        return total
    dv = to_digits(-n, b)
    total = 0
    for p in enumerate_restricted(-k, b, dv):
        prod = 1
        for d, j in zip(dv[::-1], p):
            prod *= classic_binom(-d, -j)
        total += prod
    return total


def digit_product_literal(n, k, b):
    """The digit product written over explicitly padded expansions.

    Kept deliberately naive: pad both sign-consistent expansions to the
    longer length, multiply classic_binom digit by digit, no early exit.
    For n >= 0 this is binom(n, k)_b, for n < 0 the star coefficient.
    """
    N = max(len(to_digits(n, b)), len(to_digits(k, b)))
    prod = 1
    for nl, kl in zip(to_digits(n, b, N), to_digits(k, b, N)):
        prod *= classic_binom(nl, kl)
    return prod


def test_digit_product_matches_the_literal_padded_product():
    # k runs past n in both magnitude and digit count, on both signs
    for b in (2, 3, 4, 5):
        for n in range(-40, 41):
            fn = bary_binom if n >= 0 else star_binom
            for k in range(-130, 131):
                assert fn(n, k, b) == digit_product_literal(n, k, b), (n, k, b)


def test_worked_values_agree_across_methods():
    for method in NEG_METHODS:
        assert bary_binom(-6, 7, 4, method) == -4
        assert bary_binom(-6, -8, 4, method) == 3


def test_row_of_negative_six_base_four():
    zero_side = [bary_binom(-6, k, 4) for k in range(8)]
    assert zero_side == [1, -2, 3, -4, 4, -4, 4, -4]
    assert bary_binom(-6, -6, 4) == 1
    assert bary_binom(-6, -7, 4) == -2
    assert bary_binom(-6, -8, 4) == 3


def test_rows_of_positive_arguments():
    assert [bary_binom(3, k, 2) for k in range(4)] == [1, 1, 1, 1]
    assert [bary_binom(6, k, 4) for k in range(7)] == [1, 2, 1, 0, 1, 2, 1]
    assert bary_binom(6, -3, 4) == 0
    assert bary_binom(6, 7, 4) == 0


def test_zero_upper_entry_is_a_kronecker_delta():
    for b in (2, 3, 5):
        for k in range(-4, 5):
            assert bary_binom(0, k, b) == (1 if k == 0 else 0)


def test_table_accumulation_matches_literal_tuple_sum():
    for b in (2, 3, 4):
        for n in range(-12, 0):
            for k in range(-30, 31):
                want = partition_sum_literal(n, k, b)
                assert bary_binom_partition(n, k, b) == want, (n, k, b)


def test_series_route_matches_partition_route():
    for b in (2, 3):
        for n in range(-10, 0):
            for k in range(-25, 26):
                assert bary_binom_series(n, k, b) == bary_binom_partition(n, k, b)


def test_auto_matches_both_oracles_on_both_sides_and_in_the_band():
    # AUTO reads the shift-subtract table; k runs past n on both sides,
    # so the infinity side, the band n < k < 0 and the zero side all show
    for b in range(2, 8):
        for n in range(-60, 0):
            for k in range(-150, 151):
                want = bary_binom(n, k, b, Method.PARTITION)
                assert bary_binom(n, k, b) == want, (n, k, b)
                assert bary_binom(n, k, b, Method.SERIES) == want, (n, k, b)


def test_auto_matches_series_at_large_k():
    for n, k, b in ((-6, 16000, 4), (-37, 20000, 3)):
        assert bary_binom(n, k, b) == bary_binom(n, k, b, Method.SERIES)
        assert bary_binom(n, n - k, b) == bary_binom(n, n - k, b, Method.SERIES)


def test_series_matches_partition_at_huge_n_and_small_k():
    # the series route expands only as far as the entry it reads, r = k
    # at zero and r = n - k at infinity, and reads the band as 0; an
    # order of |n| + |k| terms would be far past the limit here
    for n, b in ((-(10**100) + 1, 3), (-(2**200), 2), (-(3**12 - 1), 3), (-(10**30) - 7, 10)):
        zero = [0, 1, 7, 5000]
        inf = [n - r for r in zero]
        band = [-1, -5000, n + 1, n // 2]
        for k in zero + inf + band:
            want = bary_binom(n, k, b, Method.PARTITION)
            assert bary_binom(n, k, b, Method.SERIES) == want, (n, k, b)
            assert bary_binom(n, k, b) == want, (n, k, b)
        assert all(bary_binom(n, k, b, Method.SERIES) == 0 for k in band)


@given(st.integers(2, 9), st.integers(-300, -1), st.integers(-700, 700))
@settings(max_examples=200, deadline=None)
def test_auto_matches_the_partition_sum(b, n, k):
    assert bary_binom(n, k, b) == bary_binom_partition(n, k, b)


def test_requests_past_the_size_limit_raise_before_allocating():
    # each of these would ask for about 10**12 entries if it got through
    k = 10**12
    for method in NEG_METHODS:
        with pytest.raises(ValueError, match="limit"):
            bary_binom(-6, k, 4, method)
        with pytest.raises(ValueError, match="limit"):
            bary_binom(-6, -k, 4, method)
    for point in ExpansionPoint:
        with pytest.raises(ValueError, match="limit"):
            gf_expand(-6, 4, point, k)
    for table in (shift_subtract_table, partition_value_table, series_table):
        with pytest.raises(ValueError, match="limit"):
            table(-6, 4, MAX_TERMS)
        # the largest request rounds up to exactly the limit, not past it
        assert len(table(-1, 2, MAX_TERMS - 1)) == MAX_TERMS
    assert gf_expand(3, 2, ExpansionPoint.AT_ZERO, MAX_TERMS).order == MAX_TERMS


def test_caches_are_bounded():
    # one cache holds every route's tables, and none longer than
    # 2 * MAX_TERMS // CACHE_SIZE terms, so at most about 2 * MAX_TERMS;
    # partition tables up to 2 * MAX_TERMS // PARTITION_CACHE_SIZE terms
    # go to their own cache, with the same bound on its entries
    assert bary._cache.cache_info().maxsize == bary.CACHE_SIZE
    assert bary._partition_cache.cache_info().maxsize == bary.PARTITION_CACHE_SIZE == 512
    longest = 2 * MAX_TERMS // bary.CACHE_SIZE
    bary._cache.cache_clear()
    bary._partition_cache.cache_clear()
    short = shift_subtract_table(-3, 10, longest - 64)
    assert len(short) <= longest
    assert shift_subtract_table(-3, 10, longest - 64) is short
    long = shift_subtract_table(-3, 10, longest)
    assert len(long) > longest
    assert shift_subtract_table(-3, 10, longest) is not long
    assert bary._cache.cache_info().currsize == 1
    # 3906 terms: the longest partition table of its own cache is 3904
    # (a multiple of 64); the next one goes to the shared cache
    assert 2 * MAX_TERMS // bary.PARTITION_CACHE_SIZE == 3906
    own = partition_value_table(-3, 10, 3903)
    assert len(own) == 3904 and partition_value_table(-3, 10, 3903) is own
    shared = partition_value_table(-3, 10, 3904)
    assert len(shared) == 3968 and partition_value_table(-3, 10, 3904) is shared
    long = partition_value_table(-3, 10, longest)
    assert partition_value_table(-3, 10, longest) is not long
    assert bary._partition_cache.cache_info().currsize == 1
    assert bary._cache.cache_info().currsize == 2


def test_value_tables_index_both_sides_of_the_support():
    # f_6 is palindromic, so entry r is the value at k = r and at k = -6 - r
    table = partition_value_table(-6, 4, 10)
    assert len(table) >= 11
    for r in range(11):
        assert table[r] == bary_binom_partition(-6, r, 4)
        assert table[r] == bary_binom_partition(-6, -(6 + r), 4)
        assert table[r] == partition_sum_literal(-6, -(6 + r), 4)


def test_negative_digit_weights_are_symmetric():
    # why one partition table serves both sides: the paper's k < 0 weights
    # classic_binom(d, d - i) are the k >= 0 weights classic_binom(d, i),
    # for every digit d a default sweep meets and every i it can read
    for d in range(-9, 0):
        for i in range(1001):
            assert classic_binom(d, d - i) == classic_binom(d, i), (d, i)


def test_series_route_answers_positive_n_from_the_support_and_the_palindrome():
    # n >= 0 reads entry min(k, n - k) at zero and is 0 outside 0 <= k <= n,
    # so none of these expands past a few terms
    for n, k, b in ((10**7, -1, 3), (5, 10**7, 3), (10**7, 10**7 - 1, 3)):
        assert bary_binom(n, k, b, Method.SERIES) == bary_binom(n, k, b), (n, k, b)
    for b in (2, 3, 5):
        for n in range(0, 40):
            for k in range(-5, 50):
                assert bary_binom(n, k, b, Method.SERIES) == bary_binom(n, k, b), (n, k, b)


def test_dispatch_rejects_mismatched_methods():
    with pytest.raises(ValueError):
        bary_binom(5, 2, 4, Method.PARTITION)
    with pytest.raises(ValueError):
        bary_binom(5, 2, 1)
    with pytest.raises(ValueError):
        bary_binom_partition(-5, 2, 1)
    with pytest.raises(ValueError):
        bary_binom_series(-5, 2, 0)
    with pytest.raises(ValueError):
        partition_value_table(5, 4, 10)
    with pytest.raises(ValueError):
        shift_subtract_table(5, 4, 10)
    with pytest.raises(ValueError):
        shift_subtract_table(-5, 1, 10)


def test_unknown_methods_raise_value_error():
    # only Method members name a route: a plain string, even a member's
    # value, is refused rather than answered by the series route
    for method in ("bogus", "partition", "series"):
        for n in (-5, 5):
            with pytest.raises(ValueError, match="unknown method"):
                bary_binom(n, 3, 2, method)
            with pytest.raises(ValueError, match="unknown method"):
                bary.row(n, 2, [3], method)


def test_method_values_are_the_cli_spellings():
    assert Method("auto") is Method.AUTO
    assert Method("series") is Method.SERIES
    assert Method("partition") is Method.PARTITION


@given(st.integers(-15, 15), st.integers(-15, 15), st.integers(0, 4))
def test_one_digit_base_reduces_to_classic(n, k, extra):
    # every argument is a single digit, so the product has one factor
    b = max(2, abs(n) + 1, abs(k) + 1) + extra
    assert bary_binom(n, k, b) == classic_binom(n, k)


@given(st.integers(2, 6), st.integers(-40, -1), st.integers(-39, -1))
def test_band_between_n_and_zero_vanishes(b, n, k):
    if n < k < 0:
        for method in NEG_METHODS:
            assert bary_binom(n, k, b, method) == 0


@given(st.integers(2, 6), st.integers(-20, 20), st.integers(-40, 40))
@settings(max_examples=200)
def test_symmetry_in_the_lower_index(b, n, k):
    assert bary_binom(n, k, b) == bary_binom(n, n - k, b)


@st.composite
def windows(draw, n):
    """A list of k: ascending, mirrored about n/2, sparse, empty, or one
    reaching past n and -n on both signs of k."""
    lo, width = draw(st.integers(-120, 120)), draw(st.integers(0, 120))
    ascending = range(lo, lo + width)
    return draw(
        st.sampled_from(
            [
                ascending,
                [n - k for k in ascending],
                [],
                range(-abs(n) - width - 1, abs(n) + width + 2),
            ]
        )
        | st.lists(st.integers(-200, 200) | st.integers(-(10**30), 10**30), max_size=8)
    )


def clamped_top(n, b, ks):
    # bary.row reads one table over [0, min(n, max(ks))]
    return min(n, max(ks, default=0))


def sign_sided_top(n, b, ks):
    # dstar_row reads a table over [0, max |k|]
    return max(map(abs, ks), default=0)


def star_top(n, b, ks):
    # star_row stops at b^L - 1, L the digit count of |n|
    return min(sign_sided_top(n, b, ks), b ** len(to_digits(n, b)) - 1)


# each digit-wise row function with the point function it must equal,
# its n (bary.row for n < 0 reads the route tables, tested above), and
# the last index of the table it reads, past MAX_TERMS a ValueError
ROWS = [
    pytest.param(bary.row, bary_binom, st.integers(0, 80), clamped_top, id="row"),
    pytest.param(star_row, star_binom, st.integers(-80, -1), star_top, id="star_row"),
    pytest.param(dstar_row, dstar_binom, st.integers(-80, -1), sign_sided_top, id="dstar_row"),
]


@pytest.mark.parametrize("row_fn, point, ns, top", ROWS)
@settings(max_examples=300)
@given(data=st.data(), b=st.integers(2, 7))
def test_digit_wise_rows_equal_their_point_function(row_fn, point, ns, top, data, b):
    n = data.draw(ns, label="n")
    ks = data.draw(windows(n), label="ks")
    if top(n, b, ks) >= MAX_TERMS:
        with pytest.raises(ValueError):
            row_fn(n, b, ks)
    else:
        assert row_fn(n, b, ks) == [point(n, k, b) for k in ks]


def test_star_rows_stop_where_the_digits_of_n_end(monkeypatch):
    # past b^L - 1 every star value is 0, so a sparse row builds no more
    tops = []

    def recording(n, b, top, sign=1):
        tops.append(top)
        return real(n, b, top, sign)

    real = altdefs._digit_table
    monkeypatch.setattr(altdefs, "_digit_table", recording)
    for n, b in ((-5, 2), (-1, 2), (-4, 4), (-80, 3), (-999, 10)):
        cap = b ** len(to_digits(n, b)) - 1
        ks = [0, 1, cap, cap + 1, 999_999, -cap, -cap - 1, -999_999, 10**30, -(10**30)]
        tops.clear()
        assert star_row(n, b, ks) == [star_binom(n, k, b) for k in ks], (n, b)
        assert tops == [cap, cap], (n, b)
    assert star_row(-5, 2, [0, 999_999]) == [1, 0]
    assert tops[-2:] == [7, 0]


def test_digit_tables_compute_no_more_values_than_top_needs(monkeypatch):
    # a level computes at most top // b**l + 1 values classic_binom(n_l, d):
    # counted at base 10**6 before base 10**9 is run
    calls = []

    def counting(n, k):
        calls.append((n, k))
        return classic_binom(n, k)

    monkeypatch.setattr(bary, "classic_binom", counting)
    for b in (10**6, 10**9):
        calls.clear()
        assert bary._digit_table(5, b, 3) == [1, 5, 10, 10]
        assert bary._digit_table(-(b + 5), b, 3) == [1, -5, 15, -35]
        assert len(calls) == 4 + 4 + 1, b
    assert bary.row(2 * 10**9 + 3, 10**9, range(-1, 5)) == [0, 1, 3, 3, 1, 0]


def test_huge_and_sparse_rows_are_refused_before_allocating(monkeypatch):
    # each table would pass MAX_TERMS: refused before _digit_table or
    # digit_sum_table reads a digit, so before any level is built
    def refused(*args):
        raise AssertionError("a digit-wise table was started")

    n, ks = -(10**100), [0, 5, 10**99, -(10**99), -1]
    calls = ((bary.row, 10**12, [10**11], 2), (star_row, n, ks, 3), (dstar_row, n, ks, 3))
    with monkeypatch.context() as patched:
        patched.setattr(bary, "to_digits", refused)
        patched.setattr(digits, "to_digits", refused)
        for row_fn, m, row_ks, b in calls:
            with pytest.raises(ValueError):
                row_fn(m, b, row_ks)
    # the point functions still answer each of those k
    assert bary_binom(10**12, 10**11, 2) == digit_product_literal(10**12, 10**11, 2) == 0
    for k in ks:
        assert star_binom(n, k, 3) == digit_product_literal(n, k, 3)
        assert dstar_binom(n, k, 3) == classic_binom(digits.digit_sum(n, 3), digits.digit_sum(k, 3))


def test_costs_are_computed_only_while_a_meter_is_open(monkeypatch):
    # library callers pay one None check per table: every cost function
    # is replaced by one that fails, and every route still answers
    def refused(*args):
        raise AssertionError("a cost was computed with no meter open")

    for module, name in (
        (bary.series, "expand_cost"),
        (bary, "_partition_cost"),
        (bary, "_series_cost"),
        (bary, "classic_cost"),
        (altdefs, "classic_cost"),
    ):
        monkeypatch.setattr(module, name, refused)
    bary._cache.cache_clear()
    bary._partition_cache.cache_clear()
    for method in NEG_METHODS:
        assert bary.row(-6, 4, [7, -8], method) == [-4, 3]
    assert bary.row(6, 4, [1]) == [2]
    assert (star_row(-6, 4, [7]), dstar_row(-6, 4, [7])) == ([4], [15])
    assert (bary_binom(6, 1, 4), star_binom(-6, 7, 4), dstar_binom(-6, 7, 4)) == (2, 4, 15)
    with pytest.raises(AssertionError):
        with digits.metered(10**9, "test"):
            bary.row(-6, 4, [7])


@pytest.mark.parametrize(
    "point, pairs",
    [
        # the digit pairs, padded to the longer expansion (6 = (2, 1)_4)
        (lambda: bary_binom(6, 1, 4), [(2, 1), (1, 0)]),
        (lambda: star_binom(-6, 7, 4), [(-2, 3), (-1, 1)]),
        (lambda: star_binom(-6, -20, 4), [(-2, 0), (-1, -1), (0, -1)]),
        # (S_4(-6), S_4(7))
        (lambda: dstar_binom(-6, 7, 4), [(-3, 4)]),
    ],
)
def test_point_paths_charge_each_classic_binom_before_computing_it(monkeypatch, point, pairs):
    from barybinom.classic import classic_cost

    with digits.metered(10**9, "test") as meter:
        value = point()
    assert meter.spent == sum(classic_cost(*pair) for pair in pairs)

    def refused(*args):
        raise AssertionError("a value was computed past the budget")

    monkeypatch.setattr(bary, "classic_binom", refused)
    monkeypatch.setattr(altdefs, "classic_binom", refused)
    with pytest.raises(ValueError, match="^test takes more than"):
        with digits.metered(meter.spent - 1, "test"):
            point()
    monkeypatch.undo()
    assert point() == value


def test_every_table_request_is_charged_whether_cached_or_not():
    # the kernel's charge is sum over its levels l of (|n_l| + 1) *
    # ceil(size / b^l) and one pass over size; read-outs one step a k
    bary._cache.cache_clear()
    bary._partition_cache.cache_clear()
    spent = []
    for _ in range(2):
        with digits.metered(10**9, "test") as meter:
            shift_subtract_table(-6, 4, 100)  # 128 entries, digits (2, 1)
        spent.append(meter.spent)
    assert spent == [3 * 128 + 2 * 32 + 128] * 2
    with pytest.raises(ValueError, match="^test takes more than 575 steps$"):
        with digits.metered(575, "test"):
            shift_subtract_table(-6, 4, 100)


@pytest.mark.parametrize("b", [2, 3, 4, 10, 1000])
def test_partition_charge_depends_on_the_request_alone(b, monkeypatch):
    # the same steps whether the table is built, read from its cache, or
    # built by a builder of other entries: the slot width's math.comb,
    # then _partition_cost
    def charged(n, limit):
        with digits.metered(10**12, "test") as meter:
            partition_value_table(n, b, limit)
        return meter.spent

    def predicted(n, limit):
        size = max(64, -(-(limit + 1) // 64) * 64)
        with digits.metered(10**12, "test") as meter:
            steps = bary._partition_cost(n, b, size)
        return meter.spent + steps

    keys = [(n, limit) for n in (-1, -(b - 1), -b, -(b + 1), -(b**3 - 1), -(2 * b**2 + 1), -200)
            for limit in (0, 63, 127, 200, 900)]
    bary._partition_cache.cache_clear()
    built = [charged(*key) for key in keys]
    assert [charged(*key) for key in keys] == built  # cached
    assert built == [predicted(*key) for key in keys]
    monkeypatch.setattr(bary, "_value_table", lambda n, base, size: (0,) * size)
    bary._partition_cache.cache_clear()
    assert [charged(*key) for key in keys] == built
    bary._partition_cache.cache_clear()
    # a longer table never costs less
    for n, limit in keys:
        assert predicted(n, limit) <= predicted(n, 2 * limit + 64)


def test_partition_builds_keep_their_charges_and_skip_the_classic_cache():
    # each charge from partition_value_table(n, b, size - 1) under a
    # meter; the weights are read past classic_binom's cache, so building
    # leaves it as it was.  The two-digit key at base 1000, whose build
    # takes 0.5 s, is checked by its cost alone.
    pinned = {
        (-(3**5 - 1), 3, 1024): 35_983,
        (-999, 10, 512): 25_667,
        (-1, 1000, 4096): 20_481,
        (-600, 2, 2048): 10_462,
    }
    bary._partition_cache.cache_clear()
    before = classic_binom.cache_info()
    for (n, b, size), steps in pinned.items():
        with digits.metered(10**12, "test") as meter:
            partition_value_table(n, b, size - 1)
        assert meter.spent == steps, (n, b, size)
    assert classic_binom.cache_info() == before
    with digits.metered(10**12, "test") as meter:
        meter.charge(bary._partition_cost(-(1000**2 - 1), 1000, 1088))
    assert meter.spent == 7_832_458


def schoolbook_value_table(n, b, size):
    """The partition sum as a multiply-add loop: after digit position l,
    entry r holds the sum over partial tuples (j_l, ..., j_0) of
    weighted sum r of their products of classic_binom factors.
    Positions with digit 0 force j_l = 0 and are skipped."""
    cur = [0] * size
    cur[0] = 1
    for l, d in enumerate(to_digits(n, b)):
        if d == 0:
            continue
        step = b**l
        if step >= size:
            break
        weights = [classic_binom(d, i) for i in range((size - 1) // step + 1)]
        new = [0] * size
        for r, c in enumerate(cur):
            if not c:
                continue
            for j in range((size - 1 - r) // step + 1):
                w = weights[j]
                if w:
                    new[r + j * step] += w * c
        cur = new
    return tuple(cur)


# the longest table drawn per base: the schoolbook loop is quadratic in
# it at small bases, and at base 1000 past 1,000 terms a second level
# makes the packed build one product of two full-length ints, of which
# one has two nonzero slots (0.5 s at 1,088 terms)
LONGEST = {2: 1024, 3: 1024, 7: 2048, 10: 4096, 1000: 1024}


@st.composite
def partition_keys(draw):
    """(n, b, size): n = -1, n with every digit b - 1 (the widest slots),
    or n with a zero digit below its top one, at 64 to 4,096 terms."""
    b = draw(st.sampled_from(sorted(LONGEST)))
    size = 64 * draw(st.integers(1, LONGEST[b] // 64))
    places = draw(st.integers(2, 2 if b == 1000 else 5))
    kind = draw(st.sampled_from(["one", "full", "zeros"]))
    if kind == "one":
        return -1, b, size
    if kind == "full":
        return -(b**places - 1), b, size
    ds = draw(st.lists(st.integers(0, b - 1), min_size=places, max_size=places))
    ds[draw(st.integers(0, places - 2))] = 0
    ds[-1] = max(ds[-1], 1)
    return -sum(d * b**l for l, d in enumerate(ds)), b, size


@given(partition_keys())
@settings(max_examples=40, deadline=None)
@example((-(2**5 - 1), 2, 1024))
@example((-(10**4 - 1), 10, 4096))
@example((-(1000**2 - 1), 1000, 1024))
@example((-1, 1000, 4096))
def test_packed_partition_table_matches_the_schoolbook_sum(key):
    assert bary._value_table(*key) == schoolbook_value_table(*key), key
