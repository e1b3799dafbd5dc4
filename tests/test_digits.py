import tracemalloc

import pytest
from hypothesis import given, strategies as st

from barybinom import digits
from barybinom.digits import digit_sum, digit_sum_table, pair_length, to_digits


def test_positive_expansion():
    dv = to_digits(6, 4)
    assert dv == (2, 1)
    assert dv[::-1] == (1, 2)


def test_negative_digits_are_elementwise_negated():
    assert to_digits(-6, 4) == (-2, -1)
    assert to_digits(-1, 2) == (-1,)


def test_zero_has_one_digit():
    assert to_digits(0, 7) == (0,)
    assert len(to_digits(0, 2)) == 1


def test_min_len_pads_most_significant_side():
    assert to_digits(6, 4, 4) == (2, 1, 0, 0)
    assert to_digits(-6, 4, 3) == (-2, -1, 0)
    # never truncates
    assert to_digits(6, 4, 1) == (2, 1)


def test_pair_length():
    assert pair_length(-6, 7, 4) == 2
    assert pair_length(-1, -4, 4) == 2
    assert pair_length(0, 0, 2) == 1
    assert pair_length(100, 1, 2) == 7


def test_digit_sum_examples():
    assert digit_sum(6, 4) == 3
    assert digit_sum(-6, 4) == -3
    assert digit_sum(0, 5) == 0


@given(st.integers(-10**30, 10**30) | st.just(0), st.integers(2, 40))
def test_digit_sum_is_the_sum_of_the_digits(n, b):
    assert digit_sum(n, b) == sum(to_digits(n, b))


@pytest.mark.parametrize("bad", [1, 0, -3])
def test_invalid_base_rejected(bad):
    with pytest.raises(ValueError):
        to_digits(5, bad)
    # at b = 1 a bare divmod loop never ends; the check comes first
    for n in (0, 5, -5, 10**30):
        with pytest.raises(ValueError, match=f"base must be >= 2, got {bad}"):
            digit_sum(n, bad)


def test_negative_min_len_rejected():
    with pytest.raises(ValueError):
        to_digits(5, 2, -1)


def test_min_len_past_the_limit_rejected_before_padding(monkeypatch):
    # the limit is patched small
    monkeypatch.setattr(digits, "MAX_TERMS", 20)
    assert to_digits(6, 4, 20) == (2, 1) + (0,) * 18
    with pytest.raises(ValueError, match=r"min_len must be in \[0, 20\], got 21"):
        to_digits(6, 4, 21)


@given(st.integers(0, 3000), st.integers(2, 16))
def test_digit_sum_table_matches_digit_sum(top, b):
    assert digit_sum_table(top, b) == [digit_sum(j, b) for j in range(top + 1)]


def test_digit_sum_table_matches_digit_sum_around_powers_of_the_base():
    # tops just below, at and past b^L, and bases at and past top, where
    # the top digit's level is the whole table
    for b in (2, 3, 7, 10, 999, 1000):
        tops = {0, 1, b - 1, b, b + 1, 2 * b - 1, 2 * b}
        tops |= {b**L + e for L in (2, 3) for e in (-1, 0, 1) if b**L < 20_000}
        for top in sorted(tops):
            assert digit_sum_table(top, b) == [digit_sum(j, b) for j in range(top + 1)], (top, b)


def test_digit_sum_table_builds_no_more_entries_than_top_needs():
    # a base past top leaves one level of top + 1 entries: checked by memory
    # at base 10**6 (b entries would be megabytes) before base 10**9 is run
    tracemalloc.start()
    try:
        assert digit_sum_table(1, 10**6) == [0, 1]
        assert tracemalloc.get_traced_memory()[1] < 100_000
    finally:
        tracemalloc.stop()
    assert digit_sum_table(1, 10**9) == [0, 1]
    assert digit_sum_table(12, 10**9) == list(range(13))
    assert digit_sum_table(12, 10) == [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1, 2, 3]


def test_digit_sum_table_refuses_bad_arguments(monkeypatch):
    assert digit_sum_table(0, 2) == [0]
    monkeypatch.setattr(digits, "MAX_TERMS", 20)
    assert len(digit_sum_table(19, 3)) == 20
    for top, b in ((-1, 2), (20, 3), (5, 1)):
        with pytest.raises(ValueError):
            digit_sum_table(top, b)


@given(st.integers(-10**9, 10**9), st.integers(2, 16), st.integers(0, 40))
def test_expansion_round_trips(n, b, pad):
    dv = to_digits(n, b, pad)
    assert sum(d * b**l for l, d in enumerate(dv)) == n
    assert len(dv) >= pad


@given(st.integers(-10**6, 10**6), st.integers(2, 16))
def test_digits_share_the_sign_of_n(n, b):
    dv = to_digits(n, b)
    if n >= 0:
        assert all(0 <= d < b for d in dv)
    else:
        assert all(-b < d <= 0 for d in dv)
    assert type(dv) is tuple


@given(st.integers(-10**6, 10**6), st.integers(2, 16))
def test_digit_sum_is_odd_under_negation(n, b):
    assert digit_sum(-n, b) == -digit_sum(n, b)



def test_meter_refuses_past_its_budget_and_restores_the_outer_one():
    assert digits.meter is None
    with digits.metered(10, "outer") as outer:
        outer.charge(10)  # exactly the budget is allowed
        with pytest.raises(ValueError, match="^inner takes more than 3 steps$"):
            with digits.metered(3, "inner") as inner:
                inner.charge(2)
                assert digits.meter is inner
                digits.meter.charge(2)
        assert digits.meter is outer and (outer.spent, inner.spent) == (10, 4)
        with pytest.raises(ValueError, match="^outer takes more than 10 steps$"):
            outer.charge(1)
    assert digits.meter is None


def test_charge_reaches_the_open_meter_and_nothing_else():
    digits.charge(10**100)  # no meter open: nothing to charge
    with digits.metered(5, "outer") as outer:
        with digits.metered(5, "inner") as inner:
            digits.charge(5)
        with pytest.raises(ValueError, match="^outer takes more than 5 steps$"):
            digits.charge(6)
    assert (outer.spent, inner.spent) == (6, 5)


def test_digit_sum_table_charges_its_levels_before_building():
    with digits.metered(10**9, "table") as meter:
        digit_sum_table(999, 10)
    # levels 0 and 1 write 1000 and 100 entries in 10 slices, the top 10
    assert meter.spent == 1000 + 10 + 100 + 10 + 10
    with pytest.raises(ValueError):
        with digits.metered(meter.spent - 1, "table"):
            digit_sum_table(999, 10)
