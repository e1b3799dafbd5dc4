import itertools

import pytest
from hypothesis import given, strategies as st

from barybinom.altdefs import dstar_binom, star_binom
from barybinom.bary import bary_binom
from barybinom.classic import classic_binom
from barybinom.digits import digit_sum, to_digits


def compositions(total, parts):
    """All tuples of `parts` nonnegative integers summing to `total`."""
    if total < 0:
        return
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, parts - 1):
            yield (head,) + rest


def dstar_composition_sum(n, k, b):
    """The double-star definition written as an explicit composition sum.

    Kept deliberately naive: the parts j_l run over compositions of the
    digit sum of |k| across the nonzero digits n_l of n; for k >= 0 each
    term is the product of classic_binom(n_l, j_l), for k < 0 only parts
    with j_l >= |n_l| count and the factor is classic_binom(n_l, -j_l).
    The closed form in dstar_binom must agree with this.
    """
    assert n < 0
    digits = [d for d in to_digits(n, b) if d]
    total = 0
    for parts in compositions(abs(digit_sum(k, b)), len(digits)):
        term = 1
        for d, j in zip(digits, parts):
            if k >= 0:
                term *= classic_binom(d, j)
            elif j >= -d:
                term *= classic_binom(d, -j)
            else:
                term = 0
        total += term
    return total


def test_worked_star_values():
    assert star_binom(-6, 7, 4) == 4
    assert star_binom(-6, -8, 4) == -1
    assert star_binom(-1, -4, 4) == 0
    assert star_binom(-6, 0, 4) == 1


def test_worked_double_star_values():
    assert dstar_binom(-6, 7, 4) == 15
    assert dstar_binom(-6, -8, 4) == 0
    assert dstar_binom(-6, 1, 4) == -3
    assert dstar_binom(-6, 0, 4) == 1


def test_variants_disagree_with_the_series_coefficient():
    # the alternatives are genuinely different objects, not re-derivations
    assert bary_binom(-6, 7, 4) == -4
    assert star_binom(-6, 7, 4) != bary_binom(-6, 7, 4)
    assert dstar_binom(-6, 7, 4) != bary_binom(-6, 7, 4)


def test_star_vanishes_when_k_needs_more_digits():
    # any position where n's padded digit is 0 and k's is not kills the
    # product, so short n against long k gives 0
    assert star_binom(-2, 9, 2) == 0
    assert star_binom(-1, 16, 4) == 0
    assert star_binom(-3, -27, 3) == 0


def test_nonnegative_n_is_rejected():
    for fn in (star_binom, dstar_binom):
        with pytest.raises(ValueError):
            fn(0, 0, 4)
        with pytest.raises(ValueError):
            fn(5, 2, 4)
        with pytest.raises(ValueError):
            fn(-5, 2, 1)


def test_double_star_matches_the_literal_composition_sum():
    for b in (2, 3, 4, 5):
        for n in range(-40, 0):
            for k in range(-60, 61):
                assert dstar_binom(n, k, b) == dstar_composition_sum(n, k, b), (n, k, b)


def test_double_star_depends_on_k_only_through_its_digit_sum():
    for b in (2, 3, 4):
        for n in (-1, -5, -6, -11):
            seen = {}
            for k in range(0, 81):
                s = digit_sum(k, b)
                val = dstar_binom(n, k, b)
                assert seen.setdefault(s, val) == val, (n, k, b)
            seen = {}
            for k in range(-80, 0):
                s = digit_sum(k, b)
                val = dstar_binom(n, k, b)
                assert seen.setdefault(s, val) == val, (n, k, b)


@given(st.integers(-30, -1), st.integers(0, 3), st.integers(2, 5))
def test_double_star_agrees_with_scaled_digit_sums(n, e, b):
    # b^e * k has the same digit sum as k, so the value must not move
    for k in (1, 3, 7):
        assert dstar_binom(n, k, b) == dstar_binom(n, k * b**e, b)


def test_compositions_enumerate_completely_and_in_order():
    for total in range(0, 7):
        for parts in range(0, 4):
            got = list(compositions(total, parts))
            want = [
                tup
                for tup in itertools.product(range(total + 1), repeat=parts)
                if sum(tup) == total
            ]
            assert sorted(got) == sorted(want)
            assert len(got) == len(set(got))
            assert got == sorted(got), (total, parts)


def test_composition_counts_are_stars_and_bars():
    from math import comb

    for total in range(0, 8):
        for parts in range(1, 5):
            assert len(list(compositions(total, parts))) == comb(
                total + parts - 1, parts - 1
            )


def test_composition_edge_cases():
    assert list(compositions(0, 0)) == [()]
    assert list(compositions(3, 0)) == []
    assert list(compositions(-1, 2)) == []
    assert list(compositions(4, 1)) == [(4,)]
