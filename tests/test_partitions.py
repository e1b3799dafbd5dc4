import itertools

import pytest
from hypothesis import given, strategies as st

from barybinom import partitions
from barybinom.digits import to_digits
from barybinom.partitions import enumerate_partitions, enumerate_restricted


def brute_force(k, b, N, lows=None):
    """Nested-loop enumeration over all feasible multiplicity boxes.

    Each j_l ranges over 0..k // b^l, so the product covers every tuple
    that could possibly hit k; this is the completeness oracle.
    """
    lows = lows or (0,) * N
    boxes = [range(lows[N - 1 - l], k // b**l + 1) for l in range(N - 1, -1, -1)]
    hits = []
    for tup in itertools.product(*boxes):
        if sum(j * b ** (N - 1 - l) for l, j in enumerate(tup)) == k:
            hits.append(tup)
    return sorted(hits, reverse=True)


def test_seven_base_two_two_parts():
    assert enumerate_partitions(7, 2, 4) == [
        (0, 1, 1, 1),
        (0, 1, 0, 3),
        (0, 0, 3, 1),
        (0, 0, 2, 3),
        (0, 0, 1, 5),
        (0, 0, 0, 7),
    ]
    assert enumerate_partitions(7, 4, 2) == [(1, 3), (0, 7)]


def test_zero_has_the_all_zero_tuple_only():
    for b, N in [(2, 1), (3, 2), (5, 4)]:
        assert enumerate_partitions(0, b, N) == [(0,) * N]


def test_five_base_two_three_parts():
    assert enumerate_partitions(5, 2, 3) == [
        (1, 0, 1),
        (0, 2, 1),
        (0, 1, 3),
        (0, 0, 5),
    ]


def test_restricted_to_digits_of_six_base_four():
    assert enumerate_restricted(8, 4, to_digits(6, 4)) == [(1, 4)]
    assert enumerate_restricted(6, 4, to_digits(6, 4)) == [(1, 2)]
    assert enumerate_restricted(5, 4, to_digits(6, 4)) == []


def test_restricted_is_empty_below_the_bound():
    d = to_digits(11, 2)
    for k in range(11):
        assert enumerate_restricted(k, 2, d) == []
    assert len(enumerate_restricted(11, 2, d)) == 1


def test_positions_past_k_take_zero_without_recursing():
    assert enumerate_partitions(1, 2, 2000) == [(0,) * 1999 + (1,)]
    assert enumerate_partitions(0, 3, 1500) == [(0,) * 1500]
    assert enumerate_restricted(9, 2, to_digits(9, 2, 1500)) == [
        (0,) * 1496 + (1, 0, 0, 1)
    ]


def test_outputs_past_the_limit_raise_before_they_are_built(monkeypatch):
    monkeypatch.setattr(partitions, "MAX_TERMS", 20)
    # parts 1 and 2 give k // 2 + 1 pairs: 10 pairs of 2 integers fit
    assert len(enumerate_partitions(18, 2, 2)) == 10
    assert len(enumerate_restricted(19, 2, (1, 0))) == 10
    with pytest.raises(ValueError, match="20 integers"):
        enumerate_partitions(20, 2, 2)
    with pytest.raises(ValueError, match="20 integers"):
        enumerate_restricted(21, 2, (1, 0))
    # many free positions: refused on the k // b + 1 bound alone
    with pytest.raises(ValueError, match="20 integers"):
        enumerate_partitions(10**400, 2, 2000)
    # the count of three-part tuples is found while they are generated
    assert len(enumerate_partitions(6, 2, 3)) == 6
    with pytest.raises(ValueError, match="20 integers"):
        enumerate_partitions(8, 2, 3)


def test_a_length_past_the_limit_raises_even_when_no_tuple_matches(monkeypatch):
    monkeypatch.setattr(partitions, "MAX_TERMS", 20)
    assert enumerate_restricted(3, 4, (2, 1) + (0,) * 18) == []
    with pytest.raises(ValueError, match="20 integers"):
        enumerate_restricted(3, 4, (2, 1) + (0,) * 19)
    assert enumerate_partitions(0, 2, 20) == [(0,) * 20]
    with pytest.raises(ValueError, match="20 integers"):
        enumerate_partitions(0, 2, 21)


def test_invalid_arguments_raise():
    with pytest.raises(ValueError):
        enumerate_partitions(3, 1, 2)
    with pytest.raises(ValueError):
        enumerate_partitions(3, 2, 0)
    with pytest.raises(ValueError):
        enumerate_partitions(-1, 2, 2)
    with pytest.raises(ValueError):
        enumerate_restricted(-1, 4, to_digits(6, 4))
    with pytest.raises(ValueError):
        enumerate_restricted(3, 4, to_digits(0, 4))
    with pytest.raises(ValueError):
        enumerate_restricted(3, 4, to_digits(-6, 4))
    with pytest.raises(ValueError):
        enumerate_restricted(3, 4, (5,))
    with pytest.raises(ValueError):
        enumerate_restricted(3, 4, ())
    with pytest.raises(ValueError):
        enumerate_restricted(3, 1, (1,))


def test_matches_brute_force_on_small_grid():
    for b in (2, 3, 4, 5):
        for N in (1, 2, 3, 4):
            for k in range(0, 31):
                got = enumerate_partitions(k, b, N)
                assert got == brute_force(k, b, N), (k, b, N)


def test_matches_brute_force_on_wide_two_part_range():
    for b in (2, 5):
        for k in range(0, 201, 7):
            assert enumerate_partitions(k, b, 2) == brute_force(k, b, 2)


def test_restricted_matches_filtered_unrestricted():
    for n in (1, 5, 6, 9):
        for b in (2, 3, 4):
            d = to_digits(n, b)
            lows = d[::-1]
            for k in range(0, 25):
                full = enumerate_partitions(k, b, len(d))
                want = [p for p in full if all(j >= lo for j, lo in zip(p, lows))]
                assert enumerate_restricted(k, b, d) == want, (n, b, k)


@given(st.integers(0, 60), st.integers(2, 6), st.integers(1, 5))
def test_every_tuple_weights_back_to_k(k, b, N):
    for p in enumerate_partitions(k, b, N):
        assert len(p) == N
        assert all(j >= 0 for j in p)
        assert sum(j * b ** (N - 1 - l) for l, j in enumerate(p)) == k


@given(st.integers(0, 60), st.integers(2, 6), st.integers(1, 5))
def test_output_is_descending_lex_and_duplicate_free(k, b, N):
    got = enumerate_partitions(k, b, N)
    assert got == sorted(set(got), reverse=True)


@given(st.integers(0, 40), st.integers(2, 5), st.integers(1, 4))
def test_count_grows_weakly_with_more_parts(k, b, N):
    assert len(enumerate_partitions(k, b, N + 1)) >= len(
        enumerate_partitions(k, b, N)
    )
