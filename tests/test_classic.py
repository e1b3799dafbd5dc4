from math import comb

from hypothesis import assume, given, strategies as st

from barybinom.classic import CACHE_SIZE, classic_binom


def _inverse_of_unit_poly(coeffs, order):
    # power-series inverse of a polynomial with constant term 1,
    # computed by the schoolbook division recurrence
    inv = [0] * order
    inv[0] = 1
    for i in range(1, order):
        s = 0
        for j in range(1, min(i, len(coeffs) - 1) + 1):
            s += coeffs[j] * inv[i - j]
        inv[i] = -s
    return inv


def _coefficient_oracle(n, k, order=80):
    """Coefficient of x^k in (1+x)^n via direct series arithmetic."""
    if n >= 0:
        return comb(n, k) if 0 <= k <= n else 0
    m = -n
    inv = _inverse_of_unit_poly([comb(m, i) for i in range(m + 1)], order)
    if k >= 0:
        return inv[k]
    # at infinity: substitute u = 1/x, pull out u^m, reuse the inverse
    j = -k
    return inv[j - m] if j >= m else 0


def test_matches_series_oracle_everywhere():
    for n in range(-8, 9):
        for k in range(-30, 31):
            assert classic_binom(n, k) == _coefficient_oracle(n, k), (n, k)


def test_quadrant_values():
    assert classic_binom(5, 2) == 10
    assert classic_binom(5, 7) == 0
    assert classic_binom(5, -1) == 0
    assert classic_binom(-6, 7) == -792
    assert classic_binom(-6, -8) == 21
    assert classic_binom(-6, -3) == 0  # between n and 0: no term either side
    assert classic_binom(-1, 0) == 1
    assert classic_binom(-1, -1) == 1
    assert classic_binom(-2, 3) == -4
    assert classic_binom(0, 0) == 1


@given(st.integers(0, 200), st.integers(-10, 210))
def test_agrees_with_comb_for_nonnegative_n(n, k):
    assert classic_binom(n, k) == (comb(n, k) if 0 <= k <= n else 0)


@given(st.integers(-40, 40), st.integers(-80, 80))
def test_symmetry(n, k):
    assert classic_binom(n, k) == classic_binom(n, n - k)


@given(st.integers(-40, 40), st.integers(-80, 80))
def test_pascal_recurrence(n, k):
    # the lone exception: at (n, k) = (-1, 0) the k-1 term is read at
    # infinity, where the support of (1+x)^-1 reaches x^-1, while the
    # right side degenerates to (1+x)^0; the two branches double count
    # there and nowhere else
    assume((n, k) != (-1, 0))
    assert classic_binom(n, k) + classic_binom(n, k - 1) == classic_binom(n + 1, k)


def test_pascal_notch_value():
    # regression pin for the excluded point above
    assert classic_binom(-1, 0) + classic_binom(-1, -1) == 2
    assert classic_binom(0, 0) == 1


def test_cache_is_bounded():
    maxsize = classic_binom.cache_info().maxsize
    assert maxsize is not None
    assert maxsize == CACHE_SIZE
