import random

import pytest
from hypothesis import given, settings, strategies as st

from barybinom import bary, series as series_module
from barybinom.digits import to_digits
from barybinom.series import (
    ExpansionPoint,
    LaurentSeries,
    TruncationError,
    coefficient,
    gf_expand,
    one,
    series_inverse,
    series_mul,
    series_pow,
)

ZERO = ExpansionPoint.AT_ZERO
INF = ExpansionPoint.AT_INFINITY

points = st.sampled_from([ZERO, INF])
units = st.sampled_from([1, -1])
tails = st.lists(st.integers(-6, 6), max_size=10)
leads = st.integers(-8, 8)


def series(point, lead, *coeffs):
    return LaurentSeries(point, lead, tuple(coeffs))


def square_and_multiply_expand(n, b, point, order):
    """f_{n,b} built factor by factor with series arithmetic.

    Kept deliberately independent of gf_expand's shift-add passes: each
    factor 1 + x^(b^l) is a series of its own (stored from lead -b^l at
    infinity), raised to |n_l| by square-and-multiply and multiplied
    into the product, which is inverted once when n < 0.
    """
    acc = one(point, order)
    for l, d in enumerate(to_digits(n, b)):
        if d == 0:
            continue
        c = b**l
        coeffs = [0] * order
        coeffs[0] = 1
        if c < order:
            coeffs[c] = 1
        factor = LaurentSeries(point, 0 if point is ZERO else -c, tuple(coeffs))
        acc = series_mul(acc, series_pow(factor, abs(d)))
    return series_inverse(acc) if n < 0 else acc


def test_expansion_matches_the_square_and_multiply_build():
    for b in range(2, 8):
        for n in range(-130, 131):
            for order in (1, 2, 3, 7, 64, 300):
                for point in (ZERO, INF):
                    want = square_and_multiply_expand(n, b, point, order)
                    assert gf_expand(n, b, point, order) == want, (n, b, point, order)


def test_positive_expansion_matches_the_digit_product_at_the_expand_scale():
    # the grid above stops at order 300; the expand workload reaches 4000.
    # bary.row is the digit product, which shares no code with the
    # shift-add passes, and is 0 past x^n
    for b in range(2, 7):
        for n in sorted({0, 1, b - 1, b, 255, 299, 300}):
            for order in sorted({n, n + 1, n + 2, 1000, 4000} - {0}):
                want = tuple(bary.row(n, b, range(order)))
                for point, lead in ((ZERO, 0), (INF, -n)):
                    s = gf_expand(n, b, point, order)
                    assert (s.point, s.lead_exponent, s.order) == (point, lead, order), (n, b, order)
                    assert s.coeffs == want, (n, b, point, order)


def test_expansion_of_f63_at_zero():
    s = gf_expand(3, 2, ZERO, 4)
    assert s.lead_exponent == 0
    assert s.coeffs == (1, 1, 1, 1)  # (1+x)(1+x^2)


def test_expansion_of_negative_six_base_four_at_zero():
    s = gf_expand(-6, 4, ZERO, 8)
    assert s.lead_exponent == 0
    assert s.coeffs == (1, -2, 3, -4, 4, -4, 4, -4)


def test_expansion_of_negative_six_base_four_at_infinity():
    s = gf_expand(-6, 4, INF, 3)
    assert s.lead_exponent == 6
    assert s.coeffs == (1, -2, 3)
    assert list(s.terms()) == [(-6, 1), (-7, -2), (-8, 3)]


def test_positive_expansion_at_infinity_leads_with_degree():
    # f_{6,4} = (1+x)^2 (1+x^4): degree 6, so the infinity expansion
    # starts at x^6 and the stored window walks down
    s = gf_expand(6, 4, INF, 7)
    assert s.lead_exponent == -6
    assert coefficient(s, 6) == 1
    assert coefficient(s, 0) == 1


def test_coefficient_below_lead_is_exact_zero():
    s = gf_expand(-6, 4, INF, 3)
    assert coefficient(s, -5) == 0
    assert coefficient(s, 3) == 0
    z = gf_expand(-6, 4, ZERO, 8)
    assert coefficient(z, -1) == 0


def test_coefficient_past_window_raises():
    s = gf_expand(-6, 4, ZERO, 8)
    with pytest.raises(TruncationError):
        coefficient(s, 8)
    i = gf_expand(-6, 4, INF, 3)
    with pytest.raises(TruncationError):
        coefficient(i, -9)


def test_mul_rejects_mixed_points():
    with pytest.raises(ValueError):
        series_mul(one(ZERO, 4), one(INF, 4))


def test_inverse_requires_unit_lead():
    with pytest.raises(ValueError):
        series_inverse(series(ZERO, 0, 2, 1))


def test_inverse_undoes_the_generating_product():
    # gf_expand reads the shift-subtract kernel for n < 0; generic
    # inversion of f_|n| must give the same expansion at both points,
    # with lead |n| at infinity
    rng = random.Random(17)
    cases = [(n, 4, order) for n in (-1, -3, -6, -11) for order in (1, 16)]
    for b in range(2, 8):
        ns = [-1, -(b**4 - 1), -300] + rng.sample(range(-299, -1), 5)
        cases += [(n, b, order) for n in ns for order in (1, 63, 64, 65, 1000)]
    cases += [(-(10**100) + 1, b, 50) for b in (2, 3, 10)]
    for n, b, order in cases:
        f = gf_expand(-n, b, ZERO, order)
        inv = series_inverse(f)
        assert gf_expand(n, b, ZERO, order) == inv, (n, b, order)
        assert gf_expand(n, b, INF, order) == LaurentSeries(INF, -n, inv.coeffs), (n, b, order)
        assert series_mul(f, inv) == one(ZERO, order)


def per_unit_shift_subtract(n, base, size):
    """[x^r] 1/f_|n| for r < size, dividing 1 by (1 + x^step) once per
    unit of each digit of |n|, each division one ascending in-place pass
    c[r] -= c[r - step] over the whole table: the kernel's definition,
    kept as a reference for its digit recursion."""
    c = [0] * size
    c[0] = 1
    m, step = -n, 1
    while m and step < size:
        m, d = divmod(m, base)
        for _ in range(d):
            for r in range(step, size):
                c[r] -= c[r - step]
        step *= base
    return tuple(c)


def test_kernel_matches_the_per_unit_passes_on_a_grid():
    # sizes around the base and around the 64-term buckets; |n| of one
    # to many digits, a lone top digit (b^5), all digits b - 1 (b^5 - 1)
    for b in range(2, 13):
        ns = [*range(1, 201), b**5, b**5 - 1, 10**6 - 1, 10**9 + 7]
        sizes = sorted({1, 2, b - 1, b, b + 1, 63, 64, 65, 500})
        for m in ns:
            for size in sizes:
                want = per_unit_shift_subtract(-m, b, size)
                assert series_module._shift_subtract(-m, b, size) == want, (m, b, size)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10**12), st.integers(2, 40), st.integers(1, 300))
def test_kernel_matches_the_per_unit_passes(m, b, size):
    assert series_module._shift_subtract(-m, b, size) == per_unit_shift_subtract(-m, b, size)


def test_gf_expand_validates_arguments():
    with pytest.raises(ValueError):
        gf_expand(3, 1, ZERO, 4)
    with pytest.raises(ValueError):
        gf_expand(3, 2, ZERO, 0)


@given(units, tails, points, leads)
def test_inverse_is_two_sided(unit, tail, point, lead):
    s = LaurentSeries(point, lead, (unit, *tail))
    inv = series_inverse(s)
    assert inv.lead_exponent == -lead
    assert series_mul(s, inv) == one(point, s.order)
    assert series_mul(inv, s) == one(point, s.order)


@given(units, tails, units, tails, points, leads, leads)
def test_mul_commutes(u1, t1, u2, t2, point, l1, l2):
    a = LaurentSeries(point, l1, (u1, *t1))
    b = LaurentSeries(point, l2, (u2, *t2))
    assert series_mul(a, b) == series_mul(b, a)


@given(tails, tails, tails, points)
def test_mul_associates(t1, t2, t3, point):
    a = LaurentSeries(point, 0, (1, *t1))
    b = LaurentSeries(point, 0, (1, *t2))
    c = LaurentSeries(point, 0, (1, *t3))
    n = min(a.order, b.order, c.order)
    left = series_mul(series_mul(a, b), c)
    right = series_mul(a, series_mul(b, c))
    assert left.coeffs[:n] == right.coeffs[:n]
    assert left.lead_exponent == right.lead_exponent


def test_mul_truncates_to_shorter_operand():
    a = series(ZERO, 0, 1, 1, 1, 1, 1)
    b = series(ZERO, 0, 1, 1)
    assert series_mul(a, b).order == 2


@given(units, tails, points, st.integers(0, 5))
def test_pow_matches_repeated_multiplication(unit, tail, point, e):
    s = LaurentSeries(point, 0, (unit, *tail))
    acc = one(point, s.order)
    for _ in range(e):
        acc = series_mul(acc, s)
    assert series_pow(s, e) == acc


@given(units, tails, points, st.integers(1, 4))
def test_negative_pow_is_the_inverse_power(unit, tail, point, e):
    s = LaurentSeries(point, 0, (unit, *tail))
    assert series_mul(series_pow(s, -e), series_pow(s, e)) == one(point, s.order)


def test_lead_exponents_add_under_mul():
    a = series(INF, 3, 1, 2)
    b = series(INF, 4, 1, -1)
    p = series_mul(a, b)
    assert p.lead_exponent == 7
    assert p.coeffs == (1, 1)
