"""Acceptance gate: one test per shipped claim, full stated ranges.

Each test sweeps the complete domain of its claim with exact integer
comparisons (tolerance zero) and fails loudly with witnesses.  Expected
total runtime is well under a minute; the two claims with explicit
budgets assert them with a wall clock.
"""

import time

from barybinom.altdefs import dstar_binom, star_binom
from barybinom.bary import Method, bary_binom
from barybinom.classic import classic_binom
from barybinom.identities import (
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
    table1_matrix,
)
from barybinom.series import ExpansionPoint, gf_expand


def test_criterion_01_worked_coefficient_values():
    for method in (Method.AUTO, Method.SERIES, Method.PARTITION):
        assert bary_binom(-6, 7, 4, method) == -4
        assert bary_binom(-6, -8, 4, method) == 3
    zero = gf_expand(-6, 4, ExpansionPoint.AT_ZERO, 8)
    assert zero.coeffs == (1, -2, 3, -4, 4, -4, 4, -4)
    inf = gf_expand(-6, 4, ExpansionPoint.AT_INFINITY, 3)
    assert inf.coeffs == (1, -2, 3)
    assert list(inf.terms()) == [(-6, 1), (-7, -2), (-8, 3)]


def test_criterion_02_alternative_coefficient_values():
    assert star_binom(-6, 7, 4) == 4
    assert star_binom(-6, -8, 4) == -1
    assert dstar_binom(-6, 7, 4) == 15
    assert dstar_binom(-6, -8, 4) == 0


def test_criterion_03_defect_table_matches_frozen_copy(table1):
    start = time.perf_counter()
    rows = table1_matrix()
    elapsed = time.perf_counter() - start
    assert len(rows) == 10 and {len(row) for row in rows} == {19}
    mismatches = [
        (n, k, rows[n - 1][k - 1], table1[n - 1][k - 1])
        for n in range(1, 11)
        for k in range(1, 20)
        if rows[n - 1][k - 1] != table1[n - 1][k - 1]
    ]
    assert mismatches == []
    assert elapsed < 1.0


def test_criterion_04_series_and_partition_methods_agree():
    start = time.perf_counter()
    r = check_cross_oracle(bases=(2, 3, 4, 5, 6), n_max=60, k_max=120)
    elapsed = time.perf_counter() - start
    assert r.checked_count > 70_000
    assert r.passed, r.failures[:3]
    assert elapsed < 30.0


def test_criterion_05_symmetry_sweep_is_clean():
    r = check_symmetry(bases=(2, 3, 4, 5, 6), n_max=60, k_max=120)
    assert r.checked_count == 5 * 121 * 241
    assert r.passed, r.failures[:3]


def test_criterion_06_pascal_family_sweeps_are_clean():
    for r in (
        check_pascal(),
        check_pascal_power(),
        check_prop33(bases=(2, 3, 4), n_max=64),
    ):
        assert r.checked_count > 0
        assert r.passed, (r.identity_id, r.failures[:3])


def test_criterion_07_convolution_sweeps_are_clean():
    for r in (
        check_chu_negative(bases=(2, 3, 4, 5, 6), n_max=60, k_max=120),
        check_chu_mixed(bases=(2, 3, 4, 5, 6), n_max=60, k_max=120),
    ):
        assert r.checked_count > 0
        assert r.passed, (r.identity_id, r.failures[:3])


def test_criterion_08_prime_congruence_sweep_is_clean():
    r = check_lucas(primes=(2, 3, 5, 7), n_max=60, k_max=120)
    assert r.checked_count == 4 * 121 * 241
    assert r.passed, r.failures[:3]


def test_criterion_09_digit_sum_aggregation_is_clean():
    r = check_digit_sum_aggregation(bases=(2, 3, 4, 5, 6), n_max=200)
    assert r.passed, r.failures[:3]


def test_criterion_10_alt_pascal_holds_and_fails_where_stated(table1):
    for r in (
        check_star_pascal(bases=(2, 3, 4, 5, 6), n_max=200, k_max=200),
        check_dstar_pascal(bases=(2, 3, 4, 5, 6), n_max=200, k_max=200),
    ):
        assert r.checked_count > 0
        assert r.passed, (r.identity_id, r.failures[:3])
    # Table 1 holds the star recurrence's defects at negative k: it
    # must fail somewhere on the same n, k with 4∤n, 4∤k
    rows = table1_matrix()
    assert rows == table1
    defects = [rows[n - 1][k - 1] for n in range(1, 11) if n % 4 for k in range(1, 20) if k % 4]
    assert any(defects), "negative-k defects must exist"


def test_criterion_11_vanishing_band_and_one_digit_reduction():
    for b in range(2, 7):
        for n in range(1, 61):
            for k in range(1, n):
                assert bary_binom(-n, -k, b) == 0, (b, n, k)
    for n in range(-12, 13):
        for k in range(-12, 13):
            for b in range(max(2, abs(n) + 1, abs(k) + 1), max(abs(n), abs(k)) + 4):
                assert bary_binom(n, k, b) == classic_binom(n, k), (b, n, k)
