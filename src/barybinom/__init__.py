"""Exact b-ary binomial coefficients for arbitrary integer entries.

The coefficient binom(n, k)_b is the coefficient of x^k in the
generating function f_{n,b}(x) = prod_l (1 + x^{b^l})^{n_l} built from
the sign-consistent base-b digits of n, read from the power series at
zero for k >= 0 and from the Laurent expansion at infinity for k < 0.
A linear-time shift-subtract kernel for n < 0, two independent oracle
routes (series extraction and restricted partition sums), the classic
single-digit coefficient, two alternative digit-wise generalizations,
and an identity-verification harness.
"""

from .altdefs import AltVariant, dstar_binom, star_binom
from .bary import (
    BaryQuery,
    Method,
    bary_binom,
    bary_binom_partition,
    bary_binom_series,
    evaluate,
    partition_value_table,
)
from .classic import classic_binom
from .digits import DigitVector, digit_sum, pair_length, to_digits
from .identities import (
    SUITES,
    DefectMatrix,
    IdentityReport,
    SuiteSpec,
    Witness,
    carry_free,
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
    find_star_negative_defects,
    merge_reports,
    pascal_defect_matrix,
    table1_matrix,
)
from .partitions import PartitionTuple, enumerate_partitions, enumerate_restricted
from .series import (
    ExpansionPoint,
    LaurentSeries,
    TruncationError,
    coefficient,
    gf_expand,
    series_inverse,
    series_mul,
    series_pow,
)

__version__ = "0.1.0"

__all__ = [
    "AltVariant",
    "BaryQuery",
    "DefectMatrix",
    "DigitVector",
    "ExpansionPoint",
    "IdentityReport",
    "LaurentSeries",
    "Method",
    "PartitionTuple",
    "SUITES",
    "SuiteSpec",
    "TruncationError",
    "Witness",
    "bary_binom",
    "bary_binom_partition",
    "bary_binom_series",
    "carry_free",
    "check_chu_mixed",
    "check_chu_negative",
    "check_cross_oracle",
    "check_digit_sum_aggregation",
    "check_dstar_pascal",
    "check_lucas",
    "check_pascal",
    "check_pascal_power",
    "check_prop33",
    "check_star_pascal",
    "check_symmetry",
    "classic_binom",
    "coefficient",
    "digit_sum",
    "dstar_binom",
    "enumerate_partitions",
    "enumerate_restricted",
    "evaluate",
    "find_star_negative_defects",
    "gf_expand",
    "merge_reports",
    "pair_length",
    "partition_value_table",
    "pascal_defect_matrix",
    "series_inverse",
    "series_mul",
    "series_pow",
    "star_binom",
    "table1_matrix",
    "to_digits",
]
