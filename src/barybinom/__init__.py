"""Exact b-ary binomial coefficients for arbitrary integer entries.

The coefficient binom(n, k)_b is the coefficient of x^k in the
generating function f_{n,b}(x) = prod_l (1 + x^{b^l})^{n_l} built from
the sign-consistent base-b digits of n (plain tuples, least significant
first), read from the power series at zero for k >= 0 and from the
Laurent expansion at infinity for k < 0.  A digit-recursive
shift-subtract kernel for n < 0, two independent oracle routes (series
extraction and restricted partition sums), the classic single-digit
coefficient, two
alternative digit-wise generalizations, and an identity-verification
harness (barybinom.identities).
"""

from .altdefs import dstar_binom, star_binom
from .bary import Method, bary_binom
from .classic import classic_binom
from .digits import digit_sum, to_digits
from .partitions import enumerate_partitions, enumerate_restricted
from .series import ExpansionPoint, LaurentSeries, gf_expand, series_inverse

__version__ = "0.1.0"

__all__ = [
    "ExpansionPoint",
    "LaurentSeries",
    "Method",
    "bary_binom",
    "classic_binom",
    "digit_sum",
    "dstar_binom",
    "enumerate_partitions",
    "enumerate_restricted",
    "gf_expand",
    "series_inverse",
    "star_binom",
    "to_digits",
]
