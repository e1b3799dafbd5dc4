"""Seeded inputs and independent oracles for the benchmark workloads.

Nothing here imports barybinom.  Inputs depend only on the seed, the
workload name and the batch index, and the oracles are written from the
definitions with ``math.comb``, so a defect in the library cannot hide
inside its own check.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("verify-all", "point-deep", "point-rows", "expand")
BASES = (2, 3, 4, 5, 6)

# verify-all runs the registry at its defaults; the seed does not enter.
VERIFY_ARGV = ("verify", "--suite", "all")
VERIFY_CHECKED = 2_176_496

# point-deep: per batch and base, DEEP_PER_BASE queries whose table
# size is log-uniform in [1, DEEP_K_MAX], one per stratum.
DEEP_PER_BASE = 24
DEEP_K_MAX = 2000
DEEP_N_MAX = 600

# point-rows: per batch and base, ROWS_NEG rows with n < 0 and ROWS_POS
# rows with n > 0, each tabulated over every k in [-ROWS_K, ROWS_K].
ROWS_NEG = 4
ROWS_POS = 2
ROWS_N_MAX = 150
ROWS_K = 200

# expand: per batch, EXP_EACH expansions for every base, sign of n and
# expansion point, at orders log-uniform in [EXP_ORDER_MIN, EXP_ORDER_MAX]
# and |n| stratified over [1, EXP_N_MAX] within each base and sign.
EXP_EACH = 5
EXP_N_MAX = 300
EXP_ORDER_MIN = 1000
EXP_ORDER_MAX = 4000
EXP_SAMPLES = 3


def rng_for(workload: str, seed: int, batch: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{batch}")


def _strata(rng: random.Random, count: int, hi: int) -> list[int]:
    # one integer in [1, hi] per equal-width stratum, in stratum order
    return [1 + int((j + rng.random()) / count * hi) for j in range(count)]


def _log_strata(rng: random.Random, count: int, lo: int, hi: int) -> list[int]:
    # one value per equal-width stratum of [log lo, log hi], in stratum
    # order, so every batch has the same spread of sizes
    span = math.log(hi / lo)
    return [int(lo * math.exp((j + rng.random()) / count * span)) for j in range(count)]


def point_deep(seed: int, batch: int) -> list[tuple[int, int, int]]:
    """(n, k, b) queries with n < 0 and a distinct (n, b) per query.

    The two lowest base-b digits of |n| are nonzero, so the value-table
    kernel makes two dense passes on every query and the cost of a query
    is set by its table size and base.  Sides alternate across strata:
    on the zero side k is the table size r, on the infinity side
    k = n - r, the entry r past the start of the support.
    """
    rng = rng_for("point-deep", seed, batch)
    out = []
    for b in BASES:
        pool = [m for m in range(1, DEEP_N_MAX + 1) if m % b and (m // b) % b]
        ns = rng.sample(pool, DEEP_PER_BASE)
        flip = rng.randrange(2)
        for j, r in enumerate(_log_strata(rng, DEEP_PER_BASE, 1, DEEP_K_MAX)):
            n = -ns[j]
            out.append((n, r if (j + flip) % 2 else n - r, b))
    rng.shuffle(out)
    return out


def point_rows(seed: int, batch: int) -> list[tuple[int, int]]:
    """(n, b) rows, n of both signs, |n| stratified over [1, ROWS_N_MAX]."""
    rng = rng_for("point-rows", seed, batch)
    rows = []
    for b in BASES:
        rows += [(-n, b) for n in _strata(rng, ROWS_NEG, ROWS_N_MAX)]
        rows += [(n, b) for n in _strata(rng, ROWS_POS, ROWS_N_MAX)]
    rng.shuffle(rows)
    return rows


def expand(seed: int, batch: int) -> list[tuple[int, int, str, int]]:
    """(n, b, point, order) requests, EXP_EACH for every base, sign and point."""
    rng = rng_for("expand", seed, batch)
    combos = [(b, s, p) for b in BASES for s in (1, -1) for p in ("zero", "infinity")] * EXP_EACH
    rng.shuffle(combos)
    orders = _log_strata(rng, len(combos), EXP_ORDER_MIN, EXP_ORDER_MAX)
    sizes = {(b, s): _strata(rng, 2 * EXP_EACH, EXP_N_MAX) for b in BASES for s in (1, -1)}
    for pool in sizes.values():
        rng.shuffle(pool)
    return [(s * sizes[b, s].pop(), b, p, order) for (b, s, p), order in zip(combos, orders)]


GENERATORS = {"point-deep": point_deep, "point-rows": point_rows, "expand": expand}


def inputs(workload: str, seed: int, batch: int):
    """The generated inputs of one batch; verify-all has none but its argv."""
    if workload == "verify-all":
        return VERIFY_ARGV
    if workload in GENERATORS:
        return GENERATORS[workload](seed, batch)
    raise ValueError(f"unknown workload {workload!r}")


def operations(workload: str, seed: int, batch: int) -> int:
    """Number of timed calls in one batch."""
    if workload == "verify-all":
        return 1
    batch_inputs = inputs(workload, seed, batch)
    if workload == "point-rows":
        return sum(3 if n < 0 else 1 for n, _ in batch_inputs) * (2 * ROWS_K + 1)
    return len(batch_inputs)


def expand_samples(seed: int, batch: int, index: int, order: int) -> list[int]:
    """Term positions of one expansion to check, log-uniform in [0, order)."""
    rng = rng_for(f"expand-check-{index}", seed, batch)
    return sorted({int(math.exp(rng.random() * math.log(order))) - 1 for _ in range(EXP_SAMPLES)})


# ---- oracles, from the definitions ----------------------------------


def gen_binom(n: int, k: int) -> int:
    """Coefficient of x^k in (1+x)^n, read at zero for k >= 0 and at
    infinity for k < 0."""
    if n >= 0:
        return math.comb(n, k) if 0 <= k <= n else 0
    if k >= 0:
        return (-1) ** k * math.comb(k - n - 1, k)
    if k <= n:
        return (-1) ** (n - k) * math.comb(-k - 1, n - k)
    return 0


def digits(n: int, b: int) -> list[int]:
    """Sign-consistent base-b digits of n, least significant first."""
    m, out = abs(n), []
    while m:
        m, r = divmod(m, b)
        out.append(r if n > 0 else -r)
    return out or [0]


def digit_product(n: int, k: int, b: int) -> int:
    """Product over padded digit positions of gen_binom(n_l, k_l).

    For n >= 0 this is binom(n, k)_b; for n < 0 it is the star value.
    """
    nd, kd = digits(n, b), digits(k, b)
    width = max(len(nd), len(kd))
    nd += [0] * (width - len(nd))
    kd += [0] * (width - len(kd))
    return math.prod(gen_binom(a, c) for a, c in zip(nd, kd))


def dstar_closed(n: int, k: int, b: int) -> int:
    """The double-star value as C(S_b(n), S_b(k)) (Chu-Vandermonde)."""
    return gen_binom(sum(digits(n, b)), sum(digits(k, b)))


def expansion_matches(n: int, b: int, point: str, lead: int, coeffs) -> bool:
    """Check a whole truncated expansion of f_{n,b} against f_m, m = |n|.

    f_m(x) = prod_l (1 + x^(b^l))^(m_l) has the digit products as its
    coefficients and is palindromic, so at both points its expansion is
    the same coefficient list, led by x^0 at zero and by x^m at infinity.
    For n < 0 the stored coefficients are the power series of 1/f_m in x
    at zero and in 1/x at infinity, led by 1 at zero and by x^-m at
    infinity, so their convolution with f_m must be 1.
    """
    m = abs(n)
    f = [(i, c) for i in range(m + 1) if (c := digit_product(m, i, b))]
    if lead != (0 if point == "zero" else -m if n > 0 else m):
        return False
    if n > 0:
        want = dict(f)
        return all(c == want.get(i, 0) for i, c in enumerate(coeffs))
    return all(
        sum(c * coeffs[e - i] for i, c in f if i <= e) == (e == 0) for e in range(len(coeffs))
    )
