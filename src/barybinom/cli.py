"""Command-line surface: single coefficients, truncated expansions,
defect tables, partition sets, and the identity sweeps.

Exit codes: 0 success (all sweeps PASS), 1 an identity sweep produced a
counterexample, 2 usage error, 141 stdout was closed before all output
was written (what a shell reports for SIGPIPE, e.g. under `| head`).
Usage errors include a verify --base below 2 or --prime that is not
prime, a verify --nmax or --kmax whose sweep rows would pass MAX_TERMS
entries (n_max + 1 or 2 * k_max + 1; refused before any suite runs),
work past the step budget (a step meter, digits.Meter, of WORK_BUDGET =
10 * MAX_TERMS steps for each base or prime a verify suite sweeps, and
one each for binom, expand and the test of --prime: work is charged
before it runs, so a refused command stops after about one budget's
worth, and verify prints nothing), bounds
under which a sweep checks no case, a verify option that no selected
suite takes (--kmax for aggregation, --base for lucas, --prime for a
base-swept suite; --suite all applies each option to the suites that
take it), binom --method with a --variant other than std, table --kind
table1 with --base, --variant, --nmax or --kmax, a pascal-defect table
with --nmax or --kmax below 1, and a request past the size limit: a
binom value for n < 0 whose table or expansion would need more than
MAX_TERMS = 10**6 terms, an expand order above it, a partitions --len
above it (even when no tuple matches) or output of more than MAX_TERMS
integers (tuples times length), or a pascal-defect table of more than
MAX_TERMS entries (--nmax times --kmax).  Data goes to stdout,
diagnostics to stderr.
Everything is exact integer arithmetic serialized as decimal strings;
identical invocations produce byte-identical output.  verify calls
each selected suite's check once, in registry order, in one process.
Partition tables of at most 2 * MAX_TERMS // 512 terms are kept in an
lru_cache of 512 entries, so the suites of one verify run build each
once; the other tables behind the coefficients share one lru_cache of
32 entries that keeps no table longer than 2 * MAX_TERMS // 32 terms,
and classic_binom has one of 2**12 entries.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
from math import isqrt

from . import digits, identities, partitions
from .altdefs import dstar_binom, star_binom
from .bary import Method, bary_binom
from .digits import to_digits
from .identities import IdentityReport
from .series import ExpansionPoint, expand_cost, gf_expand

MAX_WITNESS_LINES = 20

# verify option -> the check parameter it sets, where the check takes it
_PARAMS = {"base": "bases", "prime": "primes", "nmax": "n_max", "kmax": "k_max"}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.run(args)
        sys.stdout.flush()
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull so the final
        # flush at exit stays silent
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="barybinom",
        description="Exact b-ary binomial coefficients for arbitrary integer entries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("binom", help="evaluate one coefficient")
    p.add_argument("--base", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--variant", choices=["std", "star", "dstar"], default="std")
    p.add_argument("--method", choices=["auto", "series", "partition"], help="std only")
    p.add_argument("--format", choices=["tsv", "json"], default="tsv")
    p.set_defaults(run=cmd_binom)

    p = sub.add_parser("expand", help="truncated expansion of f_{n,b}")
    p.add_argument("--base", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--at", choices=["zero", "infinity"], required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--format", choices=["tsv", "json"], default="tsv")
    p.set_defaults(run=cmd_expand)

    p = sub.add_parser("table", help="defect matrices")
    p.add_argument("--kind", choices=["table1", "pascal-defect"], required=True)
    p.add_argument("--base", type=int)
    p.add_argument("--variant", choices=["std", "star", "dstar"])
    p.add_argument("--nmax", type=int)
    p.add_argument("--kmax", type=int)
    p.add_argument("--format", choices=["tsv", "json"], default="tsv")
    p.set_defaults(run=cmd_table)

    p = sub.add_parser("partitions", help="restricted-partition index sets (debug)")
    p.add_argument("--base", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--len", type=int, dest="length")
    p.add_argument("--restrict", type=int, help="positive n whose digits bound the parts from below")
    p.add_argument("--format", choices=["tsv", "json"], default="tsv")
    p.set_defaults(run=cmd_partitions)

    p = sub.add_parser("verify", help="run identity sweeps")
    p.add_argument(
        "--suite",
        required=True,
        choices=sorted(identities.SUITES) + ["all"],
    )
    p.add_argument("--base", type=int, help="restrict a base-swept suite to one base")
    p.add_argument("--prime", type=int, help="restrict the lucas suite to one prime")
    p.add_argument("--nmax", type=int)
    p.add_argument("--kmax", type=int)
    p.add_argument("--format", choices=["tsv", "json"], default="tsv")
    p.set_defaults(run=cmd_verify)

    return parser


def cmd_binom(args) -> int:
    with digits.metered(digits.WORK_BUDGET, f"binom --base {args.base} --n {args.n} --k {args.k}"):
        if args.variant == "std":
            value = bary_binom(args.n, args.k, args.base, Method(args.method or "auto"))
        elif args.method is not None:
            raise ValueError(f"--method is not taken by --variant {args.variant}")
        elif args.variant == "star":
            value = star_binom(args.n, args.k, args.base)
        else:
            value = dstar_binom(args.n, args.k, args.base)
    if args.format == "json":
        _emit_json(
            {
                "n": str(args.n),
                "k": str(args.k),
                "base": str(args.base),
                "variant": args.variant,
                "value": str(value),
            }
        )
    else:
        print(value)
    return 0


def cmd_expand(args) -> int:
    point = ExpansionPoint.AT_ZERO if args.at == "zero" else ExpansionPoint.AT_INFINITY
    what = f"expand --base {args.base} --n {args.n} --order {args.order}"
    with digits.metered(digits.WORK_BUDGET, what) as meter:
        meter.charge(expand_cost(args.n, args.base, args.order))
        series = gf_expand(args.n, args.base, point, args.order)
    if args.format == "json":
        for e, c in series.terms():
            _emit_json({"exponent": str(e), "coefficient": str(c)})
    else:
        print("exponent\tcoefficient")
        for e, c in series.terms():
            print(f"{e}\t{c}")
    return 0


def cmd_table(args) -> int:
    # pascal-defect falls back to Table 1's base, variant and bounds
    options = {"base": 4, "variant": "star", "nmax": 10, "kmax": 19}
    given = {o: getattr(args, o) for o in options if getattr(args, o) is not None}
    if args.kind == "table1":
        if given:
            raise ValueError(f"--{next(iter(given))} is not taken by --kind table1")
        rows = identities.table1_matrix()
    else:
        rows = identities.pascal_defect_matrix(*(options | given).values())
    if args.format == "json":
        for i, row in enumerate(rows, start=1):
            _emit_json({"n": str(i), "values": [str(v) for v in row]})
    else:
        print("\t".join(f"k{j}" for j in range(1, len(rows[0]) + 1)))
        for row in rows:
            print("\t".join(str(v) for v in row))
    return 0


def cmd_partitions(args) -> int:
    if (args.length or 0) > partitions.MAX_TERMS:  # before to_digits pads to it
        raise ValueError(f"--len {args.length} exceeds the limit of {partitions.MAX_TERMS}")
    if args.restrict is not None:
        digits = to_digits(args.restrict, args.base, args.length or 0)
        tuples = partitions.enumerate_restricted(args.k, args.base, digits)
        length = len(digits)
    else:
        if args.length is None:
            raise ValueError("--len is required without --restrict")
        tuples = partitions.enumerate_partitions(args.k, args.base, args.length)
        length = args.length
    if args.format == "json":
        for t in tuples:
            _emit_json({"parts": [str(p) for p in t]})
    else:
        print("\t".join(f"j{l}" for l in range(length - 1, -1, -1)))
        for t in tuples:
            print("\t".join(str(p) for p in t))
    return 0


def cmd_verify(args) -> int:
    if args.base is not None and args.base < 2:
        raise ValueError(f"--base must be >= 2, got {args.base}")
    if args.prime is not None and not _is_prime(args.prime):
        raise ValueError(f"--prime must be a prime, got {args.prime}")
    # the widest rows: 0 <= k <= n_max (aggregation, chu-mixed) and
    # |k| <= k_max
    for option, width in (("nmax", (args.nmax or 0) + 1), ("kmax", 2 * (args.kmax or 0) + 1)):
        if width > identities.MAX_TERMS:
            raise ValueError(
                f"--{option} {getattr(args, option)} needs sweep rows of {width} entries,"
                f" past the limit of {identities.MAX_TERMS}"
            )
    names = list(identities.SUITES) if args.suite == "all" else [args.suite]
    calls = [_kwargs(identities.SUITES[name], args) for name in names]
    for option, param in _PARAMS.items():
        if getattr(args, option) is not None and not any(param in kw for kw in calls):
            raise ValueError(f"--{option} is not taken by suite {args.suite}")
    results = []
    for name, kw in zip(names, calls):
        (sweep, swept), *bounds = kw.items()  # bases or primes first, as in _PARAMS
        given = " ".join(f"--{p.replace('_', '')} {v}" for p, v in bounds)
        at = f"{sweep if len(swept) > 1 else sweep[:-1]} {','.join(map(str, swept))}"
        with digits.metered(digits.WORK_BUDGET * len(swept), f"suite {name} at {at} with {given}"):
            results.append((name, identities.SUITES[name].func(**kw)))
    for name, report in results:
        if not report.checked_count:
            # a sweep that checked nothing cannot vouch for the identity
            raise ValueError(f"suite {name} checks no cases with these bounds")
    if args.format == "json":
        for name, report in results:
            _emit_json(_report_json(name, report))
    else:
        print("suite\tswept_domain\tchecked\tskipped\tfailures\tstatus")
        for name, report in results:
            status = "PASS" if report.passed else "FAIL"
            print(
                f"{name}\t{report.swept_domain}\t{report.checked_count}"
                f"\t{report.skipped_count}\t{len(report.failures)}\t{status}"
            )
    for name, report in results:
        for w in report.failures[:MAX_WITNESS_LINES]:
            print(f"{name}: {w.inputs} lhs={w.lhs} rhs={w.rhs}", file=sys.stderr)
        extra = len(report.failures) - MAX_WITNESS_LINES
        if extra > 0:
            print(f"{name}: {extra} further failures not shown", file=sys.stderr)
    return 0 if all(r.passed for _, r in results) else 1


def _kwargs(spec, args) -> dict:
    """The check's arguments: the verify option for each parameter if
    given (--base v sweeps bases=(v,), --prime v primes=(v,), and --nmax
    and --kmax set n_max and k_max), else the check's default."""
    params = inspect.signature(spec.func).parameters
    given = {param: getattr(args, option) for option, param in _PARAMS.items() if param in params}
    return {
        p: params[p].default if v is None else (v,) if p in ("bases", "primes") else v
        for p, v in given.items()
    }


def _is_prime(p: int) -> bool:
    with digits.metered(digits.WORK_BUDGET, f"testing --prime {p}") as meter:
        meter.charge(isqrt(max(p, 0)))  # the trial divisions
        return p >= 2 and all(p % d for d in range(2, isqrt(p) + 1))


def _report_json(name: str, report: IdentityReport) -> dict:
    return {
        "suite": name,
        "swept_domain": report.swept_domain,
        "checked": str(report.checked_count),
        "skipped": str(report.skipped_count),
        "status": "PASS" if report.passed else "FAIL",
        "failures": [
            {
                "inputs": [str(v) for v in w.inputs],
                "lhs": str(w.lhs),
                "rhs": str(w.rhs),
            }
            for w in report.failures[:MAX_WITNESS_LINES]
        ],
        "failure_count": str(len(report.failures)),
    }


def _emit_json(obj: dict) -> None:
    print(json.dumps(obj, separators=(", ", ": ")))


if __name__ == "__main__":
    sys.exit(main())
