import dataclasses
import functools
import inspect
import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from barybinom import altdefs, bary, digits, identities, partitions
from barybinom.altdefs import dstar_binom, star_binom
from barybinom.bary import Method, bary_binom
from barybinom.cli import MAX_WITNESS_LINES, main
from barybinom.identities import IdentityReport, SuiteSpec, Witness
from barybinom.series import ExpansionPoint, gf_expand


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_captured(*argv):
    # like run, without a fixture, so a hypothesis example can call it
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def test_binom_prints_the_bare_value(capsys):
    code, out, err = run(capsys, "binom", "--base", "4", "--n", "-6", "--k", "7")
    assert (code, out, err) == (0, "-4\n", "")


def test_binom_variants(capsys):
    assert run(capsys, "binom", "--base", "4", "--n", "-6", "--k", "-8")[1] == "3\n"
    args = ("--base", "4", "--n", "-6", "--k", "7")
    assert run(capsys, "binom", *args, "--variant", "star")[1] == "4\n"
    assert run(capsys, "binom", *args, "--variant", "dstar")[1] == "15\n"
    neg = ("--base", "4", "--n", "-6", "--k", "-8")
    assert run(capsys, "binom", *neg, "--variant", "star")[1] == "-1\n"
    assert run(capsys, "binom", *neg, "--variant", "dstar")[1] == "0\n"


def test_binom_methods_agree(capsys):
    for method in ("auto", "series", "partition"):
        code, out, _ = run(
            capsys, "binom", "--base", "4", "--n", "-6", "--k", "7",
            "--method", method,
        )
        assert (code, out) == (0, "-4\n")


def test_binom_json_round_trips(capsys):
    code, out, _ = run(
        capsys, "binom", "--base", "4", "--n", "-6", "--k", "7", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj == {"n": "-6", "k": "7", "base": "4", "variant": "std", "value": "-4"}


def test_expand_zero_side(capsys):
    code, out, _ = run(
        capsys, "expand", "--base", "4", "--n", "-6", "--at", "zero", "--order", "8"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "exponent\tcoefficient"
    assert lines[1] == "0\t1"
    coeffs = [int(line.split("\t")[1]) for line in lines[1:]]
    assert coeffs == [1, -2, 3, -4, 4, -4, 4, -4]


def test_expand_infinity_side(capsys):
    code, out, _ = run(
        capsys, "expand", "--base", "4", "--n", "-6", "--at", "infinity",
        "--order", "3",
    )
    rows = [tuple(map(int, line.split("\t"))) for line in out.splitlines()[1:]]
    assert code == 0
    assert rows == [(-6, 1), (-7, -2), (-8, 3)]


def test_expand_json(capsys):
    _, out, _ = run(
        capsys, "expand", "--base", "2", "--n", "3", "--at", "zero",
        "--order", "4", "--format", "json",
    )
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows[0] == {"exponent": "0", "coefficient": "1"}
    assert len(rows) == 4


def test_partitions_unrestricted(capsys):
    code, out, _ = run(
        capsys, "partitions", "--base", "4", "--k", "7", "--len", "2"
    )
    assert code == 0
    assert out.splitlines() == ["j1\tj0", "1\t3", "0\t7"]


def test_partitions_restricted(capsys):
    code, out, _ = run(
        capsys, "partitions", "--base", "4", "--k", "8", "--restrict", "6"
    )
    assert code == 0
    assert out.splitlines() == ["j1\tj0", "1\t4"]


def test_partitions_with_many_forced_zero_positions(capsys):
    # every position with b^l > k takes multiplicity 0, without recursion
    code, out, _ = run(capsys, "partitions", "--base", "2", "--k", "1", "--len", "2000")
    assert code == 0
    assert out.splitlines()[1:] == ["\t".join(["0"] * 1999 + ["1"])]


def test_partitions_past_the_size_limit_exit_two(capsys):
    for argv in (
        ("--base", "2", "--k", "3000", "--len", "12"),
        ("--base", "2", "--k", str(10**400), "--len", "2000"),
        ("--base", "2", "--k", "3000", "--len", "12", "--restrict", "5"),
        # a length past the limit, refused before any padding or tuple
        ("--base", "2", "--k", "1", "--len", str(10**12)),
        ("--base", "4", "--k", "3", "--restrict", "6", "--len", str(10**12)),
    ):
        code, out, err = run(capsys, "partitions", *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: "), argv


def test_partitions_length_past_the_limit_exits_two_when_no_tuple_matches(capsys, monkeypatch):
    monkeypatch.setattr(partitions, "MAX_TERMS", 20)
    code, out, _ = run(capsys, "partitions", "--base", "4", "--k", "3", "--restrict", "6", "--len", "20")
    assert (code, out) == (0, "\t".join(f"j{l}" for l in range(19, -1, -1)) + "\n")
    code, out, err = run(capsys, "partitions", "--base", "4", "--k", "3", "--restrict", "6", "--len", "21")
    assert (code, out, err) == (2, "", "error: --len 21 exceeds the limit of 20\n")


def test_verify_bounds_past_the_row_limit_exit_two_before_any_suite(capsys, monkeypatch):
    # sweep rows hold n_max + 1 and 2 * k_max + 1 entries; the limit is
    # patched small so no huge sweep ever runs here
    monkeypatch.setattr(identities, "MAX_TERMS", 20)
    calls = []
    real = identities.check_symmetry

    def recording(bases=(2,), n_max=1, k_max=1):
        calls.append((n_max, k_max))
        return real(bases, n_max, k_max)

    spec = dataclasses.replace(identities.SUITES["symmetry"], func=recording)
    monkeypatch.setitem(identities.SUITES, "symmetry", spec)
    for option, refused in (("--kmax", "10"), ("--nmax", "20")):
        code, out, err = run(capsys, "verify", "--suite", "symmetry", "--base", "3", option, refused)
        assert (code, out) == (2, ""), option
        assert err == f"error: {option} {refused} needs sweep rows of 21 entries, past the limit of 20\n"
    assert calls == []
    code, out, _ = run(capsys, "verify", "--suite", "symmetry", "--base", "3", "--nmax", "19", "--kmax", "9")
    assert code == 0 and out.splitlines()[1].endswith("PASS")
    assert calls == [(19, 9)]


def test_verify_aggregation_past_its_budget_exits_two_with_nothing_on_stdout(capsys, monkeypatch):
    # each suite runs under a meter of WORK_BUDGET steps for each base (or
    # prime) it sweeps: the given one, else each of the check's default
    # tuple, with the bounds not given read off the check's defaults.  A
    # refused suite stops where its charges pass the budget, and verify
    # prints nothing, nor runs a later suite.  The budget is patched small
    # so no huge sweep ever runs here
    monkeypatch.setattr(digits, "WORK_BUDGET", 6500)
    calls = []
    for name, spec in list(identities.SUITES.items()):

        @functools.wraps(spec.func)
        def recording(*args, _name=name, _real=spec.func, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setitem(identities.SUITES, name, dataclasses.replace(spec, func=recording))
    for suite, bounds, message in (
        ("aggregation", ("--base", "2", "--nmax", "46"), "aggregation at base 2 with --nmax 46"),
        ("all", ("--nmax", "21"), "symmetry at bases 2,3,4,5,6 with --nmax 21 --kmax 120"),
        ("chu-neg", ("--base", "2", "--nmax", "11", "--kmax", "5"), "chu-neg at base 2 with --nmax 11 --kmax 5"),
        ("chu-mixed", ("--base", "2", "--nmax", "9", "--kmax", "3"), "chu-mixed at base 2 with --nmax 9 --kmax 3"),
        ("lucas", ("--prime", "7", "--nmax", "30"), "lucas at prime 7 with --nmax 30 --kmax 120"),
    ):
        calls.clear()
        code, out, err = run(capsys, "verify", "--suite", suite, *bounds)
        budget = 5 * 6500 if suite == "all" else 6500
        assert (code, out) == (2, ""), (suite, bounds)
        assert err == f"error: suite {message} takes more than {budget} steps\n", (suite, bounds)
        assert calls == [message.split()[0]]
    calls.clear()
    for suite, bounds in (
        # base 2 alone would pass 6500 steps; the five bases share 32500
        ("aggregation", ("--nmax", "46")),
        ("aggregation", ("--base", "3", "--nmax", "46")),
        ("chu-neg", ("--base", "2", "--nmax", "6", "--kmax", "5")),
        ("chu-mixed", ("--base", "4", "--nmax", "6", "--kmax", "3")),
        ("symmetry", ("--base", "3", "--nmax", "3", "--kmax", "3")),
    ):
        code, out, _ = run(capsys, "verify", "--suite", suite, *bounds)
        assert code == 0 and out.splitlines()[1].endswith("PASS"), suite
    assert calls == ["aggregation", "aggregation", "chu-neg", "chu-mixed", "symmetry"]


def test_registry_defaults_fit_the_work_budget():
    # each suite at its defaults, one base (or prime) at a time
    for name, spec in identities.SUITES.items():
        params = inspect.signature(spec.func).parameters
        sweep = "bases" if "bases" in params else "primes"
        for value in params[sweep].default:
            with digits.metered(digits.WORK_BUDGET, name) as meter:
                assert spec.func(**{sweep: (value,)}).passed, (name, value)
            assert 0 < meter.spent <= digits.WORK_BUDGET, (name, value)


# bounds that pass the row limit and run past the budget: each sweep was
# still running after 13 s or more before the meter (or the work forms
# it replaced) stopped it; a bound not given is the check's default
REFUSED = [
    "symmetry --base 3 --nmax 8 --kmax 250000",
    "cross-oracle --base 3 --nmax 8 --kmax 250000",
    *(
        f"{suite} --base 3 --nmax 100000 --kmax 100000"
        for suite in ("pascal", "pascal-power", "star-pascal", "dstar-pascal")
    ),
    "prop33 --base 3 --nmax 100000",
    "lucas --prime 3 --nmax 400000 --kmax 400000",
    "chu-neg --base 1000 --nmax 199 --kmax 199",
    "chu-mixed --base 1000 --nmax 187 --kmax 187",
    "pascal --base 2000 --nmax 2000",
    "aggregation --base 100000 --nmax 1000",
]
# bounds whose sweep takes a fraction of a second
ACCEPTED = [
    "pascal --base 2 --nmax 2000",
    "symmetry --base 3 --nmax 200",
    "cross-oracle --base 3 --nmax 200",
    "lucas --prime 3 --nmax 200",
    "star-pascal --base 2 --nmax 2000",
    "dstar-pascal --base 2 --nmax 2000",
    "prop33 --base 2 --nmax 512",
    "lucas --prime 1000000007 --nmax 2 --kmax 2",
    "star-pascal --base 1000 --nmax 200 --kmax 200",
    "chu-mixed --base 2 --nmax 200",
    "dstar-pascal --base 100000 --nmax 200 --kmax 200",
    "chu-mixed --base 1000 --nmax 10 --kmax 5000",
    "prop33 --base 1000 --nmax 4000",
    "prop33 --base 2 --nmax 5000",
    "symmetry --base 3 --nmax 8 --kmax 20000",
    "cross-oracle --base 3 --nmax 8 --kmax 20000",
]


def test_verify_refuses_work_past_the_budget_at_the_swept_base(capsys):
    # the real checks at the real budget, each stopped after about a
    # budget's worth of work
    for argv in REFUSED:
        name, option, at, *given = argv.split()
        params = inspect.signature(identities.SUITES[name].func).parameters
        bounds = dict(zip(given[::2], given[1::2]))
        flags = " ".join(
            f"--{o} {bounds.get(f'--{o}', params[p].default)}"
            for o, p in (("nmax", "n_max"), ("kmax", "k_max"))
            if p in params
        )
        code, out, err = run(capsys, "verify", "--suite", *argv.split())
        assert (code, out) == (2, ""), argv
        assert err == (
            f"error: suite {name} at {option[2:]} {at} with {flags}"
            f" takes more than {digits.WORK_BUDGET} steps\n"
        ), argv


def test_verify_all_builds_each_partition_table_once(capsys, monkeypatch):
    # symmetry, chu-neg, chu-mixed and cross-oracle read the same 300
    # partition tables (n in [-60, -1] at bases 2..6, 128 terms each), and
    # the partition cache keeps them for the whole run
    builds = []
    real = bary._value_table

    def counted(n, b, size):
        builds.append((n, b, size))
        return real(n, b, size)

    monkeypatch.setattr(bary, "_value_table", counted)
    bary._partition_cache.cache_clear()
    code, _, _ = run(capsys, "verify", "--suite", "all")
    bary._partition_cache.cache_clear()
    assert code == 0
    assert sorted(builds) == sorted((-s, b, 128) for b in (2, 3, 4, 5, 6) for s in range(1, 61))


def test_verify_accepts_sweeps_of_a_fraction_of_a_second(capsys):
    for argv in ACCEPTED:
        code, out, err = run(capsys, "verify", "--suite", *argv.split())
        assert (code, err) == (0, ""), argv
        assert out.splitlines()[1].endswith("\tPASS"), argv


def test_verify_budget_is_shared_by_the_bases_swept(capsys, monkeypatch):
    # each suite replaced by a stand-in that charges the given steps at
    # every base it sweeps: a suite's meter holds WORK_BUDGET per base
    def stand_in(name, steps):
        def check(bases=(2, 3), n_max=1, k_max=1):
            for _ in bases:
                digits.meter.charge(steps)
            return IdentityReport(name, "stand-in", 1)

        return check

    for steps, code in ((digits.WORK_BUDGET, 0), (digits.WORK_BUDGET + 1, 2)):
        monkeypatch.setitem(identities.SUITES, "symmetry", SuiteSpec(stand_in("symmetry", steps)))
        for bounds in ((), ("--base", "7")):
            got, out, err = run(capsys, "verify", "--suite", "symmetry", *bounds)
            assert got == code, (steps, bounds)
            if code:
                at = "base 7" if bounds else "bases 2,3"
                budget = digits.WORK_BUDGET * (1 if bounds else 2)
                message = f"suite symmetry at {at} with --nmax 1 --kmax 1"
                assert (out, err) == ("", f"error: {message} takes more than {budget} steps\n")


def test_binom_and_expand_past_the_budget_exit_two(capsys):
    # one budget per command: an oracle query past it is refused where
    # AUTO answers the same query; the partition sum's one product of
    # 20,032 slots fits the budget, of 200,064 slots it does not
    argv = ("binom", "--base", "3", "--n", "-8", "--k", "200000")
    code, out, err = run(capsys, *argv, "--method", "partition")
    assert (code, out) == (2, "")
    assert err == "error: binom --base 3 --n -8 --k 200000 takes more than 10000000 steps\n"
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (0, f"{bary_binom(-8, 200000, 3)}\n", "")
    argv = ("binom", "--base", "3", "--n", "-8", "--k", "20000", "--method", "partition")
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (0, f"{bary_binom(-8, 20000, 3)}\n", "")
    # the kernel's 1000 passes over 10**4 entries and one more
    argv = ("expand", "--base", "1000", "--n", "-999", "--at", "zero", "--order", "10000")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: expand --base 1000 --n -999 --order 10000 takes more than 10000000 steps\n"


def test_table_reproduces_first_rows(capsys, table1):
    code, out, _ = run(capsys, "table", "--kind", "table1")
    lines = out.splitlines()
    assert code == 0
    assert lines[0].split("\t") == [f"k{j}" for j in range(1, 20)]
    assert len(lines) == 11
    for i, line in enumerate(lines[1:]):
        assert tuple(map(int, line.split("\t"))) == table1[i]


def test_table_pascal_defect_std_is_zero_off_multiples(capsys):
    code, out, _ = run(
        capsys, "table", "--kind", "pascal-defect", "--base", "2",
        "--variant", "std", "--nmax", "4", "--kmax", "6",
    )
    assert code == 0
    rows = [list(map(int, line.split("\t"))) for line in out.splitlines()[1:]]
    assert any(v for v in rows[1]) and any(v for v in rows[3])
    assert not any(rows[0]) and not any(rows[2])


def test_verify_small_suite_passes(capsys):
    code, out, err = run(
        capsys, "verify", "--suite", "symmetry", "--base", "3",
        "--nmax", "8", "--kmax", "16",
    )
    assert code == 0
    assert err == ""
    header, row = out.splitlines()
    assert header == "suite\tswept_domain\tchecked\tskipped\tfailures\tstatus"
    fields = row.split("\t")
    assert fields[0] == "symmetry"
    assert fields[2] == str(17 * 33)
    assert fields[-1] == "PASS"


def test_verify_json_parses(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "lucas", "--prime", "3",
        "--nmax", "6", "--kmax", "12", "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["suite"] == "lucas"
    assert obj["status"] == "PASS"
    assert obj["failures"] == []
    assert int(obj["checked"]) == 13 * 25


def test_verify_output_is_deterministic(capsys):
    argv = ("verify", "--suite", "pascal", "--nmax", "6", "--kmax", "12")
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first == second


def test_sweeps_read_every_value_a_row_at_a_time(capsys, monkeypatch):
    # the digit product is the point path behind bary_binom (n >= 0) and
    # star_binom; no sweep reaches it
    argv = ("verify", "--suite", "all", "--nmax", "6", "--kmax", "12")
    unpatched = run(capsys, *argv)

    def refused(*args):
        raise AssertionError("a sweep read a value point by point")

    monkeypatch.setattr(bary, "_digit_product", refused)
    monkeypatch.setattr(altdefs, "_digit_product", refused)
    assert run(capsys, *argv) == unpatched
    assert unpatched[0] == 0


def test_verify_reports_failures_with_witnesses(capsys, monkeypatch):
    witnesses = tuple(Witness((2, i, 0), 0, 1) for i in range(MAX_WITNESS_LINES + 5))

    def broken(bases=(2,), n_max=1, k_max=1):
        return IdentityReport("always-fail", f"b in {bases[0]}", 40, witnesses)

    monkeypatch.setitem(identities.SUITES, "always-fail", SuiteSpec(broken))
    code, out, err = run(capsys, "verify", "--suite", "always-fail")
    assert code == 1
    assert out.splitlines()[1].split("\t")[-1] == "FAIL"
    lines = err.splitlines()
    assert len(lines) == MAX_WITNESS_LINES + 1
    assert lines[0] == "always-fail: (2, 0, 0) lhs=0 rhs=1"
    assert lines[-1] == "always-fail: 5 further failures not shown"


def test_usage_errors_exit_with_two(capsys):
    bad = [
        ("binom", "--base", "1", "--n", "3", "--k", "1"),
        ("binom", "--base", "4", "--n", "6", "--k", "1", "--variant", "star"),
        ("binom", "--base", "4", "--n", "-6", "--k", "1", "--method", "partition",
         "--variant", "std", "--n", "6"),
        ("expand", "--base", "4", "--n", "3", "--at", "zero", "--order", "0"),
        ("expand", "--base", "1", "--n", "3", "--at", "zero", "--order", "4"),
        ("partitions", "--base", "4", "--k", "7"),
        ("partitions", "--base", "4", "--k", "7", "--restrict", "-2"),
        # past the size limit: refused before any table is allocated
        ("binom", "--base", "4", "--n", "-6", "--k", "1000000000000"),
        ("binom", "--base", "4", "--n", "-6", "--k", "-1000000000000", "--method", "series"),
        ("expand", "--base", "4", "--n", "-6", "--at", "zero", "--order", "1000000000000"),
        ("table", "--kind", "pascal-defect", "--nmax", "1001", "--kmax", "1000"),
        # past the step budget: refused after at most one budget's work
        ("binom", "--base", "1000", "--n", "-999999", "--k", "999999"),
        ("binom", "--base", "3", "--n", "-8", "--k", "999999", "--method", "partition"),
        # the partition sum's slot width alone, C(1999997, 999999), would
        # take about 40 s: its math.comb is charged first
        ("binom", "--base", "1000000", "--n", "-999999", "--k", "999999", "--method", "partition"),
        ("expand", "--base", "1000", "--n", "-999999", "--at", "zero", "--order", "1000000"),
        ("verify", "--suite", "lucas", "--prime", "1000000000000000003", "--nmax", "2", "--kmax", "2"),
        # the digit product and the digit-sum coefficient, one math.comb
        # of a 10**8-sized digit each
        ("binom", "--base", "100000000", "--n", "99999999", "--k", "49999999"),
        ("binom", "--base", "100000000", "--n", "-99999999", "--k", "49999999", "--variant", "star"),
        ("binom", "--base", "100000000", "--n", "-99999999", "--k", "49999999", "--variant", "dstar"),
        # options the chosen form never reads
        ("binom", "--base", "4", "--n", "-6", "--k", "7", "--variant", "star", "--method", "series"),
        ("table", "--kind", "table1", "--base", "3"),
    ]
    for argv in bad:
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error: "), argv
    # a verify --base below 2 is refused before any suite runs, naming the
    # option (the pascal sweeps would divide by it, prop33 step by it)
    for suite, base in (
        ("pascal", "0"), ("star-pascal", "0"), ("dstar-pascal", "0"),
        ("pascal", "1"), ("star-pascal", "1"), ("dstar-pascal", "1"),
        ("prop33", "0"), ("symmetry", "-3"),
    ):
        code, out, err = run(capsys, "verify", "--suite", suite, "--base", base)
        assert (code, out) == (2, ""), (suite, base)
        assert err == f"error: --base must be >= 2, got {base}\n", (suite, base)


def test_verify_rejects_empty_sweeps_and_composite_primes(capsys):
    bad = [
        ("verify", "--suite", "symmetry", "--nmax", "-5"),
        ("verify", "--suite", "aggregation", "--nmax", "0"),
        ("verify", "--suite", "all", "--nmax", "-1"),
        ("verify", "--suite", "lucas", "--prime", "4"),
        ("verify", "--suite", "lucas", "--prime", "1"),
        ("verify", "--suite", "lucas", "--prime", "-7"),
        # options that no selected suite takes
        ("verify", "--suite", "aggregation", "--kmax", "5"),
        ("verify", "--suite", "lucas", "--base", "3"),
        ("verify", "--suite", "symmetry", "--prime", "3"),
    ]
    for argv in bad:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: "), argv
    code, out, _ = run(
        capsys, "verify", "--suite", "lucas", "--prime", "2", "--nmax", "2", "--kmax", "2"
    )
    assert code == 0
    assert out.splitlines()[1].endswith("\tPASS")
    # --suite all applies each option to the suites that take it
    code, out, _ = run(
        capsys, "verify", "--suite", "all", "--base", "2", "--prime", "2",
        "--nmax", "4", "--kmax", "4",
    )
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines()[1:]]
    assert len(rows) == len(identities.SUITES)
    assert {row[1].split(",")[0] for row in rows} <= {"b in 2", "p in 2"}


def test_chu_sweeps_with_no_tables_report_no_cases(capsys):
    for suite, nmax in (("chu-neg", "0"), ("chu-mixed", "-1")):
        code, out, err = run(capsys, "verify", "--suite", suite, "--nmax", nmax)
        assert (code, out) == (2, "")
        assert err == f"error: suite {suite} checks no cases with these bounds\n"


def test_table_pascal_defect_bounds_below_one_exit_two(capsys):
    for argv, got in (
        (("--kmax", "-2"), "10 and -2"),
        (("--kmax", "0"), "10 and 0"),
        (("--nmax", "0"), "0 and 19"),
    ):
        code, out, err = run(capsys, "table", "--kind", "pascal-defect", *argv)
        assert (code, out) == (2, "")
        assert err == f"error: n_max and k_max must be at least 1, got {got}\n"


def test_unknown_suite_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "no-such-suite"])
    assert exc.value.code == 2


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "barybinom", "binom", "--base", "4",
         "--n", "-6", "--k", "7"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "-4\n"


def test_importing_the_cli_loads_no_process_pool():
    # verify runs its suites in one process
    code = "import sys, barybinom.cli; print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_closed_stdout_exits_141_without_a_traceback():
    # the reader takes two lines and closes the pipe, as `| head -2` does
    proc = subprocess.Popen(
        [sys.executable, "-m", "barybinom", "expand", "--base", "2", "--n", "-5",
         "--at", "zero", "--order", "100000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    lines = [proc.stdout.readline() for _ in range(2)]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert lines == [b"exponent\tcoefficient\n", b"0\t1\n"]
    assert b"Traceback" not in err


VARIANTS = {"std": bary_binom, "star": star_binom, "dstar": dstar_binom}


@given(
    st.integers(1, 6),
    st.integers(-30, 30),
    st.integers(-40, 40),
    st.sampled_from(sorted(VARIANTS)),
    st.sampled_from([None, "auto", "series", "partition"]),
    st.sampled_from(["tsv", "json"]),
)
@settings(max_examples=300, deadline=None)
def test_binom_prints_the_library_value_or_exits_two(b, n, k, variant, method, fmt):
    argv = ["binom", "--base", b, "--n", n, "--k", k, "--variant", variant, "--format", fmt]
    code, out, err = run_captured(*argv, *(["--method", method] if method else []))
    # usage errors, as README lists them: a base below 2, --method with a
    # star variant, and the partition route or a star variant for n >= 0
    usage = b < 2 or (method is not None and variant != "std")
    if usage or (n >= 0 and (method == "partition" or variant != "std")):
        assert (code, out) == (2, "")
        assert err.startswith("error: ")
        return
    if variant == "std":
        value = bary_binom(n, k, b, Method(method or "auto"))
    else:
        value = VARIANTS[variant](n, k, b)
    assert (code, err) == (0, "")
    if fmt == "tsv":
        assert out == f"{value}\n"
    else:
        assert json.loads(out) == {
            "n": str(n), "k": str(k), "base": str(b), "variant": variant, "value": str(value)
        }


@given(
    st.integers(1, 6),
    st.integers(-30, 30),
    st.sampled_from(list(ExpansionPoint)),
    st.integers(-1, 40),
    st.sampled_from(["tsv", "json"]),
)
@settings(max_examples=200, deadline=None)
def test_expand_prints_the_library_terms_or_exits_two(b, n, point, order, fmt):
    code, out, err = run_captured(
        "expand", "--base", b, "--n", n, "--at", point.value, "--order", order, "--format", fmt
    )
    if b < 2 or order < 1:
        assert (code, out) == (2, "")
        assert err.startswith("error: ")
        return
    terms = [(str(e), str(c)) for e, c in gf_expand(n, b, point, order).terms()]
    assert (code, err) == (0, "")
    lines = out.splitlines()
    if fmt == "tsv":
        assert lines[0] == "exponent\tcoefficient"
        assert [tuple(line.split("\t")) for line in lines[1:]] == terms
    else:
        assert [(d["exponent"], d["coefficient"]) for d in map(json.loads, lines)] == terms


@given(
    st.integers(1, 6),
    st.sampled_from(sorted(VARIANTS)),
    st.integers(-1, 8),
    st.integers(-1, 12),
    st.sampled_from(["tsv", "json"]),
)
@settings(max_examples=100, deadline=None)
def test_pascal_defect_table_prints_the_library_rows_or_exits_two(b, variant, nmax, kmax, fmt):
    code, out, err = run_captured(
        "table", "--kind", "pascal-defect", "--base", b, "--variant", variant,
        "--nmax", nmax, "--kmax", kmax, "--format", fmt,
    )
    if b < 2 or min(nmax, kmax) < 1:
        assert (code, out) == (2, "")
        assert err.startswith("error: ")
        return
    rows = identities.pascal_defect_matrix(b, variant, nmax, kmax)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    if fmt == "tsv":
        assert lines[0] == "\t".join(f"k{j}" for j in range(1, kmax + 1))
        assert [tuple(map(int, line.split("\t"))) for line in lines[1:]] == list(rows)
    else:
        got = [json.loads(line) for line in lines]
        assert got == [
            {"n": str(i), "values": [str(v) for v in row]} for i, row in enumerate(rows, start=1)
        ]
