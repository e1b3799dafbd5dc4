"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import barybinom  # noqa: E402
import child  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402
from barybinom import Method, classic_binom, cli, dstar_binom, star_binom  # noqa: E402


def test_injected_wrong_answer_raises_error_rate(monkeypatch):
    real = barybinom.bary_binom

    def off_by_one(n, k, b, method=Method.AUTO):
        value = real(n, k, b, method)
        return value + 1 if method is Method.AUTO else value

    monkeypatch.setattr(barybinom, "bary_binom", off_by_one)
    report = child.run_batch("point-deep", 1, 0, False, 0, limit=12)
    assert report["attempted"] == 12
    assert report["failed"] == 12
    attempted, failed, _, _ = run.summarize([[report]], trace=False)
    assert failed / attempted > 0


def test_verify_output_must_match_golden_byte_for_byte():
    _, check = child.build("verify-all", 1, 0)
    golden = child.GOLDEN.read_text()
    assert check([(0, golden)]) == (0, wl.VERIFY_CHECKED)
    assert check([(0, golden + "\n")])[0] == 1
    assert check([(1, golden)])[0] == 1
    assert check([RuntimeError("boom")])[0] == 1


def test_seed_changes_generated_workloads_but_not_verify_all():
    for workload in ("point-deep", "point-rows", "expand"):
        assert wl.inputs(workload, 1, 0) == wl.inputs(workload, 1, 0)
        assert wl.inputs(workload, 1, 0) != wl.inputs(workload, 2, 0)
        assert wl.inputs(workload, 1, 0) != wl.inputs(workload, 1, 1)
    assert wl.inputs("verify-all", 1, 0) == wl.inputs("verify-all", 2, 5)


def test_point_deep_tables_are_distinct_per_query():
    queries = wl.point_deep(3, 0)
    assert len({(n, b) for n, _, b in queries}) == len(queries)
    assert all(n < 0 for n, _, _ in queries)
    assert {k >= 0 for _, k, _ in queries} == {True, False}


@pytest.mark.parametrize("workload", ["point-deep", "point-rows", "expand"])
def test_traced_and_untraced_batches_give_identical_answers(workload):
    plain = child.run_batch(workload, 2, 0, False, 0, limit=40)
    traced = child.run_batch(workload, 2, 0, True, 0, limit=40)
    assert plain["failed"] == traced["failed"] == 0
    assert plain["digest"] == traced["digest"]
    assert set(traced["layers"]) == set(tracer.metric_names())


def test_tracing_leaves_cli_stdout_unchanged_and_counts_suites():
    def verify():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["verify", "--suite", "aggregation"])
        return code, out.getvalue()

    plain = verify()
    original_main = cli.main
    t = tracer.Tracer()
    t.install()
    try:
        traced = verify()
    finally:
        t.uninstall()
    assert traced == plain
    layers = t.metrics()
    checked = int(plain[1].splitlines()[1].split("\t")[2])
    assert layers["identities.aggregation.checked"] == checked
    assert layers["identities.aggregation.wall_s"] > 0
    assert layers["cli.main.calls"] == 1
    assert layers["digits.to_digits.calls"] > 0
    assert cli.main is original_main


def test_tracer_rebinds_imported_names_and_restores_them():
    from barybinom import bary, digits, series

    original = digits.to_digits
    t = tracer.Tracer()
    t.install()
    try:
        assert bary.to_digits is series.to_digits is digits.to_digits is not original
        barybinom.bary_binom(-6, 7, 4)
    finally:
        t.uninstall()
    assert bary.to_digits is series.to_digits is digits.to_digits is original
    m = t.metrics()
    assert m["bary.bary_binom.calls"] == 1
    assert m["bary.bary_binom.total_s"] >= m["bary.bary_binom.self_s"]


def test_oracles_match_the_library():
    for b in (2, 3, 5):
        for n in range(-40, 41):
            for k in range(-60, 61):
                assert wl.gen_binom(n, k) == classic_binom(n, k)
                if n < 0:
                    assert wl.digit_product(n, k, b) == star_binom(n, k, b)
                    assert wl.dstar_closed(n, k, b) == dstar_binom(n, k, b)
                else:
                    assert wl.digit_product(n, k, b) == barybinom.bary_binom(n, k, b)


def test_expansion_oracle_accepts_gf_expand_and_rejects_one_changed_coefficient():
    from barybinom import ExpansionPoint, gf_expand

    for n in (-37, -6, 1, 6, 37):
        for b in (2, 3, 4):
            for point in ("zero", "infinity"):
                s = gf_expand(n, b, ExpansionPoint(point), 90)
                assert wl.expansion_matches(n, b, point, s.lead_exponent, s.coeffs)
                bad = s.coeffs[:-1] + (s.coeffs[-1] + 1,)
                assert not wl.expansion_matches(n, b, point, s.lead_exponent, bad)
                assert not wl.expansion_matches(n, b, point, s.lead_exponent + 1, s.coeffs)


def _run(args, cwd):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_every_metric(trace):
    proc = _run(["--workload", "expand", "--seed", "4", "--seconds", "1", "--trace", trace], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if trace == "1" else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "point-rows", "--seed", "1", "--seconds", "1", "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
