"""One benchmark batch, run by run.py in a fresh process.

    python3 perfbench/child.py WORKLOAD SEED BATCH TRACE SPAWN_NS

SPAWN_NS is the parent's CLOCK_MONOTONIC reading just before it started
this process, so set-up time covers interpreter start, the barybinom
import and input generation.  The batch runs its calls once each in a
closed loop, then checks every result untimed against oracles that share
no code with the route that produced it, and prints one JSON object.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import workloads as wl

GOLDEN = Path(__file__).resolve().parent / "golden" / "verify_all.tsv"


def clock_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def build(workload: str, seed: int, batch: int):
    """Return (calls, check) for one batch.

    calls is a list of (function, args) pairs; check(results) returns
    (failed, produced): how many calls gave a wrong result or raised, and
    how many exact values the batch produced.  Library functions are read
    from their modules here, after any tracer is installed, and again in
    check, after it is removed.
    """
    import barybinom as bb

    if workload == "verify-all":
        from barybinom import cli

        golden = GOLDEN.read_text()

        def verify():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(list(wl.VERIFY_ARGV))
            return code, out.getvalue()

        def check(results):
            (result,) = results
            if isinstance(result, BaseException):
                return 1, 0
            code, out = result
            try:
                checked = sum(int(line.split("\t")[2]) for line in out.splitlines()[1:])
            except (IndexError, ValueError):
                checked = 0
            ok = code == 0 and out == golden and checked == wl.VERIFY_CHECKED
            return (0 if ok else 1), checked

        return [(verify, ())], check

    if workload == "point-deep":
        queries = wl.point_deep(seed, batch)

        def check(results):
            failed = 0
            for (n, k, b), v in zip(queries, results):
                failed += not _agree(
                    v,
                    lambda: bb.bary_binom(n, k, b, bb.Method.SERIES),
                    lambda: bb.bary_binom(n, k, b, bb.Method.PARTITION),
                )
            return failed, len(results)

        return [(bb.bary_binom, q) for q in queries], check

    if workload == "point-rows":
        calls = []
        for n, b in wl.point_rows(seed, batch):
            for k in range(-wl.ROWS_K, wl.ROWS_K + 1):
                calls.append((bb.bary_binom, (n, k, b)))
                if n < 0:
                    calls.append((bb.star_binom, (n, k, b)))
                    calls.append((bb.dstar_binom, (n, k, b)))

        def check(results):
            failed = 0
            for (fn, (n, k, b)), v in zip(calls, results):
                if fn.__name__ == "star_binom":
                    oracles = (lambda: wl.digit_product(n, k, b),)
                elif fn.__name__ == "dstar_binom":
                    oracles = (lambda: wl.dstar_closed(n, k, b),)
                elif n < 0:
                    oracles = (
                        lambda: bb.bary_binom(n, k, b, bb.Method.SERIES),
                        lambda: bb.bary_binom(n, k, b, bb.Method.PARTITION),
                    )
                else:
                    oracles = (
                        lambda: bb.bary_binom(n, k, b, bb.Method.SERIES),
                        lambda: wl.digit_product(n, k, b),
                    )
                failed += not _agree(v, *oracles)
            return failed, len(results)

        return calls, check

    if workload == "expand":
        requests = wl.expand(seed, batch)
        points = {p.value: p for p in bb.ExpansionPoint}

        def check(results):
            failed = produced = 0
            for i, ((n, b, point, order), s) in enumerate(zip(requests, results)):
                ok = (
                    isinstance(s, bb.LaurentSeries)
                    and s.point is points[point]
                    and s.order == order
                    and wl.expansion_matches(n, b, point, s.lead_exponent, s.coeffs)
                )
                if ok:
                    produced += order
                    terms = list(s.terms())
                    samples = [terms[pos] for pos in wl.expand_samples(seed, batch, i, order)]
                    ok = all(_agree(c, lambda: bb.bary_binom(n, e, b)) for e, c in samples)
                failed += not ok
            return failed, produced

        return [(bb.gf_expand, (n, b, points[p], order)) for n, b, p, order in requests], check

    raise ValueError(f"unknown workload {workload!r}")


def _agree(value, *oracles) -> bool:
    if isinstance(value, BaseException):
        return False
    try:
        return all(value == oracle() for oracle in oracles)
    except Exception:  # an oracle that raises leaves the value unconfirmed
        return False


def timed(calls):
    """Run each call once; return results, latencies, wall and start stamp."""
    results, latencies = [], []
    clock = time.perf_counter
    first_ns = clock_ns()
    begin = clock()
    for fn, args in calls:
        start = clock()
        try:
            value = fn(*args)
        except Exception as exc:  # a raised call is a failed operation
            value = exc
        latencies.append(clock() - start)
        results.append(value)
    return results, latencies, clock() - begin, first_ns


def peak_rss_mb() -> float:
    """This process's peak resident set size.

    Read as VmHWM: ru_maxrss also counts the parent's resident set, which
    Linux carries into the child's maximum at exec.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def digest(results) -> str:
    h = hashlib.sha256()
    for r in results:
        h.update(repr(r).encode())
        h.update(b"\n")
    return h.hexdigest()


def run_batch(workload: str, seed: int, batch: int, trace: bool, spawn_ns: int, limit=None) -> dict:
    """Run one batch and return its report; limit keeps only the first calls."""
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    calls, check = build(workload, seed, batch)
    calls = calls[:limit]
    results, latencies, wall, first_ns = timed(calls)
    rss_mb = peak_rss_mb()
    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.metrics()
    failed, produced = check(results)
    return {
        "setup_s": (first_ns - spawn_ns) / 1e9,
        "wall_s": wall,
        "latencies": latencies,
        "attempted": len(calls),
        "failed": failed,
        "produced": produced,
        "rss_mb": rss_mb,
        "digest": digest(results),
        "layers": layers,
    }


def main(argv) -> int:
    workload, seed, batch, trace, spawn_ns = argv
    print(json.dumps(run_batch(workload, int(seed), int(batch), trace == "1", int(spawn_ns))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
