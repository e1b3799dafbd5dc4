#!/usr/bin/env python3
"""The barybinom benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each batch of a workload runs in
a fresh single-threaded child process (perfbench/child.py), one child at
a time, until about S seconds have passed.  Every result is checked; the
last line of stdout is one JSON object with the end-to-end metrics
(--trace 0) or the per-layer metrics (--trace 1).  The lines before it
give every metric by name with its unit, the seed and the machine.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads as wl  # noqa: E402

# batches run before the clock may stop a run; a traced batch is a pair
MIN_BATCHES = {"verify-all": 2, "point-deep": 3, "point-rows": 3, "expand": 3}
# no batch starts after this many seconds, and none runs past RUN_LIMIT_S,
# so a run ends within 180 s even when the program is much slower
LAST_START_S = 100
RUN_LIMIT_S = 165

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "checks_per_s": "1/s",
    "queries_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def clock_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("BARYBINOM_WORKERS", None)  # one process, one thread
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_child(workload: str, seed: int, batch: int, trace: bool, deadline: float) -> dict:
    """Run one batch; a crash, timeout or bad report fails every call in it."""
    spawn = clock_ns()
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed), str(batch), str(int(trace)), str(spawn)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        reason = "timed out"
    else:
        if proc.returncode == 0:
            try:
                return json.loads(proc.stdout.splitlines()[-1])
            except (IndexError, ValueError):
                reason = "printed no report"
        else:
            reason = f"exited with code {proc.returncode}"
        sys.stderr.write(proc.stderr[-2000:])
    print(f"batch {batch} ({'traced' if trace else 'untraced'}) {reason}", file=sys.stderr)
    n = wl.operations(workload, seed, batch)
    return {"attempted": n, "failed": n, "crashed": True}


def run_batches(workload: str, seed: int, seconds: int, trace: bool) -> list[list[dict]]:
    """Batches until the clock runs out; each entry is [untraced] or
    [untraced, traced] over the same inputs."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    batches: list[list[dict]] = []
    minimum = 1 if trace else MIN_BATCHES[workload]
    while True:
        elapsed = time.monotonic() - start
        if len(batches) >= minimum:
            if elapsed + elapsed / len(batches) / 2 >= seconds or elapsed >= LAST_START_S:
                break
        batch = len(batches)
        pair = [run_child(workload, seed, batch, False, deadline)]
        if trace:
            pair.append(run_child(workload, seed, batch, True, deadline))
        batches.append(pair)
    return batches


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated; a single value is every percentile."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(children: list[dict]) -> dict[str, float]:
    """Rates and latencies pool every batch of the run; set-up time and
    memory are medians over batches."""
    ok = [c for c in children if "crashed" not in c]
    if not ok:
        return {}
    wall = sum(c["wall_s"] for c in ok)
    latencies = [x for c in ok for x in c["latencies"]]
    return {
        "setup_s": statistics.median(c["setup_s"] for c in ok),
        "wall_s": wall / len(ok),
        "checks_per_s": sum(c["produced"] for c in ok) / wall,
        "queries_per_s": sum(c["attempted"] for c in ok) / wall,
        "query_p50_ms": percentile(latencies, 50) * 1e3,
        "query_p90_ms": percentile(latencies, 90) * 1e3,
        "peak_rss_mb": statistics.median(c["rss_mb"] for c in ok),
    }


def per_layer(batches: list[list[dict]]) -> dict[str, float]:
    pairs = [p for p in batches if all("crashed" not in c for c in p)]
    out = {name: 0 for name in tracer.metric_names()}
    for _, traced in pairs:
        for name, value in traced["layers"].items():
            out[name] += value
    traced_wall = sum(t["wall_s"] for _, t in pairs)
    out["trace.wall_s"] = traced_wall
    out["trace.overhead_s"] = traced_wall - sum(u["wall_s"] for u, _ in pairs)
    return out


def summarize(batches: list[list[dict]], trace: bool):
    """Return (attempted, failed, metrics, units) over all batches.

    In a traced run a batch whose traced answers differ from its
    untraced ones fails every traced call.
    """
    children = [c for pair in batches for c in pair]
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    if not trace:
        return attempted, failed, end_to_end(children), END_TO_END
    for untraced, traced in batches:
        if "crashed" not in untraced and "crashed" not in traced and untraced["digest"] != traced["digest"]:
            print("traced and untraced answers differ", file=sys.stderr)
            failed += traced["attempted"]
    metrics = per_layer(batches)
    return attempted, failed, metrics, {name: _layer_unit(name) for name in metrics}


def machine() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "barybinom" / "__init__.py").is_file():
        print(f"error: no barybinom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not compileall.compile_dir(ROOT / "src" / "barybinom", quiet=1):
        print("error: barybinom sources do not compile", file=sys.stderr)
        return 2

    batches = run_batches(args.workload, args.seed, args.seconds, bool(args.trace))
    attempted, failed, metrics, units = summarize(batches, bool(args.trace))
    print(f"# workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(f"# machine {json.dumps(machine())}")
    print(f"# batches {len(batches)}  attempted {attempted}  failed {failed}  error_rate {failed / attempted}")
    for name, value in metrics.items():
        print(f"{name:40s} {value!r} {units[name]}")
    correct = failed == 0 and len(metrics) == len(units)
    result = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": result}))
    return 0


def _layer_unit(name: str) -> str:
    return "s" if name.endswith("_s") else "count"


if __name__ == "__main__":
    sys.exit(main())
