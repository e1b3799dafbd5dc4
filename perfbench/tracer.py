"""Per-layer timing from outside the library.

A Tracer wraps the public functions of each barybinom module and
rebinds every module attribute that refers to one of them, so a call
made through ``from .digits import to_digits`` in another module is
counted too.  A stack of child-time accumulators gives self time: the
time in a function minus the time spent in wrapped functions it called.
Only counts and sums are kept; nothing is written while tracing.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import sys
import time

# layer -> public functions; total_s is reported for those that call
# other wrapped functions, self_s and calls for all
LAYERS = {
    "digits": ("to_digits", "pair_length", "digit_sum"),
    "classic": ("classic_binom",),
    "bary": ("bary_binom", "partition_value_table", "bary_binom_partition", "bary_binom_series"),
    "series": ("gf_expand", "series_mul", "series_inverse", "series_pow", "coefficient"),
    "altdefs": ("star_binom", "dstar_binom"),
    "cli": ("main",),
}
LEAVES = {"to_digits", "classic_binom", "series_mul", "series_inverse", "coefficient"}
SUITE_ORDER = (
    "symmetry", "pascal", "pascal-power", "prop33", "chu-neg", "chu-mixed",
    "lucas", "aggregation", "star-pascal", "dstar-pascal", "cross-oracle",
)


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for layer, funcs in LAYERS.items():
        for f in funcs:
            names += [f"{layer}.{f}.calls", f"{layer}.{f}.self_s"]
            if f not in LEAVES:
                names.append(f"{layer}.{f}.total_s")
    names += ["classic.cache_hits", "classic.cache_misses", "bary.table_entries"]
    for suite in SUITE_ORDER:
        names += [f"identities.{suite}.{m}" for m in ("wall_s", "self_s", "checked")]
    return names


class _Stat:
    __slots__ = ("calls", "self_s", "total_s", "depth")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.depth = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.checked: dict[str, int] = {}
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []
        self._tables: dict[int, tuple] = {}
        self._cache_info = None
        self._cache_start = None

    def _wrap(self, name, fn, on_result=None):
        stat = self.stats.setdefault(name, _Stat())
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            stat.depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat.depth -= 1
                stat.calls += 1
                stat.self_s += elapsed - stack.pop()
                if not stat.depth:  # recursion counts once in total_s
                    stat.total_s += elapsed
                if stack:
                    stack[-1] += elapsed
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every traced function and the registered suites."""
        homes = {layer: importlib.import_module(f"barybinom.{layer}") for layer in LAYERS}
        identities = importlib.import_module("barybinom.identities")
        self._cache_info = homes["classic"].classic_binom.cache_info
        self._cache_start = self._cache_info()
        modules = [m for k, m in sys.modules.items() if k == "barybinom" or k.startswith("barybinom.")]
        for layer, funcs in LAYERS.items():
            home = homes[layer]
            for f in funcs:
                original = getattr(home, f)
                hook = self._record_table if f == "partition_value_table" else None
                wrapper = self._wrap(f"{layer}.{f}", original, hook)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        for suite, spec in list(identities.SUITES.items()):
            self._patches.append((identities.SUITES, suite, spec))
            identities.SUITES[suite] = dataclasses.replace(
                spec, func=self._wrap(f"identities.{suite}", spec.func, self._counter(suite))
            )

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)
        self._patches.clear()

    def _counter(self, suite):
        def count(report):
            self.checked[suite] = self.checked.get(suite, 0) + report.checked_count

        return count

    def _record_table(self, table) -> None:
        # holding each table keeps its id from being reused
        self._tables.setdefault(id(table), table)

    def metrics(self) -> dict[str, float]:
        out = {}
        for layer, funcs in LAYERS.items():
            for f in funcs:
                s = self.stats.get(f"{layer}.{f}", _Stat())
                out[f"{layer}.{f}.calls"] = s.calls
                out[f"{layer}.{f}.self_s"] = s.self_s
                if f not in LEAVES:
                    out[f"{layer}.{f}.total_s"] = s.total_s
        info = self._cache_info()
        out["classic.cache_hits"] = info.hits - self._cache_start.hits
        out["classic.cache_misses"] = info.misses - self._cache_start.misses
        out["bary.table_entries"] = sum(len(t) for t in self._tables.values())
        for suite in SUITE_ORDER:
            s = self.stats.get(f"identities.{suite}", _Stat())
            out[f"identities.{suite}.wall_s"] = s.total_s
            out[f"identities.{suite}.self_s"] = s.self_s
            out[f"identities.{suite}.checked"] = self.checked.get(suite, 0)
        return out
