"""Per-layer tracing from outside the package.

Every public function of the seven halfstrip modules is wrapped, and the
wrapper is bound in place of the original in each ``halfstrip`` namespace
that holds it (``invert`` lives in linalg and is imported into branching
and cli, ``classify`` into cli, and so on), so calls made inside the
package go through the wrapper too. ``remove`` restores every binding.
The program itself carries no tracing.

Spans are not kept one by one: each finished call adds its self time (its
duration minus the time its traced callees took) and the counts read from
its return value to one record per function.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass, field

PACKAGE = "halfstrip"
LAYERS = ("model", "linalg", "branching", "classify", "stationary", "oracle", "cli")


def _info_counts(result):
    info = result[1]
    return {"iterations": info.get("iterations", 0), "sweeps": info.get("sweeps", 0)}


def _exit_estimate_counts(est):
    return {"walks": est.samples * est.matrix.shape[0], "censored": int(est.censored.sum())}


# counts read from a function's return value: (names, extractor)
COUNTERS = {
    "branching.exit_down_tail": (("iterations", "sweeps"), _info_counts),
    "branching.exit_up_tail": (("iterations", "sweeps"), _info_counts),
    "branching.exit_down_seq": (("passes",), lambda r: {"passes": r[1]["passes"]}),
    "branching.branching_data": (("depth",), lambda r: {"depth": r.depth}),
    "branching.expected_boundary_visits": (("levels",), lambda r: {"levels": len(r.terms) - 1}),
    "stationary.stationary_dist": (("levels",), lambda r: {"levels": r.levels}),
    "oracle.truncated_solve": (("states",), lambda r: {"states": r.pi.size}),
    "oracle.simulate": (("steps",), lambda r: {"steps": r.total_steps}),
    "oracle.estimate_exit_probability": (("walks", "censored"), _exit_estimate_counts),
}


@dataclass
class Record:
    calls: int = 0
    self_s: float = 0.0
    counts: dict = field(default_factory=dict)
    peaks: dict = field(default_factory=dict)  # largest count in one call


def public_functions():
    """{"<layer>.<name>": function} for the public functions each layer defines."""
    found = {}
    for layer in LAYERS:
        mod = sys.modules[f"{PACKAGE}.{layer}"]
        for name, obj in vars(mod).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                found[f"{layer}.{name}"] = obj
    return found


class Tracer:
    """Wraps the package's public functions while installed.

    ``records[function]`` accumulates over every call made while installed.
    """

    def __init__(self):
        self.functions = public_functions()
        self.records = {}
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        stack = self._stack
        records = self.records
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                if stack:
                    stack[-1] += elapsed
                rec = records.get(name)
                if rec is None:
                    rec = records[name] = Record()
                rec.calls += 1
                rec.self_s += elapsed - inner
            if counter is not None:
                for key, value in counter[1](result).items():
                    rec.counts[key] = rec.counts.get(key, 0) + value
                    rec.peaks[key] = max(rec.peaks.get(key, 0), value)
            return result

        return traced

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {id(fn): (fn, self._wrap(name, fn)) for name, fn in self.functions.items()}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._saved.append((mod, attr, obj))

    def remove(self):
        while self._saved:
            mod, attr, obj = self._saved.pop()
            setattr(mod, attr, obj)
