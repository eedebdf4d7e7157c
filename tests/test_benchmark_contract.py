"""What the benchmark in ``perfbench/`` reads of the package.

The benchmark wraps public functions by the names ``BENCHMARK.json`` lists
and reads counts off their results, so a change that renames or removes
one breaks it. These checks make such a break fail in the main suite, not
only in ``python3 -m pytest perfbench``.
"""
import importlib
import inspect
import json
from pathlib import Path

import numpy as np

import halfstrip as hs

from conftest import reducible_tail_models

ROOT = Path(__file__).resolve().parents[1]


def _public_functions(layer):
    mod = importlib.import_module(f"halfstrip.{layer}")
    return {name for name, obj in vars(mod).items()
            if not name.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == mod.__name__}


def test_per_layer_metrics_name_public_functions():
    """Every ``<layer>.<function>.<count>`` metric names a public function
    that ``halfstrip.<layer>`` defines."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    named = [m["name"].split(".") for m in spec["per_layer"]]
    functions = [(layer, name) for layer, name, _ in (p for p in named if len(p) == 3)]
    assert functions
    missing = [f"{layer}.{name}" for layer, name in functions
               if name not in _public_functions(layer)]
    assert missing == []


def test_branching_data_reports_its_depth(retrial_c1):
    """The benchmark counts ``branching_data(...).depth``."""
    data = hs.branching_data(retrial_c1)
    assert data.depth == retrial_c1.n_prefix + 1


def test_tail_solvers_report_sweeps(retrial_c1):
    """The benchmark counts ``info["sweeps"]`` of both tail solvers."""
    for solver in (hs.exit_down_tail, hs.exit_up_tail):
        _, info = solver(retrial_c1.tail)
        assert isinstance(info["sweeps"], int) and info["sweeps"] >= 1


def test_exit_down_seq_counts_its_passes(retrial_c1):
    """The benchmark counts ``exit_down_seq(...)[1]["passes"]``."""
    d = retrial_c1.d
    _, info = hs.exit_down_seq(retrial_c1, np.zeros((d, d)))
    assert isinstance(info["passes"], int) and info["passes"] >= 2


def test_boundary_visits_keep_their_terms(d1_pos, d1_null, d1_transient):
    """The benchmark counts ``len(expected_boundary_visits(...).terms) - 1``
    levels, for every visit status."""
    seen = set()
    for model in (d1_pos, d1_null, d1_transient, *reducible_tail_models()):
        bv = hs.expected_boundary_visits(hs.branching_data(model))
        assert len(bv.terms) >= 1
        seen.add(bv.status)
    assert seen == {"convergent", "divergent", "inconclusive"}


def test_oracle_results_keep_their_counts(retrial_c1):
    """The benchmark counts ``samples * matrix.shape[0]`` walks and
    ``censored.sum()`` censored walks of an exit estimate, ``total_steps``
    of a simulation and ``pi.size`` states of a truncated solve."""
    d = retrial_c1.d
    est = hs.estimate_exit_probability(retrial_c1, 1, "down",
                                       hs.ExitConfig(seed=1, samples=50, max_steps=1))
    assert est.samples * est.matrix.shape[0] == 50 * d
    assert est.censored.shape == (d,) and 0 < int(est.censored.sum()) <= 50 * d
    stats = hs.simulate(retrial_c1, config=hs.SimConfig(seed=1, cycles=100))
    assert isinstance(stats.total_steps, int) and stats.total_steps >= stats.cycles
    assert hs.truncated_solve(retrial_c1, 10).pi.size == 11 * d
