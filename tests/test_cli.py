"""End-to-end tests for the command-line interface.

Commands run in-process through main(argv) with captured streams, except
one subprocess test that runs the [project.scripts] entry point through a
generated launcher and a real shell pipe.
"""
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import halfstrip as hs
from halfstrip.cli import _dump_json, main

from conftest import (NILPOTENT_TAIL, absorbing_boundary_model, null_behind_prefix_model,
                      random_pos_recurrent_model, reducible_tail_models, refused_level_models,
                      retrial_model, underflow_prefix_models, walled_prefix_models)


def run_cli(argv, stdin_text=None):
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    try:
        if stdin_text is not None:
            sys.stdin = io.StringIO(stdin_text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="session")
def model_files(tmp_path_factory, d1_pos, d1_transient, retrial_c1):
    root = tmp_path_factory.mktemp("cli-models")
    paths = {}
    # the two inconclusive models have a tail phase chain with no unique
    # stationary vector, hence no drift sign
    inconclusive, inconclusive_mixed = reducible_tail_models()
    for name, model in [("pos", d1_pos), ("transient", d1_transient),
                        ("retrial", retrial_c1), ("null_prefix", null_behind_prefix_model()),
                        ("inconclusive", inconclusive),
                        ("inconclusive_mixed", inconclusive_mixed)]:
        p = root / f"{name}.json"
        hs.save_model(model, p)
        paths[name] = str(p)

    p = root / "invalid.json"
    p.write_text(json.dumps({"d": 1, "r0": [[0.0]], "p0": [[0.5]], "prefix": [],
                             "tail": {"p": [[0.3]], "q": [[0.7]], "r": [[0.0]]}}))
    paths["invalid"] = str(p)

    p = root / "malformed.json"
    p.write_text("{not json")
    paths["malformed"] = str(p)
    return paths


# ------------------------------------------------------------ exit codes


def test_classify_ok_exit_0(model_files, d1_pos):
    code, out, _ = run_cli(["classify", model_files["pos"]])
    assert code == 0
    assert out.splitlines()[0] == "verdict: positive-recurrent"
    assert "certificate: return-time-series-finite" in out
    # the upward radius is rho(G) only for null and transient verdicts
    radius_down = hs.classify(hs.branching_data(d1_pos)).tail_radius_down
    assert out.splitlines()[4:6] == ["tail radius up: not defined for this verdict",
                                     f"tail radius down: {radius_down:.6g}"]


def test_classify_transient_still_exit_0(model_files, d1_transient):
    code, out, _ = run_cli(["classify", model_files["transient"]])
    assert code == 0
    assert "verdict: transient" in out
    res = hs.classify(hs.branching_data(d1_transient))
    assert out.splitlines()[4:6] == [f"tail radius up: {res.tail_radius_up:.6g}",
                                     f"tail radius down: {res.tail_radius_down:.6g}"]


def test_classify_inconclusive_exit_4(model_files):
    for name in ("inconclusive", "inconclusive_mixed"):
        code, out, _ = run_cli(["classify", model_files[name]])
        assert code == 4
        assert "verdict: inconclusive" in out


def test_classify_null_recurrent_behind_drift_down_prefix(model_files):
    code, out, _ = run_cli(["classify", model_files["null_prefix"]])
    assert code == 0
    assert out.splitlines()[0] == "verdict: null-recurrent"


def test_classify_behind_a_prefix_wall_is_positive_recurrent(tmp_path):
    for i, model in enumerate(walled_prefix_models()):
        path = tmp_path / f"wall{i}.json"
        hs.save_model(model, path)
        code, out, _ = run_cli(["classify", str(path)])
        assert code == 0
        assert out.splitlines()[:3] == ["verdict: positive-recurrent",
                                        "certificate: return-time-series-finite",
                                        f"return-time bound: {2 * model.d}"]


def test_classify_refused_level_exit_1(tmp_path):
    """A passage factor the condition check refuses ends the command with
    that one error line, and numpy warns of nothing."""
    _, model, message = refused_level_models()[0]
    path = tmp_path / "refused.json"
    hs.save_model(model, path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["classify", str(path)])
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_malformed_json_exit_1(model_files):
    code, _, err = run_cli(["classify", model_files["malformed"]])
    assert code == 1
    assert "not valid JSON" in err


def test_missing_file_exit_1(tmp_path):
    code, _, err = run_cli(["classify", str(tmp_path / "nope.json")])
    assert code == 1
    assert "cannot read model file" in err


def test_validation_failure_exit_2(model_files):
    code, _, err = run_cli(["classify", model_files["invalid"]])
    assert code == 2
    assert "model failed validation" in err
    assert "row-sum" in err


def test_stationary_on_transient_exit_3(model_files):
    code, _, err = run_cli(["stationary", model_files["transient"]])
    assert code == 3
    assert err.startswith("precondition failed:")


@pytest.mark.parametrize("command", ["stationary", "decay"])
def test_underflowing_prefix_over_a_transient_tail_exit_3(tmp_path, command):
    """A long prefix whose float weights vanish over a tail drifting up is
    transient: stationary and decay refuse it."""
    for n, model in enumerate(underflow_prefix_models()):
        path = tmp_path / f"underflow{n}.json"
        hs.save_model(model, path)
        code, out, err = run_cli([command, str(path)])
        assert (code, out) == (3, "")
        assert err.startswith("precondition failed:")
        code, out, _ = run_cli(["classify", str(path), "--format", "json"])
        assert code == 0 and json.loads(out)["results"]["verdict"] == "transient"


def test_example_unknown_kind_exit_1():
    code, out, err = run_cli(["example", "mm1", "--lambda", "0.2", "--mu", "0.5",
                              "--c", "1", "--theta", "0.3"])
    assert (code, out) == (1, "")
    assert "argument kind: invalid choice: 'mm1'" in err


def test_unknown_command_exit_1():
    code, _, err = run_cli(["frobnicate"])
    assert code == 1


def test_no_subcommand_exit_1():
    code, _, err = run_cli([])
    assert code == 1
    assert "subcommand" in err


def test_simulate_missing_seed_exit_1(model_files):
    code, _, err = run_cli(["simulate", model_files["pos"], "--cycles", "10"])
    assert code == 1
    assert "--seed" in err


def test_bad_mu_exit_1(model_files):
    # retrial model has two phases, one entry cannot parse
    code, _, err = run_cli(["classify", model_files["retrial"], "--mu", "1.0"])
    assert code == 1
    assert "phase distribution" in err


# a valid `example` command line, extended by the cases below
EXAMPLE_ARGS = ["retrial", "--lambda", "0.2", "--mu", "0.5", "--c", "1", "--theta", "0.3"]


@pytest.mark.parametrize("argv", [
    ["verify", "--seed", "1", "--samples", "0"],
    ["verify", "--seed", "1", "--cycles", "0"],
    ["verify", "--seed", "1", "--levels", "-1"],
    ["stationary", "--levels", "-3"],
    ["decay", "--levels", "-1"],
    ["classify", "--horizon", "0"],
    ["classify", "--tol", "-1"],
    ["classify", "--tol", "nan"],
    ["classify", "--tol", "inf"],
    ["simulate", "--seed", "1", "--replications", "0"],
    ["simulate", "--seed", "1", "--cycles", "0"],
    ["simulate", "--seed", "1", "--max-steps", "0"],
    ["simulate", "--seed", "-1"],
    ["verify", "--seed", "-1"],
    ["example", "--gamma", "nan"],
    ["example", "--gamma", "-1"],
    ["example", "--prefix-levels", "-1"],
    ["example", "--lambda", "inf"],
    ["example", "--mu", "-0.5"],
    ["example", "--c", "0"],
], ids=" ".join)
def test_out_of_range_option_exit_1(model_files, argv):
    """Counts below their minimum, non-finite or negative tolerances, and
    the example generator's out-of-range rates, server count and prefix
    length are usage errors, rejected while parsing, before any work
    starts. The last occurrence of an option wins."""
    lead = EXAMPLE_ARGS if argv[0] == "example" else [model_files["pos"]]
    code, out, err = run_cli([argv[0]] + lead + argv[1:])
    assert code == 1
    assert out == ""
    assert "error: argument" in err
    assert "Traceback" not in err


def test_simulate_has_no_tol_option(model_files):
    """simulate runs no fixed-point solver, so it takes no --tol."""
    code, out, err = run_cli(["simulate", model_files["pos"], "--seed", "1",
                              "--tol", "1e-6"])
    assert (code, out) == (1, "")
    assert "unrecognized arguments" in err


@pytest.mark.parametrize("option, want", [
    (["--gamma", "0"], 3),
    (["--lambda", "0"], 1),
])
def test_example_zero_rate_keeps_its_exit_code(option, want):
    code, out, _ = run_cli(["example"] + EXAMPLE_ARGS + option)
    assert (code, out) == (want, "")


def test_version_flag():
    out = io.StringIO()
    with pytest.raises(SystemExit) as exc:
        with contextlib.redirect_stdout(out):
            main(["--version"])
    assert exc.value.code == 0
    assert out.getvalue().strip() == hs.__version__


# ------------------------------------------------------------ stdin, output


def test_stdin_is_default_model_source(d1_pos):
    text = json.dumps(hs.model_to_dict(d1_pos))
    code, out, _ = run_cli(["classify"], stdin_text=text)
    assert code == 0
    assert "positive-recurrent" in out

    code, out, _ = run_cli(["classify", "-"], stdin_text=text)
    assert code == 0


def test_output_file_flag(model_files, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(["classify", model_files["pos"],
                            "--format", "json", "-o", str(target)])
    assert code == 0
    assert out == ""
    report = json.loads(target.read_text())
    assert report["results"]["verdict"] == "positive-recurrent"


# ------------------------------------------------------------ report shape


def test_classify_json_report(model_files):
    code, out, _ = run_cli(["classify", model_files["retrial"],
                            "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert sorted(report) == ["checks", "command", "inputs", "results", "version"]
    assert report["command"] == "classify"
    assert report["version"] == hs.__version__
    res = report["results"]
    assert res["verdict"] == "positive-recurrent"
    assert res["certificate"] == "return-time-series-finite"
    assert res["return_time_bound"] > 1.0


def test_classify_ignores_horizon_and_verify_rejects_it(model_files):
    """``classify --horizon`` is still accepted and changes no byte of the
    report, which no longer echoes it; ``verify`` has no such option."""
    argv = ["classify", model_files["transient"], "--format", "json"]
    _, plain, _ = run_cli(argv)
    code, out, _ = run_cli(argv + ["--horizon", "40000"])
    assert code == 0 and out == plain
    assert "horizon" not in out
    code, _, err = run_cli(["verify", model_files["pos"], "--seed", "1", "--horizon", "5"])
    assert code == 1 and "--horizon" in err


@pytest.mark.parametrize("excess", [-1e-8, 1e-8, -1e-10, 1e-10, -1e-12, 1e-12, -1e-14, 1e-14])
def test_classify_near_critical_retrial_agrees_with_drift_sign(tmp_path, excess):
    """Retrial c=1 (mu 0.5, theta 0.3) at r_c - 1 = excess: every verdict
    is the one the sign of r_c - 1 gives, which the exact drift of the
    stored floats shares where the float drift is within its rounding bound
    (+/-1e-14). From +/-1e-12 on, the value that goes with the verdict is
    NaN: invert refuses I - A or I - B G_1."""
    mu, theta = 0.5, 0.3
    lam = (-theta + math.sqrt(theta * theta + 4 * (1.0 + excess) * mu * theta)) / 2.0
    model = hs.uniformize(hs.build_retrial(lam, mu, 1, hs.RetrySchedule.parse("0.3")))
    path = tmp_path / "model.json"
    hs.save_model(model, path)
    code, out, err = run_cli(["classify", str(path), "--format", "json"])
    assert "Traceback" not in err
    assert code == 0
    results = json.loads(out)["results"]
    value = "return_time_bound" if excess < 0 else "boundary_visits"
    assert results["verdict"] == ("positive-recurrent" if excess < 0 else "transient")
    assert (results[value] == "NaN") == (abs(excess) <= 1e-12)
    exact = hs.branching.drift_sign(hs.branching.tail_drift(model.tail)) == 0
    assert exact == (abs(excess) == 1e-14)


def test_classify_reads_rate_model_file(tmp_path):
    # a saved rate model runs as its uniformized chain at the default gamma
    gen = hs.build_retrial(0.2, 0.5, 1, hs.RetrySchedule.parse("0.3"))
    results = []
    for name, model in [("generator", gen), ("chain", hs.as_chain(gen))]:
        path = tmp_path / f"{name}.json"
        hs.save_model(model, path)
        code, out, _ = run_cli(["classify", str(path), "--format", "json"])
        assert code == 0
        results.append(json.loads(out)["results"])
    assert results[0] == results[1]


MALFORMED_DOCS = [
    (False, "prefix", "pqr"), (False, "prefix", [1]), (False, "prefix", None),
    (False, "tail", 5), (False, "d", 2.5), (False, "d", "2"), (False, "d", True),
    (False, "type", "weird"),
    (True, "gamma", math.inf), (True, "gamma", math.nan), (True, "gamma", "x"),
    (False, "gamma", 1.0), (False, "extra", 1), (True, "gama", 2.0),
]


@pytest.mark.parametrize("generator, key, value", MALFORMED_DOCS,
                         ids=[f"{key}={value!r}" for _, key, value in MALFORMED_DOCS])
def test_malformed_model_document_exit_1(tmp_path, generator, key, value):
    """A document of the retrial example (its chain, or its rate model for
    gamma) with one field malformed is refused as a malformed model file,
    exit 1 without a traceback: a prefix that is not a list of objects, a
    tail that is not an object, a d that is not an integer, an unknown type,
    a gamma that is not a positive finite number, and a field the document's
    flavor does not have (a chain's gamma, a misspelled one)."""
    gen = hs.build_retrial(0.2, 0.5, 1, hs.RetrySchedule.parse("0.3"))
    doc = hs.model_to_dict(gen if generator else hs.uniformize(gen))
    doc[key] = value
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))  # gamma inf and nan as Infinity and NaN
    code, out, err = run_cli(["classify", str(path)])
    assert (code, out) == (1, "")
    assert err.startswith("model file malformed: ")
    assert "Traceback" not in err


def test_classify_mu_reports_return_time(model_files):
    # phase 1 is the only boundary phase with an upward transition
    code, out, _ = run_cli(["classify", model_files["retrial"],
                            "--mu", "0.0,1.0", "--format", "json"])
    assert code == 0
    rt = json.loads(out)["results"]["return_time"]
    assert rt == pytest.approx(5.0, abs=1e-9)

    # phase 0 never leaves the boundary, so it returns in exactly one step
    code, out, _ = run_cli(["classify", model_files["retrial"],
                            "--mu", "1.0,0.0", "--format", "json"])
    assert json.loads(out)["results"]["return_time"] == pytest.approx(1.0)


def test_classify_nan_mu_exit_1(model_files):
    """A NaN phase entry passes neither a sign nor a sum test written as
    ``x < bound``, yet it is no probability vector: usage error."""
    for mu in ("nan,1", "1,nan", "inf,0"):
        code, out, err = run_cli(["classify", model_files["retrial"], "--mu", mu,
                                  "--format", "json"])
        assert code == 1, mu
        assert out == ""
        assert "probability vector" in err


def test_decay_json_fields(model_files):
    code, out, _ = run_cli(["decay", model_files["pos"], "--format", "json"])
    assert code == 0
    res = json.loads(out)["results"]
    assert res["rate"] == pytest.approx(3.0 / 7.0, abs=1e-10)
    assert res["log_rate"] == pytest.approx(math.log(3.0 / 7.0), abs=1e-10)
    assert len(res["empirical"]) == 1


def test_simulate_pretty(model_files):
    # cycle counts round up to a multiple of the replication count
    code, out, _ = run_cli(["simulate", model_files["pos"], "--seed", "7",
                            "--cycles", "512"])
    assert code == 0
    assert "cycles completed: 512 (discarded 0)" in out
    line = next(l for l in out.splitlines() if l.startswith("mean return time"))
    assert float(line.split()[3]) > 1.0


def test_stationary_pretty_lists_checks(model_files):
    code, out, _ = run_cli(["stationary", model_files["retrial"]])
    assert code == 0
    assert "check matrix-product-form: pass" in out
    assert "check global-balance-residual: pass" in out
    assert "truncated" not in out


@pytest.mark.parametrize("excess, mass", [(-5.5e-6, 0.4231), (-1e-4, 0.99995)])
def test_stationary_says_when_the_level_cap_cuts_it_off(excess, mass):
    """Near r_c = 1 the mass cutoff lies past the level cap: the report
    still passes both checks, and says so in its results and pretty form."""
    theta, mu = 0.3, 0.5
    lam = (-theta + math.sqrt(theta * theta + 4.0 * (1.0 + excess) * mu * theta)) / 2.0
    _, model, _ = run_cli(["example", "retrial", "--lambda", repr(lam), "--mu", "0.5",
                           "--c", "1", "--theta", "0.3"])
    code, out, _ = run_cli(["stationary", "-", "--format", "json"], stdin_text=model)
    assert code == 0
    report = json.loads(out)
    results = report["results"]
    assert results["truncated_at_cap"] is True
    assert results["levels"] == hs.stationary.LEVEL_CAP
    assert results["mass"] == pytest.approx(mass, abs=5e-5)
    assert all(c["status"] == "pass" for c in report["checks"])
    assert len(out) < 2048
    code, out, _ = run_cli(["stationary", "-"], stdin_text=model)
    assert code == 0
    assert f"truncated at the level cap: mass {1.0 - results['mass']:.3g} lies beyond " \
        "level 100000" in out


def test_stationary_csv(model_files):
    code, out, _ = run_cli(["stationary", model_files["pos"],
                            "--format", "csv", "--levels", "12"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "level,phase,nu,log_nu_over_n"
    assert len(lines) == 1 + 13
    assert "np.float64" not in out
    for row in lines[1:]:
        cells = row.split(",")
        assert int(cells[0]) >= 0
        assert float(cells[2]) >= 0.0
        # the per-level log-rate column is blank at the boundary
        if int(cells[0]) == 0:
            assert cells[3] == ""
        else:
            assert math.isfinite(float(cells[3]))


@pytest.mark.parametrize("fmt", ["pretty", "json", "csv"])
def test_stationary_failed_check_exits_5_in_every_format(model_files, monkeypatch, fmt):
    """One exit rule for every format: a failed stationary check exits 5,
    and the report is still written."""
    argv = ["stationary", model_files["retrial"], "--format", fmt]
    code, out, _ = run_cli(argv)
    assert code == 0
    monkeypatch.setattr(hs.cli, "matrix_product_check", lambda data, result: 1.0)
    failed_code, failed_out, _ = run_cli(argv)
    assert failed_code == 5
    if fmt == "csv":
        assert failed_out == out
    else:
        assert "fail" in failed_out


# ------------------------------------------------------------ verify


VERIFY_CHECKS = [
    "ascent-exit-stochastic",
    "matrix-product-form",
    "global-balance-residual",
    "return-time-reciprocal-is-boundary-mass",
    "stationary-vs-truncated-solve",
    "visits-per-cycle-vs-simulation",
    "return-time-vs-simulation",
    "boundary-measure-vs-simulation",
    "boundary-exit-vs-simulation",
    "descent-exit-vs-simulation",
]
EXIT_CHECKS = VERIFY_CHECKS[-2:]


class _CountingExits:
    """Stands in for ``estimate_exit_probability``, counting its calls and
    recording the start phases each one walked."""

    def __init__(self):
        self.calls = []
        self.rows = []

    def __call__(self, model, level, direction, config, phases=None):
        self.calls.append((level, direction))
        est = hs.estimate_exit_probability(model, level, direction, config, phases=phases)
        self.rows.append(est.phases)
        return est


def test_verify_deterministic_and_green(model_files, monkeypatch):
    """On the scalar chain every walk enters its target level in the one
    phase, so both exit checks are skipped with a reason and walk nothing;
    every other check runs and passes."""
    walks = _CountingExits()
    monkeypatch.setattr(hs.cli, "estimate_exit_probability", walks)
    argv = ["verify", model_files["pos"], "--seed", "42",
            "--cycles", "5000", "--samples", "2000"]
    code1, out1, _ = run_cli(argv)
    code2, out2, _ = run_cli(argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert walks.calls == []

    report = json.loads(out1)
    assert [c["name"] for c in report["checks"]] == VERIFY_CHECKS[:-2]
    for c in report["checks"]:
        assert c["status"] == "pass"
        assert c["measured"] <= c["tolerance"]
    results = report["results"]
    assert results["checks_passed"] == results["checks_total"] == len(VERIFY_CHECKS) - 2
    assert [c["name"] for c in results["skipped_checks"]] == EXIT_CHECKS
    assert all("phase 0" in c["reason"] for c in results["skipped_checks"])
    lines = run_cli(argv + ["--format", "pretty"])[1].splitlines()
    assert [line.split(" (")[0] for line in lines[-2:]] == [
        f"check {name}: skipped" for name in EXIT_CHECKS]


def test_verify_full_support_model_runs_every_check(tmp_path, monkeypatch):
    """A model whose blocks are all positive keeps both exit checks: they
    walk, pass, and report their walks per start phase and the walks cut
    off by the step cap."""
    model, _ = random_pos_recurrent_model(np.random.default_rng(7), 2)
    path = tmp_path / "full.json"
    hs.save_model(model, path)
    walks = _CountingExits()
    monkeypatch.setattr(hs.cli, "estimate_exit_probability", walks)
    code, out, err = run_cli(["verify", str(path), "--seed", "42",
                              "--cycles", "5000", "--samples", "2000"])
    assert code == 0, err
    assert walks.calls == [(0, "up"), (3, "down")]  # the first tail level
    assert walks.rows == [[0, 1], [0, 1]]
    report = json.loads(out)
    assert report["checks"][-1]["context"]["phases"] == [0, 1]
    assert [c["name"] for c in report["checks"]] == VERIFY_CHECKS
    assert all(c["status"] == "pass" for c in report["checks"])
    assert report["results"]["checks_passed"] == len(VERIFY_CHECKS)
    assert "skipped_checks" not in report["results"]
    for c in report["checks"][-2:]:
        assert (c["context"]["samples"], c["context"]["censored"]) == (2000, 0)
    # each Monte Carlo cell check counts the cells it compared
    for c in report["checks"][-5:]:
        if c["name"] != "return-time-vs-simulation":
            assert c["context"]["unit"] == "deviation / (3 s.e.)"
            assert c["context"]["cells"] >= 1 and c["context"]["cells_skipped_rare"] >= 0


@pytest.mark.parametrize("servers, skipped, walked", [
    (1, EXIT_CHECKS, []),
    (3, EXIT_CHECKS[:1], [(1, "down")]),
])
def test_verify_skips_the_exit_checks_the_support_decides(tmp_path, monkeypatch,
                                                           servers, skipped, walked):
    """An arrival that finds every server busy joins the orbit, so P0 has
    one nonzero column on every retrial model and the boundary check is
    skipped. At c = 1 the down block has one nonzero column too; at c = 3
    it has three, and the descent check walks."""
    path = tmp_path / "retrial.json"
    hs.save_model(retrial_model(0.2 * servers, 0.5, servers), path)
    walks = _CountingExits()
    monkeypatch.setattr(hs.cli, "estimate_exit_probability", walks)
    code, out, err = run_cli(["verify", str(path), "--seed", "1",
                              "--cycles", "2000", "--samples", "500"])
    assert code == 0, err
    assert walks.calls == walked
    report = json.loads(out)
    assert [c["name"] for c in report["results"]["skipped_checks"]] == skipped
    names = [c["name"] for c in report["checks"]]
    assert names == [name for name in VERIFY_CHECKS if name not in skipped]
    assert report["results"]["checks_total"] == len(names)


@pytest.mark.parametrize("arrival, service, servers", [(0.4, 0.3, 3), (0.3, 0.3, 4),
                                                       (1.5, 0.3, 8)])
def test_verify_descent_walks_only_the_all_busy_row(tmp_path, monkeypatch,
                                                    arrival, service, servers):
    """P0 and the up blocks of a retrial model have one nonzero column, the
    all-busy phase c, so the descent from level 1 walks and compares that
    row alone and names it in its context; the other c rows are read by no
    answer."""
    path = tmp_path / "retrial.json"
    hs.save_model(retrial_model(arrival, service, servers), path)
    walks = _CountingExits()
    monkeypatch.setattr(hs.cli, "estimate_exit_probability", walks)
    code, out, err = run_cli(["verify", str(path), "--seed", "1",
                              "--cycles", "2000", "--samples", "500"])
    assert code == 0, err
    assert (walks.calls, walks.rows) == ([(1, "down")], [[servers]])
    check = json.loads(out)["checks"][-1]
    assert check["name"] == EXIT_CHECKS[1]
    assert check["context"]["phases"] == [servers]
    assert check["context"]["cells"] + check["context"]["cells_skipped_rare"] == servers + 1


def test_descent_at_the_first_tail_level_reads_the_tail_up_block_too():
    """The tail root serves every tail level, so at the first tail level
    the rows read are those the last prefix up block or the tail's up block
    enters; at a prefix level, those its entering up block enters."""
    def triple(up_col):
        up = np.zeros((2, 2))
        up[:, up_col] = 0.2
        return hs.BlockTriple(up=up, down=np.full((2, 2), 0.15), stay=np.full((2, 2), 0.25))

    p0 = np.zeros((2, 2))
    p0[:, 0] = 0.3
    model = hs.QbdModel(d=2, r0=np.full((2, 2), 0.35), p0=p0, prefix=(triple(0),),
                        tail=triple(1))
    data = hs.branching_data(model)
    cfg = hs.ExitConfig(seed=1, samples=200)
    checks = []
    for level, phases in ((1, [0]), (2, [0, 1])):
        hs.cli._exit_check("descent", model, level, data.exit_down_at(level), cfg, checks, [])
        assert checks[-1]["context"]["phases"] == phases


def test_verify_runs_and_fails_a_boundary_reference_off_its_unit_row(model_files,
                                                                      monkeypatch):
    """Moving 1e-3 of one boundary-exit row to another column breaks the
    support rule: the check walks again and, at 10^5 walks per phase,
    fails, since every walk still enters level 1 in the one phase."""
    exit_up_seq = hs.cli.exit_up_seq

    def moved(model, n_max):
        exits = exit_up_seq(model, n_max)
        exits[0] = exits[0] + np.array([[1e-3, -1e-3], [0.0, 0.0]])
        return exits

    monkeypatch.setattr(hs.cli, "exit_up_seq", moved)
    code, out, err = run_cli(["verify", model_files["retrial"], "--seed", "1",
                              "--cycles", "2000", "--samples", "100000"])
    assert code == 5, err
    report = json.loads(out)
    assert [c["name"] for c in report["results"]["skipped_checks"]] == EXIT_CHECKS[1:]
    failed = [c for c in report["checks"] if c["status"] == "fail"]
    assert [c["name"] for c in failed] == EXIT_CHECKS[:1]
    assert failed[0]["measured"] > 3.0


def test_verify_runs_and_fails_a_scaled_descent_reference(retrial_c1):
    """A descent reference whose read row, the busy phase 1 that P0 enters,
    is scaled by 0.99 breaks the support rule: the check walks that row
    and, at 10^5 walks, fails. The unit reference is skipped, and so is
    the same defect in row 0: no walk enters level 1 in the idle phase, so
    no answer reads that row, and the row compared is still e_1."""
    reference = hs.branching_data(retrial_c1).exit_down_at(1)
    cfg = hs.ExitConfig(seed=1, samples=100_000)
    checks, skipped = [], []
    for rows in ([1.0, 1.0], [0.99, 1.0]):
        hs.cli._exit_check("descent", retrial_c1, 1, reference * np.array(rows)[:, None],
                           cfg, checks, skipped)
        assert (checks, skipped[-1]["name"]) == ([], "descent")
    assert "every reference row is e_1" in skipped[-1]["reason"]
    scaled = reference * np.array([[1.0], [0.99]])
    hs.cli._exit_check("descent", retrial_c1, 1, scaled, cfg, checks, skipped)
    check, = checks
    assert (check["status"], check["context"]["censored"]) == ("fail", 0)
    assert check["context"]["phases"] == [1]


def test_verify_fails_an_upward_exit_off_the_stochastic_matrices(model_files, monkeypatch):
    """With upward exits stochastic by construction the ascent check can
    fail: an exit that loses 1e-6 of one row's mass is reported failed, with
    that loss measured."""
    exit_up_seq = hs.cli.exit_up_seq

    def leaky(model, n_max):
        exits = exit_up_seq(model, n_max)
        exits[1] = exits[1].copy()
        exits[1][0] *= 1.0 - 1e-6 / exits[1][0].sum()
        return exits

    monkeypatch.setattr(hs.cli, "exit_up_seq", leaky)
    code, out, err = run_cli(["verify", model_files["retrial"], "--seed", "1",
                              "--cycles", "2000", "--samples", "300"])
    assert code == 5, err
    check, = (c for c in json.loads(out)["checks"] if c["name"] == "ascent-exit-stochastic")
    assert check["status"] == "fail"
    assert abs(check["measured"] - 1e-6) <= 1e-12


def test_verify_one_cycle_floors_the_return_time_se(model_files):
    """One cycle means one replication and a NaN return-time s.e.; the
    check falls back to its 1/cycles floor instead of failing on NaN."""
    code, out, err = run_cli(["verify", model_files["pos"], "--seed", "1",
                              "--cycles", "1", "--samples", "300"])
    assert code == 0, err
    check, = (c for c in json.loads(out)["checks"]
              if c["name"] == "return-time-vs-simulation")
    assert math.isfinite(check["measured"])
    assert check["status"] == "pass"


def test_verify_non_recurrent_short_circuits(model_files):
    code, out, _ = run_cli(["verify", model_files["transient"], "--seed", "1"])
    assert code == 0
    report = json.loads(out)
    assert report["results"]["verdict"] == "transient"
    checks = report["checks"]
    assert len(checks) == 1
    assert checks[0]["name"] == "classification-certified"
    assert checks[0]["status"] == "pass"


def test_verify_inconclusive_exit_4(model_files):
    for name in ("inconclusive", "inconclusive_mixed"):
        code, out, _ = run_cli(["verify", model_files[name], "--seed", "1"])
        assert code == 4
        report = json.loads(out)
        assert report["checks"][0]["status"] == "fail"


@pytest.mark.parametrize("excess", [-1e-12, -1e-13])
def test_verify_refused_normalizer_fails_one_check(tmp_path, excess):
    """Retrial c=1 just below r_c = 1 is certified positive recurrent, but
    invert refuses I - A, so no stationary distribution is certified:
    verify reports that as its one failed check and exits 5."""
    mu, theta = 0.5, 0.3
    lam = (-theta + math.sqrt(theta * theta + 4 * (1.0 + excess) * mu * theta)) / 2.0
    path = tmp_path / "model.json"
    hs.save_model(hs.uniformize(hs.build_retrial(lam, mu, 1, hs.RetrySchedule.parse("0.3"))),
                  path)
    code, out, err = run_cli(["verify", str(path), "--seed", "1"])
    assert code == 5 and err == ""
    report = json.loads(out)
    assert report["results"] == {"verdict": "positive-recurrent",
                                 "certificate": "return-time-series-finite"}
    check, = report["checks"]
    assert (check["name"], check["status"]) == ("stationary-certified", "fail")
    assert "condition number" in check["context"]["reason"]


def test_verify_behind_a_prefix_wall_reports(tmp_path):
    """A walk that never rises past its wall has no upward exit there and
    never enters its tail: verify compares the upward exits below the
    wall, descends from the wall level, passes every analytic check and
    exits 0, or 5 on the d = 2 wall, whose phases never mix, so the
    truncated solve has no unique answer. At d = 1 the support decides
    both exit checks, so they are skipped."""
    analytic = ("ascent-exit-stochastic", "matrix-product-form", "global-balance-residual",
                "return-time-reciprocal-is-boundary-mass")
    for i, model in enumerate(walled_prefix_models()):
        path = tmp_path / f"wall{i}.json"
        hs.save_model(model, path)
        start = time.perf_counter()
        code, out, err = run_cli(["verify", str(path), "--seed", "1"])
        assert time.perf_counter() - start < 30.0
        assert err == ""
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert all(checks[name]["status"] == "pass" for name in analytic)
        assert checks["ascent-exit-stochastic"]["context"] == {
            "levels_compared": 1, "refusal": "LAPACK: Singular matrix"}
        truncated = checks["stationary-vs-truncated-solve"]
        if model.d == 1:
            assert code == 0
            skipped = json.loads(out)["results"]["skipped_checks"]
            assert [c["name"] for c in skipped] == EXIT_CHECKS
            assert not set(EXIT_CHECKS) & set(checks)
        else:
            descent = checks["descent-exit-vs-simulation"]
            assert descent["context"]["level"] == 1 and descent["context"]["censored"] == 0
            assert code == 5 and truncated["status"] == "fail"
            assert truncated["context"]["refusal"] == "stationary system is singular"


def test_verify_refused_boundary_exit_fails_without_walking(tmp_path, monkeypatch):
    """A layer-0 phase that never rises has no upward exit, so no upward
    level can be compared: the ascent check names the refusal with no
    level compared, and the boundary check fails on it without a walk,
    where walkers from that phase would run to the step cap. The descent
    check still walks, and verify exits 5, not 1."""
    path = tmp_path / "absorbing.json"
    hs.save_model(absorbing_boundary_model(), path)
    walks = _CountingExits()
    monkeypatch.setattr(hs.cli, "estimate_exit_probability", walks)
    start = time.perf_counter()
    code, out, err = run_cli(["verify", str(path), "--seed", "1"])
    assert time.perf_counter() - start < 30.0
    assert (code, err) == (5, "")
    assert walks.calls == [(1, "down")]
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    refusal = "LAPACK: Singular matrix"
    assert checks["ascent-exit-stochastic"]["context"] == {"levels_compared": 0,
                                                           "refusal": refusal}
    assert checks["ascent-exit-stochastic"]["status"] == "pass"
    boundary = checks["boundary-exit-vs-simulation"]
    assert (boundary["status"], boundary["context"]) == ("fail", {"refusal": refusal})


def test_verify_skips_a_descent_no_walk_enters(tmp_path, monkeypatch):
    """With P0 = 0 no walk leaves layer 0, so no answer reads the exit of
    level 1 and its descent check is skipped with that reason; walkers from
    layer 0 never rise either, so no answer reads an upward exit and the
    boundary check is skipped too, without a walk."""
    level = hs.BlockTriple(up=np.full((2, 2), 0.1), down=np.full((2, 2), 0.2),
                           stay=np.full((2, 2), 0.2))
    path = tmp_path / "closed.json"
    hs.save_model(hs.QbdModel(d=2, r0=np.full((2, 2), 0.5), p0=np.zeros((2, 2)),
                              prefix=(level,), tail=level), path)
    walks = _CountingExits()
    monkeypatch.setattr(hs.cli, "estimate_exit_probability", walks)
    code, out, err = run_cli(["verify", str(path), "--seed", "1", "--cycles", "500"])
    assert (code, err, walks.calls) == (0, "", [])
    report = json.loads(out)
    boundary, descent = report["results"]["skipped_checks"]
    assert [boundary["name"], descent["name"]] == EXIT_CHECKS
    assert "no walk rises from layer 0" in boundary["reason"]
    assert "no walk enters it from below" in descent["reason"]
    assert all(c["status"] == "pass" for c in report["checks"])


def test_nilpotent_tail_offspring_model(tmp_path):
    """A valid model whose downward tail offspring matrix is nilpotent has
    Perron root 0: classify, stationary and decay all finish, and the
    stationary rows match the dense truncated solve."""
    path = tmp_path / "nilpotent.json"
    path.write_text(json.dumps(NILPOTENT_TAIL))
    reports = {}
    for command in ("classify", "stationary", "decay"):
        code, out, err = run_cli([command, str(path), "--format", "json"])
        assert code == 0, err
        reports[command] = json.loads(out)["results"]
    assert reports["classify"]["verdict"] == "positive-recurrent"
    assert reports["classify"]["tail_radius_down"] == 0.0
    assert reports["decay"]["rate"] == 0.0
    nu = hs.expand_rows(reports["stationary"])
    rows = hs.truncated_solve(hs.model_from_dict(NILPOTENT_TAIL), 40).level_rows()
    assert sum(np.abs(rows[n] - nu[n]).sum() for n in range(len(nu))) < 1e-13


# ------------------------------------------------------------ example


def test_example_emits_loadable_model():
    code, out, _ = run_cli(["example", "retrial", "--lambda", "0.2",
                            "--mu", "0.5", "--c", "1", "--theta", "0.3"])
    assert code == 0
    model = hs.model_from_dict(json.loads(out))
    assert model.d == 2
    assert hs.validate(model).ok


def test_example_round_trips_byte_identical():
    argv = ["example", "retrial", "--lambda", "0.2", "--mu", "0.5",
            "--c", "1", "--theta", "0.3"]
    _, out, _ = run_cli(argv)
    reparsed = hs.model_to_dict(hs.model_from_dict(json.loads(out)))
    assert _dump_json(reparsed) == out


def test_example_feeds_classify_via_stdin():
    _, out, _ = run_cli(["example", "retrial", "--lambda", "0.2", "--mu", "0.5",
                         "--c", "1", "--theta", "0.3"])
    code, out2, _ = run_cli(["classify"], stdin_text=out)
    assert code == 0
    assert "positive-recurrent" in out2


def test_example_bad_theta_exit_1():
    code, _, err = run_cli(["example", "retrial", "--lambda", "0.2",
                            "--mu", "0.5", "--c", "1", "--theta", "garbage"])
    assert code == 1
    assert "retry schedule" in err


def write_console_script(name, bin_dir):
    """Write the [project.scripts] launcher for `name` into bin_dir, as pip
    does on install, so the script runs without an installed package."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"][name]
    module, _, attr = entry.partition(":")
    script = bin_dir / name
    script.write_text(f"#!{sys.executable}\n"
                      "import sys\n"
                      f"import {module}\n"
                      f"sys.exit({module}.{attr}())\n")
    script.chmod(0o755)


def test_console_script_pipe(tmp_path):
    # the documented one-liner: generate a model, pipe it into decay
    write_console_script("halfstrip", tmp_path)
    # the child imports the same halfstrip package as this process
    src = str(Path(hs.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PATH"] = os.pathsep.join([str(tmp_path), env.get("PATH", "")])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        "halfstrip example retrial --lambda 0.2 --mu 0.5 --c 1 --theta 0.3"
        " | halfstrip decay",
        shell=True, capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0
    assert "decay rate: 0.666667" in proc.stdout


# ------------------------------------------------------------ report bytes

# SHA-256 of each report as written before reports were encoded in one pass
# (_plain_reference and json.dumps below). They pin the exact bytes: a change
# here is a change of the report format, never a value to re-record. The
# stationary digest is of report schema 2 (rows from the first tail level on
# in matrix-geometric form); SCHEMA1_STATIONARY pins the explicit-row report
# of schema 1, which the schema-2 report expands back to.
CRITICAL_LAMBDA = "0.2651505750929414"  # one-server retrial, mu 0.5, theta 0.3: r_c - 1 = -1e-3
SCHEMA1_STATIONARY = "b4368ae51ff2e1d13760b1653c1e704b320cd55c7e5b08fd76ae22463b4d9a14"
FROZEN_DIGESTS = {
    "example": "096a722c10a5b59bcef77c9a31aedaba663c69301910c7738f28cb8a3ba55ead",
    "stationary": "211a04dc4d872aa0cc72d52e8b0f692639fee192d53fd086cd1af5c6d6d73deb",
    "decay": "985db1ee605d779b77fafb6a220da0fceca6e8a68f31e51237d78d3dcf4596a3",
    "simulate": "09d37f2068356270938d66fb47fe487a0a5c34b512ef98126875f3c7d078d9f5",
}


def test_report_bytes_match_frozen_digests():
    """The models go through stdin so no report echoes a file path: the
    critical stationary report and the 1.6 MB schema-1 report its rows
    expand to (the numeric-array path), NaN inside a list (decay at zero
    levels) and NaN scalars and rows (one simulated cycle)."""
    example = ["example", "retrial", "--mu", "0.5", "--c", "1", "--theta", "0.3"]
    _, small, _ = run_cli(example + ["--lambda", "0.2"])
    _, critical, _ = run_cli(example + ["--lambda", CRITICAL_LAMBDA])
    reports = {"example": small}
    for name, argv, model in [
            ("stationary", ["stationary", "-", "--format", "json"], critical),
            ("decay", ["decay", "-", "--levels", "0", "--format", "json"], small),
            ("simulate", ["simulate", "-", "--seed", "1", "--cycles", "1",
                          "--replications", "1", "--format", "json"], small)]:
        code, reports[name], _ = run_cli(argv, stdin_text=model)
        assert code == 0
    assert len(reports["stationary"]) == 1_509
    assert '"NaN"' in reports["decay"] and '"NaN"' in reports["simulate"]
    digests = {name: hashlib.sha256(text.encode()).hexdigest()
               for name, text in reports.items()}
    assert digests == FROZEN_DIGESTS
    report = json.loads(reports["stationary"])
    results = report["results"]
    assert results["schema"] == 2 and results["truncated_at_cap"] is False
    results["nu"] = hs.expand_rows(results)
    for key in ("tail", "schema", "truncated_at_cap"):
        del results[key]
    schema1 = _dump_json(report)
    assert len(schema1) == 1_631_799
    assert hashlib.sha256(schema1.encode()).hexdigest() == SCHEMA1_STATIONARY


# SHA-256 of the 512-level a+b/n prefix model file and of its classify,
# stationary and decay reports, recorded before the levels were stored as
# stacked arrays and the backward pass stepped over them. Like
# FROZEN_DIGESTS, a change here is a change of the numbers, never a value
# to re-record.
PREFIX512_DIGESTS = {
    "model": "0a6bf758f54246bf24ba1366171fbc6ae5cd95bbec0a3d0b1edcf749d847d9d8",
    "classify": "6981d864febf125302879d68d01203d5208833d85880775989d485d34f63ec15",
    "stationary": "b4441c8da854aaab9d3ffddbb41991176ae125d2d3868adb3180393af1c80ef1",
    "decay": "1620d745675804ab0ff963acca6b266d086478b1436de862b63b2729f10fe450",
}


def test_prefix512_bytes_match_frozen_digests(tmp_path):
    """The 512-level prefix model saves, loads and saves again to the same
    bytes, and its reports, the model fed through stdin so that no report
    echoes a path, keep their digests."""
    path = tmp_path / "prefix512.json"
    hs.save_model(retrial_model(0.2, 0.5, 1, theta="0.3+0.3/n"), path)
    text = path.read_text()
    hs.save_model(hs.load_model(path), path)
    assert path.read_text() == text
    reports = {"model": text}
    for command in ("classify", "stationary", "decay"):
        code, reports[command], _ = run_cli([command, "-", "--format", "json"], stdin_text=text)
        assert code == 0
    digests = {name: hashlib.sha256(report.encode()).hexdigest()
               for name, report in reports.items()}
    assert digests == PREFIX512_DIGESTS

def _plain_reference(obj):
    """The converter reports went through before the one-pass encoder."""
    if isinstance(obj, np.ndarray):
        return _plain_reference(obj.tolist())
    if isinstance(obj, (np.floating, np.integer)):
        return _plain_reference(obj.item())
    if isinstance(obj, float):
        if math.isnan(obj):
            return "NaN"
        if math.isinf(obj):
            return "Infinity" if obj > 0 else "-Infinity"
        return obj
    if isinstance(obj, dict):
        return {str(k): _plain_reference(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain_reference(v) for v in obj]
    return obj


def _dump_json_reference(payload):
    return json.dumps(_plain_reference(payload), sort_keys=True, indent=2) + "\n"


_floats = st.floats(allow_nan=True, allow_infinity=True)
_numbers = st.one_of(_floats, st.integers(),
                     st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324,
                                      2.2250738585072014e-308, 2**64]))
_finite = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.integers(-2**70, 2**70))
_payload_leaves = st.one_of(
    _numbers, st.booleans(), st.none(), st.text(max_size=8),
    _floats.map(np.float64), st.integers(-2**63, 2**63 - 1).map(np.int64),
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0,
                                            max_side=4), elements=_floats),
    hnp.arrays(np.int64, hnp.array_shapes(min_dims=0, max_dims=2, min_side=0,
                                          max_side=3)),
    # the shapes the numeric-array path takes or must refuse: flat, rows,
    # ragged and empty rows, mixed int/float
    st.lists(_numbers, max_size=6),
    st.lists(st.lists(_numbers, max_size=4), max_size=4),
    st.lists(st.lists(_finite, min_size=1, max_size=4), min_size=1, max_size=4),
)
_payloads = st.recursive(
    _payload_leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=6), st.integers(-3, 3)),
                        inner, max_size=4)),
    max_leaves=20)


@settings(max_examples=200, deadline=None)
@given(_payloads)
def test_dump_json_matches_reference_encoder(payload):
    assert _dump_json(payload) == _dump_json_reference(payload)
