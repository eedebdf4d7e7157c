"""Command-line interface: model files in, reports out.

Subcommands: classify, stationary, decay, simulate, verify, example.
Reports are JSON objects with a stable field set {command, inputs,
results, checks, version}; identical inputs produce byte-identical output
(no timestamps, sorted keys, seeded randomness only). Each entry of
``checks`` has {name, measured, tolerance, status}, status "pass" or
"fail", and may carry a ``context``. A verify exit check that the model's
support decides (``_exit_check``) runs no walks and is not in
``checks``: ``results["skipped_checks"]`` lists it as {name, reason},
present only when one was skipped. The example
subcommand prints a bare model file instead of a report so it can be
piped straight into the other commands.

Exit codes: 0 success; 1 malformed input or usage; 2 model validation
failure; 3 precondition failure (e.g. stationary distribution of a
non-positive-recurrent walk); 4 inconclusive classification; 5 a check
of verify or stationary failed (stationary in every format).
"""
from __future__ import annotations

import argparse
import math
import sys
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from . import __version__
from .branching import branching_data, exit_up_seq
from .classify import INCONCLUSIVE, classify
from .linalg import (
    NoConvergenceError,
    NotStochasticError,
    ReducibleChainError,
    SingularMatrixError,
    invert,
)
from .model import (
    GammaTooSmallError,
    ModelFormatError,
    RetrySchedule,
    as_chain,
    build_retrial,
    load_model,
    model_to_dict,
    uniformize,
    validation_errors,
)
from .oracle import (
    ExitConfig,
    MaxStepsExceededError,
    SimConfig,
    cell_deviations,
    estimate_exit_probability,
    simulate,
    truncated_solve,
)
from .stationary import (
    NotPositiveRecurrentError,
    TailNotPositiveRecurrentError,
    balance_residual,
    decay_rate,
    matrix_product_check,
    result_to_csv,
    result_to_dict,
    stationary_dist,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_PRECONDITION = 3
EXIT_INCONCLUSIVE = 4
EXIT_CHECKS_FAILED = 5


class _CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    # argparse uses exit status 2 for usage errors, which collides with the
    # validation-failure code; remap to 1
    def error(self, message):
        raise _CliError(EXIT_USAGE, f"{self.prog}: error: {message}")


_NUMERIC = b"0123456789.eE+-[], "  # all a repr of numbers and lists can hold


def _numeric_block(items, nl):
    """JSON of a list of numbers or of non-empty rows of them from one repr, else None."""
    rows = type(items[0]) is list
    if not (all(type(row) is list and row for row in items) if rows
            else type(items[0]) in (float, int)):
        return None
    text = list.__repr__(items)
    if (text.count("[") != (len(items) + 1 if rows else 1) or not text.isascii()
            or text.encode().translate(None, _NUMERIC)):
        return None
    row, cell = nl + "  ", nl + ("    " if rows else "  ")
    if not rows:
        return "[" + cell + text[1:-1].replace(", ", "," + cell) + nl + "]"
    body = text[2:-2].replace("], [", row + "]," + row + "[" + cell)
    return "[" + row + "[" + cell + body.replace(", ", "," + cell) + row + "]" + nl + "]"


def _encode(obj, nl, emit):
    """Emit the JSON of ``obj``, its inner lines starting with ``nl``."""
    if isinstance(obj, str):
        emit(_quote(obj))
    elif obj is None or obj is True or obj is False:
        emit("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, (np.ndarray, np.floating, np.integer)):
        _encode(obj.tolist(), nl, emit)
    elif isinstance(obj, float):
        emit(float.__repr__(obj) if math.isfinite(obj) else '"NaN"' if obj != obj
             else '"Infinity"' if obj > 0 else '"-Infinity"')
    elif isinstance(obj, int):
        emit(int.__repr__(obj))
    elif not isinstance(obj, (dict, list, tuple)):
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    elif not obj:
        emit("{}" if isinstance(obj, dict) else "[]")
    elif isinstance(obj, dict):
        for i, (key, val) in enumerate(sorted({str(k): v for k, v in obj.items()}.items())):
            emit(("," if i else "{") + nl + "  " + _quote(key) + ": ")
            _encode(val, nl + "  ", emit)
        emit(nl + "}")
    elif (block := _numeric_block(list(obj), nl)) is not None:
        emit(block)
    else:
        for i, item in enumerate(obj):
            emit(("," if i else "[") + nl + "  ")
            _encode(item, nl + "  ", emit)
        emit(nl + "]")


def _dump_json(payload):
    """json.dumps(payload, sort_keys=True, indent=2) and a newline, with
    numpy values as Python ones, tuples as lists, str(key) keys and
    non-finite floats as the strings "NaN", "Infinity" and "-Infinity"."""
    parts = []
    _encode(payload, "\n", parts.append)
    return "".join(parts) + "\n"


def _write_output(text, out_path):
    if out_path and out_path != "-":
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_model(path):
    try:
        model = as_chain(load_model(sys.stdin if path == "-" else path))
    except (ModelFormatError, GammaTooSmallError) as exc:
        raise _CliError(EXIT_USAGE, f"model file malformed: {exc}")
    errors = validation_errors(model)
    if errors:
        lines = "; ".join(f"{v.code} at {v.where}: {v.detail}" for v in errors)
        raise _CliError(EXIT_INVALID, f"model failed validation: {lines}")
    return model


def _parse_mu(text, d):
    parts = [p for p in text.replace(",", " ").split() if p]
    try:
        mu = np.array([float(p) for p in parts])
    except ValueError:
        raise _CliError(EXIT_USAGE, f"cannot parse phase distribution {text!r}")
    if mu.shape != (d,):
        raise _CliError(EXIT_USAGE, f"phase distribution needs {d} entries")
    return mu


def _report(command, inputs, results, checks):
    return {
        "command": command,
        "inputs": inputs,
        "results": results,
        "checks": checks,
        "version": __version__,
    }


def _fmt(x, digits=6):
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return f"{x:.{digits}g}"
    return str(x)


def _emit(report, args, pretty_lines):
    if args.format == "pretty":
        _write_output("".join(line + "\n" for line in pretty_lines), args.output)
    else:
        _write_output(_dump_json(report), args.output)


# ---------------------------------------------------------------- classify


def _cmd_classify(args):
    model = _load_model(args.model)
    mu = _parse_mu(args.mu, model.d) if args.mu else None
    res = classify(branching_data(model, tol=args.tol), mu=mu)
    results = {
        "verdict": res.verdict,
        "certificate": res.certificate,
        "return_time_bound": res.return_bound,
        "boundary_visits": res.boundary_visits,
        "tail_radius_up": res.tail_radius_up,
        "tail_radius_down": res.tail_radius_down,
        "return_time": res.return_time,
        "visit_partial_sums_last": res.visit_partial_sums[-1] if res.visit_partial_sums else None,
    }
    report = _report("classify", _inputs(args, ["model", "tol", "mu"]),
                     results, [])
    lines = [
        f"verdict: {res.verdict}",
        f"certificate: {res.certificate}",
        f"return-time bound: {_fmt(res.return_bound)}",
        f"boundary visits: {_fmt(res.boundary_visits)}",
        "tail radius up: " + (_fmt(res.tail_radius_up) if res.tail_radius_up is not None
                              else "not defined for this verdict"),
        f"tail radius down: {_fmt(res.tail_radius_down)}",
    ]
    if res.return_time is not None:
        lines.append(f"expected return time (given mu): {_fmt(res.return_time)}")
    _emit(report, args, lines)
    return EXIT_INCONCLUSIVE if res.verdict == INCONCLUSIVE else EXIT_OK


# --------------------------------------------------------------- stationary


def _stationary_with_checks(data, levels):
    """Stationary result from ``data`` and its two analytic checks over
    every reported level: (result, checks)."""
    result = stationary_dist(data, levels)
    checks = [
        _check("matrix-product-form", matrix_product_check(data, result), 1e-10),
        _check("global-balance-residual", balance_residual(data.model, result), 1e-8),
    ]
    return result, checks


def _cmd_stationary(args):
    data = branching_data(_load_model(args.model), tol=args.tol)
    result, checks = _stationary_with_checks(data, args.levels)
    status = EXIT_OK if all(c["status"] == "pass" for c in checks) else EXIT_CHECKS_FAILED
    if args.format == "csv":
        _write_output(result_to_csv(result), args.output)
        return status
    report = _report("stationary", _inputs(args, ["model", "tol", "levels"]),
                     result_to_dict(result), checks) if args.format == "json" else None
    lines = [
        f"levels computed: 0..{result.levels}",
        f"normalizer (expected return time): {_fmt(result.normalizer, 10)}",
        f"captured mass: {_fmt(result.mass, 10)}",
        f"decay rate: {_fmt(result.decay_rate)}",
        "boundary measure: " + " ".join(_fmt(float(x), 10) for x in result.boundary_measure),
        "layer masses (first 10): "
        + " ".join(_fmt(float(r.sum()), 6) for r in result.nu[:10]),
    ]
    if result.meta["truncated_at_cap"]:
        lines.append(f"truncated at the level cap: mass {_fmt(1.0 - result.mass, 3)} "
                     f"lies beyond level {result.levels}")
    for c in checks:
        lines.append(f"check {c['name']}: {c['status']} "
                     f"(measured {_fmt(c['measured'], 3)}, tolerance {_fmt(c['tolerance'], 3)})")
    _emit(report, args, lines)
    return status


# -------------------------------------------------------------------- decay


def _cmd_decay(args):
    rep = decay_rate(branching_data(_load_model(args.model), tol=args.tol), args.levels)
    results = {
        "rate": rep.rate,
        "log_rate": math.log(rep.rate) if rep.rate > 0 else "-Infinity",
        "empirical": rep.empirical,
        "empirical_levels": rep.levels,
    }
    report = _report("decay", _inputs(args, ["model", "tol", "levels"]), results, [])
    lines = [f"decay rate: {_fmt(rep.rate)}",
             f"log decay rate: {_fmt(math.log(rep.rate)) if rep.rate > 0 else '-inf'}"]
    for j, (emp, lev) in enumerate(zip(rep.empirical, rep.levels)):
        lines.append(f"empirical log-rate, phase {j} (level {lev}): {_fmt(emp)}")
    _emit(report, args, lines)
    return EXIT_OK


# ----------------------------------------------------------------- simulate


def _cmd_simulate(args):
    model = _load_model(args.model)
    cfg = SimConfig(seed=args.seed, cycles=args.cycles, max_steps=args.max_steps,
                    replications=args.replications)
    stats = simulate(model, config=cfg)
    results = stats.to_dict()
    report = _report("simulate",
                     _inputs(args, ["model", "seed", "cycles", "max_steps",
                                    "replications"]),
                     results, [])
    lines = [
        f"cycles completed: {stats.cycles} (discarded {stats.discarded})",
        f"total steps: {stats.total_steps}",
        f"mean return time: {_fmt(stats.mean_return_time, 8)} "
        f"+/- {_fmt(stats.return_time_se, 3)} (s.e.)",
        f"max level visited: {stats.max_level}",
        "layer-0 arrival frequencies: "
        + " ".join(_fmt(float(x), 6) for x in stats.exit_frequencies),
    ]
    _emit(report, args, lines)
    return EXIT_OK


# ------------------------------------------------------------------- verify


def _visit_bursts(data, top_level):
    """Per-level variance inflation for visit-count comparisons: one
    excursion that reaches a level contributes a burst of visits there, so
    the per-cycle count is overdispersed relative to binomial by roughly
    the expected burst length. Bounded here by the level's downward sojourn
    (boundary: the stay-block dwell, unbounded when a layer-0 phase never
    leaves)."""
    model = data.model
    try:
        dwell0 = invert(np.eye(model.d) - model.r0) @ np.ones(model.d)
    except SingularMatrixError:
        dwell0 = np.full(model.d, math.inf)
    levels = model.levels(1, top_level + 1) - 1  # data's stacks: level n at index n - 1
    return 1.0 + 2.0 * np.concatenate([[dwell0.max()], data.sojourn[levels].max(axis=1)])[:, None]


def _check(name, measured, tolerance, context=None):
    entry = {
        "name": name,
        "measured": measured,
        "tolerance": tolerance,
        "status": "pass" if measured <= tolerance else "fail",
    }
    if context:
        entry["context"] = context
    return entry


def _cell_check(name, reference, observed, se, trials, bursts=None, **context):
    """A Monte Carlo check over cells (``cell_deviations``): the worst
    deviation in units of 3 s.e., passing at 1.0, its context counting the
    cells compared and those skipped as rare."""
    viol, compared, skipped = cell_deviations(reference, observed, se, trials, bursts=bursts)
    return _check(name, viol, 1.0, context={**context, "cells": compared,
                                            "cells_skipped_rare": skipped,
                                            "unit": "deviation / (3 s.e.)"})


def _exit_check(name, model, start, reference, ecfg, checks, skipped, **context):
    """The Monte Carlo exit check ``name`` from level ``start`` against the
    analytic ``reference``: upward from layer 0 when ``start`` is 0, else
    downward. Appends it to ``checks``, or, when the model's support
    decides it, its name and reason to ``skipped`` without a walk.

    A descent walks and compares only the rows an answer reads, listed as
    ``phases`` in its context. Every answer ``verify`` checks reads the
    exit G_L only through U G_L, U the up block that enters level L from
    below (P0 at L = 1; at the first tail level the tail's too, as the
    tail root serves every tail level): the censored matrix R0 + P0 G_1
    and the factor (I - S - U G)^-1 behind the offspring, sojourns,
    stationary rows and decay rate. A row outside U's column support is
    multiplied by zero wherever it is read, so no answer depends on it.
    (rho(G) reads every row, but only for verdicts that walk nothing.)

    The support decides the check when the block that enters the target
    level (P0 going up, the down block of level ``start`` going down) has
    exactly one nonzero column j and every compared row of ``reference`` is
    the unit vector e_j to within 1e-9. A first passage can enter the
    target level only through that block, so every walk that finishes
    lands in phase j and the estimate's rows are e_j whatever the walks do.
    The reference is e_j too, so the comparison could only measure the
    walks the step cap cuts off, not the reference. A descent that no walk
    enters from below has no read row and is skipped too.
    """
    if start == 0:
        direction, target, label, block, phases = "up", 1, "P0", model.p0, None
    else:
        direction, target = "down", start - 1
        label, block = f"the down block of level {start}", model.block_at(start).down
        entering = model.up[model.levels(start - 1, start + (start > model.n_prefix))]
        phases = np.flatnonzero(entering.any(axis=(0, 1)))
        reference = reference[phases]
        context["phases"] = phases.tolist()
        if not phases.size:
            skipped.append({"name": name, "reason": (
                f"no up block that enters level {start} has a nonzero entry: no walk "
                f"enters it from below, so no answer reads its exit")})
            return
    columns = np.flatnonzero(block.any(axis=0))
    if len(columns) == 1 and np.abs(reference - np.eye(model.d)[columns[0]]).max() <= 1e-9:
        j = int(columns[0])
        skipped.append({"name": name, "reason": (
            f"{label} has one nonzero column, phase {j}, and every reference row is e_{j}: "
            f"every walk that finishes enters level {target} in phase {j}, so walks could "
            f"differ from the reference only by step-cap censoring")})
        return
    est = estimate_exit_probability(model, start, direction, ecfg, phases=phases)
    checks.append(_cell_check(name, reference, est.matrix, est.se, ecfg.samples,
                              samples=ecfg.samples, censored=int(est.censored.sum()),
                              **context))


def _cmd_verify(args):
    model = _load_model(args.model)
    checks = []
    data = branching_data(model, tol=args.tol)
    res = classify(data)
    results = {"verdict": res.verdict, "certificate": res.certificate}
    inputs = _inputs(args, ["model", "seed", "cycles", "levels", "tol", "samples"])
    gate = None
    if res.verdict != "positive-recurrent":
        gate = _check("classification-certified", float(res.verdict == INCONCLUSIVE), 0.5,
                      context={"verdict": res.verdict})
    else:
        try:
            result, stationary_checks = _stationary_with_checks(data, args.levels)
        except NotPositiveRecurrentError as exc:
            # certified positive recurrent, but the normalizer's closed form was refused
            gate = _check("stationary-certified", 1.0, 0.5, context={"reason": str(exc)})
    if gate:
        report = _report("verify", inputs, results, [gate])
        _emit(report, args, _verify_lines(report))
        if res.verdict == INCONCLUSIVE:
            return EXIT_INCONCLUSIVE
        return EXIT_OK if gate["status"] == "pass" else EXIT_CHECKS_FAILED

    # analytic self-consistency, on the upward exits below the first one
    # refused: none exists above a level the walk never leaves upward
    top = max(2, model.n_prefix + 1, result.levels + 1)
    try:
        exits, refusal = exit_up_seq(model, top), None
    except SingularMatrixError as exc:
        # index -1: layer 0 itself never rises from some phase
        exits = exit_up_seq(model, exc.index) if exc.index >= 0 else []
        refusal = str(exc)
    loss = max((float(np.abs(z.sum(axis=1) - 1.0).max()) for z in exits), default=0.0)
    checks.append(_check("ascent-exit-stochastic", loss, 1e-9,
                         context=refusal and {"levels_compared": len(exits),
                                              "refusal": refusal}))
    checks.extend(stationary_checks)
    kac = abs(1.0 / result.normalizer - float(result.nu[0].sum()))
    checks.append(_check("return-time-reciprocal-is-boundary-mass", kac, 1e-8))

    # oracle 1: truncated linear solve
    cutoff = max(args.levels or 0, min(result.levels + 20, 400), 10)
    try:
        trunc = truncated_solve(model, cutoff)
    except ReducibleChainError as exc:
        # no unique truncated answer to compare with, as when phases never mix
        checks.append(_check("stationary-vs-truncated-solve", math.inf, 1e-7,
                             context={"cutoff": cutoff, "refusal": str(exc)}))
    else:
        span = min(result.levels, cutoff // 2)
        rows = trunc.pi.reshape(-1, model.d)[:span + 1]
        l1 = float(np.sum(np.abs(rows - result.nu[:span + 1])))
        checks.append(_check("stationary-vs-truncated-solve", l1, 1e-7,
                             context={"levels_compared": span, "cutoff": cutoff}))

    # oracle 2: seeded simulation
    cfg = SimConfig(seed=args.seed, cycles=args.cycles)
    stats = simulate(model, config=cfg)
    results["simulated_cycles"] = stats.cycles

    span2 = min(stats.max_level, result.levels, 20)
    ref_visits = result.nu[:span2 + 1] * result.normalizer
    checks.append(_cell_check("visits-per-cycle-vs-simulation", ref_visits,
                              stats.visit_counts[:span2 + 1], stats.visit_se[:span2 + 1],
                              stats.cycles, bursts=_visit_bursts(data, span2),
                              levels_compared=span2))

    # fewer than two replications that complete a cycle give no s.e.
    rt_se = stats.return_time_se if math.isfinite(stats.return_time_se) else 0.0
    rt_se = max(rt_se, 1.0 / stats.cycles)
    rt_dev = abs(stats.mean_return_time - result.normalizer) / (3.0 * rt_se)
    checks.append(_check("return-time-vs-simulation", rt_dev, 1.0,
                         context={"unit": "deviation / (3 s.e.)"}))

    checks.append(_cell_check("boundary-measure-vs-simulation", result.boundary_measure,
                              stats.exit_frequencies, stats.exit_frequency_se, stats.cycles))

    ecfg = ExitConfig(seed=args.seed, samples=args.samples)
    skipped = []
    if not model.p0.any():
        # no walk leaves layer 0, so every answer reads R0 alone there, and
        # walks from layer 0 could only run to the step cap
        skipped.append({"name": "boundary-exit-vs-simulation", "reason": (
            "P0 has no nonzero entry: no walk rises from layer 0, so no answer reads "
            "an upward exit")})
    elif exits:
        _exit_check("boundary-exit-vs-simulation", model, 0, exits[0], ecfg, checks, skipped)
    else:
        # a walker in a phase that never rises would run to the step cap
        checks.append(_check("boundary-exit-vs-simulation", math.inf, 1.0,
                             context={"refusal": refusal}))

    # a walk that never enters the tail descends from the highest level it
    # enters: a descent from a tail drifting up might never end
    lev_dn = max(1, data.top_reached)
    _exit_check("descent-exit-vs-simulation", model, lev_dn, data.exit_down_at(lev_dn), ecfg,
                checks, skipped, level=lev_dn)
    if skipped:
        results["skipped_checks"] = skipped

    results.update({
        "normalizer": result.normalizer,
        "decay_rate": result.decay_rate,
        "levels": result.levels,
        "mass": result.mass,
        "checks_passed": sum(1 for c in checks if c["status"] == "pass"),
        "checks_total": len(checks),
    })
    report = _report("verify", inputs, results, checks)
    _emit(report, args, _verify_lines(report))
    return EXIT_OK if all(c["status"] == "pass" for c in checks) else EXIT_CHECKS_FAILED


def _verify_lines(report):
    lines = [f"verdict: {report['results'].get('verdict', '?')}"]
    for c in report["checks"]:
        lines.append(
            f"check {c['name']}: {c['status']} "
            f"(measured {_fmt(float(c['measured']), 4)}, "
            f"tolerance {_fmt(float(c['tolerance']), 4)})")
    for c in report["results"].get("skipped_checks", []):
        lines.append(f"check {c['name']}: skipped ({c['reason']})")
    return lines


# ------------------------------------------------------------------ example


def _cmd_example(args):
    try:
        schedule = RetrySchedule.parse(args.theta)
    except (ModelFormatError, ValueError) as exc:
        raise _CliError(EXIT_USAGE, f"bad retry schedule: {exc}")
    gen = build_retrial(args.arrival, args.service, args.servers, schedule,
                        prefix_levels=args.prefix_levels)
    try:
        chain = uniformize(gen, gamma=args.gamma)
    except GammaTooSmallError as exc:
        raise _CliError(EXIT_PRECONDITION, str(exc))
    _write_output(_dump_json(model_to_dict(chain)), args.output)
    return EXIT_OK


# ------------------------------------------------------------------ plumbing


def _inputs(args, names):
    return {name: getattr(args, name, None) for name in names}


def _bounded(cast, low):
    """argparse type: a finite ``cast`` value no smaller than ``low``."""
    def parse(text):
        value = cast(text)
        if not low <= value < math.inf:
            raise argparse.ArgumentTypeError(f"must be finite and at least {low}, got {text}")
        return value
    parse.__name__ = cast.__name__  # argparse names the type in its messages
    return parse


def _add_common(p):
    p.add_argument("model", nargs="?", default="-",
                   help="model JSON file ('-' or omitted reads stdin)")
    p.add_argument("-o", "--output", default=None,
                   help="write output to this path instead of stdout")


def build_parser():
    parser = _Parser(prog="halfstrip",
                     description="State-dependent reflecting random walks on a "
                                 "half-strip: classification, stationary "
                                 "distribution, decay rate, and verification.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", metavar="command")
    # every command but simulate and example runs the fixed-point solvers
    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument("--tol", type=_bounded(float, 0.0), default=1e-12,
                     help="fixed-point tolerance (default 1e-12)")

    p = sub.add_parser("classify", help="certified recurrence classification",
                       parents=[tol])
    _add_common(p)
    p.add_argument("--horizon", type=_bounded(int, 1), default=10_000,
                   help="ignored: the tail's drift sign decides every verdict")
    p.add_argument("--mu", default=None,
                   help="layer-0 phase distribution, comma separated")
    p.add_argument("--format", choices=["pretty", "json"], default="pretty")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("stationary", help="explicit stationary distribution",
                       parents=[tol])
    _add_common(p)
    p.add_argument("--levels", type=_bounded(int, 0), default=None,
                   help="highest level to report (default: mass-driven)")
    p.add_argument("--format", choices=["pretty", "json", "csv"], default="pretty")
    p.set_defaults(func=_cmd_stationary)

    p = sub.add_parser("decay", help="geometric decay rate of the tail", parents=[tol])
    _add_common(p)
    p.add_argument("--levels", type=_bounded(int, 0), default=None,
                   help="levels for the empirical estimates (default: mass-driven)")
    p.add_argument("--format", choices=["pretty", "json"], default="pretty")
    p.set_defaults(func=_cmd_decay)

    p = sub.add_parser("simulate", help="seeded Monte Carlo cycle statistics")
    _add_common(p)
    p.add_argument("--seed", type=_bounded(int, 0), required=True, help="stream seed (required)")
    p.add_argument("--cycles", type=_bounded(int, 1), default=100_000,
                   help="total regeneration cycles (default 100000)")
    p.add_argument("--max-steps", type=_bounded(int, 1), default=10**8, dest="max_steps",
                   help="per-cycle and per-replication step cap")
    p.add_argument("--replications", type=_bounded(int, 1), default=64,
                   help="independent streams (default 64)")
    p.add_argument("--format", choices=["pretty", "json"], default="pretty")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify", help="cross-check analytics against both oracles",
                       parents=[tol])
    _add_common(p)
    p.add_argument("--seed", type=_bounded(int, 0), required=True, help="stream seed (required)")
    p.add_argument("--cycles", type=_bounded(int, 1), default=100_000,
                   help="simulation cycles (default 100000)")
    p.add_argument("--levels", type=_bounded(int, 0), default=None,
                   help="stationary truncation (default: mass-driven)")
    p.add_argument("--samples", type=_bounded(int, 1), default=10_000,
                   help="exit-probability sample size per phase")
    p.add_argument("--format", choices=["json", "pretty"], default="json")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("example", help="emit a generated model file")
    p.add_argument("kind", choices=["retrial"],
                   help="model family (retrial: M/M/c queue with retries)")
    p.add_argument("--lambda", dest="arrival", type=_bounded(float, 0.0), required=True,
                   help="arrival rate")
    p.add_argument("--mu", dest="service", type=_bounded(float, 0.0), required=True,
                   help="per-server service rate")
    p.add_argument("--c", dest="servers", type=_bounded(int, 1), required=True,
                   help="number of servers")
    p.add_argument("--theta", required=True,
                   help="retry rate: constant, 'a+b/n', or a JSON table path")
    p.add_argument("--gamma", type=_bounded(float, 0.0), default=None,
                   help="uniformization rate (default: model maximum)")
    p.add_argument("--prefix-levels", type=_bounded(int, 0), default=None,
                   help="explicit level-dependent prefix length")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_example)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "command", None) is None:
            parser.error("a subcommand is required")
        return args.func(args)
    except _CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except (NotPositiveRecurrentError, TailNotPositiveRecurrentError,
            MaxStepsExceededError, NoConvergenceError, GammaTooSmallError,
            ReducibleChainError) as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (ModelFormatError, NotStochasticError, SingularMatrixError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
