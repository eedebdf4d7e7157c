"""Explicit stationary distribution and tail decay of half-strip walks.

For a positive-recurrent walk the stationary distribution has a closed
form built from three ingredients: the boundary process censored on layer 0
(a d-state chain whose stationary vector gives the boundary measure), the
downward offspring/fundamental matrices of the branching structure, and a
normalizer equal to the expected return time to layer 0 started from the
censored measure. Layer masses decay geometrically with rate equal to the
spectral radius of the tail's downward offspring matrix.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .branching import series_down_weighted
from .linalg import ReducibleChainError, stationary_left_vector

UNDERFLOW_FLOOR = 1e-300
MASS_CUTOFF = 1e-12
LEVEL_CAP = 100_000


class NotPositiveRecurrentError(Exception):
    """The walk is not certified positive recurrent, so no stationary
    distribution exists (or none can be certified)."""


class TailNotPositiveRecurrentError(Exception):
    """The constant tail fails the drift condition (its return-time series
    diverges), so the geometric decay rate is undefined."""


def censored_matrix(data):
    """Transition matrix of the boundary process watched only on layer 0.

    Equals R0 + P0 Z1 with Z1 the downward exit matrix of level 1: either
    the next step stays on the boundary or the walk rises and is collapsed
    through its eventual first down-crossing. Stochastic exactly when the
    walk is recurrent; substochastic rows expose escape probability.
    """
    return data.model.r0 + data.model.p0 @ data.exit_down_at(1)


def censored_measure(data):
    """Stationary probability vector of the censored boundary matrix."""
    return _censored_measure(censored_matrix(data))


def _censored_measure(cm):
    """Stationary probability vector of a censored boundary matrix cm.

    Raises NotPositiveRecurrentError when the censored matrix is visibly
    substochastic (escape mass above 1e-8). A boundary chain with more than
    one closed class has no unique stationary vector; its measure is then
    the long-run one from the uniform phase mix, the start ``simulate``
    uses: uniform @ lim ((I + C) / 2)^(2^k), squared until a step returns
    its input bit for bit, at most 64 times.
    """
    deficit = float(np.max(np.abs(cm.sum(axis=1) - 1.0)))
    if deficit > 1e-8:
        raise NotPositiveRecurrentError(
            f"censored boundary matrix is substochastic (deficit {deficit:.3e}); "
            "the walk leaks upward and has no stationary distribution")
    try:
        return stationary_left_vector(cm, row_tol=1e-8)
    except ReducibleChainError:
        lazy = 0.5 * (np.eye(len(cm)) + cm)
        for _ in range(64):
            lazy, before = lazy @ lazy, lazy
            if np.array_equal(lazy, before):
                break
        return np.full(len(cm), 1.0 / len(cm)) @ lazy


@dataclass
class StationaryResult:
    """Stationary distribution truncated at level ``levels``.

    nu is a (levels + 1, d) array whose row n is the stationary mass of
    level n (normalized over the whole strip, so the sum of all masses
    approaches 1 from below as levels grows). boundary_measure is the
    censored layer-0 vector; normalizer is the expected return time to
    layer 0 from that vector (mass of layer 0 is its reciprocal).
    decay_rate and empirical_rates describe the geometric tail.
    underflow_levels lists levels where entries below 1e-300 were reported
    as exact zeros. tail (None if the rows stop below the first tail level
    K) holds K as ``level``, w_K as ``w``, A and F: row K + j is w A^j F / Z.
    """

    nu: np.ndarray
    normalizer: float
    boundary_measure: np.ndarray
    censored: np.ndarray
    levels: int
    mass: float
    decay_rate: float
    empirical_rates: list
    underflow_levels: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)
    tail: dict | None = None


def _empirical_rates(nu):
    """Per-phase log nu_n(j) / n at the deepest level n >= 1 where the entry
    is above the underflow floor."""
    rates, levels = [], []
    for j, column in enumerate(nu[1:].T):
        hits = np.flatnonzero(column > UNDERFLOW_FLOOR)
        n = int(hits[-1]) + 1 if hits.size else 0
        rates.append(math.log(nu[n, j]) / n if n else math.nan)
        levels.append(n)
    return rates, levels


def stationary_dist(data, levels=None):
    """Stationary distribution of a positive-recurrent walk, in closed form.

    nu_0 = m / Z and nu_n = m P0 A_1 ... A_{n-1} F_n / Z, with m the
    censored boundary measure, A/F the downward offspring and fundamental
    matrices, and Z the normalizer (expected return time to layer 0 from
    m), the rows below K = n_prefix + 1 one stacked product over the weights
    of Z's series; past K the matrix-geometric form nu_{K+j} = w_K A^j F / Z
    by stacked doubling. ``levels`` defaults to the first level whose mass
    drops below 1e-12 (capped at 100000). Raises NotPositiveRecurrentError
    when the normalizer is not a certified finite value: its series is
    infinite or inconclusive, or ``invert`` refused its closed form.
    """
    cm = censored_matrix(data)
    mu0 = _censored_measure(cm)
    zser = series_down_weighted(data, mu0 @ data.model.p0)
    if not (zser.finite and math.isfinite(zser.value)):
        raise NotPositiveRecurrentError(
            f"the normalizer is not a certified finite value (return-time series "
            f"{zser.status}: {zser.note}); a stationary distribution requires one")
    normalizer = zser.value + 1.0
    inv_z = 1.0 / normalizer

    cap = levels if levels is not None else LEVEL_CAP
    k, weights = data.depth, zser.weights  # w_n = m P0 A_1 ... A_{n-1}, n = 1..k
    m = min(k - 1, cap)
    head = np.vstack([mu0 * inv_z, (weights[:m, None] @ data.fundamental[:m])[:, 0] * inv_z])
    tail = {"level": k, "w": weights[k - 1], "offspring": data.offspring_down_at(k),
            "fundamental": data.fundamental_down_at(k)}
    nu, flagged = _stack_rows(head, tail if cap >= k else None, inv_z, levels)
    rates, rate_levels = _empirical_rates(nu)
    return StationaryResult(
        nu=nu,
        normalizer=normalizer,
        boundary_measure=mu0,
        censored=cm,
        levels=len(nu) - 1,
        mass=float(nu.sum()),
        decay_rate=data.radius_down,
        empirical_rates=rates,
        underflow_levels=(np.flatnonzero(flagged[:len(nu) - 1]) + 1).tolist(),
        meta={
            "z_series_note": zser.note,
            "tol": data.meta["tol"],
            "empirical_rate_levels": rate_levels,
            "truncated_at_cap": levels is None and len(nu) - 1 >= LEVEL_CAP,
        },
        tail=tail if len(nu) > k else None,
    )


def _stack_rows(head, tail, inv_z, levels):
    """(nu, underflow flags of levels 1..): rows ``head``, then (w A^j F) * inv_z
    by stacked doubling, X <- [X; X P], P <- P^2, to ``levels`` (None: to the
    first row under the mass cutoff, at most LEVEL_CAP), entries under the floor 0."""
    cap = levels if levels is not None else LEVEL_CAP
    rows = [head]
    if tail is not None:
        k = tail["level"]
        x, p, f = (np.atleast_2d(tail[key]) for key in ("w", "offspring", "fundamental"))
        while len(x) <= cap - k and (levels is not None
                                     or ((x[-1] @ f) * inv_z).sum() >= MASS_CUTOFF):
            x = np.concatenate([x, x[:cap - k + 1 - len(x)] @ p])
            p = p @ p
        rows.append((x @ f) * inv_z)
    nu = np.vstack(rows)
    body = nu[1:]
    tiny = body <= UNDERFLOW_FLOOR
    flagged = np.zeros(len(body), dtype=bool)
    flagged[np.flatnonzero(tiny & (body > 0)) // body.shape[1]] = True
    body[tiny] = 0.0
    low = np.flatnonzero(body.sum(axis=1) < MASS_CUTOFF) if levels is None else []
    if len(low):
        nu = nu[:low[0] + 2]
    return nu, flagged


def expand_rows(results):
    """Rows 0..levels of a JSON stationary report's ``results``, bit for bit
    those of ``stationary_dist``: ``nu``, then (w A^j F) * (1.0 / normalizer)."""
    return _stack_rows(np.asarray(results["nu"], dtype=float), results["tail"],
                       1.0 / results["normalizer"], results["levels"])[0]


def matrix_product_check(data, result):
    """Max deviation between nu_n and one matrix-product step nu_{n-1} R_n,
    with R_n = (up block of level n-1) @ (fundamental matrix of level n).

    An algebraic identity makes the two equal at every level; deviations
    beyond rounding indicate an implementation fault. Levels through the
    first tail level are checked as stacks; R_n is constant past it, so
    those levels are checked in one product.
    """
    model, nu = data.model, result.nu
    top = len(nu) - 1
    k = data.depth
    m = min(k, top)
    r = model.up[:m] @ data.fundamental[:m]
    level_dev = np.abs(nu[1:m + 1] - (nu[:m, None] @ r)[:, 0]).max(axis=1)
    # a level whose deviation is NaN leaves the maximum as it was
    dev = float(np.fmax.reduce(level_dev, initial=0.0))
    if top > k:
        r_tail = model.tail.up @ data.fundamental_down_at(k)
        dev = max(dev, float(np.max(np.abs(nu[k + 1:top + 1] - nu[k:top] @ r_tail))))
    return dev


def balance_residual(model, result):
    """l1 norm of the stationary balance residual on interior levels.

    Levels 0 and the truncation level are excluded: mass flowing beyond
    the computed window has nowhere to balance. Levels through the first
    tail level are formed as stacks, their sums added in level order;
    levels from n_prefix + 2 on see only tail blocks and are summed in one
    expression.
    """
    nu = result.nu
    top = len(nu) - 1
    k = model.n_prefix + 1
    m = max(min(k + 1, top) - 1, 0)  # levels 1..m, whose blocks below are stacked
    inflow = ((nu[:m, None] @ model.up[:m])[:, 0] + (nu[1:m + 1, None] @ model.stay[1:m + 1])[:, 0]
              + (nu[2:m + 2, None] @ model.down[model.levels(2, m + 2)])[:, 0])
    total = 0.0
    for level_sum in np.abs(inflow - nu[1:m + 1]).sum(axis=1).tolist():
        total += level_sum
    if top > k + 1:
        t = model.tail
        inflow = nu[k:top - 1] @ t.up + nu[k + 1:top] @ t.stay + nu[k + 2:] @ t.down
        total += float(np.sum(np.abs(inflow - nu[k + 1:top])))
    return total


@dataclass
class DecayReport:
    """Geometric decay rate of the stationary layer masses.

    rate is the spectral radius of the tail's downward offspring matrix;
    empirical[j] gives log nu_n(j) / n at the deepest usable level n (per
    phase), which converges to log(rate).
    """

    rate: float
    empirical: list
    levels: list
    meta: dict = field(default_factory=dict)


def decay_rate(data, levels=None):
    """Decay rate of the stationary distribution plus finite-level estimates.

    Requires the constant tail itself to be positive recurrent: its
    certified mean drift sign (``data.drift_sign``) must be negative;
    otherwise raises TailNotPositiveRecurrentError. The empirical estimates
    come from ``stationary_dist(data, levels)``.
    """
    if data.drift_sign != -1:
        raise TailNotPositiveRecurrentError(
            f"tail mean drift {data.tail_drift[0]} has certified sign "
            f"{data.drift_sign}, not -1; the tail return-time series diverges "
            "and no geometric decay rate exists")
    result = stationary_dist(data, levels)
    return DecayReport(
        rate=data.radius_down,
        empirical=result.empirical_rates,
        levels=result.meta["empirical_rate_levels"],
        meta={"stationary_levels": result.levels, "normalizer": result.normalizer},
    )


def result_to_dict(result):
    """JSON-ready dict form of a StationaryResult, report schema 2: rows below
    the first tail level, then the ``tail`` form (``expand_rows`` expands it)."""
    return {
        "levels": result.levels,
        "boundary_measure": result.boundary_measure.tolist(),
        "censored": result.censored.tolist(),
        "nu": result.nu[:result.tail["level"] if result.tail else None].tolist(),
        "tail": result.tail and {key: np.asarray(val).tolist() for key, val in result.tail.items()},
        "schema": 2,
        "truncated_at_cap": result.meta["truncated_at_cap"],
        "normalizer": float(result.normalizer),
        "mass": float(result.mass),
        "decay_rate": float(result.decay_rate),
        "empirical_rates": [float(x) for x in result.empirical_rates],
        "underflow_levels": list(result.underflow_levels),
    }


def result_to_csv(result):
    """CSV form: one row per (level, phase) with the stationary mass and
    the finite-level decay estimate (blank on level 0 and underflowed
    entries)."""
    levels, d = result.nu.shape
    flat = result.nu.ravel().tolist()
    level = [n for n in range(levels) for _ in range(d)]
    rates = [repr(math.log(val) / n) if n and val > 0.0 else "" for n, val in zip(level, flat)]
    lines = map(",".join, zip(map(str, level), [str(j) for j in range(d)] * levels,
                              list.__repr__(flat)[1:-1].split(", "), rates))
    return "level,phase,nu,log_nu_over_n\n" + "\n".join(lines) + "\n"
