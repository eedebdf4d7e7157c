"""Exit probabilities and the branching structure of half-strip walks.

For each level n the walk's first passage one level up (resp. down) has an
exit-probability matrix: entry (i, j) is the probability that the passage
from (n, i) first enters the neighboring level at phase j. Around these sit
the mean-offspring matrices (expected level-crossing steps spawned by one
step into a level), per-level expected sojourn vectors, and the fundamental
matrix of a level before downward exit. Everything here is built from the
two exit recursions:

    upward:   E_n = (I - D_n E_{n-1} - S_n)^{-1} U_n     (E_0 from the boundary)
    downward: E_n = (I - U_n E_{n+1} - S_n)^{-1} D_n     (anchored in the tail)

with U/D/S the up/down/stay blocks. Upward exits are stochastic (the
reflected walk eventually rises); downward exits are substochastic and
stochastic exactly when the walk is recurrent.

Both are one level pass (``_pass``) with the up and down blocks swapped.
It forms every level's passage factor F over stacks of blocks and checks
them all at once (``check_condition``) before any is used. Going up it
forms the diagonal without subtraction, so upward exits are stochastic by
construction, to the rounding of one inverse. ``branching_data`` keeps the
backward pass's factors: F @ up and F @ 1 are the offspring matrix and
sojourn vector, and F is the fundamental matrix. It stores the prefix and
the first tail level, which every deeper level repeats; the ``*_at``
accessors serve any level. The upward side is stepped on demand from the
boundary (``exit_up_seq``).

Tail quantities cost O(prefix) levels. Each command solves one tail root,
the downward one; the upward one (``exit_up_tail``) is a reference. Each
comes from logarithmic reduction on rank-one shifted blocks chosen by the
tail's mean drift (``tail_drift``), and is stepped until one step returns
it bit for bit, or at most ``POLISH_STEPS`` times. The downward root and
its one factor serve every tail level. Every series certificate keys off
the sign of that drift, taken exactly in rationals when the float drift
is within its rounding bound (``exact_drift_sign``): the return-time
series is summed in closed form when it is negative, the boundary-visit
series when it is positive.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .linalg import (NoConvergenceError, ReducibleChainError, SingularMatrixError,
                     NotStochasticError, check_condition, invert, lapack_errstate,
                     lapack_inverse, spectral_radius, stationary_left_vector)

DEFAULT_TOL = 1e-12
# Most level steps a tail root takes toward a floating-point fixed point, a
# root that one step maps onto itself bit for bit, so that every tail level
# repeats it exactly. A root that reaches none in this many steps is kept as
# the reduction gave it, within rounding of every tail level's step.
POLISH_STEPS = 16
# Anchor doublings a backward recursion from a caller's seed may take.
ANCHOR_DOUBLINGS = 16
MAX_SWEEPS = 64  # logarithmic-reduction sweeps before increments must vanish


def _pass(back, toward, stay, z, up=False):
    """One exit recursion over stacks of (back, toward, stay) blocks in pass
    order, from z, the exit the first level steps back into: the (k, d, d)
    stack of passage factors F = A^{-1} and the list of exits F @ toward,
    each exit the z of the next level.

    Going down, back/toward are the up/down blocks and A = I - back @ z -
    stay. Going up they swap, and A's diagonal is formed without
    subtraction (Grassmann, Taksar & Heyman 1985): the toward block's row
    mass plus A's negated off-diagonal mass. Then A 1 = toward 1 whatever
    the error in z, and every upward exit is stochastic to the rounding of
    one inverse. Each level's A and F are written into stacks allocated
    before the loop, F by one LAPACK call, all in one error state
    (``lapack_errstate``). All factors are checked at once when the pass
    ends, or, when the error state raises on a level (LAPACK finds it
    singular, or a product with its finished factor sets the invalid
    flag), every factor formed so far, that level's own included once
    LAPACK has returned it: the first level in pass order that a one-step
    check refuses raises, its place in the pass the error's ``index``.
    """
    k, d = len(back), len(z)
    mats, factors, exits = np.empty((k, d, d)), np.empty((k, d, d)), []
    inverted = 0  # levels, in pass order, whose factor LAPACK returned
    if up:
        mass, diag = toward.sum(axis=-1), np.diag_indices(d)
    else:
        eye = np.eye(d)
    try:
        with lapack_errstate():
            for level, (b, t, s) in enumerate(zip(back, toward, stay)):
                mat = mats[level]
                if up:
                    off = b.dot(z) + s
                    off[diag] = 0.0
                    np.negative(off, out=mat)
                    mat[diag] = mass[level] + off.sum(axis=1)
                else:
                    np.subtract(eye, b.dot(z), out=mat)
                    mat -= s
                factor = lapack_inverse(mat, factors[level])
                inverted = level + 1
                z = factor.dot(t)
                exits.append(z)
    except SingularMatrixError as exc:
        check_condition(mats[:inverted], factors[:inverted])
        exc.index = level
        raise
    if k:
        check_condition(mats, factors)
    return factors, exits


def boundary_exit_up(model):
    """First-passage matrix from layer 0 to layer 1: (I - R0)^{-1} P0, the
    upward pass's step on level 0. P0 with each row scaled to unit sum when
    the boundary has no stay block.
    """
    return exit_up_seq(model, 0)[0]


def exit_up_seq(model, n_max):
    """Upward exit matrices for levels 0..n_max: one upward pass (``_pass``)
    over them from a zero exit, which level 0's zero down block never reads.
    Each is row-stochastic to the rounding of one inverse. A refused level n
    raises SingularMatrixError with ``index`` n - 1, so -1 when layer 0
    never rises from some phase.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    levels = model.levels(0, n_max + 1)
    try:
        return _pass(model.down[levels], model.up[levels], model.stay[levels],
                     np.zeros((model.d, model.d)), up=True)[1]
    except SingularMatrixError as exc:
        exc.index -= 1
        raise


def _log_reduction(down, stay, up, tol=DEFAULT_TOL):
    """A root of G = down + stay G + up G^2 by logarithmic reduction,
    quadratically convergent once ``_tail_exit``'s shift has moved the unit
    zero off the unit circle. Returns (root, sweeps); raises
    NoConvergenceError if increments fail to vanish (e.g. an intermediate
    matrix became singular).
    """
    eye = np.eye(len(down))
    try:
        base = invert(eye - stay)
        high, low = base @ up, base @ down
        g, t = low, high
        for sweep in range(1, MAX_SWEEPS + 1):
            u = high @ low + low @ high
            mid = invert(eye - u)
            high = mid @ (high @ high)
            low = mid @ (low @ low)
            inc = t @ low
            g = g + inc
            t = t @ high
            if float(np.max(np.abs(inc))) <= tol * 0.01:
                return g, sweep
    except SingularMatrixError as exc:
        raise NoConvergenceError(f"reduction step failed: {exc}", estimate=None) from exc
    raise NoConvergenceError("reduction increments did not vanish", estimate=g,
                             iterations=MAX_SWEEPS)


def _tail_exit(tail, tol, up):
    """Exit matrix of one direction's step on a constant tail, and its info.

    The root comes from logarithmic reduction on rank-one shifted blocks
    that move the unit zero of the matrix polynomial off the unit circle
    (Bini, Latouche & Meini 2005; He, Meini & Rhee 2001); v = 1/d and pi is
    the stationary vector of the phase chain:

    - "stochastic", for the upward exit (always stochastic: the reflected
      walk always rises) and for the downward one unless the drift is
      certified positive: reduce (toward - toward 1 v^T, stay + back 1 v^T,
      back), then G = G~ + 1 v^T;
    - "drift-up", for the downward exit of a tail certified to drift up:
      reduce (down, stay + 1 pi down, up - 1 pi up); G itself is the
      minimal root, as pi down = pi up G.

    Negative rounding is clipped once, and the root is then stepped, at
    most POLISH_STEPS times, until a step returns it bit for bit or returns
    an earlier root, which starts a cycle that never reaches a fixed point.
    If no step returns its input, the reduction root is kept: near
    criticality the step contracts at a rate close to 1, so its rounding
    drifts or cycles instead of settling. The info names the ``shift``;
    ``polish`` counts the steps, ``fixed`` says whether the last one
    returned its input, and ``residual`` is the fixed-point residual,
    which must not exceed max(10 tol, 1e-10). The downward exit's info
    also holds the tail's ``tail_drift`` pair as ``drift``.
    """
    back, toward = (tail.down, tail.up) if up else (tail.up, tail.down)
    drift = None if up else tail_drift(tail)
    if up or drift_sign(drift) <= 0:
        shift, v = "stochastic", 1.0 / tail.d
        z, sweeps = _log_reduction(toward - v * toward.sum(1, keepdims=True),
                                   tail.stay + v * back.sum(1, keepdims=True), back, tol)
        z = z + v
    else:
        shift, pi = "drift-up", stationary_left_vector(tail.up + tail.stay + tail.down)
        z, sweeps = _log_reduction(toward, tail.stay + pi @ toward, back - pi @ back, tol)
    z = np.clip(z, 0.0, None)
    blocks = back[None], toward[None], tail.stay[None]
    polish, fixed, nxt, seen = 0, False, z, set()
    while polish < POLISH_STEPS and not fixed and nxt.tobytes() not in seen:
        seen.add(nxt.tobytes())
        stepped, nxt = nxt, _pass(*blocks, nxt, up)[1][0]
        polish += 1
        fixed = np.array_equal(nxt, stepped)
    if fixed:
        z = nxt
    residual = float(np.max(np.abs((np.eye(tail.d) - back @ z - tail.stay) @ z - toward)))
    if not residual <= max(10 * tol, 1e-10):
        raise NoConvergenceError(
            f"{'upward' if up else 'downward'} tail root has residual {residual:.3e}",
            estimate=z, iterations=sweeps, residual=residual)
    info = {"method": "reduction", "shift": shift, "sweeps": sweeps, "polish": polish,
            "fixed": fixed, "residual": residual}
    if not up:
        info["drift"] = drift
    return z, info


def exit_down_tail(tail, tol=DEFAULT_TOL):
    """Minimal nonnegative downward exit matrix of a constant tail: the
    shifted reduction root for the tail's drift sign, polished
    (``_tail_exit``). Returns (matrix, info dict).
    """
    return _tail_exit(tail, tol, up=False)


def exit_up_tail(tail, tol=DEFAULT_TOL):
    """Stochastic upward exit matrix of a constant tail: the stochastically
    shifted reduction root of the mirrored equation, polished
    (``_tail_exit``). Returns (matrix, info dict). No command calls it:
    it is the reference for ``classify``'s ``tail_radius_up``.
    """
    return _tail_exit(tail, tol, up=True)


def exit_down_seq(model, seed, n_max=None, tol=DEFAULT_TOL):
    """Downward exit matrices for levels 1..max(n_max, prefix+1), by the
    backward recursion from a caller's ``seed``, the reference for
    ``branching_data``'s exits. The seed is anchored at prefix+16 and the
    anchor doubles until the level-1 answer moves by less than ``tol``.
    Tail levels above depth are stepped 1024 at a time, keeping only the
    last exit. Returns (list indexed by level with [0] unused, info dict).
    """
    depth = max(n_max or 0, model.n_prefix + 1)
    seed = np.asarray(seed, dtype=float)
    anchor = max(model.n_prefix + 16, depth + 1)
    tail = model.up[-1:], model.down[-1:], model.stay[-1:]
    levels = model.levels(1, depth + 1)[::-1]
    prev_first = None
    for passes in range(1, ANCHOR_DOUBLINGS + 1):
        z = seed
        for top in range(anchor - 1, depth, -1024):
            run = (min(1024, top - depth), model.d, model.d)
            z = _pass(*(np.broadcast_to(b, run) for b in tail), z)[1][-1]
        exits = [None, *_pass(model.up[levels], model.down[levels], model.stay[levels], z)[1][::-1]]
        if prev_first is not None:
            delta = float(np.max(np.abs(exits[1] - prev_first)))
            if delta < tol:
                return exits, {"anchor": anchor, "passes": passes, "delta": delta}
        prev_first = exits[1]
        anchor *= 2
    raise NoConvergenceError(
        f"backward recursion did not settle by anchor {anchor // 2}",
        estimate=prev_first, iterations=ANCHOR_DOUBLINGS)


def tail_drift(tail):
    """(mean drift pi (U - D) 1 of a constant tail, its rounding bound).

    pi is the stationary vector of the phase chain U + S + D. By Neuts'
    mean-drift condition the tail is positive recurrent exactly when the
    drift is negative and transient exactly when it is positive. The bound
    covers the rounding of the drift, dominated by the error of pi, which
    the 1-norm condition number of its bordered system scales. A phase
    chain without a unique stationary vector gives (None, inf): no sign.
    """
    d = tail.d
    chain = tail.up + tail.stay + tail.down
    try:
        pi = stationary_left_vector(chain)
    except (ReducibleChainError, NotStochasticError):
        return None, math.inf
    bordered = chain.T - np.eye(d)
    bordered[-1, :] = 1.0
    rise, fall = tail.up.sum(axis=1), tail.down.sum(axis=1)
    bound = (16 * d * float(np.finfo(float).eps) * float(np.linalg.cond(bordered, 1))
             * float(np.max(rise + fall)))
    return float(pi @ (rise - fall)), bound


def drift_sign(drift):
    """-1 or +1 when a ``tail_drift`` pair's drift clears its bound, else 0."""
    value, bound = drift
    if value is None or abs(value) <= bound:
        return 0
    return 1 if value > 0 else -1


def exact_drift_sign(tail):
    """Sign of the mean drift pi (U - D) 1 of the stored floats, in exact
    arithmetic: -1, 0 or +1, or None when the phase chain has no unique
    stationary vector.

    pi solves A pi' = b, columns 0..d-2 of pi Q = 0 and pi 1 = 1, Q the
    generator with the off-diagonal entries of U + S + D and a diagonal
    that makes each row sum to 0 (Grassmann, Taksar & Heyman 1985). With r
    the drift per phase, det [[A, b], [r, 0]] = -det(A) pi r. The stored
    floats are dyadic, so each row scaled by a power of two is integer, and
    fraction-free (Bareiss) elimination gives both determinants as its last
    two pivots. Cost grows about as d^4: 0.14 s at d = 64 on the c-server
    retrial chain, 10 s at d = 100 with dense blocks (one Xeon core).
    """
    d = tail.d
    up, down, stay = ([[Fraction(x) for x in row] for row in block.tolist()]
                      for block in (tail.up, tail.down, tail.stay))
    gen = [[u + s + w for u, s, w in zip(*rows)] for rows in zip(up, stay, down)]
    for i, row in enumerate(gen):
        row[i] -= sum(row)
    rows = [[gen[j][c] for j in range(d)] + [Fraction(0)] for c in range(d - 1)]
    rows.append([Fraction(1)] * (d + 1))
    rows.append([sum(u) - sum(w) for u, w in zip(up, down)] + [Fraction(0)])
    m = []
    for row in rows:
        scale = max(x.denominator for x in row)
        m.append([x.numerator * (scale // x.denominator) for x in row])
    prev = 1
    for k in range(d + 1):
        # A's pivots come from A's rows, so both determinants share one row order
        pivot = next((i for i in range(k, max(d, k + 1)) if m[i][k]), None)
        if pivot is None:
            return None if k < d else 0
        m[k], m[pivot] = m[pivot], m[k]
        head, row_k = m[k][k], m[k]
        for row in m[k + 1:]:
            lead = row[k]
            for j in range(k + 1, d + 1):
                row[j] = (row[j] * head - lead * row_k[j]) // prev
        prev = head
    product = m[d][d] * m[d - 1][d - 1]
    return (product < 0) - (product > 0)


def _support_depth(weight, offspring):
    """How many rows of weight, weight A_1, weight A_1 A_2, ... over the stack
    ``offspring`` have a nonempty support before the first that has none,
    stepping supports alone, s <- s @ (A > 0) in booleans: none underflows."""
    rows = np.empty((len(offspring) + 1, len(weight)), dtype=bool)
    rows[0] = weight > 0
    for s, nxt, a in zip(rows, rows[1:], offspring > 0):
        np.matmul(s, a, out=nxt)
    return int(np.argmin(np.append(rows.any(axis=1), False)))


@dataclass
class BranchingData:
    """Per-level downward exit, offspring, sojourn, and fundamental matrices.

    ``exit_down``, ``fundamental``, ``offspring`` and ``sojourn`` are stacks
    over levels 1..depth, level n at index n - 1. depth is n_prefix + 1,
    the first tail level; every deeper level repeats it, and the ``*_at``
    accessors serve any level. ``tail_drift`` is the tail's
    ``tail_drift`` pair. ``drift_sign`` is its certified sign, -1, 0 or +1,
    or None when the tail phase chain has no unique stationary vector: the
    float sign when the drift clears its rounding bound, else the exact one
    (``exact_drift_sign``), which ``exact_sign`` flags. ``top_reached`` is
    the highest level up to depth that a walk from layer 0 enters, read
    from the support of 1 P0 A_1 ... A_{n-1} (``_support_depth``). Below
    depth the tail is out of reach (``tail_reachable`` is False): the walk
    stays in finitely many levels, and ``walk_sign`` reads -1 whatever the
    tail's drift. ``walk_sign`` alone picks every verdict.
    """

    model: object
    depth: int
    exit_down: np.ndarray
    fundamental: np.ndarray
    offspring: np.ndarray
    sojourn: np.ndarray
    radius_down: float
    tail_drift: tuple = (None, math.inf)
    drift_sign: int | None = None
    exact_sign: bool = False
    meta: dict = field(default_factory=dict)

    @functools.cached_property
    def top_reached(self):
        return _support_depth(np.ones(self.model.d) @ self.model.p0, self.offspring[:-1])

    @property
    def tail_reachable(self):
        return self.top_reached == self.depth

    @property
    def walk_sign(self):
        return self.drift_sign if self.tail_reachable else -1

    def exit_down_at(self, n):
        return self.exit_down[min(n, self.depth) - 1]

    def offspring_down_at(self, n):
        return self.offspring[min(n, self.depth) - 1]

    def sojourn_down_at(self, n):
        return self.sojourn[min(n, self.depth) - 1]

    def fundamental_down_at(self, n):
        return self.fundamental[min(n, self.depth) - 1]


def branching_data(model, tol=DEFAULT_TOL):
    """Build BranchingData for levels 1..n_prefix+1.

    One downward tail solve gives the first tail level's exit, which that
    level keeps; the backward pass (``_pass``) forms its factor from it,
    then steps the prefix from it, level n_prefix first. A refusal raises
    the first level's in that order. ``meta["tail"]`` is the downward tail
    solver's info. The one place a model is solved and ``tol`` enters:
    every reader of the downward structure takes the result alone.
    """
    depth, ones = model.n_prefix + 1, np.ones(model.d)
    tail_exit, tail_info = exit_down_tail(model.tail, tol=tol)
    tail_factor, _ = _pass(model.up[-1:], model.down[-1:], model.stay[-1:], tail_exit)
    prefix = slice(depth - 1, 0, -1)  # levels n_prefix..1
    factors, exits = _pass(model.up[prefix], model.down[prefix], model.stay[prefix], tail_exit)
    factors = np.concatenate((factors[::-1], tail_factor))
    offspring = factors @ model.up[1:]
    drift = tail_info["drift"]
    sign = drift_sign(drift)
    return BranchingData(
        model=model,
        depth=depth,
        exit_down=np.array([*exits[::-1], tail_exit]),
        fundamental=factors,
        offspring=offspring,
        sojourn=factors @ ones,
        radius_down=spectral_radius(offspring[-1]),
        tail_drift=drift,
        drift_sign=sign if sign else exact_drift_sign(model.tail),
        exact_sign=not sign,
        meta={"tail": tail_info, "tol": tol},
    )


@dataclass
class SeriesValue:
    """Outcome of summing a weighted branching series.

    status: "finite" (value is the certified sum, or NaN when its closed
    form was refused; the note says why), "infinite" (value is inf), or
    "inconclusive" (value is the partial sum through the prefix). weights
    stacks w A_start ... A_{j-1}, one row per level j = start, start + 1, ...
    """

    status: str
    value: float
    note: str = ""
    weights: np.ndarray = None

    @property
    def finite(self):
        return self.status == "finite"


def series_down_weighted(data, weight, start=1):
    r"""Sum of weight @ (offspring_down products) @ sojourn_down over levels.

    Computes sum_{k >= start} w A^-_{start} ... A^-_{k-1} u^-_k for a
    nonnegative row vector w. Terms through the prefix are accumulated
    directly; a weight they leave at zero ends the sum there if the tail
    drifts down or its support (``_support_depth``) is empty too. Else the
    tail's certified drift sign (``data.drift_sign``) decides: negative, the
    remainder is w (I-A)^{-1} u in closed form, NaN when ``invert`` refuses
    I - A; zero or positive, the sum is infinite; no sign, inconclusive.
    """
    w = np.asarray(weight, dtype=float)
    if np.any(w < 0):
        raise ValueError("series weights must be nonnegative")
    if start < 1:
        raise ValueError("series levels start at 1")
    total = 0.0
    k = max(start, data.depth)
    offspring = data.offspring[start - 1:k - 1]
    weights = [w]  # w A_start ... A_{j-1} for levels j = start..k
    for a in offspring:
        weights.append(weights[-1].dot(a))
    weights = np.array(weights)
    # every term w_j @ u_j in one stacked product, added in level order
    terms = weights[:-1, None] @ data.sojourn[start - 1:k - 1, :, None]
    for term in terms.ravel().tolist():
        total += term
    series = functools.partial(SeriesValue, weights=weights)
    if not weights[-1].any() and (data.drift_sign == -1
                                  or _support_depth(w, offspring) < len(weights)):
        return series("finite", total, note="weights vanished in the prefix")
    if data.drift_sign is None:
        return series("inconclusive", total,
                      note="tail phase chain has no unique stationary vector")
    if data.drift_sign >= 0:
        return series("infinite", math.inf, note="tail drift not negative")
    try:
        remainder = float(weights[-1] @ invert(np.eye(len(w)) - data.offspring_down_at(k))
                          @ data.sojourn_down_at(k))
    except SingularMatrixError as exc:
        return series("finite", math.nan, note=f"tail closed form refused: {exc}")
    return series("finite", total + remainder, note="tail summed in closed form")


@dataclass
class BoundaryVisits:
    """Expected total visits to layer 0, with convergence certificates.

    status "convergent" means value is the finite expected visit count (NaN
    when its closed form was refused; the note says why); "divergent" means
    the walk is recurrent; "inconclusive" carries term 0. terms always
    holds term 0.
    """

    status: str
    value: float
    terms: list
    partial_sums: list
    note: str = ""


def _phase_distribution(mu, d):
    """mu as a float array, checked to be a probability vector over d phases
    (comparisons written so that a NaN entry fails them)."""
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (d,) or not np.all(mu >= -1e-12) or not abs(float(mu.sum()) - 1.0) <= 1e-9:
        raise NotStochasticError("mu must be a probability vector over phases")
    return mu


def expected_boundary_visits(data, mu=None):
    """Expected number of layer-0 visits for a walk started on layer 0 at mu
    (default uniform).

    Term k is mu_k A^+_k ... A^+_1 1 with mu_k the phase distribution upon
    first reaching layer k (term 0 is 1). The series is finite exactly when
    the walk is transient, so the walk's certified sign
    (``data.walk_sign``: the tail's drift sign, -1 when the tail is out of
    reach) decides:

    - positive: the sum is mu (I - B G_1)^{-1} 1, with B the boundary's
      upward exit and G_1 the level-1 downward exit (each visit leaves up
      through B and comes back through G_1), taken as the one term after
      term 0; NaN when ``invert`` refuses I - B G_1;
    - negative or zero: divergent by Neuts' drift condition;
    - none: inconclusive.

    It solves no tail: the sign and G_1 are read from the data.
    """
    model, d = data.model, data.model.d
    mu = _phase_distribution(np.full(d, 1.0 / d) if mu is None else mu, d)
    total = float(mu @ np.ones(d))
    sign = data.walk_sign
    if sign is None:
        return BoundaryVisits("inconclusive", total, [total], [total],
                              note="tail phase chain has no unique stationary vector")
    if sign <= 0:
        return BoundaryVisits("divergent", math.inf, [total], [total],
                              note="tail drift not positive, or tail out of reach: recurrent")
    try:
        value = float(mu @ invert(np.eye(d) - boundary_exit_up(model) @ data.exit_down_at(1))
                      @ np.ones(d))
    except SingularMatrixError as exc:
        return BoundaryVisits("convergent", math.nan, [total], [total],
                              note=f"closed form refused: {exc}")
    return BoundaryVisits("convergent", value, [total, value - total], [total, value],
                          note="levels from 1 summed in closed form")


def offspring_pmf(data, n, phase, count, direction):
    """Offspring pmf of a step into (n >= 1, phase), for counts 0..count-1.

    Entry c is the probability that the step begets c back-steps during a
    passage in ``direction``: down-steps for "up", up-steps for "down".
    Matrix-geometric in c: e_phase K^c (I - S)^{-1} toward 1 with
    K = (I - S)^{-1} back E, where E is the exit matrix that returns a
    back-step to level n.
    """
    model = data.model
    if direction not in ("up", "down"):
        raise ValueError("direction must be 'up' or 'down'")
    if n < 1:
        raise ValueError("offspring levels start at 1")
    if count < 0:
        raise ValueError("count must be >= 0")
    if not 0 <= phase < model.d:
        raise ValueError(f"phase must be in [0, {model.d})")
    if direction == "up":
        exit_back = exit_up_seq(model, n - 1)[-1]
    else:
        exit_back = data.exit_down_at(n + 1)
    t = model.block_at(n)
    back, toward = (t.down, t.up) if direction == "up" else (t.up, t.down)
    base = invert(np.eye(model.d) - t.stay)
    kernel = base @ back @ exit_back
    leave = base @ toward @ np.ones(model.d)
    row = np.zeros(model.d)
    row[phase] = 1.0
    pmf = np.empty(count)
    for c in range(count):
        pmf[c] = row @ leave
        row = row @ kernel
    return pmf


def _ascent_visits(model, k, mu):
    """Expected visits per phase to layers k, k-1, ..., 0, in that order,
    before the walk, started on layer k at mu, first reaches layer k+1: w_n
    F_n at layer n, with w_k = mu and w_{n-1} = w_n F_n D_n."""
    levels = model.levels(0, k + 1)
    factors, _ = _pass(model.down[levels], model.up[levels], model.stay[levels],
                       np.zeros((model.d, model.d)), up=True)
    w = np.asarray(mu, dtype=float)
    # levels k..1; layer 0 by I - r0, not the pass's factor, whose diagonal differs
    for factor, down in zip(factors[:0:-1], model.down[levels[:0:-1]]):
        w = w @ factor
        yield w
        w = w @ down
    yield w @ invert(np.eye(model.d) - model.r0)


def expected_visits_ascent(model, k, mu, n):
    """Expected visits per phase to layer n (0 <= n <= k) before the walk,
    started on layer k at mu, first reaches layer k+1.

    Layer 0 visits include the dwell inside the boundary stay block.
    """
    if not 0 <= n <= k:
        raise ValueError("need 0 <= n <= k")
    return next(itertools.islice(_ascent_visits(model, k, mu), k - n, None))


def expected_visits_descent(data, k, mu, n):
    """Expected visits per phase to layer n (n >= k+1) before the walk,
    started on layer k >= 1 at mu, first reaches layer k-1."""
    if k < 1 or n < k + 1:
        raise ValueError("need k >= 1 and n >= k+1")
    w = np.asarray(mu, dtype=float).copy()
    for j in range(k, n):
        w = w @ data.offspring_down_at(j)
    return w @ data.fundamental_down_at(n)
