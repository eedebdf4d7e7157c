"""Ground-truth oracles: a truncated linear solve and a seeded simulator.

Both are independent of the branching-structure machinery on purpose.
The truncated solve censors the strip at a cutoff level and solves its
global balance equations by linear level reduction; the simulator runs
the walk itself with a counter-based generator, one stream per
replication, so every estimate is reproducible bit for bit. Tests and the
verify command compare analytic results against both.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .linalg import invert, stationary_left_vector
from .model import _step_rows

# uniforms one simulator refill draws, split evenly over the replications
UNIFORM_BUFFER = 2**19
# most steps a simulator segment takes before its cycle bookkeeping
SEGMENT_STEPS = 256
# steps exit walks take between extensions of their table
COVER_STEPS = 16


class MaxStepsExceededError(Exception):
    """Every cycle in a simulation run blew past the step cap, so no
    statistics could be formed. Per-cycle overruns are merely discarded
    and counted; this error means nothing was left."""


@dataclass
class TruncatedSolution:
    """Stationary vector of the strip censored at level ``cutoff``.

    pi is flat over (cutoff+1)*d states, level-major. The top level's up
    block is folded into its stay block (censor-style repair), which keeps
    the matrix stochastic and converges fastest for geometric tails.
    residual is the l1 norm of pi T - pi over the truncated matrix T.
    """

    cutoff: int
    d: int
    pi: np.ndarray
    augmentation: str
    residual: float

    def level_rows(self):
        return [self.pi[n * self.d:(n + 1) * self.d] for n in range(self.cutoff + 1)]

    def to_dict(self):
        return {
            "cutoff": self.cutoff,
            "d": self.d,
            "augmentation": self.augmentation,
            "residual": self.residual,
            "pi": self.pi.reshape(-1, self.d).tolist(),
        }


def truncated_solve(model, cutoff):
    """Stationary solve of the strip truncated at ``cutoff`` >= 2, by
    linear level reduction.

    With U, S, D the up, stay and down blocks of each level (U_0 = p0,
    S_0 = r0, and the top level's up block folded into its stay block),
    the rate matrices R_n = U_{n-1} (I - S_n - R_{n+1} D_{n+1})^-1 come
    from the cutoff down, R_{cutoff+1} D_{cutoff+1} read as 0, so that
    pi_n = pi_{n-1} R_n; pi_0 is the stationary vector of the boundary
    chain censored to level 0, r0 + R_1 D_1. The work is O(cutoff d^3)
    and the memory O(cutoff d^2), so any cutoff is solved.
    """
    if cutoff < 2:
        raise ValueError("cutoff must be >= 2")
    d = model.d
    stored = np.minimum(np.arange(cutoff), model.n_prefix)  # stack index of levels 1..cutoff
    zero = np.zeros((d, d))
    down = np.concatenate([zero[None], model.down[stored]])
    stay = np.concatenate([model.r0[None], model.stay[stored]])
    up = np.concatenate([model.p0[None], model.up[stored[:-1]], zero[None]])
    stay[cutoff] += model.up[stored[-1]]

    eye = np.eye(d)
    rates = np.empty((cutoff + 1, d, d))
    back = zero  # R_{n+1} D_{n+1}
    for n in range(cutoff, 0, -1):
        rates[n] = up[n - 1] @ invert(eye - stay[n] - back)
        back = rates[n] @ down[n]
    pi = np.empty((cutoff + 1, d))
    pi[0] = stationary_left_vector(stay[0] + back, row_tol=1e-8)
    for n in range(1, cutoff + 1):
        pi[n] = pi[n - 1] @ rates[n]
    pi /= pi.sum()

    # (pi T)_n = pi_{n-1} U_{n-1} + pi_n S_n + pi_{n+1} D_{n+1}
    flow = np.einsum("ni,nij->nj", pi, stay)
    flow[1:] += np.einsum("ni,nij->nj", pi[:-1], up[:-1])
    flow[:-1] += np.einsum("ni,nij->nj", pi[1:], down[1:])
    residual = float(np.sum(np.abs(flow - pi)))
    return TruncatedSolution(cutoff=cutoff, d=d, pi=pi.ravel(),
                             augmentation="fold-top-up-into-stay",
                             residual=residual)


@dataclass
class SimConfig:
    """Simulation run parameters. ``cycles`` is the total target across all
    replications; each replication gets its own derived stream."""

    seed: int
    cycles: int = 10_000
    max_steps: int = 10**8
    replications: int = 64


@dataclass
class SimStats:
    """Cycle statistics of a simulated walk.

    Cycles regenerate at every arrival on layer 0. visit_counts[l, p] is
    the mean number of steps per cycle spent in state (l, p); dividing by
    the mean cycle length gives empirical_distribution, the long-run
    occupation frequencies. exit_frequencies is the empirical distribution
    of the arrival phase on layer 0 (estimates the censored boundary
    measure). Standard errors come from per-replication means.
    """

    seed: int
    replications: int
    cycles: int
    discarded: int
    total_steps: int
    mean_return_time: float
    return_time_se: float
    visit_counts: np.ndarray
    visit_se: np.ndarray
    empirical_distribution: np.ndarray
    exit_frequencies: np.ndarray
    exit_frequency_se: np.ndarray
    max_level: int
    meta: dict = field(default_factory=dict)

    def to_dict(self):
        items = ((f.name, getattr(self, f.name)) for f in fields(self) if f.name != "meta")
        return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in items}


def _rep_streams(seed, count, prefix=()):
    root = np.random.SeedSequence(entropy=seed, spawn_key=tuple(prefix))
    return [np.random.Generator(np.random.Philox(child))
            for child in root.spawn(count)]


class _StepTable(NamedTuple):
    """Compressed sampling table for levels 0..n_prefix+1.

    A walker is one code x = level * d + phase. State x keeps, in order,
    those of its 3d outcomes [down phases | stay phases | up phases] that
    have positive probability, plus the last one, whose cumulative
    probability is forced to 1 so a uniform in [0, 1) always lands;
    repeats of it pad the row. For the j-th kept outcome, ``cum[j, x]`` is
    its cumulative probability in the full row, stored for all but the
    last, whose 1 no uniform passes, and ``move`` at j * n_states + x is
    the change of code it makes: d times its level change plus its phase
    change. Every deeper level has the blocks of level n_prefix + 1, so
    ``_cover`` extends the table by repeats of that level's columns.

    The first full-row outcome whose cumulative value reaches u > 0 is
    positive or the last, so it is kept and a draw lands on the same
    outcome as on the full row; u = 0.0 lands on the first positive
    outcome, never on an impossible move.
    """

    cum: np.ndarray
    move: np.ndarray
    d: int


def _jump_rows(rows):
    """The jump chain of ``rows`` (see ``_step_rows``): in each state's row
    the self-loop, the stay outcome into its own phase, is set to 0 and the
    row divided by its new sum. A state with no other move keeps its row."""
    d = rows.shape[1]
    own = np.arange(d)
    jump = rows.copy()
    jump[:, own, d + own] = 0.0
    rest = jump.sum(axis=2, keepdims=True)
    return np.divide(jump, rest, out=rows.copy(), where=rest > 0)


def _step_table(model, jump=False):
    """The compressed table of ``model``, or with ``jump`` of its jump
    chain (``_jump_rows``)."""
    rows = _step_rows(model)
    if jump:
        rows = _jump_rows(rows)
    _, d, outcomes = rows.shape
    rows = rows.reshape(-1, outcomes)
    cum = np.cumsum(rows, axis=1)
    cum[:, -1] = 1.0
    keep = rows > 0
    keep[:, -1] = True
    width = int(keep.sum(axis=1).max())
    # kept columns in order, padded by repeats of the last one
    cols = np.sort(np.where(keep, np.arange(outcomes), outcomes - 1), axis=1)[:, :width]
    packed = np.take_along_axis(cum, cols, axis=1)
    # outcome column c of phase p's row moves to level + c // d - 1, phase c % d
    move = cols - d - np.arange(cols.shape[0])[:, None] % d
    return _StepTable(cum=np.ascontiguousarray(packed[:, :-1].T), move=move.T.ravel(), d=d)


def _cover(table, level):
    """``table`` if it stores ``level``, else a copy that repeats its top
    level's columns through at least ``level``, at least doubling its levels
    so that a run copies it O(log) times."""
    states, d = table.cum.shape[1], table.d
    stored = states // d
    if level < stored:
        return table
    more = max(level + 1, 2 * stored) - stored
    move = table.move.reshape(-1, states)
    return _StepTable(cum=np.hstack([table.cum, np.tile(table.cum[:, -d:], more)]),
                      move=np.hstack([move, np.tile(move[:, -d:], more)]).ravel(), d=d)


def _step(table, code, u):
    """One step of each walker at code x = level * d + phase driven by its
    uniform u; returns the new codes. Every walker must stand on a level
    the table stores (``_cover``)."""
    k = (table.cum.take(code, axis=1) < u).sum(axis=0)
    return code + table.move.take(k * table.cum.shape[1] + code)


def simulate(model, config=None):
    """Run the walk and gather regenerative cycle statistics.

    Each replication's walker starts on layer 0 with the uniform phase mix
    and runs until the replication has completed its share of
    config.cycles cycles (a cycle ends at each arrival on layer 0). Cycles
    longer than config.max_steps are discarded and counted, with the
    walker restarted on layer 0 at its cycle-start phase; each replication
    also retires after 2 * max_steps total steps (room for one restart) so
    runs on non-recurrent models terminate. If nothing completes,
    MaxStepsExceededError is raised. Deterministic given (model, config).

    The active replications step together in segments of at most
    SEGMENT_STEPS steps, which end before a cycle could grow overlong or
    a replication exhaust its budget anywhere but on their last step. A
    segment records every walker's code level * d + phase after each step
    and then derives its arrivals, cycle lengths, visits and restarts in
    one pass; steps past a replication's last needed arrival are dropped.
    Before a segment the step table is extended (``_cover``) to every
    level it can reach. Each replication's k-th step reads the k-th uniform
    of its stream however steps are grouped, so the statistics equal
    per-step bookkeeping's bit for bit.
    """
    if config is None:
        raise ValueError("a SimConfig with an explicit seed is required")
    d = model.d
    table = _step_table(model)
    reps = max(1, min(config.replications, config.cycles))
    per_rep = -(-config.cycles // reps)
    gens = _rep_streams(config.seed, reps)

    cum_start = np.cumsum(np.full(d, 1.0 / d))
    cum_start[-1] = 1.0
    first_u = np.array([g.random() for g in gens])
    # every walker starts on layer 0, where its code is its phase
    code = (cum_start[None, :] < first_u[:, None]).sum(axis=1).astype(np.int64)

    pending = np.zeros((reps, 1, d))
    committed = np.zeros((reps, 1, d))
    arrival_counts = np.zeros((reps, d))
    arrival_counts[np.arange(reps), code] += 1
    cycle_start_phase = code.copy()
    cyc_len = np.zeros(reps, dtype=np.int64)
    completed = np.zeros(reps, dtype=np.int64)
    discarded = np.zeros(reps, dtype=np.int64)
    sum_len = np.zeros(reps, dtype=np.int64)

    budget = 2 * config.max_steps
    buf = np.empty((reps, max(1, UNIFORM_BUFFER // reps)))
    ptr = buf.shape[1]
    steps = 0  # taken by each replication still active
    active = completed < per_rep
    while steps < budget and np.any(active):
        act = np.flatnonzero(active)
        if ptr == buf.shape[1]:
            # finished replications never step again, so their rows stay stale
            for r in act:
                gens[r].random(out=buf[r])
            ptr = 0
        # short enough that neither the step budget runs out nor a cycle
        # grows overlong before the segment's last step
        seg = min(buf.shape[1] - ptr, SEGMENT_STEPS, budget - steps,
                  config.max_steps + 1 - int(cyc_len[act].max()))
        u = np.ascontiguousarray(buf[act, ptr:ptr + seg].T)
        ptr += seg
        steps += seg

        # stepping: codes[j] is each replication's code after j steps of
        # the segment
        codes = np.empty((seg + 1, act.size), dtype=np.int64)
        codes[0] = x = code[act]
        table = _cover(table, int(x.max()) // d + seg)  # one level a step at most
        for j in range(seg):
            x = _step(table, x, u[j])
            codes[j + 1] = x

        # bookkeeping; step j of the segment leaves the state in row j - 1;
        # on layer 0 a code is the phase
        step = np.arange(1, seg + 1)[:, None]
        lands = codes[1:] < d
        start_len = cyc_len[act]
        # only a cycle open all segment long can cross the cap, on the last
        # step; one that crosses it on its closing step is still overlong
        over = (start_len + seg > config.max_steps) & ~lands[:-1].any(axis=0)
        lands[-1] &= ~over
        # a replication that completes its share mid-segment finishes there:
        # later arrivals do not count, and its state is never read again
        arrive = lands & (np.cumsum(lands, axis=0) - lands < per_rep - completed[act])
        last = (arrive * step).max(axis=0)
        closes = last > 0

        top = int(codes.max()) // d
        if top >= pending.shape[1]:
            pad = ((0, 0), (0, top + 8 - pending.shape[1]), (0, 0))
            pending = np.pad(pending, pad)
            committed = np.pad(committed, pad)
        # visits up to a replication's last arrival close cycles, later ones
        # stay pending
        cells = np.arange(act.size) * pending[0].size + codes[:-1]
        held = pending[act]
        closing = closes[:, None, None]
        committed[act] += np.where(closing, held, 0.0) + np.bincount(
            cells[step <= last], minlength=held.size).reshape(held.shape)
        pending[act] = np.where(closing, 0.0, held) + np.bincount(
            cells[step > last], minlength=held.size).reshape(held.shape)
        arrival_counts += np.bincount((act * d + codes[1:])[arrive],
                                      minlength=arrival_counts.size).reshape(reps, d)
        cycle_start_phase[act[closes]] = codes[last[closes], np.flatnonzero(closes)]

        closed = np.where(closes, start_len + last, 0)
        sum_len[act] += closed
        cyc_len[act] = np.where(over, 0, start_len + seg - closed)
        completed[act] += arrive.sum(axis=0)
        code[act] = codes[-1]
        # restart, but do not record a teleport as an arrival
        overlong = act[over]
        discarded[overlong] += 1
        pending[overlong] = 0.0
        code[overlong] = cycle_start_phase[overlong]
        active = completed < per_rep
    return _cycle_stats(config, per_rep, committed, arrival_counts, completed,
                        discarded, sum_len)


def _cycle_stats(config, per_rep, committed, arrival_counts, completed, discarded,
                 sum_len):
    """SimStats from per-replication tallies: committed[r, l, p] counts the
    visits to (l, p) in completed cycles, arrival_counts[r, p] the arrivals
    on layer 0 in phase p (the start included); completed, discarded and
    sum_len hold cycle counts and summed cycle lengths."""
    total_cycles = int(completed.sum())
    if total_cycles == 0:
        raise MaxStepsExceededError(
            "no cycle completed within the step cap; the walk may not be "
            "recurrent or max_steps is too small")
    total_steps = int(sum_len.sum())
    mean_rt = total_steps / total_cycles
    rep_means = sum_len / np.maximum(completed, 1)
    rt_se = float(_se(rep_means[completed > 0]))

    visit_total = committed.sum(axis=0)
    visit_mean = visit_total / total_cycles
    visit_se = _se(committed / np.maximum(completed, 1)[:, None, None])
    occupancy = visit_total / total_steps

    # arrival at the start of each completed cycle estimates the censored
    # boundary measure; the trailing arrival of the final cycle is included
    arr_total = arrival_counts.sum(axis=0)
    exit_freq = arr_total / arr_total.sum()
    exit_se = _se(arrival_counts / np.maximum(arrival_counts.sum(axis=1), 1)[:, None])

    top_used = int(np.max(np.nonzero(visit_total.sum(axis=1))[0])) if visit_total.any() else 0
    return SimStats(
        seed=config.seed,
        replications=len(arrival_counts),
        cycles=total_cycles,
        discarded=int(discarded.sum()),
        total_steps=total_steps,
        mean_return_time=float(mean_rt),
        return_time_se=rt_se,
        visit_counts=visit_mean[:top_used + 1],
        visit_se=visit_se[:top_used + 1],
        empirical_distribution=occupancy[:top_used + 1],
        exit_frequencies=exit_freq,
        exit_frequency_se=exit_se,
        max_level=top_used,
        meta={"per_replication_cycles": per_rep,
              "requested_cycles": config.cycles},
    )


def _se(rep_values):
    """Standard error of the mean over replications, the rows of
    ``rep_values``, per remaining entry; NaN when fewer than two rows count."""
    count = len(rep_values)
    if count < 2:
        return np.full(rep_values.shape[1:], math.nan)
    return np.std(rep_values, axis=0, ddof=1) / math.sqrt(count)


def cell_deviations(reference, observed, se, samples, bursts=None):
    """Worst per-cell deviation between an estimate and its reference, in
    units of 3 standard errors.

    Visits to a rare state arrive in bursts (one excursion yields several
    visits), so for cells that few excursions reach, the replication-based
    standard error is itself noisy. Cells whose expected event count
    (reference * samples) is positive but below 16 are
    therefore skipped, and the rest get an error floor
    sqrt(reference * burst / samples) - a binomial bound inflated by the
    expected burst size - plus an absolute floor of 1/samples. Cells with
    reference exactly 0 are always compared (structural zeros must stay
    zero). Returns (worst deviation / 3 s.e., compared count, skipped count).
    """
    ref = np.asarray(reference, dtype=float)
    sed = np.asarray(se, dtype=float)
    events = ref * samples
    compare = ~((events > 0.0) & (events < 16.0))
    # a zero reference gets a zero floor without meeting its burst (0 * inf)
    scaled = np.multiply(ref, 1.0 if bursts is None else bursts,
                         out=np.zeros(ref.shape), where=ref > 0.0)
    se_eff = np.fmax(np.fmax(np.where(np.isfinite(sed), sed, 0.0), np.sqrt(scaled / samples)),
                     1.0 / samples)
    dev = np.abs(np.asarray(observed, dtype=float) - ref) / (3.0 * se_eff)
    compared = int(compare.sum())
    # fmax skips NaN deviations
    return float(np.fmax.reduce(dev[compare], initial=0.0)), compared, ref.size - compared


@dataclass
class ExitConfig:
    """Exit-probability estimation parameters; ``samples`` is the number of
    walks started per phase."""

    seed: int
    samples: int = 10_000
    max_steps: int = 10**6


@dataclass
class ExitEstimate:
    """Empirical first-passage phase distribution with binomial errors.

    matrix[i, j] estimates the probability that a walk from (level, i)
    first enters the neighbor level at phase j; rows can sum below 1 if
    some walks never crossed within the step cap (counted in censored).
    """

    level: int
    direction: str
    matrix: np.ndarray
    se: np.ndarray
    samples: int
    censored: np.ndarray


def estimate_exit_probability(model, level, direction, config):
    """Monte Carlo estimate of an exit-probability matrix.

    direction "up" records the phase of first entry into level+1 (the walk
    reflects at 0 as usual); "down" records first entry into level-1 and
    needs level >= 1. config.samples walks start at (level, phase) for
    each phase, and all of them step together, each start phase drawing
    from its own stream. Streams are keyed by (seed, level, direction, start phase), so the
    estimate is deterministic given the config.

    The walks step on the jump chain (``_jump_rows``): the first-passage
    phase depends only on the sequence of states visited, so dropping
    self-loops leaves its law unchanged. config.max_steps counts moves
    that change state; a walker in a state it can never leave stays there
    until the cap censors it.
    """
    if direction not in ("up", "down"):
        raise ValueError("direction must be 'up' or 'down'")
    if direction == "down" and level < 1:
        raise ValueError("downward exit needs level >= 1")
    d = model.d
    target = level + 1 if direction == "up" else level - 1
    table = _step_table(model, jump=True)
    gens = _rep_streams(config.seed, d,
                        prefix=(int(level), 0 if direction == "up" else 1))
    # walkers sorted by start phase: each step, phase p's stream gives one
    # uniform to each of its active[p] walkers still out, in the order
    # they stand, so a walker's start phase follows from its place
    active = [config.samples] * d
    code = np.repeat(level * d + np.arange(d), config.samples)
    entry = target * d  # code of phase 0 on the target level
    arrivals = [code[:0]]
    steps = 0
    while code.size and steps < config.max_steps:
        if steps % COVER_STEPS == 0:
            # a walker climbs at most one level a step
            table = _cover(table, int(code.max()) // d + COVER_STEPS)
        u = np.concatenate([gens[p].random(n) for p, n in enumerate(active) if n])
        code = _step(table, code, u)
        done = code >= entry if direction == "up" else code < entry + d
        if np.any(done):
            at = np.flatnonzero(done)
            start = np.searchsorted(np.cumsum(active), at, side="right")
            arrivals.append(start * d + code[at] - entry)
            active = [n - f for n, f in
                      zip(active, np.bincount(start, minlength=d).tolist())]
            code = code[~done]
        steps += 1
    counts = np.bincount(np.concatenate(arrivals), minlength=d * d).reshape(d, d)
    censored = np.array(active)
    p_hat = counts / config.samples
    se = np.sqrt(p_hat * (1.0 - p_hat) / config.samples)
    return ExitEstimate(level=level, direction=direction, matrix=p_hat,
                        se=se, samples=config.samples, censored=censored)
