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
from bisect import bisect_left
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .linalg import invert, stationary_left_vector
from .model import _step_rows

# uniforms one simulator refill draws, split evenly over the replications
UNIFORM_BUFFER = 2**16
# most steps a simulator segment takes before its cycle bookkeeping
SEGMENT_STEPS = 256
# steps walkers take between extensions of their table
COVER_STEPS = 16
# most entries a step table holds in its dense layout; a larger one is
# run-length, which needs memory only in proportion to its kept outcomes
DENSE_ENTRIES = 2**20
# fewest uniforms ranked through the guide rather than by one searchsorted,
# whose binary search mispredicts its branches but makes one numpy call
GUIDE_BATCH = 1024
# fewest uniforms an exit walk draws from one stream at a time
EXIT_CHUNK = 4096
# most walkers the oracles step one at a time in plain Python, where a numpy
# step's fixed cost would exceed all their scalar table reads
FEW_WALKERS = 8


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
    levels = model.levels(0, cutoff + 1)
    down, stay, up = model.down[levels], model.stay[levels], model.up[levels]
    stay[cutoff] += up[cutoff]  # the top level's up block, never read again

    eye = np.eye(d)
    rates = np.empty((cutoff + 1, d, d))
    back = np.zeros((d, d))  # R_{n+1} D_{n+1}
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

    def __post_init__(self):
        _require_positive(self, "cycles", "max_steps", "replications")


def _require_positive(config, *names):
    """Refuse a config whose field among ``names`` is below 1, by name."""
    for name in names:
        value = getattr(config, name)
        if value < 1:
            raise ValueError(f"{type(config).__name__}.{name} must be >= 1, got {value!r}")


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


def _rep_streams(seed, children, prefix=()):
    """One Philox generator per child of the seed's ``prefix`` node: children
    0..children - 1 when ``children`` is an int, else the listed ones. A
    child's stream, keyed (*prefix, child), does not depend on which others
    are made."""
    if isinstance(children, int):
        children = range(children)
    return [np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=seed, spawn_key=(*prefix, int(k))))) for k in children]


class _StepTable(NamedTuple):
    """Ranked sampling table for the levels it covers.

    A walker stands on code x = level * d + phase. State x keeps, in order,
    those of its 3d outcomes [down phases | stay phases | up phases] that
    have positive probability, plus the last one, whose cumulative
    probability is forced to 1 so a uniform in [0, 1) always lands. The
    first full-row outcome whose cumulative value reaches u > 0 is positive
    or the last, so it is kept and a draw lands on the same outcome as on
    the full row; u = 0.0 lands on the first positive outcome, never on an
    impossible move.

    ``cuts`` holds the distinct cumulative values of the kept outcomes but
    the last, sorted, and a uniform's rank is b = #(cuts < u). A cut c
    passes u (c < u) exactly when its index in ``cuts`` is below b, so the
    outcome a draw lands on depends on u only through b, and ranking loses
    nothing. ``_rank`` finds b, for a large batch through ``guide[k]`` =
    #(cuts < k / G) over G equal buckets and ``ceiling``, the cuts padded
    by 1.0. Kept outcome j of state x takes the ranks up to ``last[x, j]``
    above those of the outcomes before it, and ``move[x, j]`` is its change
    of code: d times its level change plus its phase change.

    A walker is held as y = x * stride (stride = len(cuts) + 1), and
    ``_advance`` looks its next y up at y + b. The dense layout (``keys`` is
    None) stores that next y for every rank, states * stride entries in
    ``nxt``; above DENSE_ENTRIES entries the table is run-length instead,
    one entry per kept outcome: the next y of y + b is ``nxt[i]`` for the
    first i with ``keys[i] >= y + b``, keys[i] = y + last[x, j]. Every
    deeper level has the blocks of the top stored level, so ``_cover``
    extends the table by repeats of its rows.
    """

    cuts: np.ndarray
    guide: np.ndarray
    ceiling: np.ndarray
    last: np.ndarray
    move: np.ndarray
    nxt: np.ndarray
    keys: np.ndarray | None
    d: int

    @property
    def stride(self):
        return len(self.cuts) + 1


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
    """The ranked table of ``model``, or with ``jump`` of its jump chain
    (``_jump_rows``)."""
    rows = _step_rows(model)
    if jump:
        rows = _jump_rows(rows)
    _, d, outcomes = rows.shape
    rows = rows.reshape(-1, outcomes)
    # no uniform reaches 1, so clipping there moves no draw and keeps each
    # row's values nondecreasing up to its forced last 1
    cum = np.minimum(np.cumsum(rows, axis=1), 1.0)
    cum[:, -1] = 1.0
    keep = rows > 0
    keep[:, -1] = True
    width = int(keep.sum(axis=1).max())
    # kept columns in order, padded by repeats of the last one
    cols = np.sort(np.where(keep, np.arange(outcomes), outcomes - 1), axis=1)[:, :width]
    bounds = np.take_along_axis(cum, cols[:, :-1], axis=1)
    cuts = np.unique(bounds)
    last = np.hstack([cuts.searchsorted(bounds), np.full((len(cols), 1), len(cuts))])
    # outcome column c of phase p's row moves to level + c // d - 1, phase c % d
    move = cols - d - np.arange(len(cols))[:, None] % d
    # G = 2^m equal buckets of [0, 1), at least four per cut, and one more
    # entry, so that u = 1.0 ranks too
    buckets = 4 << len(cuts).bit_length()
    guide = cuts.searchsorted(np.arange(buckets + 1) / buckets)
    # the window a search reads holds the most cuts one bucket does, and is
    # padded past the last cut by 1.0, which no uniform passes
    crowd = int(np.diff(guide, append=len(cuts)).max())
    ceiling = np.append(cuts, np.ones(1 << crowd.bit_length()))
    return _lookup(_StepTable(cuts, guide, ceiling, last, move, None, None, d))


def _lookup(table):
    """``table`` with ``nxt`` and ``keys`` built from its rank ends and
    moves: dense when it has at most DENSE_ENTRIES entries, run-length
    otherwise."""
    states, stride = len(table.last), table.stride
    y = np.arange(states)[:, None] * stride
    nxt = (y + table.move * stride).ravel()
    if states * stride <= DENSE_ENTRIES:
        # outcome j serves the last[x, j] - last[x, j - 1] ranks after j - 1's
        return table._replace(nxt=np.repeat(nxt, np.diff(table.last, prepend=-1).ravel()))
    return table._replace(nxt=nxt, keys=(y + table.last).ravel())


def _cover(table, level):
    """``table`` if it stores ``level``, else a copy that repeats its top
    level's rows through at least ``level``, at least doubling its levels
    so that a run builds it O(log) times."""
    d = table.d
    stored = len(table.last) // d
    if level < stored:
        return table
    more = max(level + 1, 2 * stored) - stored
    last, move = (np.vstack([a, np.tile(a[-d:], (more, 1))]) for a in (table.last, table.move))
    return _lookup(table._replace(last=last, move=move, keys=None))


def _rank(table, u):
    """The rank b = #(cuts < u) of each uniform u (``_StepTable``).

    A batch of GUIDE_BATCH or more goes through the guide table (Chen &
    Asau 1974): u lies in bucket k = floor(u * G), which starts at
    guide[k] = #(cuts < k / G), and a binary search without branches adds
    the cuts below u in the window of cuts that follows, which holds every
    cut of the bucket. G is a power of 2, so u * G and k / G are exact, and
    so is b. A smaller batch takes one searchsorted.
    """
    if u.size < GUIDE_BATCH:
        return table.cuts.searchsorted(u)
    b = table.guide.take((u * (len(table.guide) - 1)).astype(np.int64))
    half = (len(table.ceiling) - len(table.cuts)) // 2
    while half:
        b += (table.ceiling[half - 1:].take(b) < u) * half
        half //= 2
    return b


def _advance(table, y, b):
    """The next y = code * stride of each walker at y whose uniform has
    rank b. Every walker must stand on a level the table stores
    (``_cover``)."""
    if table.keys is None:
        return table.nxt.take(y + b)
    return table.nxt.take(table.keys.searchsorted(y + b))


def _views(table):
    """``table.nxt`` and ``table.keys`` as memoryviews, which copy nothing
    and whose items are Python ints: one walker at y with rank b steps to
    nxt[y + b] in the dense layout and to nxt[bisect_left(keys, y + b)] in
    the run-length one (keys None)."""
    return table.nxt.data, None if table.keys is None else table.keys.data


def _walk(table, y, ranks):
    """One walker at y stepped through the list ``ranks`` in plain Python.
    Returns the table, covered as the numpy steps cover it (every
    COVER_STEPS steps, to COVER_STEPS levels past the walker), and the
    walker's y before its first step and after each."""
    span = table.d * table.stride
    path = [y]
    for j in range(0, len(ranks), COVER_STEPS):
        table = _cover(table, y // span + COVER_STEPS)
        nxt, keys = _views(table)
        for b in ranks[j:j + COVER_STEPS]:
            y = nxt[y + b if keys is None else bisect_left(keys, y + b)]
            path.append(y)
    return table, path


def _walk_few(table, ys, ranks, gen, steps, max_steps, lo, hi):
    """One stream's last walkers ``ys`` stepped in plain Python, in the
    numpy steps' order and with their draws: each step gives each walker
    still out the stream's next rank, in the order they stand, from the
    list ``ranks``, which is topped up as the numpy steps top up their
    buffer when it holds fewer ranks than walkers. A walker is out while
    lo <= y < hi; ``steps`` were taken before and the walk stops at
    ``max_steps``, with the table covered as the numpy steps cover it.
    Returns the table, the y of each walker that left, and the number
    still out."""
    span = table.d * table.stride
    nxt, keys = _views(table)
    exits, i = [], 0
    while ys and steps < max_steps:
        if steps % COVER_STEPS == 0:
            table = _cover(table, max(ys) // span + COVER_STEPS)
            nxt, keys = _views(table)
        n, left = len(ys), len(ranks) - i
        if left < n:
            ranks = ranks[i:] + _rank(table, gen.random(max(EXIT_CHUNK, n) - left)).tolist()
            i = 0
        out = []
        for y, b in zip(ys, ranks[i:i + n]):
            y = nxt[y + b if keys is None else bisect_left(keys, y + b)]
            (out if lo <= y < hi else exits).append(y)
        i += n
        ys = out
        steps += 1
    return table, exits, len(ys)


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
    and then derives its arrivals, visits and restarts in one pass; steps
    past a replication's last needed arrival are dropped. The segment's
    uniforms are ranked at once, so each step is one table lookup
    (``_StepTable``), and every COVER_STEPS steps the table is extended
    (``_cover``) to every level a walker can reach before the next
    extension. A segment of at most FEW_WALKERS replications steps each
    one through all its steps in plain Python before the next, since a
    replication reads only its own stream. Each replication's k-th step
    reads the k-th uniform of its stream however steps are grouped, so the
    statistics equal per-step bookkeeping's bit for bit.

    Only visits are booked: the visits of completed cycles, and those of
    each replication's open cycle. The rest follows from the regenerative
    structure. A completed cycle visits layer 0 once, at its start, so the
    completed cycles are the layer-0 visits. Each counted arrival, and the
    first start, starts one cycle, completed or still open, so the arrivals
    in each phase are the layer-0 visits plus the open cycle's start
    phase. Each step of a completed cycle is one visit, so the cycle
    lengths sum to the visits.
    """
    if config is None:
        raise ValueError("a SimConfig with an explicit seed is required")
    d = model.d
    table = _step_table(model)
    reps = min(config.replications, config.cycles)
    per_rep = -(-config.cycles // reps)
    gens = _rep_streams(config.seed, reps)

    cum_start = np.cumsum(np.full(d, 1.0 / d))
    cum_start[-1] = 1.0
    first_u = np.array([g.random() for g in gens])
    # every walker starts on layer 0, where its code is its phase
    code = (cum_start[None, :] < first_u[:, None]).sum(axis=1).astype(np.int64)

    pending = np.zeros((reps, 1, d))
    committed = np.zeros((reps, 1, d))
    cycle_start_phase = code.copy()
    cyc_len = np.zeros(reps, dtype=np.int64)
    completed = np.zeros(reps)
    discarded = np.zeros(reps, dtype=np.int64)

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
        longest = int(cyc_len[act].max())
        seg = min(buf.shape[1] - ptr, SEGMENT_STEPS, budget - steps,
                  config.max_steps + 1 - longest)
        u = buf[act, ptr:ptr + seg]
        ptr += seg
        steps += seg

        # stepping: codes[j] is each replication's code after j steps of
        # the segment
        ys = np.empty((seg + 1, act.size), dtype=np.int64)
        ys[0] = y = code[act] * table.stride
        if act.size <= FEW_WALKERS:
            # a replication reads only its own stream, so each can take all
            # its steps before the next one starts
            for i, ranks in enumerate(_rank(table, u).tolist()):
                table, ys[:, i] = _walk(table, int(y[i]), ranks)
        else:
            rank = _rank(table, u.T)
            for j in range(seg):
                if j % COVER_STEPS == 0:
                    # a walker climbs at most one level a step
                    table = _cover(table, int(y.max()) // (d * table.stride) + COVER_STEPS)
                ys[j + 1] = y = _advance(table, y, rank[j])
        codes = ys // table.stride

        # bookkeeping; step j of the segment leaves the state in row j - 1;
        # on layer 0 a code is the phase
        # in the smallest type that holds seg, which halves the row max below
        step = np.arange(1, seg + 1, dtype=np.min_scalar_type(seg))[:, None]
        lands = codes[1:] < d
        start_len = cyc_len[act]
        # only a cycle open all segment long can cross the cap, on the last
        # step; one that crosses it on its closing step is still overlong
        over = None
        if longest + seg > config.max_steps:
            over = (start_len + seg > config.max_steps) & ~lands[:-1].any(axis=0)
            lands[-1] &= ~over
        # a replication that completes its share mid-segment finishes there:
        # later arrivals do not count, and its state is never read again; a
        # segment lands at most seg times, so below that share nothing is cut
        need = per_rep - completed[act]
        arrive = lands
        if seg > need.min():
            arrive = lands & (np.cumsum(lands, axis=0) - lands < need)
        # the step of each replication's last arrival, 0 without one
        last = (arrive * step).max(axis=0)
        closes = last > 0

        top = int(codes.max()) // d
        if top >= pending.shape[1]:
            pad = ((0, 0), (0, top + 8 - pending.shape[1]), (0, 0))
            pending = np.pad(pending, pad)
            committed = np.pad(committed, pad)
        # slices, not index arrays, where they select every replication, so
        # that the updates below gather nothing
        sel = slice(None) if act.size == reps else act
        # visits up to a replication's last arrival close cycles, later ones
        # stay pending: one bincount counts both, the pending ones offset by
        # a whole block
        block = act.size * pending[0].size
        cells = np.arange(act.size) * pending[0].size + codes[:-1] + (step > last) * block
        counts = np.bincount(cells.ravel(), minlength=2 * block)
        counts = counts.reshape(2, act.size, *pending.shape[1:])
        closing = sel if closes.all() else act[closes]
        committed[sel] += counts[0]
        committed[closing] += pending[closing]
        pending[closing] = 0.0
        pending[sel] += counts[1]
        cycle_start_phase[act[closes]] = codes[last[closes], np.flatnonzero(closes)]
        cyc_len[act] = np.where(closes, 0, start_len) + seg - last
        code[act] = codes[-1]
        if over is not None:
            # restart, but do not record a teleport as an arrival
            overlong = act[over]
            discarded[overlong] += 1
            pending[overlong] = 0.0
            cyc_len[overlong] = 0
            code[overlong] = cycle_start_phase[overlong]
        # a completed cycle visits layer 0 once, at its start
        completed = committed[:, 0].sum(axis=1)
        active = completed < per_rep
    # each counted arrival, and the first start, starts one cycle: a
    # completed one or the one still open
    arrival_counts = committed[:, 0].copy()
    arrival_counts[np.arange(reps), cycle_start_phase] += 1
    return _cycle_stats(config, per_rep, committed, arrival_counts, completed.astype(np.int64),
                        discarded, committed.sum(axis=(1, 2)).astype(np.int64))


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

    def __post_init__(self):
        _require_positive(self, "samples", "max_steps")


@dataclass
class ExitEstimate:
    """Empirical first-passage phase distribution with binomial errors.

    matrix[k, j] estimates the probability that a walk from
    (level, phases[k]) first enters the neighbor level at phase j; rows can
    sum below 1 if some walks never crossed within the step cap (counted in
    censored, one entry per walked phase).
    """

    level: int
    direction: str
    matrix: np.ndarray
    se: np.ndarray
    samples: int
    censored: np.ndarray
    phases: list


def estimate_exit_probability(model, level, direction, config, phases=None):
    """Monte Carlo estimate of the rows ``phases`` (default: all, in order)
    of an exit-probability matrix.

    direction "up" records the phase of first entry into level+1 (the walk
    reflects at 0 as usual); "down" records first entry into level-1 and
    needs level >= 1. config.samples walks start at (level, p) for each
    walked phase p, and all of them step together, each start phase drawing
    from its own stream. Streams are keyed by (seed, level, direction, start
    phase), so the estimate is deterministic given the config, and each
    walked row equals the all-phase estimate's row bit for bit. A stream
    draws at least EXIT_CHUNK uniforms at a time and ranks them at once;
    its walkers read them in draw order, so the chunk size moves nothing.
    Once at most FEW_WALKERS walkers are out, they step in plain Python,
    stream by stream, in the same step-major order: each step, a stream
    gives one uniform to each of its walkers still out, in the order they
    stand, so the estimate does not depend on FEW_WALKERS either.

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
    phases = list(range(d)) if phases is None else sorted({int(p) for p in phases})
    if phases and not 0 <= phases[0] <= phases[-1] < d:
        raise ValueError(f"phases must lie in 0..{d - 1}")
    rows = len(phases)
    target = level + 1 if direction == "up" else level - 1
    table = _step_table(model, jump=True)
    gens = _rep_streams(config.seed, phases,
                        prefix=(int(level), 0 if direction == "up" else 1))
    # walkers sorted by start phase: each step, the k-th walked phase's
    # stream gives one uniform to each of its active[k] walkers still out,
    # in the order they stand; owner[i] is walker i's row
    active = [config.samples] * rows
    owner = np.repeat(np.arange(rows), config.samples)
    # ranked[k][spent[k]:] are the ranks of stream k's drawn, unread uniforms
    ranked = [owner[:0]] * rows
    spent = [0] * rows
    # a walker at code x is held as y = x * stride (``_StepTable``)
    level_span = d * table.stride
    y = np.repeat(level * level_span + np.array(phases, dtype=np.int64) * table.stride,
                  config.samples)
    entry = target * level_span  # y of phase 0 on the target level
    arrivals = [y[:0]]
    steps = 0
    while y.size > FEW_WALKERS and steps < config.max_steps:
        if steps % COVER_STEPS == 0:
            # a walker climbs at most one level a step
            table = _cover(table, int(y.max()) // level_span + COVER_STEPS)
        parts = []
        for k, n in enumerate(active):
            if not n:
                continue
            left = len(ranked[k]) - spent[k]
            if left < n:
                # a stream's draws come out in one order however they are
                # split, and a cover keeps the cuts, so a rank stays valid
                fresh = _rank(table, gens[k].random(max(EXIT_CHUNK, n) - left))
                ranked[k] = np.concatenate([ranked[k][spent[k]:], fresh]) if left else fresh
                spent[k] = 0
            parts.append(ranked[k][spent[k]:spent[k] + n])
            spent[k] += n
        y = _advance(table, y, parts[0] if len(parts) == 1 else np.concatenate(parts))
        done = y >= entry if direction == "up" else y < entry + level_span
        # count_nonzero skips the Python layer of ndarray.any
        if np.count_nonzero(done):
            at = done.nonzero()[0]
            start = owner[at]
            arrivals.append(start * d + (y[at] - entry) // table.stride)
            active = [n - f for n, f in
                      zip(active, np.bincount(start, minlength=rows).tolist())]
            keep = ~done
            y, owner = y[keep], owner[keep]
        steps += 1
    # the last few walkers step in plain Python; streams are independent,
    # so each one's walkers finish on their own
    lo, hi = (0, entry) if direction == "up" else (entry + level_span, math.inf)
    rest, first = y.tolist(), 0
    for k, n in enumerate(active):
        if n:
            table, exits, active[k] = _walk_few(
                table, rest[first:first + n], ranked[k][spent[k]:].tolist(), gens[k], steps,
                config.max_steps, lo, hi)
            arrivals.append(k * d + (np.array(exits, dtype=np.int64) - entry) // table.stride)
            first += n
    counts = np.bincount(np.concatenate(arrivals), minlength=rows * d).reshape(rows, d)
    censored = np.array(active, dtype=np.int64)
    p_hat = counts / config.samples
    se = np.sqrt(p_hat * (1.0 - p_hat) / config.samples)
    return ExitEstimate(level=level, direction=direction, matrix=p_hat,
                        se=se, samples=config.samples, censored=censored, phases=phases)
