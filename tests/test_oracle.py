import json
import math
import re
import warnings

import numpy as np
import pytest

import halfstrip as hs
from halfstrip import MaxStepsExceededError, oracle

from conftest import (layout_models, overflow_inverse, random_pos_recurrent_model,
                      refused_level_models, retrial_model, scalar_chain)


def test_truncated_solve_residual(retrial_c1, retrial_c2):
    for model in (retrial_c1, retrial_c2):
        sol = hs.truncated_solve(model, 80)
        assert sol.residual <= 1e-10
        assert sol.augmentation == "fold-top-up-into-stay"
        assert abs(sol.pi.sum() - 1.0) < 1e-12


def test_truncated_solve_cutoff_stability(retrial_c1):
    """Doubling the cutoff moves the low-level rows by less than 1e-8."""
    a = hs.truncated_solve(retrial_c1, 60).level_rows()
    b = hs.truncated_solve(retrial_c1, 120).level_rows()
    drift = sum(np.abs(a[n] - b[n]).sum() for n in range(30))
    assert drift < 1e-8


def test_truncated_solve_matches_stationary(retrial_c1):
    rows = hs.truncated_solve(retrial_c1, 120).level_rows()
    res = hs.stationary_dist(hs.branching_data(retrial_c1))
    err = sum(np.abs(rows[n] - res.nu[n]).sum() for n in range(30))
    assert err < 1e-9


def test_truncated_solve_guards(retrial_c1):
    """A cutoff below 2 is refused; the level reduction has no state cap,
    so a 5000-level cutoff (10,002 states) solves."""
    with pytest.raises(ValueError):
        hs.truncated_solve(retrial_c1, 1)
    sol = hs.truncated_solve(retrial_c1, 5000)
    assert sol.pi.size == 5001 * retrial_c1.d
    assert sol.residual <= 1e-10


def test_truncated_solve_matches_dense_reference():
    """The level reduction gives the stationary vector of the dense
    truncated matrix, prefix and folded top level included."""
    rng = np.random.default_rng(31)
    models = [retrial_model(0.4, 0.3, 3), random_pos_recurrent_model(rng, 3)[0]]
    for model in models:
        cutoff = model.n_prefix + 6
        d = model.d
        t = np.zeros(((cutoff + 1) * d,) * 2)
        t[:d, :d], t[:d, d:2 * d] = model.r0, model.p0
        for n in range(1, cutoff + 1):
            blk, lo = model.block_at(n), n * d
            t[lo:lo + d, lo - d:lo] = blk.down
            t[lo:lo + d, lo:lo + d] = blk.stay
            if n < cutoff:
                t[lo:lo + d, lo + d:lo + 2 * d] = blk.up
            else:
                t[lo:lo + d, lo:lo + d] += blk.up
        sol = hs.truncated_solve(model, cutoff)
        want = hs.stationary_left_vector(t, row_tol=1e-8)
        assert np.abs(sol.pi - want).sum() <= 1e-12
        assert sol.residual == pytest.approx(np.abs(sol.pi @ t - sol.pi).sum(), abs=1e-15)


def test_truncated_solution_to_dict(retrial_c1):
    payload = hs.truncated_solve(retrial_c1, 40).to_dict()
    json.dumps(payload)
    assert payload["cutoff"] == 40


def test_simulate_requires_config(d1_pos):
    with pytest.raises(ValueError):
        hs.simulate(d1_pos)


def test_simulate_bit_deterministic(retrial_c1):
    cfg = hs.SimConfig(seed=402, cycles=5000)
    a = hs.simulate(retrial_c1, config=cfg)
    b = hs.simulate(retrial_c1, config=cfg)
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
        b.to_dict(), sort_keys=True
    )


def test_simulate_seed_changes_output(retrial_c1):
    a = hs.simulate(retrial_c1, config=hs.SimConfig(seed=1, cycles=2000))
    b = hs.simulate(retrial_c1, config=hs.SimConfig(seed=2, cycles=2000))
    assert a.mean_return_time != b.mean_return_time


def test_simulate_deterministic_two_step_cycles():
    """Boundary pushes up, the first level falls straight back: every cycle
    is exactly two steps, with no randomness left in the statistics."""
    drop = hs.BlockTriple(
        up=np.array([[0.0]]), down=np.array([[1.0]]), stay=np.array([[0.0]])
    )
    tail = hs.BlockTriple(
        up=np.array([[0.3]]), down=np.array([[0.7]]), stay=np.array([[0.0]])
    )
    m = hs.QbdModel(
        d=1,
        r0=np.array([[0.0]]),
        p0=np.array([[1.0]]),
        prefix=(drop,),
        tail=tail,
    )
    stats = hs.simulate(m, config=hs.SimConfig(seed=9, cycles=500))
    assert stats.mean_return_time == 2.0
    assert stats.return_time_se == 0.0
    assert stats.max_level == 1
    assert np.allclose(stats.visit_counts[0], [1.0])
    assert np.allclose(stats.visit_counts[1], [1.0])


def test_simulate_mean_return_time_scalar(d1_pos):
    stats = hs.simulate(d1_pos, config=hs.SimConfig(seed=31, cycles=50_000))
    # true mean cycle length is 3.5
    dev = abs(stats.mean_return_time - 3.5) / stats.return_time_se
    assert dev < 3.0


def test_simulate_empirical_matches_stationary(retrial_c1):
    stats = hs.simulate(retrial_c1, config=hs.SimConfig(seed=77, cycles=50_000))
    res = hs.stationary_dist(hs.branching_data(retrial_c1))
    data = hs.branching_data(retrial_c1)
    top = min(stats.max_level, res.levels)
    burst0 = 1.0 + 2.0 * float(
        (hs.invert(np.eye(retrial_c1.d) - retrial_c1.r0) @ np.ones(retrial_c1.d)).max()
    )
    worst = 0.0
    for n in range(top + 1):
        burst = burst0 if n == 0 else 1.0 + 2.0 * float(data.sojourn_down_at(n).max())
        dev, compared, _ = hs.cell_deviations(
            np.asarray(res.nu[n]),
            np.asarray(stats.empirical_distribution[n]),
            np.asarray(stats.visit_se[n]) / max(stats.mean_return_time, 1e-300),
            float(stats.cycles),
            bursts=burst,
        )
        if compared:
            worst = max(worst, dev)
    assert worst <= 1.0


def test_simulate_exit_frequencies_match_censored_measure(retrial_c1):
    stats = hs.simulate(retrial_c1, config=hs.SimConfig(seed=61, cycles=50_000))
    mu0 = hs.censored_measure(hs.branching_data(retrial_c1))
    dev, compared, _ = hs.cell_deviations(
        mu0,
        np.asarray(stats.exit_frequencies),
        np.asarray(stats.exit_frequency_se),
        float(stats.cycles),
    )
    assert compared == retrial_c1.d
    assert dev <= 1.0


def test_simulate_discards_overlong_cycles(d1_pos):
    stats = hs.simulate(
        d1_pos, config=hs.SimConfig(seed=5, cycles=400, max_steps=6, replications=8)
    )
    assert stats.discarded > 0
    assert stats.cycles > 0
    assert stats.mean_return_time <= 6.0


def test_simulate_raises_when_nothing_completes(d1_pos):
    with pytest.raises(MaxStepsExceededError):
        hs.simulate(d1_pos, config=hs.SimConfig(seed=1, cycles=10, max_steps=1))


def test_simulate_null_recurrent_terminates(d1_null):
    # either a few short cycles complete or the step cap trips; both are
    # acceptable, hanging is not
    try:
        stats = hs.simulate(
            d1_null,
            config=hs.SimConfig(seed=3, cycles=50, max_steps=2000, replications=4),
        )
        assert stats.cycles > 0
    except MaxStepsExceededError:
        pass


def test_simulate_refill_size_keeps_streams(retrial_c1, monkeypatch):
    """Each replication reads its own stream in order, so the refill size
    moves no statistic."""
    cfg = hs.SimConfig(seed=402, cycles=3000, replications=16)
    want = hs.simulate(retrial_c1, config=cfg).to_dict()
    monkeypatch.setattr(oracle, "UNIFORM_BUFFER", 3)
    assert hs.simulate(retrial_c1, config=cfg).to_dict() == want


def _per_step_simulate(model, config):
    """Reference simulator: all replications take one step at a time on
    the full rows, with the cycle bookkeeping after every step."""
    d = model.d
    rows = oracle._step_rows(model)
    reps = max(1, min(config.replications, config.cycles))
    per_rep = -(-config.cycles // reps)
    gens = oracle._rep_streams(config.seed, reps)
    level = np.zeros(reps, dtype=np.int64)
    cum_start = np.cumsum(np.full(d, 1.0 / d))
    cum_start[-1] = 1.0
    first_u = np.array([g.random() for g in gens])
    phase = (cum_start[None, :] < first_u[:, None]).sum(axis=1).astype(np.int64)
    pending = np.zeros((reps, 1, d))
    committed = np.zeros((reps, 1, d))
    arrival_counts = np.zeros((reps, d))
    arrival_counts[np.arange(reps), phase] += 1
    cycle_start_phase = phase.copy()
    cyc_len, rep_steps, completed, discarded, sum_len = np.zeros((5, reps), dtype=np.int64)
    block = max(1, oracle.UNIFORM_BUFFER // reps)
    buf = np.empty((reps, 0))
    ptr = 0
    active = (completed < per_rep) & (rep_steps < 2 * config.max_steps)
    while np.any(active):
        if ptr >= buf.shape[1]:
            buf = np.stack([g.random(block) for g in gens])
            ptr = 0
        u = buf[:, ptr]
        ptr += 1
        act = np.flatnonzero(active)
        lev_a, ph_a = level[act], phase[act]
        pending[act, lev_a, ph_a] += 1
        new_level, new_phase, _ = _full_row_step(rows, lev_a, ph_a, u[act])
        level[act], phase[act] = new_level, new_phase
        cyc_len[act] += 1
        rep_steps[act] += 1
        top = int(new_level.max())
        if top >= pending.shape[1]:
            pad = ((0, 0), (0, top + 8 - pending.shape[1]), (0, 0))
            pending, committed = np.pad(pending, pad), np.pad(committed, pad)
        over_mask = cyc_len[act] > config.max_steps
        arrived = act[(new_level == 0) & ~over_mask]
        committed[arrived] += pending[arrived]
        sum_len[arrived] += cyc_len[arrived]
        completed[arrived] += 1
        pending[arrived] = 0.0
        cyc_len[arrived] = 0
        cycle_start_phase[arrived] = phase[arrived]
        arrival_counts[arrived, phase[arrived]] += 1
        overlong = act[over_mask]
        discarded[overlong] += 1
        pending[overlong] = 0.0
        cyc_len[overlong] = 0
        level[overlong] = 0
        phase[overlong] = cycle_start_phase[overlong]
        active = (completed < per_rep) & (rep_steps < 2 * config.max_steps)
    return oracle._cycle_stats(config, per_rep, committed, arrival_counts, completed,
                               discarded, sum_len)


def test_simulate_matches_per_step_reference(d1_pos, d1_null, monkeypatch):
    """Segment stepping reproduces the per-step simulator exactly: overlong
    discards, retirement on the step budget, a step cap past int64, uneven
    and oversized replication counts, replications completing in different
    segments, refills inside a run, and walkers above the first tail
    level; in both table layouts, with numpy steps only, at the default
    FEW_WALKERS, and with plain Python steps only."""
    climber, _ = random_pos_recurrent_model(np.random.default_rng(8), 2)
    c1, c8 = retrial_model(0.2, 0.5, 1, gamma=1.0), retrial_model(1.5, 0.3, 8)
    home = scalar_chain(0.3, 0.7, r0=1.0)
    cases = [
        (d1_pos, hs.SimConfig(seed=5, cycles=400, max_steps=6, replications=8), None),
        # a cycle landing on layer 0 on the step that makes it overlong
        (c1, hs.SimConfig(seed=4, cycles=300, max_steps=2, replications=7), None),
        (d1_null, hs.SimConfig(seed=3, cycles=200, max_steps=40, replications=4), None),
        (c1, hs.SimConfig(seed=7, cycles=777, replications=5), None),
        # a cap past the int64 range
        (d1_pos, hs.SimConfig(seed=8, cycles=100, max_steps=10**20, replications=4), None),
        (c8, hs.SimConfig(seed=1, cycles=3, replications=8), None),
        (c1, hs.SimConfig(seed=4, cycles=60, replications=1), None),
        (c1, hs.SimConfig(seed=9, cycles=200, replications=2), 3),
        (c8, hs.SimConfig(seed=6, cycles=600, max_steps=30, replications=3), 1000),
        # an odd count of replications that complete their shares in three
        # different segments: the first segment cannot complete any share,
        # so it skips the cap on arrivals, and the later ones apply it
        (c1, hs.SimConfig(seed=11, cycles=901, replications=3), None),
        # every step lands on layer 0, so a segment one step longer than the
        # share holds one arrival too many
        (home, hs.SimConfig(seed=2, cycles=oracle.SEGMENT_STEPS - 1, replications=1), None),
        (climber, hs.SimConfig(seed=402, cycles=2000, replications=16), None),
    ]
    wants = []
    for model, cfg, buffer in cases:
        with monkeypatch.context() as patch:
            if buffer is not None:
                patch.setattr(oracle, "UNIFORM_BUFFER", buffer)
            wants.append(_per_step_simulate(model, cfg))
    walked = []
    walk = oracle._walk
    monkeypatch.setattr(oracle, "_walk", lambda *args: walked.append(1) or walk(*args))
    for layout, few in _stepping_paths(monkeypatch):
        seen = {"discarded": 0, "retired": 0, "climbed": 0}
        walked.clear()
        for (model, cfg, buffer), want in zip(cases, wants):
            with monkeypatch.context() as patch:
                if buffer is not None:
                    patch.setattr(oracle, "UNIFORM_BUFFER", buffer)
                got = hs.simulate(model, config=cfg)
            # json spells NaN alike on both sides, where == on floats would not
            assert json.dumps(got.to_dict()) == json.dumps(want.to_dict()), (layout, few, cfg)
            seen["discarded"] += got.discarded
            seen["retired"] += got.cycles < cfg.cycles
            seen["climbed"] += got.max_level > model.n_prefix + 1
        assert all(seen.values()), seen
        assert bool(walked) == (few > 0), (layout, few)


def _stepping_paths(monkeypatch):
    """Yield (layout, few) in each table layout (``_layouts``) for each
    FEW_WALKERS: 0 (numpy steps only), the default, and one above every
    walker count (plain Python steps only)."""
    default = oracle.FEW_WALKERS
    for layout in _layouts(monkeypatch):
        for few in (0, default, 10**9):
            monkeypatch.setattr(oracle, "FEW_WALKERS", few)
            yield layout, few


@pytest.mark.parametrize("config, field", [
    (hs.SimConfig, "cycles"), (hs.SimConfig, "replications"), (hs.SimConfig, "max_steps"),
    (hs.ExitConfig, "samples"), (hs.ExitConfig, "max_steps")])
def test_config_refuses_a_count_below_one(config, field):
    """A count below 1 is refused when the config is made, naming the field,
    where it used to fail later with another message or run regardless."""
    for value in (0, -3):
        with pytest.raises(ValueError, match=rf"^{config.__name__}\.{field} must be >= 1, "
                                             rf"got {value}$"):
            config(seed=1, **{field: value})
    assert getattr(config(seed=1, **{field: 1}), field) == 1


@pytest.mark.parametrize("config, field", [
    (hs.SimConfig, "seed"), (hs.SimConfig, "cycles"), (hs.SimConfig, "replications"),
    (hs.SimConfig, "max_steps"), (hs.ExitConfig, "seed"), (hs.ExitConfig, "samples"),
    (hs.ExitConfig, "max_steps")])
def test_config_refuses_a_value_that_is_no_integer(config, field):
    """A seed or count that is no integer, a whole float and a bool among
    them, is refused when the config is made, naming the field; Python and
    numpy integers are accepted."""
    for value in (2.5, 100.0, "3", True, None):
        with pytest.raises(ValueError, match=rf"^{config.__name__}\.{field} must be an "
                                             rf"integer, got {re.escape(repr(value))}$"):
            config(**{"seed": 1, field: value})
    for value in (3, np.int64(3), np.uint8(3)):
        assert getattr(config(**{"seed": 1, field: value}), field) == 3


@pytest.mark.parametrize("config", [hs.SimConfig, hs.ExitConfig])
def test_config_refuses_a_negative_seed(config):
    """A negative seed is refused by name when the config is made, where it
    used to fail at the first stream with numpy's message; seed 0 is
    valid."""
    for value in (-1, np.int64(-5)):
        with pytest.raises(ValueError, match=rf"^{config.__name__}\.seed must be >= 0, "
                                             rf"got {re.escape(repr(value))}$"):
            config(seed=value)
    assert config(seed=0).seed == 0


def test_segment_never_exceeds_the_uniform_buffer():
    assert 1 <= oracle.SEGMENT_STEPS <= oracle.UNIFORM_BUFFER


def test_simulate_without_two_completing_replications_warns_nothing():
    """Fewer than two replications complete a cycle: the return-time s.e.
    is NaN, as with one replication, and numpy prints no warning."""
    model = retrial_model(1.5, 0.3, 8)
    cfg = hs.SimConfig(seed=2, cycles=50, max_steps=2, replications=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stats = hs.simulate(model, config=cfg)
    assert stats.cycles > 0
    assert math.isnan(stats.return_time_se)


def test_simulate_se_shrinks_with_more_cycles(retrial_c1):
    small = hs.simulate(retrial_c1, config=hs.SimConfig(seed=19, cycles=2000))
    big = hs.simulate(retrial_c1, config=hs.SimConfig(seed=19, cycles=32000))
    assert big.return_time_se < small.return_time_se


def test_oracle_streams_frozen():
    """Frozen integers of both Monte Carlo oracles on a model whose walkers
    climb past the first tail level, so the table row serving every tail
    level is exercised."""
    model, _ = random_pos_recurrent_model(np.random.default_rng(8), 2)
    stats = hs.simulate(model, config=hs.SimConfig(seed=402, cycles=5000))
    assert stats.max_level > model.n_prefix + 1
    assert (stats.total_steps, stats.max_level, stats.discarded) == (9367, 5, 0)
    est = hs.estimate_exit_probability(
        model, 3, "down", hs.ExitConfig(seed=17, samples=4000)
    )
    hits = np.rint(est.matrix * est.samples).astype(int)
    assert hits.tolist() == [[2282, 1718], [2413, 1587]]
    assert est.censored.tolist() == [0, 0]


def _full_row_step(rows, level, phase, u):
    """Reference step of walkers at (level, phase) on the full 3d-outcome
    rows of ``rows``: each takes the first outcome whose cumulative
    probability reaches its u, the last one forced to 1. Levels past the
    last row read the last row. Returns the new (level, phase) and the
    cumulative rows read."""
    d = rows.shape[1]
    cum = np.cumsum(rows[np.minimum(level, len(rows) - 1), phase], axis=-1)
    cum[..., -1] = 1.0
    k = (cum < np.asarray(u)[..., None]).sum(axis=-1)
    return level + k // d - 1, k % d, cum


def _step_models():
    rng = np.random.default_rng(5)
    return [retrial_model(0.2, 0.5, 1, gamma=1.0), retrial_model(1.5, 0.3, 8),
            random_pos_recurrent_model(rng, 2)[0], random_pos_recurrent_model(rng, 3)[0],
            _past_one_model()]


def _past_one_model():
    """d = 2 model whose layer-0 row of phase 0, the values of one of
    prefix512's jump rows, sums past 1 in floating point (to 1 + 2^-52) at
    its second positive outcome and keeps fewer outcomes than the other
    rows."""
    tail = hs.BlockTriple(up=np.full((2, 2), 0.1), down=np.array([[0.3, 0.2], [0.2, 0.3]]),
                          stay=np.full((2, 2), 0.15))
    return hs.QbdModel(d=2, r0=np.array([[0.601128880526811, 0.0], [0.3, 0.3]]),
                       p0=np.array([[0.39887111947318915, 0.0], [0.2, 0.2]]),
                       prefix=(), tail=tail)


def _self_loop_model():
    """d = 2 model whose state (0, 0) never leaves: its self-loop is 1."""
    tail = hs.BlockTriple(up=np.array([[0.2, 0.1], [0.0, 0.3]]),
                          down=np.array([[0.4, 0.0], [0.3, 0.2]]),
                          stay=np.array([[0.3, 0.0], [0.1, 0.1]]))
    return hs.QbdModel(d=2, r0=np.array([[1.0, 0.0], [0.5, 0.2]]),
                       p0=np.array([[0.0, 0.0], [0.1, 0.2]]), prefix=(), tail=tail)


def test_jump_rows_drop_self_loops():
    """Each jump-chain row is the full row with its self-loop set to 0 and
    divided by the rest's sum; a state whose self-loop is 1 keeps it."""
    for model in _step_models() + [_self_loop_model()]:
        rows = oracle._step_rows(model)
        jump = oracle._jump_rows(rows)
        d = model.d
        for level, phase in np.ndindex(rows.shape[:2]):
            row = rows[level, phase].copy()
            if row[d + phase] == 1.0:
                want = row
            else:
                row[d + phase] = 0.0
                want = row / row.sum()
            assert np.array_equal(jump[level, phase], want)
            assert jump[level, phase].sum() == pytest.approx(1.0, abs=1e-12)
    jump = oracle._jump_rows(oracle._step_rows(_self_loop_model()))
    assert jump[0, 0].tolist() == [0, 0, 1, 0, 0, 0]


def _layouts(monkeypatch):
    """Yield "dense" with the tables as built, then "run-length" with every
    table forced into that layout."""
    yield "dense"
    monkeypatch.setattr(oracle, "DENSE_ENTRIES", 0)
    yield "run-length"
    monkeypatch.undo()


def _table_step(table, code, u):
    """Codes after one table step of walkers at ``code`` driven by ``u``."""
    stride = table.stride
    u = np.broadcast_to(u, np.shape(code))
    return oracle._advance(table, code * stride, oracle._rank(table, u)) // stride


def test_rank_counts_the_cuts_below_each_uniform(monkeypatch):
    """Through the guide and by one searchsorted alike, a uniform's rank is
    the number of cuts below it: at random draws, at each cut and the
    doubles beside it, at every bucket edge, 1.0 included, at 0.0 and at
    the largest double below 1, on the walk's and the jump chain's tables,
    one of them with a bucket that holds over a hundred cuts."""
    crowded = retrial_model(0.2, 0.5, 1, theta="0.3+0.3/n")
    rng = np.random.default_rng(4)
    most = 0
    for model, jump in [(m, j) for m in _step_models() + [crowded] for j in (False, True)]:
        table = oracle._step_table(model, jump=jump)
        cuts = table.cuts
        buckets = len(table.guide) - 1
        u = np.concatenate([rng.random(2000), cuts, np.nextafter(cuts, 0.0),
                            np.nextafter(cuts, 1.0), np.arange(buckets + 1) / buckets,
                            [0.0, np.nextafter(1.0, 0.0)]])
        u = u[u <= 1.0]
        want = (table.cuts[:, None] < u).sum(axis=0)
        for batch in (0, u.size + 1):
            monkeypatch.setattr(oracle, "GUIDE_BATCH", batch)
            assert np.array_equal(oracle._rank(table, u), want)
            assert np.array_equal(oracle._rank(table, u.reshape(-1, 1)), want.reshape(-1, 1))
        most = max(most, int(np.diff(table.guide).max()))
    assert most > 100


def test_cover_repeats_the_top_stored_level(monkeypatch):
    """In both layouts, on the walk's rows and on its jump chain's, a table
    stores levels 0..n_prefix + 1 and a covered one adds levels that step
    as the full row of the first tail level does, while the stored ones
    keep their rows and the arrays ``_rank`` reads; a level the table
    already stores returns the table itself."""
    for layout in _layouts(monkeypatch):
        for model, jump in [(m, j) for m in _step_models() for j in (False, True)]:
            rows = oracle._step_rows(model)
            if jump:
                rows = oracle._jump_rows(rows)
            table = oracle._step_table(model, jump=jump)
            assert (table.keys is None) == (layout == "dense")
            d, stored = model.d, len(table.last) // model.d
            assert stored == model.n_prefix + 2
            for level in range(stored):
                assert oracle._cover(table, level) is table
            covered = oracle._cover(table, stored + 4)
            levels = len(covered.last) // d
            assert levels == max(stored + 5, 2 * stored)
            # an exit walk ranks uniforms before a cover and steps on them
            # after it, so a cover keeps everything ``_rank`` reads
            for name in ("cuts", "guide", "ceiling"):
                assert np.array_equal(getattr(covered, name), getattr(table, name))
            for got, want in ((covered.last, table.last), (covered.move, table.move)):
                assert np.array_equal(got[:stored * d], want)
                assert np.array_equal(got[stored * d:], np.tile(want[-d:], (levels - stored, 1)))
            level, phase = np.divmod(np.arange(levels * d), d)
            for u in (0.25, 0.5, 0.75, np.nextafter(1.0, 0.0)):
                want = _full_row_step(rows, level, phase, np.full(level.size, u))[:2]
                assert np.array_equal(_table_step(covered, level * d + phase, u),
                                      want[0] * d + want[1])
            assert oracle._cover(covered, levels - 1) is covered
            assert len(oracle._cover(covered, levels).last) == 2 * levels * d


def test_advance_matches_full_rows(monkeypatch):
    """In both layouts the ranked table steps a walker code exactly as the
    full row does for every u > 0: random draws, ties with each cumulative
    value, and the largest double below 1, from every stored level and
    from levels past them on a covered table, on the walk's rows and on
    its jump chain's."""
    for layout in _layouts(monkeypatch):
        rng = np.random.default_rng(12)
        for model, jump in [(m, j) for m in _step_models() for j in (False, True)]:
            table = oracle._step_table(model, jump=jump)
            rows = oracle._step_rows(model)
            if jump:
                rows = oracle._jump_rows(rows)
            levels, cases = [], []
            for level in range(model.n_prefix + 5):
                for phase in range(model.d):
                    cum = _full_row_step(rows, level, phase, 0.5)[2]
                    draws = np.concatenate([rng.random(20), cum[cum > 0],
                                            [np.nextafter(1.0, 0.0)]])
                    levels += [level] * draws.size
                    cases += [(phase, u) for u in draws]
            level = np.array(levels, dtype=np.int64)
            phase = np.array([p for p, _ in cases], dtype=np.int64)
            u = np.array([u for _, u in cases])
            want = _full_row_step(rows, level, phase, u)[:2]
            covered = oracle._cover(table, int(level.max()))
            assert (covered.keys is None) == (layout == "dense")
            got = _table_step(covered, level * model.d + phase, u)
            assert np.array_equal(got, want[0] * model.d + want[1])


def test_advance_zero_uniform_takes_a_possible_move(retrial_c1, monkeypatch):
    """In both layouts a uniform of exactly 0.0 lands on the first outcome
    of positive probability, where the full row takes the smallest
    positive double, never on a zero-probability move such as level -1."""
    rows = oracle._step_rows(retrial_c1)
    d, top = retrial_c1.d, len(rows) - 1
    level = np.repeat(np.arange(top + 2), d)
    phase = np.tile(np.arange(d), top + 2)
    want = _full_row_step(rows, level, phase, np.full(level.size, np.nextafter(0.0, 1.0)))[:2]
    for layout in _layouts(monkeypatch):
        table = oracle._cover(oracle._step_table(retrial_c1), top + 1)
        assert (table.keys is None) == (layout == "dense")
        code = _table_step(table, level * d + phase, np.zeros(level.size))
        assert np.array_equal(code, want[0] * d + want[1])
        new_level, new_phase = np.divmod(code, d)
        assert new_level.min() >= 0
        outcome = (new_level - level + 1) * d + new_phase
        assert np.all(rows[np.minimum(level, top), phase, outcome] > 0)


def _per_phase_exit_counts(model, level, direction, config):
    """Reference estimator: each start phase walked on its own on the full
    rows of the jump chain, drawing a fresh block of its stream every
    step."""
    d = model.d
    target = level + 1 if direction == "up" else level - 1
    rows = oracle._jump_rows(oracle._step_rows(model))
    gens = oracle._rep_streams(config.seed, d, prefix=(level, 0 if direction == "up" else 1))
    counts = np.zeros((d, d), dtype=np.int64)
    censored = np.zeros(d, dtype=np.int64)
    for start in range(d):
        lev = np.full(config.samples, level, dtype=np.int64)
        ph = np.full(config.samples, start, dtype=np.int64)
        steps = 0
        while lev.size and steps < config.max_steps:
            lev, ph, _ = _full_row_step(rows, lev, ph, gens[start].random(lev.size))
            done = lev == target
            np.add.at(counts[start], ph[done], 1)
            lev, ph = lev[~done], ph[~done]
            steps += 1
        censored[start] = lev.size
    return counts, censored


def test_exit_estimate_matches_per_phase_reference(monkeypatch):
    """The one-population estimator reproduces the per-phase walks count
    for count, censored walks included: ascents from level 0 read stored
    levels only, while descents and ascents from n_prefix + 3 read levels
    the table covers past them; in both table layouts, with numpy steps
    only, at the default FEW_WALKERS, and with plain Python steps only."""
    cases = [(m, steps) for m in _step_models() for steps in (10**6, 3)]
    # walkers from (0, 0) of the self-loop model run until the cap
    cases += [(_self_loop_model(), steps) for steps in (40, 3)]
    runs = []
    for model, max_steps in cases:
        # an ascent against the drift can take millions of steps, so the
        # one from n_prefix + 3 stops at 500
        for level, direction, cap in ((0, "up", max_steps),
                                      (model.n_prefix + 1, "down", max_steps),
                                      (model.n_prefix + 3, "up", min(max_steps, 500))):
            cfg = hs.ExitConfig(seed=23, samples=300, max_steps=cap)
            runs.append((model, level, direction, cfg,
                         _per_phase_exit_counts(model, level, direction, cfg)))
    assert sum(int(censored.sum()) for *_, (_, censored) in runs) > 0
    walked = []
    walk_few = oracle._walk_few

    def spy(table, ys, ranks, gen, steps, max_steps, *bounds):
        walked.append(steps < max_steps)  # whether the walkers step at all
        return walk_few(table, ys, ranks, gen, steps, max_steps, *bounds)

    monkeypatch.setattr(oracle, "_walk_few", spy)
    for layout, few in _stepping_paths(monkeypatch):
        walked.clear()
        for model, level, direction, cfg, (counts, censored) in runs:
            est = hs.estimate_exit_probability(model, level, direction, cfg)
            assert np.array_equal(est.matrix, counts / cfg.samples), (layout, few, level)
            assert est.censored.tolist() == censored.tolist(), (layout, few, level)
        assert any(walked) == (few > 0), (layout, few)
    stuck = hs.estimate_exit_probability(_self_loop_model(), 0, "up",
                                         hs.ExitConfig(seed=23, samples=300, max_steps=40))
    assert stuck.censored[0] == 300 and stuck.matrix[0].sum() == 0.0


def test_exit_refill_size_keeps_streams(monkeypatch):
    """Each start phase reads its own stream in order, and a rank stays
    valid across a cover, so the refill size moves no exit estimate: one
    draw per step, a small odd chunk and the default give the same rows and
    censored counts for all-phase and read-row walks, up and down, with and
    without censoring, in both table layouts."""
    default = oracle.EXIT_CHUNK
    censored_seen = 0
    for layout in _layouts(monkeypatch):
        for model in _step_models():
            for level, direction in ((0, "up"), (model.n_prefix + 1, "down")):
                for max_steps, phases in ((10**6, None), (3, None), (10**6, [model.d - 1]),
                                          (3, [model.d - 1])):
                    cfg = hs.ExitConfig(seed=29, samples=300, max_steps=max_steps)
                    got = []
                    for chunk in (1, 7, default):
                        monkeypatch.setattr(oracle, "EXIT_CHUNK", chunk)
                        est = hs.estimate_exit_probability(model, level, direction, cfg,
                                                           phases=phases)
                        got.append((est.matrix.tolist(), est.censored.tolist()))
                    assert got[1] == got[0] and got[2] == got[0], (layout, level, direction)
                    censored_seen += sum(got[0][1])
    assert oracle.EXIT_CHUNK == default
    assert censored_seen > 0


def test_exit_estimate_rows_match_the_all_phase_estimate():
    """Walking only some start phases gives the all-phase estimate's rows
    for them bit for bit, censored walks included, since each start phase
    draws from its own stream; the phases come back sorted and distinct,
    and none walked gives an empty estimate."""
    cases = [(m, 10**6) for m in _step_models()] + [(_self_loop_model(), 40)]
    for model, max_steps in cases:
        d = model.d
        for level, direction in ((0, "up"), (model.n_prefix + 1, "down")):
            cfg = hs.ExitConfig(seed=23, samples=300, max_steps=max_steps)
            full = hs.estimate_exit_probability(model, level, direction, cfg)
            assert full.phases == list(range(d))
            for phases in ([d - 1], [0], [d - 1, 0, d - 1], range(0, d, 2), []):
                part = hs.estimate_exit_probability(model, level, direction, cfg,
                                                    phases=phases)
                assert part.phases == sorted(set(phases))
                assert np.array_equal(part.matrix, full.matrix[part.phases])
                assert np.array_equal(part.se, full.se[part.phases])
                assert part.censored.tolist() == full.censored[part.phases].tolist()
                assert part.matrix.shape == (len(part.phases), d)
    for bad in ([-1], [2]):
        with pytest.raises(ValueError, match="phases"):
            hs.estimate_exit_probability(_self_loop_model(), 1, "down",
                                         hs.ExitConfig(seed=1, samples=10), phases=bad)


def test_descent_on_a_drift_up_tail_covers_only_what_it_reaches(monkeypatch):
    """A descent on a tail drifting up, where most walkers climb until the
    step cap censors them, matches the per-phase reference count for
    count, and its table never covers much more than twice the highest
    level a walker stands on. With a small dense bound the table starts
    dense and turns run-length as it grows; with none it is run-length
    throughout."""
    tail = hs.BlockTriple(up=np.array([[0.3, 0.2], [0.2, 0.3]]),
                          down=np.array([[0.1, 0.1], [0.1, 0.1]]),
                          stay=np.array([[0.1, 0.2], [0.2, 0.1]]))
    model = hs.QbdModel(d=2, r0=np.array([[0.5, 0.2], [0.2, 0.5]]),
                        p0=np.array([[0.2, 0.1], [0.1, 0.2]]), prefix=(tail,), tail=tail)
    cfg = hs.ExitConfig(seed=31, samples=300, max_steps=3000)
    counts, censored = _per_phase_exit_counts(model, 2, "down", cfg)
    assert censored.sum() > cfg.samples
    advance = oracle._advance
    for bound, layouts in ((1000, {"dense", "run-length"}), (0, {"run-length"})):
        seen = []

        def spy(table, y, b):
            seen.append((len(table.last) // table.d, int(y.max()) // (table.d * table.stride),
                         "dense" if table.keys is None else "run-length"))
            return advance(table, y, b)

        monkeypatch.setattr(oracle, "_advance", spy)
        monkeypatch.setattr(oracle, "DENSE_ENTRIES", bound)
        est = hs.estimate_exit_probability(model, 2, "down", cfg)
        monkeypatch.undo()
        assert np.array_equal(est.matrix, counts / cfg.samples)
        assert est.censored.tolist() == censored.tolist()
        covered, reached = max(c for c, _, _ in seen), max(r for _, r, _ in seen)
        assert reached > 500
        assert covered <= 2 * (reached + oracle.COVER_STEPS)
        assert {layout for _, _, layout in seen} == layouts


def test_estimate_exit_probability_up_matches_analytic(retrial_c1):
    seq = hs.exit_up_seq(retrial_c1, 3)
    est = hs.estimate_exit_probability(
        retrial_c1, 2, "up", hs.ExitConfig(seed=11, samples=4000)
    )
    # retrial ascents are forced into the top phase, so this is exact
    assert np.allclose(est.matrix, seq[2], atol=1e-12)


def test_estimate_exit_probability_down_within_noise():
    rng = np.random.default_rng(8)
    model, data = random_pos_recurrent_model(rng, 2)
    est = hs.estimate_exit_probability(
        model, 1, "down", hs.ExitConfig(seed=17, samples=20_000)
    )
    want = data.exit_down_at(1)
    worst = 0.0
    for i in range(2):
        dev, compared, _ = hs.cell_deviations(
            want[i], est.matrix[i], est.se[i], float(est.samples)
        )
        if compared:
            worst = max(worst, dev)
    assert worst <= 1.0


def test_estimate_exit_probability_directions_use_distinct_streams(d1_pos):
    cfg = hs.ExitConfig(seed=29, samples=500)
    up = hs.estimate_exit_probability(d1_pos, 1, "up", cfg)
    down = hs.estimate_exit_probability(d1_pos, 1, "down", cfg)
    # descent from level 1 in this chain is certain, ascent is not
    assert down.matrix[0, 0] == 1.0
    assert up.matrix[0, 0] == 1.0
    assert up.level == down.level == 1
    first = [oracle._rep_streams(29, 1, prefix=(1, key))[0].random() for key in (0, 1)]
    assert first[0] != first[1]


def _per_cell_deviations(reference, observed, se, samples, bursts=None):
    """Reference for ``cell_deviations``: the same rules, one cell at a
    time."""
    ref = np.asarray(reference, dtype=float)
    got = np.asarray(observed, dtype=float)
    sed = np.asarray(se, dtype=float)
    if bursts is None:
        bursts = np.ones_like(ref)
    else:
        bursts = np.broadcast_to(np.asarray(bursts, dtype=float), ref.shape)
    worst = 0.0
    compared = 0
    skipped = 0
    for idx in np.ndindex(ref.shape):
        events = ref[idx] * samples
        if 0.0 < events < 16.0:
            skipped += 1
            continue
        floor = math.sqrt(ref[idx] * bursts[idx] / samples) if ref[idx] > 0.0 else 0.0
        se_hat = sed[idx] if math.isfinite(sed[idx]) else 0.0
        se_eff = max(se_hat, floor, 1.0 / samples)
        worst = max(worst, abs(got[idx] - ref[idx]) / (3.0 * se_eff))
        compared += 1
    return worst, compared, skipped


def test_cell_deviations_matches_per_cell_reference():
    """The array form gives the per-cell loop's triple bit for bit, and
    numpy warns of nothing: zero references (with an infinite burst too),
    rare cells, NaN and infinite s.e., NaN observations, and 0-d and 2-d
    inputs."""
    rng = np.random.default_rng(28)
    ref = np.array([[0.0, 0.5, 1e-7, 0.2], [0.0, 3e-4, 0.25, 1e-3]])
    got = ref + rng.normal(0.0, 0.01, ref.shape)
    got[1, 2] = math.nan
    se = np.array([[0.0, 0.01, math.nan, math.inf], [0.02, 1e-4, 0.01, -math.inf]])
    bursts = np.array([[math.inf], [3.0]])
    cases = [
        (ref, got, se, 10_000, None),
        (ref, got, se, 10_000.0, bursts),
        (ref, got, se, 100, np.full(ref.shape, math.inf)),
        (ref, got, np.abs(se), 7.0, 2.5),
        (ref[0], got[0], se[0], 1_000, None),
        (np.float64(0.3), 0.31, 0.004, 500, 4.0),
        (0.0, 0.25, 0.0, 100.0, math.inf),
        (1e-3, 0.0, math.nan, 1_000, None),
        (np.full((2, 2), 0.5), np.full((2, 2), math.nan), np.zeros((2, 2)), 50, None),
        (np.zeros((0, 3)), np.zeros((0, 3)), np.zeros((0, 3)), 10, None),
    ]
    for case in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got_triple = hs.cell_deviations(*case[:4], bursts=case[4])
        want = _per_cell_deviations(*case[:4], bursts=case[4])
        assert got_triple[1:] == want[1:], case
        assert float(got_triple[0]).hex() == float(want[0]).hex(), case
    assert hs.cell_deviations(ref, got, se, 10_000)[1:] == (5, 3)


def test_se_needs_two_replications():
    """The replication s.e. is NaN with fewer than two replications, in the
    shape of one replication's values."""
    assert oracle._se(np.zeros((0, 3))).shape == (3,)
    assert np.isnan(oracle._se(np.zeros((0, 3)))).all()
    assert math.isnan(float(oracle._se(np.array([4.0]))))
    assert np.isnan(oracle._se(np.ones((1, 2, 2)))).all()
    assert float(oracle._se(np.array([1.0, 3.0]))) == 1.0
    assert oracle._se(np.array([[1.0, 0.0], [3.0, 0.0]])).tolist() == [1.0, 0.0]


def test_cell_deviations_policy():
    ref = np.array([0.5, 1e-7, 0.0])
    obs = np.array([0.52, 5e-7, 0.0])
    se = np.array([0.01, 1e-7, 0.0])
    dev, compared, skipped = hs.cell_deviations(ref, obs, se, samples=10_000.0)
    # middle cell expects 1e-3 events: skipped; zero cell always compared
    assert skipped == 1
    assert compared == 2
    assert dev == pytest.approx((0.52 - 0.5) / (3 * 0.01), rel=1e-9)


def test_cell_deviations_zero_reference_violation_flagged():
    ref = np.array([0.0])
    obs = np.array([0.25])
    se = np.array([0.0])
    dev, compared, skipped = hs.cell_deviations(ref, obs, se, samples=100.0)
    assert compared == 1
    assert dev > 1.0


def _assembled_truncated_solve(model, cutoff):
    """Reference: ``truncated_solve`` with its blocks assembled from r0, p0,
    a zero block and stacks of levels 1.. of their own, the top level's up
    block folded into its stay block and replaced by zero; the form it had
    before level 0 joined the level stacks."""
    d = model.d
    stored = np.minimum(np.arange(cutoff), model.n_prefix)  # levels 1..cutoff
    zero = np.zeros((d, d))
    down = np.concatenate([zero[None], model.down[1:][stored]])
    stay = np.concatenate([model.r0[None], model.stay[1:][stored]])
    up = np.concatenate([model.p0[None], model.up[1:][stored[:-1]], zero[None]])
    stay[cutoff] += model.up[1:][stored[-1]]
    eye = np.eye(d)
    rates = np.empty((cutoff + 1, d, d))
    back = zero
    for n in range(cutoff, 0, -1):
        rates[n] = up[n - 1] @ hs.invert(eye - stay[n] - back)
        back = rates[n] @ down[n]
    pi = np.empty((cutoff + 1, d))
    pi[0] = hs.stationary_left_vector(stay[0] + back, row_tol=1e-8)
    for n in range(1, cutoff + 1):
        pi[n] = pi[n - 1] @ rates[n]
    pi /= pi.sum()
    flow = np.einsum("ni,nij->nj", pi, stay)
    flow[1:] += np.einsum("ni,nij->nj", pi[:-1], up[:-1])
    flow[:-1] += np.einsum("ni,nij->nj", pi[1:], down[1:])
    return pi.ravel(), float(np.sum(np.abs(flow - pi)))


def _solution_or_refusal(solve, model, cutoff):
    try:
        pi, residual = solve(model, cutoff)
        return pi.tobytes(), residual
    except (hs.SingularMatrixError, hs.ReducibleChainError) as exc:
        return type(exc).__name__, str(exc)


def test_truncated_solve_matches_the_assembled_reference():
    """Blocks sliced from the level stacks give the assembled reference's
    solution and residual bit for bit, and its refusals, on the
    refused-level, walled-prefix, absorbing-boundary and random models."""
    def solve(model, cutoff):
        sol = hs.truncated_solve(model, cutoff)
        return sol.pi, sol.residual

    kinds = set()
    for model in layout_models():
        for cutoff in sorted({2, max(2, model.n_prefix + 1), model.n_prefix + 6}):
            want = _solution_or_refusal(_assembled_truncated_solve, model, cutoff)
            assert _solution_or_refusal(solve, model, cutoff) == want
            kinds.add(want[0] if isinstance(want[0], str) else "solved")
    assert kinds == {"solved", "SingularMatrixError", "ReducibleChainError"}


@pytest.mark.parametrize("cutoff, want", [
    (2, {("refused", 1): (2, "1-norm"), ("refused", -1): (2, "1-norm"),
         ("refused-before-singular", 1): (1, "LAPACK"),
         ("refused-before-singular", -1): (1, "1-norm"),
         ("singular-before-refused", 1): (1, "1-norm"),
         ("singular-before-refused", -1): (1, "LAPACK")}),
    (9, {("refused", 1): (2, "1-norm"), ("refused", -1): (2, "1-norm"),
         ("refused-before-singular", 1): (3, "1-norm"),
         ("refused-before-singular", -1): (3, "LAPACK"),
         ("singular-before-refused", 1): (3, "LAPACK"),
         ("singular-before-refused", -1): (3, "1-norm")})])
def test_truncated_solve_refusal_names_its_level(cutoff, want):
    """A refused solve's SingularMatrixError.index is the refused level n of
    the strip: the first level from the cutoff down that a one-matrix check
    refuses, by its condition number or because LAPACK finds it singular,
    with the prefix in either order. At cutoff 2 only levels 2 and 1 are
    solved."""
    got = {}
    for name, model, _ in refused_level_models():
        for order in (1, -1):
            flipped = hs.QbdModel(d=model.d, r0=model.r0, p0=model.p0,
                                  prefix=model.prefix[::order], tail=model.tail)
            with pytest.raises(hs.SingularMatrixError) as info:
                hs.truncated_solve(flipped, cutoff)
            got[name, order] = (info.value.index, str(info.value).split()[0].rstrip(":"))
    assert got == want


@pytest.mark.parametrize("call", [0, 2, 8])
def test_truncated_solve_checks_an_inverse_before_its_products_refusal(
        retrial_c1, monkeypatch, call):
    """When a product with a finished inverse sets the invalid flag (an
    overflowed inverse meets a zero), that inverse is checked before the
    error state's refusal raises, so its level is refused by its condition
    number, as a one-matrix check would refuse it."""
    overflow_inverse(monkeypatch, call)
    with pytest.raises(hs.SingularMatrixError) as info:
        hs.truncated_solve(retrial_c1, 9)
    assert info.value.index == 9 - call
    assert str(info.value).startswith("1-norm condition number inf")
