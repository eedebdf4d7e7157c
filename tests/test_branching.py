import itertools
import math
import re
import warnings

import numpy as np
import pytest

import halfstrip as hs

from conftest import (absorbing_boundary_model, layout_models, overflow_inverse,
                      random_pos_recurrent_model, refused_level_models, retrial_model,
                      scalar_chain, stacked_pass_models, underflow_prefix_models,
                      walled_prefix_models)


# dense absorbing-chain oracle for expected visit counts


def _dense_visits(model, lo, hi, start_level, mu, count_level):
    """Expected visits to each phase of count_level before leaving [lo, hi],
    starting from the measure mu on start_level. Steps below lo or above hi
    absorb. Pure dense linear algebra, independent of the branching code."""
    d = model.d
    levels = list(range(lo, hi + 1))
    index = {n: i for i, n in enumerate(levels)}
    size = len(levels) * d
    t = np.zeros((size, size))
    for n in levels:
        i = index[n] * d
        if n == 0:
            t[i : i + d, i : i + d] += model.r0
            if 1 in index:
                j = index[1] * d
                t[i : i + d, j : j + d] += model.p0
        else:
            blk = model.block_at(n)
            t[i : i + d, i : i + d] += blk.stay
            if n - 1 >= lo:
                j = index[n - 1] * d
                t[i : i + d, j : j + d] += blk.down
            if n + 1 <= hi:
                j = index[n + 1] * d
                t[i : i + d, j : j + d] += blk.up
    start = np.zeros(size)
    start[index[start_level] * d : index[start_level] * d + d] = mu
    visits = start @ np.linalg.inv(np.eye(size) - t)
    i = index[count_level] * d
    return visits[i : i + d]


def _offspring_up(model, n):
    """Upward offspring matrix F_n D_n of level n: one inverse of the level
    step from the upward exit below it."""
    t = model.block_at(n)
    z = hs.exit_up_seq(model, n - 1)[-1]
    return hs.invert(np.eye(model.d) - t.down @ z - t.stay) @ t.down


def _down_steps(model, z, levels):
    """(level, blocks, passage factor, exit) of the backward recursion from z
    over ``levels`` in order, one inverse per level by numpy's public
    ``np.linalg.inv``, checked by ``check_condition``: the reference the
    level pass matches bit for bit."""
    for n in levels:
        t = model.block_at(n)
        mat = np.eye(model.d) - t.up @ z - t.stay
        factor = np.linalg.inv(mat)
        hs.linalg.check_condition(mat[None], factor[None])
        z = factor @ t.down
        yield n, t, factor, z


def test_scalar_chain_frozen_quantities(d1_pos):
    data = hs.branching_data(d1_pos)
    tail = data.depth
    assert np.allclose(data.exit_down_at(tail), [[1.0]], atol=1e-9)
    assert np.allclose(data.fundamental_down_at(tail), [[10.0 / 7.0]], atol=1e-10)
    assert np.allclose(data.offspring_down_at(tail), [[3.0 / 7.0]], atol=1e-10)
    assert np.allclose(data.sojourn_down_at(tail), [10.0 / 7.0], atol=1e-10)
    assert abs(data.radius_down - 3.0 / 7.0) < 1e-9


def test_scalar_transient_exit_down(d1_transient):
    data = hs.branching_data(d1_transient)
    # minimal root of 0.7 z^2 - z + 0.3
    assert np.allclose(data.exit_down_at(data.depth), [[3.0 / 7.0]], atol=1e-10)


def test_permutation_chain_frozen_quantities(perm_chain):
    """Two-phase swap-coupled chain: exit_down is the swap matrix itself, so
    the fundamental matrix is diagonal and the offspring matrix swaps."""
    m = np.array([[0.0, 1.0], [1.0, 0.0]])
    data = hs.branching_data(perm_chain)
    tail = data.depth
    assert np.allclose(data.exit_down_at(tail), m, atol=1e-9)
    assert np.allclose(data.fundamental_down_at(tail), (10.0 / 7.0) * np.eye(2), atol=1e-9)
    assert np.allclose(data.offspring_down_at(tail), (3.0 / 7.0) * m, atol=1e-9)
    assert abs(data.radius_down - 3.0 / 7.0) < 1e-9


def test_retrial_c1_frozen_quantities(retrial_c1):
    data = hs.branching_data(retrial_c1)
    tail = data.depth
    assert np.allclose(data.exit_down_at(tail), [[0.0, 1.0], [0.0, 1.0]], atol=1e-9)
    assert np.allclose(
        data.fundamental_down_at(tail),
        np.array([[10.0, 4.0], [10.0, 10.0]]) / 3.0,
        atol=1e-9,
    )
    assert np.allclose(
        data.offspring_down_at(tail),
        np.array([[0.0, 4.0], [0.0, 10.0]]) / 15.0,
        atol=1e-9,
    )
    assert abs(data.radius_down - 2.0 / 3.0) < 1e-9


def test_boundary_exit_up_identity_case(d1_pos):
    assert np.allclose(hs.boundary_exit_up(d1_pos), [[1.0]])


def test_boundary_exit_up_with_boundary_dwell():
    m = scalar_chain(0.3, 0.7, r0=0.4)
    # (1 - 0.4)^{-1} 0.6 = 1: leaving the boundary upward is still certain
    assert np.allclose(hs.boundary_exit_up(m), [[1.0]], atol=1e-12)


def test_exit_up_rows_stochastic(retrial_c1, retrial_c2, perm_chain):
    for model in (retrial_c1, retrial_c2, perm_chain):
        seq = hs.exit_up_seq(model, 12)
        for mat in seq:
            assert np.max(np.abs(mat.sum(axis=1) - 1.0)) <= 1e-9
            assert np.min(mat) >= -1e-12


def test_exit_up_rows_stochastic_random_models():
    rng = np.random.default_rng(2024)
    for d in (2, 3, 4):
        model, _ = random_pos_recurrent_model(rng, d)
        for mat in hs.exit_up_seq(model, 10):
            assert np.max(np.abs(mat.sum(axis=1) - 1.0)) <= 1e-9


def test_upward_pass_keeps_rows_stochastic_without_projection():
    """The upward diagonal is formed without subtraction, so every upward
    exit is stochastic to the rounding of one inverse however far the pass
    goes: on the 512-level prefix to level 600, on c=32 retrial to level
    200 and on random d = 5 models to level 1000."""
    rng = np.random.default_rng(22)
    runs = [(retrial_model(0.2, 0.5, 1, theta="0.3+0.3/n"), 600),
            (retrial_model(6.0, 0.3, 32), 200)]
    runs += [(random_pos_recurrent_model(rng, 5, n_prefix=n)[0], 1000) for n in (2, 30)]
    for model, n_max in runs:
        sums = np.stack([z.sum(axis=1) for z in hs.exit_up_seq(model, n_max)])
        assert np.max(np.abs(sums - 1.0)) <= 1e-12


@pytest.mark.parametrize("name, message, level", [
    ("refused", "1-norm condition number 3.000e+12 above 1e+12", 2),
    ("refused-before-singular", "1-norm condition number 3.000e+12 above 1e+12", 1),
    ("singular-before-refused", "LAPACK: Singular matrix", 1)])
def test_upward_pass_raises_the_first_refusal_in_pass_order(name, message, level):
    """Each refused-level model with its prefix reversed meets, going up,
    its levels in the order the backward pass meets the original's. The
    whole pass is checked at once, yet the error is the one a check after
    each level would raise first (the near-absorbing level's upward factor
    has condition 3.0e12), its index the refused level less one, and the
    levels below it step."""
    model = {n: m for n, m, _ in refused_level_models()}[name]
    rev = hs.QbdModel(d=model.d, r0=model.r0, p0=model.p0, prefix=model.prefix[::-1],
                      tail=model.tail)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(hs.SingularMatrixError) as exc:
            hs.exit_up_seq(rev, rev.n_prefix + 1)
    assert (str(exc.value), exc.value.index) == (message, level - 1)
    assert len(hs.exit_up_seq(rev, level - 1)) == level


def test_exit_down_seq_from_zero_rises_toward_tail_root(d1_pos, retrial_c1):
    """On prefix-free models the backward recursion from a zero seed runs the
    monotone functional iteration of the tail: the exits rise entrywise as
    the level falls and stay below the minimal root."""
    for model in (d1_pos, retrial_c1):
        d = model.d
        exits, _ = hs.exit_down_seq(model, n_max=40, seed=np.zeros((d, d)))
        root, _ = hs.exit_down_tail(model.tail)
        for n in range(2, 41):
            assert np.all(exits[n - 1] >= exits[n] - 1e-15), n
        assert np.all(exits[1] <= root + 1e-9)


def test_exit_down_tail_critical_uses_reduction():
    crit = hs.BlockTriple(
        up=np.array([[0.5]]), down=np.array([[0.5]]), stay=np.array([[0.0]])
    )
    mat, info = hs.exit_down_tail(crit)
    assert abs(mat[0, 0] - 1.0) < 1e-6
    assert info["method"] == "reduction"


@pytest.mark.parametrize("solver", [hs.exit_down_tail, hs.exit_up_tail])
def test_tail_solvers_report_reduction_info(solver):
    """Both tail solvers report the reduction sweeps, the polish steps, whether
    the polish reached a fixed point, and the root's residual."""
    swap = 0.5 * np.array([[0.0, 1.0], [1.0, 0.0]])
    null = hs.BlockTriple(up=swap, down=swap, stay=np.zeros((2, 2)))
    mat, info = solver(null)
    assert np.max(np.abs(mat.sum(axis=1) - 1.0)) <= 1e-9
    assert info["method"] == "reduction"
    assert info["sweeps"] >= 1
    assert "polish" in info and "fixed" in info
    assert info["shift"] == "stochastic"
    assert info["residual"] <= 1e-15


def test_tail_solvers_shift_by_drift_sign(d1_pos, d1_null, d1_transient):
    """The upward root always takes the stochastic shift; the downward one
    takes the drift-up shift exactly when the drift is certified positive.
    The shift moves every unit zero off the unit circle, the null tail's
    double one included, so each scalar root takes at most two sweeps and
    is exact: the upward exit is certain, the downward one is too unless
    the walk escapes upward (3/7 for up 0.7/down 0.3)."""
    for model, down_shift, down in ((d1_pos, "stochastic", 1.0),
                                    (d1_null, "stochastic", 1.0),
                                    (d1_transient, "drift-up", 3.0 / 7.0)):
        for solver, shift, root in ((hs.exit_down_tail, down_shift, down),
                                    (hs.exit_up_tail, "stochastic", 1.0)):
            mat, info = solver(model.tail)
            assert info["shift"] == shift
            assert info["sweeps"] <= 2
            assert mat[0, 0] == pytest.approx(root, abs=1e-15)


def test_exit_up_tail_is_stochastic_root_on_positive_recurrent_tails():
    """On a tail drifting down the minimal upward root is substochastic; the
    solver's shifted root is stochastic and is the root the upward recursion
    settles on."""
    rng = np.random.default_rng(2024)
    for d in (2, 3, 4):
        model, _ = random_pos_recurrent_model(rng, d)
        root, _ = hs.exit_up_tail(model.tail)
        assert np.max(np.abs(root.sum(axis=1) - 1.0)) <= 1e-15
        deep = hs.exit_up_seq(model, 400)[400]
        assert np.max(np.abs(root - deep)) <= 1e-14


def test_cycling_upward_tail_polish_stops_at_the_first_repeat(monkeypatch):
    """On the c=8 retrial tail the upward polish cycles in the last bit. It
    stops at the first step that returns an earlier root, short of
    POLISH_STEPS, and keeps the reduction root and its residual bit for bit,
    as running every polish step would."""
    tail = retrial_model(1.5, 0.3, 8).tail
    root, info = hs.exit_up_tail(tail)
    assert not info["fixed"] and info["polish"] < hs.branching.POLISH_STEPS
    monkeypatch.setattr(hs.branching, "POLISH_STEPS", 0)
    unpolished, plain = hs.exit_up_tail(tail)
    assert np.array_equal(root, unpolished)
    assert info["residual"] == plain["residual"]


def test_exit_down_seq_anchor_independent(retrial_c2):
    """The backward recursion forgets its anchor seed: two very different
    seeds, and branching_data's exits from the tail root, must agree at
    every retained level."""
    tol = 1e-12
    d = retrial_c2.d
    seq_a, _ = hs.exit_down_seq(retrial_c2, n_max=6, tol=tol, seed=np.zeros((d, d)))
    seq_b, _ = hs.exit_down_seq(
        retrial_c2, n_max=6, tol=tol, seed=np.full((d, d), 1.0 / d)
    )
    data = hs.branching_data(retrial_c2, tol=tol)
    for n, (a, b) in enumerate(zip(seq_a[1:], seq_b[1:]), 1):
        assert np.max(np.abs(a - b)) <= 10 * tol
        assert np.max(np.abs(a - data.exit_down_at(n))) <= 10 * tol


def test_exit_down_seq_anchor_independent_random():
    rng = np.random.default_rng(7)
    model, _ = random_pos_recurrent_model(rng, 3)
    tol = 1e-12
    seq_a, _ = hs.exit_down_seq(model, n_max=5, tol=tol, seed=np.zeros((3, 3)))
    seq_b, _ = hs.exit_down_seq(model, n_max=5, tol=tol, seed=np.eye(3))
    data = hs.branching_data(model, tol=tol)
    for n, (a, b) in enumerate(zip(seq_a[1:], seq_b[1:]), 1):
        assert np.max(np.abs(a - b)) <= 10 * tol
        assert np.max(np.abs(a - data.exit_down_at(n))) <= 10 * tol


def test_exit_down_seq_from_a_far_anchor_is_bit_for_bit():
    """A caller's seed on a slowly mixing chain doubles its anchor past
    2048 levels. The tail levels above depth, stepped in runs of 1024, give
    every returned exit bit for bit as one checked step per level does."""
    model, seed = scalar_chain(0.49, 0.51), np.zeros((1, 1))
    exits, info = hs.exit_down_seq(model, n_max=3, seed=seed)
    assert info["anchor"] - 1 - 3 > 1024  # more than one run above depth 3
    want = {n: z for n, _, _, z in _down_steps(model, seed, range(info["anchor"] - 1, 0, -1))
            if n <= 3}
    assert all(np.array_equal(exits[n], want[n]) for n in (1, 2, 3))


def _count_lapack_inverses(monkeypatch):
    """A list that gains one entry per LAPACK inverse formed from now on:
    one per call of the package's one binding to it, ``linalg._INV``."""
    calls = []
    inv = hs.linalg._INV
    monkeypatch.setattr(hs.linalg, "_INV", lambda a, **kw: calls.append(a) or inv(a, **kw))
    return calls


def test_branching_data_forms_one_factor_per_level_and_direction(retrial_c1, monkeypatch):
    """branching_data inverts one passage factor per prefix level and one for
    the tail, besides the tail solve's own inverses (one per reduction sweep
    plus its start, one per polish step), whether or not the tail root is
    polished to a fixed point."""
    calls = _count_lapack_inverses(monkeypatch)
    models = (retrial_c1, retrial_model(0.2, 0.5, 1, theta="0.3+0.3/n"))
    for polish_steps in (8, 0):
        monkeypatch.setattr(hs.branching, "POLISH_STEPS", polish_steps)
        for model in models:
            calls.clear()
            tail = hs.branching_data(model).meta["tail"]
            assert tail["polish"] <= polish_steps
            solve = 1 + tail["sweeps"] + tail["polish"]
            assert len(calls) == model.n_prefix + 1 + solve


def _level_by_level(model):
    """{level: (exit, factor, offspring, sojourn)} of branching_data formed
    one checked level step at a time, the tail level's factor stepped from
    the tail root."""
    tail_exit, _ = hs.exit_down_tail(model.tail)
    depth = model.n_prefix + 1
    (_, t, factor, _), = _down_steps(model, tail_exit, [depth])
    steps = itertools.chain([(depth, t, factor, tail_exit)],
                            _down_steps(model, tail_exit, range(depth - 1, 0, -1)))
    return {n: (z, factor, factor @ t.up, factor @ np.ones(model.d))
            for n, t, factor, z in steps}


def test_branching_data_stacked_pass_is_bit_for_bit():
    """The backward pass checked as one stack gives every level's exit,
    fundamental, offspring and sojourn matrices bit for bit as one checked
    step per level does: on the 512-level prefix, on c=32 retrial with a
    cycling tail root, and on random prefix models up to d = 33."""
    models = stacked_pass_models()
    for model in models:
        data = hs.branching_data(model)
        want = _level_by_level(model)
        assert sorted(want) == list(range(1, data.depth + 1))
        for n, (z, factor, offspring, sojourn) in want.items():
            assert np.array_equal(data.exit_down_at(n), z), n
            assert np.array_equal(data.fundamental_down_at(n), factor), n
            assert np.array_equal(data.offspring_down_at(n), offspring), n
            assert np.array_equal(data.sojourn_down_at(n), sojourn), n
    assert not hs.branching_data(models[1]).meta["tail"]["fixed"]


def _float_chain(data, weight, start):
    """The float weight chain w A_start ... A_{j-1}, levels j = start..k,
    stepped one vector product per level: the reference for the weights a
    series returns."""
    chain = [np.asarray(weight, dtype=float)]
    for a in data.offspring[start - 1:max(start, data.depth) - 1]:
        chain.append(chain[-1].dot(a))
    return np.array(chain)


def _float_reach(model, data):
    """The highest level whose float expected entries 1 P0 A_1 ... A_{n-1}
    are not all 0, stepped one vector product per level, and whether the
    float walk vanished before the first tail level."""
    reach = _float_chain(data, np.ones(model.d) @ model.p0, 1)
    if reach[-1].any():
        return data.depth, False
    return int(np.count_nonzero(np.any(reach, axis=1))), True


def test_series_weights_and_top_reached_match_the_float_chain():
    """A series returns its weight chain bit for bit as stepping it one level
    at a time gives it, and return_time_bound passes it on; top_reached,
    taken from the offspring support, equals the float walk's level on
    every model where that walk does not vanish, and behind a prefix wall,
    where it vanishes exactly."""
    cases = [(model, False) for model in stacked_pass_models()]
    for model, behind_wall in cases + [(model, True) for model in walled_prefix_models()]:
        data = hs.branching_data(model)
        weight = np.ones(model.d) @ model.p0
        want = _float_chain(data, weight, 1)
        assert np.array_equal(hs.series_down_weighted(data, weight).weights, want)
        assert np.array_equal(hs.return_time_bound(data).weights, want)
        for start in (2, data.depth // 2 + 1, data.depth + 3):
            got = hs.series_down_weighted(data, weight, start=start).weights
            assert np.array_equal(got, _float_chain(data, weight, start)), start
        assert _float_reach(model, data) == (data.top_reached, behind_wall)


def test_an_underflowing_prefix_keeps_the_tail_in_reach():
    """The float expected entries of a long prefix underflow to 0 while its
    tail, drifting up, stays in reach: the walk is transient, with an
    infinite return-time series. Behind a prefix wall, where the support
    is empty too, the series ends in the prefix and the walk is positive
    recurrent with return time 2."""
    for model in underflow_prefix_models():
        data = hs.branching_data(model)
        assert _float_reach(model, data) == (163, True)
        assert data.top_reached == data.depth and data.tail_reachable
        c = hs.classify(data)
        assert c.verdict == hs.TRANSIENT
        assert c.details["tail_reachable"] is True
        bound = hs.return_time_bound(data)
        assert (bound.status, bound.value) == ("infinite", math.inf)
        assert c.return_bound == math.inf
    for model in walled_prefix_models():
        data = hs.branching_data(model)
        sv = hs.series_down_weighted(data, np.ones(model.d) @ model.p0)
        assert (sv.status, sv.note) == ("finite", "weights vanished in the prefix")
        assert hs.classify(data).verdict == hs.POSITIVE_RECURRENT
        assert hs.expected_return_time(data, np.full(model.d, 1.0 / model.d)) == 2.0


@pytest.mark.parametrize("model, message", [(m, msg) for _, m, msg in refused_level_models()],
                         ids=[name for name, _, _ in refused_level_models()])
def test_branching_data_raises_the_first_refusal_in_pass_order(model, message):
    """The whole pass is checked at once, yet the error is the one a check
    after each level would raise first, from the tail down."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(hs.SingularMatrixError) as exc:
            hs.branching_data(model)
    assert str(exc.value) == message


@pytest.mark.parametrize("model, message", [
    (retrial_model(0.2, 0.5, 1, theta="0.3+0.3/n"), None),
    *[(m, msg) for _, m, msg in refused_level_models()]],
    ids=["prefix512", *[name for name, _, _ in refused_level_models()]])
def test_branching_data_leaves_the_error_state_as_it_found_it(model, message):
    """The pass enters numpy's error state for LAPACK inverses once; on a
    completed pass and on each refusal, the LAPACK-singular one included,
    numpy's error state and callback are as before the call, and no
    warning was raised."""
    before = np.geterr(), np.geterrcall()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if message is None:
            hs.branching_data(model)
        else:
            with pytest.raises(hs.SingularMatrixError, match=re.escape(message)):
                hs.branching_data(model)
    assert (np.geterr(), np.geterrcall()) == before


def test_exit_up_seq_steps_only_the_levels_it_returns(retrial_c1, monkeypatch):
    """Levels 0..n cost the boundary exit and n level steps: behind a prefix
    wall, whose level 1 step is refused, level 0 alone is the boundary exit.
    A refused boundary exit is level 0's, so its index is -1."""
    wall = walled_prefix_models()[0]
    assert np.array_equal(hs.exit_up_seq(wall, 0)[0], hs.boundary_exit_up(wall))
    assert len(hs.exit_up_seq(wall, 0)) == 1
    for n in (0, 3):
        with pytest.raises(hs.SingularMatrixError) as exc:
            hs.exit_up_seq(absorbing_boundary_model(), n)
        assert exc.value.index == -1
    calls = _count_lapack_inverses(monkeypatch)
    for n in (0, 1, 5):
        calls.clear()
        assert len(hs.exit_up_seq(retrial_c1, n)) == n + 1
        assert len(calls) == n + 1


@pytest.mark.parametrize("call", [0, 1, 2, 5])
def test_pass_checks_a_factor_before_its_products_refusal(retrial_c1, monkeypatch, call):
    """When a product with a finished passage factor sets the invalid flag
    (an overflowed factor meets a zero), that factor is checked before the
    error state's refusal raises, so its level is refused by its condition
    number, as a one-step check would refuse it."""
    overflow_inverse(monkeypatch, call)
    with pytest.raises(hs.SingularMatrixError) as info:
        hs.exit_up_seq(retrial_c1, 6)
    assert info.value.index == call - 1
    assert str(info.value).startswith("1-norm condition number inf")


def test_branching_data_forms_the_tail_drift_once(retrial_c1, d1_transient, monkeypatch):
    """branching_data forms the tail's drift pair once, in the downward
    tail solve, and reads it from that solve's info, whichever shift the
    drift sign picks."""
    calls = []
    tail_drift = hs.branching.tail_drift
    monkeypatch.setattr(hs.branching, "tail_drift",
                        lambda t: calls.append(t) or tail_drift(t))
    models = (retrial_c1, retrial_model(0.2, 0.5, 1, theta="0.3+0.3/n"), d1_transient)
    for model in models:
        calls.clear()
        hs.branching_data(model)
        assert len(calls) == 1
    assert hs.branching_data(d1_transient).meta["tail"]["shift"] == "drift-up"


def test_expected_visits_ascent_forms_each_upward_factor_once(retrial_c1, monkeypatch):
    """Visits below layer k reuse the upward passage factors that stepping
    the exits formed: one inverse for the boundary exit, one per level and
    one for the boundary dwell."""
    calls = _count_lapack_inverses(monkeypatch)
    for k in (3, 10):
        calls.clear()
        hs.expected_visits_ascent(retrial_c1, k, np.array([0.5, 0.5]), 0)
        assert len(calls) == k + 2


def test_cycling_tail_root_keeps_the_shortcut():
    """The c=32 retrial tail root ends in a cycle of bit-level different
    roots, not a fixed point. Tail levels are still served from the root,
    within rounding of stepping every level from it."""
    model = retrial_model(6.0, 0.3, 32)
    depth = 200
    data = hs.branching_data(model)
    assert not data.meta["tail"]["fixed"]
    assert data.depth == model.n_prefix + 1
    for n, _, _, z in _down_steps(model, data.exit_down_at(data.depth), range(depth, 0, -1)):
        assert np.max(np.abs(data.exit_down_at(n) - z)) <= 1e-15, n


def test_stored_downward_exits_are_stochastic_to_rounding(retrial_c1):
    """The tail root is polished to a floating-point fixed point, so the
    stored downward exits of positive-recurrent models are stochastic to
    within a few ulps at every level, not to the solver's stopping error."""
    for model in (retrial_c1, retrial_model(1.5, 0.3, 8)):
        data = hs.branching_data(model)
        assert data.meta["tail"]["fixed"]
        assert 1 <= data.meta["tail"]["polish"] <= hs.branching.POLISH_STEPS
        for n in range(1, 31):
            sums = data.exit_down_at(n).sum(axis=1)
            assert np.max(np.abs(sums - 1.0)) <= 1e-13, n


def _random_transient_model(rng, d, n_prefix=2):
    """Random prefix+tail model whose blocks drift up (all entries positive)."""
    alphas = np.concatenate([np.full(d, 0.7), np.full(d, 1.0), np.full(d, 3.0)])

    def triple():
        rows = rng.dirichlet(alphas, size=d)
        return hs.BlockTriple(down=rows[:, :d], stay=rows[:, d:2 * d], up=rows[:, 2 * d:])

    boundary = rng.dirichlet(np.full(2 * d, 1.0), size=d)
    return hs.QbdModel(d=d, r0=boundary[:, :d], p0=boundary[:, d:],
                       prefix=tuple(triple() for _ in range(n_prefix)), tail=triple())


def test_branching_data_past_fixed_point_equals_per_level_stepping(retrial_c2):
    """Entries served from the first tail level are bit for bit the ones
    stepping every level from the same tail root gives."""
    rng = np.random.default_rng(31)
    models = [retrial_c2, random_pos_recurrent_model(rng, 3)[0],
              _random_transient_model(rng, 3)]
    for model in models:
        depth = 60
        data = hs.branching_data(model)
        assert data.depth == model.n_prefix + 1
        ones = np.ones(model.d)
        steps = _down_steps(model, data.exit_down_at(data.depth), range(depth, 0, -1))
        for n, t, factor, z in steps:
            assert np.array_equal(data.exit_down_at(n), z)
            assert np.array_equal(data.fundamental_down_at(n), factor)
            assert np.array_equal(data.offspring_down_at(n), factor @ t.up)
            assert np.array_equal(data.sojourn_down_at(n), factor @ ones)


def test_boundary_visits_closed_form_matches_term_by_term():
    """On a tail drifting up the visit count is mu (I - B G_1)^{-1} 1 in
    closed form; it equals the series summed term by term over 3000 upward
    levels, term k being mu_k A^+_k ... A^+_1 1."""
    rng = np.random.default_rng(17)
    for d in (2, 3, 4, 2, 3, 4):
        model = _random_transient_model(rng, d)
        mu = np.full(d, 1.0 / d)
        bv = hs.expected_boundary_visits(hs.branching_data(model), mu=mu)
        assert bv.status == "convergent"
        assert bv.note == "levels from 1 summed in closed form"
        assert len(bv.terms) == len(bv.partial_sums) == 2
        assert bv.partial_sums[-1] == bv.value
        m, w, total = mu, np.ones(d), 1.0
        for k, z_prev in enumerate(hs.exit_up_seq(model, 2999), 1):
            t = model.block_at(k)
            m = m @ z_prev
            w = hs.invert(np.eye(d) - t.down @ z_prev - t.stay) @ t.down @ w
            term = float(m @ w)
            total += term
        assert bv.terms[0] == 1.0
        assert term < 1e-17
        assert abs(bv.value - total) <= 1e-12 * bv.value


def test_boundary_visits_closed_form_matches_retrial_value():
    """Single-server retrial: the visit count is 1 + 1/(r_c - 1)."""
    mu, theta = 0.5, 0.3
    for excess in (0.2, 1e-2, 1e-3):
        lam = (-theta + np.sqrt(theta * theta + 4 * (1 + excess) * mu * theta)) / 2
        r_c = lam * (lam + theta) / (mu * theta)
        bv = hs.expected_boundary_visits(hs.branching_data(retrial_model(lam, mu, 1)))
        assert bv.status == "convergent"
        assert "closed form" in bv.note
        want = 1.0 + 1.0 / (r_c - 1.0)
        assert abs(bv.value - want) <= 1e-10 * want


def test_tail_drift_sign(d1_pos, d1_null, d1_transient):
    """Mean level drift of the tail: up minus down probability for d=1."""
    for model, value, sign in ((d1_pos, -0.4, -1), (d1_null, 0.0, 0),
                               (d1_transient, 0.4, 1)):
        drift = hs.branching.tail_drift(model.tail)
        assert drift[0] == pytest.approx(value, abs=1e-15)
        assert 0.0 < drift[1] < 1e-13
        assert hs.branching.drift_sign(drift) == sign


def test_exact_drift_sign_agrees_with_certified_float_sign():
    """On seeded random tails, sparse ones included, the exact sign equals
    the float sign wherever the float drift clears its bound, reads 0 when
    U = D, and None when the phase chain is the identity."""
    rng = np.random.default_rng(11)
    checked = zeros = 0
    for _ in range(200):
        d = int(rng.integers(1, 7))
        blocks = rng.random((3, d, d)) * (rng.random((3, d, d)) < 0.6)
        blocks[1] += np.eye(d) * 1e-3
        blocks /= blocks.sum(axis=(0, 2))[None, :, None]
        tail = hs.BlockTriple(up=blocks[0], stay=blocks[1], down=blocks[2])
        sign = hs.branching.drift_sign(hs.branching.tail_drift(tail))
        if sign and hs.branching.tail_drift(tail)[0] is not None:
            assert hs.branching.exact_drift_sign(tail) == sign
            checked += 1
        half = (blocks[0] + blocks[2]) / 2
        level = hs.BlockTriple(up=half, stay=blocks[1], down=half)
        if np.isfinite(hs.branching.tail_drift(level)[1]):
            assert hs.branching.exact_drift_sign(level) == 0
            zeros += 1
    assert checked > 100 and zeros > 100
    eye, zero = np.eye(3), np.zeros((3, 3))
    assert hs.branching.exact_drift_sign(hs.BlockTriple(up=0.3 * eye, stay=zero,
                                                        down=0.7 * eye)) is None


def test_branching_accessors_past_depth(d1_pos):
    """Only the prefix and the first tail level are stored, once, as stacks;
    every deeper level is served as a view of the first tail level's entry."""
    for model in (d1_pos, retrial_model(0.2, 0.5, 1, theta="0.3+0.3/n")):
        data = hs.branching_data(model)
        assert data.depth == model.n_prefix + 1 == len(data.exit_down)
        for name, stack in (("exit_down", "exit_down"), ("offspring_down", "offspring"),
                            ("fundamental_down", "fundamental"), ("sojourn_down", "sojourn")):
            at, entry = getattr(data, f"{name}_at"), getattr(data, stack)[data.depth - 1]
            for n in (data.depth, data.depth + 1, data.depth + 200):
                assert np.shares_memory(at(n), entry) and np.array_equal(at(n), entry)


def test_offspring_pmf_normalization_and_mean(retrial_c1):
    """pmf sums to 1 and its mean reproduces the offspring matrix row sum."""
    data = hs.branching_data(retrial_c1)
    horizon = 2000
    for n, phase in [(1, 0), (1, 1), (3, 1)]:
        up_probs = hs.offspring_pmf(data, n, phase, horizon, "down")
        assert abs(sum(up_probs) - 1.0) <= 1e-8
        mean = sum(c * p for c, p in enumerate(up_probs))
        want = float(data.offspring_down_at(n).sum(axis=1)[phase])
        assert abs(mean - want) <= 1e-6
    for n, phase in [(1, 0), (2, 1), (4, 0)]:
        down_probs = hs.offspring_pmf(data, n, phase, horizon, "up")
        assert abs(sum(down_probs) - 1.0) <= 1e-8
        mean = sum(c * p for c, p in enumerate(down_probs))
        want = float(_offspring_up(retrial_c1, n).sum(axis=1)[phase])
        assert abs(mean - want) <= 1e-6


def test_offspring_pmf_bounds_checked(d1_pos):
    data = hs.branching_data(d1_pos)
    with pytest.raises(ValueError):
        hs.offspring_pmf(data, 0, 0, 1, "up")
    with pytest.raises(ValueError):
        hs.offspring_pmf(data, 0, 0, 1, "down")
    # any level serves "up": level 99 returns a down-step through exit_up_seq
    t = d1_pos.block_at(99)
    base = np.linalg.inv(np.eye(1) - t.stay)
    kernel = base @ t.down @ hs.exit_up_seq(d1_pos, 98)[98]
    leave = base @ t.up @ np.ones(1)
    want = [(np.linalg.matrix_power(kernel, c) @ leave)[0] for c in range(6)]
    got = hs.offspring_pmf(data, 99, 0, 6, "up")
    assert np.allclose(got, want, rtol=1e-14, atol=0.0)
    with pytest.raises(ValueError):
        hs.offspring_pmf(data, 1, 5, 1, "down")
    with pytest.raises(ValueError):
        hs.offspring_pmf(data, 1, 0, 1, "sideways")


def test_expected_visits_ascent_scalar_closed_form(d1_pos):
    # from layer 2 before reaching 3: sojourn 10/3 per layer, factor 7/3 down
    mu = np.array([1.0])
    assert np.allclose(hs.expected_visits_ascent(d1_pos, 2, mu, 2), [10.0 / 3.0])
    assert np.allclose(hs.expected_visits_ascent(d1_pos, 2, mu, 1), [70.0 / 9.0])
    assert np.allclose(hs.expected_visits_ascent(d1_pos, 2, mu, 0), [49.0 / 9.0])


def test_expected_visits_descent_scalar_closed_form(d1_pos):
    data = hs.branching_data(d1_pos)
    mu = np.array([1.0])
    for n in (2, 3, 4):
        want = (3.0 / 7.0) ** (n - 1) * (10.0 / 7.0)
        assert np.allclose(
            hs.expected_visits_descent(data, 1, mu, n), [want]
        )


def test_expected_visits_against_dense_solve(retrial_c1):
    data = hs.branching_data(retrial_c1)
    mu = np.array([0.25, 0.75])
    for n in (0, 1, 2, 3):
        got = hs.expected_visits_ascent(retrial_c1, 3, mu, n)
        want = _dense_visits(retrial_c1, 0, 3, 3, mu, n)
        assert np.max(np.abs(got - want)) < 1e-10
    # descending: absorb below at layer 1, truncate far above
    for n in (3, 4, 5):
        got = hs.expected_visits_descent(data, 2, mu, n)
        want = _dense_visits(retrial_c1, 2, 60, 2, mu, n)
        assert np.max(np.abs(got - want)) < 1e-9


def test_expected_visits_against_dense_solve_random():
    rng = np.random.default_rng(13)
    model, data = random_pos_recurrent_model(rng, 3)
    mu = np.array([0.2, 0.3, 0.5])
    for n in (0, 2, 4):
        got = hs.expected_visits_ascent(model, 4, mu, n)
        want = _dense_visits(model, 0, 4, 4, mu, n)
        assert np.max(np.abs(got - want)) < 1e-9
    got = hs.expected_visits_descent(data, 1, mu, 2)
    want = _dense_visits(model, 1, 80, 1, mu, 2)
    assert np.max(np.abs(got - want)) < 1e-9


def test_series_down_weighted_scalar_value(d1_pos):
    data = hs.branching_data(d1_pos)
    sv = hs.series_down_weighted(data, np.array([1.0]))
    assert sv.status == "finite"
    assert sv.finite
    assert abs(sv.value - 2.5) < 1e-10


def test_series_down_weighted_divergent_on_null(d1_null):
    data = hs.branching_data(d1_null)
    sv = hs.series_down_weighted(data, np.array([1.0]))
    assert sv.status == "infinite"
    assert not sv.finite


def test_series_down_weighted_zero_weight(d1_null):
    # zero weight kills every term regardless of the tail radius
    data = hs.branching_data(d1_null)
    sv = hs.series_down_weighted(data, np.array([0.0]))
    assert sv.finite
    assert sv.value == pytest.approx(0.0, abs=1e-15)


def _series_level_by_level(model, data, w, start):
    """The prefix part of series_down_weighted one level at a time: (sum,
    weight past the prefix)."""
    total, k = 0.0, start
    while k <= model.n_prefix:
        total += float(w @ data.sojourn_down_at(k))
        w = w @ data.offspring_down_at(k)
        k += 1
    return total, w


def test_series_over_the_stacks_is_bit_for_bit():
    """The series reads the stacked offspring and sojourn arrays and forms
    its terms in one stacked product, yet sums and weights equal a
    level-by-level loop bit for bit, from every start; a start below level
    1 is refused."""
    rng = np.random.default_rng(21)
    models = [retrial_model(0.2, 0.5, 1, theta="0.3+0.3/n")]
    models += [random_pos_recurrent_model(rng, d, n_prefix=n)[0]
               for d, n in [(1, 9), (3, 5), (9, 4), (33, 6)]]
    for model in models:
        data = hs.branching_data(model)
        w = rng.random(model.d)
        for start in (1, 2, model.n_prefix, model.n_prefix + 1, model.n_prefix + 5):
            total, rest = _series_level_by_level(model, data, w, max(start, 1))
            k = max(start, model.n_prefix + 1)
            tail = float(rest @ hs.invert(np.eye(model.d) - data.offspring_down_at(k))
                         @ data.sojourn_down_at(k))
            assert hs.series_down_weighted(data, w, start=max(start, 1)).value == total + tail
        with pytest.raises(ValueError):
            hs.series_down_weighted(data, w, start=0)

def test_boundary_visits_transient_value(d1_transient):
    bv = hs.expected_boundary_visits(hs.branching_data(d1_transient))
    assert bv.status == "convergent"
    assert abs(bv.value - 1.75) < 1e-10


def test_boundary_visits_divergent_on_recurrent(d1_pos, d1_null):
    for model in (d1_pos, d1_null):
        bv = hs.expected_boundary_visits(hs.branching_data(model))
        assert bv.status == "divergent"
        assert bv.value == np.inf


def _radius_up_by_upward_solve(tail):
    """Spectral radius of the upward tail offspring matrix F D from the
    upward root: one upward level pass from ``exit_up_tail``'s root."""
    factors, _ = hs.branching._pass(tail.down[None], tail.up[None], tail.stay[None],
                                    hs.exit_up_tail(tail)[0], up=True)
    return hs.spectral_radius(factors[0] @ tail.down)


def _retrial_c1_above_critical(excess, mu=0.5, theta=0.3):
    """Retrial c=1 at r_c - 1 = excess, r_c = lambda (lambda + theta) / (mu theta),
    and its r_c."""
    lam = (-theta + math.sqrt(theta * theta + 4 * (1 + excess) * mu * theta)) / 2
    return retrial_model(lam, mu, 1, theta=repr(theta)), lam * (lam + theta) / (mu * theta)


def _mirrored(model):
    """The model with its tail's up and down blocks swapped, and no prefix."""
    t = model.tail
    return hs.QbdModel(d=model.d, r0=model.r0, p0=model.p0, prefix=(),
                       tail=hs.BlockTriple(up=t.down, down=t.up, stay=t.stay))


def test_tail_up_radius(d1_transient, d1_null, d1_pos):
    """classify's tail_radius_up, rho of the downward tail root, equals the
    upward offspring radius that an upward tail solve gives, on transient
    tails near and far from critical (d = 1 to 17) and on the null tail;
    on a positive-recurrent tail the upward solve gives 7/3, not rho(G)."""
    rng = np.random.default_rng(26)
    models = [_retrial_c1_above_critical(excess)[0] for excess in (1e-2, 1e-3)]
    models += [retrial_model(4.0, 0.3, 8), retrial_model(9.0, 0.3, 16)]
    models += [_mirrored(random_pos_recurrent_model(rng, d)[0]) for d in range(2, 10)]
    for model in models:
        c = hs.classify(hs.branching_data(model))
        assert c.verdict == hs.TRANSIENT
        assert abs(c.tail_radius_up - _radius_up_by_upward_solve(model.tail)) <= 1e-14
    for model, want, verdict in ((d1_transient, 3.0 / 7.0, hs.TRANSIENT),
                                 (d1_null, 1.0, hs.NULL_RECURRENT)):
        c = hs.classify(hs.branching_data(model))
        assert c.verdict == verdict
        assert abs(c.tail_radius_up - _radius_up_by_upward_solve(model.tail)) <= 1e-14
        assert abs(c.tail_radius_up - want) <= 1e-14
    assert abs(_radius_up_by_upward_solve(d1_pos.tail) - 7.0 / 3.0) < 1e-9


@pytest.mark.parametrize("excess", [1e-11, 1e-7, 1e-3, 1e-2, 0.5, 2.0])
def test_tail_up_radius_is_one_over_rc_on_transient_retrial(excess):
    """On a transient single-server retrial tail the positive real roots of
    det(D + (S - I)z + U z^2) are 1 and 1/r_c, so tail_radius_up is 1/r_c."""
    model, r_c = _retrial_c1_above_critical(excess)
    c = hs.classify(hs.branching_data(model))
    assert c.verdict == hs.TRANSIENT
    assert abs(c.tail_radius_up - 1.0 / r_c) <= 1e-14


def test_term_ratio_approaches_radius():
    """Successive descending-series terms contract at the offspring radius."""
    rng = np.random.default_rng(99)
    model, data = random_pos_recurrent_model(rng, 2)
    a = data.offspring_down_at(data.depth)
    u = data.sojourn_down_at(data.depth)
    w = np.full(2, 0.5)
    t200 = w @ np.linalg.matrix_power(a, 200) @ u
    t201 = w @ np.linalg.matrix_power(a, 201) @ u
    assert abs(t201 / t200 - data.radius_down) < 1e-4


def _two_pass_exit_up_seq(model, n_max):
    """Reference: the upward exits as the boundary's own one-level pass,
    then a second pass over levels 1..n_max from its exit, with levels 1..
    read as a stack of their own; the form ``exit_up_seq`` had before level
    0 joined the level stacks."""
    up, down, stay = model.up[1:], model.down[1:], model.stay[1:]  # level n at index n - 1
    zero = np.zeros((1, model.d, model.d))
    try:
        z = hs.branching._pass(zero, model.p0[None], model.r0[None], zero[0], up=True)[1][0]
    except hs.SingularMatrixError as exc:
        exc.index = -1
        raise
    levels = np.minimum(np.arange(n_max), model.n_prefix)
    return [z, *hs.branching._pass(down[levels], up[levels], stay[levels], z, up=True)[1]]


def _exits_or_refusal(seq, model, n_max):
    try:
        return [z.tobytes() for z in seq(model, n_max)]
    except hs.SingularMatrixError as exc:
        return str(exc), exc.index


def test_exit_up_seq_matches_the_two_pass_reference():
    """One upward pass from level 0 returns the two-pass reference's exits
    bit for bit, and refuses where it refuses, with the same message and
    index, on the refused-level (both prefix orders), walled-prefix,
    absorbing-boundary and random models; the boundary exit is its first."""
    refusals = set()
    for model in layout_models():
        for n_max in sorted({0, 1, 2, model.n_prefix, model.n_prefix + 1, model.n_prefix + 3}):
            want = _exits_or_refusal(_two_pass_exit_up_seq, model, n_max)
            assert _exits_or_refusal(hs.exit_up_seq, model, n_max) == want
            if isinstance(want, tuple):
                refusals.add(want[1])
            else:
                assert hs.boundary_exit_up(model).tobytes() == want[0]
    assert {-1, 0, 1} <= refusals
