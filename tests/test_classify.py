import math

import numpy as np
import pytest

import halfstrip as hs

from conftest import (null_behind_prefix_model, random_pos_recurrent_model,
                      reducible_tail_models, scalar_chain, walled_prefix_models)


def _dense_return_time(model, cutoff, n, mu):
    """Expected first return time to layer n from (n, mu) on a dense
    truncation: one step, then the expected absorption time into layer n
    (made absorbing) from wherever that step landed. The top level's up
    block folds into its stay block so no probability leaks."""
    d = model.d
    size = (cutoff + 1) * d

    def idx(k):
        return k * d

    t = np.zeros((size, size))
    for k in range(cutoff + 1):
        i = idx(k)
        if k == n:
            continue  # absorbing target layer
        if k == 0:
            t[i : i + d, i : i + d] += model.r0
            t[i : i + d, idx(1) : idx(1) + d] += model.p0
            continue
        blk = model.block_at(k)
        stay = blk.stay if k < cutoff else blk.stay + blk.up
        t[i : i + d, i : i + d] += stay
        t[i : i + d, idx(k - 1) : idx(k - 1) + d] += blk.down
        if k < cutoff:
            t[i : i + d, idx(k + 1) : idx(k + 1) + d] += blk.up
    ones = np.ones(size)
    ones[idx(n) : idx(n) + d] = 0.0
    tau = np.linalg.solve(np.eye(size) - t, ones)
    blk = model.block_at(n)
    out = 1.0
    out += float((mu @ blk.up) @ tau[idx(n + 1) : idx(n + 1) + d])
    if n >= 1:
        out += float((mu @ blk.down) @ tau[idx(n - 1) : idx(n - 1) + d])
    return out


def test_return_time_bound_scalar(d1_pos):
    rb = hs.return_time_bound(hs.branching_data(d1_pos))
    assert rb.finite
    assert abs(rb.value - 3.5) < 1e-8


def test_classify_positive_recurrent(d1_pos, retrial_c1):
    for model in (d1_pos, retrial_c1):
        c = hs.classify(hs.branching_data(model))
        assert c.verdict == hs.POSITIVE_RECURRENT
        assert c.certificate == "return-time-series-finite"
        assert np.isfinite(c.return_bound)
        assert c.tail_radius_down < 1.0


def test_classify_null_recurrent(d1_null):
    c = hs.classify(hs.branching_data(d1_null))
    assert c.verdict == hs.NULL_RECURRENT
    assert c.certificate == "visits-divergent-return-time-infinite"
    assert c.return_bound == np.inf
    assert c.boundary_visits == np.inf
    assert abs(c.tail_radius_up - 1.0) < 1e-6
    assert abs(c.tail_radius_down - 1.0) < 1e-6


def test_classify_transient(d1_transient):
    c = hs.classify(hs.branching_data(d1_transient))
    assert c.verdict == hs.TRANSIENT
    assert c.certificate == "boundary-visits-finite"
    assert abs(c.boundary_visits - 1.75) < 1e-10
    assert c.tail_radius_up < 1.0


def test_classify_inconclusive_when_no_certificate_applies():
    """A tail phase chain with no unique stationary vector has no drift
    sign, so no verdict is certified, whatever the blocks' own drifts
    (-0.4 in both phases; 0 and -0.4) would suggest."""
    for m in reducible_tail_models():
        c = hs.classify(hs.branching_data(m))
        assert c.verdict == hs.INCONCLUSIVE
        assert c.certificate == "no-certificate"
        assert c.details["exact_sign"]
        assert c.details["visit_status"] == c.details["return_status"] == "inconclusive"
        assert c.tail_radius_up is None


def test_classify_null_recurrent_behind_drift_down_prefix():
    """Forty drift-down prefix levels over a tail with exact drift 0: the
    tail's sign decides, so the walk is null recurrent."""
    c = hs.classify(hs.branching_data(null_behind_prefix_model()))
    assert c.verdict == hs.NULL_RECURRENT
    assert c.certificate == "visits-divergent-return-time-infinite"
    assert c.return_bound == c.boundary_visits == math.inf
    assert c.details["exact_sign"]


def test_classify_positive_recurrent_behind_a_prefix_wall():
    """A prefix level with a zero up block keeps the walk off the tail, so
    the tail's drift sign (+1, 0, none) does not apply: each walk lives on
    layers 0 and 1 and is positive recurrent, with a finite stationary
    distribution and a divergent boundary-visit series."""
    for model, tail_sign in zip(walled_prefix_models(), (1, 0, None)):
        data = hs.branching_data(model)
        assert data.drift_sign == tail_sign
        assert not data.tail_reachable
        c = hs.classify(data)
        assert c.verdict == hs.POSITIVE_RECURRENT
        assert c.certificate == "return-time-series-finite"
        assert c.return_bound == 2.0 * model.d
        assert c.details["tail_reachable"] is False
        assert hs.expected_return_time(data, np.full(model.d, 1.0 / model.d)) == 2.0
        assert hs.expected_boundary_visits(data).status == "divergent"
        result = hs.stationary_dist(data)
        assert result.normalizer == 2.0
        assert np.allclose(result.nu[:2].sum(axis=1), 0.5, atol=1e-15)
        assert not result.nu[2:].any()


@pytest.mark.parametrize("mu", [[math.nan, 1.0], [1.0, math.nan], [math.inf, 0.0]])
def test_non_finite_phase_distribution_is_refused(retrial_c1, mu):
    data = hs.branching_data(retrial_c1)
    with pytest.raises(hs.NotStochasticError):
        hs.expected_return_time(data, np.array(mu))
    with pytest.raises(hs.NotStochasticError):
        hs.expected_boundary_visits(data, mu=np.array(mu))


def test_expected_return_time_boundary_kac(retrial_c1):
    """Reciprocal of the mean return time from the censored boundary measure
    equals the stationary mass of the boundary layer."""
    mu0 = hs.censored_measure(hs.branching_data(retrial_c1))
    ert = hs.expected_return_time(hs.branching_data(retrial_c1), mu0, 0)
    assert abs(ert - 15.0 / 7.0) < 1e-9
    nu0_mass = hs.stationary_dist(hs.branching_data(retrial_c1)).nu[0].sum()
    assert abs(1.0 / ert - nu0_mass) <= 1e-8


def test_expected_return_time_scalar_boundary(d1_pos):
    # 1 step up then mean 1/(q-p) steps back down
    ert = hs.expected_return_time(hs.branching_data(d1_pos), np.array([1.0]), 0)
    assert abs(ert - 3.5) < 1e-9


def test_expected_return_time_vs_dense_solve(retrial_c1):
    for n in (1, 2, 4):
        for mu in (np.array([1.0, 0.0]), np.array([0.25, 0.75])):
            got = hs.expected_return_time(hs.branching_data(retrial_c1), mu, n)
            want = _dense_return_time(retrial_c1, 220, n, mu)
            assert abs(got - want) < 1e-7


def test_expected_return_time_vs_dense_solve_random():
    rng = np.random.default_rng(41)
    model, _ = random_pos_recurrent_model(rng, 3)
    mu = np.array([0.5, 0.2, 0.3])
    for n in (1, 3):
        got = hs.expected_return_time(hs.branching_data(model), mu, n)
        want = _dense_return_time(model, 200, n, mu)
        assert abs(got - want) < 1e-7


def test_expected_return_time_infinite_on_null(d1_null):
    assert hs.expected_return_time(hs.branching_data(d1_null), np.array([1.0]), 0) == np.inf


def test_return_time_below_bound(retrial_c1):
    bound = hs.return_time_bound(hs.branching_data(retrial_c1)).value
    mu0 = hs.censored_measure(hs.branching_data(retrial_c1))
    assert hs.expected_return_time(hs.branching_data(retrial_c1), mu0, 0) <= bound + 1e-9


def test_expected_return_time_validates_measure(d1_pos):
    with pytest.raises(ValueError):
        hs.expected_return_time(hs.branching_data(d1_pos), np.array([-0.5]), 0)
    with pytest.raises(ValueError):
        hs.expected_return_time(hs.branching_data(d1_pos), np.array([0.5, 0.5]), 0)


def test_classify_invariant_under_phase_relabeling(retrial_c2):
    """Permuting the phase labels must not change any verdict quantity."""
    perm = np.array([2, 0, 1])
    p = np.eye(3)[perm]

    def relabel(mat):
        return p @ mat @ p.T

    m = retrial_c2
    swapped = hs.QbdModel(
        d=3,
        r0=relabel(m.r0),
        p0=relabel(m.p0),
        prefix=tuple(
            hs.BlockTriple(
                up=relabel(b.up), down=relabel(b.down), stay=relabel(b.stay)
            )
            for b in m.prefix
        ),
        tail=hs.BlockTriple(
            up=relabel(m.tail.up),
            down=relabel(m.tail.down),
            stay=relabel(m.tail.stay),
        ),
    )
    a = hs.classify(hs.branching_data(m))
    b = hs.classify(hs.branching_data(swapped))
    assert a.verdict == b.verdict
    assert abs(a.return_bound - b.return_bound) < 1e-8
    assert abs(a.tail_radius_down - b.tail_radius_down) < 1e-9


def test_classify_records_horizon_and_details(d1_null, d1_pos):
    """The library keeps no series horizon; details say whether the drift
    sign was taken exactly (d1_null's float drift is within its bound)."""
    c = hs.classify(hs.branching_data(d1_null))
    assert not hasattr(c, "horizon")
    assert c.details["exact_sign"] is True
    assert hs.classify(hs.branching_data(d1_pos)).details["exact_sign"] is False
    assert c.visit_terms is not None
    assert len(c.visit_partial_sums) == len(c.visit_terms)


def _retrial_at(lam):
    return hs.uniformize(hs.build_retrial(lam, 0.5, 1, hs.RetrySchedule.parse("0.3")))


def test_transient_just_above_critical_is_not_certified_positive_recurrent():
    """At r_c - 1 = +5.5e-7 the downward tail radius is 1, its exact value
    on a transient walk, to within rounding; the positive mean drift keeps
    the return-time series from being certified finite, and the visit
    series certifies transience with the closed form 1 + 1/(r_c - 1)."""
    mu, theta = 0.5, 0.3
    lam = (-theta + math.sqrt(theta * theta + 4 * (1 + 5.5e-7) * mu * theta)) / 2
    r_c = lam * (lam + theta) / (mu * theta)
    c = hs.classify(hs.branching_data(_retrial_at(lam)))
    assert c.verdict == hs.TRANSIENT
    assert abs(c.tail_radius_down - 1.0) <= 1e-12
    want = 1.0 + 1.0 / (r_c - 1.0)
    assert abs(c.boundary_visits - want) <= 1e-6 * want


def test_transient_classify_solves_the_tail_once(monkeypatch):
    """A transient classify solves the downward tail once, in its branching
    data; the visit series reads the drift and G_1 from it, and the verdict
    is unchanged."""
    model = _retrial_at(0.35)
    want = hs.classify(hs.branching_data(model))
    calls = []
    solve = hs.branching.exit_down_tail
    counting = lambda *args, **kw: calls.append(args) or solve(*args, **kw)
    monkeypatch.setattr(hs.branching, "exit_down_tail", counting)
    got = hs.classify(hs.branching_data(model))
    assert got.verdict == hs.TRANSIENT
    assert len(calls) == 1
    assert got == want


def test_classify_solves_no_upward_tail(monkeypatch, d1_null):
    """Neither branching_data nor classify solves an upward tail: on
    transient, null and inconclusive data, tail_radius_up is read off the
    downward root."""
    def refuse(*args, **kwargs):
        raise AssertionError("upward tail solved")

    down_only = hs.branching._tail_exit
    monkeypatch.setattr(hs.branching, "exit_up_tail", refuse)
    monkeypatch.setattr(hs.branching, "_tail_exit",
                        lambda tail, tol, up: refuse() if up else down_only(tail, tol, up))
    models = [_retrial_at(0.35), d1_null, *reducible_tail_models()]
    verdicts = [hs.classify(hs.branching_data(model)).verdict for model in models]
    assert verdicts == [hs.TRANSIENT, hs.NULL_RECURRENT, hs.INCONCLUSIVE, hs.INCONCLUSIVE]


def test_rounding_critical_point_is_not_certified_positive_recurrent():
    """The middle point of a 7-point retrial sweep lands at r_c - 1 = -2.2e-16,
    where the float drift is below its rounding bound. The exact drift of
    the stored floats is -5.0e-17, so the walk is certified positive
    recurrent; but I - A is too ill conditioned for the closed form, so its
    return-time value is NaN and no stationary distribution or decay rate
    is certified."""
    mu, theta = 0.5, 0.3
    lam_crit = (-theta + math.sqrt(theta * theta + 4 * mu * theta)) / 2.0
    lo, hi = 0.5 * lam_crit, 1.5 * lam_crit
    lam = lo + (hi - lo) * 3 / 6
    assert abs(lam * (lam + theta) / (mu * theta) - 1.0) < 1e-15
    model = _retrial_at(lam)
    c = hs.classify(hs.branching_data(model))
    assert c.verdict == hs.POSITIVE_RECURRENT
    assert c.details["exact_sign"]
    assert math.isnan(c.return_bound)
    assert "condition number" in c.details["return_series_note"]
    with pytest.raises(hs.NotPositiveRecurrentError, match="condition number"):
        hs.stationary_dist(hs.branching_data(model))
    with pytest.raises(hs.NotPositiveRecurrentError, match="condition number"):
        hs.decay_rate(hs.branching_data(model))


@pytest.mark.xfail(strict=True, raises=hs.NoConvergenceError,
                   reason="the rank-one shift moves only the unit root at z = 1")
def test_null_swap_tail_with_a_second_unit_circle_root():
    """Tail U = D = 0.4 swap, S = 0.2 I (d = 2) has zero drift exactly, but
    det(D + (S - I) z + U z^2) has a double root at z = -1 as well as at 1.
    The downward tail root solve stops with a residual of about 3.6e-9
    instead of returning G, so no verdict is given."""
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    model = hs.QbdModel(d=2, r0=np.zeros((2, 2)), p0=swap,
                        tail=hs.BlockTriple(up=0.4 * swap, down=0.4 * swap,
                                            stay=0.2 * np.eye(2)))
    data = hs.branching_data(model)
    assert data.drift_sign == 0
    assert hs.classify(data).verdict == hs.NULL_RECURRENT
