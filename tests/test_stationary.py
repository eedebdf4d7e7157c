import json
import math

import numpy as np
import pytest

import halfstrip as hs
from halfstrip import NotPositiveRecurrentError, TailNotPositiveRecurrentError

from conftest import (NILPOTENT_TAIL, random_pos_recurrent_model, retrial_model, scalar_chain,
                      stacked_pass_models, underflow_prefix_models)


def test_retrial_c1_frozen_stationary(retrial_c1):
    res = hs.stationary_dist(hs.branching_data(retrial_c1))
    assert np.allclose(res.censored, [[0.8, 0.2], [0.5, 0.5]], atol=1e-10)
    assert np.allclose(res.boundary_measure, [5.0 / 7.0, 2.0 / 7.0], atol=1e-9)
    assert abs(res.normalizer - 15.0 / 7.0) < 1e-9
    assert np.allclose(res.nu[0], [1.0 / 3.0, 2.0 / 15.0], atol=1e-9)
    assert np.allclose(res.nu[1], [4.0 / 45.0, 4.0 / 45.0], atol=1e-9)
    assert abs(res.decay_rate - 2.0 / 3.0) < 1e-9


def test_scalar_chain_frozen_stationary(d1_pos):
    res = hs.stationary_dist(hs.branching_data(d1_pos))
    assert abs(res.nu[0][0] - 2.0 / 7.0) < 1e-10
    for n in range(1, 12):
        want = (20.0 / 49.0) * (3.0 / 7.0) ** (n - 1)
        assert abs(res.nu[n][0] - want) < 1e-10
    assert abs(res.normalizer - 3.5) < 1e-9
    assert abs(res.decay_rate - 3.0 / 7.0) < 1e-9


def test_birth_death_detailed_balance_closed_form():
    # p=0.2, q=0.5, stay 0.3; boundary stays half the time
    m = scalar_chain(0.2, 0.5, r=0.3, r0=0.5)
    res = hs.stationary_dist(hs.branching_data(m))
    # detailed balance: nu_0 * 0.5 = nu_1 * 0.5, then ratio p/q = 0.4
    nu0 = 3.0 / 8.0
    assert abs(res.nu[0][0] - nu0) < 1e-10
    for n in range(1, 10):
        want = nu0 * 0.4 ** (n - 1)
        assert abs(res.nu[n][0] - want) < 1e-10


def test_total_mass_close_to_one(retrial_c1, retrial_c2):
    for model in (retrial_c1, retrial_c2):
        res = hs.stationary_dist(hs.branching_data(model))
        assert abs(res.mass - 1.0) < 1e-8


def test_explicit_levels_override(d1_pos):
    # rows cover 0..levels inclusive
    res = hs.stationary_dist(hs.branching_data(d1_pos), levels=10)
    assert res.levels == 10
    assert len(res.nu) == 11


def test_matrix_product_check(retrial_c1, retrial_c2):
    for model in (retrial_c1, retrial_c2):
        data = hs.branching_data(model)
        res = hs.stationary_dist(data)
        assert hs.matrix_product_check(data, res) <= 1e-10


def test_balance_residual(retrial_c1, retrial_c2):
    for model in (retrial_c1, retrial_c2):
        res = hs.stationary_dist(hs.branching_data(model))
        assert hs.balance_residual(model, res) <= 1e-8


def test_invariants_on_random_models():
    rng = np.random.default_rng(314)
    for d in (2, 4):
        model, data = random_pos_recurrent_model(rng, d)
        res = hs.stationary_dist(data)
        assert abs(res.mass - 1.0) < 1e-8
        assert hs.matrix_product_check(data, res) <= 1e-10
        assert hs.balance_residual(model, res) <= 1e-8


def test_stationary_rejects_transient(d1_transient):
    with pytest.raises(NotPositiveRecurrentError):
        hs.stationary_dist(hs.branching_data(d1_transient))


def test_stationary_rejects_null(d1_null):
    with pytest.raises(NotPositiveRecurrentError):
        hs.stationary_dist(hs.branching_data(d1_null))


def test_swap_chain_boundary_measure_from_the_uniform_start(perm_chain):
    """The swap chain keeps the parity of level + phase, so its censored
    boundary matrix is the identity: two closed classes and no unique
    stationary vector. The boundary measure is the long-run one from the
    uniform phase mix, which is where ``simulate`` starts."""
    res = hs.stationary_dist(hs.branching_data(perm_chain))
    assert np.array_equal(res.censored, np.eye(2))
    assert np.array_equal(res.boundary_measure, [0.5, 0.5])
    assert abs(hs.decay_rate(hs.branching_data(perm_chain)).rate - 3.0 / 7.0) < 1e-15


def test_decay_rate_report(retrial_c1):
    rep = hs.decay_rate(hs.branching_data(retrial_c1))
    assert abs(rep.rate - 2.0 / 3.0) < 1e-9
    assert len(rep.empirical) == retrial_c1.d
    assert all(np.isfinite(r) for r in rep.empirical)


def test_decay_rate_rejects_non_positive_recurrent(d1_null, d1_transient):
    for model in (d1_null, d1_transient):
        with pytest.raises(TailNotPositiveRecurrentError):
            hs.decay_rate(hs.branching_data(model))


def test_decay_empirical_rate_converges(d1_pos):
    """By level 500 the finite-level rate is within 1e-3 of log(3/7)."""
    rep = hs.decay_rate(hs.branching_data(d1_pos), levels=500)
    assert abs(rep.empirical[0] - math.log(3.0 / 7.0)) < 1e-3


def test_decay_field_matches_report(d1_pos):
    data = hs.branching_data(d1_pos)
    res = hs.stationary_dist(data)
    rep = hs.decay_rate(data)
    assert res.decay_rate == rep.rate


def test_deep_levels_underflow_flagged(d1_pos):
    res = hs.stationary_dist(hs.branching_data(d1_pos), levels=850)
    assert res.levels == 850
    assert len(res.underflow_levels) > 0
    first = res.underflow_levels[0]
    assert np.all(res.nu[first] == 0.0)
    # mass at level 800 is ~1e-295: tiny but still representable
    assert res.nu[800][0] > 0.0


def test_csv_export_shape_and_values(retrial_c1):
    res = hs.stationary_dist(hs.branching_data(retrial_c1), levels=5)
    csv = hs.result_to_csv(res)
    lines = csv.strip().splitlines()
    assert lines[0] == "level,phase,nu,log_nu_over_n"
    assert len(lines) == 1 + 6 * retrial_c1.d
    # level 0 rows leave the rate column blank
    assert lines[1].endswith(",")
    level, phase, nu, rate = lines[3].split(",")
    assert (int(level), int(phase)) == (1, 0)
    assert abs(float(nu) - 4.0 / 45.0) < 1e-9
    assert abs(float(rate) - math.log(4.0 / 45.0)) < 1e-9


def test_csv_has_no_numpy_reprs(retrial_c1):
    csv = hs.result_to_csv(hs.stationary_dist(hs.branching_data(retrial_c1), levels=3))
    assert "np.float" not in csv
    assert "(" not in csv


def _csv_per_entry(result):
    """The CSV as written one entry at a time before it was rendered with
    joins: the bytes result_to_csv must keep."""
    out = ["level,phase,nu,log_nu_over_n\n"]
    for n, row in enumerate(result.nu):
        for j, val in enumerate(row):
            val = float(val)
            rate = repr(math.log(val) / n) if n >= 1 and val > 0.0 else ""
            out.append(f"{n},{j},{val!r},{rate}\n")
    return "".join(out)


def test_csv_matches_per_entry_rendering(d1_pos):
    """Byte for byte on the 20,714-level critical retrial result and on a
    scalar result whose deep levels underflow to 0 (blank rates)."""
    deep = hs.stationary_dist(hs.branching_data(d1_pos), levels=850)
    assert deep.underflow_levels
    for res in (hs.stationary_dist(hs.branching_data(_critical_c1())), deep):
        assert hs.result_to_csv(res) == _csv_per_entry(res)


def test_dict_export_is_json_ready(retrial_c1):
    res = hs.stationary_dist(hs.branching_data(retrial_c1), levels=8)
    payload = hs.result_to_dict(res)
    parsed = json.loads(json.dumps(payload))
    assert parsed["levels"] == 8
    assert abs(parsed["nu"][0][0] - 1.0 / 3.0) < 1e-9
    assert abs(parsed["decay_rate"] - 2.0 / 3.0) < 1e-9


def test_boundary_row_scales_to_censored_measure(d1_pos):
    res = hs.stationary_dist(hs.branching_data(d1_pos))
    assert abs(res.boundary_measure.sum() - 1.0) < 1e-12
    assert np.max(np.abs(res.nu[0] * res.normalizer - res.boundary_measure)) < 1e-12


def _critical_c1(excess=-1e-3, mu=0.5, theta=0.3):
    """One-server retrial model at load r_c = 1 + excess."""
    lam = (-theta + math.sqrt(theta * theta + 4.0 * (1.0 + excess) * mu * theta)) / 2.0
    return retrial_model(lam, mu, 1)


def test_tail_rows_match_per_level_recursion():
    """The doubled tail rows agree with stepping nu_n = w_n F_n / Z level by
    level, and the per-level stopping and underflow rules give the same
    level count (20,713 at r_c - 1 = -1e-3) and underflow levels."""
    model = _critical_c1()
    data = hs.branching_data(model)
    res = hs.stationary_dist(data)
    assert isinstance(res.nu, np.ndarray) and res.nu.shape == (res.levels + 1, model.d)
    inv_z = 1.0 / res.normalizer
    w = res.boundary_measure @ model.p0
    rows, underflow = [res.boundary_measure * inv_z], []
    n = 1
    while True:
        row = (w @ data.fundamental_down_at(n)) * inv_z
        tiny = row <= hs.stationary.UNDERFLOW_FLOOR
        if np.any(tiny & (row > 0)):
            underflow.append(n)
        rows.append(np.where(tiny, 0.0, row))
        if rows[-1].sum() < hs.stationary.MASS_CUTOFF:
            break
        w = w @ data.offspring_down_at(n)
        n += 1
    ref = np.array(rows)
    assert res.levels == len(ref) - 1 == 20_713
    assert res.underflow_levels == underflow
    assert np.all(np.abs(res.nu - ref) <= 1e-12 * np.abs(ref))


def test_checks_flag_a_perturbed_tail_row():
    """Both analytic checks cover the tail levels: one row past K + 1000
    scaled by 1 + 1e-3 fails each at the CLI tolerances."""
    model = _critical_c1()
    data = hs.branching_data(model)
    res = hs.stationary_dist(data)
    assert hs.matrix_product_check(data, res) <= 1e-10
    assert hs.balance_residual(model, res) <= 1e-8
    res.nu[data.depth + 1000] *= 1.0 + 1e-3
    assert hs.matrix_product_check(data, res) > 1e-10
    assert hs.balance_residual(model, res) > 1e-8


def _prefix_checks_level_by_level(model, data, nu):
    """The two checks' parts below the tail, one level at a time: (largest
    matrix-product deviation, balance residual sum)."""
    top, k = len(nu) - 1, data.depth
    dev = total = 0.0
    for n in range(1, min(k, top) + 1):
        up_prev = model.p0 if n == 1 else model.block_at(n - 1).up
        dev = max(dev, float(np.max(np.abs(
            nu[n] - nu[n - 1] @ (up_prev @ data.fundamental_down_at(n))))))
    for n in range(1, min(k + 1, top)):
        up_prev = model.p0 if n == 1 else model.block_at(n - 1).up
        inflow = (nu[n - 1] @ up_prev + nu[n] @ model.block_at(n).stay
                  + nu[n + 1] @ model.block_at(n + 1).down)
        total += float(np.sum(np.abs(inflow - nu[n])))
    return dev, total


def test_prefix_checks_over_the_stacks_are_bit_for_bit():
    """Through the first tail level, where the rows stop there, both checks
    form their levels as stacks and still equal one level at a time bit
    for bit: on the 512-level prefix, whose rows stop inside it, and on
    random prefix models cut at the first tail level or below."""
    rng = np.random.default_rng(22)
    cases = [(retrial_model(0.2, 0.5, 1, theta="0.3+0.3/n"), None)]
    for d, n_prefix in [(1, 9), (3, 5), (9, 4), (33, 6)]:
        model = random_pos_recurrent_model(rng, d, n_prefix=n_prefix)[0]
        cases += [(model, 1), (model, n_prefix), (model, n_prefix + 1)]
    for model, levels in cases:
        data = hs.branching_data(model)
        res = hs.stationary_dist(data, levels=levels)
        assert len(res.nu) <= data.depth + 1
        dev, total = _prefix_checks_level_by_level(model, data, res.nu)
        assert hs.matrix_product_check(data, res) == dev
        assert hs.balance_residual(model, res) == total

@pytest.mark.parametrize("arrival, service, servers", [(0.4, 0.3, 3), (1.5, 0.3, 8)])
def test_answers_read_only_the_exit_rows_an_up_block_enters(monkeypatch, arrival, service,
                                                           servers):
    """Answers read the tail root G only through P0 G and U G, which weigh
    its rows by the column supports of P0 and the up blocks: on a retrial
    model, the all-busy row alone. Permuting the other rows of G changes
    G, and leaves the verdict, the stationary rows, the normalizer and the
    decay rate bit for bit; so verify's descent walks only read rows."""
    model = retrial_model(arrival, service, servers)
    unread = np.flatnonzero(~model.up.any(axis=(0, 1)))
    assert unread.tolist() == list(range(servers))
    solve = hs.branching.exit_down_tail

    def permuted(tail, tol=hs.branching.DEFAULT_TOL):
        root, info = solve(tail, tol=tol)
        root = root.copy()
        root[unread] = root[np.roll(unread, 1)]
        return root, info

    def answers():
        data = hs.branching_data(model)
        result = hs.stationary_dist(data)
        return data.exit_down[-1], (hs.classify(data).verdict, result.nu.tobytes(),
                                    result.normalizer, result.decay_rate,
                                    hs.decay_rate(data).rate)

    root, want = answers()
    monkeypatch.setattr(hs.branching, "exit_down_tail", permuted)
    moved, got = answers()
    assert not np.array_equal(moved, root)
    assert np.array_equal(moved[servers], root[servers])
    assert got == want


def test_stationary_matches_censored_chain(retrial_c2):
    """The boundary rows of the stationary vector, renormalized, equal the
    stationary vector of the censored boundary chain."""
    res = hs.stationary_dist(hs.branching_data(retrial_c2))
    mu0 = hs.censored_measure(hs.branching_data(retrial_c2))
    boundary = res.nu[0] / res.nu[0].sum()
    assert np.max(np.abs(boundary - mu0)) < 1e-9


def test_stationary_forms_the_censored_matrix_once(monkeypatch, retrial_c1, perm_chain):
    """stationary_dist forms the censored boundary matrix once per call, and
    its boundary measure is censored_measure's, bit for bit."""
    form, calls = hs.stationary.censored_matrix, []
    monkeypatch.setattr(hs.stationary, "censored_matrix",
                        lambda data: calls.append(data) or form(data))
    for model in (retrial_c1, perm_chain):
        data = hs.branching_data(model)
        want = hs.censored_measure(data)
        calls.clear()
        res = hs.stationary_dist(data)
        assert len(calls) == 1
        assert np.array_equal(res.boundary_measure, want)
        assert np.array_equal(res.censored, form(data))


def _row_loop(model, data, levels):
    """stationary_dist's rows formed level by level, each from a weight
    stepped one vector product at a time, stopping at the first prefix row
    whose mass is below the cutoff: the reference for the rows taken from
    the normalizer series' weights. Returns (nu, tail w or None, underflow
    levels)."""
    mu0 = hs.censored_measure(data)
    inv_z = 1.0 / (hs.series_down_weighted(data, mu0 @ model.p0).value + 1.0)
    cap = levels if levels is not None else hs.stationary.LEVEL_CAP
    k = data.depth
    rows = [mu0 * inv_z]
    w = mu0 @ model.p0
    for n, fundamental, offspring in zip(range(1, min(k, cap + 1)), data.fundamental,
                                         data.offspring):
        rows.append(w.dot(fundamental) * inv_z)
        if levels is None and rows[-1].sum() < hs.stationary.MASS_CUTOFF:
            cap = n
            break
        w = w.dot(offspring)
    tail = {"level": k, "w": w, "offspring": data.offspring_down_at(k),
            "fundamental": data.fundamental_down_at(k)}
    nu, flagged = hs.stationary._stack_rows(np.vstack(rows), tail if cap >= k else None,
                                            inv_z, levels)
    return nu, w if len(nu) > k else None, (np.flatnonzero(flagged[:len(nu) - 1]) + 1).tolist()


def test_rows_from_the_normalizer_series_match_the_row_loop():
    """Rows taken in one stacked product from the normalizer series'
    weights, truncated by the mass cutoff alone, equal the level-by-level
    row loop bit for bit: nu, the tail weight, the underflow levels and the
    level count, with levels mass-driven (inside prefix512's prefix), below
    K - 1 and above K."""
    for model in stacked_pass_models():
        data = hs.branching_data(model)
        for levels in (None, data.depth // 2, data.depth + 5):
            res = hs.stationary_dist(data, levels=levels)
            nu, w, underflow = _row_loop(model, data, levels)
            assert np.array_equal(res.nu, nu), levels
            assert res.levels == len(nu) - 1
            assert res.underflow_levels == underflow
            assert (res.tail is None) == (w is None)
            assert w is None or np.array_equal(res.tail["w"], w)
        assert "top_reached" not in vars(data)  # formed only when read
    prefix512 = stacked_pass_models()[0]
    assert hs.stationary_dist(hs.branching_data(prefix512)).levels == 62 < prefix512.n_prefix


def test_stationary_refuses_an_underflowing_prefix_over_a_transient_tail():
    """A prefix whose float weights vanish while the tail, drifting up, stays
    in reach has no stationary distribution."""
    for model in underflow_prefix_models():
        with pytest.raises(NotPositiveRecurrentError, match="infinite"):
            hs.stationary_dist(hs.branching_data(model))


def _expansion_cases():
    """pytest params (model, levels, the level count wanted or None), levels
    None for the mass-driven count."""
    rand_d4, _ = random_pos_recurrent_model(np.random.default_rng(4), 4, n_prefix=4)
    d1_pos = scalar_chain(0.3, 0.7)
    return [
        pytest.param(_critical_c1(), None, 20_713, id="critical"),
        pytest.param(retrial_model(0.2, 0.5, 1, theta="0.3+0.3/n"), None, 62, id="prefix512"),
        pytest.param(hs.model_from_dict(NILPOTENT_TAIL), None, None, id="nilpotent"),
        pytest.param(rand_d4, None, None, id="rand_d4"),
    ] + [pytest.param(d1_pos, levels, levels, id=f"d1_pos-{levels}") for levels in (0, 1, 2, 850)]


@pytest.mark.parametrize("model, levels, want", _expansion_cases())
def test_expand_rows_gives_back_every_row(model, levels, want):
    """A report's rows below the first tail level K plus its tail form
    expand, through the JSON text, to the rows stationary_dist formed, bit
    for bit: 20,713 levels past K = 1 (critical), a mass cutoff at level 62
    inside a 512-level prefix (no tail), a nilpotent offspring matrix, K = 5
    (rand_d4), and levels 0, K - 1, K, K + 1 and 850 on the scalar chain,
    whose deep levels underflow."""
    res = hs.stationary_dist(hs.branching_data(model), levels=levels)
    results = json.loads(json.dumps(hs.result_to_dict(res)))
    k = model.n_prefix + 1
    assert want is None or res.levels == want
    assert results["schema"] == 2 and results["levels"] == res.levels
    assert len(results["nu"]) == min(res.levels + 1, k)
    if res.levels < k:
        assert results["tail"] is None
    else:
        assert results["tail"]["level"] == k
        assert np.array_equal(results["tail"]["offspring"],
                              hs.branching_data(model).offspring_down_at(k))
    assert np.array_equal(hs.expand_rows(results), res.nu)
    assert results["underflow_levels"] == res.underflow_levels
