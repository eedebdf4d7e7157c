"""Acceptance gate: every delivery guarantee runs here at its stated
tolerance, one numbered test each, and reports a one-line result in the
terminal summary.

The tests cross three independent routes wherever possible: closed forms,
the dense truncation oracle, and the seeded regenerative simulator.
"""
import io
import contextlib
import itertools
import math
import time

import numpy as np
import pytest

import halfstrip as hs
from halfstrip.cli import main as cli_main, _visit_bursts
from conftest import record_acceptance, random_pos_recurrent_model, retrial_model


def test_01_single_server_retrial_decay_closed_form(retrial_c1):
    lam, mu, theta = 0.2, 0.5, 0.3
    expected = lam * (lam + theta) / (mu * theta)
    t0 = time.perf_counter()
    rep = hs.decay_rate(hs.branching_data(retrial_c1))
    dt = time.perf_counter() - t0
    err = abs(rep.rate - expected)
    assert err <= 1e-8
    assert dt < 1.0
    record_acceptance(f"[PASS] 1. c=1 retrial decay {rep.rate:.9f} vs closed "
                      f"form {expected:.9f} (err {err:.1e}, {dt * 1000:.0f} ms)")


def test_02_two_server_retrial_decay_closed_form(retrial_c2):
    lam, mu, theta = 0.1, 0.3, 0.3
    expected = (lam / (theta * mu)) * ((lam + theta) ** 2 + theta * mu) \
        / (3 * lam + 2 * mu + 2 * theta)
    assert abs(expected - 0.18518519) < 1e-7
    t0 = time.perf_counter()
    rep = hs.decay_rate(hs.branching_data(retrial_c2))
    dt = time.perf_counter() - t0
    err = abs(rep.rate - expected)
    assert err <= 1e-8
    assert dt < 1.0
    record_acceptance(f"[PASS] 2. c=2 retrial decay {rep.rate:.9f} vs closed "
                      f"form {expected:.9f} (err {err:.1e}, {dt * 1000:.0f} ms)")


def test_03_ascent_ratio_matrices_concentrate_on_last_row(retrial_c1, retrial_c2):
    # retrial chains only move up from the all-servers-busy phase, so the
    # level-ratio matrix (up block times next level's fundamental matrix)
    # can only have mass in its last row
    worst_off = 0.0
    smallest_live = math.inf
    for model in (retrial_c1, retrial_c2):
        data = hs.branching_data(model)
        ratios = [model.p0 @ data.fundamental_down_at(1)]
        for n in range(1, 6):
            ratios.append(model.block_at(n).up @ data.fundamental_down_at(n + 1))
        ratios.append(model.tail.up @ data.fundamental_down_at(data.depth))
        for mat in ratios:
            worst_off = max(worst_off, float(np.abs(mat[:-1, :]).max()))
            smallest_live = min(smallest_live, float(np.abs(mat[-1, :]).max()))
    assert worst_off <= 1e-10
    assert smallest_live > 0.0
    record_acceptance(f"[PASS] 3. level-ratio matrices last-row-only for both "
                      f"retrial models (off-row max {worst_off:.1e})")


def test_04_verdict_flips_at_the_critical_arrival_rate():
    # r_c = lam (lam + theta) / (mu theta) crosses 1 at lam* below; the sign
    # of the tail's drift picks every verdict, taken exactly when the float
    # drift is within its rounding bound, so the points run to r_c - 1 =
    # -/+1e-13 (values there are NaN: I - A and I - B G_1 are too ill
    # conditioned to invert)
    mu, theta = 0.5, 0.3
    lam_star = (-theta + math.sqrt(theta * theta + 4 * mu * theta)) / 2.0

    def lam_at(excess):
        return (-theta + math.sqrt(theta * theta + 4 * (1.0 + excess) * mu * theta)) / 2.0

    sweep = [0.20, 0.24, 0.26, 0.265, lam_star - 1e-6, lam_star + 1.81e-5,
             0.266, 0.27, 0.30]
    sweep += [lam_at(sign * excess) for excess in (5.5e-7, 1e-11, 1e-12, 1e-13)
              for sign in (-1, 1)]
    tight_pr = tight_tr = None
    for lam in sweep:
        r_c = lam * (lam + theta) / (mu * theta)
        assert r_c != 1.0
        res = hs.classify(hs.branching_data(retrial_model(lam, mu, 1)))
        assert res.verdict == ("positive-recurrent" if r_c < 1.0 else "transient"), \
            f"lam={lam}: verdict {res.verdict} vs r_c={r_c}"
        if r_c < 1.0:
            tight_pr = max(tight_pr or -1.0, r_c)
        else:
            tight_tr = min(tight_tr or math.inf, r_c)
    record_acceptance(f"[PASS] 4. verdict flips with sign(r_c - 1) across "
                      f"{len(sweep)} points (tightest certified: r_c - 1 = "
                      f"{tight_pr - 1.0:+.1e} / {tight_tr - 1.0:+.1e})")


def test_decay_rate_certified_by_the_drift_sign_near_the_critical_rate():
    """Retrial c=1: the decay rate is r_c wherever the drift sign is
    certified negative and I - A can be inverted (within 3.3e-16 and
    8.9e-16 at r_c - 1 = -1e-10 and -1e-11); at -1e-12 its 1-norm condition
    number is about 1.5e12 and the stationary solve is refused."""
    mu, theta = 0.5, 0.3
    for excess in (-1e-10, -1e-11, -1e-12):
        lam = (-theta + math.sqrt(theta * theta + 4 * (1.0 + excess) * mu * theta)) / 2.0
        r_c = lam * (lam + theta) / (mu * theta)
        model = retrial_model(lam, mu, 1)
        if excess == -1e-12:
            with pytest.raises(hs.NotPositiveRecurrentError, match="condition number"):
                hs.decay_rate(hs.branching_data(model))
        else:
            assert abs(hs.decay_rate(hs.branching_data(model)).rate - r_c) <= 4e-15


def test_05_scalar_chain_closed_forms_and_truncation(d1_pos):
    # up 0.3 / down 0.7, boundary reflects: nu_0 = 2/7,
    # nu_n = (20/49)(3/7)^(n-1), mean return time 7/2, decay 3/7
    res = hs.stationary_dist(hs.branching_data(d1_pos), levels=60)
    worst = abs(float(res.nu[0][0]) - 2.0 / 7.0)
    for n in range(1, 61):
        closed = (20.0 / 49.0) * (3.0 / 7.0) ** (n - 1)
        worst = max(worst, abs(float(res.nu[n][0]) - closed))
    ret = hs.expected_return_time(hs.branching_data(d1_pos), np.array([1.0]))
    worst = max(worst, abs(ret - 3.5), abs(res.normalizer - 3.5))
    worst = max(worst, abs(res.decay_rate - 3.0 / 7.0))
    assert worst <= 1e-8

    rows = hs.truncated_solve(d1_pos, 200).level_rows()
    worst_tr = abs(float(rows[0][0]) - 2.0 / 7.0)
    for n in range(1, 61):
        closed = (20.0 / 49.0) * (3.0 / 7.0) ** (n - 1)
        worst_tr = max(worst_tr, abs(float(rows[n][0]) - closed))
    assert worst_tr <= 1e-8
    record_acceptance(f"[PASS] 5. scalar chain: measure, return time 3.5, "
                      f"decay 3/7 (library err {worst:.1e}, truncation err "
                      f"{worst_tr:.1e})")


def test_06_null_and_transient_certificates(d1_null, d1_transient):
    res = hs.classify(hs.branching_data(d1_null))
    assert res.verdict == "null-recurrent"
    assert res.certificate == "visits-divergent-return-time-infinite"
    assert math.isinf(res.boundary_visits)
    assert math.isinf(res.return_bound)

    res_t = hs.classify(hs.branching_data(d1_transient))
    assert res_t.verdict == "transient"
    err = abs(res_t.boundary_visits - 1.75)
    assert err <= 1e-10
    record_acceptance(f"[PASS] 6. symmetric chain null-recurrent by divergence "
                      f"certificate; transient chain visit count 1.75 "
                      f"(err {err:.1e})")


def test_07_oracle_triangle_on_random_models():
    t0 = time.perf_counter()
    worst_l1 = worst_visits = worst_rt = worst_bm = 0.0
    total_steps = 0
    for i in range(20):
        rng = np.random.default_rng(1000 + i)
        model, data = random_pos_recurrent_model(rng, 1 + i % 4)
        res = hs.stationary_dist(data)

        rows = hs.truncated_solve(model, 260).level_rows()
        span = min(30, res.levels)
        l1 = sum(float(np.abs(rows[n] - res.nu[n]).sum())
                 for n in range(span + 1))
        worst_l1 = max(worst_l1, l1)
        assert l1 <= 1e-7, f"model {i}: l1 {l1:.2e}"

        z = res.normalizer
        cycles = int(min(max(1024, round(1e6 / z)), 2_000_000))
        stats = hs.simulate(model, config=hs.SimConfig(seed=500 + i,
                                                       cycles=cycles))
        total_steps += stats.total_steps
        span2 = min(stats.max_level, res.levels, 30)
        ref = np.stack([res.nu[n] * z for n in range(span2 + 1)])
        viol, _, _ = hs.cell_deviations(
            ref, stats.visit_counts[:span2 + 1], stats.visit_se[:span2 + 1],
            stats.cycles, bursts=_visit_bursts(data, span2))
        worst_visits = max(worst_visits, viol)
        assert viol <= 1.0, f"model {i}: visit deviation {viol:.2f} x 3 s.e."

        rt_se = max(stats.return_time_se, 1.0 / stats.cycles)
        rt_dev = abs(stats.mean_return_time - z) / (3.0 * rt_se)
        worst_rt = max(worst_rt, rt_dev)
        assert rt_dev <= 1.0, f"model {i}: return time off by {rt_dev:.2f} x 3 s.e."

        bm_viol, _, _ = hs.cell_deviations(
            res.boundary_measure, stats.exit_frequencies,
            stats.exit_frequency_se, stats.cycles)
        worst_bm = max(worst_bm, bm_viol)
        assert bm_viol <= 1.0, f"model {i}: boundary measure {bm_viol:.2f} x 3 s.e."
    dt = time.perf_counter() - t0
    assert dt < 300.0
    record_acceptance(f"[PASS] 7. 20 random models vs both oracles: l1 "
                      f"{worst_l1:.1e}, sim deviations {worst_visits:.2f}/"
                      f"{worst_rt:.2f}/{worst_bm:.2f} x 3 s.e. "
                      f"({total_steps:.2g} steps, {dt:.0f} s)")


def test_08_invariant_suite(retrial_c1, retrial_c2, d1_pos):
    tol = 1e-12
    worst = dict(zeta_up=0.0, anchor=0.0, pmf_norm=0.0, pmf_mean=0.0,
                 product=0.0, balance=0.0, kac=0.0)
    for model in (retrial_c1, retrial_c2, d1_pos):
        d = model.d
        data = hs.branching_data(model, tol=tol)
        stoch = np.stack([z.sum(axis=1) for z in hs.exit_up_seq(model, 8)])
        worst["zeta_up"] = max(worst["zeta_up"],
                               float(np.abs(stoch - 1.0).max()))

        seq_a, _ = hs.exit_down_seq(model, n_max=5, tol=tol,
                                    seed=np.zeros((d, d)))
        seq_b, _ = hs.exit_down_seq(model, n_max=5, tol=tol, seed=np.eye(d))
        for a, b in zip(seq_a[1:], seq_b[1:]):
            worst["anchor"] = max(worst["anchor"], float(np.max(np.abs(a - b))))

        horizon = 600
        # upward offspring F_n D_n of levels 1 and 2, one inverse per level
        upward = [hs.invert(np.eye(d) - t.down @ z - t.stay) @ t.down
                  for t, z in zip(map(model.block_at, (1, 2)), hs.exit_up_seq(model, 1))]
        for n, phase in [(1, 0), (2, d - 1)]:
            up = hs.offspring_pmf(data, n, phase, horizon, "down")
            dn = hs.offspring_pmf(data, n, phase, horizon, "up")
            worst["pmf_norm"] = max(worst["pmf_norm"],
                                    abs(sum(up) - 1.0), abs(sum(dn) - 1.0))
            mean_up = sum(c * p for c, p in enumerate(up))
            mean_dn = sum(c * p for c, p in enumerate(dn))
            worst["pmf_mean"] = max(
                worst["pmf_mean"],
                abs(mean_up - float(data.offspring_down_at(n).sum(axis=1)[phase])),
                abs(mean_dn - float(upward[n - 1].sum(axis=1)[phase])))

        res = hs.stationary_dist(data)
        worst["product"] = max(worst["product"],
                               hs.matrix_product_check(data, res))
        worst["balance"] = max(worst["balance"],
                               hs.balance_residual(model, res))
        worst["kac"] = max(worst["kac"],
                           abs(1.0 / res.normalizer - float(res.nu[0].sum())))
    assert worst["zeta_up"] <= 1e-9
    assert worst["anchor"] <= 10 * tol
    assert worst["pmf_norm"] <= 1e-8
    assert worst["pmf_mean"] <= 1e-6
    assert worst["product"] <= 1e-10
    assert worst["balance"] <= 1e-8
    assert worst["kac"] <= 1e-8
    record_acceptance("[PASS] 8. invariants on three models: "
                      + ", ".join(f"{k} {v:.1e}" for k, v in worst.items()))


def test_09_slowly_varying_retry_rate_keeps_the_limit_decay():
    # theta_n = 0.3 (1 + 1/n) converges to 0.3, so the tail decay must
    # approach the constant-rate value 2/3 level by level
    model = retrial_model(0.2, 0.5, 1, theta="0.3+0.3/n")
    res = hs.stationary_dist(hs.branching_data(model), levels=300)
    target = math.log(2.0 / 3.0)
    errs = [abs(math.log(float(res.nu[300][j])) / 300.0 - target)
            for j in range(model.d)]
    assert max(errs) <= 0.02
    record_acceptance(f"[PASS] 9. retry rate 0.3(1+1/n): level-300 log-rate "
                      f"within {max(errs):.4f} of log(2/3) (cap 0.02)")


def test_10_verify_reports_are_byte_identical(retrial_c1, tmp_path):
    path = tmp_path / "model.json"
    hs.save_model(retrial_c1, path)
    argv = ["verify", str(path), "--seed", "20260816",
            "--cycles", "20000", "--samples", "4000"]

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli_main(argv)
        return code, out.getvalue()

    code1, rep1 = run()
    code2, rep2 = run()
    assert code1 == code2 == 0
    assert rep1 == rep2
    record_acceptance(f"[PASS] 10. verify twice with one seed: byte-identical "
                      f"reports ({len(rep1)} bytes, all checks green)")
