#!/usr/bin/env python3
"""Per-cell false-alarm rate of the descent-exit check, over many seeds.

Runs the exit-probability estimator on the downward exit from the first
tail level of two retrial models, c1 (lam 0.2, mu 0.5, one server,
gamma 1) and c8_high (lam 1.5, mu 0.3, eight servers), once per seed, and
compares every cell with the analytic ``exit_down_at`` by the rule
``verify`` applies (``cell_deviations``: cells expecting fewer than 16
events skipped, the rest in units of 3 s.e.). It prints one CSV row per
model: the cells compared with a reference strictly between 0 and 1, the
share of them with |z| > 3 and its 95% Wilson interval, and the share of
estimates whose check would fail. A correct estimator and exit matrix
give a share near the normal tail 0.27%. The interval treats the cells as
independent; cells of one row share their walks, so it is optimistic.
Every c1 descent ends in the busy phase, so its cells are all 0 or 1:
it compares none, and a failed check there would be a defect.

Usage:
    python3 scripts/exit_calibration.py --seeds 200 --samples 2000
"""
import argparse
import math

import numpy as np

import halfstrip as hs

# two-sided normal tail beyond 3 s.e.
NORMAL_SHARE = math.erfc(3.0 / math.sqrt(2.0))


def wilson(k, n, z=1.96):
    """95% Wilson score interval of a binomial share k / n."""
    if n == 0:
        return math.nan, math.nan
    centre = (k + z * z / 2.0) / (n + z * z)
    half = z / (n + z * z) * math.sqrt(k * (n - k) / n + z * z / 4.0)
    return max(0.0, centre - half), min(1.0, centre + half)


def models():
    def retrial(lam, mu, c, gamma=None):
        gen = hs.build_retrial(lam, mu, c, hs.RetrySchedule.parse("0.3"))
        return hs.uniformize(gen, gamma=gamma)

    return [("c1", retrial(0.2, 0.5, 1, gamma=1.0)), ("c8_high", retrial(1.5, 0.3, 8))]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=200, help="seeds 1..N, one estimate each")
    ap.add_argument("--samples", type=int, default=2000, help="walks per start phase")
    args = ap.parse_args()

    print("model,level,estimates,samples,cells,over_3se,share,share_lo,share_hi,"
          "checks_failed,failed_share,failed_lo,failed_hi,normal_share")
    for name, model in models():
        level = model.n_prefix + 1
        ref = hs.branching_data(model).exit_down_at(level)
        cells = over = failed = 0
        for seed in range(1, args.seeds + 1):
            est = hs.estimate_exit_probability(
                model, level, "down", hs.ExitConfig(seed=seed, samples=args.samples))
            worst = 0.0
            for idx in np.ndindex(ref.shape):
                dev, compared, _ = hs.cell_deviations(
                    ref[idx], est.matrix[idx], est.se[idx], float(args.samples))
                worst = max(worst, dev)
                if compared and 0.0 < ref[idx] < 1.0:
                    cells += 1
                    over += dev > 1.0
            failed += worst > 1.0
        lo, hi = wilson(over, cells)
        f_lo, f_hi = wilson(failed, args.seeds)
        print(f"{name},{level},{args.seeds},{args.samples},{cells},{over},"
              f"{over / cells if cells else math.nan:.5f},{lo:.5f},{hi:.5f},"
              f"{failed},{failed / args.seeds:.4f},{f_lo:.4f},{f_hi:.4f},"
              f"{NORMAL_SHARE:.5f}", flush=True)


if __name__ == "__main__":
    main()
