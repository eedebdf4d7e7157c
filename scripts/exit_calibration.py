#!/usr/bin/env python3
"""False-alarm rate of verify's descent-exit check, over many seeds.

Runs the descent-exit check as ``verify`` runs it (``cli._exit_check``) on
three retrial models with retry rate 0.3: c1 (lam 0.2, mu 0.5, one
server, gamma 1), c8_high (lam 1.5, mu 0.3, eight servers) and c16
(lam 3.0, mu 0.3, sixteen servers), once per seed. Each check descends
from level max(1, top_reached), walks and compares only the rows of the
analytic ``exit_down_at`` that an answer reads, and makes one
``cell_deviations`` call per estimate: cells expecting fewer than 16
events are skipped, and the worst of the rest, in units of 3 s.e.,
decides. It prints one CSV row per model: the level, the walked phases,
the estimates, the walks per phase, the cells compared over all
estimates, the checks the support rule skipped, and the checks that
failed, with their share of the checks run and its 95% Wilson interval.
The worst cell decides, so a check's false-alarm rate is above the
per-cell normal tail 0.27% and grows with the cells compared. Every c1
descent ends in the busy phase, so its check is always skipped.

Usage:
    python3 scripts/exit_calibration.py --seeds 200 --samples 2000
"""
import argparse
import math

import halfstrip as hs
from halfstrip.cli import _exit_check


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

    return [("c1", retrial(0.2, 0.5, 1, gamma=1.0)), ("c8_high", retrial(1.5, 0.3, 8)),
            ("c16", retrial(3.0, 0.3, 16))]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=200, help="seeds 1..N, one estimate each")
    ap.add_argument("--samples", type=int, default=2000, help="walks per start phase")
    args = ap.parse_args()

    print("model,level,phases,estimates,samples,cells,skipped,"
          "checks_failed,failed_share,failed_lo,failed_hi")
    for name, model in models():
        data = hs.branching_data(model)
        level = max(1, data.top_reached)
        ref = data.exit_down_at(level)
        cells = skipped = failed = 0
        phases = []
        for seed in range(1, args.seeds + 1):
            checks, skips = [], []
            _exit_check("descent-exit-vs-simulation", model, level, ref,
                        hs.ExitConfig(seed=seed, samples=args.samples), checks, skips)
            skipped += len(skips)
            for check in checks:
                cells += check["context"]["cells"]
                failed += check["status"] == "fail"
                phases = check["context"]["phases"]
        run = args.seeds - skipped
        lo, hi = wilson(failed, run)
        print(f"{name},{level},{' '.join(map(str, phases))},{args.seeds},{args.samples},"
              f"{cells},{skipped},{failed},{failed / run if run else math.nan:.4f},"
              f"{lo:.4f},{hi:.4f}", flush=True)


if __name__ == "__main__":
    main()
