#!/usr/bin/env python3
"""Sweep the arrival rate of a single-server retrial chain across its
stability boundary and print one CSV row per point.

The load ratio r_c = lam (lam + theta) / (mu theta) crosses 1 at the
critical arrival rate; the verdict must flip there, and the decay rate
of the stationary tail equals r_c on the stable side.

Usage:
    python3 scripts/retrial_sweep.py --mu 0.5 --theta 0.3 --points 25
"""
import argparse
import math
import sys

import halfstrip as hs


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mu", type=float, default=0.5, help="service rate")
    ap.add_argument("--theta", type=float, default=0.3, help="retry rate")
    ap.add_argument("--points", type=int, default=25)
    ap.add_argument("--span", type=float, default=0.5,
                    help="sweep lam from span*lam_crit to (2-span)*lam_crit")
    args = ap.parse_args()

    mu, theta = args.mu, args.theta
    lam_crit = (-theta + math.sqrt(theta * theta + 4 * mu * theta)) / 2.0
    lo, hi = args.span * lam_crit, (2.0 - args.span) * lam_crit

    print("lam,r_c,verdict,certificate,decay_rate,mean_return_time")
    for k in range(args.points):
        lam = lo + (hi - lo) * k / (args.points - 1)
        r_c = lam * (lam + theta) / (mu * theta)
        model = hs.uniformize(
            hs.build_retrial(lam, mu, 1, hs.RetrySchedule.parse(str(theta))))
        data = hs.branching_data(model)
        res = hs.classify(data)
        decay, ret = "", ""
        if res.verdict == "positive-recurrent":
            # a grid point can land within float rounding of the critical
            # rate; the solver is allowed to give up there
            try:
                st = hs.stationary_dist(data)
                decay, ret = f"{st.decay_rate:.10g}", f"{st.normalizer:.10g}"
            except Exception as exc:
                print(f"# lam {lam:.10g}: {exc}", file=sys.stderr)
        print(f"{lam:.10g},{r_c:.10g},{res.verdict},{res.certificate},"
              f"{decay},{ret}")
    print(f"# critical arrival rate {lam_crit:.10g}", file=sys.stderr)


if __name__ == "__main__":
    main()
