#!/usr/bin/env python3
"""Per-level decay profile of a stationary distribution.

Reads a model file (or stdin) and prints log nu_n(j) / n for each level
and phase next to the limiting log decay rate, as CSV for plotting. On a
model whose blocks converge to the tail, the profile should flatten onto
the limit line as n grows.

Usage:
    halfstrip example retrial --lambda 0.2 --mu 0.5 --c 1 --theta 0.3 \
        | python3 scripts/decay_profile.py --levels 120
"""
import argparse
import math
import sys

import halfstrip as hs


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("model", nargs="?", default="-",
                    help="model JSON file ('-' reads stdin)")
    ap.add_argument("--levels", type=int, default=120)
    args = ap.parse_args()

    # a rate model runs as its uniformized chain, as in the CLI
    model = hs.as_chain(hs.load_model(sys.stdin if args.model == "-" else args.model))

    res = hs.stationary_dist(hs.branching_data(model), levels=args.levels)
    limit = math.log(res.decay_rate)
    print(f"# log decay rate limit {limit:.10g}", file=sys.stderr)
    print("level," + ",".join(f"log_rate_phase_{j}" for j in range(model.d))
          + ",limit")
    for n in range(1, res.levels + 1):
        rates = []
        for j in range(model.d):
            v = float(res.nu[n][j])
            rates.append(f"{math.log(v) / n:.10g}" if v > 0 else "")
        print(f"{n}," + ",".join(rates) + f",{limit:.10g}")


if __name__ == "__main__":
    main()
