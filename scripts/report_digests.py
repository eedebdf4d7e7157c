#!/usr/bin/env python3
"""SHA-256 digest of every report one round of a benchmark workload writes.

Writes the workload's model files under --workdir, runs each op of one
round through ``halfstrip.cli.main`` in process, and prints one
tab-separated line per op: seed, op label, exit code, the digest of the
report and its length in bytes. ``--workload all`` runs the workloads one
after another. Reports echo their model file's path, so the digests of two
checkouts compare only when both runs use the same --workdir. The ops come
from ``perfbench/workloads.py``; halfstrip is imported from PYTHONPATH.

``--workload full-support`` is no benchmark workload: it runs ``verify``
at each seed on perfbench's random models with d = 8, 16 and 24, all
drawn from ``np.random.default_rng(5)`` in the order d = 2, 4, 8, 16, 24.
Their blocks have full support, so exit walks start in every phase at
once, and the d = 24 step table is run-length, which no benchmark op
reaches.

With ``--against ROOT`` the same workloads and seeds also run with the
package under ROOT/src, in a subprocess and in the same --workdir, and only
the ops whose exit code, digest or length differ are printed, as
seed, label, then ROOT's and this run's code, digest and length. The exit
status is 1 on any difference, 0 when every op matches.

Usage:
    PYTHONPATH=src python3 scripts/report_digests.py --workload oracle \
        --seeds 1 2 3 --workdir /tmp/digests > new.tsv
    PYTHONPATH=src python3 scripts/report_digests.py --workload all \
        --seeds 1 2 3 --workdir /tmp/digests --against ../old
    PYTHONPATH=src python3 scripts/report_digests.py --workload full-support \
        --seeds 1 2 3 --workdir /tmp/digests --against ../old
"""
import argparse
import contextlib
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import halfstrip as hs
import halfstrip.cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


FULL_SUPPORT = "full-support"
# the random models' phase counts in the order they are drawn, and the
# ones verified
FULL_SUPPORT_DRAWN = (2, 4, 8, 16, 24)
FULL_SUPPORT_VERIFIED = (8, 16, 24)


def full_support_ops(seed, workdir):
    """(label, argv) of ``verify`` at ``seed`` on each full-support model,
    whose files are written under ``workdir``."""
    rng = np.random.default_rng(5)
    models = {d: workloads._random(hs, rng, d) for d in FULL_SUPPORT_DRAWN}
    ops = []
    for d in FULL_SUPPORT_VERIFIED:
        path = workdir / f"full_d{d}.json"
        hs.save_model(models[d], path)
        ops.append((f"verify full_d{d}",
                    ("verify", str(path), "--format", "json", "--seed", str(seed))))
    return ops


def round_ops(name, seed, workdir):
    """(label, argv) of each op of one round of ``name``."""
    if name == FULL_SUPPORT:
        return full_support_ops(seed, workdir)
    ops, _ = workloads.build(name, hs, seed, workdir)
    return [(op.label, op.argv) for op in ops]


def digests(names, seeds, workdir):
    """One tab-separated line per op, in round order."""
    for name, seed in ((name, seed) for name in names for seed in seeds):
        for label, argv in round_ops(name, seed, workdir):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = halfstrip.cli.main(list(argv))
            report = out.getvalue().encode()
            digest = hashlib.sha256(report).hexdigest()
            yield f"{seed}\t{label}\t{code}\t{digest}\t{len(report)}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.NAMES + ("all", FULL_SUPPORT),
                    required=True)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1])
    ap.add_argument("--workdir", type=Path, required=True,
                    help="directory the model files are written to")
    ap.add_argument("--against", type=Path, default=None,
                    help="checkout whose src/ package to compare with")
    args = ap.parse_args()
    args.workdir.mkdir(parents=True, exist_ok=True)
    print(f"# halfstrip from {Path(hs.__file__).parent}", file=sys.stderr)
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    if args.against is None:
        for line in digests(names, args.seeds, args.workdir):
            print(line, flush=True)
        return 0
    argv = [sys.executable, __file__, "--workload", args.workload,
            "--seeds", *map(str, args.seeds), "--workdir", str(args.workdir)]
    env = dict(os.environ, PYTHONPATH=str(args.against.resolve() / "src"))
    theirs = subprocess.run(argv, env=env, stdout=subprocess.PIPE, text=True, check=True)
    differ = 0
    # both runs take their ops from this checkout's workloads, in one order
    for old, new in zip(theirs.stdout.splitlines(),
                        digests(names, args.seeds, args.workdir), strict=True):
        if old != new:
            old, new = old.split("\t"), new.split("\t")
            print("\t".join(old + new[2:]), flush=True)
            differ = 1
    return differ


if __name__ == "__main__":
    sys.exit(main())
