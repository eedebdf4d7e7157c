#!/usr/bin/env python3
"""SHA-256 digest of every report one round of a benchmark workload writes.

Writes the workload's model files under --workdir, runs each op of one
round through ``halfstrip.cli.main`` in process, and prints one
tab-separated line per op: seed, op label, exit code, the digest of the
report and its length in bytes. ``--workload all`` runs the workloads one
after another. Reports echo their model file's path, so the digests of two
checkouts compare only when both runs use the same --workdir. The ops come
from ``perfbench/workloads.py``; halfstrip is imported from PYTHONPATH.

Usage:
    PYTHONPATH=src python3 scripts/report_digests.py --workload oracle \
        --seeds 1 2 3 --workdir /tmp/digests > new.tsv
    PYTHONPATH=../old/src python3 scripts/report_digests.py --workload oracle \
        --seeds 1 2 3 --workdir /tmp/digests > old.tsv
    diff old.tsv new.tsv
"""
import argparse
import contextlib
import hashlib
import io
import sys
from pathlib import Path

import halfstrip as hs
import halfstrip.cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.NAMES + ("all",), required=True)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1])
    ap.add_argument("--workdir", type=Path, required=True,
                    help="directory the model files are written to")
    args = ap.parse_args()
    args.workdir.mkdir(parents=True, exist_ok=True)
    print(f"# halfstrip from {Path(hs.__file__).parent}", file=sys.stderr)
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    for name, seed in ((name, seed) for name in names for seed in args.seeds):
        ops, _ = workloads.build(name, hs, seed, args.workdir)
        for op in ops:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = halfstrip.cli.main(list(op.argv))
            report = out.getvalue().encode()
            digest = hashlib.sha256(report).hexdigest()
            print(f"{seed}\t{op.label}\t{code}\t{digest}\t{len(report)}", flush=True)


if __name__ == "__main__":
    main()
