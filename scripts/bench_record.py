#!/usr/bin/env python3
"""Record one checkout's benchmark figures under a label in a ledger file.

Runs ``perfbench/run.py --workload all`` of the checkout at --root twice,
at seed 1 and the run length BENCHMARK.json sets, with ``--trace 0``
(end-to-end metrics) and ``--trace 1`` (per-layer metrics). It times, each
RUNS times in a fresh interpreter, keeping every run and their median:
``halfstrip verify`` on the retrial model c=32 (lambda 6, mu 0.3, theta
0.3, seed 1); ``verify`` and ``simulate`` at seed 1 on the oracle
workload's c8_high model (retrial c=8, lambda 1.5, mu 0.3, theta 0.3),
whose read-row descent is that workload's largest exit walk; ``verify``
at seed 1 on perfbench's random full-support model at d = 24, keeping its
exit code (5 expected: the known full-support false alarm), whose step
table is run-length; and ``halfstrip stationary`` on the 512-level prefix
model (retrial c=1, lambda 0.2, mu 0.5, theta 0.3+0.3/n). It times
``branching_data`` on that prefix model in process the same way (each run
the median of CALLS calls after one warm call), and times the checkout's
tier-1 suite (``python -m pytest -q --continue-on-collection-errors``),
keeping the acceptance lines it prints, so that a speed claim shows in the
same file that no acceptance error grew. It also counts the lines of
``src/halfstrip/*.py`` per file and in total, as ``wc -l`` counts them, so
that the package's size sits beside its timings.
Every ``metric`` line the runs print is kept per workload, with its unit,
beside the machine note, and the whole entry is written under the --label
key of the JSON file --out; other labels in that file are kept.

To compare two commits, measure both in one invocation: ``--against ROOT``
also measures the checkout ROOT and writes its entry under the label
``parent``, which --label may then not be. The two checkouts take turns,
so that drift of the host over the minutes of a sitting falls on both:
each fresh-interpreter run and each ``branching_data`` run of one is
followed by the same run of the other, and the first of each pair
alternates from run to run; the perfbench runs and the suite alternate
which checkout goes first.

    python3 scripts/bench_record.py --against ../parent --label change --out BENCH_34.json
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 1
# retrial c=32 as (arrival, service, servers, retry schedule)
VERIFY_MODEL = (6.0, 0.3, 32, "0.3")
VERIFY_SEED = 1
# retrial c=1 whose a+b/n retry schedule stores 512 prefix levels
PREFIX_MODEL = (0.2, 0.5, 1, "0.3+0.3/n")
# retrial c=8 at high load, the oracle workload's c8_high
C8_HIGH_MODEL = (1.5, 0.3, 8, "0.3")
# writes perfbench's random full-support model at d = 24 to sys.argv[1]:
# drawn from default_rng(5) after d = 2, 4, 8 and 16; its exit walks start
# in every phase, and its step table is run-length
FULL_SUPPORT_BUILD = """\
import sys
sys.path.insert(0, {perfbench!r})
import numpy as np
import halfstrip as hs
import workloads
rng = np.random.default_rng(5)
models = [workloads._random(hs, rng, d) for d in (2, 4, 8, 16, 24)]
hs.save_model(models[-1], sys.argv[1])
"""
# fresh-interpreter runs per CLI timing: one run cannot resolve a change
RUNS = 5
# timed branching_data calls per run, after one warm call
CALLS = 50
# prints the median milliseconds of CALLS branching_data calls on one model
BRANCHING_TIMER = """\
import statistics, time
import halfstrip as hs
lam, mu, servers, theta = {model!r}
model = hs.uniformize(hs.build_retrial(lam, mu, servers, hs.RetrySchedule.parse(theta)))
hs.branching_data(model)
times = []
for _ in range({calls}):
    start = time.perf_counter()
    hs.branching_data(model)
    times.append(time.perf_counter() - start)
print(1e3 * statistics.median(times))
"""


def parse_run_output(text):
    """The ``metric`` lines of one ``run.py --workload all`` output, as
    {workload: {metric: [value or None when absent, unit]}}, and its
    machine note."""
    workloads, machine, current = {}, None, None
    for line in text.splitlines():
        if line.startswith("# halfstrip benchmark:"):
            fields = dict(part.split("=", 1) for part in line.split()[3:] if "=" in part)
            current = workloads.setdefault(fields["workload"], {})
        elif line.startswith("# machine:"):
            machine = line.split(":", 1)[1].strip()
        elif line.startswith("metric ") and current is not None:
            _, name, value, unit = line.split(maxsplit=4)[:4]
            current[name] = [None if value == "absent" else float(value), unit]
    return workloads, machine


def cpu_model():
    """The CPU model name from /proc/cpuinfo, or the platform's guess."""
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_perfbench(root, seconds, trace):
    """stdout of ``run.py --workload all`` in the checkout ``root``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, stdout=subprocess.PIPE, text=True, check=True)
    return proc.stdout


def turns(count, job):
    """The indices of ``count`` checkouts in the order they take turn
    ``job``: in order on even turns, reversed on odd ones, so that no
    checkout always runs first."""
    order = list(range(count))
    return order[::-1] if job % 2 else order


def src_env(root):
    """This environment with ``root``'s src as the only PYTHONPATH."""
    return dict(os.environ, PYTHONPATH=str(Path(root) / "src"))


def time_runs(roots, builds, argv):
    """Per checkout in ``roots``: median wall seconds over RUNS runs of one
    ``halfstrip`` command, ``argv`` with the model path after its first
    word, on the model file that the checkout's Python code in ``builds``
    writes to its first argument, each in a fresh interpreter importing
    that checkout's src; every run's seconds and exit code, and the
    largest exit code. The checkouts take turns run by run (``turns``)."""
    envs = [src_env(root) for root in roots]
    runs = [[] for _ in roots]
    with tempfile.TemporaryDirectory() as tmp:
        paths = [str(Path(tmp) / f"model{i}.json") for i in range(len(roots))]
        for build, path, env in zip(builds, paths, envs):
            subprocess.run([sys.executable, "-c", build, path], env=env, check=True)
        for run in range(RUNS):
            for i in turns(len(roots), run):
                start = time.perf_counter()
                proc = subprocess.run(
                    [sys.executable, "-m", "halfstrip", argv[0], paths[i], *argv[1:]],
                    env=envs[i], capture_output=True, text=True)
                runs[i].append({"wall_s": time.perf_counter() - start, "exit": proc.returncode})
    return [{"wall_s": statistics.median(run["wall_s"] for run in side),
             "exit": max(run["exit"] for run in side), "runs": side} for side in runs]


def time_cli(roots, model, argv):
    """``time_runs`` of ``argv`` on the uniformized retrial ``model``
    (arrival, service, servers, retry schedule)."""
    lam, mu, servers, theta = model
    build = ("import sys, halfstrip as hs; hs.save_model(hs.uniformize(hs.build_retrial("
             f"{lam!r}, {mu!r}, {servers!r}, hs.RetrySchedule.parse({theta!r}))), sys.argv[1])")
    return [dict(timing, model={"arrival": lam, "service": mu, "servers": servers,
                                "retry": theta})
            for timing in time_runs(roots, [build] * len(roots), argv)]


def time_verify(roots):
    """``time_cli`` of ``verify`` on the c=32 retrial model at seed 1."""
    return [dict(timing, seed=VERIFY_SEED) for timing in time_cli(
        roots, VERIFY_MODEL, ["verify", "--seed", str(VERIFY_SEED), "--format", "json"])]


def time_full_support_verify(roots):
    """``time_runs`` of ``verify`` at seed 1 on the random full-support
    model at d = 24, each checkout's built by its own perfbench."""
    builds = [FULL_SUPPORT_BUILD.format(perfbench=str(Path(root) / "perfbench"))
              for root in roots]
    return [dict(timing, seed=VERIFY_SEED,
                 model={"workload": "_random", "rng": 5, "drawn": [2, 4, 8, 16, 24], "d": 24})
            for timing in time_runs(roots, builds,
                                    ["verify", "--seed", str(VERIFY_SEED), "--format", "json"])]


def time_c8_high(roots, command):
    """``time_cli`` of ``command`` on the c8_high retrial model at seed 1."""
    return [dict(timing, seed=VERIFY_SEED) for timing in time_cli(
        roots, C8_HIGH_MODEL, [command, "--seed", str(VERIFY_SEED), "--format", "json"])]


def time_simulate(roots):
    """``simulate`` on the c8_high model (``time_c8_high``)."""
    return time_c8_high(roots, "simulate")


def time_verify_c8_high(roots):
    """``verify`` on the c8_high model (``time_c8_high``), whose read-row
    descent is the largest exit walk of the oracle workload."""
    return time_c8_high(roots, "verify")


def time_prefix_stationary(roots):
    """``time_cli`` of ``stationary`` on the 512-level prefix model."""
    return time_cli(roots, PREFIX_MODEL, ["stationary", "--format", "json"])


def time_prefix_branching(roots):
    """Per checkout in ``roots``: median milliseconds of ``branching_data``
    on the 512-level prefix model over RUNS fresh interpreters importing
    that checkout's src, each run the median of CALLS in-process calls
    after one warm call; every run's figure is kept. The checkouts take
    turns run by run (``turns``)."""
    code = BRANCHING_TIMER.format(model=PREFIX_MODEL, calls=CALLS)
    runs = [[] for _ in roots]
    for run in range(RUNS):
        for i in turns(len(roots), run):
            runs[i].append(float(subprocess.run(
                [sys.executable, "-c", code], env=src_env(roots[i]), capture_output=True,
                text=True, check=True).stdout))
    lam, mu, servers, theta = PREFIX_MODEL
    return [{"ms": statistics.median(side), "runs": side, "calls": CALLS,
             "model": {"arrival": lam, "service": mu, "servers": servers, "retry": theta}}
            for side in runs]


def time_tests(root):
    """Wall seconds, exit code, summary line and ``[PASS]`` acceptance lines
    (with their measured errors) of one run of the tier-1 suite of the
    checkout ``root``, on its own src."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
        cwd=root, env=src_env(root), capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": wall, "exit": proc.returncode, "summary": lines[-1] if lines else "",
            "acceptance": [line for line in lines if line.startswith("[PASS]")]}


def src_lines(root):
    """Newline count (``wc -l``) of each ``src/halfstrip/*.py`` file of the
    checkout ``root``, by file name, and their total."""
    files = {path.name: path.read_bytes().count(b"\n")
             for path in sorted((Path(root) / "src" / "halfstrip").glob("*.py"))}
    return {"files": files, "total": sum(files.values())}


def write_entry(path, label, entry):
    """Store ``entry`` under ``label`` in the JSON file ``path``, keeping
    every other label."""
    path = Path(path)
    ledger = json.loads(path.read_text()) if path.exists() else {}
    ledger[label] = entry
    path.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="key of this entry, e.g. parent or change")
    ap.add_argument("--out", type=Path, required=True, help="ledger file, e.g. BENCH_18.json")
    ap.add_argument("--root", type=Path, default=ROOT, help="checkout to measure")
    ap.add_argument("--against", type=Path, default=None,
                    help="the parent commit's checkout, measured in turns with --root and "
                         "written under the label parent")
    args = ap.parse_args(argv)
    sides = [(args.label, args.root)]
    if args.against is not None:
        if args.label == "parent":
            ap.error("--label parent would overwrite the --against entry; choose another label")
        sides.insert(0, ("parent", args.against))
    roots = [root for _, root in sides]
    seconds = json.loads((args.root / "BENCHMARK.json").read_text())["run_seconds"]
    entries = [{"seed": SEED, "seconds": seconds, "cpu": cpu_model()} for _ in sides]
    # the perfbench runs, then the suite: one turn each, the first checkout
    # alternating from turn to turn
    for job, trace in enumerate((0, 1)):
        for i in turns(len(roots), job):
            workloads, machine = parse_run_output(run_perfbench(roots[i], seconds, trace))
            entries[i][f"trace{trace}"] = workloads
            entries[i]["machine"] = machine
    # each timer takes the checkouts and returns one timing per checkout
    timers = {"verify_c32": time_verify, "verify_c8_high": time_verify_c8_high,
              "verify_full_support_d24": time_full_support_verify,
              "simulate_c8_high": time_simulate, "stationary_prefix512": time_prefix_stationary,
              "branching_data_prefix512_ms": time_prefix_branching}
    for key, timer in timers.items():
        for entry, timing in zip(entries, timer(roots)):
            entry[key] = timing
    for i in turns(len(roots), 2):
        entries[i]["tier1"] = time_tests(roots[i])
    for (label, root), entry in zip(sides, entries):
        entry["src_lines"] = src_lines(root)
        write_entry(args.out, label, entry)
    return 0


if __name__ == "__main__":
    sys.exit(main())
