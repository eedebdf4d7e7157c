#!/usr/bin/env python3
"""Record one checkout's benchmark figures under a label in a ledger file.

Runs ``perfbench/run.py --workload all`` of the checkout at --root twice,
at seed 1 and the run length BENCHMARK.json sets, with ``--trace 0``
(end-to-end metrics) and ``--trace 1`` (per-layer metrics), times
``halfstrip verify`` on the retrial model c=32 (lambda 6, mu 0.3, theta
0.3, seed 1) and ``halfstrip stationary`` on the 512-level prefix model
(retrial c=1, lambda 0.2, mu 0.5, theta 0.3+0.3/n), each RUNS times in a
fresh interpreter, keeping every run and their median, times ``verify``
at seed 1 on perfbench's random full-support model at d = 24 the same
way, keeping its exit code (5 expected: the known full-support false
alarm), times ``simulate`` at seed 1 on the oracle workload's c8_high
model (retrial c=8, lambda 1.5, mu 0.3, theta 0.3) the same way, times
``branching_data`` on that prefix model in process the
same way (each run the median of CALLS calls after one warm call), and
times the checkout's tier-1 suite (``python -m pytest -q
--continue-on-collection-errors``), keeping the acceptance lines it
prints, so that a speed claim shows in the same file that no acceptance
error grew. It also counts the lines of
``src/halfstrip/*.py`` per file and in total, as ``wc -l`` counts them, so
that the package's size sits beside its timings.
Every ``metric`` line the runs print is kept per workload, with its unit,
beside the machine note, and the whole entry is written under the --label
key of the JSON file --out; other labels in that file are kept. To compare
two commits, run it once on a checkout of each with the same --out:

    python3 scripts/bench_record.py --root ../parent --label parent --out BENCH_20.json
    python3 scripts/bench_record.py --label change --out BENCH_20.json
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
SIMULATE_MODEL = (1.5, 0.3, 8, "0.3")
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


def time_runs(root, build, argv):
    """Median wall seconds over RUNS runs of one ``halfstrip`` command,
    ``argv`` with the model path after its first word, on the model file
    the Python code ``build`` writes to its first argument, each in a fresh
    interpreter importing ``root``'s src; every run's seconds and exit code,
    and the largest exit code."""
    env = dict(os.environ, PYTHONPATH=str(Path(root) / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "model.json")
        subprocess.run([sys.executable, "-c", build, path], env=env, check=True)
        runs = []
        for _ in range(RUNS):
            start = time.perf_counter()
            proc = subprocess.run([sys.executable, "-m", "halfstrip", argv[0], path, *argv[1:]],
                                  env=env, capture_output=True, text=True)
            runs.append({"wall_s": time.perf_counter() - start, "exit": proc.returncode})
    return {"wall_s": statistics.median(run["wall_s"] for run in runs),
            "exit": max(run["exit"] for run in runs), "runs": runs}


def time_cli(root, model, argv):
    """``time_runs`` of ``argv`` on the uniformized retrial ``model``
    (arrival, service, servers, retry schedule)."""
    lam, mu, servers, theta = model
    build = ("import sys, halfstrip as hs; hs.save_model(hs.uniformize(hs.build_retrial("
             f"{lam!r}, {mu!r}, {servers!r}, hs.RetrySchedule.parse({theta!r}))), sys.argv[1])")
    return dict(time_runs(root, build, argv),
                model={"arrival": lam, "service": mu, "servers": servers, "retry": theta})


def time_verify(root):
    """``time_cli`` of ``verify`` on the c=32 retrial model at seed 1."""
    timing = time_cli(root, VERIFY_MODEL,
                      ["verify", "--seed", str(VERIFY_SEED), "--format", "json"])
    return dict(timing, seed=VERIFY_SEED)


def time_full_support_verify(root):
    """``time_runs`` of ``verify`` at seed 1 on the random full-support
    model at d = 24, built by ``root``'s perfbench."""
    build = FULL_SUPPORT_BUILD.format(perfbench=str(Path(root) / "perfbench"))
    timing = time_runs(root, build, ["verify", "--seed", str(VERIFY_SEED), "--format", "json"])
    return dict(timing, seed=VERIFY_SEED,
                model={"workload": "_random", "rng": 5, "drawn": [2, 4, 8, 16, 24], "d": 24})


def time_simulate(root):
    """``time_cli`` of ``simulate`` on the c8_high retrial model at seed 1."""
    timing = time_cli(root, SIMULATE_MODEL,
                      ["simulate", "--seed", str(VERIFY_SEED), "--format", "json"])
    return dict(timing, seed=VERIFY_SEED)


def time_prefix_stationary(root):
    """``time_cli`` of ``stationary`` on the 512-level prefix model."""
    return time_cli(root, PREFIX_MODEL, ["stationary", "--format", "json"])


def time_prefix_branching(root):
    """Median milliseconds of ``branching_data`` on the 512-level prefix
    model over RUNS fresh interpreters importing ``root``'s src, each run
    the median of CALLS in-process calls after one warm call; every run's
    figure is kept."""
    env = dict(os.environ, PYTHONPATH=str(Path(root) / "src"))
    code = BRANCHING_TIMER.format(model=PREFIX_MODEL, calls=CALLS)
    runs = [float(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                 text=True, check=True).stdout)
            for _ in range(RUNS)]
    lam, mu, servers, theta = PREFIX_MODEL
    return {"ms": statistics.median(runs), "runs": runs, "calls": CALLS,
            "model": {"arrival": lam, "service": mu, "servers": servers, "retry": theta}}


def time_tests(root):
    """Wall seconds, exit code, summary line and ``[PASS]`` acceptance lines
    (with their measured errors) of one run of the tier-1 suite of the
    checkout ``root``, on its own src."""
    env = dict(os.environ, PYTHONPATH=str(Path(root) / "src"))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
        cwd=root, env=env, capture_output=True, text=True)
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
    args = ap.parse_args(argv)
    seconds = json.loads((args.root / "BENCHMARK.json").read_text())["run_seconds"]
    entry = {"seed": SEED, "seconds": seconds, "cpu": cpu_model()}
    for trace in (0, 1):
        workloads, machine = parse_run_output(run_perfbench(args.root, seconds, trace))
        entry[f"trace{trace}"] = workloads
        entry["machine"] = machine
    entry["verify_c32"] = time_verify(args.root)
    entry["verify_full_support_d24"] = time_full_support_verify(args.root)
    entry["simulate_c8_high"] = time_simulate(args.root)
    entry["stationary_prefix512"] = time_prefix_stationary(args.root)
    entry["branching_data_prefix512_ms"] = time_prefix_branching(args.root)
    entry["tier1"] = time_tests(args.root)
    entry["src_lines"] = src_lines(args.root)
    write_entry(args.out, args.label, entry)
    return 0


if __name__ == "__main__":
    sys.exit(main())
