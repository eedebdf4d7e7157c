"""halfstrip benchmark: the CLI timed end to end, and each module from outside.

Run from the repository root:

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30   # each workload in a fresh process
    python3 perfbench/run.py --self-check                           # one round per workload and mode

The load is a closed loop with one client in one process: each op calls
``halfstrip.cli.main([...])`` in-process on model files written during
set-up, with ``--format json`` and stdout captured in memory, and the next
op is sent only after the previous one returns. Ops run in whole rounds
(every op of the workload once, in an order drawn from the seed) until
``--seconds`` have passed; at least one round always runs.

Every op is gated on its known outcome (exit code, verdict, closed-form
decay rate, deterministic verify checks, and byte-identical reports for
repeated ops); a gated op that misses counts in ``failed``. Statistical
verify checks are counted apart and never fail an op.

The host's CPU speed swings (the cores are shared), by tens of percent from
one second or minute to the next, and that moves every timing alike. So a
fixed reference task (a pure-Python float loop and small dense solves, the
program's own mix) is timed after every op and, from a timer signal, every
``SAMPLE_EVERY_S`` during one. Each op's time, less the time those timer
ticks took, is divided by the mean of the reference times just before,
during and after it. Timings are reported scaled to a host on which the
reference task takes ``REF_NOMINAL_S``; the raw figures are printed beside
them. A change to the program moves the op times and not the reference, so
the scaled figures move with it. Ticks that land in a traced function count
in its self time (about 1%).

``--trace 0`` times the program unwrapped and reports the end-to-end
metrics. ``--trace 1`` alternates plain and traced rounds: the traced ones
wrap every public function of the seven modules (see spans.py) and give the
per-layer metrics; the difference between the two is the tracing overhead.

Output: a report of ``metric <name> <value|absent> <unit> <note>`` lines,
then as the last line one JSON object with the keys correct, attempted,
failed and metrics, holding the end-to-end (or per-layer) metrics that
BENCHMARK.json lists.
"""
import os

# One BLAS/OpenMP thread, set before numpy is first imported, so the dense
# solves do not compete for the machine's cores with the closed loop itself.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORK = ROOT / ".bench_work"

SETUP_REPS = 9
P90_MIN_SAMPLES = 100  # ten samples beyond the 90th percentile
IMPORT_PROBE = "import sys; sys.path.insert(0, sys.argv[1]); import halfstrip.cli"
REF_NOMINAL_S = 0.5e-3  # the reference task's time on the nominal host
REF_MATRIX = np.eye(4) * 4.0 + np.arange(16.0).reshape(4, 4) / 16.0
SAMPLE_EVERY_S = 0.2  # the reference is also timed this often during an op

# the end-to-end report: (name, unit); per-command metrics are absent on
# workloads that do not run the command
REPORT_METRICS = (
    ("setup_s", "s"),
    ("op_ms_geomean", "ms"),
    ("setup_s_raw", "s"), ("op_ms_geomean_raw", "ms"), ("ops_per_s_raw", "1/s"),
    ("reference_ms", "ms"),
    ("classify_ms_p50", "ms"), ("classify_ms_p90", "ms"),
    ("stationary_ms_p50", "ms"), ("stationary_ms_p90", "ms"),
    ("decay_ms_p50", "ms"), ("decay_ms_p90", "ms"),
    ("verify_s_p50", "s"), ("verify_s_p90", "s"),
    ("simulate_steps_per_s", "1/s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("ops_attempted", "count"),
    ("ops_failed", "count"),
)


class Sample(NamedTuple):
    """One timed op: wall seconds, report bytes, simulated steps (or None),
    and the reference task's seconds around it."""

    op: workloads.Op
    wall: float
    nbytes: int
    steps: int | None
    ref: float

    @property
    def scaled(self):
        """Wall seconds scaled to the nominal host speed."""
        return self.wall * REF_NOMINAL_S / self.ref


def reference_s():
    """Seconds the fixed reference task takes now: the median of three runs.

    The first run after an op may find the caches holding the program's data;
    the median keeps that out, so a program that evicts more does not shrink
    its own scaled time."""
    rhs = np.ones(4)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0.0
        for i in range(2000):
            acc += math.sqrt(i * 1.5) % 3.0
        for _ in range(20):
            np.linalg.solve(REF_MATRIX, rhs)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class HostSpeed:
    """Reference timings taken from a timer signal while ops run, so a long
    op is scaled by the host's speed during it, not only at its ends."""

    def __init__(self):
        self.refs = []    # reference seconds, one per timer tick
        self.spent = 0.0  # seconds the ticks took, to take off the op times

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.refs.append(reference_s())
        self.spent += time.perf_counter() - start

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


class SetupError(Exception):
    """The checkout cannot be benchmarked (no sources, no BENCHMARK.json)."""


def load_spec():
    try:
        return json.loads(SPEC.read_text())
    except (OSError, ValueError) as exc:
        raise SetupError(f"cannot read {SPEC.name}: {exc}") from exc


def load_package():
    """Import halfstrip from this checkout's sources, never from elsewhere."""
    pkg = SRC / "halfstrip"
    if not (pkg / "__init__.py").is_file():
        raise SetupError(f"no halfstrip sources at {pkg.relative_to(ROOT)}")
    sys.path.insert(0, str(SRC))
    import halfstrip
    import halfstrip.cli  # noqa: F401
    if Path(halfstrip.__file__).resolve().parent != pkg.resolve():
        raise SetupError(f"imported halfstrip from {halfstrip.__file__}, not from {pkg}")
    return halfstrip


def machine_note():
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    threads = " ".join(f"{var}={os.environ[var]}" for var in THREAD_VARS)
    return (f"nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
            f"numpy={numpy.__version__} blas={blas} {threads}")


class Runner:
    """Runs ops through cli.main and gates each on its known outcome."""

    def __init__(self, cli):
        self.cli = cli
        self.first_output = {}
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.stat_checks_run = 0
        self.stat_checks_failed = collections.Counter()

    def run(self, op):
        """Run one op; returns (wall seconds, report bytes, simulated steps or None).

        The parsed report is dropped once it is checked, so the harness keeps
        nothing per op that would grow with the number of ops a run completes.
        """
        out, err = io.StringIO(), io.StringIO()
        crash = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli.main(list(op.argv))
            except Exception:  # a crashing op is a failed op, not a stopped run
                code, crash = None, traceback.format_exc(limit=4)
            wall = time.perf_counter() - start
        text = out.getvalue()
        self.attempted += 1
        steps = None
        if crash is not None:
            problem = "raised " + crash.strip().splitlines()[-1]
        else:
            try:
                report = json.loads(text)
            except ValueError:
                report = None
            problem = self._check(op, code, text, report, err.getvalue())
            if problem is None and op.command == "simulate":
                steps = report["results"]["total_steps"]
        if problem:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{op.label}: {problem}")
        return wall, len(text.encode()), steps

    def _check(self, op, code, text, report, err):
        digest = hashlib.sha256(text.encode()).hexdigest()
        if self.first_output.setdefault(op.argv, (code, digest)) != (code, digest):
            return "exit code or report differs from the first run of the same op"
        if report is None:
            return f"exit {code} without a JSON report: {err.strip()[:200]}"
        results, checks = report["results"], report["checks"]
        if op.verdict is not None and results.get("verdict") != op.verdict:
            return f"verdict {results.get('verdict')!r}, expected {op.verdict!r}"
        if op.decay is not None:
            rate = results["rate"] if op.command == "decay" else results["decay_rate"]
            if not (isinstance(rate, float) and abs(rate - op.decay) <= 1e-9):
                return f"decay rate {rate!r}, closed form {op.decay!r}"
        statistical = [c for c in checks
                       if "s.e." in str(c.get("context", {}).get("unit", ""))]
        self.stat_checks_run += len(statistical)
        self.stat_checks_failed.update((op.label, c["name"]) for c in statistical
                                       if c["status"] != "pass")
        failed = [c["name"] for c in checks if c["status"] != "pass" and c not in statistical]
        if failed:
            return f"deterministic checks failed: {', '.join(failed)}"
        if op.command == "simulate":
            wanted = report["inputs"]["cycles"]
            if results["cycles"] < wanted or results["discarded"]:
                return f"{results['cycles']} cycles ({results['discarded']} discarded), wanted {wanted}"
        expected = 0 if all(c["status"] == "pass" for c in checks) else 5
        if code != expected:
            return f"exit {code}, expected {expected}"
        return None


def set_up(hs, name, seed, workdir, runner):
    """One set-up: a fresh-interpreter import of the CLI, model construction
    and model-file writing, and one warm-up op per command. Returns
    (seconds, reference seconds around it, ops of one round)."""
    before = reference_s()
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], cwd=ROOT,
                   check=True, timeout=120, stdout=subprocess.DEVNULL)
    workdir.mkdir(parents=True, exist_ok=True)
    ops, warmups = workloads.build(name, hs, seed, workdir)
    for op in warmups:
        runner.run(op)
    elapsed = time.perf_counter() - start
    return elapsed, (before + reference_s()) / 2, ops


def percentile(values, which):
    if which == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=10)[-1]


def end_to_end(name, plain, setups, runner):
    """{metric: (value or None, unit, note)} over the plain (untraced) ops;
    setups holds (seconds, reference seconds) per set-up. Timings are scaled
    to the nominal host speed except the *_raw ones."""
    scaled = [s.scaled for s in plain]
    walls = [s.wall for s in plain]
    nominal = f"at reference {1e3 * REF_NOMINAL_S:g} ms"
    out = {
        "setup_s": (statistics.median(t * REF_NOMINAL_S / ref for t, ref in setups), "s",
                    f"median of {len(setups)} set-ups, {nominal}"),
        # every op kind weighs the same; a pooled median of a few discrete
        # op kinds jumps between neighbouring kinds from run to run
        "op_ms_geomean": (1e3 * statistics.geometric_mean(scaled), "ms",
                          f"n={len(scaled)}, all commands, {nominal}"),
        # ops over the time spent inside cli.main: the gate's own parsing
        # and hashing between ops is not the program's time
        "ops_per_s": (len(scaled) / sum(scaled), "1/s", f"{len(scaled)} ops, {nominal}"),
        "setup_s_raw": (statistics.median(t for t, _ in setups), "s", "unscaled"),
        "op_ms_geomean_raw": (1e3 * statistics.geometric_mean(walls), "ms", "unscaled"),
        "ops_per_s_raw": (len(walls) / sum(walls), "1/s", "unscaled"),
        "reference_ms": (1e3 * statistics.median(s.ref for s in plain), "ms",
                         "median reference task time around the ops"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
                        "fresh process per workload"),
        "ops_attempted": (runner.attempted, "count", "timed and warm-up ops"),
        "ops_failed": (runner.failed, "count", ""),
    }
    ran = workloads.COMMANDS[name]
    for command, scale, unit in (("classify", 1e3, "ms"), ("stationary", 1e3, "ms"),
                                 ("decay", 1e3, "ms"), ("verify", 1.0, "s")):
        times = [s.scaled * scale for s in plain if s.op.command == command]
        for q in (50, 90):
            key = f"{command}_{unit}_p{q}"
            if command not in ran:
                out[key] = (None, unit, "command not in workload")
            elif q == 90 and len(times) < P90_MIN_SAMPLES:
                out[key] = (None, unit, f"n={len(times)}<{P90_MIN_SAMPLES}")
            else:
                out[key] = (percentile(times, q), unit, f"n={len(times)}, {nominal}")
    sims = [s for s in plain if s.op.command == "simulate" and s.steps is not None]
    if "simulate" in ran and sims:
        out["simulate_steps_per_s"] = (sum(s.steps for s in sims) / sum(s.scaled for s in sims),
                                       "1/s", f"{len(sims)} simulate ops, {nominal}")
    else:
        out["simulate_steps_per_s"] = (None, "1/s", "command not in workload")
    return out


def per_layer(tracer, traced, plain, runner):
    """{metric: (value, unit, note)} from the traced ops; time and work
    counts are per op, averaged over the workload's traced ops; times are
    unscaled, except the tracing overhead."""
    n = len(traced)
    records = tracer.records
    empty = spans.Record()
    out = {}
    for fn in tracer.functions:
        rec = records.get(fn, empty)
        out[f"{fn}.calls"] = (rec.calls / n, "count", "")
        out[f"{fn}.self_ms"] = (1e3 * rec.self_s / n, "ms", "")
        for key in spans.COUNTERS.get(fn, ((), None))[0]:
            out[f"{fn}.{key}"] = (rec.counts.get(key, 0) / n, "count", "")
    inv = records.get("linalg.invert", empty)
    out["linalg.invert.us_per_call"] = (1e6 * inv.self_s / inv.calls if inv.calls else 0.0, "us", "")
    sim = records.get("oracle.simulate", empty)
    out["oracle.simulate.steps_per_s"] = (
        sim.counts.get("steps", 0) / sim.self_s if sim.self_s else 0.0, "1/s", "")
    est = records.get("oracle.estimate_exit_probability", empty)
    walks = est.counts.get("walks", 0)
    out["oracle.estimate_exit_probability.censored_share"] = (
        100.0 * est.counts.get("censored", 0) / walks if walks else 0.0, "%", "")
    traced_wall = sum(s.wall for s in traced)
    for layer in spans.LAYERS:
        busy = sum(rec.self_s for fn, rec in records.items() if fn.startswith(layer + "."))
        out[f"{layer}.self_share"] = (100.0 * busy / traced_wall, "%", "of traced op wall time")
    out["oracle.stat_checks_run"] = (runner.stat_checks_run, "count", "whole run")
    out["oracle.stat_checks_failed"] = (runner.stat_checks_failed.total(), "count", "whole run")
    out["cli.report_bytes"] = (sum(s.nbytes for s in traced) / n, "B", "")
    # scaled, so host drift between the plain and traced rounds cancels
    traced_scaled = sum(s.scaled for s in traced)
    plain_scaled = sum(s.scaled for s in plain)
    out["trace.overhead_pct"] = (100.0 * (traced_scaled - plain_scaled) / plain_scaled, "%",
                                 "traced minus plain, same ops, scaled")
    out["trace.overhead_ms_per_op"] = (1e3 * (traced_scaled - plain_scaled) / n, "ms", "scaled")
    return out


def print_peaks(tracer):
    """The largest value of each work count in a single call: the per-op
    averages of per_layer blur the one op kind that sets it."""
    for fn, rec in tracer.records.items():
        for key, value in rec.peaks.items():
            print(f"# {fn}.{key}: at most {value:g} in one call")


def emit(computed, spec_metrics):
    """The metrics object of the last line: exactly the metrics the spec lists."""
    out = {}
    for spec in spec_metrics:
        value, unit, _ = computed[spec["name"]]
        if unit != spec["unit"] or value is None:
            raise RuntimeError(f"metric {spec['name']}: got {value!r} {unit}, spec says {spec['unit']}")
        out[spec["name"]] = {"value": value, "unit": unit}
    return out


def print_metrics(computed, names):
    for name, _ in names:
        value, unit, note = computed[name]
        shown = "absent" if value is None else repr(value)
        print(f"metric {name} {shown} {unit} {note}".rstrip())


def run_workload(name, seed, seconds, trace):
    spec = load_spec()
    hs = load_package()
    print(f"# halfstrip benchmark: workload={name} seed={seed} seconds={seconds} trace={trace}")
    print(f"# machine: {machine_note()}")
    runner = Runner(sys.modules["halfstrip.cli"])
    workdir = WORK / f"{name}-{os.getpid()}"
    try:
        setups = []
        for _ in range(SETUP_REPS):
            elapsed, ref, ops = set_up(hs, name, seed, workdir, runner)
            setups.append((elapsed, ref))
        rng = random.Random(seed)
        tracer = spans.Tracer() if trace else None
        plain, traced = [], []
        start = time.perf_counter()
        rounds = 0
        ref = reference_s()

        def timed(op, into):
            nonlocal ref
            ticks, spent = len(speed.refs), speed.spent
            wall, nbytes, steps = runner.run(op)
            during = speed.refs[ticks:]
            wall -= speed.spent - spent
            after = reference_s()
            into.append(Sample(op, wall, nbytes, steps, statistics.mean([ref, after, *during])))
            ref = after

        with HostSpeed() as speed:
            while True:
                order = rng.sample(ops, len(ops))
                for op in order:
                    timed(op, plain)
                if tracer is not None:
                    tracer.install()
                    try:
                        for op in order:
                            timed(op, traced)
                    finally:
                        tracer.remove()
                rounds += 1
                if time.perf_counter() - start >= seconds:
                    break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    print(f"# {rounds} round(s) of {len(ops)} ops; closed loop, 1 client, in-process cli.main"
          + ("; each round run plain, then traced" if trace else ""))
    for line in runner.failures:
        print(f"FAILED {line}")
    for (label, check), count in sorted(runner.stat_checks_failed.items()):
        print(f"# statistical check {check} failed in {count} run(s) of {label} (not an op failure)")
    computed = end_to_end(name, plain, setups, runner)
    print_metrics(computed, REPORT_METRICS)
    if trace:
        computed = per_layer(tracer, traced, plain, runner)
        print_peaks(tracer)
        print_metrics(computed, [(m["name"], m["unit"]) for m in spec["per_layer"]])
    metrics = emit(computed, spec["per_layer" if trace else "end_to_end"])
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))


def run_child(name, seed, seconds, trace):
    """Run one workload in a fresh interpreter; returns (exit code, stdout)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout


def run_all(seed, seconds, trace):
    results = {}
    status = 0
    for name in workloads.NAMES:
        code, out = run_child(name, seed, seconds, trace)
        sys.stdout.write(out)
        if code != 0:
            status = code
            continue
        results[name] = json.loads(out.strip().splitlines()[-1])
    print(json.dumps(results))
    return status


def check_child(name, trace, code, out, spec):
    """Problems in one workload's output, as a list of strings."""
    if code != 0:
        return [f"{name} trace={trace}: exit {code}"]
    lines = out.strip().splitlines()
    problems = []
    try:
        last = json.loads(lines[-1])
    except (IndexError, ValueError):
        return [f"{name} trace={trace}: no JSON last line"]
    if set(last) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"last line keys {sorted(last)}")
    if last.get("correct") is not True or last.get("failed") != 0 or not last.get("attempted"):
        problems.append(f"correct={last.get('correct')} failed={last.get('failed')} "
                        f"attempted={last.get('attempted')}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    got = last.get("metrics", {})
    if set(got) != {m["name"] for m in wanted}:
        problems.append(f"metrics differ from the spec: {sorted(set(got) ^ {m['name'] for m in wanted})}")
    for m in wanted:
        entry = got.get(m["name"], {})
        if entry.get("unit") != m["unit"] or not isinstance(entry.get("value"), (int, float)):
            problems.append(f"metric {m['name']}: {entry}")
    printed = {}
    for line in lines:
        parts = line.split(maxsplit=4)
        if len(parts) >= 4 and parts[0] == "metric":
            printed[parts[1]] = (parts[2], parts[3], parts[4] if len(parts) > 4 else "")
    expected = list(REPORT_METRICS)
    if trace:
        expected += [(m["name"], m["unit"]) for m in spec["per_layer"]]
    for metric, unit in expected:
        if metric not in printed:
            problems.append(f"{metric} not printed")
            continue
        shown, shown_unit, note = printed[metric]
        if shown_unit != unit:
            problems.append(f"{metric} printed with unit {shown_unit}, not {unit}")
        if shown == "absent" and not allowed_absent(name, metric, note):
            problems.append(f"{metric} absent ({note})")
    return [f"{name} trace={trace}: {p}" for p in problems]


def allowed_absent(name, metric, note):
    """A metric may be absent only for a command the workload does not run,
    or as a p90 with fewer samples than it needs."""
    command = metric.split("_")[0]
    if command in ("classify", "stationary", "decay", "verify", "simulate"):
        if command not in workloads.COMMANDS[name]:
            return note == "command not in workload"
        return metric.endswith("_p90") and note.endswith(f"<{P90_MIN_SAMPLES}")
    return False


def self_check():
    """One round of each workload in each mode, each in a fresh process;
    checks the output format against the spec. Returns an exit code."""
    spec = load_spec()
    problems = []
    for name in workloads.NAMES:
        for trace in (0, 1):
            code, out = run_child(name, 1, 0, trace)
            problems += check_child(name, trace, code, out, spec)
            print(f"self-check {name} trace={trace}: exit {code}")
    for problem in problems:
        print(f"PROBLEM {problem}")
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run every workload once in both modes and check the output")
    args = parser.parse_args(argv)
    try:
        if args.self_check:
            return self_check()
        if args.workload == "all":
            return run_all(args.seed, args.seconds, args.trace)
        run_workload(args.workload, args.seed, args.seconds, args.trace)
        return 0
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
