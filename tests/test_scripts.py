"""Smoke tests of the runnable scripts, each run as a subprocess on the
package in ``src`` (not an installed copy). The benchmark ledger script is
imported instead and fed canned benchmark output, since one real run takes
minutes."""
import csv
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import halfstrip as hs

ROOT = Path(__file__).resolve().parents[1]


def test_retrial_sweep_verdicts_follow_the_load():
    """A 7-point sweep puts its middle point within rounding of r_c = 1,
    where the exact drift of the stored floats is negative. The verdicts
    are exactly four positive-recurrent and three transient, no row at
    r_c > 1 claims positive recurrence, and a positive-recurrent row
    without a decay rate is named on stderr with the reason."""
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "scripts/retrial_sweep.py", "--points", "7"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rows = list(csv.DictReader(io.StringIO(proc.stdout)))
    assert [row["verdict"] for row in rows] == (
        4 * ["positive-recurrent"] + 3 * ["transient"])
    for row in rows:
        if row["verdict"] == "positive-recurrent" and not row["decay_rate"]:
            assert f"# lam {row['lam']}: " in proc.stderr, row
            assert "condition number" in proc.stderr
        if float(row["r_c"]) > 1.0:
            assert row["verdict"] != "positive-recurrent", row


def test_decay_profile_reads_chain_and_rate_model_files(tmp_path):
    """A saved rate model profiles as its uniformized chain, as the CLI
    reads it, and the c=1 retrial profile carries the closed-form limit
    log(2/3)."""
    env = dict(os.environ, PYTHONPATH="src")
    gen = hs.build_retrial(0.2, 0.5, 1, hs.RetrySchedule.parse("0.3"))
    outputs = []
    for name, model in [("generator", gen), ("chain", hs.as_chain(gen))]:
        path = tmp_path / f"{name}.json"
        hs.save_model(model, path)
        proc = subprocess.run(
            [sys.executable, "scripts/decay_profile.py", str(path), "--levels", "40"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    rows = list(csv.DictReader(io.StringIO(outputs[0])))
    assert [int(row["level"]) for row in rows] == list(range(1, 41))
    assert float(rows[-1]["limit"]) == pytest.approx(math.log(2.0 / 3.0), abs=1e-9)


def test_report_digests_lists_every_op_of_a_round(tmp_path):
    """One line per op of the critical round, in round order: seed, label,
    exit code 0, the SHA-256 digest of the report and its byte length."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "scripts/report_digests.py", "--workload", "critical",
         "--seeds", "1", "--workdir", str(tmp_path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split("\t") for line in proc.stdout.splitlines()]
    ops, _ = workloads.build("critical", hs, 1, tmp_path)
    assert [row[:3] for row in rows] == [["1", op.label, "0"] for op in ops]
    assert all(len(row[3]) == 64 and set(row[3]) <= set("0123456789abcdef") for row in rows)
    sizes = {row[1]: int(row[4]) for row in rows}
    assert all(size > 0 for size in sizes.values())
    assert sizes["stationary rc-1=-1.0e-03"] <= 2048


def test_report_digests_against_a_checkout_prints_only_differences(tmp_path):
    """Against this checkout every op matches: exit 0, nothing printed.
    Against a copy of its package whose version string differs every
    report differs: exit 1 and one line per op, with both codes, digests
    and lengths."""
    env = dict(os.environ, PYTHONPATH="src")
    argv = [sys.executable, "scripts/report_digests.py", "--workload", "critical",
            "--seeds", "1", "--workdir", str(tmp_path / "work"), "--against"]
    proc = subprocess.run(argv + [str(ROOT)], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=300)
    assert (proc.returncode, proc.stdout) == (0, ""), proc.stderr
    other = tmp_path / "other" / "src" / "halfstrip"
    other.mkdir(parents=True)
    for path in (ROOT / "src" / "halfstrip").glob("*.py"):
        text = path.read_text()
        if path.name == "__init__.py":
            text = text.replace(f'__version__ = "{hs.__version__}"', '__version__ = "0.0.0"')
        (other / path.name).write_text(text)
    proc = subprocess.run(argv + [str(tmp_path / "other")], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stderr
    rows = [line.split("\t") for line in proc.stdout.splitlines()]
    assert rows and all(len(row) == 8 and row[0] == "1" and row[3] != row[6] for row in rows)


def test_report_digests_full_support_group(tmp_path):
    """The full-support group verifies perfbench's random d = 8, 16 and 24
    models at each seed, one line per model, with verify's exit code: at
    seed 1 the d = 16 and d = 24 walks raise the known full-support false
    alarm (exit 5). Against this checkout nothing differs."""
    env = dict(os.environ, PYTHONPATH="src")
    argv = [sys.executable, "scripts/report_digests.py", "--workload", "full-support",
            "--seeds", "1", "--workdir", str(tmp_path)]
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split("\t") for line in proc.stdout.splitlines()]
    assert [row[:3] for row in rows] == [["1", "verify full_d8", "0"],
                                         ["1", "verify full_d16", "5"],
                                         ["1", "verify full_d24", "5"]]
    assert all(len(row[3]) == 64 and int(row[4]) > 0 for row in rows)
    for d in (8, 16, 24):
        assert hs.load_model(tmp_path / f"full_d{d}.json").d == d
    proc = subprocess.run(argv + ["--against", str(ROOT)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert (proc.returncode, proc.stdout) == (0, ""), proc.stderr


def test_exit_calibration_counts_cells_per_model():
    """Two seeds at 200 walks per phase, checked as verify checks them: one
    row per model, c1's check is skipped by the support rule, and c8_high
    and c16 walk and compare only the all-busy row read by an answer."""
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "scripts/exit_calibration.py", "--seeds", "2", "--samples", "200"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rows = {row["model"]: row for row in csv.DictReader(io.StringIO(proc.stdout))}
    assert list(rows) == ["c1", "c8_high", "c16"]
    c1 = rows["c1"]
    assert (c1["phases"], c1["cells"], c1["skipped"], c1["checks_failed"]) == ("", "0", "2", "0")
    for name, servers in (("c8_high", 8), ("c16", 16)):
        row = rows[name]
        assert (row["level"], row["phases"], row["skipped"]) == ("1", str(servers), "0")
        assert (row["estimates"], row["samples"]) == ("2", "200")
        failed = int(row["checks_failed"])
        assert 0 < int(row["cells"]) <= 2 * (servers + 1) and 0 <= failed <= 2
        assert float(row["failed_share"]) == pytest.approx(failed / 2, abs=1e-4)
        assert float(row["failed_lo"]) <= float(row["failed_share"]) <= float(row["failed_hi"])


# two workloads of a ``perfbench/run.py --workload all`` output, trimmed
CANNED_RUN = {
    0: """# halfstrip benchmark: workload=critical seed=1 seconds=0.0 trace=0
# machine: nproc=2 python=3.11.7 numpy=2.4.6 blas=scipy-openblas 0.3.31 OMP_NUM_THREADS=1
# 1 round(s) of 7 ops; closed loop, 1 client, in-process cli.main
metric setup_s 0.307 s median of 9 set-ups, at reference 0.5 ms
metric op_ms_geomean 4.947 ms n=7, all commands, at reference 0.5 ms
metric verify_s_p50 absent s command not in workload
metric ops_per_s 188.8 1/s 7 ops, at reference 0.5 ms
metric ops_failed 0 count
{"correct": true, "attempted": 34, "failed": 0, "metrics": {}}
# halfstrip benchmark: workload=oracle seed=1 seconds=0.0 trace=0
# machine: nproc=2 python=3.11.7 numpy=2.4.6 blas=scipy-openblas 0.3.31 OMP_NUM_THREADS=1
metric op_ms_geomean 183.9 ms n=6, all commands, at reference 0.5 ms
metric ops_per_s 4.24 1/s 6 ops, at reference 0.5 ms
{"correct": true, "attempted": 8, "failed": 0, "metrics": {}}
{"critical": {}, "oracle": {}}
""",
    1: """# halfstrip benchmark: workload=oracle seed=1 seconds=0.0 trace=1
# machine: nproc=2 python=3.11.7 numpy=2.4.6 blas=scipy-openblas 0.3.31 OMP_NUM_THREADS=1
metric ops_per_s 4.1 1/s 6 ops, at reference 0.5 ms
# oracle.simulate.steps: at most 2e+06 in one call
metric oracle.simulate.steps 1234567 count per op
metric linalg.invert.calls 59 count per op
{"correct": true, "attempted": 8, "failed": 0, "metrics": {}}
{"oracle": {}}
""",
}


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_record_keeps_every_metric_under_its_label(tmp_path, monkeypatch):
    """Canned output of both trace modes lands per workload, absent metrics
    as null, beside the machine note and the verify and prefix stationary
    timings; another label already in the ledger is kept."""
    record = _load_script("bench_record")
    monkeypatch.setattr(record, "run_perfbench",
                        lambda root, seconds, trace: CANNED_RUN[trace])
    monkeypatch.setattr(record, "time_verify", lambda root: {"wall_s": 21.5, "exit": 0})
    monkeypatch.setattr(record, "time_full_support_verify",
                        lambda root: {"wall_s": 0.9, "exit": 5})
    monkeypatch.setattr(record, "time_simulate", lambda root: {"wall_s": 0.4, "exit": 0})
    monkeypatch.setattr(record, "time_prefix_stationary",
                        lambda root: {"wall_s": 0.31, "exit": 0})
    monkeypatch.setattr(record, "time_prefix_branching", lambda root: {"ms": 4.9})
    tier1 = {"wall_s": 20.1, "exit": 0, "summary": "260 passed in 19.48s"}
    monkeypatch.setattr(record, "time_tests", lambda root: tier1)
    out = tmp_path / "BENCH_0.json"
    out.write_text(json.dumps({"parent": {"seed": 1}}))
    assert record.main(["--label", "change", "--out", str(out)]) == 0
    ledger = json.loads(out.read_text())
    assert ledger["parent"] == {"seed": 1}
    entry = ledger["change"]
    assert entry["trace0"] == {
        "critical": {"setup_s": [0.307, "s"], "op_ms_geomean": [4.947, "ms"],
                     "verify_s_p50": [None, "s"], "ops_per_s": [188.8, "1/s"],
                     "ops_failed": [0.0, "count"]},
        "oracle": {"op_ms_geomean": [183.9, "ms"], "ops_per_s": [4.24, "1/s"]},
    }
    assert entry["trace1"] == {"oracle": {"ops_per_s": [4.1, "1/s"],
                                          "oracle.simulate.steps": [1234567.0, "count"],
                                          "linalg.invert.calls": [59.0, "count"]}}
    assert entry["machine"].startswith("nproc=2 python=3.11.7")
    assert entry["verify_c32"] == {"wall_s": 21.5, "exit": 0}
    assert entry["verify_full_support_d24"] == {"wall_s": 0.9, "exit": 5}
    assert entry["simulate_c8_high"] == {"wall_s": 0.4, "exit": 0}
    assert entry["stationary_prefix512"] == {"wall_s": 0.31, "exit": 0}
    assert entry["branching_data_prefix512_ms"] == {"ms": 4.9}
    assert entry["tier1"] == tier1
    run_seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    assert (entry["seed"], entry["seconds"]) == (1, run_seconds)


def test_bench_record_counts_src_lines_under_root(tmp_path, monkeypatch):
    """Every entry records the ``wc -l`` line count of each
    ``src/halfstrip/*.py`` file of the --root checkout and their total;
    other files there are not counted."""
    record = _load_script("bench_record")
    monkeypatch.setattr(record, "run_perfbench",
                        lambda root, seconds, trace: CANNED_RUN[trace])
    for name in ("time_verify", "time_full_support_verify", "time_simulate",
                 "time_prefix_stationary", "time_prefix_branching", "time_tests"):
        monkeypatch.setattr(record, name, lambda root: {})
    root = tmp_path / "checkout"
    package = root / "src" / "halfstrip"
    package.mkdir(parents=True)
    (root / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 1}))
    (package / "a.py").write_text("x = 1\ny = 2\n")
    (package / "b.py").write_text("z = 3")  # no newline at the end: wc -l counts 0
    (package / "notes.txt").write_text("not\ncounted\n")
    out = tmp_path / "BENCH_0.json"
    assert record.main(["--root", str(root), "--label", "change", "--out", str(out)]) == 0
    entry = json.loads(out.read_text())["change"]
    assert entry["src_lines"] == {"files": {"a.py": 2, "b.py": 0}, "total": 2}
    assert entry["seconds"] == 1
    wc = subprocess.run(["wc", "-l", *sorted(map(str, package.glob("*.py")))],
                        capture_output=True, text=True, check=True).stdout
    assert wc.splitlines()[-1].split()[0] == "2"


def test_bench_record_times_verify_on_the_checkout(monkeypatch):
    """The verify timing runs its model build once and the CLI five times
    on the checkout's src, without starting them here: the build command
    writes the c=32 retrial model, and verify reads that file at seed 1.
    The median run is the timing, every run is kept, and one failed run
    makes the exit code nonzero."""
    record = _load_script("bench_record")
    commands, clock = [], [0.0]
    walls, codes = iter([3.0, 1.0, 2.0, 5.0, 4.0]), iter([0, 0, 5, 0, 0])

    def fake_run(cmd, env, **kwargs):
        commands.append(cmd)
        assert env["PYTHONPATH"] == str(ROOT / "src")
        if cmd[1] == "-c":
            return subprocess.CompletedProcess(cmd, 0)
        clock[0] += next(walls)
        return subprocess.CompletedProcess(cmd, next(codes), stdout="", stderr="")

    monkeypatch.setattr(record.subprocess, "run", fake_run)
    monkeypatch.setattr(record, "time", type("FakeTime", (), {
        "perf_counter": staticmethod(lambda: clock[0])}))
    timing = record.time_verify(ROOT)
    build, *verify = commands
    assert build[:2] == [sys.executable, "-c"]
    path = build[3]
    assert verify == [[sys.executable, "-m", "halfstrip", "verify", path, "--seed", "1",
                       "--format", "json"]] * 5
    assert timing["wall_s"] == 3.0 and timing["exit"] == 5
    assert timing["runs"] == [{"wall_s": w, "exit": c}
                              for w, c in [(3.0, 0), (1.0, 0), (2.0, 5), (5.0, 0), (4.0, 0)]]
    monkeypatch.setattr(sys, "argv", ["-c", str(ROOT / "no-such-dir" / "c32.json")])
    saved = []
    monkeypatch.setattr(hs, "save_model", lambda model, out: saved.append((model, out)))
    exec(build[2], {})
    (model, out), = saved
    assert out == sys.argv[1]
    assert model.d == 33 and timing["model"]["servers"] == 32


def test_bench_record_times_full_support_verify_on_the_checkout(monkeypatch):
    """The full-support timing builds perfbench's random d = 24 model from
    the checkout's perfbench and runs ``verify`` on it at seed 1, five
    times, on the checkout's src, without starting them here; a run's exit
    code 5 is kept."""
    record = _load_script("bench_record")
    commands = []

    def fake_run(cmd, env, **kwargs):
        commands.append(cmd)
        assert env["PYTHONPATH"] == str(ROOT / "src")
        return subprocess.CompletedProcess(cmd, 0 if cmd[1] == "-c" else 5, stdout="",
                                           stderr="")

    monkeypatch.setattr(record.subprocess, "run", fake_run)
    timing = record.time_full_support_verify(ROOT)
    build, *verify = commands
    path = build[3]
    assert verify == [[sys.executable, "-m", "halfstrip", "verify", path, "--seed", "1",
                       "--format", "json"]] * 5
    assert timing["exit"] == 5 and len(timing["runs"]) == 5 and timing["seed"] == 1
    monkeypatch.setattr(sys, "argv", ["-c", path])
    monkeypatch.setattr(sys, "path", list(sys.path))
    saved = []
    monkeypatch.setattr(hs, "save_model", lambda model, out: saved.append(model))
    exec(build[2], {})
    (model,) = saved
    assert model.d == timing["model"]["d"] == 24 and model.n_prefix == 4
    assert str(ROOT / "perfbench") in build[2]


def test_bench_record_times_simulate_on_the_checkout(monkeypatch):
    """The simulate timing builds the oracle workload's c8_high model and
    runs ``simulate`` on it at seed 1, five times through ``time_runs``, on
    the checkout's src, without starting them here; the median run is the
    timing and every run is kept."""
    record = _load_script("bench_record")
    commands, clock = [], [0.0]
    walls = iter([0.5, 0.3, 0.4, 0.7, 0.6])

    def fake_run(cmd, env, **kwargs):
        commands.append(cmd)
        assert env["PYTHONPATH"] == str(ROOT / "src")
        if cmd[1] != "-c":
            clock[0] += next(walls)
        return subprocess.CompletedProcess(cmd, 0, stdout="", stderr="")

    monkeypatch.setattr(record.subprocess, "run", fake_run)
    monkeypatch.setattr(record, "time", type("FakeTime", (), {
        "perf_counter": staticmethod(lambda: clock[0])}))
    timing = record.time_simulate(ROOT)
    build, *simulate = commands
    path = build[3]
    assert simulate == [[sys.executable, "-m", "halfstrip", "simulate", path, "--seed", "1",
                         "--format", "json"]] * 5
    assert timing["wall_s"] == 0.5 and timing["exit"] == 0 and len(timing["runs"]) == 5
    assert timing["seed"] == 1
    monkeypatch.setattr(sys, "argv", ["-c", path])
    saved = []
    monkeypatch.setattr(hs, "save_model", lambda model, out: saved.append(model))
    exec(build[2], {})
    (model,) = saved
    want = hs.uniformize(hs.build_retrial(1.5, 0.3, 8, hs.RetrySchedule.parse("0.3")))
    assert model.d == 9 and model.tail.up.tolist() == want.tail.up.tolist()
    assert timing["model"] == {"arrival": 1.5, "service": 0.3, "servers": 8, "retry": "0.3"}


def test_bench_record_times_prefix_stationary_on_the_checkout(monkeypatch):
    """The prefix timing builds the 512-level prefix model and runs
    ``stationary`` on it, both on the checkout's src, without starting them
    here."""
    record = _load_script("bench_record")
    commands = []

    def fake_run(cmd, env, **kwargs):
        commands.append(cmd)
        assert env["PYTHONPATH"] == str(ROOT / "src")
        return subprocess.CompletedProcess(cmd, 0, stdout="", stderr="")

    monkeypatch.setattr(record.subprocess, "run", fake_run)
    timing = record.time_prefix_stationary(ROOT)
    build, *stationary = commands
    path = build[3]
    assert stationary == [[sys.executable, "-m", "halfstrip", "stationary", path,
                           "--format", "json"]] * 5
    assert timing["exit"] == 0 and timing["model"]["retry"] == "0.3+0.3/n"
    assert len(timing["runs"]) == 5 and timing["wall_s"] >= 0.0
    monkeypatch.setattr(sys, "argv", ["-c", path])
    saved = []
    monkeypatch.setattr(hs, "save_model", lambda model, out: saved.append(model))
    exec(build[2], {})
    (model,) = saved
    assert (model.d, model.n_prefix) == (2, 512)


def test_bench_record_times_prefix_branching_data_on_the_checkout(monkeypatch, capsys):
    """The branching_data timing runs its timer five times, each in a fresh
    interpreter on the checkout's src, without starting them here, and
    keeps the median run and every run. The timer times CALLS calls on the
    512-level prefix model after one warm call and prints their median in
    milliseconds."""
    record = _load_script("bench_record")
    commands, printed = [], iter(["5.0\n", "3.0\n", "4.0\n", "9.0\n", "3.5\n"])

    def fake_run(cmd, env, **kwargs):
        commands.append(cmd)
        assert env["PYTHONPATH"] == str(ROOT / "src") and kwargs["check"]
        return subprocess.CompletedProcess(cmd, 0, stdout=next(printed), stderr="")

    monkeypatch.setattr(record.subprocess, "run", fake_run)
    timing = record.time_prefix_branching(ROOT)
    assert [cmd[:2] for cmd in commands] == [[sys.executable, "-c"]] * 5
    assert timing["ms"] == 4.0 and timing["runs"] == [5.0, 3.0, 4.0, 9.0, 3.5]
    assert timing["calls"] == record.CALLS == 50 and timing["model"]["retry"] == "0.3+0.3/n"
    calls = []
    branching_data = hs.branching_data
    monkeypatch.setattr(hs, "branching_data",
                        lambda model: calls.append(model) or branching_data(model))
    exec(commands[0][2], {})
    assert float(capsys.readouterr().out) > 0.0
    assert len(calls) == record.CALLS + 1
    assert (calls[0].d, calls[0].n_prefix) == (2, 512)


def test_bench_record_times_the_suite_on_the_checkout(monkeypatch):
    """The suite timing runs the tier-1 command in the checkout on its own
    src, without starting it here, and keeps pytest's summary line and
    every [PASS] acceptance line, in order."""
    record = _load_script("bench_record")
    acceptance = ["[PASS] 1. c=1 retrial decay 0.666666667 vs closed form (err 0.0e+00)",
                  "[PASS] 9. retry rate: level-300 log-rate within 0.0131 of log(2/3)"]
    stdout = "\n".join(["..F", "==== acceptance criteria ====", acceptance[0],
                        "  [PASS] indented, not an acceptance line", acceptance[1],
                        "FAILED tests/test_x.py::test_y - [PASS] in a message",
                        "1 failed, 2 passed in 0.50s"]) + "\n"

    def fake_run(cmd, cwd, env, **kwargs):
        assert cmd == [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
        assert cwd == ROOT and env["PYTHONPATH"] == str(ROOT / "src")
        return subprocess.CompletedProcess(cmd, 1, stdout=stdout, stderr="")

    monkeypatch.setattr(record.subprocess, "run", fake_run)
    timing = record.time_tests(ROOT)
    assert timing["exit"] == 1 and timing["wall_s"] >= 0.0
    assert timing["summary"] == "1 failed, 2 passed in 0.50s"
    assert timing["acceptance"] == acceptance
