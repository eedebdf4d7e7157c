"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench``."""
import json
import shutil
import subprocess
import sys

import pytest

import run
import spans
import workloads

hs = run.load_package()


@pytest.fixture
def scalar_file(tmp_path):
    path = tmp_path / "scalar.json"
    hs.save_model(workloads._scalar(hs, 0.3, 0.7), path)
    return str(path)


def _op(command, path, **expect):
    return workloads.Op(command, command, (command, path, "--format", "json"), **expect)


def test_tracer_rebinds_every_namespace_and_restores(scalar_file):
    import halfstrip.branching
    import halfstrip.cli
    import halfstrip.linalg

    original = halfstrip.linalg.invert
    originals = spans.public_functions()
    tracer = spans.Tracer()
    tracer.install()
    try:
        for namespace in (halfstrip, halfstrip.linalg, halfstrip.branching):
            assert namespace.invert is not original
        assert halfstrip.cli.classify is not originals["classify.classify"]
        assert halfstrip.cli.branching_data is not originals["branching.branching_data"]
        run.Runner(halfstrip.cli).run(_op("classify", scalar_file))
    finally:
        tracer.remove()
    for namespace in (halfstrip, halfstrip.linalg, halfstrip.branching):
        assert namespace.invert is original
    assert halfstrip.cli.classify is originals["classify.classify"]
    recs = tracer.records
    # classify reaches invert only through branching's own binding of it
    assert recs["linalg.invert"].calls > 0
    depth = recs["branching.branching_data"]
    assert depth.counts["depth"] >= depth.peaks["depth"] >= 1
    assert recs["cli.main"].calls == 1


def test_self_times_add_up_to_the_op(scalar_file):
    import halfstrip.cli

    tracer = spans.Tracer()
    tracer.install()
    try:
        wall, _, _ = run.Runner(halfstrip.cli).run(_op("stationary", scalar_file))
    finally:
        tracer.remove()
    selfs = [rec.self_s for rec in tracer.records.values()]
    assert min(selfs) >= 0.0
    assert 0.8 * wall <= sum(selfs) <= wall


def test_gate_flags_wrong_outcomes(scalar_file):
    import halfstrip.cli

    runner = run.Runner(halfstrip.cli)
    runner.run(_op("classify", scalar_file, verdict="positive-recurrent"))
    runner.run(_op("decay", scalar_file, decay=0.3 / 0.7))
    assert (runner.attempted, runner.failed) == (2, 0)
    runner.run(_op("classify", scalar_file, verdict="transient"))
    runner.run(_op("decay", scalar_file, decay=0.5))
    runner.run(_op("classify", scalar_file + ".missing"))  # exit 1, no report
    assert runner.failed == 3


def test_runner_keeps_only_the_step_count(scalar_file):
    import halfstrip.cli

    runner = run.Runner(halfstrip.cli)
    op = workloads.Op("simulate", "simulate",
                      ("simulate", scalar_file, "--format", "json", "--seed", "1", "--cycles", "200"))
    _, nbytes, steps = runner.run(op)
    assert runner.failed == 0
    assert isinstance(steps, int) and steps > 0 and nbytes > 0
    assert runner.run(_op("classify", scalar_file))[2] is None


def test_gate_requires_byte_identical_repeats():
    class DriftingCli:
        calls = 0

        def main(self, argv):
            self.calls += 1
            print(json.dumps({"results": {"call": self.calls}, "checks": []}))
            return 0

    runner = run.Runner(DriftingCli())
    op = workloads.Op("drifting", "classify", ("classify", "model.json"))
    runner.run(op)
    runner.run(op)
    assert runner.failed == 1
    assert "differs" in runner.failures[0]


def test_p90_needs_a_hundred_samples():
    def plain(n):
        ops = [workloads.Op(c, c, (c,)) for c in workloads.COMMANDS["ladder"]]
        return [run.Sample(op, 0.001 * (i + 1), 10, None, run.REF_NOMINAL_S)
                for op in ops for i in range(n)]

    runner = run.Runner(None)
    short = run.end_to_end("ladder", plain(99), [(1.0, run.REF_NOMINAL_S)], runner)
    assert short["classify_ms_p90"][0] is None
    assert short["classify_ms_p50"][0] == pytest.approx(50.0)
    assert short["verify_s_p50"] == (None, "s", "command not in workload")
    full = run.end_to_end("ladder", plain(100), [(1.0, run.REF_NOMINAL_S)], runner)
    assert full["classify_ms_p90"][0] > full["classify_ms_p50"][0]


def test_times_are_scaled_by_the_reference():
    plain = []
    for command in workloads.COMMANDS["ladder"]:
        op = workloads.Op(command, command, (command,))
        plain.append(run.Sample(op, 0.010, 10, None, run.REF_NOMINAL_S))
        plain.append(run.Sample(op, 0.015, 10, None, 1.5 * run.REF_NOMINAL_S))
    assert plain[1].scaled == pytest.approx(plain[0].scaled) == pytest.approx(0.010)
    out = run.end_to_end("ladder", plain, [(2.0, 2 * run.REF_NOMINAL_S)], run.Runner(None))
    assert out["op_ms_geomean"][0] == pytest.approx(10.0)
    assert out["setup_s"][0] == pytest.approx(1.0)
    assert out["setup_s_raw"][0] == pytest.approx(2.0)
    assert 0.0 < run.reference_s() < 1.0


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(run.SPEC, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ladder", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no halfstrip sources" in proc.stderr


def test_self_check_passes():
    proc = subprocess.run([sys.executable, str(run.ROOT / "perfbench" / "run.py"), "--self-check"],
                          cwd=run.ROOT, capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout[-2000:]
    assert proc.stdout.strip().endswith("self-check passed")


def test_host_speed_ticks_during_ops_and_stops():
    import signal
    import time

    with run.HostSpeed() as speed:
        end = time.perf_counter() + 5 * run.SAMPLE_EVERY_S
        while time.perf_counter() < end:
            pass
    assert len(speed.refs) >= 2
    assert 0.0 < speed.spent < 5 * run.SAMPLE_EVERY_S
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
