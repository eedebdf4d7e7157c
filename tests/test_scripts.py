"""Smoke tests of the runnable scripts, each run as a subprocess on the
package in ``src`` (not an installed copy)."""
import csv
import io
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


def test_exit_calibration_counts_cells_per_model():
    """Two seeds at 200 walks per phase: one row per model, c1's exits are
    all 0 or 1 and compare no cell, c8_high compares some, and the shares
    agree with their counts."""
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "scripts/exit_calibration.py", "--seeds", "2", "--samples", "200"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rows = {row["model"]: row for row in csv.DictReader(io.StringIO(proc.stdout))}
    assert list(rows) == ["c1", "c8_high"]
    assert rows["c1"]["cells"] == "0" and rows["c1"]["checks_failed"] == "0"
    row = rows["c8_high"]
    assert (row["estimates"], row["samples"]) == ("2", "200")
    cells, over = int(row["cells"]), int(row["over_3se"])
    assert 0 < cells <= 2 * 81 and 0 <= over <= cells
    assert float(row["share"]) == pytest.approx(over / cells, abs=1e-5)
    assert float(row["share_lo"]) <= float(row["share"]) <= float(row["share_hi"])
