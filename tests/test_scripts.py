"""Smoke tests of the runnable scripts, each run as a subprocess on the
package in ``src`` (not an installed copy)."""
import csv
import io
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_retrial_sweep_verdicts_follow_the_load():
    """A 7-point sweep puts its middle point within rounding of r_c = 1.
    Every positive-recurrent row must carry a decay rate, no row at
    r_c >= 1 may claim positive recurrence, and the verdicts are exactly
    three positive-recurrent, one null-recurrent, three transient."""
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "scripts/retrial_sweep.py", "--points", "7"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rows = list(csv.DictReader(io.StringIO(proc.stdout)))
    assert [row["verdict"] for row in rows] == (
        3 * ["positive-recurrent"] + ["null-recurrent"] + 3 * ["transient"])
    for row in rows:
        if row["verdict"] == "positive-recurrent":
            assert row["decay_rate"], row
        if float(row["r_c"]) >= 1.0:
            assert row["verdict"] != "positive-recurrent", row
