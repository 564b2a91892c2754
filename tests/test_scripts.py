"""Smoke tests for the command-line scripts under scripts/.

Each script runs in a subprocess with tiny arguments, so a rename or a
deletion in the package that a script still relies on fails here.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *argv: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_ensemble_sweep_script():
    out = run_script("ensemble_sweep.py", "--n", "1")
    rows = [line.split() for line in out.strip().splitlines()[1:]]
    assert [row[0] for row in rows] == ["local_canonical", "microcanonical",
                                        "grand_canonical", "periodic_thermo"]
    for row in rows:
        assert float(row[2]) < 1e-10  # max |identity - 1|


def test_entropy_curve_script(tmp_path):
    csv = tmp_path / "curve.csv"
    run_script("entropy_curve.py", "--points", "2", "--n-x", "6", "--n-p", "256",
               "--kernel-halfwidth", "8", "--t-max", "1e-3", "--out", str(csv))
    lines = csv.read_text().strip().splitlines()
    assert lines[0].startswith("t,S_p,S_phat")
    assert len(lines) == 3


def test_window_convergence_script():
    out = run_script("window_convergence.py", "--n-x", "2", "--n-p", "16")
    row = out.strip().splitlines()[-1].split()
    assert row[:2] == ["2", "16"]
    assert float(row[2]) == pytest.approx(1.3, abs=0.2)
