"""Smoke tests for the command-line script under scripts/ and for ``python -m seqmeas``.

Each runs in a subprocess with tiny arguments, so a rename or a
deletion in the package that it still relies on fails here.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_python(*argv: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def run_script(name: str, *argv: str) -> str:
    return run_python(str(ROOT / "scripts" / name), *argv)


def test_python_m_seqmeas_runs_the_cli():
    out = run_python("-m", "seqmeas", "wavepacket", "--help")
    assert out.startswith("usage: seqmeas wavepacket")


def test_window_convergence_script():
    out = run_script("window_convergence.py", "--n-x", "2", "--n-p", "16")
    row = out.strip().splitlines()[-1].split()
    assert row[:2] == ["2", "16"]
    assert float(row[2]) == pytest.approx(1.3, abs=0.2)
