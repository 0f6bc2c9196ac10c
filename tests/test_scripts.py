"""Smoke test of the reproduction scripts, which call the public API."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name),
                           *args], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_nodal_vanishing_script():
    out = run_script("nodal_vanishing.py", "--truncate", "3", "--max-deg", "5")
    assert out.count("all zero: True") == 2


def test_p1_baseline_script():
    out = run_script("p1_baseline.py", "--truncate", "3")
    assert "total dimension: 1" in out
    assert "tables equal per degree: True" in out
