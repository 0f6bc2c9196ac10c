"""Smoke test of the reproduction scripts, which call the public API."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def spawn_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name),
                           *args], capture_output=True, text=True, env=env,
                          timeout=120)


def run_script(name, *args):
    proc = spawn_script(name, *args)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_nodal_vanishing_script():
    out = run_script("nodal_vanishing.py", "--truncate", "3", "--max-deg", "5")
    assert out.count("all zero: True") == 2


def test_p1_baseline_script():
    out = run_script("p1_baseline.py", "--truncate", "3")
    assert "total dimension: 1" in out
    assert "tables equal per degree: True" in out


def test_bench_grid_script(tmp_path):
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    run_script("bench_grid.py", "--truncate", "1", "2",
               "--case", "nodal:heisenberg:2", "--import-runs", "2",
               "--out", str(old))
    result = json.loads(old.read_text())
    cases = result["cases"]
    assert len(cases) == 12
    assert cases["p1-1:heisenberg:1"]["rows"] == [[0, 1, 0, 1, True],
                                                  [1, 1, 1, 0, False]]
    assert all(len(c["seconds"]) == 1 for c in cases.values())
    imports = result["import_seconds"]
    assert len(imports) == 2 and all(0 < s < 60 for s in imports)

    out = run_script("bench_grid.py", "--case", "p1-2:virasoro:2",
                     "--import-runs", "1", "--out", str(new),
                     "--compare", str(old))
    result = json.loads(new.read_text())
    shared = result["cases"]["p1-2:virasoro:2"]
    assert shared["baseline_seconds"] == cases["p1-2:virasoro:2"]["seconds"]
    assert len(result["import_seconds"]) == 1
    assert result["baseline_import_seconds"] == imports
    assert out.startswith("import logblocks.cli: ") and "(baseline " in out

    cases["p1-2:virasoro:2"]["rows"][2][2] += 1
    old.write_text(json.dumps({"cases": cases}))
    proc = spawn_script("bench_grid.py", "--case", "p1-2:virasoro:2",
                        "--out", str(new), "--compare", str(old))
    assert proc.returncode == 1
    assert "rows differ" in proc.stderr and "p1-2:virasoro:2" in proc.stderr
    assert "import_seconds" not in json.loads(new.read_text())
