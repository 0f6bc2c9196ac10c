"""Tests of ``scripts/bench_grid.py``, the one script, run as a
subprocess; it times the public API.  The CLI runs the reproductions
(``tests/test_cli.py``)."""

import json
import os
import subprocess
import sys
from pathlib import Path

from logblocks.blocks import coinvariant_dims
from logblocks.curves import projective_line
from logblocks.vacore import HEISENBERG, VertexAlgebraInstance

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


def test_bench_grid_script(tmp_path):
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    run_script("bench_grid.py", "--truncate", "1", "2",
               "--case", "nodal:heisenberg:2", "--out", str(old))
    result = json.loads(old.read_text())
    cases = result["cases"]
    assert len(cases) == 12
    assert cases["p1-1:heisenberg:1"]["rows"] == [[0, 1, 0, 1, True],
                                                  [1, 1, 1, 0, False]]
    assert all(len(c["seconds"]) == 1 for c in cases.values())
    assert result.keys() == {"host", "cases"}

    out = run_script("bench_grid.py", "--case", "p1-2:virasoro:2",
                     "--out", str(new), "--compare", str(old))
    result = json.loads(new.read_text())
    shared = result["cases"]["p1-2:virasoro:2"]
    # only the rows and counts are compared; no seconds are copied from
    # the old file
    assert shared.keys() == {"seconds", "rows", "generator_count",
                             "dropped_applications"}
    assert shared["rows"] == cases["p1-2:virasoro:2"]["rows"]
    assert result.keys() == {"host", "cases"}
    assert out.startswith("p1-2:virasoro:2: ") and "baseline" not in out

    cases["p1-2:virasoro:2"]["rows"][2][2] += 1
    old.write_text(json.dumps({"cases": cases}))
    proc = spawn_script("bench_grid.py", "--case", "p1-2:virasoro:2",
                        "--out", str(new), "--compare", str(old))
    assert proc.returncode == 1
    assert "rows differ" in proc.stderr and "p1-2:virasoro:2" in proc.stderr


def test_bench_grid_compares_the_counts_an_old_file_has(tmp_path):
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    run_script("bench_grid.py", "--case", "p1-1:heisenberg:3",
               "--out", str(old))
    cases = json.loads(old.read_text())["cases"]
    case = cases["p1-1:heisenberg:3"]
    assert (case["generator_count"], case["dropped_applications"]) == \
        (42, 147)
    # a record of rows only still compares equal
    old.write_text(json.dumps({"cases": {"p1-1:heisenberg:3": {
        "rows": case["rows"]}}}))
    run_script("bench_grid.py", "--case", "p1-1:heisenberg:3",
               "--out", str(new), "--compare", str(old))
    for field in ("generator_count", "dropped_applications"):
        changed = dict(case, **{field: case[field] + 1})
        old.write_text(json.dumps({"cases": {"p1-1:heisenberg:3": changed}}))
        proc = spawn_script("bench_grid.py", "--case", "p1-1:heisenberg:3",
                            "--out", str(new), "--compare", str(old))
        assert proc.returncode == 1
        assert f"{field} differ from" in proc.stderr
        assert "rows" not in proc.stderr


def test_bench_grid_case_with_a_degree_bound(tmp_path):
    out = tmp_path / "bounded.json"
    run_script("bench_grid.py", "--case", "p1-2:heisenberg:04:00",
               "--case", "p1-2:heisenberg:4", "--out", str(out))
    cases = json.loads(out.read_text())["cases"]
    assert cases.keys() == {"p1-2:heisenberg:4:0", "p1-2:heisenberg:4"}
    for key, bounds in (("p1-2:heisenberg:4:0", {"max_deg": 0}),
                        ("p1-2:heisenberg:4", {})):
        report = coinvariant_dims(projective_line(2),
                                  VertexAlgebraInstance(HEISENBERG, 4),
                                  **bounds)
        assert cases[key]["rows"] == [list(r) for r in report.rows]
        assert (cases[key]["generator_count"],
                cases[key]["dropped_applications"]) == \
            (report.generator_count, report.dropped_applications)
    assert cases["p1-2:heisenberg:4:0"]["rows"] != \
        cases["p1-2:heisenberg:4"]["rows"]

    proc = spawn_script("bench_grid.py", "--case", "p1-2:heisenberg:4:0:1",
                        "--out", str(out))
    assert proc.returncode == 2
    assert "CURVE:ALGEBRA:N:MAX_DEG" in proc.stderr
