"""Benchmark of the logblocks CLI on three fixed problems from the paper.

    python3 perfbench/run.py --workload nodal-heis --seed 1 --seconds 20 \
        --trace 0

Closed loop, one client: each solve runs ``logblocks.cli.main(argv)`` in a
fresh interpreter (``worker.py``), and the next solve starts when it ends.
Solves start while the median solve still fits in ``--seconds``, and at
least ``MIN_SOLVES`` run.  With ``--trace 0`` the run reports the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` it alternates
untraced and traced solves and reports the per-layer metrics.  The inputs
are fixed, so ``--seed`` changes no input; it is recorded.  The last stdout
line is the JSON result; the line before it gives the samples behind each
median.  Exits 1 without a result when ``logblocks`` cannot be imported
from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from worker import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_PROBES = 7  # import-only interpreters per untraced run
MIN_SOLVES = 3
WORKER_TIMEOUT_S = 150  # a run must end within 180 s
REF_LOOP_N = 150_000


def median(values):
    return statistics.median(values) if values else None


def quartiles(values):
    """(Q1, median, Q3) as statistics.quantiles(values, n=4) gives them."""
    return tuple(statistics.quantiles(values, n=4))


def ref_loop() -> float:
    """Seconds for a fixed pure-Python loop: the host's speed right now.

    It sums Fractions into a dict, as a solve does, so it slows down with
    the host's caches and memory as well as with its cores.
    """
    start = time.perf_counter()
    acc = {}
    for i in range(REF_LOOP_N):
        key = i % 4099
        acc[key] = acc.get(key, 0) + Fraction(i % 11, 1 + i % 13)
    return time.perf_counter() - start


def spawn(workload, mode, timeout):
    """Run one worker; its JSON result, or a dict holding a failure."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", workload, "--mode", mode]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"failure": f"{mode} timed out after {timeout:.0f} s"}
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return {"failure": f"{mode} worker exited {proc.returncode}"}
    return json.loads(lines[-1])


def import_seconds(workload):
    """Seconds a fresh interpreter takes to import logblocks.cli."""
    probe = spawn(workload, "setup", WORKER_TIMEOUT_S)
    if "failure" in probe:
        sys.exit(f"cannot import logblocks from {ROOT / 'src'}: "
                 f"{probe['failure']}")
    return probe["setup_s"]


def medians(results, key):
    """Median of each metric over the results; None if any is missing."""
    out = {}
    for r in results:
        for name, value in r[key].items():
            out.setdefault(name, []).append(value)
    return {name: None if None in values else statistics.median(values)
            for name, values in out.items()}


def run(workload, seconds, traced):
    """(samples record, metric values, attempted, failure messages)."""
    ref_before = ref_loop()
    import_seconds(workload)  # may compile bytecode, so it is not counted
    setups = ([] if traced else
              [import_seconds(workload) for _ in range(SETUP_PROBES)])

    solves, layers, walls, failures = [], [], [], []
    begin = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - begin
        if len(walls) >= MIN_SOLVES and elapsed + median(walls) > seconds:
            break
        mode = "traced" if traced and len(walls) % 2 else "solve"
        start = time.perf_counter()
        res = spawn(workload, mode, max(10.0, WORKER_TIMEOUT_S - elapsed))
        walls.append(time.perf_counter() - start)
        if res.get("failure"):
            failures.append(res["failure"])
            if len(failures) == MIN_SOLVES:
                break  # a broken program gets no more tries
        elif mode == "traced":
            layers.append(res)
        else:
            solves.append(res)
            setups.append(res["setup_s"])
    ref_after = ref_loop()

    solve_s = median([r["solve_s"] for r in solves])
    if traced:
        values = medians(layers, "layers")
        traced_s = median([r["solve_s"] for r in layers])
        values["trace.solve_s"] = traced_s
        values["trace.overhead_frac"] = (
            None if traced_s is None or solve_s is None
            else traced_s / solve_s - 1)
        values["host.ref_loop_s"] = (ref_before + ref_after) / 2
    else:
        values = {"solve_s": solve_s, "setup_s": median(setups),
                  "peak_rss_mb": median([r["peak_rss_mb"] for r in solves])}
    samples = {"solves": len(solves), "traced_solves": len(layers),
               "setup_samples": len(setups),
               "solve_s_samples": [r["solve_s"] for r in solves],
               "solve_s_quartiles": (quartiles([r["solve_s"] for r in solves])
                                     if len(solves) > 1 else None),
               "host.ref_loop_s": [ref_before, ref_after]}
    return samples, values, len(walls), failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="recorded only: the workloads are fixed")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "logblocks" / "cli.py").is_file():
        sys.exit(f"no logblocks sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if args.trace else "end_to_end"]

    samples, values, attempted, failures = run(args.workload, args.seconds,
                                                bool(args.trace))
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, **samples, "failures": failures}))
    print(json.dumps({
        "correct": not failures, "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values.get(m["name"]),
                                "unit": m["unit"]} for m in listed}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
