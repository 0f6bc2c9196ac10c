"""One solve of one workload in this fresh interpreter, so the algebra caches
start cold as in a user's CLI run.

    python3 perfbench/worker.py --workload nodal-heis --mode solve

Modes: ``setup`` only imports ``logblocks.cli``; ``solve`` also runs
``logblocks.cli.main(argv)`` with stdout captured and compares it byte for
byte with the output pinned under ``expected/``; ``traced`` does the same
under the layer tracer.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

from layers import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
EXPECTED = HERE / "expected"

# The problems are fixed by the paper; see README.md for why each was chosen.
WORKLOADS = {
    "nodal-heis": ["coinv", "--curve", "nodal", "--va", "heisenberg",
                   "--truncate", "6", "--format", "csv"],
    "nodal-vir": ["coinv", "--curve", "nodal", "--va", "virasoro",
                  "--central-charge", "1/2", "--truncate", "8",
                  "--format", "csv"],
    "p1-propagate": ["propagate", "--curve", "p1", "--va", "heisenberg",
                     "--truncate", "5"],
}


def compare(expected: bytes, actual: bytes, exit_code, error=None):
    """Why a solve failed, or None when it exited 0 with the pinned bytes."""
    if error is not None:
        return f"raised {error}"
    if exit_code != 0:
        return f"exit code {exit_code}"
    if actual != expected:
        at = next((i for i, (a, b) in enumerate(zip(expected, actual))
                   if a != b), min(len(expected), len(actual)))
        return f"stdout differs from the pinned output at byte {at}"
    return None


def solve(cli, argv, tracer=None):
    """(exit code, captured stdout bytes, error text, wall seconds)."""
    out = io.StringIO()
    code, error = None, None
    with tracer or contextlib.nullcontext():
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(list(argv))
        except Exception as exc:  # a crash is a failed solve, not ours
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    return code, out.getvalue().encode(), error, seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "solve", "traced"))
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    from logblocks import cli
    setup_s = time.perf_counter() - start
    if Path(cli.__file__).resolve().parent.parent != SRC:
        sys.exit(f"imported logblocks from {cli.__file__}, not {SRC}")
    result = {"setup_s": setup_s}
    if args.mode != "setup":
        tracer = Tracer() if args.mode == "traced" else None
        code, out, error, seconds = solve(cli, WORKLOADS[args.workload],
                                          tracer)
        expected = (EXPECTED / f"{args.workload}.out").read_bytes()
        result["solve_s"] = seconds
        result["failure"] = compare(expected, out, code, error)
        # ru_maxrss is in KiB on Linux
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        if tracer is not None:
            result["layers"] = layer_metrics(tracer, seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
