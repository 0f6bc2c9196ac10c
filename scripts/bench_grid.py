"""Time coinvariant_dims over a grid of curves, algebras and truncations.

    python scripts/bench_grid.py --truncate 1 2 3 4 5 6 \
        --case nodal:heisenberg:8 --repeat 3 --out new.json --compare old.json

The grid is every curve (nodal, p1 with one point, p1 with two points) times
every algebra (Heisenberg, Virasoro at c = 1/2) times every --truncate value;
each --case CURVE:ALGEBRA:N adds one more case.  Every solve runs on a fresh
algebra, so no mode cache is warm, with the default form bounds and the N-1
stability solve.  A repeat runs every case once, so a slow spell of the host
is spread over all cases.

The JSON written to --out holds the host and, per case, the seconds of each
repeat and the dimension table rows.  With --compare OLD.json, each case that
OLD also has gets OLD's seconds as baseline_seconds, and the script exits 1
when the rows of any such case differ from OLD's.
"""

import argparse
import json
import os
import platform
import statistics
import sys
import time
from fractions import Fraction

from logblocks.blocks import coinvariant_dims
from logblocks.curves import nodal_pair, projective_line
from logblocks.vacore import HEISENBERG, VIRASORO, VertexAlgebraInstance

CURVES = {"nodal": nodal_pair, "p1-1": lambda: projective_line(1),
          "p1-2": lambda: projective_line(2)}
ALGEBRAS = {"heisenberg": (HEISENBERG, None),
            "virasoro": (VIRASORO, Fraction(1, 2))}


def case_key(text):
    curve, algebra, n = text.split(":")
    if curve not in CURVES or algebra not in ALGEBRAS:
        raise argparse.ArgumentTypeError(
            f"expected CURVE:ALGEBRA:N with CURVE in {sorted(CURVES)} and "
            f"ALGEBRA in {sorted(ALGEBRAS)}, got {text!r}")
    return f"{curve}:{algebra}:{int(n)}"


def solve(key):
    """(seconds, rows) of one solve on a fresh algebra."""
    curve, algebra, n = key.split(":")
    kind, c = ALGEBRAS[algebra]
    start = time.perf_counter()
    report = coinvariant_dims(CURVES[curve](),
                              VertexAlgebraInstance(kind, int(n), c))
    return time.perf_counter() - start, [list(r) for r in report.rows]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--truncate", type=int, nargs="*", default=[],
                        help="truncations N of the full grid")
    parser.add_argument("--case", type=case_key, action="append", default=[],
                        help="one more case, as CURVE:ALGEBRA:N")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out", required=True)
    parser.add_argument("--compare", metavar="OLD.json")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")

    keys = [f"{curve}:{algebra}:{n}" for n in args.truncate
            for curve in CURVES for algebra in ALGEBRAS]
    cases = {k: {"seconds": [], "rows": None} for k in keys + args.case}
    for _ in range(args.repeat):
        for key, case in cases.items():
            seconds, case["rows"] = solve(key)
            case["seconds"].append(round(seconds, 4))

    differ = []
    if args.compare:
        with open(args.compare) as f:
            old = json.load(f)["cases"]
        for key in cases.keys() & old.keys():
            cases[key]["baseline_seconds"] = old[key]["seconds"]
            if cases[key]["rows"] != old[key]["rows"]:
                differ.append(key)
    for key, case in cases.items():
        line = f"{key}: {statistics.median(case['seconds']):.3f} s"
        if "baseline_seconds" in case:
            line += (f" (baseline "
                     f"{statistics.median(case['baseline_seconds']):.3f} s)")
        print(line)
    host = {"machine": platform.machine(), "cpus": os.cpu_count(),
            "python": platform.python_version()}
    with open(args.out, "w") as f:
        json.dump({"host": host, "cases": cases}, f, indent=1)
        f.write("\n")
    for key in sorted(differ):
        print(f"rows differ from {args.compare}: {key}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
