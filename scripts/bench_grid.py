"""Time coinvariant_dims over a grid of curves, algebras and truncations.

    python scripts/bench_grid.py --truncate 1 2 3 4 5 6 \
        --case nodal:heisenberg:8 --repeat 3 \
        --out new.json --compare old.json

The grid is every curve (nodal, p1 with one point, p1 with two points) times
every algebra (Heisenberg, Virasoro at c = 1/2) times every --truncate value;
each --case CURVE:ALGEBRA:N adds one more case, and CURVE:ALGEBRA:N:MAX_DEG
one with that form degree bound.  Every solve runs on a fresh algebra, so no
mode cache is warm, with the default form bounds unless a case sets max_deg,
and with the N-1 stability solve.  A repeat runs every case once, so a slow
spell of the host is spread over all cases.

The JSON written to --out holds the host and, per case, the seconds of each
repeat, the dimension table rows, the generator count and the dropped
applications.  With --compare OLD.json, the script exits 1 when, in any case
that OLD also has, one of these fields that OLD records differs from OLD's
(older records hold rows only).  No seconds are compared: OLD's were timed
at another moment, so the host's drift would read as a change; a speed
comparison alternates runs of the two checkouts instead.
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
# the fields of a case that --compare checks
COMPARED = ("rows", "generator_count", "dropped_applications")

def case_key(text):
    curve, algebra, *numbers = text.split(":")
    if (curve not in CURVES or algebra not in ALGEBRAS
            or len(numbers) not in (1, 2)):
        raise argparse.ArgumentTypeError(
            f"expected CURVE:ALGEBRA:N or CURVE:ALGEBRA:N:MAX_DEG with CURVE "
            f"in {sorted(CURVES)} and ALGEBRA in {sorted(ALGEBRAS)}, "
            f"got {text!r}")
    return ":".join([curve, algebra, *(str(int(n)) for n in numbers)])


def solve(key):
    """(seconds, the COMPARED fields) of one solve on a fresh algebra."""
    curve, algebra, n, *max_deg = key.split(":")
    kind, c = ALGEBRAS[algebra]
    bounds = {"max_deg": int(max_deg[0])} if max_deg else {}
    start = time.perf_counter()
    report = coinvariant_dims(CURVES[curve](),
                              VertexAlgebraInstance(kind, int(n), c), **bounds)
    return time.perf_counter() - start, {
        "rows": [list(r) for r in report.rows],
        "generator_count": report.generator_count,
        "dropped_applications": report.dropped_applications}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--truncate", type=int, nargs="*", default=[],
                        help="truncations N of the full grid")
    parser.add_argument("--case", type=case_key, action="append", default=[],
                        help="one more case, as CURVE:ALGEBRA:N[:MAX_DEG]")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out", required=True)
    parser.add_argument("--compare", metavar="OLD.json")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")

    keys = [f"{curve}:{algebra}:{n}" for n in args.truncate
            for curve in CURVES for algebra in ALGEBRAS]
    cases = {k: {"seconds": []} for k in keys + args.case}
    result = {"host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                       "python": platform.python_version()}}
    for _ in range(args.repeat):
        for key, case in cases.items():
            seconds, fields = solve(key)
            case.update(fields)
            case["seconds"].append(round(seconds, 4))

    differ = {}  # case -> the fields that differ from OLD's
    if args.compare:
        with open(args.compare) as f:
            old = json.load(f)["cases"]
        for key in cases.keys() & old.keys():
            fields = [f for f in COMPARED
                      if f in old[key] and cases[key][f] != old[key][f]]
            if fields:
                differ[key] = fields
    for key, case in cases.items():
        print(f"{key}: {statistics.median(case['seconds']):.3f} s")
    result["cases"] = cases
    with open(args.out, "w") as f:
        json.dump(result, f, indent=1)
        f.write("\n")
    for key in sorted(differ):
        print(f"{', '.join(differ[key])} differ from {args.compare}: {key}",
              file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
