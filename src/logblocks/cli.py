"""Command-line driver: axiom reports, coordinate tables, differential
presentations, and coinvariant runs with reproducible configuration.

Configuration is accepted both as flags and as a key=value config file;
flags override the file.  Rational parameters are written "p/q" and may
be negative, also as a separate argument ("--central-charge -22/5").  Every
output embeds the run configuration and the random seed.

Exit codes: 0 success, 1 usage error, 2 truncation-window failure,
3 invariant violation detected, 4 internal error (a broken internal
consistency check, such as a dimension mismatch or a failed assertion).

A package module that only some commands need is imported inside them,
not here, since every run pays for the modules this one imports:
operators by axioms and bracket-check, which compute their cases there
and only count and print them here, coordact (which loads operators and
holds the coordinate change ``DiscAuto``) by coords, and logmonoid by
diff.
"""

from __future__ import annotations

import argparse
import random
import re
import sys
from fractions import Fraction

from .blocks import (coinvariant_dims, functoriality_check,
                     propagation_check)
from .curves import (CurveModel, global_form_basis, nodal_pair,
                     projective_line, restrict_to_disc)
from .exactalg import DimensionMismatch
from .series import TruncationError
from .vacore import (HEISENBERG, VIRASORO, TruncationWindowError,
                     VertexAlgebraInstance)

USAGE_ERROR = 1
WINDOW_ERROR = 2
INVARIANT_ERROR = 3
INTERNAL_ERROR = 4

# each run setting, in the order ``describe`` prints them: its default,
# the type a flag or config-file value is read as (None: kept as text),
# the values it may take (None: any) and its help text
OPTIONS = {
    "curve": ("nodal", None, ("nodal", "p1"), None),
    "va": (HEISENBERG, None, (HEISENBERG, VIRASORO), None),
    "central_charge": ("1/2", None, None, "rational as p/q"),
    "points": (None, int, None, None),
    "truncate": (4, int, None, None),
    "max_pole": (None, int, None, None),
    "max_deg": (None, int, None, None),
    "format": ("text", None, ("text", "csv"), None),
    "seed": (0, int, None, None),
    "input": (None, None, None, "comma list of rationals"),
    "family": ("nodal", None, ("nodal", "disc", "smooth", "trivial"), None),
}


class RunConfig:
    """The settings of one run, at their OPTIONS defaults until a config
    file or a flag sets them."""

    def __init__(self):
        for name, (default, _, _, _) in OPTIONS.items():
            setattr(self, name, default)

    def describe(self) -> str:
        pairs = [f"{name}={getattr(self, name)}" for name in OPTIONS
                 if getattr(self, name) is not None]
        return "config: " + " ".join(pairs)


def parse_rational(text: str) -> Fraction:
    parts = text.split("/")
    if len(parts) == 1:
        return Fraction(int(parts[0]))
    if len(parts) == 2:
        num, den = int(parts[0]), int(parts[1])
        if den == 0:
            raise ValueError(f"rational {text!r} has a zero denominator")
        return Fraction(num, den)
    raise ValueError(f"cannot parse rational {text!r}; use p/q")


def load_config_file(path: str) -> dict:
    values = {}
    with open(path) as handle:
        for raw in handle:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line {raw.strip()!r}; "
                                 "expected key=value")
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
    return values


def build_config(args) -> RunConfig:
    cfg = RunConfig()
    file_values = {}
    if getattr(args, "config", None):
        file_values = load_config_file(args.config)
    for key, value in file_values.items():
        if key not in OPTIONS:
            raise ValueError(f"unknown config key {key!r}")
        _, kind, choices, _ = OPTIONS[key]
        if choices and value not in choices:
            raise ValueError(
                f"config key {key}: invalid choice {value!r} (choose from "
                f"{', '.join(map(repr, choices))})")
        try:
            setattr(cfg, key, kind(value) if kind else value)
        except ValueError:
            raise ValueError(f"config key {key}: invalid {kind.__name__} "
                             f"value {value!r}") from None
    for name in OPTIONS:
        flag = getattr(args, name, None)
        if flag is not None:
            setattr(cfg, name, flag)
    if cfg.truncate < 1:
        raise ValueError("truncation must be at least 1")
    # the default central charge is Virasoro's; a given one must fit the
    # algebra, as VertexAlgebraInstance requires
    charge_given = ("central_charge" in file_values
                    or getattr(args, "central_charge", None) is not None)
    if (cfg.va == HEISENBERG and charge_given
            and parse_rational(cfg.central_charge) != 1):
        raise ValueError(f"the Heisenberg algebra has central charge 1, "
                         f"not {cfg.central_charge}")
    return cfg


def make_algebra(cfg: RunConfig) -> VertexAlgebraInstance:
    if cfg.va == HEISENBERG:
        return VertexAlgebraInstance(HEISENBERG, cfg.truncate)
    return VertexAlgebraInstance(VIRASORO, cfg.truncate,
                                 parse_rational(cfg.central_charge))


def make_curve(cfg: RunConfig) -> CurveModel:
    if cfg.curve == "nodal":
        if cfg.points not in (None, 2):
            raise ValueError("the nodal pair has two punctures; "
                             "use --points 2 or leave it out")
        return nodal_pair()
    return projective_line(1 if cfg.points is None else cfg.points)


def emit(out, cfg: RunConfig, body: str):
    out.write(cfg.describe() + "\n")
    out.write(body)
    if not body.endswith("\n"):
        out.write("\n")


def cmd_axioms(cfg: RunConfig, out) -> int:
    from .operators import check_axioms

    entries = check_axioms(make_algebra(cfg), max_degree=min(3, cfg.truncate))
    emit(out, cfg, "\n".join(
        f"{e['check']}: "
        + ("pass" if e["passed"] else f"FAIL ({e['witness']})")
        for e in entries))
    return 0 if all(e["passed"] for e in entries) else INVARIANT_ERROR


def cmd_coords(cfg: RunConfig, out) -> int:
    # imported here: no other command needs it, and every run pays for
    # what cli imports
    from .coordact import DiscAuto, expand_exponential, solve_exp_coords

    if not cfg.input:
        raise ValueError("coords needs --input \"a1,a2,...\"")
    coeffs = tuple(parse_rational(c) for c in cfg.input.split(","))
    f = DiscAuto(coeffs, len(coeffs) + 1)
    c = solve_exp_coords(f)
    back = expand_exponential(c)
    vs = [c.v0] + list(c.higher)
    lines = ["a: " + ",".join(str(a) for a in f.coefficients),
             "v: " + ",".join(str(v) for v in vs),
             "roundtrip: " + ("ok" if back.coefficients == f.coefficients
                              else "MISMATCH")]
    emit(out, cfg, "\n".join(lines))
    return 0 if back.coefficients == f.coefficients else INVARIANT_ERROR


def cmd_diff(cfg: RunConfig, out) -> int:
    from .logmonoid import kato_presentation, relation_membership_check

    family = "smooth_patch" if cfg.family == "smooth" else cfg.family
    pres = kato_presentation(family)
    ok = relation_membership_check(pres, sample_count=50, seed=cfg.seed)
    lines = [pres.pretty(), f"relation_membership_check: {ok}"]
    if cfg.family == "nodal":
        lines.append("")
        lines.append("restrictions (dt/t coefficients by exponent):")
        curve = nodal_pair()
        for omega in global_form_basis(curve, 0, min(cfg.truncate, 3)):
            for p in curve.punctures:
                form = restrict_to_disc(omega, p, cfg.truncate + 4)
                coeffs = form.in_dt_over_t().series.coefficients
                table = " ".join(f"{e}:{c}" for e, c in sorted(coeffs.items()))
                lines.append(f"  {omega.label()} at {p.name}: "
                             f"{table or '0'}")
    emit(out, cfg, "\n".join(lines))
    return 0 if ok else INVARIANT_ERROR


def cmd_coinv(cfg: RunConfig, out) -> int:
    V = make_algebra(cfg)
    curve = make_curve(cfg)
    report = coinvariant_dims(curve, V, max_pole=cfg.max_pole,
                              max_deg=cfg.max_deg)
    body = report.to_csv() if cfg.format == "csv" else report.to_text()
    emit(out, cfg, body)
    return 0


def cmd_propagate(cfg: RunConfig, out) -> int:
    if cfg.curve != "p1":
        raise ValueError("propagation compares p1 puncture counts; "
                         "use --curve p1")
    if cfg.points is not None:
        raise ValueError("propagation compares one point with two; "
                         "leave --points out")
    V = make_algebra(cfg)
    rep = propagation_check(projective_line(1), projective_line(2), V,
                            max_pole=cfg.max_pole, max_deg=cfg.max_deg)
    lines = ["base (one puncture):", rep.base.to_csv(),
             "extended (two punctures):", rep.extended.to_csv(),
             f"hypothesis_applies: {rep.hypothesis_applies}",
             f"tables_equal: {rep.all_equal()}"]
    emit(out, cfg, "\n".join(lines))
    return 0 if rep.all_equal() else INVARIANT_ERROR


def cmd_bracket_check(cfg: RunConfig, out) -> int:
    from .operators import sampled_brackets

    cases = list(sampled_brackets(make_algebra(cfg), random.Random(cfg.seed)))
    failures = sum(lhs != rhs for lhs, rhs in cases)
    emit(out, cfg, f"trials: {len(cases)}\nfailures: {failures}")
    return 0 if failures == 0 and cases else INVARIANT_ERROR


def cmd_functoriality(cfg: RunConfig, out) -> int:
    if cfg.va != HEISENBERG:
        raise ValueError("the built-in conformal embedding lives inside "
                         "the Heisenberg algebra; use --va heisenberg")
    V = make_algebra(cfg)
    curve = make_curve(cfg)
    rep = functoriality_check(curve, V, max_pole=cfg.max_pole,
                              max_deg=cfg.max_deg)
    lines = ["over the full algebra:", rep.big.to_csv(),
             "over the conformal subalgebra:", rep.sub.to_csv(),
             f"inequality_holds: {rep.holds()}"]
    emit(out, cfg, "\n".join(lines))
    return 0 if rep.holds() else INVARIANT_ERROR


COMMANDS = {
    "axioms": cmd_axioms,
    "coords": cmd_coords,
    "diff": cmd_diff,
    "coinv": cmd_coinv,
    "propagate": cmd_propagate,
    "bracket-check": cmd_bracket_check,
    "functoriality": cmd_functoriality,
}


def build_parser() -> argparse.ArgumentParser:
    # the options every subcommand shares, built once
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value config file")
    for name, (_, kind, choices, text) in OPTIONS.items():
        common.add_argument("--" + name.replace("_", "-"), dest=name,
                            type=kind, choices=choices, help=text)
    parser = argparse.ArgumentParser(
        prog="logblocks",
        description="exact coinvariants for truncated conformal vertex "
                    "algebras over logarithmic curves")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sub.add_parser(name, parents=[common])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a separate value such as -22/5 for a flag; no flag
    # starts with a digit, so attach such a value to the option before it
    for i in reversed(range(1, len(argv))):
        if (re.match(r"-\d", argv[i]) and argv[i - 1].startswith("--")
                and "=" not in argv[i - 1]):
            argv[i - 1:i + 1] = [argv[i - 1] + "=" + argv[i]]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code else 0
    try:
        cfg = build_config(args)
    except (ValueError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        return COMMANDS[args.command](cfg, sys.stdout)
    except (TruncationError, TruncationWindowError) as exc:
        print(f"truncation window failure: {exc}", file=sys.stderr)
        return WINDOW_ERROR
    except (DimensionMismatch, AssertionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL_ERROR
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
