import io
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from logblocks import blocks, cli
from logblocks.blocks import LieGenerator
from logblocks.cli import (build_config, build_parser, load_config_file,
                           main, parse_rational)
from logblocks.curves import P1, GlobalLogForm
from logblocks.exactalg import DimensionMismatch
from logblocks.vacore import (HEISENBERG, FockVector, LieElement,
                              VertexAlgebraInstance)


def run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


class TestParsing:
    def test_parse_rational(self):
        assert parse_rational("3") == 3
        assert parse_rational("-1/2") == Fraction(-1, 2)
        with pytest.raises(ValueError):
            parse_rational("1/2/3")
        with pytest.raises(ValueError):
            parse_rational("1/0")

    def test_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("curve = p1\ntruncate=3  # window\n\nseed=7\n")
        values = load_config_file(str(path))
        assert values == {"curve": "p1", "truncate": "3", "seed": "7"}

    def test_bad_config_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("curve p1\n")
        with pytest.raises(ValueError):
            load_config_file(str(path))

    def test_run_config_fields_are_its_attributes(self):
        # describe prints OPTIONS in order; __init__ must set the same names
        assert tuple(vars(cli.RunConfig())) == tuple(cli.OPTIONS)

    # one value per run setting, not its default
    OPTION_VALUES = {"curve": "p1", "va": "virasoro", "central_charge": "1",
                     "points": "2", "truncate": "3", "max_pole": "5",
                     "max_deg": "5", "format": "csv", "seed": "7",
                     "input": "1,2", "family": "disc"}

    @pytest.mark.parametrize("name", cli.OPTIONS)
    def test_config_file_and_flag_set_an_option_alike(self, name, tmp_path):
        # both read the value with the option's type
        value = self.OPTION_VALUES[name]
        path = tmp_path / "run.cfg"
        path.write_text(f"{name}={value}\n")
        parser = build_parser()
        from_file = build_config(
            parser.parse_args(["coinv", "--config", str(path)]))
        from_flag = build_config(parser.parse_args(
            ["coinv", "--" + name.replace("_", "-"), value]))
        assert vars(from_file) == vars(from_flag) != vars(cli.RunConfig())

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_every_command_has_the_shared_options(self):
        # (option strings, dest, choices, type) of each subcommand's options
        want = [
            (("-h", "--help"), "help", None, None),
            (("--config",), "config", None, None),
            (("--curve",), "curve", ("nodal", "p1"), None),
            (("--va",), "va", ("heisenberg", "virasoro"), None),
            (("--central-charge",), "central_charge", None, None),
            (("--points",), "points", None, int),
            (("--truncate",), "truncate", None, int),
            (("--max-pole",), "max_pole", None, int),
            (("--max-deg",), "max_deg", None, int),
            (("--format",), "format", ("text", "csv"), None),
            (("--seed",), "seed", None, int),
            (("--input",), "input", None, None),
            (("--family",), "family",
             ("nodal", "disc", "smooth", "trivial"), None),
        ]
        sub, = [a for a in build_parser()._actions if a.choices
                and set(a.choices) == set(cli.COMMANDS)]
        assert list(sub.choices) == list(cli.COMMANDS)
        for name, parser in sub.choices.items():
            got = [(tuple(a.option_strings), a.dest,
                    None if a.choices is None else tuple(a.choices), a.type)
                   for a in parser._actions]
            assert got == want, name


class TestCommands:
    def test_axioms(self):
        code, out = run(["axioms", "--va", "heisenberg", "--truncate", "3"])
        assert code == 0
        assert out.startswith("config:")
        assert "vacuum: pass" in out
        assert "virasoro_bracket: pass" in out

    def test_coords_roundtrip(self):
        code, out = run(["coords", "--input", "1,1,0,0"])
        assert code == 0
        assert "roundtrip: ok" in out

    def test_coords_needs_input(self):
        code, _ = run(["coords"])
        assert code == 1

    def test_coinv_p1_text_and_csv(self):
        code, out = run(["coinv", "--curve", "p1", "--va", "heisenberg",
                         "--truncate", "3"])
        assert code == 0
        assert "quotient_dim" in out
        code, out = run(["coinv", "--curve", "p1", "--va", "heisenberg",
                         "--truncate", "3", "--format", "csv"])
        assert code == 0
        assert "0,1,0,1," in out  # degree 0 survives

    @pytest.mark.parametrize("algebra", [
        ["--va", "heisenberg"],
        ["--va", "virasoro", "--central-charge", "1/2"]],
        ids=["heisenberg", "virasoro-1/2"])
    def test_coinv_nodal_vanishes(self, algebra):
        code, out = run(["coinv", "--curve", "nodal", *algebra,
                         "--truncate", "3", "--max-deg", "5",
                         "--format", "csv"])
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")
                if line[:1].isdigit()]
        assert [row[0] for row in rows] == ["0", "1", "2", "3"]
        assert all(row[3] == "0" for row in rows)

    def test_propagate(self):
        code, out = run(["propagate", "--curve", "p1", "--va", "heisenberg",
                         "--truncate", "3"])
        assert code == 0
        assert "tables_equal: True" in out

    def test_propagate_wrong_curve(self):
        code, _ = run(["propagate", "--curve", "nodal"])
        assert code == 1

    @pytest.mark.parametrize("points", ["1", "2", "3"])
    def test_propagate_refuses_points(self, points, capsys):
        # propagation always compares one point with two
        code, out = run(["propagate", "--curve", "p1", "--points", points,
                         "--truncate", "2"])
        assert code == 1
        assert out == ""
        assert capsys.readouterr().err.startswith("usage error:")

    @pytest.mark.parametrize("points", ["1", "3"])
    def test_nodal_needs_two_points(self, points, capsys):
        code, out = run(["coinv", "--curve", "nodal", "--points", points,
                         "--truncate", "2"])
        assert code == 1
        assert out == ""
        assert capsys.readouterr().err.startswith("usage error:")
        code, out = run(["coinv", "--curve", "nodal", "--points", "2",
                         "--truncate", "2"])
        assert code == 0 and "points=2" in out

    def test_bracket_check(self):
        code, out = run(["bracket-check", "--va", "heisenberg",
                         "--truncate", "4", "--seed", "5"])
        assert code == 0
        assert "failures: 0" in out

    def test_functoriality(self):
        code, out = run(["functoriality", "--curve", "p1", "--va",
                         "heisenberg", "--truncate", "3"])
        assert code == 0
        assert "inequality_holds: True" in out

    def test_config_file_with_flag_override(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("curve=nodal\nva=heisenberg\ntruncate=2\n")
        code, out = run(["coinv", "--config", str(path), "--truncate", "3"])
        assert code == 0
        assert "truncate=3" in out  # flag wins over the file

    def test_unknown_config_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("windows=95\n")
        code, _ = run(["coinv", "--config", str(path)])
        assert code == 1

    def test_config_key_naming_a_method_is_unknown(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("describe=x\n")
        code, out = run(["coinv", "--truncate", "1", "--config", str(path)])
        assert code == 1 and out == ""
        assert (capsys.readouterr().err
                == "usage error: unknown config key 'describe'\n")

    @pytest.mark.parametrize("key,value", [("curve", "torus"),
                                           ("va", "lattice"),
                                           ("format", "xml"),
                                           ("family", "foo")])
    def test_config_value_outside_the_flag_choices(self, key, value,
                                                   tmp_path, capsys):
        # a file value is held to the same choices as its flag, also by a
        # command that does not read the key
        path = tmp_path / "run.cfg"
        path.write_text(f"{key}={value}\n")
        code, out = run(["coords", "--input", "1,2", "--config", str(path)])
        assert code == 1
        assert out == ""
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and repr(value) in err
        code, out = run(["coords", "--input", "1,2", f"--{key}", value])
        assert code == 1 and out == ""

    @pytest.mark.parametrize("key", ["points", "truncate", "max_pole",
                                     "max_deg", "seed"])
    @pytest.mark.parametrize("value", ["abc", "2.5"])
    def test_config_value_of_the_wrong_type_names_its_key(self, key, value,
                                                          tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text(f"{key}={value}\n")
        code, out = run(["coinv", "--config", str(path)])
        assert code == 1 and out == ""
        assert capsys.readouterr().err == (
            f"usage error: config key {key}: invalid int value {value!r}\n")

    @pytest.mark.parametrize("charge", ["3", "1/2", "0"])
    def test_heisenberg_refuses_another_central_charge(self, charge,
                                                       tmp_path, capsys):
        argv = ["coinv", "--va", "heisenberg", "--truncate", "2"]
        code, out = run(argv + ["--central-charge", charge])
        assert code == 1 and out == ""
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "central charge 1" in err
        path = tmp_path / "run.cfg"
        path.write_text(f"central_charge={charge}\n")
        code, out = run(argv + ["--config", str(path)])
        assert code == 1 and out == ""
        assert capsys.readouterr().err.startswith("usage error:")
        # the file's charge fits the algebra the flag picks
        code, out = run(["coinv", "--va", "virasoro", "--truncate", "2",
                         "--config", str(path)])
        assert code == 0
        assert f"central_charge={charge} " in out

    def test_heisenberg_accepts_central_charge_one(self, tmp_path):
        argv = ["coinv", "--va", "heisenberg", "--truncate", "2"]
        code, out = run(argv + ["--central-charge", "1"])
        assert code == 0
        assert "central_charge=1 " in out and "algebra: heisenberg" in out
        path = tmp_path / "run.cfg"
        path.write_text("central_charge=2/2\n")
        assert run(argv + ["--config", str(path)])[0] == 0

    def test_unknown_flag_value_exits_with_usage(self):
        code, _ = run(["coinv", "--curve", "mystery"])
        assert code == 1

    def test_seed_echoed(self):
        code, out = run(["bracket-check", "--va", "heisenberg",
                         "--truncate", "3", "--seed", "42"])
        assert code == 0
        assert "seed=42" in out


class TestRationalArguments:
    @pytest.mark.parametrize("argv,flag,value", [
        (["coinv", "--curve", "nodal", "--va", "virasoro", "--truncate", "2"],
         "--central-charge", "-22/5"),
        (["coords"], "--input", "-1,1/2,0"),
        (["coinv", "--curve", "p1", "--va", "virasoro", "--truncate", "2"],
         "--central", "-1/3"),
    ])
    def test_negative_value_spellings_agree(self, argv, flag, value):
        attached = run(argv + [f"{flag}={value}"])
        assert attached[0] == 0
        assert run(argv + [flag, value]) == attached

    @pytest.mark.parametrize("argv", [
        ["coinv", "--va", "virasoro", "--central-charge", "1/0",
         "--truncate", "2"],
        ["coords", "--input", "1,1/0"],
    ])
    def test_zero_denominator_is_usage_error(self, argv, capsys):
        code, out = run(argv)
        assert code == 1
        assert out == ""
        assert capsys.readouterr().err.startswith("usage error:")


class TestInternalErrors:
    @pytest.mark.parametrize("exc", [DimensionMismatch("ambient dimensions "
                                                       "differ"),
                                     AssertionError("bookkeeping violated")])
    def test_internal_error_exit_code(self, exc, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "coinvariant_dims", broken)
        code, out = run(["coinv", "--curve", "nodal", "--truncate", "2"])
        assert code == cli.INTERNAL_ERROR == 4
        assert out == ""
        assert capsys.readouterr().err == f"internal error: {exc}\n"

    @pytest.mark.parametrize("exc,message", [
        (KeyError("cell"), "KeyError: 'cell'"),
        (ZeroDivisionError("division by zero"),
         "ZeroDivisionError: division by zero")])
    def test_unexpected_exception_is_internal(self, exc, message,
                                              monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "coinvariant_dims", broken)
        code, out = run(["coinv", "--curve", "nodal", "--truncate", "2"])
        assert code == cli.INTERNAL_ERROR
        assert out == ""
        assert capsys.readouterr().err == f"internal error: {message}\n"

    def test_component_with_two_shifts(self, monkeypatch, capsys):
        # b_(-1) raises the degree by 1, b_(-2) by 2
        comp = LieElement.mode((1,), -1).plus(LieElement.mode((1,), -2))
        gen = LieGenerator("test", (1,), (comp, comp))
        monkeypatch.setattr(blocks, "lie_generators",
                            lambda *args, **kwargs: [gen])
        code, out = run(["coinv", "--curve", "nodal", "--truncate", "2"])
        assert code == cli.INTERNAL_ERROR
        assert out == ""
        err = capsys.readouterr().err
        assert err.startswith("internal error:") and "by [1, 2]" in err

    def test_components_that_disagree_with_the_signature(self, monkeypatch,
                                                        capsys):
        residue = blocks.vertex_op_residue

        def one_mode_lower(v, r):
            return LieElement({(p, n - 1): c for (p, n), c
                               in residue(v, r).terms.items()})

        monkeypatch.setattr(blocks, "vertex_op_residue", one_mode_lower)
        code, out = run(["coinv", "--curve", "nodal", "--truncate", "2"])
        assert code == cli.INTERNAL_ERROR
        assert out == ""
        assert capsys.readouterr().err == (
            "internal error: (1)*dx/x builds shifts ((0, 1), (1, 1)), not "
            "((0, 0), (1, 0))\n")

    def test_restriction_with_two_exponents(self, monkeypatch, capsys):
        # u^0 du + u du restricts at infinity to two terms, so every
        # generator of the form has a component with two shifts
        form = GlobalLogForm(P1, laurent={0: 1, 1: 1})
        monkeypatch.setattr(blocks, "global_form_basis",
                            lambda *args: [form])
        code, out = run(["coinv", "--curve", "p1", "--points", "1",
                         "--truncate", "2"])
        assert code == cli.INTERNAL_ERROR
        assert out == ""
        assert capsys.readouterr().err == (
            "internal error: a component of 1 + 1*u du shifts degrees by "
            "[1, 2]\n")


# full text output of small coinv runs; the generators and
# dropped_applications lines are pinned nowhere else
PINNED_COINV_TEXT = [
    (["--curve", "nodal", "--va", "heisenberg"], """\
config: curve=nodal va=heisenberg central_charge=1/2 truncate=3 format=text seed=0 family=nodal
curve: nodal
punctures: inf1, inf2
algebra: heisenberg
truncation: 3
max_pole: 5
max_deg: 5
generators: 77
dropped_applications: 281
degree,ambient_dim,image_rank,quotient_dim,stabilized
0,1,1,0,true
1,2,2,0,true
2,5,5,0,true
3,10,10,0,false
"""),
    (["--curve", "nodal", "--va", "virasoro", "--central-charge", "1/2"], """\
config: curve=nodal va=virasoro central_charge=1/2 truncate=3 format=text seed=0 family=nodal
curve: nodal
punctures: inf1, inf2
algebra: virasoro(c=1/2)
truncation: 3
max_pole: 5
max_deg: 5
generators: 33
dropped_applications: 24
degree,ambient_dim,image_rank,quotient_dim,stabilized
0,1,1,0,true
1,0,0,0,true
2,2,2,0,true
3,2,2,0,false
"""),
    (["--curve", "p1", "--points", "2", "--va", "heisenberg"], """\
config: curve=p1 va=heisenberg central_charge=1/2 points=2 truncate=3 format=text seed=0 family=nodal
curve: p1
punctures: x, y
algebra: heisenberg
truncation: 3
max_pole: 5
max_deg: 5
generators: 77
dropped_applications: 1092
degree,ambient_dim,image_rank,quotient_dim,stabilized
0,1,0,1,true
1,2,2,0,true
2,5,5,0,true
3,10,10,0,false
"""),
    # c = 0: every vacuum matrix coefficient of a positive-degree vector
    # vanishes, so the quotient is 1 in degree 0
    (["--curve", "nodal", "--va", "virasoro", "--central-charge", "0"], """\
config: curve=nodal va=virasoro central_charge=0 truncate=3 format=text seed=0 family=nodal
curve: nodal
punctures: inf1, inf2
algebra: virasoro(c=0)
truncation: 3
max_pole: 5
max_deg: 5
generators: 33
dropped_applications: 24
degree,ambient_dim,image_rank,quotient_dim,stabilized
0,1,0,1,true
1,0,0,0,true
2,2,2,0,true
3,2,2,0,false
"""),
]


@pytest.mark.parametrize("flags,expected", PINNED_COINV_TEXT)
def test_coinv_text_output_pinned(flags, expected):
    code, out = run(["coinv", *flags, "--truncate", "3", "--format", "text"])
    assert code == 0
    assert out == expected


def pinned_diff(family, shown, truncate=4, seed=0, body=""):
    return (f"config: curve=nodal va=heisenberg central_charge=1/2 "
            f"truncate={truncate} format=text seed={seed} family={family}\n"
            f"family: {shown}\n" + body)


# the restriction table prints the label of every nodal basis form
NODAL_DIFF = """\
generators: dx/x, dy/y
relations:
  (1)*dx/x + (1)*dy/y = 0
relation_membership_check: True

restrictions (dt/t coefficients by exponent):
  (1)*dx/x at inf1: 0:-1
  (1)*dx/x at inf2: 0:1
  (1*x)*dx/x at inf1: -1:-1
  (1*x)*dx/x at inf2: 0
  (1*x^2)*dx/x at inf1: -2:-1
  (1*x^2)*dx/x at inf2: 0
  (1*x^3)*dx/x at inf1: -3:-1
  (1*x^3)*dx/x at inf2: 0
  (1*y)*dy/y at inf1: 0
  (1*y)*dy/y at inf2: -1:-1
  (1*y^2)*dy/y at inf1: 0
  (1*y^2)*dy/y at inf2: -2:-1
  (1*y^3)*dy/y at inf1: 0
  (1*y^3)*dy/y at inf2: -3:-1
"""

PINNED_DIFF = [
    (["--family", "nodal"], pinned_diff("nodal", "nodal", body=NODAL_DIFF)),
    (["--family", "nodal", "--truncate", "3"],
     pinned_diff("nodal", "nodal", truncate=3, body=NODAL_DIFF)),
    (["--family", "disc"], pinned_diff("disc", "disc", body="""\
generators: dt/t
relations: (none)
relation_membership_check: True
""")),
    (["--family", "smooth"], pinned_diff("smooth", "smooth_patch", body="""\
generators: dx/x
relations: (none)
relation_membership_check: True
""")),
    (["--family", "trivial"], pinned_diff("trivial", "trivial", body="""\
generators: (none)
relations: (none)
relation_membership_check: True
""")),
    # the relation check samples with the seed
    (["--family", "nodal", "--seed", "1"],
     pinned_diff("nodal", "nodal", seed=1, body=NODAL_DIFF)),
    (["--family", "nodal", "--seed", "7"],
     pinned_diff("nodal", "nodal", seed=7, body=NODAL_DIFF)),
]


@pytest.mark.parametrize("flags,expected", PINNED_DIFF)
def test_diff_output_pinned(flags, expected):
    code, out = run(["diff", *flags])
    assert code == 0
    assert out == expected


AXIOMS_PASS = """\
vacuum: pass
translation: pass
locality_commutator: pass
virasoro_bracket: pass
l0_grading: pass
"""

# full stdout of the check commands; at truncation 1 the window skips
# decide how many of the 30 trials run
PINNED_CHECKS = [
    (["bracket-check", "--va", "virasoro", "--central-charge", "1/2",
      "--truncate", "1", "--seed", "7"],
     "va=virasoro central_charge=1/2 truncate=1 format=text seed=7",
     "trials: 27\nfailures: 0\n"),
    (["bracket-check", "--va", "heisenberg", "--truncate", "4", "--seed",
      "7"], "va=heisenberg central_charge=1/2 truncate=4 format=text seed=7",
     "trials: 30\nfailures: 0\n"),
    (["bracket-check", "--va", "virasoro", "--central-charge", "-22/5",
      "--truncate", "2", "--seed", "7"],
     "va=virasoro central_charge=-22/5 truncate=2 format=text seed=7",
     "trials: 30\nfailures: 0\n"),
    (["axioms", "--va", "heisenberg", "--truncate", "3"],
     "va=heisenberg central_charge=1/2 truncate=3 format=text seed=0",
     AXIOMS_PASS),
    (["axioms", "--va", "virasoro", "--central-charge", "1/2",
      "--truncate", "4"],
     "va=virasoro central_charge=1/2 truncate=4 format=text seed=0",
     AXIOMS_PASS),
]


@pytest.mark.parametrize("argv,config,body", PINNED_CHECKS,
                         ids=[" ".join(argv) for argv, _, _ in PINNED_CHECKS])
def test_check_output_pinned(argv, config, body):
    code, out = run(argv)
    assert code == 0
    assert out == f"config: curve=nodal {config} family=nodal\n" + body


def corrupted_heisenberg(cfg):
    """The Heisenberg algebra of cfg, with 1*[2] added to its cached
    [1, 1]_(0) 1*[1]."""
    V = VertexAlgebraInstance(HEISENBERG, cfg.truncate)
    V.apply_mode((1, 1), 0, FockVector.basis((1,)))
    memo = V._caches["_apply_partition_mode"]
    key = ((1, 1), 0, (1,))
    memo[key] = memo[key].plus(FockVector.basis((2,)))
    return V


def test_axioms_fails_on_a_corrupted_mode(monkeypatch):
    monkeypatch.setattr(cli, "make_algebra", corrupted_heisenberg)
    code, out = run(["axioms", "--truncate", "3"])
    assert code == cli.INVARIANT_ERROR == 3
    assert out.splitlines()[1:] == [
        "vacuum: pass",
        "translation: FAIL ((T1*[1])_(-4) on 1*|0>)",
        "locality_commutator: FAIL ([1*[1]_(-2), 1*[1, 1]_(0)] on 1*[1])",
        "virasoro_bracket: FAIL ([L_-4, L_-1] on 1*[1])",
        "l0_grading: pass"]


def test_bracket_check_fails_on_a_corrupted_mode(monkeypatch):
    monkeypatch.setattr(cli, "make_algebra", corrupted_heisenberg)
    code, out = run(["bracket-check", "--truncate", "4", "--seed", "0"])
    assert code == cli.INVARIANT_ERROR
    assert "trials: 30\n" in out
    assert int(out.rpartition("failures: ")[2]) > 0


def coords_out(text, a, v):
    return (f"config: curve=nodal va=heisenberg central_charge=1/2 "
            f"truncate=4 format=text seed=0 input={text} family=nodal\n"
            f"a: {a}\nv: {v}\nroundtrip: ok\n")


# (input, exit code, stdout, stderr) of coords
PINNED_COORDS = [
    ("1,1,0,0", 0, coords_out("1,1,0,0", "1,1,0,0", "1,1,-1,3/2"), ""),
    ("-1,1/2,0", 0, coords_out("-1,1/2,0", "-1,1/2,0", "-1,-1/2,-1/4"), ""),
    ("2,1,0,3,0,0", 0, coords_out("2,1,0,3,0,0", "2,1,0,3,0,0",
                                  "2,1/2,-1/4,27/16,-29/12,607/192"), ""),
    ("3/2", 0, coords_out("3/2", "3/2", "3/2"), ""),
    ("0,1", 1, "",
     "usage error: leading coefficient a_1 must be invertible\n"),
]


@pytest.mark.parametrize("text,code,stdout,stderr", PINNED_COORDS,
                         ids=[text for text, _, _, _ in PINNED_COORDS])
def test_coords_output_pinned(text, code, stdout, stderr, capsys):
    assert main(["coords", "--input", text]) == code
    assert capsys.readouterr() == (stdout, stderr)
