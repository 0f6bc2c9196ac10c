import io
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from logblocks import blocks, cli
from logblocks.blocks import LieGenerator
from logblocks.cli import (build_parser, load_config_file, main,
                           parse_rational)
from logblocks.exactalg import DimensionMismatch
from logblocks.vacore import LieElement


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
        # describe prints FIELDS in order; __init__ must set the same names
        assert tuple(vars(cli.RunConfig())) == cli.RunConfig.FIELDS

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

    def test_diff_nodal(self):
        code, out = run(["diff", "--family", "nodal"])
        assert code == 0
        assert "(1)*dx/x + (1)*dy/y = 0" in out
        assert "relation_membership_check: True" in out

    def test_coinv_p1_text_and_csv(self):
        code, out = run(["coinv", "--curve", "p1", "--va", "heisenberg",
                         "--truncate", "3"])
        assert code == 0
        assert "quotient_dim" in out
        code, out = run(["coinv", "--curve", "p1", "--va", "heisenberg",
                         "--truncate", "3", "--format", "csv"])
        assert code == 0
        assert "0,1,0,1," in out  # degree 0 survives

    def test_coinv_nodal_vanishes(self):
        code, out = run(["coinv", "--curve", "nodal", "--va", "virasoro",
                         "--central-charge", "1/2", "--truncate", "3",
                         "--format", "csv"])
        assert code == 0
        for line in out.strip().split("\n"):
            if line[:1].isdigit():
                assert line.split(",")[3] == "0"

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
]


@pytest.mark.parametrize("flags,expected", PINNED_COINV_TEXT)
def test_coinv_text_output_pinned(flags, expected):
    code, out = run(["coinv", *flags, "--truncate", "3", "--format", "text"])
    assert code == 0
    assert out == expected
