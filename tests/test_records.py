"""The immutable value classes (``exactalg.Record``) and what importing the
CLI loads."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from logblocks.blocks import (CoinvariantReport, FunctorialityReport,
                              LieGenerator, PropagationReport,
                              coinvariant_dims, functoriality_check,
                              propagation_check)
from logblocks.coordact import DiscAuto, ExpCoords
from logblocks.curves import (NODAL_INF1, P1, P1_ZERO, CurveModel,
                              GlobalLogForm, Puncture, nodal_pair,
                              projective_line)
from logblocks.exactalg import Record, SparseVector, Subspace
from logblocks.logmonoid import (NODAL_QUOTIENT, LogDiffPresentation,
                                 RingElement, SupportedRing, kato_presentation,
                                 span_of)
from logblocks.operators import GradedEndo
from logblocks.series import DiscForm, TruncatedLaurent
from logblocks.vacore import (HEISENBERG, VIRASORO, FockVector, LieElement,
                              VertexAlgebraInstance)

SRC = Path(__file__).resolve().parents[1] / "src"


def laurent():
    return TruncatedLaurent({-1: 1, 2: Fraction(1, 3)}, -1, 5)


def heis(N=1):
    return VertexAlgebraInstance(HEISENBERG, N)


# (build, changes, hashable): build makes a new object with the same
# fields on every call; changes is a field change that makes it unequal
RECORDS = {
    SparseVector: (lambda: SparseVector({0: 1, 2: Fraction(1, 2)}, 3),
                   {"dimension": 4}, False),
    Subspace: (lambda: span_of([SparseVector({0: 2, 1: 1}, 2)], 2),
               {"ambient_dimension": 3}, False),
    TruncatedLaurent: (laurent, {"truncation_order": 6}, False),
    DiscAuto: (lambda: DiscAuto((1, 2), 3), {"coefficients": (1, 3)}, True),
    DiscForm: (lambda: DiscForm(laurent(), "dt"), {"basis": "dt/t"}, False),
    Puncture: (lambda: Puncture("x", P1_ZERO), {"name": "y"}, True),
    CurveModel: (nodal_pair,
                 {"punctures": (Puncture("inf1", NODAL_INF1),)}, True),
    GlobalLogForm: (lambda: GlobalLogForm(P1, laurent={1: 2}),
                    {"laurent": {1: 3}}, False),
    SupportedRing: (lambda: SupportedRing(NODAL_QUOTIENT, ("x", "y")),
                    {"variables": ("u", "v")}, True),
    RingElement: (lambda: SupportedRing(NODAL_QUOTIENT,
                                        ("x", "y")).monomial((1, 0)),
                  {"coeffs": {(0, 1): Fraction(1)}}, False),
    LogDiffPresentation: (lambda: kato_presentation("nodal"),
                          {"family": "disc"}, False),
    ExpCoords: (lambda: ExpCoords(2, (1,), 3), {"v0": 3}, True),
    GradedEndo: (lambda: GradedEndo({(): FockVector.vacuum()}, 0),
                 {"images": {(): FockVector.vacuum().scaled(2)}}, False),
    VertexAlgebraInstance: (lambda: VertexAlgebraInstance(VIRASORO, 3,
                                                          Fraction(1, 2)),
                            {"truncation": 4}, True),
    LieGenerator: (lambda: LieGenerator("du", (1,),
                                        (LieElement.mode((1,), -1),)),
                   {"form_label": "u du"}, False),
    CoinvariantReport: (lambda: coinvariant_dims(projective_line(1), heis()),
                        {"truncation": 2}, True),
    PropagationReport: (lambda: propagation_check(
        projective_line(1), projective_line(2), heis()),
        {"hypothesis_applies": False}, False),
    FunctorialityReport: (lambda: functoriality_check(nodal_pair(), heis()),
                          {"inequality_per_degree": {}}, False),
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
class TestRecords:
    def test_equal_fields_give_equal_objects(self, cls):
        build, changes, hashable = RECORDS[cls]
        a, b = build(), build()
        assert type(a) is cls and isinstance(a, Record)
        assert a is not b and a == b and not a != b
        if hashable:
            assert hash(a) == hash(b)
        else:  # a field is a dict or holds one, as in a frozen dataclass
            with pytest.raises(TypeError):
                hash(a)
        assert a.replace() == a

    def test_a_changed_field_gives_another_object(self, cls):
        build, changes, _ = RECORDS[cls]
        a = build()
        changed = a.replace(**changes)
        assert changed != a and not changed == a
        (name, value), = changes.items()
        assert getattr(changed, name) == value

    def test_copy_and_pickle_rebuild_an_equal_object(self, cls):
        a = RECORDS[cls][0]()
        for twin in (copy.copy(a), copy.deepcopy(a),
                     pickle.loads(pickle.dumps(a))):
            assert type(twin) is cls and twin == a

    def test_fields_by_keyword_rebuild_an_equal_object(self, cls):
        a = RECORDS[cls][0]()
        fields = dict(zip(cls._fields, a._key()))
        assert cls(**fields) == a
        first, *rest = cls._fields
        assert cls(fields[first], **{f: fields[f] for f in rest}) == a

    def test_wrong_arguments_raise(self, cls):
        a = RECORDS[cls][0]()
        first, *rest = cls._fields  # no class gives its first a default
        fields = dict(zip(cls._fields, a._key()))
        for args, kwargs in [((), {f: fields[f] for f in rest}),  # missing
                             ((), {**fields, "no_such_field": 1}),
                             (a._key(), {first: fields[first]}),  # twice
                             (a._key() + (None,), {})]:  # one too many
            with pytest.raises(TypeError):
                cls(*args, **kwargs)

    def test_assignment_raises(self, cls):
        a = RECORDS[cls][0]()
        name = cls._fields[0]
        before = getattr(a, name)
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(a, name, None)
        with pytest.raises(AttributeError, match="cannot assign"):
            a.extra = 1
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(a, name)
        assert getattr(a, name) is before


def test_records_of_two_classes_differ():
    assert Puncture("x", P1_ZERO) != DiscAuto((1, 2), 3)
    assert (SparseVector({}, 1) == Subspace({}, 1)) is False


def test_repr_names_the_fields():
    assert (repr(Puncture("x", P1_ZERO))
            == "Puncture(name='x', location='zero')")
    assert repr(heis(3)) == ("VertexAlgebraInstance(kind='heisenberg', "
                             "truncation=3, "
                             "central_charge=Fraction(1, 1))")


def test_replace_checks_the_new_fields():
    with pytest.raises(ValueError, match="basis must be"):
        DiscForm(laurent(), "dt").replace(basis="dx")
    with pytest.raises(TypeError):
        Puncture("x", P1_ZERO).replace(order=2)


class TestTruncationView:
    @pytest.mark.parametrize("k", [0, 2, 5])
    def test_view_shares_the_caches(self, k):
        V = VertexAlgebraInstance(VIRASORO, 3, Fraction(1, 2))
        V.basis(2)
        view = V.replace(truncation=k)
        assert view._caches is V._caches
        assert (view.kind, view.truncation, view.central_charge,
                view.min_part) == (VIRASORO, k, Fraction(1, 2), 2)

    def test_equality_ignores_the_caches(self):
        V, W = heis(3), heis(3)
        V.basis(2)
        assert V._caches != W._caches
        assert V == W and hash(V) == hash(W)
        assert V.replace(truncation=3) == V
        assert V.replace(truncation=2) != V


def test_lie_generator_caches_its_signature():
    gen = RECORDS[LieGenerator][0]()
    assert gen.signature is gen.signature == ((0, 1),)


def test_importing_the_package_loads_no_dataclasses():
    # -S: a site-packages .pth file may import anything; this checks the
    # package's own imports.  coordact and operators are imported by no
    # module cli loads.
    code = ("import sys\n"
            "import logblocks.cli\n"
            "print(sorted(m for m in ('dataclasses', 'inspect', "
            "'logblocks.coordact', 'logblocks.operators') "
            "if m in sys.modules))\n"
            "import logblocks.coordact\n"
            "print(sorted(m for m in ('dataclasses', 'inspect') "
            "if m in sys.modules))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n[]\n"


def test_only_diff_loads_logmonoid():
    # -S as above.  The solve commands load seven package modules; diff
    # also loads logmonoid, and the check commands operators.
    def loaded(*argvs):
        code = ("import contextlib, io, sys\n"
                "from logblocks.cli import main\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    for argv in {argvs!r}:\n"
                "        assert main(argv) == 0, argv\n"
                "print(sorted(m for m in sys.modules if m == 'logblocks' "
                "or m.startswith('logblocks.')))\n")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run([sys.executable, "-S", "-c", code],
                              capture_output=True, text=True, env=env,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def modules(*extra):
        return repr(sorted(f"logblocks{m}" for m in (
            "", ".blocks", ".cli", ".curves", ".exactalg", ".series",
            ".vacore") + extra)) + "\n"

    assert loaded(["coinv", "--truncate", "2"],
                  ["propagate", "--curve", "p1", "--truncate", "2"],
                  ["functoriality", "--truncate", "2"]) == modules()
    assert loaded(["diff"]) == modules(".logmonoid")
    assert loaded(["axioms", "--truncate", "2"]) == modules(".operators")
    assert loaded(["bracket-check", "--truncate", "2"]) == \
        modules(".operators")
    assert loaded(["coords", "--input", "1,2"]) == \
        modules(".coordact", ".operators")
