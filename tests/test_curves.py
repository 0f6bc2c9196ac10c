import random
from fractions import Fraction

import pytest

from discgroup import residue
from logblocks.curves import (NODAL, P1, CurveModel, GlobalLogForm, Puncture,
                              global_form_basis, nodal_pair, projective_line,
                              restrict_to_disc)
from logblocks.series import DiscForm, TruncatedLaurent, TruncationError


class TestModels:
    def test_nodal_pair_punctures(self):
        c = nodal_pair()
        assert c.kind == NODAL
        assert [p.location for p in c.punctures] == ["inf1", "inf2"]

    def test_projective_line_variants(self):
        assert [p.location for p in projective_line(1).punctures] == \
            ["infinity"]
        assert [p.location for p in projective_line(2).punctures] == \
            ["infinity", "zero"]
        with pytest.raises(ValueError):
            projective_line(3)

    def test_punctures_validated(self):
        with pytest.raises(ValueError):
            CurveModel(P1, (Puncture("a", "inf1"),))
        with pytest.raises(ValueError):
            CurveModel(NODAL, (Puncture("a", "inf1"),
                               Puncture("b", "inf1")))
        with pytest.raises(ValueError):
            Puncture("a", "elsewhere")


class TestFormBasis:
    def test_nodal_basis_shape(self):
        forms = global_form_basis(nodal_pair(), max_pole=0, max_deg=3)
        # x^0..x^3 dx/x plus y^1..y^3 dy/y; dy/y itself is -dx/x
        assert len(forms) == 7
        labels = [f.label() for f in forms]
        assert any("dx/x" in lb for lb in labels)
        assert any("dy/y" in lb for lb in labels)

    def test_p1_one_puncture_window(self):
        forms = global_form_basis(projective_line(1), max_pole=3, max_deg=2)
        # regular at zero, pole only at infinity: u^0 du .. u^2 du
        assert sorted(k for f in forms for k in f.laurent) == [0, 1, 2]

    def test_p1_two_puncture_window(self):
        forms = global_form_basis(projective_line(2), max_pole=2, max_deg=1)
        assert sorted(k for f in forms for k in f.laurent) == [-2, -1, 0, 1]


class TestGlobalLogForm:
    def test_nodal_coefficients_drop_zeros_and_mixed_monomials(self):
        omega = GlobalLogForm(NODAL, f={(1, 1): 5, (2, 0): 1, (0, 3): 2,
                                        (1, 0): 0},
                              g={(0, 0): Fraction(1, 2)})
        assert omega.f == {(2, 0): 1, (0, 3): 2}
        assert omega.g == {(0, 0): Fraction(1, 2)}
        assert all(type(c) is Fraction for c in omega.f.values())

    @pytest.mark.parametrize("f", [{(-1, 0): 1}, {(0, -2): 1},
                                   {(1, -1): 1}])
    def test_negative_exponents_refused(self, f):
        with pytest.raises(ValueError, match="negative exponent"):
            GlobalLogForm(NODAL, f=f, g={})

    def test_labels(self):
        omega = GlobalLogForm(NODAL, f={(0, 0): 3, (2, 0): 1,
                                        (0, 1): Fraction(-1, 2)},
                              g={(0, 4): 2})
        assert omega.label() == "(3 + -1/2*y + 1*x^2)*dx/x + (2*y^4)*dy/y"
        assert GlobalLogForm(NODAL, f={}, g={(1, 0): 1}).label() == \
            "(1*x)*dy/y"
        assert GlobalLogForm(NODAL, f={(1, 1): 1}, g={}).label() == "0"
        omega = GlobalLogForm(P1, laurent={-2: 1, 0: 3, 1: Fraction(1, 2)})
        assert omega.label() == "1*u^-2 + 3 + 1/2*u du"
        assert GlobalLogForm(P1, laurent={0: 0}).label() == "0"


class TestRestriction:
    def test_dlog_x_restrictions(self):
        # dx/x restricts to -dt/t at inf1 and +dt/t at inf2
        omega = GlobalLogForm(NODAL, f={(0, 0): 1}, g={})
        r1 = restrict_to_disc(omega, nodal_pair().punctures[0], 8)
        r2 = restrict_to_disc(omega, nodal_pair().punctures[1], 8)
        assert r1.in_dt_over_t().series.coefficients == {0: Fraction(-1)}
        assert r2.in_dt_over_t().series.coefficients == {0: Fraction(1)}

    def test_monomial_form_at_inf1(self):
        # x^i dx/x -> -t^{-i} dt/t, nonzero only on the first branch
        omega = GlobalLogForm(NODAL, f={(2, 0): 1}, g={})
        r1 = restrict_to_disc(omega, nodal_pair().punctures[0], 8)
        r2 = restrict_to_disc(omega, nodal_pair().punctures[1], 8)
        assert r1.in_dt_over_t().series.coefficients == {-2: Fraction(-1)}
        assert not r2.series.coefficients

    def test_difference_expansion_random(self):
        # (f dx/x + g dy/y)|_{inf1} = -(f - g)(t^-1, 0) dt/t
        rnd = random.Random(7)
        inf1 = nodal_pair().punctures[0]
        for _ in range(20):
            fc = {(i, 0): Fraction(rnd.randint(-4, 4)) for i in range(4)}
            gc = {(0, j): Fraction(rnd.randint(-4, 4)) for j in range(4)}
            omega = GlobalLogForm(NODAL, f=fc, g=gc)
            got = restrict_to_disc(omega, inf1, 8).in_dt_over_t()
            want = {-i: -(fc.get((i, 0), Fraction(0))
                          - gc.get((i, 0), Fraction(0)))
                    for i in range(4)}
            want = {e: c for e, c in want.items() if c != 0}
            assert got.series.coefficients == want

    @pytest.mark.parametrize("N", [-1, 0, 1, 2, 8])
    def test_nodal_restriction_matches_branch_expansion(self, N):
        """Every field of the restriction at both nodal punctures, and every
        refusal, against the branch expansion written out here.

        On the branch of inf1 (x = t^-1, y = 0) the form is
        (f_b - g_b)(t) d(t^-1)/t^-1 = -(f_b - g_b)(t) t^-1 dt, with h_b the
        terms of h free of y; inf2 swaps the roles of x and y and of f and
        g.  A branch with a term t^e, e >= N, is unknown at truncation N and
        refused even when f_b - g_b cancels it, and min_exponent is one
        below the least branch exponent (and at most -1).
        """
        rnd = random.Random(19)
        for _ in range(40):
            fc = {e: Fraction(rnd.randint(-3, 3), rnd.randint(1, 2))
                  for e in [(0, 0)] + [(i, 0) for i in range(1, 4)]
                  + [(0, j) for j in range(1, 4)]}
            gc = {e: Fraction(rnd.randint(-3, 3))
                  for e in [(i, 0) for i in range(1, 4)]
                  + [(0, j) for j in range(1, 4)]}
            gc[(0, 0)] = fc[(0, 0)] if rnd.random() < 0.5 else Fraction(1)
            for e in rnd.sample(sorted(fc), 2):  # cancel a term or two
                gc[e] = fc[e]
            omega = GlobalLogForm(NODAL, f=fc, g=gc)
            for p, var, own, other in [
                    (nodal_pair().punctures[0], 0, fc, gc),
                    (nodal_pair().punctures[1], 1, gc, fc)]:
                own_b, other_b = ({-e[var]: c for e, c in h.items()
                                   if c and not e[1 - var]}
                                  for h in (own, other))
                exps = [*own_b, *other_b]
                if any(e >= N for e in exps):
                    with pytest.raises(TruncationError) as refused:
                        restrict_to_disc(omega, p, N)
                    assert type(refused.value) is TruncationError
                    assert (str(refused.value)
                            == "branch expansion exceeds the truncation")
                    continue
                want = {e - 1: other_b.get(e, 0) - own_b.get(e, 0)
                        for e in set(exps)}
                want = {e: c for e, c in want.items() if c}
                got = restrict_to_disc(omega, p, N)
                assert type(got) is DiscForm and got.basis == "dt"
                series = got.series
                assert type(series) is TruncatedLaurent
                assert series.coefficients == want
                assert all(type(c) is Fraction
                           for c in series.coefficients.values())
                assert series.min_exponent == min([0] + exps) - 1
                assert series.truncation_order == N - 1

    def test_p1_restriction_at_zero_is_plain(self):
        omega = GlobalLogForm(P1, laurent={-2: 1, 1: 3})
        r = restrict_to_disc(omega, projective_line(2).punctures[1], 8)
        assert r.series.coefficients == {-2: Fraction(1), 1: Fraction(3)}

    def test_p1_restriction_at_infinity_inverts(self):
        # u^k du -> -t^{-k-2} dt under u = 1/t
        omega = GlobalLogForm(P1, laurent={1: 1})
        r = restrict_to_disc(omega, projective_line(1).punctures[0], 8)
        assert r.in_dt().series.coefficients == {-3: Fraction(-1)}

    def test_residue_theorem_on_p1(self):
        # sum of residues over both punctures vanishes for every basis form
        curve = projective_line(2)
        for omega in global_form_basis(curve, max_pole=3, max_deg=3):
            total = sum(residue(restrict_to_disc(omega, p, 10))
                        for p in curve.punctures)
            assert total == 0

    def test_residue_theorem_on_nodal_curve(self):
        curve = nodal_pair()
        for omega in global_form_basis(curve, max_pole=0, max_deg=3):
            total = sum(residue(restrict_to_disc(omega, p, 10))
                        for p in curve.punctures)
            assert total == 0

    def test_curve_mismatch_rejected(self):
        omega = GlobalLogForm(NODAL, f={(0, 0): 1}, g={})
        with pytest.raises(ValueError):
            restrict_to_disc(omega, projective_line(1).punctures[0], 8)
