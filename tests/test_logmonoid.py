import random
from fractions import Fraction

import pytest

from logblocks.logmonoid import (FAMILIES, NODAL_QUOTIENT, POLYNOMIAL,
                                 FreeMonoid, MonoidHom, SupportedRing,
                                 disc_charts, kato_presentation, nodal_charts,
                                 relation_membership_check,
                                 smooth_patch_charts, trivial_charts)


class TestFreeMonoid:
    def test_membership(self):
        m = FreeMonoid(2)
        assert m.contains((0, 3))
        assert not m.contains((1,))
        assert not m.contains((-1, 0))


class TestMonoidHom:
    def test_apply_matches_matrix(self):
        h = MonoidHom(((1, 2), (0, 3)), 2, 2)
        assert h.generator_image(1) == (2, 3)

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            MonoidHom(((-1,),), 1, 1)


class TestSupportedRing:
    def test_nodal_normal_form_drops_mixed_monomials(self):
        ring = SupportedRing(NODAL_QUOTIENT, ("x", "y"))
        e = ring.element({(1, 1): 5, (2, 0): 1, (0, 3): 2})
        assert e.coeffs == {(2, 0): Fraction(1), (0, 3): Fraction(2)}

    def test_nodal_multiplication_kills_cross_terms(self):
        ring = SupportedRing(NODAL_QUOTIENT, ("x", "y"))
        x = ring.monomial((1, 0))
        y = ring.monomial((0, 1))
        assert x.mul(y).is_zero()
        assert not x.mul(x).is_zero()

    def test_polynomial_rejects_negative_exponents(self):
        ring = SupportedRing(POLYNOMIAL, ("x",))
        with pytest.raises(ValueError):
            ring.element({(-1,): 1})

    def test_str_readable(self):
        ring = SupportedRing(NODAL_QUOTIENT, ("x", "y"))
        e = ring.element({(2, 0): 1, (0, 0): 3})
        assert "x^2" in str(e)


class TestCharts:
    def test_all_canned_charts_multiplicative(self):
        rnd = random.Random(0)
        for charts in (nodal_charts(), disc_charts(), smooth_patch_charts(),
                       trivial_charts()):
            for chart, samples in zip(charts[:2], (40, 10)):
                k = chart.source.rank
                for _ in range(samples):
                    a = tuple(rnd.randint(0, 3) for _ in range(k))
                    b = tuple(rnd.randint(0, 3) for _ in range(k))
                    ab = tuple(x + y for x, y in zip(a, b))
                    assert chart.image(ab).coeffs == \
                        chart.image(a).mul(chart.image(b)).coeffs

    def test_nodal_chart_images(self):
        curve, _, _ = nodal_charts()
        assert curve.image((2, 0)).coeffs == {(2, 0): Fraction(1)}
        # both branch coordinates at once lands on the node: xy = 0
        assert curve.image((1, 1)).is_zero()


class TestKatoPresentation:
    def test_nodal_relation_is_exactly_dlog_sum(self):
        p = kato_presentation("nodal")
        assert p.family == "nodal"
        assert p.generators == ("dx/x", "dy/y")
        assert len(p.relations) == 1
        rel = p.relations[0]
        one = p.ring.one()
        assert rel[0].coeffs == one.coeffs and rel[1].coeffs == one.coeffs
        text = p.pretty()
        assert "dx/x" in text and "dy/y" in text

    def test_smooth_patch_has_no_relations(self):
        p = kato_presentation("smooth_patch")
        assert p.family == "smooth_patch"
        assert p.generators == ("dx/x",)
        assert p.relations == ()

    def test_trivial_presentation_empty(self):
        p = kato_presentation("trivial")
        assert p.family == "trivial"
        assert p.generators == () and p.relations == ()

    def test_disc_presentation(self):
        p = kato_presentation("disc")
        assert p.family == "disc"
        assert p.generators == ("dt/t",)
        assert p.relations == ()

    @pytest.mark.parametrize("family,charts", [
        ("nodal", nodal_charts), ("disc", disc_charts),
        ("smooth_patch", smooth_patch_charts), ("trivial", trivial_charts)])
    def test_presentation_is_on_the_family_charts(self, family, charts):
        p = kato_presentation(family)
        assert (p.curve_chart, p.base_chart,
                p.base_relation_source) == charts()

    @pytest.mark.parametrize("family", ["smooth", "cusp", "", None])
    def test_unknown_family_rejected(self, family):
        with pytest.raises(ValueError, match="unknown log curve family"):
            kato_presentation(family)


class TestRelationMembership:
    def test_all_families_pass(self):
        for family in FAMILIES:
            p = kato_presentation(family)
            assert relation_membership_check(p, sample_count=50, seed=0)

    def test_seed_independence(self):
        p = kato_presentation("nodal")
        for seed in range(5):
            assert relation_membership_check(p, sample_count=30, seed=seed)

    def test_extra_relation_detected(self):
        # adding a relation outside the Kato span must fail the check
        p = kato_presentation("nodal")
        bogus = (p.ring.one(), p.ring.zero())
        broken = p.replace(relations=p.relations + (bogus,))
        assert not relation_membership_check(broken, sample_count=50, seed=0)
