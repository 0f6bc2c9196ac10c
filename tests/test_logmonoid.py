import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logblocks.logmonoid import (NODAL_QUOTIENT, POLYNOMIAL, Chart,
                                 FreeMonoid, MonoidHom, SupportedRing,
                                 UnsupportedFamily, disc_charts,
                                 kato_presentation, nodal_charts,
                                 relation_membership_check,
                                 smooth_patch_charts, trivial_charts)

elements = st.lists(st.integers(0, 6), min_size=3, max_size=3).map(tuple)


class TestFreeMonoid:
    def test_membership(self):
        m = FreeMonoid(2)
        assert m.contains((0, 3))
        assert not m.contains((1,))
        assert not m.contains((-1, 0))

    @given(elements, elements, elements)
    @settings(max_examples=40)
    def test_addition_commutative_associative(self, a, b, c):
        m = FreeMonoid(3)
        assert m.add(a, b) == m.add(b, a)
        assert m.add(m.add(a, b), c) == m.add(a, m.add(b, c))
        assert m.add(a, m.zero()) == a


class TestMonoidHom:
    def test_apply_matches_matrix(self):
        h = MonoidHom(((1, 2), (0, 3)), 2, 2)
        assert h.apply((1, 1)) == (3, 3)
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
                    assert chart.image(chart.source.add(a, b)).coeffs == \
                        chart.image(a).mul(chart.image(b)).coeffs

    def test_nodal_chart_images(self):
        curve, _, _ = nodal_charts()
        assert curve.image((2, 0)).coeffs == {(2, 0): Fraction(1)}
        # both branch coordinates at once lands on the node: xy = 0
        assert curve.image((1, 1)).is_zero()


class TestKatoPresentation:
    def test_nodal_relation_is_exactly_dlog_sum(self):
        p = kato_presentation(*nodal_charts())
        assert p.family == "nodal"
        assert p.generators == ("dx/x", "dy/y")
        assert len(p.relations) == 1
        rel = p.relations[0]
        one = p.ring.one()
        assert rel[0].coeffs == one.coeffs and rel[1].coeffs == one.coeffs
        text = p.pretty()
        assert "dx/x" in text and "dy/y" in text

    def test_smooth_patch_has_no_relations(self):
        p = kato_presentation(*smooth_patch_charts())
        assert p.family == "smooth_patch"
        assert p.generators == ("dx/x",)
        assert p.relations == ()

    def test_trivial_presentation_empty(self):
        p = kato_presentation(*trivial_charts())
        assert p.family == "trivial"
        assert p.generators == () and p.relations == ()

    def test_disc_presentation(self):
        p = kato_presentation(*disc_charts())
        assert p.family == "disc"
        assert p.generators == ("dt/t",)
        assert p.relations == ()

    def test_unsupported_family_rejected(self):
        ring = SupportedRing(POLYNOMIAL, ("x", "y"))
        curve = Chart(FreeMonoid(2), ring,
                      (ring.monomial((1, 0)), ring.monomial((0, 1))))
        base_ring = SupportedRing(POLYNOMIAL, ())
        base = Chart(FreeMonoid(0), base_ring, ())
        hom = MonoidHom(((), ()), 0, 2)
        with pytest.raises(UnsupportedFamily):
            kato_presentation(curve, base, hom)


class TestRelationMembership:
    def test_all_families_pass(self):
        for charts in (nodal_charts(), smooth_patch_charts(),
                       trivial_charts(), disc_charts()):
            p = kato_presentation(*charts)
            assert relation_membership_check(p, sample_count=50, seed=0)

    def test_seed_independence(self):
        p = kato_presentation(*nodal_charts())
        for seed in range(5):
            assert relation_membership_check(p, sample_count=30, seed=seed)

    def test_extra_relation_detected(self):
        # adding a relation outside the Kato span must fail the check
        from dataclasses import replace
        p = kato_presentation(*nodal_charts())
        bogus = (p.ring.one(), p.ring.zero())
        broken = replace(p, relations=p.relations + (bogus,))
        assert not relation_membership_check(broken, sample_count=50, seed=0)
