import itertools
import random
from fractions import Fraction

import pytest

from logblocks.logmonoid import (FAMILIES, NODAL_QUOTIENT, POLYNOMIAL,
                                 SupportedRing, kato_presentation,
                                 relation_membership_check)


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

    def test_only_the_two_chart_rings_are_supported(self):
        with pytest.raises(ValueError, match="unsupported ring kind"):
            SupportedRing("truncated_power_series", ("t",))
        assert {ring.kind for _, ring, _ in FAMILIES.values()} == \
            {POLYNOMIAL, NODAL_QUOTIENT}

    def test_str_readable(self):
        ring = SupportedRing(NODAL_QUOTIENT, ("x", "y"))
        e = ring.element({(2, 0): 1, (0, 0): 3})
        assert "x^2" in str(e)


class TestCharts:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_structure_map_is_one_row_of_naturals_per_symbol(self, family):
        symbols, ring, structure_hom = FAMILIES[family]
        assert len(structure_hom) == len(symbols) <= len(ring.variables)
        assert len({len(row) for row in structure_hom}) <= 1
        assert all(isinstance(n, int) and n >= 0
                   for row in structure_hom for n in row)

    def test_all_canned_charts_multiplicative(self):
        # each chart m -> ring.monomial(m) is a monoid hom N^k -> ring
        rnd = random.Random(0)
        for _, ring, structure_hom in FAMILIES.values():
            k = len(structure_hom)
            for _ in range(40):
                a = tuple(rnd.randint(0, 3) for _ in range(k))
                b = tuple(rnd.randint(0, 3) for _ in range(k))
                ab = tuple(x + y for x, y in zip(a, b))
                assert ring.monomial(ab).coeffs == \
                    ring.monomial(a).mul(ring.monomial(b)).coeffs

    @pytest.mark.parametrize("family", FAMILIES)
    def test_chart_is_injective_where_nonzero(self, family):
        """Two exponent vectors 0-4 with equal nonzero images are equal, so
        every family-1 relation the diff sampler draws (exponents 0-3) is
        zero.  A family whose chart breaks this fails here."""
        _, ring, structure_hom = FAMILIES[family]
        seen = {}
        for m in itertools.product(range(5), repeat=len(structure_hom)):
            image = ring.monomial(m)
            if not image.is_zero():
                key = tuple(sorted(image.coeffs.items()))
                assert seen.setdefault(key, m) == m
        assert seen

    def test_nodal_chart_images(self):
        _, ring, _ = FAMILIES["nodal"]
        assert ring.monomial((2, 0)).coeffs == {(2, 0): Fraction(1)}
        # both branch coordinates at once lands on the node: xy = 0
        assert ring.monomial((1, 1)).is_zero()


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

    @pytest.mark.parametrize("family", FAMILIES)
    def test_presentation_is_on_the_family_row(self, family):
        p = kato_presentation(family)
        assert (p.generators, p.ring, p.structure_hom) == FAMILIES[family]

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
        bogus = (p.ring.one(), p.ring.element({}))
        broken = p.replace(relations=p.relations + (bogus,))
        assert not relation_membership_check(broken, sample_count=50, seed=0)

    def test_missing_relation_detected(self):
        # the base-image relation d(e1) + d(e2) = 0 must be listed
        p = kato_presentation("nodal").replace(relations=())
        assert not relation_membership_check(p, sample_count=50, seed=0)
