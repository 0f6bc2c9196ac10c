from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discgroup import (coeff, compose_auto, identity, inverse, invert_auto,
                       mul, pullback_form, residue, scaling, substitute,
                       to_series)
from logblocks.coordact import DiscAuto
from logblocks.series import (DiscForm, TruncatedLaurent, TruncationError,
                              invert_variable)

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=7)
nonzero = rationals.filter(lambda x: x != 0)


@st.composite
def autos(draw, order=7):
    coeffs = [draw(nonzero)] + [draw(rationals) for _ in range(order - 2)]
    return DiscAuto(tuple(coeffs), order)


class TestTruncatedLaurent:
    def test_coeff_beyond_truncation_rejected(self):
        s = TruncatedLaurent.from_terms({1: 1}, 4)
        with pytest.raises(TruncationError):
            coeff(s, 4)
        # the constructor refuses a term at the truncation or below the
        # stated least exponent
        with pytest.raises(TruncationError):
            TruncatedLaurent({4: 1}, 0, 4)
        with pytest.raises(TruncationError):
            TruncatedLaurent({-1: 1}, 0, 4)

    def test_mul_truncation_propagates(self):
        # t^-1 (known to order 3) times t (known to order 5)
        a = TruncatedLaurent.from_terms({-1: 1}, 3)
        b = TruncatedLaurent.from_terms({1: 1}, 5)
        p = mul(a, b)
        assert coeff(p, 0) == 1
        # product is only known through min(3+1, 5-1) = 4
        assert p.truncation_order == 4

    def test_inverse(self):
        s = TruncatedLaurent.from_terms({1: 1, 2: 1}, 6)
        prod = mul(s, inverse(s))
        assert coeff(prod, 0) == 1
        assert all(coeff(prod, e) == 0
                   for e in range(1, prod.truncation_order))

    def test_substitute_negative_exponents(self):
        # (1/t) o (2t) = 1/(2t)
        f = TruncatedLaurent.from_terms({-1: 1}, 8)
        out = substitute(f, to_series(scaling(2, 8)))
        assert coeff(out, -1) == Fraction(1, 2)

    @given(autos(), autos())
    @settings(max_examples=30, deadline=None)
    def test_substitution_respects_products(self, f, g):
        a = to_series(f)
        s = to_series(g)
        lhs = substitute(mul(a, a), s)
        rhs = mul(substitute(a, s), substitute(a, s))
        n = min(lhs.truncation_order, rhs.truncation_order)
        known = [{e: c for e, c in x.coefficients.items() if e < n}
                 for x in (lhs, rhs)]
        assert known[0] == known[1]


class TestDiscAuto:
    def test_reversion_spec_example(self):
        g = DiscAuto((1, 1, 0, 0), 5)
        inv = invert_auto(g)
        assert inv.coefficients == (Fraction(1), Fraction(-1), Fraction(2),
                                    Fraction(-5))

    def test_identity_composition(self):
        f = DiscAuto((2, 1, 0), 4)
        i = identity(4)
        assert compose_auto(f, i).coefficients == f.coefficients
        assert compose_auto(i, f).coefficients == f.coefficients

    def test_leading_coefficient_required(self):
        with pytest.raises(ValueError):
            DiscAuto((0, 1), 3)

    @given(autos())
    @settings(max_examples=40, deadline=None)
    def test_inverse_is_two_sided(self, g):
        h = invert_auto(g)
        n = g.truncation_order
        ident = identity(n).coefficients
        assert compose_auto(g, h).coefficients == ident
        assert compose_auto(h, g).coefficients == ident

    @given(autos(), autos(), autos())
    @settings(max_examples=25, deadline=None)
    def test_composition_associative(self, f, g, h):
        lhs = compose_auto(compose_auto(f, g), h)
        rhs = compose_auto(f, compose_auto(g, h))
        assert lhs.coefficients == rhs.coefficients


class TestForms:
    def test_residue_spec_example(self):
        # (1 + 1/t) dt/t has residue 1
        omega = DiscForm(TruncatedLaurent.from_terms({0: 1, -1: 1}, 6),
                         "dt/t")
        assert residue(omega) == 1

    def test_basis_conversion_roundtrip(self):
        omega = DiscForm(TruncatedLaurent.from_terms({-1: 2, 3: 1}, 6), "dt")
        back = omega.in_dt_over_t().in_dt()
        assert back.series.coefficients == omega.series.coefficients

    def test_pullback_scaling(self):
        # t^-1 dt is invariant under t -> 2t
        omega = DiscForm(TruncatedLaurent.from_terms({-1: 1}, 8), "dt")
        pulled = pullback_form(omega, scaling(2, 8))
        assert pulled.series.coefficients == {-1: Fraction(1)}

    def test_pullback_chain_rule(self):
        omega = DiscForm(TruncatedLaurent.from_terms({0: 1}, 6), "dt")
        pulled = pullback_form(omega, DiscAuto((1, 1, 0, 0, 0), 6))
        assert pulled.series.coefficients == {0: Fraction(1), 1: Fraction(2)}

    @given(autos())
    @settings(max_examples=30, deadline=None)
    def test_residue_invariant_under_pullback(self, g):
        omega = DiscForm(TruncatedLaurent.from_terms({-1: 3, 0: 1, 1: 2},
                                                     g.truncation_order),
                         "dt")
        assert residue(pullback_form(omega, g)) == residue(omega)

    def test_invert_variable_involution(self):
        omega = DiscForm(TruncatedLaurent.from_terms({-3: 1, 0: 2, 2: 5}, 9),
                         "dt")
        twice = invert_variable(invert_variable(omega))
        assert twice.series.coefficients == omega.series.coefficients

    def test_invert_variable_rule(self):
        # c t^m dt -> -c t^(-m-2) dt
        omega = DiscForm(TruncatedLaurent.from_terms({1: 3}, 6), "dt")
        assert invert_variable(omega).series.coefficients == \
            {-3: Fraction(-3)}

    def test_compose_series_with_auto(self):
        f = TruncatedLaurent.from_terms({2: 1}, 6)
        out = substitute(f, to_series(scaling(3, 6)))
        assert coeff(out, 2) == 9
