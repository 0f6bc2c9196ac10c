import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discgroup import compose_auto, identity, invert_auto, scaling
from logblocks.coordact import (DiscAuto, ExpCoords, act, expand_exponential,
                                solve_exp_coords)
from logblocks.operators import GradedEndo
from logblocks.vacore import (HEISENBERG, VIRASORO, FockVector,
                              TruncationWindowError, VertexAlgebraInstance)

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=6)
nonzero = rationals.filter(lambda x: x != 0)


def identity_endo(V):
    return GradedEndo({p: FockVector.basis(p)
                       for d in range(V.truncation + 1) for p in V.basis(d)},
                      V.truncation)


@st.composite
def autos(draw, order=7):
    coeffs = [draw(nonzero)] + [draw(rationals) for _ in range(order - 2)]
    return DiscAuto(tuple(coeffs), order)


class TestExpCoords:
    def test_identity_has_zero_higher_part(self):
        c = solve_exp_coords(identity(6))
        assert c.v0 == 1
        assert all(v == 0 for v in c.higher)

    def test_scaling_only_sets_v0(self):
        c = solve_exp_coords(scaling(Fraction(3, 2), 6))
        assert c.v0 == Fraction(3, 2)
        assert all(v == 0 for v in c.higher)

    def test_single_vector_field_expansion(self):
        # exp(t^2 d/dt) t = t + t^2 + t^3 + ... (flow of the vector field)
        c = ExpCoords(Fraction(1), (Fraction(1), 0, 0, 0), 6)
        f = expand_exponential(c)
        assert f.coefficients == (Fraction(1),) * 5

    def test_round_trip_spec_shape(self):
        f = DiscAuto((1, 2, 3, 4, 5, 6), 7)
        back = expand_exponential(solve_exp_coords(f))
        assert back.coefficients == f.coefficients

    @given(autos())
    @settings(max_examples=50, deadline=None)
    def test_round_trip_random(self, f):
        back = expand_exponential(solve_exp_coords(f))
        assert back.coefficients == f.coefficients

    @given(autos())
    @settings(max_examples=25, deadline=None)
    def test_coords_solve_is_inverse_on_coords(self, f):
        c = solve_exp_coords(f)
        again = solve_exp_coords(expand_exponential(c))
        assert again.v0 == c.v0 and again.higher == c.higher


class TestAction:
    def test_identity_acts_trivially(self):
        V = VertexAlgebraInstance(HEISENBERG, 4)
        assert act(identity(6), V) == identity_endo(V)

    def test_scaling_acts_by_degree(self):
        # t -> a t sends a degree-m vector to a^{-m} times itself
        V = VertexAlgebraInstance(HEISENBERG, 4)
        a = Fraction(2)
        endo = act(scaling(a, 6), V)
        for m in range(5):
            for p in V.basis(m):
                out = endo.apply(FockVector.basis(p))
                assert out == FockVector.basis(p).scaled(a ** -m)

    def test_action_preserves_vacuum(self):
        V = VertexAlgebraInstance(VIRASORO, 4, Fraction(1, 2))
        endo = act(DiscAuto((2, 1, 1, 0, 0), 6), V)
        assert endo.apply(FockVector.vacuum()) == FockVector.vacuum()

    def test_right_action_composition(self):
        # act(f o g) = act(g) o act(f)
        rnd = random.Random(11)
        V = VertexAlgebraInstance(HEISENBERG, 4)
        for _ in range(5):
            f = DiscAuto(tuple([Fraction(rnd.randint(1, 3))] +
                               [Fraction(rnd.randint(-2, 2))
                                for _ in range(5)]), 7)
            g = DiscAuto(tuple([Fraction(rnd.randint(1, 3))] +
                               [Fraction(rnd.randint(-2, 2))
                                for _ in range(5)]), 7)
            lhs = act(compose_auto(f, g), V)
            rhs = act(g, V).compose(act(f, V))
            assert lhs == rhs

    def test_action_invertible(self):
        V = VertexAlgebraInstance(HEISENBERG, 4)
        f = DiscAuto((1, 1, 0, 0, 0), 6)
        endo = act(f, V).compose(act(invert_auto(f), V))
        assert endo == identity_endo(V)

    def test_undertruncated_input_rejected(self):
        V = VertexAlgebraInstance(HEISENBERG, 6)
        with pytest.raises(ValueError):
            act(DiscAuto((1, 0, 0), 4), V)

    def test_vector_outside_the_window_refused(self):
        # b_{-4}|0> has degree 4 > N = 3: refused, not read as 0
        V = VertexAlgebraInstance(HEISENBERG, 3)
        endo = act(DiscAuto((2, 1, 0, 0), 5), V)
        inside = FockVector.basis((3,))
        with pytest.raises(TruncationWindowError):
            endo.apply(FockVector.basis((4,)))
        with pytest.raises(TruncationWindowError):
            endo.apply(inside.plus(FockVector.basis((2, 2))))
        assert not endo.apply(inside).is_zero()

    def test_non_basis_partition_refused(self):
        # Virasoro has no L_{-1}|0>: (1,) is no basis vector of its window
        V = VertexAlgebraInstance(VIRASORO, 4, Fraction(1, 2))
        with pytest.raises(TruncationWindowError):
            identity_endo(V).apply(FockVector.basis((1,)))

    def test_compose_across_truncations(self):
        # self after other lives on other's window; an image of other
        # outside self's window is refused
        small = VertexAlgebraInstance(HEISENBERG, 2)
        large = small.replace(truncation=4)
        f = DiscAuto((2, 1, 0, 3, 0, 0), 7)
        g = DiscAuto((1, -1, 2, 0, 1, 0), 7)
        endo = act(g, large).compose(act(f, small))
        assert endo.truncation == 2
        assert endo == act(compose_auto(f, g), small)
        with pytest.raises(TruncationWindowError):
            act(g, small).compose(act(f, large))
