import random
from fractions import Fraction

import pytest

from contragredient import contragredient_pair
from logblocks.exactalg import DimensionMismatch
from logblocks.operators import (GradedEndo, check_axioms, mode_block,
                                 realize, u_bracket)
from logblocks.vacore import (HEISENBERG, VIRASORO, FockVector, LieElement,
                              TruncationWindowError, VertexAlgebraInstance)


@pytest.fixture(scope="module")
def heis():
    return VertexAlgebraInstance(HEISENBERG, 6)


@pytest.fixture(scope="module")
def vir():
    return VertexAlgebraInstance(VIRASORO, 6, Fraction(1, 2))


class TestGradedEndo:
    def test_identity_apply(self, heis):
        v = FockVector({(2, 1): 3, (1, 1, 1): Fraction(-1, 2)})
        assert mode_block(heis, (), -1, 3).apply(v) == v

    def test_compose_matches_sequential_apply(self, vir):
        a = mode_block(vir, (2,), 1, 5)
        b = mode_block(vir, (3,), -1, 2)
        v = FockVector.basis((2,)).scaled(5)
        assert a.compose(b).apply(v) == a.apply(b.apply(v))

    def test_domain_mismatch(self, heis):
        a = mode_block(heis, (1,), 0, 2)
        with pytest.raises(DimensionMismatch):
            a.plus(mode_block(heis, (1,), 0, 1))
        with pytest.raises(TruncationWindowError):
            a.compose(mode_block(heis, (1,), -1, 2))

    def test_plus_and_scaled(self, heis):
        a = mode_block(heis, (2, 1), -1, 2)
        assert a.plus(a.scaled(-1)) == realize(LieElement.zero(), heis, 2)
        v = FockVector({(2,): 1, (1, 1): Fraction(-2, 3)})
        assert a.scaled(3).apply(v) == a.apply(v).scaled(3) != a.apply(v)


class TestModeBlocks:
    def test_vacuum_mode_is_identity(self, heis):
        for d in range(4):
            assert mode_block(heis, (), -1, d) == GradedEndo(
                {p: FockVector.basis(p) for p in heis.basis(d)},
                heis.truncation)
        for d in range(1, 4):
            assert mode_block(heis, (), 0, d) == realize(LieElement.zero(),
                                                         heis, d)

    def test_window_error(self, heis):
        with pytest.raises(TruncationWindowError):
            mode_block(heis, (1,), -1, 6)  # target degree 7 > N

    def test_degree_bookkeeping(self, heis, vir):
        # every block maps the basis of V_d into V_{d+m-n-1}, no strays
        for V in (heis, vir):
            for da in range(3):
                for A in V.basis(da):
                    for n in range(-2, 3):
                        for d in range(3):
                            target = d + da - n - 1
                            if not (0 <= target <= V.truncation):
                                continue
                            block = mode_block(V, A, n, d)
                            assert list(block.images) == V.basis(d)
                            assert all(w.is_zero() or w.degree() == target
                                       for w in block.images.values())


class TestAxioms:
    def test_heisenberg_passes(self, heis):
        entries = check_axioms(heis, max_degree=3)
        assert all(e["passed"] for e in entries), entries

    def test_virasoro_passes(self, vir):
        entries = check_axioms(vir, max_degree=3)
        assert all(e["passed"] for e in entries), entries

    def test_fault_injection(self):
        # corrupting the composite-mode memo must trip the locality check
        V = VertexAlgebraInstance(HEISENBERG, 4)
        V.apply_mode((1, 1), 0, FockVector.basis((1,)))
        key = ((1, 1), 0, (1,))
        memo = V._caches["_apply_partition_mode"]
        assert key in memo
        memo[key] = memo[key].plus(FockVector.basis((2,)))
        entries = check_axioms(V, max_degree=2)
        report = {e["check"]: e for e in entries}
        assert not report["locality_commutator"]["passed"]
        # each failing check names its first failing case
        assert {e["check"]: e["witness"] for e in entries} == {
            "vacuum": None,
            "translation": "(T1*[1])_(-4) on 1*|0>",
            "locality_commutator": "[1*[1]_(-2), 1*[1, 1]_(0)] on 1*[1]",
            "virasoro_bracket": "[L_-4, L_-1] on 1*[1]",
            "l0_grading": None}


class TestBracket:
    def test_spec_example_identity_mode(self, heis):
        x = LieElement.mode((1,), 1)
        y = LieElement.mode((1,), -1)
        out = u_bracket(x, y, heis)
        assert out == LieElement.mode((), -1)

    def test_antisymmetry_diagonal(self, heis):
        x = LieElement.mode((1,), 0)
        assert u_bracket(x, x, heis).is_zero()

    def test_virasoro_modes_via_omega(self, heis):
        # [omega_[2], omega_[1]] realized equals the commutator of L_1, L_0
        x = LieElement.mode(heis.conformal_vector, 2)
        y = LieElement.mode(heis.conformal_vector, 1)
        br = u_bracket(x, y, heis)
        omega = heis.conformal_vector
        for d in range(1, 4):
            lhs = mode_block(heis, omega, 2, d).compose(
                mode_block(heis, omega, 1, d)).plus(
                mode_block(heis, omega, 1, d - 1).compose(
                    mode_block(heis, omega, 2, d)), Fraction(-1))
            assert realize(br, heis, d) == lhs

    def test_matches_commutator_random(self):
        # window 8 so no bracket product of two degree<=4 vectors is dropped
        algebras = [VertexAlgebraInstance(HEISENBERG, 8),
                    VertexAlgebraInstance(VIRASORO, 8, Fraction(1, 2))]
        rnd = random.Random(3)
        checked = 0
        while checked < 30:
            V = rnd.choice(algebras)
            da = rnd.randint(0, 4)
            db = rnd.randint(0, 4)
            if not V.basis(da) or not V.basis(db):
                continue
            m = rnd.randint(-2, 2)
            k = rnd.randint(-2, 2)
            x = LieElement.mode(rnd.choice(V.basis(da)), m)
            y = LieElement.mode(rnd.choice(V.basis(db)), k)
            d = rnd.randint(0, 4)
            try:
                xy = mode_block(V, next(iter(x.terms))[0], m,
                                d + db - k - 1).compose(
                    mode_block(V, next(iter(y.terms))[0], k, d))
                yx = mode_block(V, next(iter(y.terms))[0], k,
                                d + da - m - 1).compose(
                    mode_block(V, next(iter(x.terms))[0], m, d))
            except TruncationWindowError:
                continue
            br = u_bracket(x, y, V)
            comm = xy.plus(yx, Fraction(-1))
            assert realize(br, V, d) == comm
            checked += 1

    def test_jacobi_identity(self, heis):
        rnd = random.Random(5)
        probes = [FockVector.vacuum(), FockVector.basis((1,)),
                  FockVector.basis((1, 1))]
        for _ in range(10):
            parts = [rnd.choice(heis.basis(rnd.randint(1, 2)))
                     for _ in range(3)]
            xs = [LieElement.mode(p, rnd.randint(-1, 1)) for p in parts]
            total = LieElement.zero()
            for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
                total = total.plus(
                    u_bracket(xs[i], u_bracket(xs[j], xs[k], heis), heis))
            for u in probes:
                assert total.apply(heis, u).is_zero()


class TestContragredient:
    def test_spec_heisenberg_example(self, heis):
        # <b_[1] psi, u> = <psi, b_[-1] u>
        psi = FockVector.basis((1,))
        u = FockVector.vacuum()
        x = LieElement.mode((1,), 1)
        lhs = contragredient_pair(heis, psi, x, u)
        rhs_vec = heis.apply_mode((1,), -1, u)
        assert lhs == rhs_vec.terms.get((1,), Fraction(0)) == 1

    def test_raising_pairs_against_lowering(self, heis):
        # <b_[1] (1,1)*, (1,)> = <(1,1)*, b_[-1] (1,)> = 1
        psi = FockVector.basis((1, 1))
        u = FockVector.basis((1,))
        val = contragredient_pair(heis, psi, LieElement.mode((1,), 1), u)
        assert val == 1

    def test_charge_zero_mode_pairs_to_zero(self, heis):
        psi = FockVector.basis((2,))
        u = FockVector.basis((1,))
        x = LieElement.mode((1,), 0)  # b_0 acts by zero on the Fock space
        assert contragredient_pair(heis, psi, x, u) == 0
