"""End-to-end acceptance suite: ten headline guarantees, one test each,
and known-answer Gram matrices of the vacuum modules.

Each criterion test prints a single pass/fail line (visible with pytest -v
through its own PASSED/FAILED status, and on stdout under -s).
"""

import random
from fractions import Fraction
from math import factorial, prod

import pytest

from contragredient import contragredient_pair
from discgroup import scaled, scaling
from logblocks.blocks import (coinvariant_dims, functoriality_check,
                              propagation_check, vertex_op_residue)
from logblocks.coordact import (DiscAuto, act, expand_exponential,
                                solve_exp_coords)
from logblocks.curves import (NODAL, GlobalLogForm, nodal_pair,
                              projective_line, restrict_to_disc)
from logblocks.exactalg import SparseVector
from logblocks.logmonoid import (kato_presentation,
                                 relation_membership_check, span_of)
from logblocks.operators import mode_block, realize, u_bracket
from logblocks.series import DiscForm, TruncatedLaurent
from logblocks.vacore import (HEISENBERG, VIRASORO, FockVector, LieElement,
                              TruncationWindowError, VertexAlgebraInstance,
                              theta)


def report(n, name, ok):
    print(f"criterion {n:02d} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {n} ({name}) failed"


def test_criterion_01_nodal_vanishing():
    V = VertexAlgebraInstance(HEISENBERG, 6)
    heis = coinvariant_dims(nodal_pair(), V, max_deg=8)
    W = VertexAlgebraInstance(VIRASORO, 6, Fraction(1, 2))
    vir = coinvariant_dims(nodal_pair(), W)
    ok = (heis.quotient_dims() == {d: 0 for d in range(7)}
          and vir.quotient_dims() == {d: 0 for d in range(7)})
    report(1, "nodal vanishing", ok)


def test_criterion_02_projective_line_baseline():
    V6 = VertexAlgebraInstance(HEISENBERG, 6)
    one = coinvariant_dims(projective_line(1), V6)
    V4 = VertexAlgebraInstance(HEISENBERG, 4)
    two = coinvariant_dims(projective_line(2), V4)
    ok = (one.quotient_dims() == {0: 1, 1: 0, 2: 0, 3: 0, 4: 0, 5: 0, 6: 0}
          and two.total_dim() == 1)
    report(2, "projective line baseline", ok)


def test_criterion_03_propagation_of_vacua():
    V = VertexAlgebraInstance(HEISENBERG, 4)
    rep = propagation_check(projective_line(1), projective_line(2), V)
    report(3, "propagation of vacua", rep.hypothesis_applies
           and rep.all_equal())


def test_criterion_04_functoriality():
    V = VertexAlgebraInstance(HEISENBERG, 4)
    rep = functoriality_check(projective_line(1), V)
    report(4, "functoriality inequality", rep.holds())


def test_criterion_05_virasoro_relations():
    ok = True
    checked = 0
    for c in (Fraction(1, 2), Fraction(1), Fraction(26)):
        V = VertexAlgebraInstance(VIRASORO, 6, c)
        omega = V.conformal_vector
        for n in range(-4, 5):
            for m in range(-4, 5):
                for d in range(7):
                    degrees = (d, d - m, d - n, d - n - m)
                    if any(t < 0 or t > 6 for t in degrees):
                        continue
                    lhs = mode_block(V, omega, n + 1, d - m).compose(
                        mode_block(V, omega, m + 1, d)).plus(
                        mode_block(V, omega, m + 1, d - n).compose(
                            mode_block(V, omega, n + 1, d)),
                        Fraction(-1))
                    rhs = mode_block(V, omega, n + m + 1, d).scaled(n - m)
                    if n + m == 0:
                        central = c * Fraction(n ** 3 - n, 12)
                        rhs = rhs.plus(
                            mode_block(V, (), -1, d).scaled(central))
                    if lhs != rhs:
                        ok = False
                    checked += 1
    report(5, "virasoro relations with central term", ok and checked > 500)


def test_criterion_06_bracket_matches_matrix_commutator():
    # window 8 keeps every bracket product of two degree<=4 vectors exact
    algebras = [VertexAlgebraInstance(HEISENBERG, 8),
                VertexAlgebraInstance(VIRASORO, 8, Fraction(1))]
    rnd = random.Random(20)
    ok = True
    checked = 0
    while checked < 30:
        V = rnd.choice(algebras)
        da, db = rnd.randint(0, 4), rnd.randint(0, 4)
        if not V.basis(da) or not V.basis(db):
            continue
        pa, pb = rnd.choice(V.basis(da)), rnd.choice(V.basis(db))
        m, k = rnd.randint(-2, 2), rnd.randint(-2, 2)
        d = rnd.randint(0, 4)
        try:
            lhs = mode_block(V, pa, m, d + db - k - 1).compose(
                mode_block(V, pb, k, d)).plus(
                mode_block(V, pb, k, d + da - m - 1).compose(
                    mode_block(V, pa, m, d)), Fraction(-1))
        except TruncationWindowError:
            continue
        br = u_bracket(LieElement.mode(pa, m), LieElement.mode(pb, k), V)
        rhs = realize(br, V, d)
        if lhs != rhs:
            ok = False
        checked += 1
    report(6, "bracket oracle equivalence", ok)


def test_criterion_07_coordinate_round_trip():
    rnd = random.Random(21)
    ok = True
    for _ in range(50):
        coeffs = [Fraction(rnd.randint(1, 5), rnd.randint(1, 3))]
        coeffs += [Fraction(rnd.randint(-6, 6), rnd.randint(1, 4))
                   for _ in range(6)]
        f = DiscAuto(tuple(coeffs), 8)
        back = expand_exponential(solve_exp_coords(f))
        if back.coefficients != f.coefficients:
            ok = False
    # scaling acts on a degree-m vector by v0^{-m}
    V = VertexAlgebraInstance(HEISENBERG, 4)
    a = Fraction(3, 2)
    endo = act(scaling(a, 6), V)
    for d in range(5):
        for p in V.basis(d):
            got = endo.apply(FockVector.basis(p))
            if got != FockVector.basis(p).scaled(a ** -d):
                ok = False
    report(7, "exponential coordinate round trip", ok)


def test_criterion_08_total_derivative_vanishing():
    V = VertexAlgebraInstance(HEISENBERG, 6)
    probes = [FockVector.basis(p) for d in range(4) for p in V.basis(d)]
    rnd = random.Random(22)
    ok = True
    for _ in range(100):
        d = rnd.randint(0, 4)
        v = FockVector.basis(rnd.choice(V.basis(d)))
        n = rnd.randint(-4, 4)

        def mono(k, order=12):
            return DiscForm(TruncatedLaurent.from_terms({k: 1}, order), "dt")

        elt = vertex_op_residue(V.translate(v), mono(n)).plus(
            vertex_op_residue(v, mono(n - 1)), Fraction(n))
        for u in probes:
            if not elt.apply(V, u).is_zero():
                ok = False
    report(8, "total derivative vanishing", ok)


def test_criterion_09_theta_involution_and_pairing():
    heis = VertexAlgebraInstance(HEISENBERG, 6)
    vir = VertexAlgebraInstance(VIRASORO, 6, Fraction(1, 2))
    ok = True
    for V in (heis, vir):
        for d in range(5):
            for p in V.basis(d):
                for j in range(-4, 5):
                    x = LieElement.mode(p, j)
                    if theta(theta(x, V), V) != x:
                        ok = False
    # pairing identity: the dual-side action computed through realized
    # operators agrees with the vector-level route for 50 random triples
    rnd = random.Random(23)
    checked = 0
    while checked < 50:
        V = rnd.choice([heis, vir])
        da, du = rnd.randint(0, 3), rnd.randint(0, 3)
        if not V.basis(da) or not V.basis(du):
            continue
        A = rnd.choice(V.basis(da))
        n = rnd.randint(-3, 3)
        x = LieElement.mode(A, n)
        u = FockVector.basis(rnd.choice(V.basis(du)))
        acted = theta(x, V).apply(V, u)
        dpsi = acted.degree()
        if dpsi is None or dpsi > V.truncation:
            continue
        if not V.basis(dpsi):
            continue
        psi = FockVector.basis(rnd.choice(V.basis(dpsi)))
        rhs = contragredient_pair(V, psi, x, u)
        try:
            op = realize(theta(x, V), V, du)
        except TruncationWindowError:
            continue
        image = op.apply(u)
        lhs = sum((psi.terms.get(q, Fraction(0)) * c
                   for q, c in image.terms.items()), Fraction(0))
        if lhs != rhs:
            ok = False
        checked += 1
    report(9, "theta involution and contragredient pairing", ok)


def test_criterion_10_kato_presentation_and_restriction():
    p = kato_presentation("nodal")
    one = p.ring.one().coeffs
    ok = (p.generators == ("dx/x", "dy/y")
          and len(p.relations) == 1
          and p.relations[0][0].coeffs == one
          and p.relations[0][1].coeffs == one
          and relation_membership_check(p, sample_count=50, seed=0))
    # restriction to the first branch frame d(t^-1)/t^-1 expands as
    # (a0 - a0') + (a1 - a1') t^-1 + ...
    inf1 = nodal_pair().punctures[0]
    rnd = random.Random(24)
    for _ in range(20):
        fc = {(i, 0): Fraction(rnd.randint(-5, 5)) for i in range(5)}
        gc = {(0, i): Fraction(rnd.randint(-5, 5)) for i in range(5)}
        omega = GlobalLogForm(NODAL, f=fc, g=gc)
        got = scaled(restrict_to_disc(omega, inf1, 10).in_dt_over_t(), -1)
        want = {-i: fc.get((i, 0), Fraction(0)) - gc.get((i, 0), Fraction(0))
                for i in range(5)}
        want = {e: c for e, c in want.items() if c != 0}
        if got.series.coefficients != want:
            ok = False
    report(10, "kato presentation and nodal restriction", ok)


# --- known-answer Gram matrices ------------------------------------------


def shapovalov_gram(V, d, raise_by):
    """Gram matrix of <x_{-lam}|0>, x_{-mu}|0>> on the degree-d basis.

    The basis vector of lam = (lam_1 >= lam_2 >= ...) is
    x_{-lam_1} x_{-lam_2} ... |0>, and the adjoint of x_{-n} is x_n, so
    the pairing applies x_{lam_1} first, then x_{lam_2}, ..., and reads
    off the vacuum coefficient.
    """
    rows = []
    for lam in V.basis(d):
        row = []
        for mu in V.basis(d):
            v = FockVector.basis(mu)
            for part in lam:
                v = raise_by(part, v)
            row.append(v.terms.get((), 0))
        rows.append(row)
    return rows


def gram_rank(rows):
    return span_of((SparseVector(dict(enumerate(r)), len(r)) for r in rows),
                   len(rows)).rank


SHAPOVALOV_RANKS = [
    # the Ising vacuum character: first singular vector at degree 6
    (Fraction(1, 2), [1, 1, 2, 2, 3, 3, 5]),
    # the Lee-Yang (Rogers-Ramanujan) character: singular vector at degree 4
    (Fraction(-22, 5), [1, 1, 1, 1, 2, 2, 3]),
    # no singular vector through degree 8: full rank
    (Fraction(7, 10), [1, 1, 2, 2, 4, 4, 7]),
    (Fraction(1), [1, 1, 2, 2, 4, 4, 7]),
]


@pytest.mark.parametrize("c,ranks", SHAPOVALOV_RANKS)
def test_virasoro_shapovalov_ranks(c, ranks):
    V = VertexAlgebraInstance(VIRASORO, 8, c)
    got = [gram_rank(shapovalov_gram(V, d, V.apply_L)) for d in range(2, 9)]
    assert got == ranks
    # the ranks of c = 7/10 and c = 1 are full: they are these dimensions
    assert [V.dim(d) for d in range(2, 9)] == [1, 1, 2, 2, 4, 4, 7]


def contragredient_gram(V, d):
    """Rows of the dual vectors of the degree-d basis, built in the
    contragredient module and read on the basis.

    The dual of L_{-lam_1} ... L_{-lam_k}|0> is L_{-lam_1} ... L_{-lam_k}
    acting on the dual vacuum, where <x psi, u> = <psi, theta(x) u>
    (``contragredient_pair``) gives each step's dual vector in the dual
    partition basis.  Since theta(L_{-n}) = -L_n, the row of lam is the
    Shapovalov row times (-1)^k.
    """
    rows = []
    for lam in V.basis(d):
        psi, deg = FockVector.vacuum(), 0
        for part in reversed(lam):
            deg += part
            x = LieElement.mode((2,), 1 - part)  # omega_[1-n] = L_{-n}
            psi = FockVector({p: contragredient_pair(V, psi, x,
                                                     FockVector.basis(p))
                              for p in V.basis(deg)})
        rows.append([psi.terms.get(mu, 0) for mu in V.basis(d)])
    return rows


@pytest.mark.parametrize("c,ranks", SHAPOVALOV_RANKS[:2])
def test_virasoro_ranks_through_contragredient_pairing(c, ranks):
    V = VertexAlgebraInstance(VIRASORO, 8, c)
    grams = [contragredient_gram(V, d) for d in range(2, 9)]
    assert [gram_rank(g) for g in grams] == ranks
    for d, gram in zip(range(2, 9), grams):
        want = shapovalov_gram(V, d, V.apply_L)
        assert gram == [[(-1) ** len(lam) * e for e in row]
                        for lam, row in zip(V.basis(d), want)]


def test_heisenberg_gram_is_diagonal():
    V = VertexAlgebraInstance(HEISENBERG, 8)
    for d in range(9):
        gram = shapovalov_gram(
            V, d, lambda n, v: V.apply_mode((1,), n, v))
        for lam, row in zip(V.basis(d), gram):
            z = prod(i ** lam.count(i) * factorial(lam.count(i))
                     for i in set(lam))
            assert row == [z if mu == lam else 0 for mu in V.basis(d)]
