import pickle
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logblocks.exactalg import SparseVector, Subspace, span_insert
from logblocks.logmonoid import span_contains
from logblocks.vacore import (HEISENBERG, VIRASORO, FockVector, LieElement,
                              VertexAlgebraInstance, binom, partitions_of,
                              theta)


@pytest.fixture(scope="module")
def heis():
    return VertexAlgebraInstance(HEISENBERG, 6)


@pytest.fixture(scope="module")
def vir():
    return VertexAlgebraInstance(VIRASORO, 6, Fraction(1, 2))


class TestBasis:
    def test_partition_counts(self, heis, vir):
        assert [heis.dim(d) for d in range(7)] == [1, 1, 2, 3, 5, 7, 11]
        assert [vir.dim(d) for d in range(7)] == [1, 0, 1, 1, 2, 2, 4]

    def test_cft_type(self, heis, vir):
        for V in (heis, vir):
            assert V.basis(0) == [()]

    def test_partitions_canonical(self):
        for p in partitions_of(6):
            assert list(p) == sorted(p, reverse=True)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            VertexAlgebraInstance("other", 4)
        with pytest.raises(ValueError):
            VertexAlgebraInstance(VIRASORO, 4)  # central charge required


class TestCoefficients:
    @settings(max_examples=60, deadline=None)
    @given(st.dictionaries(
        st.sampled_from(partitions_of(4) + partitions_of(3)),
        st.one_of(st.integers(-20, 20),
                  st.fractions(min_value=-20, max_value=20,
                               max_denominator=6)),
        max_size=6))
    def test_integral_coefficients_are_int(self, mixed):
        v = FockVector(mixed)
        for c in v.terms.values():
            if c == int(c):
                assert type(c) is int
            else:
                assert isinstance(c, Fraction)
        built = FockVector({p: Fraction(c) for p, c in mixed.items()})
        assert v == built
        assert hash(v) == hash(built)
        # every denominator divides 60
        scaled = built.scaled(Fraction(60))
        assert all(type(c) is int for c in scaled.terms.values())
        assert scaled == v.scaled(60)

    def test_binom_is_exact_int(self):
        for m in range(-10, 11):
            for n in range(9):
                got = binom(m, n)
                assert type(got) is int
                assert got == Fraction(prod(m - i for i in range(n)),
                                       factorial(n))
        assert binom(4, -1) == 0

    def test_shared_zero_is_read_only(self):
        zero = FockVector.zero()
        assert zero is FockVector.zero()
        with pytest.raises(TypeError):
            zero.terms[(1,)] = 1
        assert zero.is_zero()
        assert zero == FockVector() and FockVector() == zero
        assert hash(zero) == hash(FockVector())

    def test_mode_caches_share_the_zero(self):
        V = VertexAlgebraInstance(VIRASORO, 4, Fraction(1, 2))
        assert V.apply_L(-1, FockVector.vacuum()).is_zero()
        V.apply_L(3, FockVector.basis((2, 2)))
        zeros = [v for name in ("_apply_partition_mode", "_vir_L")
                 for v in V._caches[name].values() if v.is_zero()]
        assert zeros
        assert all(v is FockVector.zero() for v in zeros)


class TestHeisenbergModes:
    def test_cached_modes_follow_the_commutation_rule(self):
        # b_n b_{-p_1}...b_{-p_k}|0> for n >= 0 is the sum over i of
        # [b_n, b_{-p_i}] times the other factors, since b_n|0> = 0, with
        # [b_m, b_k] = m delta_{m+k,0}; for n < 0 all factors commute
        V = VertexAlgebraInstance(HEISENBERG, 6)
        for n in range(-6, 7):
            for d in range(7):
                for p in partitions_of(d):
                    want = {}
                    if n < 0:
                        want[tuple(sorted(p + (-n,), reverse=True))] = 1
                    else:
                        for i, part in enumerate(p):
                            rest = p[:i] + p[i + 1:]
                            want[rest] = want.get(rest, 0) + n * (n == part)
                    got = V._gen_mode(n, p)
                    assert got == FockVector(want)
                    assert V._gen_mode(n, p) is got
                    assert V._caches["_gen_mode"][(n, p)] is got
                    if got.is_zero():
                        assert got is FockVector.zero()


class TestSingleTermModes:
    @pytest.mark.parametrize("kind,c", [(HEISENBERG, None),
                                        (VIRASORO, Fraction(1, 2))],
                             ids=["heisenberg", "virasoro"])
    def test_partition_path_matches_vector_path(self, kind, c):
        V = VertexAlgebraInstance(kind, 5, c)
        parts = [p for d in range(6) for p in V.basis(d)]
        for A in parts:
            for n in range(-6, 7):
                for q in parts:
                    for scale in (1, Fraction(3, 2)):
                        v = FockVector.basis(q).scaled(scale)
                        got = V.apply_mode(A, n, v)
                        assert got == V.apply_mode(FockVector.basis(A), n, v)
                    # a unit single term hands out the cached vector itself
                    u = FockVector.basis(q)
                    assert V.apply_mode(A, n, u) is V.apply_mode(A, n, u)

    def test_single_lie_term_scales_the_mode(self, heis):
        u = FockVector.basis((2, 1))
        mode = heis.apply_mode((1, 1), -1, u)
        assert LieElement.mode((1, 1), -1).apply(heis, u) is mode
        assert LieElement.mode((1, 1), -1, Fraction(3, 2)).apply(heis, u) \
            == mode.scaled(Fraction(3, 2))


class TestCreationModes:
    """A_(n) q != 0 for n <= -1 (n = -1 for the vacuum): the associated
    graded of the PBW filtration is a polynomial ring, which
    ``TensorWindow.apply_generator`` relies on to drop degrees whole."""

    @pytest.mark.parametrize("kind,c", [(HEISENBERG, None),
                                        (VIRASORO, Fraction(1, 2)),
                                        (VIRASORO, Fraction(-22, 5)),
                                        (VIRASORO, Fraction(0))],
                             ids=["heisenberg", "virasoro-1/2",
                                  "virasoro-minus-22/5", "virasoro-0"])
    def test_creation_modes_never_vanish(self, kind, c):
        V = VertexAlgebraInstance(kind, 6, c)
        vectors = [A for d in range(1, 7) for A in V.basis(d)]
        for q in [()] + vectors:
            u = FockVector.basis(q)
            assert V.apply_mode((), -1, u) == u
            for A in vectors:
                for n in range(-6, 0):
                    assert not V.apply_mode(A, n, u).is_zero(), (A, n, q)

    def test_nonnegative_modes_may_vanish(self, heis):
        # b_(0) keeps the degree and still kills every vector
        assert heis.apply_mode((1,), 0, FockVector.basis((2, 1))).is_zero()
        # the only nonzero mode of the vacuum is |0>_(-1) = id
        assert heis.apply_mode((), -2, FockVector.vacuum()).is_zero()


@lru_cache(maxsize=None)
def int_binom(m, k):
    """C(m, k) for any integer m: k! divides m(m-1)...(m-k+1)."""
    return prod(m - i for i in range(k)) // factorial(k)


def wick_mode(lam, n, q):
    """(b_{-lam}|0>)_(n) on b_{-q}|0>, without the reconstruction recursion.

    Y(b_{-lam}|0>, z) is the normally ordered product over the parts m of
    lam of d^(m-1) b(z) / (m-1)! = sum_j C(-j-1, m-1) b_j z^(-j-m) (Wick;
    Kac, Vertex Algebras for Beginners, ch. 3), and (.)_(n) is its
    z^(-n-1) coefficient.  On the polynomial ring in x_1, x_2, ..., with
    b_{-q}|0> the monomial x_{q_1} x_{q_2} ..., b_{-m} multiplies by x_m,
    b_m acts as m d/dx_m, and b_0 by zero.  Normal order puts the
    annihilators b_j (j >= 0) right of the creators; each factor of the
    product contributes one of the two, and equal parts of lam give equal
    factors, so only the number of creators per part value is chosen.
    """
    target = -n - 1
    counts = Counter(lam)
    out = {}
    for picks in product(*(range(c + 1) for c in counts.values())):
        create, annihilate, ways = [], [], 1
        for (m, c), r in zip(counts.items(), picks):
            create += [m] * r
            annihilate += [m] * (c - r)
            ways *= int_binom(c, r)
        states = {(q, 0): ways}  # (monomial, z exponent) -> coefficient
        for m in annihilate:
            nxt = {}
            for (p, e), coef in states.items():
                for j in set(p):
                    rest = list(p)
                    rest.remove(j)
                    key = (tuple(rest), e - j - m)
                    nxt[key] = nxt.get(key, 0) + (
                        coef * int_binom(-j - 1, m - 1) * j * p.count(j))
            states = nxt
        for k, m in enumerate(create):
            # b_{-i} (i >= m, else its coefficient is 0) raises the exponent
            # by i - m, and each later creator m' by at least 0 >= 1 - m'
            room = target - sum(1 - m2 for m2 in create[k + 1:])
            nxt = {}
            for (p, e), coef in states.items():
                last = room - e + m
                for i in (range(m, last + 1) if k + 1 < len(create)
                          else [last] if last >= m else []):
                    key = (tuple(sorted(p + (i,), reverse=True)), e + i - m)
                    nxt[key] = nxt.get(key, 0) + coef * int_binom(i - 1, m - 1)
            states = nxt
        for (p, e), coef in states.items():
            if e == target:
                out[p] = out.get(p, 0) + coef
    return FockVector(out)


class TestWickOracle:
    def test_heisenberg_modes_match_normal_ordered_products(self):
        V = VertexAlgebraInstance(HEISENBERG, 6)
        parts = [p for d in range(7) for p in partitions_of(d)]
        nonzero = 0
        for lam in parts:
            for n in range(-6, 7):
                for q in parts:
                    want = wick_mode(lam, n, q)
                    assert V.apply_mode(lam, n, FockVector.basis(q)) == want
                    nonzero += not want.is_zero()
        assert nonzero > 1000


class TestModeValues:
    def test_heisenberg_level(self, heis):
        # b_1 b_{-1}|0> = |0>
        out = heis.apply_mode((1,), 1, FockVector.basis((1,)))
        assert out == FockVector.vacuum()

    def test_virasoro_central_term_on_vacuum(self, vir):
        # L_2 omega = (c/2)|0>
        out = vir.apply_L(2, vir.conformal_vector)
        assert out == FockVector.vacuum().scaled(Fraction(1, 4))


class TestTheta:
    def test_heisenberg_generator(self, heis):
        assert theta(LieElement.mode((1,), 3), heis) == \
            LieElement.mode((1,), -3)

    def test_virasoro_omega(self, vir):
        # L_1 omega = 0, so theta(omega_[j]) = -omega_[2-j]
        assert vir.apply_L(1, vir.conformal_vector).is_zero()
        assert theta(LieElement.mode((2,), 3), vir) == \
            LieElement.mode((2,), -1, Fraction(-1))

    def test_involution(self, heis, vir):
        for V in (heis, vir):
            for d in range(5):
                for p in V.basis(d):
                    for j in range(-4, 5):
                        x = LieElement.mode(p, j)
                        assert theta(theta(x, V), V) == x


def theta_oracle(x, V):
    """theta by its formula, walking L_1 powers through V.apply_L."""
    acc = {}
    for (p, j), c in x.terms.items():
        a = sum(p)
        vec, i = FockVector.basis(p), 0
        while not vec.is_zero():
            scale = c * Fraction(1 if a % 2 else -1, factorial(i))
            for q, cq in vec.terms.items():
                key = (q, 2 * a - j - i - 2)
                acc[key] = acc.get(key, 0) + scale * cq
            vec = V.apply_L(1, vec)
            i += 1
    return LieElement(acc)


ALGEBRAS = [(HEISENBERG, None), (VIRASORO, Fraction(1, 2)),
            (VIRASORO, Fraction(-22, 5))]


class TestThetaCache:
    """theta reads the L_1 chain of each partition from a cache on the
    algebra; it must agree with the formula on a fresh instance."""

    @pytest.mark.parametrize("kind,c", ALGEBRAS,
                             ids=["heisenberg", "vir-1/2", "vir-22/5"])
    def test_matches_uncached_oracle(self, kind, c):
        V = VertexAlgebraInstance(kind, 5, c)
        oracle = VertexAlgebraInstance(kind, 5, c)
        view = V.replace(truncation=2)
        for d in range(6):
            for p in V.basis(d):
                for j in range(-3, 4):
                    x = LieElement.mode(p, j)
                    want = theta_oracle(x, oracle)
                    # the view fills the cache that V then reads
                    assert theta(x, view) == want
                    assert theta(x, V) == want

    def test_sums_of_terms(self, vir):
        x = LieElement.mode((2, 2), 1, 3).plus(
            LieElement.mode((4,), 3, Fraction(-1, 2))).plus(
            LieElement.mode((2,), 0))
        want = theta_oracle(
            x, VertexAlgebraInstance(VIRASORO, 6, Fraction(1, 2)))
        assert theta(x, vir) == want

    def test_result_does_not_alias_the_cache(self, heis):
        x = LieElement.mode((2, 1), 1).plus(LieElement.mode((3,), -1, 2))
        want = theta(x, heis)
        first = theta(x, heis)
        for key in first.terms:
            first.terms[key] = Fraction(99)
        first.terms[((5,), 0)] = Fraction(1)
        assert theta(x, heis) == want == theta_oracle(
            x, VertexAlgebraInstance(HEISENBERG, 6))


class TestCaches:
    """Every memo of an algebra lives in its one ``_caches`` dict."""

    def test_truncation_view_shares_the_caches(self):
        V = VertexAlgebraInstance(VIRASORO, 5, Fraction(1, 2))
        view = V.replace(truncation=2)
        assert view._caches is V._caches
        got = view.apply_mode((2, 2), 1, FockVector.basis((3,)))
        assert V.apply_mode((2, 2), 1, FockVector.basis((3,))) is got
        assert V._caches["_apply_partition_mode"][((2, 2), 1, (3,))] is got

    def test_equal_instances_share_nothing(self):
        V, W = (VertexAlgebraInstance(HEISENBERG, 4) for _ in range(2))
        assert V == W and V._caches is not W._caches

        def results(U):
            return [U.basis(3), U._gen_mode(-1, (1,)),
                    U.apply_mode((2, 1), -1, FockVector.basis((1,))),
                    U._theta_chain((2, 1))]

        first = results(V)
        assert W._caches == {}
        for mine, theirs in zip(results(W), first):
            assert mine == theirs and mine is not theirs

    def test_second_theta_call_applies_no_L(self, monkeypatch):
        V = VertexAlgebraInstance(VIRASORO, 5, Fraction(1, 2))
        parts = [p for d in range(1, 6) for p in V.basis(d)]
        x = LieElement({(p, 1): 1 for p in parts})
        y = LieElement({(p, -2): Fraction(1, 3) for p in parts})
        want = theta_oracle(y, VertexAlgebraInstance(VIRASORO, 5,
                                                     Fraction(1, 2)))
        theta(x, V)
        calls = []
        apply_L = VertexAlgebraInstance.apply_L
        monkeypatch.setattr(VertexAlgebraInstance, "apply_L",
                            lambda self, k, v: calls.append(k)
                            or apply_L(self, k, v))
        assert theta(y, V) == want
        assert calls == []
        # the counter does see the L_1 walk of a cold algebra
        theta(y, VertexAlgebraInstance(VIRASORO, 5, Fraction(1, 2)))
        assert calls and set(calls) == {1}


class TestCacheSharingRule:
    """A copy shares its algebra's memos only when it has the same kind
    and central charge; a copy of another algebra starts with its own."""

    def test_copy_at_another_charge_reads_its_own_modes(self):
        V = VertexAlgebraInstance(VIRASORO, 4, Fraction(1, 2))
        assert V.apply_L(2, FockVector.basis((2,))) == FockVector(
            {(): Fraction(1, 4)})
        W = V.replace(central_charge=Fraction(0))
        assert W._caches is not V._caches
        assert W.apply_L(2, FockVector.basis((2,))).is_zero()

    def test_copy_of_another_kind_reads_its_own_basis(self):
        H = VertexAlgebraInstance(HEISENBERG, 4)
        assert len(H.basis(4)) == 5
        V = H.replace(kind=VIRASORO, central_charge=Fraction(1, 2))
        assert V.basis(4) == [(4,), (2, 2)]
        assert len(H.basis(4)) == 5

    def test_equal_charge_copy_shares(self):
        V = VertexAlgebraInstance(VIRASORO, 4, Fraction(1, 2))
        assert V.replace(central_charge=Fraction(2, 4))._caches is V._caches
        assert V.replace(truncation=1, central_charge="1/2")._caches \
            is V._caches


class TestTruncationRefusal:
    """The truncation N is an int >= 0; anything else is refused when the
    algebra is built, by ``replace`` and by pickle too."""

    @pytest.mark.parametrize("N", [-1, -3, 2.0, "3", True])
    @pytest.mark.parametrize("kind,c", [(HEISENBERG, None),
                                        (VIRASORO, Fraction(1, 2))])
    def test_refused(self, kind, c, N):
        with pytest.raises(ValueError, match="truncation must be an int"):
            VertexAlgebraInstance(kind, N, c)
        with pytest.raises(ValueError, match="truncation must be an int"):
            VertexAlgebraInstance(kind, 2, c).replace(truncation=N)

    def test_zero_is_a_window(self):
        V = VertexAlgebraInstance(HEISENBERG, 0)
        assert V.truncation == 0 and V.basis(0) == [()]
        assert pickle.loads(pickle.dumps(V)) == V


class TestLieCoefficients:
    """LieElement keeps FockVector's coefficient rule."""

    def test_integral_coefficients_are_int(self):
        two = LieElement.mode((1,), 0, Fraction(4, 2)).terms[((1,), 0)]
        assert type(two) is int and two == 2
        half = LieElement.mode((1,), 0, Fraction(6, 4)).terms[((1,), 0)]
        assert type(half) is Fraction and half == Fraction(3, 2)
        x = LieElement.mode(FockVector({(1, 1): Fraction(1, 2)}), 1, 4)
        for y in (x, x.plus(x, Fraction(1, 2)), x.scaled(Fraction(3, 2)),
                  LieElement({((1,), 0): 2.0})):
            assert all(type(c) is int for c in y.terms.values()), y
        assert x.scaled(Fraction(1, 4)).terms == {((1, 1), 1): Fraction(1, 2)}
        assert x.scaled(0).is_zero() and x.plus(x, -1).is_zero()

    @pytest.mark.parametrize("kind,c", ALGEBRAS,
                             ids=["heisenberg", "vir-1/2", "vir-22/5"])
    def test_apply_is_the_sum_of_its_terms(self, kind, c):
        V = VertexAlgebraInstance(kind, 4, c)
        scales = (1, 2, Fraction(-1, 3), Fraction(5, 2))
        parts = [p for d in range(4) for p in V.basis(d)]
        terms = {(p, n): scales[(i + n) % len(scales)]
                 for i, p in enumerate(parts) for n in (-2, 0, 1)}
        x = LieElement(terms)
        assert len(x.terms) > 1
        for d in range(5):
            for q in V.basis(d):
                u = FockVector.basis(q)
                want = FockVector()
                for key, coef in terms.items():
                    want = want.plus(LieElement({key: coef}).apply(V, u))
                assert x.apply(V, u) == want, (kind, q)


class TestC2:
    def test_degree_two_membership(self, heis):
        # b_{-2}|0> is in C2, b_{-1}^2|0> is not
        def coords(v):
            return SparseVector({heis.basis(2).index(p): c
                                 for p, c in v.terms.items()}, heis.dim(2))

        space = Subspace.empty(heis.dim(2))
        img = heis.apply_mode((1,), -2, FockVector.vacuum())
        space = span_insert(space, coords(img))
        assert span_contains(space, coords(FockVector.basis((2,))))
        assert not span_contains(space, coords(FockVector.basis((1, 1))))
