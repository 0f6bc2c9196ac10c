import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logblocks.curves import NODAL, P1, GlobalLogForm
from logblocks.exactalg import (DimensionMismatch, SparseVector, Subspace,
                                add_into, span_insert)
from logblocks.logmonoid import (POLYNOMIAL, SupportedRing, span_contains,
                                 span_of)
from logblocks.series import TruncatedLaurent, TruncationError
from logblocks.vacore import FockVector, LieElement


def vec(*values):
    """The dense vector of values, in the ambient of its length."""
    return SparseVector(dict(enumerate(map(Fraction, values))), len(values))


def echelon_rows(space):
    """The rows of the reduced echelon basis, by increasing pivot."""
    return [space.rows[p] for p in sorted(space.rows)]


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=9)


@st.composite
def vectors(draw, dimension=5):
    entries = draw(st.dictionaries(st.integers(0, dimension - 1), rationals,
                                   max_size=dimension))
    return SparseVector(entries, dimension)


def dense_rref(vs, n):
    """Nonzero rows of the reduced row-echelon form of vs, computed by
    dense Gauss-Jordan elimination over Fraction."""
    rows = [[v.entries.get(i, Fraction(0)) for i in range(n)] for v in vs]
    rank = 0
    for col in range(n):
        hit = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if hit is None:
            continue
        pivot_row = [x / rows[hit][col] for x in rows[hit]]
        rows[hit] = rows[rank]
        rows[rank] = pivot_row
        for i, row in enumerate(rows):
            if i != rank and row[col]:
                rows[i] = [a - row[col] * b for a, b in zip(row, pivot_row)]
        rank += 1
    return rows[:rank]


@st.composite
def spanning_sets(draw):
    """(n, vectors, probe): vectors in Q^n, n <= 6, with duplicates and
    linear combinations of earlier vectors mixed in."""
    n = draw(st.integers(1, 6))
    vs = draw(st.lists(vectors(n), max_size=6))
    for _ in range(draw(st.integers(0, 4)) if vs else 0):
        a, b = draw(st.sampled_from(vs)), draw(st.sampled_from(vs))
        vs.append(SparseVector(
            add_into(dict(a.entries), b.entries, draw(rationals)), n))
        vs.append(a)
    return n, draw(st.permutations(vs)), draw(vectors(n))


@st.composite
def unit_heavy_sets(draw):
    """(n, vectors): vectors in Q^n, n <= 8, most of them multiples of unit
    vectors, the rest dense enough to leave tails on some rows."""
    n = draw(st.integers(1, 8))
    nonzero = rationals.filter(bool)
    units = st.builds(lambda i, c: SparseVector({i: c}, n),
                      st.integers(0, n - 1), nonzero)
    vs = draw(st.lists(st.one_of(units, units, units, vectors(n)),
                       max_size=12))
    return n, vs


class TestAddInto:
    @given(st.dictionaries(st.integers(0, 7), rationals, max_size=8),
           st.dictionaries(st.integers(0, 7), rationals, max_size=8),
           rationals)
    def test_matches_dense_sum(self, acc, terms, c):
        acc = {k: v for k, v in acc.items() if v != 0}  # a sparse input
        dense = [acc.get(k, 0) + c * terms.get(k, 0) for k in range(8)]
        before = dict(terms)
        out = add_into(acc, terms, c)
        assert out is acc
        assert all(v != 0 for v in acc.values())
        assert [acc.get(k, 0) for k in range(8)] == dense
        assert terms == before

    def test_cancelling_entry_is_removed(self):
        acc = {0: Fraction(1), 1: Fraction(2)}
        add_into(acc, {1: Fraction(1)}, -2)
        assert acc == {0: Fraction(1)}


class TestSparseVector:
    def test_drops_zero_entries(self):
        v = SparseVector({0: Fraction(0), 2: Fraction(3)}, 4)
        assert v.entries == {2: Fraction(3)}

    def test_out_of_range_index_rejected(self):
        with pytest.raises(DimensionMismatch):
            SparseVector({5: Fraction(1)}, 3)


# each constructor of an exact coefficient dict: (the dict it stores for
# given coefficients, two keys it accepts, the type of a stored integral
# coefficient, and (key, error, message) for each key it refuses)
CONSTRUCTORS = {
    "FockVector": (lambda c: FockVector(c).terms, ((1,), (2, 1)), int, []),
    "LieElement": (lambda c: LieElement(c).terms, (((1,), 0), ((), -1)),
                   int, []),
    "SparseVector": (lambda c: SparseVector(c, 3).entries, (0, 2), Fraction,
                     [(3, DimensionMismatch,
                       "index 3 outside ambient dimension 3"),
                      (-1, DimensionMismatch,
                       "index -1 outside ambient dimension 3")]),
    "TruncatedLaurent": (
        lambda c: TruncatedLaurent(c, -1, 3).coefficients, (-1, 2), Fraction,
        [(3, TruncationError, "exponent 3 at or above truncation 3"),
         (-2, TruncationError, "exponent -2 below stated min -1")]),
    "SupportedRing.element": (
        lambda c: SupportedRing(POLYNOMIAL, ("x", "y")).element(c).coeffs,
        ((0, 0), (2, 1)), Fraction,
        [((0, -1), ValueError, "negative exponent (0, -1) in polynomial")]),
    "GlobalLogForm.f": (
        lambda c: GlobalLogForm(NODAL, f=c, g={}).f, ((0, 0), (0, 3)),
        Fraction,
        [((-1, 0), ValueError, "negative exponent in Q[x,y]/(xy)")]),
    "GlobalLogForm.laurent": (lambda c: GlobalLogForm(P1, laurent=c).laurent,
                              (-3, 1), Fraction, []),
}


@pytest.mark.parametrize("name", CONSTRUCTORS)
def test_every_constructor_cleans_its_coefficients_alike(name):
    """One rule (``exactalg.nonzero``): zeros are dropped, the input is
    only read, an integral coefficient is stored as an int in the two
    ``Combination`` classes and as a Fraction elsewhere, and a key that a
    nonzero coefficient would be refused at is accepted with a zero."""
    build, (a, b), integral, refusals = CONSTRUCTORS[name]
    for given in ({a: 0, b: Fraction(0)},
                  {a: Fraction(4, 2), b: Fraction(-1, 3)},
                  {a: 2, b: 0}):
        before = dict(given)
        stored = build(given)
        assert given == before and stored is not given
        assert stored == {k: c for k, c in given.items() if c}
        assert all(type(stored[k]) is (integral if k == a else Fraction)
                   for k in stored)
    for key, error, message in refusals:
        assert build({key: 0, a: 1}) == {a: 1}
        assert build({key: Fraction(0), a: 1}) == {a: 1}
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            build({a: 1, key: Fraction(1, 2)})


class TestSubspace:
    def test_spec_rank_example(self):
        # five vectors spanning a rank-2 subspace of Q^3
        vs = [vec(1, 0, 1), vec(0, 1, 0), vec(1, 1, 1), vec(2, 1, 2),
              vec(1, -1, 1)]
        space = span_of(vs, 3)
        assert space.rank == 2
        assert space.ambient_dimension - space.rank == 1

    def test_spec_membership_example(self):
        space = span_of([vec(1, 2), vec(1, 3)], 2)
        assert span_contains(space, vec(0, 1))

    def test_ambient_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            span_of([vec(1, 2, 3)], 2)
        with pytest.raises(DimensionMismatch):
            span_contains(span_of([vec(1, 2)], 2), vec(1, 2, 3))

    def test_membership_negative(self):
        space = span_of([vec(1, 0, 0), vec(0, 1, 0)], 3)
        assert not span_contains(space, vec(0, 0, 1))

    def test_echelon_is_canonical(self):
        # insertion order must not change the reduced basis
        vs = [vec(1, 2, 3), vec(0, 1, 1), vec(2, 5, 7)]
        a = span_of(vs, 3)
        b = span_of(reversed(vs), 3)
        assert echelon_rows(a) == echelon_rows(b)

    def test_pivots_increase_and_normalized(self):
        space = span_of([vec(0, 2, 1), vec(3, 1, 0), vec(1, 1, 1)], 3)
        pivots = sorted(space.rows)
        for row, p in zip(echelon_rows(space), pivots):
            assert min(row) == p
            assert row.get(p) == 1
            for other in echelon_rows(space):
                if other is not row:
                    assert other.get(p, 0) == 0

    @given(st.lists(vectors(), max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_inserting_member_is_idempotent(self, vs):
        space = span_of(vs, 5)
        for v in vs:
            assert span_insert(space, v) is space
            assert span_contains(space, v)

    @given(spanning_sets())
    @settings(max_examples=200, deadline=None)
    def test_matches_dense_gauss_jordan(self, case):
        n, vs, probe = case
        oracle = dense_rref(vs, n)
        space = span_of(vs, n)
        assert [[row.get(i, 0) for i in range(n)]
                for row in echelon_rows(space)] == oracle
        in_span = len(dense_rref(vs + [probe], n)) == len(oracle)
        assert span_contains(space, probe) == in_span
        before = {p: dict(row) for p, row in space.rows.items()}
        grown = span_insert(space, probe)
        assert grown.rank == len(oracle) + (not in_span)
        assert space.rank == len(oracle)
        assert {p: dict(row)
                for p, row in space.rows.items()} == before

    @given(unit_heavy_sets())
    @settings(max_examples=200, deadline=None)
    def test_unit_heavy_inserts_keep_tails(self, case):
        """Inserts back-substitute only into the rows with a tail, so check
        every step on sets where most rows are unit vectors."""
        n, vs = case
        space = Subspace.empty(n)
        for v in vs:
            before = {p: dict(row) for p, row in space.rows.items()}
            tails = space.tails
            grown = span_insert(space, v)
            assert {p: dict(row)
                    for p, row in space.rows.items()} == before
            assert space.tails == tails
            assert grown.tails == {p for p, row in grown.rows.items()
                                   if len(row) > 1}
            space = grown
        assert [[row.get(i, 0) for i in range(n)]
                for row in echelon_rows(space)] == dense_rref(vs, n)

    def test_tails_are_derived(self):
        space = span_of([vec(1, 0, 2), vec(0, 1, 0)], 3)
        assert space.tails == {0}
        assert space.replace().tails == Subspace(space.rows, 3).tails == {0}
        # the unit vector at the tail's column leaves only unit rows
        assert span_insert(space, vec(0, 0, 5)).tails == frozenset()

    @given(st.lists(vectors(), max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_rank_bounded_by_ambient(self, vs):
        space = span_of(vs, 5)
        assert 0 <= space.rank <= 5
