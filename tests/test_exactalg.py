from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logblocks.exactalg import (DimensionMismatch, SparseMatrix, SparseVector,
                                Subspace, add_into, span_insert, span_of)


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
        vs.append(a.plus(b, draw(rationals)))
        vs.append(a)
    return n, draw(st.permutations(vs)), draw(vectors(n))


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

    def test_plus_cancels(self):
        v = vec(1, 2, 0)
        assert v.plus(v, Fraction(-1)).is_zero()

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            vec(1, 2).plus(vec(1, 2, 3))

    @given(vectors(), vectors(), rationals)
    def test_plus_is_linear(self, a, b, c):
        lhs = a.plus(b, c).scaled(2)
        rhs = a.scaled(2).plus(b.scaled(2), c)
        assert lhs.entries == rhs.entries


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
        assert space.contains(vec(0, 1))

    def test_membership_negative(self):
        space = span_of([vec(1, 0, 0), vec(0, 1, 0)], 3)
        assert not space.contains(vec(0, 0, 1))

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
            assert min(row.entries) == p
            assert row.get(p) == 1
            for other in echelon_rows(space):
                if other is not row:
                    assert other.get(p) == 0

    @given(st.lists(vectors(), max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_inserting_member_is_idempotent(self, vs):
        space = span_of(vs, 5)
        for v in vs:
            assert span_insert(space, v) is space
            assert space.contains(v)

    @given(spanning_sets())
    @settings(max_examples=200, deadline=None)
    def test_matches_dense_gauss_jordan(self, case):
        n, vs, probe = case
        oracle = dense_rref(vs, n)
        space = span_of(vs, n)
        assert [[row.entries.get(i, 0) for i in range(n)]
                for row in echelon_rows(space)] == oracle
        in_span = len(dense_rref(vs + [probe], n)) == len(oracle)
        assert space.contains(probe) == in_span
        before = {p: dict(row.entries) for p, row in space.rows.items()}
        grown = span_insert(space, probe)
        assert grown.rank == len(oracle) + (not in_span)
        assert space.rank == len(oracle)
        assert {p: dict(row.entries)
                for p, row in space.rows.items()} == before

    @given(st.lists(vectors(), max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_rank_bounded_by_ambient(self, vs):
        space = span_of(vs, 5)
        assert 0 <= space.rank <= 5


class TestSparseMatrix:
    def test_identity_apply(self):
        m = SparseMatrix.identity(3)
        v = vec(1, 2, 3)
        assert m.apply(v).entries == v.entries

    def test_compose_matches_sequential_apply(self):
        a = SparseMatrix.from_columns([{0: 1, 1: 2}, {1: 3}], 2)
        b = SparseMatrix.from_columns([{0: 5}, {0: 1, 1: 1}], 2)
        v = vec(1, 1)
        assert a.compose(b).apply(v).entries == a.apply(b.apply(v)).entries

    def test_shape_mismatch(self):
        a = SparseMatrix.from_columns([{0: 1}], 2)
        with pytest.raises(DimensionMismatch):
            a.compose(a)

    def test_plus_and_scaled(self):
        a = SparseMatrix.from_columns([{0: 1}, {1: 1}], 2)
        assert a.plus(a.scaled(-1)).is_zero()
