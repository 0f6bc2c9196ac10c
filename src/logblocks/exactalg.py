"""Exact rational sparse linear algebra: spans, ranks, membership.

The scalars of ``SparseVector``, ``SparseMatrix`` and the span are
``fractions.Fraction`` (arbitrary precision, always reduced, positive
denominator).  A subspace is kept in reduced row-echelon form as a dict
from pivot column to row, which is canonical: the echelon basis depends
only on the subspace, not on the insertion order of its generators.  A
vector reduces in one pass over its own entries, and rows are
back-substituted only when an insert raises the rank.

Every sparse linear combination in the package, whatever its keys (basis
indices, partitions, modes, exponents), is a dict of nonzero coefficients,
and ``add_into`` is the one place that accumulates into such a dict.  The
coefficients are exact: ``vacore.FockVector`` and ``vacore.LieElement``
keep an integral one as an ``int`` and any other as a ``Fraction``; the
rest stay ``Fraction``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class DimensionMismatch(ValueError):
    pass


def _as_fraction(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def add_into(acc: dict, terms: dict, c=1) -> dict:
    """acc += c*terms in place, dropping entries that cancel; returns acc.

    terms is only read, and must not be acc itself.  A zero c or a zero
    value in terms stores nothing.
    """
    if c == 0:
        return acc
    scale = c != 1
    get = acc.get
    for k, v in terms.items():
        if scale:
            v = c * v
        w = get(k)
        if w is not None:
            v = w + v
        if v:
            acc[k] = v
        else:
            acc.pop(k, None)
    return acc


@dataclass(frozen=True)
class SparseVector:
    """Finite map basis-index -> nonzero Fraction, inside a fixed ambient."""

    entries: dict
    dimension: int

    def __post_init__(self):
        clean = {}
        for i, v in self.entries.items():
            v = _as_fraction(v)
            if v != 0:
                if not (0 <= i < self.dimension):
                    raise DimensionMismatch(
                        f"index {i} outside ambient dimension {self.dimension}")
                clean[i] = v
        object.__setattr__(self, "entries", clean)

    @staticmethod
    def zero(dimension: int) -> "SparseVector":
        return SparseVector({}, dimension)

    @staticmethod
    def from_dense(values, dimension=None) -> "SparseVector":
        values = list(values)
        n = dimension if dimension is not None else len(values)
        return SparseVector({i: v for i, v in enumerate(values)}, n)

    def is_zero(self) -> bool:
        return not self.entries

    def get(self, i: int) -> Fraction:
        return self.entries.get(i, Fraction(0))

    def scaled(self, c) -> "SparseVector":
        c = _as_fraction(c)
        if c == 0:
            return SparseVector.zero(self.dimension)
        return SparseVector({i: c * v for i, v in self.entries.items()},
                            self.dimension)

    def plus(self, other: "SparseVector", c=Fraction(1)) -> "SparseVector":
        """self + c*other."""
        if other.dimension != self.dimension:
            raise DimensionMismatch("vector dimensions differ")
        return SparseVector(add_into(dict(self.entries), other.entries, c),
                            self.dimension)


@dataclass(frozen=True)
class Subspace:
    """Reduced row-echelon basis of a subspace of Q^n, keyed by pivot.

    rows maps each pivot column p to the basis row whose first nonzero
    entry is a 1 at p; every other row is zero at p.
    """

    rows: dict
    ambient_dimension: int

    @staticmethod
    def empty(ambient_dimension: int) -> "Subspace":
        return Subspace({}, ambient_dimension)

    @property
    def rank(self) -> int:
        return len(self.rows)

    @property
    def pivots(self) -> tuple:
        return tuple(sorted(self.rows))

    @property
    def echelon_rows(self) -> tuple:
        return tuple(self.rows[p] for p in self.pivots)

    def reduce(self, v: SparseVector) -> dict:
        """Entries of the residual of v after elimination against the rows.

        Each row is zero at the other pivots, so the row at pivot p is
        subtracted exactly v[p] times.
        """
        if v.dimension != self.ambient_dimension:
            raise DimensionMismatch("ambient dimensions differ")
        residual = dict(v.entries)
        for p, c in v.entries.items():
            row = self.rows.get(p)
            if row is not None:
                add_into(residual, row.entries, -c)
        return residual

    def contains(self, v: SparseVector) -> bool:
        return not self.reduce(v)


def span_insert(space: Subspace, v: SparseVector) -> Subspace:
    """Reduced echelon basis of span(space + {v}); space is not modified."""
    r = space.reduce(v)
    if not r:
        return space
    p = min(r)
    new = SparseVector(r, space.ambient_dimension).scaled(1 / r[p])
    rows = {p: new}
    for q, row in space.rows.items():
        c = row.entries.get(p)
        rows[q] = row if c is None else row.plus(new, -c)
    return Subspace(rows, space.ambient_dimension)


def span_of(vectors, ambient_dimension: int) -> Subspace:
    space = Subspace.empty(ambient_dimension)
    for v in vectors:
        space = span_insert(space, v)
    return space


@dataclass(frozen=True)
class SparseMatrix:
    """Column-sparse exact matrix: cols[j] maps row index -> Fraction."""

    cols: tuple
    nrows: int
    ncols: int

    @staticmethod
    def from_columns(columns, nrows: int) -> "SparseMatrix":
        cols = tuple({i: _as_fraction(v) for i, v in col.items() if v != 0}
                     for col in columns)
        return SparseMatrix(cols, nrows, len(cols))

    @staticmethod
    def zero(nrows: int, ncols: int) -> "SparseMatrix":
        return SparseMatrix(tuple({} for _ in range(ncols)), nrows, ncols)

    @staticmethod
    def identity(n: int) -> "SparseMatrix":
        return SparseMatrix(tuple({i: Fraction(1)} for i in range(n)), n, n)

    def apply(self, v: SparseVector) -> SparseVector:
        if v.dimension != self.ncols:
            raise DimensionMismatch("matrix/vector shapes differ")
        out = {}
        for j, c in v.entries.items():
            add_into(out, self.cols[j], c)
        return SparseVector(out, self.nrows)

    def compose(self, other: "SparseMatrix") -> "SparseMatrix":
        """self @ other."""
        if other.nrows != self.ncols:
            raise DimensionMismatch("matrix shapes differ")
        cols = []
        for col in other.cols:
            out = {}
            for j, c in col.items():
                add_into(out, self.cols[j], c)
            cols.append(out)
        return SparseMatrix(tuple(cols), self.nrows, other.ncols)

    def scaled(self, c) -> "SparseMatrix":
        c = _as_fraction(c)
        if c == 0:
            return SparseMatrix.zero(self.nrows, self.ncols)
        return SparseMatrix(tuple({i: c * v for i, v in col.items()}
                                  for col in self.cols),
                            self.nrows, self.ncols)

    def plus(self, other: "SparseMatrix", c=Fraction(1)) -> "SparseMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatch("matrix shapes differ")
        c = _as_fraction(c)
        return SparseMatrix(tuple(add_into(dict(a), b, c)
                                  for a, b in zip(self.cols, other.cols)),
                            self.nrows, self.ncols)

    def is_zero(self) -> bool:
        return all(not col for col in self.cols)

    def __eq__(self, other):
        return (isinstance(other, SparseMatrix)
                and self.nrows == other.nrows and self.ncols == other.ncols
                and all(a == b for a, b in zip(self.cols, other.cols)))

    def __hash__(self):
        return hash((self.nrows, self.ncols,
                     tuple(tuple(sorted(c.items())) for c in self.cols)))
