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

``Record`` is the package's one base for immutable value classes.  It
declares each class's fields once, in ``_fields``, and takes them in its
own ``__init__``; a class writes ``__init__`` only to check or normalize.
"""

from __future__ import annotations

from fractions import Fraction


class Record:
    """Immutable value: ``==``, ``hash`` and ``repr`` read the attributes
    named in ``_fields``, in order, and ``==`` holds only between objects
    of one class.  ``__init__`` takes the fields positionally or by
    keyword and sets each once; assigning one later raises AttributeError.
    A class writes ``__init__`` only to check or normalize, with the
    fields as its parameters in order, and ends it with
    ``super().__init__(...)``.

    The package does not use ``dataclasses``: importing it and generating
    the methods of every class took about half of the CLI's start-up.
    """

    __slots__ = ()
    _fields = ()

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            name, given = type(self).__name__, len(args)
            if given > len(fields):
                raise TypeError(f"{name}() takes {len(fields)} fields but "
                                f"{given} were given")
            for f in fields[:given]:
                if f in kwargs:
                    raise TypeError(f"{name}() got field {f!r} twice")
            for f in kwargs:
                if f not in fields:
                    raise TypeError(f"{name}() got an unknown field {f!r}")
            for f in fields[given:]:
                if f not in kwargs:
                    raise TypeError(f"{name}() missing field {f!r}")
            args += tuple(kwargs[f] for f in fields[given:])
        # the solve builds records in its inner loops, and zip or enumerate
        # measured slower here than this indexed loop
        set_field, i = object.__setattr__, 0
        for f in fields:
            set_field(self, f, args[i])
            i += 1

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__: assignment is refused
        return type(self), self._key()

    def replace(self, **changes):
        """A copy with the given fields changed, built and checked by
        ``__init__``, whose parameters are the fields."""
        return type(self)(**{**dict(zip(self._fields, self._key())),
                             **changes})


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


class SparseVector(Record):
    """Finite map basis-index -> nonzero Fraction, inside a fixed ambient."""

    __slots__ = _fields = ("entries", "dimension")

    def __init__(self, entries: dict, dimension: int):
        clean = {}
        for i, v in entries.items():
            v = _as_fraction(v)
            if v != 0:
                if not (0 <= i < dimension):
                    raise DimensionMismatch(
                        f"index {i} outside ambient dimension {dimension}")
                clean[i] = v
        super().__init__(clean, dimension)

    @staticmethod
    def zero(dimension: int) -> "SparseVector":
        return SparseVector({}, dimension)

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


class Subspace(Record):
    """Reduced row-echelon basis of a subspace of Q^n, keyed by pivot.

    rows maps each pivot column p to the basis row whose first nonzero
    entry is a 1 at p; every other row is zero at p.
    """

    __slots__ = _fields = ("rows", "ambient_dimension")

    @staticmethod
    def empty(ambient_dimension: int) -> "Subspace":
        return Subspace({}, ambient_dimension)

    @property
    def rank(self) -> int:
        return len(self.rows)

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


class SparseMatrix(Record):
    """Column-sparse exact matrix: cols[j] maps row index -> Fraction."""

    __slots__ = _fields = ("cols", "nrows", "ncols")

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

    def __hash__(self):
        return hash((self.nrows, self.ncols,
                     tuple(tuple(sorted(c.items())) for c in self.cols)))
