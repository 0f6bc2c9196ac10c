"""Exact rational sparse linear algebra: the echelon span a solve grows
one insert at a time, and its rank.

The scalars of ``SparseVector`` and the span are ``fractions.Fraction``
(arbitrary precision, always reduced, positive denominator).  A subspace
is kept in reduced row-echelon form as a dict from pivot column to row,
which is canonical: the echelon basis depends only on the subspace, not
on the insertion order of its generators.  A row is a plain entry dict;
only the SparseVector entering the span is checked.  A vector reduces in
one pass over its own entries, and rows are back-substituted only when an
insert raises the rank, and then only the rows with a tail: a unit row
is zero at every other column.

Every sparse linear combination in the package, whatever its keys (basis
indices, partitions, modes, exponents), is a dict of nonzero coefficients:
``nonzero`` is the one place that builds such a dict, and ``add_into`` the
one place that accumulates into one.  The coefficients are exact:
``vacore.FockVector`` and ``vacore.LieElement`` keep an integral one as an
``int`` and any other as a ``Fraction``; the rest stay ``Fraction``.  A
constructor checks its refusals on the dict ``nonzero`` cleaned.

``Record`` is the package's one base for immutable value classes.  It
declares each class's fields once, in ``_fields``, and takes them in its
own ``__init__``.
"""

from __future__ import annotations

from fractions import Fraction


class Record:
    """Immutable value: ``==``, ``hash`` and ``repr`` read the attributes
    named in ``_fields``, in order, and ``==`` holds only between objects
    of one class.  ``__init__`` takes the fields positionally or by
    keyword and sets each once; assigning one later raises AttributeError.
    A class writes ``__init__`` only to check, normalize or give a field a
    default, with the fields as its parameters in order, and ends it with
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


def nonzero(coeffs: dict, convert=_as_fraction) -> dict:
    """A new dict of the converted coefficients of coeffs that are nonzero;
    coeffs is only read."""
    # a comprehension measured slower on the one-term dicts of a solve
    out = {}
    for k, c in coeffs.items():
        c = convert(c)
        if c:
            out[k] = c
    return out


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
        entries = nonzero(entries)
        for i in entries:
            if not (0 <= i < dimension):
                raise DimensionMismatch(
                    f"index {i} outside ambient dimension {dimension}")
        super().__init__(entries, dimension)


class Subspace(Record):
    """Reduced row-echelon basis of a subspace of Q^n, keyed by pivot.

    rows maps each pivot column p to the entry dict of the basis row
    whose first nonzero entry is a 1 at p; every other row is zero at p.
    Only the SparseVector entering the span is checked.

    tails, derived from rows and so not a field, is the frozenset of the
    pivots whose rows have more than one entry; ``span_insert`` passes it
    in, and any other construction computes it.
    """

    _fields = ("rows", "ambient_dimension")
    __slots__ = _fields + ("tails",)

    def __init__(self, rows: dict, ambient_dimension: int, *, tails=None):
        if tails is None:
            tails = frozenset(p for p, row in rows.items() if len(row) > 1)
        object.__setattr__(self, "tails", tails)
        super().__init__(rows, ambient_dimension)

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
                add_into(residual, row, -c)
        return residual


def span_insert(space: Subspace, v: SparseVector) -> Subspace:
    """Reduced echelon basis of span(space + {v}); space is not modified.

    Only the rows in ``space.tails`` can be nonzero at the new pivot, so
    only they are back-substituted; one may lose its tail there.
    """
    r = space.reduce(v)
    if not r:
        return space
    p = min(r)
    new = add_into({}, r, 1 / r[p])
    rows = dict(space.rows)
    rows[p] = new
    tails = [p] if len(new) > 1 else []
    for q in space.tails:
        row = rows[q]
        c = row.get(p)
        if c is not None:
            row = rows[q] = add_into(dict(row), new, -c)
        if len(row) > 1:
            tails.append(q)
    return Subspace(rows, space.ambient_dimension, tails=frozenset(tails))
