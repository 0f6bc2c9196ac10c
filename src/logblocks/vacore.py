"""Truncated graded conformal vertex algebras and their mode operators.

Two built-in instances: the rank-one Heisenberg vertex algebra at level 1
(central charge 1) and the Virasoro vertex algebra with rational central
charge.  Basis vectors are indexed by partitions:

* Heisenberg: all partitions of d, the vector b_{-p1} ... b_{-pk}|0>;
* Virasoro:   partitions of d with parts >= 2, the vector L_{-p1}...L_{-pk}|0>.

Vectors (FockVector) and U(V) elements (LieElement) are exact sparse
combinations sharing one body, ``Combination``.  The vector layer is
untruncated; the truncation window [0, N] bounds the tensor window of a
solve (``blocks``) and the mode blocks of ``operators``, which refuse to
leave it.

Mode operators of composite vectors are built by the standard recursive
reconstruction from generator modes,

    (a_{(-m)}B)_(n) = sum_{j>=0} C(m+j-1, j) *
        ( a_{(-m-j)} B_{(n+j)} + (-1)^(m-1) B_{(n-m-j)} a_{(j)} ),

with the generator actions (Heisenberg modes, Virasoro L's) given in
closed combinatorial form.  ``operators.check_axioms`` validates the
construction.
"""

from __future__ import annotations

from fractions import Fraction
from functools import wraps
from math import factorial
from types import MappingProxyType

from .exactalg import Record, add_into, nonzero

Partition = tuple  # decreasing tuple of positive ints

HEISENBERG = "heisenberg"
VIRASORO = "virasoro"


class TruncationWindowError(ValueError):
    """A mode application would leave the degree window [0, N]."""


def binom(m: int, n: int) -> int:
    """Generalized binomial coefficient C(m, n) for integer m, n >= 0.

    m(m-1)...(m-n+1) is a product of n consecutive integers, so n! divides
    it for every integer m and the quotient is exact.
    """
    if n < 0:
        return 0
    num = 1
    for i in range(n):
        num *= m - i
    return num // factorial(n)


def _coefficient(c):
    """An integral value as int, any other value as a reduced Fraction."""
    if type(c) is int:
        return c
    if not isinstance(c, Fraction):
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def partitions_of(d: int, min_part: int = 1):
    """Partitions of d with parts >= min_part, decreasing, canonical order."""
    result = []

    def rec(remaining, max_part, prefix):
        if remaining == 0:
            result.append(tuple(prefix))
            return
        for p in range(min(max_part, remaining), min_part - 1, -1):
            prefix.append(p)
            rec(remaining - p, p, prefix)
            prefix.pop()

    rec(d, d, [])
    return result


class Combination:
    """Exact finite linear combination: ``terms`` maps a key to a nonzero
    coefficient, an int when integral and a reduced Fraction otherwise;
    the two compare and hash alike, so equality does not depend on how a
    combination was built.  The constructor reads a dict of terms and
    keeps its nonzero entries in a new one.  A subclass formats a key in
    ``_show_key``.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = nonzero(terms, _coefficient) if terms else {}

    @classmethod
    def zero(cls):
        return cls()

    def is_zero(self):
        return not self.terms

    def plus(self, other, c=1):
        return type(self)(add_into(dict(self.terms), other.terms, c))

    def scaled(self, c):
        if c == 0:
            return self.zero()
        return type(self)({k: c * v for k, v in self.terms.items()})

    def __eq__(self, other):
        return type(other) is type(self) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*{self._show_key(k)}"
                          for k, c in sorted(self.terms.items()))


class FockVector(Combination):
    """Exact linear combination of partition-indexed basis vectors."""

    __slots__ = ()

    @staticmethod
    def _show_key(p: Partition) -> str:
        return str(list(p)) if p else "|0>"

    @staticmethod
    def basis(p) -> "FockVector":
        return FockVector({tuple(p): 1})

    @staticmethod
    def vacuum() -> "FockVector":
        return FockVector({(): 1})

    @staticmethod
    def zero() -> "FockVector":
        """The shared zero vector; its terms are read-only."""
        return _ZERO

    def degrees(self):
        return sorted({sum(p) for p in self.terms})

    def degree(self):
        """Degree if homogeneous, else raise."""
        ds = self.degrees()
        if not ds:
            return None
        if len(ds) > 1:
            raise ValueError(f"vector is not homogeneous: degrees {ds}")
        return ds[0]

    def __hash__(self):
        return hash(frozenset(self.terms.items()))


_ZERO = FockVector()
_ZERO.terms = MappingProxyType({})


def _vector(acc: dict) -> FockVector:
    """A FockVector of accumulated terms; the shared zero when empty."""
    return FockVector(acc) if acc else _ZERO


def _heis_mode(n: int, p: Partition) -> FockVector:
    """b_(n) on a Heisenberg basis partition; [b_m, b_k] = m delta_{m+k}."""
    if n < 0:
        return FockVector.basis(tuple(sorted(p + (-n,), reverse=True)))
    if n == 0 or n not in p:
        return FockVector.zero()
    q = list(p)
    q.remove(n)
    return FockVector({tuple(q): n * p.count(n)})


def _cached(method):
    """Memoize a ``VertexAlgebraInstance`` method in ``self._caches``.

    Results are kept per method name, keyed by the argument tuple.  They
    are shared by every later caller: read a cached result, never write
    into it.
    """
    name = method.__name__

    @wraps(method)
    def memoized(self, *args):
        memo = self._caches.get(name)
        if memo is None:
            memo = self._caches[name] = {}
        out = memo.get(args)
        if out is None:
            out = memo[args] = method(self, *args)
        return out

    return memoized


class VertexAlgebraInstance(Record):
    """A truncated graded conformal vertex algebra with cached mode data.

    Equality and hashing read kind, truncation and central_charge.
    ``_caches`` maps a method name to that method's memo (see ``_cached``):
    bases, generator modes, mode actions on partitions and the theta
    chains.  Only the methods of this class write it.  No cached result
    depends on the truncation, but results depend on the kind and the
    central charge, so one rule says who shares them: a ``replace`` copy
    with the same kind and central charge (a truncation view) does, and
    every other instance, a copy or one built separately (even when
    equal), starts with its own.  The truncation N must be an int >= 0.
    """

    _fields = ("kind", "truncation", "central_charge")
    __slots__ = _fields + ("min_part", "_caches")

    def __init__(self, kind: str, truncation: int,
                 central_charge: Fraction = None):
        if kind not in (HEISENBERG, VIRASORO):
            raise ValueError(f"unknown vertex algebra kind {kind!r}")
        if kind == HEISENBERG:
            min_part = 1
            if central_charge is None:
                central_charge = Fraction(1)
            elif central_charge != 1:
                raise ValueError("the Heisenberg instance has central charge 1")
        else:
            min_part = 2
            if central_charge is None:
                raise ValueError("Virasoro needs an explicit central charge")
            central_charge = Fraction(central_charge)
        if type(truncation) is not int or truncation < 0:
            raise ValueError(f"truncation must be an int >= 0, "
                             f"not {truncation!r}")
        object.__setattr__(self, "min_part", min_part)
        object.__setattr__(self, "_caches", {})
        super().__init__(kind, truncation, central_charge)

    def replace(self, **changes) -> "VertexAlgebraInstance":
        """A copy with the given fields changed.  It shares ``_caches``
        only when its kind and central charge are this instance's."""
        view = super().replace(**changes)
        if (view.kind, view.central_charge) == (self.kind,
                                                self.central_charge):
            object.__setattr__(view, "_caches", self._caches)
        return view

    # --- graded basis -----------------------------------------------------

    @_cached
    def basis(self, d: int):
        return partitions_of(d, self.min_part) if d >= 0 else []

    def dim(self, d: int) -> int:
        return len(self.basis(d))

    @property
    def conformal_vector(self) -> FockVector:
        if self.kind == HEISENBERG:
            return FockVector({(1, 1): Fraction(1, 2)})
        return FockVector.basis((2,))

    # --- generator mode actions -------------------------------------------

    @_cached
    def _vir_L(self, k: int, p: Partition) -> FockVector:
        """L_k on a Virasoro PBW basis partition (parts >= 2)."""
        if not p:
            return FockVector.basis((-k,)) if k <= -2 else FockVector.zero()
        if k <= -2 and -k >= p[0]:
            return FockVector.basis((-k,) + p)
        lam, rest = p[0], p[1:]
        # L_k L_{-lam} = L_{-lam} L_k + (k+lam) L_{k-lam}
        #                + delta_{k,lam} c (k^3-k)/12
        acc = {}
        for q, coef in self._vir_L(k, rest).terms.items():
            add_into(acc, self._vir_L(-lam, q).terms, coef)
        add_into(acc, self._vir_L(k - lam, rest).terms, k + lam)
        if k == lam:
            add_into(acc, {rest: self.central_charge
                           * Fraction(k ** 3 - k, 12)})
        return _vector(acc)

    @_cached
    def _gen_mode(self, n: int, p: Partition) -> FockVector:
        """Mode a_(n) of the generating vector: Heisenberg b or Virasoro omega."""
        if self.kind == HEISENBERG:
            return _heis_mode(n, p)
        return self._vir_L(n - 1, p)

    # --- composite mode action ---------------------------------------------

    @_cached
    def _apply_partition_mode(self, A: Partition, n: int,
                              p: Partition) -> FockVector:
        if not A:  # vacuum: Y(|0>,z) = id
            return FockVector.basis(p) if n == -1 else FockVector.zero()
        # A = a_{(-m)} B with a the generator, whose weight is min_part
        m = A[0] - self.min_part + 1
        B = A[1:]
        deg_u = sum(p)
        deg_B = sum(B)
        acc = {}
        sign = (-1) ** (m - 1)
        # first sum: a_{(-m-j)} B_{(n+j)} u ; nonzero needs the inner result
        # degree deg_u + deg_B - (n+j) - 1 >= 0
        jmax1 = deg_u + deg_B - n - 1
        for j in range(0, max(jmax1, -1) + 1):
            inner = self._apply_partition_mode(B, n + j, p)
            if inner.is_zero():
                continue
            coef = binom(m + j - 1, j)
            for q, cq in inner.terms.items():
                add_into(acc, self._gen_mode(-m - j, q).terms, coef * cq)
        # second sum: B_{(n-m-j)} a_{(j)} u ; a_{(j)} u = 0 for large j
        jmax2 = deg_u + self.min_part - 1
        for j in range(0, jmax2 + 1):
            inner = self._gen_mode(j, p)
            if inner.is_zero():
                continue
            coef = sign * binom(m + j - 1, j)
            for q, cq in inner.terms.items():
                outer = self._apply_partition_mode(B, n - m - j, q)
                add_into(acc, outer.terms, coef * cq)
        return _vector(acc)

    def apply_mode(self, A, n: int, v: FockVector) -> FockVector:
        """A_(n) v, exact and untruncated.  A is a FockVector or partition.

        For a partition A and a single-term v the result may be a cached
        vector itself (see ``_cached``).
        """
        if not isinstance(A, FockVector):
            if len(v.terms) == 1:
                (p, c), = v.terms.items()
                out = self._apply_partition_mode(tuple(A), n, p)
                return out if c == 1 else out.scaled(c)
            A = FockVector.basis(A)
        acc = {}
        for ap, ac in A.terms.items():
            for p, pc in v.terms.items():
                add_into(acc, self._apply_partition_mode(ap, n, p).terms,
                         ac * pc)
        return FockVector(acc)

    def apply_L(self, k: int, v: FockVector) -> FockVector:
        """Virasoro mode L_k = omega_(k+1) on any vector."""
        return self.apply_mode(self.conformal_vector, k + 1, v)

    def translate(self, v: FockVector) -> FockVector:
        """T = L_{-1}."""
        return self.apply_L(-1, v)

    @_cached
    def _theta_chain(self, p: Partition) -> list:
        """The terms of (-1)^(a-1) L_1^i A / i! for i = 0, 1, ... while
        L_1^i A != 0, with A the basis vector of p and a its degree."""
        sign = (-1) ** ((sum(p) - 1) % 2)
        chain = []
        vec = FockVector.basis(p)
        while not vec.is_zero():
            scale = Fraction(sign, factorial(len(chain)))
            chain.append({q: scale * cq for q, cq in vec.terms.items()})
            vec = self.apply_L(1, vec)
        return chain


# --- U(V) elements and the involution --------------------------------------


class LieElement(Combination):
    """Finite formal sum of coefficient * A_[n], keyed by (partition, n)."""

    __slots__ = ()

    @staticmethod
    def _show_key(key) -> str:
        return f"{FockVector._show_key(key[0])}[{key[1]}]"

    @staticmethod
    def mode(A, n: int, c=1) -> "LieElement":
        if isinstance(A, FockVector):
            return LieElement({(p, n): c * cc for p, cc in A.terms.items()})
        return LieElement({(tuple(A), n): c})

    def apply(self, V: VertexAlgebraInstance, v: FockVector) -> FockVector:
        """This element acting on v.  A single term hands on the vector
        ``V.apply_mode`` returns, which may be cached (see ``_cached``)."""
        if len(self.terms) == 1:
            ((p, n), c), = self.terms.items()
            out = V.apply_mode(p, n, v)
            return out if c == 1 else out.scaled(c)
        acc = {}
        for (p, n), c in self.terms.items():
            add_into(acc, V.apply_mode(p, n, v).terms, c)
        return FockVector(acc)


def theta(x: LieElement, V: VertexAlgebraInstance) -> LieElement:
    """The involution A_[j] -> (-1)^(a-1) sum_i (1/i!) (L_1^i A)_[2a-j-i-2].

    The chain of terms (-1)^(a-1) L_1^i A / i! depends only on A and is
    cached per partition (``V._theta_chain``); only j varies between calls.
    """
    acc = {}
    for (p, j), c in x.terms.items():
        top = 2 * sum(p) - j - 2
        for i, terms in enumerate(V._theta_chain(p)):
            add_into(acc, {(q, top - i): cq for q, cq in terms.items()}, c)
    return LieElement(acc)
