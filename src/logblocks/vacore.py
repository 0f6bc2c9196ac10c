"""Truncated graded conformal vertex algebras and their mode operators.

Two built-in instances: the rank-one Heisenberg vertex algebra at level 1
(central charge 1) and the Virasoro vertex algebra with rational central
charge.  Basis vectors are indexed by partitions:

* Heisenberg: all partitions of d, the vector b_{-p1} ... b_{-pk}|0>;
* Virasoro:   partitions of d with parts >= 2, the vector L_{-p1}...L_{-pk}|0>.

The vector layer (FockVector) is untruncated and exact; the truncation
window [0, N] only governs which mode matrices may be realized.

Mode operators of composite vectors are built by the standard recursive
reconstruction from generator modes,

    (a_{(-m)}B)_(n) = sum_{j>=0} C(m+j-1, j) *
        ( a_{(-m-j)} B_{(n+j)} + (-1)^(m-1) B_{(n-m-j)} a_{(j)} ),

with the generator actions (Heisenberg modes, Virasoro L's) given in
closed combinatorial form.  The axiom checker validates the construction.
"""

from __future__ import annotations

from fractions import Fraction
from functools import wraps
from math import factorial
from types import MappingProxyType

from .exactalg import Record, SparseMatrix, SparseVector, add_into

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


class FockVector:
    """Exact linear combination of partition-indexed basis vectors.

    A coefficient is stored as an int when it is integral and as a reduced
    Fraction otherwise; the two compare and hash alike, so equality does
    not depend on how a vector was built.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for p, c in dict(terms).items():
                c = _coefficient(c)
                if c != 0:
                    self.terms[tuple(p)] = c

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

    def is_zero(self):
        return not self.terms

    def plus(self, other, c=1):
        return FockVector(add_into(dict(self.terms), other.terms, c))

    def scaled(self, c):
        if c == 0:
            return _ZERO
        return FockVector({p: c * v for p, v in self.terms.items()})

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

    def __eq__(self, other):
        return isinstance(other, FockVector) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*{list(p) if p else '|0>'}"
                          for p, c in sorted(self.terms.items()))


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
    bases, generator modes, mode actions on partitions, mode matrices and
    the theta chains.  No cached result depends on the truncation, so
    ``V.replace(truncation=M)`` is a view that shares them.  Two
    separately built instances share nothing, even when equal.
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
        object.__setattr__(self, "min_part", min_part)
        object.__setattr__(self, "_caches", {})
        super().__init__(kind, truncation, central_charge)

    def replace(self, **changes) -> "VertexAlgebraInstance":
        """A copy with the given fields changed that shares ``_caches``."""
        view = super().replace(**changes)
        object.__setattr__(view, "_caches", self._caches)
        return view

    # --- graded basis -----------------------------------------------------

    @_cached
    def basis(self, d: int):
        return partitions_of(d, self.min_part) if d >= 0 else []

    def dim(self, d: int) -> int:
        return len(self.basis(d))

    def basis_index(self, p: Partition) -> int:
        return self.basis(sum(p)).index(tuple(p))

    @property
    def conformal_vector(self) -> FockVector:
        if self.kind == HEISENBERG:
            return FockVector({(1, 1): Fraction(1, 2)})
        return FockVector.basis((2,))

    @property
    def vacuum(self) -> FockVector:
        return FockVector.vacuum()

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

    @property
    def _gen_weight(self) -> int:
        return 1 if self.kind == HEISENBERG else 2

    # --- composite mode action ---------------------------------------------

    @_cached
    def _apply_partition_mode(self, A: Partition, n: int,
                              p: Partition) -> FockVector:
        if not A:  # vacuum: Y(|0>,z) = id
            return FockVector.basis(p) if n == -1 else FockVector.zero()
        gw = self._gen_weight
        # A = a_{(-m)} B with a the generator
        m = A[0] - gw + 1
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
        jmax2 = deg_u + gw - 1
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

    # --- realized matrices ---------------------------------------------------

    def vector_coords(self, v: FockVector, d: int) -> SparseVector:
        basis = self.basis(d)
        entries = {}
        for p, c in v.terms.items():
            if sum(p) != d:
                raise ValueError(f"term {p} not of degree {d}")
            entries[basis.index(p)] = c
        return SparseVector(entries, len(basis))

    def mode_matrix(self, A, n: int, d: int) -> SparseMatrix:
        """Exact matrix of A_(n): V_d -> V_{d+m-n-1} inside the window."""
        if not isinstance(A, FockVector):
            A = FockVector.basis(A)
        m = A.degree()
        if m is None:
            raise ValueError("zero vector has no mode matrix")
        target = d + m - n - 1
        if not (0 <= d <= self.truncation and 0 <= target <= self.truncation):
            raise TruncationWindowError(
                f"mode A_{n} of a degree-{m} vector maps degree {d} to "
                f"{target}, outside the window [0, {self.truncation}]")
        return self._mode_matrix(frozenset(A.terms.items()), n, d, target)

    @_cached
    def _mode_matrix(self, terms: frozenset, n: int, d: int,
                     target: int) -> SparseMatrix:
        A = FockVector(terms)
        cols = []
        for p in self.basis(d):
            image = self.apply_mode(A, n, FockVector.basis(p))
            if not image.is_zero() and image.degree() != target:
                raise AssertionError("mode degree bookkeeping violated")
            cols.append(self.vector_coords(image, target).entries)
        return SparseMatrix.from_columns(cols, self.dim(target))

    def L_matrix(self, k: int, d: int) -> SparseMatrix:
        return self.mode_matrix(self.conformal_vector, k + 1, d)


# --- U(V) elements, bracket, involution, contragredient pairing ------------


class LieElement:
    """Finite formal sum of coefficient * A_[n] with A a FockVector term.

    Coefficients follow FockVector's rule: an int when integral, else a
    reduced Fraction.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        # terms: dict (partition, n) -> coefficient
        self.terms = {}
        if terms:
            for (p, n), c in dict(terms).items():
                c = _coefficient(c)
                if c != 0:
                    self.terms[(tuple(p), n)] = c

    @staticmethod
    def mode(A, n: int, c=1) -> "LieElement":
        if isinstance(A, FockVector):
            return LieElement({(p, n): c * cc for p, cc in A.terms.items()})
        return LieElement({(tuple(A), n): c})

    @staticmethod
    def zero() -> "LieElement":
        return LieElement()

    def is_zero(self):
        return not self.terms

    def plus(self, other, c=1):
        return LieElement(add_into(dict(self.terms), other.terms, c))

    def scaled(self, c):
        return LieElement({k: c * v for k, v in self.terms.items()})

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

    def realize(self, V: VertexAlgebraInstance, d: int) -> SparseMatrix:
        """Matrix on V_d; every term must stay inside the window."""
        mats = None
        for (p, n), c in sorted(self.terms.items()):
            m = V.mode_matrix(p, n, d).scaled(c)
            mats = m if mats is None else mats.plus(m)
        if mats is None:
            raise ValueError("realizing the zero element needs a target degree")
        return mats

    def __eq__(self, other):
        return isinstance(other, LieElement) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*{list(p) if p else '|0>'}[{n}]"
                          for (p, n), c in sorted(self.terms.items()))


def u_bracket(x: LieElement, y: LieElement,
              V: VertexAlgebraInstance) -> LieElement:
    """[A_[m], B_[k]] = sum_{n>=0} C(m,n) (A_(n) B)_[m+k-n].

    Terms whose vector part leaves the degree window are dropped (and only
    such terms; the bracket is otherwise exact).
    """
    acc = {}
    for (pa, m), ca in x.terms.items():
        dega = sum(pa)
        for (pb, k), cb in y.terms.items():
            degb = sum(pb)
            # A_(n)B = 0 once its degree dega+degb-n-1 < 0
            for n in range(0, dega + degb):
                prod = V.apply_mode(pa, n, FockVector.basis(pb))
                if prod.is_zero():
                    continue
                if prod.degree() > V.truncation:
                    continue
                add_into(acc, LieElement.mode(prod, m + k - n).terms,
                         ca * cb * binom(m, n))
    return LieElement(acc)


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


def contragredient_pair(V: VertexAlgebraInstance, psi: FockVector,
                        x: LieElement, u: FockVector) -> Fraction:
    """<A_[n] psi, u> = <psi, theta(A_[n]) u> on the graded dual.

    psi is a dual vector written in the dual partition basis of its degree;
    the pairing is the coefficient pairing <p*, q> = delta_{p,q}.
    """
    acted = theta(x, V).apply(V, u)
    total = Fraction(0)
    for p, c in psi.terms.items():
        total += c * acted.terms.get(p, Fraction(0))
    return total


def check_axioms(V: VertexAlgebraInstance, max_degree: int = None,
                 max_index: int = 4) -> list:
    """Coefficientwise axiom checks on the truncated instance.

    Verifies the vacuum axiom, the translation axiom (TA)_n = -n A_{n-1},
    locality through the commutator identity
    [A_m, B_k] = sum_{n>=0} C(m,n) (A_(n)B)_{m+k-n} (checked on vectors,
    independently of how composite modes were built), the Virasoro
    relations with central term, and the L0 grading.  Returns a list of
    report entries {check, passed, witness}.
    """
    if max_degree is None:
        max_degree = min(4, V.truncation)
    entries = []

    def record(check, passed, witness=None):
        entries.append({"check": check, "passed": passed,
                        "witness": witness})

    vectors = [FockVector.basis(p)
               for d in range(max_degree + 1) for p in V.basis(d)]

    # vacuum axiom: |0>_(n) = delta_{n,-1} id and A_(n)|0> for n >= 0 is 0,
    # A_(-1)|0> = A
    ok, witness = True, None
    vac = FockVector.vacuum()
    for u in vectors:
        for n in range(-max_index, max_index + 1):
            out = V.apply_mode(vac, n, u)
            want = u if n == -1 else FockVector.zero()
            if out != want:
                ok, witness = False, f"|0>_({n}) on {u}"
                break
    for A in vectors:
        for n in range(0, max_index + 1):
            if not V.apply_mode(A, n, vac).is_zero():
                ok, witness = False, f"{A}_({n})|0> != 0"
        if V.apply_mode(A, -1, vac) != A:
            ok, witness = False, f"{A}_(-1)|0> != {A}"
    record("vacuum", ok, witness)

    # translation axiom
    ok, witness = True, None
    for A in vectors:
        TA = V.translate(A)
        for n in range(-max_index, max_index + 1):
            for u in vectors:
                lhs = V.apply_mode(TA, n, u)
                rhs = V.apply_mode(A, n - 1, u).scaled(-n)
                if lhs != rhs:
                    ok, witness = False, f"(T{A})_({n}) on {u}"
                    break
    record("translation", ok, witness)

    # locality via the commutator identity on vectors
    ok, witness = True, None
    for A in vectors:
        da = A.degree()
        for B in vectors:
            db = B.degree()
            for m in range(-2, 3):
                for k in range(-2, 3):
                    for u in vectors[:6]:
                        lhs = V.apply_mode(A, m, V.apply_mode(B, k, u)).plus(
                            V.apply_mode(B, k, V.apply_mode(A, m, u)),
                            Fraction(-1))
                        rhs = FockVector.zero()
                        for n in range(0, da + db):
                            AnB = V.apply_mode(A, n, B)
                            if AnB.is_zero():
                                continue
                            rhs = rhs.plus(
                                V.apply_mode(AnB, m + k - n, u), binom(m, n))
                        if lhs != rhs:
                            ok = False
                            witness = f"[{A}_({m}), {B}_({k})] on {u}"
                            break
    record("locality_commutator", ok, witness)

    # Virasoro relations with central term
    ok, witness = True, None
    c = V.central_charge
    for n in range(-max_index, max_index + 1):
        for m in range(-max_index, max_index + 1):
            for u in vectors:
                lhs = V.apply_L(n, V.apply_L(m, u)).plus(
                    V.apply_L(m, V.apply_L(n, u)), Fraction(-1))
                rhs = V.apply_L(n + m, u).scaled(n - m)
                if n + m == 0:
                    rhs = rhs.plus(u, c * Fraction(n ** 3 - n, 12))
                if lhs != rhs:
                    ok, witness = False, f"[L_{n}, L_{m}] on {u}"
                    break
    record("virasoro_bracket", ok, witness)

    # L0 grading
    ok, witness = True, None
    for u in vectors:
        if V.apply_L(0, u) != u.scaled(u.degree()):
            ok, witness = False, f"L_0 on {u}"
    record("l0_grading", ok, witness)
    return entries
