"""Linear operators on a truncated vertex algebra V, and the checks that
run them: mode blocks, the mode-sum Lie bracket of U(V) and the axiom
checker.

An operator is a ``GradedEndo``, the image ``FockVector`` of each basis
vector of its domain: every degree of the window [0, N] for the
coordinate action (``coordact.act``), one degree V_d for a mode block.

No coinvariant solve runs this module: the ``axioms``, ``bracket-check``
and ``coords`` commands and the tests load it, and no module a solve
loads imports it.
"""

from __future__ import annotations

from fractions import Fraction

from .exactalg import DimensionMismatch, Record, add_into
from .vacore import (FockVector, LieElement, TruncationWindowError,
                     VertexAlgebraInstance, binom)


class GradedEndo(Record):
    """Linear operator on V, held as the image of each basis vector.

    images maps every basis partition of the domain, a set of degrees
    inside the window [0, truncation], to its image FockVector.  A vector
    with a term that has no image lies outside the domain and is refused,
    not read as 0.
    """

    __slots__ = _fields = ("images", "truncation")

    def apply(self, v: FockVector) -> FockVector:
        acc = {}
        for p, c in v.terms.items():
            image = self.images.get(p)
            if image is None:
                raise TruncationWindowError(
                    f"{list(p)} is not a basis vector of the domain of "
                    f"this operator on the window [0, {self.truncation}]")
            add_into(acc, image.terms, c)
        return FockVector(acc)

    def compose(self, other: "GradedEndo") -> "GradedEndo":
        """self after other, on other's domain; an image of other outside
        self's domain raises TruncationWindowError."""
        return GradedEndo({p: self.apply(w) for p, w in other.images.items()},
                          other.truncation)

    def plus(self, other: "GradedEndo", c=1) -> "GradedEndo":
        """self + c*other, on their one domain."""
        if self.images.keys() != other.images.keys():
            raise DimensionMismatch("operators on different domains")
        return GradedEndo({p: w.plus(other.images[p], c)
                           for p, w in self.images.items()}, self.truncation)

    def scaled(self, c) -> "GradedEndo":
        return GradedEndo({p: w.scaled(c) for p, w in self.images.items()},
                          self.truncation)


def mode_block(V: VertexAlgebraInstance, A, n: int, d: int) -> GradedEndo:
    """A_(n): V_d -> V_{d+a-n-1} inside the window, for a partition or a
    homogeneous FockVector A of degree a."""
    if not isinstance(A, FockVector):
        A = FockVector.basis(A)
    a = A.degree()
    if a is None:
        raise ValueError("zero vector has no mode block")
    target = d + a - n - 1
    if not (0 <= d <= V.truncation and 0 <= target <= V.truncation):
        raise TruncationWindowError(
            f"mode A_{n} of a degree-{a} vector maps degree {d} to "
            f"{target}, outside the window [0, {V.truncation}]")
    images = {}
    for p in V.basis(d):
        image = images[p] = V.apply_mode(A, n, FockVector.basis(p))
        if not image.is_zero() and image.degree() != target:
            raise AssertionError("mode degree bookkeeping violated")
    return GradedEndo(images, V.truncation)


def realize(x: LieElement, V: VertexAlgebraInstance, d: int) -> GradedEndo:
    """x on V_d; every term must stay inside the window.  The zero
    element realizes as the zero images."""
    total = GradedEndo({p: FockVector.zero() for p in V.basis(d)},
                       V.truncation)
    for (p, n), c in x.terms.items():
        total = total.plus(mode_block(V, p, n, d), c)
    return total


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
