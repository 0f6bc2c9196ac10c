"""Linear operators on a truncated vertex algebra V, and the checks that
run them: mode blocks, the mode-sum Lie bracket of U(V), the axiom
checker (five identities, each reporting its first failing case) and
the sampled bracket cases of ``bracket-check``.

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


AXIOM_MAX_INDEX = 4


def check_axioms(V: VertexAlgebraInstance, max_degree: int = None) -> list:
    """Coefficientwise axiom checks on the truncated instance.

    Five identities, each a generator of (lhs, rhs, witness) cases on the
    basis vectors of degree <= max_degree: the vacuum axiom, the
    translation axiom (TA)_n = -n A_{n-1}, locality through the commutator
    identity [A_m, B_k] = sum_{n>=0} C(m,n) (A_(n)B)_{m+k-n} (checked on
    vectors, independently of how composite modes were built), the
    Virasoro relations with central term, and the L0 grading.  The
    vacuum, translation and Virasoro checks read the modes n with
    |n| <= AXIOM_MAX_INDEX.  Returns one report entry {check, passed,
    witness} per identity, in that order; witness names the first case
    with lhs != rhs, and no later case of that identity is computed.
    """
    if max_degree is None:
        max_degree = min(4, V.truncation)
    vectors = [FockVector.basis(p)
               for d in range(max_degree + 1) for p in V.basis(d)]
    indices = range(-AXIOM_MAX_INDEX, AXIOM_MAX_INDEX + 1)
    mode, L = V.apply_mode, V.apply_L
    vac, zero = FockVector.vacuum(), FockVector.zero()

    def vacuum():
        # |0>_(n) = delta_{n,-1} id, A_(n)|0> = 0 for n >= 0, A_(-1)|0> = A
        for u in vectors:
            for n in indices:
                yield (mode(vac, n, u), u if n == -1 else zero,
                       f"|0>_({n}) on {u}")
        for A in vectors:
            for n in range(AXIOM_MAX_INDEX + 1):
                yield mode(A, n, vac), zero, f"{A}_({n})|0> != 0"
            yield mode(A, -1, vac), A, f"{A}_(-1)|0> != {A}"

    def translation():
        for A in vectors:
            TA = V.translate(A)
            for n in indices:
                for u in vectors:
                    yield (mode(TA, n, u), mode(A, n - 1, u).scaled(-n),
                           f"(T{A})_({n}) on {u}")

    def locality_commutator():
        for A in vectors:
            for B in vectors:
                products = [(n, AnB) for n in range(A.degree() + B.degree())
                            if not (AnB := mode(A, n, B)).is_zero()]
                for m in range(-2, 3):
                    for k in range(-2, 3):
                        for u in vectors[:6]:
                            rhs = zero
                            for n, AnB in products:
                                rhs = rhs.plus(mode(AnB, m + k - n, u),
                                               binom(m, n))
                            yield (mode(A, m, mode(B, k, u)).plus(
                                       mode(B, k, mode(A, m, u)), -1), rhs,
                                   f"[{A}_({m}), {B}_({k})] on {u}")

    def virasoro_bracket():
        for n in indices:
            for m in indices:
                for u in vectors:
                    rhs = L(n + m, u).scaled(n - m)
                    if n + m == 0:
                        rhs = rhs.plus(u, V.central_charge
                                       * Fraction(n ** 3 - n, 12))
                    yield (L(n, L(m, u)).plus(L(m, L(n, u)), -1), rhs,
                           f"[L_{n}, L_{m}] on {u}")

    def l0_grading():
        for u in vectors:
            yield L(0, u), u.scaled(u.degree()), f"L_0 on {u}"

    entries = []
    for identity in (vacuum, translation, locality_commutator,
                     virasoro_bracket, l0_grading):
        witness = next((w for lhs, rhs, w in identity() if lhs != rhs),
                       None)
        entries.append({"check": identity.__name__,
                        "passed": witness is None, "witness": witness})
    return entries


def sampled_brackets(V: VertexAlgebraInstance, rnd):
    """(lhs, rhs) of at most 30 cases from at most 1,000 draws of rnd, a
    random.Random: basis vectors A, B of degrees a, b <= 3, modes m, k in
    [-2, 2] and a degree d give [A_(m), B_(k)] on V_d as composed mode
    blocks and ``realize(u_bracket(A_[m], B_[k]), V, d)``.  A draw is
    dropped when a + b - 1 exceeds the window, where the truncated
    bracket need not be exact, or when a mode block leaves the window.
    """
    N = V.truncation
    trials = 0
    for _ in range(1000):
        if trials == 30:
            return
        da = rnd.randint(0, min(3, N))
        db = rnd.randint(0, min(3, N))
        if da + db - 1 > N or not V.basis(da) or not V.basis(db):
            continue
        pa, m = rnd.choice(V.basis(da)), rnd.randint(-2, 2)
        pb, k = rnd.choice(V.basis(db)), rnd.randint(-2, 2)
        d = rnd.randint(0, N)
        try:
            lhs = mode_block(V, pa, m, d + db - k - 1).compose(
                mode_block(V, pb, k, d)).plus(
                mode_block(V, pb, k, d + da - m - 1).compose(
                    mode_block(V, pa, m, d)), -1)
            rhs = realize(u_bracket(LieElement.mode(pa, m),
                                    LieElement.mode(pb, k), V), V, d)
        except TruncationWindowError:
            continue
        trials += 1
        yield lhs, rhs
