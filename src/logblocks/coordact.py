"""Disc coordinate changes, their exponential coordinates, and their
action on a truncated graded vertex algebra.

A coordinate change f(t) = a1 t + a2 t^2 + ... (``DiscAuto``) is
rewritten as

    f(t) = exp( sum_{i>0} v_i t^{i+1} d/dt ) (v0 t),     v0 = a1,

by a triangular solve, and acts on V via

    act(f) = exp( - sum_{j>0} v_j L_j ) . v0^{-L0}.

Since each L_j strictly lowers the degree, the exponential is a finite sum
on the truncation window and everything stays exact.

Only the ``coords`` command and the tests load this module.  The group law
of coordinate changes (composition and inversion) is kept with the tests,
which check ``act`` against it; no command composes coordinate changes.
"""

from __future__ import annotations

from fractions import Fraction

from .exactalg import Record, _as_fraction, add_into
from .operators import GradedEndo
from .vacore import FockVector, VertexAlgebraInstance


class DiscAuto(Record):
    """Base-point-preserving disc automorphism a1*t + a2*t^2 + ...

    Coefficients a_1..a_{N-1}; a1 must be nonzero.
    """

    __slots__ = _fields = ("coefficients", "truncation_order")

    def __init__(self, coefficients: tuple, truncation_order: int):
        coeffs = tuple(_as_fraction(c) for c in coefficients)
        if len(coeffs) != truncation_order - 1:
            raise ValueError("need exactly N-1 coefficients a_1..a_{N-1}")
        if not coeffs or coeffs[0] == 0:
            raise ValueError("leading coefficient a_1 must be invertible")
        super().__init__(coeffs, truncation_order)

    def a(self, i: int) -> Fraction:
        return self.coefficients[i - 1]


class ExpCoords(Record):
    """v0 (nonzero scaling) plus higher = (v1, ..., v_{N-1})."""

    __slots__ = _fields = ("v0", "higher", "truncation_order")

    def __init__(self, v0: Fraction, higher: tuple, truncation_order: int):
        v0 = _as_fraction(v0)
        if v0 == 0:
            raise ValueError("v0 must be nonzero")
        higher = tuple(_as_fraction(c) for c in higher)
        if len(higher) != truncation_order - 2:
            raise ValueError("need exactly N-2 higher coefficients v1..v_{N-1}")
        super().__init__(v0, higher, truncation_order)

    def v(self, i: int) -> Fraction:
        if i == 0:
            return self.v0
        return self.higher[i - 1]


def _apply_derivation(coeffs: dict, vs: tuple, order: int) -> dict:
    """(sum_{i>0} v_i t^{i+1} d/dt) applied to sum c_e t^e, truncated."""
    out = {}
    for e, c in coeffs.items():
        add_into(out, {e + i: vi for i, vi in enumerate(vs, start=1)
                       if e + i < order}, e * c)
    return out


def expand_exponential(c: ExpCoords) -> DiscAuto:
    """exp(sum_{i>0} v_i t^{i+1} d/dt) applied to v0*t, exactly through N."""
    n = c.truncation_order
    # D^k(v0 t)/k! accumulated incrementally: dividing each new application
    # by k keeps the running term equal to D^k(v0 t)/k!
    total = {1: c.v0}
    term = {1: c.v0}
    k = 0
    while term and k <= n:
        k += 1
        term = _apply_derivation(term, c.higher, n)
        term = {e: w / k for e, w in term.items()}
        add_into(total, term)
    return DiscAuto(tuple(total.get(i, Fraction(0)) for i in range(1, n)), n)


def solve_exp_coords(f: DiscAuto) -> ExpCoords:
    """Triangular solve for (v0, v1, ...) with expand_exponential as check.

    v0 = a1; for i >= 1 the coefficient of t^{i+1} in the expansion is
    v_i * v0 plus terms involving only v_1 .. v_{i-1}, so each v_i is
    obtained by one division.
    """
    n = f.truncation_order
    v0 = f.a(1)
    vs = [Fraction(0)] * (n - 2)
    for i in range(1, n - 1):
        partial = ExpCoords(v0, tuple(vs), n)
        expanded = expand_exponential(partial)
        vs[i - 1] = (f.a(i + 1) - expanded.a(i + 1)) / v0
    return ExpCoords(v0, tuple(vs), n)


def act(f: DiscAuto, V: VertexAlgebraInstance) -> GradedEndo:
    """exp(-sum_{j>0} v_j L_j) . v0^{-L0} as the image of every basis
    vector of V_{<=N}.

    Requires f truncated at order >= N so that every L_j reaching inside
    the window has a known coefficient.
    """
    N = V.truncation
    if f.truncation_order < N:
        raise ValueError(
            f"coordinate change truncated at {f.truncation_order}, "
            f"need at least {N}")
    c = solve_exp_coords(f)
    jmax = min(N, c.truncation_order - 2)
    images = {}
    for m in range(N + 1):
        scale = Fraction(1) / (c.v0 ** m)
        for p in V.basis(m):
            term = FockVector.basis(p).scaled(scale)
            total = dict(term.terms)
            k = 0
            while not term.is_zero():
                k += 1
                nxt = {}
                for j in range(1, jmax + 1):
                    vj = c.v(j)
                    if vj != 0:
                        add_into(nxt, V.apply_L(j, term).terms, -vj)
                term = FockVector(nxt).scaled(Fraction(1, k))
                add_into(total, term.terms)
            images[p] = FockVector(total)
    return GradedEndo(images, N)
