"""Coinvariants of tensor products of vacuum modules under the Lie algebra
of global-form Fourier coefficients.

Pipeline: enumerate global log 1-forms on the curve, restrict each to the
punctured disc at every puncture, convert each restriction into a mode sum
(residue pairing), and quotient the tensor product of module windows by
the span of all generator applications.

Frame conventions at the punctures:

* nodal punctures carry the branch coordinate s = 1/t, so the restriction
  is pulled back through t -> 1/t before the residue pairing;
* the puncture at infinity on the projective line additionally twists by
  theta (the contragredient involution), which converts a mode written in
  the frame at zero into its action on the fiber at infinity;
* the puncture at zero uses the residue pairing directly.

Dimensions are reported per total degree through the truncation window
with a stabilization flag (the value is unchanged when recomputed at
truncation N-1).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace

from .curves import (NODAL_INF1, NODAL_INF2, P1_ZERO, P1_INFINITY,
                     CurveModel, GlobalLogForm, global_form_basis,
                     restrict_to_disc)
from .exactalg import SparseVector, Subspace, add_into, span_insert
from .series import DiscForm, invert_variable
from .vacore import FockVector, LieElement, VertexAlgebraInstance, theta


def vertex_op_residue(v: FockVector, omega: DiscForm,
                      V: VertexAlgebraInstance) -> LieElement:
    """Residue pairing of Y(v, t) against a disc form.

    For omega = sum_k c_k t^k dt the residue of Y(v,t) omega picks the
    mode with t-exponent -n-1+k = -1, so the result is sum_k c_k v_[k].
    """
    if not isinstance(v, FockVector):
        v = FockVector.basis(v)
    v.degree()  # homogeneity check
    acc = {}
    for k, c in omega.in_dt().series.coefficients.items():
        add_into(acc, LieElement.mode(v, k).terms, c)
    return LieElement(acc)


@dataclass(frozen=True)
class LieGenerator:
    """One global form paired with one algebra vector: a component per
    puncture, all coming from restrictions of the same form."""

    form_label: str
    vector: tuple  # partition of the paired algebra vector
    components: tuple  # one LieElement per puncture


def lie_generators(curve: CurveModel, V: VertexAlgebraInstance,
                   max_pole: int = None, max_deg: int = None,
                   vector_pool=None) -> list:
    """All (global form, homogeneous vector) generators up to the bounds.

    vector_pool defaults to every partition basis vector of V with degree
    at most the truncation; functoriality checks substitute a subalgebra
    pool of FockVectors.
    """
    N = V.truncation
    if max_deg is None:
        max_deg = N + 2
    if max_pole is None:
        max_pole = N + 2
    if vector_pool is None:
        vector_pool = [FockVector.basis(p)
                       for d in range(N + 1) for p in V.basis(d)]
    series_order = max(2 * N + max_deg + max_pole + 4, 8)
    gens = []
    for omega in global_form_basis(curve, max_pole, max_deg):
        label = omega.label()
        discs = []  # (frame-adjusted restriction, twisted by theta)
        for p in curve.punctures:
            r = restrict_to_disc(omega, p, series_order)
            if p.location in (NODAL_INF1, NODAL_INF2, P1_INFINITY):
                r = invert_variable(r)
            discs.append((r.in_dt(), p.location == P1_INFINITY))
        for v in vector_pool:
            if v.is_zero():
                continue
            comps = []
            for r, twisted in discs:
                comp = vertex_op_residue(v, r, V)
                comps.append(theta(comp, V) if twisted else comp)
            if all(c.is_zero() for c in comps):
                continue
            key = next(iter(v.terms))
            gens.append(LieGenerator(label, key, tuple(comps)))
    return gens


# --- tensor window and spans -------------------------------------------------


class TensorWindow:
    """Basis of the total-degree <= N window of a tensor product of
    vacuum modules, with columns ordered by total degree descending."""

    def __init__(self, modules, N: int):
        self.modules = list(modules)
        self.N = N
        tuples = [()]
        for M in self.modules:
            tuples = [t + (p,) for t in tuples
                      for d in range(N + 1 - sum(sum(q) for q in t))
                      for p in M.basis(d)]
        tuples.sort(key=lambda t: (-sum(sum(p) for p in t), t))
        self.basis = tuples
        self.degrees = [self.total_degree(t) for t in tuples]
        self.index = {t: i for i, t in enumerate(tuples)}
        self.dimension = len(tuples)
        self._degree_counts = Counter(self.degrees)
        # (d, start, stop): basis[start:stop] are the columns of degree d
        self.slices = []
        stop = 0
        for d in sorted(self._degree_counts, reverse=True):
            start, stop = stop, stop + self._degree_counts[d]
            self.slices.append((d, start, stop))

    def ambient_dim(self, d: int) -> int:
        return self._degree_counts[d]

    def total_degree(self, t) -> int:
        return sum(sum(p) for p in t)

    def apply_generator(self, gen: LieGenerator, saturated):
        """The in-window images of the generator on the window basis that
        may lie outside the span; returns (vectors, dropped count).

        A term A_(n) maps degree k to k + deg A - n - 1, and every term of
        a generator component shifts degrees by the same s: restrictions
        of global forms are monomials, theta keeps the shift and the
        vectors paired with a form are homogeneous.  A component with
        terms at two shifts raises AssertionError.  On a tuple of total
        degree d a component's image is zero or lies in degree d + s; the
        component is out at d when d + s > N.

        An application is dropped when a term of its image lies above N.
        The dropped count is every tuple of a degree d at which some live
        component is out, whether or not its image vanishes: a closed form
        of the window and the shifts that no skip moves.  saturated is a
        set of degrees in which the span contains every unit vector (see
        ``saturated_degrees``).  Per window degree d:

        * an out component that cannot vanish, or every d + s <= N
          saturated (vacuously so when every component is out): each tuple
          of the degree is dropped or its image lies in the span, and the
          degree is skipped with no mode applied;
        * otherwise each tuple is acted on.  A nonzero image of an out
          component drops it, and a tuple whose nonzero images all land in
          saturated degrees is skipped before its vector is built.

        A component's action on a factor partition q is computed once per
        call.

        A component that is one term A_(n) with n <= -1, and n = -1 when A
        is the vacuum, cannot vanish: A_(n) q != 0 for every basis vector
        q.  Proof: the associated graded of the PBW filtration is a
        polynomial ring, C[b_-1, b_-2, ...] for Heisenberg and
        C[L_-2, L_-3, ...] for Virasoro at any c.  There the symbol of
        A_(-k-1) q = (T^k A / k!)_(-1) q is D^k sigma(A) sigma(q) / k!,
        where the derivation D induced by T sends b_-i to i b_-i-1 and
        L_-k to (k-1) L_-k-1.  D is injective on nonconstant polynomials:
        if x_M is the highest variable of P and e its largest power, then
        D P has a term x_M+1 x_M^(e-1) that only D of P's terms with x_M^e
        yield, each times e and a nonzero constant.  A product of nonzero
        polynomials is nonzero.  Two terms at one shift may cancel, as
        (TA)_(n) + n A_(n-1) = 0 does, and a mode with n >= 0 may vanish,
        as b_(0) does.
        """
        live, shifts, firm = [], [], 0
        for i, comp in enumerate(gen.components):
            if comp.is_zero():
                continue
            s, *other = {sum(p) - n - 1 for p, n in comp.terms}
            assert not other, (f"a component of {gen.form_label} shifts "
                               f"degrees by {sorted([s, *other])}")
            (p, n), *rest = comp.terms
            if not rest and (n == -1 or p and n < -1):
                firm = max(firm, s)
            shifts.append(s)
            live.append((i, comp, self.modules[i], s, {}))
        top = max(shifts, default=0)
        vectors, dropped = [], 0
        for deg, start, stop in self.slices:
            if deg + top > self.N:
                dropped += stop - start
            # firm: the largest shift of a component that cannot vanish, or 0
            if deg + firm > self.N or all(deg + s in saturated
                                          for s in shifts
                                          if deg + s <= self.N):
                continue
            for t in self.basis[start:stop]:
                acted = []
                for i, comp, module, s, table in live:
                    q = t[i]
                    terms = table.get(q)
                    if terms is None:
                        terms = table[q] = comp.apply(
                            module, FockVector.basis(q)).terms
                    if terms and deg + s > self.N:
                        break
                    acted.append((i, terms, deg + s))
                else:
                    if all(e in saturated for _, terms, e in acted if terms):
                        continue
                    out = {}
                    for i, terms, _ in acted:
                        head, tail = t[:i], t[i + 1:]
                        add_into(out, {self.index[head + (q,) + tail]: c
                                       for q, c in terms.items()})
                    if out:
                        vectors.append(SparseVector(out, self.dimension))
        return vectors, dropped


@dataclass(frozen=True)
class CoinvariantReport:
    """One solve's table and counts.

    dropped_applications counts the applications of a generator to a
    window tuple at whose degree some nonzero component of the generator
    maps above the truncation N, whether or not its image vanishes: per
    generator, the window dimension of every degree d with d + max s > N,
    s the components' degree shifts.  No skip changes it.
    """

    curve: str
    punctures: tuple
    algebra: str
    truncation: int
    max_pole: int
    max_deg: int
    generator_count: int
    dropped_applications: int
    rows: tuple  # (degree, ambient_dim, image_rank, quotient_dim, stabilized)

    def quotient_dims(self) -> dict:
        return {r[0]: r[3] for r in self.rows}

    def total_dim(self) -> int:
        return sum(r[3] for r in self.rows)

    def to_csv(self) -> str:
        lines = ["degree,ambient_dim,image_rank,quotient_dim,stabilized"]
        for d, amb, rank, quo, stab in self.rows:
            lines.append(f"{d},{amb},{rank},{quo},{str(stab).lower()}")
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        head = [
            f"curve: {self.curve}",
            f"punctures: {', '.join(self.punctures)}",
            f"algebra: {self.algebra}",
            f"truncation: {self.truncation}",
            f"max_pole: {self.max_pole}",
            f"max_deg: {self.max_deg}",
            f"generators: {self.generator_count}",
            f"dropped_applications: {self.dropped_applications}",
            "",
        ]
        return "\n".join(head) + self.to_csv()


def _algebra_label(V: VertexAlgebraInstance) -> str:
    if V.kind == "heisenberg":
        return "heisenberg"
    return f"virasoro(c={V.central_charge})"


def _dims_from_span(window: TensorWindow, span: Subspace):
    """Per-degree image ranks: the number of echelon pivots in each degree.

    With columns sorted by descending total degree, the vectors of total
    degree <= d occupy a trailing coordinate block.  An echelon row is zero
    before its pivot, so the rows with a pivot in that block span the
    image's intersection with it; the rank in degree d is then the number
    of pivots of degree exactly d.
    """
    degrees = Counter(window.degrees[p] for p in span.rows)
    return {d: degrees[d] for d in range(window.N + 1)}


def saturated_degrees(window: TensorWindow, span: Subspace) -> frozenset:
    """Degrees d such that the span contains the unit vector of every
    window column of degree d.

    That holds exactly when every column of degree d is the pivot of a
    unit row, a row with one entry.  A full pivot count in degree d is not
    enough: a row with its pivot in degree d may carry a tail in lower
    degrees (the projective line with two points has generators of mixed
    degree), and then the unit vector at its pivot is not in the span.
    """
    units = Counter(window.degrees[p] for p, row in span.rows.items()
                    if len(row.entries) == 1)
    return frozenset(d for d, n in units.items()
                     if n == window.ambient_dim(d))


def _coinvariant_core(modules, generators, N):
    """The window, the reduced echelon span of all generator images in it,
    and the number of dropped applications.

    An image supported on saturated degrees (``saturated_degrees``) is a
    combination of unit vectors the span contains, so ``apply_generator``
    skips it; this holds for every curve and needs no condition on the
    generators.  Saturation never goes away: a unit row is zero at every
    later pivot, so no insert back-substitutes into it.  A rank-raising
    insert is the only one that changes a row, so the set is refreshed
    only after a generator whose inserts raised the rank.
    """
    window = TensorWindow(modules, N)
    span = Subspace.empty(window.dimension)
    saturated = frozenset()
    dropped = 0
    for gen in generators:
        vectors, d = window.apply_generator(gen, saturated)
        dropped += d
        rank = span.rank
        for vec in vectors:
            span = span_insert(span, vec)
        if span.rank > rank:
            saturated = saturated_degrees(window, span)
    return window, span, dropped


def coinvariant_dims(curve: CurveModel, V: VertexAlgebraInstance,
                     max_pole: int = None, max_deg: int = None,
                     vector_pool=None, check_stability: bool = True,
                     generators=None) -> CoinvariantReport:
    """Per-degree dimensions of the coinvariant quotient inside the window.

    The window is V's truncation N, with the vacuum module of V at every
    puncture.  The stabilization flag per degree records whether rerunning
    at N-1 yields the same value.

    generators, when given, are used in place of building them from
    ``lie_generators`` with the bounds and vector_pool.  The N-1 rerun is
    passed the N solve's generators whose vector has degree <= N-1, in
    their order: these are exactly the N-1 build's, since the restrictions
    are exact monomials and both solves share max_pole and max_deg.  The
    rerun comes before the N window is built, so the N solve holds its
    generators, not its window, while the rerun runs.
    """
    N = V.truncation
    if max_deg is None:
        max_deg = N + 2
    if max_pole is None:
        max_pole = N + 2
    if generators is None:
        generators = lie_generators(curve, V, max_pole=max_pole,
                                    max_deg=max_deg, vector_pool=vector_pool)
    prev_dims = {}
    if check_stability and N >= 1:
        # the view at N-1 shares V's caches: mode data ignores the truncation
        prev_dims = coinvariant_dims(
            curve, replace(V, truncation=N - 1), max_pole=max_pole,
            max_deg=max_deg, check_stability=False,
            generators=[g for g in generators if sum(g.vector) <= N - 1],
        ).quotient_dims()
    window, span, dropped = _coinvariant_core(
        [V] * len(curve.punctures), generators, N)
    ranks = _dims_from_span(window, span)
    dims = {d: window.ambient_dim(d) - ranks[d] for d in range(N + 1)}
    # degree N is never stabilized: the rerun stops at N-1
    rows = tuple((d, window.ambient_dim(d), ranks[d], dims[d],
                  prev_dims.get(d) == dims[d])
                 for d in range(N + 1))
    return CoinvariantReport(curve.kind,
                             tuple(p.name for p in curve.punctures),
                             _algebra_label(V), N, max_pole, max_deg,
                             len(generators), dropped, rows)


@dataclass(frozen=True)
class PropagationReport:
    base: CoinvariantReport
    extended: CoinvariantReport
    hypothesis_applies: bool
    equal_per_degree: dict

    def all_equal(self) -> bool:
        return all(self.equal_per_degree.values())


def propagation_check(curve_base: CurveModel, curve_ext: CurveModel,
                      V: VertexAlgebraInstance,
                      **kwargs) -> PropagationReport:
    """Compare dimension tables before and after a vacuum insertion.

    The propagation theorem applies when the extra punctures carry the
    vacuum module on the same curve; otherwise both tables are still
    reported, flagged as out of hypothesis.
    """
    base = coinvariant_dims(curve_base, V, **kwargs)
    ext = coinvariant_dims(curve_ext, V, **kwargs)
    applies = (curve_base.kind == curve_ext.kind
               and len(curve_ext.punctures) >= len(curve_base.punctures))
    bd, ed = base.quotient_dims(), ext.quotient_dims()
    equal = {d: bd.get(d) == ed.get(d) for d in bd}
    return PropagationReport(base, ext, applies, equal)


def virasoro_subalgebra_pool(V: VertexAlgebraInstance) -> list:
    """Vectors of the conformal subalgebra generated by omega inside V.

    Spanning set: L_{-lam_1} ... L_{-lam_k} |0> over partitions with parts
    >= 2 and total degree <= N, computed through omega's modes in V.
    """
    from .vacore import partitions_of

    pool = []
    for d in range(V.truncation + 1):
        for lam in partitions_of(d, 2):
            v = FockVector.vacuum()
            for part in reversed(lam):
                v = V.apply_L(-part, v)
            if not v.is_zero():
                pool.append(v)
    return pool


@dataclass(frozen=True)
class FunctorialityReport:
    big: CoinvariantReport
    sub: CoinvariantReport
    inequality_per_degree: dict

    def holds(self) -> bool:
        return all(self.inequality_per_degree.values())


def functoriality_check(curve: CurveModel, V: VertexAlgebraInstance,
                        **kwargs) -> FunctorialityReport:
    """Coinvariants over the conformal subalgebra dominate those over V.

    Blocks over the big algebra inject into blocks over the subalgebra,
    so per-degree quotient dims must satisfy dim_sub >= dim_big.
    """
    big = coinvariant_dims(curve, V, **kwargs)
    pool = virasoro_subalgebra_pool(V)
    sub = coinvariant_dims(curve, V, vector_pool=pool, **kwargs)
    bd, sd = big.quotient_dims(), sub.quotient_dims()
    ineq = {d: sd[d] >= bd[d] for d in bd}
    return FunctorialityReport(big, sub, ineq)
