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
from functools import cached_property
from itertools import groupby

from .curves import (NODAL_INF1, NODAL_INF2, P1_ZERO, P1_INFINITY,
                     CurveModel, GlobalLogForm, global_form_basis,
                     restrict_to_disc)
from .exactalg import Record, SparseVector, Subspace, add_into, span_insert
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


class LieGenerator(Record):
    """One global form paired with one algebra vector: a component per
    puncture, all coming from restrictions of the same form.

    vector is the partition of the paired algebra vector, and components
    holds one LieElement per puncture.
    """

    _fields = ("form_label", "vector", "components")
    __slots__ = _fields + ("__dict__",)  # __dict__ holds cached properties

    @cached_property
    def signature(self) -> tuple:
        """(shifts, firm): shifts holds (i, s) per nonzero component i, s
        the one degree shift of its terms; firm is the largest s of a
        component that cannot vanish, or 0 (see
        ``TensorWindow.apply_generator``)."""
        shifts, firm = [], 0
        for i, comp in enumerate(self.components):
            if comp.is_zero():
                continue
            s, *other = {sum(p) - n - 1 for p, n in comp.terms}
            assert not other, (f"a component of {self.form_label} shifts "
                               f"degrees by {sorted([s, *other])}")
            (p, n), *rest = comp.terms
            if not rest and (n == -1 or p and n < -1):
                firm = max(firm, s)
            shifts.append((i, s))
        return tuple(shifts), firm


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
    vacuum modules.

    The *cell* of a column is its vector of factor degrees (d_1, ..., d_k).
    Columns are sorted by (-total degree, cell, tuple): the columns of
    total degree <= d form a trailing block (``_dims_from_span``), and each
    cell is contiguous inside its degree.
    """

    def __init__(self, modules, N: int):
        self.modules = list(modules)
        self.N = N
        tuples = [()]
        for M in self.modules:
            tuples = [t + (p,) for t in tuples
                      for d in range(N + 1 - sum(sum(q) for q in t))
                      for p in M.basis(d)]
        cells = {t: tuple(map(sum, t)) for t in tuples}
        tuples.sort(key=lambda t: (-sum(cells[t]), cells[t], t))
        self.basis = tuples
        self.cells = [cells[t] for t in tuples]
        self.degrees = list(map(sum, self.cells))
        self.index = {t: i for i, t in enumerate(tuples)}
        self.dimension = len(tuples)
        self._degree_counts = Counter(self.degrees)
        self.cell_dims = Counter(self.cells)
        # (d, start, stop, cells): basis[start:stop] are the columns of
        # degree d, tiled in basis order by the (cell, start, stop) of cells
        self.slices = []
        stop = 0
        for d, group in groupby(self.cell_dims, key=sum):
            cells = []
            for c in group:
                start, stop = stop, stop + self.cell_dims[c]
                cells.append((c, start, stop))
            self.slices.append((d, cells[0][1], stop, cells))
        # apply_generator's plans, keyed by (signature, saturated cells)
        self._plans = {}

    def ambient_dim(self, d: int) -> int:
        return self._degree_counts[d]

    def apply_generator(self, gen: LieGenerator, saturated):
        """The in-window images of the generator on the window basis that
        may lie outside the span; returns (vectors, dropped count).

        A term A_(n) maps degree k to k + deg A - n - 1, and every term of
        a generator component shifts degrees by the same s: restrictions
        of global forms are monomials, theta keeps the shift and the
        vectors paired with a form are homogeneous.  A component with
        terms at two shifts raises AssertionError.  Component i acts on
        factor i alone, so on a tuple of cell c its image is zero or lies
        in the target cell c + s e_i, of total degree d + s.  It is out at
        d when d + s > N.  An in-window target with no window columns (a
        negative factor degree, say) is empty: the image there is 0.

        An application is dropped when a term of its image lies above N.
        The dropped count is every tuple of a degree d at which some live
        component is out, whether or not its image vanishes: a closed form
        of the window and the shifts that no skip moves.  saturated is a
        frozenset of cells in which the span contains every unit vector (see
        ``saturated_cells``).  The skips are exact: a tuple whose in-window
        images all land in saturated or empty cells is dropped, or its
        vector is a combination of unit vectors the span holds.  Per window
        degree d:

        * an out component that cannot vanish: the degree is skipped with
          no mode applied;
        * otherwise per cell: when every in-window target is saturated or
          empty, the cell is skipped with no mode applied;
        * otherwise per tuple: a nonzero image of an out component drops
          the tuple, and a tuple whose images in unsaturated cells all
          vanish is skipped; no component is applied on an empty target.

        Every decision above the per-tuple one, and the dropped count, is
        a function of the generator's ``signature`` (its (i, s) shifts and
        firm, the largest s of a component that cannot vanish, or 0) and
        of saturated alone.  So it is planned once per window for each such
        key (``_plan``) and replayed on later calls: a generator whose plan
        skips every cell applies no mode and builds no action table.  A
        component's action on a factor partition q is computed once per
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
        key = (gen.signature, saturated)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = self._plan(*key)
        dropped, steps = plan
        vectors = []
        if not steps:
            return vectors, dropped
        tables = {i: {} for i, _ in gen.signature[0]}

        def act(i, t):
            table = tables[i]
            terms = table.get(t[i])
            if terms is None:
                terms = table[t[i]] = gen.components[i].apply(
                    self.modules[i], FockVector.basis(t[i])).terms
            return terms

        for lo, hi, outs, opens, ins in steps:
            for t in self.basis[lo:hi]:
                if (any(act(i, t) for i in outs)
                        or not any(act(i, t) for i in opens)):
                    continue
                out = {}
                for i in ins:
                    add_into(out, {self.index[t[:i] + (q,) + t[i + 1:]]: c
                                   for q, c in act(i, t).items()})
                if out:
                    vectors.append(SparseVector(out, self.dimension))
        return vectors, dropped

    def _plan(self, signature, saturated):
        """(dropped, steps) of ``apply_generator`` for a generator of this
        signature under these saturated cells.  steps holds (lo, hi, outs,
        opens, ins) per cell basis[lo:hi] that is not skipped: the indices
        of the components that are out, that target an unsaturated cell
        and that target a nonempty in-window cell."""
        shifts, firm = signature
        top = max((s for _, s in shifts), default=0)
        dropped, steps = 0, []
        for deg, start, stop, cells in self.slices:
            if deg + top > self.N:
                dropped += stop - start
            if deg + firm > self.N:
                continue
            for cell, lo, hi in cells:
                outs, opens, ins = [], [], []
                for i, s in shifts:
                    target = cell[:i] + (cell[i] + s,) + cell[i + 1:]
                    if deg + s > self.N:
                        outs.append(i)
                    elif target in self.cell_dims:
                        ins.append(i)
                        if target not in saturated:
                            opens.append(i)
                if opens:
                    steps.append((lo, hi, outs, opens, ins))
        return dropped, steps


class CoinvariantReport(Record):
    """One solve's table and counts.

    rows holds (degree, ambient_dim, image_rank, quotient_dim, stabilized)
    per degree.  dropped_applications counts the applications of a
    generator to a window tuple at whose degree some nonzero component of
    the generator maps above the truncation N, whether or not its image
    vanishes: per generator, the window dimension of every degree d with
    d + max s > N, s the components' degree shifts.  No skip changes it.
    """

    __slots__ = _fields = ("curve", "punctures", "algebra", "truncation",
                           "max_pole", "max_deg", "generator_count",
                           "dropped_applications", "rows")

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


def saturated_cells(window: TensorWindow, span: Subspace) -> frozenset:
    """Cells c such that the span contains the unit vector of every window
    column of cell c.

    That holds exactly when every column of c is the pivot of a unit row,
    a row with one entry.  A full pivot count in c is not enough: a row
    with its pivot in c may carry a tail in a later cell of its degree or
    in a lower degree (the projective line with two points has generators
    of mixed degree), and then the unit vector at its pivot is not in the
    span.
    """
    units = Counter(window.cells[p] for p, row in span.rows.items()
                    if len(row.entries) == 1)
    return frozenset(c for c, n in units.items() if n == window.cell_dims[c])


def _largest_shift(gen: LieGenerator) -> int:
    return max((abs(s) for _, s in gen.signature[0]), default=0)


def _coinvariant_core(modules, generators, N):
    """The window, the reduced echelon span of all generator images in it,
    and the number of dropped applications.

    An image supported on saturated cells (``saturated_cells``) is a
    combination of unit vectors the span contains, so ``apply_generator``
    skips it; this holds for every curve and needs no condition on the
    generators.  Saturation never goes away: a unit row is zero at every
    later pivot, so no insert back-substitutes into it.  A rank-raising
    insert is the only one that changes a row, so the set is refreshed
    only after a generator whose inserts raised the rank.

    The generators are applied stably sorted by their largest |s|, so the
    shift-0 ones, which map each cell into itself, saturate whole cells
    before the large-shift ones reach them.  The order changes no result:
    the reduced echelon span is canonical, the skips are sound for any
    order and the dropped count is a sum over generators.
    """
    window = TensorWindow(modules, N)
    span = Subspace.empty(window.dimension)
    saturated = frozenset()
    dropped = 0
    for gen in sorted(generators, key=_largest_shift):
        vectors, d = window.apply_generator(gen, saturated)
        dropped += d
        rank = span.rank
        for vec in vectors:
            span = span_insert(span, vec)
        if span.rank > rank:
            saturated = saturated_cells(window, span)
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
            curve, V.replace(truncation=N - 1), max_pole=max_pole,
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


class PropagationReport(Record):
    __slots__ = _fields = ("base", "extended", "hypothesis_applies",
                           "equal_per_degree")

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


class FunctorialityReport(Record):
    __slots__ = _fields = ("big", "sub", "inequality_per_degree")

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
