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
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, product

from .curves import (NODAL_INF1, NODAL_INF2, P1_INFINITY, CurveModel,
                     global_form_basis, restrict_to_disc)
from .exactalg import Record, SparseVector, Subspace, add_into, span_insert
from .series import DiscForm, invert_variable
from .vacore import (FockVector, LieElement, VertexAlgebraInstance,
                     partitions_of, theta)


def vertex_op_residue(v: FockVector, omega: DiscForm) -> LieElement:
    """Residue pairing of Y(v, t) against a disc form.

    For omega = sum_k c_k t^k dt the residue of Y(v,t) omega picks the
    mode with t-exponent -n-1+k = -1, so the result is sum_k c_k v_[k].
    """
    v.degree()  # homogeneity check
    return LieElement({(p, k): c * cv
                       for k, c in omega.in_dt().series.coefficients.items()
                       for p, cv in v.terms.items()})


class LieGenerator(Record):
    """One global form paired with one algebra vector: a component per
    puncture, all coming from restrictions of the same form.

    vector is the partition of the paired algebra vector, and components
    holds one LieElement per puncture.  A generator of ``lie_generators``
    is built with its closed-form ``signature`` and builds its components
    the first time they are read, checking that their shifts give the same
    signature (AssertionError naming the form if not); one built by hand
    is given its components and reads its signature from them, with no
    ``silent`` component and ``block_killed`` False (``lie_generators``).
    """

    _fields = ("form_label", "vector", "components")
    __slots__ = ("__dict__",)  # the fields and the cached properties
    silent = ()
    block_killed = False

    @classmethod
    def _deferred(cls, form_label, vector, signature, silent, block_killed,
                  source):
        """A generator with its signature, whose components are built from
        source, (vector, discs, V), on first read."""
        gen = object.__new__(cls)
        gen.__dict__.update(form_label=form_label, vector=vector,
                            signature=signature, silent=silent,
                            block_killed=block_killed, _source=source)
        return gen

    @cached_property
    def components(self) -> tuple:
        """The residue pairing of the vector with each (restriction,
        twisted) disc of the form, then theta where twisted."""
        v, discs, V = self.__dict__.pop("_source")
        comps = []
        for r, twisted in discs:
            comp = vertex_op_residue(v, r)
            comps.append(theta(comp, V) if twisted else comp)
        built = _read_signature(self.form_label, comps)
        if built != self.signature:
            raise AssertionError(f"{self.form_label} builds shifts {built}, "
                                 f"not {self.signature}")
        return tuple(comps)

    @cached_property
    def signature(self) -> tuple:
        """The (i, s) shifts: one per nonzero component i, s the one
        degree shift of its terms (see ``TensorWindow.apply_generator``)."""
        return _read_signature(self.form_label, self.components)


def _read_signature(label, components) -> tuple:
    """The signature of components, read from the shifts of their terms."""
    return _signature(label, ({sum(p) - n - 1 for p, n in comp.terms}
                              for comp in components))


def _signature(label, shift_sets) -> tuple:
    """The (i, s) of each component i with a nonempty set of shifts, s its
    one member; a component with two shifts raises AssertionError."""
    shifts = []
    for i, found in enumerate(shift_sets):
        if found:
            s, *other = found
            assert not other, (f"a component of {label} shifts degrees "
                               f"by {sorted(found)}")
            shifts.append((i, s))
    return tuple(shifts)


def lie_generators(curve: CurveModel, V: VertexAlgebraInstance,
                   max_pole: int = None, max_deg: int = None,
                   vector_pool=None) -> list:
    """All (global form, homogeneous vector) generators up to the bounds.

    vector_pool defaults to every partition basis vector of V with degree
    at most the truncation; functoriality checks substitute a subalgebra
    pool of FockVectors.

    Only the restrictions are computed here.  A generator's signature is
    a closed form of them: the restriction at puncture i is a sum of
    c_k t^k dt, and the residue pairing makes each term the mode v_[k],
    which shifts degrees by s = deg v - k - 1; theta negates s.  Its
    components are built on first read.  A pair is left out when every
    restriction of the form is zero, which is when every component is
    zero: theta sends a nonzero component to a nonzero one, since the
    i = 0 terms of its chains, +-A_[2a-j-2], cannot cancel, every other
    chain term having a lower degree.

    Component i is *silent* when theta twists its disc, every exponent k
    of its restriction is >= 0 and L_1 V_1 = 0 (checked only when the
    curve has a twisted puncture).  Then A = sum_k c_k v_(k) kills |0>,
    and by adjunction theta(A) has no vacuum coefficient: L_1 V_1 = 0 makes
    iota|0> = |0>* a module map V -> V' (Frenkel, Huang & Lepowsky 1993,
    5.2-5.3; Li 1994), so <|0>*, theta(A) u> = <iota(A|0>), u> = 0.

    A generator is *block_killed* when it has one untwisted and one twisted
    disc with equal restrictions (p1 with two points), so that it acts as
    A (x) 1 + 1 (x) theta(A), and L_1 V_1 = 0.  Then the same references
    give V an invariant form B with B(|0>, |0>) = 1, and theta is exactly
    minus its adjoint: B(Ax, y) + B(x, theta(A) y) = 0, so the functional
    x (x) y -> B(x, y) kills every image of the generator.
    """
    N = V.truncation
    if max_deg is None:
        max_deg = N + 2
    if max_pole is None:
        max_pole = N + 2
    if vector_pool is None:
        vector_pool = [FockVector.basis(p)
                       for d in range(N + 1) for p in V.basis(d)]
    # (vector, its degree, its first partition); degree() checks homogeneity
    pool = [(v, v.degree(), next(iter(v.terms)))
            for v in vector_pool if not v.is_zero()]
    series_order = max(2 * N + max_deg + max_pole + 4, 8)
    l1_kills_v1 = (any(p.location == P1_INFINITY for p in curve.punctures)
                   and _l1_kills_v1(V))
    gens = []
    for omega in global_form_basis(curve, max_pole, max_deg):
        label = omega.label()
        discs = []  # (frame-adjusted restriction, twisted by theta)
        for p in curve.punctures:
            r = restrict_to_disc(omega, p, series_order)
            if p.location in (NODAL_INF1, NODAL_INF2, P1_INFINITY):
                r = invert_variable(r)
            discs.append((r, p.location == P1_INFINITY))
        exponents = [(r.in_dt().series.coefficients, -1 if twisted else 1)
                     for r, twisted in discs]
        if not any(ks for ks, _ in exponents):
            continue
        silent = tuple(i for i, (ks, sign) in enumerate(exponents)
                       if l1_kills_v1 and sign < 0 and ks and min(ks) >= 0)
        killed = (len(exponents) == 2 and exponents[0][1] != exponents[1][1]
                  and exponents[0][0] == exponents[1][0] and l1_kills_v1)
        signatures = {}  # by vector degree
        for v, a, key in pool:
            sig = signatures.get(a)
            if sig is None:
                sig = signatures[a] = _signature(
                    label, ({sign * (a - k - 1) for k in ks}
                            for ks, sign in exponents))
            gens.append(LieGenerator._deferred(label, key, sig, silent,
                                               killed, (v, discs, V)))
    return gens


def _l1_kills_v1(V: VertexAlgebraInstance) -> bool:
    """Whether L_1 V_1 = 0; ``lie_generators`` checks it once per call."""
    return all(V.apply_L(1, FockVector.basis(p)).is_zero()
               for p in V.basis(1))


# --- tensor window and spans -------------------------------------------------


class TensorWindow:
    """Basis of the total-degree <= N window of a tensor product of
    vacuum modules, laid out by cells.

    The *cell* of a column is its vector of factor degrees (d_1, ..., d_k).
    Cells come by descending total degree, then ascending, each one block
    of its tuples in ascending order; ``_columns`` maps a cell to its
    (start, stop).  So the columns of total degree <= d are a trailing
    block (``_dims_from_span``).
    """

    def __init__(self, modules, N: int):
        self.modules = list(modules)
        self.N = N
        bases = [[sorted(M.basis(d)) for d in range(N + 1)]
                 for M in self.modules]
        cells = [()]
        for factor in bases:
            cells = [c + (d,) for c in cells
                     for d in range(N + 1 - sum(c)) if factor[d]]
        cells.sort(key=lambda c: (-sum(c), c))
        self.basis, self.cells, self._columns = [], [], {}
        for cell in cells:
            start = len(self.basis)
            self.basis += product(*(factor[d]
                                    for factor, d in zip(bases, cell)))
            self.cells += [cell] * (len(self.basis) - start)
            self._columns[cell] = start, len(self.basis)
        self.index = {t: i for i, t in enumerate(self.basis)}
        self.dimension = len(self.basis)
        self.cell_dims = {c: stop - start
                          for c, (start, stop) in self._columns.items()}
        self._degree_counts = Counter()
        for c, n in self.cell_dims.items():
            self._degree_counts[sum(c)] += n
        # [k]: the dimension of the top k degrees, d > N - k
        self._top_dims = list(accumulate(
            (self._degree_counts[N - k] for k in range(N + 1)), initial=0))
        # apply_generator's plans, keyed by (signature, saturated cells,
        # silent components), and the open cells of each saturated set
        self._plans, self._opened = {}, {}

    def ambient_dim(self, d: int) -> int:
        return self._degree_counts[d]

    def apply_generator(self, gen: LieGenerator, saturated):
        """The in-window images of the generator on the window basis that
        may lie outside the span, projected onto the open cells; returns
        (vectors, dropped count).

        A term A_(n) maps degree k to k + deg A - n - 1, and every term of
        a generator component shifts degrees by the same s: restrictions
        of global forms are monomials, theta negates the shift (so its
        terms still share one) and the vectors paired with a form are
        homogeneous.  A component with terms at two shifts raises
        AssertionError.  Component i acts on factor i alone, so on a tuple
        of cell c its image is zero or lies in the target cell c + s e_i,
        of total degree d + s.  It is out at d when d + s > N.  An
        in-window target with no window columns (a negative factor degree,
        say) is empty: the image there is 0.  So is a target of factor
        degree 0 for a silent component (``lie_generators``), where the
        image is the vacuum of factor i times a coefficient that is 0.

        An application is dropped when a term of its image lies above N.
        The dropped count is every tuple of a degree d at which some live
        component is out, whether or not its image vanishes: a closed form
        of the window and the shifts that no skip moves.  saturated is a
        frozenset of cells in which the span contains every unit vector (see
        ``saturated_cells``); the other cells are *open*.  Images are built
        on the open cells alone: every column of a saturated cell is the
        pivot of a unit row, and a reduced row is zero at every other
        pivot, so an image and its projection differ by rows of the span
        and leave the same reduced echelon span.  So a step is a source
        cell of an open cell, one from which some component lands in an
        open cell; every other cell projects to 0 and is skipped with no
        mode applied.  On a step, a nonzero image of an out component
        drops the tuple; otherwise the components landing in open cells
        are applied, and a projection of 0 gives no vector.

        The steps and the dropped count are a function of the generator's
        ``signature`` (its (i, s) shifts), its ``silent`` components and
        saturated alone.  So they are planned once per window for each
        such key (``plan``) and replayed on later calls: a generator whose
        plan has no step applies no mode and reads no component.  A
        component's action on a factor partition is computed once per call.
        """
        dropped, steps = self.plan(gen.signature, saturated, gen.silent)
        vectors = []
        if not steps:
            return vectors, dropped
        # per component i: factor partition -> terms of its action
        tables = {i: {} for i, _ in gen.signature}

        def act(i, t):
            table = tables[i]
            terms = table.get(t[i])
            if terms is None:
                terms = table[t[i]] = gen.components[i].apply(
                    self.modules[i], FockVector.basis(t[i])).terms
            return terms

        for lo, hi, outs, opens in steps:
            for t in self.basis[lo:hi]:
                if any(act(i, t) for i in outs):
                    continue
                out = {}
                for i in opens:
                    add_into(out, {self.index[t[:i] + (q,) + t[i + 1:]]: c
                                   for q, c in act(i, t).items()})
                if out:
                    vectors.append(SparseVector(out, self.dimension))
        return vectors, dropped

    def plan(self, shifts, saturated, silent):
        """``_plan`` of this key, computed once per window and then read
        from ``_plans``."""
        key = (shifts, saturated, silent)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = self._plan(*key)
        return plan

    def _plan(self, shifts, saturated, silent):
        """(dropped, steps) of ``apply_generator`` for a generator of these
        shifts and silent components under these saturated cells, walked
        backward: each open cell o and component (i, s) not empty at o give
        the source o - s e_i, and each source in the window is a step.
        steps holds (lo, hi, outs, opens) per step basis[lo:hi], in basis
        order: the indices of the components that are out and of those
        that land in an open cell, nonempty and in the window."""
        N, cells = self.N, self.cell_dims
        top = max((s for _, s in shifts), default=0)
        dropped = self._top_dims[min(max(top, 0), N + 1)]
        opened = self._opened.get(saturated)
        if opened is None:
            opened = self._opened[saturated] = cells.keys() - saturated
        sources = {o[:i] + (o[i] - s,) + o[i + 1:] for o in opened
                   for i, s in shifts if o[i] or i not in silent}
        steps = []
        for cell in sorted(sources & cells.keys(), key=self._columns.get):
            outs, opens = [], []
            for i, s in shifts:
                target = cell[:i] + (cell[i] + s,) + cell[i + 1:]
                if sum(cell) + s > N:
                    outs.append(i)
                elif target in opened and (target[i] or i not in silent):
                    opens.append(i)
            steps.append((*self._columns[cell], outs, opens))
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

    The columns of total degree <= d form a trailing block of the window
    (``TensorWindow``).  An echelon row is zero before its pivot, so the
    rows with a pivot in that block span the image's intersection with it;
    the rank in degree d is then the number of pivots of degree exactly d.
    """
    degrees = Counter(sum(window.cells[p]) for p in span.rows)
    return {d: degrees[d] for d in range(window.N + 1)}


def saturated_cells(window: TensorWindow, span: Subspace) -> frozenset:
    """Cells c such that the span contains the unit vector of every window
    column of cell c.

    That holds exactly when every column of c is the pivot of a unit row,
    a row with one entry, which is a pivot outside ``span.tails``.  A full
    pivot count in c is not enough: a row with its pivot in c may carry a
    tail in a later cell of its degree or in a lower degree (the
    projective line with two points has generators of mixed degree), and
    then the unit vector at its pivot is not in the span.
    """
    tails = span.tails
    units = Counter(window.cells[p] for p in span.rows if p not in tails)
    return frozenset(c for c, n in units.items() if n == window.cell_dims[c])


def _l0_multiple(comp: LieElement, omega: FockVector):
    """c when comp is c * omega_(1), 0 when comp is zero, else None."""
    if comp.is_zero():
        return 0
    p, w = next(iter(omega.terms.items()))
    c = Fraction(comp.terms.get((p, 1), 0)) / w
    return c if c and comp == LieElement.mode(omega, 1, c) else None


def l0_cells(window: TensorWindow, generators) -> frozenset:
    """The window cells on each of whose columns some generator maps the
    unit vector to a nonzero multiple of itself.

    omega_(1) = L_0 acts on a degree-d vector as the scalar d.  A
    generator whose every nonzero component i is c_i omega_(1) is
    *diagonal*: it maps each tuple of cell (d_1, ..., d_k) to
    sum_i c_i d_i times itself, with no shift and so no drop.  Diagonal
    generators are found by their components, not by their vector, which
    a subalgebra pool may hold as a sum; only those of vector degree
    deg omega and all shifts 0 are read.  No generator is applied.
    """
    omegas = [M.conformal_vector for M in window.modules]
    weight = omegas[0].degree()
    eigen = []  # per diagonal generator, its c_i per factor
    for gen in generators:
        if sum(gen.vector) != weight or any(s for _, s in gen.signature):
            continue
        cs = tuple(map(_l0_multiple, gen.components, omegas))
        if None not in cs:
            eigen.append(cs)
    return frozenset(cell for cell in window.cell_dims
                     if any(sum(c * d for c, d in zip(cs, cell))
                            for cs in eigen))


def _coinvariant_core(modules, generators, N):
    """The window, the reduced echelon span of all generator images in it,
    and the number of dropped applications.

    The span starts with the unit vectors of the columns of ``l0_cells``,
    in column order, certified by the generators acting as multiples of
    L_0 with no mode applied: on the nodal curve and on the projective
    line with one point every cell but the vacuum, with two points every
    cell with d_0 != d_inf.  Each of those columns is then the pivot of a
    unit row, so those cells are the first saturated set.

    The generators are then taken once each in their given order.  Each
    adds the dropped count of its plan under the current saturated cells,
    and is applied only when that plan has a step, a source cell of an
    open cell (``TensorWindow.apply_generator``).  On the projective line
    with one point, where only the vacuum cell is open and every component
    is silent, no generator is applied, and none builds its components.
    Saturation never goes away: a unit row is zero at every later pivot,
    so no insert back-substitutes into it.  A rank-raising insert is the
    only one that changes a row, so the set is refreshed only after a
    generator whose inserts raised the rank.  When every generator is
    ``block_killed``, x (x) y -> B(x, y) kills every image and reads 1 on
    the vacuum (``lie_generators``), so the rank is at most dim - 1 and no
    generator is applied once the span reaches it.  The order changes no
    result: the reduced echelon span is canonical, the skips are sound for
    any order and the dropped count is a sum over generators.
    """
    window = TensorWindow(modules, N)
    span = Subspace.empty(window.dimension)
    saturated = l0_cells(window, generators)
    for cell in sorted(saturated, key=window._columns.get):
        for j in range(*window._columns[cell]):
            span = span_insert(span, SparseVector({j: 1}, window.dimension))
    cap = window.dimension - all(g.block_killed for g in generators)
    dropped = 0
    for gen in generators:
        d, steps = window.plan(gen.signature, saturated, gen.silent)
        dropped += d
        if not steps or span.rank >= cap:
            continue
        vectors, _ = window.apply_generator(gen, saturated)
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
    generators, not its window, while the rerun runs.  They are the same
    objects, so the components the rerun builds are read again by the N
    solve.
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
