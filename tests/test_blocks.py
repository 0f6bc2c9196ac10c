import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logblocks import blocks
from logblocks.blocks import (LieGenerator, TensorWindow, _coinvariant_core,
                              _l0_multiple, coinvariant_dims,
                              functoriality_check, l0_cells, lie_generators,
                              propagation_check, saturated_cells,
                              vertex_op_residue, virasoro_subalgebra_pool)
from logblocks.curves import (NODAL, P1, P1_INFINITY, P1_ZERO,
                              GlobalLogForm, global_form_basis, nodal_pair,
                              projective_line, restrict_to_disc)
from logblocks.exactalg import SparseVector, Subspace, add_into, span_insert
from logblocks.logmonoid import span_contains, span_of
from logblocks.series import (DiscForm, TruncatedLaurent, TruncationError,
                              invert_variable)
from logblocks.vacore import (HEISENBERG, VIRASORO, FockVector, LieElement,
                              VertexAlgebraInstance, theta)


over_curves = pytest.mark.parametrize(
    "curve", [nodal_pair(), projective_line(1), projective_line(2)],
    ids=["nodal", "p1-1", "p1-2"])
over_algebras = pytest.mark.parametrize(
    "kind,c", [(HEISENBERG, None), (VIRASORO, Fraction(1, 2))],
    ids=["heisenberg", "virasoro"])


over_three_algebras = pytest.mark.parametrize(
    "kind,c", [(HEISENBERG, None), (VIRASORO, Fraction(1, 2)),
               (VIRASORO, Fraction(0))],
    ids=["heisenberg", "virasoro", "virasoro-c0"])
over_skip_bounds = pytest.mark.parametrize(
    "bounds", [{}, {"max_deg": 0, "max_pole": 2},
               {"max_deg": 1, "max_pole": 3}],
    ids=["default", "bounds-0-2", "bounds-1-3"])


@pytest.fixture(scope="module")
def heis4():
    return VertexAlgebraInstance(HEISENBERG, 4)


def total_degree(t):
    return sum(sum(p) for p in t)


def form(coeffs, order=12):
    return DiscForm(TruncatedLaurent.from_terms(coeffs, order), "dt")


class TestVertexOpResidue:
    def test_mode_sum_matches_coefficients(self):
        omega = form({-2: 3, 0: Fraction(1, 2)})
        out = vertex_op_residue(FockVector.basis((1,)), omega)
        assert out == LieElement.mode((1,), -2, 3).plus(
            LieElement.mode((1,), 0, Fraction(1, 2)))

    def test_exact_form_annihilated(self, heis4):
        # residues of a total derivative pair to zero:
        # (L_{-1} v)_[k] + k v_[k-1] applied to anything vanishes
        rnd = random.Random(13)
        probes = [FockVector.basis(p)
                  for d in range(4) for p in heis4.basis(d)]
        for _ in range(40):
            d = rnd.randint(0, 3)
            v = FockVector.basis(rnd.choice(heis4.basis(d)))
            n = rnd.randint(-3, 3)
            elt = vertex_op_residue(heis4.translate(v), form({n: 1})).plus(
                vertex_op_residue(v, form({n - 1: 1})), Fraction(n))
            for u in probes:
                assert elt.apply(heis4, u).is_zero()

    def test_inhomogeneous_vector_rejected(self):
        v = FockVector.vacuum().plus(FockVector.basis((1,)))
        with pytest.raises(ValueError):
            vertex_op_residue(v, form({0: 1}))


class TestTensorWindow:
    def test_single_factor_counts(self, heis4):
        w = TensorWindow([heis4], 4)
        assert [w.ambient_dim(d) for d in range(5)] == [1, 1, 2, 3, 5]
        assert w.dimension == 12

    def test_two_factor_counts(self, heis4):
        w = TensorWindow([heis4, heis4], 2)
        # degree 0: 1; degree 1: 2; degree 2: 2 + 1 + 2 = 5
        assert [w.ambient_dim(d) for d in range(3)] == [1, 2, 5]

    def test_degree_descending_order(self, heis4):
        w = TensorWindow([heis4, heis4], 3)
        degs = [total_degree(t) for t in w.basis]
        assert degs == sorted(degs, reverse=True)

    def test_slices_are_the_degree_blocks(self, heis4):
        """The column ranges of the cells of each degree make one slice of
        the basis, in descending degree."""
        w = TensorWindow([heis4, heis4], 3)
        ranges = column_ranges(w)
        degrees = [sum(cell) for cell, _, _ in ranges]
        assert list(dict.fromkeys(degrees)) == [3, 2, 1, 0]
        assert ranges[0][1] == 0 and ranges[-1][2] == w.dimension
        for d in range(4):
            cells = [(lo, hi) for cell, lo, hi in ranges if sum(cell) == d]
            # the cells of a degree are one block of ambient_dim(d) columns
            start, stop = cells[0][0], cells[-1][1]
            assert stop - start == sum(hi - lo for lo, hi in cells) \
                == w.ambient_dim(d)
            assert {sum(c) for c in w.cells[start:stop]} == {d}

    @pytest.mark.parametrize("k", [1, 2, 3])
    @over_algebras
    def test_cell_slices_tile_each_degree_slice(self, kind, c, k):
        """The column ranges of ``_columns`` tile [0, dimension) by degree,
        then by cell."""
        V = VertexAlgebraInstance(kind, 4, c)
        w = TensorWindow([V] * k, 4)
        ranges = column_ranges(w)
        # the cells tile [0, dimension) in basis order
        assert [lo for _, lo, _ in ranges] == \
            [0] + [hi for _, _, hi in ranges[:-1]]
        assert ranges[-1][2] == w.dimension
        for cell, lo, hi in ranges:
            assert hi - lo == w.cell_dims[cell] > 0
            assert w.cells[lo:hi] == [cell] * (hi - lo)
            assert all(tuple(map(sum, t)) == cell for t in w.basis[lo:hi])
        seen = [cell for cell, _, _ in ranges]
        assert seen == sorted(seen, key=lambda c: (-sum(c), c))
        assert set(seen) == set(w.cells)

    @pytest.mark.parametrize("N", range(13))
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("kind,c,m", [(HEISENBERG, None, 1),
                                          (VIRASORO, Fraction(1, 2), 2)],
                             ids=["heisenberg", "virasoro"])
    def test_ambient_dims_are_the_character(self, kind, c, m, k, N):
        """ambient_dim(d) is the q^d coefficient of the product over
        n >= m of (1 - q^n)^-k: each factor has one basis vector per
        partition with parts >= m, the universal vacuum module."""
        series = [1] + [0] * N
        for n in range(m, N + 1):
            for _ in range(k):
                # multiply by 1 / (1 - q^n)
                for d in range(n, N + 1):
                    series[d] += series[d - n]
        w = TensorWindow([VertexAlgebraInstance(kind, N, c)] * k, N)
        assert [w.ambient_dim(d) for d in range(N + 1)] == series
        assert w.dimension == sum(series)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @over_algebras
    def test_basis_is_sorted_by_degree_cell_and_tuple(self, kind, c, k):
        w = TensorWindow([VertexAlgebraInstance(kind, 5, c)] * k, 5)
        assert w.basis == sorted(w.basis, key=lambda t: (
            -total_degree(t), tuple(map(sum, t)), t))
        assert w.cells == [tuple(map(sum, t)) for t in w.basis]
        assert w.index == {t: j for j, t in enumerate(w.basis)}


def column_ranges(window):
    """(cell, start, stop) of every cell of the window, in column order."""
    return sorted(((cell, lo, hi) for cell, (lo, hi)
                   in window._columns.items()), key=lambda r: r[1])


def per_tuple_images(window, gen):
    """Reference: act with every component on every window tuple, and drop
    the application when a lifted term leaves the window.  A tuple counts
    as dropped when some live component maps its degree above N."""
    terms = [key for comp in gen.components for key in comp.terms]
    vectors = []
    dropped = 0
    for t in window.basis:
        deg = total_degree(t)
        dropped += any(deg + sum(p) - n - 1 > window.N for p, n in terms)
        out = {}
        for i, comp in enumerate(gen.components):
            if comp.is_zero():
                continue
            acted = comp.apply(window.modules[i], FockVector.basis(t[i]))
            lifted = {t[:i] + (q,) + t[i + 1:]: c
                      for q, c in acted.terms.items()}
            if any(total_degree(new) > window.N for new in lifted):
                break
            add_into(out, lifted)
        else:
            if out:
                vectors.append(SparseVector(
                    {window.index[u]: c for u, c in out.items()},
                    window.dimension))
    return vectors, dropped


def projected(window, vectors, saturated):
    """Reference: each vector with its coordinates in saturated cells
    dropped, as ``apply_generator`` builds it; a vector left with none is
    left out."""
    kept = []
    for v in vectors:
        entries = {j: x for j, x in v.entries.items()
                   if window.cells[j] not in saturated}
        if entries:
            kept.append(SparseVector(entries, window.dimension))
    return kept


def counted_apply_mode(monkeypatch):
    """The (A, n, factor vector) of every ``apply_mode`` call from now on."""
    calls = []
    apply_mode = VertexAlgebraInstance.apply_mode

    def counting(self, A, n, v):
        calls.append((A, n, v))
        return apply_mode(self, A, n, v)

    monkeypatch.setattr(VertexAlgebraInstance, "apply_mode", counting)
    return calls


def cells_of(window, degrees):
    """Every cell of the window whose total degree is in degrees."""
    return frozenset(c for c in window.cell_dims if sum(c) in degrees)


class TestApplyGenerator:
    @over_curves
    @over_algebras
    def test_matches_per_tuple_reference(self, curve, kind, c):
        V = VertexAlgebraInstance(kind, 3, c)
        window = TensorWindow([V] * len(curve.punctures), 3)
        total_dropped = 0
        for gen in lie_generators(curve, V):
            vectors, dropped = window.apply_generator(gen, frozenset())
            want, want_dropped = per_tuple_images(window, gen)
            assert dropped == want_dropped
            assert [list(v.entries.items()) for v in vectors] == \
                [list(v.entries.items()) for v in want]
            total_dropped += dropped
        assert total_dropped > 0


class TestDegreeBound:
    """A term A_(n) shifts degrees by deg A - n - 1, so the shifts of a
    component on any factor lie in the set of those numbers, and a degree
    whose shifted degrees are all saturated needs no mode applied."""

    @pytest.mark.parametrize("N", [2, 3, 4])
    @over_curves
    @over_algebras
    def test_shifts_lie_in_the_bound(self, curve, kind, c, N):
        """Every live component of every generator shifts degrees by one
        amount s, and its image of q lies in degree deg q + s."""
        V = VertexAlgebraInstance(kind, N, c)
        factors = [q for d in range(N + 1) for q in V.basis(d)]
        gens = (lie_generators(curve, V)
                + lie_generators(curve, V, max_deg=0)
                + lie_generators(curve, V,
                                 vector_pool=virasoro_subalgebra_pool(V)))
        checked = 0
        for gen in gens:
            for comp in gen.components:
                if comp.is_zero():
                    continue
                shifts = {sum(p) - n - 1 for p, n in comp.terms}
                assert len(shifts) == 1
                for q in factors:
                    image = comp.apply(V, FockVector.basis(q))
                    assert {sum(p) - sum(q) for p in image.terms} <= shifts
                    checked += not image.is_zero()
        assert checked > 0

    def test_two_shifts_in_a_component_raise(self):
        V = VertexAlgebraInstance(HEISENBERG, 3)
        # b_(-1) raises the degree by 1, b_(-2) by 2
        comp = LieElement.mode((1,), -1).plus(LieElement.mode((1,), -2))
        gen = LieGenerator("test", (1,), (comp, LieElement.zero()))
        with pytest.raises(AssertionError, match=r"by \[1, 2\]"):
            TensorWindow([V, V], 3).apply_generator(gen, frozenset())

    def test_saturated_window_applies_no_mode(self, monkeypatch):
        V = VertexAlgebraInstance(HEISENBERG, 3)
        window = TensorWindow([V, V], 3)
        # b_(0) and (b_{-1}b_{-1}|0>)_(1) keep every degree: the bound is {0}
        gen = LieGenerator("test", (1,), (
            LieElement.mode((1,), 0).plus(LieElement.mode((1, 1), 1)),
            LieElement.mode((1, 1), 1, 2)))
        calls = counted_apply_mode(monkeypatch)
        assert window.apply_generator(gen, cells_of(window, range(4))) == \
            ([], 0)
        assert calls == []
        # with degree 0 unsaturated only its tuple ((), ()) is acted on
        assert window.apply_generator(gen, cells_of(window, {1, 2, 3})) == \
            ([], 0)
        assert calls and {v for _, _, v in calls} == {FockVector.vacuum()}
        # with degree 3 unsaturated its images are built, and only those
        saturated = cells_of(window, range(3))
        vectors, dropped = window.apply_generator(gen, saturated)
        assert vectors and dropped == 0
        for v in vectors:
            assert {sum(window.cells[j]) for j in v.entries} == {3}
        want, _ = per_tuple_images(window, gen)
        assert [list(v.entries.items()) for v in vectors] == \
            [list(v.entries.items())
             for v in projected(window, want, saturated)]

    def test_out_component_with_saturated_targets_applies_no_mode(
            self, monkeypatch):
        V = VertexAlgebraInstance(HEISENBERG, 4)
        window = TensorWindow([V, V], 4)
        # (b_{-1}b_{-1}|0>)_(0) raises the degree by 1 and may vanish, so it
        # is out at degree 4 without dropping its tuples; the other
        # component keeps the degree, and degree 4 is saturated: each tuple
        # of degree 4 is dropped or redundant
        gen = LieGenerator("test", (1,), (LieElement.mode((1, 1), 0),
                                          LieElement.mode((1, 1), 1)))
        want, _ = per_tuple_images(window, gen)
        calls = counted_apply_mode(monkeypatch)
        saturated = cells_of(window, {4})
        vectors, dropped = window.apply_generator(gen, saturated)
        assert calls
        assert max(v.degree() for _, _, v in calls) <= window.N - 1
        assert dropped == window.ambient_dim(4)
        assert [list(v.entries.items()) for v in vectors] == \
            [list(v.entries.items())
             for v in projected(window, want, saturated)]

    def test_saturated_cells_apply_no_mode(self, monkeypatch):
        V = VertexAlgebraInstance(HEISENBERG, 3)
        window = TensorWindow([V, V], 3)
        # (b_{-1}b_{-1}|0>)_(1) keeps the cell; (b_{-1}b_{-1}|0>)_(0) raises
        # the degree of factor 1 and may vanish, so it is out at degree 3.
        # On the cells (1, 2), (0, 2) and (0, 3), but on no whole degree,
        # every in-window target is saturated, and these cells are the only
        # ones where the second component would act on degree 2 of factor 1
        gen = LieGenerator("test", (1,), (LieElement.mode((1, 1), 1),
                                          LieElement.mode((1, 1), 0)))
        saturated = frozenset({(1, 2), (0, 2), (0, 3)})
        want, want_dropped = per_tuple_images(window, gen)
        calls = counted_apply_mode(monkeypatch)
        vectors, dropped = window.apply_generator(gen, saturated)
        assert any(n == 0 for _, n, _ in calls)
        assert all(v.degree() < 2 for _, n, v in calls if n == 0)
        assert dropped == want_dropped == window.ambient_dim(3)
        assert [list(v.entries.items()) for v in vectors] == \
            [list(v.entries.items())
             for v in projected(window, want, saturated)]
        assert len(vectors) < len(want)

    def test_negative_target_factor_applies_no_mode(self, monkeypatch):
        V = VertexAlgebraInstance(HEISENBERG, 3)
        window = TensorWindow([V, V], 3)
        # b_(1) lowers the degree of factor 0 by 1, so on a cell (0, d) its
        # target has factor degree -1 and its image is 0 there; b_(-1)
        # raises the degree of factor 1, and acts on every cell
        lower, raise_ = LieElement.mode((1,), 1), LieElement.mode((1,), -1)
        calls = counted_apply_mode(monkeypatch)
        vacuum = FockVector.vacuum()
        for comps in [(lower, LieElement.zero()), (lower, raise_)]:
            gen = LieGenerator("test", (1,), comps)
            calls.clear()
            vectors, dropped = window.apply_generator(gen, frozenset())
            # b_(1) is applied on the other cells, never to the vacuum
            assert ((1,), 1, vacuum) not in calls
            assert any(n == 1 for _, n, _ in calls)
            want, want_dropped = per_tuple_images(window, gen)
            assert dropped == want_dropped
            assert [list(v.entries.items()) for v in vectors] == \
                [list(v.entries.items()) for v in want]
        # b_(-1) still acts on the vacuum of factor 1, on the cells (d, 0)
        assert ((1,), -1, vacuum) in calls


class TestCreationDrop:
    """Every tuple of a degree d with d + s > N for some live component
    counts as dropped, whether or not its image vanishes; a degree at which
    every live component is out applies no mode."""

    def test_terms_sharing_a_shift_may_cancel(self):
        V = VertexAlgebraInstance(HEISENBERG, 4)
        window = TensorWindow([V, V], 4)
        # (Tb)_(-1) - b_(-2) = 0: both terms shift by 2, and they cancel;
        # (b_{-1}b_{-1}|0>)_(1) keeps the degree, so degrees 3 and 4, where
        # the first component is out, still have images, and their tuples
        # count as dropped
        comp = LieElement({((2,), -1): 1, ((1,), -2): -1})
        gen = LieGenerator("test", (1,), (comp, LieElement.mode((1, 1), 1)))
        vectors, dropped = window.apply_generator(gen, frozenset())
        want, want_dropped = per_tuple_images(window, gen)
        assert dropped == want_dropped == \
            window.ambient_dim(3) + window.ambient_dim(4)
        assert [list(v.entries.items()) for v in vectors] == \
            [list(v.entries.items()) for v in want]
        assert {sum(window.cells[j]) for v in vectors for j in v.entries} \
            >= {3, 4}

    @pytest.mark.parametrize("comp", [LieElement.mode((1, 1), 0),
                                      LieElement.mode((2,), 0)],
                             ids=["bb_(0)", "(Tb)_(0)"])
    def test_all_out_degree_applies_no_mode(self, comp, monkeypatch):
        V = VertexAlgebraInstance(HEISENBERG, 4)
        window = TensorWindow([V, V], 4)
        # both raise the degree by 1, so degree 4 is out; (Tb)_(0) = 0
        gen = LieGenerator("test", (1,), (comp, LieElement.zero()))
        want, want_dropped = per_tuple_images(window, gen)
        calls = counted_apply_mode(monkeypatch)
        vectors, dropped = window.apply_generator(gen, frozenset())
        assert calls
        assert max(v.degree() for _, _, v in calls) <= window.N - 1
        assert dropped == want_dropped == window.ambient_dim(4)
        assert [list(v.entries.items()) for v in vectors] == \
            [list(v.entries.items()) for v in want]

    def test_lone_creation_term_drops_every_tuple_beyond_the_window(
            self, monkeypatch):
        V = VertexAlgebraInstance(HEISENBERG, 4)
        window = TensorWindow([V, V], 4)
        # b_(-n) raises the degree by n; (b_{-1}b_{-1}|0>)_(1) keeps it, so
        # only the first component is out at degrees above N - n
        for n in [1, 2]:
            gen = LieGenerator("test", (1,), (LieElement.mode((1,), -n),
                                              LieElement.mode((1, 1), 1)))
            want, want_dropped = per_tuple_images(window, gen)
            calls = counted_apply_mode(monkeypatch)
            vectors, dropped = window.apply_generator(gen, frozenset())
            assert calls
            assert dropped == want_dropped == sum(
                window.ambient_dim(d) for d in range(window.N + 1)
                if d > window.N - n)
            assert [list(v.entries.items()) for v in vectors] == \
                [list(v.entries.items()) for v in want]
            monkeypatch.undo()


class TestSeriesOrder:
    """Restrictions are exact or raise, so ``lie_generators`` gives the same
    generators at any longer series order, and a short one raises."""

    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5])
    @over_curves
    @over_algebras
    def test_longer_order_gives_the_same_generators(self, curve, kind, c, N,
                                                    monkeypatch):
        V = VertexAlgebraInstance(kind, N, c)
        want = lie_generators(curve, V)
        restrict = blocks.restrict_to_disc
        monkeypatch.setattr(blocks, "restrict_to_disc",
                            lambda omega, p, order: restrict(omega, p,
                                                             order + 10))
        assert lie_generators(curve, V) == want

    @pytest.mark.parametrize("curve", [projective_line(1),
                                       projective_line(2)],
                             ids=["p1-1", "p1-2"])
    def test_short_order_raises(self, curve, monkeypatch):
        restrict = blocks.restrict_to_disc
        monkeypatch.setattr(blocks, "restrict_to_disc",
                            lambda omega, p, order: restrict(omega, p, 6))
        V = VertexAlgebraInstance(HEISENBERG, 4)
        with pytest.raises(TruncationError):
            lie_generators(curve, V)
        with pytest.raises(TruncationError):
            coinvariant_dims(curve, V)


class TestSaturation:
    def test_row_with_lower_tail_does_not_saturate(self):
        V = VertexAlgebraInstance(HEISENBERG, 2)
        window = TensorWindow([V, V], 2)
        # degree 2 holds the cells (0, 2), (1, 1) and (2, 0), in that order
        assert window.cells[:5] == [(0, 2)] * 2 + [(1, 1)] + [(2, 0)] * 2
        mixed, pair, top = (window.index[t] for t in
                            [((1,), (1,)), ((1, 1), ()), ((2,), ())])

        def unit(j):
            return SparseVector({j: 1}, window.dimension)

        span = span_of([SparseVector({mixed: 1, top: 1}, window.dimension),
                        unit(pair)], window.dimension)
        # the one column of cell (1, 1) is a pivot, so the rank of the cell
        # is full, but its row has a tail in the later cell (2, 0)
        assert window.cell_dims[(1, 1)] == 1 and mixed in span.rows
        assert saturated_cells(window, span) == frozenset()
        assert not span_contains(span, unit(mixed))
        # the tail's unit vector turns the row at mixed into a unit row
        span = span_insert(span, unit(top))
        assert saturated_cells(window, span) == {(1, 1), (2, 0)}
        assert span_contains(span, unit(mixed))


def unskipped_span(window, gens):
    """Reference: insert every in-window image, in the given order,
    skipping none."""
    span = Subspace.empty(window.dimension)
    dropped = 0
    for gen in gens:
        vectors, d = per_tuple_images(window, gen)
        dropped += d
        for v in vectors:
            span = span_insert(span, v)
    return span, dropped


class TestSaturatedSkip:
    @pytest.mark.parametrize("N", [1, 2, 3, 4])
    @over_skip_bounds
    @over_curves
    @over_algebras
    def test_matches_unskipped_path(self, curve, kind, c, bounds, N):
        """The span of the generators in the build order, with the
        saturated and empty cells skipped, is the span of every in-window
        image in the same order."""
        V = VertexAlgebraInstance(kind, N, c)
        gens = lie_generators(curve, V, **bounds)
        modules = [V] * len(curve.punctures)
        window, span, dropped = _coinvariant_core(modules, gens, N)
        want, want_dropped = unskipped_span(TensorWindow(modules, N), gens)
        assert span.rows == want.rows
        assert dropped == want_dropped

    @pytest.mark.parametrize("N", [1, 2, 3, 4])
    @over_skip_bounds
    @over_curves
    @over_three_algebras
    def test_order_changes_nothing(self, curve, kind, c, bounds, N):
        """The build order, its reverse and two shuffles give one span and
        one dropped count."""
        V = VertexAlgebraInstance(kind, N, c)
        gens = lie_generators(curve, V, **bounds)
        modules = [V] * len(curve.punctures)
        orders = [gens[::-1]]
        for seed in (1, 2):
            shuffled = list(gens)
            random.Random(seed).shuffle(shuffled)
            orders.append(shuffled)
        _, want, want_dropped = _coinvariant_core(modules, gens, N)
        for order in orders:
            _, span, dropped = _coinvariant_core(modules, order, N)
            assert span.rows == want.rows
            assert dropped == want_dropped

    @over_curves
    @over_algebras
    def test_skips_only_images_in_saturated_cells(self, curve, kind, c):
        V = VertexAlgebraInstance(kind, 3, c)
        window = TensorWindow([V] * len(curve.punctures), 3)
        sets = [cells_of(window, {d}) for d in range(4)] + \
            [cells_of(window, range(d, 4)) for d in range(3)] + \
            [frozenset({cell}) for cell in window.cell_dims]
        skipped = 0
        for gen in lie_generators(curve, V):
            top = max(sum(p) - n - 1
                      for comp in gen.components for p, n in comp.terms)
            closed_form = sum(window.ambient_dim(d) for d in range(4)
                              if d + top > window.N)
            full, full_dropped = window.apply_generator(gen, frozenset())
            for saturated in sets:
                kept, dropped = window.apply_generator(gen, saturated)
                assert dropped == full_dropped == closed_form
                # kept is full projected onto the open cells: the vectors
                # supported on saturated cells only are left out, and the
                # others lose their saturated coordinates
                want = projected(window, full, saturated)
                assert [list(v.entries.items()) for v in kept] == \
                    [list(v.entries.items()) for v in want]
                skipped += len(full) - len(kept)
        assert skipped > 0


class TestProjectedInserts:
    """``apply_generator`` builds images on open cells alone: a span that
    holds the unit vector of every column in a set S ends the same whether
    a vector is inserted whole or with its S coordinates dropped."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_dropping_unit_columns_leaves_the_span(self, data):
        n = data.draw(st.integers(1, 10))
        units = data.draw(st.lists(st.integers(0, n - 1), unique=True))
        entries = st.dictionaries(st.integers(0, n - 1),
                                  st.integers(-3, 3).filter(bool),
                                  max_size=5)
        vectors = data.draw(st.lists(st.tuples(entries, st.booleans()),
                                     max_size=8))
        whole = span_of([SparseVector({j: 1}, n) for j in units], n)
        cut = whole
        for v, drop in vectors:
            whole = span_insert(whole, SparseVector(v, n))
            if drop:
                v = {j: x for j, x in v.items() if j not in units}
            cut = span_insert(cut, SparseVector(v, n))
        assert cut.rows == whole.rows and cut.rank == whole.rank


def certified_cells(curve, window):
    """The cells whose columns the L_0 step certifies: every cell but the
    vacuum one, and on two points of the projective line the cells off the
    L_0-balanced block d_0 = d_inf."""
    if curve.kind == P1 and len(curve.punctures) == 2:
        return {c for c in window.cell_dims if c[0] != c[1]}
    return {c for c in window.cell_dims if any(c)}


class TestL0Step:
    """Generators acting as multiples of L_0 = omega_(1) certify a unit
    vector of the image on every column where their eigenvalue is
    nonzero."""

    def test_multiples_of_omega_1(self):
        heis = VertexAlgebraInstance(HEISENBERG, 2)
        vir = VertexAlgebraInstance(VIRASORO, 2, Fraction(1, 2))
        omega = heis.conformal_vector  # b_{-1}^2|0> / 2
        assert _l0_multiple(LieElement.mode((1, 1), 1), omega) == 2
        assert _l0_multiple(LieElement.mode(omega, 1, -3), omega) == -3
        assert _l0_multiple(LieElement.zero(), omega) == 0
        for other in [LieElement.mode((2,), 1), LieElement.mode((1, 1), 0),
                      LieElement.mode((1, 1), 1).plus(
                          LieElement.mode((2,), 1))]:
            assert _l0_multiple(other, omega) is None
        assert _l0_multiple(LieElement.mode((2,), 1, Fraction(1, 3)),
                            vir.conformal_vector) == Fraction(1, 3)

    @pytest.mark.parametrize("N", [1, 2, 4])
    @over_curves
    @over_algebras
    def test_certified_columns(self, curve, kind, c, N):
        V = VertexAlgebraInstance(kind, N, c)
        window = TensorWindow([V] * len(curve.punctures), N)
        # a degree-2 vector pairs with the form only when N >= 2
        assert l0_cells(window, lie_generators(curve, V)) == (
            certified_cells(curve, window) if N >= 2 else frozenset())

    @over_algebras
    def test_bounds_that_exclude_the_form_certify_nothing(self, kind, c):
        V = VertexAlgebraInstance(kind, 4, c)
        for curve, max_deg in [(nodal_pair(), 1), (projective_line(1), 0),
                               (projective_line(2), 0)]:
            window = TensorWindow([V] * len(curve.punctures), 4)
            gens = lie_generators(curve, V, max_deg=max_deg)
            assert gens and l0_cells(window, gens) == frozenset()

    @over_curves
    def test_subalgebra_pool_finds_the_step(self, curve):
        V = VertexAlgebraInstance(HEISENBERG, 4)
        pool = virasoro_subalgebra_pool(V)
        assert V.conformal_vector in pool  # not a basis vector
        window = TensorWindow([V] * len(curve.punctures), 4)
        assert l0_cells(window, lie_generators(curve, V, vector_pool=pool)) \
            == l0_cells(window, lie_generators(curve, V))

    @pytest.mark.parametrize("N", [2, 3, 4, 5])
    @over_curves
    @over_three_algebras
    def test_tables_equal_without_the_diagonal_generators(self, curve,
                                                          kind, c, N):
        """With the generators the step reads left out, the loop alone
        gets the same degree, ambient, rank and quotient columns from
        N = 3 on.  The stabilized column is not compared: at N = 2 the
        nodal curve keeps 1 in degree 2, so the N-1 rerun differs at
        N = 3."""
        V = VertexAlgebraInstance(kind, N, c)
        gens = lie_generators(curve, V)
        omegas = [V.conformal_vector] * len(curve.punctures)
        rest = [g for g in gens if not (
            sum(g.vector) == omegas[0].degree()
            and not any(s for _, s in g.signature)
            and None not in map(_l0_multiple, g.components, omegas))]
        window = TensorWindow([V] * len(curve.punctures), N)
        assert len(rest) < len(gens)
        assert l0_cells(window, rest) == frozenset()
        want, got = (coinvariant_dims(curve, V, generators=g)
                     for g in (gens, rest))
        if N == 2 and curve.kind == NODAL:
            assert got.quotient_dims()[2] == want.quotient_dims()[2] + 1 \
                == 1
        else:
            assert [r[:4] for r in got.rows] == [r[:4] for r in want.rows]

    @over_curves
    @over_algebras
    def test_applies_no_mode(self, curve, kind, c, monkeypatch):
        V = VertexAlgebraInstance(kind, 4, c)
        gens = lie_generators(curve, V)
        for gen in gens:  # theta applies modes while building components
            if not any(s for _, s in gen.signature):
                gen.components
        window = TensorWindow([V] * len(curve.punctures), 4)
        calls = counted_apply_mode(monkeypatch)
        assert l0_cells(window, gens)
        assert calls == []


STEP_OFF_CASES = [(curve, kind, c, N, bounds)
                  for curve in (nodal_pair(), projective_line(1),
                                projective_line(2))
                  for kind, c in ((HEISENBERG, None),
                                  (VIRASORO, Fraction(1, 2)),
                                  (VIRASORO, Fraction(0)))
                  for N in range(1, 7)
                  for bounds in ({}, {"max_deg": 2, "max_pole": 2})]


@pytest.mark.parametrize(
    "curve,kind,c,N,bounds", STEP_OFF_CASES,
    ids=[f"{curve.kind}{len(curve.punctures)}-{kind}-{c}-N{N}-"
         f"{'bounded' if bounds else 'default'}"
         for curve, kind, c, N, bounds in STEP_OFF_CASES])
def test_reports_equal_with_the_l0_step_off(curve, kind, c, N, bounds,
                                            monkeypatch):
    """The loop alone, with the diagonal generators still in the set,
    gives the report of the loop after the L_0 step."""
    on = coinvariant_dims(curve, VertexAlgebraInstance(kind, N, c), **bounds)
    monkeypatch.setattr(blocks, "l0_cells",
                        lambda window, gens: frozenset())
    off = coinvariant_dims(curve, VertexAlgebraInstance(kind, N, c),
                           **bounds)
    assert on == off


class TestPlans:
    """apply_generator plans its cells once per (signature, saturated) key
    of a window and replays the plan on later calls."""

    @over_curves
    def test_replayed_plans_match_a_fresh_window(self, curve):
        V = VertexAlgebraInstance(HEISENBERG, 3)
        k = len(curve.punctures)
        window = TensorWindow([V] * k, 3)
        # both shift by (2, 0) on the first k <= 2 factors, so they share
        # one plan, though (b_{-1}^3|0>)_(0) may vanish and b_(-2) never does
        keep = LieElement.mode((1, 1), 1)
        gens = lie_generators(curve, V) + [
            LieGenerator("test", (1,), (LieElement.mode((1,), -2), keep)[:k]),
            LieGenerator("test", (1,),
                         (LieElement.mode((1, 1, 1), 0), keep)[:k])]
        A = cells_of(window, {2, 3})
        B = frozenset(list(window.cell_dims)[::2])
        for saturated in [frozenset(), A, B, A]:
            for gen in gens:
                fresh = TensorWindow([V] * k, 3)
                got, want = (w.apply_generator(gen, saturated)
                             for w in (window, fresh))
                assert got[1] == want[1]
                assert [v.entries for v in got[0]] == \
                    [v.entries for v in want[0]]

    def test_one_plan_per_signature(self, monkeypatch):
        V = VertexAlgebraInstance(HEISENBERG, 3)
        window = TensorWindow([V, V], 3)
        plans = []
        plan = TensorWindow._plan

        def counting(self, *key):
            plans.append(key)
            return plan(self, *key)

        monkeypatch.setattr(TensorWindow, "_plan", counting)
        # b_(0) and (b_{-1}b_{-1}|0>)_(1) both keep every degree
        keep, pair = LieElement.mode((1,), 0), LieElement.mode((1, 1), 1)
        first = LieGenerator("test", (1,), (keep, pair))
        second = LieGenerator("test", (1,), (pair, keep))
        assert first.signature == second.signature == ((0, 0), (1, 0))
        for gen in (first, second):
            vectors, dropped = window.apply_generator(gen, frozenset())
            want, want_dropped = per_tuple_images(window, gen)
            assert vectors and dropped == want_dropped == 0
            assert [v.entries for v in vectors] == [v.entries for v in want]
        assert len(plans) == 1
        # every cell is saturated: the plan is empty, and neither call
        # applies a mode
        full = frozenset(window.cell_dims)
        calls = counted_apply_mode(monkeypatch)
        assert window.apply_generator(first, full) == ([], 0)
        assert window.apply_generator(second, full) == ([], 0)
        assert calls == [] and len(plans) == 2


def forward_plan(window, shifts, saturated):
    """Reference: the plan scanned forward over every cell of the window,
    with no silent component.  A degree whose every component is out is
    skipped, and a cell is a step when some component targets an
    unsaturated in-window cell."""
    top = max((s for _, s in shifts), default=0)
    low = min((s for _, s in shifts), default=0)
    dropped, steps = 0, []
    for cell, lo, hi in column_ranges(window):
        deg = sum(cell)
        if deg + top > window.N:
            dropped += hi - lo
        if deg + low > window.N:
            continue
        outs, opens = [], []
        for i, s in shifts:
            target = cell[:i] + (cell[i] + s,) + cell[i + 1:]
            if deg + s > window.N:
                outs.append(i)
            elif target in window.cell_dims and target not in saturated:
                opens.append(i)
        if opens:
            steps.append((lo, hi, outs, opens))
    return dropped, steps


def grid_signatures(curve, N):
    """The window at N and the signatures of the grid's generators on the
    curve (Heisenberg and Virasoro at c = 1/2), with the L_0 seed: the
    cells ``l0_cells`` certifies."""
    V = VertexAlgebraInstance(HEISENBERG, N)
    window = TensorWindow([V] * len(curve.punctures), N)
    gens = lie_generators(curve, V)
    seed = l0_cells(window, gens)
    gens += lie_generators(curve,
                           VertexAlgebraInstance(VIRASORO, N, Fraction(1, 2)))
    return window, sorted({g.signature for g in gens}), seed


class TestBackwardPlan:
    """The plan walked backward from the open cells equals the forward scan
    over every cell when no component is silent."""

    @pytest.mark.parametrize("N", range(6))
    @over_curves
    def test_matches_the_forward_scan(self, curve, N):
        window, signatures, seed = grid_signatures(curve, N)
        every = frozenset(window.cell_dims)
        vacuum = (0,) * len(curve.punctures)
        assert signatures and (N < 2 or seed)
        for saturated in [frozenset(), seed, every - {vacuum}, every]:
            for shifts in signatures:
                assert window._plan(shifts, saturated, ()) == \
                    forward_plan(window, shifts, saturated)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_the_forward_scan_on_drawn_cells(self, data):
        curve = data.draw(st.sampled_from(
            [nodal_pair(), projective_line(1), projective_line(2)]))
        window, signatures, _ = grid_signatures(
            curve, data.draw(st.integers(0, 5)))
        saturated = frozenset(data.draw(st.sets(
            st.sampled_from(sorted(window.cell_dims)))))
        for shifts in signatures:
            assert window._plan(shifts, saturated, ()) == \
                forward_plan(window, shifts, saturated)


over_p1 = pytest.mark.parametrize(
    "curve", [projective_line(1), projective_line(2)], ids=["p1-1", "p1-2"])
over_four_algebras = pytest.mark.parametrize(
    "kind,c", [(HEISENBERG, None), (VIRASORO, Fraction(1, 2)),
               (VIRASORO, Fraction(0)), (VIRASORO, Fraction(-22, 5))],
    ids=["heisenberg", "vir-1/2", "vir-0", "vir-22/5"])


def counted_apply_generator(monkeypatch):
    """Every generator ``apply_generator`` is called with from now on."""
    applied = []
    apply = TensorWindow.apply_generator

    def counting(self, gen, saturated):
        applied.append(gen)
        return apply(self, gen, saturated)

    monkeypatch.setattr(TensorWindow, "apply_generator", counting)
    return applied


class TestVacuumSilence:
    """A theta-twisted component theta(A) whose A kills |0> has no vacuum
    coefficient when L_1 V_1 = 0, so no plan routes it into a cell whose
    factor has degree 0."""

    @over_p1
    @over_four_algebras
    def test_silent_components_have_no_vacuum_coefficient(self, curve,
                                                          kind, c):
        """Oracle: each silent component applied to every partition of the
        degree it maps to 0.  The generators at N = 6 hold those of every
        smaller N, since the default bounds grow with N."""
        V = VertexAlgebraInstance(kind, 6, c)
        checked = 0
        gens = lie_generators(curve, V)
        # infinity, the twisted puncture, comes first; u^m du restricts
        # there to exponent m, and only two points allow m < 0
        assert {g.silent for g in gens} == (
            {(0,)} if len(curve.punctures) == 1 else {(), (0,)})
        for gen in gens:
            for i, s in gen.signature:
                if i in gen.silent and s <= 0:
                    for q in V.basis(-s):
                        image = gen.components[i].apply(
                            V, FockVector.basis(q))
                        assert set(image.terms) <= {()}
                        assert image.is_zero()
                        checked += 1
        assert checked > 0

    @over_four_algebras
    def test_l1_kills_v1(self, kind, c):
        assert blocks._l1_kills_v1(VertexAlgebraInstance(kind, 0, c))

    def test_l1_not_killing_v1_marks_nothing(self, monkeypatch):
        class Stub:
            """An algebra with L_1 V_1 != 0."""
            _caches = {}

            def basis(self, d):
                return [(1,)] if d == 1 else []

            def apply_L(self, k, v):
                return FockVector.vacuum()

        assert not blocks._l1_kills_v1(Stub())
        monkeypatch.setattr(blocks, "_l1_kills_v1", lambda V: False)
        gens = lie_generators(projective_line(2),
                              VertexAlgebraInstance(HEISENBERG, 3))
        assert gens and all(g.silent == () for g in gens)

    def test_untwisted_curve_has_no_silent_component(self, monkeypatch):
        checked = []
        monkeypatch.setattr(blocks, "_l1_kills_v1", checked.append)
        gens = lie_generators(nodal_pair(), VertexAlgebraInstance(HEISENBERG,
                                                                  3))
        assert gens and all(g.silent == () for g in gens)
        assert checked == []  # no twisted puncture: L_1 V_1 is not read

    def test_negative_exponent_is_not_silent_and_is_applied(self,
                                                            monkeypatch):
        """Fault injection: u^-3 du restricts at infinity to exponent -3,
        so its pairing v_(-3) does not kill |0>; its generators are not
        silent, and they are the only ones applied."""
        V = VertexAlgebraInstance(HEISENBERG, 4)
        curve = projective_line(1)
        forms = global_form_basis(curve, 6, 6)
        monkeypatch.setattr(blocks, "global_form_basis", lambda *args: [
            GlobalLogForm(P1, laurent={-3: 1})] + forms)
        gens = lie_generators(curve, V)
        negative = [g for g in gens if g.silent == ()]
        assert negative and {g.form_label for g in negative} == {
            "1*u^-3 du"}
        assert all(g.silent == (0,) for g in gens[len(negative):])
        applied = counted_apply_generator(monkeypatch)
        rep = coinvariant_dims(curve, V, generators=gens)
        assert applied and all(g.silent == () for g in applied)
        monkeypatch.setattr(blocks, "_l1_kills_v1", lambda V: False)
        assert rep == coinvariant_dims(curve, VertexAlgebraInstance(
            HEISENBERG, 4))

    @pytest.mark.parametrize("N", [1, 2, 3, 5])
    @pytest.mark.parametrize("bounds", [{}, {"max_deg": 1},
                                        {"max_deg": 2, "max_pole": 2}],
                             ids=["default", "deg-1", "bounds-2-2"])
    @over_p1
    @over_four_algebras
    def test_silence_off_gives_the_same_report(self, curve, kind, c,
                                               bounds, N, monkeypatch):
        """Fault injection: with every component applied, as when L_1 V_1
        is not 0, the report is the same."""
        on = coinvariant_dims(curve, VertexAlgebraInstance(kind, N, c),
                              **bounds)
        monkeypatch.setattr(blocks, "_l1_kills_v1", lambda V: False)
        applied = counted_apply_generator(monkeypatch)
        off = coinvariant_dims(curve, VertexAlgebraInstance(kind, N, c),
                               **bounds)
        assert on == off
        # Virasoro has V_1 = 0, so its N = 1 window is the vacuum alone
        assert applied or (kind == VIRASORO and N == 1)

    @pytest.mark.parametrize("N", [3, 4, 5, 6])
    @over_three_algebras
    def test_one_point_applies_no_generator(self, kind, c, N, monkeypatch):
        """After the L_0 step only the vacuum cell is open on the
        projective line with one point, and every component is silent."""
        applied = counted_apply_generator(monkeypatch)
        calls = counted_apply_mode(monkeypatch)
        rep = coinvariant_dims(projective_line(1),
                               VertexAlgebraInstance(kind, N, c))
        assert applied == [] and rep.dropped_applications > 0
        assert rep.quotient_dims() == {d: int(d == 0) for d in range(N + 1)}
        # only theta chains of the diagonal generators, read by the L_0 step
        assert all(n == 2 for _, n, _ in calls)

    def test_no_generator_applied_from_n_2(self, monkeypatch):
        """N = 2 on one point applies no generator; its N-1 rerun has no
        degree-2 vector, so no L_0 step, and applies some.  Heisenberg
        N = 6 makes no ``apply_generator`` call at all."""
        applied = counted_apply_generator(monkeypatch)
        heis = VertexAlgebraInstance(HEISENBERG, 2)
        coinvariant_dims(projective_line(1), heis, check_stability=False)
        assert applied == []
        coinvariant_dims(projective_line(1), heis.replace(truncation=1),
                         check_stability=False)
        assert applied
        applied.clear()
        rep = coinvariant_dims(projective_line(1),
                               VertexAlgebraInstance(HEISENBERG, 6))
        assert applied == []
        assert (rep.generator_count, rep.dropped_applications) == (270, 2803)


def invariant_form(V, p, q):
    """B(p, q) = -[|0>] theta(p_(-1)) q on basis vectors, B(|0>, |0>) = 1:
    the invariant bilinear form of V read through the program's theta."""
    if p == q == ():
        return 1
    image = theta(LieElement.mode(p, -1), V).apply(V, FockVector.basis(q))
    return -image.terms.get((), 0)


def block_functional(V, window, sign=lambda d: 1):
    """x (x) y -> sign(deg x) B(x, y) on the columns of a two-factor
    window, as {column: value}; B pairs only equal degrees."""
    return {j: v for j, (p, q) in enumerate(window.basis)
            if sum(p) == sum(q)
            and (v := sign(sum(p)) * invariant_form(V, p, q))}


def unmarked_generators(monkeypatch):
    """``lie_generators`` builds every generator with block_killed False
    from now on, and nothing else changes."""
    deferred = LieGenerator._deferred

    def unmarked(label, vector, signature, silent, killed, source):
        return deferred(label, vector, signature, silent, False, source)

    monkeypatch.setattr(LieGenerator, "_deferred", staticmethod(unmarked))


class TestBlockKilled:
    """On the projective line with two points every generator acts as
    A (x) 1 + 1 (x) theta(A), and the invariant form B of V gives a
    functional x (x) y -> B(x, y) that kills every image and reads 1 on
    the vacuum, so a solve stops applying at rank dim - 1."""

    ORACLE_N = {HEISENBERG: 5, VIRASORO: 7}

    @over_four_algebras
    def test_form_is_symmetric_and_one_on_the_vacuum(self, kind, c):
        V = VertexAlgebraInstance(kind, self.ORACLE_N[kind], c)
        window = TensorWindow([V, V], V.truncation)
        for p, q in window.basis:
            if sum(p) == sum(q):
                assert invariant_form(V, p, q) == invariant_form(V, q, p)
        vacuum = window.index[((), ())]
        assert block_functional(V, window)[vacuum] == 1
        assert theta(LieElement.mode((), -1), V) == \
            LieElement.mode((), -1, -1)

    @over_four_algebras
    def test_form_kills_every_image(self, kind, c):
        """Oracle: every in-window image of every generator, applied with
        no cell skipped, pairs to 0 with the functional.  With the sign
        twist (-1)^(deg x), some image pairs to a nonzero value wherever B
        is nonzero in an odd degree."""
        V = VertexAlgebraInstance(kind, self.ORACLE_N[kind], c)
        window = TensorWindow([V, V], V.truncation)
        phi = block_functional(V, window)
        twisted = block_functional(V, window, lambda d: (-1) ** d)
        images = missed = 0
        for gen in lie_generators(projective_line(2), V):
            vectors, _ = window.apply_generator(gen, frozenset())
            for vec in vectors:
                images += 1
                assert sum(phi.get(j, 0) * x
                           for j, x in vec.entries.items()) == 0
                missed += sum(twisted.get(j, 0) * x
                              for j, x in vec.entries.items()) != 0
        assert images > 2000
        assert bool(missed) == (twisted != phi)
        assert (twisted != phi) == (c != 0)

    @over_four_algebras
    def test_every_p1_2_generator_is_marked(self, kind, c):
        V = VertexAlgebraInstance(kind, 5, c)
        assert all(g.block_killed for g in lie_generators(
            projective_line(2), V))
        for curve in (nodal_pair(), projective_line(1)):
            assert not any(g.block_killed for g in lie_generators(curve, V))
        assert not LieGenerator("test", (1,), (LieElement.mode((1,), 0),
                                               LieElement.zero())
                                ).block_killed

    def test_l1_not_killing_v1_marks_nothing(self, monkeypatch):
        monkeypatch.setattr(blocks, "_l1_kills_v1", lambda V: False)
        gens = lie_generators(projective_line(2),
                              VertexAlgebraInstance(HEISENBERG, 3))
        assert gens and not any(g.block_killed for g in gens)

    def test_unmarked_extra_generator_turns_the_stop_off(self, monkeypatch):
        """Fault injection: b_(1) on one factor maps b_{-1}|0> (x) |0> to
        the vacuum column, which B reads as 1.  Hand-built, it is not
        marked, so the solve applies it and degree 0 reads 0."""
        V = VertexAlgebraInstance(HEISENBERG, 4)
        fault = LieGenerator("fault", (1,), (LieElement.mode((1,), 1),
                                             LieElement.zero()))
        assert fault.signature == ((0, -1),)
        gens = lie_generators(projective_line(2), V)
        applied = counted_apply_generator(monkeypatch)
        rep = coinvariant_dims(projective_line(2), V,
                               generators=gens + [fault])
        assert fault in applied
        assert rep.quotient_dims() == {d: 0 for d in range(5)}
        assert coinvariant_dims(projective_line(2), V,
                                generators=gens).quotient_dims()[0] == 1

    def test_p1_2_applies_few_generators(self, monkeypatch):
        """A p1(2) solve and its rerun stop at rank dim - 1: Heisenberg
        N = 6 makes 75 ``apply_generator`` calls; with the mark off it
        makes 522."""
        counts = []
        for mark in (True, False):
            if not mark:
                unmarked_generators(monkeypatch)
            applied = counted_apply_generator(monkeypatch)
            rep = coinvariant_dims(projective_line(2),
                                   VertexAlgebraInstance(HEISENBERG, 6))
            counts.append((len(applied), rep.generator_count,
                           rep.dropped_applications))
            assert rep.quotient_dims() == {d: int(d == 0) for d in range(7)}
        assert counts == [(75, 510, 58365), (522, 510, 58365)]


MARK_OFF_CASES = [(curve, kind, c, N, bounds)
                  for curve in (nodal_pair(), projective_line(1),
                                projective_line(2))
                  for kind, c in ((HEISENBERG, None),
                                  (VIRASORO, Fraction(1, 2)),
                                  (VIRASORO, Fraction(0)),
                                  (VIRASORO, Fraction(-22, 5)))
                  for N in range(1, 7)
                  for bounds in ({}, {"max_deg": 2, "max_pole": 2},
                                 {"max_deg": 0})]


@pytest.mark.parametrize(
    "curve,kind,c,N,bounds", MARK_OFF_CASES,
    ids=[f"{curve.kind}{len(curve.punctures)}-{kind}-{c}-N{N}-"
         f"{'-'.join(f'{k}{v}' for k, v in bounds.items()) or 'default'}"
         for curve, kind, c, N, bounds in MARK_OFF_CASES])
def test_reports_equal_with_the_mark_off(curve, kind, c, N, bounds,
                                         monkeypatch):
    """The stop at rank dim - 1 changes no report, counts included."""
    on = coinvariant_dims(curve, VertexAlgebraInstance(kind, N, c), **bounds)
    unmarked_generators(monkeypatch)
    off = coinvariant_dims(curve, VertexAlgebraInstance(kind, N, c),
                           **bounds)
    assert on == off


class TestP1Baseline:
    def test_one_puncture_concentrated_in_degree_zero(self, heis4):
        rep = coinvariant_dims(projective_line(1), heis4)
        assert rep.quotient_dims() == {0: 1, 1: 0, 2: 0, 3: 0, 4: 0}
        assert rep.total_dim() == 1

    def test_two_punctures_total_one(self, heis4):
        rep = coinvariant_dims(projective_line(2), heis4)
        assert rep.total_dim() == 1

    def test_propagation_of_vacua(self, heis4):
        rep = propagation_check(projective_line(1), projective_line(2),
                                heis4)
        assert rep.hypothesis_applies
        assert rep.all_equal()

    def test_report_csv_shape(self, heis4):
        rep = coinvariant_dims(projective_line(1), heis4)
        lines = rep.to_csv().strip().split("\n")
        assert lines[0] == "degree,ambient_dim,image_rank,quotient_dim," \
                           "stabilized"
        assert len(lines) == 6
        assert rep.to_text().startswith("curve: p1")


class TestNodalVanishing:
    def test_heisenberg_all_degrees_vanish(self):
        V = VertexAlgebraInstance(HEISENBERG, 4)
        rep = coinvariant_dims(nodal_pair(), V)
        assert all(q == 0 for q in rep.quotient_dims().values())

    def test_virasoro_all_degrees_vanish(self):
        V = VertexAlgebraInstance(VIRASORO, 4, Fraction(1, 2))
        rep = coinvariant_dims(nodal_pair(), V)
        assert all(q == 0 for q in rep.quotient_dims().values())

    def test_generator_components_share_the_form(self):
        V = VertexAlgebraInstance(HEISENBERG, 3)
        gens = lie_generators(nodal_pair(), V, max_pole=2, max_deg=2)
        assert gens
        for g in gens:
            assert len(g.components) == 2


class TestSharedCaches:
    """Solves accumulate next to the algebra's mode caches, and the N-1
    rerun reads them through a view; neither may change a cached value."""

    CASES = [(nodal_pair(), VIRASORO, Fraction(1, 2)),
             (projective_line(2), HEISENBERG, None)]

    @pytest.mark.parametrize("curve,kind,c", CASES)
    def test_repeated_solves_agree(self, curve, kind, c):
        V = VertexAlgebraInstance(kind, 3, c)
        probes = [(A, n, u) for A in V.basis(2) for n in range(-2, 3)
                  for u in V.basis(2)]
        before = [V.apply_mode(A, n, FockVector.basis(u))
                  for A, n, u in probes]
        snapshot = [dict(v.terms) for v in before]
        first = coinvariant_dims(curve, V)
        second = coinvariant_dims(curve, V)
        fresh = coinvariant_dims(curve, VertexAlgebraInstance(kind, 3, c))
        assert first == second == fresh
        assert [v.terms for v in before] == snapshot
        after = [V.apply_mode(A, n, FockVector.basis(u))
                 for A, n, u in probes]
        assert after == before

    @pytest.mark.parametrize("curve,kind,c", CASES)
    def test_stabilized_matches_fresh_rerun(self, curve, kind, c):
        """The flags of a solve whose rerun reuses the N generators equal
        a comparison with a separate N-1 solve, under default and (1, 3)
        bounds and with the subalgebra pool of the functoriality check."""
        for max_deg, max_pole in ((5, 5), (1, 3)):
            for pooled in (False, True):
                V = VertexAlgebraInstance(kind, 3, c)
                V_prev = VertexAlgebraInstance(kind, 2, c)
                rep = coinvariant_dims(
                    curve, V, max_pole=max_pole, max_deg=max_deg,
                    vector_pool=virasoro_subalgebra_pool(V) if pooled
                    else None)
                prev = coinvariant_dims(
                    curve, V_prev, max_pole=max_pole, max_deg=max_deg,
                    vector_pool=virasoro_subalgebra_pool(V_prev) if pooled
                    else None, check_stability=False)
                want = {d: prev.quotient_dims().get(d) == q
                        for d, q in rep.quotient_dims().items()}
                want[3] = False  # the top degree has nothing to compare with
                assert {r[0]: r[4] for r in rep.rows} == want

    def test_one_generator_build_per_solve(self, monkeypatch):
        calls = []
        build = blocks.lie_generators

        def counting(*args, **kwargs):
            calls.append(args[1].truncation)
            return build(*args, **kwargs)

        monkeypatch.setattr(blocks, "lie_generators", counting)
        V = VertexAlgebraInstance(HEISENBERG, 3)
        rep = coinvariant_dims(projective_line(2), V)
        assert calls == [3]
        assert any(r[4] for r in rep.rows)  # the rerun ran


class TestCacheOwner:
    """Only the algebra writes its memos, and a copy at another central
    charge solves as a fresh algebra does."""

    @pytest.mark.parametrize("copy_first", [False, True],
                             ids=["copy-last", "copy-first"])
    def test_copy_at_another_charge_solves_as_a_fresh_algebra(
            self, copy_first):
        V = VertexAlgebraInstance(VIRASORO, 4, Fraction(1, 2))
        fresh = VertexAlgebraInstance(VIRASORO, 4, Fraction(0))
        coinvariant_dims(nodal_pair(), V)
        if copy_first:
            got = coinvariant_dims(nodal_pair(),
                                   V.replace(central_charge=Fraction(0)))
            want = coinvariant_dims(nodal_pair(), fresh)
        else:
            want = coinvariant_dims(nodal_pair(), fresh)
            got = coinvariant_dims(nodal_pair(),
                                   V.replace(central_charge=Fraction(0)))
        assert got == want
        assert got.quotient_dims() == {0: 1, 1: 0, 2: 0, 3: 0, 4: 0}

    @over_curves
    @over_algebras
    def test_caches_hold_only_the_algebra_memos(self, curve, kind, c):
        V = VertexAlgebraInstance(kind, 3, c)
        coinvariant_dims(curve, V)
        assert V._caches
        for name in V._caches:
            method = getattr(VertexAlgebraInstance, name, None)
            assert hasattr(method, "__wrapped__"), name

    @pytest.mark.parametrize("curve,calls", [(projective_line(2), 1),
                                             (nodal_pair(), 0)],
                             ids=["p1-2", "nodal"])
    def test_l1_kills_v1_read_once_per_build(self, monkeypatch, curve,
                                              calls):
        seen = []
        check = blocks._l1_kills_v1

        def counting(V):
            seen.append(V.truncation)
            return check(V)

        monkeypatch.setattr(blocks, "_l1_kills_v1", counting)
        coinvariant_dims(curve, VertexAlgebraInstance(HEISENBERG, 3))
        assert len(seen) == calls


def rerun_generators(monkeypatch, curve, V, **kwargs):
    """The generators a solve passes its N-1 rerun."""
    passed = []
    solve = blocks.coinvariant_dims

    def recording(*args, **kw):
        if not kw.get("check_stability", True):
            passed.append(kw["generators"])
        return solve(*args, **kw)

    monkeypatch.setattr(blocks, "coinvariant_dims", recording)
    blocks.coinvariant_dims(curve, V, **kwargs)
    monkeypatch.undo()
    (gens,) = passed
    return gens


class TestRerunGenerators:
    """The N-1 rerun is passed the N build's generators of vector degree
    <= N-1; they must be the N-1 build's, in its order."""

    @pytest.mark.parametrize("N", [1, 2, 3, 4])
    @pytest.mark.parametrize("bounds", [{}, {"max_deg": 0, "max_pole": 2},
                                        {"max_deg": 1, "max_pole": 3}],
                             ids=["default", "bounds-0-2", "bounds-1-3"])
    @over_curves
    @pytest.mark.parametrize("kind,c", [(HEISENBERG, None),
                                        (VIRASORO, Fraction(1, 2)),
                                        (VIRASORO, Fraction(-22, 5))],
                             ids=["heisenberg", "vir-1/2", "vir-22/5"])
    def test_rerun_gets_the_n_minus_1_build(self, curve, kind, c, bounds, N,
                                            monkeypatch):
        gens = rerun_generators(monkeypatch, curve,
                                VertexAlgebraInstance(kind, N, c), **bounds)
        # the rerun keeps the N solve's default bounds, N + 2
        bounds = bounds or {"max_deg": N + 2, "max_pole": N + 2}
        assert gens == lie_generators(
            curve, VertexAlgebraInstance(kind, N - 1, c), **bounds)

    def test_subalgebra_pool(self, monkeypatch):
        V = VertexAlgebraInstance(HEISENBERG, 4)
        V_prev = VertexAlgebraInstance(HEISENBERG, 3)
        gens = rerun_generators(monkeypatch, projective_line(2), V,
                                vector_pool=virasoro_subalgebra_pool(V))
        assert gens == lie_generators(
            projective_line(2), V_prev, max_pole=6, max_deg=6,
            vector_pool=virasoro_subalgebra_pool(V_prev))


def eager_generators(curve, V, max_pole=None, max_deg=None,
                     vector_pool=None):
    """Reference: every generator built whole, each component paired and
    twisted as it is made and given to ``LieGenerator`` by hand, and a pair
    left out when all its components are zero."""
    N = V.truncation
    max_deg = N + 2 if max_deg is None else max_deg
    max_pole = N + 2 if max_pole is None else max_pole
    if vector_pool is None:
        vector_pool = [FockVector.basis(p)
                       for d in range(N + 1) for p in V.basis(d)]
    order = max(2 * N + max_deg + max_pole + 4, 8)
    gens = []
    for omega in global_form_basis(curve, max_pole, max_deg):
        discs = []
        for p in curve.punctures:
            r = restrict_to_disc(omega, p, order)
            # every puncture but zero is read in the inverted coordinate
            discs.append((r if p.location == P1_ZERO else invert_variable(r),
                          p.location == P1_INFINITY))
        for v in vector_pool:
            comps = tuple(theta(vertex_op_residue(v, r), V) if twisted
                          else vertex_op_residue(v, r) for r, twisted in discs)
            if not all(c.is_zero() for c in comps):
                gens.append(LieGenerator(omega.label(), next(iter(v.terms)),
                                         comps))
    return gens


def shifts_read(gen):
    """The (i, s) of every shift s of every component i, read from its
    terms."""
    return tuple((i, s) for i, comp in enumerate(gen.components)
                 for s in sorted({sum(p) - n - 1 for p, n in comp.terms}))


class TestDeferredGenerators:
    """``lie_generators`` gives each generator its signature in closed form
    and builds its components on first read."""

    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("bounds", [{}, {"max_deg": 0, "max_pole": 2},
                                        {"max_deg": 1, "max_pole": 3}],
                             ids=["default", "bounds-0-2", "bounds-1-3"])
    @over_curves
    @pytest.mark.parametrize("kind,c", [(HEISENBERG, None),
                                        (VIRASORO, Fraction(1, 2)),
                                        (VIRASORO, Fraction(-22, 5))],
                             ids=["heisenberg", "vir-1/2", "vir-22/5"])
    def test_closed_form_matches_the_built_components(self, curve, kind, c,
                                                      bounds, N):
        V = VertexAlgebraInstance(kind, N, c)
        gens = lie_generators(curve, V, **bounds)
        signatures = [g.signature for g in gens]  # before any build
        assert gens == eager_generators(curve, V, **bounds)
        assert signatures == [shifts_read(g) for g in gens]

    @over_curves
    @pytest.mark.parametrize("kind,c", [(HEISENBERG, None),
                                        (VIRASORO, Fraction(1, 2)),
                                        (VIRASORO, Fraction(-22, 5))],
                             ids=["heisenberg", "vir-1/2", "vir-22/5"])
    def test_subalgebra_pool(self, curve, kind, c):
        V = VertexAlgebraInstance(kind, 4, c)
        pool = virasoro_subalgebra_pool(V)
        gens = lie_generators(curve, V, vector_pool=pool)
        signatures = [g.signature for g in gens]
        assert gens == eager_generators(curve, V, vector_pool=pool)
        assert signatures == [shifts_read(g) for g in gens]

    def test_a_deferred_generator_is_a_record(self):
        gen = lie_generators(projective_line(2),
                             VertexAlgebraInstance(HEISENBERG, 2))[-1]
        twin = LieGenerator(gen.form_label, gen.vector, gen.components)
        assert twin == gen and twin.signature == gen.signature
        for other in (copy.copy(gen), copy.deepcopy(gen),
                      pickle.loads(pickle.dumps(gen)), gen.replace()):
            assert type(other) is LieGenerator and other == gen
        with pytest.raises(AttributeError, match="cannot assign"):
            gen.components = ()

    def test_a_form_zero_on_every_disc_gives_no_generator(self,
                                                          monkeypatch):
        # x^2 dx/x vanishes on the y branch only
        kept = GlobalLogForm(NODAL, f={(2, 0): 1}, g={})
        monkeypatch.setattr(blocks, "global_form_basis", lambda *args: [
            GlobalLogForm(NODAL, f={}, g={}), kept])
        V = VertexAlgebraInstance(HEISENBERG, 2)
        gens = lie_generators(nodal_pair(), V)
        assert [g.form_label for g in gens] == [kept.label()] * 4
        assert [g.signature for g in gens] == [shifts_read(g) for g in gens]
        assert all(g.components[1].is_zero() for g in gens)

    def test_two_exponents_in_a_restriction_raise(self, monkeypatch):
        # u^0 du + u du restricts at infinity to two terms
        form = GlobalLogForm(P1, laurent={0: 1, 1: 1})
        monkeypatch.setattr(blocks, "global_form_basis",
                            lambda *args: [form])
        with pytest.raises(AssertionError,
                           match=r"1 \+ 1\*u du shifts degrees by \[1, 2\]"):
            lie_generators(projective_line(1),
                           VertexAlgebraInstance(HEISENBERG, 2))

    def test_nodal_solve_builds_few_components(self, monkeypatch):
        V = VertexAlgebraInstance(HEISENBERG, 6)
        paired = []
        pair = blocks.vertex_op_residue

        def counting(v, omega):
            paired.append(v)
            return pair(v, omega)

        monkeypatch.setattr(blocks, "vertex_op_residue", counting)
        rep = coinvariant_dims(nodal_pair(), V)
        # one pairing per puncture of each generator whose components
        # were built
        assert 0 < len(paired) // 2 < rep.generator_count // 4
        monkeypatch.undo()
        assert rep == coinvariant_dims(nodal_pair(), V,
                                       generators=eager_generators(
                                           nodal_pair(), V))
        assert (rep.generator_count, rep.dropped_applications) == \
            (510, 25921)
        assert rep.rows == tuple((d, n, n, 0, d < 6) for d, n in
                                 enumerate([1, 2, 5, 10, 20, 36, 65]))


@pytest.mark.parametrize("kind,c,N,counts", [
    (HEISENBERG, None, 6, (10, 14, 9, 510)),
    (VIRASORO, Fraction(1, 2), 8, (14, 18, 8, 462))],
    ids=["heisenberg-6", "virasoro-8"])
def test_nodal_build_order_applies_few_generators(kind, c, N, counts,
                                                  monkeypatch):
    """A nodal solve and its rerun, in the build order: the calls of
    ``apply_generator`` and ``apply_mode``, the generators whose
    components are built and the generator count."""
    applied, paired = [], []
    apply, pair = TensorWindow.apply_generator, blocks.vertex_op_residue

    def counting_apply(self, gen, saturated):
        applied.append(gen)
        return apply(self, gen, saturated)

    def counting_pair(v, omega):
        paired.append(v)
        return pair(v, omega)

    monkeypatch.setattr(TensorWindow, "apply_generator", counting_apply)
    monkeypatch.setattr(blocks, "vertex_op_residue", counting_pair)
    calls = counted_apply_mode(monkeypatch)
    rep = coinvariant_dims(nodal_pair(), VertexAlgebraInstance(kind, N, c))
    # one pairing per puncture of each generator whose components were
    # built
    assert (len(applied), len(calls), len(paired) // 2,
            rep.generator_count) == counts
    assert all(q == 0 for q in rep.quotient_dims().values())


class TestActionMemo:
    """A component's action on a factor partition is computed once per
    ``apply_generator`` call and kept in no generator, so a solve's report
    depends only on its arguments."""

    @pytest.mark.parametrize("curve,kind,c", TestSharedCaches.CASES)
    def test_reused_generators_give_the_same_report(self, curve, kind, c):
        V = VertexAlgebraInstance(kind, 4, c)
        gens = lie_generators(curve, V)
        first = coinvariant_dims(curve, V, generators=gens)
        second = coinvariant_dims(curve, V, generators=gens)
        assert first == second == coinvariant_dims(
            curve, VertexAlgebraInstance(kind, 4, c))

    @pytest.mark.parametrize("curve", [nodal_pair(), projective_line(2)],
                             ids=["nodal", "p1-2"])
    @pytest.mark.parametrize("first,then", [
        (Fraction(1, 2), Fraction(0)), (Fraction(0), Fraction(1, 2))],
        ids=["half-to-0", "0-to-half"])
    def test_generators_reused_at_another_central_charge(self, curve,
                                                         first, then):
        """A component holds no central charge (theta applies only L_1,
        whose brackets have no central term), so a list built and solved
        at one c answers at another as a fresh solve there: on the nodal
        curve c = 0 leaves a one-dimensional vacuum quotient, c = 1/2
        none."""
        gens = lie_generators(curve, VertexAlgebraInstance(VIRASORO, 3,
                                                           first))
        coinvariant_dims(curve, VertexAlgebraInstance(VIRASORO, 3, first),
                         generators=gens)
        V = VertexAlgebraInstance(VIRASORO, 3, then)
        reused = coinvariant_dims(curve, V, generators=gens)
        assert reused == coinvariant_dims(
            curve, VertexAlgebraInstance(VIRASORO, 3, then))
        if curve.kind == NODAL:
            assert reused.quotient_dims()[0] == (then == 0)

    @over_curves
    def test_apply_generator_writes_nothing_into_the_generator(self, curve):
        V = VertexAlgebraInstance(HEISENBERG, 3)
        window = TensorWindow([V] * len(curve.punctures), 3)
        applied = 0
        for gen in lie_generators(curve, V):
            gen.components  # the one field a window may build
            before = dict(vars(gen))
            vectors, _ = window.apply_generator(gen, frozenset())
            applied += bool(vectors)
            assert vars(gen).keys() == before.keys()
            assert all(vars(gen)[k] is v for k, v in before.items())
        assert applied

    @over_curves
    def test_each_action_is_computed_once_per_call(self, curve,
                                                   monkeypatch):
        acted, calls = [], []
        apply, apply_generator = LieElement.apply, TensorWindow.apply_generator

        def recording(self, V, v):
            acted.append((len(calls), id(self), next(iter(v.terms))))
            return apply(self, V, v)

        def counting(self, gen, saturated):
            calls.append(gen)
            return apply_generator(self, gen, saturated)

        monkeypatch.setattr(LieElement, "apply", recording)
        monkeypatch.setattr(TensorWindow, "apply_generator", counting)
        V = VertexAlgebraInstance(HEISENBERG, 4)
        gens = lie_generators(curve, V)  # held, so no id is reused
        rep = coinvariant_dims(curve, V, generators=gens)
        assert any(r[4] for r in rep.rows)  # the rerun ran
        if curve.kind == P1 and len(curve.punctures) == 1:
            # every component is silent and only the vacuum cell is open
            assert acted == []
        else:
            assert acted and len(acted) == len(set(acted))
            # the N solve recomputes actions its rerun computed
            assert len({a[1:] for a in acted}) < len(acted)


class TestFunctoriality:
    def test_subalgebra_pool_is_conformal(self, heis4):
        pool = virasoro_subalgebra_pool(heis4)
        assert FockVector.vacuum() in pool
        assert heis4.conformal_vector.scaled(1) in pool
        for v in pool:
            assert v.degrees()[-1] <= heis4.truncation

    def test_subalgebra_blocks_dominate(self, heis4):
        rep = functoriality_check(projective_line(1), heis4)
        assert rep.holds()
        # and strictly bigger somewhere: the subalgebra misses the
        # charge-one directions of the Heisenberg module
        assert rep.sub.total_dim() >= rep.big.total_dim()
