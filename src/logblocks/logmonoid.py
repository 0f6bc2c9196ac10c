"""Free commutative monoids, charts into supported rings, and the Kato
presentation of the log differential module for the curve families used
here (nodal pair, smooth patch, trivial log structure, formal disc).

Only free monoids N^k appear; the presentation machinery is an enumerated
pattern match over the four families rather than a general quotient-module
engine.  Relation checks are realized as exact rational span computations
over a bounded-degree monomial window.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .exactalg import Record, SparseVector, _as_fraction, add_into, span_of

POLYNOMIAL = "polynomial"
NODAL_QUOTIENT = "nodal_quotient"
TRUNCATED_POWER_SERIES = "truncated_power_series"


class FreeMonoid(Record):
    """The free commutative monoid N^rank."""

    __slots__ = _fields = ("rank",)

    def __init__(self, rank: int):
        if rank < 0:
            raise ValueError("rank must be nonnegative")
        super().__init__(rank)

    def contains(self, element) -> bool:
        return (len(element) == self.rank
                and all(isinstance(x, int) and x >= 0 for x in element))

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def zero(self):
        return (0,) * self.rank


class MonoidHom(Record):
    """N^k -> N^k' given by a k' x k matrix of naturals (columns = images).

    matrix is a tuple of rows, each a tuple of naturals.
    """

    __slots__ = _fields = ("matrix", "source_rank", "target_rank")

    def __init__(self, matrix: tuple, source_rank: int, target_rank: int):
        rows = tuple(tuple(r) for r in matrix)
        if len(rows) != target_rank or any(
                len(r) != source_rank for r in rows):
            raise ValueError("matrix shape does not match the stated ranks")
        if any(x < 0 or not isinstance(x, int) for r in rows for x in r):
            raise ValueError("monoid hom entries must be naturals")
        super().__init__(rows, source_rank, target_rank)

    def apply(self, element):
        return tuple(sum(r[j] * element[j] for j in range(self.source_rank))
                     for r in self.matrix)

    def generator_image(self, j: int):
        return tuple(r[j] for r in self.matrix)


class SupportedRing(Record):
    """One of the three element representations used by the charts.

    Elements are finite maps exponent-tuple -> Fraction.  NodalQuotient
    elements are kept in normal form (no mixed monomials x^i y^j, i,j > 0).
    """

    __slots__ = _fields = ("kind", "variables", "truncation_order")

    def __init__(self, kind: str, variables: tuple,
                 truncation_order: int = None):
        if kind not in (POLYNOMIAL, NODAL_QUOTIENT, TRUNCATED_POWER_SERIES):
            raise ValueError(f"unsupported ring kind {kind!r}")
        if kind == NODAL_QUOTIENT and len(variables) != 2:
            raise ValueError("the nodal quotient has exactly two variables")
        if kind == TRUNCATED_POWER_SERIES and truncation_order is None:
            raise ValueError("truncated power series need a truncation order")
        super().__init__(kind, tuple(variables), truncation_order)

    def normalize(self, coeffs: dict) -> dict:
        out = {}
        for exp, c in coeffs.items():
            c = _as_fraction(c)
            if c == 0:
                continue
            if self.kind == NODAL_QUOTIENT and exp[0] > 0 and exp[1] > 0:
                continue  # xy = 0
            if any(e < 0 for e in exp):
                raise ValueError(f"negative exponent {exp} in {self.kind}")
            if (self.kind == TRUNCATED_POWER_SERIES
                    and exp[0] >= self.truncation_order):
                continue
            out[tuple(exp)] = c  # coeffs has one entry per exponent
        return out

    def element(self, coeffs) -> "RingElement":
        return RingElement(self, self.normalize(dict(coeffs)))

    def zero(self) -> "RingElement":
        return self.element({})

    def one(self) -> "RingElement":
        return self.element({(0,) * len(self.variables): Fraction(1)})

    def monomial(self, exp, c=1) -> "RingElement":
        return self.element({tuple(exp): Fraction(c)})


class RingElement(Record):
    __slots__ = _fields = ("ring", "coeffs")

    def add(self, other: "RingElement") -> "RingElement":
        return self.ring.element(add_into(dict(self.coeffs), other.coeffs))

    def scaled(self, c) -> "RingElement":
        c = Fraction(c)
        return self.ring.element({e: c * v for e, v in self.coeffs.items()})

    def mul(self, other: "RingElement") -> "RingElement":
        out = {}
        for e1, c1 in self.coeffs.items():
            add_into(out, {tuple(a + b for a, b in zip(e1, e2)): c2
                           for e2, c2 in other.coeffs.items()}, c1)
        return self.ring.element(out)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __str__(self):
        if not self.coeffs:
            return "0"
        names = self.ring.variables
        parts = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            mono = "*".join(f"{v}^{k}" if k != 1 else v
                            for v, k in zip(names, e) if k != 0)
            parts.append(f"{c}" if not mono else f"{c}*{mono}")
        return " + ".join(parts)


class Chart(Record):
    """A chart N^k -> R given by the images of the monoid generators."""

    __slots__ = _fields = ("source", "target_ring", "generator_images")

    def __init__(self, source: FreeMonoid, target_ring: SupportedRing,
                 generator_images: tuple):
        if len(generator_images) != source.rank:
            raise ValueError("one image per monoid generator required")
        super().__init__(source, target_ring, tuple(generator_images))

    def image(self, element) -> RingElement:
        if not self.source.contains(tuple(element)):
            raise ValueError(f"{element} is not in N^{self.source.rank}")
        out = self.target_ring.one()
        for g, power in zip(self.generator_images, element):
            for _ in range(power):
                out = out.mul(g)
        return out


class LogDiffPresentation(Record):
    """Generators d(e_i) and relations of the log differential module.

    generators holds the symbol names.  Each relation is a tuple of
    RingElements, the coefficients of the generators; the relation asserts
    sum_i coeff_i * d(e_i) = 0.
    """

    __slots__ = _fields = ("family", "generators", "relations", "ring",
                           "curve_chart", "base_chart",
                           "base_relation_source")

    def pretty(self) -> str:
        lines = [f"family: {self.family}",
                 f"generators: {', '.join(self.generators) or '(none)'}"]
        if not self.relations:
            lines.append("relations: (none)")
        else:
            lines.append("relations:")
            for rel in self.relations:
                terms = [f"({coeff})*{g}"
                         for coeff, g in zip(rel, self.generators)
                         if not coeff.is_zero()]
                lines.append("  " + " + ".join(terms) + " = 0")
        return "\n".join(lines)


NODAL_FAMILY = "nodal"
SMOOTH_PATCH_FAMILY = "smooth_patch"
TRIVIAL_FAMILY = "trivial"
DISC_FAMILY = "disc"


class UnsupportedFamily(ValueError):
    pass


def _classify_family(curve_chart: Chart, base_chart: Chart,
                     structure_hom: MonoidHom) -> str:
    ring = curve_chart.target_ring
    k = curve_chart.source.rank
    if k == 0:
        return TRIVIAL_FAMILY
    if (k == 2 and ring.kind == NODAL_QUOTIENT
            and base_chart.source.rank == 1
            and structure_hom.matrix == ((1,), (1,))):
        images = [g.coeffs for g in curve_chart.generator_images]
        if images == [{(1, 0): Fraction(1)}, {(0, 1): Fraction(1)}]:
            return NODAL_FAMILY
    if k == 1 and ring.kind == POLYNOMIAL and base_chart.source.rank == 0:
        if curve_chart.generator_images[0].coeffs == {(1,): Fraction(1)}:
            return SMOOTH_PATCH_FAMILY
    if (k == 1 and ring.kind == TRUNCATED_POWER_SERIES
            and base_chart.source.rank == 1):
        if curve_chart.generator_images[0].coeffs == {(1,): Fraction(1)}:
            return DISC_FAMILY
    raise UnsupportedFamily(
        "unsupported chart family: expected the nodal pair (N^2, xy=0 over "
        "the log point), a smooth patch (N, 1 -> x, trivial base), the "
        "trivial log structure, or the formal disc (N, n -> t^n)")


def kato_presentation(curve_chart: Chart, base_chart: Chart,
                      structure_hom: MonoidHom) -> LogDiffPresentation:
    """Generators/relations of the log differential module, construction 2.

    One generator d(e_i) per curve-monoid generator; the relations are the
    images of the base-monoid generators expressed in the d(e_i) (the
    second relation family of the construction).  For the nodal family this
    is exactly d(e1) + d(e2) = 0.
    """
    family = _classify_family(curve_chart, base_chart, structure_hom)
    ring = curve_chart.target_ring
    k = curve_chart.source.rank
    if family == NODAL_FAMILY:
        gens = ("dx/x", "dy/y")
    elif family == SMOOTH_PATCH_FAMILY:
        gens = ("dx/x",)
    elif family == DISC_FAMILY:
        gens = ("dt/t",)
    else:
        gens = ()
    relations = []
    for b in range(base_chart.source.rank):
        img = structure_hom.generator_image(b)
        # the base generator's image alpha(e_b) vanishes on the fibre (the
        # log point sends it to 0), so d of the image reduces to the pure
        # monoid part sum_j img_j d(e_j)
        coeffs = tuple(ring.one().scaled(img[j]) for j in range(k))
        if family == DISC_FAMILY:
            # the disc's structure map factors through the vanishing locus
            # of t only at the closed point; no relation among the monoid
            # generators survives on the disc itself
            continue
        if any(not c.is_zero() for c in coeffs):
            relations.append(coeffs)
    return LogDiffPresentation(family, gens, tuple(relations), ring,
                               curve_chart, base_chart, structure_hom)


def _module_vector(rel, monomial_index, ngens) -> SparseVector:
    """Flatten a generator-coefficient tuple into one exact vector."""
    entries = {}
    nmono = len(monomial_index)
    for g, coeff in enumerate(rel):
        for e, c in coeff.coeffs.items():
            entries[g * nmono + monomial_index[e]] = c
    return SparseVector(entries, ngens * nmono)


def _monomial_window(ring: SupportedRing, max_degree: int):
    nvars = len(ring.variables)
    monos = []
    for exps in itertools.product(range(max_degree + 1), repeat=nvars):
        if sum(exps) > max_degree:
            continue
        if ring.kind == NODAL_QUOTIENT and exps[0] > 0 and exps[1] > 0:
            continue
        monos.append(exps)
    return sorted(monos)


def relation_membership_check(p: LogDiffPresentation,
                              sample_count: int = 50,
                              seed: int = 0,
                              max_degree: int = 3) -> bool:
    """Both inclusions between the listed relations and sampled Kato
    relation elements, as exact span computations.

    Relation family 1 consists of differences alpha(m) (x) m - alpha(m') (x) m'
    with equal ring images; family 2 of the base-generator images.  Every
    listed relation must lie in the span of monomial multiples of sampled
    family elements, and every sampled element must reduce to zero against
    monomial multiples of the listed relations.
    """
    import random

    rnd = random.Random(seed)
    ring = p.ring
    k = p.curve_chart.source.rank
    if k == 0:
        return not p.relations
    monos = _monomial_window(ring, max_degree)
    midx = {e: i for i, e in enumerate(monos)}
    dim = k * len(monos)

    def flatten(rel):
        return _module_vector(rel, midx, k)

    def in_window(rel):
        return all(e in midx for coeff in rel for e in coeff.coeffs)

    # --- sample relation elements -----------------------------------------
    samples = []
    # family 2: monomial multiples of base-generator images
    for b in range(p.base_chart.source.rank):
        if p.family == DISC_FAMILY:
            break
        img = p.base_relation_source.generator_image(b)
        base_rel = tuple(ring.one().scaled(img[j]) for j in range(k))
        for mono in monos:
            scaledrel = tuple(c.mul(ring.monomial(mono)) for c in base_rel)
            if in_window(scaledrel):
                samples.append(scaledrel)
    # family 1: alpha(m)(x)m - alpha(m')(x)m' for sampled pairs with equal
    # ring images
    seen = {}
    for _ in range(sample_count):
        m = tuple(rnd.randint(0, max_degree) for _ in range(k))
        key = tuple(sorted(p.curve_chart.image(m).coeffs.items()))
        seen.setdefault(key, []).append(m)
    for group in seen.values():
        for m, mp in zip(group, group[1:]):
            am = p.curve_chart.image(m)
            rel = tuple(am.scaled(m[j] - mp[j]) for j in range(k))
            if in_window(rel) and any(not c.is_zero() for c in rel):
                samples.append(rel)

    sample_span = span_of((flatten(r) for r in samples), dim)
    listed = []
    for rel in p.relations:
        for mono in monos:
            scaledrel = tuple(c.mul(ring.monomial(mono)) for c in rel)
            if in_window(scaledrel):
                listed.append(scaledrel)
    listed_span = span_of((flatten(r) for r in listed), dim)

    for rel in p.relations:
        if not in_window(rel):
            return False
        if not sample_span.contains(flatten(rel)):
            return False
    for rel in samples:
        if not listed_span.contains(flatten(rel)):
            return False
    return True


# --- canned charts for the supported families ------------------------------


def nodal_charts():
    """The nodal pair xy = 0 over the log point: chart data and the hom."""
    ring = SupportedRing(NODAL_QUOTIENT, ("x", "y"))
    curve = Chart(FreeMonoid(2), ring,
                  (ring.monomial((1, 0)), ring.monomial((0, 1))))
    base_ring = SupportedRing(POLYNOMIAL, ())
    base = Chart(FreeMonoid(1), base_ring, (base_ring.zero(),))
    hom = MonoidHom(((1,), (1,)), 1, 2)
    return curve, base, hom


def disc_charts(truncation_order: int = 8):
    ring = SupportedRing(TRUNCATED_POWER_SERIES, ("t",),
                         truncation_order=truncation_order)
    curve = Chart(FreeMonoid(1), ring, (ring.monomial((1,)),))
    base_ring = SupportedRing(POLYNOMIAL, ())
    base = Chart(FreeMonoid(1), base_ring, (base_ring.zero(),))
    hom = MonoidHom(((1,),), 1, 1)
    return curve, base, hom


def smooth_patch_charts():
    ring = SupportedRing(POLYNOMIAL, ("x",))
    curve = Chart(FreeMonoid(1), ring, (ring.monomial((1,)),))
    base_ring = SupportedRing(POLYNOMIAL, ())
    base = Chart(FreeMonoid(0), base_ring, ())
    hom = MonoidHom(((),), 0, 1)
    return curve, base, hom


def trivial_charts():
    ring = SupportedRing(POLYNOMIAL, ("u",))
    curve = Chart(FreeMonoid(0), ring, ())
    base = Chart(FreeMonoid(0), ring, ())
    hom = MonoidHom((), 0, 0)
    return curve, base, hom
