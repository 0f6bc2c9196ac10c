"""Kato's presentation of the log differential module for the four curve
families used here (nodal pair, formal disc, smooth patch, trivial log
structure), and an exact check of its relations.

Each family is one row of FAMILIES: its symbols d(e_i), the ring its chart
lands in, and its structure map N^b -> N^k from the base monoid.  Every
chart is monomial: generator i of the curve monoid N^k goes to variable i
of the ring, so m goes to ring.monomial(m), and every base generator goes
to 0, the log point.  Relation checks are exact rational span computations
over the monomials of degree <= WINDOW_DEGREE.

On a monomial chart two elements of N^k have equal images only when they
are equal or both images are zero.  So on these four charts the check's
sampled family-1 relations are all zero, and what it tests is the
base-image relations of family 2.

Only the CLI's diff command loads this module; the global forms of the
curves module hold their coefficients as plain dicts.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .exactalg import (Record, SparseVector, Subspace, _as_fraction, add_into,
                       span_insert)

POLYNOMIAL = "polynomial"
NODAL_QUOTIENT = "nodal_quotient"
# the monomial window of relation_membership_check, and the largest
# exponent its family-1 sampler draws
WINDOW_DEGREE = 3


class SupportedRing(Record):
    """One of the two rings the charts land in.

    Elements are finite maps exponent-tuple -> Fraction.  NodalQuotient
    elements are kept in normal form (no mixed monomials x^i y^j, i,j > 0).
    """

    __slots__ = _fields = ("kind", "variables")

    def __init__(self, kind: str, variables: tuple):
        if kind not in (POLYNOMIAL, NODAL_QUOTIENT):
            raise ValueError(f"unsupported ring kind {kind!r}")
        if kind == NODAL_QUOTIENT and len(variables) != 2:
            raise ValueError("the nodal quotient has exactly two variables")
        super().__init__(kind, tuple(variables))

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
            out[tuple(exp)] = c  # coeffs has one entry per exponent
        return out

    def element(self, coeffs) -> "RingElement":
        return RingElement(self, self.normalize(dict(coeffs)))

    def one(self) -> "RingElement":
        return self.element({(0,) * len(self.variables): Fraction(1)})

    def monomial(self, exp) -> "RingElement":
        return self.element({tuple(exp): Fraction(1)})


class RingElement(Record):
    __slots__ = _fields = ("ring", "coeffs")

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


# one row per family: its symbols d(e_i), one per generator of the curve
# monoid N^k; the ring its chart lands in; and its structure map
# N^b -> N^k as k rows of naturals.  The nodal pair xy = 0 lies over the
# log point: its one base generator goes to e_1 + e_2, whose image xy is 0.
# The log structure of the disc and of the smooth patch comes from their
# marked point, not from the base, so b = 0 and their d log is free.
FAMILIES = {
    "nodal": (("dx/x", "dy/y"), SupportedRing(NODAL_QUOTIENT, ("x", "y")),
              ((1,), (1,))),
    "smooth_patch": (("dx/x",), SupportedRing(POLYNOMIAL, ("x",)), ((),)),
    "trivial": ((), SupportedRing(POLYNOMIAL, ("u",)), ()),
    "disc": (("dt/t",), SupportedRing(POLYNOMIAL, ("t",)), ((),)),
}


class LogDiffPresentation(Record):
    """Generators d(e_i) and relations of the log differential module.

    generators holds the symbol names.  Each relation is a tuple of
    RingElements, the coefficients of the generators; the relation asserts
    sum_i coeff_i * d(e_i) = 0.  structure_hom is the family's structure
    map N^b -> N^k as k rows of naturals.
    """

    __slots__ = _fields = ("family", "generators", "relations", "ring",
                           "structure_hom")

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


def _base_relations(ring: SupportedRing, structure_hom) -> list:
    """One relation per base generator e_b, the column b of structure_hom.

    Its image alpha(e_b) vanishes on the fibre (the log point sends it to
    0), so d of the image reduces to the pure monoid part
    sum_i img_i d(e_i).
    """
    return [tuple(ring.one().scaled(n) for n in column)
            for column in zip(*structure_hom)]


def kato_presentation(family: str) -> LogDiffPresentation:
    """Generators/relations of the log differential module, construction 2,
    for one of the FAMILIES.

    One generator d(e_i) per curve-monoid generator; the relations are the
    images of the base-monoid generators expressed in the d(e_i) (the
    second relation family of the construction).  For the nodal family this
    is exactly d(e1) + d(e2) = 0.  Another family name is a ValueError.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown log curve family {family!r} (choose from "
                         f"{', '.join(map(repr, FAMILIES))})")
    generators, ring, structure_hom = FAMILIES[family]
    return LogDiffPresentation(family, generators,
                               tuple(_base_relations(ring, structure_hom)),
                               ring, structure_hom)


def _monomial_window(ring: SupportedRing):
    nvars = len(ring.variables)
    monos = []
    for exps in itertools.product(range(WINDOW_DEGREE + 1), repeat=nvars):
        if sum(exps) > WINDOW_DEGREE:
            continue
        if ring.kind == NODAL_QUOTIENT and exps[0] > 0 and exps[1] > 0:
            continue
        monos.append(exps)
    return sorted(monos)


def span_of(vectors, ambient_dimension: int) -> Subspace:
    """Reduced echelon span of vectors in Q^ambient_dimension."""
    space = Subspace.empty(ambient_dimension)
    for v in vectors:
        space = span_insert(space, v)
    return space


def span_contains(space: Subspace, v: SparseVector) -> bool:
    return not space.reduce(v)


def relation_membership_check(p: LogDiffPresentation,
                              sample_count: int = 50,
                              seed: int = 0) -> bool:
    """Both inclusions between the listed relations and sampled Kato
    relation elements, as exact span computations.

    Relation family 1 consists of differences alpha(m) (x) m - alpha(m') (x) m'
    with equal ring images; family 2 of the base-generator images, read
    from p.structure_hom.  Every listed relation must lie in the span of
    monomial multiples of sampled family elements, and every sampled
    element must reduce to zero against monomial multiples of the listed
    relations.
    """
    rnd = random.Random(seed)
    ring = p.ring
    k = len(p.structure_hom)
    if k == 0:
        return not p.relations
    monos = _monomial_window(ring)
    midx = {e: i for i, e in enumerate(monos)}
    dim = k * len(monos)

    def flatten(rel):
        # coefficient i of rel fills the i-th block of len(monos) entries
        return SparseVector({i * len(monos) + midx[e]: c
                             for i, coeff in enumerate(rel)
                             for e, c in coeff.coeffs.items()}, dim)

    def in_window(rel):
        return all(e in midx for coeff in rel for e in coeff.coeffs)

    def multiples(rels):
        for rel in rels:
            for mono in monos:
                scaled = tuple(c.mul(ring.monomial(mono)) for c in rel)
                if in_window(scaled):
                    yield scaled

    # family 2: monomial multiples of base-generator images
    samples = list(multiples(_base_relations(ring, p.structure_hom)))
    # family 1: alpha(m)(x)m - alpha(m')(x)m' for sampled pairs with equal
    # ring images
    seen = {}
    for _ in range(sample_count):
        m = tuple(rnd.randint(0, WINDOW_DEGREE) for _ in range(k))
        key = tuple(sorted(ring.monomial(m).coeffs.items()))
        seen.setdefault(key, []).append(m)
    for group in seen.values():
        for m, mp in zip(group, group[1:]):
            am = ring.monomial(m)
            rel = tuple(am.scaled(m[j] - mp[j]) for j in range(k))
            if in_window(rel) and any(not c.is_zero() for c in rel):
                samples.append(rel)

    sample_span = span_of(map(flatten, samples), dim)
    listed_span = span_of(map(flatten, multiples(p.relations)), dim)
    return (all(in_window(rel) and span_contains(sample_span, flatten(rel))
                for rel in p.relations)
            and all(span_contains(listed_span, flatten(rel))
                    for rel in samples))
