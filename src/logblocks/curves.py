"""The two supported pointed log curves and restriction of global log
1-forms to punctured discs.

* NodalPair: the plane nodal curve xy = 0 with its standard log structure,
  punctured at the two smooth points at infinity.  Global forms are
  f dx/x + g dy/y with f, g in Q[x,y]/(xy); the relation dx/x + dy/y = 0
  collapses these to a single coefficient on restriction.
* ProjectiveLine: the projective line with trivial log structure and
  classical differentials h(u) du, punctured at u = 0 and/or u = infinity.

Restrictions land in the series module's DiscForm with the normalization
d(t^-1)/t^-1 = -dt/t.
"""

from __future__ import annotations

from fractions import Fraction

from .exactalg import Record
from .logmonoid import (NODAL_QUOTIENT, RingElement, SupportedRing,
                        nodal_charts)
from .series import DiscForm, TruncatedLaurent, TruncationError, \
    invert_variable

P1 = "p1"
NODAL = "nodal"

NODAL_INF1 = "inf1"
NODAL_INF2 = "inf2"
P1_ZERO = "zero"
P1_INFINITY = "infinity"


class Puncture(Record):
    """A puncture with its fixed local coordinate.

    On the nodal curve, inf1 = (1,0,0) with x^{-1} = t on its branch and
    inf2 = (0,1,0) with y^{-1} = t; the node is never a puncture.  On the
    projective line, zero has t = u and infinity has t = 1/u.
    """

    __slots__ = _fields = ("name", "location")

    def __init__(self, name: str, location: str):
        if location not in (NODAL_INF1, NODAL_INF2, P1_ZERO, P1_INFINITY):
            raise ValueError(f"unknown puncture location {location!r}")
        super().__init__(name, location)


class CurveModel(Record):
    __slots__ = _fields = ("kind", "punctures")

    def __init__(self, kind: str, punctures: tuple):
        if kind not in (P1, NODAL):
            raise ValueError(f"unknown curve kind {kind!r}")
        punctures = tuple(punctures)
        locs = [p.location for p in punctures]
        if len(set(locs)) != len(locs):
            raise ValueError("punctures must be pairwise distinct")
        allowed = ((NODAL_INF1, NODAL_INF2) if kind == NODAL
                   else (P1_ZERO, P1_INFINITY))
        for loc in locs:
            if loc not in allowed:
                raise ValueError(
                    f"puncture location {loc!r} not on curve {kind!r}")
        if not punctures:
            raise ValueError("at least one puncture required")
        super().__init__(kind, punctures)


def nodal_pair() -> CurveModel:
    """The standard configuration: both smooth points at infinity."""
    return CurveModel(NODAL, (Puncture("inf1", NODAL_INF1),
                              Puncture("inf2", NODAL_INF2)))


def projective_line(n_punctures: int = 1) -> CurveModel:
    """One puncture at infinity, or two at zero and infinity."""
    if n_punctures == 1:
        return CurveModel(P1, (Puncture("x", P1_INFINITY),))
    if n_punctures == 2:
        return CurveModel(P1, (Puncture("x", P1_INFINITY),
                               Puncture("y", P1_ZERO)))
    raise ValueError("only one or two punctures are supported")


class GlobalLogForm(Record):
    """NodalPair: (f, g) for f dx/x + g dy/y; ProjectiveLine: h(u) du.

    f and g (RingElements) are set on the nodal pair only, and laurent
    (exponent -> Fraction of h(u)) on the projective line only.
    """

    __slots__ = _fields = ("curve_kind", "f", "g", "laurent")

    def __init__(self, curve_kind: str, f: RingElement = None,
                 g: RingElement = None, laurent: dict = None):
        if curve_kind == NODAL:
            if f is None or g is None:
                raise ValueError("nodal forms need both coefficients")
        elif curve_kind == P1:
            if laurent is None:
                raise ValueError("projective-line forms need a Laurent part")
            laurent = {k: Fraction(c) for k, c in laurent.items()
                       if Fraction(c) != 0}
        else:
            raise ValueError(f"unknown curve kind {curve_kind!r}")
        super().__init__(curve_kind, f, g, laurent)

    def label(self) -> str:
        if self.curve_kind == NODAL:
            parts = []
            if not self.f.is_zero():
                parts.append(f"({self.f})*dx/x")
            if not self.g.is_zero():
                parts.append(f"({self.g})*dy/y")
            return " + ".join(parts) or "0"
        if not self.laurent:
            return "0"
        terms = []
        for k in sorted(self.laurent):
            c = self.laurent[k]
            mono = "" if k == 0 else ("u" if k == 1 else f"u^{k}")
            terms.append(f"{c}{'*' + mono if mono else ''}")
        return " + ".join(terms) + " du"


def global_form_basis(curve: CurveModel, max_pole: int,
                      max_deg: int) -> list:
    """Spanning monomial forms with poles only at the punctures.

    NodalPair: {x^i dx/x : 0 <= i <= max_deg} plus {y^j dy/y : 1 <= j <=
    max_deg}; the constant dy/y = -dx/x appears once, in the dx/x slot.
    ProjectiveLine: {u^k du} with k >= -max_pole when zero is punctured
    (else k >= 0) and k <= max_deg when infinity is punctured (else
    k <= -2, keeping the form regular at infinity).
    """
    if max_pole < 0 or max_deg < 0:
        raise ValueError("bounds must be nonnegative")
    if curve.kind == NODAL:
        ring = nodal_charts()[0].target_ring
        forms = [GlobalLogForm(NODAL, f=ring.monomial((i, 0)),
                               g=ring.zero())
                 for i in range(0, max_deg + 1)]
        forms += [GlobalLogForm(NODAL, f=ring.zero(),
                                g=ring.monomial((0, j)))
                  for j in range(1, max_deg + 1)]
        return forms
    locs = {p.location for p in curve.punctures}
    lo = -max_pole if P1_ZERO in locs else 0
    hi = max_deg if P1_INFINITY in locs else -2
    return [GlobalLogForm(P1, laurent={k: Fraction(1)})
            for k in range(lo, hi + 1)]


def _branch_series(h: RingElement, var_index: int, N: int) -> TruncatedLaurent:
    """h with the chosen variable set to t^{-1} and the other to 0."""
    coeffs = {}
    for exp, c in h.coeffs.items():
        if any(e > 0 for i, e in enumerate(exp) if i != var_index):
            continue
        coeffs[-exp[var_index]] = coeffs.get(-exp[var_index],
                                             Fraction(0)) + c
    if coeffs and max(coeffs) >= N:
        raise TruncationError("branch expansion exceeds the truncation")
    return TruncatedLaurent.from_terms(coeffs, N)


def restrict_to_disc(omega: GlobalLogForm, p: Puncture,
                     N: int) -> DiscForm:
    """Pull the global form back to the punctured disc at p, dt basis.

    At the nodal punctures: (f(t^-1,0) - g(t^-1,0)) d(t^-1)/t^-1 at inf1
    and (g(0,t^-1) - f(0,t^-1)) d(t^-1)/t^-1 at inf2, with d(t^-1)/t^-1
    rewritten as -dt/t.  On the projective line the classical chain rule.
    """
    if p.location in (NODAL_INF1, NODAL_INF2):
        if omega.curve_kind != NODAL:
            raise ValueError("form and puncture live on different curves")
        if p.location == NODAL_INF1:
            s = _branch_series(omega.f, 0, N).add(
                _branch_series(omega.g, 0, N).scaled(-1))
        else:
            s = _branch_series(omega.g, 1, N).add(
                _branch_series(omega.f, 1, N).scaled(-1))
        return DiscForm(s.scaled(-1), "dt/t").in_dt()
    if omega.curve_kind != P1:
        raise ValueError("form and puncture live on different curves")
    if any(k >= N or -k - 2 >= N for k in omega.laurent):
        raise TruncationError("restriction exceeds the truncation")
    series = TruncatedLaurent.from_terms(dict(omega.laurent), N)
    form = DiscForm(series, "dt")
    if p.location == P1_ZERO:
        return form
    return invert_variable(form)
