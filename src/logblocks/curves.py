"""The two supported pointed log curves and restriction of global log
1-forms to punctured discs.

* NodalPair: the plane nodal curve xy = 0 with its standard log structure,
  punctured at the two smooth points at infinity.  Global forms are
  f dx/x + g dy/y with f, g in Q[x,y]/(xy), each held as a plain dict
  {(i, j): Fraction} on the monomials x^i y^j; the relation
  dx/x + dy/y = 0 collapses these to a single coefficient on restriction.
* ProjectiveLine: the projective line with trivial log structure and
  classical differentials h(u) du, punctured at u = 0 and/or u = infinity.

Restrictions land in the series module's DiscForm with the normalization
d(t^-1)/t^-1 = -dt/t.
"""

from __future__ import annotations

from fractions import Fraction

from .exactalg import Record, _as_fraction, add_into
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

    f and g ((i, j) -> Fraction of x^i y^j) are set on the nodal pair
    only, and laurent (exponent -> Fraction of h(u)) on the projective line
    only.  Zero terms are dropped, and so are the mixed monomials x^i y^j
    with i, j > 0 of f and g, since xy = 0; a negative exponent of f or g
    is a ValueError.
    """

    __slots__ = _fields = ("curve_kind", "f", "g", "laurent")

    def __init__(self, curve_kind: str, f: dict = None, g: dict = None,
                 laurent: dict = None):
        if curve_kind == NODAL:
            if f is None or g is None:
                raise ValueError("nodal forms need both coefficients")
            f, g = _nonzero(f), _nonzero(g)
            if any(min(e) < 0 for h in (f, g) for e in h):
                raise ValueError("negative exponent in Q[x,y]/(xy)")
            f, g = ({e: c for e, c in h.items() if 0 in e} for h in (f, g))
        elif curve_kind == P1:
            if laurent is None:
                raise ValueError("projective-line forms need a Laurent part")
            laurent = _nonzero(laurent)
        else:
            raise ValueError(f"unknown curve kind {curve_kind!r}")
        super().__init__(curve_kind, f, g, laurent)

    def label(self) -> str:
        if self.curve_kind == NODAL:
            # each monomial of f and g is x^i or y^j
            parts = [" + ".join(_term(c, "x", i) if i else _term(c, "y", j)
                                for (i, j), c in sorted(h.items()))
                     for h in (self.f, self.g)]
            return " + ".join(f"({p})*{d}" for p, d in
                              zip(parts, ("dx/x", "dy/y")) if p) or "0"
        if not self.laurent:
            return "0"
        return " + ".join(_term(c, "u", k)
                          for k, c in sorted(self.laurent.items())) + " du"


def _nonzero(coeffs: dict) -> dict:
    return {e: q for e, c in coeffs.items() if (q := _as_fraction(c))}


def _term(c: Fraction, variable: str, k: int) -> str:
    """c*v^k as a label writes it: c alone when k = 0, and v for v^1."""
    if k == 0:
        return f"{c}"
    return f"{c}*{variable}" if k == 1 else f"{c}*{variable}^{k}"


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
        forms = [GlobalLogForm(NODAL, f={(i, 0): 1}, g={})
                 for i in range(0, max_deg + 1)]
        forms += [GlobalLogForm(NODAL, f={}, g={(0, j): 1})
                  for j in range(1, max_deg + 1)]
        return forms
    locs = {p.location for p in curve.punctures}
    lo = -max_pole if P1_ZERO in locs else 0
    hi = max_deg if P1_INFINITY in locs else -2
    return [GlobalLogForm(P1, laurent={k: Fraction(1)})
            for k in range(lo, hi + 1)]


def restrict_to_disc(omega: GlobalLogForm, p: Puncture,
                     N: int) -> DiscForm:
    """Pull the global form back to the punctured disc at p, dt basis.

    At the nodal punctures: (f(t^-1,0) - g(t^-1,0)) d(t^-1)/t^-1 at inf1
    and (g(0,t^-1) - f(0,t^-1)) d(t^-1)/t^-1 at inf2, read in one pass as
    -dt/t times the difference.  A branch term t^e with e >= N is refused
    even where the difference cancels it, and min_exponent is one below
    min(0, every branch e).  On the projective line the classical chain
    rule.
    """
    if p.location in (NODAL_INF1, NODAL_INF2):
        if omega.curve_kind != NODAL:
            raise ValueError("form and puncture live on different curves")
        k = 0 if p.location == NODAL_INF1 else 1
        own, other = (omega.f, omega.g) if k == 0 else (omega.g, omega.f)
        coeffs, low = {}, 0
        for h, sign in ((own, -1), (other, 1)):
            for exp, c in h.items():
                if not exp[1 - k]:  # on the branch the other variable is 0
                    if -exp[k] >= N:
                        raise TruncationError(
                            "branch expansion exceeds the truncation")
                    low = min(low, -exp[k])
                    add_into(coeffs, {-exp[k] - 1: c}, sign)
        return DiscForm(TruncatedLaurent(coeffs, low - 1, N - 1), "dt")
    if omega.curve_kind != P1:
        raise ValueError("form and puncture live on different curves")
    if any(k >= N or -k - 2 >= N for k in omega.laurent):
        raise TruncationError("restriction exceeds the truncation")
    series = TruncatedLaurent.from_terms(omega.laurent, N)
    form = DiscForm(series, "dt")
    if p.location == P1_ZERO:
        return form
    return invert_variable(form)
