"""Arithmetic of truncated Laurent series and the group Aut O of disc
coordinate changes t -> a1 t + a2 t^2 + ..., for the tests only.

No solve multiplies series or composes coordinate changes, so the package
keeps just the values (``series.TruncatedLaurent``, ``series.DiscForm``,
``coordact.DiscAuto``); this module is the oracle the tests check them
against: the group law, substitution, pullback of forms and residues.

A result claims only what its inputs determine: a product of series known
below N_a and N_b, with least exponents m_a and m_b, is known below
min(N_a + m_b, N_b + m_a).
"""

from fractions import Fraction

from logblocks.coordact import DiscAuto
from logblocks.exactalg import add_into
from logblocks.series import DiscForm, TruncatedLaurent, TruncationError


def coeff(s: TruncatedLaurent, e: int) -> Fraction:
    if e >= s.truncation_order:
        raise TruncationError(f"coefficient of t^{e} unknown at "
                              f"truncation {s.truncation_order}")
    return s.coefficients.get(e, Fraction(0))


def add(a: TruncatedLaurent, b: TruncatedLaurent, c=1) -> TruncatedLaurent:
    """a + c*b, known below both truncations."""
    n = min(a.truncation_order, b.truncation_order)
    out = {e: v for e, v in a.coefficients.items() if e < n}
    add_into(out, {e: v for e, v in b.coefficients.items() if e < n}, c)
    return TruncatedLaurent(out, min(a.min_exponent, b.min_exponent), n)


def mul(a: TruncatedLaurent, b: TruncatedLaurent) -> TruncatedLaurent:
    n = min(a.truncation_order + b.min_exponent,
            b.truncation_order + a.min_exponent)
    out = {}
    for e1, c1 in a.coefficients.items():
        add_into(out, {e1 + e2: c2 for e2, c2 in b.coefficients.items()
                       if e1 + e2 < n}, c1)
    return TruncatedLaurent(out, a.min_exponent + b.min_exponent, n)


def inverse(s: TruncatedLaurent) -> TruncatedLaurent:
    """1/s for s with an invertible leading term lead*t^m: the geometric
    series in h = s/(lead*t^m) - 1, which has valuation >= 1."""
    if not s.coefficients:
        raise ZeroDivisionError("inverting the zero series")
    m = min(s.coefficients)
    lead = s.coefficients[m]
    rel = s.truncation_order - m  # h is known below t^rel
    h = {e - m: c / lead for e, c in s.coefficients.items() if e != m}
    total, term = {0: Fraction(1)}, {0: Fraction(1)}
    while term:
        nxt = {}
        for e1, c1 in term.items():
            add_into(nxt, {e1 + e2: c2 for e2, c2 in h.items()
                           if e1 + e2 < rel}, -c1)
        term = nxt
        add_into(total, term)
    return TruncatedLaurent({e - m: c / lead for e, c in total.items()},
                            min(-m, 0), rel - m)


def power(s: TruncatedLaurent, k: int) -> TruncatedLaurent:
    """s^k for k != 0."""
    base = s if k > 0 else inverse(s)
    out = base
    for _ in range(abs(k) - 1):
        out = mul(out, base)
    return out


def derivative(s: TruncatedLaurent) -> TruncatedLaurent:
    return TruncatedLaurent({e - 1: e * c for e, c in s.coefficients.items()
                             if e != 0},
                            s.min_exponent - 1, s.truncation_order - 1)


def substitute(f: TruncatedLaurent, g: TruncatedLaurent) -> TruncatedLaurent:
    """f(g(t)) for g of valuation exactly 1, term by term: a term of f at
    t^e with e >= N_f becomes O(t^(N_f)), so the result is known below N_f
    and below every power of g it adds."""
    if min(g.coefficients, default=None) != 1:
        raise TruncationError("substitution needs a series of valuation 1")
    out = TruncatedLaurent({0: f.coefficients.get(0, 0)}, 0,
                           f.truncation_order)
    for e, c in f.coefficients.items():
        if e:
            out = add(out, power(g, e), c)
    return out


def to_series(g: DiscAuto) -> TruncatedLaurent:
    return TruncatedLaurent({i: g.a(i) for i in range(1, g.truncation_order)},
                            1, g.truncation_order)


def scaling(a, truncation_order: int) -> DiscAuto:
    """t -> a*t."""
    return DiscAuto((a,) + (0,) * (truncation_order - 2), truncation_order)


def identity(truncation_order: int) -> DiscAuto:
    return scaling(1, truncation_order)


def compose_auto(f: DiscAuto, g: DiscAuto) -> DiscAuto:
    """(f o g)(t) = f(g(t))."""
    s = substitute(to_series(f), to_series(g))
    n = s.truncation_order
    return DiscAuto(tuple(coeff(s, i) for i in range(1, n)), n)


def invert_auto(g: DiscAuto) -> DiscAuto:
    """Compositional inverse, by a triangular solve: with the later
    coefficients of h still 0, the coefficient of t^k in g(h(t)) is
    a1*h_k plus what h_1..h_{k-1} give, and must be 0."""
    n = g.truncation_order
    h = [1 / g.a(1)] + [Fraction(0)] * (n - 2)
    for k in range(2, n):
        s = substitute(to_series(g), to_series(DiscAuto(h, n)))
        h[k - 1] = -coeff(s, k) / g.a(1)
    return DiscAuto(h, n)


def residue(omega: DiscForm) -> Fraction:
    """Coefficient of t^-1 dt."""
    return omega.in_dt().series.coefficients.get(-1, Fraction(0))


def pullback_form(omega: DiscForm, g: DiscAuto) -> DiscForm:
    """Substitute t = g(s): f(t)dt -> f(g(s)) g'(s) ds."""
    s = to_series(g)
    return DiscForm(mul(substitute(omega.in_dt().series, s), derivative(s)),
                    "dt")


def scaled(omega: DiscForm, c) -> DiscForm:
    s = omega.series
    return DiscForm(TruncatedLaurent({e: c * v for e, v in
                                      s.coefficients.items()},
                                     s.min_exponent, s.truncation_order),
                    omega.basis)
