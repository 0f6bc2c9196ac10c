"""Truncated Laurent series, base-point-preserving disc automorphisms,
differentials on the punctured disc, and residues.

Every value carries an explicit truncation order N: exponents >= N are
unknown.  Operations propagate the minimum truncation of their inputs and
never silently extend precision.
"""

from __future__ import annotations

from fractions import Fraction

from .exactalg import Record, _as_fraction, add_into


class TruncationError(ValueError):
    """Requested data lies outside the known truncation window."""


class TruncatedLaurent(Record):
    """Laurent series sum_{m<=e<N} c_e t^e with exact rational coefficients."""

    __slots__ = _fields = ("coefficients", "min_exponent", "truncation_order")

    def __init__(self, coefficients: dict, min_exponent: int,
                 truncation_order: int):
        clean = {}
        for e, c in coefficients.items():
            c = _as_fraction(c)
            if c != 0:
                if e >= truncation_order:
                    raise TruncationError(
                        f"exponent {e} at or above truncation "
                        f"{truncation_order}")
                if e < min_exponent:
                    raise TruncationError(
                        f"exponent {e} below stated min {min_exponent}")
                clean[e] = c
        super().__init__(clean, min_exponent, truncation_order)

    @staticmethod
    def from_terms(terms, truncation_order: int,
                   min_exponent=None) -> "TruncatedLaurent":
        terms = {e: _as_fraction(c) for e, c in dict(terms).items() if c != 0}
        if min_exponent is None:
            min_exponent = min(terms) if terms else 0
        return TruncatedLaurent(terms, min_exponent, truncation_order)

    @staticmethod
    def zero(truncation_order: int) -> "TruncatedLaurent":
        return TruncatedLaurent({}, 0, truncation_order)

    @staticmethod
    def monomial(e: int, truncation_order: int, c=1) -> "TruncatedLaurent":
        return TruncatedLaurent({e: _as_fraction(c)}, min(e, 0),
                                truncation_order)

    def coeff(self, e: int) -> Fraction:
        if e >= self.truncation_order:
            raise TruncationError(f"coefficient of t^{e} unknown at "
                                  f"truncation {self.truncation_order}")
        return self.coefficients.get(e, Fraction(0))

    def truncated(self, order: int) -> "TruncatedLaurent":
        order = min(order, self.truncation_order)
        return TruncatedLaurent(
            {e: c for e, c in self.coefficients.items() if e < order},
            self.min_exponent, order)

    def add(self, other: "TruncatedLaurent") -> "TruncatedLaurent":
        n = min(self.truncation_order, other.truncation_order)
        out = add_into(dict(self.truncated(n).coefficients),
                       other.truncated(n).coefficients)
        return TruncatedLaurent(out, min(self.min_exponent,
                                         other.min_exponent), n)

    def scaled(self, c) -> "TruncatedLaurent":
        c = _as_fraction(c)
        return TruncatedLaurent(
            {e: c * v for e, v in self.coefficients.items()} if c else {},
            self.min_exponent, self.truncation_order)

    def mul(self, other: "TruncatedLaurent") -> "TruncatedLaurent":
        # product known through exponent < min over the cross terms
        n = min(self.truncation_order + other.min_exponent,
                other.truncation_order + self.min_exponent)
        out = {}
        for e1, c1 in self.coefficients.items():
            add_into(out, {e1 + e2: c2 for e2, c2 in other.coefficients.items()
                           if e1 + e2 < n}, c1)
        return TruncatedLaurent(out, self.min_exponent + other.min_exponent, n)

    def power(self, k: int) -> "TruncatedLaurent":
        if k < 0:
            return self.inverse().power(-k)
        out = TruncatedLaurent.monomial(0, self.truncation_order)
        for _ in range(k):
            out = out.mul(self)
        return out

    def inverse(self) -> "TruncatedLaurent":
        """Inverse of a series with invertible leading term."""
        if not self.coefficients:
            raise ZeroDivisionError("inverting the zero series")
        m = min(self.coefficients)
        lead = self.coefficients[m]
        # self = lead*t^m * (1 + h), h of strictly positive valuation
        rel_order = self.truncation_order - m
        h = {e - m: c / lead for e, c in self.coefficients.items() if e != m}
        inv = {0: Fraction(1)}
        # geometric series sum (-h)^k, valuation of h >= 1 so k < rel_order
        term = {0: Fraction(1)}
        for _ in range(1, rel_order):
            nxt = {}
            for e1, c1 in term.items():
                add_into(nxt, {e1 + e2: c2 for e2, c2 in h.items()
                               if e1 + e2 < rel_order}, -c1)
            term = nxt
            if not term:
                break
            add_into(inv, term)
        out = {e - m: c / lead for e, c in inv.items()}
        return TruncatedLaurent(out, min(-m, 0), rel_order - m)

    def derivative(self) -> "TruncatedLaurent":
        out = {e - 1: Fraction(e) * c
               for e, c in self.coefficients.items() if e != 0}
        return TruncatedLaurent(out, self.min_exponent - 1,
                                self.truncation_order - 1)

    def substitute(self, g: "TruncatedLaurent") -> "TruncatedLaurent":
        """self(g(t)) for g of valuation exactly 1."""
        if not g.coefficients or min(g.coefficients) != 1:
            raise TruncationError("substitution needs a series of valuation 1")
        n = min(self.truncation_order, g.truncation_order)
        if self.min_exponent < 0:
            ginv = g.truncated(n).inverse()
            neg = TruncatedLaurent.zero(ginv.truncation_order)
            pos_part = {}
            for e, c in self.coefficients.items():
                if e < 0:
                    neg = neg.add(ginv.power(-e).scaled(c))
                else:
                    pos_part[e] = c
            pos = TruncatedLaurent.from_terms(pos_part, self.truncation_order)
            return neg.add(pos.substitute(g))
        # positive part: Horner from the top known exponent; coefficients
        # at exponents >= n only feed exponents >= n (g has valuation 1),
        # so capping the result at n keeps the precision claim honest
        out = TruncatedLaurent.zero(n)
        gt = g.truncated(n)
        for e in range(n - 1, -1, -1):
            out = out.mul(gt)
            c = self.coefficients.get(e)
            if c:
                out = out.add(TruncatedLaurent.monomial(0, n, c))
        return out.truncated(n)

    def is_zero(self) -> bool:
        return not self.coefficients

    def __str__(self):
        if not self.coefficients:
            return "0"
        parts = []
        for e in sorted(self.coefficients):
            c = self.coefficients[e]
            if e == 0:
                parts.append(f"{c}")
            elif e == 1:
                parts.append(f"{c}*t")
            else:
                parts.append(f"{c}*t^{e}")
        return " + ".join(parts)


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

    @staticmethod
    def identity(truncation_order: int) -> "DiscAuto":
        return DiscAuto((Fraction(1),) + (Fraction(0),) *
                        (truncation_order - 2), truncation_order)

    @staticmethod
    def scaling(a, truncation_order: int) -> "DiscAuto":
        return DiscAuto((_as_fraction(a),) + (Fraction(0),) *
                        (truncation_order - 2), truncation_order)

    def a(self, i: int) -> Fraction:
        return self.coefficients[i - 1]

    def to_series(self) -> TruncatedLaurent:
        return TruncatedLaurent.from_terms(
            {i + 1: c for i, c in enumerate(self.coefficients)},
            self.truncation_order, min_exponent=1)

    def then(self, outer: "DiscAuto") -> "DiscAuto":
        """outer(self(t)) as an automorphism."""
        s = outer.to_series().substitute(self.to_series())
        n = s.truncation_order
        return DiscAuto(tuple(s.coeff(i) for i in range(1, n)), n)


def compose(f: TruncatedLaurent, g: DiscAuto) -> TruncatedLaurent:
    """Coefficients of f(g(t)) through the common truncation order."""
    return f.substitute(g.to_series())


def compose_auto(f: DiscAuto, g: DiscAuto) -> DiscAuto:
    """(f o g)(t) = f(g(t))."""
    return g.then(f)


def invert_auto(g: DiscAuto) -> DiscAuto:
    """Compositional inverse, coefficient-by-coefficient triangular solve."""
    n = g.truncation_order
    a1 = g.a(1)
    inv = [Fraction(1) / a1] + [Fraction(0)] * (n - 2)
    for k in range(2, n):
        # coefficient of t^k in g(inv(t)) with inv_k unknown enters as a1*inv_k
        partial = DiscAuto(tuple(inv), n)
        s = g.to_series().substitute(partial.to_series())
        inv[k - 1] = -s.coeff(k) / a1
    return DiscAuto(tuple(inv), n)


class DiscForm(Record):
    """A 1-form on the punctured disc: series * dt or series * dt/t."""

    __slots__ = _fields = ("series", "basis")

    def __init__(self, series: TruncatedLaurent, basis: str):
        if basis not in ("dt", "dt/t"):
            raise ValueError("basis must be 'dt' or 'dt/t'")
        super().__init__(series, basis)

    def in_dt(self) -> "DiscForm":
        if self.basis == "dt":
            return self
        s = self.series
        shifted = TruncatedLaurent(
            {e - 1: c for e, c in s.coefficients.items()},
            s.min_exponent - 1, s.truncation_order - 1)
        return DiscForm(shifted, "dt")

    def in_dt_over_t(self) -> "DiscForm":
        if self.basis == "dt/t":
            return self
        s = self.series
        shifted = TruncatedLaurent(
            {e + 1: c for e, c in s.coefficients.items()},
            s.min_exponent + 1, s.truncation_order + 1)
        return DiscForm(shifted, "dt/t")

    def add(self, other: "DiscForm") -> "DiscForm":
        a, b = self.in_dt(), other.in_dt()
        return DiscForm(a.series.add(b.series), "dt")

    def scaled(self, c) -> "DiscForm":
        return DiscForm(self.series.scaled(c), self.basis)

    def is_zero(self) -> bool:
        return self.series.is_zero()


def residue(omega: DiscForm) -> Fraction:
    """Coefficient of t^-1 dt."""
    return omega.in_dt().series.coefficients.get(-1, Fraction(0))


def pullback_form(omega: DiscForm, g: DiscAuto) -> DiscForm:
    """Substitute t = g(s): f(t)dt -> f(g(s)) g'(s) ds."""
    f = omega.in_dt().series
    sub = f.substitute(g.to_series())
    gd = g.to_series().derivative()
    return DiscForm(sub.mul(gd), "dt")


def invert_variable(omega: DiscForm) -> DiscForm:
    """Exact pullback of a finite Laurent form under t -> 1/t.

    c*t^m dt maps to -c*t^(-m-2) dt.  Involutive.  Unlike pullback_form
    this substitution is not a disc automorphism; it is exact on finite
    Laurent forms, so the result keeps the input's truncation order with
    min_exponent adjusted.
    """
    f = omega.in_dt().series
    out = {-m - 2: -c for m, c in f.coefficients.items()}
    if out:
        lo, hi = min(out), max(out)
    else:
        lo, hi = 0, -1
    return DiscForm(
        TruncatedLaurent(out, min(lo, 0), max(hi + 1,
                                              f.truncation_order)), "dt")
