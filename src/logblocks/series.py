"""Truncated Laurent series and differentials on the punctured disc: the
values that restricting a global form to a disc produces and that the
residue pairing reads.

Every value carries an explicit truncation order N: exponents >= N are
unknown.  Operations propagate the minimum truncation of their inputs and
never silently extend precision.

The group of disc coordinate changes lives in ``coordact`` (``DiscAuto``);
no solve composes coordinate changes or multiplies series, so that
arithmetic is kept with the tests.
"""

from __future__ import annotations

from .exactalg import Record, nonzero


class TruncationError(ValueError):
    """Requested data lies outside the known truncation window."""


class TruncatedLaurent(Record):
    """Laurent series sum_{m<=e<N} c_e t^e with exact rational coefficients."""

    __slots__ = _fields = ("coefficients", "min_exponent", "truncation_order")

    def __init__(self, coefficients: dict, min_exponent: int,
                 truncation_order: int):
        coefficients = nonzero(coefficients)
        for e in coefficients:
            if e >= truncation_order:
                raise TruncationError(
                    f"exponent {e} at or above truncation {truncation_order}")
            if e < min_exponent:
                raise TruncationError(
                    f"exponent {e} below stated min {min_exponent}")
        super().__init__(coefficients, min_exponent, truncation_order)

    @staticmethod
    def from_terms(terms: dict, truncation_order: int) -> "TruncatedLaurent":
        """The series of terms, stating the least exponent of a nonzero
        term as min_exponent (0 for the zero series)."""
        terms = nonzero(terms)
        return TruncatedLaurent(terms, min(terms, default=0), truncation_order)


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


def invert_variable(omega: DiscForm) -> DiscForm:
    """Exact pullback of a finite Laurent form under t -> 1/t.

    c*t^m dt maps to -c*t^(-m-2) dt.  Involutive.  This substitution is
    not a disc coordinate change, whose pullback would be known only
    through the truncation; it is exact on finite Laurent forms, so the
    result keeps the input's truncation order with min_exponent adjusted.
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
