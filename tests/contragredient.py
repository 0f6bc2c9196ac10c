"""The contragredient pairing on the graded dual of V, for the tests only.

No command pairs dual vectors, so the package keeps just the involution
(``vacore.theta``); acceptance criterion 9 and ``test_operators`` check it
through this pairing.
"""

from fractions import Fraction

from logblocks.vacore import (FockVector, LieElement, VertexAlgebraInstance,
                              theta)


def contragredient_pair(V: VertexAlgebraInstance, psi: FockVector,
                        x: LieElement, u: FockVector) -> Fraction:
    """<A_[n] psi, u> = <psi, theta(A_[n]) u> on the graded dual.

    psi is a dual vector written in the dual partition basis of its degree;
    the pairing is the coefficient pairing <p*, q> = delta_{p,q}.
    """
    acted = theta(x, V).apply(V, u)
    total = Fraction(0)
    for p, c in psi.terms.items():
        total += c * acted.terms.get(p, Fraction(0))
    return total
