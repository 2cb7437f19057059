"""Binary quartic forms, their invariants, and the j-invariant of tau^2 = f.

A binary quartic a*x^4 + b*x^3*y + c*x^2*y^2 + d*x*y^3 + e*y^4 carries the
classical invariants

    I = 12ae - 3bd + c^2          (degree 2)
    J = 72ace + 9bcd - 27ad^2 - 27b^2e - 2c^3   (degree 3)

with discriminant Delta = (4I^3 - J^2)/27, zero exactly when the form has a
repeated root in P^1.  The division is exact over ZZ, so over GF(p) Delta
comes from the integer lifts of the coefficients and is defined in every
odd characteristic; I, J and j are refused in characteristic 3.  When
Delta != 0 the double cover tau^2 = f(x, y) is a smooth genus-one curve
with

    j = 1728 * 4I^3 / (4I^3 - J^2),

which agrees with the cross-ratio expression 256(L^2-L+1)^3 / (L^2(L-1)^2)
for any ordering of the four roots.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .errors import BadPrime, DegenerateBranch, PreconditionError
from .poly import MultiPoly
from .scalars import QQ, Immutable


class BinaryQuartic(Immutable):
    """The five exact coefficients (a, b, c, d, e); all-zero is forbidden."""

    __slots__ = ("field", "coeffs", "_invariants")

    def __init__(self, coeffs, field=QQ):
        cs = tuple(field.coerce(c) for c in coeffs)
        if len(cs) != 5:
            raise PreconditionError("a binary quartic has five coefficients")
        if not any(cs):
            raise PreconditionError("the zero quartic is forbidden")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", cs)
        object.__setattr__(self, "_invariants", None)

    def to_poly(self) -> MultiPoly:
        return MultiPoly(self.field, 2,
                         {(4 - k, k): c for k, c in enumerate(self.coeffs)})

    def _lifted_invariants(self):
        """(I, J, Delta), computed once (the quartic is immutable) on ints:
        over QQ on the coefficients times the lcm D of their denominators,
        which scales I, J and Delta by D^2, D^3 and D^6; over GF(p) on the
        integer lifts of the coefficients (D = 1), then reduced."""
        if self._invariants is None:
            (cs,), scale = linalg.int_rows(self.field, [self.coeffs])
            a, b, c, d, e = cs
            i_inv = 12 * a * e - 3 * b * d + c * c
            j_inv = (72 * a * c * e + 9 * b * c * d - 27 * a * d * d
                     - 27 * b * b * e - 2 * c**3)
            delta = (4 * i_inv**3 - j_inv**2) // 27  # exact on ints
            invariants = ((i_inv, j_inv, delta) if scale == 1 else
                          (Fraction(i_inv, scale**2), Fraction(j_inv, scale**3),
                           Fraction(delta, scale**6)))
            object.__setattr__(self, "_invariants",
                               tuple(map(self.field.coerce, invariants)))
        return self._invariants

    def invariants(self):
        """The triple (I, J, Delta); BadPrime in characteristic 3."""
        if self.field.char == 3:
            raise BadPrime("quartic invariants are undefined in characteristic 3")
        return self._lifted_invariants()

    def discriminant(self):
        """Delta, defined in characteristic 3 as well."""
        return self._lifted_invariants()[2]

    def is_squarefree(self) -> bool:
        """True when the four roots in P^1 are distinct."""
        return bool(self.discriminant())

    def j_invariant(self):
        i_inv, j_inv, delta = self.invariants()
        if not delta:
            raise DegenerateBranch("repeated branch point: j-invariant undefined")
        return 1728 * 4 * i_inv**3 / (4 * i_inv**3 - j_inv**2)
