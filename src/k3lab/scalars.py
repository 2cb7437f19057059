"""Exact scalar arithmetic: arbitrary-precision rationals and odd prime fields.

Two coefficient domains are supported everywhere in the package:

* ``QQ`` -- the rationals, represented by :class:`fractions.Fraction`
  (always in lowest terms with positive denominator);
* ``GF(p)`` -- the prime field of an odd prime ``p < 2**31``, whose
  elements are canonical representatives in ``[0, p)``.

Characteristic 2 is rejected throughout: the Gram-matrix convention used
by the quadratic-form code needs to halve cross terms.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import BadPrime, FieldMismatch

_MAX_PRIME = 2**31


def is_odd_prime(p: int) -> bool:
    """Deterministic Miller-Rabin, valid for every p < 2**31."""
    if not isinstance(p, int) or p < 3 or p % 2 == 0:
        return False
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7):
        if a % p == 0:
            continue
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class RationalField:
    """The field of rational numbers (a stateless singleton, ``QQ``)."""

    char = 0

    @property
    def zero(self) -> Fraction:
        return Fraction(0)

    @property
    def one(self) -> Fraction:
        return Fraction(1)

    def coerce(self, x) -> Fraction:
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, str):
            return Fraction(x)
        raise FieldMismatch(f"cannot coerce {x!r} into QQ")

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


QQ = RationalField()


class GFElement:
    """An element of a prime field, stored as its representative in [0, p)."""

    __slots__ = ("field", "v")

    def __init__(self, field: "PrimeField", v: int):
        self.field = field
        self.v = v % field.p

    def _lift(self, other):
        if isinstance(other, GFElement):
            if other.field is not self.field:
                raise FieldMismatch(f"mixed fields GF({self.field.p}) and GF({other.field.p})")
            return other.v
        if isinstance(other, int):
            return other % self.field.p
        return None

    def __add__(self, other):
        w = self._lift(other)
        if w is None:
            return NotImplemented
        return GFElement(self.field, self.v + w)

    __radd__ = __add__

    def __sub__(self, other):
        w = self._lift(other)
        if w is None:
            return NotImplemented
        return GFElement(self.field, self.v - w)

    def __rsub__(self, other):
        w = self._lift(other)
        if w is None:
            return NotImplemented
        return GFElement(self.field, w - self.v)

    def __mul__(self, other):
        w = self._lift(other)
        if w is None:
            return NotImplemented
        return GFElement(self.field, self.v * w)

    __rmul__ = __mul__

    def __truediv__(self, other):
        w = self._lift(other)
        if w is None:
            return NotImplemented
        return GFElement(self.field, self.v * _inv_mod(w, self.field.p))

    def __rtruediv__(self, other):
        w = self._lift(other)
        if w is None:
            return NotImplemented
        return GFElement(self.field, w * _inv_mod(self.v, self.field.p))

    def __pow__(self, e: int):
        if e < 0:
            return GFElement(self.field, pow(_inv_mod(self.v, self.field.p), -e, self.field.p))
        return GFElement(self.field, pow(self.v, e, self.field.p))

    def __neg__(self):
        return GFElement(self.field, -self.v)

    def __bool__(self):
        return self.v != 0

    def __eq__(self, other):
        if isinstance(other, GFElement):
            return self.field is other.field and self.v == other.v
        if isinstance(other, int):
            return self.v == other % self.field.p
        return NotImplemented

    def __hash__(self):
        return hash((self.field.p, self.v))

    def __repr__(self):
        return f"GF({self.field.p})({self.v})"


def _inv_mod(v: int, p: int) -> int:
    v %= p
    if v == 0:
        raise ZeroDivisionError(f"division by zero in GF({p})")
    return pow(v, -1, p)


def chi_mod(a: int, p: int) -> int:
    """The quadratic character of the int a mod p, by Euler's criterion:
    1 for nonzero squares, -1 for non-squares, 0 for zero."""
    a %= p
    if not a:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def sqrt_mod(a: int, p: int):
    """An int square root of a mod p in [0, p), or None when a is a
    non-square (Tonelli-Shanks)."""
    v = a % p
    if v == 0:
        return 0
    if chi_mod(v, p) != 1:
        return None
    if p % 4 == 3:
        return pow(v, (p + 1) // 4, p)
    # Tonelli-Shanks for p = 1 mod 4.
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(v, q, p), pow(v, (q + 1) // 2, p)
    while t != 1:
        t2, i = t * t % p, 1
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


class PrimeField:
    """The prime field F_p for an odd prime p < 2**31.  Instances are cached."""

    _cache: dict = {}

    def __new__(cls, p: int):
        inst = cls._cache.get(p)
        if inst is None:
            # the bound first: Miller-Rabin on a 4000-digit p takes seconds
            if not (isinstance(p, int) and p < _MAX_PRIME and is_odd_prime(p)):
                raise BadPrime(f"{p} is not an odd prime below 2**31")
            inst = super().__new__(cls)
            inst.p = p
            inst.char = p
            cls._cache[p] = inst
        return inst

    @property
    def zero(self) -> GFElement:
        return GFElement(self, 0)

    @property
    def one(self) -> GFElement:
        return GFElement(self, 1)

    def element(self, v: int) -> GFElement:
        return GFElement(self, v)

    def coerce(self, x) -> GFElement:
        if isinstance(x, GFElement):
            if x.field is not self:
                raise FieldMismatch(f"element of GF({x.field.p}) used in GF({self.p})")
            return x
        if isinstance(x, int):
            return GFElement(self, x)
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise BadPrime(f"denominator of {x} vanishes mod {self.p}")
            return GFElement(self, x.numerator * _inv_mod(x.denominator, self.p))
        if isinstance(x, str):
            return self.coerce(Fraction(x))
        raise FieldMismatch(f"cannot coerce {x!r} into GF({self.p})")

    def legendre(self, a) -> int:
        """Quadratic character: 1 for nonzero squares, -1 for non-squares, 0 for zero."""
        return chi_mod(self.coerce(a).v, self.p)

    def sqrt(self, a):
        """A square root of ``a``, or None when ``a`` is a non-square (Tonelli-Shanks)."""
        r = sqrt_mod(self.coerce(a).v, self.p)
        return None if r is None else GFElement(self, r)

    def __repr__(self):
        return f"GF({self.p})"


def GF(p: int) -> PrimeField:
    return PrimeField(p)


def projective_points(field: PrimeField, dim: int):
    """Normalized representatives of P^dim(F_p): first nonzero coordinate is 1.

    Deterministic order: points with leading coordinate at position k come
    before those leading at k+1, later coordinates swept lexicographically.
    """
    n = dim + 1
    for lead in range(n):
        free = n - lead - 1
        for idx in range(field.p**free):
            coords = [field.zero] * lead + [field.one]
            rest, m = [], idx
            for _ in range(free):
                rest.append(field.element(m % field.p))
                m //= field.p
            yield tuple(coords + rest)
