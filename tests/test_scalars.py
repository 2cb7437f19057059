import random
from fractions import Fraction

import pytest

from k3lab import GF, QQ, BadPrime, FieldMismatch, projective_points
from k3lab.scalars import is_odd_prime


def test_field_cache_and_validation():
    assert GF(11) is GF(11)
    for bad in (2, 4, 9, 1, 2**31 + 11):
        with pytest.raises(BadPrime):
            GF(bad)


def test_field_checks_the_bound_before_primality(monkeypatch):
    # Miller-Rabin on a 4000-digit p takes seconds; the bound alone refuses it
    from k3lab import scalars

    def never(p):
        raise AssertionError(f"primality test run on {p}")

    monkeypatch.setattr(scalars, "is_odd_prime", never)
    for bad in (2**31, 2**31 + 11, 10**4000 + 1):
        with pytest.raises(BadPrime, match="is not an odd prime below 2"):
            GF(bad)


def test_is_odd_prime():
    primes = {3, 5, 7, 11, 13, 101, 2147483629}
    for p in primes:
        assert is_odd_prime(p)
    for n in (2, 9, 15, 21, 1023, 2147483629 * 3):
        assert not is_odd_prime(n) or n in primes


def test_gf_arithmetic():
    F = GF(7)
    a, b = F.element(3), F.element(5)
    assert (a + b).v == 1
    assert (a - b).v == 5
    assert (a * b).v == 1
    assert (a / b).v == (3 * pow(5, 5, 7)) % 7
    assert (-a).v == 4
    assert (4 - a).v == 1 and (2 / b).v == 2 * pow(5, 5, 7) % 7  # reflected operands
    assert a**6 == 1 and a**-1 * a == 1
    assert a == 3 and a == 10 and a != 4


def test_gf_mixed_fields_rejected():
    with pytest.raises(FieldMismatch):
        GF(7).element(1) + GF(11).element(1)


def test_gf_fraction_coercion():
    F = GF(7)
    assert F.coerce(Fraction(1, 2)) == F.element(4)
    with pytest.raises(BadPrime):
        F.coerce(Fraction(1, 7))


def test_legendre_and_sqrt():
    rng = random.Random(0)
    # Tonelli-Shanks with p - 1 = q * 2^s for s up to 27: 65537 = 2^16 + 1 and
    # 2013265921 = 15 * 2^27 + 1
    for p in (3, 5, 7, 11, 13, 10007, 1000003, 65537, 2013265921):
        F = GF(p)
        squares = {pow(x, 2, p) for x in range(1, p)} if p < 2000 else None
        for _ in range(25):
            a = F.element(rng.randrange(p))
            chi = F.legendre(a)
            if squares is not None:
                assert chi == (0 if a.v == 0 else (1 if a.v in squares else -1))
            s = F.sqrt(a)
            if chi >= 0:
                assert s is not None and s * s == a
            else:
                assert s is None


def test_rationals_canonical():
    x = QQ.coerce("4/6")
    assert x == Fraction(2, 3)
    assert x.denominator == 3 and x.denominator > 0
    assert QQ.coerce(-2) == Fraction(-2)


def test_projective_points_counts():
    for p, dim in ((3, 1), (5, 1), (3, 2), (5, 2), (3, 3)):
        pts = list(projective_points(GF(p), dim))
        expected = sum(p**k for k in range(dim + 1))
        assert len(pts) == expected
        assert len({tuple(c.v for c in pt) for pt in pts}) == expected
        for pt in pts:
            lead = next(c for c in pt if c)
            assert lead == 1
