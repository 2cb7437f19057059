import random
from fractions import Fraction

import pytest

from k3lab import GF, QQ, PreconditionError
from oracles import (uni_deriv, uni_divmod, uni_eval, uni_gcd,
                     uni_is_squarefree, uni_resultant, uni_trim)


def test_gcd_example():
    # gcd(x^2 - 1, x - 1) = x - 1 (monic)
    g = uni_gcd(QQ, (-1, 0, 1), (-1, 1))
    assert g == (Fraction(-1), Fraction(1))


def test_gcd_monic_normalization():
    g = uni_gcd(QQ, (0, 0, 2), (0, 4))  # gcd(2x^2, 4x) = x
    assert g == (Fraction(0), Fraction(1))


def test_gcd_zero_zero_rejected():
    with pytest.raises(PreconditionError):
        uni_gcd(QQ, (), (0,))


def test_resultant_linear_example():
    # f = x - 2, g = x - 3 with f-rows-first Sylvester convention
    assert uni_resultant(QQ, (-2, 1), (-3, 1)) == -1


def test_resultant_vanishes_iff_common_root():
    rng = random.Random(20)
    for _ in range(40):
        r1, r2, r3 = (rng.randint(-6, 6) for _ in range(3))
        f = _from_roots((r1, r2))
        g = _from_roots((r3,))
        res = uni_resultant(QQ, f, g)
        assert (res == 0) == (r3 in (r1, r2))


def test_resultant_product_formula():
    # res(f, g) = lc(f)^deg g * prod g(root_i) for monic split f
    rng = random.Random(21)
    for _ in range(25):
        roots = [rng.randint(-5, 5) for _ in range(3)]
        g = tuple(Fraction(c) for c in (rng.randint(-4, 4), rng.randint(-4, 4), 1))
        f = _from_roots(roots)
        expected = Fraction(1)
        for r in roots:
            expected *= uni_eval(QQ, g, r)
        assert uni_resultant(QQ, f, g) == expected


def test_squarefree_examples():
    # x^2 (x - 1) is not squarefree
    assert not uni_is_squarefree(QQ, (0, 0, -1, 1))
    assert uni_is_squarefree(QQ, (-1, 0, 1))
    assert uni_is_squarefree(QQ, (5,))


def test_divmod():
    f = (Fraction(1), Fraction(0), Fraction(1))  # x^2 + 1
    g = (Fraction(1), Fraction(1))  # x + 1
    q, r = uni_divmod(QQ, f, g)
    assert q == (Fraction(-1), Fraction(1)) and r == (Fraction(2),)


def test_deriv_and_eval_over_gf():
    F = GF(7)
    f = uni_trim(F, (1, 2, 3))
    assert uni_deriv(F, f) == (F.element(2), F.element(6))
    assert uni_eval(F, f, 2) == (1 + 4 + 12) % 7


def _from_roots(roots):
    poly = [Fraction(1)]
    for r in roots:
        poly = [Fraction(0)] + poly
        for i in range(len(poly) - 1):
            poly[i] -= r * poly[i + 1]
    return tuple(poly)


def test_from_roots_helper():
    assert _from_roots((2,)) == (Fraction(-2), Fraction(1))
    assert _from_roots((1, -1)) == (Fraction(-1), Fraction(0), Fraction(1))
