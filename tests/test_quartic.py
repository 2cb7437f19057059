import random
from fractions import Fraction
from itertools import permutations

import pytest

from k3lab import (QQ, BinaryQuartic, DegenerateBranch, MultiPoly,
                   PreconditionError)
from oracles import (cross_ratio_j, fraction_quartic_invariants, quartic_from_roots,
                     substitute, uni_deriv, uni_gcd, uni_trim)


def test_harmonic_quartic_invariants():
    # x^3 y - x y^3: roots {0, inf, 1, -1}
    f = BinaryQuartic([0, 1, 0, -1, 0])
    i_inv, j_inv, delta = f.invariants()
    assert (i_inv, j_inv, delta) == (3, 0, 4)
    assert f.j_invariant() == 1728


def test_double_root_degenerate():
    f = BinaryQuartic([1, 0, -1, 0, 0])  # x^4 - x^2 y^2
    i_inv, j_inv, delta = f.invariants()
    assert delta == 0
    assert 4 * i_inv**3 == j_inv**2 == 4
    with pytest.raises(DegenerateBranch):
        f.j_invariant()


def test_zero_quartic_rejected():
    with pytest.raises(PreconditionError):
        BinaryQuartic([0, 0, 0, 0, 0])


def test_j_of_consecutive_roots():
    # f = prod (x + a_i y), a = (0,1,2,3): j = j(lambda = 4/3)
    f = BinaryQuartic(quartic_from_roots((0, -1, -2, -3)))
    lam = Fraction(4, 3)
    expected = 256 * (lam**2 - lam + 1) ** 3 / (lam**2 * (lam - 1) ** 2)
    assert f.j_invariant() == expected
    assert expected == Fraction(35152, 9)


def test_j_matches_cross_ratio_100_random_split():
    rng = random.Random(30)
    done = 0
    while done < 100:
        roots = rng.sample(range(-12, 13), 4)
        scale = rng.choice((1, 2, -3, Fraction(1, 2)))
        f = BinaryQuartic(quartic_from_roots(roots, scale))
        assert f.j_invariant() == cross_ratio_j(roots)
        done += 1


def test_j_independent_of_root_ordering():
    rng = random.Random(31)
    for _ in range(10):
        roots = rng.sample(range(-9, 10), 4)
        values = {cross_ratio_j(perm) for perm in permutations(roots)}
        assert len(values) == 1


def test_delta_zero_iff_gcd_nonconstant():
    rng = random.Random(32)
    checked_sq = checked_rep = 0
    while checked_sq < 50 or checked_rep < 50:
        if rng.random() < 0.5:
            roots = rng.sample(range(-10, 11), 4)
        else:
            base = rng.sample(range(-10, 11), 3)
            roots = base + [base[0]]
        f = BinaryQuartic(quartic_from_roots(roots))
        coeffs = uni_trim(QQ, f.coeffs[::-1])  # f(t, 1), ascending
        g = uni_gcd(QQ, coeffs, uni_deriv(QQ, coeffs))
        squarefree_by_gcd = len(g) == 1
        assert f.is_squarefree() == squarefree_by_gcd
        if squarefree_by_gcd:
            checked_sq += 1
        else:
            checked_rep += 1


def test_invariants_under_unimodular_substitution():
    rng = random.Random(33)
    count = 0
    while count < 100:
        a, b, c = (rng.randint(-4, 4) for _ in range(3))
        # unimodular [[a, b], [g, d]] with a*d - b*g = 1
        found = None
        for g in range(-4, 5):
            for d in range(-4, 5):
                if a * d - b * g == 1:
                    found = (g, d)
                    break
            if found:
                break
        if not found:
            continue
        g, d = found
        f = BinaryQuartic(quartic_from_roots(rng.sample(range(-8, 9), 4)))
        sub = _substituted(f, a, b, g, d)
        i0, j0, _ = f.invariants()
        i1, j1, _ = sub.invariants()
        assert (i0, j0) == (i1, j1)
        count += 1


def _substituted(f, a, b, g, d):
    """f(a x + b y, g x + d y) as a BinaryQuartic."""
    p = f.to_poly()
    x = MultiPoly.var(QQ, 2, 0)
    y = MultiPoly.var(QQ, 2, 1)
    q = substitute(p, {0: a * x + b * y, 1: g * x + d * y})
    return BinaryQuartic([q.coeff((4 - k, k)) for k in range(5)])


def test_invariants_reject_characteristic_three():
    from k3lab import BadPrime, GF

    f = BinaryQuartic([1, 0, 0, 0, 1], GF(3))
    with pytest.raises(BadPrime):
        f.invariants()


def test_discriminant_in_every_odd_characteristic():
    # 4I^3 - J^2 = 27 Delta holds over ZZ, so over GF(p) Delta is the
    # reduction of the discriminant of any integer lift, in characteristic 3
    # too; zero exactly when f has a repeated root in P^1, which is at
    # infinity when both leading coefficients vanish
    from k3lab import BadPrime, GF

    rng = random.Random(34)
    for p in (3, 5, 7):
        gf = GF(p)
        seen = set()
        for _ in range(150):
            coeffs = [rng.randint(-9, 9) for _ in range(5)]
            if rng.random() < 0.2:
                coeffs[0] = coeffs[1] = 0
            if not any(c % p for c in coeffs):
                continue
            f = BinaryQuartic(coeffs, gf)
            assert f.discriminant() == gf.coerce(BinaryQuartic(coeffs).discriminant())
            a, b = f.coeffs[:2]
            t = uni_trim(gf, f.coeffs[::-1])  # f(t, 1), ascending
            squarefree = bool(a or b) and (
                len(t) == 1 or len(uni_gcd(gf, t, uni_deriv(gf, t))) == 1)
            assert f.is_squarefree() == squarefree
            seen.add((squarefree, bool(a or b)))
        assert seen == {(True, True), (False, True), (False, False)}, p
    f = BinaryQuartic([0, 1, 0, -1, 0], GF(3))
    assert f.is_squarefree()
    with pytest.raises(BadPrime):
        f.j_invariant()


def test_invariants_against_fraction_oracle():
    # the int route scales by the lcm D of the denominators and divides by
    # D^2, D^3 and D^6 at the end; over GF(p) it runs on the lifts
    from k3lab import GF

    rng = random.Random(35)
    fields = [QQ] + [GF(p) for p in (3, 5, 7, 13, 101)]
    checked = {}
    while min(checked.get(F, 0) for F in fields) < 60:
        F = rng.choice(fields)
        dens = rng.choice(((1,), (1, 2, 3), (1, 4, 9, 25), (7, 12, 35)))
        coeffs = [Fraction(rng.randint(-40, 40), rng.choice(dens)) if rng.random() < 0.8
                  else Fraction(0) for _ in range(5)]
        if F.char:
            if any(x.denominator % F.char == 0 for x in coeffs):
                continue
            coeffs = [F.coerce(x) for x in coeffs]
        if not any(coeffs):
            continue
        f = BinaryQuartic(coeffs, F)
        want = fraction_quartic_invariants(f)
        assert f.discriminant() == want[2]
        if F.char != 3:
            assert f.invariants() == want
        checked[F] = checked.get(F, 0) + 1
    # a square factor: Delta = 0, over QQ with denominators and mod p
    f = BinaryQuartic(quartic_from_roots((Fraction(1, 2), Fraction(1, 2), 3, Fraction(-2, 7)),
                                         Fraction(5, 6)))
    assert f.discriminant() == fraction_quartic_invariants(f)[2] == 0
