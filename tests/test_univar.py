import random
from fractions import Fraction
from itertools import product

import pytest

from k3lab import GF, QQ, MultiPoly, PreconditionError, poly_from_text, projective_points, univar
from oracles import (deriv, substitute, uni_degree, uni_deriv, uni_divmod, uni_eval, uni_gcd,
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


# -- the int kernel k3lab.univar against the boxed oracles ----------------------
# The kernel's polynomials are descending int lists, the oracles' ascending
# tuples of scalars; ``boxed`` converts.  The hand examples above run again
# here as fixed inputs, reduced mod each prime.

KERNEL_PRIMES = (3, 13, 2**31 - 1)
# (a, b) in the kernel's format: gcd(x^2 - 1, x - 1), gcd(2x^2, 4x),
# x^2 + 1 against x + 1, and 3x^2 + 2x + 1 (whose derivative is 6x + 2)
HAND_PAIRS = [([1, 0, -1], [1, -1]), ([2, 0, 0], [4, 0]), ([1, 0, 1], [1, 1]),
              ([3, 2, 1], [6, 2])]


def boxed(F, a):
    """The descending int list a as the oracles' ascending tuple over F."""
    return uni_trim(F, a[::-1])


def descending(t):
    """An oracle tuple over GF(p) as a descending list of ints in [0, p)."""
    return [c.v for c in reversed(t)]


def times(a, b):
    """The product of two descending int lists."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def random_poly(rng, p, max_deg=6):
    """A descending list of unreduced ints (some negative, some >= p) with up
    to two leading zeros; zero polynomials ([] or zeros) come up too."""
    n = rng.randint(0, max_deg + 1)
    a = [rng.choice((0, rng.randrange(-p, 2 * p), rng.randrange(1, p))) for _ in range(n)]
    return [0] * rng.randint(0, 2) + a


def kernel_pairs(p):
    """Seeded (a, b): random pairs, pairs with a common factor, equal
    arguments, zero polynomials, and the hand examples."""
    rng = random.Random(p)
    pairs = list(HAND_PAIRS) + [([], []), ([0, 0], []), ([], [0]), ([0, 5], [0, 0, 7])]
    for _ in range(60):
        a, b, u = (random_poly(rng, p, 4) for _ in range(3))
        pairs += [(a, b), (times(a, u), times(b, u)), (a, a), (a, []), ([0], b),
                  (times(u, u), times(u, [2, 1]))]
    return pairs


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_kernel_trim_and_deriv_against_oracles(p):
    F = GF(p)
    for a, b in kernel_pairs(p):
        for f in (a, b):
            assert univar.trim(f, p) == descending(uni_trim(F, f[::-1]))
            assert boxed(F, univar.deriv(f)) == uni_deriv(F, boxed(F, f))


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_kernel_gcd_against_oracle(p):
    F = GF(p)
    nontrivial = 0
    for a, b in kernel_pairs(p):
        got = univar.gcd(a, b, p)
        if not boxed(F, a) and not boxed(F, b):
            assert got == []  # where the oracle raises
            continue
        assert got[0] and all(0 <= x < p for x in got)
        inv = pow(got[0], -1, p)
        assert [x * inv % p for x in got] == descending(uni_gcd(F, boxed(F, a), boxed(F, b)))
        nontrivial += len(got) > 1
    assert nontrivial > 60


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_kernel_first_root_against_scan(p):
    F = GF(p)
    rng = random.Random(p + 1)
    cases = []
    for _ in range(80):
        length = rng.randint(1, min(p, 40))
        roots = [rng.randrange(length + 3) for _ in range(rng.randint(0, 3))]
        h = [rng.randrange(1, p)]
        for r in roots:
            h = times(h, [1, -r])
        cases += [(h, length), (random_poly(rng, p), length), ([1, 1 - length], length)]
    for h, length in cases + [(a, 3) for a, _ in HAND_PAIRS] + [([], 2), ([0, 0], 1)]:
        want = next((t for t in range(length) if not uni_eval(F, boxed(F, h), t)), None)
        assert univar.first_root(h, length, p) == want


def test_kernel_common_roots_exhaustive_mod_5():
    # the fibre of the pencil count over a point where the second form
    # vanishes identically: the roots of gcd(a t^2 + b t + c, 0), every
    # t when the quadratic is zero too
    for p in (3, 5, 7):
        F = GF(p)
        for a, b, c in product(range(p), repeat=3):
            got = univar.common_roots(a, b, c, p)
            f = boxed(F, [a, b, c])
            if not f:
                assert got == p
                continue
            h = uni_gcd(F, f, ())
            roots = [t for t in range(p) if not uni_eval(F, h, t)]
            assert got == len(roots) <= uni_degree(h)


@pytest.mark.parametrize("p", (3, 5, 7))
def test_kernel_plane_lines_in_point_order(p):
    got = []
    for base, j, length in univar.plane_lines(p):
        assert base[j] == 0
        for s in range(length):
            x = list(base)
            x[j] = s
            got.append(tuple(x))
    assert got == [tuple(c.v for c in pt) for pt in projective_points(GF(p), 2)]


def plane_form(F, rows):
    """The MultiPoly of plane rows of degree d = len(rows) - 1 over F."""
    d = len(rows) - 1
    return MultiPoly(F, 3, {(d - k - i, k, i): c for k, r in enumerate(rows)
                            for i, c in enumerate(r)})


def random_plane_form(rng, F, d):
    """A nonzero plane form of degree d over F, about a third of whose
    coefficients are zero."""
    p = F.p
    rows = [[rng.choice((0, rng.randrange(-p, p), 1)) for _ in range(d + 1 - k)]
            for k in range(d + 1)]
    rows[rng.randrange(d + 1)][0] = 1
    return plane_form(F, rows)


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_kernel_plane_rows_and_partials_against_oracles(p):
    rng = random.Random(p + 2)
    F = GF(p)
    for d in range(1, 7):
        for _ in range(8):
            f = random_plane_form(rng, F, d)
            rows, scale = univar.plane_rows(f)
            assert scale == 1 and plane_form(F, rows) == f
            assert [plane_form(F, r) for r in univar.partials(rows)] == [
                deriv(f, i) for i in range(3)]
    f = poly_from_text("1/2*x0^2 + 2/3*x1*x2 - x2^2", QQ, 3)
    rows, scale = univar.plane_rows(f)
    assert scale == 6 and plane_form(QQ, rows) == f * MultiPoly.const(QQ, 3, 6)


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_kernel_restrict_against_substitution(p):
    rng = random.Random(p + 3)
    F = GF(p)
    lines = ([((1, 0, x2), 1, p) for x2 in sorted({0, 1, 2, p // 2, p - 1})]
             + [((0, 1, 0), 2, p), ((0, 0, 1), 0, 1)])
    for d in range(1, 7):
        f = random_plane_form(rng, F, d)
        rows, _ = univar.plane_rows(f)
        for form, r in [(f, rows)] + list(zip((deriv(f, i) for i in range(3)),
                                             univar.partials(rows))):
            for base, j, _ in lines:
                line = substitute(form, {i: MultiPoly.const(F, 3, base[i])
                                         for i in range(3) if i != j})
                want = [line.coeff(tuple(e if i == j else 0 for i in range(3))).v
                        for e in range(len(r) - 1, -1, -1)]
                assert [c % p for c in univar.restrict(r, base, j)] == want


# -- coprime_to_derivative: Euclid on a block of polynomials at once -------------

BLOCK_PRIMES = (5, 7, 11, 13, 23, 101)


def normal_remainders(F, c):
    """True when the oracle's remainders r0 = c, r1 = c', r2, ... have the
    degrees d, d - 1, ..., 1: no leading coefficient vanishes before the
    last remainder, a constant or zero."""
    a, b = c, uni_deriv(F, c)
    while uni_degree(a) >= 2:
        if uni_degree(b) != uni_degree(a) - 1:
            return False
        a, b = b, uni_divmod(F, a, b)[1]
    return uni_degree(b) == uni_degree(a) - 1 or not b


def block_polys(rng, p, d):
    """Seeded descending lists of d + 1 unreduced ints: random polynomials
    of degree d mod p, two whose leading coefficient vanishes mod p, ones
    with a square factor, and ones whose remainders lose a leading
    coefficient mid-Euclid, found by rejection."""
    F = GF(p)

    def rand(deg):
        return [rng.randrange(1, p) + p * rng.randint(-1, 1)] + [
            rng.randrange(-p, 2 * p) for _ in range(deg)]

    polys = [rand(d) for _ in range(30)] + [[p] + rand(d)[1:], [0] + rand(d)[1:]]
    if d >= 2:
        polys += [times(times(u, u), rand(d - 2))
                  for u in ([1, -rng.randrange(p)] for _ in range(10))]
    if d >= 3:  # below, c' and the last remainder have no lead to lose
        vanished = 0
        while vanished < 10:
            c = rand(d)
            if not normal_remainders(F, boxed(F, c)):
                polys.append(c)
                vanished += 1
    rng.shuffle(polys)
    return polys


@pytest.mark.parametrize("p", BLOCK_PRIMES)
def test_kernel_coprime_to_derivative_against_oracle(p):
    F = GF(p)
    rng = random.Random(p + 4)
    seen = set()
    for d in range(1, 8):
        polys = block_polys(rng, p, d)
        want = []
        for c in polys:
            f = boxed(F, c)
            unit = bool(f) and uni_degree(uni_gcd(F, f, uni_deriv(F, f))) == 0
            normal = uni_degree(f) == d and normal_remainders(F, f)
            want.append(normal and unit)  # False where a lead vanished
            seen.add((normal, unit))
        for size in (1, 3, len(polys)):
            for i in range(0, len(polys), size):
                block = polys[i:i + size]
                flags = univar.coprime_to_derivative([list(col) for col in zip(*block)], p)
                assert flags == want[i:i + size]
    # flags == normal and unit: True only for a unit gcd; each case comes up
    assert seen == {(True, True), (True, False), (False, True), (False, False)}
