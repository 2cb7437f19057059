"""Optional cross-checks against sympy (skipped when sympy is absent).

These duplicate results already covered by the in-repo oracles, through a
fully independent implementation.  The lattice signatures are the exception:
in-repo, only the textbook Fraction congruence ``oracles.fraction_congruence``
checks them.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest

sympy = pytest.importorskip("sympy")

from k3lab import (QQ, DegenerateSystem, IntegralLattice, LinearMatrix, MultiPoly,
                   OverlatticeSpec, PencilOfQuadrics, QuadraticForm, discriminant_poly,
                   k3_lattice, lattice_invariants, net_discriminant, overlattice)
from k3lab.cli import load_system
from oracles import (dense_row_block_sums, seeded_overlattice_grams, stale_repair_cases,
                     uni_resultant)


def _to_sympy(p, symbols):
    expr = sympy.Integer(0)
    for e, c in p.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for s, k in zip(symbols, e):
            if k:
                term *= s**k
        expr += term
    return sympy.expand(expr)


def _rand_sym_gram(rng, n):
    g = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = Fraction(rng.randint(-4, 4))
    return g


def test_pencil_discriminant_matches_sympy_det():
    rng = random.Random(200)
    l0, l1 = sympy.symbols("l0 l1")
    done = attempts = 0
    while done < 10:
        attempts += 1
        assert attempts <= 50, "seed 200: under 10 nondegenerate pencils in 50 draws"
        try:
            pencil = PencilOfQuadrics(QuadraticForm(_rand_sym_gram(rng, 4), QQ),
                                      QuadraticForm(_rand_sym_gram(rng, 4), QQ))
        except DegenerateSystem:
            continue
        q1, q2 = pencil.forms
        m = sympy.Matrix(4, 4, lambda i, j: (
            sympy.Rational(q1.gram[i][j]) * l0 + sympy.Rational(q2.gram[i][j]) * l1))
        expected = sympy.expand(m.det())
        got = _to_sympy(discriminant_poly(pencil), (l0, l1))
        assert sympy.simplify(got - expected) == 0
        done += 1


def test_dense_fractional_net_discriminant_matches_sympy_det():
    net = load_system(str(Path(__file__).parent / "data" / "net-fractional.json"))
    ls = sympy.symbols("l0 l1 l2")
    m = sympy.Matrix(6, 6, lambda i, j: sum(
        sympy.Rational(q.gram[i][j].numerator, q.gram[i][j].denominator) * l
        for q, l in zip(net.forms, ls)))
    assert any(x.denominator > 1 for q in net.forms for row in q.gram for x in row)
    # elimination over QQ[l0, l1, l2]; sympy's default bareiss takes seconds here
    expected = m.det(method="domain-ge")
    assert sympy.expand(_to_sympy(net_discriminant(net), ls) - expected) == 0


def test_pfaffian_squared_matches_sympy_det():
    from k3lab import PolyMatrix, pfaffian

    rng = random.Random(201)
    xs = sympy.symbols("x0 x1 x2")
    for _ in range(5):
        rows = [[MultiPoly.zero(QQ, 3) for _ in range(4)] for _ in range(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                f = MultiPoly(QQ, 3, {
                    tuple(1 if k == v else 0 for k in range(3)): rng.randint(-3, 3)
                    for v in range(3)})
                rows[i][j] = f
                rows[j][i] = -f
        m = PolyMatrix(rows)
        pf = _to_sympy(pfaffian(m), xs)
        det = sympy.Matrix(4, 4, lambda i, j: _to_sympy(m.entries[i][j], xs)).det()
        assert sympy.expand(pf * pf - det) == 0


def _rand_linear_matrix(rng, n, nvars, alternating=False):
    """A LinearMatrix over QQ with coefficients of denominators up to 6, and
    the same matrix in sympy over the symbols x0, x1, ..."""
    mats = [[[Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(n)]
             for _ in range(n)] for _ in range(nvars)]
    if alternating:
        mats = [[[m[j][k] - m[k][j] for k in range(n)] for j in range(n)] for m in mats]
    xs = sympy.symbols(f"x0:{nvars}")
    m = sympy.Matrix(n, n, lambda j, k: sum(
        sympy.Rational(mat[j][k].numerator, mat[j][k].denominator) * x
        for mat, x in zip(mats, xs)))
    return LinearMatrix(QQ, n, nvars, mats), m, xs


def test_degree2_det_matches_sympy_det():
    rng = random.Random(203)
    for nvars in (4, 5, 6):
        for _ in range(5):
            a, m, xs = _rand_linear_matrix(rng, 2, nvars)
            assert sympy.expand(_to_sympy(a.det_poly(), xs) - m.det()) == 0


def test_degree2_pfaffian_matches_sympy_three_term_expansion():
    rng = random.Random(204)
    for _ in range(5):
        a, m, xs = _rand_linear_matrix(rng, 4, 6, alternating=True)
        pf = _to_sympy(a.pfaffian_poly(), xs)
        assert sympy.expand(pf - (m[0, 1] * m[2, 3] - m[0, 2] * m[1, 3]
                                  + m[0, 3] * m[1, 2])) == 0
        # elimination over QQ[x0, ..., x5]; sympy's default bareiss takes
        # seconds per matrix here
        assert sympy.expand(pf * pf - m.det(method="domain-ge")) == 0


def test_resultant_matches_sympy_sylvester_det():
    # sympy.resultant's sign follows its subresultant normalization, which
    # deviates from the Sylvester determinant for some degree/sign patterns;
    # compare against sympy's own determinant of the f-rows-first Sylvester
    # matrix (convention-exact) and against sympy.resultant up to sign.
    rng = random.Random(202)
    t = sympy.Symbol("t")
    done = 0
    while done < 25:
        f = [Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(2, 4))]
        g = [Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(2, 4))]
        if not f[-1] or not g[-1]:
            continue
        ours = sympy.Rational(uni_resultant(QQ, f, g))
        m, n = len(f) - 1, len(g) - 1
        fd = [sympy.Rational(c) for c in reversed(f)]
        gd = [sympy.Rational(c) for c in reversed(g)]
        rows = [[0] * i + fd + [0] * (m + n - i - len(fd)) for i in range(n)]
        rows += [[0] * i + gd + [0] * (m + n - i - len(gd)) for i in range(m)]
        assert ours == sympy.Matrix(rows).det()
        fs = sum(sympy.Rational(c) * t**i for i, c in enumerate(f))
        gs = sum(sympy.Rational(c) * t**i for i, c in enumerate(g))
        assert abs(ours) == abs(sympy.resultant(fs, gs, t))
        done += 1


def _sign_changes(coeffs):
    signs = [c > 0 for c in coeffs if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _sympy_invariants(gram, det_from_charpoly=False):
    """det by sympy's ``det`` and the signature by Descartes' rule of signs
    on sympy's characteristic polynomial, which counts the positive and the
    negative roots exactly because a symmetric matrix has only real
    eigenvalues; None when 0 is an eigenvalue.  ``det_from_charpoly`` reads
    det off the constant term (-1)^n det of det(t I - m) instead, which is
    several times faster than sympy's ``det`` at rank 22."""
    m = sympy.Matrix(gram)
    coeffs = m.charpoly().all_coeffs()  # leading coefficient first
    det = (-1) ** len(gram) * coeffs[-1] if det_from_charpoly else m.det()
    zeros = 0
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
        zeros += 1
    pos = _sign_changes(coeffs)
    neg = _sign_changes([c * (-1) ** k for k, c in enumerate(reversed(coeffs))])
    assert pos + neg + zeros == len(gram)
    return det, ((pos, neg) if not zeros else None)


def _random_symmetric(rng, n, size, zero_diagonal_share):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = rng.randint(-size, size)
        if rng.random() < zero_diagonal_share:
            m[i][i] = 0
    return m


def test_lattice_invariants_match_sympy_det_and_descartes_signature():
    rng = random.Random(203)
    k3 = k3_lattice()
    cases = [k3.gram]
    # (e + b f + rest)^2 = 2b + rest^2 on the first U = <e, f>
    for alpha, r in (([1, 4] + [0] * 20, 2), ([1, 24, 1, 1] + [0] * 18, 5),
                     ([1, 145, 0, 0, 0, 0, 1] + [0] * 15, 12),
                     ([2, 34, 0, 0, 0, 0, 2] + [0] * 15, 4), ([2, 2] + [0] * 20, 2)):
        assert k3.norm(alpha) % (2 * r * r) == 0
        cases.append(overlattice(OverlatticeSpec(k3, alpha, r)).gram)
    for n in range(1, 9):
        for k in range(8):
            m = _random_symmetric(rng, n, 3, 1.0 if k % 4 == 0 else 0.5)
            if k % 3 == 2:  # repeat a row and column: degenerate
                i, j = rng.randrange(n), rng.randrange(n)
                for row in m:
                    row[j] = row[i]
                m[j] = list(m[i])
            cases.append(m)
    degenerate = zero_diagonal = 0
    for gram in cases:
        inv = lattice_invariants(IntegralLattice(gram))
        det, sig = _sympy_invariants(gram)
        assert (inv["det"], inv["signature"]) == (det, sig), gram
        degenerate += sig is None
        zero_diagonal += sig is not None and not any(gram[i][i] for i in range(len(gram)))
    assert degenerate >= 10 and zero_diagonal >= 5


def test_sparsest_pivot_shapes_match_sympy_det_and_descartes_signature():
    # dense-row block sums and their permutations, all-zero diagonals after
    # stale rows, and the benchmark's overlattice Grams of every class
    cases = dense_row_block_sums(random.Random(204)) + stale_repair_cases()
    for r in (2, 3):
        for size in (1, 3):
            cases += seeded_overlattice_grams(r, size)
    for gram in cases:
        inv = lattice_invariants(IntegralLattice(gram))
        want = _sympy_invariants(gram, det_from_charpoly=True)
        assert (inv["det"], inv["signature"]) == want, gram
