"""linalg against independent oracles over QQ, GF(13) and GF(2**31 - 1).

Products, solutions and inverses are re-checked in plain int / Fraction
arithmetic (never through linalg), determinants against permutation sums
and cofactor expansions, ranks and kernels against brute-force enumeration
of F_5^n.  The int kernels are also checked over ZZ, GF(3), GF(13) and
GF(2**31 - 1) against a textbook Gauss-Jordan, on the inputs where the
elimination leaves rows untouched and rescales them late: permuted
diagonal and block-diagonal matrices, zero rows and columns, rank-deficient
and augmented systems, and Kronecker points.  ``congruence_diagonalize`` is
checked in plain arithmetic, also where a zero row turns up after the first
pivot with rows left after it, and over QQ on the seeded rank-22 overlattice
Grams, whose signs must match the textbook Fraction congruence of
``oracles``.  Witt splits are checked by their transport in plain
arithmetic, their Witt index against a maximal totally isotropic subspace
found by exhaustive search and against the discriminant-class rule, and
their residual against an exhaustive isotropic search, on dense,
zero-diagonal, hyperbolic and one-class diagonal forms at primes p = 1 and
3 mod 4.  Seeds and sizes are fixed.
"""

import random
from fractions import Fraction
from itertools import product
from operator import mul

import pytest

from k3lab import GF, QQ, MultiPoly, QuadraticForm, SingularMatrix, linalg, witt_split
from oracles import (block_sum, cofactor_det, exhaustive_isotropic, fraction_congruence,
                     gauss_jordan, hyperbolic_form, row_reduction_rank, scalar_leibniz_det,
                     seeded_overlattice_grams, witt_index_by_class, witt_index_exhaustive)

FIELDS = (QQ, GF(13), GF(2**31 - 1))
IDS = ("QQ", "GF13", "GFmersenne")


def rand_entry(rng, field, zero_share=0.3):
    if rng.random() < zero_share:
        return field.zero
    if field.char == 0:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 10))
    return field.element(rng.randrange(field.p))


def rand_matrix(rng, field, rows, cols):
    return tuple(tuple(rand_entry(rng, field) for _ in range(cols)) for _ in range(rows))


def plain(field, m):
    """Entries as plain ints (GF(p)) or Fractions (QQ)."""
    return [[x.v if field.char else Fraction(x) for x in row] for row in m]


def reduce(field, x):
    return x % field.char if field.char else x


def plain_mul(field, a, b):
    """Schoolbook product of plain matrices."""
    return [[reduce(field, sum(a[i][k] * b[k][j] for k in range(len(b))))
             for j in range(len(b[0]))] for i in range(len(a))]


def dependent_matrix(rng, field, n, rank):
    """An n x n matrix of the given rank: independent random rows (by the
    oracle's rank), then random combinations of them."""
    while True:
        base = [list(row) for row in rand_matrix(rng, field, rank, n)]
        if row_reduction_rank(field, base) == rank:
            break
    rows = list(base)
    while len(rows) < n:
        coeffs = [rand_entry(rng, field, 0) for _ in base]
        rows.append([sum((c * row[j] for c, row in zip(coeffs, base)), field.zero)
                     for j in range(n)])
    rng.shuffle(rows)
    return tuple(tuple(row) for row in rows)


def const(field, x):
    return MultiPoly.const(field, 1, x)


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_det_against_permutation_sum_and_cofactors(field):
    rng = random.Random(1)
    assert linalg.det(field, ()) == field.one
    for n in range(1, 6):
        for _ in range(6):
            m = rand_matrix(rng, field, n, n)
            d = linalg.det(field, m)
            assert d == scalar_leibniz_det(field, m)
            entries = [[const(field, x) for x in row] for row in m]
            assert MultiPoly.const(field, 1, d) == cofactor_det(entries)


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_det_singular_and_zero_row(field):
    rng = random.Random(2)
    for n in range(2, 6):
        for rank in range(n):
            assert linalg.det(field, dependent_matrix(rng, field, n, rank)) == field.zero
        m = [list(row) for row in rand_matrix(rng, field, n, n)]
        m[rng.randrange(n)] = [field.zero] * n
        assert linalg.det(field, m) == field.zero


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_det_is_multiplicative(field):
    rng = random.Random(3)
    for n in range(1, 6):
        for _ in range(4):
            a, b = rand_matrix(rng, field, n, n), rand_matrix(rng, field, n, n)
            ab = linalg.mat_mul(field, a, b)
            assert linalg.det(field, ab) == linalg.det(field, a) * linalg.det(field, b)


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_mat_mul_against_schoolbook(field):
    rng = random.Random(4)
    for rows, inner, cols in ((1, 1, 1), (2, 3, 4), (4, 2, 3), (5, 5, 5), (3, 6, 1)):
        a, b = rand_matrix(rng, field, rows, inner), rand_matrix(rng, field, inner, cols)
        assert plain(field, linalg.mat_mul(field, a, b)) == plain_mul(field, plain(field, a),
                                                                      plain(field, b))
    assert linalg.mat_mul(field, (), rand_matrix(rng, field, 2, 2)) == ()


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_rank_against_row_reduction(field):
    rng = random.Random(5)
    assert linalg.rank(field, ()) == 0
    for rows, cols in ((1, 4), (3, 3), (4, 2), (5, 6), (6, 4)):
        for _ in range(4):
            m = rand_matrix(rng, field, rows, cols)
            assert linalg.rank(field, m) == row_reduction_rank(field, m)
    for n in range(2, 6):
        for r in range(n + 1):
            assert linalg.rank(field, dependent_matrix(rng, field, n, r)) == r


def kernel_by_enumeration(field, m):
    """All x in F_p^n with m x = 0, as tuples of ints."""
    a = plain(field, m)
    n = len(a[0])
    return {x for x in product(range(field.p), repeat=n)
            if all(sum(c * y for c, y in zip(row, x)) % field.p == 0 for row in a)}


def span_by_enumeration(field, basis, n):
    vecs = plain(field, basis)
    return {tuple(sum(c * v[j] for c, v in zip(cs, vecs)) % field.p for j in range(n))
            for cs in product(range(field.p), repeat=len(vecs))}


def test_rank_and_nullspace_against_enumeration_at_5():
    field = GF(5)
    rng = random.Random(6)
    shapes = [(rows, cols) for rows in range(1, 5) for cols in range(1, 6)]
    for rows, cols in shapes:
        for _ in range(3):
            m = rand_matrix(rng, field, rows, cols)
            kernel = kernel_by_enumeration(field, m)
            r = linalg.rank(field, m)
            assert len(kernel) == 5 ** (cols - r)
            basis = linalg.nullspace(field, m)
            assert len(basis) == cols - r
            assert span_by_enumeration(field, basis, cols) == kernel
    zero = ((field.zero,) * 3,) * 2
    assert linalg.rank(field, zero) == 0
    assert span_by_enumeration(field, linalg.nullspace(field, zero), 3) == \
        set(product(range(5), repeat=3))
    assert linalg.nullspace(field, ()) == []


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_nullspace_vectors_are_annihilated(field):
    rng = random.Random(7)
    for n in range(2, 7):
        for r in range(n + 1):
            m = dependent_matrix(rng, field, n, r)
            basis = linalg.nullspace(field, m)
            assert len(basis) == n - r
            if basis:
                cols = [list(c) for c in zip(*plain(field, basis))]
                prod = plain_mul(field, plain(field, m), cols)
                assert all(x == 0 for row in prod for x in row)
                assert row_reduction_rank(field, basis) == len(basis)


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_solve_checked_in_plain_arithmetic(field):
    rng = random.Random(8)
    for rows, cols in ((1, 1), (3, 3), (5, 5), (6, 4), (4, 2)):
        for _ in range(4):
            while True:
                a = rand_matrix(rng, field, rows, cols)
                if row_reduction_rank(field, a) == cols:
                    break
            x0 = tuple(rand_entry(rng, field) for _ in range(cols))
            b = tuple(row[0] for row in plain_mul(field, plain(field, a),
                                                  [[x] for x in plain(field, [x0])[0]]))
            b = tuple(field.coerce(x) for x in b)
            x = linalg.solve(field, a, b)
            assert plain(field, [x]) == plain(field, [x0])
            assert [row[0] for row in plain_mul(field, plain(field, a),
                                                [[y] for y in plain(field, [x])[0]])] == \
                plain(field, [b])[0]
    assert linalg.solve(field, (), ()) == ()


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_solve_inconsistent_and_underdetermined(field):
    rng = random.Random(9)
    one, zero = field.one, field.zero
    # overdetermined and inconsistent: x = 1 and x = 2
    assert linalg.solve(field, ((one,), (one,)), (one, one + one)) is None
    # a zero row with a nonzero right-hand side
    assert linalg.solve(field, ((one, zero), (zero, zero)), (one, one)) is None
    for n in range(2, 6):
        a = dependent_matrix(rng, field, n, n - 1)
        with pytest.raises(SingularMatrix):
            linalg.solve(field, a, (zero,) * n)
        wide = rand_matrix(rng, field, n - 1, n)
        with pytest.raises(SingularMatrix):
            linalg.solve(field, wide, (zero,) * (n - 1))


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_inverse_checked_in_plain_arithmetic(field):
    rng = random.Random(10)
    assert linalg.inverse(field, ()) == ()
    for n in range(1, 7):
        for _ in range(4):
            m = rand_matrix(rng, field, n, n)
            if scalar_leibniz_det(field, m) == field.zero:
                with pytest.raises(SingularMatrix):
                    linalg.inverse(field, m)
                continue
            inv = linalg.inverse(field, m)
            eye = [[int(i == j) for j in range(n)] for i in range(n)]
            assert plain_mul(field, plain(field, m), plain(field, inv)) == eye
            assert plain_mul(field, plain(field, inv), plain(field, m)) == eye
        with pytest.raises(SingularMatrix):
            linalg.inverse(field, dependent_matrix(rng, field, n, n - 1))


def rand_symmetric(rng, field, n, zero_diagonal=False):
    g = [[field.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i == j and zero_diagonal:
                continue
            g[i][j] = g[j][i] = rand_entry(rng, field)
    return tuple(tuple(row) for row in g)


def zero_row_after_elimination():
    """Int forms whose rows 0 and 1 agree on the first two columns, so that
    row 1 of the Schur complement is zero after the first pivot while rows
    are left after it; blocks that pivot first put it at |p_(k-1)| > 1."""
    base = [[1, 1, 1], [1, 1, 1], [1, 1, 2]]
    return [base, block_sum([[3]], base), block_sum([[-2]], base, [[0, 1], [1, 0]]),
            block_sum([[2, 1, 1], [1, 2, 1], [1, 1, 2]], [[0, 3], [3, 0]])]


def signs(diag):
    return sum(1 for x in diag if x > 0), sum(1 for x in diag if x < 0)


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_congruence_diagonalize_checked_in_plain_arithmetic(field):
    rng = random.Random(11)
    cases = [rand_symmetric(rng, field, n, zero_diagonal) for n in range(1, 7)
             for zero_diagonal in (False, True) for _ in range(3)]
    ints = zero_row_after_elimination()
    if field is QQ:  # rank 22, the Grams the lattice invariants run on
        ints += seeded_overlattice_grams(2, 1)
    cases += [tuple(tuple(field.coerce(x) for x in row) for row in m) for m in ints]
    for g in cases:
        n = len(g)
        m, d = linalg.congruence_diagonalize(field, g)
        pm, pd, pg = plain(field, m), plain(field, d), plain(field, g)
        mt = [list(c) for c in zip(*pm)]
        assert plain_mul(field, plain_mul(field, mt, pg), pm) == pd
        assert all(pd[i][j] == 0 for i in range(n) for j in range(n) if i != j)
        assert row_reduction_rank(field, m) == n
        assert row_reduction_rank(field, d) == row_reduction_rank(field, g)
        if field is QQ:  # Sylvester's law of inertia against the textbook route
            assert signs([pd[i][i] for i in range(n)]) == signs(fraction_congruence(pg)[1])


def assert_witt_transport(q):
    """witt_split(q) has h planes and a residual of dimension <= 2, and its
    matrix M carries the Gram matrix G of q to the split normal form:
    M^T G M is h blocks [[0, 1/2], [1/2, 0]] followed by the residual's Gram."""
    field, n = q.field, q.n
    dec = witt_split(q)
    h, r = dec.h, dec.residual.n
    assert 2 * h + r == n and r <= 2
    target = [[0] * n for _ in range(n)]
    for k in range(h):
        target[2 * k][2 * k + 1] = target[2 * k + 1][2 * k] = (field.p + 1) // 2
    for i, row in enumerate(plain(field, dec.residual.gram)):
        target[2 * h + i][2 * h:] = row
    pm = plain(field, dec.matrix)
    mt = [list(c) for c in zip(*pm)]
    assert plain_mul(field, plain_mul(field, mt, plain(field, q.gram)), pm) == target
    return dec


@pytest.mark.parametrize("p", (3, 5, 7, 11, 13, 2**31 - 1))
def test_witt_split_transports_the_gram_exactly(p):
    field = GF(p)
    for planes in (1, 2, 3):
        assert assert_witt_transport(hyperbolic_form(field, planes)).h == planes
    rng = random.Random(12)
    for n in range(2, 7):
        done = 0
        while done < 4:
            q = QuadraticForm(rand_symmetric(rng, field, n), field)
            if not q.is_nondegenerate():
                continue
            assert_witt_transport(q)
            done += 1


def witt_cases(rng, field, n):
    """Nondegenerate n-variable forms over F_p that take every step of the
    Witt split: a dense form, a form with a zero diagonal (the zero-pivot
    repair, n >= 2), two diagonal forms whose entries all share one
    quadratic class, squares and non-squares (the flip when -1 is a
    non-square), and for even n the hyperbolic form."""
    p = field.p
    non_square = next(a for a in range(2, p) if pow(a, (p - 1) // 2, p) == p - 1)
    cases = [QuadraticForm([[c * rng.randrange(1, p) ** 2 if i == j else 0 for j in range(n)]
                            for i in range(n)], field) for c in (1, non_square)]
    for zero_diagonal in (False, True) if n > 1 else (False,):
        while True:
            q = QuadraticForm(rand_symmetric(rng, field, n, zero_diagonal), field)
            if q.is_nondegenerate():
                cases.append(q)
                break
    if n % 2 == 0:
        cases.append(hyperbolic_form(field, n // 2))
    return cases


@pytest.mark.parametrize("p", (3, 5, 7))
def test_witt_index_against_maximal_isotropic_subspaces(p):
    field, rng = GF(p), random.Random(13)
    for n in range(1, 5):
        for q in witt_cases(rng, field, n):
            dec = assert_witt_transport(q)
            assert dec.h == witt_index_exhaustive(q, stop_at=n // 2)
            assert exhaustive_isotropic(dec.residual) == []


@pytest.mark.parametrize("p", (3, 5, 7, 11, 13, 1009, 2**31 - 1))
def test_witt_index_against_discriminant_class(p):
    field, rng = GF(p), random.Random(14)
    for n in range(1, 7):
        for q in witt_cases(rng, field, n):
            dec = assert_witt_transport(q)
            assert dec.h == witt_index_by_class(q)
            if p <= 13:
                assert exhaustive_isotropic(dec.residual) == []


# -- the int kernels on sparse, deficient and huge-entry inputs ---------------------------

RINGS = (0, 3, 13, 2**31 - 1)
RING_IDS = ("ZZ", "GF3", "GF13", "GFmersenne")


def permuted(rng, m):
    """m with its rows and its columns in seeded random orders."""
    rows, cols = list(range(len(m))), list(range(len(m[0])))
    rng.shuffle(rows)
    rng.shuffle(cols)
    return [[m[i][j] for j in cols] for i in rows]


def kronecker_point(rng, n, diagonal, b=100):
    """sum_k M_k 2^(s_k) for three seeded n x n small-int matrices M_k
    (diagonal when ``diagonal``) at s = 0, b, b (n + 1), the shape of the
    discriminant's Kronecker point: entries of several hundred bits."""
    point = [[0] * n for _ in range(n)]
    for s in (0, b, b * (n + 1)):
        for i in range(n):
            for j in range(n):
                if i == j or not diagonal:
                    point[i][j] += rng.randint(-9, 9) << s
    return point


def square_cases(rng, p):
    """Square int matrices, reduced mod p unless p = 0: permuted diagonal and
    block-diagonal ones, ones with a zero row and a zero column, rank-deficient
    ones and Kronecker points."""
    def entry(zero_share):
        return 0 if rng.random() < zero_share else rng.randint(-30, 30)

    cases = []
    for n in range(1, 7):
        for _ in range(3):
            cases.append(permuted(rng, [[entry(0.2) if i == j else 0 for j in range(n)]
                                        for i in range(n)]))
            blocks, size = [], 0
            while size < n:
                k = rng.randint(1, min(3, n - size))
                blocks.append([[entry(0.3) for _ in range(k)] for _ in range(k)])
                size += k
            cases.append(permuted(rng, block_sum(*blocks)))
            m = [[entry(0.3) for _ in range(n)] for _ in range(n)]
            zero_col = rng.randrange(n)
            m[rng.randrange(n)] = [0] * n
            cases.append([[0 if j == zero_col else x for j, x in enumerate(row)] for row in m])
            base = [[entry(0.3) for _ in range(n)] for _ in range(rng.randrange(n))]
            m = base + [[sum(rng.randint(-2, 2) * row[j] for row in base) for j in range(n)]
                        for _ in range(n - len(base))]
            cases.append(permuted(rng, m))
    for n in (4, 6):
        for diagonal in (True, False):
            cases.append(kronecker_point(rng, n, diagonal))
            cases.append(permuted(rng, kronecker_point(rng, n, diagonal)))
    return [reduced(p, m) for m in cases]


def rect_cases(rng, p):
    """The square cases widened by two columns and lengthened by a zero row
    and a sum of two rows, each in seeded random orders; also each widened
    by 30 columns in its own order, so that a nonsingular one holds its last
    pivot long before its last column, as do the flattened Grams of a
    diagonal net (pivots in columns 0, 7 and 14 of 36)."""
    out = []
    for m in square_cases(rng, p):
        wide = [row + [rng.randint(-3, 3) for _ in range(2)] for row in m]
        tall = m + [[0] * len(m), [x + y for x, y in zip(m[0], m[-1])]]
        early = [row + [rng.randint(-3, 3) for _ in range(30)] for row in m]
        out += [permuted(rng, reduced(p, wide)), permuted(rng, reduced(p, tall)),
                reduced(p, early)]
    diagonals = ([1, 2, 3, 4, 5, 6], [0, 1, 2, 3, 4, 5], [0, 1, 4, 9, 16, 25])
    out.append(reduced(p, [[d[i] if i == j else 0 for i in range(6) for j in range(6)]
                           for d in diagonals]))
    return out


def reduced(p, m):
    return [[x % p for x in row] for row in m] if p else m


def over(p, rows, den):
    """The int ``rows`` over den: as they are over GF(p) (den = 1), as
    Fractions over ZZ."""
    if p:
        assert den == 1
        return rows
    return [[Fraction(x, den) for x in row] for row in rows]


def to_field(p, m):
    field = GF(p) if p else QQ
    return field, [[field.coerce(x) for x in row] for row in m]


@pytest.mark.parametrize("p", RINGS, ids=RING_IDS)
def test_int_det_against_leibniz(p):
    for m in square_cases(random.Random(20), p):
        before = [list(row) for row in m]
        got = linalg.int_det(m, p)
        assert m == before
        assert not p or 0 <= got < p
        field, boxed = to_field(p, m)
        assert field.coerce(got) == scalar_leibniz_det(field, boxed)


@pytest.mark.parametrize("p", RINGS, ids=RING_IDS)
def test_int_rref_rank_and_nullspace_against_gauss_jordan(p):
    rng = random.Random(21)
    for m in square_cases(rng, p) + rect_cases(rng, p):
        ncols = len(m[0])
        want, pivots = gauss_jordan(m, ncols, p)
        r = len(pivots)
        assert linalg.int_rank(m, p) == r
        red, got_pivots, den = linalg.int_rref([list(row) for row in m], ncols, p)
        assert got_pivots == pivots
        assert over(p, red, den) == want
        # the kernel: one vector per free column, which m annihilates and
        # which is the identity on the free columns
        basis, den = linalg.int_nullspace(m, ncols, p)
        free = [c for c in range(ncols) if c not in pivots]
        basis = over(p, basis, den)
        assert [[v[c] for c in free] for v in basis] == [[int(c == f) for c in free]
                                                         for f in free]
        for v in basis:
            for row in m:
                s = sum(x * y for x, y in zip(row, v))
                assert (s % p if p else s) == 0


@pytest.mark.parametrize("p", RINGS, ids=RING_IDS)
def test_int_solve_and_inverse_against_gauss_jordan(p):
    rng = random.Random(22)
    red = (lambda x: x % p) if p else (lambda x: x)
    for m in square_cases(rng, p):
        n = len(m)
        eye = [[int(i == j) for j in range(n)] for i in range(n)]
        want, pivots = gauss_jordan([row + e for row, e in zip(m, eye)], n, p)
        if len(pivots) < n:
            with pytest.raises(SingularMatrix):
                linalg.int_inverse(m, p, 3)
        else:
            inv, den = linalg.int_inverse(m, p, 3)
            assert over(p, inv, den) == [[red(3 * x) for x in row[n:]] for row in want]
        # augmented systems: a consistent right-hand side and a random one,
        # each also overdetermined by the sum of the first and last equation
        x0 = [rng.randint(-5, 5) for _ in range(n)]
        for b in ([red(sum(map(mul, row, x0))) for row in m],
                  [red(rng.randint(-5, 5)) for _ in range(n)]):
            aug = [row + [y] for row, y in zip(m, b)]
            for rows in (aug, aug + [[red(x + y) for x, y in zip(aug[0], aug[-1])]]):
                want, pivots = gauss_jordan(rows, n, p)
                if any(row[n] for row in want[len(pivots):]):
                    assert linalg.int_solve([list(row) for row in rows], n, p) is None
                elif len(pivots) < n:
                    with pytest.raises(SingularMatrix):
                        linalg.int_solve([list(row) for row in rows], n, p)
                else:
                    x, den = linalg.int_solve([list(row) for row in rows], n, p)
                    assert over(p, [x], den)[0] == [row[n] for row in want[:n]]
