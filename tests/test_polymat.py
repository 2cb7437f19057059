import gc
import random
from fractions import Fraction

import pytest

from k3lab import (GF, QQ, LinearMatrix, MultiPoly, PolyMatrix,
                   PreconditionError, pfaffian, poly_det)
from oracles import (cofactor_det, klein_coordinates, leibniz_det, matching_pfaffian,
                     pfaffian_three_term, poly_entries)

ORACLE_FIELDS = (QQ, GF(13), GF(2**31 - 1))
# (nvars, max entry degree): every pair for small sizes, a spread for 5 and 6
# (where the oracles are slow), ending at the widest exponent slot n * 3.
ALL_SHAPES = tuple((v, d) for v in (1, 2, 3, 4) for d in (0, 1, 2, 3))
DET_SHAPES = {1: ALL_SHAPES, 2: ALL_SHAPES, 3: ALL_SHAPES, 4: ALL_SHAPES,
              5: ((2, 3), (4, 1)), 6: ((3, 2), (4, 3))}


def const(field, nvars, c):
    return MultiPoly.const(field, nvars, c)


def rand_linear(rng, field, nvars):
    terms = {}
    for i in range(nvars):
        c = rng.randint(-5, 5)
        if c:
            e = [0] * nvars
            e[i] = 1
            terms[tuple(e)] = field.coerce(c)
    return MultiPoly(field, nvars, terms)


def rand_linear_matrix(rng, field, n, nvars):
    return PolyMatrix([[rand_linear(rng, field, nvars) for _ in range(n)]
                       for _ in range(n)])


def test_det_identity():
    n = 3
    eye = PolyMatrix([[const(QQ, 1, 1 if i == j else 0) for j in range(n)]
                      for i in range(n)])
    assert poly_det(eye) == const(QQ, 1, 1)


def test_det_2x2_symbolic():
    x = MultiPoly.var(QQ, 2, 0)
    y = MultiPoly.var(QQ, 2, 1)
    m = PolyMatrix([[x, y], [y, x]])
    assert poly_det(m) == x**2 - y**2


def test_det_matches_oracles_all_sizes():
    rng = random.Random(10)
    for n in (1, 2, 3, 4):
        for _ in range(25):
            m = rand_linear_matrix(rng, QQ, n, 2)
            d = poly_det(m)
            assert d == cofactor_det(m.entries)
            assert d == leibniz_det(m.entries)


def rand_coeff(rng, field):
    if field == QQ:
        return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6, 7, 9, 10)))
    return field.element(rng.randrange(field.p))


def rand_entry(rng, field, nvars, max_deg):
    """Zero to two terms of degree <= max_deg (some of them zero entries)."""
    terms = {}
    for _ in range(rng.randint(0, 2)):
        e = [0] * nvars
        for _ in range(rng.randint(0, max_deg)):
            e[rng.randrange(nvars)] += 1
        terms[tuple(e)] = rand_coeff(rng, field)
    return MultiPoly(field, nvars, terms)


def test_det_matches_oracles_over_fields_degrees_and_sizes():
    rng = random.Random(20)
    for field in ORACLE_FIELDS:
        for n, shapes in DET_SHAPES.items():
            for nvars, max_deg in shapes:
                rows = [[rand_entry(rng, field, nvars, max_deg) for _ in range(n)]
                        for _ in range(n)]
                d = poly_det(PolyMatrix(rows))
                assert d == cofactor_det(rows)
                if n <= 5:
                    assert d == leibniz_det(rows)


def test_det_with_a_zero_row():
    rng = random.Random(21)
    for field in ORACLE_FIELDS:
        for n in range(1, 7):
            rows = [[rand_entry(rng, field, 2, 2) for _ in range(n)] for _ in range(n)]
            rows[rng.randrange(n)] = [MultiPoly.zero(field, 2)] * n
            d = poly_det(PolyMatrix(rows))
            assert d.is_zero() and d == cofactor_det(rows)


def test_det_widest_exponent_slot():
    # x0^(3n) fills the x0 slot to n * (max entry degree), next to x1's slot
    for n in (6, 8):
        x0, x1 = (MultiPoly.var(QQ, 2, i) for i in range(2))
        z = MultiPoly.zero(QQ, 2)
        rows = [[x0**3 if i == j else z for j in range(n)] for i in range(n)]
        rows[0][1] = rows[1][0] = x1**3
        assert poly_det(PolyMatrix(rows)) == x0**(3 * n) - x0**(3 * n - 6) * x1**6


def test_det_non_square_rejected():
    x = MultiPoly.var(QQ, 1, 0)
    with pytest.raises(PreconditionError):
        poly_det(PolyMatrix([[x, x]]))


def test_det_size_cap():
    n = 9
    eye = PolyMatrix([[const(QQ, 1, 1 if i == j else 0) for j in range(n)]
                      for i in range(n)])
    with pytest.raises(PreconditionError):
        poly_det(eye)


def test_det_constant_matrix_uses_exact_path():
    rng = random.Random(11)
    rows = [[const(QQ, 1, Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
             for _ in range(4)] for _ in range(4)]
    m = PolyMatrix(rows)
    assert poly_det(m) == leibniz_det(rows)


def rand_alternating(rng, field, n, nvars):
    rows = [[MultiPoly.zero(field, nvars) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            f = rand_linear(rng, field, nvars)
            rows[i][j] = f
            rows[j][i] = -f
    return PolyMatrix(rows)


def test_pfaffian_block_form():
    x = MultiPoly.var(QQ, 2, 0)
    y = MultiPoly.var(QQ, 2, 1)
    z = MultiPoly.zero(QQ, 2)
    m = PolyMatrix([[z, x, z, z], [-x, z, z, z], [z, z, z, y], [z, z, -y, z]])
    assert pfaffian(m) == x * y


def test_pfaffian_squares_to_det():
    rng = random.Random(12)
    for _ in range(60):
        m = rand_alternating(rng, QQ, 4, 3)
        assert pfaffian(m) ** 2 == poly_det(m)
    for _ in range(40):
        m = rand_alternating(rng, GF(11), 6, 3)
        assert pfaffian(m) ** 2 == poly_det(m)


def test_pfaffian_matches_matching_sum_oracle():
    rng = random.Random(22)
    for field in ORACLE_FIELDS:
        for n in (2, 4, 6):
            for nvars, max_deg in ALL_SHAPES:
                rows = [[MultiPoly.zero(field, nvars)] * n for _ in range(n)]
                for i in range(n):
                    for j in range(i + 1, n):
                        rows[i][j] = rand_entry(rng, field, nvars, max_deg)
                        rows[j][i] = -rows[i][j]
                if max_deg == 0:  # a zero row and column
                    k = rng.randrange(n)
                    for i in range(n):
                        rows[i][k] = rows[k][i] = MultiPoly.zero(field, nvars)
                assert pfaffian(PolyMatrix(rows)) == matching_pfaffian(rows)


def test_pfaffian_three_term_expansion():
    rng = random.Random(13)
    for _ in range(50):
        m = rand_alternating(rng, QQ, 4, 4)
        assert pfaffian(m) == pfaffian_three_term(m.entries)


def test_pfaffian_rejects_bad_input():
    x = MultiPoly.var(QQ, 1, 0)
    z = MultiPoly.zero(QQ, 1)
    with pytest.raises(PreconditionError):
        pfaffian(PolyMatrix([[z, x], [x, z]]))  # not alternating (sign)
    with pytest.raises(PreconditionError):
        pfaffian(PolyMatrix([[x]]))  # odd size
    with pytest.raises(PreconditionError):
        pfaffian(PolyMatrix([[x, x], [x, x]]))  # nonzero diagonal


def test_linear_matrix_round_trip():
    F = GF(7)
    a = LinearMatrix(F, 2, 4, [
        [[1, 0], [0, 0]], [[0, 1], [0, 0]], [[0, 0], [1, 0]], [[0, 0], [0, 1]],
    ])
    pm = poly_entries(a)
    x = [MultiPoly.var(F, 4, i) for i in range(4)]
    assert pm[0][0] == x[0] and pm[0][1] == x[1]
    assert pm[1][0] == x[2] and pm[1][1] == x[3]
    assert a.det_poly() == x[0] * x[3] - x[1] * x[2]


@pytest.mark.parametrize("field", ORACLE_FIELDS)
def test_linear_matrix_expansions_against_oracles(field):
    # det_poly and pfaffian_poly pack the coefficient matrices directly; the
    # oracles expand the entry polynomials of poly_entries() instead.
    rng = random.Random(16)

    def coeff():
        if field.char == 0:
            return Fraction(rng.randint(-5, 5), rng.randint(1, 6))
        return field.element(rng.randint(-5, 5))

    for n, nvars in ((1, 2), (2, 4), (3, 3), (4, 2)):
        a = LinearMatrix(field, n, nvars, [[[coeff() for _ in range(n)] for _ in range(n)]
                                           for _ in range(nvars)])
        det = a.det_poly()
        assert det == cofactor_det(poly_entries(a))
        assert all(type(c) is type(field.one) for c in det.terms.values())
    # integral coefficients: the scale is 1, and QQ coefficients stay Fractions
    eye = LinearMatrix(field, 2, 4, [[[int(2 * j + k == i) for k in range(2)]
                                      for j in range(2)] for i in range(4)])
    assert all(type(c) is type(field.one) for c in eye.det_poly().terms.values())
    for nvars in (2, 6):
        rows = [[coeff() for _ in range(nvars)] for _ in range(6)]
        a = LinearMatrix.from_klein_rows(field, nvars, rows)
        pf = a.pfaffian_poly()
        assert pf == matching_pfaffian(poly_entries(a))
        assert all(type(c) is type(field.one) for c in pf.terms.values())


@pytest.mark.parametrize("field", ORACLE_FIELDS)
def test_linear_matrix_pfaffian_squares_to_det(field):
    # random alternating linear matrices of sizes 2, 4 and 6 in one to four
    # variables; QQ coefficients have denominators up to 6
    rng = random.Random(92)

    def coeff():
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 6) if field.char == 0 else 1)
        return field.coerce(c)

    for n in (2, 4, 6):
        for _ in range(6):
            nvars = rng.randint(1, 4)
            mats = []
            for _ in range(nvars):
                mat = [[field.zero] * n for _ in range(n)]
                for j in range(n):
                    for k in range(j + 1, n):
                        mat[j][k] = coeff()
                        mat[k][j] = -mat[j][k]
                mats.append(mat)
            a = LinearMatrix(field, n, nvars, mats)
            assert a.alternating
            assert a.pfaffian_poly() ** 2 == a.det_poly()


def test_linear_matrix_expansions_keep_their_caps():
    F = GF(7)
    with pytest.raises(PreconditionError, match="limited to size"):
        LinearMatrix(F, 9, 1, [[[0] * 9 for _ in range(9)]]).det_poly()
    with pytest.raises(PreconditionError, match="even size"):
        LinearMatrix(F, 3, 1, [[[0] * 3 for _ in range(3)]]).pfaffian_poly()
    with pytest.raises(PreconditionError, match="non-alternating"):
        LinearMatrix(F, 2, 1, [[[0, 1], [1, 0]]]).pfaffian_poly()
    with pytest.raises(PreconditionError, match="non-alternating"):
        LinearMatrix(F, 2, 1, [[[1, 0], [0, 0]]]).pfaffian_poly()
    # alternating is computed, never claimed: there is no flag to set
    a = LinearMatrix(F, 2, 1, [[[0, 1], [-1, 0]]])
    assert a.alternating and a.pfaffian_poly() == MultiPoly.var(F, 1, 0)
    with pytest.raises(TypeError):
        LinearMatrix(F, 2, 1, [[[0, 1], [-1, 0]]], alternating=False)


def test_linear_matrix_klein_round_trip():
    F = GF(11)
    rng = random.Random(14)
    rows = [[F.element(rng.randrange(11)) for _ in range(6)] for _ in range(6)]
    a = LinearMatrix.from_klein_rows(F, 6, rows)
    assert a.alternating
    for i in range(6):
        assert klein_coordinates(a, i) == tuple(rows[k][i] for k in range(6))


@pytest.mark.parametrize("field", ORACLE_FIELDS)
def test_expansions_leave_no_cyclic_garbage(field):
    # the memo of minors is freed when an expansion returns, so repeated
    # expansions do not pile up until the cyclic collector runs
    rng = random.Random(17)
    m = rand_linear_matrix(rng, field, 4, 3)
    alt = [[rand_linear(rng, field, 3) for _ in range(4)] for _ in range(4)]
    for i in range(4):
        alt[i][i] = const(field, 3, 0)
        for j in range(i):
            alt[i][j] = -alt[j][i]
    a = LinearMatrix.from_klein_rows(field, 6, [[rng.randint(-5, 5) for _ in range(6)]
                                                for _ in range(6)])
    gc.collect()
    gc.disable()
    try:
        poly_det(m)
        pfaffian(PolyMatrix(alt))
        a.pfaffian_poly()
        a.det_poly()
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0
