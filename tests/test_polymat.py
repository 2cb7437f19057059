import gc
import random
from fractions import Fraction
from pathlib import Path

import pytest

from k3lab import (GF, QQ, DegenerateSystem, LinearMatrix, MultiPoly, NetOfQuadrics,
                   PencilOfQuadrics, PolyMatrix, PreconditionError, QuadraticForm, cli,
                   linalg, pfaffian, poly_det, polymat)
from k3lab.systems import member_matrix
from k3lab.univar import plane_rows
from oracles import (cofactor_det, klein_coordinates, klein_matrix, leibniz_det,
                     matching_pfaffian, pfaffian_three_term, poly_entries)

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
        a = klein_matrix(field, nvars, rows)
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
    a = klein_matrix(F, 6, rows)
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
    a = klein_matrix(field, 6, [[rng.randint(-5, 5) for _ in range(6)] for _ in range(6)])
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


# -- determinants of linear matrices in at most three variables --------------
# These go through _kronecker_det, one int determinant at a Kronecker point.

KRONECKER_FIELDS = (QQ, GF(3), GF(13), GF(2**31 - 1))
FRACTIONAL_NET = str(Path(__file__).parent / "data" / "net-fractional.json")


def seeded_systems(rng, field):
    """Two dense and one diagonal pencil and net over ``field``."""
    out = []
    for cls in (PencilOfQuadrics, NetOfQuadrics):
        n, k = cls.NVARS, cls.NFORMS
        for dense in (True, True, False):
            while True:
                grams = [[[rand_coeff(rng, field) if dense or i == j else field.zero
                           for j in range(n)] for i in range(n)] for _ in range(k)]
                for g in grams:
                    for i in range(n):
                        for j in range(i):
                            g[i][j] = g[j][i]
                try:
                    out.append(cls(*(QuadraticForm(g, field) for g in grams)))
                    break
                except DegenerateSystem:
                    continue
    return out


@pytest.mark.parametrize("field", KRONECKER_FIELDS)
def test_member_matrix_dets_match_the_cofactor_oracle(field):
    # and _det_rows decodes the packed determinant into the plane rows and
    # scale that plane_rows takes from the boxed one, a pencil's read as a
    # plane form free of x2; (None, 1) for the pencil of x0^2, x1^2 and the
    # net of x0^2, x1^2, x2^2, whose determinants vanish identically
    systems = seeded_systems(random.Random(31), field)
    if field == QQ:
        systems.append(cli.load_system(FRACTIONAL_NET))
    for cls in (PencilOfQuadrics, NetOfQuadrics):
        units = [[int(i == j) for j in range(cls.NVARS)] for i in range(cls.NFORMS)]
        systems.append(cls.from_diagonals(*units, field=field))
    for system in systems:
        a = member_matrix(system)
        assert a.nvars <= 3
        det = a.det_poly()
        assert det == cofactor_det(poly_entries(a))
        if det.is_zero():
            assert a._det_rows() == (None, 1)
            continue
        plane = MultiPoly(field, 3, {e + (0,) * (3 - len(e)): c for e, c in det.terms.items()})
        assert a._det_rows() == plane_rows(plane)


@pytest.mark.parametrize("field", KRONECKER_FIELDS)
def test_linear_matrix_dets_in_up_to_three_variables_match_the_cofactor_oracle(field):
    # dense up to size 6; sizes 7 and 8 sparse, which the zero-skipping
    # cofactor oracle expands in time; every shape once more with a zero row
    rng = random.Random(32)
    for n in range(1, 9):
        density = 1 if n <= 6 else 0.3
        for nvars in (1, 2, 3):
            mats = [[[rand_coeff(rng, field) if rng.random() < density else 0
                      for _ in range(n)] for _ in range(n)] for _ in range(nvars)]
            a = LinearMatrix(field, n, nvars, mats)
            assert a.det_poly() == cofactor_det(poly_entries(a))
            j = rng.randrange(n)
            for mat in mats:
                mat[j] = [0] * n
            a = LinearMatrix(field, n, nvars, mats)
            assert a._terms(False) == {} and a.det_poly().is_zero()
            zero = LinearMatrix(field, n, nvars, [[[0] * n for _ in range(n)]] * nvars)
            assert zero._terms(False) == {} and zero.det_poly().is_zero()


@pytest.mark.parametrize("field", (QQ, GF(13), GF(2**31 - 1)))
def test_linear_matrix_det_at_its_coefficient_bound(field):
    # det diag(M x_v, ..., M x_v) = M^n x_v^n, whose coefficient equals the
    # bound prod_rows sum |coefficients| that sizes the Kronecker digits;
    # over GF(p), M and -M run over the largest balanced representatives
    ms = (7, -7) if field == QQ else (field.p // 2, field.p // 2 + 1)
    for n in range(1, 9):
        for nvars in (1, 2, 3):
            for v in {0, nvars - 1}:
                for m in ms:
                    mats = [[[m if j == k and i == v else 0 for k in range(n)]
                             for j in range(n)] for i in range(nvars)]
                    x = MultiPoly.var(field, nvars, v)
                    assert LinearMatrix(field, n, nvars, mats).det_poly() == x**n * m**n


def test_kronecker_point_packs_balanced_representatives(monkeypatch):
    # -1 mod p is packed as -1, not as p - 1: a 2x2 matrix of coefficients
    # +-1 mod p has digits of at most 7 bits, and its Kronecker point stays
    # below p
    F = GF(2**31 - 1)
    points = []
    real = linalg.int_det
    monkeypatch.setattr(linalg, "int_det", lambda rows, p: points.append(rows) or real(rows, p))
    rng = random.Random(34)
    for nvars in (1, 2, 3):
        a = LinearMatrix(F, 2, nvars, [[[rng.choice((1, -1)) for _ in range(2)]
                                        for _ in range(2)] for _ in range(nvars)])
        assert a.det_poly() == cofactor_det(poly_entries(a))
        assert max(abs(x) for row in points[-1] for x in row) < F.p


def test_only_four_by_four_dets_in_four_or_more_variables_expand(monkeypatch):
    # the 4x4 Pfaffian is the product table's, its det in 1-3 variables
    # _kronecker_det's; only the det in 4-6 variables is left to _expand
    calls = []
    real = polymat._expand
    monkeypatch.setattr(polymat, "_expand",
                        lambda rows, p, pf: calls.append((len(rows), pf)) or real(rows, p, pf))
    rng = random.Random(35)
    for nvars in range(1, 7):
        rows = [[rng.randint(-5, 5) for _ in range(nvars)] for _ in range(6)]
        a = klein_matrix(QQ, nvars, rows)
        assert a.pfaffian_poly() ** 2 == a.det_poly()
    assert calls == [(4, False)] * 3


# -- degree-2 expansions from the product table --------------------------------
# det of a 2x2 and Pf of a 4x4 are sums of signed products of two cells; each
# product adds u_k v_l to the key of x_k x_l, u and v the cells' coefficient
# columns.  Compared with the Laplace kernel, the route these expansions took
# before the table, and with the permutation and matching oracles.

TABLE_FIELDS = (QQ, GF(3), GF(5), GF(13), GF(1009), GF(2**31 - 1))


def degree2_matrix(rng, field, pf, nvars, density):
    """A seeded 2x2 linear matrix, or an alternating 4x4 one when ``pf``, in
    ``nvars`` variables; each free coefficient is drawn with probability
    ``density`` and is 0 otherwise."""
    n = 4 if pf else 2
    mats = []
    for _ in range(nvars):
        mat = [[field.zero] * n for _ in range(n)]
        for j in range(n):
            for k in range(j + 1 if pf else 0, n):
                if rng.random() < density:
                    mat[j][k] = rand_coeff(rng, field)
                if pf:
                    mat[k][j] = -mat[j][k]
        mats.append(mat)
    return LinearMatrix(field, n, nvars, mats)


def laplace_terms(a, pf):
    """det (Pf when ``pf``) of ``a`` through ``_expand``, on entries packed as
    ``LinearMatrix._terms`` packs them."""
    n, width = a.size, polymat._width(a.size, pf)
    rows = [[[(1 << width * i, mat[j][k]) for i, mat in enumerate(a._mats) if mat[j][k]]
             for k in range(n)] for j in range(n)]
    return polymat._expand(rows, a.field.char, pf)


def table_terms(a, pf):
    return polymat._degree2_terms(a._mats, polymat._DEGREE2_PRODUCTS[a.size, pf],
                                  a.field.char)


@pytest.mark.parametrize("pf", (False, True))
@pytest.mark.parametrize("field", TABLE_FIELDS)
def test_degree2_expansions_match_laplace_and_the_oracles(field, pf):
    # 0-6 variables, sparse to dense; a 2x2 det in at most three variables
    # is _kronecker_det's in _terms, so the table is also called directly
    rng = random.Random(f"degree2/{field}/{pf}")
    oracle = matching_pfaffian if pf else leibniz_det
    for nvars in range(7):
        for density in (0.3, 0.7, 1):
            for _ in range(4):
                a = degree2_matrix(rng, field, pf, nvars, density)
                want = laplace_terms(a, pf)
                assert table_terms(a, pf) == want
                assert a._terms(pf) == want
                got = a.pfaffian_poly() if pf else a.det_poly()
                assert got == oracle(poly_entries(a))


@pytest.mark.parametrize("pf", (False, True))
@pytest.mark.parametrize("field", TABLE_FIELDS)
def test_degree2_expansions_that_cancel_are_empty(field, pf):
    # det [[2L, L], [L, L/2]] and the Pf of Klein coordinates 2L, L, 0, 0,
    # L, L/2 are 2 L (L/2) - L^2 = 0.  Over GF(p) the coefficients c of L
    # are odd, so the residues of 2c and c/2 = (c + p)/2 multiply to c^2
    # plus a nonzero multiple of p: the int sum is nonzero and must reduce
    # away
    rng = random.Random(f"degree2-cancel/{field}/{pf}")
    half = field.one / field.coerce(2)
    for nvars in range(1, 7):
        lin = [field.coerce(rng.randrange(1, min(field.p, 99), 2)) if field.char
               else nonzero_coeff(rng, field) for _ in range(nvars)]
        cells = ({(0, 1): 2, (0, 2): 1, (1, 3): 1, (2, 3): half} if pf
                 else {(0, 0): 2, (0, 1): 1, (1, 0): 1, (1, 1): half})
        n = 4 if pf else 2
        mats = []
        for c in lin:
            mat = [[field.zero] * n for _ in range(n)]
            for (j, k), t in cells.items():
                mat[j][k] = c * t
                if pf:
                    mat[k][j] = -mat[j][k]
            mats.append(mat)
        a = LinearMatrix(field, n, nvars, mats)
        assert table_terms(a, pf) == a._terms(pf) == laplace_terms(a, pf) == {}
        assert (matching_pfaffian if pf else leibniz_det)(poly_entries(a)).is_zero()
        if field.char:
            assert polymat._degree2_terms(a._mats, polymat._DEGREE2_PRODUCTS[n, pf], 0)


@pytest.mark.parametrize("field", TABLE_FIELDS)
def test_degree2_table_takes_only_its_two_shapes(field, monkeypatch):
    # one route per shape: 2x2 dets in 4-6 variables and 4x4 Pfaffians take
    # the table; dets in at most three variables stay on _kronecker_det, and
    # 2x2 Pfaffians (degree 1), 6x6 Pfaffians and 3x3 dets in 4-6 variables
    # on _expand
    calls = []
    for name in ("_kronecker_det", "_degree2_terms", "_expand"):
        monkeypatch.setattr(polymat, name, lambda *args, real=getattr(polymat, name),
                            name=name: calls.append(name) or real(*args))
    rng = random.Random(f"degree2-dispatch/{field}")

    def route(size, nvars, pf):
        mats = [[[rand_coeff(rng, field) for _ in range(size)] for _ in range(size)]
                for _ in range(nvars)]
        if pf:
            mats = [[[m[j][k] - m[k][j] for k in range(size)] for j in range(size)]
                    for m in mats]
        a = LinearMatrix(field, size, nvars, mats)
        del calls[:]
        a.pfaffian_poly() if pf else a.det_poly()
        return calls

    for nvars in range(7):
        kronecker = nvars <= polymat._MAX_KRONECKER_VARS
        assert route(2, nvars, False) == ["_kronecker_det" if kronecker else "_degree2_terms"]
        assert route(4, nvars, True) == ["_degree2_terms"]
        assert route(2, nvars, True) == ["_expand"]
        assert route(6, nvars, True) == ["_expand"]
        assert route(3, nvars, False) == ["_kronecker_det" if kronecker else "_expand"]


# -- the blocks of the Kronecker point -----------------------------------------
# _kronecker_det multiplies the determinants of the diagonal blocks of the
# point: i and j share a block when some A_k[i][j] or A_k[j][i] is nonzero.

BLOCK_FIELDS = (QQ, GF(3), GF(13), GF(2**31 - 1))


def nonzero_coeff(rng, field):
    while True:
        c = rand_coeff(rng, field)
        if c:
            return c


def block_linear_matrix(rng, field, sizes, nvars, density):
    """Coefficient matrices whose indices fall into blocks of ``sizes``,
    spread over the indices by a random permutation, and the blocks.  Inside
    a block each coefficient is drawn with probability ``density`` (1: a
    dense block), and one nonzero entry per index, i to the next index of
    its block, in one direction only, keeps the block connected."""
    n = sum(sizes)
    perm = rng.sample(range(n), n)
    blocks = [perm[sum(sizes[:b]):sum(sizes[:b + 1])] for b in range(len(sizes))]
    mats = [[[0] * n for _ in range(n)] for _ in range(nvars)]
    for block in blocks:
        for pos, i in enumerate(block):
            for j in block:
                for mat in mats:
                    if rng.random() < density:
                        mat[i][j] = rand_coeff(rng, field)
            mats[rng.randrange(nvars)][i][block[(pos + 1) % len(block)]] = nonzero_coeff(rng, field)
    return mats, blocks


def random_sizes(rng, n, largest):
    sizes = []
    while sum(sizes) < n:
        sizes.append(rng.randint(1, min(largest, n - sum(sizes))))
    return sizes


def spy_blocks(monkeypatch):
    seen = []
    real = polymat._blocks
    monkeypatch.setattr(polymat, "_blocks", lambda point: seen.append(real(point)) or seen[-1])
    return seen


def as_partition(blocks):
    return {frozenset(b) for b in blocks}


@pytest.mark.parametrize("field", BLOCK_FIELDS)
def test_kronecker_blocks_of_permuted_block_matrices(field, monkeypatch):
    # blocks of sizes 1-4, sparse and not symmetric, spread over the indices
    seen = spy_blocks(monkeypatch)
    rng = random.Random(f"kronecker-blocks/{field}")
    for n in range(1, 9):
        for nvars in (1, 2, 3):
            for density in (0.2, 0.6):
                mats, blocks = block_linear_matrix(rng, field, random_sizes(rng, n, 4),
                                                   nvars, density)
                a = LinearMatrix(field, n, nvars, mats)
                assert a.det_poly() == cofactor_det(poly_entries(a))
                assert as_partition(seen[-1]) == as_partition(blocks)


@pytest.mark.parametrize("field", BLOCK_FIELDS)
def test_kronecker_blocks_of_one_by_one(field, monkeypatch):
    # a diagonal matrix is n blocks of size 1: a product of linear forms,
    # and int_det is never called
    seen = spy_blocks(monkeypatch)
    dets = []
    real = linalg.int_det
    monkeypatch.setattr(linalg, "int_det", lambda rows, p: dets.append(rows) or real(rows, p))
    rng = random.Random(f"kronecker-diagonal/{field}")
    for n in range(1, 9):
        for nvars in (1, 2, 3):
            mats, blocks = block_linear_matrix(rng, field, [1] * n, nvars, 0.7)
            a = LinearMatrix(field, n, nvars, mats)
            assert a.det_poly() == cofactor_det(poly_entries(a))
            assert as_partition(seen[-1]) == as_partition(blocks)
    assert dets == []


@pytest.mark.parametrize("field", BLOCK_FIELDS)
def test_kronecker_blocks_with_a_zero_row(field):
    rng = random.Random(f"kronecker-zero-row/{field}")
    for n in range(2, 9):
        for nvars in (1, 2, 3):
            mats, _ = block_linear_matrix(rng, field, random_sizes(rng, n, 3), nvars, 0.5)
            j = rng.randrange(n)
            for mat in mats:
                mat[j] = [0] * n
            a = LinearMatrix(field, n, nvars, mats)
            assert a._terms(False) == {} and cofactor_det(poly_entries(a)).is_zero()
        # a matrix in no variables is zero
        assert LinearMatrix(field, n, 0, [])._terms(False) == {}


@pytest.mark.parametrize("field", BLOCK_FIELDS)
def test_kronecker_one_dense_block(field, monkeypatch):
    seen = spy_blocks(monkeypatch)
    rng = random.Random(f"kronecker-dense/{field}")
    for n in range(1, 7):
        for nvars in (1, 2, 3):
            mats, blocks = block_linear_matrix(rng, field, [n], nvars, 1)
            a = LinearMatrix(field, n, nvars, mats)
            assert a.det_poly() == cofactor_det(poly_entries(a))
            assert len(seen[-1]) == 1 and as_partition(seen[-1]) == as_partition(blocks)
