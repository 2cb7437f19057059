"""The relation checks on ints against boxed oracles.

Span coordinates, T, disc(B), the det/Pf = q check of ``express_as_*`` and
``left_right_transform`` run on raw int rows; here each is recomputed on
boxed scalars through ``tests/oracles.py`` (cofactor and perfect-matching
expansions of ``poly_entries``, a Gauss-Jordan span solve on MultiPoly
coefficients, ``MultiPoly.eval``, permutation-sum determinants) over QQ,
GF(13) and GF(2**31 - 1).  Mutants that change one raw coefficient of a
model must fail the checks with VerificationFailure.
``congruence_transform``, which acts through wedge^2 g, must equal
``left_right_transform(g, g)`` on net samples and random alternating
matrices over QQ and GF(p) for small and large p, and ``wedge2_matrix``
the minors taken on boxed scalars (``boxed_wedge2``).  Seeds and sizes are
fixed.
"""

import random
from fractions import Fraction

import pytest

from k3lab import (GF, QQ, LinearMatrix, NetOfQuadrics, NotInSpan,
                   PencilOfQuadrics, PreconditionError, QuadraticForm, SystemPoint,
                   VerificationFailure, b_coordinates, discriminant_poly, express_as_2x2_det,
                   express_as_pfaffian, sample_point, t_invariant)
from k3lab import cli, construction, linalg, quadforms
from k3lab.systems import member_at
from oracles import (boxed_span_solve, boxed_wedge2, cofactor_det, form_poly,
                     klein_coordinates, klein_matrix, matching_pfaffian, member_rows,
                     model_form, poly_entries, poly_form, scalar_leibniz_det,
                     symbolic_member_entries)

FIELDS = (QQ, GF(13), GF(2**31 - 1))
IDS = ("QQ", "GF13", "GFmersenne")
PRIMES = (13, 2**31 - 1)


def rand_scalar(rng, field):
    if field.char == 0:
        return Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 5)))
    return field.element(rng.randrange(field.p))


def rand_matrix(rng, field, n, nvars):
    return LinearMatrix(field, n, nvars, [[[rand_scalar(rng, field) for _ in range(n)]
                                           for _ in range(n)] for _ in range(nvars)])


def rand_klein(rng, field):
    return klein_matrix(field, 6, [[rand_scalar(rng, field) for _ in range(6)]
                                   for _ in range(6)])


def rand_form(rng, field, n):
    g = [[field.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = rand_scalar(rng, field)
    return QuadraticForm(g, field)


def oracle_quadratic(a):
    """det (2x2) or Pf (alternating 4x4) of A(x), expanded on boxed entries."""
    entries = poly_entries(a)
    return cofactor_det(entries) if a.size == 2 else matching_pfaffian(entries)


def system_through(rng, a):
    """A pencil (a 2x2) or net (a 4x4) whose span holds det/Pf A(x) with
    nonzero seeded coordinates c: the first form is solved for."""
    field = a.field
    n, k = (4, 2) if a.size == 2 else (6, 3)
    others = [rand_form(rng, field, n) for _ in range(k - 1)]
    c = [field.coerce(rng.choice((1, 2, 3, -1, -5)))] + [rand_scalar(rng, field)
                                                          for _ in others]
    rest = oracle_quadratic(a)
    for ci, q in zip(c[1:], others):
        rest = rest - form_poly(q) * ci
    first = poly_form(rest * (field.one / c[0]))
    cls = PencilOfQuadrics if k == 2 else NetOfQuadrics
    return cls(first, *others), tuple(c)


# -- span coordinates -------------------------------------------------------------

@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_b_coordinates_against_boxed_span_solve(field):
    rng = random.Random(301)
    for make in ((lambda: rand_matrix(rng, field, 2, 4)), (lambda: rand_klein(rng, field))):
        for _ in range(4):
            a = make()
            system, c = system_through(rng, a)
            b = b_coordinates(a, system)
            assert b == c
            assert b == boxed_span_solve(oracle_quadratic(a), list(map(form_poly, system.forms)))
            # an unrelated system: NotInSpan exactly when the oracle finds no solution
            other, _ = system_through(rng, make())
            want = boxed_span_solve(oracle_quadratic(a), list(map(form_poly, other.forms)))
            if want is None:
                with pytest.raises(NotInSpan):
                    b_coordinates(a, other)
            else:
                assert b_coordinates(a, other) == want


@pytest.mark.parametrize("p", PRIMES)
def test_b_coordinates_not_in_span_over_gf(p):
    F = GF(p)
    pencil = PencilOfQuadrics(model_form(F, 4), QuadraticForm(
        [[1 if i == j else 0 for j in range(4)] for i in range(4)], F))
    diagonal = PencilOfQuadrics.from_diagonals([1, 1, 1, 1], [0, 1, 2, 3], F)
    # det = x0^2 has the forms' monomials but lies outside span(q1, q2), and
    # det = x0 x3 - x1 x2 has monomials that no diagonal form has
    square = LinearMatrix(F, 2, 4, [[[1, 0], [0, 1]]] + [[[0, 0], [0, 0]]] * 3)
    canonical = LinearMatrix(F, 2, 4, [[[int(2 * j + k == i) for k in range(2)]
                                        for j in range(2)] for i in range(4)])
    for a, system in ((square, pencil), (canonical, diagonal)):
        assert boxed_span_solve(oracle_quadratic(a),
                                list(map(form_poly, system.forms))) is None
        with pytest.raises(NotInSpan):
            b_coordinates(a, system)


# -- T and disc(B) --------------------------------------------------------------------

def oracle_t(a):
    field = a.field
    if a.size == 2:
        cols = [[m[0][0], m[0][1], m[1][0], m[1][1]] for m in a.coeff_mats]
    else:
        cols = [list(klein_coordinates(a, i)) for i in range(6)]
    return scalar_leibniz_det(field, [list(r) for r in zip(*cols)])


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_t_invariant_against_leibniz(field):
    rng = random.Random(302)
    for _ in range(6):
        for a in (rand_matrix(rng, field, 2, 4), rand_klein(rng, field)):
            assert t_invariant(a) == oracle_t(a)
    # a singular coefficient matrix: two equal columns
    a = LinearMatrix(field, 2, 4, [[[1, 2], [3, 4]]] * 2 + [[[0, 1], [1, 0]], [[5, 0], [0, 1]]])
    assert t_invariant(a) == 0 == oracle_t(a)


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_discriminant_at_b_against_boxed_eval(field):
    rng = random.Random(303)
    for k, n in ((2, 4), (3, 6)):
        cls = PencilOfQuadrics if k == 2 else NetOfQuadrics
        system = cls(*(rand_form(rng, field, n) for _ in range(k)))
        disc, p = cofactor_det(symbolic_member_entries(system)), field.char
        assert discriminant_poly(system) == disc
        grams = [q._rows for q in system.forms]
        for _ in range(5):
            b = [rand_scalar(rng, field) for _ in range(k)]
            raw = [x.v for x in b] if field.char else b
            # disc(B) as verify_relation takes it: one determinant of the member at B
            member = member_at(system, raw)
            assert member == member_rows(grams, raw, p)
            rows, scale = linalg.scaled_rows(member, p)
            assert field.coerce(Fraction(linalg.int_det(rows, p), scale ** n)) == disc.eval(b)


# -- the det/Pf = q check of express_as_* --------------------------------------------------

def split_forms(rng, F, n, count):
    """Seeded split n-variable forms over F (a random isometric image of the
    target model)."""
    target = model_form(F, n)
    out = []
    while len(out) < count:
        m = [[rand_scalar(rng, F) for _ in range(n)] for _ in range(n)]
        g = [[sum((m[k][i] * target.gram[k][l] * m[l][j] for k in range(n) for l in range(n)),
                  F.zero) for j in range(n)] for i in range(n)]
        q = QuadraticForm(g, F)
        if q.is_nondegenerate():
            out.append(q)
    return out


def model_from_rows(F, n, r):
    """The LinearMatrix ``express_as_*`` builds from model rows r, through
    the public constructors."""
    if n == 4:
        return LinearMatrix(F, 2, 4, [[[r[0][i], r[1][i]], [r[2][i], r[3][i]]]
                                      for i in range(4)])
    return klein_matrix(F, 6, r)


@pytest.mark.parametrize("p", PRIMES)
def test_express_check_against_oracle_expansions(p, monkeypatch):
    F = GF(p)
    rng = random.Random(304)
    real = quadforms._model_rows
    for n, express in ((4, express_as_2x2_det), (6, express_as_pfaffian)):
        for q in split_forms(rng, F, n, 3):
            a = express(q)
            assert oracle_quadratic(a) == form_poly(q)
            rows = real(p, quadforms._witt_rows(q._rows, p)[3])
            assert model_from_rows(F, n, rows) == a
            # each one-coefficient mutant of the model fails the check, and
            # the oracle agrees that its det/Pf is not q
            for i in range(n):
                for j in range(n):
                    mutant = [list(row) for row in rows]
                    mutant[i][j] = (mutant[i][j] + 1) % p
                    assert oracle_quadratic(model_from_rows(F, n, mutant)) != form_poly(q)
                    monkeypatch.setattr(quadforms, "_model_rows", lambda p_, gm: mutant)
                    with pytest.raises(VerificationFailure):
                        express(q)
            monkeypatch.setattr(quadforms, "_model_rows", real)


@pytest.mark.parametrize("p", PRIMES)
def test_system_point_build_rejects_one_coefficient_mutants(p):
    F = GF(p)
    pencil = PencilOfQuadrics.from_diagonals([1, 1, 1, 1], [0, 1, 2, 3])
    net = NetOfQuadrics.from_diagonals([1] * 6, [0, 1, 2, 3, 4, 5], [0, 1, 4, 9, 16, 25])
    pt = sample_point(pencil, p, seed=3)
    for i, mat in enumerate(pt.matrix.coeff_mats):
        for j in range(2):
            for k in range(2):
                mats = [[list(row) for row in m] for m in pt.matrix.coeff_mats]
                mats[i][j][k] += 1
                with pytest.raises(VerificationFailure):
                    SystemPoint.build(LinearMatrix(F, 2, 4, mats), pt.system, pt.base_point)
    pt = sample_point(net, p, seed=3)
    rows = [list(r) for r in zip(*(klein_coordinates(pt.matrix, i) for i in range(6)))]
    for a in range(6):
        for i in range(6):
            mutant = [list(row) for row in rows]
            mutant[a][i] += 1
            with pytest.raises(VerificationFailure):
                SystemPoint.build(klein_matrix(F, 6, mutant), pt.system, pt.base_point)


# -- transforms --------------------------------------------------------------------------

def boxed_product(field, a, b):
    return [[sum((x * y for x, y in zip(row, col)), field.zero) for col in zip(*b)]
            for row in a]


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_left_right_transform_against_boxed_products(field):
    rng = random.Random(305)
    for n, nvars in ((2, 4), (3, 2), (4, 6)):
        a = rand_klein(rng, field) if n == 4 else rand_matrix(rng, field, n, nvars)
        for _ in range(3):
            g, h = ([[rand_scalar(rng, field) for _ in range(n)] for _ in range(n)]
                    for _ in range(2))
            got = a.left_right_transform(g, h)
            want = [boxed_product(field, boxed_product(field, g, m), list(zip(*h)))
                    for m in a.coeff_mats]
            assert [[list(row) for row in m] for m in got.coeff_mats] == want
            assert got == LinearMatrix(field, n, nvars, want)
            assert got.alternating == LinearMatrix(field, n, nvars, want).alternating
            if n == 4:
                assert a.congruence_transform(g).alternating


# the builtin net's diagonals, and a diagonal net with a split member mod 3,
# where the builtin net has none
DIAG_NET = NetOfQuadrics.from_diagonals([1] * 6, [0, 1, 2, 3, 4, 5], [0, 1, 4, 9, 16, 25])
NET_MOD3 = NetOfQuadrics.from_diagonals([3, 0, 3, 0, -3, -1], [1, 0, 0, 3, 3, -1],
                                        [0, -1, 1, -2, 1, -2])
WEDGE_FIELDS = (QQ, GF(3), GF(5), GF(13), GF(1009), GF(2**31 - 1))
WEDGE_IDS = ("QQ", "GF3", "GF5", "GF13", "GF1009", "GFmersenne")


def congruence_against_left_right(a, g):
    """``a.congruence_transform(g)``, asserted equal to
    ``a.left_right_transform(g, g)`` in raw rows, scale and alternating flag."""
    got, want = a.congruence_transform(g), a.left_right_transform(g, g)
    assert (got._mats, got._scale, got.alternating) == (
        want._mats, want._scale, want.alternating)
    assert got.alternating
    return got


@pytest.mark.parametrize("p", [f.p for f in WEDGE_FIELDS[1:]], ids=WEDGE_IDS[1:])
def test_congruence_transform_on_net_samples(p):
    field, rng = GF(p), random.Random(306 + p)
    net = NET_MOD3 if p == 3 else DIAG_NET
    for seed in range(6):
        a = sample_point(net, p, seed).matrix
        for g in ([[rand_scalar(rng, field) for _ in range(4)] for _ in range(4)],
                  construction.random_sl(field, 4, rng)):
            congruence_against_left_right(a, g)


@pytest.mark.parametrize("field", WEDGE_FIELDS, ids=WEDGE_IDS)
def test_congruence_transform_on_random_alternating_matrices(field):
    rng = random.Random(307)
    rescaled = 0
    for nvars in (1, 3, 6):
        for _ in range(8):
            a = klein_matrix(field, nvars, [[rand_scalar(rng, field) for _ in range(nvars)]
                                            for _ in range(6)])
            g = [[rand_scalar(rng, field) for _ in range(4)] for _ in range(4)]
            got = congruence_against_left_right(a, g)
            rescaled += got._scale != a._scale
    # over QQ the draws put denominators in g, so the scale dg^2 is tested
    assert rescaled if field.char == 0 else not rescaled


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_wedge2_matrix_boxes_the_kernel_rows(field):
    rng = random.Random(308)
    for _ in range(10):
        g = [[rand_scalar(rng, field) for _ in range(4)] for _ in range(4)]
        rows, dg = linalg.int_rows(field, g)
        got = construction.wedge2_matrix(field, g)
        assert got == linalg._box(field, linalg.int_wedge2(rows, field.char), dg * dg)
        assert got == boxed_wedge2(g)
        assert all(type(x) is type(field.one) for row in got for x in row)


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_congruence_transform_refuses_a_non_alternating_matrix(field):
    rng = random.Random(309)
    a = rand_matrix(rng, field, 4, 6)
    assert not a.alternating
    with pytest.raises(PreconditionError) as err:
        a.congruence_transform([[rand_scalar(rng, field) for _ in range(4)] for _ in range(4)])
    assert str(err.value) == "congruence_transform of a non-alternating matrix"


def test_net_invariance_transforms_by_congruence_only(capsys, monkeypatch):
    calls = {"left_right_transform": 0, "congruence_transform": 0}
    for name in calls:
        def counted(self, *elements, _name=name, _real=getattr(LinearMatrix, name)):
            calls[_name] += 1
            return _real(self, *elements)
        monkeypatch.setattr(LinearMatrix, name, counted)
    assert cli.main(["construct", "invariance", "--system", "builtin:net-diagonal",
                     "--p", "13", "--count", "5", "--seed", "1"]) == 0
    assert '"t_invariant": true' in capsys.readouterr().out
    assert calls == {"left_right_transform": 0, "congruence_transform": 5}


def test_invariance_computes_the_untransformed_side_once(capsys, monkeypatch):
    calls = []
    real = construction.t_invariant
    monkeypatch.setattr(construction, "t_invariant", lambda a: calls.append(a) or real(a))
    assert cli.main(["construct", "invariance", "--system", "builtin:net-diagonal",
                     "--p", "13", "--count", "4", "--seed", "2"]) == 0
    assert '"t_invariant": true' in capsys.readouterr().out
    # the sampled matrix once, then each of the four transformed matrices
    assert len(calls) == 5 and len({id(a) for a in calls}) == 5
