import random
from fractions import Fraction

import pytest

from k3lab import (GF, QQ, MultiPoly, NotSplit, PreconditionError,
                   QuadraticForm, VerificationFailure, diagonalize,
                   express_as_2x2_det, express_as_pfaffian, is_split,
                   isotropic_vector, witt_split)
from k3lab import linalg
from oracles import (exhaustive_isotropic, form_poly, hyperbolic_form, identity,
                     klein_coordinates, model_form, poly_entries, poly_form,
                     row_reduction_rank, witt_index_exhaustive)


def diag_form(entries, field=QQ):
    n = len(entries)
    return QuadraticForm(
        [[field.coerce(entries[i]) if i == j else field.zero for j in range(n)]
         for i in range(n)], field)


def rand_sym_gram(rng, field, n, lo=-5, hi=5):
    g = [[field.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            c = field.coerce(rng.randint(lo, hi))
            g[i][j] = g[j][i] = c
    return g


def congruent(field, m, gram):
    """m^T G m by the boxed products of ``linalg``."""
    return linalg.mat_mul(field, linalg.mat_mul(field, tuple(zip(*m)), gram), m)


def rand_form(rng, field, n, nondegenerate=False):
    while True:
        q = QuadraticForm(rand_sym_gram(rng, field, n), field)
        if not nondegenerate or q.is_nondegenerate():
            return q


# -- disc -----------------------------------------------------------------

def test_disc_diagonal():
    q = diag_form([2, 3, 5, 7])
    assert q.disc() == 2 * 3 * 5 * 7


def test_disc_hyperbolic_four_vars():
    # q = x0 x3 - x1 x2 has Gram entries +-1/2 on two antidiagonal blocks
    q = model_form(GF(7), 4)
    qq_version = QuadraticForm(
        [[0, 0, 0, Fraction(1, 2)],
         [0, 0, Fraction(-1, 2), 0],
         [0, Fraction(-1, 2), 0, 0],
         [Fraction(1, 2), 0, 0, 0]], QQ)
    assert qq_version.disc() == Fraction(1, 16)
    assert q.disc() == GF(7).coerce(Fraction(1, 16))


def test_disc_rank_three_vanishes():
    q = diag_form([1, 2, 3, 0])
    assert q.disc() == 0


# -- diagonalize -----------------------------------------------------------

def test_diagonalize_already_diagonal_is_identity():
    q = diag_form([1, 0, 2, 5])
    m, d = diagonalize(q)
    assert m == identity(QQ, 4)
    assert d == q


def test_diagonalize_hyperbolic_plane():
    q = QuadraticForm([[0, Fraction(1, 2)], [Fraction(1, 2), 0]], QQ)
    m, d = diagonalize(q)
    assert congruent(q.field, m, q.gram) == d.gram
    offdiag = [d.gram[i][j] for i in range(2) for j in range(2) if i != j]
    assert all(x == 0 for x in offdiag)
    assert all(d.gram[i][i] != 0 for i in range(2))


def test_diagonalize_rank_matches_row_reduction_oracle():
    rng = random.Random(41)
    for field in (QQ, GF(13)):
        for _ in range(40):
            q = rand_form(rng, field, rng.choice((3, 4, 5)))
            m, d = diagonalize(q)
            assert congruent(field, m, q.gram) == d.gram
            nonzero = sum(1 for i in range(q.n) if d.gram[i][i] != field.zero)
            assert nonzero == row_reduction_rank(field, [list(r) for r in q.gram])


# -- isotropic vectors -------------------------------------------------------

def test_isotropic_hyperbolic_plane():
    F = GF(7)
    q = hyperbolic_form(F, 1)  # x0 x1
    v = isotropic_vector(q)
    assert v is not None and any(v) and q.eval(v) == 0


def test_isotropic_not_found_mod_three():
    # x^2 + y^2 over F_3: -1 is a non-square, so anisotropic
    F = GF(3)
    q = diag_form([1, 1], F)
    assert isotropic_vector(q) is None
    assert exhaustive_isotropic(q) == []


def test_isotropic_random_ternary():
    rng = random.Random(42)
    for p in (3, 5, 7, 11, 13):
        F = GF(p)
        for _ in range(15):
            q = rand_form(rng, F, 3, nondegenerate=True)
            v = isotropic_vector(q)
            assert v is not None and any(v) and q.eval(v) == 0


def test_isotropic_never_none_for_n_at_least_three():
    rng = random.Random(43)
    for p in (3, 5, 7, 11, 13):
        F = GF(p)
        for n in (3, 4, 5, 6):
            for _ in range(6):
                q = rand_form(rng, F, n, nondegenerate=True)
                assert isotropic_vector(q) is not None


def test_isotropic_requires_nondegenerate():
    q = diag_form([1, 0, 1], GF(5))
    with pytest.raises(PreconditionError):
        isotropic_vector(q)


def test_isotropic_binary_iff_minus_disc_square():
    rng = random.Random(49)
    for p in (3, 5, 7, 11, 13):
        F = GF(p)
        for _ in range(20):
            q = rand_form(rng, F, 2, nondegenerate=True)
            found = isotropic_vector(q)
            expect = F.legendre(-q.disc()) == 1
            assert (found is not None) == expect
            if found is not None:
                assert q.eval(found) == 0


def test_isotropic_large_prime():
    # p = 2**31 - 1: the Witt split needs no search over the field; q(v)
    # is re-evaluated here with plain ints
    p = 2**31 - 1
    F = GF(p)
    rng = random.Random(50)
    for n in (3, 4, 5, 6):
        for _ in range(5):
            while True:
                q = QuadraticForm(rand_sym_gram(rng, F, n, 0, p - 1), F)
                if q.is_nondegenerate():
                    break
            v = isotropic_vector(q)
            assert v is not None and any(v)
            g = [[x.v for x in row] for row in q.gram]
            w = [x.v for x in v]
            assert sum(w[i] * g[i][j] * w[j] for i in range(n) for j in range(n)) % p == 0


# -- witt_split --------------------------------------------------------------

def test_witt_two_planes():
    # test_linalg.test_witt_split_transports_the_gram_exactly checks the
    # change of basis of this split
    dec = witt_split(hyperbolic_form(GF(7), 2))
    assert dec.h == 2 and dec.residual.n == 0


def test_witt_sum_of_four_squares_f5():
    q = diag_form([1, 1, 1, 1], GF(5))  # disc = 1, a square mod 5
    dec = witt_split(q)
    assert dec.h == 2 and dec.residual.n == 0
    assert witt_index_exhaustive(q) == 2


def test_witt_anisotropic_residual_f5():
    q = diag_form([1, 1, 1, 3], GF(5))  # disc = 3, a non-square mod 5
    dec = witt_split(q)
    assert dec.h == 1 and dec.residual.n == 2
    assert dec.residual.is_nondegenerate()
    assert isotropic_vector(dec.residual) is None
    assert witt_index_exhaustive(q) == 1


def test_witt_rejects_degenerate():
    from k3lab import DegenerateSystem
    with pytest.raises(DegenerateSystem):
        witt_split(diag_form([1, 0, 1, 1], GF(5)))


def test_witt_split_check_catches_a_bad_isotropic_vector(monkeypatch):
    # a wrong square root t makes v = b_i + t b_j non-isotropic and leaves an
    # invertible but wrong change of basis, which the explicit Gram-transport
    # check must catch, also under -O
    from k3lab import quadforms

    real = quadforms.sqrt_mod
    monkeypatch.setattr(quadforms, "sqrt_mod", lambda a, p: (real(a, p) + 1) % p)
    with pytest.raises(VerificationFailure):
        witt_split(diag_form([1, 2, 3, 4], GF(7)))


def test_disc_square_class_criteria_validated():
    # n = 4: split iff disc is a square; n = 6: h = 3 iff the disc class
    # matches the Klein form's class.  Validated against witt_split.
    rng = random.Random(45)
    for p in (5, 7, 11):
        F = GF(p)
        klein_disc_class = F.legendre(model_form(F, 6).disc())
        for _ in range(20):
            q4 = rand_form(rng, F, 4, nondegenerate=True)
            assert (witt_split(q4).h == 2) == (F.legendre(q4.disc()) == 1)
            q6 = rand_form(rng, F, 6, nondegenerate=True)
            assert (witt_split(q6).h == 3) == (
                F.legendre(q6.disc()) == klein_disc_class)


def test_disc_square_class_criteria_against_enumeration():
    # the same square-class shortcuts, checked against exhaustive
    # isotropic-subspace search for the smallest primes
    rng = random.Random(39)
    for p in (3, 5):
        F = GF(p)
        for _ in range(6):
            q4 = rand_form(rng, F, 4, nondegenerate=True)
            assert (witt_index_exhaustive(q4) == 2) == (
                F.legendre(q4.disc()) == 1)
    F = GF(3)
    rng6 = random.Random(38)
    klein_disc_class = F.legendre(model_form(F, 6).disc())
    seen = set()
    while len(seen) < 2:  # one form of each Witt index
        q6 = rand_form(rng6, F, 6, nondegenerate=True)
        split = F.legendre(q6.disc()) == klein_disc_class
        if split in seen:
            continue
        assert (witt_index_exhaustive(q6) == 3) == split
        seen.add(split)


def test_is_split_square_class_rule():
    for p in (5, 7, 11):
        F = GF(p)
        assert is_split(model_form(F, 4)) and is_split(model_form(F, 6))
        assert is_split(hyperbolic_form(F, 1))
        assert not is_split(diag_form([1, 1, 1, 0], F))
    assert not is_split(diag_form([1, 1, 1, 2], GF(3)))  # (-1)^2 * det = 2: a non-square mod 3
    with pytest.raises(PreconditionError):
        is_split(diag_form([1, 1, 1], GF(5)))


# -- congruence invariants ----------------------------------------------------

def test_disc_congruence_square_class_invariant():
    rng = random.Random(46)
    count = 0
    while count < 100:
        field = GF(rng.choice((5, 7, 11, 13)))
        q = rand_form(rng, field, 4)
        m = [[field.element(rng.randrange(field.p)) for _ in range(4)] for _ in range(4)]
        det_m = linalg.det(field, m)
        if not det_m:
            continue
        moved = QuadraticForm(congruent(field, m, q.gram), field)
        assert moved.disc() == det_m**2 * q.disc()
        count += 1


# -- determinantal and Pfaffian models ---------------------------------------

def test_express_2x2_canonical_hyperbolic():
    F = GF(7)
    a = express_as_2x2_det(model_form(F, 4))
    x = [MultiPoly.var(F, 4, i) for i in range(4)]
    pm = poly_entries(a)
    assert [pm[0][0], pm[0][1], pm[1][0], pm[1][1]] == [x[0], x[1], x[2], x[3]]


def test_express_2x2_mixed_form():
    # q = x0^2 - x1^2 + x2 x3
    F = GF(11)
    f = MultiPoly(F, 4, {(2, 0, 0, 0): 1, (0, 2, 0, 0): -1, (0, 0, 1, 1): 1})
    a = express_as_2x2_det(poly_form(f))
    assert a.det_poly() == f


def test_express_2x2_not_split_f3():
    # disc in the non-square class mod 3 has no 2-dim isotropic subspace
    F = GF(3)
    q = diag_form([1, 1, 1, 2], F)  # disc = 2, non-square mod 3
    with pytest.raises(NotSplit):
        express_as_2x2_det(q)
    assert witt_index_exhaustive(q) < 2


def test_express_2x2_random_split_forms():
    rng = random.Random(47)
    for p in (5, 7, 11):
        F = GF(p)
        done = 0
        while done < 100:
            q = rand_form(rng, F, 4, nondegenerate=True)
            if F.legendre(q.disc()) != 1:
                continue
            a = express_as_2x2_det(q)
            assert (a.det_poly() - form_poly(q)).is_zero()
            done += 1


def test_express_pfaffian_klein_is_coordinate_embedding():
    F = GF(7)
    kf = model_form(F, 6)
    a = express_as_pfaffian(kf)
    for i in range(6):
        expected = tuple(F.one if k == i else F.zero for k in range(6))
        assert klein_coordinates(a, i) == expected
    assert a.pfaffian_poly() == form_poly(kf)


def test_express_pfaffian_three_plane_form():
    F = GF(11)
    q = hyperbolic_form(F, 3)
    a = express_as_pfaffian(q)
    assert a.pfaffian_poly() == form_poly(q)


def test_express_pfaffian_witt_mismatch_f3():
    F = GF(3)
    gram = [[F.zero] * 6 for _ in range(6)]
    half = F.one / F.coerce(2)
    gram[0][1] = gram[1][0] = half
    gram[2][3] = gram[3][2] = half
    gram[4][4] = gram[5][5] = F.one
    q = QuadraticForm(gram, F)  # x0x1 + x2x3 + x4^2 + x5^2: Witt index 2
    with pytest.raises(NotSplit):
        express_as_pfaffian(q)
    assert witt_index_exhaustive(q) == 2


def test_express_pfaffian_random_split_forms():
    rng = random.Random(48)
    for p in (5, 7, 11):
        F = GF(p)
        klein_class = F.legendre(model_form(F, 6).disc())
        done = 0
        while done < 100:
            q = rand_form(rng, F, 6, nondegenerate=True)
            if F.legendre(q.disc()) != klein_class:
                continue
            a = express_as_pfaffian(q)
            assert (a.pfaffian_poly() - form_poly(q)).is_zero()
            done += 1


def test_express_checks_catch_a_wrong_model(monkeypatch):
    # models whose det/Pf is 4*q must fail loudly, also under python -O
    from k3lab import quadforms

    real = quadforms._model_rows
    monkeypatch.setattr(quadforms, "_model_rows", lambda p, gm: [
        [2 * x % p for x in row] for row in real(p, gm)])
    F = GF(7)
    with pytest.raises(VerificationFailure):
        express_as_2x2_det(hyperbolic_form(F, 2))
    with pytest.raises(VerificationFailure):
        express_as_pfaffian(hyperbolic_form(F, 3))


def test_dimension_cap():
    with pytest.raises(PreconditionError):
        QuadraticForm([[0] * 7 for _ in range(7)], QQ)


def test_express_rejects_degenerate_forms():
    with pytest.raises(PreconditionError):
        express_as_2x2_det(diag_form([1, 1, 1, 0], GF(7)))
    with pytest.raises(PreconditionError):
        express_as_pfaffian(diag_form([1, 1, 1, 1, 1, 0], GF(7)))
