"""The sampler's sparse and inverse-free kernels, and raw-loaded forms,
against the general routes they replace.

* ``linalg.int_congruence`` (the symmetric elimination behind the Witt
  split, the lattice invariants and ``congruence_diagonalize``), mod p and
  over ZZ: its carried basis B diagonalizes G, B G B^T = diag(p_(k-1) p_k)
  over ZZ, and after each pivot the remaining basis vectors span the
  orthogonal complement of the pivots so far, which
  ``linalg.int_nullspace`` gives as a kernel; whole Witt splits against
  ``linalg.int_mul`` products of their basis;
* ``quadforms._model_rows`` (M_q^-1 as the dual basis H^-1 (G M_q)^T)
  against ``linalg.int_inverse``;
* the determinant ``sample_point`` hands to ``QuadraticForm._of_rows``
  against ``linalg.int_det``, a Leibniz sum and the discriminant;
* forms loaded from system files as raw ints and Fractions against a boxed
  per-entry oracle: ``gram``, ``reduce_mod`` and the ``BadPrime`` text.

Seeds and sizes are fixed.  The primes include 3 and 5, where the tiny-field
paths run; the sampler is also run with no seeded draws, so that its
base-point sweep runs.  The Witt splits also run on diagonal forms whose
entries share one quadratic class (the ``conic`` family): when -1 is a
non-square, only the split's flip, which solves the conic
a x^2 + b y^2 = -a, pairs their entries.
"""

import json
import random
from fractions import Fraction
from math import prod

import pytest

from k3lab import (GF, QQ, BadPrime, BadReduction, GFElement, NetOfQuadrics,
                   NoSplitMember, PencilOfQuadrics, PreconditionError,
                   QuadraticForm, discriminant_poly, linalg, sample_point)
from k3lab import cli, construction, quadforms
from k3lab.scalars import chi_mod
from oracles import (boxed_reduce, model_form, model_rows_by_inverse, scalar_leibniz_det,
                     witt_index_by_class)

PRIMES = (3, 5, 7, 13, 1009, 2**31 - 1)


@pytest.fixture
def fallback(request, monkeypatch):
    """None, or "sweep": the base-point sweep that runs when the seeded
    draws are taken away."""
    if request.param == "sweep":
        monkeypatch.setattr(construction, "SEEDED_DRAWS", 0)
    return request.param


def rand_rows(rng, p, nrows, ncols):
    """Ints mod p, or in [-4, 4] over ZZ (p = 0)."""
    return [[rng.randrange(p) if p else rng.randint(-4, 4) for _ in range(ncols)]
            for _ in range(nrows)]


def rand_sym(rng, p, n):
    g = rand_rows(rng, p, n, n)
    return [[g[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]


def nondegenerate(rng, p, n, zero_diagonal=False):
    while True:
        g = rand_sym(rng, p, n)
        if zero_diagonal:
            for i in range(n):
                g[i][i] = 0
        if linalg.int_det(g, p):
            return g


def one_class_diagonal(rng, p, n, split=False):
    """A diagonal form mod p whose n entries share one quadratic class; with
    ``split``, its last entry takes the other class where one class alone
    gives no split form (n = 6, -1 a non-square)."""
    def entry(c):
        while True:
            x = rng.randrange(1, p)
            if chi_mod(x, p) == c:
                return x

    c = rng.choice((1, -1))
    d = [entry(c) for _ in range(n)]
    if split and not quadforms._split_det(prod(d), n, p):
        d[-1] = entry(-c)
    return [[d[i] if i == j else 0 for j in range(n)] for i in range(n)]


def split_rows(rng, p, n):
    """A seeded split n-variable form mod p: m^T T m for the target T and
    an invertible m."""
    t = model_form(GF(p), n)._rows
    while True:
        m = rand_rows(rng, p, n, n)
        if linalg.int_det(m, p):
            return linalg.int_mul(linalg.int_mul([list(r) for r in zip(*m)], t, p), m, p)


@pytest.mark.parametrize("p", (0,) + PRIMES)
def test_complement_against_nullspace_products(p):
    rng = random.Random(911)
    for n in range(2, 7):
        for zero_diagonal in (False, True):
            for _ in range(4):
                g = nondegenerate(rng, p, n, zero_diagonal)
                pivots, basis = linalg.int_congruence(
                    [row + [int(i == j) for j in range(n)] for i, row in enumerate(g)], p)
                # over ZZ row k carries p_(k-1) b_k, so its entry is p_(k-1) p_k
                diag = pivots if p else [x * y for x, y in zip([1] + pivots, pivots)]
                gb = linalg.int_mul(basis, g, p)  # the rows b_i^T G
                assert linalg.int_mul(gb, [list(c) for c in zip(*basis)], p) == [
                    [diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
                for k in range(n - 1):
                    # b_(k+1), ..., b_(n-1) span the kernel of b_0^T G, ..., b_k^T G
                    comp = linalg.int_nullspace(gb[:k + 1], n, p)[0]
                    assert len(comp) == n - k - 1
                    assert linalg.int_rank(comp + basis[k + 1:], p) == n - k - 1


@pytest.mark.parametrize("family", [None, "conic"])
@pytest.mark.parametrize("p", PRIMES)
def test_witt_rows_against_product_route(p, family):
    rng = random.Random(912)
    for n in range(1, 7):
        for _ in range(3):
            g = nondegenerate(rng, p, n) if family is None else one_class_diagonal(rng, p, n)
            cols, h, sub, gm = quadforms._witt_rows(g, p)
            assert h == witt_index_by_class(QuadraticForm(g, GF(p)))
            assert gm == linalg.int_mul(g, [list(c) for c in zip(*cols)], p)
            k = 2 * h
            normal = linalg.int_mul(cols, gm, p)
            for i in range(0, k, 2):
                assert normal[i][:k] == [(p + 1) // 2 if j == i + 1 else 0 for j in range(k)]
                assert normal[i + 1][:k] == [(p + 1) // 2 if j == i else 0 for j in range(k)]
            assert [row[k:] for row in normal[k:]] == sub
            # the residual is diagonal and anisotropic: -d1 d2 is a non-square
            assert len(sub) <= 2 and all(sub[i][j] == 0 for i in range(len(sub))
                                         for j in range(len(sub)) if i != j)
            if len(sub) == 2:
                assert pow(-sub[0][0] * sub[1][1] % p, (p - 1) // 2, p) == p - 1


@pytest.mark.parametrize("family", [None, "conic"])
@pytest.mark.parametrize("p", PRIMES)
def test_model_rows_against_int_inverse(p, family):
    rng = random.Random(913)
    for n in (4, 6):
        target = model_form(GF(p), n)
        target_cols = quadforms._witt_rows(target._rows, p)[0]
        for _ in range(4):
            g = split_rows(rng, p, n) if family is None else one_class_diagonal(rng, p, n, True)
            cols, h, _, gm = quadforms._witt_rows(g, p)
            assert h == n // 2
            m_q_inv = linalg.int_inverse([list(r) for r in zip(*cols)], p)[0]
            # the dual basis: row 2k is 2 G u_k, row 2k + 1 is 2 G v_k
            assert [[2 * row[k ^ 1] % p for row in gm] for k in range(n)] == m_q_inv
            assert quadforms._model_rows(p, gm) == model_rows_by_inverse(p, cols, target_cols)


def dense_system(rng, k, n):
    """A seeded system of k dense n-variable integer forms over QQ."""
    while True:
        grams = [[[0] * n for _ in range(n)] for _ in range(k)]
        for g in grams:
            for i in range(n):
                for j in range(i, n):
                    g[i][j] = g[j][i] = rng.randint(-4, 4)
        try:
            return (PencilOfQuadrics if k == 2 else NetOfQuadrics)(
                *(QuadraticForm(g) for g in grams))
        except PreconditionError:
            continue


SYSTEMS = (
    PencilOfQuadrics.from_diagonals([1, 1, 1, 1], [0, 1, 2, 3]),
    NetOfQuadrics.from_diagonals([1] * 6, [0, 1, 2, 3, 4, 5], [0, 1, 4, 9, 16, 25]),
    dense_system(random.Random(914), 2, 4),
    dense_system(random.Random(915), 3, 6),
)


@pytest.mark.parametrize("fallback", [None, "sweep"], indirect=True)
@pytest.mark.parametrize("p", PRIMES)
def test_sampled_member_disc_is_int_det(p, fallback, monkeypatch):
    calls = []
    real = QuadraticForm._of_rows.__func__

    def spy(cls, field, rows, disc=None):
        if disc is not None:
            calls.append((field, [list(r) for r in rows], disc))
        return real(cls, field, rows, disc)

    monkeypatch.setattr(QuadraticForm, "_of_rows", classmethod(spy))
    sampled = 0
    for system in SYSTEMS:
        for seed in range(3):
            calls.clear()
            try:
                pt = sample_point(system, p, seed)
            except (BadReduction, NoSplitMember):
                continue
            sampled += 1
            # one member is factored per sample, with its determinant
            ((field, rows, disc),) = calls
            assert disc == GFElement(field, linalg.int_det(rows, p))
            assert disc == scalar_leibniz_det(field, linalg._box(field, rows))
            assert disc == discriminant_poly(pt.system).eval(pt.base_point)
            assert disc == real(QuadraticForm, field, rows).disc() != 0
    assert sampled >= 4


def rand_entry(rng):
    """An int, or a "num/den" string whose denominator may be 1 or share a
    factor with the numerator."""
    if rng.random() < 0.4:
        return rng.randint(-9, 9)
    return f"{rng.randint(-9, 9)}/{rng.choice((1, 2, 3, 5, 6, 7, 10, 13, 21))}"


def rand_gram(rng, n):
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = rand_entry(rng)
    return g


def _parsed(g):
    """The entries of ``g`` as ``cli.load_system`` hands them on."""
    return [[x if type(x) is int else Fraction(x) for x in row] for row in g]


@pytest.mark.parametrize("key,k,n", [("pencil", 2, 4), ("net", 3, 6)])
def test_raw_loaded_forms_against_boxed_oracle(tmp_path, key, k, n):
    rng = random.Random(916)
    for trial in range(12):
        grams = [rand_gram(rng, n) for _ in range(k)]
        path = tmp_path / f"{key}{trial}.json"
        path.write_text(json.dumps({"field": "Q", key: grams}))
        system = cli.load_system(str(path))
        for q, g in zip(system.forms, grams):
            assert all(type(x) in (int, Fraction) for row in q._rows for x in row)
            boxed = tuple(tuple(Fraction(x) for x in row) for row in g)
            assert q.gram == boxed and all(type(x) is Fraction for row in q.gram for x in row)
            assert q == QuadraticForm(boxed, QQ)
            for p in PRIMES:
                want = boxed_reduce(g, p)
                if isinstance(want, str):
                    with pytest.raises(BadPrime) as exc:
                        q.reduce_mod(p)
                    assert str(exc.value) == want
                    # over GF(p) the constructor reduces the raw entries the same way
                    with pytest.raises(BadPrime) as exc:
                        QuadraticForm(_parsed(g), GF(p))
                    assert str(exc.value) == want
                else:
                    red = q.reduce_mod(p)
                    assert [list(row) for row in red._rows] == want
                    assert red.gram == linalg._box(GF(p), want)
                    assert [list(row) for row in QuadraticForm(_parsed(g), GF(p))._rows] == want
        for p in PRIMES:
            messages = [m for m in (boxed_reduce(g, p) for g in grams) if isinstance(m, str)]
            if messages:
                with pytest.raises(BadReduction) as exc:
                    system.reduce_mod(p)
                assert str(exc.value).endswith(messages[0])


def test_raw_symmetry_and_squareness_are_checked():
    half = Fraction(1, 2)
    assert QuadraticForm([[1, "1/2"], [half, 3]]).gram == ((1, half), (half, 3))
    assert QuadraticForm([[1, 2], [Fraction(4, 2), 1]], QQ).gram == ((1, 2), (2, 1))
    assert QuadraticForm([[1, 9], [2, 1]], GF(7))._rows == ((1, 2), (2, 1))
    for rows, field in (([[1, 2], [3, 1]], QQ), ([[1, half], ["1/3", 1]], QQ),
                        ([[1, 2], [3, 1]], GF(7)), ([[1, 2], [1]], QQ),
                        ([[1, 2, 3], [2, 1, 3]], QQ)):
        with pytest.raises(PreconditionError):
            QuadraticForm(rows, field)
