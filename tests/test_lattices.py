import random
import re
from fractions import Fraction
from math import gcd

import pytest

from k3lab import (DivisibilityViolation, IntegralLattice, MukaiVector,
                   OverlatticeSpec, PreconditionError, e8_lattice,
                   hyperbolic_plane_lattice, is_k3_moduli, is_rigid,
                   k3_lattice, l_zero_sublattice, lattice_invariants,
                   moduli_dim, overlattice)
from k3lab import MultiPoly, QQ, linalg
from k3lab.lattices import (_column_ops, _kernel_coordinates, _kernel_gram,
                            _kernel_of_functional_mod, _stack_hnf, _xgcd, e8_gram,
                            hnf_row_basis, l_zero_basis)
from oracles import (block_sum, cofactor_det, dense_overlattice_gram,
                     dense_row_block_sums, fraction_invariants, gram_of, leibniz_det,
                     scalar_leibniz_det,
                     seeded_overlattice_grams, stale_repair_cases, sym_permuted)


# -- Mukai dimension calculus --------------------------------------------------

def test_moduli_dim_reference_vectors():
    assert moduli_dim(MukaiVector(2, 8, 2)) == 2
    assert moduli_dim(MukaiVector(2, 12, 3)) == 2
    assert moduli_dim(MukaiVector(2, 20, 5)) == 2
    assert moduli_dim(MukaiVector(2, 6, 2)) == 0


def test_rigid_and_k3_predicates():
    assert is_rigid(MukaiVector(2, 6, 2))
    assert is_k3_moduli(MukaiVector(2, 8, 2))
    line_bundle = MukaiVector(1, 0, 1)
    assert moduli_dim(line_bundle) == 0 and is_rigid(line_bundle)


def test_mukai_validation():
    with pytest.raises(PreconditionError):
        MukaiVector(2, 7, 1)  # odd self-intersection
    with pytest.raises(PreconditionError):
        MukaiVector(-1, 0, 1)
    assert MukaiVector(2, 20, 5).chi == 7


def test_mukai_data_must_be_ints():
    for data in ((True, 2, 1), (2, False, 1), (2, 2, True), (2.0, 2, 1),
                 (2, 2.0, 1), (2, 2, "1"), (Fraction(2), 2, 1)):
        with pytest.raises(PreconditionError, match="^Mukai data must be integers$"):
            MukaiVector(*data)


def test_moduli_dim_even_for_even_selfint():
    rng = random.Random(80)
    for _ in range(1000):
        v = MukaiVector(rng.randint(0, 9), 2 * rng.randint(-30, 30),
                        rng.randint(-9, 9))
        assert moduli_dim(v) % 2 == 0


# -- standard lattices --------------------------------------------------------

def test_hyperbolic_plane_invariants():
    assert lattice_invariants(hyperbolic_plane_lattice()) == {
        "rank": 2, "det": -1, "even": True, "signature": (1, 1)}


def test_e8_invariants():
    assert lattice_invariants(e8_lattice()) == {
        "rank": 8, "det": 1, "even": True, "signature": (0, 8)}
    positive = e8_lattice(negative=False)
    assert lattice_invariants(positive) == {
        "rank": 8, "det": 1, "even": True, "signature": (8, 0)}


def test_e8_gram_golden():
    g = e8_lattice(negative=False).gram
    assert all(g[i][i] == 2 for i in range(8))
    edges = {(i, j) for i in range(8) for j in range(8)
             if i < j and g[i][j] == -1}
    assert edges == {(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 3)}
    assert IntegralLattice(g).det == 1


def test_k3_lattice_invariants():
    k3 = k3_lattice()
    assert lattice_invariants(k3) == {
        "rank": 22, "det": -1, "even": True, "signature": (3, 19)}


def test_int_det_against_leibniz():
    rng = random.Random(81)
    for n in (2, 3, 4, 5):
        for _ in range(20):
            m = _random_symmetric(rng, n, 5)
            expect = scalar_leibniz_det(QQ, [[Fraction(x) for x in r] for r in m])
            assert IntegralLattice(m).det == expect


def _random_symmetric(rng, n, size, zero_diagonal_share=0.0):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = rng.randint(-size, size)
        if rng.random() < zero_diagonal_share:
            m[i][i] = 0
    return m


def _make_degenerate(rng, m):
    """Repeat a row and column (or zero one) of a symmetric matrix."""
    n = len(m)
    i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
    m = [row[:] for row in m]
    if i == j or rng.random() < 0.5:
        for k in range(n):
            m[i][k] = m[k][i] = 0
        return m
    for k in range(n):
        m[j][k] = m[i][k]
    for k in range(n):
        m[k][j] = m[k][i]
    return m


def _const_entries(m):
    return [[MultiPoly.const(QQ, 1, Fraction(x)) for x in row] for row in m]


def test_det_against_leibniz_and_cofactor_oracles():
    # n = 1..8; every third matrix is made degenerate, about half of the
    # diagonal entries are zero so the pivot repairs run
    rng = random.Random(90)
    counts = {1: 20, 2: 20, 3: 20, 4: 20, 5: 20, 6: 10, 7: 4, 8: 2}
    for n, count in counts.items():
        for k in range(count):
            m = _random_symmetric(rng, n, 4, zero_diagonal_share=0.5)
            if k % 3 == 2:
                m = _make_degenerate(rng, m)
            oracle = leibniz_det if n <= 6 else cofactor_det
            expect = oracle(_const_entries(m)).coeff((0,))
            assert IntegralLattice(m).det == expect, m


def _fraction_signature(m):
    return fraction_invariants(m)[1]


def _scramble(rng, m, steps):
    """P^T m P for P a product of random elementary integer operations."""
    n = len(m)
    m = [row[:] for row in m]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        for k in range(n):
            m[k][i] += c * m[k][j]
        for k in range(n):
            m[i][k] += c * m[j][k]
    return m


def test_signature_against_fraction_congruence_diagonalize():
    rng = random.Random(91)
    u = [[0, 1], [1, 0]]
    structured = [u, block_sum(u, u), block_sum(u, u, u), block_sum(e8_gram(True)),
                  block_sum(e8_gram(False)), block_sum(u, e8_gram(True)),
                  block_sum(u, [[2]], u, [[-2]]), block_sum(u, [[0]], u)]
    cases = []
    for m in structured:
        cases += [m, _scramble(rng, m, 6), _make_degenerate(rng, m)]
    for n in range(1, 9):
        for k in range(12):
            # all-zero diagonals every fourth matrix: only e_0 += e_j repairs
            share = 1.0 if k % 4 == 0 else 0.5
            m = _random_symmetric(rng, n, 3, zero_diagonal_share=share)
            cases.append(_make_degenerate(rng, m) if k % 3 == 2 else m)
    assert any(_fraction_signature(m) is None for m in cases)
    assert any(all(not m[i][i] for i in range(len(m)))
               and _fraction_signature(m) is not None for m in cases)
    for m in cases:
        lat = IntegralLattice(m)
        sig = _fraction_signature(m)
        assert lat.signature() == sig, m
        assert (lat.det == 0) == (sig is None)
        if sig is not None:
            assert (lat.det > 0) == (sig[1] % 2 == 0)


# -- the sparsest-row-first, lazily scaled elimination ---------------------------

def _assert_against_oracles(m):
    lat = IntegralLattice(m)
    assert lat.det == linalg.det(QQ, [[Fraction(x) for x in row] for row in m]), m
    assert lat.signature() == _fraction_signature(m), m


def test_dense_row_block_sums_against_oracles():
    for m in dense_row_block_sums(random.Random(92)):
        _assert_against_oracles(m)


def test_stale_repair_against_leibniz_and_fraction_signature():
    for m in stale_repair_cases():
        _assert_against_oracles(m)
        expect = leibniz_det(_const_entries(m)).coeff((0,))
        assert IntegralLattice(m).det == expect, m


@pytest.mark.parametrize("r, size", [(2, 1), (3, 1), (2, 3), (3, 3)])
def test_seeded_overlattice_grams_against_oracles(r, size):
    grams = seeded_overlattice_grams(r, size)
    assert len(grams) == 20
    for m in grams:
        _assert_against_oracles(m)


def test_det_and_signature_invariant_under_symmetric_permutations():
    rng = random.Random(93)
    cases = [seeded_overlattice_grams(2, 1, count=1)[0], *stale_repair_cases()[-2:],
             *dense_row_block_sums(rng)[::8]]
    for n in (3, 5, 7):
        m = _random_symmetric(rng, n, 3, zero_diagonal_share=0.7)
        cases += [m, _make_degenerate(rng, m)]
    assert any(IntegralLattice(m).signature() is None for m in cases)
    for m in cases:
        want = lattice_invariants(IntegralLattice(m))
        for _ in range(50):
            assert lattice_invariants(IntegralLattice(sym_permuted(rng, m))) == want, m


def test_non_integer_gram_entries_rejected():
    for bad in (2.7, "2", True, None, Fraction(1, 2)):
        with pytest.raises(PreconditionError, match="not an integer"):
            IntegralLattice([[bad, 1], [1, -2]])


def test_degenerate_signature_reported_as_none():
    lat = IntegralLattice([[0, 0], [0, 2]])
    inv = lattice_invariants(lat)
    assert inv["det"] == 0 and inv["signature"] is None


def test_hnf_row_basis_shape():
    rows = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    basis = hnf_row_basis(rows)
    assert len(basis) == 3
    # pivots positive, entries above reduced
    assert basis[0][0] > 0
    for i, row in enumerate(basis):
        lead = next(j for j, x in enumerate(row) if x)
        for upper in basis[:i]:
            assert 0 <= upper[lead] < row[lead]


def _stacks():
    """Seeded stacks [m*I ; c] as the overlattice reduces them: c with zeros,
    negative entries and multiples of m, and in every third stack c_0 = 0
    mod m, so that the first dense pivot comes after column 0."""
    rng = random.Random(94)
    stacks = []
    for m in (1, 2, 3, 4, 6, 8, 9, 12, 30):
        for n in (1, 2, 5, 22):
            for k in range(12):
                c = [rng.choice((0, m * rng.randint(-3, 3), rng.randint(-2 * m, 2 * m)))
                     for _ in range(n)]
                if k % 3 == 0:
                    c[0] = m * rng.randint(-2, 2)
                stacks.append((m, c))
    return stacks


def test_stack_hnf_against_generic_hnf():
    seen = dict.fromkeys(("zero", "negative", "multiple of m",
                          "first dense pivot after column 0", "two dense rows"), 0)
    for m, c in _stacks():
        n = len(c)
        unit = [[m * (i == j) for j in range(n)] for i in range(n)]
        rows = _stack_hnf(m, c)
        assert len(rows) == n
        got = [unit[j] if row is None else row for j, row in enumerate(rows)]
        assert got == hnf_row_basis(unit + [c]), (m, c)
        dense = [j for j, row in enumerate(rows) if row is not None]
        seen["zero"] += 0 in c
        seen["negative"] += min(c) < 0
        seen["multiple of m"] += m > 1 and any(x and x % m == 0 for x in c)
        seen["first dense pivot after column 0"] += bool(dense) and dense[0] > 0
        seen["two dense rows"] += len(dense) >= 2
    assert all(seen.values()), seen


# -- divisibility sublattice ----------------------------------------------------

def test_l_zero_full_when_alpha_divisible():
    k3 = k3_lattice()
    alpha = [2] + [0] * 21
    sub = l_zero_sublattice(k3, alpha, 2)
    assert abs(sub.det) == 1 and sub.rank == 22  # index 1: (beta.alpha) always even


def test_l_zero_hyperbolic_example():
    u = hyperbolic_plane_lattice()
    sub = l_zero_sublattice(u, (1, 4), 2)
    assert sub.rank == 2 and sub.det == -4


def test_l_zero_basis_pairs_divisibly():
    rng = random.Random(82)
    k3 = k3_lattice()
    for _ in range(25):
        r = rng.choice((2, 3))
        alpha = [rng.randint(-4, 4) for _ in range(22)]
        if not any(alpha):
            continue
        basis = l_zero_basis(k3, alpha, r)
        w = [sum(k3.gram[i][j] * alpha[j] for j in range(22)) for i in range(22)]
        for b in basis:
            assert sum(x * y for x, y in zip(b, w)) % r == 0


def _pairing_oracle(gram, u, v):
    n = len(gram)
    return sum(u[i] * gram[i][j] * v[j] for i in range(n) for j in range(n))


def test_l_zero_gram_against_pairing_oracle():
    rng = random.Random(92)
    k3 = k3_lattice()
    odd = IntegralLattice(block_sum([[1]], [[0, 2], [2, 3]], [[-6]], e8_gram(True)))
    for lat in (k3, odd):
        for _ in range(10):
            r = rng.choice((2, 3, 5))
            alpha = [rng.randint(-3, 3) for _ in range(lat.rank)]
            if not any(alpha):
                continue
            basis = l_zero_basis(lat, alpha, r)
            want = [[_pairing_oracle(lat.gram, u, v) for v in basis] for u in basis]
            assert l_zero_sublattice(lat, alpha, r).gram == tuple(map(tuple, want))


def test_alpha_coordinates_in_the_l_zero_basis():
    # alpha = sum_j coords_j basis_j, the coordinates overlattice divides by r
    rng = random.Random(93)
    k3 = k3_lattice()
    done = 0
    while done < 20:
        r = rng.choice((2, 3))
        alpha = [rng.randint(-3, 3) for _ in range(22)]
        if not any(alpha) or k3.norm(alpha) % r:
            continue
        w = [sum(k3.gram[i][j] * alpha[j] for j in range(22)) for i in range(22)]
        basis = l_zero_basis(k3, alpha, r)
        aux = -sum(x * y for x, y in zip(w, alpha)) // r
        coords = _kernel_coordinates(_column_ops(w, r), alpha + [aux])
        assert [sum(c * b[i] for c, b in zip(coords, basis)) for i in range(22)] == alpha
        done += 1


def _gcd_chain(w, r):
    """The running gcds g that ``_column_ops(w, r)`` leaves in column 0, one
    per operation, signed as ``_xgcd`` returns them."""
    chain, v0 = [], w[0]
    for vi in list(w[1:]) + [r]:
        if vi:
            v0 = _xgcd(v0, vi)[0]
            chain.append(v0)
    return chain


def _kernel_gram_cases():
    """(gram, w, r) on seeded symmetric Grams of rank 1..9, odd, indefinite
    and degenerate ones among them, with w drawn in five shapes: dense,
    w[0] = 0, zeros inside w, all of w divisible by 6 with r = 12, and r = 1."""
    rng = random.Random(133)
    cases = []
    for k in range(300):
        n = 1 + k % 9
        gram = _random_symmetric(rng, n, 5, zero_diagonal_share=0.2)
        if k % 4 == 3:
            gram = _make_degenerate(rng, gram)
        shape = k % 5
        w = [rng.randint(-9, 9) for _ in range(n)]
        r = rng.choice((2, 3, 4, 5, 6, 12))
        if shape == 1:
            w[0] = 0
        elif shape == 2:
            w = [x if rng.random() < 0.5 else 0 for x in w]
        elif shape == 3:
            w, r = [6 * rng.randint(-3, 3) for _ in range(n)], 12
        elif shape == 4:
            r = 1
        cases.append((gram, w, r))
    return cases


def test_kernel_gram_against_dense_products():
    # the congruence U^T (G + [0]) U of _kernel_gram equals the Gram of the
    # kernel basis taken by dense products, on every shape of w and r
    cases = _kernel_gram_cases()
    wrong = [(gram, w, r) for gram, w, r in cases
             if _kernel_gram(gram, _column_ops(w, r))
             != gram_of(gram, _kernel_of_functional_mod(w, r))]
    if wrong:
        pytest.fail(f"{len(wrong)} of {len(cases)} differ, first {wrong[0]}")
    lats = [IntegralLattice(gram) for gram, _, _ in cases]
    chains = [_gcd_chain(w, r) for _, w, r in cases]
    covered = {
        "w[0] = 0": any(w[0] == 0 and any(w) for _, w, _ in cases),
        "zeros inside w": any(0 in w[1:] and any(w[1:]) for _, w, _ in cases),
        "r = 1": any(r == 1 for _, _, r in cases),
        "|g| > 1 for three operations running": any(
            all(abs(g) > 1 for g in chain[j:j + 3])
            for chain in chains for j in range(len(chain) - 2)),
        "a negative g": any(g < 0 for chain in chains for g in chain),
        "an odd Gram": any(not lat.is_even for lat in lats),
        "an indefinite Gram": any(lat.signature() and min(lat.signature()) for lat in lats),
        "a degenerate Gram": any(lat.det == 0 for lat in lats),
    }
    missing = [what for what, seen in covered.items() if not seen]
    if missing:
        pytest.fail(f"no case with {missing}")


def test_l_zero_det_index_formula():
    rng = random.Random(83)
    k3 = k3_lattice()
    done = 0
    while done < 30:
        r = rng.choice((2, 3))
        alpha = [rng.randint(-4, 4) for _ in range(22)]
        if not any(alpha):
            continue
        sub = l_zero_sublattice(k3, alpha, r)
        # for a unimodular ambient, the pairing image is content(alpha) * Z
        content = 0
        for x in alpha:
            content = _gcd(content, x)
        index = r // _gcd(r, content)
        assert abs(sub.det) == index * index
        _assert_as_eliminated(sub)
        if index == r:
            assert abs(sub.det) == r * r
        done += 1


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return abs(a)


def _assert_as_eliminated(lat):
    """The det and signature of ``lat``, which an L0 or an overlattice takes
    from its ambient, equal a fresh elimination of its Gram."""
    fresh = IntegralLattice(lat.gram)
    assert (lat.det, lat.signature()) == (fresh.det, fresh.signature()), lat.gram


# -- overlattice ------------------------------------------------------------------

def test_overlattice_non_primitive_alpha_recovers_ambient():
    k3 = k3_lattice()
    alpha = [2, 2] + [0] * 20  # alpha / 2 is already integral
    out = overlattice(OverlatticeSpec(k3, alpha, 2))
    assert lattice_invariants(out) == lattice_invariants(k3)
    _assert_as_eliminated(out)


def test_overlattice_hyperbolic_example():
    k3 = k3_lattice()
    alpha = [1, 4] + [0] * 20  # alpha^2 = 8
    out = overlattice(OverlatticeSpec(k3, alpha, 2))
    inv = lattice_invariants(out)
    assert inv == {"rank": 22, "det": -1, "even": True, "signature": (3, 19)}
    _assert_as_eliminated(out)


def test_overlattice_divisibility_violation():
    k3 = k3_lattice()
    with pytest.raises(DivisibilityViolation):
        overlattice(OverlatticeSpec(k3, [1, 1] + [0] * 20, 2))


@pytest.mark.parametrize("gram, alpha, r", [([[1]], [4], 2), ([[1, 0], [0, 1]], [2, 2], 2),
                                           ([[3]], [6], 3)])
def test_overlattice_of_an_odd_ambient_can_be_odd(gram, alpha, r):
    # (v^2) = (b^2) mod 2 for v = b + k alpha/r, so the overlattice is odd
    # exactly when L0 is, which takes an odd ambient: a precondition violation
    with pytest.raises(PreconditionError, match="the ambient lattice is odd"):
        overlattice(OverlatticeSpec(IntegralLattice(gram), alpha, r))


def test_overlattice_of_an_odd_ambient_can_be_even():
    # <1> + <-1>: L0 is its even sublattice, and L0 + Z(alpha/2) is U
    out = overlattice(OverlatticeSpec(IntegralLattice([[1, 0], [0, -1]]), [1, 1], 2))
    assert lattice_invariants(out) == {"rank": 2, "det": -1, "even": True, "signature": (1, 1)}


def test_overlattice_norm_of_adjoined_vector():
    # (alpha/r, alpha/r) = alpha^2 / r^2 is an even integer by hypothesis
    rng = random.Random(84)
    k3 = k3_lattice()
    done = 0
    while done < 20:
        r = rng.choice((2, 3))
        alpha = [rng.randint(-4, 4) for _ in range(22)]
        if not any(alpha) or k3.norm(alpha) % (2 * r * r):
            continue
        spec = OverlatticeSpec(k3, alpha, r)
        norm = Fraction(spec.alpha_sq, r * r)
        assert norm.denominator == 1 and int(norm) % 2 == 0
        done += 1


def test_overlattice_random_draws_are_even_unimodular():
    rng = random.Random(85)
    k3 = k3_lattice()
    done = 0
    while done < 40:
        r = rng.choice((2, 3))
        alpha = [rng.randint(-4, 4) for _ in range(22)]
        if not any(alpha) or k3.norm(alpha) % (2 * r * r):
            continue
        out = overlattice(OverlatticeSpec(k3, alpha, r))
        assert out.rank == 22 and out.is_even and abs(out.det) == 1
        _assert_as_eliminated(out)
        done += 1


def test_overlattice_property_wider_alpha_and_r():
    # r up to 5 and alpha entries up to 9: the overlattice is always an even
    # unimodular lattice of the K3 rank and signature
    rng = random.Random(93)
    k3 = k3_lattice()
    done = 0
    while done < 30:
        r = rng.choice((2, 3, 4, 5))
        alpha = [rng.randint(-9, 9) for _ in range(22)]
        if not any(alpha) or k3.norm(alpha) % (2 * r * r):
            continue
        out = overlattice(OverlatticeSpec(k3, alpha, r))
        assert out.rank == 22 and out.is_even and abs(out.det) == 1
        assert out.signature() == (3, 19)
        _assert_as_eliminated(out)
        done += 1


def test_det_chain_measured():
    # when the index in equals the index out, |det| is preserved
    rng = random.Random(86)
    k3 = k3_lattice()
    done = 0
    while done < 15:
        r = rng.choice((2, 3))
        alpha = [rng.randint(-4, 4) for _ in range(22)]
        if not any(alpha) or k3.norm(alpha) % (2 * r * r):
            continue
        sub = l_zero_sublattice(k3, alpha, r)
        out = overlattice(OverlatticeSpec(k3, alpha, r))
        content = 0
        for x in alpha:
            content = _gcd(content, x)
        index_in = r // _gcd(r, content)
        assert abs(sub.det) == index_in**2 * abs(k3.det)
        assert abs(out.det) == abs(k3.det)
        _assert_as_eliminated(sub)
        _assert_as_eliminated(out)
        done += 1


def test_overlattice_spec_validation():
    k3 = k3_lattice()
    with pytest.raises(PreconditionError):
        OverlatticeSpec(k3, [0] * 22, 2)
    with pytest.raises(PreconditionError):
        OverlatticeSpec(k3, [1] * 22, 1)
    with pytest.raises(PreconditionError):
        OverlatticeSpec(k3, [1, 2, 3], 2)


def test_non_integer_alpha_entries_rejected():
    k3 = k3_lattice()
    for bad in (1.9, True, "2", Fraction(2)):
        alpha = [bad, 4] + [0] * 20
        with pytest.raises(PreconditionError, match="not an integer"):
            OverlatticeSpec(k3, alpha, 2)
        with pytest.raises(PreconditionError, match="not an integer"):
            l_zero_basis(k3, alpha, 2)


def test_r_must_be_an_int():
    k3 = k3_lattice()
    alpha = [1, 4] + [0] * 20
    for bad in ("2", 2.5, 2.0, True, Fraction(2), None):
        text = f"^r {re.escape(repr(bad))} is not an integer$"
        with pytest.raises(PreconditionError, match=text):
            OverlatticeSpec(k3, alpha, bad)
        for make in (l_zero_basis, l_zero_sublattice):
            with pytest.raises(PreconditionError, match=text):
                make(k3, alpha, bad)
    for r in (1, 0, -2):
        with pytest.raises(PreconditionError, match="^r must be at least 2$"):
            OverlatticeSpec(k3, alpha, r)
    for r in (0, -2):
        for make in (l_zero_basis, l_zero_sublattice):
            with pytest.raises(PreconditionError, match="^r must be at least 1$"):
                make(k3, alpha, r)
    assert lattice_invariants(l_zero_sublattice(k3, alpha, 1)) == lattice_invariants(k3)


# -- the congruence route against dense ambient products --------------------------

def _permuted(rng, gram, alpha):
    """The lattice and alpha with their coordinates permuted together."""
    perm = list(range(len(gram)))
    rng.shuffle(perm)
    return ([[gram[i][j] for j in perm] for i in perm], [alpha[i] for i in perm])


def _random_even_block(rng, k):
    m = _random_symmetric(rng, k, 3)
    for i in range(k):
        m[i][i] = 2 * rng.randint(-3, 3)
    return m


def _alpha_on_u(rng, gram, r, size):
    """alpha = a e + b f + rest on a Gram whose first block is U = <e, f>,
    with 2 r^2 | (alpha^2): a is a unit mod r and b solves a b = -(rest^2)/2
    mod r^2 (rest^2 is even as the lattice is)."""
    n = len(gram)
    rest = [0, 0] + [rng.randint(-size, size) for _ in range(n - 2)]
    half = IntegralLattice(gram).norm(rest) // 2
    a = rng.choice([x for x in range(-5, 6) if gcd(x, r) == 1])
    b = -half * pow(a, -1, r * r) % (r * r) + r * r * rng.randint(-1, 0)
    return [a, b] + rest[2:]


def _overlattice_cases():
    """(lattice, alpha, r) with 2 r^2 | (alpha^2): the K3 lattice and random
    even lattices U + A, coordinates permuted, r in 2..12, alpha scaled by
    1, 2, 3 or r (non-primitive) about a third of the time."""
    rng = random.Random(1300)
    k3 = k3_lattice()
    cases = []
    for k in range(240):
        if k % 2:
            gram = block_sum([[0, 1], [1, 0]], _random_even_block(rng, rng.randint(1, 8)))
        else:
            gram = [list(row) for row in k3.gram]
        r = rng.randint(2, 12)
        alpha = _alpha_on_u(rng, gram, r, rng.choice((1, 3)))
        if k % 3 == 2:
            scale = rng.choice((2, 3, r))
            alpha = [scale * x for x in alpha]
        if k % 4 != 0:
            gram, alpha = _permuted(rng, gram, alpha)
        cases.append((IntegralLattice(gram, label="L"), alpha, r))
    return cases


def test_overlattice_and_l_zero_grams_match_dense_ambient_products():
    cases = _overlattice_cases()
    assert len(cases) >= 200
    assert {r for _, _, r in cases} >= {4, 6, 8, 9, 10, 12}
    assert any(abs(lat.det) > 1 for lat, _, _ in cases)
    assert any(lat.det == 0 for lat, _, _ in cases)
    assert sum(gcd(*alpha) > 1 for _, alpha, _ in cases) >= 60
    most_dense = 0
    for lat, alpha, r in cases:
        out = overlattice(OverlatticeSpec(lat, alpha, r))
        want = dense_overlattice_gram(lat, alpha, r)
        assert out.gram == tuple(map(tuple, want)), (lat.gram, alpha, r)
        assert out.is_even and out.rank == lat.rank
        # [L : L0] = r / gcd(r, content of alpha G) and [M : L0] = m
        w = [sum(a * g for a, g in zip(alpha, col)) for col in zip(*lat.gram)]
        index_in = r // gcd(r, *w)
        coords = linalg.solve(QQ, [list(c) for c in zip(*l_zero_basis(lat, alpha, r))], alpha)
        m = r // gcd(r, *[int(c) for c in coords])
        assert out.det * m * m == lat.det * index_in * index_in
        stack = _stack_hnf(m, [int(c) * m // r for c in coords])
        most_dense = max(most_dense, sum(row is not None for row in stack))
        if lat.det:
            assert out.signature() == lat.signature()
        _assert_as_eliminated(out)
        # L0 needs no divisibility; at r + 1 alpha^2 is mostly not divisible
        for r_sub in (r, r + 1):
            want = gram_of(lat.gram, l_zero_basis(lat, alpha, r_sub))
            sub = l_zero_sublattice(lat, alpha, r_sub)
            assert sub.gram == tuple(map(tuple, want))
            _assert_as_eliminated(sub)
    assert most_dense >= 2  # the Gram pairs two dense Hermite rows


def test_overlattice_and_l_zero_wrap_their_own_grams():
    # overlattice and l_zero_sublattice build int, symmetric Grams and take
    # det and signature from the ambient, so they wrap them by _of_gram and
    # never run the validating constructor; what they return is what that
    # constructor makes of the same Gram and label, det and signature included.
    # Cases: the 400 ops of the benchmark's overlattice workload at seed 5, and
    # the seeded ambients of _overlattice_cases for L0 at r and r + 1
    from test_bench_digests import load_workloads

    k3 = k3_lattice()
    runs = []
    for op in load_workloads().make_ops("overlattice", 5, 400):
        alpha = [int(x) for x in op.argv[2].removeprefix("--alpha=").split(",")]
        runs.append((overlattice, (OverlatticeSpec(k3, alpha, op.extra["r"]),)))
    for lat, alpha, r in _overlattice_cases()[:60]:
        runs += [(l_zero_sublattice, (lat, alpha, r)), (l_zero_sublattice, (lat, alpha, r + 1))]
    calls = []
    init = IntegralLattice.__init__
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(IntegralLattice, "__init__",
                   lambda self, *a, **k: calls.append(a) or init(self, *a, **k))
        outs = [make(*args) for make, args in runs]
    if calls:
        pytest.fail(f"IntegralLattice.__init__ ran {len(calls)} times")
    for out in outs:
        fresh = IntegralLattice(out.gram, out.label)
        assert (out.gram, out.rank, out.label) == (fresh.gram, fresh.rank, fresh.label)
        assert (out.det, out.signature()) == (fresh.det, fresh.signature())


# -- det and signature from the ambient, against the printed Gram -----------------

# the ambient lattice files of the packaging smoke test: U + U, and the
# degenerate U + <0>, each with alpha = (2, 2, 0, ...) at r = 2
SMOKE_AMBIENTS = (([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], (2, 2, 0, 0)),
                  ([[0, 1, 0], [1, 0, 0], [0, 0, 0]], (2, 2, 0)))


def _derived_invariant_cases():
    """(lattice, alpha, r) with 2 r^2 | (alpha^2): the smoke-test ambients
    and random even lattices of rank 2..7, a fifth of the draws made
    degenerate, r in {2, 3, 4, 6} and alpha entries in [-4, 4]."""
    rng = random.Random(1400)
    cases = [(IntegralLattice(g), alpha, 2) for g, alpha in SMOKE_AMBIENTS]
    while len(cases) < 250:
        gram = _random_even_block(rng, rng.randint(2, 7))
        if rng.random() < 0.2:
            gram = _make_degenerate(rng, gram)
        lat = IntegralLattice(gram)
        r = rng.choice((2, 3, 4, 6))
        alpha = [rng.randint(-4, 4) for _ in range(lat.rank)]
        if any(alpha) and lat.norm(alpha) % (2 * r * r) == 0:
            cases.append((lat, alpha, r))
    return cases


def test_l_zero_and_overlattice_invariants_against_fraction_congruence():
    # on a unimodular ambient [L : L0] = [M : L0] and gcd(r, alpha G) =
    # gcd(r, alpha), so only ambients of other determinants tell the index
    # formula's parts apart; the oracle reads the printed Gram
    seen = dict.fromkeys(("degenerate", "[L : L0] != m", "gcd(r, alpha G) != gcd(r, alpha)",
                          "|det L| > 1"), 0)
    for lat, alpha, r in _derived_invariant_cases():
        sub = l_zero_sublattice(lat, alpha, r)
        out = overlattice(OverlatticeSpec(lat, alpha, r))
        for got in (sub, out):
            assert (got.det, got.signature()) == fraction_invariants(got.gram), (
                lat.gram, alpha, r)
        w = [sum(a * g for a, g in zip(alpha, col)) for col in zip(*lat.gram)]
        seen["degenerate"] += lat.det == 0
        seen["[L : L0] != m"] += out.det != lat.det  # det M = det L ([L : L0] / m)^2
        seen["gcd(r, alpha G) != gcd(r, alpha)"] += gcd(r, *w) != gcd(r, *alpha)
        seen["|det L| > 1"] += abs(lat.det) > 1
    assert all(count >= 10 for count in seen.values()), seen
