"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every criterion enforces both its exact expected values and its
wall-clock budget.
"""

import json
import random
import time
from fractions import Fraction

from k3lab import (GF, QQ, DegenerateSystem, DivisibilityViolation,
                   MukaiVector, NetOfQuadrics, OverlatticeSpec, PencilOfQuadrics,
                   QuadraticForm, count_points, fano_genus_allowed,
                   linear_section_invariants, linalg, moduli_dim,
                   MultiPoly, k3_lattice, net_discriminant, overlattice,
                   pairs_moduli_dims, pencil_discriminant, random_gl,
                   random_sl, sample_point, sextic_smoothness_probe,
                   t_invariant, type_ii_expected_dim, type_iii_expected_dim,
                   verify_relation, group_invariance_check, wedge2_matrix)
from k3lab.cli import main
from oracles import cofactor_det, cross_ratio_j, quartic_from_roots

DIAG_PENCIL = PencilOfQuadrics.from_diagonals([1, 1, 1, 1], [0, 1, 2, 3])
DIAG_NET = NetOfQuadrics.from_diagonals(
    [1] * 6, [0, 1, 2, 3, 4, 5], [0, 1, 4, 9, 16, 25])


def _verdict(num, desc, ok, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {num}: {status} ({elapsed:.2f}s / budget {budget}s) {desc}")
    assert ok, f"criterion {num} failed: {desc}"
    assert elapsed < budget, f"criterion {num} exceeded budget"


def test_criterion_1_moduli_dimensions():
    vectors = [((2, 8, 2), 2), ((2, 12, 3), 2), ((2, 20, 5), 2), ((2, 6, 2), 0)]
    start = time.perf_counter()
    ok = all(moduli_dim(MukaiVector(*v)) == want for v, want in vectors)
    reps = 1000
    for _ in range(reps):
        moduli_dim(MukaiVector(2, 8, 2))
    per_call = (time.perf_counter() - start) / reps
    _verdict(1, "moduli dimensions for the four reference vectors", ok,
             per_call, 0.001)


def test_criterion_2_pencil_discriminants():
    rng = random.Random(100)
    start = time.perf_counter()
    ok = True
    # 200 random diagonal pencils over Q: exact product formula
    for _ in range(200):
        a = [Fraction(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(4)]
        try:
            pencil = PencilOfQuadrics.from_diagonals([1, 1, 1, 1], a)
        except Exception:
            ok = False
            break
        l0 = MultiPoly.var(QQ, 2, 0)
        l1 = MultiPoly.var(QQ, 2, 1)
        expected = MultiPoly.const(QQ, 2, 1)
        for ai in a:
            expected = expected * (l0 + ai * l1)
        got = pencil_discriminant(pencil).to_poly()
        ok = ok and got == expected
    # 100 random dense pencils: cofactor oracle; a degenerate draw is
    # redrawn, anything else fails the test
    made = attempts = 0
    while ok and made < 100:
        attempts += 1
        assert attempts <= 200, "seed 100: under 100 nondegenerate pencils in 200 draws"
        g1 = _rand_sym(rng, 4)
        g2 = _rand_sym(rng, 4)
        try:
            pencil = PencilOfQuadrics(QuadraticForm(g1, QQ), QuadraticForm(g2, QQ))
            got = pencil_discriminant(pencil).to_poly()
        except DegenerateSystem:
            continue
        sym = _symbolic_gram(pencil)
        ok = ok and got == cofactor_det(sym)
        made += 1
    _verdict(2, "pencil discriminants: product formula and cofactor oracle",
             ok, time.perf_counter() - start, 10.0)


def _rand_sym(rng, n):
    g = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = Fraction(rng.randint(-4, 4))
    return g


def _symbolic_gram(system):
    forms = system.forms
    k, n = len(forms), forms[0].n
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            terms = {}
            for v, q in enumerate(forms):
                if q.gram[i][j]:
                    e = [0] * k
                    e[v] = 1
                    terms[tuple(e)] = q.gram[i][j]
            row.append(MultiPoly(QQ, k, terms))
        out.append(row)
    return out


def test_criterion_3_j_invariant_coherence():
    from k3lab import BinaryQuartic

    rng = random.Random(101)
    start = time.perf_counter()
    ok = True
    for _ in range(100):
        roots = rng.sample(range(-15, 16), 4)
        scale = rng.choice((1, -1, 2, Fraction(3, 2)))
        f = BinaryQuartic(quartic_from_roots(roots, scale))
        ok = ok and f.j_invariant() == cross_ratio_j(roots)
    # harmonic configurations give exactly 1728
    harmonic = [
        BinaryQuartic([0, 1, 0, -1, 0]),                      # roots 0, inf, 1, -1
        BinaryQuartic(quartic_from_roots((0, 1, 3, Fraction(3, 5)))),
    ]
    for f in harmonic:
        ok = ok and f.j_invariant() == 1728
    _verdict(3, "invariant-formula j equals cross-ratio j; harmonic gives 1728",
             ok, time.perf_counter() - start, 5.0)


def test_criterion_4_twist_matched_point_counts():
    rng = random.Random(102)
    start = time.perf_counter()
    primes = (5, 7, 11, 13)
    ok = True
    pencils = []
    while len(pencils) < 10:
        a = [rng.randint(0, 50) for _ in range(4)]
        if all(len({x % p for x in a}) == 4 for p in primes):
            pencils.append(PencilOfQuadrics.from_diagonals([1, 1, 1, 1], a))
    for pencil in pencils:
        branch = pencil_discriminant(pencil)
        for p in primes:
            n_curve = count_points(pencil, p)
            n_cover = count_points(branch, p)
            ok = ok and n_curve in (n_cover, 2 * p + 2 - n_cover)
    _verdict(4, "point counts match the double cover up to quadratic twist",
             ok, time.perf_counter() - start, 60.0)


def test_criterion_5_branch_sextics():
    rng = random.Random(103)
    start = time.perf_counter()
    ok = True
    made = attempts = 0
    while made < 100:
        attempts += 1
        assert attempts <= 200, "seed 103: under 100 nets with a sextic in 200 draws"
        try:
            net = NetOfQuadrics(QuadraticForm(_rand_sym(rng, 6), QQ),
                                QuadraticForm(_rand_sym(rng, 6), QQ),
                                QuadraticForm(_rand_sym(rng, 6), QQ))
        except DegenerateSystem:
            continue
        d = net_discriminant(net)
        if d.is_zero():
            continue
        ok = ok and d.degree() == 6 and d.is_homogeneous(6)
        made += 1
    # diagonal nets: exact product of six linear forms, flagged singular
    checked = 0
    for trial in range(5):
        b = rng.sample(range(-9, 10), 6)
        c = rng.sample(range(-9, 10), 6)
        try:
            net = NetOfQuadrics.from_diagonals([1] * 6, b, c)
        except DegenerateSystem:
            continue
        checked += 1
        d = net_discriminant(net)
        l = [MultiPoly.var(QQ, 3, i) for i in range(3)]
        expected = MultiPoly.const(QQ, 3, 1)
        for bi, ci in zip(b, c):
            expected = expected * (l[0] + bi * l[1] + ci * l[2])
        ok = ok and d == expected
        ok = ok and sextic_smoothness_probe(d, (7, 11, 13)).status == "singular"
    assert checked, "seed 103: every diagonal net of the five trials was degenerate"
    fermat = (MultiPoly.var(QQ, 3, 0)**6 + MultiPoly.var(QQ, 3, 1)**6
              + MultiPoly.var(QQ, 3, 2)**6)
    ok = ok and sextic_smoothness_probe(fermat, (7, 11, 13)).status == "probably-smooth"
    _verdict(5, "net discriminants of degree 6; probe verdicts as expected",
             ok, time.perf_counter() - start, 60.0)


def test_criterion_6_invariant_relations():
    start = time.perf_counter()
    ok = True
    for system, expected_c in ((DIAG_PENCIL, 16), (DIAG_NET, -64)):
        for p in (7, 11, 13):
            report = verify_relation(system, p, 100, seed=0)
            ok = ok and not report.failed and report.passed == 100
            ok = ok and report.c == expected_c % p
    # SL-invariance of (B, T), 100 unimodular elements per case
    rng = random.Random(104)
    for system, size in ((DIAG_PENCIL, 2), (DIAG_NET, 4)):
        F = GF(11)
        pt = sample_point(system, 11, seed=9)
        for _ in range(100):
            if size == 2:
                g, h = random_sl(F, 2, rng), random_sl(F, 2, rng)
                rep = group_invariance_check(pt.matrix, pt.system, g, h)
            else:
                rep = group_invariance_check(pt.matrix, pt.system,
                                             random_sl(F, 4, rng))
            ok = ok and rep.b_equal and rep.t_equal
    # GL-covariance exponents on 50 elements per case
    F = GF(13)
    pp = sample_point(DIAG_PENCIL, 13, seed=10)
    nn = sample_point(DIAG_NET, 13, seed=10)
    for _ in range(50):
        g, h = random_gl(F, 2, rng), random_gl(F, 2, rng)
        dg, dh = linalg.det(F, g), linalg.det(F, h)
        lhs = t_invariant(pp.matrix.left_right_transform(g, h))
        ok = ok and lhs == dg**2 * dh**2 * t_invariant(pp.matrix)
        g4 = random_gl(F, 4, rng)
        d4 = linalg.det(F, g4)
        lhs = t_invariant(nn.matrix.congruence_transform(g4))
        ok = ok and lhs == d4**3 * t_invariant(nn.matrix)
        ok = ok and linalg.det(F, wedge2_matrix(F, g4)) == d4**3
    _verdict(6, "T^2 = c*disc(B) with one constant; SL-invariance; GL exponents",
             ok, time.perf_counter() - start, 300.0)


def test_criterion_7_overlattices():
    rng = random.Random(105)
    start = time.perf_counter()
    k3 = k3_lattice()
    ok = True
    done = 0
    while done < 100:
        r = rng.choice((2, 3))
        alpha = [rng.randint(-4, 4) for _ in range(22)]
        if not any(alpha) or k3.norm(alpha) % (2 * r * r):
            continue
        out = overlattice(OverlatticeSpec(k3, alpha, r))
        ok = ok and out.rank == 22 and out.is_even and abs(out.det) == 1
        done += 1
    try:
        overlattice(OverlatticeSpec(k3, [1, 1] + [0] * 20, 2))
        ok = False
    except DivisibilityViolation:
        pass
    _verdict(7, "100 overlattices integral, even, rank 22, |det| = 1",
             ok, time.perf_counter() - start, 30.0)


def test_criterion_8_enumerative_table():
    start = time.perf_counter()
    checks = [
        type_iii_expected_dim(11, 7) == 2,
        type_iii_expected_dim(7, 5) == 3,
        type_ii_expected_dim(3, 3) == 3,
        all(fano_genus_allowed(g) for g in list(range(2, 11)) + [12]),
        not fano_genus_allowed(11),
        pairs_moduli_dims(10) == (29, 27),
        linear_section_invariants("spinor10", 7)["classification"] == "Fano 3-fold",
        linear_section_invariants("spinor10", 7)["genus"] == 7,
        linear_section_invariants("spinor10", 8)["classification"] == "K3 surface",
        linear_section_invariants("spinor10", 8)["degree"] == 12,
        linear_section_invariants("g25", 5)["classification"] == "genus-1 curve",
        linear_section_invariants("g25", 5)["degree"] == 5,
        linear_section_invariants("lagrangian6", 3)["classification"] == "Fano 3-fold",
        linear_section_invariants("lagrangian6", 3)["genus"] == 9,
    ]
    n_calls = len(checks)
    per_call = (time.perf_counter() - start) / n_calls
    _verdict(8, "expected dimensions, genus table, linear-section rows",
             all(checks), per_call, 0.001)


def test_criterion_9_cli_determinism(capsys):
    start = time.perf_counter()
    invocations = [
        ("construct", "verify-pencil", "--system", "builtin:pencil-diagonal",
         "--p", "11", "--samples", "8", "--seed", "7"),
        ("construct", "verify-net", "--system", "builtin:net-diagonal",
         "--p", "7", "--samples", "4", "--seed", "1"),
        ("lattice", "overlattice", "--alpha",
         ",".join(["1", "4"] + ["0"] * 20), "--r", "2", "--gram"),
        ("pencil", "cover", "--system", "builtin:pencil-diagonal"),
    ]
    ok = True
    for argv in invocations:
        code1 = main(list(argv))
        first = capsys.readouterr().out.encode()
        code2 = main(list(argv))
        second = capsys.readouterr().out.encode()
        ok = ok and code1 == code2 == 0 and first == second and first
        ok = ok and json.loads(first.decode())
    with capsys.disabled():
        _verdict(9, "repeated CLI invocations are byte-identical",
                 bool(ok), time.perf_counter() - start, 60.0)
