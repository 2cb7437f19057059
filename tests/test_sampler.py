"""The base-point sampler: its seed -> sample mapping and its split filter.

``GOLDEN`` pins ``sample_point(system, p, seed)``: the base point, as the
boxed sampler first drew it, and a digest of the model's coefficient
representatives, which the Witt split by one symmetric elimination fixes
once the base point is drawn.  So a faster sampler has to reproduce every
sample exactly.  Besides the seeded draws, the cases cover the base-point
sweep, the flip of the Witt split (a member at p = 3 mod 4 whose diagonal
entries share one quadratic class) and its zero-pivot repair (a member of
a system whose forms all have zero diagonals, so that no row is a pivot
candidate at the first step).  The four ``conic`` cases were first
captured with the seeded isotropic draws of an earlier Witt split taken
away, so that its conic fallback ran; the split now draws nothing, and
these cases check that the model is the member's own.  The filter test checks the sampler's
int member determinant and its split decision against the boxed route
(``discriminant_poly``, the member summed on boxed scalars, ``is_split``)
on every point of P^k(F_p).
"""

import hashlib
import random

import pytest

from k3lab import (GF, DegenerateSystem, NetOfQuadrics, PencilOfQuadrics,
                   QuadraticForm, discriminant_poly, is_split, linalg,
                   projective_points, sample_point)
from k3lab import construction, quadforms
from k3lab.systems import member_at
from oracles import member_form, member_rows

DIAG_PENCIL = PencilOfQuadrics.from_diagonals([1, 1, 1, 1], [0, 1, 2, 3])
DIAG_NET = NetOfQuadrics.from_diagonals(
    [1] * 6, [0, 1, 2, 3, 4, 5], [0, 1, 4, 9, 16, 25])
GOLDEN_PRIMES = (7, 13, 1009, 2**31 - 1)


def rand_sym(rng, n, lo=-4, hi=4, zero_diagonal=False):
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1 if zero_diagonal else i, n):
            g[i][j] = g[j][i] = rng.randint(lo, hi)
    return g


def dense_system(rng, k, n, field=None, zero_diagonal=False):
    """A seeded system of k dense n-variable integer forms (over QQ unless
    a field is given), with all-zero diagonals if asked."""
    cls = PencilOfQuadrics if k == 2 else NetOfQuadrics
    while True:
        try:
            return cls(*(QuadraticForm(rand_sym(rng, n, zero_diagonal=zero_diagonal), field)
                         for _ in range(k)))
        except DegenerateSystem:
            continue


DENSE_PENCIL = dense_system(random.Random(2026), 2, 4)
DENSE_NET = dense_system(random.Random(2027), 3, 6)
SEEDED = {"diag-pencil": DIAG_PENCIL, "diag-net": DIAG_NET,
          "dense-pencil": DENSE_PENCIL, "dense-net": DENSE_NET}
# every member has a zero diagonal, so its Witt split starts with e_0 += e_j
SYSTEMS = {**SEEDED,
           "zero-diag-pencil": dense_system(random.Random(2028), 2, 4, zero_diagonal=True),
           "zero-diag-net": dense_system(random.Random(2029), 3, 6, zero_diagonal=True)}


def snapshot(system, p, seed):
    """(base point, sha256 prefix of the coefficient representatives)."""
    pt = sample_point(system, p, seed)
    reps = [[[x.v for x in row] for row in mat] for mat in pt.matrix.coeff_mats]
    return [x.v for x in pt.base_point], hashlib.sha256(repr(reps).encode()).hexdigest()[:16]


def golden_cases():
    """(case id, system name, p, seed, path) for every golden; the path is
    None for a seeded draw, or "sweep", "conic", "flip" or "repair"."""
    cases = [(f"{name}-p{p}-s{seed}", name, p, seed, None)
             for name in SEEDED for p in GOLDEN_PRIMES for seed in (0, 5)]
    for name in ("dense-pencil", "dense-net"):
        cases.append((f"{name}-p13-s3-sweep", name, 13, 3, "sweep"))
        cases.append((f"{name}-p13-s3-conic", name, 13, 3, "conic"))
        cases.append((f"{name}-p1009-s4-conic", name, 1009, 4, "conic"))
    cases += [("diag-pencil-p11-s1-flip", "diag-pencil", 11, 1, "flip"),
              ("dense-pencil-p7-s6-flip", "dense-pencil", 7, 6, "flip"),
              ("zero-diag-pencil-p11-s0-repair", "zero-diag-pencil", 11, 0, "repair"),
              ("zero-diag-net-p13-s0-repair", "zero-diag-net", 13, 0, "repair")]
    return cases


def assert_path_runs(system, p, seed, path):
    """The sample's model is the one its member alone gives ("conic"), or
    the sampled member takes the Witt split's flip (all the diagonal
    entries of its elimination in one quadratic class, -1 a non-square) or
    its zero-pivot repair (an all-zero diagonal, so that no row is a pivot
    candidate and e_0 += e_j runs first)."""
    grams = [q._rows for q in system.reduce_mod(p).forms]
    pt = sample_point(system, p, seed)
    g = member_rows(grams, [x.v for x in pt.base_point], p)
    if path == "conic":
        express = quadforms.express_as_pfaffian if len(g) == 6 else quadforms.express_as_2x2_det
        own = express(QuadraticForm(g, GF(p))).coeff_mats
        assert [[[x.v for x in row] for row in mat] for mat in own] == [
            [[x.v for x in row] for row in mat] for mat in pt.matrix.coeff_mats]
    elif path == "flip":
        diag, _ = linalg.int_congruence([list(row) for row in g], p)
        assert p % 4 == 3 and len({pow(d, (p - 1) // 2, p) for d in diag}) == 1
    elif path == "repair":
        assert not any(g[i][i] for i in range(len(g))) and linalg.int_det(g, p)


# Base points captured from the boxed sampler (the member's GFElement Gram,
# MultiPoly.eval of the discriminant on every draw), but those of the two
# zero-diag systems, which came later; digests from the Witt split by the
# sparsest-row symmetric elimination of linalg.int_congruence.
GOLDEN = {
    'diag-pencil-p7-s0': [[1, 4], '6b47cc5adc818551'],
    'diag-pencil-p7-s5': [[1, 4], '6b47cc5adc818551'],
    'diag-pencil-p13-s0': [[1, 2], '0eac34a2f016a8d8'],
    'diag-pencil-p13-s5': [[1, 2], '0eac34a2f016a8d8'],
    'diag-pencil-p1009-s0': [[1, 213], '736651b3941014be'],
    'diag-pencil-p1009-s5': [[1, 51], '8d4364731c27ce6a'],
    'diag-pencil-p2147483647-s0': [[1, 1609340602], '259f0bc7f542e51d'],
    'diag-pencil-p2147483647-s5': [[1, 771568937], 'b62c4cb96e56ca42'],
    'diag-net-p7-s0': [[1, 4, 1], '06bcfe09bf3ae9a6'],
    'diag-net-p7-s5': [[1, 3, 6], '9e35da6271f8a150'],
    'diag-net-p13-s0': [[1, 2, 1], 'd7e16fb6d57463b1'],
    'diag-net-p13-s5': [[1, 8, 9], 'e9fac6539e4a41b2'],
    'diag-net-p1009-s0': [[1, 213, 440], '454838f39364c2fb'],
    'diag-net-p1009-s5': [[1, 882, 714], 'dfd919f0e870c1cd'],
    'diag-net-p2147483647-s0': [[1, 75148233, 459499349], '3c6bf1835f13fc57'],
    'diag-net-p2147483647-s5': [[1, 1611456672, 886168250], '7c70ce13cf5bd1a5'],
    'dense-pencil-p7-s0': [[1, 4], '06226928ac88f208'],
    'dense-pencil-p7-s5': [[1, 4], '06226928ac88f208'],
    'dense-pencil-p13-s0': [[1, 0], 'bd189df30d6c200c'],
    'dense-pencil-p13-s5': [[1, 8], '3149158bff7f93a3'],
    'dense-pencil-p1009-s0': [[1, 213], '13c50cdcc08e27ea'],
    'dense-pencil-p1009-s5': [[1, 51], 'f4fd1be0b53f52f7'],
    'dense-pencil-p2147483647-s0': [[1, 1609340602], '6e0fba10aee2b640'],
    'dense-pencil-p2147483647-s5': [[1, 1074650977], '661656c0c3483426'],
    'dense-net-p7-s0': [[1, 4, 1], '30af2657c4551779'],
    'dense-net-p7-s5': [[1, 4, 3], 'dfaefeaf48fd3354'],
    'dense-net-p13-s0': [[0, 1, 2], '7eecb544844471d9'],
    'dense-net-p13-s5': [[1, 5, 10], 'd47b67ec2bdc417e'],
    'dense-net-p1009-s0': [[1, 213, 440], '74fca4cc69da3858'],
    'dense-net-p1009-s5': [[1, 308, 86], '2d1af521a99c1cee'],
    'dense-net-p2147483647-s0': [[1, 1609340602, 1780236489], '0becd1c7fede00d7'],
    'dense-net-p2147483647-s5': [[1, 1611456672, 886168250], '948b511388e6315d'],
    'dense-pencil-p13-s3-sweep': [[1, 0], 'bd189df30d6c200c'],
    'dense-pencil-p13-s3-conic': [[1, 3], 'e81c4bff95c71e9c'],
    'dense-pencil-p1009-s4-conic': [[1, 119], 'de4335ee241c94a7'],
    'dense-net-p13-s3-sweep': [[1, 8, 0], 'dcac92ba12973863'],
    'dense-net-p13-s3-conic': [[1, 8, 3], 'dc073ee7cb92a06d'],
    'dense-net-p1009-s4-conic': [[1, 382, 512], 'ab23279c106fd935'],
    'diag-pencil-p11-s1-flip': [[1, 0], '09fa468a8035cf11'],
    'dense-pencil-p7-s6-flip': [[1, 3], '722a1b2a1ee97a2c'],
    'zero-diag-pencil-p11-s0-repair': [[0, 1], 'e4092ab05079a2a9'],
    'zero-diag-net-p13-s0-repair': [[1, 12, 11], 'a498ee73c85a5959'],
}


@pytest.mark.parametrize("case, name, p, seed, path", golden_cases())
def test_seed_to_sample_mapping_is_pinned(monkeypatch, case, name, p, seed, path):
    if path == "sweep":
        monkeypatch.setattr(construction, "SEEDED_DRAWS", 0)
    elif path:
        assert_path_runs(SYSTEMS[name], p, seed, path)
    assert list(snapshot(SYSTEMS[name], p, seed)) == GOLDEN[case]


# -- the sampler's split filter against the boxed route -----------------------

FILTER_PRIMES = (3, 5, 7, 11)
FILTER_SEEDS = (31, 32)


@pytest.mark.parametrize("p", FILTER_PRIMES)
def test_split_filter_matches_the_boxed_route(p):
    F = GF(p)
    seen = set()
    for seed in FILTER_SEEDS:
        for k, n in ((2, 4), (3, 6)):
            system = dense_system(random.Random(seed * 100 + p), k, n, F)
            disc = discriminant_poly(system)
            for lam in projective_points(F, k - 1):
                ints = [x.v for x in lam]
                rows = member_at(system, ints)  # the sampler's combination
                d = disc.eval(lam)
                assert linalg.int_det(rows, p) == d.v
                member = QuadraticForm(rows, F)
                assert member.gram == member_form(system, lam).gram
                split = bool(d) and is_split(member)
                assert split == (F.legendre((-1) ** (n // 2) * d) == 1)
                assert quadforms._split_det(d.v, n, p) == split  # the sampler's test
                seen.add("split" if split else "nonsplit" if d else "disc=0")
    assert seen == {"split", "nonsplit", "disc=0"}
