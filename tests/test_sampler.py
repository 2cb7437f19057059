"""The base-point sampler: its seed -> sample mapping and its split filter.

``GOLDEN`` pins ``sample_point(system, p, seed)``: the base point, as the
boxed sampler first drew it, and a digest of the model's coefficient
representatives, which the Witt split by one symmetric elimination fixes
once the base point is drawn.  So a faster sampler has to reproduce every
sample exactly.  Besides the seeded draws, the cases cover the base-point
sweep, the flip of the Witt split (a member at p = 3 mod 4 whose diagonal
entries share one quadratic class) and its zero-pivot repair (a member
with a zero first diagonal entry).  The four ``conic`` cases were first
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


def rand_sym(rng, n, lo=-4, hi=4):
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = rng.randint(lo, hi)
    return g


def dense_system(rng, k, n, field=None):
    """A seeded system of k dense n-variable integer forms (over QQ unless
    a field is given)."""
    cls = PencilOfQuadrics if k == 2 else NetOfQuadrics
    while True:
        try:
            return cls(*(QuadraticForm(rand_sym(rng, n), field) for _ in range(k)))
        except DegenerateSystem:
            continue


DENSE_PENCIL = dense_system(random.Random(2026), 2, 4)
DENSE_NET = dense_system(random.Random(2027), 3, 6)
SYSTEMS = {"diag-pencil": DIAG_PENCIL, "diag-net": DIAG_NET,
           "dense-pencil": DENSE_PENCIL, "dense-net": DENSE_NET}


def snapshot(system, p, seed):
    """(base point, sha256 prefix of the coefficient representatives)."""
    pt = sample_point(system, p, seed)
    reps = [[[x.v for x in row] for row in mat] for mat in pt.matrix.coeff_mats]
    return [x.v for x in pt.base_point], hashlib.sha256(repr(reps).encode()).hexdigest()[:16]


def golden_cases():
    """(case id, system name, p, seed, path) for every golden; the path is
    None for a seeded draw, or "sweep", "conic", "flip" or "repair"."""
    cases = [(f"{name}-p{p}-s{seed}", name, p, seed, None)
             for name in SYSTEMS for p in GOLDEN_PRIMES for seed in (0, 5)]
    for name in ("dense-pencil", "dense-net"):
        cases.append((f"{name}-p13-s3-sweep", name, 13, 3, "sweep"))
        cases.append((f"{name}-p13-s3-conic", name, 13, 3, "conic"))
        cases.append((f"{name}-p1009-s4-conic", name, 1009, 4, "conic"))
    cases += [("diag-pencil-p11-s1-flip", "diag-pencil", 11, 1, "flip"),
              ("dense-pencil-p7-s6-flip", "dense-pencil", 7, 6, "flip"),
              ("dense-pencil-p11-s0-repair", "dense-pencil", 11, 0, "repair"),
              ("dense-net-p13-s36-repair", "dense-net", 13, 36, "repair")]
    return cases


def assert_path_runs(system, p, seed, path):
    """The sample's model is the one its member alone gives ("conic"), or
    the sampled member takes the Witt split's flip (all its diagonal
    entries in one quadratic class, -1 a non-square) or its zero-pivot
    repair (a zero first diagonal entry)."""
    grams = [q._rows for q in system.reduce_mod(p).forms]
    pt = sample_point(system, p, seed)
    g = member_rows(grams, [x.v for x in pt.base_point], p)
    if path == "conic":
        express = quadforms.express_as_pfaffian if len(g) == 6 else quadforms.express_as_2x2_det
        own = express(QuadraticForm(g, GF(p))).coeff_mats
        assert [[[x.v for x in row] for row in mat] for mat in own] == [
            [[x.v for x in row] for row in mat] for mat in pt.matrix.coeff_mats]
    elif path == "flip":
        _, diag = linalg.int_congruence([list(row) for row in g], p)
        assert p % 4 == 3 and len({pow(d, (p - 1) // 2, p) for d in diag}) == 1
    elif path == "repair":
        assert g[0][0] == 0 and any(g[0])


# Base points captured from the boxed sampler (the member's GFElement Gram,
# MultiPoly.eval of the discriminant on every draw); digests from the Witt
# split by symmetric elimination.
GOLDEN = {
    'diag-pencil-p7-s0': [[1, 4], 'e18e82b72e658d6d'],
    'diag-pencil-p7-s5': [[1, 4], 'e18e82b72e658d6d'],
    'diag-pencil-p13-s0': [[1, 2], 'd0683184c659ae75'],
    'diag-pencil-p13-s5': [[1, 2], 'd0683184c659ae75'],
    'diag-pencil-p1009-s0': [[1, 213], 'd9bc5d3fd0d52824'],
    'diag-pencil-p1009-s5': [[1, 51], 'f81947369edfe45a'],
    'diag-pencil-p2147483647-s0': [[1, 1609340602], '877a88c95215c284'],
    'diag-pencil-p2147483647-s5': [[1, 771568937], 'b00c401a3fdccf4d'],
    'diag-net-p7-s0': [[1, 4, 1], 'e8ff8ebfbd2f6803'],
    'diag-net-p7-s5': [[1, 3, 6], '102ee7b9e9f146c7'],
    'diag-net-p13-s0': [[1, 2, 1], 'f001d3ff25c92783'],
    'diag-net-p13-s5': [[1, 8, 9], '01615e348dfd8616'],
    'diag-net-p1009-s0': [[1, 213, 440], 'ec128bd94b38f641'],
    'diag-net-p1009-s5': [[1, 882, 714], '3425bd7e95d7f539'],
    'diag-net-p2147483647-s0': [[1, 75148233, 459499349], 'df25a884286ea7cf'],
    'diag-net-p2147483647-s5': [[1, 1611456672, 886168250], '277a3d14c5b2cd98'],
    'dense-pencil-p7-s0': [[1, 4], '8e649554eeba86c0'],
    'dense-pencil-p7-s5': [[1, 4], '8e649554eeba86c0'],
    'dense-pencil-p13-s0': [[1, 0], '77d8ce34daa44db3'],
    'dense-pencil-p13-s5': [[1, 8], '75d65b77e5bc3ee2'],
    'dense-pencil-p1009-s0': [[1, 213], '3cecf9314a82741b'],
    'dense-pencil-p1009-s5': [[1, 51], 'a45f5880995c7077'],
    'dense-pencil-p2147483647-s0': [[1, 1609340602], '6839f0302ebe585f'],
    'dense-pencil-p2147483647-s5': [[1, 1074650977], '712bccaa5ad332bd'],
    'dense-net-p7-s0': [[1, 4, 1], '60d0f8de062c8583'],
    'dense-net-p7-s5': [[1, 4, 3], '2ccad005485b9865'],
    'dense-net-p13-s0': [[0, 1, 2], 'fe281c22ce22f472'],
    'dense-net-p13-s5': [[1, 5, 10], '29c9764183cc06a0'],
    'dense-net-p1009-s0': [[1, 213, 440], 'ad176f3c268c688b'],
    'dense-net-p1009-s5': [[1, 308, 86], 'a50e28a2895df93e'],
    'dense-net-p2147483647-s0': [[1, 1609340602, 1780236489], 'b5f11da9098de9e2'],
    'dense-net-p2147483647-s5': [[1, 1611456672, 886168250], 'c4cca429ee9511de'],
    'dense-pencil-p13-s3-sweep': [[1, 0], '77d8ce34daa44db3'],
    'dense-pencil-p13-s3-conic': [[1, 3], 'b7feb1432c69127b'],
    'dense-pencil-p1009-s4-conic': [[1, 119], '6228a440fa63c4f0'],
    'dense-net-p13-s3-sweep': [[1, 8, 0], '8e51f28c605f1797'],
    'dense-net-p13-s3-conic': [[1, 8, 3], 'efc6e2fbc861a5b7'],
    'dense-net-p1009-s4-conic': [[1, 382, 512], 'c1238b8aecc74b75'],
    'diag-pencil-p11-s1-flip': [[1, 0], '8a0dc5aaf49cffe4'],
    'dense-pencil-p7-s6-flip': [[1, 3], '37dc24346a6f0548'],
    'dense-pencil-p11-s0-repair': [[1, 1], 'a3db764dc3457ea2'],
    'dense-net-p13-s36-repair': [[1, 0, 8], '9b49cf2c19dd00c8'],
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
