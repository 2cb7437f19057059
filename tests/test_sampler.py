"""The base-point sampler: its seed -> sample mapping and its split filter.

``GOLDEN`` pins ``sample_point(system, p, seed)`` (base point, and a digest of
the model's coefficient representatives) as the boxed sampler produced it,
so a faster sampler has to reproduce every sample exactly.  The filter test
checks the sampler's int member determinant and its split decision against
the boxed route (``discriminant_poly``, the member summed on boxed
scalars, ``is_split``) on every point of P^k(F_p).
"""

import hashlib
import random

import pytest

from k3lab import (GF, DegenerateSystem, NetOfQuadrics, PencilOfQuadrics,
                   QuadraticForm, discriminant_poly, is_split, linalg,
                   projective_points, sample_point)
from k3lab import construction, quadforms
from k3lab.systems import member_rows
from oracles import member_form

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
    """(case id, system name, p, seed, forced fallback) for every golden."""
    cases = [(f"{name}-p{p}-s{seed}", name, p, seed, None)
             for name in SYSTEMS for p in GOLDEN_PRIMES for seed in (0, 5)]
    for name in ("dense-pencil", "dense-net"):
        cases.append((f"{name}-p13-s3-sweep", name, 13, 3, "sweep"))
        cases.append((f"{name}-p13-s3-conic", name, 13, 3, "conic"))
        cases.append((f"{name}-p1009-s4-conic", name, 1009, 4, "conic"))
    return cases


def force(monkeypatch, fallback):
    """No seeded base-point draws (the sweep runs) or no seeded isotropic
    draws (the conic fallback runs)."""
    if fallback == "sweep":
        monkeypatch.setattr(construction, "SEEDED_DRAWS", 0)
    elif fallback == "conic":
        monkeypatch.setattr(quadforms, "SEEDED_DRAWS", 0)


# Captured from the boxed sampler (the member's GFElement Gram, MultiPoly.eval
# of the discriminant on every draw, a QuadraticForm per Witt subform).
GOLDEN = {
    'diag-pencil-p7-s0': [[1, 4], '4e9eaf18bd01099a'],
    'diag-pencil-p7-s5': [[1, 4], '0eab2a33f6e36b5d'],
    'diag-pencil-p13-s0': [[1, 2], '4e1c612b954edae5'],
    'diag-pencil-p13-s5': [[1, 2], '847f256110b32322'],
    'diag-pencil-p1009-s0': [[1, 213], '5099680484975b35'],
    'diag-pencil-p1009-s5': [[1, 51], '381b8b8406858d68'],
    'diag-pencil-p2147483647-s0': [[1, 1609340602], '94e472f2d9e3f33a'],
    'diag-pencil-p2147483647-s5': [[1, 771568937], '55fecca7894fd4f7'],
    'diag-net-p7-s0': [[1, 4, 1], 'afbea8ff4a13f436'],
    'diag-net-p7-s5': [[1, 3, 6], '1a8050fdc3611b51'],
    'diag-net-p13-s0': [[1, 2, 1], '83a74e40b1c566b8'],
    'diag-net-p13-s5': [[1, 8, 9], 'db13a66cf446a7e8'],
    'diag-net-p1009-s0': [[1, 213, 440], '5fc03d65e0a780bb'],
    'diag-net-p1009-s5': [[1, 882, 714], '2f167314507acd76'],
    'diag-net-p2147483647-s0': [[1, 75148233, 459499349], '0dee0ba4c463aadb'],
    'diag-net-p2147483647-s5': [[1, 1611456672, 886168250], 'cad5556f9c4c9260'],
    'dense-pencil-p7-s0': [[1, 4], 'b807956600c6806a'],
    'dense-pencil-p7-s5': [[1, 4], '52d4abf0463a142a'],
    'dense-pencil-p13-s0': [[1, 0], '8b9a8f6aaba461d6'],
    'dense-pencil-p13-s5': [[1, 8], '664b841f5af79b0d'],
    'dense-pencil-p1009-s0': [[1, 213], '1cbbbabeb8dac3ef'],
    'dense-pencil-p1009-s5': [[1, 51], 'd2dd33fbafe4dc50'],
    'dense-pencil-p2147483647-s0': [[1, 1609340602], '6199c32cb6f78e76'],
    'dense-pencil-p2147483647-s5': [[1, 1074650977], 'b9e08a65f0cc354e'],
    'dense-net-p7-s0': [[1, 4, 1], 'f861a193648261b6'],
    'dense-net-p7-s5': [[1, 4, 3], '1022ebbbe845ba7b'],
    'dense-net-p13-s0': [[0, 1, 2], '4a54f08c0abb0593'],
    'dense-net-p13-s5': [[1, 5, 10], '76808b26a01837c9'],
    'dense-net-p1009-s0': [[1, 213, 440], '4f5ccd0895410f30'],
    'dense-net-p1009-s5': [[1, 308, 86], 'e3a1515fb0329c7a'],
    'dense-net-p2147483647-s0': [[1, 1609340602, 1780236489], '0f47338d472aafdc'],
    'dense-net-p2147483647-s5': [[1, 1611456672, 886168250], 'fe4374faef2f0cd0'],
    'dense-pencil-p13-s3-sweep': [[1, 0], '86e5385ec6c14e7f'],
    'dense-pencil-p13-s3-conic': [[1, 3], 'a5a910925650f573'],
    'dense-pencil-p1009-s4-conic': [[1, 119], 'c4a270451db1a067'],
    'dense-net-p13-s3-sweep': [[1, 8, 0], '205423e07bb1bee1'],
    'dense-net-p13-s3-conic': [[1, 8, 3], '779a97aaa7536e63'],
    'dense-net-p1009-s4-conic': [[1, 382, 512], 'd1b1d975e8ccebbd'],
}


@pytest.mark.parametrize("case, name, p, seed, fallback", golden_cases())
def test_seed_to_sample_mapping_is_pinned(monkeypatch, case, name, p, seed, fallback):
    force(monkeypatch, fallback)
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
            grams = [q._rows for q in system.forms]
            for lam in projective_points(F, k - 1):
                ints = [x.v for x in lam]
                rows = member_rows(grams, ints, p)
                d = disc.eval(lam)
                assert linalg.int_det(rows, p) == d.v
                member = QuadraticForm(rows, F)
                assert member.gram == member_form(system, lam).gram
                split = bool(d) and is_split(member)
                assert split == (F.legendre((-1) ** (n // 2) * d) == 1)
                assert quadforms._split_det(d.v, n, p) == split  # the sampler's test
                seen.add("split" if split else "nonsplit" if d else "disc=0")
    assert seen == {"split", "nonsplit", "disc=0"}
