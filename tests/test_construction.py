import json
import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from k3lab import (GF, QQ, LinearMatrix, NetOfQuadrics, NoSplitMember,
                   NotInSpan, PencilOfQuadrics, PreconditionError,
                   QuadraticForm, SystemPoint, VerificationFailure,
                   b_coordinates, discriminant_poly, group_invariance_check,
                   invariants, is_split, linalg, projective_points, random_gl,
                   random_sl, sample_point, t_invariant, verify_relation,
                   wedge2_matrix)
from k3lab import K3LabError, cli, construction, polymat
from k3lab.systems import member_at
from oracles import (boxed_random_gl, boxed_random_sl, form_poly, identity, klein_matrix,
                     member_form, model_form, relation_report, scaled,
                     witt_index_exhaustive)

DIAG_PENCIL = PencilOfQuadrics.from_diagonals([1, 1, 1, 1], [0, 1, 2, 3])
DIAG_NET = NetOfQuadrics.from_diagonals(
    [1] * 6, [0, 1, 2, 3, 4, 5], [0, 1, 4, 9, 16, 25])
# the pencil of test_no_split_member_mod_three
MOD3_PENCIL = PencilOfQuadrics.from_diagonals([1, 2, 1, 1], [1, 2, 2, 2])


def canonical_2x2(field):
    return LinearMatrix(field, 2, 4, [
        [[1, 0], [0, 0]], [[0, 1], [0, 0]], [[0, 0], [1, 0]], [[0, 0], [0, 1]],
    ])


def canonical_klein(field):
    rows = [[1 if k == i else 0 for i in range(6)] for k in range(6)]
    return klein_matrix(field, 6, rows)


def hyperbolic_pencil(field=QQ):
    q1 = model_form(field, 4)
    q2 = QuadraticForm(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], field)
    return PencilOfQuadrics(q1, q2)


# -- b coordinates --------------------------------------------------------------

def test_b_coordinates_canonical():
    pencil = hyperbolic_pencil()
    a = canonical_2x2(QQ)
    assert b_coordinates(a, pencil) == (1, 0)


def test_b_scaling_is_degree_two():
    pencil = hyperbolic_pencil(GF(11))
    a = canonical_2x2(GF(11))
    for t in (2, 3, 7):
        b = b_coordinates(scaled(a, t), pencil)
        t_el = GF(11).element(t)
        assert b == (t_el * t_el, GF(11).zero)


def test_b_coordinates_not_in_span():
    pencil = hyperbolic_pencil()
    # det = x0^2 lies outside span(q1, q2)
    a = LinearMatrix(QQ, 2, 4, [
        [[1, 0], [0, 1]], [[0, 0], [0, 0]], [[0, 0], [0, 0]], [[0, 0], [0, 0]],
    ])
    with pytest.raises(NotInSpan):
        b_coordinates(a, pencil)


# -- t invariant -----------------------------------------------------------------

def test_t_invariant_canonical_golden():
    assert t_invariant(canonical_2x2(QQ)) == 1
    assert t_invariant(canonical_klein(QQ)) == 1


def test_t_invariant_shape_check():
    with pytest.raises(PreconditionError):
        t_invariant(LinearMatrix(QQ, 2, 3, [[[1, 0], [0, 1]]] * 3))


# -- shapes outside the two models -------------------------------------------------

def _shape_cases():
    """(id, matrix, system, g, h) for every linear matrix outside the models
    (2x2 over four variables, alternating 4x4 over six) and the group
    elements a check of it would be handed."""
    F = GF(11)
    rng = random.Random(75)

    def mats(size, nvars, alternating):
        out = []
        for i in range(nvars):
            m = [[F.zero] * size for _ in range(size)]
            for r in range(size):
                for c in range(r if alternating else 0, size):
                    if r != c or not alternating:
                        m[r][c] = F.element(1 + (3 * i + 5 * r + 7 * c) % 10)
                        if alternating:
                            m[c][r] = -m[r][c]
            out.append(m)
        return LinearMatrix(F, size, nvars, out)

    pencil, net = DIAG_PENCIL.reduce_mod(11), DIAG_NET.reduce_mod(11)
    sl2, sl3, sl4 = (random_sl(F, n, rng) for n in (2, 3, 4))
    return [
        ("3x3", mats(3, 4, False), pencil, sl3, None),
        ("4x4-not-alternating", mats(4, 6, False), net, sl4, None),
        ("2x2-in-3", mats(2, 3, False), pencil, sl2, sl2),
        ("alternating-4x4-in-5", mats(4, 5, True), net, sl4, None),
    ]


# each function refuses such a matrix up front, before any work on it
SHAPE = "expects 2x2 over four variables or alternating 4x4 over six"


@pytest.mark.parametrize("case", _shape_cases(), ids=lambda case: case[0])
def test_non_model_shapes_are_refused(case):
    name, a, system, g, h = case
    for who, call in (("b_coordinates", lambda: b_coordinates(a, system)),
                      ("t_invariant", lambda: t_invariant(a)),
                      ("group_invariance_check",
                       lambda: group_invariance_check(a, system, g, h))):
        with pytest.raises(PreconditionError) as err:
            call()
        assert (err.type, str(err.value)) == (PreconditionError, f"{who} {SHAPE}"), name


def test_group_elements_must_fit_the_model():
    F = GF(11)
    pt = sample_point(DIAG_PENCIL, 11, seed=3)
    nt = sample_point(DIAG_NET, 11, seed=3)
    eye2, eye4 = identity(F, 2), identity(F, 4)
    for call, message in ((lambda: group_invariance_check(pt.matrix, pt.system, eye2),
                           "pencil case needs a pair (g, h)"),
                          (lambda: group_invariance_check(nt.matrix, nt.system, eye4, eye4),
                           "net case takes a single SL(4) element")):
        with pytest.raises(PreconditionError) as err:
            call()
        assert (err.type, str(err.value)) == (PreconditionError, message)


def test_t_gl_covariance_pencil():
    F = GF(13)
    rng = random.Random(70)
    a = canonical_2x2(F)
    for _ in range(50):
        g, h = random_gl(F, 2, rng), random_gl(F, 2, rng)
        dg, dh = linalg.det(F, g), linalg.det(F, h)
        assert t_invariant(a.left_right_transform(g, h)) == dg**2 * dh**2 * t_invariant(a)


def test_t_gl_covariance_net_and_wedge2():
    F = GF(13)
    rng = random.Random(71)
    a = canonical_klein(F)
    for _ in range(50):
        g = random_gl(F, 4, rng)
        dg = linalg.det(F, g)
        assert t_invariant(a.congruence_transform(g)) == dg**3 * t_invariant(a)
        assert linalg.det(F, wedge2_matrix(F, g)) == dg**3


def test_pfaffian_transformation_law():
    F = GF(11)
    rng = random.Random(72)
    a = canonical_klein(F)
    for _ in range(10):
        g = random_gl(F, 4, rng)
        lhs = a.congruence_transform(g).pfaffian_poly()
        rhs = a.pfaffian_poly() * linalg.det(F, g)
        assert lhs == rhs


# -- sampling --------------------------------------------------------------------

def test_sample_point_pencil_membership():
    pt = sample_point(DIAG_PENCIL, 11, seed=1)
    a_poly = pt.matrix.det_poly()
    assert a_poly == form_poly(member_form(pt.system, pt.base_point))
    assert pt.b == pt.base_point


def test_sample_point_net_membership():
    pt = sample_point(DIAG_NET, 11, seed=0)
    assert pt.matrix.alternating
    assert pt.matrix.pfaffian_poly() == form_poly(member_form(pt.system, pt.base_point))
    assert pt.b == pt.base_point


def test_sample_point_deterministic():
    a = sample_point(DIAG_PENCIL, 13, seed=5)
    b = sample_point(DIAG_PENCIL, 13, seed=5)
    assert a.base_point == b.base_point and a.matrix == b.matrix


def test_no_split_member_mod_three():
    # every member over F_3 is degenerate or non-split
    pencil = PencilOfQuadrics.from_diagonals([1, 2, 1, 1], [1, 2, 2, 2])
    with pytest.raises(NoSplitMember):
        sample_point(pencil, 3, seed=0)
    # independent oracle: full sweep of P^1(F_3)
    red = pencil.reduce_mod(3)
    for lam in projective_points(GF(3), 1):
        member = member_form(red, lam)
        if member.is_nondegenerate():
            assert witt_index_exhaustive(member) < 2


def test_sample_point_draws_without_sweeping(monkeypatch):
    # at p = 1009 the seeded draws find a split member; the sweep over the
    # whole base is only a fallback
    from k3lab import construction

    def no_sweep(field, dim):
        raise RuntimeError("the fallback sweep ran")
        yield

    monkeypatch.setattr(construction, "projective_points", no_sweep)
    for seed in range(5):
        pt = sample_point(DIAG_PENCIL, 1009, seed=seed)
        assert pt.b == pt.base_point
        pt = sample_point(DIAG_NET, 1009, seed=seed)
        assert pt.b == pt.base_point


def test_split_prefilter_matches_exhaustive_witt_index():
    # is_split against an exhaustive isotropic-subspace search on every
    # nondegenerate member: pencils at p = 3, 5, 7 and a net at p = 3
    systems = []
    for p in (3, 5, 7):
        F = GF(p)
        systems += [DIAG_PENCIL.reduce_mod(p), MOD3_PENCIL.reduce_mod(p),
                    hyperbolic_pencil(F)]
    F = GF(3)
    eye = [[1 if i == j else 0 for j in range(6)] for i in range(6)]
    ramp = [[i + 1 if i == j else 0 for j in range(6)] for i in range(6)]
    systems.append(NetOfQuadrics(model_form(F, 6), QuadraticForm(eye, F),
                                 QuadraticForm(ramp, F)))
    seen = set()
    for system in systems:
        m = system.NVARS // 2
        for lam in projective_points(system.field, len(system.forms) - 1):
            member = member_form(system, lam)
            if not member.is_nondegenerate():
                continue
            split = is_split(member)
            assert split == (witt_index_exhaustive(member, stop_at=m) == m)
            seen.add((m, split))
    assert seen == {(2, True), (2, False), (3, True), (3, False)}


def test_system_point_build_rejects_a_wrong_base_point():
    pt = sample_point(DIAG_PENCIL, 11, seed=1)
    lam = (pt.base_point[0], pt.base_point[1] + 1)
    with pytest.raises(VerificationFailure):
        SystemPoint.build(pt.matrix, pt.system, lam)


def test_sampler_catches_a_wrong_model(monkeypatch):
    from k3lab import quadforms

    real = quadforms._model_rows
    monkeypatch.setattr(quadforms, "_model_rows", lambda p, gm: [
        [2 * x % p for x in row] for row in real(p, gm)])
    with pytest.raises(VerificationFailure):
        sample_point(DIAG_NET, 11, seed=0)


def test_sample_bad_reduction():
    from k3lab import BadReduction

    # q2 = diag(8, 8, 8, 8) reduces to q1 modulo 7: members collapse
    pencil = PencilOfQuadrics.from_diagonals([1, 1, 1, 1], [8, 8, 8, 8 + 7])
    with pytest.raises(BadReduction):
        sample_point(pencil, 7)


def test_sample_discriminant_vanishing_identically():
    from k3lab import BadReduction
    from k3lab.systems import member_matrix

    # every member is singular on a common kernel: the discriminant, one
    # int determinant at the Kronecker point, has no terms at all
    for system in (PencilOfQuadrics.from_diagonals([1, 0, 0, 0], [0, 1, 0, 0]),
                   NetOfQuadrics.from_diagonals([1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0],
                                                [0, 0, 1, 0, 0, 0])):
        assert member_matrix(system)._terms(False) == {}
        for p in (7, 2**31 - 1):
            with pytest.raises(BadReduction, match=f"vanishes identically mod {p}"):
                sample_point(system, p)


def test_sample_leaves_the_discriminant_unexpanded():
    # a draw that succeeds never needs the discriminant: only the sweep, when
    # every draw failed, checks that it does not vanish identically
    for system in (DIAG_PENCIL, DIAG_NET):
        for p in (11, 1009):
            pt = sample_point(system, p, seed=2)
            assert pt.system._matrix is None
    with pytest.raises(NoSplitMember):
        sample_point(MOD3_PENCIL, 3)


def test_relation_leaves_the_discriminant_unexpanded():
    # disc(B) is one determinant of the member at B: neither verify_relation
    # nor `construct invariance` expands the discriminant of a system already
    # over GF(p), which both use as it is
    for system in (DIAG_PENCIL, DIAG_NET):
        for p in (11, 1009):
            red = system.reduce_mod(p)
            rep = verify_relation(red, p, 3, seed=2)
            assert rep.passed == 3 and not rep.failed
            assert red._matrix is None
            out = cli._invariance_report(red, p, 2, 2)
            assert out["b_invariant"] and out["t_invariant"]
            assert red._matrix is None


# -- relation verification ---------------------------------------------------------

def test_relation_constant_direct_computation():
    # canonical sample at lam = (1, 0): T = 1, disc(q1) = 1/16, c = 16
    pencil = hyperbolic_pencil()
    a = canonical_2x2(QQ)
    t = t_invariant(a)
    disc_b = discriminant_poly(pencil).eval(b_coordinates(a, pencil))
    assert t * t / disc_b == 16
    assert disc_b == Fraction(1, 16)


def test_relation_constant_pencil_and_net():
    for p in (7, 11, 13):
        rep = verify_relation(DIAG_PENCIL, p, 12, seed=0)
        assert not rep.failed and rep.passed == 12
        assert rep.c == 16 % p
        rep = verify_relation(DIAG_NET, p, 12, seed=0)
        assert not rep.failed and rep.passed == 12
        assert rep.c == -64 % p


def test_relation_constant_net_large_primes():
    # the sampler's cost does not grow with p, up to the largest allowed prime
    for p in (10007, 2**31 - 1):
        rep = verify_relation(DIAG_NET, p, 6, seed=0)
        assert not rep.failed and rep.passed == 6
        assert rep.c == -64 % p


def test_relation_constant_dense_net_at_the_largest_prime():
    rng = random.Random(74)
    grams = [[[0] * 6 for _ in range(6)] for _ in range(3)]
    for g in grams:
        for i in range(6):
            for j in range(i, 6):
                g[i][j] = g[j][i] = rng.randint(-3, 3)
    net = NetOfQuadrics(*(QuadraticForm(g, QQ) for g in grams))
    rep = verify_relation(net, 2**31 - 1, 4, seed=5)
    assert not rep.failed and rep.passed == rep.samples == 4


def test_relation_constant_random_systems():
    # a draw that breaks a precondition of verify_relation (bad reduction
    # mod 11, no split member, dependent members) is redrawn; anything else
    # fails the test
    rng = random.Random(73)
    made = attempts = 0
    while made < 3:
        attempts += 1
        assert attempts <= 20, "seed 73: under 3 usable pencils in 20 draws"
        g1 = [[Fraction(rng.randint(-3, 3)) for _ in range(4)] for _ in range(4)]
        g2 = [[Fraction(rng.randint(-3, 3)) for _ in range(4)] for _ in range(4)]
        for g in (g1, g2):
            for i in range(4):
                for j in range(i + 1, 4):
                    g[j][i] = g[i][j]
        try:
            pencil = PencilOfQuadrics(QuadraticForm(g1, QQ), QuadraticForm(g2, QQ))
            rep = verify_relation(pencil, 11, 10, seed=made)
        except PreconditionError:
            continue
        assert not rep.failed
        made += 1


def test_relation_scaling_invariance():
    F = GF(11)
    pencil = hyperbolic_pencil(F)
    disc = discriminant_poly(pencil)
    a = canonical_2x2(F)
    c = None
    for t in (1, 2, 3, 5, 7):
        at = scaled(a, t)
        tv = t_invariant(at)
        db = disc.eval(b_coordinates(at, pencil))
        ratio = tv * tv / db
        c = ratio if c is None else c
        assert ratio == c


def test_relation_scaling_invariance_net():
    # T^2 and disc(B) both scale like t^12, so the ratio is scale-free
    pt = sample_point(DIAG_NET, 11, seed=11)
    F = GF(11)
    disc = discriminant_poly(pt.system)
    t0 = t_invariant(pt.matrix)
    base = t0 * t0 / disc.eval(pt.b)
    for t in (2, 3, 5):
        at = scaled(pt.matrix, t)
        tv = t_invariant(at)
        t_el = F.element(t)
        assert tv == t_el**6 * t0
        b = b_coordinates(at, pt.system)
        assert b == tuple(x * t_el**2 for x in pt.b)
        assert tv * tv / disc.eval(b) == base


def test_relation_needs_two_samples():
    with pytest.raises(PreconditionError):
        verify_relation(DIAG_PENCIL, 11, 1)


def _dense_system(rng, k, n, field=QQ):
    """A seeded system of k dense n-variable forms with entries in [-3, 3]."""
    while True:
        grams = [[[0] * n for _ in range(n)] for _ in range(k)]
        for g in grams:
            for i in range(n):
                for j in range(i, n):
                    g[i][j] = g[j][i] = rng.randint(-3, 3)
        try:
            return (PencilOfQuadrics if k == 2 else NetOfQuadrics)(
                *(QuadraticForm(g, field) for g in grams))
        except PreconditionError:
            continue


def _outcome(fn, *args):
    """The report of ``fn(*args)``, or the type and text of its error."""
    try:
        return fn(*args)
    except K3LabError as exc:
        return type(exc), str(exc)


def test_relation_matches_the_sample_by_sample_oracle():
    # verify_relation keeps the draws and the samples by base point for one
    # call; the oracle recomputes every sample, T and disc(B) = det of the
    # member at B.  At small p most samples repeat a base point.
    rng = random.Random(925)
    systems = [DIAG_PENCIL, DIAG_NET, _dense_system(rng, 2, 4), _dense_system(rng, 3, 6),
               _dense_system(rng, 2, 4), _dense_system(rng, 3, 6)]
    reports = repeats = 0
    for system in systems:
        for p in (5, 7, 11, 13, 101):
            for count in (2, 4, 100):
                got = _outcome(verify_relation, system, p, count, 3)
                assert got == _outcome(relation_report, system, p, count, 3), (system, p, count)
                if not isinstance(got, tuple):
                    reports += 1
                    if p < 100:
                        points = {sample_point(system, p, 3 + i).base_point
                                  for i in range(count)}
                        repeats += count - len(points)
    assert reports == 90 and repeats >= 1000


def test_relation_matches_the_oracle_over_a_finite_field():
    for system in (DIAG_PENCIL.reduce_mod(13), _dense_system(random.Random(926), 3, 6, GF(13)),
                   _dense_system(random.Random(927), 2, 4, GF(13))):
        rep = verify_relation(system, 13, 40, 1)
        assert rep == relation_report(system, 13, 40, 1)
        assert rep.passed == 40


def test_relation_lists_every_repeat_of_a_failing_base_point(monkeypatch):
    # T is wrong (twice the true one) at one base point, which is not the
    # first sample's, so c is right and every sample of that point fails
    red = DIAG_PENCIL.reduce_mod(7)
    points = [sample_point(red, 7, i).base_point for i in range(30)]
    bad = next(b for b in points if b != points[0])
    bad_matrix = sample_point(red, 7, points.index(bad)).matrix
    real = construction.t_invariant
    monkeypatch.setattr(construction, "t_invariant",
                        lambda a: 2 * real(a) if a == bad_matrix else real(a))
    rep = verify_relation(red, 7, 30)
    assert rep == relation_report(red, 7, 30)
    want = [i for i, b in enumerate(points) if b == bad]
    assert [f["index"] for f in rep.failed] == want and len(want) >= 2
    assert {f["base_point"] for f in rep.failed} == {bad}
    assert rep.passed == 30 - len(want)


def test_verify_factors_and_checks_each_distinct_base_point_once(monkeypatch, capsys):
    # construct verify-pencil --p 7 --samples 100: the Witt split with its
    # det = q check, B == lam and T run once per distinct base point, and
    # each drawn base point is combined into its member once (by its first
    # draw), so disc(B) takes no member of its own
    red = cli.load_system("builtin:pencil-diagonal", 7)
    distinct = {tuple(x.v for x in sample_point(red, 7, i).base_point) for i in range(100)}
    calls = {name: [] for name in ("express_as_2x2_det", "b_coordinates", "t_invariant",
                                   "member_at")}
    for name, log in calls.items():
        monkeypatch.setattr(construction, name, lambda *args, real=getattr(construction, name),
                            log=log: log.append(args) or real(*args))
    assert cli.main(["construct", "verify-pencil", "--system", "builtin:pencil-diagonal",
                     "--p", "7", "--samples", "100"]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] == 100
    assert len(distinct) < 10
    for name in ("express_as_2x2_det", "b_coordinates", "t_invariant"):
        assert len(calls[name]) == len(distinct), name
    members = Counter(tuple(lam) for _, lam in calls["member_at"])
    assert distinct <= set(members) and max(members.values()) == 1


@pytest.mark.parametrize("p", [11, 1009, 2**31 - 1])
def test_construct_commands_never_expand_by_laplace(p, monkeypatch, capsys):
    # every det/Pf of a construct op is a Kronecker determinant or the
    # degree-2 product table: express_as_*'s check, b_coordinates of the
    # samples and of the transformed matrices, the sampler's member dets
    calls = {name: 0 for name in ("_expand", "_degree2_terms")}
    for name in calls:
        def count(*args, real=getattr(polymat, name), name=name):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(polymat, name, count)
    for action, system, n in (("verify-pencil", "pencil", "--samples"),
                              ("verify-net", "net", "--samples"),
                              ("invariance", "pencil", "--count"),
                              ("invariance", "net", "--count")):
        assert cli.main(["construct", action, "--system", f"builtin:{system}-diagonal",
                         "--p", str(p), n, "6"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out.get("passed", out.get("checked")) == 6
    assert calls["_expand"] == 0
    assert calls["_degree2_terms"] > 0


@pytest.mark.parametrize("system", [DIAG_PENCIL, DIAG_NET])
def test_draw_with_its_memo_returns_what_a_fresh_draw_does(system):
    # one memo over 100 seeds, most of them repeating a base point already
    # drawn: each draw still hands back the member's rows and determinant
    red = system.reduce_mod(7)
    drawn = {}
    for seed in range(100):
        lam, g, d = construction._draw(red, 7, seed, drawn)
        assert (lam, g, d) == construction._draw(red, 7, seed, {})
        assert g == member_at(red, lam) and d == linalg.int_det(g, 7)


# -- group invariance ----------------------------------------------------------------

def test_invariance_identity():
    F = GF(11)
    pt = sample_point(DIAG_PENCIL, 11, seed=3)
    eye = identity(F, 2)
    rep = group_invariance_check(pt.matrix, pt.system, eye, eye)
    assert rep.b_equal and rep.t_equal


def test_invariance_shear():
    F = GF(11)
    pt = sample_point(DIAG_PENCIL, 11, seed=4)
    shear = ((F.one, F.one), (F.zero, F.one))
    eye = identity(F, 2)
    rep = group_invariance_check(pt.matrix, pt.system, shear, eye)
    assert rep.b_equal and rep.t_equal


def test_invariance_random_sl():
    rng = random.Random(74)
    for p in (7, 11, 13):
        F = GF(p)
        pt = sample_point(DIAG_PENCIL, p, seed=6)
        nt = sample_point(DIAG_NET, p, seed=6)
        for _ in range(40):
            g, h = random_sl(F, 2, rng), random_sl(F, 2, rng)
            rep = group_invariance_check(pt.matrix, pt.system, g, h)
            assert rep.b_equal and rep.t_equal
            rep = group_invariance_check(nt.matrix, nt.system, random_sl(F, 4, rng))
            assert rep.b_equal and rep.t_equal


def test_invariance_rejects_non_unimodular():
    F = GF(11)
    pt = sample_point(DIAG_PENCIL, 11, seed=7)
    nt = sample_point(DIAG_NET, 11, seed=7)
    g = ((F.element(2), F.zero), (F.zero, F.one))
    g4 = tuple(tuple(F.element(2 if i == j == 3 else int(i == j)) for j in range(4))
               for i in range(4))
    for call in (lambda: group_invariance_check(pt.matrix, pt.system, g, identity(F, 2)),
                 lambda: group_invariance_check(pt.matrix, pt.system, identity(F, 2), g),
                 lambda: group_invariance_check(nt.matrix, nt.system, g4)):
        with pytest.raises(PreconditionError) as err:
            call()
        assert str(err.value) == "group elements must have determinant 1"


def test_invariance_over_qq_with_denominators():
    # SL elements with denominators: unimodular over QQ though their int rows
    # are not, and the transformed matrices carry the scale D^2
    half, third = Fraction(1, 2), Fraction(1, 3)
    g2 = ((half, third), (0, 2))
    g4 = ((half, third, 0, 1), (0, 2, 0, Fraction(-5, 6)), (0, 0, third, 0), (0, 0, 1, 3))
    net = NetOfQuadrics(model_form(QQ, 6), QuadraticForm(identity(QQ, 6), QQ),
                        QuadraticForm([[int(i == j) * (i + 1) for j in range(6)]
                                       for i in range(6)], QQ))
    for rep in (group_invariance_check(canonical_2x2(QQ), hyperbolic_pencil(), g2, g2),
                group_invariance_check(canonical_klein(QQ), net, g4)):
        assert rep.b_equal and rep.t_equal
    with pytest.raises(PreconditionError):
        group_invariance_check(canonical_klein(QQ), net, g4[:3] + ((0, 0, 1, 6),))


def test_random_sl_and_gl_keep_the_boxed_stream():
    # the same element from the same rng.randrange calls, and the rng left
    # in the same state
    for p in (3, 7, 13, 1009):
        F = GF(p)
        for n in (2, 4):
            for seed in range(200):
                for draw, oracle in ((random_sl, boxed_random_sl), (random_gl, boxed_random_gl)):
                    rng, ref = random.Random(seed), random.Random(seed)
                    assert draw(F, n, rng) == oracle(F, n, ref), (draw, p, n, seed)
                    assert rng.random() == ref.random(), (draw, p, n, seed)


# -- the invariants satisfy exactly one relation of the expected degree ---------------

def _weighted_monomials(weights, total):
    ranges = [range(total // w + 1) for w in weights]
    out = []
    for exps in product(*ranges):
        if sum(w * e for w, e in zip(weights, exps)) == total:
            out.append(exps)
    return out


def _value_rows(samples, monomials):
    rows = []
    for vals in samples:
        row = []
        for exps in monomials:
            acc = vals[0].field.one
            for v, e in zip(vals, exps):
                if e:
                    acc = acc * v**e
            row.append(acc)
        rows.append(row)
    return rows


def _gather(system, p, n_points, n_scalings, seed):
    F = GF(p)
    rng = random.Random(seed)
    red = system.reduce_mod(p)
    disc = discriminant_poly(red)
    seen, samples = set(), []
    attempt = 0
    while len(seen) < n_points:
        pt = sample_point(red, p, seed=seed + attempt)
        attempt += 1
        if pt.base_point in seen:
            continue
        seen.add(pt.base_point)
        t = t_invariant(pt.matrix)
        base = tuple(pt.b) + (t,)
        samples.append(base)
        deg_b, deg_t = 2, 4 if len(pt.b) == 2 else 6
        for _ in range(n_scalings):
            s = F.element(rng.randrange(1, p))
            samples.append(tuple(x * s**deg_b for x in pt.b) + (t * s**deg_t,))
    return F, disc, samples


def test_single_relation_pencil():
    F, disc, samples = _gather(DIAG_PENCIL, 101, 40, 4, seed=0)
    weights = (2, 2, 4)
    for low in (2, 4, 6):
        mono = _weighted_monomials(weights, low)
        assert linalg.nullspace(F, _value_rows(samples, mono)) == []
    mono = _weighted_monomials(weights, 8)
    kernel = linalg.nullspace(F, _value_rows(samples, mono))
    assert len(kernel) == 1
    # the kernel vector is T^2 - c * disc(B1, B2) up to scale
    c = F.element(16)
    expected = []
    for exps in mono:
        if exps == (0, 0, 2):
            expected.append(F.one)
        elif exps[2] == 0:
            expected.append(-c * disc.coeff((exps[0], exps[1])))
        else:
            expected.append(F.zero)
    vec = kernel[0]
    t2_index = mono.index((0, 0, 2))
    scale = expected[t2_index] / vec[t2_index]
    assert [x * scale for x in vec] == expected


def test_single_relation_net():
    F, disc, samples = _gather(DIAG_NET, 101, 70, 4, seed=1)
    weights = (2, 2, 2, 6)
    for low in (2, 4, 6, 8, 10):
        mono = _weighted_monomials(weights, low)
        assert linalg.nullspace(F, _value_rows(samples, mono)) == []
    mono = _weighted_monomials(weights, 12)
    kernel = linalg.nullspace(F, _value_rows(samples, mono))
    assert len(kernel) == 1
    c = F.element(-64)
    expected = []
    for exps in mono:
        if exps == (0, 0, 0, 2):
            expected.append(F.one)
        elif exps[3] == 0:
            expected.append(-c * disc.coeff(exps[:3]))
        else:
            expected.append(F.zero)
    vec = kernel[0]
    t2_index = mono.index((0, 0, 0, 2))
    scale = expected[t2_index] / vec[t2_index]
    assert [x * scale for x in vec] == expected


def test_invariants_named_tuple():
    pt = sample_point(DIAG_PENCIL, 11, seed=8)
    data = invariants(pt.matrix, pt.system)
    assert data.b == pt.b
    assert data.t == t_invariant(pt.matrix)
