import random
from fractions import Fraction

import pytest

from k3lab import (GF, QQ, BadPrime, BadReduction, BinaryQuartic, DegenerateBranch,
                   DegenerateSystem, MultiPoly, NetOfQuadrics,
                   PencilOfQuadrics, QuadraticForm, count_points,
                   discriminant_poly, jacobian_j_invariant,
                   moduli_double_cover, net_discriminant, pencil_discriminant,
                   pic2_double_cover, sextic_smoothness_probe)
from k3lab import systems
from k3lab.systems import member_at
from oracles import (brute_force_pencil_count, brute_force_singular_point,
                     cofactor_det, cross_ratio_j, deriv, fibre_sweep_pencil_count,
                     line_sweep_singular_point,
                     member_rows, poly_mod, scalar_leibniz_det, substitute,
                     uni_is_squarefree, uni_sweep_count)

VAR = lambda i, n=2: MultiPoly.var(QQ, n, i)


def rand_sym(rng, n, lo=-4, hi=4):
    g = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = Fraction(rng.randint(lo, hi))
    return g


def rand_pencil(rng):
    while True:
        try:
            return PencilOfQuadrics(QuadraticForm(rand_sym(rng, 4), QQ),
                                    QuadraticForm(rand_sym(rng, 4), QQ))
        except DegenerateSystem:
            continue


def rand_net(rng):
    while True:
        try:
            return NetOfQuadrics(QuadraticForm(rand_sym(rng, 6), QQ),
                                 QuadraticForm(rand_sym(rng, 6), QQ),
                                 QuadraticForm(rand_sym(rng, 6), QQ))
        except DegenerateSystem:
            continue


# -- pencil discriminant ------------------------------------------------------

def test_diagonal_pencil_product_formula():
    pencil = PencilOfQuadrics.from_diagonals([1, 1, 1, 1], [0, 1, 2, 3])
    d = pencil_discriminant(pencil).to_poly()
    l0, l1 = VAR(0), VAR(1)
    expected = l0 * (l0 + l1) * (l0 + 2 * l1) * (l0 + 3 * l1)
    assert d == expected


def test_repeated_diagonal_entry_not_squarefree():
    pencil = PencilOfQuadrics.from_diagonals([1, 1, 1, 1], [0, 0, 1, 2])
    assert not pencil_discriminant(pencil).is_squarefree()


def test_pencil_disc_matches_cofactor_oracle():
    rng = random.Random(50)
    for _ in range(20):
        pencil = rand_pencil(rng)
        sym = [[_symbolic_entry(pencil, i, j) for j in range(4)] for i in range(4)]
        oracle = cofactor_det(sym)
        try:
            assert pencil_discriminant(pencil).to_poly() == oracle
        except DegenerateSystem:
            assert oracle.is_zero()


def _symbolic_entry(system, i, j):
    forms = system.forms
    k = len(forms)
    terms = {}
    for v, q in enumerate(forms):
        if q.gram[i][j]:
            e = [0] * k
            e[v] = 1
            terms[tuple(e)] = q.gram[i][j]
    return MultiPoly(QQ, k, terms)


def test_everywhere_singular_pencil_raises():
    pencil = PencilOfQuadrics.from_diagonals([1, 0, 0, 0], [0, 1, 0, 0])
    with pytest.raises(DegenerateSystem):
        pencil_discriminant(pencil)


# -- double cover over P^1 ----------------------------------------------------

def test_pic2_cover_smooth_and_singular():
    smooth = PencilOfQuadrics.from_diagonals([1, 1, 1, 1], [0, 1, 2, 3])
    cover = pic2_double_cover(smooth)
    assert cover.base_dim == 1 and cover.branch_degree == 4
    assert cover.verdict.status == "smooth"
    assert cover.equation.startswith("tau^2 = ")
    singular = PencilOfQuadrics.from_diagonals([1, 1, 1, 1], [0, 0, 1, 2])
    assert pic2_double_cover(singular).verdict.status == "singular"


def test_pic2_random_squarefree_smooth():
    rng = random.Random(51)
    done = 0
    while done < 20:
        pencil = rand_pencil(rng)
        try:
            branch = pencil_discriminant(pencil)
        except DegenerateSystem:
            continue
        if branch.is_squarefree():
            assert pic2_double_cover(pencil).verdict.status == "smooth"
            done += 1


# -- j-invariants -------------------------------------------------------------

def test_j_symmetric_roots_pencil():
    pencil = PencilOfQuadrics.from_diagonals([1, 1, 1, 1], [1, -1, 2, -2])
    # branch roots are t = -a_i
    assert jacobian_j_invariant(pencil) == cross_ratio_j((-1, 1, -2, 2))


def test_j_harmonic_branch_is_1728():
    # branch roots {0, 1, -1, inf}: a harmonic quadruple
    pencil = PencilOfQuadrics.from_diagonals([1, 1, 1, 0], [0, -1, 1, 1])
    assert jacobian_j_invariant(pencil) == 1728


def test_j_error_on_degenerate_branch():
    pencil = PencilOfQuadrics.from_diagonals([1, 1, 1, 1], [0, 0, 1, 2])
    with pytest.raises(DegenerateBranch):
        jacobian_j_invariant(pencil)


def test_j_invariant_under_affine_root_maps():
    rng = random.Random(52)
    count = 0
    while count < 50:
        a = rng.sample(range(-8, 9), 4)
        u = rng.choice([x for x in range(-5, 6) if x])
        v = rng.randint(-5, 5)
        p1 = PencilOfQuadrics.from_diagonals([1] * 4, a)
        p2 = PencilOfQuadrics.from_diagonals([1] * 4, [u * x + v for x in a])
        assert jacobian_j_invariant(p1) == jacobian_j_invariant(p2)
        count += 1


# -- discriminant covariance --------------------------------------------------

def test_disc_covariant_under_recombination():
    rng = random.Random(53)
    count = 0
    while count < 50:
        pencil = rand_pencil(rng)
        q1, q2 = pencil.forms
        s = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
        if s[0][0] * s[1][1] - s[0][1] * s[1][0] == 0:
            continue
        mix = lambda i: QuadraticForm(
            [[s[i][0] * q1.gram[a][b] + s[i][1] * q2.gram[a][b]
              for b in range(4)] for a in range(4)], QQ)
        try:
            other = PencilOfQuadrics(mix(0), mix(1))
        except DegenerateSystem:
            continue
        d = discriminant_poly(pencil)
        d2 = discriminant_poly(other)
        x0, x1 = VAR(0), VAR(1)
        subs = {j: s[0][j] * x0 + s[1][j] * x1 for j in range(2)}
        assert d2 == substitute(d, subs)
        count += 1


def test_disc_scales_by_det_squared_under_coordinate_change():
    rng = random.Random(54)
    from k3lab import linalg

    count = 0
    while count < 50:
        pencil = rand_pencil(rng)
        m = [[Fraction(rng.randint(-3, 3)) for _ in range(4)] for _ in range(4)]
        det_m = linalg.det(QQ, m)
        if det_m == 0:
            continue
        mt = tuple(zip(*m))

        def push(q):
            g = linalg.mat_mul(QQ, linalg.mat_mul(QQ, mt, q.gram), m)
            return QuadraticForm(g, QQ)

        moved = PencilOfQuadrics(*map(push, pencil.forms))
        lhs = discriminant_poly(moved)
        rhs = discriminant_poly(pencil) * (det_m * det_m)
        assert lhs == rhs
        count += 1


# -- nets ----------------------------------------------------------------------

def test_diagonal_net_is_product_of_six_lines():
    net = NetOfQuadrics.from_diagonals(
        [1] * 6, [0, 1, 2, 3, 4, 5], [0, 1, 4, 9, 16, 25])
    d = net_discriminant(net)
    l = [MultiPoly.var(QQ, 3, i) for i in range(3)]
    expected = MultiPoly.const(QQ, 3, 1)
    for i in range(6):
        expected = expected * (l[0] + i * l[1] + i * i * l[2])
    assert d == expected


def test_random_net_degree_six():
    rng = random.Random(55)
    done = 0
    while done < 20:
        net = rand_net(rng)
        d = net_discriminant(net)
        if d.is_zero():
            continue
        assert d.degree() == 6 and d.is_homogeneous(6)
        done += 1


def test_net_disc_matches_cofactor_oracle():
    rng = random.Random(56)
    for _ in range(3):
        net = rand_net(rng)
        sym = [[_symbolic_entry(net, i, j) for j in range(6)] for i in range(6)]
        assert net_discriminant(net) == cofactor_det(sym)


def test_dependent_net_rejected_at_construction():
    q1 = QuadraticForm(rand_sym(random.Random(57), 6), QQ)
    q2 = QuadraticForm(rand_sym(random.Random(58), 6), QQ)
    q3 = QuadraticForm([[q1.gram[i][j] + q2.gram[i][j] for j in range(6)]
                        for i in range(6)], QQ)
    with pytest.raises(DegenerateSystem):
        NetOfQuadrics(q1, q2, q3)


def test_pencil_and_net_share_the_quadric_system_base():
    from k3lab import PreconditionError, QuadricSystem, systems

    gf = GF(7)
    pencil = PencilOfQuadrics.from_diagonals([1, 2, 3, 4], [0, 1, 2, 3], gf)  # field positional
    net = NetOfQuadrics.from_diagonals([1] * 6, [0, 1, 2, 3, 4, 5],
                                       [0, 1, 4, 9, 16, 25], gf)
    for system, kind, n in ((pencil, "pencil", 2), (net, "net", 3)):
        assert isinstance(system, QuadricSystem)
        assert (system.KIND, system.NFORMS, system.NVARS) == (kind, n, 2 * n)
        assert system.field == gf and len(system.forms) == n
        assert all(q.field == gf and q.n == 2 * n for q in system.forms)
        assert type(system.reduce_mod(7)) is type(system)
        assert not hasattr(system, "__dict__")
        with pytest.raises(AttributeError, match=f"^{type(system).__name__} is immutable$"):
            system.forms = system.forms[::-1]
    assert systems.member_at(pencil, [1, 2]) == [
        [d % 7 if i == j else 0 for j in range(4)] for i, d in enumerate((1, 4, 7, 10))]
    assert PencilOfQuadrics.__init__ is NetOfQuadrics.__init__ is QuadricSystem.__init__
    assert PencilOfQuadrics.reduce_mod is NetOfQuadrics.reduce_mod
    assert not hasattr(systems, "_member")
    q = pencil.forms[0]
    for cls, forms, text in (
            (PencilOfQuadrics, (q, q, q), "a pencil has 2 members, got 3"),
            (PencilOfQuadrics, (q,), "a pencil has 2 members, got 1"),
            (NetOfQuadrics, (q, q), "a net has 3 members, got 2"),
            (PencilOfQuadrics, net.forms[:2], "pencil members must be 4-variable forms"),
            (NetOfQuadrics, (q, q, q), "net members must be 6-variable forms"),
            (PencilOfQuadrics, (q, PencilOfQuadrics.from_diagonals([1] * 4, [0, 1, 2, 3]).forms[1]),
             "pencil members over different fields")):
        with pytest.raises(PreconditionError, match=f"^{text}$"):
            cls(*forms)


def _member_cases(rng, p):
    """(system, grams, sparse) over GF(p), or over QQ with Fraction entries
    when p = 0: for a pencil and a net each, a diagonal system, a dense one,
    and a sparse one, whose last row is zero in every form and whose entry
    (0, 1) is nonzero in the last form only."""
    field = GF(p) if p else QQ
    entry = (lambda: rng.randrange(p)) if p else (
        lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
    cases = []
    for cls in (PencilOfQuadrics, NetOfQuadrics):
        n, r = cls.NVARS, range(cls.NVARS)
        shapes = (lambda i, j: i == j,
                  lambda i, j: True,
                  lambda i, j: j < n - 1 and (i, j) != (0, 1))
        for shape in shapes:
            while True:
                grams = []
                for _ in range(cls.NFORMS):
                    g = [[0] * n for _ in r]
                    for i in r:
                        for j in r[i:]:
                            if shape(i, j):
                                g[i][j] = g[j][i] = entry()
                    grams.append(g)
                if shape is shapes[2]:
                    grams[-1][0][1] = grams[-1][1][0] = 1
                try:
                    system = cls(*(QuadraticForm(g, field) for g in grams))
                except DegenerateSystem:
                    continue
                cases.append((system, [q._rows for q in system.forms], shape is shapes[2]))
                break
    return cases


@pytest.mark.parametrize("p", [0, 3, 13, 1009, 2**31 - 1])
def test_member_at_against_the_dense_combination(p):
    rng = random.Random(p)
    for system, grams, sparse in _member_cases(rng, p):
        k = len(grams)
        lams = [[int(i == k - 1) for i in range(k)], [1] * k]
        for _ in range(6):
            lams.append([rng.randrange(p) if p else Fraction(rng.randint(-7, 7), rng.randint(1, 3))
                         for _ in range(k)])
        for lam in lams:
            assert member_at(system, lam) == member_rows(grams, lam, p), (system.KIND, lam)
        if sparse:  # the all-zero row, and the entry of the last form only
            n = system.NVARS
            assert member_at(system, lams[0])[n - 1] == [0] * n
            assert member_at(system, lams[0])[1][0] == 1


def test_from_diagonals_rejects_a_diagonal_of_the_wrong_length():
    from k3lab import PreconditionError

    for diagonals, text in (
            (([1, 2, 3, 4, 99], [0, 1, 2, 3, 77]), "a pencil diagonal has 4 entries, got 5"),
            (([1, 2, 3, 4], [0, 1, 2, 3, 77]), "a pencil diagonal has 4 entries, got 5"),
            (([1, 2], [3, 4]), "a pencil diagonal has 4 entries, got 2"),
            (([1, 2, 3, 4], [0, 1, 2]), "a pencil diagonal has 4 entries, got 3")):
        with pytest.raises(PreconditionError, match=f"^{text}$"):
            PencilOfQuadrics.from_diagonals(*diagonals)
        with pytest.raises(PreconditionError, match=f"^{text}$"):
            PencilOfQuadrics.from_diagonals(*diagonals, GF(7))
    six = [0, 1, 2, 3, 4, 5]
    for diagonals, text in (
            (([1] * 7, six, six + [9]), "a net diagonal has 6 entries, got 7"),
            (([1] * 6, six, [0, 1, 4, 9, 16, 25, 36]), "a net diagonal has 6 entries, got 7"),
            (([1] * 6, six[:5], six), "a net diagonal has 6 entries, got 5"),
            (([1] * 4, [0, 1, 2, 3], [0, 1, 4, 9]), "a net diagonal has 6 entries, got 4")):
        with pytest.raises(PreconditionError, match=f"^{text}$"):
            NetOfQuadrics.from_diagonals(*diagonals)


# -- sextic probe ---------------------------------------------------------------

def test_probe_six_lines_singular_with_crossing_witness():
    net = NetOfQuadrics.from_diagonals(
        [1] * 6, [0, 1, 2, 3, 4, 5], [0, 1, 4, 9, 16, 25])
    d = net_discriminant(net)
    verdict = sextic_smoothness_probe(d, (7,))
    assert verdict.status == "singular"
    p, pt = verdict.witness
    dp = poly_mod(d, p)
    assert dp.eval(pt) == 0
    # a singular point of a reduced product of distinct lines lies on >= 2 lines
    gf = GF(p)
    lines = [[gf.one, gf.element(i), gf.element(i * i)] for i in range(6)]
    vanishing = sum(1 for ln in lines
                    if sum(c * x for c, x in zip(ln, pt)) == gf.zero)
    assert vanishing >= 2


def test_probe_fermat_probably_smooth():
    l = [MultiPoly.var(QQ, 3, i) for i in range(3)]
    fermat = l[0]**6 + l[1]**6 + l[2]**6
    verdict = sextic_smoothness_probe(fermat, (7, 11, 13))
    assert verdict.status == "probably-smooth"
    assert verdict.primes == (7, 11, 13)


def test_probe_cone_singular_at_vertex():
    l = [MultiPoly.var(QQ, 3, i) for i in range(3)]
    cone = l[0]**6 + l[1]**6
    # no x2^6, x0*x2^5 or x1*x2^5 term: singular at (0:0:1), the last point
    # of the sweep, and nowhere else
    vertex = l[0]**6 + l[1]**6 + l[2]**4 * (l[0]**2 + l[1]**2) + l[0] * l[1] * l[2]**4
    for f in (cone, vertex):
        for p in (7, 11, 13):
            verdict = sextic_smoothness_probe(f, (p,))
            assert verdict.status == "singular"
            assert tuple(c.v for c in verdict.witness[1]) == (0, 0, 1)
            assert verdict.witness[1] == brute_force_singular_point(f, p)


def test_probe_rejects_bad_prime():
    from k3lab import BadPrime
    l = [MultiPoly.var(QQ, 3, i) for i in range(3)]
    f = l[0]**6 * Fraction(1, 7) + l[1]**6 + l[2]**6
    with pytest.raises(BadPrime):
        sextic_smoothness_probe(f, (7,))


def test_probe_bad_prime_names_the_first_coefficient_in_print_order():
    # the same sextic built in two insertion orders gives one message: the
    # first coefficient, in the order `net disc` prints, whose denominator p divides
    from k3lab import BadPrime
    terms = [((6, 0, 0), Fraction(1, 3)), ((3, 3, 0), Fraction(5, 6)),
             ((0, 6, 0), Fraction(2, 3)), ((0, 0, 6), Fraction(1))]
    messages = set()
    for order in (terms, terms[::-1]):
        f = MultiPoly(QQ, 3, dict(order))
        with pytest.raises(BadPrime) as info:
            sextic_smoothness_probe(f, (3,))
        messages.add(str(info.value))
    assert messages == {"denominator of 1/3 vanishes mod 3"}
    # within one power of x0, the higher power of x1 comes first; a lower
    # power of x0 comes later whatever its x1
    for terms, bad in (
            ([((5, 0, 1), Fraction(2, 3)), ((5, 1, 0), Fraction(1, 3))], "1/3"),
            ([((3, 3, 0), Fraction(4, 3)), ((4, 0, 2), Fraction(5, 3)),
              ((4, 1, 1), Fraction(7, 3)), ((2, 4, 0), Fraction(1, 3))], "7/3")):
        f = MultiPoly(QQ, 3, dict(terms + [((6, 0, 0), Fraction(1))]))
        with pytest.raises(BadPrime, match=f"^denominator of {bad} vanishes mod 3$"):
            sextic_smoothness_probe(f, (3,))


def test_probe_needs_a_prime():
    from k3lab import PreconditionError

    net = NetOfQuadrics.from_diagonals([1] * 6, [0, 1, 2, 3, 4, 5], [0, 1, 4, 9, 16, 25])
    for primes in ((), [], iter(())):
        with pytest.raises(PreconditionError, match="at least one prime"):
            sextic_smoothness_probe(net_discriminant(net), primes)
    with pytest.raises(PreconditionError, match="at least one prime"):
        moduli_double_cover(net, ())


def test_sweeps_refuse_primes_above_the_limit():
    from itertools import count

    from k3lab import BadPrime
    from k3lab.cli import load_system
    from k3lab.scalars import is_odd_prime
    from k3lab.systems import MAX_SWEEP_PRIME

    assert is_odd_prime(MAX_SWEEP_PRIME)
    above = next(q for q in count(MAX_SWEEP_PRIME + 1) if is_odd_prime(q))
    pencil = load_system("builtin:pencil-diagonal")
    branch = pencil_discriminant(pencil)
    assert count_points(branch, MAX_SWEEP_PRIME) > 0  # the limit itself is accepted
    for system in (pencil, branch):
        with pytest.raises(BadPrime, match=str(MAX_SWEEP_PRIME)):
            count_points(system, above)
    d = net_discriminant(load_system("builtin:net-diagonal"))
    assert sextic_smoothness_probe(d, (7,)).status == "singular"
    # refused before the sweep at 7, which would return its witness
    with pytest.raises(BadPrime, match=str(MAX_SWEEP_PRIME)):
        sextic_smoothness_probe(d, (7, above))


def test_moduli_double_cover_diagonal_singular():
    net = NetOfQuadrics.from_diagonals(
        [1] * 6, [0, 1, 2, 3, 4, 5], [0, 1, 4, 9, 16, 25])
    cover = moduli_double_cover(net)
    assert cover.base_dim == 2 and cover.branch_degree == 6
    assert cover.verdict.status == "singular"


def test_moduli_double_cover_error_on_vanishing_discriminant():
    # three coordinate squares in six variables: every member has rank <= 3
    def coord_square(i):
        g = [[Fraction(0)] * 6 for _ in range(6)]
        g[i][i] = Fraction(1)
        return QuadraticForm(g, QQ)

    net = NetOfQuadrics(coord_square(0), coord_square(1), coord_square(2))
    assert net_discriminant(net).is_zero()
    with pytest.raises(DegenerateSystem):
        moduli_double_cover(net)
    with pytest.raises(DegenerateSystem, match="net discriminant vanishes identically"):
        systems.net_smoothness_probe(net)


def test_net_probe_reads_the_rows_plane_rows_reads_off_the_boxed_sextic(monkeypatch):
    # the plane rows and scale net_smoothness_probe takes from the packed
    # determinant are those plane_rows takes from the boxed branch sextic:
    # dense nets with denominators, diagonal nets, nets over GF(13), and the
    # fractional test net; the verdicts and the BadPrime texts agree too
    from pathlib import Path

    from k3lab import cli

    swept = []
    real = systems._probe_rows
    monkeypatch.setattr(systems, "_probe_rows",
                        lambda *a: swept.append(a) or real(*a))
    rng = random.Random("net-probe-rows")
    nets = [cli.load_system(str(Path(__file__).parent / "data" / "net-fractional.json"))]
    for _ in range(4):
        grams = [rand_sym(rng, 6) for _ in range(3)]
        for g in grams:
            for i in range(6):
                for j in range(6):
                    g[i][j] /= rng.choice((1, 2, 3, 5, 7))
                    g[j][i] = g[i][j]
        nets.append(NetOfQuadrics(*(QuadraticForm(g, QQ) for g in grams)))
        nets.append(NetOfQuadrics.from_diagonals(*([rng.randint(-9, 9) for _ in range(6)]
                                                   for _ in range(3))))
        nets.append(rand_net(rng).reduce_mod(13))
    for net in nets:
        primes = (13,) if net.field.char else (3, 5, 7, 13)
        outcomes = []
        for probe in (systems.net_smoothness_probe,
                      lambda n, ps: sextic_smoothness_probe(net_discriminant(n), ps)):
            try:
                outcomes.append(probe(net, primes))
            except BadPrime as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
        assert swept[-2] == swept[-1]


def test_moduli_double_cover_dense_net_probably_smooth():
    rng = random.Random(59)
    while True:
        net = rand_net(rng)
        d = net_discriminant(net)
        if d.is_zero():
            continue
        cover = moduli_double_cover(net)
        if cover.verdict.status == "probably-smooth":
            assert cover.verdict.primes == (7, 11, 13)
            break


# -- point counts ----------------------------------------------------------------

def test_count_pencil_points_against_direct_enumeration():
    pencil = PencilOfQuadrics.from_diagonals([1, 1, 1, 1], [0, 1, 2, 3])
    n = count_points(pencil, 5)
    gf = GF(5)
    from k3lab import projective_points

    pts = list(projective_points(gf, 3))
    assert len(pts) == 156
    q1, q2 = pencil.reduce_mod(5).forms
    manual = sum(1 for pt in pts if q1.eval(pt) == 0 and q2.eval(pt) == 0)
    assert n == manual


def test_count_hyperelliptic_against_sweep():
    branch = BinaryQuartic(
        pencil_discriminant(
            PencilOfQuadrics.from_diagonals([1] * 4, [0, 1, 2, 3])).coeffs)
    n = count_points(branch, 5)
    assert n == uni_sweep_count(branch, 5)


def test_twist_dichotomy_small():
    rng = random.Random(60)
    done = 0
    while done < 3:
        a = rng.sample(range(0, 12), 4)
        pencil = PencilOfQuadrics.from_diagonals([1] * 4, a)
        branch = pencil_discriminant(pencil)
        for p in (5, 7, 11, 13):
            try:
                n_c = count_points(pencil, p)
                n_h = count_points(branch, p)
            except BadReduction:
                continue
            assert n_c in (n_h, 2 * p + 2 - n_h)
        done += 1


def test_count_bad_reduction():
    pencil = PencilOfQuadrics.from_diagonals([1] * 4, [0, 1, 2, 3])
    # disc has roots 0, -1, -2, -3; mod 3 the roots 0 and -3 collide
    with pytest.raises(BadReduction):
        count_points(pencil, 3)


def test_count_degree_drop_infinity_rule():
    # branch quartic x^3 y - x y^3 dehomogenizes to the cubic t^3 - t, whose
    # smooth model has exactly one point at infinity; over F_5 the curve
    # tau^2 = t^3 - t has 7 affine points, so 8 in total
    pencil = PencilOfQuadrics.from_diagonals([1, 1, 1, 0], [0, -1, 1, 1])
    branch = pencil_discriminant(pencil)
    assert branch.coeffs == (0, 1, 0, -1, 0)
    assert count_points(branch, 5) == 8
    n_curve = count_points(pencil, 5)
    assert n_curve in (8, 2 * 5 + 2 - 8)


def test_count_over_the_systems_own_prime_field():
    # a pencil and its branch quartic over GF(q) count at p = q exactly as
    # their lifts over Q reduced mod q, and refuse any other p
    from k3lab import FieldMismatch

    pencil = PencilOfQuadrics.from_diagonals([1, 0, 1, 1], [0, 1, 1, 2])
    for q in (5, 11, 13):
        red = pencil.reduce_mod(q)
        branch = pencil_discriminant(red)
        assert branch.field is GF(q)
        assert count_points(red, q) == count_points(pencil, q)
        assert count_points(branch, q) == count_points(pencil_discriminant(pencil), q)
        with pytest.raises(FieldMismatch):
            count_points(branch, 7)
        with pytest.raises(FieldMismatch):
            count_points(red, 7)


def _f3_pencils(seed, n):
    """``n`` seeded pencils over GF(3), dense Gram entries in {0, 1, 2},
    whose discriminant does not vanish identically."""
    rng, gf, out = random.Random(seed), GF(3), []
    while len(out) < n:
        try:
            pencil = PencilOfQuadrics(*(QuadraticForm(rand_sym(rng, 4, 0, 2), gf)
                                        for _ in range(2)))
            pencil_discriminant(pencil)
        except DegenerateSystem:
            continue
        out.append(pencil)
    return out


def test_pencils_over_f3_count_and_cover():
    # the branch quartic's Delta is defined in characteristic 3, so pencils
    # over F_3 have a cover verdict and, with good reduction, point counts
    gf = GF(3)
    seen = {"smooth": 0, "singular": 0, "at-infinity": 0}
    for pencil in _f3_pencils("f3-pencils", 60):
        branch = pencil_discriminant(pencil)
        a, b = branch.coeffs[:2]
        # a double root at infinity when both leading coefficients vanish
        smooth = bool(a or b) and uni_is_squarefree(gf, branch.coeffs[::-1])
        assert pic2_double_cover(pencil).verdict.status == ("smooth" if smooth else "singular")
        seen["smooth" if smooth else "singular"] += 1
        seen["at-infinity"] += not (a or b)
        if smooth:
            assert count_points(pencil, 3) == brute_force_pencil_count(pencil, 3)
            assert count_points(branch, 3) == uni_sweep_count(branch, 3)
        else:
            with pytest.raises(BadReduction):
                count_points(pencil, 3)
    assert min(seen.values()) >= 3, seen


# Fixed up front: 20 good-reduction pencils per prime (5 at p = 101), drawn
# from at most 200.
PENCILS_PER_PRIME, MAX_DRAWS = 20, 200


def _gram(rows):
    return QuadraticForm([[Fraction(x) for x in r] for r in rows], QQ)


def _pencil_oracle(p):
    # the boxed P^3 sweep where it runs in time, else the int fibre sweep
    return brute_force_pencil_count if p <= 13 else fibre_sweep_pencil_count


def _counts_match_oracle(pencil, p):
    """Compare count_points with the oracle; False on bad reduction."""
    try:
        n = count_points(pencil, p)
    except BadReduction:
        return False
    assert n == _pencil_oracle(p)(pencil, p)
    return True


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 101])
def test_count_pencil_matches_brute_force_on_dense_pencils(p):
    rng = random.Random(f"dense-pencil/{p}")
    want = PENCILS_PER_PRIME if p <= 13 else 5
    done = 0
    for _ in range(MAX_DRAWS):
        pencil = rand_pencil(rng)
        if all(pencil.forms[0].gram[i][j] == 0
               for i in range(4) for j in range(4) if i != j):
            continue
        done += _counts_match_oracle(pencil, p)
        if done == want:
            break
    assert done == want


def _with_corner(rng, g33, p):
    g = rand_sym(rng, 4)
    g[3][3] = Fraction(g33(p))
    return QuadraticForm(g, QQ)


@pytest.mark.parametrize("corners", [
    (lambda p: 0, lambda p: 0),      # (0:0:0:1) on both quadrics
    (lambda p: p, lambda p: 3 * p),  # both G[3][3] vanish only mod p
    (lambda p: 0, lambda p: 1),      # the first t-quadratic drops degree
    (lambda p: 2, lambda p: p),      # the second one does, mod p
], ids=["both-zero", "both-zero-mod-p", "first-zero", "second-zero-mod-p"])
def test_count_pencil_corner_cases_match_brute_force(corners):
    rng = random.Random(63)
    for p in (5, 7, 11, 3, 101):
        want = 5 if p <= 11 else 2
        done = 0
        for _ in range(MAX_DRAWS):
            try:
                pencil = PencilOfQuadrics(_with_corner(rng, corners[0], p),
                                          _with_corner(rng, corners[1], p))
            except DegenerateSystem:
                continue
            done += _counts_match_oracle(pencil, p)
            if done == want:
                break
        assert done == want


def test_count_hand_built_corner_pencils():
    # q1 = x0^2 - x1^2 + 2 x2 x3 and q2 = 2 x0 x3 + x1^2 + 3 x2^2 both vanish
    # at (0:0:0:1); q3 = x0^2 + 2 x1^2 + 3 x2^2 + 5 x3^2 + 2 x0 x1 does not.
    q1 = _gram([[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    q2 = _gram([[0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 3, 0], [1, 0, 0, 0]])
    q3 = _gram([[1, 1, 0, 0], [1, 2, 0, 0], [0, 0, 3, 0], [0, 0, 0, 5]])
    for pencil in (PencilOfQuadrics(q1, q2), PencilOfQuadrics(q1, q3),
                   PencilOfQuadrics(q3, q2),
                   PencilOfQuadrics.from_diagonals([1, 1, 1, 0], [0, -1, 1, 1])):
        compared = sum(_counts_match_oracle(pencil, p) for p in (3, 5, 7, 11, 13))
        assert compared >= 3


# -- the line sweep of the pencil count ---------------------------------------
# After the recombination the second form is k(x) t + n(x).  On a line of
# P^2 where k is not identically zero, the zeros of the resultant
# R = a n^2 - l k n + m k^2 count one point each, except at the root of k,
# whose fibre is empty unless n vanishes there too; where k is identically
# zero, the fibres over the zeros of n are counted.

SWEEP_PRIMES = (3, 5, 7, 11, 101)


def _through(rng, x, lo=-4, hi=4):
    """A random integer Gram matrix with G[3][3] = 0 whose form vanishes on
    the whole line through (x, 0) and (0:0:0:1), x = (1, x1, x2): k(x) and
    n(x) are 0 over ZZ, hence mod every p."""
    g = [[rng.randint(lo, hi) for _ in range(4)] for _ in range(4)]
    for i in range(4):
        for j in range(i):
            g[i][j] = g[j][i]
    g[3][3] = 0
    g[0][3] = g[3][0] = -(g[1][3] * x[1] + g[2][3] * x[2])
    g[0][0] = -sum(g[i][j] * x[i] * x[j] for i in range(3) for j in range(3)
                   if (i, j) != (0, 0))
    return g


def _line_root_pencils(rng, p, n):
    """``n`` pencils with good reduction at p whose second form vanishes on
    the fibre over a point x inside a line (1 : s : x2): there k has its
    root, and R = a n^2 vanishes too."""
    out = []
    while len(out) < n:
        x = (1, rng.randrange(p), rng.randrange(p))
        q1 = rand_sym(rng, 4)
        q1[3][3] = Fraction(rng.choice((1, -1, 2, -2)))
        try:
            pencil = PencilOfQuadrics(_gram(q1), _gram(_through(rng, x)))
            count_points(pencil, p)
        except (BadReduction, DegenerateSystem):
            continue
        out.append(pencil)
    return out


def _line_in_base_pencils(rng, p, n):
    """``n`` pencils whose second form is (x2 - c x0)(2 x3 + u0 x0 + u1 x1 +
    u2 x2): k and n vanish on the whole line (1 : s : c), with the first
    form random.  A member of rank 2 is a bad reduction, so these go to the
    sweep directly."""
    out = []
    while len(out) < n:
        c = rng.randrange(p)
        left, right = (-c, 0, 1, 0), (rng.randint(-4, 4), rng.randint(-4, 4),
                                      rng.randint(-4, 4), 2)
        g2 = [[Fraction(left[i] * right[j] + left[j] * right[i], 2) for j in range(4)]
              for i in range(4)]
        try:
            out.append(PencilOfQuadrics(_gram(rand_sym(rng, 4)), _gram(g2)))
        except DegenerateSystem:
            continue
    return out


def _good_dense_pencils(rng, p, n):
    out = []
    while len(out) < n:
        pencil = rand_pencil(rng)
        try:
            count_points(pencil, p)
        except BadReduction:
            continue
        out.append(pencil)
    return out


@pytest.mark.parametrize("p", SWEEP_PRIMES)
def test_count_sweep_at_the_root_of_k_matches_the_oracle(p):
    rng, oracle = random.Random(f"k-root/{p}"), _pencil_oracle(p)
    for pencil in _line_root_pencils(rng, p, 4 if p > 11 else 8):
        assert count_points(pencil, p) == oracle(pencil, p)


@pytest.mark.parametrize("p", SWEEP_PRIMES)
def test_count_sweep_on_a_line_where_k_and_n_vanish_matches_the_oracle(p):
    # bad reduction (a member of rank 2), so the sweep is called directly
    rng, oracle = random.Random(f"k-n-zero/{p}"), _pencil_oracle(p)
    for pencil in _line_in_base_pencils(rng, p, 2 if p > 11 else 6):
        assert systems._count_pencil(pencil, p) == oracle(pencil, p)


@pytest.mark.parametrize("p", SWEEP_PRIMES)
def test_count_sweep_over_the_pencils_own_prime_field_matches_the_oracle(p):
    # a pencil over F_p counts at p = q (the CLI's `pencil count --p q`)
    rng, oracle = random.Random(f"over-fq/{p}"), _pencil_oracle(p)
    for pencil in _good_dense_pencils(rng, p, 2 if p > 11 else 5):
        red = pencil.reduce_mod(p)
        assert red.field is GF(p)
        assert count_points(red, p) == count_points(pencil, p) == oracle(red, p)


def test_fibre_sweep_oracle_matches_the_boxed_sweep():
    # the int oracle of p = 101 agrees with the boxed P^3 sweep where both run
    rng = random.Random("fibre-oracle")
    for p in (3, 5, 7):
        pencils = (_line_root_pencils(rng, p, 2) + _line_in_base_pencils(rng, p, 2)
                   + [PencilOfQuadrics(_with_corner(rng, lambda p: 0, p),
                                       _with_corner(rng, lambda p: p, p))])
        for pencil in pencils:
            assert fibre_sweep_pencil_count(pencil, p) == brute_force_pencil_count(pencil, p)


def test_count_bad_reduction_at_a_gram_denominator():
    # the branch quartic (5 l1 + l2)(l1 + l2)(l1 + 2 l2)(l1 + 3 l2) has four
    # distinct roots mod 5, but 5 divides a Gram denominator: the error is
    # worded as QuadricSystem.reduce_mod's
    pencil = PencilOfQuadrics.from_diagonals([1, 5, 1, 1], [Fraction(1, 5), 5, 2, 3])
    with pytest.raises(BadReduction) as exc:
        count_points(pencil, 5)
    assert str(exc.value) == "pencil has bad reduction mod 5: denominator of 1/5 vanishes mod 5"
    with pytest.raises(BadReduction) as exc:
        pencil.reduce_mod(5)
    assert str(exc.value) == "pencil has bad reduction mod 5: denominator of 1/5 vanishes mod 5"


def _gauss_sum_count(pencil, p):
    """p + 1 + sum over P^1(F_p) of chi(det(l0 G1 + l1 G2)): the point count
    of a pencil with good reduction (Lidl-Niederreiter, Finite Fields, ch. 6)."""
    gf = GF(p)
    q1, q2 = pencil.reduce_mod(p).forms
    total = p + 1
    for lam in [(1, t) for t in range(p)] + [(0, 1)]:
        rows = [[lam[0] * x + lam[1] * y for x, y in zip(r1, r2)]
                for r1, r2 in zip(q1.gram, q2.gram)]
        total += gf.legendre(scalar_leibniz_det(gf, rows))
    return total


def test_twist_consistent_and_gauss_sum_at_p101():
    from k3lab.cli import load_system

    p = 101
    rng = random.Random(64)
    pencils = [load_system("builtin:pencil-diagonal")]
    while len(pencils) < 3:
        pencil = rand_pencil(rng)
        try:
            count_points(pencil, p)
        except BadReduction:
            continue
        pencils.append(pencil)
    for pencil in pencils:
        n_curve = count_points(pencil, p)
        n_cover = count_points(pencil_discriminant(pencil), p)
        assert n_curve in (n_cover, 2 * p + 2 - n_cover)
        assert n_curve == _gauss_sum_count(pencil, p)


def test_count_hyperelliptic_matches_sweep_on_random_quartics():
    rng = random.Random(65)
    for p in (5, 7, 11, 13, 101):
        done = 0
        while done < 10:
            coeffs = [rng.randint(-9, 9) for _ in range(5)]
            if done % 3 == 0:
                coeffs[0] = p * rng.randint(-1, 1)  # degree drop mod p
            if not any(coeffs):
                continue
            quartic = BinaryQuartic(coeffs)
            try:
                n = count_points(quartic, p)
            except BadReduction:
                continue
            assert n == uni_sweep_count(quartic, p)
            done += 1


def _probe_nets():
    rng = random.Random(66)
    nets = []
    while len(nets) < 6:
        net = rand_net(rng)
        if not net_discriminant(net).is_zero():
            nets.append(net)
    for _ in range(3):
        cols = rng.sample([(a, b) for a in range(-6, 7) for b in range(-6, 7)], 6)
        nets.append(NetOfQuadrics.from_diagonals(
            [1] * 6, [a for a, _ in cols], [b for _, b in cols]))
    return nets


def test_probe_matches_brute_force_witness():
    primes = (3, 5, 7, 11, 13, 23, 47)
    statuses = set()
    for net in _probe_nets():
        d = net_discriminant(net)
        first = None
        for p in primes:
            verdict = sextic_smoothness_probe(d, (p,))
            pt = brute_force_singular_point(d, p)
            if pt is None:
                assert verdict.status == "probably-smooth" and verdict.witness is None
            else:
                assert verdict.status == "singular" and verdict.witness == (p, pt)
                first = first or (p, pt)
            statuses.add(verdict.status)
        assert sextic_smoothness_probe(d, primes).witness == first
    assert statuses == {"singular", "probably-smooth"}
    # the sweep tests the lines (1 : t : x2) with x2 < 4 one by one, then in
    # blocks of x2 in [4, 8), [8, 16), [16, 32), ...: first singular points
    # on each side of each boundary, and on a sextic free of x1^6 mod p,
    # whose lines all take the per-line test
    for p in (37, 43):
        for x2 in (3, 4, 7, 8, 15, 16, 31, 32):
            t = (5 * x2 + 2) % p
            _probe_agrees(_singular_at(t, x2), p, (1, t, x2))
        t = (5 * 16 + 2) % p
        f = _singular_at(t, 16, p)
        assert f.coeff((0, 6, 0)) == p
        _probe_agrees(f, p, (1, t, 16))


def test_probe_matches_point_sweep_at_larger_primes():
    # against the O(p^2) int point sweep, on nets with and without
    # F_p-singular points; a full sweep at 1009 takes about 0.5 s a net
    nets = _probe_nets()
    statuses = set()
    for p, chosen in ((101, nets), (211, nets), (1009, nets[:2] + nets[-1:])):
        for net in chosen:
            d = net_discriminant(net)
            verdict = sextic_smoothness_probe(d, (p,))
            pt = line_sweep_singular_point(d, p)
            if pt is None:
                assert verdict.status == "probably-smooth" and verdict.witness is None
            else:
                assert verdict.status == "singular"
                assert (verdict.witness[0], tuple(c.v for c in verdict.witness[1])) == (p, pt)
            statuses.add((p, verdict.status))
    assert statuses == {(p, s) for p in (101, 211, 1009)
                        for s in ("singular", "probably-smooth")}


X = [MultiPoly.var(QQ, 3, i) for i in range(3)]


def _probe_agrees(f, p, want):
    """The probe's witness at p (a tuple of ints, or None) is ``want``, the
    boxed point-by-point search's and the int point sweep's."""
    verdict = sextic_smoothness_probe(f, (p,))
    got = None if verdict.witness is None else tuple(c.v for c in verdict.witness[1])
    pt = brute_force_singular_point(f, p)
    assert got == want == (None if pt is None else tuple(c.v for c in pt))
    assert line_sweep_singular_point(f, p) == want


def _singular_at(t, x2, lead=1):
    """A sextic over QQ singular at (1 : t : x2), in the square of that
    point's ideal, whose x1^6 coefficient (the lead of c on every line
    (1 : t : x2)) is ``lead``.  At the points and primes used here that is
    the first F_p-singular point, as ``_probe_agrees`` checks."""
    x0, x1, x2_ = X
    a, b = x2_ - x2 * x0, x1 - t * x0
    return (a**2 * (x0**4 + x1**4 - 2 * x2_**4 + x0 * x1 * x2_**2)
            + b**2 * (lead * x1**4 + 3 * x0**3 * x2_ - x2_**4 + x0**2 * x1**2))


def _vanish(f, p, pt, i=None):
    """f (or its i-th partial) vanishes at the int point pt mod p."""
    g = poly_mod(f, p)
    return not (g if i is None else deriv(g, i)).eval(pt)


def test_probe_first_witness_on_the_line_x0_zero():
    x0, x1, x2 = X
    # f0 = 6*x0^5, so every singular point lies on x0 = 0
    f = x0**6 + (x1 - x2)**2 * (x1**4 + x1 * x2**3 + 2 * x2**4)
    for p in (7, 11, 13):
        _probe_agrees(f, p, (0, 1, 1))


def test_probe_curve_containing_a_sweep_line():
    x0, x1, x2 = X
    # f = 0 on the whole line (1 : t : 3), so c = c' = 0 there; its singular
    # points are where the quintic meets it
    f = (x2 - 3 * x0) * (x0**5 + x1**5 + x2**5 + x0 * x1**4 - 2 * x1**2 * x2**3)
    assert all(_vanish(f, 11, (1, t, 3)) for t in range(11))
    _probe_agrees(f, 11, (1, 4, 3))


def test_probe_derivative_along_the_line_vanishes_mod_p():
    x0, x1, x2 = X
    # x1 occurs only as x1^5 (x1^3): c' = 0 mod 5 (mod 3) on every line (1 : t : x2)
    f = x0 * x1**5 + x2**6 + x0**6
    assert all(_vanish(f, 5, (1, t, a), 1) for t in range(5) for a in range(5))
    _probe_agrees(f, 5, (1, 4, 0))
    f = x0**3 * x1**3 + x2**6 + x0**6  # (x0*x1 + x2^2 + x0^2)^3 mod 3
    _probe_agrees(f, 3, (1, 2, 0))


def test_probe_tangent_line_is_not_a_witness():
    x0, x1, x2 = X
    # (1:0:0) is on the curve and c, c' share the root t = 0 on the line
    # (1 : t : 0), but f2 = -1 there: the line passes the first test only
    f = x0**4 * x1**2 - x0**5 * x2 + x2**6 + x1**6
    for p in (11, 13):
        assert _vanish(f, p, (1, 0, 0)) and _vanish(f, p, (1, 0, 0), 1)
        assert not _vanish(f, p, (1, 0, 0), 2)
        _probe_agrees(f, p, None)
