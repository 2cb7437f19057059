"""Pencils and nets of quadrics: discriminants, double covers, point counts.

A pencil is spanned by two 4-variable forms q1, q2, a net by three
6-variable forms; both are ``QuadricSystem``s, whose ``KIND`` names the
case for the modules that differ on it.  The discriminant
det(l1*G1 + l2*G2 [+ l3*G3]) of the symbolic member cuts out the singular
members of the system: a binary quartic on the pencil's P^1, a plane
sextic on the net's P^2.  The double cover tau^2 = disc is the object of
interest in both cases; smoothness of its branch is decided exactly for
quartics (discriminant nonzero) and probed over small finite fields for
sextics, along the lines of P^2(F_p) that the pencil count sweeps too.
Both are read as ints off the packed determinant (``_det_rows``); a
command boxes one as a polynomial only to print it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import mul
from typing import Optional

from .errors import (BadPrime, BadReduction, DegenerateSystem, FieldMismatch,
                     PreconditionError)
from .poly import MultiPoly, poly_to_text
from .polymat import LinearMatrix, quadratic_terms
from .quartic import BinaryQuartic
from .quadforms import QuadraticForm
from .scalars import GF, QQ, chi_mod
from .univar import (common_roots, coprime_to_derivative, deriv, first_root, gcd,
                     line_restrictions, partials, plane_lines, plane_rows, restrict,
                     restrict_cols)
from . import linalg

DEFAULT_PROBE_PRIMES = (7, 11, 13)
# The largest prime count_points and the two probes sweep P^2(F_p) at.  A pencil
# count costs O(p^2) int operations per prime: a dense one at p = 4093 takes
# 4-5.5 s on a shared 2-CPU host (CPython 3.11.7).  The probe costs O(p) line
# tests: a dense net at p = 4093 takes 0.03-0.05 s there.
MAX_SWEEP_PRIME = 4093


def _check_sweep_prime(p) -> None:
    """BadPrime unless p is an odd prime <= MAX_SWEEP_PRIME."""
    GF(p)  # BadPrime on even, composite or too large p
    if p > MAX_SWEEP_PRIME:
        raise BadPrime(f"p = {p} is above {MAX_SWEEP_PRIME}, the largest prime "
                       "the point sweeps accept")


def member_at(system, lam):
    """The Gram rows of the member sum_k lam_k G_k, from the raw coefficients
    ``lam``: ints reduced mod p over GF(p), ints or Fractions over QQ.  Only
    the positions i <= j where some form is nonzero (``_support``) are
    combined, one dot product each, mirrored to j, i; the rest stay 0."""
    p, n = system.field.char, system.NVARS
    rows = [[0] * n for _ in range(n)]
    for i, j, coeffs in _support(system):
        x = sum(map(mul, lam, coeffs))
        rows[i][j] = rows[j][i] = x % p if p else x
    return rows


def _support(system):
    """[(i, j, (G_1[i][j], G_2[i][j], ...))] over the positions i <= j where
    some form of the system is nonzero.  Memoized on the system."""
    if system._support is None:
        # row i of each form, zipped, and zipped again: the entries at (i, j)
        support = [(i, j, coeffs)
                   for i, rows in enumerate(zip(*(q._rows for q in system.forms)))
                   for j, coeffs in enumerate(zip(*rows)) if j >= i and any(coeffs)]
        object.__setattr__(system, "_support", support)
    return system._support


class QuadricSystem:
    """NFORMS linearly independent NVARS-variable quadratic forms over one
    field: a pencil or a net.  Immutable; ``KIND`` names the case."""

    KIND: str
    NFORMS: int
    NVARS: int
    __slots__ = ("forms", "field", "_matrix", "_span", "_support")

    def __init__(self, *forms: QuadraticForm):
        kind = self.KIND
        if len(forms) != self.NFORMS:
            raise PreconditionError(f"a {kind} has {self.NFORMS} members, got {len(forms)}")
        if any(q.n != self.NVARS for q in forms):
            raise PreconditionError(f"{kind} members must be {self.NVARS}-variable forms")
        field = forms[0].field
        if any(q.field != field for q in forms):
            raise PreconditionError(f"{kind} members over different fields")
        # the Gram matrices, flattened, must be linearly independent
        rows, _ = linalg.scaled_rows([[x for row in q._rows for x in row] for q in forms],
                                     field.char)
        if linalg.int_rank(rows, field.char) < len(forms):
            raise DegenerateSystem(
                f"{kind}: Gram matrices are linearly dependent "
                "(identically-proportional members)")
        object.__setattr__(self, "forms", forms)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "_matrix", None)
        object.__setattr__(self, "_span", None)
        object.__setattr__(self, "_support", None)

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def _diagonal(cls, field, *diagonals):
        """The system of the forms sum d[i] x_i^2, one per diagonal d.  The
        entries go to ``QuadraticForm`` as given, so ints stay ints over QQ."""
        r = range(cls.NVARS)
        for d in diagonals:
            if len(d) != cls.NVARS:
                raise PreconditionError(
                    f"a {cls.KIND} diagonal has {cls.NVARS} entries, got {len(d)}")
        return cls(*(QuadraticForm([[d[i] if i == j else 0 for j in r] for i in r], field)
                     for d in diagonals))

    def reduce_mod(self, p: int) -> "QuadricSystem":
        GF(p)  # BadPrime on an invalid p, which is not a bad reduction
        try:
            return type(self)(*(q.reduce_mod(p) for q in self.forms))
        except (BadPrime, DegenerateSystem) as exc:
            raise BadReduction(f"{self.KIND} has bad reduction mod {p}: {exc}") from exc


class PencilOfQuadrics(QuadricSystem):
    """Two linearly independent 4-variable quadratic forms."""

    KIND, NFORMS, NVARS = "pencil", 2, 4
    __slots__ = ()

    @classmethod
    def from_diagonals(cls, d1, d2, field=QQ):
        """Diagonal pencil: q1 = sum d1[i] x_i^2, q2 = sum d2[i] x_i^2."""
        return cls._diagonal(field, d1, d2)


class NetOfQuadrics(QuadricSystem):
    """Three linearly independent 6-variable quadratic forms."""

    KIND, NFORMS, NVARS = "net", 3, 6
    __slots__ = ()

    @classmethod
    def from_diagonals(cls, d1, d2, d3, field=QQ):
        return cls._diagonal(field, d1, d2, d3)


def member_matrix(system) -> LinearMatrix:
    """The symbolic member l0*G1 + l1*G2 + ... as a linear matrix in the
    base variables whose coefficient matrices are the raw Gram rows.  Systems
    are immutable, so it is memoized on the system, and with it the
    expansion of its determinant, the discriminant."""
    if system._matrix is None:
        forms, p = system.forms, system.field.char
        n = forms[0].n
        rows, scale = linalg.scaled_rows([row for q in forms for row in q._rows], p)
        mats = [rows[i * n:(i + 1) * n] for i in range(len(forms))]
        object.__setattr__(system, "_matrix",
                           LinearMatrix._of_raw(system.field, n, len(forms), mats, scale))
    return system._matrix


def discriminant_poly(system) -> MultiPoly:
    """det of the symbolic member; binary quartic (pencil) or plane sextic
    (net).  Memoized with ``member_matrix``."""
    return member_matrix(system).det_poly()


def span_rows(system):
    """The forms' coefficients as packed quadratic monomials (see
    ``polymat.quadratic_terms``), for solving in their span: (rows, D) with
    rows {monomial: [D * coefficient of q_k]} over every monomial some form
    has, D = 1 over GF(p) and the lcm of the denominators over QQ.
    Memoized on the system."""
    if system._span is None:
        p = system.field.char
        terms = [quadratic_terms(q._rows, p) for q in system.forms]
        keys = set().union(*terms)
        ints, scale = linalg.scaled_rows([[t.get(k, 0) for t in terms] for k in keys], p)
        object.__setattr__(system, "_span", (dict(zip(keys, ints)), scale))
    return system._span


def pencil_discriminant(pencil: PencilOfQuadrics) -> BinaryQuartic:
    """The branch quartic det(l1*G1 + l2*G2); vanishes at the singular members.
    Read off ``member_matrix(pencil)._det_rows()`` (column 0) and memoized
    with it, so a pencil has one branch quartic and its invariants are
    computed once.  DegenerateSystem when it vanishes identically."""
    a = member_matrix(pencil)
    branch = a._memo.get("branch")
    if branch is None:
        rows, scale = a._det_rows()
        if rows is None:
            raise DegenerateSystem("pencil discriminant vanishes identically")
        branch = a._memo["branch"] = BinaryQuartic(
            [Fraction(row[0], scale) for row in rows], pencil.field)
    return branch


def net_discriminant(net: NetOfQuadrics) -> MultiPoly:
    """det(l1*G1 + l2*G2 + l3*G3): homogeneous of degree 6 in three variables
    when not identically zero."""
    return discriminant_poly(net)


@dataclass(frozen=True)
class CoverVerdict:
    """Smoothness verdict for a branch locus.

    ``smooth`` and ``singular`` are exact; ``probably-smooth`` records the
    primes probed (one-sided: only the singular verdict carries a witness).
    """

    status: str
    primes: tuple = ()
    witness: Optional[tuple] = None  # (p, projective point)


@dataclass(frozen=True)
class DoubleCoverDescriptor:
    """A double cover tau^2 = branch over P^1 (branch quartic) or P^2
    (branch sextic), with its smoothness verdict.  The branch is the
    system's discriminant polynomial."""

    base_dim: int
    branch: MultiPoly
    verdict: CoverVerdict

    @property
    def equation(self) -> str:
        return f"tau^2 = {poly_to_text(self.branch)}"

    @property
    def branch_degree(self) -> int:
        return self.branch.degree()


def pic2_double_cover(pencil: PencilOfQuadrics) -> DoubleCoverDescriptor:
    """The double cover of the pencil's P^1 branched at its singular members.

    Smooth exactly when the branch quartic has four distinct roots.
    """
    branch = pencil_discriminant(pencil)
    status = "smooth" if branch.is_squarefree() else "singular"
    return DoubleCoverDescriptor(1, branch.to_poly(), CoverVerdict(status))


def jacobian_j_invariant(pencil: PencilOfQuadrics):
    """j-invariant shared by the base curve and its degree-2 Picard cover."""
    return pencil_discriminant(pencil).j_invariant()


def _coprime_lines(rows, p):
    """For x2 = 0, 1, ..., p - 1 in turn, True when the plane form ``rows``
    (mod p) restricts on (1 : t : x2) to a c(t) with gcd(c, c') certainly a
    unit.  The first four lines get False, for the per-line test: a block
    costs about as much as four of those.  Then each block of x2 is as long
    as the sweep before it, [4, 8), [8, 16), ..., restricted by Horner in
    x2 coefficient-wise and sent to ``coprime_to_derivative`` when the
    first of its flags is asked for."""
    yield from repeat(False, min(4, p))
    start = 4
    while start < p:
        yield from coprime_to_derivative(
            restrict_cols(rows, range(start, min(2 * start, p)), p), p)
        start *= 2


def sextic_smoothness_probe(f: MultiPoly, primes) -> CoverVerdict:
    """Look for singular points of a plane sextic over each F_p.

    Sweeps the lines of ``univar.plane_lines`` in order, so the first witness is
    the one a point-by-point search of ``projective_points`` would find.
    On the line base + t*e_j, f restricts to a polynomial c(t) of degree at
    most 6 whose derivative c' is the partial f_j on the line, so in every
    characteristic a singular point on the line is a common root of c and
    c'.  The line is skipped unless gcd(c, c') mod p is zero (the line lies
    on the curve) or has positive degree; of the lines through (0:1:0),
    only those tangent to the curve or through a singular point pass.  On
    a line that passes, the two other partials join the gcd, and a scan
    finds its first root in F_p: the witness.  The coefficients are
    reduced to ints mod p and grouped by the power of x1 once per prime,
    and c on (1 : t : x2) comes from seven evaluations in x2, so a prime
    costs O(p) line tests.

    From x2 = 4 on, the lines (1 : t : x2) are first tested in blocks of
    x2 in [4, 8), [8, 16), ..., each block when the sweep reaches it: one
    ``univar.coprime_to_derivative`` clears the lines where gcd(c, c') is
    certainly a unit, and those are skipped.  Every other line, and every
    line when the x1^6 coefficient vanishes mod p, takes the test above,
    so the blocks change no verdict or witness.  The blocks start small,
    and after four lines tested one by one, because a singular reduction
    often shows on one of the first lines (a net with many F_p-singular
    points has one there).

    A witness certifies that the reduction mod p is singular; without one
    the verdict is 'probably-smooth' for the probed primes.  The primes
    must be nonempty (PreconditionError) and each at most MAX_SWEEP_PRIME
    (BadPrime, before any sweep).
    """
    if f.nvars != 3 or not f.is_homogeneous(6) or f.is_zero():
        raise PreconditionError("probe expects a nonzero homogeneous plane sextic")
    rows, scale = plane_rows(f)
    return _probe_rows(rows, scale, f.field.char, primes)


def net_smoothness_probe(net: NetOfQuadrics, primes=DEFAULT_PROBE_PRIMES) -> CoverVerdict:
    """``sextic_smoothness_probe`` of the net's branch sextic, unboxed: on the
    plane rows of ``member_matrix(net)._det_rows()``.  DegenerateSystem when
    the discriminant vanishes identically."""
    rows, scale = member_matrix(net)._det_rows()
    if rows is None:
        raise DegenerateSystem("net discriminant vanishes identically")
    return _probe_rows(rows, scale, net.field.char, primes)


def _probe_rows(rows, scale, char, primes) -> CoverVerdict:
    """The sweep of ``sextic_smoothness_probe`` on the plane rows of D*f
    with D = ``scale``, for f over a field of characteristic ``char``."""
    primes = tuple(primes)
    if not primes:
        raise PreconditionError("the probe needs at least one prime")
    for p in primes:
        _check_sweep_prime(p)
    for p in primes:
        if char not in (0, p):
            raise FieldMismatch(f"element of GF({char}) used in GF({p})")
        if scale % p == 0:
            # the first coefficient in print order: x0 degree down, then x1 degree down
            bad = next(c for s in range(len(rows)) for k in range(s, -1, -1)
                       if (c := Fraction(rows[k][s - k], scale)).denominator % p == 0)
            raise BadPrime(f"denominator of {bad} vanishes mod {p}")
        rp = [[c % p for c in r] for r in rows]
        df = partials(rp)
        coprime = _coprime_lines(rp, p)
        for base, j, length in plane_lines(p):
            if j == 1 and next(coprime):  # plane_lines yields x2 = 0, 1, ... first
                continue
            c = restrict(rp, base, j)
            h = gcd(c, deriv(c), p)
            if len(h) == 1:  # a unit: no common root (c = 0 leaves h = [])
                continue
            for i in range(3):
                if i != j:
                    h = gcd(h, restrict(df[i], base, j), p)
            t = first_root(h, length, p)
            if t is not None:
                x = list(base)
                x[j] = t
                gf = GF(p)
                return CoverVerdict("singular", primes, (p, tuple(gf.element(v) for v in x)))
    return CoverVerdict("probably-smooth", primes)


def moduli_double_cover(net: NetOfQuadrics,
                        primes=DEFAULT_PROBE_PRIMES) -> DoubleCoverDescriptor:
    """The double cover of the net's P^2 branched along the degree-6
    discriminant, with a finite-field smoothness verdict."""
    branch = net_discriminant(net)
    if branch.is_zero():
        raise DegenerateSystem("net discriminant vanishes identically")
    return DoubleCoverDescriptor(2, branch, sextic_smoothness_probe(branch, primes))


def _good_reduction_coeffs(f: BinaryQuartic, p: int) -> list:
    """The coefficients (a, b, c, d, e) of f mod p as ints, for f over QQ or
    GF(p) (FieldMismatch over another GF(q)); BadReduction unless f mod p is
    a quartic with four distinct roots."""
    gf = GF(p)
    try:
        if not gf.coerce(f.discriminant()):
            raise BadReduction(f"branch quartic has a repeated root mod {p}")
        return [gf.coerce(c).v for c in f.coeffs]
    except BadPrime as exc:
        raise BadReduction(str(exc)) from exc


def _count_pencil(pencil: PencilOfQuadrics, p: int) -> int:
    """The pencil case of ``count_points``, on the forms' Gram rows mod p
    from ``QuadraticForm.reduce_mod``.  The caller has checked the
    reduction through the branch quartic, so the forms stay independent mod
    p; BadReduction, worded as ``QuadricSystem.reduce_mod``'s, when p
    divides a Gram denominator.  Each line of ``plane_lines`` is swept in
    one pass: a list comprehension finds the zeros there of one polynomial
    in the line's parameter, and only the points where the second form
    vanishes identically go through ``common_roots``."""
    try:
        g1, g2 = (q.reduce_mod(p)._rows for q in pencil.forms)
    except BadPrime as exc:  # p divides a Gram denominator
        raise BadReduction(f"{pencil.KIND} has bad reduction mod {p}: {exc}") from exc
    # Both forms are quadratics in x3 with the constant leading coefficients
    # G[3][3].  Recombine the pencil so that only the first keeps one: the
    # first Euclid step of every pointwise gcd, hoisted out of the sweep.
    if not g1[3][3]:
        g1, g2 = g2, g1
    a, a2 = g1[3][3], g2[3][3]
    if a2:
        g2 = [[(a2 * x - a * y) % p for x, y in zip(r1, r2)] for r1, r2 in zip(g1, g2)]
    # q(x, t) = G[3][3] t^2 + l(x) t + m(x) for x in P^2, with l and m plane rows
    # of degree 1 and 2.  (0:0:0:1) lies on both forms iff both G[3][3] vanish.
    (l, m), (k, n) = (([[2 * g[0][3], 2 * g[2][3]], [2 * g[1][3]]],
                       [[g[0][0], 2 * g[0][2], g[2][2]], [2 * g[0][1], 2 * g[1][2]], [g[1][1]]])
                      for g in (g1, g2))
    count = 0 if a else 1
    for (_, _, length), (l1, l0), (m2, m1, m0), (k1, k0), (n2, n1, n0) in zip(
            plane_lines(p), *(line_restrictions(f, p) for f in (l, m, k, n))):
        if not (k1 or k0):
            # the second form is n(s) on the whole line: the fibres over its zeros
            for s in [s for s in range(length) if not ((n2 * s + n1) * s + n0) % p]:
                count += common_roots(a, (l0 + l1 * s) % p, ((m2 * s + m1) * s + m0) % p, p)
            continue
        # Where k(s) != 0 the second form has the one root t = -n/k, which lies
        # on the first iff the resultant R(s) = a n^2 - l k n + m k^2 of the
        # two forms in t vanishes: R has degree <= 4 in s.
        u2, u1, u0 = l1 * k1, l1 * k0 + l0 * k1, l0 * k0  # l k
        v2, v1, v0 = k1 * k1, 2 * k1 * k0, k0 * k0  # k^2
        r4 = (a * n2 * n2 - u2 * n2 + m2 * v2) % p
        r3 = (2 * a * n2 * n1 - u2 * n1 - u1 * n2 + m2 * v1 + m1 * v2) % p
        r2 = (a * (n1 * n1 + 2 * n2 * n0) - u2 * n0 - u1 * n1 - u0 * n2
              + m2 * v0 + m1 * v1 + m0 * v2) % p
        r1 = (2 * a * n1 * n0 - u1 * n0 - u0 * n1 + m1 * v0 + m0 * v1) % p
        r0 = (a * n0 * n0 - u0 * n0 + m0 * v0) % p
        count += len([s for s in range(length)
                      if not ((((r4 * s + r3) * s + r2) * s + r1) * s + r0) % p])
        if k1:
            # at the one s where k vanishes, R(s) = a n(s)^2 says nothing: the
            # fibre there is empty unless n(s) = 0 too, and then common_roots'
            s = -k0 * pow(k1, -1, p) % p
            if s < length:
                ns = ((n2 * s + n1) * s + n0) % p
                count -= not a * ns * ns % p
                if not ns:
                    count += common_roots(a, (l0 + l1 * s) % p,
                                          ((m2 * s + m1) * s + m0) % p, p)
    return count


def count_points(system, p: int) -> int:
    """Point counts over F_p with good reduction.

    * PencilOfQuadrics: #{x in P^3(F_p) : q1(x) = q2(x) = 0}, by projection
      from (0:0:0:1).  Every other point is (x, t) for a normalized x in
      P^2(F_p) and t in F_p; for fixed x both forms are quadratics in t, and
      the points over x are the roots in F_p of their gcd.  (0:0:0:1) itself
      counts when both G[3][3] vanish.  The pencil is recombined into
      a t^2 + l(x) t + m(x) and k(x) t + n(x), and P^2 is swept line by
      line.  Where k vanishes on the whole line, the fibres over the zeros
      of n are counted.  Elsewhere each zero of the resultant
      a n^2 - l k n + m k^2, of degree <= 4 on the line, is one point,
      except at the one point of the line where k = 0, whose fibre is
      counted on its own.  Cost O(p^2) int operations.
    * BinaryQuartic f: points of the smooth model of tau^2 = f, i.e. the sum
      over P^1(F_p) of 1 + chi(f): each t gives 1 + chi(f(t, 1)), and
      infinity gives 2/1/0 points according to whether the leading
      coefficient is a nonzero square / zero (degree drop) / a non-square.
      Horner and Euler's criterion on ints; cost O(p log p).

    p must be at most MAX_SWEEP_PRIME (BadPrime otherwise).
    """
    _check_sweep_prime(p)
    if isinstance(system, PencilOfQuadrics):
        _good_reduction_coeffs(pencil_discriminant(system), p)
        return _count_pencil(system, p)
    if isinstance(system, BinaryQuartic):
        a, b, c, d, e = _good_reduction_coeffs(system, p)
        count = 1 + chi_mod(a, p)
        for t in range(p):
            count += 1 + chi_mod((((a * t + b) * t + c) * t + d) * t + e, p)
        return count
    raise PreconditionError("count_points expects a pencil or a binary quartic")
