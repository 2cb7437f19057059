"""Pencils and nets of quadrics: discriminants, double covers, point counts.

A pencil is spanned by two 4-variable forms q1, q2, a net by three
6-variable forms.  The discriminant det(l1*G1 + l2*G2 [+ l3*G3]) of the
symbolic member cuts out the singular members of the system: a binary
quartic on the pencil's P^1, a plane sextic on the net's P^2.  The double
cover tau^2 = disc is the object of interest in both cases; smoothness of
its branch is decided exactly for quartics (discriminant nonzero) and
probed over small finite fields for sextics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import (BadPrime, BadReduction, DegenerateSystem,
                     PreconditionError)
from .poly import MultiPoly, poly_to_text
from .polymat import PolyMatrix, poly_det
from .quartic import BinaryQuartic
from .quadforms import QuadraticForm
from .scalars import GF, QQ, projective_points
from .univar import uni_trim
from . import linalg

DEFAULT_PROBE_PRIMES = (7, 11, 13)


def _check_independent(forms, what):
    """The Gram matrices, flattened, must be linearly independent."""
    field = forms[0].field
    rows = [[entry for row in q.gram for entry in row] for q in forms]
    if linalg.rank(field, rows) < len(forms):
        raise DegenerateSystem(
            f"{what}: Gram matrices are linearly dependent "
            "(identically-proportional members)")


class PencilOfQuadrics:
    """Two linearly independent 4-variable quadratic forms."""

    __slots__ = ("q1", "q2", "field", "_disc")

    def __init__(self, q1: QuadraticForm, q2: QuadraticForm):
        if q1.n != 4 or q2.n != 4:
            raise PreconditionError("pencil members must be 4-variable forms")
        if q1.field != q2.field:
            raise PreconditionError("pencil members over different fields")
        _check_independent((q1, q2), "pencil")
        object.__setattr__(self, "q1", q1)
        object.__setattr__(self, "q2", q2)
        object.__setattr__(self, "field", q1.field)
        object.__setattr__(self, "_disc", None)

    def __setattr__(self, *a):
        raise AttributeError("PencilOfQuadrics is immutable")

    @property
    def forms(self):
        return (self.q1, self.q2)

    @classmethod
    def from_diagonals(cls, d1, d2, field=QQ):
        """Diagonal pencil: q1 = sum d1[i] x_i^2, q2 = sum d2[i] x_i^2."""
        mk = lambda d: QuadraticForm(
            [[field.coerce(d[i]) if i == j else field.zero for j in range(4)]
             for i in range(4)], field)
        return cls(mk(d1), mk(d2))

    def member(self, lam) -> QuadraticForm:
        l1, l2 = (self.field.coerce(x) for x in lam)
        g = [[l1 * self.q1.gram[i][j] + l2 * self.q2.gram[i][j]
              for j in range(4)] for i in range(4)]
        return QuadraticForm(g, self.field)

    def reduce_mod(self, p: int) -> "PencilOfQuadrics":
        try:
            return PencilOfQuadrics(self.q1.reduce_mod(p), self.q2.reduce_mod(p))
        except (BadPrime, DegenerateSystem) as exc:
            raise BadReduction(f"pencil has bad reduction mod {p}: {exc}") from exc


class NetOfQuadrics:
    """Three linearly independent 6-variable quadratic forms."""

    __slots__ = ("q1", "q2", "q3", "field", "_disc")

    def __init__(self, q1, q2, q3):
        for q in (q1, q2, q3):
            if q.n != 6:
                raise PreconditionError("net members must be 6-variable forms")
        if not (q1.field == q2.field == q3.field):
            raise PreconditionError("net members over different fields")
        _check_independent((q1, q2, q3), "net")
        object.__setattr__(self, "q1", q1)
        object.__setattr__(self, "q2", q2)
        object.__setattr__(self, "q3", q3)
        object.__setattr__(self, "field", q1.field)
        object.__setattr__(self, "_disc", None)

    def __setattr__(self, *a):
        raise AttributeError("NetOfQuadrics is immutable")

    @property
    def forms(self):
        return (self.q1, self.q2, self.q3)

    @classmethod
    def from_diagonals(cls, d1, d2, d3, field=QQ):
        mk = lambda d: QuadraticForm(
            [[field.coerce(d[i]) if i == j else field.zero for j in range(6)]
             for i in range(6)], field)
        return cls(mk(d1), mk(d2), mk(d3))

    def member(self, lam) -> QuadraticForm:
        ls = [self.field.coerce(x) for x in lam]
        g = [[ls[0] * self.q1.gram[i][j] + ls[1] * self.q2.gram[i][j]
              + ls[2] * self.q3.gram[i][j] for j in range(6)] for i in range(6)]
        return QuadraticForm(g, self.field)

    def reduce_mod(self, p: int) -> "NetOfQuadrics":
        try:
            return NetOfQuadrics(self.q1.reduce_mod(p), self.q2.reduce_mod(p),
                                 self.q3.reduce_mod(p))
        except (BadPrime, DegenerateSystem) as exc:
            raise BadReduction(f"net has bad reduction mod {p}: {exc}") from exc


def symbolic_member(forms) -> PolyMatrix:
    """The Gram matrix of l0*q1 + l1*q2 + ... as a matrix of linear forms."""
    field = forms[0].field
    k, n = len(forms), forms[0].n
    entries = []
    for i in range(n):
        row = []
        for j in range(n):
            terms = {}
            for v, q in enumerate(forms):
                c = q.gram[i][j]
                if c:
                    e = [0] * k
                    e[v] = 1
                    terms[tuple(e)] = c
            row.append(MultiPoly(field, k, terms))
        entries.append(row)
    return PolyMatrix(entries)


def discriminant_poly(system) -> MultiPoly:
    """det of the symbolic member; binary quartic (pencil) or plane sextic (net).

    Systems are immutable, so the expansion is memoized on the system.
    """
    if system._disc is None:
        object.__setattr__(system, "_disc", poly_det(symbolic_member(system.forms)))
    return system._disc


def pencil_discriminant(pencil: PencilOfQuadrics) -> BinaryQuartic:
    """The branch quartic det(l1*G1 + l2*G2); vanishes at the singular members."""
    d = discriminant_poly(pencil)
    if d.is_zero():
        raise DegenerateSystem("pencil discriminant vanishes identically")
    return BinaryQuartic.from_poly(d)


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

    def to_json(self):
        out = {"status": self.status}
        if self.primes:
            out["primes"] = list(self.primes)
        if self.witness is not None:
            p, pt = self.witness
            out["witness"] = {"p": p, "point": [c.v for c in pt]}
        return out


@dataclass(frozen=True)
class DoubleCoverDescriptor:
    """A double cover tau^2 = branch over P^1 (branch quartic) or P^2
    (branch sextic), with its smoothness verdict."""

    base_dim: int
    branch: object  # BinaryQuartic over P^1, MultiPoly over P^2
    verdict: CoverVerdict

    @property
    def equation(self) -> str:
        poly = self.branch.to_poly() if isinstance(self.branch, BinaryQuartic) else self.branch
        return f"tau^2 = {poly_to_text(poly)}"

    @property
    def branch_degree(self) -> int:
        return 4 if self.base_dim == 1 else 6

    def to_json(self):
        poly = self.branch.to_poly() if isinstance(self.branch, BinaryQuartic) else self.branch
        return {
            "base_dim": self.base_dim,
            "branch": poly_to_text(poly),
            "branch_degree": self.branch_degree,
            "equation": self.equation,
            "verdict": self.verdict.to_json(),
        }


def pic2_double_cover(pencil: PencilOfQuadrics) -> DoubleCoverDescriptor:
    """The double cover of the pencil's P^1 branched at its singular members.

    Smooth exactly when the branch quartic has four distinct roots.
    """
    branch = pencil_discriminant(pencil)
    status = "smooth" if branch.is_squarefree() else "singular"
    return DoubleCoverDescriptor(1, branch, CoverVerdict(status))


def jacobian_j_invariant(pencil: PencilOfQuadrics):
    """j-invariant shared by the base curve and its degree-2 Picard cover."""
    return pencil_discriminant(pencil).j_invariant()


def sextic_smoothness_probe(f: MultiPoly, primes) -> CoverVerdict:
    """Look for singular points of a plane sextic over each F_p.

    Enumerates P^2(F_p) and tests f and its three partials; a common zero
    is returned as a witness (certifying the reduction mod p is singular),
    otherwise the verdict is 'probably-smooth' for the probed primes.
    """
    if f.nvars != 3 or not f.is_homogeneous(6) or f.is_zero():
        raise PreconditionError("probe expects a nonzero homogeneous plane sextic")
    primes = tuple(primes)
    for p in primes:
        fp = f.reduce_mod(p)  # BadPrime on even/composite p or bad denominator
        partials = [fp.deriv(i) for i in range(3)]
        gf = GF(p)
        for pt in projective_points(gf, 2):
            if not fp.eval(pt) and all(not d.eval(pt) for d in partials):
                return CoverVerdict("singular", primes, (p, pt))
    return CoverVerdict("probably-smooth", primes)


def moduli_double_cover(net: NetOfQuadrics,
                        primes=DEFAULT_PROBE_PRIMES) -> DoubleCoverDescriptor:
    """The double cover of the net's P^2 branched along the degree-6
    discriminant, with a finite-field smoothness verdict."""
    branch = net_discriminant(net)
    if branch.is_zero():
        raise DegenerateSystem("net discriminant vanishes identically")
    return DoubleCoverDescriptor(2, branch, sextic_smoothness_probe(branch, primes))


def _good_reduction_quartic(f: BinaryQuartic, p: int) -> BinaryQuartic:
    if f.field != QQ:
        raise PreconditionError("reduction starts from a form over QQ")
    try:
        fp = f.reduce_mod(p)
    except BadPrime as exc:
        raise BadReduction(str(exc)) from exc
    delta = f.discriminant()
    if GF(p).coerce(delta) == 0:
        raise BadReduction(f"branch quartic has a repeated root mod {p}")
    return fp


def count_points(system, p: int) -> int:
    """Point counts over F_p with good reduction.

    * PencilOfQuadrics: #{x in P^3(F_p) : q1(x) = q2(x) = 0} by enumeration.
    * BinaryQuartic f: points of the smooth model of tau^2 = f(t), i.e. the
      affine count plus 2/1/0 points at infinity according to whether the
      leading coefficient is a nonzero square / zero (degree drop) /
      a non-square.
    """
    if isinstance(system, PencilOfQuadrics):
        branch = pencil_discriminant(system)
        _good_reduction_quartic(branch, p)
        red = system.reduce_mod(p)
        gf = GF(p)
        count = 0
        for pt in projective_points(gf, 3):
            if not red.q1.eval(pt) and not red.q2.eval(pt):
                count += 1
        return count
    if isinstance(system, BinaryQuartic):
        fp = _good_reduction_quartic(system, p)
        gf = GF(p)
        coeffs = uni_trim(gf, fp.dehomogenized())
        count = 0
        for t in gf.elements():
            val = gf.zero
            for c in reversed(coeffs):
                val = val * t + c
            count += 1 + gf.legendre(val)
        a = fp.coeffs[0]
        if not a:
            count += 1
        elif gf.legendre(a) == 1:
            count += 2
        return count
    raise PreconditionError("count_points expects a pencil or a binary quartic")
