"""Sampling and invariants for rank-degenerate spaces of linear matrices.

Pencils and nets run one code path.  They differ only in the split model
of their members, one row of ``quadforms.SPLIT_MODELS`` each, which
``sample_point`` looks up by the system's dimension and ``b_coordinates``,
``t_invariant`` and ``group_invariance_check`` by the matrix's shape
(``quadforms.matrix_model``):

* pencil: 2x2 matrices of linear forms in four variables whose
  determinant lies in the span of the pencil's quadrics, factored by
  ``express_as_2x2_det``;
* net: alternating 4x4 matrices of linear forms in six variables whose
  Pfaffian, in Klein coordinates, lies in the span of the net's quadrics,
  factored by ``express_as_pfaffian``.

For such a matrix A, the span coordinates B (degree 2 in the entries of A)
and the coefficient determinant T (degree 4, resp. 6: det of the row-major
flattenings of A_0..A_3, resp. of their Klein coordinate vectors) generate
the invariants of the natural SL x SL, resp. SL(4), action.  On samples the
single relation T^2 = c * disc(B) is verified, where disc is the system's
discriminant polynomial and c a constant of the chosen Gram normalization:
it is measured from the first sample and cross-checked on all others.

Samples are drawn over F_p in three steps, on int Gram rows mod p from
the draw to the finished Witt split.  A base point lam of P^1 (pencil) or
P^2 (net) is drawn from a seeded generator as ints, a bounded number of
times.  Each draw's member sum lam_k G_k is combined from the reduced
forms' nonzero entries (``systems.member_at``, one dot product per
position where some form is nonzero), and one determinant mod p decides
it: that determinant is disc(lam) exactly, and a 2m-dimensional member is
split iff (-1)^m det is a nonzero square, which Euler's criterion tells.
So degenerate and non-split members are both skipped before any Witt
work, without evaluating the discriminant polynomial.  The first split
member is factored through its Witt decomposition (``quadforms``, also on
ints), with the same determinant handed on as the member's memoized disc,
so each member costs one determinant.  The Witt split is one symmetric
elimination followed by a pairing of the diagonal entries; it draws
nothing, so the seed decides only the base point, and the base point the
sample.  The factorization is normalized so that det A(x) (or Pf A(x))
equals the member exactly; the span coordinates are then lam on the nose,
which ``SystemPoint.build`` re-checks.  Only when every draw fails does the sampler sweep the whole
base in a fixed order, which either finds a split member or certifies
NoSplitMember; before it, a discriminant that vanishes identically (on
which every draw fails) is refused.  The cost of a sample therefore does
not grow with p, except in that final sweep.

The checks run on ints as well.  ``b_coordinates`` solves for the span
coordinates with one elimination of the forms' int coefficient columns
(memoized on the reduced system) against the matrix's packed det/Pf
expansion (memoized on the matrix, which the det/Pf = q check of
``express_as_*`` already computed); T is one int determinant of the raw
coefficients; disc(B) is the determinant the draw already took of the
accepted member, which is the member at B since ``SystemPoint.build``
checked B == lam, so the discriminant is never expanded.  Both fields
share these steps, QQ through the lcm scaling of ``linalg``.  Only what is
reported is boxed.

``group_invariance_check`` applies one unimodular element to a sampled
matrix and computes B and T of the result from scratch (those of the
sample once per matrix, ``invariants``).  A pencil's pair (g, h) in
SL2 x SL2 acts by A_i -> g A_i h^T (``LinearMatrix.left_right_transform``).
A net's g in SL4 acts on the Klein coordinates of the A_i, the Pluecker
coordinates of Lambda^2 of the 4-space, by wedge^2 g, the 6x6 matrix of the
2x2 minors of g (Cauchy-Binet; ``LinearMatrix.congruence_transform``): one
int product for all six coefficient matrices.  The unimodularity of each
element is one int determinant of its int rows.  ``random_sl`` draws
the elements on int rows, testing each candidate's determinant mod p, and
boxes only the one it returns.

``sample_point`` is the draw (``_draw``) followed by the factorization of
the accepted member (``_factor``).  ``verify_relation`` runs the two steps
itself with two dicts that live for one call, the seeded draws' members
(or their rejection) and the factored samples with T and disc(B), both
keyed by base point: at small p many samples land on a base point already
drawn, which then costs a lookup, and each distinct base point is factored
and checked once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import NamedTuple

from . import linalg
from .errors import (BadReduction, FieldMismatch, NoSplitMember, NotInSpan,
                     PreconditionError, VariableCountMismatch,
                     VerificationFailure)
from .polymat import LinearMatrix
from .quadforms import (SPLIT_MODELS, QuadraticForm, _split_det, express_as_2x2_det,
                        express_as_pfaffian, matrix_model)
from .scalars import GF, GFElement, projective_points
from .systems import QuadricSystem, member_at, member_matrix, span_rows


class InvariantData(NamedTuple):
    """Span coordinates and coefficient determinant of a linear matrix."""

    b: tuple
    t: object


def b_coordinates(a: LinearMatrix, system) -> tuple:
    """Solve det A(x) = sum B_i q_i (pencil) or Pf A(x) = sum B_i q_i (net).

    The solution is unique because the system's quadrics are linearly
    independent; a nonzero residual raises NotInSpan.  It is one int
    elimination of the forms' coefficient columns (``span_rows``) augmented
    by the packed expansion of det/Pf A(x).
    """
    pf = matrix_model(a, "b_coordinates").pf
    if a.field != system.field:
        raise FieldMismatch("matrix and system over different fields")
    if a.nvars != system.forms[0].n:
        raise VariableCountMismatch("matrix and system in different numbers of variables")
    cols, den = span_rows(system)
    lhs, lhs_den = a._terms(pf), a._denom(pf)
    sol = None
    if lhs.keys() <= cols.keys():
        # sum_k B_k f_k / den = lhs / lhs_den, cleared of both denominators
        rows = [[c * lhs_den for c in col] + [lhs.get(key, 0) * den]
                for key, col in cols.items()]
        sol = linalg.int_solve(rows, len(system.forms), system.field.char)
    if sol is None:
        raise NotInSpan("det/Pf of the matrix is not a combination of the system's quadrics")
    return linalg._box(a.field, [sol[0]], sol[1])[0]


def t_invariant(a: LinearMatrix):
    """Coefficient determinant of A(x) = sum A_i x_i.

    Pencil shape (2x2 in four variables): det of the 4x4 matrix whose i-th
    column is A_i flattened row-major.  Net shape (alternating 4x4 in six
    variables): det of the 6x6 matrix of Klein coordinate columns.  One int
    determinant of the raw coefficients (a matrix and its transpose have
    the same determinant, so the columns are taken as rows).
    """
    cells = matrix_model(a, "t_invariant").cells
    cols = [[mat[r][c] for r, c in cells] for mat in a._mats]
    p = a.field.char
    return linalg._box(a.field, [[linalg.int_det(cols, p)]], a._scale ** len(cols))[0][0]


def invariants(a: LinearMatrix, system) -> InvariantData:
    """B and T of ``a``.  Memoized on ``a`` for the last system it was asked
    about, so ``group_invariance_check`` computes the untransformed side once
    per matrix however many group elements it is checked against."""
    got = a._memo.get("invariants")
    if got is None or got[0] is not system:
        got = a._memo["invariants"] = (
            system, InvariantData(b=b_coordinates(a, system), t=t_invariant(a)))
    return got[1]


@dataclass(frozen=True)
class SystemPoint:
    """A sampled matrix together with its system mod p and base point.

    Invariant (checked at construction, VerificationFailure otherwise):
    det/Pf of the matrix equals the member at ``base_point`` exactly, so
    the span coordinates are the base point itself.
    """

    matrix: LinearMatrix
    system: object
    base_point: tuple
    b: tuple

    @staticmethod
    def build(matrix: LinearMatrix, system, base_point: tuple) -> "SystemPoint":
        try:
            b = b_coordinates(matrix, system)
        except NotInSpan as exc:
            raise VerificationFailure(
                "det/Pf of the sampled matrix is not in the span of the system") from exc
        if b != tuple(base_point):
            raise VerificationFailure(
                "det/Pf of the sampled matrix is not the member at its base point")
        return SystemPoint(matrix, system, tuple(base_point), b)


def _reduced(system, p):
    if not isinstance(system, QuadricSystem):
        raise PreconditionError("expected a pencil or a net")
    if system.field.char == 0:
        return system.reduce_mod(p)
    if system.field.char == p:
        return system
    raise BadReduction(f"system already lives over GF({system.field.char})")


# Seeded base-point draws before ``sample_point`` sweeps the base.  About
# half of all members are split whatever p is, so the sweep runs only when
# the draws are exhausted by bad luck or when the field is tiny.
SEEDED_DRAWS = 64


def sample_point(system, p: int, seed: int = 0) -> SystemPoint:
    """Draw a split member over F_p and factor it into a SystemPoint.

    The composition of ``_draw``, which finds the base point of ``seed``,
    and ``_factor``, which factors its member.  The seed chooses the base
    point and the base point the sample.  Raises NoSplitMember when the
    sweep finds no split member (possible for tiny p) and BadReduction when
    the reduced discriminant vanishes identically.
    """
    red = _reduced(system, p)
    return _factor(red, *_draw(red, p, seed, {}))


def _draw(red, p: int, seed: int, drawn: dict):
    """The base point of sample ``seed`` on the system ``red`` over GF(p):
    (lam, g, d) with g the member's int Gram rows and d = det g.

    Tries ``SEEDED_DRAWS`` base points lam drawn from ``random.Random(seed)``
    (normalized like ``projective_points``: first nonzero coordinate 1),
    then sweeps the whole base in its fixed order.  Each lam is skipped
    unless its member, combined on int Gram rows, is split; the first member
    that passes is returned.  ``drawn`` maps each seeded base point already
    tried to its member (g, d), or to None when that member is not split,
    and is looked up instead of recomputed.  The sweep is never kept.
    """
    gf, n = GF(p), red.NVARS
    dim = len(red.forms) - 1
    rng = random.Random(seed)
    for _ in range(SEEDED_DRAWS):
        lam = _random_point(p, dim, rng)
        if lam in drawn:
            member = drawn[lam]
        else:
            # det(member) is disc(lam), so one determinant rejects both the
            # degenerate and the non-split members
            g = member_at(red, lam)
            d = linalg.int_det(g, p)
            member = drawn[lam] = (g, d) if _split_det(d, n, p) else None
        if member is not None:
            return (lam, *member)
    for lam in _sweep(red, gf, dim):
        g = member_at(red, lam)
        d = linalg.int_det(g, p)
        if _split_det(d, n, p):
            return lam, g, d
    raise NoSplitMember(f"no nondegenerate split member over F_{p}")


def _factor(red, lam, g, d) -> SystemPoint:
    """The SystemPoint of the split member g at lam, whose determinant d is
    handed on as the member's memoized disc for the nondegeneracy check of
    ``express_as_*``.  Its Witt split draws nothing."""
    gf = red.field
    express = express_as_pfaffian if SPLIT_MODELS[red.NVARS].pf else express_as_2x2_det
    member = QuadraticForm._of_rows(gf, g, GFElement(gf, d))
    return SystemPoint.build(express(member), red, tuple(GFElement(gf, x) for x in lam))


def _sweep(red, gf, dim):
    """``sample_point``'s sweep of P^dim as ints; first BadReduction when the
    discriminant vanishes identically, on which every draw has failed."""
    if not member_matrix(red)._terms(False):
        raise BadReduction(f"discriminant vanishes identically mod {gf.p}")
    for lam in projective_points(gf, dim):
        yield tuple(x.v for x in lam)


def _random_point(p: int, dim: int, rng) -> tuple:
    """A uniform point of P^dim(F_p) as ints, first nonzero coordinate 1."""
    while True:
        v = [rng.randrange(p) for _ in range(dim + 1)]
        lead = next((x for x in v if x), None)
        if lead is not None:
            inv = pow(lead, -1, p)
            return tuple(x * inv % p for x in v)


@dataclass(frozen=True)
class RelationReport:
    """Outcome of checking T^2 = c * disc(B) across samples."""

    case: str
    p: int
    samples: int
    seed: int
    c: object
    passed: int
    failed: tuple


def verify_relation(system, p: int, count: int, seed: int = 0) -> RelationReport:
    """Sample ``count`` points mod p and check T^2 = c * disc(B) on each.

    c is measured on the first sample (every sample has disc(B) != 0 by
    construction) and must agree with all others; disagreements are
    collected as witnesses rather than raised, so callers can report them.
    Sample i is ``sample_point(system, p, seed + i)``, whose seed draws only
    its base point.  The system is reduced once, or not at all when it is
    already over GF(p), as ``construct`` loads it.  Two dicts live for the
    call: the seeded draws' members (or their rejection) by base point, and
    the factored sample with its T and disc(B) by base point, so a base point
    drawn again costs a lookup and each distinct one is factored and
    checked once.  disc(B) is the determinant the draw took of the accepted
    member, which is the member at B because ``SystemPoint.build`` checked
    B == lam; the discriminant is never expanded.
    """
    if count < 2:
        raise PreconditionError("need at least two samples to cross-check the constant")
    red = _reduced(system, p)
    drawn, samples = {}, {}
    c = None
    passed, failed = 0, []
    for i in range(count):
        lam, g, d = _draw(red, p, seed + i, drawn)
        got = samples.get(lam)
        if got is None:
            pt = _factor(red, lam, g, d)
            got = samples[lam] = (pt, t_invariant(pt.matrix), GFElement(red.field, d))
        pt, t, disc_b = got
        if c is None:
            c = t * t / disc_b
        if t * t == c * disc_b:
            passed += 1
        else:
            failed.append({"index": i, "base_point": pt.base_point,
                           "t": t, "disc_b": disc_b})
    return RelationReport(case=red.KIND, p=p, samples=count, seed=seed, c=c,
                          passed=passed, failed=tuple(failed))


@dataclass(frozen=True)
class InvarianceReport:
    b_before: tuple
    b_after: tuple
    t_before: object
    t_after: object

    @property
    def b_equal(self) -> bool:
        return self.b_before == self.b_after

    @property
    def t_equal(self) -> bool:
        return self.t_before == self.t_after


def group_invariance_check(a: LinearMatrix, system, g, h=None) -> InvarianceReport:
    """Check that B and T are unchanged under the unimodular action.

    Pencil case: (g, h) in SL2 x SL2 acting by A_i -> g A_i h^T
    (``left_right_transform``).  Net case: g in SL4 acting by A_i -> g A_i g^T
    (h must be omitted), which is wedge^2 g on the Klein coordinates
    (``congruence_transform``).  Each element must have determinant 1
    (``linalg.det``); non-unimodular inputs are rejected with
    PreconditionError.  B and T of the transformed matrix are computed from
    scratch, those of ``a`` once per matrix (``invariants``).
    """
    field = a.field
    pf = matrix_model(a, "group_invariance_check").pf
    if pf and h is not None:
        raise PreconditionError("net case takes a single SL(4) element")
    if not pf and h is None:
        raise PreconditionError("pencil case needs a pair (g, h)")
    for m in (g,) if pf else (g, h):
        if linalg.det(field, m) != 1:
            raise PreconditionError("group elements must have determinant 1")
    transformed = a.congruence_transform(g) if pf else a.left_right_transform(g, h)
    before = invariants(a, system)
    after = invariants(transformed, system)
    return InvarianceReport(b_before=tuple(before.b), b_after=tuple(after.b),
                            t_before=before.t, t_after=after.t)


def wedge2_matrix(field, g):
    """The induced action on Klein coordinates: the 6x6 matrix of 2x2 minors
    of the 4x4 g, indexed by the Klein pair order, so that the Klein
    coordinates of g A g^T are it times those of A.  ``linalg.int_wedge2``
    of g's int rows, boxed over D^2, D the lcm of g's denominators (1 over
    GF(p)).  Its determinant is det(g)^3."""
    rows, scale = linalg.int_rows(field, g)
    return linalg._box(field, linalg.int_wedge2(rows, field.char), scale * scale)


def random_sl(field, n: int, rng) -> tuple:
    """A seeded pseudorandom element of SL_n(F_p): the first invertible
    draw of ``_random_invertible`` with its first row divided by its
    determinant, boxed."""
    p = field.p
    m, d = _random_invertible(p, n, rng)
    inv = pow(d, -1, p)
    m[0] = [x * inv % p for x in m[0]]
    return linalg._box(field, m)


def random_gl(field, n: int, rng) -> tuple:
    """A seeded pseudorandom element of GL_n(F_p): the first invertible
    draw of ``_random_invertible``, boxed."""
    return linalg._box(field, _random_invertible(field.p, n, rng)[0])


def _random_invertible(p: int, n: int, rng):
    """(m, d): the first n x n int matrix mod p, drawn row by row with one
    ``rng.randrange(p)`` per entry, whose determinant d mod p is nonzero.
    The candidates are tested on ints; the callers box only the one kept."""
    while True:
        m = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        d = linalg.int_det(m, p)
        if d:
            return m, d
