"""Moduli-dimension calculus and integral lattice constructions.

``MukaiVector`` records the numeric data (r, (L^2), s) of a sheaf class;
the moduli space attached to it is smooth of dimension (L^2) - 2rs + 2,
rigid when that is 0 and a K3 candidate when it is 2.

``IntegralLattice`` is a finite-rank lattice with integer Gram matrix.
``k3_lattice`` builds the even unimodular lattice of signature (3, 19)
as U + U + U + E8(-1) + E8(-1).  ``l_zero_sublattice`` carves out the
vectors pairing with a fixed alpha divisibly by r, and ``overlattice``
adjoins alpha/r, which stays integral because 2*r^2 divides (alpha^2),
and even when the ambient lattice is.

Both Grams are built by congruence, never from ambient basis vectors.  The
L0 basis comes from at most n unimodular two-column operations on
[alpha G | r] (Cohen, GTM 138, section 2.4).  Each one runs once over the
rows of G + [0], on its two columns; by symmetry the two changed rows are
those columns read back, fixed at their two positions, so the Gram of that
basis costs O(n) per operation.  The overlattice's Hermite basis S in
L0-coordinates is the row HNF of the stack [m*I ; c], which ``_stack_hnf``
reduces with one running row: S is m*I with a few rows replaced by dense
ones (one for prime m).  Its Gram S G0 S^T / m^2 is G0 bordered at those
rows, one row product each.  Every product of a vector with a Gram, alpha G
as well, is ``_gram_product``: G is symmetric, so v G = G v is one dot
product per row.

Determinant and signature of a lattice given by its Gram are read off the
pivots of the package's one symmetric elimination, ``linalg.int_congruence``
over ZZ (fraction-free, Bareiss, Math. Comp. 22, 1968), which carries no
basis here, and memoized on the ``IntegralLattice``.  L0 and the
overlattice M never run it: both span the ambient L over QQ, so they have
the signature of L (Sylvester's law of inertia), and det L0 = det L *
[L : L0]^2, det M = det L * ([L : L0] / [M : L0])^2 (Nikulin, Math. USSR
Izv. 14 (1980), section 1).  So ``int_congruence`` runs once per ambient
lattice, not once per sublattice or overlattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import mul

from . import linalg
from .errors import DivisibilityViolation, PreconditionError, VerificationFailure
from .scalars import Immutable


@dataclass(frozen=True)
class MukaiVector:
    """Rank r >= 0, even self-intersection (L^2), and integer s; chi = r + s."""

    r: int
    selfint: int
    s: int

    def __post_init__(self):
        if not all(type(x) is int for x in (self.r, self.selfint, self.s)):
            raise PreconditionError("Mukai data must be integers")  # no bools either
        if self.r < 0:
            raise PreconditionError("rank must be non-negative")
        if self.selfint % 2:
            raise PreconditionError("(L^2) must be even on a surface")

    @property
    def chi(self) -> int:
        return self.r + self.s


def moduli_dim(v: MukaiVector) -> int:
    """(L^2) - 2rs + 2."""
    return v.selfint - 2 * v.r * v.s + 2


def is_rigid(v: MukaiVector) -> bool:
    return moduli_dim(v) == 0


def is_k3_moduli(v: MukaiVector) -> bool:
    return moduli_dim(v) == 2


class IntegralLattice(Immutable):
    """A finite-rank lattice presented by a symmetric integer Gram matrix."""

    __slots__ = ("rank", "gram", "label", "_det_sig")

    def __init__(self, gram, label: str = ""):
        rows = tuple(tuple(r) for r in gram)
        for r in rows:
            for x in r:
                if type(x) is not int:  # no bools, floats or strings
                    raise PreconditionError(f"Gram entry {x!r} is not an integer")
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise PreconditionError("Gram matrix must be square")
        if rows != tuple(zip(*rows)):
            raise PreconditionError("Gram matrix must be symmetric")
        object.__setattr__(self, "rank", n)
        object.__setattr__(self, "gram", rows)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "_det_sig", None)

    @classmethod
    def _of_gram(cls, rows, label: str, det_sig) -> "IntegralLattice":
        """The package's own int Gram and its (det, signature), wrapped unchecked."""
        out = object.__new__(cls)
        object.__setattr__(out, "rank", len(rows))
        object.__setattr__(out, "gram", tuple(map(tuple, rows)))
        object.__setattr__(out, "label", label)
        object.__setattr__(out, "_det_sig", det_sig)
        return out

    def _invariants(self):
        if self._det_sig is None:
            object.__setattr__(self, "_det_sig", _det_and_signature(self.gram))
        return self._det_sig

    @property
    def det(self) -> int:
        return self._invariants()[0]

    @property
    def is_even(self) -> bool:
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    def pairing(self, u, v) -> int:
        return sum(map(mul, _gram_product(self.gram, u), v))

    def norm(self, v) -> int:
        return self.pairing(v, v)

    def signature(self):
        """(positive, negative) inertia counts, read off the pivots of the
        integer elimination behind ``det`` (the ambient's, for an L0 or an
        overlattice); None when degenerate."""
        return self._invariants()[1]


def lattice_invariants(lat: IntegralLattice) -> dict:
    """rank, determinant, evenness and signature (None when degenerate)."""
    return {
        "rank": lat.rank,
        "det": lat.det,
        "even": lat.is_even,
        "signature": lat.signature(),
    }


# -- standard blocks ------------------------------------------------------

U_GRAM = ((0, 1), (1, 0))

# Simply-laced E8 diagram, nodes 0..7: chain 0-2-3-4-5-6-7 with 1 attached
# to node 3.  The Cartan matrix has determinant 1.
_E8_EDGES = ((0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 3))


def e8_gram(negative: bool = True):
    g = [[0] * 8 for _ in range(8)]
    for i in range(8):
        g[i][i] = 2
    for i, j in _E8_EDGES:
        g[i][j] = g[j][i] = -1
    if negative:
        g = [[-x for x in row] for row in g]
    return tuple(tuple(row) for row in g)


def hyperbolic_plane_lattice() -> IntegralLattice:
    return IntegralLattice(U_GRAM, label="U")


def e8_lattice(negative: bool = True) -> IntegralLattice:
    return IntegralLattice(e8_gram(negative), label="E8(-1)" if negative else "E8")


def k3_lattice() -> IntegralLattice:
    """U^3 + E8(-1)^2: even, rank 22, determinant -1, signature (3, 19)."""
    u, e8 = hyperbolic_plane_lattice().gram, e8_lattice().gram
    blocks = [u, u, u, e8, e8]
    n = sum(len(b) for b in blocks)
    g = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                g[off + i][off + j] = x
        off += len(b)
    return IntegralLattice(g, label="K3")


# -- integer matrix helpers ------------------------------------------------

def _det_and_signature(gram):
    """(det, (positive, negative)) of a symmetric integer matrix, (0, None)
    if degenerate, read off the Bareiss pivots of ``linalg.int_congruence``:
    det is the last pivot p_n, and diagonal entry k of the congruent
    diagonal form has the sign of p_k * p_(k-1).  No basis is carried."""
    pivots, _ = linalg.int_congruence([list(row) for row in gram], 0)
    if not all(pivots):
        return 0, None
    neg = sum((pk > 0) != (prev > 0) for prev, pk in zip([1] + pivots, pivots))
    return (pivots[-1] if pivots else 1), (len(pivots) - neg, neg)


def _gram_product(gram, v):
    """The product v . G = G . v of a vector and a symmetric matrix: one
    dot product per row of G."""
    return [sum(map(mul, row, v)) for row in gram]


def hnf_row_basis(rows):
    """Row-style Hermite reduction; returns the nonzero rows (a Z-basis of
    the row span) with positive pivots and reduced entries above them.

    Column elimination uses one-shot Bezout 2x2 operations rather than a
    Euclid cascade of row subtractions, which keeps entry growth tame.
    """
    mat = [list(r) for r in rows]
    ncols = len(mat[0]) if mat else 0
    nrows = len(mat)
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        for i in range(r + 1, nrows):
            if not mat[i][c]:
                continue
            g, s, t = _xgcd(mat[r][c], mat[i][c])
            u, v = mat[i][c] // g, mat[r][c] // g
            row_r, row_i = mat[r], mat[i]
            mat[r] = [s * x + t * y for x, y in zip(row_r, row_i)]
            mat[i] = [v * y - u * x for x, y in zip(row_r, row_i)]
        if mat[r][c] < 0:
            mat[r] = [-x for x in mat[r]]
        for i in range(r):
            q = mat[i][c] // mat[r][c]
            if q:
                mat[i] = [x - q * y for x, y in zip(mat[i], mat[r])]
        r += 1
        if r == nrows:
            break
    return [row for row in mat[:r]]


def _xgcd(a: int, b: int):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def _stack_hnf(m: int, c):
    """The row HNF of the stack m*e_0, ..., m*e_(n-1), c, as ``rows[j]``,
    the pivot row of column j: None for the unit row m*e_j, else a dense
    row.  Pivots are positive and the entries above them reduced, as
    ``hnf_row_basis`` leaves them, and the HNF is unique.

    One running row v, starting at c, sweeps the columns: at column j only
    m*e_j and v can be nonzero among the rows not yet pivoted.  If m | v_j
    the pivot is m*e_j.  Otherwise g = gcd(v_j, m) = s*v_j + t*m > 0, the
    pivot is s*v + t*m*e_j and v becomes (m/g)*v, a unimodular 2x2
    operation.  Either way v_j is then cleared, and every earlier dense row
    is reduced into [0, pivot) at column j.
    """
    v = list(c)
    rows = [None] * len(v)
    dense = []
    for j in range(len(v)):
        if v[j] % m == 0:
            v[j] = 0
            for row in dense:
                row[j] %= m
            continue
        g, s, t = _xgcd(v[j], m)  # g > 0: remainders mod m > 0 are >= 0
        piv = [s * x for x in v]
        piv[j] = g  # s*v_j + t*m
        v = [x * (m // g) for x in v]
        v[j] = 0
        for row in dense:
            q = row[j] // g
            if q:
                row[:] = [x - q * y for x, y in zip(row, piv)]
        rows[j] = piv
        dense.append(piv)
    return rows


def _column_ops(w, r: int):
    """Unimodular column operations (i, s, t, a0, ai) reducing [w | r] to
    [g, 0, ..., 0]: columns 0, i become s*c0 + t*ci, a0*ci - ai*c0."""
    ops, v0 = [], w[0]
    for i, vi in enumerate(list(w[1:]) + [r], 1):
        if vi:
            g, s, t = _xgcd(v0, vi)
            ops.append((i, s, t, v0 // g, vi // g))
            v0 = g
    return ops


def _kernel_of_functional_mod(w, r: int):
    """Z-basis (as columns) of {beta : w . beta = 0 mod r}.

    Works on the integer kernel of the 1 x (n+1) matrix [w | r] via
    unimodular column operations, then projects away the auxiliary
    coordinate (the projection is injective on the kernel).
    """
    n = len(w)
    u = [[1 if i == j else 0 for j in range(n + 1)] for i in range(n + 1)]
    for i, s, t, a0, ai in _column_ops(w, r):
        for row in u:
            row[0], row[i] = s * row[0] + t * row[i], a0 * row[i] - ai * row[0]
    # columns 1..n of u span the kernel; keep their beta parts
    return [tuple(u[i][j] for i in range(n)) for j in range(1, n + 1)]


def _kernel_gram(gram, ops):
    """Gram matrix of the ``_kernel_of_functional_mod`` basis, U^T (G + [0]) U.

    G is extended by a zero row and column, which stand for the auxiliary
    coordinate of [w | r]; that coordinate adds nothing to a pairing, so
    dropping index 0 (the gcd column) leaves the Gram of columns 1..n.  Each
    column operation E of ``ops`` runs once over the rows, taking A to A E.
    E^T A E is symmetric, so its rows 0 and i are its columns 0 and i: the
    columns 0 and i of A E, read back as rows, with the same 2x2 operation
    applied at their positions 0 and i.  The other rows are those of A E.
    O(n) per operation, no ambient vectors.
    """
    a = [list(row) + [0] for row in gram]
    a.append([0] * (len(a) + 1))
    for i, s, t, a0, ai in ops:
        for row in a:
            row[0], row[i] = s * row[0] + t * row[i], a0 * row[i] - ai * row[0]
        col_0 = [row[0] for row in a]
        col_i = [row[i] for row in a]
        for col in (col_0, col_i):
            col[0], col[i] = s * col[0] + t * col[i], a0 * col[i] - ai * col[0]
        a[0], a[i] = col_0, col_i
    return [row[1:] for row in a[1:]]


def _kernel_coordinates(ops, y):
    """Coordinates U^-1 y of a kernel vector y = (beta, -(w . beta)/r) of
    [w | r] in the ``_kernel_of_functional_mod`` basis, undoing its
    operations ``ops``."""
    y = list(y)
    for i, s, t, a0, ai in ops:
        y[0], y[i] = a0 * y[0] + ai * y[i], s * y[i] - t * y[0]
    if y[0]:  # columns 1..n of U span the kernel of [w | r], so a kernel y has y[0] = 0
        raise VerificationFailure("vector is not in the kernel")
    return y[1:]


# -- sublattice and overlattice ---------------------------------------------

def l_zero_sublattice(lat: IntegralLattice, alpha, r: int) -> IntegralLattice:
    """The sublattice of vectors beta with (beta . alpha) divisible by r.

    Its Gram matrix is the congruence ``_kernel_gram`` of the ambient Gram,
    in the basis ``l_zero_basis`` returns.  Its det and signature are the
    ambient's (memoized), with det scaled by [L : L0]^2, where [L : L0] =
    r / gcd(r, alpha G) is the order of the image of beta -> (beta . alpha)
    mod r; (0, None) when the ambient is degenerate."""
    alpha = _checked_alpha(lat, alpha)
    _checked_r(r, 1)
    w = _gram_product(lat.gram, alpha)
    gram = _kernel_gram(lat.gram, _column_ops(w, r))
    det = lat.det * (r // gcd(r, *w)) ** 2
    return IntegralLattice._of_gram(gram, f"L0({lat.label or 'L'}; r={r})", (det, lat.signature()))


def l_zero_basis(lat: IntegralLattice, alpha, r: int):
    """Column basis vectors of the sublattice, in the ambient coordinates."""
    alpha = _checked_alpha(lat, alpha)
    _checked_r(r, 1)
    return _kernel_of_functional_mod(_gram_product(lat.gram, alpha), r)


def _checked_alpha(lat: IntegralLattice, alpha) -> tuple:
    """alpha as a tuple of ints; PreconditionError unless it is a nonzero
    integer vector of the lattice's rank."""
    alpha = tuple(alpha)
    for x in alpha:
        if type(x) is not int:  # no bools, floats or strings
            raise PreconditionError(f"alpha entry {x!r} is not an integer")
    if len(alpha) != lat.rank:
        raise PreconditionError("alpha has the wrong length")
    if not any(alpha):
        raise PreconditionError("alpha must be nonzero")
    return alpha


def _checked_r(r, least: int) -> None:
    """PreconditionError unless r is an int (no bool, float or string) of
    at least ``least``."""
    if type(r) is not int:
        raise PreconditionError(f"r {r!r} is not an integer")
    if r < least:
        raise PreconditionError(f"r must be at least {least}")


@dataclass(frozen=True)
class OverlatticeSpec:
    """Ambient lattice, class alpha (coordinates in the ambient basis), r >= 2."""

    lattice: IntegralLattice
    alpha: tuple
    r: int

    def __post_init__(self):
        object.__setattr__(self, "alpha", _checked_alpha(self.lattice, self.alpha))
        _checked_r(self.r, 2)

    @property
    def alpha_sq(self) -> int:
        return self.lattice.norm(self.alpha)


def overlattice(spec: OverlatticeSpec) -> IntegralLattice:
    """The lattice generated by L0 and alpha/r inside the rational span.

    Requires 2*r^2 | (alpha^2) (DivisibilityViolation otherwise).  The
    result and its det are verified integral (VerificationFailure otherwise),
    and it is even over an even ambient; an odd result, which only an odd
    ambient gives, raises PreconditionError.

    Computed on integers in L0-coordinates: alpha lies in L0 (r | (alpha^2))
    and alpha/r = c/m there, m = r / gcd(r, coordinates of alpha).  So the
    overlattice is Z^n + Z(c/m), whose Hermite basis S of m*(Z^n + Z(c/m))
    is ``_stack_hnf(m, c)``: m*I with the rows of a few columns dense.  Its
    Gram S G0 S^T / m^2, with G0 the congruence ``_kernel_gram`` of the
    ambient Gram, is G0 bordered at those columns: for a dense row P_j and
    u = P_j G0, entry (j, k) is u[k] / m at a unit row k and (u . P_k) / m^2
    at a dense row k.  No ambient basis vector is formed.

    The det and signature are not eliminated from that Gram: they are the
    ambient's (memoized on ``spec.lattice``), with det scaled by
    ([L : L0] / m)^2, [L : L0] = r / gcd(r, alpha G) and m = [M : L0].
    """
    lat, alpha, r = spec.lattice, spec.alpha, spec.r
    w = _gram_product(lat.gram, alpha)
    alpha_sq = sum(map(mul, w, alpha))
    if alpha_sq % (2 * r * r):
        raise DivisibilityViolation(
            f"(alpha^2) = {alpha_sq} is not divisible by 2*r^2 = {2 * r * r}")
    ops = _column_ops(w, r)
    coords = _kernel_coordinates(ops, alpha + (-alpha_sq // r,))
    m = r // gcd(r, *coords)  # alpha/r = c/m in L0-coordinates, in lowest terms
    rows = _stack_hnf(m, [x * m // r for x in coords])
    g0 = _kernel_gram(lat.gram, ops)
    gram = [list(row) for row in g0]
    for j, row in enumerate(rows):
        if row is None:
            continue
        u = _gram_product(g0, row)
        for k, other in enumerate(rows):
            if other is None:
                val, rem = divmod(u[k], m)
            else:
                val, rem = divmod(sum(map(mul, u, other)), m * m)
            if rem:  # S G0 S^T is divisible by m^2: M is integral as 2 r^2 | (alpha^2)
                raise VerificationFailure("overlattice Gram is not integral")
            gram[j][k] = gram[k][j] = val
    det, rem = divmod(lat.det * (r // gcd(r, *w)) ** 2, m * m)
    if rem:  # det M = det L * ([L : L0] / [M : L0])^2 is the det of an int Gram
        raise VerificationFailure("index does not divide the determinant")
    out = IntegralLattice._of_gram(gram, f"{lat.label or 'L'}+Z(alpha/{r})", (det, lat.signature()))
    if not out.is_even:  # v^2 = b^2 mod 2 on L0 + Z(alpha/r): only an odd L0 gets here
        raise PreconditionError("overlattice is not even: the ambient lattice is odd")
    return out
