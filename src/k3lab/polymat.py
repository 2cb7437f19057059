"""Matrices of polynomials: symbolic determinants, Pfaffians, linear matrices.

``poly_det`` (size <= 8) and ``pfaffian`` (even size <= 6) share one int
kernel, a first-row Laplace expansion memoized on the indices left to
expand (pivoting buys nothing for symbolic entries at these sizes).  Over
QQ it scales the entries by the lcm D of their denominators, expands over
ZZ and divides by D**n (D**(n/2) for the Pfaffian) at the end; over GF(p)
it reduces every minor mod p.  A monomial is one int with a bit slot per
variable, wide enough for size * max entry degree, so a product of
monomials is one addition.  ``pfaffian`` is normalized so that the 4x4
value is m01*m23 - m02*m13 + m03*m12.

``LinearMatrix`` bundles an m x m matrix of homogeneous linear forms
A(x) = sum_i A_i x_i through its scalar coefficient matrices A_i, and feeds
the kernel from them directly: the monomial of x_i is 1 << width * i.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import linalg
from .errors import FieldMismatch, PreconditionError, VariableCountMismatch
from .poly import MultiPoly
from .scalars import GFElement

_MAX_DET = 8
_MAX_PF = 6


class PolyMatrix:
    """A rectangular matrix of polynomials over a common variable set."""

    __slots__ = ("field", "nvars", "entries")

    def __init__(self, entries):
        rows = tuple(tuple(row) for row in entries)
        if not rows or not rows[0]:
            raise PreconditionError("empty matrix")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise PreconditionError("ragged matrix")
        first = rows[0][0]
        for row in rows:
            for p in row:
                if not isinstance(p, MultiPoly):
                    raise PreconditionError("entries must be MultiPoly")
                if p.field != first.field:
                    raise FieldMismatch("entries over different fields")
                if p.nvars != first.nvars:
                    raise VariableCountMismatch("entries over different variable sets")
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "field", first.field)
        object.__setattr__(self, "nvars", first.nvars)

    def __setattr__(self, *a):
        raise AttributeError("PolyMatrix is immutable")

    @property
    def nrows(self):
        return len(self.entries)

    @property
    def ncols(self):
        return len(self.entries[0])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def is_alternating(self) -> bool:
        if self.nrows != self.ncols:
            return False
        for i in range(self.nrows):
            if not self.entries[i][i].is_zero():
                return False
            for j in range(i + 1, self.ncols):
                if self.entries[j][i] != -self.entries[i][j]:
                    return False
        return True

    def __eq__(self, other):
        return isinstance(other, PolyMatrix) and self.entries == other.entries

    __hash__ = None


def poly_det(m: PolyMatrix) -> MultiPoly:
    """Exact determinant of a square PolyMatrix of size <= 8."""
    _check_shape(m.nrows, m.ncols, pf=False)
    return _expand(m.field, m.nvars, *_pack(m), pf=False)


def pfaffian(m: PolyMatrix) -> MultiPoly:
    """Pfaffian of an alternating matrix of even size <= 6.

    Satisfies pfaffian(m)**2 == poly_det(m).
    """
    _check_shape(m.nrows, m.ncols, pf=True)
    if not m.is_alternating():
        raise PreconditionError("pfaffian of a non-alternating matrix")
    return _expand(m.field, m.nvars, *_pack(m), pf=True)


def _check_shape(nrows, ncols, pf):
    """The size caps of ``poly_det`` and ``pfaffian``."""
    if nrows != ncols:
        raise PreconditionError(f"{'pfaffian' if pf else 'determinant'} of a non-square matrix")
    if pf and (nrows % 2 or nrows > _MAX_PF):
        raise PreconditionError(f"pfaffian needs even size <= {_MAX_PF}")
    if not pf and nrows > _MAX_DET:
        raise PreconditionError(f"determinant limited to size {_MAX_DET}")


def _pack(m: PolyMatrix):
    """The entries of ``m`` as ``_expand``'s packed term lists, with the
    slot width and the lcm scale of the module docstring: (rows, width,
    scale)."""
    p, n = m.field.char, m.nrows
    width = max(n * max(e.degree() for row in m.entries for e in row), 1).bit_length()
    shifts = [width * i for i in range(m.nvars)]
    scale = 1 if p else math.lcm(*(c.denominator for row in m.entries for e in row
                                   for c in e.terms.values()))
    rows = [[[(sum(k << s for k, s in zip(exps, shifts)),
               c.v if p else c.numerator * (scale // c.denominator))
              for exps, c in e.terms.items()] for e in row] for row in m.entries]
    return rows, width, scale


def _expand(field, nvars, rows, width, scale, pf: bool) -> MultiPoly:
    """The int kernel of ``poly_det`` and ``pfaffian`` (see the module
    docstring) on packed entries (see ``_pack``).  A minor is keyed by the
    indices left to expand: columns for the determinant, whose row is the
    first not yet consumed; rows and columns for the Pfaffian, whose row is
    the first index."""
    n, p = len(rows), field.char
    cache: dict = {(): [(0, 1)]}

    def minor(idx: tuple) -> list:
        got = cache.get(idx)
        if got is not None:
            return got
        i, rest = (idx[0], idx[1:]) if pf else (n - len(idx), idx)
        acc: dict = {}
        for pos, j in enumerate(rest):
            entry = rows[i][j]
            if not entry:
                continue
            sub = minor(rest[:pos] + rest[pos + 1:])
            for ea, ca in entry:
                if pos % 2:
                    ca = -ca
                for eb, cb in sub:
                    k = ea + eb
                    acc[k] = acc.get(k, 0) + ca * cb
        if p:
            acc = {k: c % p for k, c in acc.items()}
        got = cache[idx] = [(k, c) for k, c in acc.items() if c]
        return got

    denom = scale ** (n // 2 if pf else n)
    box = (lambda c: GFElement(field, c)) if p else (lambda c: Fraction(c, denom))
    mask = (1 << width) - 1
    shifts = [width * i for i in range(nvars)]
    return MultiPoly._of_terms(field, nvars, {
        tuple(k >> s & mask for s in shifts): box(c) for k, c in minor(tuple(range(n)))})


# Klein basis order for 4x4 alternating matrices: entries (0,1), (0,2),
# (0,3), (1,2), (1,3), (2,3), in which Pf = w0*w5 - w1*w4 + w2*w3.
KLEIN_INDEX_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


class LinearMatrix:
    """An m x m matrix of linear forms A(x) = sum_i A_i x_i.

    ``coeff_mats`` holds one m x m scalar matrix per variable; entry (j, k)
    of A(x) is the linear form sum_i (A_i)[j][k] * x_i.  The instance is
    immutable, so its det and Pfaffian expansions are memoized.
    """

    __slots__ = ("field", "size", "nvars", "coeff_mats", "alternating", "_det", "_pf")

    def __init__(self, field, size: int, nvars: int, coeff_mats, alternating=None):
        mats = tuple(tuple(tuple(field.coerce(x) for x in row) for row in mat)
                     for mat in coeff_mats)
        if len(mats) != nvars:
            raise VariableCountMismatch(
                f"expected {nvars} coefficient matrices, got {len(mats)}")
        for mat in mats:
            if len(mat) != size or any(len(r) != size for r in mat):
                raise PreconditionError(f"coefficient matrices must be {size}x{size}")
        alt = all(_is_alternating_scalar(mat) for mat in mats)
        if alternating and not alt:
            raise PreconditionError("alternating flag set but a coefficient matrix is not")
        self._init(field, size, nvars, mats, alt if alternating is None else alternating)

    def _init(self, field, size, nvars, mats, alternating):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "coeff_mats", mats)
        object.__setattr__(self, "alternating", alternating)
        object.__setattr__(self, "_det", None)
        object.__setattr__(self, "_pf", None)

    def __setattr__(self, *a):
        raise AttributeError("LinearMatrix is immutable")

    @classmethod
    def from_linear_forms(cls, field, size, nvars, form_rows, alternating=None):
        """Build from entry-wise coefficient vectors: form_rows[j][k][i] is
        the x_i coefficient of entry (j, k)."""
        mats = [[[form_rows[j][k][i] for k in range(size)]
                 for j in range(size)] for i in range(nvars)]
        return cls(field, size, nvars, mats, alternating)

    def entry_poly(self, j: int, k: int) -> MultiPoly:
        terms = {}
        for i, mat in enumerate(self.coeff_mats):
            c = mat[j][k]
            if c:
                e = [0] * self.nvars
                e[i] = 1
                terms[tuple(e)] = c
        return MultiPoly(self.field, self.nvars, terms)

    def to_poly_matrix(self) -> PolyMatrix:
        return PolyMatrix([[self.entry_poly(j, k) for k in range(self.size)]
                           for j in range(self.size)])

    def _pack(self):
        """The entries as ``_expand``'s packed term lists (see ``_pack``)."""
        n = self.size
        ints, scale = linalg.int_rows(self.field, [row for mat in self.coeff_mats for row in mat])
        width = n.bit_length()
        rows = [[[(1 << width * i, ints[i * n + j][k]) for i in range(self.nvars)
                  if ints[i * n + j][k]] for k in range(n)] for j in range(n)]
        return rows, width, scale

    def det_poly(self) -> MultiPoly:
        if self._det is None:
            _check_shape(self.size, self.size, pf=False)
            object.__setattr__(self, "_det", _expand(self.field, self.nvars, *self._pack(),
                                                     pf=False))
        return self._det

    def pfaffian_poly(self) -> MultiPoly:
        if self._pf is None:
            _check_shape(self.size, self.size, pf=True)
            if not (self.alternating or all(map(_is_alternating_scalar, self.coeff_mats))):
                raise PreconditionError("pfaffian of a non-alternating matrix")
            object.__setattr__(self, "_pf", _expand(self.field, self.nvars, *self._pack(),
                                                    pf=True))
        return self._pf

    def left_right_transform(self, g, h) -> "LinearMatrix":
        """A_i -> g A_i h^T for square scalar matrices g, h."""
        ht = linalg.transpose(h)
        mats = [linalg.mat_mul(self.field, linalg.mat_mul(self.field, g, mat), ht)
                for mat in self.coeff_mats]
        return LinearMatrix(self.field, self.size, self.nvars, mats)

    def congruence_transform(self, g) -> "LinearMatrix":
        """A_i -> g A_i g^T (preserves the alternating property)."""
        return self.left_right_transform(g, g)

    def klein_coordinates(self, i: int):
        """Coordinates of the alternating coefficient matrix A_i in the
        Klein basis order (0,1), (0,2), (0,3), (1,2), (1,3), (2,3)."""
        if self.size != 4 or not self.alternating:
            raise PreconditionError("Klein coordinates need a 4x4 alternating matrix")
        mat = self.coeff_mats[i]
        return tuple(mat[a][b] for a, b in KLEIN_INDEX_PAIRS)

    @classmethod
    def from_klein_rows(cls, field, nvars, rows):
        """Alternating 4x4 linear matrix whose Klein coordinate vector is
        w(x) with w_a(x) = sum_i rows[a][i] x_i."""
        if len(rows) != 6:
            raise PreconditionError("need six Klein coordinate forms")
        zero, mats = field.zero, []
        for i in range(nvars):
            mat = [[zero] * 4 for _ in range(4)]
            for (r, c), row in zip(KLEIN_INDEX_PAIRS, rows):
                v = field.coerce(row[i])
                mat[r][c] = v
                mat[c][r] = -v
            mats.append(tuple(map(tuple, mat)))
        # alternating by construction, and every entry boxed once above
        out = object.__new__(cls)
        out._init(field, 4, nvars, tuple(mats), True)
        return out

    def __eq__(self, other):
        return (isinstance(other, LinearMatrix) and self.field == other.field
                and self.size == other.size and self.nvars == other.nvars
                and self.coeff_mats == other.coeff_mats)

    __hash__ = None

    def __repr__(self):
        return (f"LinearMatrix(size={self.size}, nvars={self.nvars}, "
                f"alternating={self.alternating})")


def _is_alternating_scalar(mat) -> bool:
    n = len(mat)
    for i in range(n):
        if mat[i][i]:
            return False
        for j in range(i + 1, n):
            if mat[i][j] != -mat[j][i]:
                return False
    return True
