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
A(x) = sum_i A_i x_i through its scalar coefficient matrices A_i, kept as
raw int rows, and expands det/Pf from them directly into the same packed
terms: the monomial of x_i is 1 << width * i.  A determinant in at most
three variables, such as the symbolic member of a pencil (4x4 in two) or
a net (6x6 in three), is read off its value at one Kronecker point
(``_kronecker_det``; Kronecker substitution as in D. Harvey, J. Symb.
Comp. 44, 2009): the point splits into diagonal blocks, whose int
determinants ``linalg.int_det`` takes and multiplies, so a diagonal
member costs a product of packed linear forms, and the digits of the
value are read in one pass over its bytes.  The two expansions of degree
2, the determinant of a 2x2 in more variables and every 4x4 Pfaffian (the
split models of ``quadforms``), are summed from a table of signed
products of two cells (``_degree2_terms``), with no minors.  Other
Pfaffians, and larger determinants in more variables, go through the
Laplace kernel above, because the Kronecker point of n variables needs
(m+1)^(n-1) digits.  The rule reads only the shape and the number of
variables, one algorithm per shape.  The packed expansions are
memoized and are what the package checks against: ``quadforms``
compares det/Pf with a form's ``quadratic_terms`` and ``construction``
solves for span coordinates on them, all on ints (disc(B) is a member's
determinant, not an expansion), and ``systems`` reads both branch forms
off them as ``univar``'s plane rows (``_det_rows``).  ``det_poly`` and
``pfaffian_poly`` only box them.  The transforms multiply raw rows:
``left_right_transform`` by g and h^T, ``congruence_transform`` the Klein
coordinates of an alternating matrix by wedge^2 g (``linalg.int_wedge2``).
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import combinations

from . import linalg
from .errors import FieldMismatch, PreconditionError, VariableCountMismatch
from .poly import MultiPoly
from .scalars import GFElement

_MAX_DET = 8
_MAX_PF = 6
# Linear matrices in more variables keep _expand: the Kronecker point of
# _kronecker_det has (size+1)^(nvars-1) digits, multi-Mbit ints at 8x8 in 6.
_MAX_KRONECKER_VARS = 3


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
    rows, width, scale = _pack(m)
    return _box_terms(m.field, m.nvars, _expand(rows, m.field.char, pf=False), width,
                      scale ** m.nrows)


def pfaffian(m: PolyMatrix) -> MultiPoly:
    """Pfaffian of an alternating matrix of even size <= 6.

    Satisfies pfaffian(m)**2 == poly_det(m).
    """
    _check_shape(m.nrows, m.ncols, pf=True)
    if not m.is_alternating():
        raise PreconditionError("pfaffian of a non-alternating matrix")
    rows, width, scale = _pack(m)
    return _box_terms(m.field, m.nvars, _expand(rows, m.field.char, pf=True), width,
                      scale ** (m.nrows // 2))


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


def _expand(rows, p, pf: bool) -> dict:
    """The int kernel of ``poly_det`` and ``pfaffian`` (see the module
    docstring) on packed entries (see ``_pack``): the expansion as a dict
    {packed monomial: nonzero int}, reduced mod p unless p = 0.  A minor is
    keyed by the indices left to expand: columns for the determinant, whose
    row is the first not yet consumed; rows and columns for the Pfaffian,
    whose row is the first index."""
    n = len(rows)
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

    out = dict(minor(tuple(range(n))))
    # `minor` holds itself through its closure; dropping that reference frees
    # the memo of minors now, not at some later cyclic collection
    minor = None
    return out


def _box_terms(field, nvars, terms: dict, width, denom) -> MultiPoly:
    """The packed int ``terms`` divided by ``denom`` (1 over GF(p)) as a
    MultiPoly."""
    box = (lambda c: GFElement(field, c)) if field.char else (lambda c: Fraction(c, denom))
    mask = (1 << width) - 1
    shifts = [width * i for i in range(nvars)]
    return MultiPoly._of_terms(field, nvars, {
        tuple(k >> s & mask for s in shifts): box(c) for k, c in terms.items()})


def _width(size, pf):
    """The slot width of a linear matrix's expansion: wide enough for its
    degree, size (det) or size/2 (Pf).  Both degree-2 expansions, det of a
    2x2 and Pf of a 4x4, get width 2, the width of ``quadratic_terms``."""
    return max(size // 2 if pf else size, 1).bit_length()


def _kronecker_det(mats, n, p) -> dict:
    """det of the n x n linear matrix sum_i mats[i] x_i (raw int rows, at
    most three variables) as the packed terms of ``LinearMatrix._terms``,
    reduced mod p unless p = 0, from int determinants at one Kronecker
    point (Kronecker substitution).

    The determinant is homogeneous of degree n, so x0 = 1 loses nothing;
    x_i = 2^(B (n+1)^(i-1)) for i >= 1 puts the coefficient of
    x0^(n-e1-e2) x1^e1 x2^e2 in base-2^B digit e1 + (n+1) e2, one digit per
    monomial since e1 <= n.  No coefficient exceeds the permanent bound
    prod_rows sum |coefficients| < 2^(B-1), so the digits, read balanced
    in [-2^(B-1), 2^(B-1)), are the coefficients.  B is a whole number of
    bytes: adding 2^(B-1) to every digit at once makes them all
    nonnegative, and the bytes of the sum are read off in one pass.  Over
    GF(p) the rows are lifted to balanced representatives first, which
    keeps B small.

    The point is split into the blocks of ``_blocks``; the value at the
    point is the product of the blocks' determinants, so a diagonal member
    costs a product of packed linear forms and no elimination.
    """
    if p:
        half = p // 2
        mats = [[[x - p if x > half else x for x in row] for row in mat] for mat in mats]
    bound = math.prod(sum(sum(map(abs, mat[j])) for mat in mats) for j in range(n))
    size = (bound.bit_length() + 8) // 8  # bytes per digit: 2^(B-1) > bound
    b = 8 * size
    point = mats[0] if mats else [[0] * n for _ in range(n)]
    for i, mat in enumerate(mats[1:]):
        s = b * (n + 1) ** i
        point = [[x + (y << s) for x, y in zip(prow, row)] for prow, row in zip(point, mat)]
    d = 1
    for block in _blocks(point):
        d *= (point[block[0]][block[0]] if len(block) == 1
              else linalg.int_det([[point[i][j] for j in block] for i in block], 0))
    if not d:
        return {}
    slots, top = (n + 1) ** (len(mats) - 1), 1 << (b - 1)
    zero = bytes(size - 1) + b"\x80"  # the digit 0 plus the offset 2^(B-1)
    digits = (d + int.from_bytes(zero * slots, "little")).to_bytes(size * slots, "little")
    terms = {}
    for slot, key in _monomial_slots(n, len(mats)):
        c = digits[size * slot:size * slot + size]
        if c != zero:
            c = int.from_bytes(c, "little") - top
            if p:
                c %= p
            if c:
                terms[key] = c
    return terms


@functools.cache
def _monomial_slots(n, nvars) -> list:
    """[(digit, packed monomial)] of the degree-n monomials in ``nvars`` <= 3
    variables, the digit of x0^(n-e1-e2) x1^e1 x2^e2 being e1 + (n+1) e2."""
    width = _width(n, False)
    return [(e1 + (n + 1) * e2, n - e1 - e2 + (e1 << width) + (e2 << 2 * width))
            for e2 in range(n + 1 if nvars == 3 else 1)
            for e1 in range(n + 1 - e2 if nvars > 1 else 1)]


def _blocks(point) -> list:
    """The index sets of the diagonal blocks of the square matrix ``point``:
    the finest partition of its indices in which i and j share a block
    whenever point[i][j] or point[j][i] is nonzero.  Permuting rows and
    columns alike by the blocks makes the matrix block diagonal, so its
    determinant is the product of theirs.  At a Kronecker point an entry
    is zero exactly when every coefficient matrix is zero there, as each
    coefficient has a digit of its own."""
    label = list(range(len(point)))
    for i, row in enumerate(point):
        for j, x in enumerate(row):
            if x and label[j] != label[i]:
                old, new = label[j], label[i]
                label = [new if c == old else c for c in label]
    blocks = {}
    for i, c in enumerate(label):
        blocks.setdefault(c, []).append(i)
    return list(blocks.values())


# The two degree-2 expansions as signed products of two cells, keyed by
# (size, pf): det of a 2x2 and Pf of a 4x4, normalized as m01*m23 -
# m02*m13 + m03*m12.  Kept here, not read from quadforms.SPLIT_MODELS, so
# that express_as_*'s det/Pf = q check does not take its model on trust.
_DEGREE2_PRODUCTS = {
    (2, False): ((1, (0, 0), (1, 1)), (-1, (0, 1), (1, 0))),
    (4, True): ((1, (0, 1), (2, 3)), (-1, (0, 2), (1, 3)), (1, (0, 3), (1, 2))),
}


def _degree2_terms(mats, products, p) -> dict:
    """The sum of the signed cell ``products`` of the linear matrix
    sum_i mats[i] x_i (raw int rows) as packed terms of width 2, reduced mod
    p unless p = 0, zeros dropped.  With u and v the coefficient columns of
    a product's two cells, u_k v_k goes to x_k^2 and u_k v_l + u_l v_k to
    x_k x_l."""
    n = len(mats)
    uv = [0] * (n * n)  # uv[k * n + l]: the signed sum of u_k v_l
    for sign, (r, c), (s, t) in products:
        v = [(l, mat[s][t]) for l, mat in enumerate(mats) if mat[s][t]]
        for k, mat in enumerate(mats):
            ca = mat[r][c]
            if ca:
                ca *= sign
                row = k * n
                for l, cb in v:
                    uv[row + l] += ca * cb
    out = {}
    for k in range(n):
        for l in range(k, n):
            c = uv[k * n + l] + uv[l * n + k] if l > k else uv[k * n + k]
            if p:
                c %= p
            if c:
                out[(1 << 2 * k) + (1 << 2 * l)] = c
    return out


def quadratic_terms(rows, p) -> dict:
    """The quadratic form x^T G x of the raw Gram ``rows`` (ints mod p, or
    Fractions when p = 0) as packed terms of width 2: G[i][i] on x_i^2 and
    2 G[i][j] on x_i x_j, reduced mod p unless p = 0, zeros dropped."""
    n, out = len(rows), {}
    for i, row in enumerate(rows):
        for j in range(i, n):
            c = row[j] if i == j else 2 * row[j]
            if p:
                c %= p
            if c:
                out[(1 << 2 * i) + (1 << 2 * j)] = c
    return out


# Klein basis order for 4x4 alternating matrices: entries (0,1), (0,2),
# (0,3), (1,2), (1,3), (2,3), in which Pf = w0*w5 - w1*w4 + w2*w3.
KLEIN_INDEX_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


class LinearMatrix:
    """An m x m matrix of linear forms A(x) = sum_i A_i x_i.

    ``coeff_mats`` holds one m x m scalar matrix per variable; entry (j, k)
    of A(x) is the linear form sum_i (A_i)[j][k] * x_i.  Inside, ``_mats[i]``
    holds A_i as raw int rows times ``_scale``: the representatives in
    [0, p) with scale 1 over GF(p), the numerators over the lcm of the
    denominators over QQ.  The algorithms run on those; ``coeff_mats`` is
    boxed on first use.  ``alternating`` says whether every A_i is
    alternating, as computed from them.  The instance is immutable, so
    ``_memo`` keeps what is derived from it: the packed det and Pfaffian
    expansions (``_terms``), their boxed polynomials, the boxed
    ``coeff_mats``, and what the modules above derive from it against one
    system.
    """

    __slots__ = ("field", "size", "nvars", "alternating", "_mats", "_scale", "_memo")

    def __init__(self, field, size: int, nvars: int, coeff_mats):
        mats = tuple(tuple(tuple(field.coerce(x) for x in row) for row in mat)
                     for mat in coeff_mats)
        if len(mats) != nvars:
            raise VariableCountMismatch(
                f"expected {nvars} coefficient matrices, got {len(mats)}")
        for mat in mats:
            if len(mat) != size or any(len(r) != size for r in mat):
                raise PreconditionError(f"coefficient matrices must be {size}x{size}")
        ints, scale = linalg.int_rows(field, [row for mat in mats for row in mat])
        self._init(field, size, nvars, [ints[i * size:(i + 1) * size] for i in range(nvars)],
                   scale)
        self._memo["coeff_mats"] = mats

    def _init(self, field, size, nvars, mats, scale, alternating=None):
        if alternating is None:
            alternating = all(_is_alternating(mat, field.char) for mat in mats)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "alternating", alternating)
        object.__setattr__(self, "_mats", mats)
        object.__setattr__(self, "_scale", scale)
        object.__setattr__(self, "_memo", {})

    @classmethod
    def _of_raw(cls, field, size, nvars, mats, scale=1, alternating=None) -> "LinearMatrix":
        """Wrap ``nvars`` raw size x size int matrices times ``scale`` (see
        the class docstring) without validating their shape: for the
        package's own results.  ``alternating`` is computed when None."""
        out = object.__new__(cls)
        out._init(field, size, nvars, mats, scale, alternating)
        return out

    def __setattr__(self, *a):
        raise AttributeError("LinearMatrix is immutable")

    @property
    def coeff_mats(self):
        got = self._memo.get("coeff_mats")
        if got is None:
            got = self._memo["coeff_mats"] = tuple(
                linalg._box(self.field, mat, self._scale) for mat in self._mats)
        return got

    def _terms(self, pf: bool) -> dict:
        """det (Pf when ``pf``) of A(x) as packed int terms {monomial: nonzero
        int}, memoized: the monomial of x_i is 1 << _width(size, pf) * i,
        and the value is the terms divided by ``_denom(pf)``.  A determinant
        in at most three variables is ``_kronecker_det``'s one int
        determinant; a 2x2 determinant in more variables and a 4x4 Pfaffian
        are ``_degree2_terms``' sums of cell products; other Pfaffians, and
        larger determinants in more variables, are ``_expand``'s Laplace
        expansion."""
        got = self._memo.get(("terms", pf))
        if got is None:
            n, p = self.size, self.field.char
            _check_shape(n, n, pf)
            if pf and not self.alternating:
                raise PreconditionError("pfaffian of a non-alternating matrix")
            if not pf and self.nvars <= _MAX_KRONECKER_VARS:
                got = _kronecker_det(self._mats, n, p)
            elif (n, pf) in _DEGREE2_PRODUCTS:
                got = _degree2_terms(self._mats, _DEGREE2_PRODUCTS[n, pf], p)
            else:
                width = _width(n, pf)
                rows = [[[(1 << width * i, mat[j][k]) for i, mat in enumerate(self._mats)
                          if mat[j][k]] for k in range(n)] for j in range(n)]
                got = _expand(rows, p, pf)
            self._memo[("terms", pf)] = got
        return got

    def _denom(self, pf: bool) -> int:
        """The denominator of ``_terms(pf)``: scale ** degree (1 over GF(p))."""
        return self._scale ** (self.size // 2 if pf else self.size)

    def _det_rows(self):
        """(rows, D): D * det A(x) in at most three variables as ``univar``'s
        plane rows, with D = ``_denom(False)`` over its gcd with the terms,
        the lcm of the coefficients' denominators that ``univar.plane_rows``
        takes; (None, 1) when det A(x) = 0.  Not memoized; ``_terms`` is."""
        terms = self._terms(False)
        if not terms:
            return None, 1
        d, width, denom = self.size, _width(self.size, False), self._denom(False)
        g = math.gcd(denom, *terms.values())
        mask = (1 << width) - 1
        rows = [[0] * (d + 1 - k) for k in range(d + 1)]
        # the key of x0^e0 x1^e1 x2^e2 is e0 + (e1 << width) + (e2 << 2 width)
        for key, c in terms.items():
            rows[key >> width & mask][key >> 2 * width] = c // g
        return rows, denom // g

    def _poly(self, pf: bool) -> MultiPoly:
        """``_terms(pf)`` boxed as a MultiPoly, memoized."""
        key = ("poly", pf)
        got = self._memo.get(key)
        if got is None:
            got = self._memo[key] = _box_terms(self.field, self.nvars, self._terms(pf),
                                               _width(self.size, pf), self._denom(pf))
        return got

    def det_poly(self) -> MultiPoly:
        return self._poly(False)

    def pfaffian_poly(self) -> MultiPoly:
        return self._poly(True)

    def left_right_transform(self, g, h) -> "LinearMatrix":
        """A_i -> g A_i h^T for size x size scalar matrices g, h: two int
        products per A_i, after which the result is scanned for the
        alternating property.  On an alternating matrix with h = g,
        ``congruence_transform`` gives the same result through wedge^2 g."""
        n, field = self.size, self.field
        for m in (g, h):
            if len(m) != n or any(len(r) != n for r in m):
                raise PreconditionError(f"transforms need {n}x{n} matrices")
        (gi, dg), (hi, dh) = linalg.int_rows(field, g), linalg.int_rows(field, h)
        ht, p = list(zip(*hi)), field.char
        mats = [linalg.int_mul(linalg.int_mul(gi, mat, p), ht, p) for mat in self._mats]
        return LinearMatrix._of_raw(field, n, self.nvars, mats, self._scale * dg * dh)

    def congruence_transform(self, g) -> "LinearMatrix":
        """A_i -> g A_i g^T on an alternating matrix, through wedge^2 g.

        The upper-triangle (Klein) coordinates of all the A_i, one column
        per variable, are multiplied once by ``linalg.int_wedge2`` of g's int
        rows, and the result is mirrored into alternating matrices.  Over QQ
        the scale is the matrix's times dg^2, dg the lcm of g's denominators.
        Equal in ``_mats``, ``_scale`` and ``alternating`` to
        ``left_right_transform(g, g)``; PreconditionError on a matrix that is
        not alternating.
        """
        n, field = self.size, self.field
        if len(g) != n or any(len(r) != n for r in g):
            raise PreconditionError(f"transforms need {n}x{n} matrices")
        if not self.alternating:
            raise PreconditionError("congruence_transform of a non-alternating matrix")
        gi, dg = linalg.int_rows(field, g)
        p, pairs = field.char, list(combinations(range(n), 2))
        klein = [[mat[r][c] for mat in self._mats] for r, c in pairs]
        rows = linalg.int_mul(linalg.int_wedge2(gi, p), klein, p)
        return LinearMatrix._of_cells(field, n, self.nvars, pairs, True, rows,
                                      self._scale * dg * dg)

    @classmethod
    def _of_cells(cls, field, size, nvars, cells, alternating, rows, scale=1) -> "LinearMatrix":
        """The linear matrix with the form of raw int coefficients ``rows[a]``
        times ``scale`` in cell ``cells[a]``, its negative in the mirror cell
        when ``alternating`` (then not tested again), and 0 elsewhere."""
        p, mats = field.char, []
        for i in range(nvars):
            mat = [[0] * size for _ in range(size)]
            for (r, c), row in zip(cells, rows):
                mat[r][c] = row[i]
                if alternating:
                    mat[c][r] = -row[i] % p if p else -row[i]
            mats.append(mat)
        return cls._of_raw(field, size, nvars, mats, scale, alternating or None)

    def __eq__(self, other):
        return (isinstance(other, LinearMatrix) and self.field == other.field
                and self.size == other.size and self.nvars == other.nvars
                and self.coeff_mats == other.coeff_mats)

    __hash__ = None

    def __repr__(self):
        return (f"LinearMatrix(size={self.size}, nvars={self.nvars}, "
                f"alternating={self.alternating})")


def _is_alternating(mat, p) -> bool:
    """Whether the raw int matrix ``mat`` is alternating (mod p unless p = 0)."""
    n = len(mat)
    for i in range(n):
        if mat[i][i]:
            return False
        for j in range(i + 1, n):
            s = mat[i][j] + mat[j][i]
            if s % p if p else s:
                return False
    return True
