"""Small exact linear algebra over QQ or GF(p).

Matrices are tuples of tuples of field scalars at the API.  Inside, each
function runs one algorithm on raw representatives for both fields: over
GF(p) the ints in [0, p), reduced with ``% p``; over QQ the matrix times
the lcm D of its denominators, an int matrix whose results are divided
back once at the end.  Scalars are unboxed once on the way in
(``int_rows``) and boxed once on the way out.  The other ``int_*`` kernels
work on those ints directly, with ``p = 0`` standing for ZZ; ``quadforms``
and the sampler in ``construction`` run on them.

``det``, ``rank``, ``solve``, ``inverse`` and ``nullspace`` share one
elimination that never touches a row with a zero in the pivot column:
by the pivot's inverse over GF(p), fraction-free over ZZ (Bareiss, Math.
Comp. 22, 1968, with lazy row scaling).  Symmetric forms have one
symmetric elimination, ``int_congruence``, under the same rule and in the
same two arithmetics, which pivots on the sparsest row: the Witt split of
``quadforms``, the lattice determinant and signature of ``lattices`` and
``congruence_diagonalize``, over QQ through ZZ, all run on it.  The
package never sees matrices bigger than 23x23.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from operator import mul

from .errors import SingularMatrix
from .scalars import GFElement


def int_rows(field, m):
    """(rows, D): the entries of ``m`` as ints times D.  Over GF(p) they are
    the representatives in [0, p) and D = 1; over QQ, D is the lcm of the
    denominators."""
    if field.char:
        return [[x.v for x in row] for row in m], 1
    return scaled_rows(m, 0)


def scaled_rows(m, p):
    """``int_rows`` of raw representatives (ints in [0, p) over GF(p), which
    are copied as they are, or ints and Fractions over QQ when p = 0)."""
    if p:
        return [list(row) for row in m], 1
    # a list, not a generator: CPython builds a generator's args tuple by
    # resizing, and each resized tuple of <= 20 items stays on its free list
    scale = math.lcm(*[x.denominator for row in m for x in row])
    return [[x.numerator * (scale // x.denominator) for x in row] for row in m], scale


def _box(field, rows, den=1):
    """The int ``rows`` divided by ``den`` as field scalars (den is 1 over GF(p))."""
    if field.char:
        return tuple(tuple(GFElement(field, x) for x in row) for row in rows)
    return tuple(tuple(Fraction(x, den) for x in row) for row in rows)


def int_mul(a, b, p):
    """The product of two int matrices, reduced mod p unless p = 0."""
    cols = list(zip(*b))
    if p:
        return [[sum(map(mul, row, col)) % p for col in cols] for row in a]
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def int_wedge2(rows, p):
    """wedge^2 g of the square int ``rows`` g: its 2x2 minors, reduced mod p
    unless p = 0, with rows and columns indexed by the pairs i < j in
    lexicographic order (the Klein order for n = 4).  Entry ((i, j), (k, l))
    is g_ik g_jl - g_il g_jk, so for an alternating A the entries (i, j),
    i < j, of g A g^T are wedge^2 g times those of A (Cauchy-Binet)."""
    pairs = list(combinations(range(len(rows)), 2))
    out = []
    for i, j in pairs:
        gi, gj = rows[i], rows[j]
        row = [gi[k] * gj[l] - gi[l] * gj[k] for k, l in pairs]
        out.append([x % p for x in row] if p else row)
    return out


def _eliminate(rows, ncols, p, jordan):
    """Elimination of the int ``rows`` in place, with pivots taken in the
    first ``ncols`` columns; a row whose entry in the pivot column is zero
    is never touched, and the scan stops once every row holds a pivot.
    Returns (pivots, d, sign): the pivot columns, d and the sign of the
    swaps, sign * d being the determinant of a nonsingular square input.
    Forward elimination clears the rows below each pivot; with ``jordan``
    every other row is cleared, and rows / d is the reduced row echelon
    form over ZZ, rows itself over GF(p).

    Over GF(p) it is Gaussian elimination by the pivot's inverse, d is the
    product of the pivots, and ``jordan`` normalizes each pivot row.  The
    inverse is taken only when a row needs it, so forward elimination of a
    diagonal matrix takes none.  Over ZZ it is Bareiss with the lazy row
    scaling of ``int_congruence``, d the last pivot: each row keeps the
    pivot q at which it was last brought up to date.  The pivot row is
    rescaled by prev / q when used and is then up to date at its own pivot,
    a row with an entry f in the pivot column becomes (piv * x - f * y) // q,
    and ``jordan`` brings every row up to prev at the end.  The divisions
    are exact.
    """
    nrows = len(rows)
    pivots, prev, sign, q = [], 1, 1, [1] * nrows
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:  # every row holds a pivot, so no later column can
            break
        piv = r
        while piv < nrows and not rows[piv][c]:
            piv += 1
        if piv == nrows:
            continue
        if piv != r:
            rows[r], rows[piv], q[r], q[piv] = rows[piv], rows[r], q[piv], q[r]
            sign = -sign
        top = rows[r]
        if p:
            prev, inv = prev * top[c] % p, 0  # inv is taken when a row needs it
            if jordan:
                inv = pow(top[c], -1, p)
                top = rows[r] = [x * inv % p for x in top]
        elif q[r] != prev:
            top = rows[r] = [x * prev // q[r] for x in top]
        pk = q[r] = top[c]
        for i in range(0 if jordan else r + 1, nrows):
            f = rows[i][c]
            if not f or i == r:
                continue
            if p:
                if jordan:
                    b = f
                else:
                    inv = inv or pow(pk, -1, p)
                    b = f * inv % p
                rows[i] = [(x - b * y) % p for x, y in zip(rows[i], top)]
            else:
                rows[i] = [(pk * x - f * y) // q[i] for x, y in zip(rows[i], top)]
                q[i] = pk
        pivots.append(c)
        if not p:
            prev = pk
    if jordan and not p:
        rows[:] = [row if qi == prev else [x * prev // qi for x in row] for row, qi in zip(rows, q)]
    return pivots, prev, sign


def int_det(rows, p):
    """Determinant of the square int ``rows`` (left unchanged), mod p or over
    ZZ when p = 0."""
    n = len(rows)
    pivots, d, sign = _eliminate(list(rows), n, p, False)
    if len(pivots) < n:
        return 0
    return sign * d % p if p else sign * d


def int_rref(rows, ncols, p):
    """Gauss-Jordan elimination of the int ``rows`` in place: (rows, pivots,
    den) with rows / den the reduced row echelon form (den = 1 over GF(p))."""
    pivots, d, _ = _eliminate(rows, ncols, p, True)
    return rows, pivots, 1 if p else d


def int_inverse(rows, p, scale=1):
    """(inv, den) with inv / den = scale times the inverse of the square int
    ``rows``; SingularMatrix when they are singular."""
    n = len(rows)
    a = [list(row) + [scale if i == j else 0 for j in range(n)] for i, row in enumerate(rows)]
    red, pivots, den = int_rref(a, n, p)
    if len(pivots) < n:
        raise SingularMatrix("matrix is singular")
    return [row[n:] for row in red], den


def int_nullspace(rows, ncols, p):
    """(basis, den): the rows of basis / den span the right kernel of the int
    ``rows``, one per free column, normalized by the reduced echelon form."""
    red, pivots, den = int_rref([list(row) for row in rows], ncols, p)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[fc] = den
        for row, pc in zip(red, pivots):
            v[pc] = -row[fc] % p if p else -row[fc]
        basis.append(v)
    return basis, den


def mat_mul(field, a, b):
    if not a or not b:
        return ()
    (ra, da), (rb, db) = int_rows(field, a), int_rows(field, b)
    return _box(field, int_mul(ra, rb, field.char), da * db)


def det(field, m):
    """Determinant: the int determinant of D*m, divided by D**n."""
    rows, scale = int_rows(field, m)
    return _box(field, [[int_det(rows, field.char)]], scale ** len(m))[0][0]


def rank(field, m):
    return int_rank(int_rows(field, m)[0], field.char)


def int_rank(rows, p):
    """Rank of the int ``rows`` (left unchanged), mod p or over ZZ when p = 0."""
    return len(_eliminate(list(rows), len(rows[0]) if rows else 0, p, False)[0])


def inverse(field, m):
    rows, scale = int_rows(field, m)
    return _box(field, *int_inverse(rows, field.char, scale))


def solve(field, a, b):
    """Exact solution of the (possibly overdetermined) system a x = b.

    Returns the solution vector when the system is consistent with a
    unique solution, None when inconsistent.  Underdetermined systems
    raise SingularMatrix since no caller wants a non-unique answer.
    """
    ncols = len(a[0]) if a else 0
    rows, _ = int_rows(field, [list(ra) + [bb] for ra, bb in zip(a, b)])
    sol = int_solve(rows, ncols, field.char)
    return None if sol is None else _box(field, [sol[0]], sol[1])[0]


def int_solve(rows, ncols, p):
    """``solve`` on the augmented int ``rows`` [a | b] (reduced in place):
    (x, den) with x / den the unique solution, or None when inconsistent."""
    red, pivots, den = int_rref(rows, ncols, p)
    if any(row[ncols] for row in red[len(pivots):]):
        return None
    if len(pivots) < ncols:
        raise SingularMatrix("system is underdetermined")
    x = [0] * ncols
    for row, c in zip(red, pivots):
        x[c] = row[ncols]
    return x, den


def nullspace(field, a):
    """Basis of the right kernel of ``a`` (list of vectors)."""
    if not a:
        return []
    rows, _ = int_rows(field, a)
    return list(_box(field, *int_nullspace(rows, len(rows[0]), field.char)))


def congruence_diagonalize(field, g):
    """Diagonalize a symmetric matrix by congruence: returns (m, d), m^T g m = d.

    ``int_congruence`` of [g | I] over GF(p), or of [D g | I] over ZZ for QQ,
    D the lcm of the denominators: there column k of m is the carried row
    over p_(k-1), and d_k = p_k / (p_(k-1) D).
    """
    p, n = field.char, len(g)
    rows, scale = int_rows(field, g)
    d, cols = int_congruence(with_identity(rows), p)
    if not p:
        prev = 1
        for k, pk in enumerate(d):
            cols[k] = [Fraction(x, prev) for x in cols[k]]
            d[k] = Fraction(pk, prev * scale)
            prev = pk or prev
    diag = [[x if i == j else 0 for j in range(n)] for i, x in enumerate(d)]
    return _box(field, list(zip(*cols))), _box(field, diag)


def with_identity(rows):
    """[rows | I], the carried columns that make ``int_congruence`` return a basis."""
    n = len(rows)
    return [[*row, *[0] * i, 1, *[0] * (n - 1 - i)] for i, row in enumerate(rows)]


def int_congruence(rows, p):
    """Symmetric elimination of the int ``rows`` (used up), mod p or over ZZ
    when p = 0: the n rows of a symmetric n x n form, each followed by the
    same carried columns ([g | I] for a basis, none for the pivots alone).
    Returns (pivots, carried): the pivot values and the carried parts of
    the pivot rows, in pivot order.

    Each step pivots on the row with the most zeros (Markowitz's rule
    against fill-in) among those with a nonzero diagonal entry or a zero
    part in the form, which ranks one zero lower and leaves as pivot 0; the
    lowest index wins a tie.  With no such row, e_0 += e_j for the first j
    with a[0][j] != 0 makes the diagonal entry of row 0 twice a nonzero
    pairing.  A row with an entry f != 0 in the pivot column takes a row
    operation on the Schur complement; the others are never touched.

    Over GF(p) it subtracts f / piv times the pivot row, taking 1 / piv
    only when some row has such an f: the pivots are the diagonal entries
    d_k, and the carried parts the rows b_k of [g | I], with
    b_i g b_j^T = 0 for i != j and b_k g b_k^T = d_k.  Over ZZ it is
    Bareiss (Math. Comp. 22, 1968): with p_(k-1) the last nonzero pivot
    before p_k (1 at first), d_k = p_k / p_(k-1) and the carried part is
    p_(k-1) b_k.  Rows are scaled lazily: each keeps the pivot q at which
    it was last brought up to date, as the factors piv / prev of Bareiss
    telescope to prev / q.  A pivot or repair row is rescaled as
    x * prev // q when used, and a row with an entry f in the pivot column
    becomes (piv * x - f * y) // q.  The divisions are exact, as the
    results are minors; zero tests and counts do not see the scale.
    """
    a, q = rows, [1] * len(rows)
    pivots, carried, prev = [], [], 1
    while a:
        m = len(a)
        zeros = [c if row[i] else c - 1 if c >= m and not any(row[:m]) else -1
                 for i, row in enumerate(a) for c in (row.count(0),)]
        most = max(zeros)
        if most < 0:
            k, j = 0, next(j for j, x in enumerate(a[0]) if x)
            a[0] = [x * prev // q[0] + y * prev // q[j] for x, y in zip(a[0], a[j])]
            q[0] = prev
            for row in a:
                row[0] += row[j]
            if p:  # prev and every q are 1 over GF(p)
                a = [[x % p for x in row] for row in a]
        else:
            k = zeros.index(most)
        top, qk = a.pop(k), q.pop(k)
        if not p and qk != prev:
            top = [x * prev // qk for x in top]
        piv = top.pop(k)
        inv = 0  # over GF(p), taken when a row needs it; piv = 0 leaves the column zero
        for i, row in enumerate(a):
            f = row.pop(k)
            if not f:
                continue
            if p:
                inv = inv or pow(piv, -1, p)
                c = f * inv % p
                a[i] = [(x - c * y) % p for x, y in zip(row, top)]
            else:
                a[i] = [(piv * x - f * y) // q[i] for x, y in zip(row, top)]
                q[i] = piv
        pivots.append(piv)
        carried.append(top[m - 1:])
        if piv and not p:
            prev = piv
    return pivots, carried

