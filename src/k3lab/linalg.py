"""Small exact linear algebra over QQ or GF(p).

Matrices are tuples of tuples of scalars.  Everything is pure and
allocation-happy; the package never sees matrices bigger than 23x23.
"""

from __future__ import annotations

from .errors import SingularMatrix


def identity(field, n):
    return tuple(
        tuple(field.one if i == j else field.zero for j in range(n)) for i in range(n)
    )


def transpose(m):
    return tuple(zip(*m)) if m else ()


def mat_mul(field, a, b):
    if not a or not b:
        return ()
    bt = transpose(b)
    return tuple(
        tuple(_dot(field, row, col) for col in bt) for row in a
    )


def mat_vec(field, a, v):
    return tuple(_dot(field, row, v) for row in a)


def _dot(field, u, v):
    acc = field.zero
    for x, y in zip(u, v):
        acc = acc + x * y
    return acc


def mat_scale(c, a):
    return tuple(tuple(c * x for x in row) for row in a)


def det(field, m):
    """Fraction-free Bareiss determinant (exact over any field)."""
    n = len(m)
    if n == 0:
        return field.one
    a = [list(row) for row in m]
    sign = 1
    prev = field.one
    for k in range(n - 1):
        if not a[k][k]:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return field.zero
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[k][k] * a[i][j] - a[i][k] * a[k][j]) / prev
            a[i][k] = field.zero
        prev = a[k][k]
    d = a[n - 1][n - 1]
    return -d if sign < 0 else d


def rank(field, m):
    if not m:
        return 0
    a = [list(row) for row in m]
    rows, cols = len(a), len(a[0])
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = field.one / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == rows:
            break
    return r


def inverse(field, m):
    n = len(m)
    a = [list(row) + [field.one if i == j else field.zero for j in range(n)]
         for i, row in enumerate(m)]
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            raise SingularMatrix("matrix is singular")
        a[c], a[piv] = a[piv], a[c]
        inv = field.one / a[c][c]
        a[c] = [x * inv for x in a[c]]
        for i in range(n):
            if i != c and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return tuple(tuple(row[n:]) for row in a)


def solve(field, a, b):
    """Exact solution of the (possibly overdetermined) system a x = b.

    Returns the solution vector when the system is consistent with a
    unique solution, None when inconsistent.  Underdetermined systems
    raise SingularMatrix since no caller wants a non-unique answer.
    """
    rows = [list(ra) + [bb] for ra, bb in zip(a, b)]
    ncols = len(a[0]) if a else 0
    r = 0
    pivots = []
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = field.one / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    for i in range(r, len(rows)):
        if rows[i][ncols]:
            return None
    if len(pivots) < ncols:
        raise SingularMatrix("system is underdetermined")
    x = [field.zero] * ncols
    for i, c in enumerate(pivots):
        x[c] = rows[i][ncols]
    return tuple(x)


def nullspace(field, a):
    """Basis of the right kernel of ``a`` (list of vectors)."""
    if not a:
        return []
    rows = [list(r) for r in a]
    ncols = len(rows[0])
    r = 0
    pivots = []
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = field.one / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [field.zero] * ncols
        v[fc] = field.one
        for i, pc in enumerate(pivots):
            v[pc] = -rows[i][fc]
        basis.append(tuple(v))
    return basis


def congruence_diagonalize(field, g):
    """Diagonalize a symmetric matrix by congruence: returns (m, d), m^T g m = d.

    Works over any field of characteristic != 2.  Zero diagonal entries are
    repaired by mixing in a row with a nonzero off-diagonal partner.
    """
    n = len(g)
    a = [list(row) for row in g]
    m = [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]

    def add_col(dst, src, c):
        # basis op e_dst <- e_dst + c * e_src, applied to gram and basis
        for i in range(n):
            a[i][dst] = a[i][dst] + c * a[i][src]
        for i in range(n):
            a[dst][i] = a[dst][i] + c * a[src][i]
        for i in range(n):
            m[i][dst] = m[i][dst] + c * m[i][src]

    def swap_cols(i, j):
        for r in range(n):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        a[i], a[j] = a[j], a[i]
        for r in range(n):
            m[r][i], m[r][j] = m[r][j], m[r][i]

    for k in range(n):
        if not a[k][k]:
            if all(not a[k][i] for i in range(k + 1, n)):
                continue  # e_k is orthogonal to everything from k on
            j = next((i for i in range(k + 1, n) if a[i][i]), None)
            if j is not None:
                swap_cols(k, j)
            else:
                j = next(i for i in range(k + 1, n) if a[k][i])
                add_col(k, j, field.one)  # now a[k][k] = 2*a[k][j] != 0
        d = a[k][k]
        for j in range(k + 1, n):
            if a[k][j]:
                add_col(j, k, -(a[k][j] / d))
    diag = tuple(tuple(a[i][j] if i == j else field.zero for j in range(n)) for i in range(n))
    return tuple(tuple(row) for row in m), diag
