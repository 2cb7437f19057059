"""Independent oracle implementations used by the test suite.

Everything here recomputes results by a different route than the library:
permutation-sum determinants, direct cofactor recursion, perfect-matching
Pfaffians, boxed span solves, term-by-term convolution, cross-ratio j-invariants, exhaustive
isotropic searches, the Witt index by the discriminant-class rule
(``witt_index_by_class``), a textbook Gauss-Jordan on Fractions or ints mod p
(``gauss_jordan``), a textbook symmetric elimination on Fractions
(``fraction_congruence``, the signature oracle of the lattice tests),
boxed sweeps of P^3 and P^2 for point counts and singular points, an int
point-by-point sweep of P^2 for singular points, an int sweep of every
fibre over P^2 for pencil counts at larger p (``fibre_sweep_pencil_count``),
univariate Euclid gcds, squarefree tests and
Sylvester resultants, and the relation check one sample at a time
(``relation_report``).  The views of a ``LinearMatrix`` that only tests need
are rebuilt here from its boxed ``coeff_mats``: its matrix of MultiPoly
entries (``poly_entries``) and the Klein coordinates of its alternating
coefficient matrices (``klein_coordinates``); ``klein_matrix`` builds one
from Klein coordinate forms through the public constructor, and
``identity`` builds identity matrices of field scalars.  The 2x2 minors
of a scalar matrix are taken on its scalars (``boxed_wedge2``), and the
seeded SL and GL draws are made on boxed scalars
(``boxed_random_sl``, ``boxed_random_gl``).  What only tests
do with polynomials and forms is done here on boxed scalars: reduction
mod p (``poly_mod``), substitution, partial derivatives, a form's
polynomial and back (``form_poly``, ``poly_form``), the members of a
system (``member_form``, and ``member_rows`` combining every Gram entry on
raw rows), and the model target forms and hyperbolic forms
written out entry by entry (``model_form``, ``hyperbolic_form``).  Overlattice Grams are rebuilt from ambient
basis vectors as dense A G A^T products (``dense_overlattice_gram``).
The lattice tests share their case generators, which are no oracles:
overlattice Grams drawn as the benchmark draws its ops
(``seeded_overlattice_grams``), block sums of U and E8 with one dense row
(``dense_row_block_sums``) and all-zero diagonals reached after stale rows
(``stale_repair_cases``).
"""

import random
from fractions import Fraction
from itertools import permutations
from math import gcd
from operator import mul

from k3lab import (QQ, GFElement, LinearMatrix, MultiPoly, OverlatticeSpec,
                   PreconditionError, QuadraticForm, construction, k3_lattice, linalg,
                   overlattice)
from k3lab.systems import member_at
from k3lab.lattices import e8_gram, hnf_row_basis, l_zero_basis


def perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def leibniz_det(entries):
    """Permutation-sum determinant of a matrix of MultiPoly entries."""
    n = len(entries)
    field, nvars = entries[0][0].field, entries[0][0].nvars
    acc = MultiPoly.zero(field, nvars)
    for perm in permutations(range(n)):
        term = MultiPoly.const(field, nvars, field.one)
        for i in range(n):
            term = term * entries[i][perm[i]]
        acc = acc + term if perm_sign(perm) > 0 else acc - term
    return acc


def cofactor_det(entries):
    """Plain first-row cofactor expansion (no memoization, fresh code),
    skipping zero entries of the first row."""
    n = len(entries)
    field, nvars = entries[0][0].field, entries[0][0].nvars
    if n == 1:
        return entries[0][0]
    acc = MultiPoly.zero(field, nvars)
    for j in range(n):
        if entries[0][j].is_zero():
            continue
        minor = [[entries[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = entries[0][j] * cofactor_det(minor)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def scalar_leibniz_det(field, rows):
    n = len(rows)
    acc = field.zero
    for perm in permutations(range(n)):
        term = field.one
        for i in range(n):
            term = term * rows[i][perm[i]]
        acc = acc + term if perm_sign(perm) > 0 else acc - term
    return acc


def pfaffian_three_term(entries):
    """Pf of a 4x4 alternating matrix: m01*m23 - m02*m13 + m03*m12."""
    m = entries
    return m[0][1] * m[2][3] - m[0][2] * m[1][3] + m[0][3] * m[1][2]


def _perfect_matchings(idx):
    if not idx:
        yield []
        return
    for j in idx[1:]:
        rest = [k for k in idx[1:] if k != j]
        for m in _perfect_matchings(rest):
            yield [(idx[0], j)] + m


def matching_pfaffian(entries):
    """Pfaffian of an alternating matrix of MultiPoly entries as the sum over
    perfect matchings {i1 < j1, i2 < j2, ...} of sgn(i1 j1 i2 j2 ...) times
    the product of the matched entries (no recursion on minors)."""
    n = len(entries)
    field, nvars = entries[0][0].field, entries[0][0].nvars
    acc = MultiPoly.zero(field, nvars)
    for match in _perfect_matchings(list(range(n))):
        term = MultiPoly.const(field, nvars, field.one)
        for i, j in match:
            term = term * entries[i][j]
        perm = [k for pair in match for k in pair]
        acc = acc + term if perm_sign(perm) > 0 else acc - term
    return acc


def naive_convolution(p, q):
    """Term-by-term double-loop product, assembled without MultiPoly.__mul__."""
    acc = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            c = c1 * c2
            if e in acc:
                acc[e] = acc[e] + c
            else:
                acc[e] = c
    return MultiPoly(p.field, p.nvars, acc)


def cross_ratio_j(roots):
    """j from the cross-ratio of four distinct elements of Q."""
    r1, r2, r3, r4 = (Fraction(r) for r in roots)
    lam = ((r1 - r3) * (r2 - r4)) / ((r1 - r4) * (r2 - r3))
    return 256 * (lam * lam - lam + 1) ** 3 / (lam * lam * (lam - 1) ** 2)


def quartic_from_roots(roots, scale=1):
    """The binary quartic scale * prod (x - r_i y) as coefficient tuple."""
    poly = [Fraction(scale)]
    for r in roots:
        r = Fraction(r)
        # multiply by (x - r*y): poly[i] tracks the coefficient of x^i
        new = [Fraction(0)] * (len(poly) + 1)
        for i, c in enumerate(poly):
            new[i] += c * (-r)
            new[i + 1] += c
        poly = new
    # poly[i] is the coefficient of x^i y^(4-i); return (a, b, c, d, e)
    return (poly[4], poly[3], poly[2], poly[1], poly[0])


def fraction_quartic_invariants(quartic):
    """(I, J, Delta) of a BinaryQuartic by the classical formulas in Fraction
    arithmetic, on the integer lifts of the coefficients over GF(p), then
    coerced into the quartic's field; Delta is defined at p = 3 too."""
    cs = quartic.coeffs
    a, b, c, d, e = (Fraction(x.v) if quartic.field.char else Fraction(x) for x in cs)
    i_inv = 12 * a * e - 3 * b * d + c * c
    j_inv = 72 * a * c * e + 9 * b * c * d - 27 * a * d * d - 27 * b * b * e - 2 * c**3
    delta = (4 * i_inv**3 - j_inv**2) / 27
    return tuple(map(quartic.field.coerce, (i_inv, j_inv, delta)))


def uni_sweep_count(quartic, p):
    """Points of the smooth model of tau^2 = f(t) over F_p by direct sweep."""
    from k3lab import GF

    gf = GF(p)
    a, b, c, d, e = (gf.coerce(x) for x in quartic.coeffs)
    count = 0
    for t in map(gf.element, range(p)):
        val = a * t**4 + b * t**3 + c * t**2 + d * t + e
        if val == 0:
            count += 1
        elif gf.legendre(val) == 1:
            count += 2
    if a == 0:
        count += 1
    elif gf.legendre(a) == 1:
        count += 2
    return count


def row_reduction_rank(field, rows):
    """Row-echelon rank with no pivot normalization (independent of linalg)."""
    mat = [list(r) for r in rows]
    if not mat:
        return 0
    ncols = len(mat[0])
    rank = 0
    for c in range(ncols):
        piv = None
        for i in range(rank, len(mat)):
            if mat[i][c]:
                piv = i
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for i in range(len(mat)):
            if i != rank and mat[i][c]:
                f = mat[i][c] / mat[rank][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def gauss_jordan(rows, ncols, p):
    """Textbook Gauss-Jordan elimination of the int ``rows`` on Fractions over
    QQ (p = 0) or on ints mod p, with pivots taken in the first ``ncols``
    columns: each pivot row, the first from the top with a nonzero entry, is
    divided by its pivot and subtracted from every other row.  Returns
    (rref, pivots); unlike ``linalg`` it never scales a row by anything but
    its pivot's inverse and never skips a row."""
    if p:
        m = [[x % p for x in row] for row in rows]
    else:
        m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], -1, p) if p else 1 / m[r][c]
        m[r] = [x * inv % p if p else x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r:
                f = m[i][c]
                m[i] = [(x - f * y) % p if p else x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


def fraction_congruence(a):
    """Textbook symmetric elimination of the symmetric Fraction rows ``a``
    (changed in place): (basis, diag), rows b_i with b_i^T a b_j = 0 for
    i != j and diag[i] = b_i^T a b_i.  Step k pivots on a[k][k], the first
    diagonal entry left, and subtracts (f / a[k][k]) row k from every later
    row with f = a[j][k] != 0 on the columns after k.  A zero pivot whose row
    is zero after column k stays a zero entry; any other is repaired first,
    by swapping in a later row with a nonzero diagonal entry, else by
    e_k += e_j for a j with a[k][j] != 0.  Unlike ``linalg.int_congruence``
    it takes no sparsest row, scales nothing and runs on Fractions."""
    n = len(a)
    basis = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(n):
        if not a[k][k]:
            partner = next((j for j in range(k + 1, n) if a[k][j]), None)
            if partner is None:
                continue
            j = next((j for j in range(k + 1, n) if a[j][j]), None)
            if j is not None:
                a[k], a[j], basis[k], basis[j] = a[j], a[k], basis[j], basis[k]
                for row in a[k:]:
                    row[k], row[j] = row[j], row[k]
            else:
                j = partner
                for row in a[k:]:
                    row[k] += row[j]
                a[k] = [x + y for x, y in zip(a[k], a[j])]
                basis[k] = [x + y for x, y in zip(basis[k], basis[j])]
        top, bk = a[k], basis[k]
        for j in range(k + 1, n):
            if a[j][k]:
                c = a[j][k] / top[k]
                a[j][k + 1:] = [x - c * y for x, y in zip(a[j][k + 1:], top[k + 1:])]
                basis[j] = [x - c * y for x, y in zip(basis[j], bk)]
    return basis, [a[i][i] for i in range(n)]


def fraction_invariants(gram):
    """(det, signature) of an integer Gram by ``fraction_congruence``: det is
    the product of the diagonal (every step has determinant +-1), and the
    signature counts its signs, None when an entry is zero."""
    _, diag = fraction_congruence([[Fraction(x) for x in row] for row in gram])
    pos = sum(x > 0 for x in diag)
    neg = sum(x < 0 for x in diag)
    det = Fraction(1)
    for x in diag:
        det *= x
    return det, ((pos, neg) if pos + neg == len(diag) else None)


def all_vectors(field, n):
    total = field.p**n
    for idx in range(total):
        v, m = [], idx
        for _ in range(n):
            v.append(field.element(m % field.p))
            m //= field.p
        yield tuple(v)


def exhaustive_isotropic(q):
    """All nonzero isotropic vectors of a form over a small prime field."""
    out = []
    for v in all_vectors(q.field, q.n):
        if any(v) and not q.eval(v):
            out.append(v)
    return out


def witt_index_exhaustive(q, stop_at=None):
    """Max dimension of a totally isotropic subspace, by projective search.

    With ``stop_at`` the search ends as soon as a subspace of that dimension
    is found (a nondegenerate form of dimension 2m has index at most m).
    """
    field = q.field
    # normalized projective representatives of isotropic vectors
    iso = []
    for v in exhaustive_isotropic(q):
        lead = next(i for i in range(q.n) if v[i])
        if v[lead] == field.one:
            iso.append(v)
    best = 0

    def extend(chosen, candidates):
        nonlocal best
        best = max(best, len(chosen))
        for idx, v in enumerate(candidates):
            if best == stop_at:
                return
            if _dependent_on(field, chosen, v):
                continue
            rest = [w for w in candidates[idx + 1:] if not q.bilinear(v, w)]
            extend(chosen + [v], rest)

    extend([], iso)
    return best


def witt_index_by_class(q):
    """The Witt index of a nondegenerate form over F_p from its dimension n
    and discriminant class (Lidl-Niederreiter, *Finite Fields*, ch. 6):
    (n - 1) / 2 for odd n; for even n, n / 2 when (-1)^(n/2) det is a
    square, else n / 2 - 1.  The determinant is a permutation sum."""
    p, n = q.field.p, q.n
    if n % 2:
        return (n - 1) // 2
    d = (-1) ** (n // 2) * scalar_leibniz_det(q.field, q.gram).v
    return n // 2 if pow(d % p, (p - 1) // 2, p) == 1 else n // 2 - 1


def _dependent_on(field, chosen, v):
    if not chosen:
        return False
    rows = [list(u) for u in chosen] + [list(v)]
    return row_reduction_rank(field, rows) < len(rows)


def brute_force_pencil_count(pencil, p):
    """#{x in P^3(F_p) : q1(x) = q2(x) = 0} by a boxed sweep of all of P^3."""
    from k3lab import GF, projective_points

    q1, q2 = pencil.reduce_mod(p).forms
    return sum(1 for pt in projective_points(GF(p), 3)
               if not q1.eval(pt) and not q2.eval(pt))


def fibre_sweep_pencil_count(pencil, p):
    """``brute_force_pencil_count`` on ints, fibre by fibre: for each
    normalized x in P^2(F_p), listed here, both forms on the points (x, t)
    are quadratics in t, evaluated at every t in F_p; (0:0:0:1) counts
    when both G[3][3] vanish.  No gcd, resultant or recombination."""
    grams = [[[x.v for x in row] for row in q.gram] for q in pencil.reduce_mod(p).forms]
    count = int(not grams[0][3][3] and not grams[1][3][3])
    plane = ([(1, x1, x2) for x2 in range(p) for x1 in range(p)]
             + [(0, 1, x2) for x2 in range(p)] + [(0, 0, 1)])
    for x in plane:
        (a1, b1, c1), (a2, b2, c2) = (
            (g[3][3], 2 * sum(g[i][3] * x[i] for i in range(3)) % p,
             sum(g[i][j] * x[i] * x[j] for i in range(3) for j in range(3)) % p)
            for g in grams)
        count += sum(1 for t in range(p) if not (a1 * t * t + b1 * t + c1) % p
                     and not (a2 * t * t + b2 * t + c2) % p)
    return count


def brute_force_singular_point(f, p):
    """The first point of P^2(F_p), in ``projective_points`` order, where a
    plane polynomial and its three partials vanish mod p (boxed), or None."""
    from k3lab import GF, projective_points

    fp = poly_mod(f, p)
    partials = [deriv(fp, i) for i in range(3)]
    for pt in projective_points(GF(p), 2):
        if not fp.eval(pt) and all(not d.eval(pt) for d in partials):
            return pt
    return None


def line_sweep_singular_point(f, p):
    """``brute_force_singular_point`` by an int sweep of every point, O(p^2)
    int operations.  f is restricted to the lines (1 : s : x2), then
    (0 : 1 : s), then the point (0 : 0 : 1), the documented order of
    ``univar.plane_lines``, built here so that the sweep under test is not
    its own oracle; it is evaluated along each by Horner, and the partials
    wherever f vanishes.  The point as a tuple of ints, or None."""
    lines = ([((1, 0, x2), 1, p) for x2 in range(p)]
             + [((0, 1, 0), 2, p), ((0, 0, 1), 0, 1)])
    terms = [(e, c.v) for e, c in poly_mod(f, p).terms.items()]
    partials = [[(e[:i] + (e[i] - 1,) + e[i + 1:], c * e[i]) for e, c in terms if e[i]]
                for i in range(3)]

    def at(terms, x):
        acc = 0
        for e, c in terms:
            for xi, k in zip(x, e):
                c *= xi**k
            acc += c
        return acc % p

    for base, j, length in lines:
        coeffs = [0] * 7
        for e, c in terms:
            for i, (xi, k) in enumerate(zip(base, e)):
                if i != j:
                    c *= xi**k
            coeffs[e[j]] += c
        for s in range(length):
            acc = 0
            for c in reversed(coeffs):
                acc = acc * s + c
            if acc % p:
                continue
            x = list(base)
            x[j] = s
            if not any(at(d, x) for d in partials):
                return tuple(x)
    return None


def symbolic_member_entries(system):
    """The Gram matrix of l0*q1 + l1*q2 + ... with MultiPoly entries, built
    from the boxed Gram matrices."""
    field, forms = system.field, system.forms
    k, n = len(forms), forms[0].n
    return [[sum((MultiPoly.var(field, k, v) * q.gram[i][j] for v, q in enumerate(forms)),
                 MultiPoly.zero(field, k)) for j in range(n)] for i in range(n)]


def boxed_span_solve(lhs, polys):
    """The unique c with lhs = sum c_k polys[k] (MultiPolys), by Gauss-Jordan
    elimination on boxed scalars over the union of their monomials; None
    when lhs is not in their span."""
    field = lhs.field
    monos = sorted(set(lhs.terms).union(*(q.terms for q in polys)))
    rows = [[q.coeff(e) for q in polys] + [lhs.coeff(e)] for e in monos]
    k, r = len(polys), 0
    for c in range(k):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            raise PreconditionError("the polynomials are linearly dependent")
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = field.one / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    if any(row[k] for row in rows[k:]):
        return None
    return tuple(row[k] for row in rows[:k])


def poly_mod(f, p):
    """The image of the MultiPoly f over GF(p), coefficient by coefficient."""
    from k3lab import GF

    gf = GF(p)
    return MultiPoly(gf, f.nvars, {e: gf.coerce(c) for e, c in f.terms.items()})


def substitute(f, assignment):
    """f with the polynomials ``assignment[i]`` put in for the variables x_i,
    expanded term by term."""
    field, n = f.field, f.nvars
    out = MultiPoly.zero(field, n)
    for e, c in f.terms.items():
        t = MultiPoly.const(field, n, c)
        for i, k in enumerate(e):
            t = t * assignment.get(i, MultiPoly.var(field, n, i)) ** k
        out = out + t
    return out


def deriv(f, i):
    """The partial derivative of the MultiPoly f in x_i."""
    return MultiPoly(f.field, f.nvars, {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i]
                                        for e, c in f.terms.items() if e[i]})


def form_poly(q):
    """The quadratic MultiPoly sum_ij G_ij x_i x_j of a form, from its boxed
    Gram matrix."""
    x = [MultiPoly.var(q.field, q.n, i) for i in range(q.n)]
    return sum((x[i] * x[j] * q.gram[i][j] for i in range(q.n) for j in range(q.n)),
               MultiPoly.zero(q.field, q.n))


def poly_form(f):
    """The QuadraticForm of a homogeneous quadratic MultiPoly: the
    coefficient of x_i^2 on the diagonal, half that of x_i x_j off it."""
    field, n = f.field, f.nvars
    half = field.one / field.coerce(2)
    gram = [[field.zero] * n for _ in range(n)]
    for e, c in f.terms.items():
        i, j = [i for i, k in enumerate(e) for _ in range(k)]
        gram[i][j] = gram[j][i] = c if i == j else c * half
    return QuadraticForm(gram, field)


def model_form(field, n):
    """The target form of the n-variable split model, written out: z0*z3 -
    z1*z2 = det [[z0, z1], [z2, z3]] for n = 4, and the Pfaffian form
    w0*w5 - w1*w4 + w2*w3 in Klein coordinates for n = 6."""
    h = Fraction(1, 2)
    if n == 4:
        gram = [[0, 0, 0, h], [0, 0, -h, 0], [0, -h, 0, 0], [h, 0, 0, 0]]
    else:
        gram = [[0, 0, 0, 0, 0, h], [0, 0, 0, 0, -h, 0], [0, 0, 0, h, 0, 0],
                [0, 0, h, 0, 0, 0], [0, -h, 0, 0, 0, 0], [h, 0, 0, 0, 0, 0]]
    return QuadraticForm([[field.coerce(x) for x in row] for row in gram], field)


def hyperbolic_form(field, planes):
    """x0*x1 + x2*x3 + ... with ``planes`` hyperbolic planes."""
    n = 2 * planes
    return QuadraticForm([[field.coerce(Fraction(1, 2)) if i ^ 1 == j else field.zero
                           for j in range(n)] for i in range(n)], field)


def member_form(system, lam):
    """The member sum_k lam_k q_k of a pencil or net, from the boxed Gram
    matrices."""
    field, n = system.field, system.NVARS
    lam = [field.coerce(x) for x in lam]
    return QuadraticForm([[sum((c * q.gram[i][j] for c, q in zip(lam, system.forms)),
                               field.zero) for j in range(n)] for i in range(n)], field)


def member_rows(grams, lam, p):
    """The Gram rows of sum_k lam_k G_k from the raw Gram rows ``grams`` and
    raw coefficients ``lam``, every entry combined (also where all forms
    are 0): ints reduced mod p, or Fractions when p = 0."""
    rows = [[sum(map(mul, lam, entries)) for entries in zip(*row_i)]
            for row_i in zip(*grams)]
    if p:
        return [[x % p for x in row] for row in rows]
    return rows


def klein_matrix(field, nvars, rows):
    """The alternating 4x4 linear matrix whose Klein coordinates, the entries
    (0,1), (0,2), (0,3), (1,2), (1,3), (2,3), are the linear forms
    sum_i rows[a][i] x_i, built through the public constructor."""
    mats = []
    for i in range(nvars):
        mat = [[field.zero] * 4 for _ in range(4)]
        for (r, c), row in zip(((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)), rows):
            mat[r][c] = field.coerce(row[i])
            mat[c][r] = -mat[r][c]
        mats.append(mat)
    return LinearMatrix(field, 4, nvars, mats)


def boxed_wedge2(g):
    """The 2x2 minors of the square matrix g of field scalars, row (i, j) and
    column (k, l) over the pairs i < j in lexicographic order, each
    g_ik g_jl - g_il g_jk taken on the scalars themselves."""
    pairs = [(i, j) for i in range(len(g)) for j in range(i + 1, len(g))]
    return tuple(tuple(g[i][k] * g[j][l] - g[i][l] * g[j][k] for k, l in pairs)
                 for i, j in pairs)


def boxed_random_sl(field, n, rng):
    """A seeded element of SL_n(F_p) drawn on boxed scalars: n x n entries
    ``field.element(rng.randrange(p))`` row by row until the boxed
    determinant is nonzero, then the first row divided by it: the stream
    ``random_sl`` must reproduce while it tests its candidates on ints."""
    while True:
        m = [[field.element(rng.randrange(field.p)) for _ in range(n)] for _ in range(n)]
        d = linalg.det(field, m)
        if d:
            inv = field.one / d
            m[0] = [x * inv for x in m[0]]
            return tuple(tuple(r) for r in m)


def boxed_random_gl(field, n, rng):
    """``boxed_random_sl``'s draw without the division: the first boxed
    n x n matrix with a nonzero determinant."""
    while True:
        m = tuple(tuple(field.element(rng.randrange(field.p)) for _ in range(n))
                  for _ in range(n))
        if linalg.det(field, m):
            return m


def identity(field, n):
    """The n x n identity matrix of field scalars."""
    return tuple(tuple(field.one if i == j else field.zero for j in range(n))
                 for i in range(n))


def poly_entries(a):
    """A(x) of the LinearMatrix ``a`` as rows of MultiPoly entries: entry
    (j, k) is sum_i (A_i)[j][k] x_i, built from the boxed ``coeff_mats``."""
    x = [MultiPoly.var(a.field, a.nvars, i) for i in range(a.nvars)]
    return [[sum((xi * mat[j][k] for xi, mat in zip(x, a.coeff_mats)),
                 MultiPoly.zero(a.field, a.nvars)) for k in range(a.size)]
            for j in range(a.size)]


def klein_coordinates(a, i):
    """Entries (0,1), (0,2), (0,3), (1,2), (1,3), (2,3) of the alternating
    4x4 coefficient matrix A_i of ``a``, read from the boxed ``coeff_mats``."""
    mat = a.coeff_mats[i]
    return tuple(mat[r][c] for r, c in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))


def scaled(a, t):
    """The linear matrix t * A(x), rebuilt from scaled coefficient matrices."""
    t = a.field.coerce(t)
    return LinearMatrix(a.field, a.size, a.nvars,
                        [[[t * x for x in row] for row in mat] for mat in a.coeff_mats])


# -- univariate polynomials ------------------------------------------------------
# Tuples of scalars in ascending degree with no trailing zeros; the zero
# polynomial is the empty tuple.  The resultant follows the Sylvester-matrix
# convention with the rows of the first argument on top.

def uni_trim(field, coeffs):
    cs = [field.coerce(c) for c in coeffs]
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def uni_degree(f) -> int:
    return len(f) - 1


def uni_eval(field, f, x):
    x = field.coerce(x)
    acc = field.zero
    for c in reversed(f):
        acc = acc * x + c
    return acc


def uni_deriv(field, f):
    return uni_trim(field, [c * i for i, c in enumerate(f)][1:])


def uni_divmod(field, f, g):
    if not g:
        raise ZeroDivisionError("univariate division by zero")
    rem = list(f)
    quo = [field.zero] * max(0, len(f) - len(g) + 1)
    dg, lead = len(g) - 1, g[-1]
    while len(rem) - 1 >= dg and any(rem):
        shift = len(rem) - 1 - dg
        c = rem[-1] / lead
        quo[shift] = c
        for i, gc in enumerate(g):
            rem[shift + i] = rem[shift + i] - c * gc
        while rem and not rem[-1]:
            rem.pop()
    return uni_trim(field, quo), uni_trim(field, rem)


def uni_gcd(field, f, g):
    """Monic gcd via the Euclidean algorithm."""
    a, b = uni_trim(field, f), uni_trim(field, g)
    if not a and not b:
        raise PreconditionError("gcd(0, 0) is undefined")
    while b:
        _, r = uni_divmod(field, a, b)
        a, b = b, r
    lead = a[-1]
    return tuple(c / lead for c in a)


def uni_is_squarefree(field, f) -> bool:
    """Squarefree iff gcd(f, f') is constant."""
    f = uni_trim(field, f)
    if not f:
        raise PreconditionError("zero polynomial has no squarefree test")
    if len(f) == 1:
        return True
    return uni_degree(uni_gcd(field, f, uni_deriv(field, f))) == 0


def uni_resultant(field, f, g):
    """Resultant as the determinant of the Sylvester matrix (f-rows first)."""
    f, g = uni_trim(field, f), uni_trim(field, g)
    if not f or not g:
        raise PreconditionError("resultant needs two nonzero polynomials")
    m, n = uni_degree(f), uni_degree(g)
    if m == 0 and n == 0:
        return field.one
    size = m + n
    rows = []
    fd = list(reversed(f))  # descending coefficients
    gd = list(reversed(g))
    for i in range(n):
        rows.append([field.zero] * i + fd + [field.zero] * (size - i - len(fd)))
    for i in range(m):
        rows.append([field.zero] * i + gd + [field.zero] * (size - i - len(gd)))
    return linalg.det(field, rows)


def model_rows_by_inverse(p, cols, target_cols):
    """M_t M_q^-1 mod p with M_q^-1 from ``linalg.int_inverse``, for the Witt
    bases ``cols`` of a form and ``target_cols`` of the target model, both
    given as their columns."""
    m_q_inv = linalg.int_inverse([list(r) for r in zip(*cols)], p)[0]
    return linalg.int_mul([list(r) for r in zip(*target_cols)], m_q_inv, p)


def boxed_reduce(rows, p):
    """Per-entry reduction of Gram entries (ints, Fractions or "num/den"
    strings) mod p: the reduced int rows, or the BadPrime message of the
    first entry, in row-major order, whose denominator p divides."""
    out = []
    for row in rows:
        out.append([])
        for x in row:
            x = Fraction(x)
            if x.denominator % p == 0:
                return f"denominator of {x} vanishes mod {p}"
            out[-1].append(x.numerator * pow(x.denominator, -1, p) % p)
    return out


def gram_of(gram, vecs):
    """The Gram matrix A G A^T of the rows of A, as dense products."""
    ag = [[sum(x * g for x, g in zip(u, col)) for col in zip(*gram)] for u in vecs]
    return [[sum(x * y for x, y in zip(u, v)) for v in vecs] for u in ag]


def dense_overlattice_gram(lat, alpha, r):
    """The Gram of ``overlattice`` through ambient vectors: the L0 basis of
    ``l_zero_basis``, the coordinates of alpha in it by an exact solve over
    QQ, the Hermite basis S of m * (Z^n + Z(alpha/r)) in those coordinates,
    the ambient rows S B and their Gram (S B) G (S B)^T / m^2."""
    basis = l_zero_basis(lat, alpha, r)
    coords = linalg.solve(QQ, [list(col) for col in zip(*basis)], list(alpha))
    if any(c.denominator != 1 for c in coords):
        raise AssertionError("alpha is not in L0")
    coords = [int(c) for c in coords]
    n = len(basis)
    m = r // gcd(r, *coords)
    rows = [[m * (i == j) for j in range(n)] for i in range(n)]
    rows.append([c * m // r for c in coords])
    ambient = [[sum(s * b[k] for s, b in zip(row, basis)) for k in range(n)]
               for row in hnf_row_basis(rows)]
    gram = gram_of(lat.gram, ambient)
    if any(x % (m * m) for row in gram for x in row):
        raise AssertionError("overlattice Gram is not integral")
    return [[x // (m * m) for x in row] for row in gram]


def seeded_overlattice_alphas(r, size, count=20):
    """``count`` seeded classes alpha of the K3 lattice with entries in
    [-size, size] and 2 r^2 | (alpha^2), drawn by rejection as the
    overlattice benchmark draws its ops."""
    rng = random.Random(f"overlattice/{r}/{size}")
    k3 = k3_lattice()
    alphas = []
    while len(alphas) < count:
        alpha = [rng.randint(-size, size) for _ in range(k3.rank)]
        if any(alpha) and k3.norm(alpha) % (2 * r * r) == 0:
            alphas.append(alpha)
    return alphas


def seeded_overlattice_grams(r, size, count=20):
    """The Grams of the overlattices L0 + Z(alpha/r) of the K3 lattice at
    the ``seeded_overlattice_alphas``."""
    k3 = k3_lattice()
    return [overlattice(OverlatticeSpec(k3, alpha, r)).gram
            for alpha in seeded_overlattice_alphas(r, size, count)]


def block_sum(*blocks):
    """The block-diagonal matrix of square blocks."""
    n = sum(len(b) for b in blocks)
    m, off = [[0] * n for _ in range(n)], 0
    for b in blocks:
        for i, row in enumerate(b):
            m[off + i][off:off + len(b)] = list(row)
        off += len(b)
    return m


def sym_permuted(rng, m):
    """P^T m P for a random permutation matrix P."""
    perm = list(range(len(m)))
    rng.shuffle(perm)
    return [[m[i][j] for j in perm] for i in perm]


def dense_row_block_sums(rng):
    """U and E8 block sums with row and column 0 made dense and its diagonal
    nonzero, the shape of an overlattice Gram, then three symmetric
    permutations of each: the first nonzero diagonal entry is then not on
    the row with the most zeros."""
    u, e8n, e8 = [[0, 1], [1, 0]], e8_gram(True), e8_gram(False)
    cases = []
    for blocks in ((u, [[-2]], u), (e8n,), (e8,), (u, e8n), (u, u, u, e8n), (u, u, u, e8n, e8n)):
        m = block_sum([[2 * rng.choice((-2, -1, 1, 2))]], *blocks)
        for j in range(1, len(m)):
            m[0][j] = m[j][0] = rng.choice((-2, -1, 1, 2))
        if m[0].count(0) >= max(row.count(0) for i, row in enumerate(m) if row[i]):
            raise AssertionError("row 0 is the sparsest pivot candidate")
        cases += [m] + [sym_permuted(rng, m) for _ in range(3)]
    return cases


def stale_repair_cases():
    """All-zero diagonals left after pivots with |p_k| > 1, whose rows went
    stale at different steps, so the e_0 += e_j repair adds rows kept at
    different scales."""
    # in base, pivot 2 zeroes the diagonal of row 1 (2 * 2 = 2^2) and brings
    # it up to date while row 2 stays at scale 1; the sparser rows of the
    # blocks [[3]] and [[5]] pivot before it, so the repair sees prev = 30
    base = [[2, 2, 0], [2, 2, 1], [0, 1, 0]]
    return [base, block_sum([[3]], base), block_sum([[3]], [[5]], base),
            block_sum([[-2]], base, [[0, 1], [1, 0]]),
            block_sum([[3]], [[0, 1, 1], [1, 0, 1], [1, 1, 0]]),
            block_sum([[2, 1], [1, 2]], [[0, 2], [2, 0]], [[-7]])]


def relation_report(system, p, count, seed=0):
    """``verify_relation`` one sample at a time, keeping nothing between
    samples: sample i is ``sample_point(system, p, seed + i)``, T its
    ``t_invariant`` and disc(B) one determinant of the member at B.  The
    construction functions are looked up when called, so a test that
    patches one patches it here too."""
    red = construction._reduced(system, p)
    c, passed, failed = None, 0, []
    for i in range(count):
        pt = construction.sample_point(red, p, seed + i)
        t = construction.t_invariant(pt.matrix)
        disc_b = GFElement(red.field, linalg.int_det(member_at(red, [x.v for x in pt.b]), p))
        if c is None:
            c = t * t / disc_b
        if t * t == c * disc_b:
            passed += 1
        else:
            failed.append({"index": i, "base_point": pt.base_point, "t": t, "disc_b": disc_b})
    return construction.RelationReport(case=red.KIND, p=p, samples=count, seed=seed, c=c,
                                       passed=passed, failed=tuple(failed))
