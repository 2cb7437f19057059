"""Univariate polynomials mod p, and plane forms on the lines of P^2(F_p).

A univariate polynomial is a descending list of int coefficients, [] for
zero; functions that take p reduce mod p, the others return unreduced
ints.  A plane form of degree d is kept as rows: ``rows[k][i]`` is the
coefficient of x0^(d-k-i)*x1^k*x2^i, so row k is a polynomial in x2.
``plane_lines`` covers P^2(F_p) by lines and ``restrict`` puts a plane
form on one of them; ``restrict_cols`` puts it on many lines (1 : t : x2)
at once, coefficient-wise, and ``line_restrictions`` on all of them.  The
sextic probe of ``systems`` restricts the branch sextic and its partials,
the pencil count the quadrics of the pencil.
"""

from itertools import islice

from . import linalg
from .scalars import chi_mod


def plane_lines(p):
    """P^2(F_p) as lines (base, j, length): the points base + s*e_j for s in
    range(length), with base[j] = 0.  Together they visit every normalized
    point once, in exactly the order of ``projective_points(GF(p), 2)``:
    (1, x1, x2) with x1 fastest, then (0, 1, x2), then (0, 0, 1)."""
    for x2 in range(p):
        yield (1, 0, x2), 1, p
    yield (0, 1, 0), 2, p
    yield (0, 0, 1), 0, 1


def plane_rows(f):
    """(rows, D): D*f as rows, for a nonzero plane form f (MultiPoly), with D
    the lcm of the coefficients' denominators (1 over GF(p))."""
    d = sum(next(iter(f.terms)))
    (ints,), scale = linalg.int_rows(f.field, [list(f.terms.values())])
    rows = [[0] * (d + 1 - k) for k in range(d + 1)]
    for (_, k, i), c in zip(f.terms, ints):
        rows[k][i] = c
    return rows, scale


def restrict_cols(rows, xs, p):
    """``restrict`` mod p of a plane form of degree d on the lines
    (1 : t : x2) for x2 in ``xs``, coefficient-wise: entry k lists the
    coefficient of t^(d-k) on each line.  Each row goes by Horner in x2,
    one list operation per coefficient for all the lines at once."""
    cols = []
    for r in reversed(rows):
        acc = [r[-1] % p] * len(xs)
        for c in reversed(r[:-1]):
            acc = [(a * x + c) % p for a, x in zip(acc, xs)]
        cols.append(acc)
    return cols


def line_restrictions(rows, p):
    """``restrict`` mod p of a plane form on every line of ``plane_lines(p)``,
    in that order; the first p lines, (1 : t : x2), from one
    ``restrict_cols``."""
    return [*zip(*restrict_cols(rows, range(p), p)),
            *([c % p for c in restrict(rows, base, j)]
              for base, j, _ in islice(plane_lines(p), p, None))]


def partials(rows):
    """The partials in x0, x1 and x2 of a plane form of degree d >= 1."""
    d = len(rows) - 1
    return ([[(d - k - i) * c for i, c in enumerate(r[:-1])] for k, r in enumerate(rows[:d])],
            [[k * c for c in r] for k, r in enumerate(rows) if k],
            [[i * c for i, c in enumerate(r) if i] for r in rows[:d]])


def restrict(rows, base, j):
    """A plane form of degree d on the line base + t*e_j of ``plane_lines``,
    as a descending list of d + 1 coefficients in t: on (1 : t : x2) row k
    gives the coefficient of t^k."""
    if j == 1:  # (1 : t : x2): each row by Horner in x2
        x2, out = base[2], []
        for r in reversed(rows):
            acc = 0
            for c in reversed(r):
                acc = acc * x2 + c
            out.append(acc)
        return out
    if j == 2:  # (0 : 1 : t): the terms free of x0
        return [r[-1] for r in rows]
    return rows[0]  # (t : 0 : 1): the terms free of x1


def trim(a, p):
    """The list a reduced mod p, without leading zeros ([] for zero)."""
    a = [x % p for x in a]
    while a and not a[0]:
        del a[0]
    return a


def deriv(a):
    """The derivative of the descending coefficient list a."""
    return [k * x for k, x in zip(range(len(a) - 1, 0, -1), a)]


def gcd(a, b, p):
    """A gcd mod p of two descending coefficient lists, by Euclid's
    algorithm: [] when both are zero, [u] (u a unit) when they are coprime."""
    a, b = trim(a, p), trim(b, p)
    while b:
        inv, n, tail = pow(b[0], -1, p), len(b), b[1:]
        while len(a) >= n:
            q = a[0] * inv
            a = [(x - q * y) % p for x, y in zip(a[1:n], tail)] + a[n:]
            while a and not a[0]:
                del a[0]
        a, b = b, a
    return a


def coprime_to_derivative(cols, p):
    """For a block of polynomials c of one degree d >= 1, mod p, whether
    gcd(c, c') is certainly a unit, as a list of bools.

    The block is given coefficient-wise: ``cols[k]`` lists the coefficient
    of t^(d-k) of every polynomial, as ints.  Euclid runs on the whole
    block at once, one list operation per coefficient, by pseudo-remainders:
    while b has degree m >= 1 and a degree m + 1, a becomes
    lc(b)^2 (a mod b), and a, b swap.  This follows the degrees d, d - 1,
    ..., 0 that the remainders take when no leading coefficient vanishes;
    the polynomials where one does are split off, as in Della Dora,
    Dicrescenzo and Duval's dynamic evaluation, and left to ``gcd``.  So a
    polynomial gets True when its last remainder is a nonzero constant, and
    False when that is zero (the gcd has positive degree) or when the
    leading coefficient of a remainder of positive degree vanished.  A c
    whose own leading coefficient vanishes mod p gets False too, since the
    lead of c' vanishes with it.
    """
    d = len(cols) - 1
    a = cols
    b = [[(d - k) * x % p for x in col] for k, col in enumerate(cols[:-1])]
    leads, zeros = [], [0] * len(cols[0])
    while len(b) > 1:
        # a1 = the t^m coefficient of lc(b) a - lc(a) t b; then
        # lc(b) (lc(b) a - lc(a) t b) - a1 b has two leading zeros
        lb, la = b[0], a[0]
        leads.append(lb)
        a1 = [(u * x - v * y) % p for u, x, v, y in zip(lb, a[1], la, b[1])]
        a = [[(u * (u * x - v * y) - w * z) % p
              for u, v, w, x, y, z in zip(lb, la, a1, ak, bk, bj)]
             for ak, bk, bj in zip(a[2:], b[2:] + [zeros], b[1:])]
        a, b = b, a
    return [0 not in t for t in zip(*leads, b[0])]


def first_root(h, length, p):
    """The least t in range(length) where h vanishes mod p, or None."""
    for t in range(length):
        acc = 0
        for a in h:
            acc = acc * t + a
        if not acc % p:
            return t
    return None


def common_roots(a, b, c, p) -> int:
    """Number of roots in F_p of a t^2 + b t + c, all mod p: the common
    roots of a pencil's two forms over a point where the second vanishes
    identically.  A quadratic has 1 + chi(disc) roots, a linear one 1, a
    nonzero constant none and the zero polynomial p (a line in the base
    locus: never with good reduction)."""
    if a:
        return 1 + chi_mod(b * b - 4 * a * c, p)
    if b:
        return 1
    return 0 if c else p
