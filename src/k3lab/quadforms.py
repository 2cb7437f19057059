"""Exact quadratic-form algebra over QQ and odd prime fields.

Gram convention: q(x) = x^T G x with G symmetric, so G[i][i] is the
coefficient of x_i^2 and G[i][j] is *half* the coefficient of x_i x_j.
This forces characteristic != 2, which the scalar layer already enforces.
The associated bilinear form is B(u, v) = u^T G v = (q(u+v)-q(u)-q(v))/2.

The split normal form used throughout pairs basis vectors into hyperbolic
planes with Gram [[0, 1/2], [1/2, 0]] (the form x*y), stacked first, with
a diagonal anisotropic residual of dimension <= 2 at the end.

``express_as_2x2_det`` and ``express_as_pfaffian`` realize split forms as
det of a 2x2 matrix of linear forms, respectively as the Pfaffian of an
alternating 4x4 one.  The two models are data, one row of ``SPLIT_MODELS``
each, so one body (``_express``) transports the form to the model's
hard-coded target form through explicit Witt decompositions.  The model
is M_t M_q^-1 for the Witt bases M_t of the target and M_q of the form.
The Witt split's own transport check M_q^T G M_q = H gives M_q^-1 without
an inversion: M_q^-1 = H^-1 (G M_q)^T, the dual basis.  M_t H^-1 is
cached per prime as one (column, coefficient) pair per row, since it is
twice a signed permutation (checked when cached), so ``_model_rows``
scales n columns of G M_q instead of multiplying two n x n matrices.
Both return a LinearMatrix whose det/Pf reproduces the input form
*identically*, which downstream sampling relies on: the check compares the
model's packed int det/Pf expansion with the form's coefficients.  Such
identities are checked with explicit VerificationFailure raises, so they
also hold under ``python -O``.

Over F_p the split test and the Witt split are kernels on int Gram rows
mod p (``_split_det`` on a ``linalg.int_det``, ``_witt_rows``), which the
sampler in ``construction`` calls directly; ``is_split``, ``witt_split``
and ``isotropic_vector`` (the first vector of the Witt basis) are thin
wrappers that box their results.  The Witt split searches nothing and
draws nothing: one symmetric elimination (``linalg.int_congruence``)
diagonalizes the form, and its diagonal entries are paired into
hyperbolic planes by their quadratic characters.  Forms keep their Gram
matrix as raw representatives, ints or Fractions over QQ as a system file
gives them, and are validated and reduced mod p on those.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from . import linalg
from .errors import (BadPrime, DegenerateSystem, FieldMismatch, NotSplit,
                     PreconditionError, VerificationFailure)
from .polymat import KLEIN_INDEX_PAIRS, LinearMatrix, quadratic_terms
from .scalars import GF, GFElement, Immutable, PrimeField, QQ, chi_mod, sqrt_mod


class QuadraticForm(Immutable):
    """A quadratic form of dimension n <= 6 given by its symmetric Gram matrix.

    ``_rows`` holds the Gram matrix as raw representatives (ints in [0, p)
    over GF(p), ints or Fractions over QQ), which the algorithms below run
    on.  The constructor takes field scalars, ints, Fractions or "num/den"
    strings, converts each entry once to its representative and checks
    squareness and symmetry on those; ``gram`` is the boxed form, built on
    first use.
    """

    __slots__ = ("field", "n", "_gram", "_rows", "_disc")

    MAX_DIM = 6

    def __init__(self, gram, field=None):
        rows = _square(gram)
        if field is None:
            if not rows:
                raise PreconditionError("dimension-0 form needs an explicit field")
            probe = rows[0][0]
            field = probe.field if hasattr(probe, "field") else QQ
        p = field.char
        # ints are reduced inline; only other entries pay a call
        rows = _symmetric(tuple(
            tuple((x % p if p else x) if type(x) is int else _raw(field, x) for x in r)
            for r in rows))
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "n", len(rows))
        object.__setattr__(self, "_gram", None)
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_disc", None)

    @classmethod
    def _of_rows(cls, field, rows, disc=None) -> "QuadraticForm":
        """Wrap symmetric Gram rows of raw representatives (ints in [0, p)
        over GF(p), ints or Fractions over QQ) without validating or boxing
        them: for the package's own results.  ``disc``, when given, is their
        determinant as a field scalar, already computed by the caller."""
        out = object.__new__(cls)
        object.__setattr__(out, "field", field)
        object.__setattr__(out, "n", len(rows))
        object.__setattr__(out, "_gram", None)
        object.__setattr__(out, "_rows", rows)
        object.__setattr__(out, "_disc", disc)
        return out

    @classmethod
    def _rational_mod(cls, gram, gf) -> "QuadraticForm":
        """``QuadraticForm(gram, QQ).reduce_mod(p)`` in one pass, for ``gram``
        over QQ as raw ints and Fractions and ``gf`` = GF(p), without the form
        over QQ.  The constructor's checks run on the raw entries, so a
        matrix that is symmetric only mod p is refused; each entry is then
        reduced on its own.  BadPrime when p divides a denominator (the
        first such entry is named in the message)."""
        rows, p = _symmetric(_square(gram)), gf.p
        try:
            return cls._of_rows(gf, tuple(
                tuple(x % p if type(x) is int else x.numerator * pow(x.denominator, -1, p) % p
                      for x in r) for r in rows))
        except ValueError:  # pow: a denominator without an inverse mod p
            bad = next(x for r in rows for x in r if x.denominator % p == 0)
            raise BadPrime(f"denominator of {bad} vanishes mod {p}") from None

    @property
    def gram(self):
        if self._gram is None:
            object.__setattr__(self, "_gram", linalg._box(self.field, self._rows))
        return self._gram

    def eval(self, v):
        return self._pair(v, v)

    def bilinear(self, u, v):
        return self._pair(u, v)

    def _pair(self, u, v):
        """u^T G v, computed on raw representatives."""
        f = self.field
        x, y = ([f.coerce(t) for t in w] for w in (u, v))
        if f.char:
            x, y = [t.v for t in x], [t.v for t in y]
        return f.coerce(sum(a * sum(map(mul, row, y)) for a, row in zip(x, self._rows)))

    def disc(self):
        """det of the Gram matrix (memoized); zero iff the form is degenerate."""
        if self._disc is None:
            p = self.field.char
            rows, scale = linalg.scaled_rows(self._rows, p)
            object.__setattr__(self, "_disc", linalg._box(
                self.field, [[linalg.int_det(rows, p)]], scale ** self.n)[0][0])
        return self._disc

    def is_nondegenerate(self) -> bool:
        return bool(self.disc()) if self.n else True

    def reduce_mod(self, p: int) -> "QuadraticForm":
        """The form over GF(p): BadPrime when p is not an odd prime below
        2**31 or divides a denominator of the Gram matrix.  Over QQ it is
        ``_rational_mod``."""
        f = GF(p)
        if self.field.char:
            if self.field is not f:
                raise FieldMismatch(f"form over GF({self.field.char}) reduced mod {p}")
            return self
        return QuadraticForm._rational_mod(self._rows, f)


def _square(gram):
    """The rows of ``gram`` as tuples; PreconditionError unless they form a
    square matrix of dimension at most ``QuadraticForm.MAX_DIM``."""
    rows = tuple(map(tuple, gram))
    n = len(rows)
    if n > QuadraticForm.MAX_DIM:
        raise PreconditionError(f"quadratic forms limited to dimension {QuadraticForm.MAX_DIM}")
    if any(len(r) != n for r in rows):
        raise PreconditionError("Gram matrix must be square")
    return rows


def _symmetric(rows):
    """The square tuple ``rows``; PreconditionError unless they are symmetric."""
    if rows != tuple(zip(*rows)):
        raise PreconditionError("Gram matrix must be symmetric")
    return rows


def _raw(field, x):
    """x as a raw representative of ``field``: an int in [0, p) over GF(p),
    an int or a Fraction over QQ."""
    if type(x) is int:
        return x % field.char if field.char else x
    if type(x) is Fraction and not field.char:
        return x
    x = field.coerce(x)
    return x.v if field.char else x


def diagonalize(q: QuadraticForm):
    """Congruence diagonalization: returns (m, d), the change-of-basis matrix
    m as rows of field scalars and the diagonal form d, with m^T G m =
    Gram(d).  Rank is preserved; degenerate forms are fine."""
    m, d = linalg.congruence_diagonalize(q.field, q.gram)
    return m, QuadraticForm(d, q.field)


def _require_prime_field(q: QuadraticForm, who: str):
    if not isinstance(q.field, PrimeField):
        raise FieldMismatch(f"{who} works over prime fields only")


def isotropic_vector(q: QuadraticForm):
    """A nonzero v with q(v) = 0 over F_p, or None when none exists: the
    first vector of the form's Witt basis (``_witt_rows``), None when its
    Witt index is 0.

    For nondegenerate forms a vector always exists once n >= 3; for n = 2 it
    exists iff -disc is a square; n <= 1 is always anisotropic.
    """
    _require_prime_field(q, "isotropic_vector")
    if not q.is_nondegenerate():
        raise PreconditionError("isotropic_vector expects a nondegenerate form")
    cols, h, _, _ = _witt_rows(q._rows, q.field.p)
    return tuple(GFElement(q.field, x) for x in cols[0]) if h else None


def is_split(q: QuadraticForm) -> bool:
    """Whether an even-dimensional form over F_p is split (Witt index n/2).

    A nondegenerate form of dimension 2m over F_p is split iff (-1)^m det G
    is a nonzero square (the classification of quadratic forms over finite
    fields: Lidl-Niederreiter, *Finite Fields*, ch. 6).  Degenerate forms
    are not split.
    """
    _require_prime_field(q, "is_split")
    if q.n % 2:
        raise PreconditionError("is_split expects an even-dimensional form")
    return _split_det(linalg.int_det(q._rows, q.field.p), q.n, q.field.p)


def _split_det(d, n, p) -> bool:
    """Whether an n-dimensional form over F_p (n even) with Gram determinant
    d mod p is split: Euler's criterion on (-1)^(n/2) d."""
    return chi_mod((-1) ** (n // 2) * d, p) == 1


@dataclass(frozen=True)
class WittDecomposition:
    """h hyperbolic planes, an anisotropic residual, and the isometry into
    the split normal form (planes first, residual last): the matrix M, as
    rows of field scalars, with M^T G M the normal form."""

    h: int
    residual: QuadraticForm
    matrix: tuple


def witt_split(q: QuadraticForm) -> WittDecomposition:
    """Witt decomposition of a nondegenerate form over F_p.

    Diagonalizes the form and pairs its diagonal entries into hyperbolic
    planes by their quadratic characters; what remains (dimension <= 2) is
    anisotropic.  The work runs on ints mod p (``_witt_rows``) and is checked
    there: the isometry must carry the Gram matrix of q to the split normal
    form exactly, else VerificationFailure.
    """
    _require_prime_field(q, "witt_split")
    if not q.is_nondegenerate():
        raise DegenerateSystem("witt_split expects a nondegenerate form")
    cols, h, sub, _ = _witt_rows(q._rows, q.field.p)
    return WittDecomposition(h=h, residual=QuadraticForm._of_rows(q.field, sub),
                             matrix=linalg._box(q.field, list(zip(*cols))))


def _witt_rows(g, p):
    """``witt_split`` on nondegenerate int Gram rows g mod p: (cols, h, sub,
    gm).

    ``cols`` is the new basis in original coordinates, v1, u1, ..., vh, uh
    and then the anisotropic residual's basis, and ``sub`` the residual's
    int Gram rows, diagonal.  Checked: the Gram rows of ``cols`` must be h
    hyperbolic planes [[0, 1/2], [1/2, 0]] followed by ``sub``, else
    VerificationFailure.  ``gm`` is G M_q, the product that check forms, for
    M_q the matrix with the columns ``cols``.

    One symmetric elimination (``linalg.int_congruence``) gives diagonal
    entries d_i with basis vectors b_i.  Entries i, j with chi(-d_i d_j) = 1
    span a hyperbolic plane: with t^2 = -d_i / d_j, v = b_i + t b_j and
    u = (b_i - t b_j) / (4 d_i) are isotropic with B(v, u) = 1/2.  Over F_p
    a nondegenerate form is classified by its dimension and discriminant
    (Lidl-Niederreiter, *Finite Fields*, ch. 6), so pairing greedily leaves
    at most one entry of each class, or, when -1 is a non-square, entries
    of one class only.  While three or more of those remain, two of them,
    a and b, are flipped into the other class: with a x^2 + b y^2 = -a
    (solved for y = 1, 2, ...), w1 = x b_i + y b_j and w2 = b y b_i - a x b_j
    are orthogonal with q(w1) = -a and q(w2) = -a^2 b.
    """
    n, half = len(g), (p + 1) // 2
    d, basis = linalg.int_congruence(linalg.with_identity(g), p)
    chi = [chi_mod(x, p) for x in d]
    minus_one = chi_mod(-1, p)
    planes, left, todo = [], [], list(range(n))
    while todo:
        j = todo.pop()
        i = next((i for i in left if chi[i] * chi[j] == minus_one), None)
        if i is None:
            left.append(j)
        else:
            left.remove(i)
            t = sqrt_mod(-d[i] * pow(d[j], -1, p), p)
            s = pow(4 * d[i], -1, p)
            planes.append([(x + t * y) % p for x, y in zip(basis[i], basis[j])])
            planes.append([(x - t * y) * s % p for x, y in zip(basis[i], basis[j])])
        if not todo and len(left) >= 3:
            # all of one class, which happens only when -1 is a non-square
            i, j = left.pop(), left.pop()
            a, b = d[i], d[j]
            y, x, a_inv = 0, None, pow(a, -1, p)
            while x is None:
                y += 1
                x = sqrt_mod(-1 - b * y * y * a_inv, p)
            pairs = list(zip(basis[i], basis[j]))
            basis[i] = [(x * u + y * w) % p for u, w in pairs]
            basis[j] = [(b * y * u - a * x * w) % p for u, w in pairs]
            d[i], d[j] = -a % p, -a * a * b % p
            chi[i] = chi[j] = -chi[i]
            todo = [i, j]

    cols, k = planes + [basis[i] for i in left], len(planes)
    sub = [[d[i] if i == j else 0 for j in left] for i in left]
    target = [[0] * n for _ in range(n)]
    for i in range(0, k, 2):
        target[i][i + 1] = target[i + 1][i] = half
    for i, row in enumerate(sub):
        target[k + i][k:] = row
    gm = linalg.int_mul(g, list(zip(*cols)), p)
    if linalg.int_mul(cols, gm, p) != target:
        raise VerificationFailure("witt_split: the isometry does not reach the split normal form")
    return cols, k // 2, sub, gm


def _products_form(field, n, signs) -> QuadraticForm:
    """sum of sign * x_i * x_j over ``signs`` {(i, j): +-1}, i != j."""
    half = field.one / field.coerce(2)
    g = [[field.zero] * n for _ in range(n)]
    for (i, j), sign in signs.items():
        g[i][j] = g[j][i] = sign * half
    return QuadraticForm(g, field)


# A split form of dimension n (the key) as det (Pf when pf) of a size x size
# matrix of linear forms, with the coordinate z_a in cell cells[a] (and -z_a
# in its mirror when pf): det/Pf is the target form {(i, j): sign} in z.
SplitModel = namedtuple("SplitModel", "size pf cells target")
SPLIT_MODELS = {
    4: SplitModel(2, False, ((0, 0), (0, 1), (1, 0), (1, 1)), {(0, 3): 1, (1, 2): -1}),
    6: SplitModel(4, True, KLEIN_INDEX_PAIRS, {(0, 5): 1, (1, 4): -1, (2, 3): 1}),
}


def matrix_model(a: LinearMatrix, who: str) -> SplitModel:
    """The model of the shape of ``a``; PreconditionError naming ``who``
    unless it is 2x2 over four variables or alternating 4x4 over six."""
    model = SPLIT_MODELS.get(a.nvars)
    if model is None or a.size != model.size or model.pf and not a.alternating:
        raise PreconditionError(
            f"{who} expects 2x2 over four variables or alternating 4x4 over six")
    return model


@functools.lru_cache(maxsize=16)
def _target_split(p: int, n: int):
    """M_t H^-1 mod p as one (column, coefficient) pair per row, cached per
    prime: M_t is the Witt basis of the target form of the n-variable model
    as columns, and H^-1 the inverse of the split normal form, n/2 blocks
    [[0, 2], [2, 0]], so column k of M_t H^-1 is twice column k ^ 1 of M_t.
    The target is a signed sum of products of distinct coordinates, and its
    Witt split pairs signed coordinate vectors, so M_t is a signed
    permutation and M_t H^-1 twice one; ``_signed_permutation`` checks it
    at each prime before it is cached."""
    target = _products_form(GF(p), n, SPLIT_MODELS[n].target)
    cols = _witt_rows(target._rows, p)[0]
    return _signed_permutation(
        [[2 * cols[k ^ 1][i] % p for k in range(n)] for i in range(n)], p)


def _signed_permutation(rows, p):
    """The int ``rows`` mod p as ((column, coefficient), ...), one pair per
    row, when they are twice a signed permutation matrix: each row has one
    nonzero entry, +-2, and no two rows share its column.
    VerificationFailure otherwise."""
    pairs = tuple((j, x) for row in rows for j, x in enumerate(row) if x)
    if (len(pairs) != len(rows) or len({j for j, _ in pairs}) != len(rows)
            or any(x not in (2 % p, -2 % p) for _, x in pairs)):
        raise VerificationFailure("the target's Witt basis is not a signed permutation")
    return pairs


def _model_rows(p: int, gm):
    """R = M_t M_q^{-1} as int rows mod p, for the Witt basis M_q of a split
    form q with Gram matrix G and gm = G M_q: q(M_q u) = H(u) = target(M_t u),
    so target(R x) = q(x).  The transport check M_q^T G M_q = H makes
    M_q^{-1} = H^{-1} M_q^T G = H^{-1} gm^T, the dual basis 2 G u_k, 2 G v_k
    (Lam, *Introduction to Quadratic Forms over Fields*, ch. I), so R is the
    cached M_t H^{-1}, twice a signed permutation, times gm^T: row i of R is
    column j of gm times c, for the pair (j, c) of row i."""
    return [[c * row[j] % p for row in gm] for j, c in _target_split(p, len(gm))]


def _express(q: QuadraticForm, n: int, who: str) -> LinearMatrix:
    """The body of ``express_as_*``: q in the model of dimension n."""
    model = SPLIT_MODELS[n]
    _require_prime_field(q, who)
    if q.n != n:
        raise PreconditionError(f"{who} expects a {n}-variable form")
    if not q.is_nondegenerate():
        raise PreconditionError("form must be nondegenerate")
    p = q.field.p
    _, index, _, gm = _witt_rows(q._rows, p)
    if index != n // 2:
        raise NotSplit(f"form is not split: Witt index {index} < {n // 2}")
    a = LinearMatrix._of_cells(q.field, model.size, n, model.cells, model.pf,
                               _model_rows(p, gm))
    if a._terms(model.pf) != quadratic_terms(q._rows, p):
        raise VerificationFailure(
            f"{who}: {'Pf' if model.pf else 'det'} A(x) differs from the form")
    return a


def express_as_2x2_det(q: QuadraticForm) -> LinearMatrix:
    """Write a split 4-variable form over F_p as det of a 2x2 linear matrix.

    Returns A(x) with det A(x) = q(x) identically (checked; a mismatch raises
    VerificationFailure).  Raises NotSplit when the form has Witt index < 2
    (equivalently: non-square discriminant class).
    """
    return _express(q, 4, "express_as_2x2_det")


def express_as_pfaffian(q: QuadraticForm) -> LinearMatrix:
    """Write a 6-variable form isometric to the Klein form as Pf of an
    alternating 4x4 linear matrix, with Pf(A(x)) = q(x) identically
    (checked; a mismatch raises VerificationFailure).  Raises NotSplit when
    the form has Witt index < 3."""
    return _express(q, 6, "express_as_pfaffian")


__all__ = [
    "QuadraticForm", "WittDecomposition", "KLEIN_INDEX_PAIRS",
    "diagonalize", "isotropic_vector", "is_split", "witt_split",
    "express_as_2x2_det", "express_as_pfaffian",
]
