"""Exact quadratic-form algebra over QQ and odd prime fields.

Gram convention: q(x) = x^T G x with G symmetric, so G[i][i] is the
coefficient of x_i^2 and G[i][j] is *half* the coefficient of x_i x_j.
This forces characteristic != 2, which the scalar layer already enforces.
The associated bilinear form is B(u, v) = u^T G v = (q(u+v)-q(u)-q(v))/2.

The split normal form used throughout pairs basis vectors into hyperbolic
planes with Gram [[0, 1/2], [1/2, 0]] (the form x*y), stacked first, with
an anisotropic residual of dimension <= 2 at the end.

``express_as_2x2_det`` and ``express_as_pfaffian`` realize split forms as
det of a 2x2 matrix of linear forms, respectively as the Pfaffian of an
alternating 4x4 one.  The two models are data, one row of ``SPLIT_MODELS``
each, so one body (``_express``) transports the form to the model's
hard-coded target form through explicit Witt decompositions; the Witt
bases of the two targets are cached per prime.  The model needs M_q^-1
for the form's Witt basis M_q, which the Witt split's own transport check
M_q^T G M_q = H gives without an inversion: M_q^-1 = H^-1 (G M_q)^T, the
dual basis.
Both return a LinearMatrix whose det/Pf reproduces the input form
*identically*, which downstream sampling relies on: the check compares the
model's packed int det/Pf expansion with the form's coefficients.  Such
identities are checked with explicit VerificationFailure raises, so they
also hold under ``python -O``.

Over F_p the split test, the isotropic search and the Witt split are
kernels on int Gram rows mod p (``_split_det`` on a ``linalg.int_det``,
``_isotropic_rows``, ``_witt_rows``), which the sampler in ``construction``
calls directly; ``is_split``, ``isotropic_vector`` and ``witt_split`` are
thin wrappers that box their results.  Each step of a Witt split takes the
orthogonal complement of one hyperbolic plane by sparse row operations
(``_complement``).  Forms keep their Gram matrix as raw representatives,
ints or Fractions over QQ as a system file gives them, and are validated
and reduced mod p on those.
"""

from __future__ import annotations

import functools
import random
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from . import linalg
from .errors import (BadPrime, DegenerateSystem, FieldMismatch, NotSplit,
                     PreconditionError, VerificationFailure)
from .polymat import KLEIN_INDEX_PAIRS, LinearMatrix, quadratic_terms
from .scalars import GF, GFElement, PrimeField, QQ, chi_mod, sqrt_mod


class QuadraticForm:
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
        rows = [list(r) for r in gram]
        n = len(rows)
        if n > self.MAX_DIM:
            raise PreconditionError(f"quadratic forms limited to dimension {self.MAX_DIM}")
        if field is None:
            if n == 0:
                raise PreconditionError("dimension-0 form needs an explicit field")
            probe = rows[0][0]
            field = probe.field if hasattr(probe, "field") else QQ
        if any(len(r) != n for r in rows):
            raise PreconditionError("Gram matrix must be square")
        rows = tuple(tuple(_raw(field, x) for x in r) for r in rows)
        if rows != tuple(zip(*rows)):
            raise PreconditionError("Gram matrix must be symmetric")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_gram", None)
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_disc", None)

    def __setattr__(self, *a):
        raise AttributeError("QuadraticForm is immutable")

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
        return f.coerce(_pair_rows(self._rows, x, y))

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
        2**31 or divides a denominator of the Gram matrix (named in the
        message).  The rows are cleared of denominators with one lcm D and
        multiplied by one inverse of D mod p."""
        f = GF(p)
        if self.field.char:
            if self.field is not f:
                raise FieldMismatch(f"form over GF({self.field.char}) reduced mod {p}")
            return self
        # the rows times the lcm D of the denominators, times D^-1 mod p
        rows, scale = linalg.scaled_rows(self._rows, 0)
        if scale % p == 0:
            bad = next(x for row in self._rows for x in row if x.denominator % p == 0)
            raise BadPrime(f"denominator of {bad} vanishes mod {p}")
        inv = pow(scale, -1, p)
        return QuadraticForm._of_rows(f, [[x * inv % p for x in row] for row in rows])

    def __eq__(self, other):
        return (isinstance(other, QuadraticForm) and self.field == other.field
                and self.gram == other.gram)

    __hash__ = None

    def __repr__(self):
        return f"QuadraticForm({self.gram!r})"


def _raw(field, x):
    """x as a raw representative of ``field``: an int in [0, p) over GF(p),
    an int or a Fraction over QQ."""
    if type(x) is int:
        return x % field.char if field.char else x
    if type(x) is Fraction and not field.char:
        return x
    x = field.coerce(x)
    return x.v if field.char else x


def _pair_rows(g, u, v):
    """u^T g v on raw representatives, unreduced."""
    return sum(a * sum(map(mul, row, v)) for a, row in zip(u, g))


def diagonalize(q: QuadraticForm):
    """Congruence diagonalization: returns (m, d), the change-of-basis matrix
    m as rows of field scalars and the diagonal form d, with m^T G m =
    Gram(d).  Rank is preserved; degenerate forms are fine."""
    m, d = linalg.congruence_diagonalize(q.field, q.gram)
    return m, QuadraticForm(d, q.field)


def _require_prime_field(q: QuadraticForm, who: str):
    if not isinstance(q.field, PrimeField):
        raise FieldMismatch(f"{who} works over prime fields only")


# Seeded attempts before a search falls back to its deterministic sweep.
# Each attempt succeeds with probability about 1/2 whatever p is, so the
# fallback runs only when the attempts are exhausted by bad luck or when
# the field is tiny.
SEEDED_DRAWS = 64


def isotropic_vector(q: QuadraticForm, seed: int = 0):
    """A nonzero v with q(v) = 0 over F_p, or None when none exists.

    For nondegenerate forms a vector always exists once n >= 3; for n = 2 it
    exists iff -disc is a square; n <= 1 is always anisotropic.  For n >= 3
    the search draws the first n-1 coordinates w from a seeded generator
    (reproducible) and solves q(w, t) = a t^2 + 2 b t + c = 0 for the last
    coordinate t, which has a root iff b^2 - a c is a square: about half the
    draws, since b^2 - a c is a nondegenerate form in w.  When a = 0 the last
    unit vector is itself isotropic.  After ``SEEDED_DRAWS`` failed draws the
    search falls back to a deterministic solve on a diagonalized ternary
    subform.  The search runs on the form's int Gram rows mod p
    (``_isotropic_rows``), which check q(v) = 0 on the returned vector.
    """
    _require_prime_field(q, "isotropic_vector")
    if not q.is_nondegenerate():
        raise PreconditionError("isotropic_vector expects a nondegenerate form")
    v = _isotropic_rows(q._rows, q.field.p, seed)
    return None if v is None else tuple(GFElement(q.field, x) for x in v)


def _isotropic_rows(g, p, seed):
    """``isotropic_vector`` on nondegenerate int Gram rows g mod p: a nonzero
    int vector v mod p with v^T g v = 0 (checked), or None."""
    n = len(g)
    if n <= 1:
        return None
    if n == 2:
        m, (a, b) = linalg.int_congruence([list(row) for row in g], p)
        s = sqrt_mod(-b * pow(a, -1, p), p)
        if s is None:
            return None
        return _checked_isotropic(g, p, [(r0 * s + r1) % p for r0, r1 in m])

    last = g[n - 1]
    a = last[n - 1]
    if not a:
        return _checked_isotropic(g, p, [0] * (n - 1) + [1])
    rng = random.Random(seed)
    for _ in range(SEEDED_DRAWS):
        w = [rng.randrange(p) for _ in range(n - 1)]
        b = sum(map(mul, last, w))
        s = sqrt_mod(b * b - a * _pair_rows(g, w, w), p)  # q(w, 0) = w^T g w
        if s is not None and any(w):
            return _checked_isotropic(g, p, w + [(s - b) * pow(a, -1, p) % p])

    # Deterministic completion: solve a*x^2 + b*y^2 + c = 0 on the first
    # three diagonal entries (a nondegenerate conic always has an affine
    # point over F_p).
    m, (a, b, c, *_) = linalg.int_congruence([list(row) for row in g], p)
    b_inv = pow(b, -1, p)
    for x in range(p):
        s = sqrt_mod((-c - a * x * x) * b_inv, p)
        if s is not None:
            return _checked_isotropic(g, p, [(r[0] * x + r[1] * s + r[2]) % p for r in m])
    raise VerificationFailure("ternary conics over F_p are isotropic, but none was found")


def _checked_isotropic(g, p, v):
    if _pair_rows(g, v, v) % p:
        raise VerificationFailure("isotropic_vector: q(v) != 0 for the returned vector")
    return v


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


def witt_split(q: QuadraticForm, seed: int = 0) -> WittDecomposition:
    """Witt decomposition of a nondegenerate form over F_p.

    Splits off hyperbolic planes one at a time: find an isotropic v, a
    partner u with B(v, u) = 1/2 and q(u) = 0, then recurse on the
    orthogonal complement; what remains (dimension <= 2) is anisotropic.
    The work runs on ints mod p (``_witt_rows``) and is checked there: the
    isometry must carry the Gram matrix of q to the split normal form
    exactly, else VerificationFailure.
    """
    _require_prime_field(q, "witt_split")
    if not q.is_nondegenerate():
        raise DegenerateSystem("witt_split expects a nondegenerate form")
    cols, h, sub, _ = _witt_rows(q._rows, q.field.p, seed)
    return WittDecomposition(h=h, residual=QuadraticForm._of_rows(q.field, sub),
                             matrix=linalg._box(q.field, list(zip(*cols))))


def _witt_rows(g, p, seed):
    """``witt_split`` on nondegenerate int Gram rows g mod p: (cols, h, sub,
    gm).

    ``cols`` is the new basis in original coordinates, v1, u1, ..., vh, uh
    and then the anisotropic residual's basis, and ``sub`` the residual's
    int Gram rows.  Checked: the Gram rows of ``cols`` must be h hyperbolic
    planes [[0, 1/2], [1/2, 0]] followed by ``sub``, else VerificationFailure.
    ``gm`` is G M_q, the product that check forms, for M_q the matrix with
    the columns ``cols``.  Each plane's orthogonal complement comes from
    ``_complement``.
    """
    n, half = len(g), (p + 1) // 2
    # `embed` holds the current subspace basis as rows in original coords,
    # and `sub` the subspace's Gram matrix E G E^T.
    embed = [[int(i == j) for j in range(n)] for i in range(n)]
    sub = [list(row) for row in g]
    planes = []  # v1, u1, v2, u2, ... in original coords
    while True:
        v = _isotropic_rows(sub, p, seed)
        if v is None:
            break
        gv = [sum(map(mul, row, v)) % p for row in sub]  # gv[i] = B(v, e_i)
        j = next(i for i, x in enumerate(gv) if x)
        # u = s e_j has B(v, u) = 1/2; subtracting q(u) v makes it isotropic
        # without touching B(v, u).
        s = half * pow(gv[j], -1, p) % p
        t = sub[j][j] * s * s
        u = [-t * x % p for x in v]
        u[j] = (u[j] + s) % p
        gu = [sum(map(mul, row, u)) % p for row in sub]
        planes += linalg.int_mul([v, u], embed, p)
        # B(v, u) = 1/2 makes gv, gu independent
        embed, sub = _complement(gv, gu, embed, sub, p)

    cols, k = planes + embed, len(planes)
    target = [[0] * n for _ in range(n)]
    for i in range(0, k, 2):
        target[i][i + 1] = target[i + 1][i] = half
    for i, row in enumerate(sub):
        target[k + i][k:] = row
    gm = linalg.int_mul(g, list(zip(*cols)), p)
    if linalg.int_mul(cols, gm, p) != target:
        raise VerificationFailure("witt_split: the isometry does not reach the split normal form")
    return cols, k // 2, sub, gm


def _complement(gv, gu, embed, sub, p):
    """(N E, N S N^T) mod p for the rows N of the right kernel of [gv; gu]
    (two independent int rows mod p) as ``linalg.int_nullspace`` returns
    them, E = ``embed`` and S = ``sub`` symmetric: the basis and the Gram
    rows of the orthogonal complement of span(v, u) when gv = S v, gu = S u.

    With r1, r2 the rows of the reduced echelon form of [gv; gu] and c1, c2
    its pivot columns, the kernel row of free column f is
    w_f = e_f - r1[f] e_c1 - r2[f] e_c2, three nonzeros, so both products
    are row operations: O(m n) and O(m^2) instead of general products.
    """
    (r1, r2), (c1, c2), _ = linalg.int_rref([gv, gu], len(gv), p)
    free = [f for f in range(len(gv)) if f != c1 and f != c2]

    def combine(rows, f):  # w_f^T rows
        return [(x - r1[f] * y - r2[f] * z) % p for x, y, z in zip(rows[f], rows[c1], rows[c2])]

    sw = [combine(sub, f) for f in free]  # the rows w_f^T S = (S w_f)^T
    return ([combine(embed, f) for f in free],
            [[(w[f] - r1[f] * w[c1] - r2[f] * w[c2]) % p for w in sw] for f in free])


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
    """M_t H^-1 as int rows mod p, cached per prime: M_t is the Witt basis
    of the target form of the n-variable model as columns, and H^-1 the
    inverse of the split normal form, n/2 blocks [[0, 2], [2, 0]], so column
    k of M_t H^-1 is twice column k ^ 1 of M_t."""
    target = _products_form(GF(p), n, SPLIT_MODELS[n].target)
    cols = _witt_rows(target._rows, p, 0)[0]
    return tuple(tuple(2 * cols[k ^ 1][i] % p for k in range(n)) for i in range(n))


def _model_rows(p: int, gm):
    """R = M_t M_q^{-1} as int rows mod p, for the Witt basis M_q of a split
    form q with Gram matrix G and gm = G M_q: q(M_q u) = H(u) = target(M_t u),
    so target(R x) = q(x).  The transport check M_q^T G M_q = H makes
    M_q^{-1} = H^{-1} M_q^T G = H^{-1} gm^T, the dual basis 2 G u_k, 2 G v_k
    (Lam, *Introduction to Quadratic Forms over Fields*, ch. I), so R is one
    product with the cached M_t H^{-1}."""
    return linalg.int_mul(_target_split(p, len(gm)), list(zip(*gm)), p)


def _express(q: QuadraticForm, n: int, seed: int, who: str) -> LinearMatrix:
    """The body of ``express_as_*``: q in the model of dimension n."""
    model = SPLIT_MODELS[n]
    _require_prime_field(q, who)
    if q.n != n:
        raise PreconditionError(f"{who} expects a {n}-variable form")
    if not q.is_nondegenerate():
        raise PreconditionError("form must be nondegenerate")
    p = q.field.p
    _, index, _, gm = _witt_rows(q._rows, p, seed)
    if index != n // 2:
        raise NotSplit(f"form is not split: Witt index {index} < {n // 2}")
    a = LinearMatrix._of_cells(q.field, model.size, n, model.cells, model.pf,
                               _model_rows(p, gm))
    if a._terms(model.pf) != quadratic_terms(q._rows, p):
        raise VerificationFailure(
            f"{who}: {'Pf' if model.pf else 'det'} A(x) differs from the form")
    return a


def express_as_2x2_det(q: QuadraticForm, seed: int = 0) -> LinearMatrix:
    """Write a split 4-variable form over F_p as det of a 2x2 linear matrix.

    Returns A(x) with det A(x) = q(x) identically (checked; a mismatch raises
    VerificationFailure).  Raises NotSplit when the form has Witt index < 2
    (equivalently: non-square discriminant class).
    """
    return _express(q, 4, seed, "express_as_2x2_det")


def express_as_pfaffian(q: QuadraticForm, seed: int = 0) -> LinearMatrix:
    """Write a 6-variable form isometric to the Klein form as Pf of an
    alternating 4x4 linear matrix, with Pf(A(x)) = q(x) identically
    (checked; a mismatch raises VerificationFailure).  Raises NotSplit when
    the form has Witt index < 3."""
    return _express(q, 6, seed, "express_as_pfaffian")


__all__ = [
    "QuadraticForm", "WittDecomposition", "KLEIN_INDEX_PAIRS",
    "diagonalize", "isotropic_vector", "is_split", "witt_split",
    "express_as_2x2_det", "express_as_pfaffian",
]
