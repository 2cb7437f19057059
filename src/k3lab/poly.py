"""Multivariate polynomials with exact coefficients.

A polynomial is a map from exponent vectors (tuples of non-negative
integers, one slot per variable) to nonzero scalars over a fixed field.
Zero coefficients are never stored, so equal polynomials have identical
term dictionaries and identical text serializations.

Monomials are ordered graded-lexicographically (total degree first, then
lexicographic with x0 heaviest); printing walks this order descending.

Text format
-----------
Terms of the shape ``<coeff>*x<i>^<e>`` joined by `` + `` / `` - ``, e.g.::

    3*x0^2*x1 - 2/5*x2^3

A coefficient of one is omitted before a monomial, exponent one is written
bare, the zero polynomial prints as ``0``.  ``poly_from_text`` accepts any
whitespace around operators and round-trips printer output bit-exactly.
"""

from __future__ import annotations

import re

from .errors import FieldMismatch, PreconditionError, VariableCountMismatch
from .scalars import QQ, Fraction, GFElement


class MultiPoly:
    """Immutable multivariate polynomial over QQ or GF(p)."""

    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field, nvars: int, terms=None):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "nvars", nvars)
        clean = {}
        for exps, c in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != nvars or any((not isinstance(e, int)) or e < 0 for e in exps):
                raise VariableCountMismatch(f"bad exponent vector {exps} for {nvars} variables")
            c = field.coerce(c)
            if c:
                acc = clean.get(exps)
                clean[exps] = c if acc is None else acc + c
                if not clean[exps]:
                    del clean[exps]
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors ---------------------------------------------------
    @classmethod
    def _of_terms(cls, field, nvars, terms):
        """Wrap a dict that is already canonical (exponent tuples of length
        ``nvars`` -> nonzero scalars of ``field``) without validating it: for
        the package's own results."""
        out = object.__new__(cls)
        object.__setattr__(out, "field", field)
        object.__setattr__(out, "nvars", nvars)
        object.__setattr__(out, "terms", terms)
        return out

    @classmethod
    def zero(cls, field, nvars):
        return cls(field, nvars, {})

    @classmethod
    def const(cls, field, nvars, c):
        return cls(field, nvars, {(0,) * nvars: c})

    @classmethod
    def var(cls, field, nvars, i, exp=1):
        if not 0 <= i < nvars:
            raise VariableCountMismatch(f"variable index {i} out of range for {nvars} variables")
        e = [0] * nvars
        e[i] = exp
        return cls(field, nvars, {tuple(e): field.one})

    # -- ring structure -------------------------------------------------
    def _check(self, other):
        """The operand check of MultiPoly arithmetic: one field, one variable set."""
        if other.field != self.field:
            raise FieldMismatch("polynomials over different fields")
        if other.nvars != self.nvars:
            raise VariableCountMismatch(
                f"variable counts differ: {self.nvars} vs {other.nvars}")

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        acc = dict(self.terms)
        for e, c in other.terms.items():
            s = acc.get(e)
            acc[e] = c if s is None else s + c
        return MultiPoly(self.field, self.nvars, acc)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return MultiPoly(self.field, self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            try:
                c = self.field.coerce(other)
            except (FieldMismatch, ValueError):
                return NotImplemented
            return MultiPoly(self.field, self.nvars, {e: c * v for e, v in self.terms.items()})
        self._check(other)
        acc = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                s = acc.get(e)
                acc[e] = c if s is None else s + c
        return MultiPoly(self.field, self.nvars, acc)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise PreconditionError("negative polynomial power")
        out = MultiPoly.const(self.field, self.nvars, self.field.one)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (self.field == other.field and self.nvars == other.nvars
                and self.terms == other.terms)

    __hash__ = None

    # -- queries ---------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Max total degree of stored monomials; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def is_homogeneous(self, d=None) -> bool:
        degs = {sum(e) for e in self.terms}
        if not degs:
            return True
        return degs == {d if d is not None else next(iter(degs))}

    def coeff(self, exps):
        return self.terms.get(tuple(exps), self.field.zero)

    def sorted_terms(self):
        """Terms in descending graded-lex order (the canonical print order)."""
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

    # -- evaluation ----------------------------------------------------
    def eval(self, values):
        if len(values) != self.nvars:
            raise VariableCountMismatch(
                f"expected {self.nvars} values, got {len(values)}")
        vals = [self.field.coerce(v) for v in values]
        acc = self.field.zero
        for e, c in self.terms.items():
            t = c
            for v, k in zip(vals, e):
                if k:
                    t = t * v**k
            acc = acc + t
        return acc

    def __repr__(self):
        return f"MultiPoly({self.field!r}, {poly_to_text(self)!r})"

    def __str__(self):
        return poly_to_text(self)


def _monomial_text(exps):
    parts = []
    for i, e in enumerate(exps):
        if e == 1:
            parts.append(f"x{i}")
        elif e > 1:
            parts.append(f"x{i}^{e}")
    return "*".join(parts)


def poly_to_text(p: MultiPoly) -> str:
    if p.is_zero():
        return "0"
    chunks = []
    for e, c in p.sorted_terms():
        if isinstance(c, Fraction) and c < 0:
            sign, mag = "-", -c
        else:
            sign, mag = "+", c
        mono = _monomial_text(e)
        if not mono:
            body = _scalar_text(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{_scalar_text(mag)}*{mono}"
        chunks.append((sign, body))
    first_sign, first_body = chunks[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in chunks[1:]:
        out += f" {sign} {body}"
    return out


def _scalar_text(c) -> str:
    if isinstance(c, GFElement):
        return str(c.v)
    return str(c)


_TERM_RE = re.compile(
    r"\s*(?P<coeff>\d+(?:\s*/\s*\d+)?)?\s*"
    r"(?P<monom>(?:\*?\s*x\d+(?:\s*\^\s*\d+)?\s*)*)$"
)
_VAR_RE = re.compile(r"x(\d+)(?:\s*\^\s*(\d+))?")


def poly_from_text(s: str, field=QQ, nvars=None) -> MultiPoly:
    """Parse the text format back into a polynomial.

    When ``nvars`` is None the variable count is inferred as one plus the
    largest index that occurs (0 for a constant).
    """
    s = s.strip()
    if not s:
        raise PreconditionError("empty polynomial text")
    # Split into signed terms.  Signs only ever occur as separators (or
    # leading), so every +/- outside a term body starts a new term.
    pieces = []
    sign, buf, started = 1, [], False
    for ch in s:
        if ch in "+-" and started:
            pieces.append((sign, "".join(buf)))
            sign, buf, started = (1 if ch == "+" else -1), [], False
        elif ch in "+-":
            if ch == "-":
                sign = -sign
        else:
            buf.append(ch)
            if not ch.isspace():
                started = True
    pieces.append((sign, "".join(buf)))

    parsed = []
    max_index = -1
    for sgn, text in pieces:
        text = text.strip()
        m = _TERM_RE.fullmatch(text)
        if m is None or (m.group("coeff") is None and not m.group("monom").strip()):
            raise PreconditionError(f"cannot parse polynomial term {text!r}")
        coeff_txt = m.group("coeff")
        coeff = Fraction(coeff_txt.replace(" ", "")) if coeff_txt else Fraction(1)
        if sgn < 0:
            coeff = -coeff
        exps = {}
        for vm in _VAR_RE.finditer(m.group("monom")):
            i = int(vm.group(1))
            e = int(vm.group(2)) if vm.group(2) else 1
            exps[i] = exps.get(i, 0) + e
            max_index = max(max_index, i)
        parsed.append((coeff, exps))

    n = nvars if nvars is not None else max_index + 1
    acc = {}
    for coeff, exps in parsed:
        if any(i >= n for i in exps):
            raise VariableCountMismatch(
                f"variable index exceeds declared count {n}")
        key = tuple(exps.get(i, 0) for i in range(n))
        c = field.coerce(coeff)
        prev = acc.get(key)
        acc[key] = c if prev is None else prev + c
    return MultiPoly(field, n, acc)
