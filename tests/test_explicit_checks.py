"""Every explicit check of the package bites, including those that the
rest of the suite never reaches.

A line trace of the test suite lists the ``raise`` statements in
``src/k3lab`` that no other test executes: refusals of bad shapes,
fields, types and arguments on the library API, and a few guards that the
CLI makes unreachable.  Each row of ``ROWS`` forces one of them: a
callable, its arguments, the exception class and a regex its message must
match.  A row whose check is deleted or changed fails the test.  It fails
through ``pytest.fail``, so it also holds under ``python -O``.
"""

import argparse
import operator
import re

import pytest

from k3lab import (GF, QQ, BinaryQuartic, FieldMismatch, IntegralLattice, LinearMatrix,
                   MultiPoly, NetOfQuadrics, PencilOfQuadrics, PolyMatrix,
                   PreconditionError, QuadraticForm, VariableCountMismatch,
                   VerificationFailure, b_coordinates, count_points, express_as_2x2_det,
                   fano_degree, is_split, poly_from_text, sample_point,
                   sextic_smoothness_probe, type_ii_expected_dim)
from k3lab import cli, quadforms
from k3lab.cli import CLIParseError

F7 = GF(7)
X_QQ = MultiPoly.var(QQ, 2, 0)
X_F7 = MultiPoly.var(F7, 2, 0)
X_3 = MultiPoly.var(QQ, 3, 0)
# the 2x2 linear matrix [[x0, x1], [x2, x3]] over GF(7)
A_F7 = LinearMatrix(F7, 2, 4, [[[int(2 * i + j == k) for j in range(2)] for i in range(2)]
                               for k in range(4)])
PENCIL_F7 = PencilOfQuadrics.from_diagonals([1, 1, 1, 1], [0, 1, 2, 3], F7)
PENCIL_F11 = PencilOfQuadrics.from_diagonals([1, 1, 1, 1], [0, 1, 2, 3], GF(11))
NET_F7 = NetOfQuadrics.from_diagonals([1] * 6, [0, 1, 2, 3, 4, 5], [0, 1, 4, 2, 2, 4], F7)
ALTERNATING = [[[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]] * 6

# (callable, arguments, exception class, message regex)
ROWS = [
    # the value types are immutable
    (setattr, (IntegralLattice([[2]]), "label", "x"), AttributeError,
     "IntegralLattice is immutable"),
    (setattr, (X_QQ, "nvars", 3), AttributeError, "MultiPoly is immutable"),
    (setattr, (PolyMatrix([[X_QQ]]), "nvars", 3), AttributeError, "PolyMatrix is immutable"),
    (setattr, (A_F7, "size", 3), AttributeError, "LinearMatrix is immutable"),
    (setattr, (QuadraticForm([[1]]), "n", 2), AttributeError, "QuadraticForm is immutable"),
    (setattr, (BinaryQuartic([1, 0, 0, 0, 1]), "field", F7), AttributeError,
     "BinaryQuartic is immutable"),
    (setattr, (PENCIL_F7, "field", QQ), AttributeError, "^PencilOfQuadrics is immutable$"),
    (setattr, (NET_F7, "forms", ()), AttributeError, "^NetOfQuadrics is immutable$"),
    (setattr, (F7.element(3), "v", 5), AttributeError, "^GFElement is immutable$"),
    (setattr, (GF(11), "p", 13), AttributeError, "^PrimeField is immutable$"),
    (setattr, (QQ, "char", 5), AttributeError, "^RationalField is immutable$"),
    (delattr, (GF(11), "p"), AttributeError, "^PrimeField is immutable$"),
    (delattr, (X_QQ, "terms"), AttributeError, "^MultiPoly is immutable$"),
    (operator.setitem, (X_QQ.terms, (0, 0), 1), TypeError, "does not support item assignment"),
    # scalars
    (QQ.coerce, (1.5,), FieldMismatch, r"^cannot coerce 1\.5 into QQ$"),
    (QQ.coerce, (F7.element(3),), FieldMismatch, r"^element of GF\(7\) used in QQ$"),
    (F7.coerce, (1.5,), FieldMismatch, r"^cannot coerce 1\.5 into GF\(7\)$"),
    (operator.truediv, (1, F7.element(0)), ZeroDivisionError, r"^division by zero in GF\(7\)$"),
    # polynomials
    (MultiPoly, (QQ, 2, {(1,): 1}), VariableCountMismatch,
     r"^bad exponent vector \(1,\) for 2 variables$"),
    (MultiPoly.var, (QQ, 2, 2), VariableCountMismatch,
     "^variable index 2 out of range for 2 variables$"),
    (operator.add, (X_QQ, X_F7), FieldMismatch, "^polynomials over different fields$"),
    (operator.pow, (X_QQ, -1), PreconditionError, "^negative polynomial power$"),
    (poly_from_text, (" ",), PreconditionError, "^empty polynomial text$"),
    (poly_from_text, ("x0 + y0",), PreconditionError, "^cannot parse polynomial term 'y0'$"),
    (poly_from_text, ("x3", QQ, 2), VariableCountMismatch,
     "^variable index exceeds declared count 2$"),
    (BinaryQuartic, ([1, 2, 3],), PreconditionError, "^a binary quartic has five coefficients$"),
    # matrices of polynomials and linear matrices
    (PolyMatrix, ([],), PreconditionError, "^empty matrix$"),
    (PolyMatrix, ([[X_QQ, X_QQ], [X_QQ]],), PreconditionError, "^ragged matrix$"),
    (PolyMatrix, ([[1]],), PreconditionError, "^entries must be MultiPoly$"),
    (PolyMatrix, ([[X_QQ, X_F7]],), FieldMismatch, "^entries over different fields$"),
    (PolyMatrix, ([[X_QQ, X_3]],), VariableCountMismatch,
     "^entries over different variable sets$"),
    (LinearMatrix, (QQ, 2, 3, [[[1, 0], [0, 1]]] * 2), VariableCountMismatch,
     "^expected 3 coefficient matrices, got 2$"),
    (LinearMatrix, (QQ, 2, 1, [[[1, 0, 0], [0, 1, 0]]]), PreconditionError,
     "^coefficient matrices must be 2x2$"),
    (A_F7.left_right_transform, ([[1]], [[1, 0], [0, 1]]), PreconditionError,
     "^transforms need 2x2 matrices$"),
    (LinearMatrix(F7, 4, 6, ALTERNATING).congruence_transform, ([[1, 0], [0, 1]],),
     PreconditionError, "^transforms need 4x4 matrices$"),
    # quadratic forms
    (QuadraticForm, ([],), PreconditionError, "^dimension-0 form needs an explicit field$"),
    (QuadraticForm([[1]], F7).reduce_mod, (11,), FieldMismatch,
     r"^form over GF\(7\) reduced mod 11$"),
    (is_split, (QuadraticForm([[1]]),), FieldMismatch, "^is_split works over prime fields only$"),
    (express_as_2x2_det, (QuadraticForm([[1, 0], [0, 1]], F7),), PreconditionError,
     "^express_as_2x2_det expects a 4-variable form$"),
    (quadforms._signed_permutation, ([[2, 0], [0, 1]], 7), VerificationFailure,
     "^the target's Witt basis is not a signed permutation$"),
    (quadforms._signed_permutation, ([[2, 0], [2, 0]], 7), VerificationFailure,
     "^the target's Witt basis is not a signed permutation$"),
    (quadforms._signed_permutation, ([[2, 2], [0, 5]], 7), VerificationFailure,
     "^the target's Witt basis is not a signed permutation$"),
    # systems, sampling and the relation
    (b_coordinates, (A_F7, PENCIL_F11), FieldMismatch,
     "^matrix and system over different fields$"),
    (b_coordinates, (A_F7, NET_F7), VariableCountMismatch,
     "^matrix and system in different numbers of variables$"),
    (sample_point, (QuadraticForm([[1]]), 7), PreconditionError,
     "^expected a pencil or a net$"),
    (count_points, (QuadraticForm([[1]]), 7), PreconditionError,
     "^count_points expects a pencil or a binary quartic$"),
    (sextic_smoothness_probe, (X_3 * X_3, (7,)), PreconditionError,
     "^probe expects a nonzero homogeneous plane sextic$"),
    (sextic_smoothness_probe, (poly_from_text("x0^6 + x1^6 + x2^6", F7, 3), (11,)),
     FieldMismatch, r"^element of GF\(7\) used in GF\(11\)$"),
    # lattices and enumerative bookkeeping
    (IntegralLattice, ([[1, 0]],), PreconditionError, "^Gram matrix must be square$"),
    (IntegralLattice, ([[0, 1], [0, 0]],), PreconditionError, "^Gram matrix must be symmetric$"),
    (type_ii_expected_dim, (1, 0), PreconditionError, "^genus must be at least 2$"),
    (type_ii_expected_dim, (3, -1), PreconditionError, "^section count must be non-negative$"),
    (fano_degree, (1,), PreconditionError, "^genus must be at least 2$"),
    # guards of the CLI that no argv reaches
    (cli._jsonable, (PENCIL_F7,), TypeError, "^no JSON form for "),
    (cli._run, (argparse.Namespace(group="nope", action="none"),), CLIParseError,
     "^unknown command nope none$"),
]


def test_every_row_raises_its_check():
    problems = []
    for i, (fn, args, exc, pattern) in enumerate(ROWS):
        where = f"row {i} ({getattr(fn, '__qualname__', fn)})"
        try:
            fn(*args)
        except exc as err:
            if not re.search(pattern, str(err)):
                problems.append(f"{where}: message {str(err)!r} does not match {pattern!r}")
            continue
        except Exception as err:  # noqa: BLE001 - any other outcome is the failure
            problems.append(f"{where}: raised {type(err).__name__}: {err}, "
                            f"want {exc.__name__}")
            continue
        problems.append(f"{where}: returned, want {exc.__name__}")
    if problems:
        pytest.fail("\n".join(problems))


def test_refused_assignments_leave_fields_and_elements_unchanged():
    # GF(p) is cached process-wide and elements are hashed, so an assignment
    # that went through would change every later GF(11) or lose x from s
    x = GF(11).element(3)
    s = {x}
    for obj, name in ((GF(11), "p"), (GF(11), "char"), (x, "field"), (x, "v"),
                      (QQ, "char")):
        with pytest.raises(AttributeError):
            setattr(obj, name, GF(13) if name == "field" else 13)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    if not (GF(11).p == GF(11).char == 11 and QQ.char == 0):
        pytest.fail(f"GF(11) has p = {GF(11).p}, char {GF(11).char}; QQ has char {QQ.char}")
    if not (x.field is GF(11) and x.v == 3 and x in s):
        pytest.fail("a refused assignment changed a GF(11) element")
