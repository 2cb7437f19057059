import random
from fractions import Fraction

import pytest

from k3lab import (GF, QQ, MultiPoly, VariableCountMismatch, poly_from_text,
                   poly_to_text)
from oracles import naive_convolution


def rand_poly(rng, field, nvars, deg, terms=6):
    acc = {}
    for _ in range(terms):
        e = [0] * nvars
        for _ in range(rng.randint(0, deg)):
            e[rng.randrange(nvars)] += 1
        if field is QQ:
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        else:
            c = field.element(rng.randrange(field.p))
        acc[tuple(e)] = acc.get(tuple(e), field.zero) + field.coerce(c)
    return MultiPoly(field, nvars, acc)


def test_difference_of_squares():
    x0 = MultiPoly.var(QQ, 2, 0)
    x1 = MultiPoly.var(QQ, 2, 1)
    assert (x0 + x1) * (x0 - x1) == x0**2 - x1**2


def test_eval_example():
    p = MultiPoly(QQ, 2, {(2, 1): 1})  # x0^2 * x1
    assert p.eval((2, 3)) == 12


def test_mul_matches_convolution_oracle():
    rng = random.Random(1)
    for field in (QQ, GF(13)):
        for _ in range(40):
            p = rand_poly(rng, field, 3, 4)
            q = rand_poly(rng, field, 3, 4)
            assert p * q == naive_convolution(p, q)


def test_ring_axioms_random_samples():
    rng = random.Random(2)
    for field in (QQ, GF(11)):
        for _ in range(30):
            p = rand_poly(rng, field, 2, 3, terms=4)
            q = rand_poly(rng, field, 2, 3, terms=4)
            r = rand_poly(rng, field, 2, 3, terms=4)
            assert p * q == q * p
            assert (p + q) * r == p * r + q * r
            assert (p * q) * r == p * (q * r)
            assert p + q == q + p


def test_degree_additivity_over_domain():
    rng = random.Random(3)
    for _ in range(25):
        p = rand_poly(rng, QQ, 3, 3)
        q = rand_poly(rng, QQ, 3, 3)
        if p.is_zero() or q.is_zero():
            continue
        assert (p * q).degree() == p.degree() + q.degree()


def test_zero_degree_convention():
    assert MultiPoly.zero(QQ, 2).degree() == -1
    assert MultiPoly.const(QQ, 2, 5).degree() == 0


def test_variable_count_mismatch():
    p = MultiPoly.var(QQ, 2, 0)
    q = MultiPoly.var(QQ, 3, 0)
    with pytest.raises(VariableCountMismatch):
        _ = p + q
    with pytest.raises(VariableCountMismatch):
        p.eval((1, 2, 3))


def test_text_round_trip_canonical():
    rng = random.Random(4)
    for _ in range(60):
        p = rand_poly(rng, QQ, 3, 4)
        s = poly_to_text(p)
        q = poly_from_text(s, QQ, nvars=3)
        assert q == p
        assert poly_to_text(q) == s  # printer is a fixed point on its output


def test_text_round_trip_gf():
    rng = random.Random(5)
    F = GF(11)
    for _ in range(30):
        p = rand_poly(rng, F, 2, 3)
        s = poly_to_text(p)
        assert poly_from_text(s, F, nvars=2) == p


def test_text_round_trip_property():
    # every field kind, one to five variables, degree up to six, sparse to
    # dense, the zero polynomial and constants included
    rng = random.Random(91)
    for field in (QQ, GF(3), GF(2**31 - 1)):
        for _ in range(80):
            nvars = rng.randint(1, 5)
            p = rand_poly(rng, field, nvars, rng.randint(0, 6), rng.randint(0, 12))
            s = poly_to_text(p)
            q = poly_from_text(s, field, nvars=nvars)
            assert q == p and poly_to_text(q) == s
            # the inferred variable count covers every variable that occurs
            inferred = poly_from_text(s, field)
            assert poly_to_text(inferred) == s and inferred.nvars <= nvars


def test_text_examples():
    p = poly_from_text("3*x0^2*x1 - 2/5*x2^3")
    assert p.nvars == 3
    assert p.coeff((2, 1, 0)) == 3
    assert p.coeff((0, 0, 3)) == Fraction(-2, 5)
    assert poly_to_text(p) == "3*x0^2*x1 - 2/5*x2^3"
    assert poly_to_text(MultiPoly.zero(QQ, 2)) == "0"
    assert poly_from_text("0", QQ, nvars=2).is_zero()


def test_text_tolerates_spacing_and_signs():
    assert poly_from_text("-x0+ 2") == poly_from_text("2 - x0")
    assert poly_from_text("x0 * x1") == poly_from_text("x0*x1")
    assert poly_from_text("x0^1") == poly_from_text("x0")
