"""Tests for exact rational helpers and the quadratic extension type."""

import random
from fractions import Fraction

import pytest

from spin7flow.exact import (QuadExt, exact_sqrt, exact_str, parse_rational,
                             squarefree_decompose)


def test_parse_rational_forms():
    assert parse_rational("3") == Fraction(3)
    assert parse_rational("-3/10") == Fraction(-3, 10)
    assert parse_rational(" 114 / 5 ") == Fraction(114, 5)
    assert parse_rational("0.25") == Fraction(1, 4)
    assert parse_rational(7) == Fraction(7)
    assert parse_rational(Fraction(2, 3)) == Fraction(2, 3)


def test_squarefree_decompose():
    assert squarefree_decompose(1) == (1, 1)
    assert squarefree_decompose(4) == (2, 1)
    assert squarefree_decompose(1440) == (12, 10)
    assert squarefree_decompose(10) == (1, 10)
    rng = random.Random(0)
    for _ in range(200):
        n = rng.randrange(1, 10_000)
        s, d = squarefree_decompose(n)
        assert s * s * d == n
        for p in range(2, 100):
            assert d % (p * p) != 0


def test_exact_sqrt():
    assert exact_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert exact_sqrt(0) == 0
    root = exact_sqrt(Fraction(10, 144))
    assert isinstance(root, QuadExt)
    assert root.d == 10 and root.a == 0 and root.b == Fraction(1, 12)
    assert (root * root) == Fraction(10, 144)
    with pytest.raises(ValueError):
        exact_sqrt(Fraction(-1, 2))


def test_quadext_field_arithmetic():
    r2 = QuadExt(0, 1, 2)
    assert (1 + r2) * (1 - r2) == Fraction(-1)
    assert isinstance((1 + r2) * (1 - r2), Fraction)
    assert r2 * r2 == 2
    assert (r2 ** 4) == 4
    x = QuadExt(Fraction(1, 2), Fraction(-1, 3), 5)
    y = QuadExt(2, 1, 5)
    assert (x + y) - y == x
    assert (x * y) / y == x
    assert x / Fraction(1, 2) == QuadExt(1, Fraction(-2, 3), 5)
    assert 1 / y == y._inverse()
    assert -x + x == 0


def test_quadext_float_and_order():
    r10 = QuadExt(0, Fraction(1, 12), 10)
    assert abs(float(r10) - 10 ** 0.5 / 12) < 1e-15
    assert r10 > 0
    assert QuadExt(0, -1, 10) < 0
    assert abs(QuadExt(0, -1, 10)) == QuadExt(0, 1, 10)


def test_quadext_order_is_exact_at_pell_pairs():
    # p^2 - 2q^2 = +1 puts -p + q*sqrt(2) just below zero and -1 just
    # above; at these sizes both round to the float 0.0.
    below = QuadExt(-768398401, 543339720, 2)
    above = QuadExt(-10812186007, 7645370045, 2)
    assert float(below) == 0.0 and float(above) == 0.0
    assert below < 0 and below <= Fraction(0) and not below >= 0
    assert above > 0 and above >= Fraction(0) and not above <= 0
    assert below < above and above > below
    assert QuadExt(0, 543339720, 2) < 768398401
    assert abs(below) == -below and abs(above) == above
    # A float operand still compares as a float.
    assert not below < 0.0


def test_quadext_mixed_fields():
    r2 = QuadExt(0, 1, 2)
    r3 = QuadExt(0, 1, 3)
    with pytest.raises(TypeError):
        _ = r2 + r3
    with pytest.raises(TypeError):
        _ = r2 < r3
    # A degenerate element with no surd part interoperates across fields.
    assert r2 + QuadExt(5, 0, 3) == QuadExt(5, 1, 2)


def test_exact_str():
    assert exact_str(Fraction(114, 5)) == "114/5"
    assert exact_str(Fraction(3)) == "3"
    assert exact_str(QuadExt(0, Fraction(1, 12), 10)) == "sqrt(10)/12"
    assert exact_str(QuadExt(0, Fraction(-1, 12), 10)) == "-sqrt(10)/12"
    assert exact_str(QuadExt(Fraction(1, 2), Fraction(5, 3), 7)) == "1/2 + 5*sqrt(7)/3"
    assert exact_str(0.5) == "0.5"
