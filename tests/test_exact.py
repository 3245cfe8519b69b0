"""Tests for exact rational helpers and the quadratic extension type."""

import operator
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from spin7flow.exact import (TRIAL_DIVISION_BOUND, QuadExt,
                             _square_decompose, exact_sqrt, exact_str,
                             parse_rational)


def test_parse_rational_forms():
    assert parse_rational("3") == Fraction(3)
    assert parse_rational("-3/10") == Fraction(-3, 10)
    assert parse_rational(" 114 / 5 ") == Fraction(114, 5)
    assert parse_rational("0.25") == Fraction(1, 4)
    assert parse_rational(7) == Fraction(7)
    assert parse_rational(Fraction(2, 3)) == Fraction(2, 3)


def test_squarefree_decompose():
    # Below B**2 trial division factors n completely: d is squarefree.
    assert _square_decompose(1) == (1, 1)
    assert _square_decompose(4) == (2, 1)
    assert _square_decompose(1440) == (12, 10)
    assert _square_decompose(10) == (1, 10)
    rng = random.Random(0)
    for _ in range(200):
        n = rng.randrange(1, 10_000)
        s, d = _square_decompose(n)
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


# Mersenne primes 2^p - 1 of 19, 27, 33 and 39 digits.
M61, M89, M107, M127 = (2 ** p - 1 for p in (61, 89, 107, 127))


def _assert_squares_back(value):
    r = exact_sqrt(value)
    assert isinstance(r, QuadExt) and r * r == value
    q = Fraction(value)
    n = q.numerator * q.denominator
    s, d = _square_decompose(n)
    assert s * s * d == n


def test_large_inputs_end_within_a_bound():
    """60-90-digit inputs whose cofactors have prime factors above B:
    every root is exact after at most B/2 divisions and one isqrt."""
    start = time.perf_counter()
    root = M89 * 10 ** 10 + 7
    assert exact_sqrt(Fraction(root ** 2, M61 ** 2)) == Fraction(root, M61)
    # A square cofactor goes into s; any other cofactor stays in d.
    assert _square_decompose(6 * M127 ** 2) == (M127, 6)
    assert _square_decompose(72 * M107 ** 2) == (6 * M107, 2)
    assert _square_decompose(12 * 100003 * 100019) == \
        (2, 3 * 100003 * 100019)
    assert _square_decompose(M61 * M89 ** 2) == (1, M61 * M89 ** 2)
    assert 100003 > TRIAL_DIVISION_BOUND
    for n in (1001 * M61 * M127, M89 * M127, 30 * M61 * M89 * M107,
              M61 * M89 ** 2, 2 ** 30 * M107 * M127):
        assert 60 <= len(str(n)) <= 90
        _assert_squares_back(n)
    for value in (6 * M127 ** 2, 72 * M107 ** 2, 12 * 100003 * 100019,
                  Fraction(M89, M127)):
        _assert_squares_back(value)
    assert time.perf_counter() - start < 2.0


def test_cofactors_past_the_cube_bound_are_decided():
    # 999999000001 and 1000003 are primes above B: their product stays
    # in d without being split.
    n = 999999000001 * 1000003
    assert n >= TRIAL_DIVISION_BOUND ** 3
    assert _square_decompose(n) == (1, n)
    assert _square_decompose(10 * M61) == (1, 10 * M61)
    # Strong pseudoprime to the first nine prime bases, all factors > B.
    psp = 149491 * 747451 * 34233211
    assert _square_decompose(psp) == (1, psp)
    assert _square_decompose(12 * 149491 * psp) == (2, 3 * 149491 * psp)
    assert _square_decompose(1000003 ** 3 * 999999000001) == \
        (1, 1000003 ** 3 * 999999000001)
    assert exact_sqrt(Fraction(n, 4)) == QuadExt(0, Fraction(1, 2), n)
    # The same numbers, read in the field of their squarefree part.
    assert exact_sqrt(12 * 149491 * psp) == \
        QuadExt(0, 2 * 149491, 3 * 747451 * 34233211)
    assert exact_sqrt(1000003 ** 3 * 999999000001) == \
        QuadExt(0, 1000003, 1000003 * 999999000001)
    for value in (n, 10 * M61, psp, 12 * 149491 * psp,
                  1000003 ** 3 * 999999000001, Fraction(n, 4)):
        _assert_squares_back(value)


@settings(max_examples=50, deadline=None)
@given(st.sampled_from((100003, 1000003, 999999000001, M61)),
       st.integers(1, 10 ** 6), st.sampled_from((1, 1, 4, 9)))
def test_exact_sqrt_squares_back_past_the_trial_bound(p, m, den):
    # p*p survives trial division whenever m keeps the cofactor from
    # being a square; the root still squares back exactly.
    n = Fraction(p * p * (100019 * m), den)
    r = exact_sqrt(n)
    assert r * r == n and r > 0
    assert r == p * exact_sqrt(Fraction(100019 * m, den))


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


@pytest.mark.parametrize("d", [-4, 0, 1, 4, 9, 144, 10 ** 40])
def test_quadext_refuses_d_below_two_or_a_perfect_square(d):
    """sqrt(d) must be irrational: with d = 4, QuadExt(0, 1, 4) would be
    a 2 that compares unequal to 2."""
    with pytest.raises(ValueError, match="perfect square"):
        QuadExt(0, 1, d)


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
    # sqrt(8) = 2*sqrt(2): one field, matched by a square test.
    assert QuadExt(0, 1, 8) == 2 * r2 and r2 + QuadExt(0, 1, 8) == 3 * r2


def test_exact_str():
    assert exact_str(Fraction(114, 5)) == "114/5"
    assert exact_str(Fraction(3)) == "3"
    assert exact_str(QuadExt(0, Fraction(1, 12), 10)) == "sqrt(10)/12"
    assert exact_str(QuadExt(0, Fraction(-1, 12), 10)) == "-sqrt(10)/12"
    assert exact_str(QuadExt(Fraction(1, 2), Fraction(5, 3), 7)) == "1/2 + 5*sqrt(7)/3"
    assert exact_str(0.5) == "0.5"


# ---------------------------------------------------------------------------
# QuadExt properties against the exact (a, b) pair expansion

small = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def same_field(draw, count=3):
    d = draw(st.sampled_from((2, 3, 5, 6, 7, 10, 13)))
    return d, [QuadExt(draw(small), draw(small), d) for _ in range(count)]


def pair(value):
    if isinstance(value, QuadExt):
        return value.a, value.b
    return Fraction(value), Fraction(0)


@settings(max_examples=100, deadline=1000)
@given(same_field())
def test_quadext_field_laws(case):
    d, (x, y, z) = case
    (xa, xb), (ya, yb) = pair(x), pair(y)
    assert pair(x + y) == (xa + ya, xb + yb)
    assert pair(x - y) == (xa - ya, xb - yb)
    assert pair(x * y) == (xa * ya + xb * yb * d, xa * yb + xb * ya)
    assert x + y == y + x and x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + 0 == x and x * 1 == x and x - x == 0
    assert -x + x == 0 and x * 0 == 0
    if x != 0:
        assert x * (1 / x) == 1
        assert (y / x) * x == y
    assert x ** 2 == x * x
    # Results with no surd part collapse to Fraction.
    assert isinstance(x - QuadExt(0, xb, d), Fraction)


@settings(max_examples=100, deadline=1000)
@given(same_field())
def test_quadext_order(case):
    _, (x, y, z) = case
    assert sum((x < y, x == y, x > y)) == 1
    assert (x <= y) == (x < y or x == y)
    assert (x >= y) == (y <= x)
    if x < y:
        assert x + z < y + z
        if z > 0:
            assert x * z < y * z
    if x < y and y < z:
        assert x < z
    assert abs(x) >= 0 and (abs(x) == x or abs(x) == -x)
    if abs(float(x) - float(y)) > 1e-9:
        assert (x < y) == (float(x) < float(y))


@settings(max_examples=100, deadline=1000)
@given(small, small.filter(bool), st.sampled_from((2, 3, 5, 6, 7, 10, 13)),
       st.integers(2, 12), small, small)
def test_surd_with_square_factor_is_the_same_number(a, b, d, s, c, e):
    # sqrt(s*s*d) and s*sqrt(d) agree in arithmetic, order, equality and hash.
    x, y = QuadExt(a, b, s * s * d), QuadExt(a, b * s, d)
    z = QuadExt(c, e, d)
    assert x == y and y == x and not x != y
    assert hash(x) == hash(y)
    assert not x < y and not y < x and x <= y and x >= y
    assert (x < z) == (y < z) and (z < x) == (z < y)
    assert (x <= z) == (y <= z) and (x > z) == (y > z)
    for op in (operator.add, operator.sub, operator.mul):
        assert op(x, z) == op(y, z) and op(z, x) == op(z, y)
        assert hash(op(x, z)) == hash(op(y, z))
    assert x - y == 0 and x / y == 1
    if z != 0:
        assert x / z == y / z and hash(x / z) == hash(y / z)
    assert z / x == z / y
    assert x * x == y * y == \
        QuadExt(a * a + b * b * s * s * d, 2 * a * b * s, d)
