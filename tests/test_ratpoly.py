"""Tests for the exact polynomial engine and box certification."""

import math
import random
from fractions import Fraction
from math import gcd, lcm
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import fraction_reference
from spin7flow import ratpoly
from spin7flow.errors import InvalidRequestError
from spin7flow.exact import QuadExt, exact_sqrt
from spin7flow.polycert import LINE_PARAMETER_DOMAIN, RAY_PARAMETER_DOMAIN
from spin7flow.ratpoly import (ROOT_ACCURACY, SNAP_DENOMINATOR, Ball,
                               Box, Interval, RatPoly,
                               STATUS_COUNTEREXAMPLE, STATUS_INCONCLUSIVE,
                               STATUS_NONNEGATIVE, _axis_transform,
                               _bernstein_tensor, _cell_exclusion,
                               _coerce, _convergents, _derivative,
                               _split_axis, _strip,
                               certify_nonneg, count_distinct_roots,
                               random_nonnegativity_audit, rational_string,
                               smallest_root_in_interval, sturm_sequence,
                               sylvester_matrix, sylvester_resultant,
                               univariate_gcd)

F = Fraction
X = RatPoly.variable(("x",), "x")


def xy():
    names = ("x", "y")
    return RatPoly.variable(names, "x"), RatPoly.variable(names, "y")


def random_poly(rng, names, degree, terms):
    out = {}
    for _ in range(terms):
        exps = tuple(rng.randint(0, degree) for _ in names)
        out[exps] = out.get(exps, F(0)) + F(rng.randint(-9, 9),
                                            rng.randint(1, 7))
    return RatPoly(names, out)


def random_point(rng, n):
    return tuple(F(rng.randint(-12, 12), rng.randint(1, 9))
                 for _ in range(n))


# ---------------------------------------------------------------------------
# construction and canonical form


def test_zero_coefficients_dropped():
    assert RatPoly(("x",), {(1,): F(0)}) == RatPoly.zero(("x",))
    assert RatPoly(("x",), {(1,): 0}).degree() == -1


def test_graded_lex_term_order():
    x, y = xy()
    poly = x + x * x * y + y ** 3 + 1
    assert [e for e, _ in poly.ordered_terms()] == [
        (2, 1), (0, 3), (1, 0), (0, 0)]


def test_bad_exponents_rejected():
    with pytest.raises(InvalidRequestError):
        RatPoly(("x",), {(-1,): F(1)})
    with pytest.raises(InvalidRequestError):
        RatPoly(("x",), {(1, 2): F(1)})


def test_float_coefficients_refused():
    with pytest.raises(InvalidRequestError):
        RatPoly(("x",), {(1,): 0.5})
    with pytest.raises(InvalidRequestError):
        X * 0.5


def test_string_coefficients_parsed():
    assert RatPoly(("x",), {(0,): "3/4"}) == F(3, 4)


def test_immutability():
    with pytest.raises(AttributeError):
        X.terms = {}


def test_scalar_equality_and_hash():
    assert RatPoly.constant(("x",), F(5)) == 5
    assert RatPoly.zero(("x",)) == 0
    assert X ** 0 == 1
    assert len({X + 1, 1 + X, X}) == 2


# ---------------------------------------------------------------------------
# ring arithmetic


def test_ring_identities_random():
    rng = random.Random(101)
    names = ("x", "y")
    for _ in range(25):
        f = random_poly(rng, names, 3, 5)
        g = random_poly(rng, names, 3, 5)
        h = random_poly(rng, names, 2, 4)
        assert (f + g) * h == f * h + g * h
        assert (f - g) + g == f
        assert f * g == g * f
        pt = random_point(rng, 2)
        assert (f * g).evaluate(pt) == f.evaluate(pt) * g.evaluate(pt)
        assert (f + g).evaluate(pt) == f.evaluate(pt) + g.evaluate(pt)


def test_pow_matches_repeated_product():
    rng = random.Random(7)
    f = random_poly(rng, ("x", "y"), 2, 4)
    assert f ** 3 == f * f * f


def test_scalar_division():
    f = 3 * (X ** 2 - X)
    assert f / 3 == X ** 2 - X
    with pytest.raises(ZeroDivisionError):
        X / 0
    with pytest.raises(InvalidRequestError):
        X / X


# ---------------------------------------------------------------------------
# structure, evaluation, substitution


def test_partial_derivative():
    x, y = xy()
    assert (x * x * y + x).partial("x") == 2 * x * y + 1
    assert RatPoly.constant(("x",), 4).partial("x") == 0


def test_evaluate_dict_and_sequence_agree():
    x, y = xy()
    poly = x ** 2 * y - F(1, 3) * y
    assert poly.evaluate((F(1, 2), F(2, 3))) == \
        poly.evaluate({"x": F(1, 2), "y": F(2, 3)})
    with pytest.raises(InvalidRequestError):
        poly.evaluate({"x": 1})
    with pytest.raises(InvalidRequestError):
        poly.evaluate((1,))


def test_evaluate_quadratic_extension_point():
    assert (X ** 2 - 2).evaluate((exact_sqrt(2),)) == 0


def test_compose_consistent_with_evaluate():
    rng = random.Random(31)
    names = ("x", "y")
    out = ("s", "t")
    for _ in range(10):
        f = random_poly(rng, names, 3, 5)
        gx = random_poly(rng, out, 2, 3)
        gy = random_poly(rng, out, 2, 3)
        composed = f.compose(out, {"x": gx, "y": gy})
        pt = random_point(rng, 2)
        assert composed.evaluate(pt) == f.evaluate(
            (gx.evaluate(pt), gy.evaluate(pt)))


def test_compose_scalar_images():
    x, y = xy()
    f = x * y + y ** 2
    g = f.compose(("y",), {"x": F(1, 2),
                           "y": RatPoly.variable(("y",), "y")})
    assert g == F(1, 2) * RatPoly.variable(("y",), "y") \
        + RatPoly.variable(("y",), "y") ** 2


def test_compose_image_variable_mismatch():
    x, y = xy()
    with pytest.raises(InvalidRequestError):
        (x * y).compose(("a",), {"x": RatPoly.variable(("b",), "b"),
                                 "y": 1})


@st.composite
def compose_cases(draw):
    """A polynomial over (x, y, z) and an image for each variable: a
    polynomial over (s, t) or an exact scalar, zero included."""
    names, out = ("x", "y", "z"), ("s", "t")
    coeff = st.fractions(-9, 9, max_denominator=7)
    poly = RatPoly(names, draw(st.dictionaries(
        st.tuples(*[st.integers(0, 3)] * 3), coeff, max_size=6)))
    image_polys = st.dictionaries(st.tuples(*[st.integers(0, 2)] * 2),
                                  coeff, max_size=4).map(
        lambda terms: RatPoly(out, terms))
    images = {name: draw(st.one_of(image_polys, coeff)) for name in names}
    return poly, out, images


@settings(max_examples=150, deadline=None)
@given(compose_cases())
def test_compose_matches_term_by_term_oracle(case):
    poly, out, images = case
    got = poly.compose(out, images)
    want = fraction_reference.compose(poly, out, images)
    assert got.variables == want.variables
    assert list(got.terms.items()) == list(want.terms.items())


@st.composite
def evaluation_cases(draw):
    """A polynomial over (x, y, z) and a point whose entries are ints,
    Fractions or numbers of Q(sqrt 5)."""
    names = ("x", "y", "z")
    coeff = st.fractions(-9, 9, max_denominator=7)
    poly = RatPoly(names, draw(st.dictionaries(
        st.tuples(*[st.integers(0, 4)] * 3), coeff, max_size=8)))
    entry = st.one_of(
        st.integers(-5, 5), st.fractions(-3, 3, max_denominator=6),
        st.builds(QuadExt, coeff, coeff.filter(bool), st.just(5)))
    return poly, [draw(entry) for _ in names]


ORIGIN_AND_SURD = [0, QuadExt(F(1, 2), 1, 5), F(-2, 3)]


@settings(max_examples=200, deadline=None)
@given(evaluation_cases())
@example((RatPoly.zero(("x", "y", "z")), ORIGIN_AND_SURD))
@example((RatPoly.constant(("x", "y", "z"), F(-3, 4)), ORIGIN_AND_SURD))
@example((RatPoly.constant(("x", "y", "z"), 2), [1, F(1, 2), 3]))
def test_substitute_and_evaluate_match_term_by_term_oracle(case):
    """Setting the rational entries and then evaluating at the others
    gives evaluate, and both agree with the Fraction loops in value and
    in repr."""
    poly, point = case
    value = poly.evaluate(point)
    want = fraction_reference.evaluate(poly, point)
    assert value == want and repr(value) == repr(want)
    rational = {name: x for name, x in zip(poly.variables, point)
                if not isinstance(x, QuadExt)}
    part = poly.substitute(rational)
    want_part = fraction_reference.substitute(poly, rational)
    assert part == want_part and repr(part) == repr(want_part)
    rest = [x for x in point if isinstance(x, QuadExt)]
    assert repr(part.evaluate(rest)) == repr(value)


@st.composite
def compiled_cases(draw):
    """A polynomial over (x, y, z), a set of its variables in any order,
    and two points of rational values for them."""
    names = ("x", "y", "z")
    coeff = st.fractions(-9, 9, max_denominator=7)
    poly = RatPoly(names, draw(st.dictionaries(
        st.tuples(*[st.integers(0, 4)] * 3), coeff, max_size=8)))
    fixed = draw(st.permutations(range(3)))[:draw(st.integers(0, 3))]
    value = st.fractions(-3, 3, max_denominator=6)
    points = [[draw(value) for _ in fixed] for _ in range(2)]
    return poly, fixed, points


@settings(max_examples=200, deadline=None)
@given(compiled_cases())
@example((RatPoly.zero(("x", "y", "z")), [2, 0], [[F(1, 2), 3]] * 2))
def test_compiled_evaluator_matches_term_by_term_oracle(case):
    """One compile serves every point: the kernel's integers over its
    denominator are the Fraction substitution's coefficients, keyed in
    term order, and with every variable fixed the Fraction evaluation."""
    poly, fixed, points = case
    compiled = ratpoly._compile_evaluation(poly, fixed)
    results = list(ratpoly._integer_evaluation(
        compiled, ([x.as_integer_ratio() for x in point]
                   for point in points)))
    assert len(results) == len(points)
    for point, (sums, denominator) in zip(points, results):
        assert denominator > 0
        values = {poly.variables[i]: x for i, x in zip(fixed, point)}
        want = fraction_reference.substitute(poly, values)
        got = {key: F(n, denominator) for key, n in sums.items() if n}
        assert got == want.terms
        assert list(sums) == sorted(sums, key=lambda e: (sum(e), e),
                                    reverse=True)
        if len(fixed) == 3:
            full = [values[name] for name in poly.variables]
            assert F(sums.get((), 0), denominator) == \
                fraction_reference.evaluate(poly, full)


def test_substitute_checks_its_names_and_values():
    x, y = xy()
    poly = x * y + 1
    assert poly.substitute({"x": 2}) == \
        2 * RatPoly.variable(("y",), "y") + 1
    assert poly.substitute({}) == poly
    assert poly.substitute({"y": "1/2", "x": 4}) == 3
    with pytest.raises(InvalidRequestError):
        poly.substitute({"z": 1})
    with pytest.raises(InvalidRequestError):
        poly.substitute({"x": 1, "rho": 1})
    with pytest.raises(InvalidRequestError):
        poly.substitute({"x": 0.5})
    zero = RatPoly.zero(("x", "y"))
    assert zero.substitute({"x": 3}) == RatPoly.zero(("y",))
    assert zero.evaluate((1, 2)) == 0
    cert = certify_nonneg(zero, Box.unit(2))
    assert cert.status == STATUS_NONNEGATIVE


def test_coefficient_extraction():
    x, y = xy()
    f = x ** 2 * y + 3 * x ** 2 - y
    assert f.coefficient_of("x", 2) == y + 3
    with pytest.raises(InvalidRequestError):
        f.univariate_coefficients("y")
    assert (X ** 3 - X).univariate_coefficients() == [
        F(0), F(-1), F(0), F(1)]


def test_drop_and_reorder_variables():
    x, y = xy()
    f = x * y
    with pytest.raises(InvalidRequestError):
        f.drop_variable("y")
    g = (x + 0 * y).drop_variable("y")
    assert g.variables == ("x",)


def test_degree_queries():
    assert (X ** 3 - X).degree() == 3
    assert (X ** 3 - X).degree("x") == 3
    assert RatPoly.zero(("x",)).degree() == -1


# ---------------------------------------------------------------------------
# Sylvester resultants


def test_resultant_of_two_linear_factors():
    names = ("a", "b", "x")
    a = RatPoly.variable(names, "a")
    b = RatPoly.variable(names, "b")
    x = RatPoly.variable(names, "x")
    res = sylvester_resultant(x - a, x - b, "x")
    assert res == (a - b).drop_variable("x")


def test_resultant_variable_inference():
    assert sylvester_resultant(X ** 2 - 2, X - 1) == -1
    names = ("alpha", "x")
    f = RatPoly.variable(names, "x") ** 2 - 2
    g = RatPoly.variable(names, "x") - RatPoly.variable(names, "alpha")
    with pytest.raises(InvalidRequestError):
        sylvester_resultant(f, g)
    assert sylvester_resultant(f, g, "x").evaluate((2,)) == 2


def test_resultant_needs_positive_degrees():
    with pytest.raises(InvalidRequestError):
        sylvester_resultant(RatPoly.constant(("x",), 3), X, "x")


def test_sylvester_matrix_shape():
    m = sylvester_matrix(X ** 2 - 2, X - 1, "x")
    assert len(m) == 3 and all(len(row) == 3 for row in m)


def test_resultant_vanishes_exactly_on_shared_roots():
    rng = random.Random(55)
    for _ in range(40):
        r1, r2, r3 = (F(rng.randint(-6, 6), rng.randint(1, 5))
                      for _ in range(3))
        if len({r1, r2, r3}) < 3:
            continue
        f = (X - r1) * (X - r2)
        g_shared = (X - r1) * (X - r3)
        g_coprime = (X - r2 - 1) * (X - r3 - 2)
        assert sylvester_resultant(f, g_shared, "x") == 0
        shared_free = {r2 + 1, r3 + 2}.isdisjoint({r1, r2})
        if shared_free:
            assert sylvester_resultant(f, g_coprime, "x") != 0


def factored(lead, roots):
    out = RatPoly.constant(("x",), lead)
    for r in roots:
        out = out * (X - r)
    return out


small_roots = st.fractions(min_value=-6, max_value=6, max_denominator=5)


@settings(max_examples=80, deadline=None)
@given(f_roots=st.lists(small_roots, min_size=1, max_size=3),
       g_roots=st.lists(small_roots, min_size=1, max_size=3),
       leads=st.tuples(*[st.integers(-9, 9).filter(bool)] * 2))
@example(f_roots=[F(1, 2), F(-3)], g_roots=[F(-3), F(-3), F(5, 4)],
         leads=(2, -7))
def test_resultant_is_zero_exactly_on_a_shared_root(f_roots, g_roots, leads):
    """Res(f, g) = lc(f)^deg(g) * lc(g)^deg(f) * prod(r - s) over the
    roots r of f and s of g, which vanishes exactly on a shared root."""
    f, g = factored(leads[0], f_roots), factored(leads[1], g_roots)
    shared = not set(f_roots).isdisjoint(g_roots)
    assert (sylvester_resultant(f, g, "x") == 0) == shared


def bareiss_determinant(matrix):
    """Fraction-free (Bareiss) elimination on a Fraction matrix."""
    m = [list(row) for row in matrix]
    size, sign, previous = len(m), 1, F(1)
    for k in range(size - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, size) if m[i][k] != 0),
                        None)
            if swap is None:
                return F(0)
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / previous
        previous = m[k][k]
    return sign * m[-1][-1]


non_integers = st.builds(F, st.integers(-9, 9), st.integers(2, 7)).filter(
    lambda q: q.denominator > 1)


@st.composite
def sylvester_cases(draw):
    """(f, g, var, point): f and g of degree 1-4 in var over 2-3
    variables, with non-integer Fraction coefficients."""
    names = ("a", "x") if draw(st.booleans()) else ("a", "b", "x")
    var = draw(st.sampled_from(names))
    rest = [i for i, name in enumerate(names) if name != var]
    slot = names.index(var)

    def univariate(degree):
        terms = {}
        for power in range(degree + 1):
            if power < degree and draw(st.booleans()):
                continue
            for _ in range(draw(st.integers(1, 3))):
                exps = [0] * len(names)
                for i in rest:
                    exps[i] = draw(st.integers(0, 2))
                exps[slot] = power
                terms[tuple(exps)] = draw(non_integers)
        return RatPoly(names, terms)

    f = univariate(draw(st.integers(1, 4)))
    g = univariate(draw(st.integers(1, 4)))
    point = tuple(draw(st.fractions(-3, 3, max_denominator=5))
                  for _ in names)
    return f, g, var, point


@settings(max_examples=60, deadline=2000)
@given(sylvester_cases())
def test_resultant_equals_determinant_of_evaluated_sylvester_matrix(case):
    f, g, var, point = case
    resultant = sylvester_resultant(f, g, var)
    rest = tuple(v for name, v in zip(f.variables, point) if name != var)
    matrix = [[entry.evaluate(point) for entry in row]
              for row in sylvester_matrix(f, g, var)]
    assert resultant.evaluate(rest) == bareiss_determinant(matrix)


# ---------------------------------------------------------------------------
# univariate real-root machinery


def test_gcd_extracts_common_factor():
    g = univariate_gcd([F(2), F(-3), F(1)], [F(3), F(-4), F(1)])
    assert g == [F(-1), F(1)]
    assert univariate_gcd([F(1), F(1)], [F(1), F(0), F(1)]) == [F(1)]


def test_sturm_root_counting():
    coeffs = [F(-6), F(11), F(-6), F(1)]
    seq = sturm_sequence(coeffs)
    assert count_distinct_roots(seq, 0, 4) == 3
    assert count_distinct_roots(seq, F(3, 2), 4) == 2
    # Half-open (lo, hi]: a root at lo is left out, one at hi counted.
    assert count_distinct_roots(seq, 1, 4) == 2
    assert count_distinct_roots(seq, 0, 2) == 2


def test_sturm_count_refuses_a_reversed_interval():
    seq = sturm_sequence([F(-1), F(0), F(1)])
    assert count_distinct_roots(seq, -2, 2) == 2
    assert count_distinct_roots(seq, 1, 1) == 0
    with pytest.raises(InvalidRequestError, match="lo <= hi"):
        count_distinct_roots(seq, 2, -2)


small_rationals = st.builds(F, st.integers(-40, 40), st.integers(1, 12))


def poly_product(factors):
    out = [F(1)]
    for factor in factors:
        prod = [F(0)] * (len(out) + len(factor) - 1)
        for i, c in enumerate(out):
            for j, d in enumerate(factor):
                prod[i + j] += c * d
        out = prod
    return out


@st.composite
def repeated_root_cases(draw):
    """(coeffs, roots, lo, hi): a product of rational linear factors of
    multiplicity 1-3, with endpoints drawn from the roots as well."""
    roots = draw(st.lists(small_rationals, max_size=5))
    factors = []
    for r in roots:
        factors += [[-r, F(1)]] * draw(st.integers(1, 3))
    lead = draw(st.builds(F, st.integers(1, 40), st.integers(1, 12)))
    lead *= draw(st.sampled_from([1, -1]))
    coeffs = [lead * c for c in poly_product(factors)]
    endpoint = st.one_of(small_rationals, st.sampled_from(roots)) \
        if roots else small_rationals
    lo, hi = sorted([draw(endpoint), draw(endpoint)])
    return coeffs, set(roots), lo, hi


@settings(max_examples=200, deadline=None)
@given(repeated_root_cases())
def test_sturm_counts_distinct_roots_on_half_open_interval(case):
    coeffs, roots, lo, hi = case
    seq = sturm_sequence(coeffs)
    assert count_distinct_roots(seq, lo, hi) == \
        sum(1 for r in roots if lo < r <= hi)
    squarefree, rest = fraction_reference.poly_divmod(
        coeffs, univariate_gcd(coeffs, _derivative(coeffs)))
    assert not rest
    first = seq[0]
    assert len(first) == len(squarefree)
    ratio = F(first[-1]) / squarefree[-1]
    assert ratio > 0
    assert [ratio * c for c in squarefree] == first


@st.composite
def integer_factor_products(draw):
    """(coeffs, intervals): a product of integer factors of degree 1-3,
    each of multiplicity 1-3, so gcd(p, p') is often not constant, and
    intervals with ends among small rationals."""
    factors = []
    for _ in range(draw(st.integers(1, 4))):
        low = draw(st.lists(st.integers(-9, 9), min_size=1, max_size=3))
        lead = draw(st.integers(1, 9)) * draw(st.sampled_from([1, -1]))
        factors += [[F(c) for c in low] + [F(lead)]] * \
            draw(st.integers(1, 3))
    intervals = [sorted([draw(small_rationals), draw(small_rationals)])
                 for _ in range(4)]
    return poly_product(factors), intervals


@settings(max_examples=200, deadline=None)
@given(integer_factor_products())
@example(([F(-1), F(3), F(-3), F(1)], [[F(0), F(2)]]))  # (x - 1)**3
def test_integer_sturm_chain_is_a_positive_multiple_of_euclid(case):
    """Each member of the integer chain is a positive multiple of the
    Fraction Euclid chain's member, and the counts agree; univariate_gcd
    on the same pseudo-remainders gives Euclid's monic gcd."""
    coeffs, intervals = case
    # p' and a quadratic from the drawn interval ends
    for other in (_derivative(coeffs), intervals[0] + [F(1)]):
        assert univariate_gcd(coeffs, other) == \
            fraction_reference.univariate_gcd(coeffs, other)
    got = sturm_sequence(coeffs)
    want = fraction_reference.sturm_sequence(coeffs)
    assert len(got) == len(want)
    for member, oracle in zip(got, want):
        assert all(type(c) is int for c in member)
        assert len(member) == len(oracle)
        ratio = F(member[-1], oracle[-1])
        assert ratio > 0
        assert [ratio * c for c in oracle] == member
    for lo, hi in intervals:
        assert count_distinct_roots(got, lo, hi) == \
            fraction_reference.count_distinct_roots(want, lo, hi)


def test_smallest_root_exact_rational():
    coeffs = [F(4), F(-8), F(3)]
    assert smallest_root_in_interval(coeffs, 0, 1) == (F(2, 3), True)


def test_smallest_root_endpoint_semantics():
    coeffs = [F(0), F(-1), F(1)]
    assert smallest_root_in_interval(
        coeffs, 0, F(1, 2), include_lo=True) == (F(0), True)
    assert smallest_root_in_interval(coeffs, 0, F(1, 2)) is None
    assert smallest_root_in_interval(coeffs, F(1, 2), 1) == (F(1), True)


def test_smallest_root_irrational_bracket():
    got = smallest_root_in_interval([F(-2), F(0), F(1)], 0, 2)
    root, exact = got
    assert not exact
    assert abs(float(root) - math.sqrt(2)) < 1e-12


@pytest.mark.parametrize("accuracy", [F(0), F(-1, 10)],
                         ids=["zero", "negative"])
def test_smallest_root_rejects_nonpositive_accuracy(accuracy):
    with pytest.raises(InvalidRequestError, match="accuracy"):
        smallest_root_in_interval([F(-2), F(0), F(1)], 0, 2,
                                  accuracy=accuracy)


def test_smallest_root_absent_and_multiple():
    assert smallest_root_in_interval([F(1), F(0), F(1)], 0, 1) is None
    double = [F(1, 9), F(-2, 3), F(1)]
    assert smallest_root_in_interval(double, 0, 1) == (F(1, 3), True)


def _horner(coeffs, x):
    total = F(0)
    for c in reversed(coeffs):
        total = total * x + c
    return total


def _squarefree(coeffs):
    coeffs = _strip(coeffs)
    if len(coeffs) <= 2:
        return coeffs
    g = univariate_gcd(coeffs, _derivative(coeffs))
    if len(g) <= 1:
        return coeffs
    quotient, remainder = fraction_reference.poly_divmod(coeffs, g)
    if remainder:
        raise ArithmeticError("squarefree division left a remainder")
    return _strip(quotient)


def _deflate(coeffs, root):
    """Exact synthetic division by (x - root)."""
    quotient, remainder = fraction_reference.poly_divmod(
        coeffs, [-root, F(1)])
    if remainder:
        raise ArithmeticError(f"{root} is not a root; deflation failed")
    return _strip(quotient)


def sturm_bisection_reference(coeffs, lo, hi, include_lo=False,
                              accuracy=ROOT_ACCURACY):
    """smallest_root_in_interval with a Sturm count at every bisection
    step; the library must return exactly what this returns.

    It squarefrees first, deflates roots at lo, at hi and at bisection
    midpoints, and counts only on intervals whose ends are not roots,
    so it does not rest on the library's half-open counting.
    """
    lo, hi = _coerce(lo), _coerce(hi)
    poly = _strip(coeffs)
    if len(poly) == 1:
        return None
    poly = _squarefree(poly)
    if include_lo and _horner(poly, lo) == 0:
        return lo, True
    while _horner(poly, lo) == 0:
        poly = _deflate(poly, lo)
        if len(poly) <= 1:
            return None
    fallback = None
    if _horner(poly, hi) == 0:
        fallback = hi
        poly = _deflate(poly, hi)
        if len(poly) <= 1:
            return (fallback, True)
    sequence = sturm_sequence(poly)
    if count_distinct_roots(sequence, lo, hi) == 0:
        return (fallback, True) if fallback is not None else None
    a, b = lo, hi
    while b - a > accuracy:
        mid = (a + b) / 2
        if _horner(poly, mid) == 0:
            quotient = _deflate(poly, mid)
            if len(quotient) <= 1:
                return mid, True
            inner = sturm_sequence(quotient)
            if count_distinct_roots(inner, a, mid) == 0:
                return mid, True
            poly, sequence, b = quotient, inner, mid
            continue
        if count_distinct_roots(sequence, a, mid) >= 1:
            b = mid
        else:
            a = mid
    for candidate in fraction_reference.convergents((a + b) / 2,
                                                    SNAP_DENOMINATOR):
        if a < candidate <= b and _horner(poly, candidate) == 0:
            return candidate, True
    return (a + b) / 2, False


@st.composite
def root_isolation_cases(draw):
    """(coeffs, lo, hi, include_lo, accuracy) with roots placed on
    bisection midpoints, at the window ends, repeated, and irrational."""
    lo = draw(small_rationals)
    hi = lo + draw(st.builds(F, st.integers(1, 30), st.integers(1, 8)))
    dyadic = st.builds(lambda n, j: lo + (hi - lo) * F(n % (2 ** j), 2 ** j),
                       st.integers(0, 2 ** 12), st.integers(1, 12))
    roots = draw(st.lists(st.one_of(dyadic, st.sampled_from([lo, hi]),
                                    small_rationals), max_size=4))
    factors = []
    for r in roots:
        factors += [[-r, F(1)]] * draw(st.sampled_from([1, 1, 2, 3]))
    for _ in range(draw(st.integers(0, 2))):
        # (x - m)**2 - c is irreducible for a non-square c; a negative c
        # leaves no real root at all.
        m = draw(small_rationals)
        c = draw(st.sampled_from([F(2), F(3, 4), F(5, 9), F(7, 100), F(-1)]))
        factors.append([m * m - c, -2 * m, F(1)])
    lead = draw(st.builds(F, st.integers(1, 40), st.integers(1, 12)))
    lead *= draw(st.sampled_from([1, -1]))
    coeffs = [lead * c for c in poly_product(factors)]
    include_lo = draw(st.booleans())
    accuracy = draw(st.sampled_from([ROOT_ACCURACY, F(1, 2 ** 6)]))
    return coeffs, lo, hi, include_lo, accuracy


def _estimate(kind, accuracy):
    """A stand-in for ratpoly._float_root: the float estimate itself,
    NaN, an end or the midpoint of the bracket it is given, or the
    estimate moved three accuracies away, into another cell."""
    float_root = ratpoly._float_root
    return {
        "float": float_root,
        "nan": lambda ints, lo, hi, sign_hi: math.nan,
        "low end": lambda ints, lo, hi, sign_hi: lo,
        "high end": lambda ints, lo, hi, sign_hi: hi,
        "midpoint": lambda ints, lo, hi, sign_hi: (lo + hi) / 2,
        "wrong cell": lambda *args: float_root(*args) + 3 * float(accuracy),
    }[kind]


ESTIMATES = ("float", "nan", "low end", "high end", "midpoint", "wrong cell")


@settings(max_examples=300, deadline=None)
@given(root_isolation_cases(), st.sampled_from(ESTIMATES))
def test_smallest_root_matches_sturm_bisection(case, estimate):
    """Whatever the float estimate of the last cell, the result is the
    halving loop's: a missed cell falls back to it."""
    coeffs, lo, hi, include_lo, accuracy = case
    with mock.patch.object(ratpoly, "_float_root",
                           _estimate(estimate, accuracy)):
        got = smallest_root_in_interval(coeffs, lo, hi,
                                        include_lo=include_lo,
                                        accuracy=accuracy)
    assert got == sturm_bisection_reference(
        coeffs, lo, hi, include_lo=include_lo, accuracy=accuracy)
    # The integer bracket returns the Fraction bracket's results.
    assert got == fraction_reference.smallest_root_in_interval(
        coeffs, lo, hi, include_lo=include_lo, accuracy=accuracy)


@settings(max_examples=200, deadline=None)
@given(st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 30),
       st.integers(1, 10 ** 6), st.sampled_from([1, SNAP_DENOMINATOR]))
def test_integer_convergents_are_the_fraction_ones(n, d, g, bound):
    """The convergents of n/d, given unreduced as (g*n, g*d), are the
    Fraction convergents of the value, in lowest terms."""
    got = _convergents(g * n, g * d, bound)
    assert [F(h, k) for h, k in got] == fraction_reference.convergents(
        F(n, d), bound)
    assert all(k > 0 and gcd(h, k) == 1 for h, k in got)


@pytest.mark.parametrize("estimate", ESTIMATES)
@pytest.mark.parametrize("coeffs, root", [
    ([-2, 0, 1], None),  # sqrt(2): a bracket midpoint
    ([-3, 2], F(3, 2)),  # a first-level midpoint, on a cell end
    ([-4, 3], F(4, 3)),  # snapped to a convergent
])
def test_jump_is_checked_and_a_missed_cell_runs_the_halving_loop(
        coeffs, root, estimate):
    """On (1, 2] the float estimate's cell costs two exact signs and ends
    the search (a zero at a cell end is the root the halvings would
    meet); an estimate that is NaN, off the bracket or in another cell
    fails the check, and the halving loop's 40 or so signs follow, with
    the same result."""
    calls = []

    def sign_at(*args):
        calls.append(args)
        return sign(*args)

    sign = ratpoly._sign_at
    with mock.patch.object(ratpoly, "_sign_at", sign_at), \
            mock.patch.object(ratpoly, "_float_root",
                              _estimate(estimate, ROOT_ACCURACY)):
        got = smallest_root_in_interval(coeffs, 1, 2)
    assert got == fraction_reference.smallest_root_in_interval(coeffs, 1, 2)
    if root is not None:
        assert got == (root, True)
    elif estimate != "float":
        assert len(calls) > 40
    else:
        assert len(calls) < 15


# ---------------------------------------------------------------------------
# Bernstein split soundness


def bernstein_values(poly, box):
    """_bernstein_tensor with its integer numerators over their scale
    turned into Fractions."""
    nums, scale, dims, strides = _bernstein_tensor(poly, box)
    return [F(n, scale) for n in nums], dims, strides


def test_split_halves_match_fresh_tensors():
    rng = random.Random(42)
    trials = 0
    for _ in range(40):
        n = rng.choice((1, 2, 3))
        names = tuple("xyz"[:n])
        poly = random_poly(rng, names, rng.choice((1, 2, 3, 4)),
                           rng.randint(2, 8))
        if poly.is_zero:
            continue
        trials += 1

        def tensor(los, his):
            return bernstein_values(poly, Box.from_bounds(zip(los, his)))

        bern, dims, strides = tensor([F(0)] * n, [F(1)] * n)
        den = lcm(*[c.denominator for c in bern])
        nums = [int(c * den) for c in bern]
        axis = rng.randrange(n)
        degree = dims[axis] - 1
        left, right = _split_axis(nums, dims, strides, axis)
        scale = den << degree
        his_left = [F(1)] * n
        his_left[axis] = F(1, 2)
        los_right = [F(0)] * n
        los_right[axis] = F(1, 2)
        bl, _, _ = tensor([F(0)] * n, his_left)
        br, _, _ = tensor(los_right, [F(1)] * n)
        assert [F(v, scale) for v in left] == bl
        assert [F(v, scale) for v in right] == br
    assert trials >= 30


@st.composite
def integer_tensors(draw):
    """A random signed integer tensor of up to 400 bits per entry with
    1-4 axes of degree 0-6 (size-1 axes included), an axis, and an
    integer table for that axis with some zero entries."""
    dims = tuple(draw(st.lists(st.integers(1, 7), min_size=1, max_size=4)))
    if math.prod(dims) > 1200:
        dims = dims[:2]
    strides = tuple(math.prod(dims[i + 1:]) for i in range(len(dims)))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    bits = draw(st.integers(1, 400))
    nums = [rng.getrandbits(bits) - (1 << (bits - 1))
            for _ in range(math.prod(dims))]
    axis = draw(st.integers(0, len(dims) - 1))
    size = dims[axis]
    table = [[rng.choice((0, rng.getrandbits(bits) - (1 << (bits - 1))))
              for _ in range(size)] for _ in range(size)]
    return nums, dims, strides, axis, table


@settings(max_examples=150, deadline=None)
@given(integer_tensors())
def test_slab_kernels_match_fibre_loops(case):
    nums, dims, strides, axis, table = case
    assert list(_split_axis(nums, dims, strides, axis)) == list(
        fraction_reference.split_axis(nums, dims, strides, axis))
    assert _axis_transform(nums, dims, strides, axis, table) == \
        fraction_reference.integer_axis_transform(nums, dims, strides, axis,
                                                  table)


def test_bernstein_corner_coefficients_are_values():
    rng = random.Random(9)
    poly = random_poly(rng, ("x", "y"), 3, 6)
    box = Box.from_bounds([(F(-3, 2), F(2, 3)), (F(1, 5), F(7, 3))])
    bern, dims, strides = bernstein_values(poly, box)
    assert bern[0] == poly.evaluate((F(-3, 2), F(1, 5)))
    top = (dims[0] - 1) * strides[0] + (dims[1] - 1) * strides[1]
    assert bern[top] == poly.evaluate((F(2, 3), F(7, 3)))


def test_bernstein_box_map_matches_composed_unit_cube():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.choice((1, 2, 3))
        names = tuple("xyz"[:n])
        poly = random_poly(rng, names, rng.choice((1, 2, 3, 4)),
                           rng.randint(1, 8))
        if poly.is_zero:
            continue
        los = [F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in names]
        widths = [F(rng.randint(1, 9), rng.randint(1, 7)) for _ in names]
        box = Box.from_bounds([(lo, lo + w) for lo, w in zip(los, widths)])
        unit = tuple(f"u{i}" for i in range(n))
        mapping = {name: los[i] + widths[i] * RatPoly.variable(unit, unit[i])
                   for i, name in enumerate(names)}
        cube = poly.compose(unit, mapping)
        assert bernstein_values(poly, box) == \
            bernstein_values(cube, Box.unit(n))


@st.composite
def bernstein_cases(draw):
    """A random polynomial in 1-3 variables on a box whose lower ends
    may be negative and whose widths are not 1."""
    n = draw(st.integers(1, 3))
    names = tuple("xyz"[:n])
    coeff = st.fractions(-9, 9, max_denominator=12)
    poly = RatPoly(names, draw(st.dictionaries(
        st.tuples(*[st.integers(0, 4)] * n), coeff, min_size=1,
        max_size=8)))
    bounds = []
    for _ in names:
        lo = draw(st.fractions(-5, 3, max_denominator=9))
        width = draw(st.fractions(F(1, 8), 4, max_denominator=9))
        bounds.append((lo, lo + width))
    return poly, Box.from_bounds(bounds)


@settings(max_examples=150, deadline=None)
@given(bernstein_cases())
def test_bernstein_tensor_matches_fraction_tables(case):
    poly, box = case
    nums, scale, dims, strides = _bernstein_tensor(poly, box)
    want, want_dims, want_strides = fraction_reference.bernstein_tensor(
        poly, box)
    assert (dims, strides) == (want_dims, want_strides)
    assert [F(n, scale) for n in nums] == want
    # certify_nonneg divides out g = gcd(scale, *nums): that leaves the
    # least common denominator and the numerators over it.
    g = gcd(scale, *nums)
    denominator = lcm(*(c.denominator for c in want))
    assert scale // g == denominator
    assert [n // g for n in nums] == [int(c * denominator) for c in want]


# ---------------------------------------------------------------------------
# certification


def test_certify_counterexample_is_exact():
    cert = certify_nonneg(X - F(1, 2), Box.from_bounds([(0, 1)]))
    assert cert.status == STATUS_COUNTEREXAMPLE
    point, value = cert.counterexample
    assert value == (X - F(1, 2)).evaluate(point)
    assert value < 0
    assert 0 <= point[0] <= 1


def test_certify_interior_zero_is_inconclusive_without_ball():
    poly = (X - F(1, 3)) ** 2
    cert = certify_nonneg(poly, Box.from_bounds([(0, 1)]), max_depth=8)
    assert cert.status == STATUS_INCONCLUSIVE
    assert cert.max_depth == 8
    lo, hi = cert.worst_box.intervals[0].lower, \
        cert.worst_box.intervals[0].upper
    assert lo < F(1, 3) < hi
    assert cert.worst_bound < 0


def test_certify_interior_zero_with_exclusion_ball():
    poly = (X - F(1, 3)) ** 2
    cert = certify_nonneg(poly, Box.from_bounds([(0, 1)]),
                          exclusions=[Ball((F(1, 3),), F(1, 100))])
    assert cert.status == STATUS_NONNEGATIVE
    assert cert.boxes_processed > 1


def test_certify_finds_shallow_negative_dip():
    poly = (X - F(1, 3)) ** 2 - F(1, 10 ** 6)
    cert = certify_nonneg(poly, Box.from_bounds([(0, 1)]))
    assert cert.status == STATUS_COUNTEREXAMPLE
    point, value = cert.counterexample
    assert value == poly.evaluate(point) and value < 0


def test_certify_zero_face_discharges_exactly():
    x, y = xy()
    cert = certify_nonneg(x * x * (1 + y), Box.unit(2))
    assert cert.status == STATUS_NONNEGATIVE
    assert cert.boxes_processed == 1


def dyadic_grid(box, level):
    """Every point lo + width * i / 2^level of the box, i = 0..2^level."""
    points = [()]
    for iv in box.intervals:
        points = [p + (iv.lower + iv.width * F(i, 2 ** level),)
                  for p in points for i in range(2 ** level + 1)]
    return points


@st.composite
def nonnegativity_cases(draw):
    """A small polynomial in 1-2 variables on a rational box: random,
    a square plus a constant, or a paraboloid c*|x - a|^2 - eps whose
    dip at a point a of the level-4 dyadic grid is too narrow to show
    at the corners of the first few subdivisions."""
    names = ("x",) if draw(st.booleans()) else ("x", "y")
    small = st.fractions(-4, 4, max_denominator=6)
    bounds = []
    for _ in names:
        lo = draw(small)
        bounds.append((lo, lo + draw(st.fractions(F(1, 4), 3,
                                                  max_denominator=6))))
    box = Box.from_bounds(bounds)
    kind = draw(st.sampled_from(["random", "square", "dip"]))
    if kind == "dip":
        poly = RatPoly.zero(names)
        for name, (lo, hi) in zip(names, bounds):
            a = lo + (hi - lo) * F(draw(st.integers(0, 16)), 16)
            poly = poly + (RatPoly.variable(names, name) - a) ** 2
        eps = min(hi - lo for lo, hi in bounds) ** 2 / 1024
        return poly - draw(st.sampled_from([eps, -eps])), box
    terms = draw(st.dictionaries(
        st.tuples(*[st.integers(0, 2)] * len(names)), small,
        min_size=1, max_size=4))
    poly = RatPoly(names, terms)
    if kind == "square":
        poly = poly * poly + draw(st.fractions(-1, 1, max_denominator=50))
    return poly, box


@settings(max_examples=90, deadline=2000)
@given(nonnegativity_cases())
def test_certify_agrees_with_exact_dense_evaluation(case):
    poly, box = case
    cert = certify_nonneg(poly, box, max_depth=10)
    if cert.status == STATUS_NONNEGATIVE:
        assert all(poly.evaluate(p) >= 0 for p in dyadic_grid(box, 4))
    elif cert.status == STATUS_COUNTEREXAMPLE:
        point, value = cert.counterexample
        assert value == poly.evaluate(point) < 0
        assert all(iv.lower <= c <= iv.upper
                   for iv, c in zip(box.intervals, point))


def test_certify_input_validation():
    with pytest.raises(InvalidRequestError):
        certify_nonneg(X, Box.from_bounds([(F(1, 2), F(1, 2))]))
    with pytest.raises(InvalidRequestError):
        certify_nonneg(X, Box.unit(2))
    with pytest.raises(InvalidRequestError):
        certify_nonneg("not a poly", Box.unit(1))
    with pytest.raises(InvalidRequestError):
        certify_nonneg(X, Box.unit(1), exclusions=[Ball((F(0), F(0)),
                                                        F(1, 10))])


def test_boxes_per_depth_counts_every_box():
    x, y = xy()
    poly = (x - F(1, 3)) ** 2 * (1 + y) - F(1, 10 ** 6)
    certificates = [
        certify_nonneg((X - F(1, 3)) ** 2, Box.from_bounds([(0, 1)]),
                       exclusions=[Ball((F(1, 3),), F(1, 100))]),
        certify_nonneg((X - F(1, 3)) ** 2, Box.from_bounds([(0, 1)]),
                       max_depth=6),
        certify_nonneg(poly, Box.from_bounds([(0, 1), (F(-1, 2), 2)])),
        certify_nonneg(RatPoly.zero(("x",)), Box.unit(1)),
    ]
    assert [c.status for c in certificates] == [
        STATUS_NONNEGATIVE, STATUS_INCONCLUSIVE, STATUS_COUNTEREXAMPLE,
        STATUS_NONNEGATIVE]
    for cert in certificates:
        assert sum(cert.boxes_per_depth) == cert.boxes_processed
        assert len(cert.boxes_per_depth) == cert.max_depth + 1
        assert cert.boxes_per_depth[0] == 1
        assert all(cert.boxes_per_depth)
        assert "boxes_per_depth" not in cert.to_json_dict()
        assert "boxes_per_depth" not in repr(cert)
    assert len(certificates[1].boxes_per_depth) == 7


def test_certificate_json_contract():
    cert = certify_nonneg(X - F(1, 2), Box.from_bounds([(0, 1)]),
                          exclusions=[Ball((F(1),), F(1, 100))])
    data = cert.to_json_dict()
    assert set(data) == {"status", "exclusions", "boxes_processed",
                         "max_depth_reached", "counterexample"}
    assert data["exclusions"] == [{"center": ["1/1"],
                                   "radius": "1/100"}]
    assert data["counterexample"]["value"].count("/") == 1
    ok = certify_nonneg(RatPoly.constant(("x",), 1),
                        Box.from_bounds([(0, 1)]))
    data = ok.to_json_dict()
    assert set(data) == {"status", "exclusions", "boxes_processed",
                         "max_depth_reached"}
    assert data["status"] == STATUS_NONNEGATIVE


# ---------------------------------------------------------------------------
# boxes, balls, intervals


def test_interval_and_box_geometry():
    iv = Interval(F(1, 3), F(1, 2))
    box = Box((iv, iv))
    assert box.widths == (F(1, 6), F(1, 6))
    assert box.midpoint() == (F(5, 12), F(5, 12))
    assert len(box.corners()) == 4
    assert str(Interval(F(0), F(1), lower_open=True)) == "(0, 1]"
    with pytest.raises(InvalidRequestError):
        Interval(F(1), F(0))


def test_ball_containment():
    ball = Ball((F(0), F(1)), F(1, 10))
    inside = Box.from_bounds([(0, F(1, 20)), (F(19, 20), 1)])
    straddling = Box.from_bounds([(0, F(1, 2)), (F(1, 2), 1)])
    assert ball.contains_box(inside)
    assert not ball.contains_box(straddling)
    assert ball.contains_point((F(0), F(1)))
    assert not ball.contains_point((F(1, 2), F(1)))


def test_ball_rejects_point_of_wrong_dimension():
    ball = Ball((0, 1), F(1, 10))
    for point in ((0,), (0, 1, 0)):
        with pytest.raises(InvalidRequestError, match="dimensions differ"):
            ball.contains_point(point)


def cell_box(box, cells):
    """The cell (offset, level) per axis of box as a Box of Fractions."""
    return Box.from_bounds(
        [(iv.lower + iv.width * F(offset, 2 ** level),
          iv.lower + iv.width * F(offset + 1, 2 ** level))
         for iv, (offset, level) in zip(box.intervals, cells)])


@st.composite
def cells_and_balls(draw):
    """Random cells of the line or ray parameter domain and one or two
    balls around points near the domain."""
    box = draw(st.sampled_from([LINE_PARAMETER_DOMAIN,
                                RAY_PARAMETER_DOMAIN]))
    cells = []
    for _ in box.intervals:
        level = draw(st.integers(0, 8))
        cells.append((draw(st.integers(0, 2 ** level - 1)), level))
    coordinate = st.fractions(F(-1, 4), F(5, 4), max_denominator=64)
    balls = draw(st.lists(
        st.builds(Ball, st.tuples(*[coordinate] * box.dimension),
                  st.fractions(0, F(3, 2), max_denominator=200)),
        min_size=1, max_size=2))
    return box, tuple(cells), balls


@settings(max_examples=200, deadline=None)
@given(cells_and_balls())
def test_cell_exclusion_matches_contains_box(case):
    box, cells, balls = case
    want = any(ball.contains_box(cell_box(box, cells)) for ball in balls)
    assert _cell_exclusion(balls, box)(cells) == want


def test_cell_exclusion_on_the_sphere():
    # On [0, 1/2] x [0, 1] around (0, 1): the cell [191, 192] / 2^11 x
    # [7/8, 1] has its far corner at (3/32, 7/8), at distance exactly
    # 5/32 = |(3, 4)| / 32 from the centre.  The next cell along alpha
    # reaches one tick, 2^-11, farther out.
    box = LINE_PARAMETER_DOMAIN
    ball = Ball((0, 1), F(5, 32))
    on_sphere = ((191, 10), (7, 3))
    outside = ((192, 10), (7, 3))
    assert ball.contains_box(cell_box(box, on_sphere))
    assert not ball.contains_box(cell_box(box, outside))
    inside = _cell_exclusion((ball,), box)
    assert inside(on_sphere) and not inside(outside)
    smaller = _cell_exclusion((Ball((0, 1), F(5, 32) - F(1, 2 ** 40)),),
                              box)
    assert not smaller(on_sphere)
    # The same on the unit cube around the ray zero (1, 0, 1), with the
    # far corner (1 - 3/64, 4/64, 1 - 12/64) at distance 13/64.
    box = RAY_PARAMETER_DOMAIN
    ball = Ball((1, 0, 1), F(13, 64))
    on_sphere = ((61, 6), (0, 4), (13, 4))
    outside = ((60, 6), (0, 4), (13, 4))
    assert ball.contains_box(cell_box(box, on_sphere))
    assert not ball.contains_box(cell_box(box, outside))
    inside = _cell_exclusion((ball,), box)
    assert inside(on_sphere) and not inside(outside)


# ---------------------------------------------------------------------------
# randomized audit


def test_audit_worst_value_is_exact_on_both_paths():
    x, y = xy()
    poly = (x - F(1, 2)) ** 2 + (y - F(1, 3)) ** 2 - F(1, 50)
    dyadic = Box.from_bounds([(0, 1), (0, 1)])
    generic = Box.from_bounds([(0, F(1, 3)), (0, 1)])
    for box in (dyadic, generic):
        worst, point = random_nonnegativity_audit(poly, box, 2000,
                                                  seed=11)
        assert worst == poly.evaluate(point)
        for coord, iv in zip(point, box.intervals):
            assert iv.lower <= coord <= iv.upper


def test_audit_detects_negativity():
    worst, point = random_nonnegativity_audit(
        X - F(1, 2), Box.from_bounds([(0, 1)]), 200, seed=3)
    assert worst < 0
    assert worst == point[0] - F(1, 2)


@pytest.mark.parametrize("bounds", [[(0, 1)], [(0, 1)] * 3],
                         ids=["too-few", "too-many"])
def test_audit_rejects_box_dimension_mismatch(bounds):
    x, y = xy()
    box = Box.from_bounds(bounds)
    message = f"box dimension {len(bounds)} does not match 2 variables"
    with pytest.raises(InvalidRequestError, match=message):
        certify_nonneg(x - 2 * y, box)
    with pytest.raises(InvalidRequestError, match=message):
        random_nonnegativity_audit(x - 2 * y, box, 50, seed=1)


def test_rational_string():
    assert rational_string(F(-3, 7)) == "-3/7"
    assert rational_string(F(5)) == "5/1"


@pytest.mark.parametrize("bounds", [[(0, 1)], [(0, F(1, 3))]],
                         ids=["dyadic", "generic"])
def test_audit_needs_a_sample(bounds):
    with pytest.raises(InvalidRequestError):
        random_nonnegativity_audit(X, Box.from_bounds(bounds), 0, seed=1)


# ---------------------------------------------------------------------------
# RatPoly ring laws; evaluate is a ring homomorphism

coefficients = st.fractions(min_value=-9, max_value=9, max_denominator=7)
polys_xy = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), coefficients,
    max_size=5).map(lambda terms: RatPoly(("x", "y"), terms))
points_xy = st.tuples(coefficients, coefficients)


@settings(max_examples=100, deadline=1000)
@given(polys_xy, polys_xy, polys_xy, points_xy)
def test_ratpoly_ring_laws_and_evaluation(p, q, r, point):
    zero = RatPoly.zero(("x", "y"))
    one = RatPoly.constant(("x", "y"), 1)
    assert p + q == q + p and p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + zero == p and p * one == p and p * zero == zero
    assert p - p == zero and -p + p == zero
    assert p ** 2 == p * p
    pv, qv = p.evaluate(point), q.evaluate(point)
    assert (p + q).evaluate(point) == pv + qv
    assert (p - q).evaluate(point) == pv - qv
    assert (p * q).evaluate(point) == pv * qv
    assert one.evaluate(point) == 1 and zero.evaluate(point) == 0
