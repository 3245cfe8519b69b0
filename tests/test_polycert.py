"""Tests for barrier slices, root functions, resultants, and the
certified positivity layer."""

import hashlib
import math
import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import fraction_reference
from spin7flow.aw_algebra import AWParams
from spin7flow.errors import (DegenerateRootError, DomainAnomalyError,
                              FormulaDiscrepancyError, InvalidParameterError,
                              InvalidRequestError)
from spin7flow import polycert as pc
from spin7flow.cli import main
from spin7flow.phase_system import (PhaseState, cubic_coefficients,
                                    quartic_coefficients, residuals,
                                    scalar_terms)
from spin7flow.ratpoly import (Ball, Box, Interval, RatPoly,
                               _bernstein_tensor, certify_nonneg,
                               random_nonnegativity_audit,
                               sylvester_resultant, univariate_gcd)

F = Fraction
PARAMS = [AWParams(1, 0), AWParams(1, 1), AWParams(3, 2), AWParams(17, 5)]
RAY_CASES = [AWParams(1, 0), AWParams(29, 1), AWParams(17, 5),
             AWParams(3, 2), AWParams(7, 6), AWParams(1, 1)]


# ---------------------------------------------------------------------------
# barriers


@pytest.mark.parametrize("p", PARAMS, ids=lambda p: f"{p.k},{p.l}")
def test_barrier_q_vanishes_at_cone_corner(p):
    poly = pc.barrier(p, "Q")
    corner = (F(0), F(1, 3), F(1, 3), F(6 * p.delta, p.k + p.l))
    assert poly.evaluate(corner) == 0


def test_barrier_a_origin_value():
    poly = pc.barrier(AWParams(1, 1), "A")
    assert poly.evaluate((0, 0, 0, 5)) == 2
    assert poly.evaluate((0, 0, 0, F(1, 7))) == 2


def test_barrier_p_vanishes_on_conserved_ray_point():
    poly = pc.barrier(AWParams(1, 1), "P")
    assert poly.evaluate((F(2, 7), F(1, 7), F(1, 7), 21)) == 0


def test_barrier_unknown_kind():
    with pytest.raises(InvalidRequestError):
        pc.barrier(AWParams(1, 1), "Z")


def test_barrier_accepts_pairs():
    assert pc.barrier((3, 2), "Q") == pc.barrier(AWParams(3, 2), "Q")


@pytest.mark.parametrize("pair", [(3.7, 2.2), (3.0, 2), ("3", "2")])
def test_non_integer_pairs_are_refused(pair):
    # A raw pair goes to AWParams unchanged: (3.7, 2.2) must not be read
    # as the (3, 2) orbit.
    for call in (pc.rtilde, pc.ray_slices, lambda p: pc.barrier(p, "Q")):
        with pytest.raises(InvalidParameterError):
            call(pair)


# Every call below depends on the orbit, so None, which once stood for
# the orbit (1, 0), is refused.
ORBIT_CALLS = {
    "barrier": lambda p: pc.barrier(p, "Q"),
    "ray_slices": pc.ray_slices,
    "rtilde": pc.rtilde,
    "printed_ray_expansion": pc.printed_ray_expansion,
    "certify_ray_resultant": pc.certify_ray_resultant,
    "stated_boundary_zeros": pc.stated_boundary_zeros,
    "boundary_zero_report": pc.boundary_zero_report,
    "root_gap_hessian_det": pc.root_gap_hessian_det,
    "slice-p1": lambda p: pc.slice(p, "p1", 1, 0, 1),
    "slice-p2": lambda p: pc.slice(p, "p2", 1, 0, 1),
    "root_fn-xi": lambda p: pc.root_fn(p, "xi", (1, 0, 1)),
    "root_fn-sigma": lambda p: pc.root_fn(p, "sigma", (1, 0, 1)),
    "implicit_derivatives-xi":
        lambda p: pc.implicit_derivatives(p, "xi", (1, 0, 1)),
    "implicit_derivatives-sigma":
        lambda p: pc.implicit_derivatives(p, "sigma", (1, 0, 1)),
}


@pytest.mark.parametrize("name", sorted(ORBIT_CALLS))
def test_orbit_functions_refuse_none(name):
    call = ORBIT_CALLS[name]
    call(AWParams(3, 2))
    with pytest.raises(InvalidRequestError):
        call(None)


def test_line_kinds_take_any_orbit_or_none():
    point = (F(1, 62), F(1, 32))
    for which in pc.LINE_SLICE_KINDS:
        want = pc.slice(None, which, *point)
        assert all(pc.slice(p, which, *point) == want for p in PARAMS)
    for which in ("omega", "zeta"):
        want = pc.implicit_derivatives(None, which, point)
        assert all(pc.implicit_derivatives(p, which, point) == want
                   for p in PARAMS)
    with pytest.raises(InvalidParameterError):
        pc.slice((3.7, 2.2), "q1", *point)


# ---------------------------------------------------------------------------
# slices


_SLICE_COORDINATE = st.builds(F, st.integers(-10 ** 6, 10 ** 6),
                              st.integers(1, 10 ** 6))


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(pc.ROOT_KINDS), kl=st.sampled_from(
    [(1, 0), (1, 1), (3, 2), (17, 5), (10 ** 6 + 1, 10 ** 6)]),
       point=st.lists(_SLICE_COORDINATE, min_size=3, max_size=3))
def test_slice_integers_are_the_slice_coefficients(kind, kl, point):
    """The integers a root function reads from the evaluation kernel,
    over their denominator, are slice()'s coefficients in the root
    variable, zero coefficients at the top included."""
    slice_name, _, names, _ = pc._ROOT_SETUP[kind]
    point = tuple(point[:len(names)])
    ints, denominator = pc._slice_integers(AWParams(*kl), slice_name, names,
                                           point)
    assert denominator > 0 and len(ints) in (3, 5)
    want = pc.slice(AWParams(*kl), slice_name, *point)
    got = [F(n, denominator) for n in ints]
    assert got[:len(want.univariate_coefficients())] == \
        want.univariate_coefficients()
    assert not any(got[len(want.univariate_coefficients()):])


def test_line_slice_closed_forms():
    q1, q2 = pc.line_slices()
    names = pc.LINE_SLICE_VARIABLES
    a = RatPoly.variable(names, "alpha")
    b = RatPoly.variable(names, "beta")
    u = RatPoly.variable(names, "u")
    assert q1 == (F(3, 4) * b * u ** 2 - (2 + F(3, 2) * a * b) * u
                  + F(3, 4) * a ** 2 * b - 2 * a + 1)
    assert q2 == (F(9, 8) * b ** 2 * u ** 4 - 2 * u ** 2
                  - (12 * a + 2) * u + 2 * a ** 2 - 2 * a + 2)


def test_q1_constant_term_display():
    a, b = F(1, 4), F(1, 3)
    poly = pc.slice(AWParams(3, 2), "q1", a, b)
    assert poly.evaluate((0,)) == F(3, 4) * a * a * b - 2 * a + 1


def test_q1_at_two_thirds_display():
    a, b = F(2, 5), F(3, 7)
    got = pc.slice(AWParams(1, 1), "q1", a, b).evaluate((F(2, 3),))
    assert got == (-F(1, 3) - 2 * a + b / 3 - a * b
                   + F(3, 4) * a * a * b)


def test_q2_at_zero_display():
    a, b = F(2, 5), F(3, 7)
    got = pc.slice(AWParams(1, 1), "q2", a, b).evaluate((0,))
    assert got == 2 * a * a - 2 * a + 2


def test_p1_at_zero_is_one():
    got = pc.slice(AWParams(3, 2), "p1", F(2, 5), F(3, 7),
                   delta=F(1, 2))
    assert got.evaluate((0,)) == 1


def test_p2_leading_coefficient_display():
    p = AWParams(3, 2)
    a, b, d = F(2, 5), F(3, 7), F(1, 2)
    lead = pc.slice(p, "p2", a, b, delta=d).univariate_coefficients()[4]
    rho = p.rho
    assert lead == (18 * (1 + rho) ** 2 * a * a * b * b * d * d
                    + 18 * rho * rho * b * b * d * d
                    + 18 * a * a * d * d)


def test_p1_at_half_closed_form():
    for p in (AWParams(1, 1), AWParams(3, 2), AWParams(17, 5),
              AWParams(1, 0)):
        rho = p.rho
        for (a, b, d) in ((F(2, 5), F(3, 7), F(1, 2)),
                          (F(1, 3), F(1, 4), F(4, 5)), (1, 1, 1)):
            got = pc.slice(p, "p1", a, b, delta=d).evaluate((F(1, 2),))
            linear = (-F(3, 4) * (1 + rho) * a * b * d
                      - (1 - F(3, 4) * d) * a
                      - (1 - F(3, 4) * rho * d) * b)
            assert got == linear
    # The variant with squared alpha, beta, delta in the first term
    # differs at a generic point, which pins the closed form down.
    p = AWParams(3, 2)
    rho = p.rho
    a, b, d = F(2, 5), F(3, 7), F(1, 2)
    squared = (-F(3, 4) * (1 + rho) * a * a * b * b * d * d
               - (1 - F(3, 4) * d) * a - (1 - F(3, 4) * rho * d) * b)
    assert pc.slice(p, "p1", a, b, delta=d).evaluate((F(1, 2),)) \
        != squared


def test_slice_argument_validation():
    p = AWParams(1, 1)
    with pytest.raises(InvalidRequestError):
        pc.slice(p, "q1", F(1, 2), F(1, 2), delta=1)
    with pytest.raises(InvalidRequestError):
        pc.slice(p, "p1", F(1, 2), F(1, 2))
    with pytest.raises(InvalidRequestError):
        pc.slice(p, "zz", 0, 0)
    with pytest.raises(InvalidRequestError):
        pc.slice(p, "q1", 0.5, 1)


@pytest.mark.parametrize("p", PARAMS, ids=lambda p: f"{p.k},{p.l}")
def test_slice_consistency_with_barrier_substitution(p):
    rng = random.Random(17)
    for _ in range(12):
        a = F(rng.randint(0, 31), 62)
        b = F(rng.randint(1, 32), 32)
        u = F(rng.randint(0, 20), rng.randint(1, 30) + 1)
        split = F(rng.randint(0, 16), 17) * u
        z4 = F(6 * p.delta, p.k + p.l) * b
        direct = pc.barrier(p, "Q").evaluate((a, u - split, split, z4))
        assert pc.slice(p, "q1", a, b).evaluate((u,)) == direct
        direct = pc.barrier(p, "A").evaluate((a, u - split, split, z4))
        assert pc.slice(p, "q2", a, b).evaluate((u,)) == direct
        d = F(rng.randint(1, 16), 16)
        z1 = F(rng.randint(0, 10), rng.randint(1, 20) + 1)
        z4 = F(6 * p.delta, p.k) * d
        point = (z1, a * z1, b * z1, z4)
        direct = pc.barrier(p, "P").evaluate(point)
        assert pc.slice(p, "p1", a, b, delta=d).evaluate((z1,)) == direct
        direct = pc.barrier(p, "B").evaluate(point)
        assert pc.slice(p, "p2", a, b, delta=d).evaluate((z1,)) == direct


@pytest.mark.parametrize("p", PARAMS, ids=lambda p: f"{p.k},{p.l}")
def test_slice_matches_symbolic_composition(p):
    rng = random.Random(29)

    def rational():
        return F(rng.randint(-40, 40), rng.randint(1, 30))

    for _ in range(8):
        a, b, d = rational(), rational(), rational()
        for i, which in enumerate(pc.LINE_SLICE_KINDS):
            source = pc.line_slices()[i]
            image = {"alpha": a, "beta": b,
                     "u": RatPoly.variable(("u",), "u")}
            assert pc.slice(p, which, a, b) == source.compose(("u",), image)
        for i, which in enumerate(pc.RAY_SLICE_KINDS):
            source = pc.ray_slices(p)[i]
            image = {"alpha": a, "beta": b, "delta": d,
                     "Z1": RatPoly.variable(("Z1",), "Z1")}
            assert pc.slice(p, which, a, b, delta=d) == \
                source.compose(("Z1",), image)


# ---------------------------------------------------------------------------
# root functions

# (omega, zeta) and (xi, sigma) on points of the interlacing grids, as
# the all-Sturm bisection returned them; root_fn must repeat every bit.
RECORDED_LINE_ROOTS = {
    (F(0), F(1)): (0.6666666666666666, 0.6666666666666666),
    (F(1, 62), F(1, 32)): (0.48646332335183473, 0.5851577526103332),
    (F(5, 62), F(17, 32)): (0.4459384227314285, 0.47646868242281926),
    (F(15, 62), F(1)): (0.25816326900795183, 0.2985516591067305),
    (F(31, 62), F(9, 32)): (0.023906115063997646, 0.17946005945395882),
    (F(10, 62), F(3, 32)): (0.3398303369133444, 0.36994546286859986),
}
RECORDED_RAY_ROOTS = {
    (3, 2): {
        (F(1), F(0), F(1)): (0.3333333333333333, 0.3333333333333333),
        (F(14, 15), F(3, 15), F(5, 16)):
            (0.24428174519112877, 0.26821807220812843),
        (F(7, 15), F(7, 15), F(1)): (0.2847086483221062, 0.2916149264733576),
        (F(1, 15), F(0), F(1, 16)): (0.47004458149565664, None),
        (F(11, 15), F(2, 15), F(9, 16)):
            (0.2935324387551479, 0.31689441028220244),
        (F(1), F(1), F(1)): (0.16666666666666666, 0.1818453532773674),
    },
    (1, 1): {
        (F(1), F(0), F(1)): (0.3333333333333333, 0.3333333333333333),
        (F(14, 15), F(3, 15), F(5, 16)):
            (0.24434519768881113, 0.2682738456801417),
        (F(7, 15), F(7, 15), F(1)):
            (0.29141941722123965, 0.29416209773489754),
        (F(1, 15), F(0), F(1, 16)): (0.47004458149565664, None),
        (F(11, 15), F(2, 15), F(9, 16)):
            (0.29409414417447755, 0.3170372952567959),
        (F(1), F(1), F(1)): (0.16666666666666666, 0.18428657642152757),
    },
}


@pytest.mark.parametrize("p", [AWParams(3, 2), AWParams(1, 1)],
                         ids=lambda p: f"{p.k},{p.l}")
def test_root_fn_repeats_recorded_grid_values(p):
    for point, (omega, zeta) in RECORDED_LINE_ROOTS.items():
        assert pc.root_fn(p, "omega", point) == omega
        assert pc.root_fn(p, "zeta", point) == zeta
    for point, (xi, sigma) in RECORDED_RAY_ROOTS[p.k, p.l].items():
        assert pc.root_fn(p, "xi", point) == xi
        assert pc.root_fn(p, "sigma", point) == sigma


def test_root_values_at_anchor_points():
    assert pc.root_fn(AWParams(1, 1), "omega", (0, 1)) == \
        pytest.approx(2 / 3, abs=1e-15)
    assert pc.root_fn(AWParams(1, 1), "zeta", (0, 1)) == \
        pytest.approx(2 / 3, abs=1e-15)
    assert pc.root_fn(AWParams(3, 2), "xi", (1, 0, 1)) == \
        pytest.approx(1 / 3, abs=1e-15)
    assert pc.root_fn(AWParams(3, 2), "sigma", (1, 0, 1)) == \
        pytest.approx(1 / 3, abs=1e-15)


def test_root_values_are_exact_rationals_at_anchors():
    assert pc.implicit_derivatives(AWParams(1, 1), "omega",
                                   (0, 1))[()] == F(2, 3)
    assert pc.implicit_derivatives(AWParams(1, 1), "zeta",
                                   (0, 1))[()] == F(2, 3)
    assert pc.implicit_derivatives(AWParams(3, 2), "xi",
                                   (1, 0, 1))[()] == F(1, 3)
    assert pc.implicit_derivatives(AWParams(3, 2), "sigma",
                                   (1, 0, 1))[()] == F(1, 3)


def test_omega_quadratic_surd_value():
    got = pc.root_fn(AWParams(1, 1), "omega", (F(1, 2), 1))
    assert got == pytest.approx((11 - 4 * math.sqrt(7)) / 6, abs=1e-15)


def test_sigma_absent_returns_none():
    assert pc.root_fn(AWParams(1, 1), "sigma", (0, 0, 1)) is None


def test_omega_negative_discriminant_is_domain_anomaly():
    with pytest.raises(DomainAnomalyError):
        pc.root_fn(AWParams(1, 1), "omega", (0, 2))


_COEFFICIENT = st.one_of(st.just(0), st.integers(-30, 30),
                         st.integers(-10 ** 40, 10 ** 40))


@st.composite
def quadratic_numerators(draw):
    """(n0, n1, n2) over a positive denominator: random triples with
    zeros, and n2*(x - r)*(x - s) for rationals r and s (a square
    discriminant, zero when r = s), cleared to integers."""
    if draw(st.booleans()):
        ints = [draw(_COEFFICIENT) for _ in range(3)]
    else:
        n2 = draw(st.integers(-20, 20))
        r, s = draw(st.lists(st.builds(F, st.integers(-30, 30),
                                       st.integers(1, 9)),
                             min_size=2, max_size=2))
        if draw(st.booleans()):
            s = r
        scale = r.denominator * s.denominator
        ints = [n2 * r.numerator * s.numerator,
                -n2 * (r.numerator * s.denominator
                       + s.numerator * r.denominator),
                n2 * scale]
    return ints, draw(st.integers(1, 10 ** 6))


@settings(max_examples=500, deadline=None)
@given(quadratic_numerators())
@example(([0, 0, 0], 1))
@example(([3, 0, 0], 7))
@example(([-3, 2, 0], 5))
@example(([3, 2, 0], 5))
@example(([0, -4, 2], 3))
@example(([0, 4, 2], 3))
@example(([1, -2, 1], 2))
@example(([-1, 2, -1], 2))
@example(([1, 2, 1], 2))
@example(([1, 0, -1], 1))
@example(([2, 1, -3], 4))
@example(([1, -3, 1], 1))
@example(([-1, 3, -1], 1))
@example(([1, 1, 1], 6))
def test_quadratic_root_choice_matches_quadext_selection(case):
    """The root picked by the signs of n0*n2, -n1*n2 and the
    discriminant is the one that building both roots and comparing them
    in QuadExt picks, with the same repr; a negative discriminant raises
    the same error with the same message."""
    ints, denominator = case
    coeffs = [F(n, denominator) for n in ints]
    point = (F(1, 3), F(2, 5), F(1, 2))
    try:
        want = fraction_reference.smaller_positive_quadratic_root(
            coeffs, "xi", point)
    except DomainAnomalyError as error:
        with pytest.raises(DomainAnomalyError) as got:
            pc._smaller_positive_quadratic_root(ints, denominator, "xi",
                                                point)
        assert str(got.value) == str(error)
        return
    got = pc._smaller_positive_quadratic_root(ints, denominator, "xi", point)
    assert repr(got) == repr(want)


def test_root_fn_validation():
    with pytest.raises(InvalidRequestError):
        pc.root_fn(AWParams(1, 1), "nu", (0, 1))
    with pytest.raises(InvalidRequestError):
        pc.root_fn(AWParams(1, 1), "omega", (0, 1, 1))
    with pytest.raises(InvalidRequestError):
        pc.root_fn(AWParams(1, 1), "omega", (0.0, 1.0))


# ---------------------------------------------------------------------------
# implicit derivatives


def test_omega_first_and_second_partials():
    d = pc.implicit_derivatives(AWParams(1, 1), "omega", (0, 1))
    assert d[("alpha",)] == -3
    assert d[("beta",)] == F(1, 3)
    assert d[("alpha", "alpha")] == 24


def test_zeta_first_and_second_partials():
    d = pc.implicit_derivatives(AWParams(1, 1), "zeta", (0, 1))
    assert d[("alpha",)] == -3
    assert d[("beta",)] == F(2, 15)
    assert d[("alpha", "alpha")] == F(141, 5)


def test_xi_gradient():
    d = pc.implicit_derivatives(AWParams(3, 2), "xi", (1, 0, 1))
    assert (d[("alpha",)], d[("beta",)], d[("delta",)]) == \
        (F(-1, 6), F(-1, 2), F(1, 6))


def test_sigma_gradient_and_delta_partial():
    d = pc.implicit_derivatives(AWParams(3, 2), "sigma", (1, 0, 1))
    assert (d[("alpha",)], d[("beta",)]) == (F(-1, 6), F(-1, 2))
    assert d[("delta",)] == F(1, 15)


def test_order_one_omits_second_partials():
    d = pc.implicit_derivatives(AWParams(1, 1), "omega", (0, 1),
                                order=1)
    assert set(d) == {(), ("alpha",), ("beta",)}
    with pytest.raises(InvalidRequestError):
        pc.implicit_derivatives(AWParams(1, 1), "omega", (0, 1),
                                order=3)


def test_degenerate_root_raises():
    with pytest.raises(DegenerateRootError):
        pc.implicit_derivatives(AWParams(1, 1), "omega", (0, F(4, 3)))


def test_missing_root_raises():
    with pytest.raises(InvalidRequestError):
        pc.implicit_derivatives(AWParams(1, 1), "sigma", (0, 0, 1))


def test_implicit_derivatives_unknown_kind():
    with pytest.raises(InvalidRequestError, match="unknown root function"):
        pc.implicit_derivatives(AWParams(3, 2), "foo", (0, 1))


@pytest.mark.parametrize("p", [AWParams(1, 1), AWParams(3, 2),
                               AWParams(17, 5), AWParams(29, 1)],
                         ids=lambda p: f"{p.k},{p.l}")
def test_root_gap_hessian_determinant(p):
    det = pc.root_gap_hessian_det(p)
    assert det == F(19 * p.k ** 2 - p.k * p.l - p.l ** 2,
                    300 * p.k ** 2)


def test_root_gap_hessian_reference_values():
    assert pc.root_gap_hessian_det(AWParams(1, 1)) == F(17, 300)
    assert pc.root_gap_hessian_det(AWParams(3, 2)) == F(161, 2700)


# ---------------------------------------------------------------------------
# resultants and recorded expansions


def test_line_resultant_matches_recorded_form():
    assert pc.line_resultant() == pc.printed_line_resultant()


def test_line_resultant_values():
    r = pc.line_resultant()
    assert r.evaluate((0, 1)) == 0
    assert r.evaluate((0, F(1, 2))) == F(135, 256)


def test_line_resultant_gcd_oracle():
    r = pc.line_resultant()
    q1, q2 = pc.line_slices()
    rng = random.Random(23)
    points = [(F(rng.randint(0, 100), 200), F(rng.randint(1, 64), 64))
              for _ in range(200)]
    points.append((F(0), F(1)))
    zero_hits = 0
    for (a, b) in points:
        value = r.evaluate((a, b))
        c1 = pc.slice(None, "q1", a, b).univariate_coefficients()
        c2 = pc.slice(None, "q2", a, b).univariate_coefficients()
        common = len(univariate_gcd(c1, c2)) > 1
        assert (value == 0) == common
        zero_hits += value == 0
    assert zero_hits >= 1


def test_rtilde_matches_recorded_expansion():
    for p in (AWParams(1, 1), AWParams(3, 2)):
        assert pc.rtilde(p) == pc.printed_ray_expansion(p)


def test_rtilde_corner_values():
    rt = pc.rtilde(AWParams(1, 1))
    assert rt.evaluate((1, 0, 1)) == 0
    assert rt.evaluate((0, 1, 1)) == 0
    rt = pc.rtilde(AWParams(3, 2))
    assert rt.evaluate((1, 0, 1)) == 0
    assert rt.evaluate((0, 1, 1)) == F(32, 9)


def test_rtilde_delta_constant_part_vanishes_at_origin():
    for p in (AWParams(1, 1), AWParams(3, 2)):
        part = pc.rtilde(p).coefficient_of("delta", 0)
        assert part.evaluate((0, 0, 0)) == 0


def test_rtilde_alpha_face_vanishes_when_l_zero():
    rt = pc.rtilde(AWParams(1, 0))
    names = ("beta", "delta")
    face = rt.compose(names, {
        "alpha": F(0),
        "beta": RatPoly.variable(names, "beta"),
        "delta": RatPoly.variable(names, "delta"),
    })
    assert face.is_zero
    rt = pc.rtilde(AWParams(3, 2))
    face = rt.compose(names, {
        "alpha": F(0),
        "beta": RatPoly.variable(names, "beta"),
        "delta": RatPoly.variable(names, "delta"),
    })
    assert not face.is_zero


def test_rtilde_resultant_and_cross_check_once_per_process(monkeypatch):
    """One Sylvester resultant and one comparison with the recorded
    expansion serve every ratio; a forged record raises on every
    cross-checked call, and cross_check=False still returns the
    computed resultant."""
    orbits = (AWParams(7, 6), AWParams(8, 7), AWParams(9, 8))
    want = [pc.rtilde(p) for p in orbits]
    calls = {"sylvester_resultant": 0, "_recorded_ray_resultant": 0}

    def counted(name):
        fun = getattr(pc, name)

        def wrapped(*args):
            calls[name] += 1
            return fun(*args)
        monkeypatch.setattr(pc, name, wrapped)

    counted("sylvester_resultant")
    counted("_recorded_ray_resultant")
    pc._ray_resultant.cache_clear()
    pc._checked_ray_resultant.cache_clear()
    assert [pc.rtilde(p) for p in orbits] == want
    assert [pc.rtilde(p, cross_check=False) for p in orbits] == want
    assert pc.certify_ray_resultant(orbits[0]).status == "NonNegative"
    pc.boundary_zero_report(orbits[1])
    assert calls == {"sylvester_resultant": 1, "_recorded_ray_resultant": 1}

    # A forged record: the checked family is not cached, so every
    # cross-checked call compares again and raises.
    (coeff, *exps), *rest = pc._RTILDE_RHO_TERMS
    monkeypatch.setattr(pc, "_RTILDE_RHO_TERMS", ((coeff + 1, *exps), *rest))
    pc._checked_ray_resultant.cache_clear()
    for _ in range(2):
        for p in orbits:
            with pytest.raises(FormulaDiscrepancyError):
                pc.rtilde(p)
            with pytest.raises(FormulaDiscrepancyError):
                pc.certify_ray_resultant(p)
    assert pc._checked_ray_resultant.cache_info().currsize == 0
    assert [pc.rtilde(p, cross_check=False) for p in orbits] == want
    assert calls["sylvester_resultant"] == 1


def test_slice_and_resultant_caches_are_bounded():
    """The ray family, its resultant, the line slices and their
    resultant do not depend on the orbit: each is one entry, built once
    over 38 orbits."""
    caches = (pc._ray_family, pc._ray_resultant, pc._checked_ray_resultant,
              pc.line_slices, pc.line_resultant)
    for cached in caches:
        assert cached.cache_info().maxsize == 1
        cached.cache_clear()
    for k in range(2, 40):
        p = AWParams(k, 1)
        pc.ray_slices(p)
        pc.rtilde(p)
        pc.slice(p, "q1", F(1, 3), F(1, 2))
        pc.line_resultant()
    for cached in caches:
        assert cached.cache_info().misses == 1


def test_slice_families_compile_once(monkeypatch):
    """Each slice family and the ray resultant compile their evaluators
    once, inside their own cache entries: over 38 orbits, every root
    kind and rtilde, polycert compiles five polynomials and no more."""
    compiled = []
    compile_evaluation = pc._compile_evaluation

    def counted(poly, fixed):
        compiled.append(poly.variables)
        return compile_evaluation(poly, fixed)
    monkeypatch.setattr(pc, "_compile_evaluation", counted)
    for cached in (pc.line_slices, pc._ray_family, pc._ray_resultant,
                   pc._checked_ray_resultant):
        cached.cache_clear()
    for k in range(2, 40):
        p = AWParams(k, 1)
        pc.root_fn(p, "omega", (F(1, 3), F(1, 2)))
        pc.root_fn(p, "zeta", (F(1, 3), F(1, 2)))
        pc.root_fn(p, "xi", (F(1, 2), F(1, 3), F(1, 2)))
        pc.root_fn(p, "sigma", (F(1, 2), F(1, 3), F(1, 2)))
        pc.rtilde(p)
    assert sorted(compiled) == sorted(
        [pc.LINE_SLICE_VARIABLES] * 2 + [pc._RAY_FAMILY_VARIABLES] * 2
        + [pc.RAY_PARAMETER_VARIABLES + ("rho",)])


def test_rtilde_has_degrees_six_six_two_at_every_ratio():
    """For each of alpha, beta and delta some group of recorded terms
    at that variable's top degree, the other two exponents fixed, has
    only positive rho-coefficients, the rho**0 one among them; so that
    coefficient is positive at every rho >= 0 and rtilde keeps the
    degrees (6, 6, 2) of the family, the dims of its Bernstein tensor."""
    groups = {}
    for coeff, e_rho, *exps in pc._RTILDE_RHO_TERMS:
        groups.setdefault(tuple(exps), {})[e_rho] = coeff
    tops = [max(exps[axis] for exps in groups) for axis in range(3)]
    assert tops == [6, 6, 2]
    for axis, top in enumerate(tops):
        positive = [exps for exps, rho_coeffs in groups.items()
                    if exps[axis] == top and 0 in rho_coeffs
                    and all(c > 0 for c in rho_coeffs.values())]
        assert positive, axis
    for p in (AWParams(1, 0), AWParams(1, 1), AWParams(13, 5)):
        assert [pc.rtilde(p).degree(v) for v in pc.RAY_PARAMETER_VARIABLES] \
            == tops


def _reduced(tensor):
    nums, scale, dims, strides = tensor
    g = math.gcd(scale, *nums)
    return [n // g for n in nums], scale // g, dims, strides


def _ray_tensor_at(parts, rho):
    """The ray box's tensor at rho from the (alpha, beta, delta, rho)
    one: entry by entry sum C(4, j) rho**j (1 - rho)**(4 - j) b_j, taken
    with rho = p/q over scale*q**4."""
    nums, scale, dims, strides = parts
    width = dims[-1]
    p, q = rho.as_integer_ratio()
    weights = [math.comb(width - 1, j) * p ** j * (q - p) ** (width - 1 - j)
               for j in range(width)]
    values = [sum(w * b for w, b in zip(weights, nums[i:i + width]))
              for i in range(0, len(nums), width)]
    return (values, scale * q ** (width - 1), dims[:-1],
            tuple(s // width for s in strides[:-1]))


def test_ray_tensor_is_the_resultants_on_the_four_cube():
    """The shared tree's root is the Bernstein tensor of the reduced ray
    resultant over (alpha, beta, delta, rho) on the ray box times
    [0, 1], converted term by term."""
    family = pc._checked_ray_resultant()
    box = Box(pc.RAY_PARAMETER_DOMAIN.intervals + (Interval(0, 1),))
    assert _reduced(family.compiled[1]) == \
        _reduced(_bernstein_tensor(family, box))
    assert family.compiled[1][2] == (7, 7, 3, 5)


_ORBITS = st.tuples(st.integers(1, 10 ** 6 + 1), st.integers(0, 10 ** 6 + 1)
                    ).filter(lambda kl: kl[0] >= kl[1]
                             and math.gcd(*kl) == 1)


@settings(max_examples=60, deadline=None)
@given(kl=_ORBITS)
@example(kl=(1, 0))
@example(kl=(1, 1))
@example(kl=(10 ** 6 + 1, 10 ** 6))
@example(kl=(10 ** 6 + 1, 1))
def test_ray_tensor_is_the_combination_of_its_rho_parts(kl):
    """The ray certificate's (alpha, beta, delta, rho) tensor, its
    entries' rho-Bernstein coefficients combined at rho, reduces to the
    Bernstein tensor of rtilde(p) on the ray box; rtilde's RatPoly is
    the one the checked constructor builds, in the same term order."""
    p = AWParams(*kl)
    poly = pc.rtilde(p)
    want = _bernstein_tensor(poly, pc.RAY_PARAMETER_DOMAIN)
    got = _ray_tensor_at(pc._checked_ray_resultant().compiled[1], p.rho)
    assert _reduced(got) == _reduced(want)
    rebuilt = RatPoly(poly.variables, dict(poly.terms))
    assert poly == rebuilt and repr(poly) == repr(rebuilt)
    assert list(poly.terms) == list(rebuilt.terms)


def test_line_resultant_once_per_process(monkeypatch, capsys):
    """One Sylvester resultant in u serves line_resultant,
    certify_line_resultant and every check of verify."""
    pc.rtilde(AWParams(3, 2))  # the ray resultant is built beforehand
    variables = []
    resultant = pc.sylvester_resultant

    def counted(f, g, var):
        variables.append(var)
        return resultant(f, g, var)
    monkeypatch.setattr(pc, "sylvester_resultant", counted)
    pc.line_slices.cache_clear()
    pc.line_resultant.cache_clear()
    assert pc.line_resultant() == pc.printed_line_resultant()
    assert pc.certify_line_resultant().status == "NonNegative"
    assert main(["verify"]) == 0
    capsys.readouterr()
    assert variables == ["u"]


def test_forged_line_record_raises_on_every_call(monkeypatch):
    """A wrong recorded form raises on each call, and the mismatch
    leaves nothing cached."""
    recorded = pc.printed_line_resultant
    monkeypatch.setattr(pc, "printed_line_resultant",
                        lambda: recorded() + F(1, 16))
    pc.line_resultant.cache_clear()
    for _ in range(2):
        with pytest.raises(FormulaDiscrepancyError):
            pc.line_resultant()
        with pytest.raises(FormulaDiscrepancyError):
            pc.certify_line_resultant()
    assert pc.line_resultant.cache_info().currsize == 0


def _oracle_ray_slices(p):
    """This orbit's barriers P and B on the ray image, taken from their
    residual forms, so that they share no coefficient with polycert."""
    names = pc.RAY_SLICE_VARIABLES
    alpha, beta, delta, z1 = (RatPoly.variable(names, n) for n in names)
    z = (z1, alpha * z1, beta * z1, F(6 * p.delta, p.k) * delta)
    state = PhaseState((0, 0, 0, 0), z)
    return (-residuals(p, state).zcons_minus,
            2 - 2 * (z[0] + z[1] + z[2]) - scalar_terms(p, state).Rs)


def _oracle_rtilde(p):
    """The Sylvester resultant of the oracle slices over 36*delta**2."""
    resultant = sylvester_resultant(*_oracle_ray_slices(p), "Z1")
    assert all(e_delta >= 2 for _, _, e_delta in resultant.terms)
    return RatPoly(pc.RAY_PARAMETER_VARIABLES, {
        (e_alpha, e_beta, e_delta - 2): coeff / 36
        for (e_alpha, e_beta, e_delta), coeff in resultant.terms.items()})


@settings(max_examples=30, deadline=None)
@given(kl=st.tuples(st.integers(1, 80), st.integers(0, 80)).filter(
    lambda kl: kl[0] >= kl[1] and math.gcd(*kl) == 1))
@example(kl=(1, 0))
@example(kl=(1, 1))
def test_ray_slices_equal_each_orbits_restriction(kl):
    p = AWParams(*kl)
    assert pc.ray_slices(p) == _oracle_ray_slices(p)


@pytest.mark.parametrize("kl", [(1, 0), (1, 1), (3, 2), (13, 5)])
def test_rtilde_equals_each_orbits_resultant(kl):
    p = AWParams(*kl)
    assert pc.rtilde(p) == _oracle_rtilde(p)


def test_ray_coefficients_are_the_orbits_scaled_to_z4_delta():
    for p in _orbit_sample(40, 63) + [AWParams(1, 0), AWParams(1, 1)]:
        scale = F(6 * p.delta, p.k)
        cubic, quartic = pc._ray_coefficients(p.rho)
        assert cubic == tuple(c * scale for c in cubic_coefficients(p))
        assert quartic == tuple(c * scale ** 2
                                for c in quartic_coefficients(p))


def _orbit_sample(count, seed):
    """A seeded sample of coprime orbits with 60 >= k > l >= 1."""
    pool = [(k, l) for k in range(2, 61) for l in range(1, k)
            if math.gcd(k, l) == 1]
    return [AWParams(k, l) for k, l in random.Random(seed).sample(pool, count)]


def test_ray_layer_matches_term_by_term_substitution():
    """Every orbit-level form of the ray layer is its process-wide
    polynomial at rho = l/k; each one prints exactly as the Fraction
    substitution of that polynomial does."""
    oracle = fraction_reference.substitute
    p1, p2 = pc._ray_family()
    rng = random.Random(64)
    for p in _orbit_sample(38, 64) + [AWParams(1, 0), AWParams(1, 1)]:
        at_rho = {"rho": p.rho}
        pairs = (
            (pc.rtilde(p), oracle(pc._checked_ray_resultant(), at_rho)),
            (pc.rtilde(p, cross_check=False),
             oracle(pc._ray_resultant(), at_rho)),
            (pc.ray_slices(p), (oracle(p1, at_rho), oracle(p2, at_rho))),
            (pc.printed_ray_expansion(p),
             oracle(pc._recorded_ray_resultant(), at_rho)))
        for name, family in (("p1", p1), ("p2", p2)):
            a, b, d = (F(rng.randrange(16), 15), F(rng.randrange(16), 15),
                       F(rng.randrange(1, 17), 16))
            values = {"alpha": a, "beta": b, "delta": d, "rho": p.rho}
            pairs += ((pc.slice(p, name, a, b, delta=d),
                       oracle(family, values)),)
        for got, want in pairs:
            assert repr(got) == repr(want)


def _restricted_to_line(poly, p):
    """poly at Z1 = alpha, Z2 = u - s, Z3 = s, Z4 = 6*Delta*beta/(k+l),
    over (alpha, beta, u, s)."""
    work = pc.LINE_SLICE_VARIABLES + ("s",)
    alpha, beta, u, s = (RatPoly.variable(work, n) for n in work)
    return poly.compose(work, {"Z1": alpha, "Z2": u - s, "Z3": s,
                               "Z4": F(6 * p.delta, p.k + p.l) * beta})


def test_line_slices_built_once_equal_each_orbits_restriction():
    """Each orbit's Q and A on the line map lose the split s of
    u = Z2 + Z3 and equal the one line family."""
    want = pc.line_slices()
    for p in _orbit_sample(40, 61) + [AWParams(1, 0)]:
        got = tuple(_restricted_to_line(pc.barrier(p, which), p)
                    for which in ("Q", "A"))
        assert [poly.degree("s") for poly in got] == [0, 0]
        assert tuple(poly.drop_variable("s") for poly in got) == want


_RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=40)


@settings(max_examples=200, deadline=None)
@given(kl=st.integers(1, 10 ** 4).flatmap(
           lambda k: st.tuples(st.just(k), st.integers(0, k))).filter(
           lambda kl: math.gcd(*kl) == 1),
       a=_RATIONALS, b=_RATIONALS, d=_RATIONALS, u=_RATIONALS,
       s=_RATIONALS, z1=_RATIONALS)
def test_slices_are_the_barriers_on_their_maps(kl, a, b, d, u, s, z1):
    p = AWParams(*kl)
    line_z4 = F(6 * p.delta, p.k + p.l) * b
    for which, kind in (("q1", "Q"), ("q2", "A")):
        assert pc.slice(p, which, a, b).evaluate((u,)) == \
            pc.barrier(p, kind).evaluate((a, u - s, s, line_z4))
    ray_z4 = F(6 * p.delta, p.k) * d
    for which, kind in (("p1", "P"), ("p2", "B")):
        assert pc.slice(p, which, a, b, delta=d).evaluate((z1,)) == \
            pc.barrier(p, kind).evaluate((z1, a * z1, b * z1, ray_z4))


def test_barriers_p_and_b_equal_their_residual_forms():
    names = pc.BARRIER_VARIABLES
    z = tuple(RatPoly.variable(names, n) for n in names)
    state = PhaseState((0, 0, 0, 0), z)
    for p in _orbit_sample(40, 62):
        assert pc.barrier(p, "P") == -residuals(p, state).zcons_minus
        assert pc.barrier(p, "B") == \
            2 - 2 * (z[0] + z[1] + z[2]) - scalar_terms(p, state).Rs


def test_boundary_zero_bookkeeping():
    assert pc.stated_boundary_zeros(AWParams(3, 2)) == \
        ((F(1), F(0), F(1)),)
    assert pc.stated_boundary_zeros(AWParams(1, 1)) == \
        ((F(1), F(0), F(1)), (F(0), F(1), F(1)))
    report = pc.boundary_zero_report(AWParams(1, 1))
    values = report["values"]
    assert values[(F(1), F(0), F(1))] == 0
    assert values[(F(0), F(1), F(1))] == 0
    assert values[(F(1), F(1), F(0))] == 648
    assert report["notes"]
    report = pc.boundary_zero_report(AWParams(1, 0))
    assert values != report["values"]
    assert report["values"][(F(1), F(1), F(0))] == 216
    assert any("alpha = 0 face" in note for note in report["notes"])


# ---------------------------------------------------------------------------
# certification drivers


def test_certify_line_resultant():
    cert = pc.certify_line_resultant()
    assert cert.status == "NonNegative"
    assert cert.boxes_processed >= 1
    data = cert.to_json_dict()
    assert data["status"] == "NonNegative"
    assert data["exclusions"] == [{"center": ["0/1", "1/1"],
                                   "radius": "1/100"}]


@pytest.mark.parametrize("p", RAY_CASES, ids=lambda p: f"{p.k},{p.l}")
def test_certify_ray_resultant(p):
    cert = pc.certify_ray_resultant(p)
    assert cert.status == "NonNegative"
    assert cert.max_depth <= 40
    assert len(cert.exclusion_balls) == len(pc.stated_boundary_zeros(p))
    # the certificate certify_nonneg gives rtilde from its own tensor
    want = certify_nonneg(pc.rtilde(p), pc.RAY_PARAMETER_DOMAIN, [
        Ball(c, pc.DEFAULT_EXCLUSION_RADIUS)
        for c in pc.stated_boundary_zeros(p)])
    assert (repr(cert), cert.boxes_per_depth) == \
        (repr(want), want.boxes_per_depth)


def _nonneg_certificate(p, extra=0, max_depth=40, balls=None):
    """certify_nonneg's certificate of rtilde(p) - extra on the ray box,
    with the stated balls unless balls is given."""
    if balls is None:
        balls = [Ball(c, pc.DEFAULT_EXCLUSION_RADIUS)
                 for c in pc.stated_boundary_zeros(p)]
    return certify_nonneg(pc.rtilde(p) - extra, pc.RAY_PARAMETER_DOMAIN,
                          balls, max_depth=max_depth)


def _same_certificate(got, want):
    # repr holds status, counterexample, worst box and worst bound.
    assert (repr(got), got.boxes_per_depth) == \
        (repr(want), want.boxes_per_depth)


_CERTIFIED_ORBITS = st.tuples(st.integers(1, 400), st.integers(0, 400)
                              ).filter(lambda kl: kl[0] >= kl[1]
                                       and math.gcd(*kl) == 1)


@settings(max_examples=30, deadline=None)
@given(orbits=st.lists(_CERTIFIED_ORBITS, min_size=1, max_size=5),
       cleared=st.booleans(), limit=st.sampled_from([1, 9, None]))
@example(orbits=[(1, 0), (1, 1), (100, 1), (300, 1)], cleared=True,
         limit=None)
@example(orbits=[(300, 1), (1, 1), (13, 5), (1, 0), (100, 1)],
         cleared=False, limit=None)
@example(orbits=[(100, 1), (1, 1), (3, 2)], cleared=True, limit=9)
@example(orbits=[(3, 2)] * 4 + [(13, 5)] * 4, cleared=True, limit=None)
def test_shared_tree_certificate_is_certify_nonnegs(orbits, cleared, limit):
    """Orbits in any order, on a cleared or a warm table and past any
    table bound, get certify_nonneg's certificate on rtilde, tree
    included."""
    saved = pc._RAY_CELL_LIMIT
    if cleared:
        pc._RAY_CELLS.clear()
    try:
        pc._RAY_CELL_LIMIT = limit or saved
        for kl in orbits:
            p = AWParams(*kl)
            _same_certificate(pc.certify_ray_resultant(p),
                              _nonneg_certificate(p))
    finally:
        pc._RAY_CELL_LIMIT = saved


def test_ray_tree_without_balls_chains_to_max_depth():
    # Nothing discharges the zero at (1, 0, 1): the walk runs to
    # max_depth there and reports the worst box, on a new table and on
    # the same table again, until the table holds the chain past the
    # depth where its cells fit in the stated ball.  Then the stated
    # ball discharges them, and the ball-less walk again does not.
    p = AWParams(3, 2)
    parts = pc._checked_ray_resultant().compiled[1]
    bare = _nonneg_certificate(p, balls=[])
    assert bare.status == "Inconclusive" and bare.max_depth == 40
    stated = _nonneg_certificate(p)
    assert stated.status == "NonNegative"
    table = {}
    for centers, want in [((), bare)] * 30 + [
            (pc.stated_boundary_zeros(p), stated), ((), bare)]:
        got = pc._ray_certificate(parts, table, p.rho,
                                  pc._ray_exclusions(centers))
        _same_certificate(got, want)
    assert max(level for cells in table for _, level in cells) > 8


@pytest.mark.parametrize("max_depth", [0, 1, 6])
def test_ray_tree_at_a_small_max_depth(max_depth):
    p = AWParams(17, 5)
    want = _nonneg_certificate(p, max_depth=max_depth)
    assert want.status == "Inconclusive"
    got = pc._ray_certificate(
        pc._checked_ray_resultant().compiled[1], {}, p.rho,
        pc._ray_exclusions(pc.stated_boundary_zeros(p)), max_depth)
    _same_certificate(got, want)


@pytest.mark.parametrize("kl", [(1, 0), (3, 2), (1, 1)])
def test_ray_tree_finds_a_negative_corner(kl):
    # The resultant minus a constant: every Bernstein coefficient drops
    # by the same numerator, so cells with an entry negative at every
    # rho appear, and a corner outside the balls is negative.
    p = AWParams(*kl)
    nums, scale, dims, strides = pc._checked_ray_resultant().compiled[1]
    drop = scale // 1000
    want = _nonneg_certificate(p, F(drop, scale))
    assert want.status == "CounterexampleFound"
    table = {}
    for _ in range(3):
        got = pc._ray_certificate(
            ([n - drop for n in nums], scale, dims, strides), table, p.rho,
            pc._ray_exclusions(pc.stated_boundary_zeros(p)))
        _same_certificate(got, want)
    assert any(cell.negative for cell in table.values())


def test_ray_table_stays_bounded_under_small_rho():
    """A stream of small-rho orbits, whose trees are far larger than the
    table, fills it to _RAY_CELL_LIMIT cells and no further, with at
    most half of them holding a full tensor, and every tree unchanged."""
    pc._RAY_CELLS.clear()
    stream = [AWParams(400, 1), AWParams(401, 1), AWParams(999, 2)]
    want = [_nonneg_certificate(p) for p in stream]
    for _ in range(6):
        for p, cert in zip(stream, want):
            _same_certificate(pc.certify_ray_resultant(p), cert)
            assert len(pc._RAY_CELLS) <= pc._RAY_CELL_LIMIT
            held = sum(cell.tensor is not None
                       for cell in pc._RAY_CELLS.values())
            assert held <= pc._RAY_CELL_LIMIT // 2
    assert len(pc._RAY_CELLS) > pc._RAY_CELL_LIMIT - 2


def test_ray_table_is_shared_safely_between_threads():
    """Threads walking one table at once, switching every microsecond,
    each get certify_nonneg's certificates, (1, 1)'s extra ball
    included."""
    orbits = [AWParams(1, 1), AWParams(3, 2), AWParams(7, 6),
              AWParams(29, 1)]
    want = {p: _nonneg_certificate(p) for p in orbits}
    pc._RAY_CELLS.clear()
    failures = []

    def work(shift):
        try:
            for i in range(12):
                p = orbits[(i + shift) % len(orbits)]
                got = pc.certify_ray_resultant(p)
                if (repr(got), got.boxes_per_depth) != \
                        (repr(want[p]), want[p].boxes_per_depth):
                    failures.append(p)
        except Exception as exc:  # reported below, with the orbit lists
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(shift,))
                   for shift in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []


def test_certified_line_box_random_audit():
    r = pc.line_resultant()
    worst, point = random_nonnegativity_audit(
        r, pc.LINE_PARAMETER_DOMAIN, 100000, seed=2024)
    assert worst >= 0
    assert worst == r.evaluate(point)


def test_certified_ray_box_random_audit():
    rt = pc.rtilde(AWParams(3, 2))
    worst, point = random_nonnegativity_audit(
        rt, pc.RAY_PARAMETER_DOMAIN, 10000, seed=2024)
    assert worst >= 0
    assert worst == rt.evaluate(point)


# ---------------------------------------------------------------------------
# interlacing grids

# SHA-256 over str() of every exact root a grid visits, in visiting
# order: the quadratic surds of omega and xi keep their bytes.
GRID_DIGESTS = {
    "line":
        "bae61c8bcc080bbe963ba3f78ab720cf45210be2edab8216514ac77f9e572426",
    (3, 2):
        "a8dd1d3ba26a25a400776d1c1216bd83d2f262d547a9eb81953c6b45e100ddcc",
    (1, 1):
        "dd2621eb194d4a03fb0c39668d4ebd4e7f09f353daab6f3019314a90ef5821b7",
}


def _grid_root(digest, params, which, point):
    """root_fn's value, with the exact result it rounds fed to digest."""
    found = pc._root_exact(params, which, point)
    digest.update(str(found).encode())
    return None if found is None else float(found[0])


def test_omega_never_exceeds_zeta_on_grid():
    center = (F(0), F(1))
    radius = pc.DEFAULT_EXCLUSION_RADIUS
    equalities = []
    min_gap_outside = None
    digest = hashlib.sha256()
    for i in range(32):
        a = F(i, 62)
        for j in range(1, 33):
            b = F(j, 32)
            omega = _grid_root(digest, None, "omega", (a, b))
            zeta = _grid_root(digest, None, "zeta", (a, b))
            assert omega is not None and zeta is not None
            gap = zeta - omega
            assert gap >= -1e-12
            in_ball = ((a - center[0]) ** 2 + (b - center[1]) ** 2
                       <= radius ** 2)
            if gap < 1e-9:
                equalities.append((a, b, in_ball))
            elif not in_ball:
                if min_gap_outside is None or gap < min_gap_outside:
                    min_gap_outside = gap
    assert equalities == [(F(0), F(1), True)]
    assert min_gap_outside > 1e-4
    assert digest.hexdigest() == GRID_DIGESTS["line"]


@pytest.mark.parametrize("p", [AWParams(3, 2), AWParams(1, 1)],
                         ids=lambda p: f"{p.k},{p.l}")
def test_xi_never_exceeds_sigma_on_grid(p):
    radius = pc.DEFAULT_EXCLUSION_RADIUS
    equalities = []
    min_gap_outside = None
    checked = 0
    digest = hashlib.sha256()
    for i in range(16):
        a = F(i, 15)
        for j in range(16):
            b = F(j, 15)
            if a < b:
                continue
            for m in range(1, 17):
                d = F(m, 16)
                sigma = _grid_root(digest, p, "sigma", (a, b, d))
                if sigma is None:
                    continue
                xi = _grid_root(digest, p, "xi", (a, b, d))
                checked += 1
                gap = sigma - xi
                assert gap >= -1e-12
                near_corner = ((a - 1) ** 2 + b ** 2 + (d - 1) ** 2
                               <= radius ** 2)
                if gap < 1e-9:
                    equalities.append((a, b, d, near_corner))
                elif not near_corner:
                    if min_gap_outside is None or gap < min_gap_outside:
                        min_gap_outside = gap
    assert checked > 1900
    assert equalities == [(F(1), F(0), F(1), True)]
    assert min_gap_outside > 1e-4
    assert digest.hexdigest() == GRID_DIGESTS[p.k, p.l]
