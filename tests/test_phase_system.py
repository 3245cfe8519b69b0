"""Tests for the polynomial flow, constraint residuals, and membership."""

import ast
import random
from fractions import Fraction
from functools import lru_cache
from math import gcd
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

import spin7flow
from spin7flow import phase_system
from spin7flow.aw_algebra import AWParams
from spin7flow.errors import InvalidRequestError
from spin7flow.exact import QuadExt
from spin7flow.phase_system import (Chirality, PhaseState, SetId,
                                    constraint_gradients, crf_constraints,
                                    first_order_jacobians, flow_rhs,
                                    identity_checks, jacobian, membership,
                                    reduced_z_rhs, residuals, scalar_terms,
                                    vector_field, x_from_z, zcons_constraint)
from spin7flow.ratpoly import RatPoly

THIRD = Fraction(1, 3)
SIXTH = Fraction(1, 6)


def cone_point_kpl(p):
    return PhaseState((THIRD, 0, 0, THIRD),
                      (0, THIRD, THIRD, Fraction(6 * p.delta, p.k + p.l)))


def cone_point_k(p):
    return PhaseState((0, 0, THIRD, THIRD),
                      (THIRD, THIRD, 0, Fraction(6 * p.delta, p.k)))


def cone_point_l(p):
    return PhaseState((0, THIRD, 0, THIRD),
                      (THIRD, 0, THIRD, Fraction(6 * p.delta, p.l)))


def alc_sink():
    return PhaseState((SIXTH,) * 3 + (0,), (SIXTH,) * 3 + (0,))


def random_rational_state(rng, span=3):
    vals = [Fraction(rng.randrange(-span * 6, span * 6 + 1), 6)
            for _ in range(8)]
    return PhaseState.from_sequence(vals)


PARAMS = [AWParams(1, 0), AWParams(1, 1), AWParams(3, 2), AWParams(17, 5)]


@pytest.mark.parametrize("p", PARAMS)
def test_scalar_terms_at_cone_point(p):
    terms = scalar_terms(p, cone_point_kpl(p))
    assert terms.G == THIRD
    assert terms.R == (Fraction(2, 9), 0, 0, Fraction(2, 9))
    assert terms.Rs == Fraction(2, 3)


def test_scalar_terms_at_alc_sink():
    p = AWParams(3, 2)
    terms = scalar_terms(p, alc_sink())
    assert terms.G == SIXTH
    assert terms.R == (Fraction(5, 36),) * 3 + (0,)
    assert terms.Rs == Fraction(5, 6)


@pytest.mark.parametrize("p", PARAMS)
def test_vector_field_vanishes_at_fixed_points(p):
    zero = PhaseState((0,) * 4, (0,) * 4)
    points = [cone_point_kpl(p), cone_point_k(p), alc_sink()]
    if p.l > 0:
        points.append(cone_point_l(p))
    for state in points:
        assert vector_field(p, state) == zero


@pytest.mark.parametrize("p", PARAMS)
def test_polynomial_identities_exact(p):
    rng = random.Random(42)
    for _ in range(60):
        state = random_rational_state(rng)
        rep = identity_checks(p, state)
        assert rep.hyperplane_flow == 0
        assert rep.spin_plus_sum == 0
        assert rep.spin_minus_sum == 0


def test_float_rhs_matches_exact_field():
    p = AWParams(3, 2)
    rhs = flow_rhs(p)
    rng = random.Random(5)
    for _ in range(40):
        state = random_rational_state(rng)
        exact = [float(v) for v in vector_field(p, state).as_tuple()]
        approx = rhs(0.0, state.as_floats())
        for a, b in zip(exact, approx):
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


@pytest.mark.parametrize("chir", [Chirality.PLUS, Chirality.MINUS])
def test_x_from_z_solves_first_order_system(chir):
    p = AWParams(3, 2)
    rng = random.Random(9)
    for _ in range(40):
        z = tuple(Fraction(rng.randrange(0, 12), 6) for _ in range(4))
        state = PhaseState(x_from_z(p, z, chir), z)
        res = residuals(p, state)
        target = res.F if chir is Chirality.PLUS else res.H
        assert all(v == 0 for v in target)
        # With X eliminated, the Z-side conservation matches the hyperplane.
        zres = res.zcons_plus if chir is Chirality.PLUS else res.zcons_minus
        assert res.hyperplane == zres


def test_reduced_rhs_matches_full_field():
    p = AWParams(3, 2)
    for chir in (Chirality.PLUS, Chirality.MINUS):
        rhs = reduced_z_rhs(p, chir)
        rng = random.Random(13)
        for _ in range(30):
            z = tuple(Fraction(rng.randrange(0, 10), 7) for _ in range(4))
            state = PhaseState(x_from_z(p, z, chir), z)
            full = [float(v) for v in vector_field(p, state).Z]
            red = rhs(0.0, tuple(float(v) for v in z))
            for a, b in zip(full, red):
                assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


def test_membership_cone_points():
    p = AWParams(3, 2)
    pt = cone_point_kpl(p)
    assert membership(p, pt, SetId.CRF, tol=0).ok
    assert membership(p, pt, SetId.C_SPIN_PLUS, tol=0).ok
    assert membership(p, pt, SetId.S_CHECK, tol=1e-12).ok
    assert not membership(p, pt, SetId.C_SPIN_MINUS).ok
    ptk = cone_point_k(p)
    assert membership(p, ptk, SetId.C_SPIN_MINUS, tol=0).ok
    assert membership(p, ptk, SetId.T_K_CHECK, tol=0).ok
    assert not membership(p, ptk, SetId.C_SPIN_PLUS).ok


def test_membership_alc_sink_in_g2_locus():
    p = AWParams(1, 1)
    pt = alc_sink()
    assert membership(p, pt, SetId.C_G2, tol=0).ok
    assert membership(p, pt, SetId.S_TILDE, tol=0).ok
    assert membership(p, pt, SetId.T_TILDE, tol=0).ok


def test_membership_negative_z4_reports_not_raises():
    p = AWParams(3, 2)
    bad = PhaseState((THIRD, 0, 0, THIRD), (0, THIRD, THIRD, -1))
    rep = membership(p, bad, SetId.CRF)
    assert not rep.ok
    names = [c.name for c in rep.conditions if not c.ok]
    assert "Z4 >= 0" in names


def test_membership_decides_exact_values_exactly():
    # s = a - 1001*sqrt(10) lies in [-1e-9, 0), but float(s) rounds to
    # -1.0004e-09, which a float comparison would place outside the tol.
    s = QuadExt(Fraction(3165439937827547711330892437914871, 10 ** 30),
                -1001, 10)
    tol = 1e-9
    assert -Fraction(tol) <= s < 0 and float(s) < -tol
    state = PhaseState((SIXTH,) * 3 + (0,), (SIXTH, SIXTH + s, SIXTH, s))
    rep = membership(AWParams(1, 1), state, SetId.S_TILDE, tol=tol)
    conds = {c.name: c for c in rep.conditions}
    for name in ("Z4 >= 0", "Z2 = Z3"):
        assert conds[name].ok
        assert conds[name].value == float(s)
    tighter = membership(AWParams(1, 1), state, SetId.S_TILDE, tol=tol / 2)
    assert not {c.name: c.ok for c in tighter.conditions}["Z4 >= 0"]


def test_membership_tilde_sets_restricted():
    p = AWParams(3, 2)
    with pytest.raises(InvalidRequestError):
        membership(p, alc_sink(), SetId.S_TILDE)
    with pytest.raises(InvalidRequestError):
        membership(p, alc_sink(), "TTilde")
    with pytest.raises(InvalidRequestError):
        membership(p, alc_sink(), "NoSuchSet")


def test_membership_string_set_ids():
    p = AWParams(1, 1)
    assert membership(p, alc_sink(), "SCheck").ok
    assert membership(p, alc_sink(), "TkCheck").ok


def test_mirror_symmetry_swaps_slots_two_three():
    """Swapping (X2, Z2) with (X3, Z3) while exchanging k and l maps the
    flow to itself with the second and third components exchanged."""
    p = SimpleNamespace(k=3, l=2, delta=19)
    q = SimpleNamespace(k=2, l=3, delta=19)
    rng = random.Random(21)
    for _ in range(30):
        vals = [Fraction(rng.randrange(-12, 13), 6) for _ in range(8)]
        state = PhaseState.from_sequence(vals)
        mirrored = PhaseState((vals[0], vals[2], vals[1], vals[3]),
                              (vals[4], vals[6], vals[5], vals[7]))
        t1 = scalar_terms(p, state)
        t2 = scalar_terms(q, mirrored)
        assert t1.G == t2.G
        assert t1.R[0] == t2.R[0] and t1.R[3] == t2.R[3]
        assert t1.R[1] == t2.R[2] and t1.R[2] == t2.R[1]
        r1 = residuals(p, state)
        r2 = residuals(q, mirrored)
        assert r1.hyperplane == r2.hyperplane
        assert r1.conservation == r2.conservation
        assert r1.F[0] == r2.F[0] and r1.F[1] == r2.F[2] and r1.F[2] == r2.F[1]
        assert r1.H[3] == r2.H[3]
        assert r1.zcons_plus == r2.zcons_plus


def test_spin_chirality_of_cone_points_matches_bundles():
    """The k+l cone point sits on the plus-chirality set, the k and l cone
    points on the minus one."""
    for p in (AWParams(3, 2), AWParams(17, 5), AWParams(1, 1)):
        res = residuals(p, cone_point_kpl(p))
        assert all(v == 0 for v in res.F)
        assert any(v != 0 for v in res.H)
        res = residuals(p, cone_point_k(p))
        assert all(v == 0 for v in res.H)
        assert any(v != 0 for v in res.F)
        if p.l > 0:
            res = residuals(p, cone_point_l(p))
            assert all(v == 0 for v in res.H)


# ---------------------------------------------------------------------------
# one source: hand derivatives against RatPoly partials, float closures
# against the evaluators, and no coefficient tuples outside phase_system

NAMES = ("X1", "X2", "X3", "X4", "Z1", "Z2", "Z3", "Z4")
CHIRALITIES = (Chirality.PLUS, Chirality.MINUS)


@lru_cache(maxsize=None)
def symbolic_derivatives(k, l):
    """Exact partials of the flow and of every constraint, taken from the
    evaluators run on RatPoly symbols."""
    p = AWParams(k, l)
    sym = PhaseState.from_sequence(
        RatPoly.variable(NAMES, n) for n in NAMES)
    res = residuals(p, sym)

    def grad(poly, names=NAMES):
        return tuple(poly.partial(n) for n in names)

    return {
        "jacobian": tuple(grad(f) for f in vector_field(p, sym).as_tuple()),
        "hyperplane": grad(res.hyperplane),
        "conservation": grad(res.conservation),
        "F": tuple(grad(f) for f in res.F),
        "H": tuple(grad(h) for h in res.H),
        Chirality.PLUS: grad(res.zcons_plus, NAMES[4:]),
        Chirality.MINUS: grad(res.zcons_minus, NAMES[4:]),
    }


def coprime_pairs():
    return st.tuples(st.integers(1, 40), st.integers(0, 40)).filter(
        lambda kl: kl[0] >= kl[1] and gcd(*kl) == 1)


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=12)


@settings(max_examples=40, deadline=None)
@given(kl=coprime_pairs(), values=st.lists(rationals, min_size=8,
                                           max_size=8))
@example(kl=(1, 0), values=[Fraction(1, 3)] * 8)
@example(kl=(1, 1), values=[Fraction(-1, 2), 0, 2, 1, 0, 3, Fraction(1, 5), 1])
def test_hand_derivatives_equal_ratpoly_partials(kl, values):
    p = AWParams(*kl)
    state = PhaseState.from_sequence(values)
    sym = symbolic_derivatives(*kl)

    def at(rows):
        return tuple(tuple(v.evaluate(values) for v in row) for row in rows)

    assert jacobian(p, state) == at(sym["jacobian"])
    grads = constraint_gradients(p, state)
    assert grads["hyperplane"] == at([sym["hyperplane"]])[0]
    assert grads["conservation"] == at([sym["conservation"]])[0]
    assert first_order_jacobians(p, state) == (at(sym["F"]), at(sym["H"]))
    for chir in CHIRALITIES:
        d = phase_system._spin_coefficients(p, chir)
        assert (phase_system._zcons_gradient(d, state.Z)
                == at([sym[chir]])[0])


def random_float_state(rng):
    return tuple(rng.uniform(-1.0, 1.0) for _ in range(7)) + (
        rng.uniform(0.0, 20.0),)


@pytest.mark.parametrize("p", PARAMS)
def test_float_closures_equal_evaluators_bit_for_bit(p):
    rng = random.Random(p.k * 100 + p.l)
    rhs = flow_rhs(p)
    con = crf_constraints(p)
    for _ in range(50):
        y = random_float_state(rng)
        state = PhaseState.from_sequence(y)
        assert tuple(rhs(0.0, y)) == vector_field(p, state).as_tuple()
        res = residuals(p, state)
        assert con(y)[0] == (res.hyperplane, res.conservation)
    for chir in CHIRALITIES:
        rhs = reduced_z_rhs(p, chir)
        zcons = zcons_constraint(p, chir)
        for _ in range(50):
            z = random_float_state(rng)[4:]
            state = PhaseState(x_from_z(p, z, chir), z)
            assert tuple(rhs(0.0, z)) == vector_field(p, state).Z
            res = residuals(p, state)
            want = (res.zcons_plus if chir is Chirality.PLUS
                    else res.zcons_minus)
            assert zcons(z)[0] == (want,)


COEFFICIENT_TUPLES = {"quartic_coefficients", "cubic_coefficients"}


def test_coefficient_tuples_stay_in_phase_system():
    offenders = []
    for path in sorted(Path(spin7flow.__file__).parent.glob("*.py")):
        if path.stem == "phase_system":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                used = {a.name for a in node.names}
            else:
                used = {getattr(node, "id", None), getattr(node, "attr", None)}
            if used & COEFFICIENT_TUPLES:
                offenders.append("%s:%d" % (path.name, node.lineno))
    assert offenders == []
