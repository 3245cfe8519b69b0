"""Tests for the polynomial flow, constraint residuals, and membership."""

import ast
import hashlib
import random
from fractions import Fraction
from functools import lru_cache
from math import gcd
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fraction_reference
import spin7flow
from spin7flow import phase_system
from spin7flow.aw_algebra import AWParams
from spin7flow.critical_points import catalog
from spin7flow.errors import InvalidRequestError
from spin7flow.exact import QuadExt
from spin7flow.phase_system import (EINSTEIN_LEVEL, Chirality, PhaseState,
                                    SetId, constraint_gradients,
                                    crf_constraints, derivative,
                                    einstein_residual, first_order_jacobians,
                                    flow_rhs, identity_checks, jacobian,
                                    membership, quartic_coefficients,
                                    r_terms, reduced_z_rhs, residuals,
                                    scalar_terms, value_and_derivative,
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
        assert derivative(lambda z: (phase_system._zcons(
            z, phase_system._cubic_terms(d, z)),), state.Z) == at([sym[chir]])


def exact_rows(rows, values):
    return tuple(tuple(v.evaluate(values) for v in row) for row in rows)


def derived_rows(p, state):
    """Every derivative phase_system derives, keyed like
    symbolic_derivatives; the zcons gradients come from differentiating
    the float closures' formula with the state's own coefficients."""
    grads = constraint_gradients(p, state)
    f, h = first_order_jacobians(p, state)
    out = {"jacobian": jacobian(p, state), "F": f, "H": h,
           "hyperplane": (grads["hyperplane"],),
           "conservation": (grads["conservation"],)}
    for chir in CHIRALITIES:
        d = phase_system._matching(
            phase_system._spin_coefficients(p, chir), state.Z)
        out[chir] = derivative(lambda z: (phase_system._zcons(
            z, phase_system._cubic_terms(d, z)),), state.Z)
    return out


def symbolic_rows(sym):
    return {key: (rows if key in ("jacobian", "F", "H") else (rows,))
            for key, rows in sym.items()}


@pytest.mark.parametrize("kl", [(1, 1), (3, 2), (13, 5)])
def test_derivatives_equal_ratpoly_partials_on_quadext_states(kl):
    """At the ALC_b points (Z1..Z3 in Q(sqrt d), Z4 = 0) and at the same
    points moved to X4 = 1/3, Z4 = 1/2, where every term is live."""
    p = AWParams(*kl)
    sym = symbolic_rows(symbolic_derivatives(*kl))
    cat = catalog(p)
    for label in ("ALC_b1", "ALC_b2", "ALC_b3"):
        base = cat.get(label).state.as_tuple()
        for values in (base,
                       base[:3] + (THIRD,) + base[4:7] + (Fraction(1, 2),)):
            assert any(isinstance(v, QuadExt) for v in values)
            got = derived_rows(p, PhaseState.from_sequence(values))
            for key, rows in sym.items():
                assert got[key] == exact_rows(rows, values), (label, key)


# Float derivatives differ from the exact partials only by rounding: each
# entry lies within FLOAT_PARTIAL_ULPS units of roundoff (u = 2^-53) times
# the partial with absolute coefficients at |state|.  That is the
# forward-error bound gamma_n of a polynomial evaluation (Higham, Accuracy
# and Stability of Numerical Algorithms, 2nd ed., sec. 5.1), with n = 16
# above the longest chain of roundings along any one term here (about a
# dozen).  The worst ratio seen over these states is about 3.3.
FLOAT_PARTIAL_ULPS = 16


def absolute(poly):
    return RatPoly(poly.variables,
                   {e: abs(c) for e, c in poly.terms.items()})


@pytest.mark.parametrize("p", PARAMS)
def test_float_derivatives_within_rounding_of_exact_partials(p):
    sym = symbolic_rows(symbolic_derivatives(p.k, p.l))
    rng = random.Random(p.k * 1000 + p.l)
    unit = Fraction(1, 2 ** 53)
    for _ in range(20):
        y = random_float_state(rng)
        exact = [Fraction(v) for v in y]
        magnitude = [abs(v) for v in exact]
        got = derived_rows(p, PhaseState.from_sequence(y))
        for key, rows in sym.items():
            for got_row, row in zip(got[key], rows):
                for value, poly in zip(got_row, row):
                    err = abs(Fraction(value) - poly.evaluate(exact))
                    bound = FLOAT_PARTIAL_ULPS * unit * (
                        absolute(poly).evaluate(magnitude))
                    assert err <= bound, (key, poly)


def zcons_gradient_by_hand(d, z):
    """The Z-gradient of zcons as once typed out term by term: the
    reference association for the projection's float gradient."""
    da, db, dc = d
    z1, z2, z3, z4 = z
    p23 = (0, da * z3 * z4, da * z2 * z4, da * z2 * z3)
    p13 = (db * z3 * z4, 0, db * z1 * z4, db * z1 * z3)
    p12 = (dc * z2 * z4, dc * z1 * z4, 0, dc * z1 * z2)
    return (2 + p13[0] + p12[0], 2 - p23[1] + p12[1],
            2 - p23[2] + p13[2], -p23[3] + p13[3] + p12[3])


@pytest.mark.parametrize("p", PARAMS)
def test_float_zcons_gradient_keeps_hand_association(p):
    """Forward mode through zcons's own expression gives the float
    gradient of the former hand formula bit for bit, signed zeros too;
    the projection's Gauss-Newton steps in spin modes rest on these bits."""
    rng = random.Random(p.k * 7 + p.l)
    for chir in CHIRALITIES:
        d = tuple(map(float, phase_system._spin_coefficients(p, chir)))
        con = zcons_constraint(p, chir)
        for _ in range(1250):
            z = random_float_state(rng)[4:]
            got = derivative(con, z)[0]
            want = zcons_gradient_by_hand(d, z)
            assert [v.hex() for v in map(float, got)] == \
                [v.hex() for v in map(float, want)]


# ---------------------------------------------------------------------------
# the dual layer: the quotient rule and duals over numpy columns


@lru_cache(maxsize=None)
def einstein_chain_rule_pieces(k, l):
    """RatPoly partials of R1..R3 in Z1, Z2, Z3 and in W = Z4^2 taken as
    a symbol of its own, and of q = R4 / Z4^2 in Z1, Z2, Z3."""
    names = ("Z1", "Z2", "Z3", "W")
    z1, z2, z3, w = (RatPoly.variable(names, n) for n in names)
    c = quartic_coefficients(AWParams(k, l))
    r = r_terms(c, z1, z2, z3, w)[:3]
    q = r_terms(c, z1, z2, z3, 1)[3]
    return (q, tuple(q.partial(n) for n in names[:3]),
            tuple(tuple(ri.partial(n) for n in names) for ri in r))


def einstein_jacobian_by_chain_rule(k, l, z):
    """d(R_i - 6/49)/dZ_j at W = L/q (L = 6/49): the partial in Z_j plus
    the partial in W times dW/dZ_j = -L * (dq/dZ_j) / q^2."""
    q, dq, dr = einstein_chain_rule_pieces(k, l)
    qz = q.evaluate(list(z) + [0])
    at = list(z) + [EINSTEIN_LEVEL / qz]
    dw = [-EINSTEIN_LEVEL * d.evaluate(at) / (qz * qz) for d in dq]
    return tuple(tuple(row[j].evaluate(at) + row[3].evaluate(at) * dw[j]
                       for j in range(3)) for row in dr)


positive_rationals = st.fractions(min_value=Fraction(1, 12), max_value=3,
                                  max_denominator=12)


@settings(max_examples=40, deadline=None)
@given(kl=coprime_pairs(),
       z=st.tuples(positive_rationals, positive_rationals, positive_rationals))
@example(kl=(1, 0), z=(Fraction(1, 3), Fraction(1, 2), Fraction(1, 4)))
def test_einstein_residual_derivative_equals_chain_rule(kl, z):
    p = AWParams(*kl)
    got = derivative(lambda y: einstein_residual(p, *y)[0], z)
    assert got == einstein_jacobian_by_chain_rule(*kl, z)


def einstein_outputs(p):
    def fun(y):
        resid, z4sq = einstein_residual(p, *y)
        return resid + (z4sq,)
    return fun


def field_outputs(p):
    c = tuple(map(float, quartic_coefficients(p)))
    return lambda y: phase_system._field(c, y[:4], y[4:])


def nonzero_floats(low, high):
    return st.floats(low, high).filter(lambda v: v != 0.0)


def row_of(v, n):
    return float(v[n] if isinstance(v, np.ndarray) else v).hex()


@settings(max_examples=40, deadline=None)
@given(kl=coprime_pairs(), points=st.lists(
    st.tuples(*[nonzero_floats(-1.0, 1.0)] * 4,
              *[nonzero_floats(0.01, 2.0)] * 4), min_size=1, max_size=6))
def test_column_duals_give_each_row_the_bits_of_scalar_duals(kl, points):
    """Nonzero points, so no scalar product skips a term."""
    p = AWParams(*kl)
    columns = np.array(points).T
    for fun, cols in ((einstein_outputs(p), columns[4:7]),
                      (field_outputs(p), columns)):
        values, rows = value_and_derivative(fun, tuple(cols))
        for n, point in enumerate(cols.T.tolist()):
            one_values, one_rows = value_and_derivative(fun, point)
            assert [row_of(v, n) for v in values] == \
                [row_of(v, 0) for v in one_values]
            assert [[row_of(v, n) for v in row] for row in rows] == \
                [[row_of(v, 0) for v in row] for row in one_rows]


def einstein_residual_two_calls(p, z1, z2, z3):
    """einstein_residual as r_terms twice: at Z4^2 = 1 for q = R4, then
    at Z4^2 = (6/49)/q for R1..R3."""
    *c, level = phase_system._matching(
        quartic_coefficients(p) + (EINSTEIN_LEVEL,), (z1, z2, z3))
    z4sq = level / r_terms(c, z1, z2, z3, 1)[3]
    return tuple(r - level for r in r_terms(c, z1, z2, z3, z4sq)[:3]), z4sq


def flat_einstein(fun, p):
    def outputs(y):
        resid, z4sq = fun(p, *y)
        return resid + (z4sq,)
    return outputs


def float_bits(values):
    """The bytes of each value as float64, so -0.0, shapes and the
    integer 0 of a structurally zero partial all count."""
    return [np.asarray(v, dtype=float).tobytes() + bytes(type(v).__name__,
                                                         "ascii")
            for v in values]


def test_einstein_residual_equals_its_two_call_form():
    """Bit for bit on floats, numpy columns and their duals, exactly on
    Fractions, on a seeded sample of 40 orbits with 60 >= k > l >= 1."""
    rng = random.Random(63)
    pool = [(k, l) for k in range(2, 61) for l in range(1, k)
            if gcd(k, l) == 1]
    for kl in rng.sample(pool, 40):
        p = AWParams(*kl)
        new = flat_einstein(einstein_residual, p)
        old = flat_einstein(einstein_residual_two_calls, p)
        for _ in range(5):
            z = tuple(rng.uniform(0.01, 2.0) for _ in range(3))
            assert float_bits(new(z)) == float_bits(old(z))
            z = tuple(Fraction(rng.randint(1, 60), rng.randint(1, 30))
                      for _ in range(3))
            assert new(z) == old(z)
        columns = tuple(np.array([rng.uniform(0.01, 2.0) for _ in range(6)])
                        for _ in range(3))
        got, want = (value_and_derivative(f, columns) for f in (new, old))
        assert float_bits(got[0]) == float_bits(want[0])
        assert [float_bits(row) for row in got[1]] == \
            [float_bits(row) for row in want[1]]


def characteristic_polynomial(a):
    """Coefficients of det(t*I - a), leading first (Faddeev-LeVerrier)."""
    n = len(a)
    coeffs = [Fraction(1)]
    m = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        m = [[sum(a[i][t] * m[t][j] for t in range(n))
              + (coeffs[-1] if i == j else 0) for j in range(n)]
             for i in range(n)]
        coeffs.append(-sum(sum(a[i][t] * m[t][i] for t in range(n))
                           for i in range(n)) / k)
    return coeffs


def monic_with_roots(roots):
    coeffs = [Fraction(1)]
    for r in roots:
        coeffs = [a - r * b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


@pytest.mark.parametrize("kl", [(1, 0), (1, 1), (3, 2), (13, 5), (59, 23)])
@pytest.mark.parametrize("chir", CHIRALITIES)
def test_reduced_flow_jacobian_at_p1_is_exact(kl, chir):
    """The reduced Z-flow (X = x_from_z(Z)) linearized at the ALC sink
    P1 = (1/6, 1/6, 1/6, 0): an exact rational matrix with spectrum
    +1/6, -1/6, -2/3, -2/3."""
    p = AWParams(*kl)
    z = catalog(p).get("P1").state.Z
    assert z == (SIXTH, SIXTH, SIXTH, 0)
    a = derivative(lambda w: vector_field(
        p, PhaseState(x_from_z(p, w, chir), w)).Z, z)
    assert all(isinstance(v, (int, Fraction)) for row in a for v in row)
    assert characteristic_polynomial(a) == monic_with_roots(
        [SIXTH, -SIXTH, -4 * SIXTH, -4 * SIXTH])


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
        assert con(y) == (res.hyperplane, res.conservation)
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
            assert zcons(z) == (want,)


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


# ---------------------------------------------------------------------------
# the derivative kernels against the dual pass they are traced from


def kernel_and_dual_rows(p, state):
    """(kernel rows, dual rows) of jacobian, constraint_gradients and
    first_order_jacobians, flattened in that order."""
    def rows(jac, grads, first_order):
        out = jac(p, state) + tuple(grads(p, state).values())
        return out + sum(first_order(p, state), ())

    return (rows(jacobian, constraint_gradients, first_order_jacobians),
            rows(fraction_reference.jacobian,
                 fraction_reference.constraint_gradients,
                 fraction_reference.first_order_jacobians))


@settings(max_examples=60, deadline=None)
@given(kl=coprime_pairs(), values=st.lists(rationals, min_size=8,
                                           max_size=8))
@example(kl=(1, 0), values=[Fraction(1, 7)] * 4 + [Fraction(1, 3)] * 4)
@example(kl=(3, 2), values=[Fraction(-1, 2), 0, 2, 1, 0, 3,
                            Fraction(1, 5), 0])
def test_kernels_equal_dual_forms_at_rational_states(kl, values):
    got, want = kernel_and_dual_rows(AWParams(*kl),
                                     PhaseState.from_sequence(values))
    assert got == want


# Signed zeros or magnitudes in [2^-10, 4], so no product of up to seven
# coordinates underflows.  The duals skip a factor that is 0 when they
# run.  A zero coordinate is traced as 0 and skipped the same way, but a
# product that underflows to 0 is not, and can leave a zero entry whose
# sign the kernel, which keeps the term, does not share.
float_coordinates = st.one_of(st.floats(2.0 ** -10, 4.0),
                              st.floats(-4.0, -2.0 ** -10),
                              st.sampled_from([0.0, -0.0]))


@settings(max_examples=60, deadline=None)
@given(kl=coprime_pairs(), values=st.lists(float_coordinates, min_size=8,
                                           max_size=8),
       exact_x=st.booleans())
@example(kl=(1, 0), values=[0.5] * 8, exact_x=True)
@example(kl=(3, 2), values=[-0.0, 0.5, 0.0, 1.5, 0.25, -0.0, 2.0, 0.0],
         exact_x=False)
def test_kernels_give_the_dual_bits_at_float_states(kl, values, exact_x):
    """Bit for bit, signed zeros too; exact_x puts X at (1/7, ..., 1/7)
    as at the inexact AC points, whose X stays exact."""
    if exact_x:
        values = [Fraction(1, 7)] * 4 + values[4:]
    got, want = kernel_and_dual_rows(AWParams(*kl),
                                     PhaseState.from_sequence(values))
    assert [[float(v).hex() for v in row] for row in got] == \
        [[float(v).hex() for v in row] for row in want]


@pytest.mark.parametrize("kl", [(1, 0), (1, 1), (3, 2), (13, 5)])
def test_kernels_at_one_field_written_as_sqrt2_and_sqrt8(kl):
    root2, root8 = QuadExt(0, 1, 2), QuadExt(0, Fraction(1, 2), 8)
    state = PhaseState((THIRD, root2, 0, Fraction(1, 5)),
                       (root8, SIXTH + root2, Fraction(2, 7), 3 * root8))
    got, want = kernel_and_dual_rows(AWParams(*kl), state)
    assert got == want


@pytest.mark.parametrize("kl", [(1, 0), (3, 2)])
def test_kernels_refuse_a_state_across_two_fields_as_the_duals_do(kl):
    p = AWParams(*kl)
    state = PhaseState((THIRD, QuadExt(0, 1, 2), 0, Fraction(1, 5)),
                       (SIXTH, QuadExt(THIRD, 1, 3), Fraction(2, 7), 1))
    for name in ("jacobian", "first_order_jacobians"):
        with pytest.raises(TypeError):
            getattr(fraction_reference, name)(p, state)
        with pytest.raises(TypeError):
            getattr(phase_system, name)(p, state)


# SHA-256 of the traced right-hand-side sources (flow, spin+, spin-); the
# bits of every integrated trajectory rest on these lines.
RHS_KERNEL_DIGESTS = {
    (1, 0): (
        "b4827498db1e7514f47e6b615268e777a0f58b2a9a787b4a924b6924abd4bcce",
        "12a57201dd1f4f0aa2a8f687694fa116ef6667914f84b88d19be0cd2fbec4d93",
        "4761d1f84b721b92c517b86e20f6aec297df6a3bf34a616f06b0c0231c11ee7b"),
    (1, 1): (
        "9a85767c7f3c950f72e30fb1602e3ad63096586c377c81293ec796450d8d6e99",
        "0df25b1ccd568846c402d15c256e15a8f04003e2e2ab59c309f1fbca54f94d4e",
        "8a1e3e37c8b324d723524add20eafb8c0116c3eecbe4194fe204d9ef94a4c2ae"),
    (3, 2): (
        "2e869f2686bfc463700d497932cf85cbc7472ddb2db6cf2e9bad5f077c3524e7",
        "250b2c9019808d5b9e7b3c077a43d4c5a184134ece54a459c2ac62e0c2dd27a6",
        "e94b7cd7926ef73504fe9e2c24232ffe3ccb36c52ebcffd363e193215b64a0e6"),
    (13, 5): (
        "29e76de9ff86379d68d22302b060982399d2eeeb6d717bee6a50c6816f5ed40c",
        "b6f94e4db72d8590afd1ed18767cd108c09fdfb689aa8b535a382bcc10f48015",
        "e339b404e0e7794402da8bcf8f91fa4d959eacb695792b3f75da3ab7c4834f5a"),
}


@pytest.mark.parametrize("kl", sorted(RHS_KERNEL_DIGESTS))
def test_rhs_kernel_sources_are_pinned(kl):
    p = AWParams(*kl)
    sources = [flow_rhs(p).kernel] + [reduced_z_rhs(p, chir).kernel
                                      for chir in CHIRALITIES]
    assert tuple(hashlib.sha256(s.encode()).hexdigest()
                 for s in sources) == RHS_KERNEL_DIGESTS[kl]
