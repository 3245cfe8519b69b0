"""The 8-dimensional polynomial flow, its constraints and their derivatives.

The state is (X1, X2, X3, X4, Z1, Z2, Z3, Z4).  With

    G  = 2*X1^2 + 2*X2^2 + 2*X3^2 + X4^2

and the four curvature-type polynomials R1..R4 below, the flow is

    Xi' = Xi*(G - 1) + Ri                       (i = 1..4)
    Z1' = Z1*(G + X1 - X2 - X3)    Z2' = Z2*(G + X2 - X3 - X1)
    Z3' = Z3*(G + X3 - X1 - X2)    Z4' = Z4*(X4 - G)

It preserves the hyperplane 2*(X1 + X2 + X3) + X4 = 1, the conservation
law G - 1 + Rs = 0 (Rs = 2*R1 + 2*R2 + 2*R3 + R4) and the first-order
Spin(7) systems F = 0, H = 0, on whose sets X is linear in Z.

This module is the one place where a flow polynomial or a derivative of
one is written, each once, generic over exact values (Fraction, QuadExt,
RatPoly), floats and numpy columns.  Rounding rule: a float expression
associates as the integrator runs it (``flow_rhs``, ``reduced_z_rhs``,
``zcons_constraint``, ``crf_constraints``): da*Z2*Z3*Z4 left to right, Rs
as 12*(Z1*Z2 + Z2*Z3 + Z3*Z1) - 2*(Z1^2 + Z2^2 + Z3^2) - q*Z4^2, since a
last-bit change there moves integrated states well beyond an ulp.  The
evaluators thus agree with the integrator bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import isfinite, sqrt

import numpy as np

from .errors import InvalidRequestError
from .exact import is_exact_scalar

__all__ = [
    "PhaseState",
    "ScalarTerms",
    "ConstraintResiduals",
    "Chirality",
    "SetId",
    "ConditionCheck",
    "MembershipReport",
    "IdentityReport",
    "scalar_terms",
    "vector_field",
    "residuals",
    "x_from_z",
    "membership",
    "identity_checks",
    "cubic_coefficients",
    "quartic_coefficients",
    "g_of_x",
    "r_terms",
    "einstein_residual",
    "jacobian",
    "constraint_gradients",
    "first_order_jacobians",
    "flow_rhs",
    "reduced_z_rhs",
    "zcons_constraint",
    "crf_constraints",
]

TWO_THIRDS = Fraction(2, 3)
EINSTEIN_LEVEL = Fraction(6, 49)


class Chirality(Enum):
    PLUS = "spin+"
    MINUS = "spin-"


class SetId(Enum):
    CRF = "CRF"
    C_SPIN_PLUS = "CSpinPlus"
    C_SPIN_MINUS = "CSpinMinus"
    C_G2 = "CG2"
    S_CHECK = "SCheck"
    T_K_CHECK = "TkCheck"
    S_TILDE = "STilde"
    T_TILDE = "TTilde"


@dataclass(frozen=True)
class PhaseState:
    """A point (X, Z) of the 8-dimensional phase space."""

    X: tuple
    Z: tuple

    def __post_init__(self):
        if len(self.X) != 4 or len(self.Z) != 4:
            raise ValueError("PhaseState needs 4 X entries and 4 Z entries")

    @classmethod
    def from_sequence(cls, seq):
        vals = tuple(seq)
        if len(vals) != 8:
            raise ValueError("need 8 entries (X1..X4, Z1..Z4)")
        return cls(vals[:4], vals[4:])

    def as_tuple(self):
        return self.X + self.Z

    def as_floats(self):
        return tuple(float(v) for v in self.as_tuple())

    def is_exact(self):
        return all(is_exact_scalar(v) for v in self.as_tuple())


@dataclass(frozen=True)
class ScalarTerms:
    """The scalar G, the four polynomials R1..R4, and their weighted sum."""

    G: object
    R: tuple
    Rs: object


@dataclass(frozen=True)
class ConstraintResiduals:
    """Residuals of every algebraic constraint at one state.

    Equalities are reported as (left side) - (right side), so membership in
    the corresponding set means the residual vanishes.
    """

    hyperplane: object
    conservation: object
    F: tuple
    H: tuple
    zcons_plus: object
    zcons_minus: object


def cubic_coefficients(params):
    """The rational coefficients ((k+l), l, k) / (2*delta) of the Z-cubics."""
    twod = 2 * params.delta
    return (Fraction(params.k + params.l, twod),
            Fraction(params.l, twod),
            Fraction(params.k, twod))


def quartic_coefficients(params):
    """The rational coefficients ((k+l)^2, l^2, k^2) / (2*delta^2)."""
    d2 = 2 * params.delta * params.delta
    return (Fraction((params.k + params.l) ** 2, d2),
            Fraction(params.l ** 2, d2),
            Fraction(params.k ** 2, d2))


def _scalars(values):
    """Python floats: float64 arithmetic, faster than numpy scalars."""
    if isinstance(values, np.ndarray):
        return values.astype(float, copy=False).tolist()
    return list(map(float, values))


def _matching(coeffs, z):
    """coeffs as floats on float or numpy Z, else exact: Fraction * numpy
    column is an object array, Fraction * float is float(coeff) * float."""
    if any(isinstance(v, (float, np.generic, np.ndarray)) for v in z):
        return tuple(map(float, coeffs))
    return coeffs


def _spin_coefficients(params, chirality):
    """Cubic coefficients with the chirality's sign: F has +a, H has -a."""
    sgn = 1 if chirality is Chirality.PLUS else -1
    return tuple(sgn * c for c in cubic_coefficients(params))


# ---------------------------------------------------------------------------
# polynomials and derivatives; c = quartic, d = (signed) cubic coefficients


def g_of_x(x):
    """G = 2*X1^2 + 2*X2^2 + 2*X3^2 + X4^2; needs no orbit parameters."""
    x1, x2, x3, x4 = x
    return 2 * (x1 * x1 + x2 * x2 + x3 * x3) + x4 * x4


def r_terms(c, z1, z2, z3, z4sq):
    """R1..R4; Z4 enters only through Z4^2."""
    ca, cb, cc = c
    t23 = z2 * z2 * z3 * z3 * z4sq
    t13 = z1 * z1 * z3 * z3 * z4sq
    t12 = z1 * z1 * z2 * z2 * z4sq
    return (6 * z2 * z3 + z1 * z1 - z2 * z2 - z3 * z3 - ca * t23,
            6 * z1 * z3 + z2 * z2 - z3 * z3 - z1 * z1 - cb * t13,
            6 * z1 * z2 + z3 * z3 - z1 * z1 - z2 * z2 - cc * t12,
            ca * t23 + cb * t13 + cc * t12)


def einstein_residual(params, z1, z2, z3):
    """((R1, R2, R3) - 6/49, Z4^2) with Z4^2 = (6/49)/q solving R4 = 6/49:
    the vector field's X rows at X = (1/7, ..., 1/7), where its Z rows
    vanish (the homogeneous Einstein condition)."""
    *c, level = _matching(quartic_coefficients(params) + (EINSTEIN_LEVEL,),
                          (z1, z2, z3))
    z4sq = level / r_terms(c, z1, z2, z3, 1)[3]
    return tuple(r - level for r in r_terms(c, z1, z2, z3, z4sq)[:3]), z4sq


def _quartic_sum(c, z):
    """q with R4 = q*Z4^2."""
    ca, cb, cc = c
    z1, z2, z3, _ = z
    return (ca * z2 * z2 * z3 * z3 + cb * z1 * z1 * z3 * z3
            + cc * z1 * z1 * z2 * z2)


def _rs(c, z):
    z1, z2, z3, z4 = z
    return (12 * (z1 * z2 + z2 * z3 + z3 * z1)
            - 2 * (z1 * z1 + z2 * z2 + z3 * z3)
            - _quartic_sum(c, z) * z4 * z4)


def _crf_values(c, x, z):
    """The hyperplane and conservation residuals."""
    x1, x2, x3, x4 = x
    return 2 * (x1 + x2 + x3) + x4 - 1, g_of_x(x) - 1 + _rs(c, z)


def _z_field(g, x, z):
    x1, x2, x3, x4 = x
    z1, z2, z3, z4 = z
    return (z1 * (g + x1 - x2 - x3), z2 * (g + x2 - x3 - x1),
            z3 * (g + x3 - x1 - x2), z4 * (x4 - g))


def _field(c, x, z):
    x1, x2, x3, x4 = x
    z1, z2, z3, z4 = z
    g = g_of_x(x)
    gm1 = g - 1
    r1, r2, r3, r4 = r_terms(c, z1, z2, z3, z4 * z4)
    return ((x1 * gm1 + r1, x2 * gm1 + r2, x3 * gm1 + r3, x4 * gm1 + r4)
            + _z_field(g, x, z))


def _cubic_terms(d, z):
    """(a23, a13, a12), or their negatives for signed coefficients of H."""
    da, db, dc = d
    z1, z2, z3, z4 = z
    return da * z2 * z3 * z4, db * z1 * z3 * z4, dc * z1 * z2 * z4


def _x_of_z(z, u):
    """X solving F = 0 (cubic terms u) or H = 0 (-u); F, H = X minus it."""
    z1, z2, z3, _ = z
    u23, u13, u12 = u
    return (z2 + z3 - z1 - u23,
            z3 + z1 - z2 + u13,
            z1 + z2 - z3 + u12,
            u23 - u13 - u12)


def _zcons(z, u):
    z1, z2, z3, _ = z
    u23, u13, u12 = u
    return 2 * (z1 + z2 + z3) - u23 + u13 + u12 - 1


HYPERPLANE_GRADIENT = (2, 2, 2, 1, 0, 0, 0, 0)


def _g_gradient(x):
    x1, x2, x3, x4 = x
    return (4 * x1, 4 * x2, 4 * x3, 2 * x4)


def _conservation_gradient(c, x, z):
    ca, cb, cc = c
    z1, z2, z3, z4 = z
    return _g_gradient(x) + (
        12 * (z2 + z3) - 4 * z1
        - 2 * z1 * (cb * z3 * z3 + cc * z2 * z2) * z4 * z4,
        12 * (z1 + z3) - 4 * z2
        - 2 * z2 * (ca * z3 * z3 + cc * z1 * z1) * z4 * z4,
        12 * (z1 + z2) - 4 * z3
        - 2 * z3 * (ca * z2 * z2 + cb * z1 * z1) * z4 * z4,
        -2 * z4 * _quartic_sum(c, z))


def _cubic_partials(d, z):
    """Z-gradients of the three cubic terms."""
    da, db, dc = d
    z1, z2, z3, z4 = z
    return ((0, da * z3 * z4, da * z2 * z4, da * z2 * z3),
            (db * z3 * z4, 0, db * z1 * z4, db * z1 * z3),
            (dc * z2 * z4, dc * z1 * z4, 0, dc * z1 * z2))


def _zcons_gradient(d, z):
    p23, p13, p12 = _cubic_partials(d, z)
    return (2 + p13[0] + p12[0],
            2 - p23[1] + p12[1],
            2 - p23[2] + p13[2],
            -p23[3] + p13[3] + p12[3])


def scalar_terms(params, state):
    """Evaluate G, R1..R4, and Rs = 2*R1 + 2*R2 + 2*R3 + R4 at a state."""
    c = _matching(quartic_coefficients(params), state.Z)
    z1, z2, z3, z4 = state.Z
    return ScalarTerms(G=g_of_x(state.X), R=r_terms(c, z1, z2, z3, z4 * z4),
                       Rs=_rs(c, state.Z))


def vector_field(params, state):
    """The flow's velocity at a state, as a PhaseState of components."""
    c = _matching(quartic_coefficients(params), state.Z)
    return PhaseState.from_sequence(_field(c, state.X, state.Z))


def residuals(params, state):
    """All constraint residuals at a state."""
    x, z = state.X, state.Z
    hyperplane, conservation = _crf_values(
        _matching(quartic_coefficients(params), z), x, z)
    plus = _cubic_terms(_matching(cubic_coefficients(params), z), z)
    minus = tuple(-u for u in plus)
    f, h = (tuple(a - b for a, b in zip(x, _x_of_z(z, u)))
            for u in (plus, minus))
    return ConstraintResiduals(
        hyperplane=hyperplane, conservation=conservation, F=f, H=h,
        zcons_plus=_zcons(z, plus), zcons_minus=_zcons(z, minus))


def x_from_z(params, z, chirality):
    """The X coordinates forced by the first-order system on a chirality set.

    Solves F = 0 (PLUS) or H = 0 (MINUS) for X given Z, which is linear.
    """
    d = _matching(_spin_coefficients(params, chirality), z)
    return _x_of_z(z, _cubic_terms(d, z))


def jacobian(params, state):
    """Analytic 8x8 derivative of the vector field; exact at exact states."""
    z1, z2, z3, z4 = state.Z
    ca, cb, cc = c = _matching(quartic_coefficients(params), state.Z)
    g = g_of_x(state.X)
    dg = _g_gradient(state.X)
    z4sq = z4 * z4
    # X rows: d(Xi*(G-1) + Ri)
    dr = [
        (2 * z1,
         6 * z3 - 2 * z2 - 2 * ca * z2 * z3 * z3 * z4sq,
         6 * z2 - 2 * z3 - 2 * ca * z2 * z2 * z3 * z4sq,
         -2 * ca * z2 * z2 * z3 * z3 * z4),
        (6 * z3 - 2 * z1 - 2 * cb * z1 * z3 * z3 * z4sq,
         2 * z2,
         6 * z1 - 2 * z3 - 2 * cb * z1 * z1 * z3 * z4sq,
         -2 * cb * z1 * z1 * z3 * z3 * z4),
        (6 * z2 - 2 * z1 - 2 * cc * z1 * z2 * z2 * z4sq,
         6 * z1 - 2 * z2 - 2 * cc * z1 * z1 * z2 * z4sq,
         2 * z3,
         -2 * cc * z1 * z1 * z2 * z2 * z4),
        (2 * cb * z1 * z3 * z3 * z4sq + 2 * cc * z1 * z2 * z2 * z4sq,
         2 * ca * z2 * z3 * z3 * z4sq + 2 * cc * z1 * z1 * z2 * z4sq,
         2 * ca * z2 * z2 * z3 * z4sq + 2 * cb * z1 * z1 * z3 * z4sq,
         2 * z4 * _quartic_sum(c, state.Z)),
    ]
    rows = []
    for i in range(4):
        xrow = [state.X[i] * dg[j] for j in range(4)]
        xrow[i] = xrow[i] + (g - 1)
        rows.append(tuple(xrow) + dr[i])
    # Z rows: d(Zi*Li), with the factors Li the Z-field at Z = (1, 1, 1, 1)
    lz = _z_field(g, state.X, (1, 1, 1, 1))
    dl = ((1, -1, -1, 0), (-1, 1, -1, 0), (-1, -1, 1, 0), (0, 0, 0, 1))
    for i in range(4):
        dgi = dg if i < 3 else tuple(-v for v in dg)  # Z4' = Z4*(X4 - G)
        rows.append(tuple(state.Z[i] * (dgi[j] + dl[i][j])
                          for j in range(4))
                    + tuple(lz[i] if j == i else 0 for j in range(4)))
    return tuple(rows)


def constraint_gradients(params, state):
    """Gradients of the hyperplane and conservation constraints."""
    c = _matching(quartic_coefficients(params), state.Z)
    return {"hyperplane": HYPERPLANE_GRADIENT,
            "conservation": _conservation_gradient(c, state.X, state.Z)}


def first_order_jacobians(params, state):
    """4x8 derivatives of the F system and of the H system."""
    out = []
    for chirality in (Chirality.PLUS, Chirality.MINUS):
        d = _matching(_spin_coefficients(params, chirality), state.Z)
        p23, p13, p12 = _cubic_partials(d, state.Z)
        dz = (tuple(s + p for s, p in zip((1, -1, -1, 0), p23)),
              tuple(s - p for s, p in zip((-1, 1, -1, 0), p13)),
              tuple(s - p for s, p in zip((-1, -1, 1, 0), p12)),
              tuple(-p + q + r for p, q, r in zip(p23, p13, p12)))
        out.append(tuple((0,) * i + (1,) + (0,) * (3 - i) + row
                         for i, row in enumerate(dz)))
    return tuple(out)


@dataclass(frozen=True)
class ConditionCheck:
    """One membership condition: an equality residual or inequality slack."""

    name: str
    kind: str  # "equality" or "inequality"
    value: float
    ok: bool


@dataclass(frozen=True)
class MembershipReport:
    set_id: SetId
    ok: bool
    conditions: tuple


@dataclass(frozen=True)
class IdentityReport:
    """Residuals of the polynomial identities satisfied by the flow.

    hyperplane_flow:  d/deta of (2X1+2X2+2X3+X4) minus
                      (2X1+2X2+2X3+X4-1)*(G-1) minus (G-1+Rs)
    spin_plus_sum:    2F1+2F2+2F3+F4 minus (hyperplane - zcons_plus)
    spin_minus_sum:   2H1+2H2+2H3+H4 minus (hyperplane - zcons_minus)

    All three vanish identically in exact arithmetic at any state.
    """

    hyperplane_flow: object
    spin_plus_sum: object
    spin_minus_sum: object

    def max_abs(self):
        return max(abs(float(self.hyperplane_flow)),
                   abs(float(self.spin_plus_sum)),
                   abs(float(self.spin_minus_sum)))


def identity_checks(params, state):
    res = residuals(params, state)
    v1, v2, v3, v4 = vector_field(params, state).X
    flow_sum = 2 * (v1 + v2 + v3) + v4
    expected = res.hyperplane * (g_of_x(state.X) - 1) + res.conservation
    f1, f2, f3, f4 = res.F
    h1, h2, h3, h4 = res.H
    return IdentityReport(
        hyperplane_flow=flow_sum - expected,
        spin_plus_sum=2 * (f1 + f2 + f3) + f4 - (res.hyperplane - res.zcons_plus),
        spin_minus_sum=2 * (h1 + h2 + h3) + h4 - (res.hyperplane - res.zcons_minus))


def _exact_or_float(value, tol):
    """(value, tol) to compare exactly when value is exact, else floats.

    An infinite tol decides every comparison alone, so it stays a float.
    """
    if is_exact_scalar(value) and isfinite(tol):
        return value, Fraction(tol)
    return float(value), tol


def _eq(name, value, tol):
    value, tol = _exact_or_float(value, tol)
    return ConditionCheck(name, "equality", float(value), abs(value) <= tol)


def _ge(name, slack, tol):
    """Inequality 'slack >= 0' within tol."""
    slack, tol = _exact_or_float(slack, tol)
    return ConditionCheck(name, "inequality", float(slack), slack >= -tol)


def membership(params, state, set_id, tol=1e-9):
    """Check a state against one constraint set, condition by condition.

    Z4 < 0 (or any other violated inequality) yields ok=False on that
    condition, never an exception.  The two tilde sets exist only for
    (k, l) = (1, 1); other parameters raise InvalidRequestError.
    """
    if isinstance(set_id, str):
        try:
            set_id = SetId(set_id)
        except ValueError:
            raise InvalidRequestError(f"unknown set id {set_id!r}") from None
    if set_id in (SetId.S_TILDE, SetId.T_TILDE) and (params.k, params.l) != (1, 1):
        raise InvalidRequestError(
            f"{set_id.value} is defined only for (k, l) = (1, 1), "
            f"got ({params.k}, {params.l})")

    res = residuals(params, state)
    x4 = state.X[3]
    z1, z2, z3, z4 = state.Z
    conds = [
        _eq("hyperplane", res.hyperplane, tol),
        _eq("conservation", res.conservation, tol),
        _ge("X4 >= 0", x4, tol),
        _ge("Z1 >= 0", z1, tol),
        _ge("Z2 >= 0", z2, tol),
        _ge("Z3 >= 0", z3, tol),
        _ge("Z4 >= 0", z4, tol),
    ]

    def add_spin(chir):
        vals = res.F if chir is Chirality.PLUS else res.H
        tag = "F" if chir is Chirality.PLUS else "H"
        for i, v in enumerate(vals, start=1):
            conds.append(_eq(f"{tag}{i} = 0", v, tol))

    if set_id is SetId.CRF:
        pass
    elif set_id is SetId.C_SPIN_PLUS:
        add_spin(Chirality.PLUS)
    elif set_id is SetId.C_SPIN_MINUS:
        add_spin(Chirality.MINUS)
    elif set_id is SetId.C_G2:
        add_spin(Chirality.PLUS)
        add_spin(Chirality.MINUS)
    elif set_id is SetId.S_CHECK:
        add_spin(Chirality.PLUS)
        z4cap = Fraction(6 * params.delta, params.k + params.l)
        conds.append(_ge("Z4 <= 6*delta/(k+l)", z4cap - z4, tol))
        conds.append(_ge("Z2 + Z3 <= 2/3", TWO_THIRDS - (z2 + z3), tol))
    elif set_id is SetId.T_K_CHECK:
        add_spin(Chirality.MINUS)
        z4cap = Fraction(6 * params.delta, params.k)
        conds.append(_ge("Z1 + Z2 + Z3 <= 2/3", TWO_THIRDS - (z1 + z2 + z3), tol))
        conds.append(_ge("Z4 <= 6*delta/k", z4cap - z4, tol))
        conds.append(_ge("Z1 >= Z2", z1 - z2, tol))
        conds.append(_ge("Z2 >= Z3", z2 - z3, tol))
    elif set_id is SetId.S_TILDE:
        add_spin(Chirality.PLUS)
        conds.append(_eq("X2 = X3", state.X[1] - state.X[2], tol))
        conds.append(_eq("Z2 = Z3", z2 - z3, tol))
        if is_exact_scalar(z2) and is_exact_scalar(z3) and is_exact_scalar(z4) \
                and z2 == z3:
            slack = 3 - z2 * z4
        else:
            prod = float(z2) * float(z3)
            slack = 3.0 - sqrt(max(prod, 0.0)) * float(z4)
        conds.append(_ge("sqrt(Z2*Z3)*Z4 <= 3", slack, tol))
    elif set_id is SetId.T_TILDE:
        add_spin(Chirality.MINUS)
        conds.append(_ge("Z2 + Z3 >= Z1", z2 + z3 - z1, tol))
        conds.append(_ge("(Z2 + Z3)*Z4 <= 6", 6 - (z2 * z4 + z3 * z4), tol))
    else:  # pragma: no cover
        raise InvalidRequestError(f"unhandled set id {set_id!r}")

    conds = tuple(conds)
    return MembershipReport(set_id=set_id, ok=all(c.ok for c in conds),
                            conditions=conds)


def flow_rhs(params):
    """Float-specialized right-hand side for the full 8-dimensional flow."""
    c = tuple(map(float, quartic_coefficients(params)))

    def rhs(eta, y):
        y = _scalars(y)
        return _field(c, y[:4], y[4:])

    return rhs


def reduced_z_rhs(params, chirality):
    """Float-specialized right-hand side of the reduced 4-dimensional flow.

    On either chirality set the X coordinates are functions of Z, so the Z
    equations close up; this is the system actually integrated in the spin
    shooting modes.
    """
    d = tuple(map(float, _spin_coefficients(params, chirality)))

    def rhs(eta, z):
        z = _scalars(z)
        x = _x_of_z(z, _cubic_terms(d, z))
        return _z_field(g_of_x(x), x, z)

    return rhs


def zcons_constraint(params, chirality):
    """Float closure z -> ((zcons+ or zcons-,), (its Z-gradient,))."""
    d = tuple(map(float, _spin_coefficients(params, chirality)))

    def fun(z):
        z = _scalars(z)
        return (_zcons(z, _cubic_terms(d, z)),), (_zcons_gradient(d, z),)

    return fun


def crf_constraints(params):
    """Float closure y -> ((hyperplane, conservation), their gradients)."""
    c = tuple(map(float, quartic_coefficients(params)))

    def fun(y):
        y = _scalars(y)
        x, z = y[:4], y[4:]
        return (_crf_values(c, x, z),
                (HYPERPLANE_GRADIENT, _conservation_gradient(c, x, z)))

    return fun
