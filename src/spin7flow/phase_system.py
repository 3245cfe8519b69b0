"""The 8-dimensional polynomial flow and its algebraic constraint sets.

The state is (X1, X2, X3, X4, Z1, Z2, Z3, Z4).  With

    G  = 2*X1^2 + 2*X2^2 + 2*X3^2 + X4^2

and the four curvature-type polynomials R1..R4 below, the flow is

    Xi' = Xi*(G - 1) + Ri                       (i = 1..4)
    Z1' = Z1*(G + X1 - X2 - X3)    Z2' = Z2*(G + X2 - X3 - X1)
    Z3' = Z3*(G + X3 - X1 - X2)    Z4' = Z4*(X4 - G)

Every coefficient is an exact rational in (k, l), so all evaluators in this
module return exact values on Fraction (or QuadExt) states and ordinary
floats otherwise; given numpy columns they give each sample the bits of
a scalar call on it.  ``flow_rhs`` and ``reduced_z_rhs`` provide
float-specialized closures for the integrator hot path.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import isfinite, sqrt

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
    "flow_rhs",
    "reduced_z_rhs",
]

HALF = Fraction(1, 2)
TWO_THIRDS = Fraction(2, 3)


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


def _matching(coeffs, z):
    """coeffs as given on exact Z, else as floats: Fraction * numpy column
    is an object array, and Fraction * float is float(coeff) * float."""
    if all(is_exact_scalar(v) for v in z):
        return coeffs
    return tuple(float(c) for c in coeffs)


def scalar_terms(params, state):
    """Evaluate G, R1..R4, and Rs = 2*R1 + 2*R2 + 2*R3 + R4 at a state."""
    x1, x2, x3, x4 = state.X
    z1, z2, z3, z4 = state.Z
    ca, cb, cc = _matching(quartic_coefficients(params), state.Z)
    g = 2 * (x1 * x1 + x2 * x2 + x3 * x3) + x4 * x4
    z4sq = z4 * z4
    t23 = z2 * z2 * z3 * z3 * z4sq
    t13 = z1 * z1 * z3 * z3 * z4sq
    t12 = z1 * z1 * z2 * z2 * z4sq
    r1 = 6 * z2 * z3 + z1 * z1 - z2 * z2 - z3 * z3 - ca * t23
    r2 = 6 * z1 * z3 + z2 * z2 - z3 * z3 - z1 * z1 - cb * t13
    r3 = 6 * z1 * z2 + z3 * z3 - z1 * z1 - z2 * z2 - cc * t12
    r4 = ca * t23 + cb * t13 + cc * t12
    rs = 2 * r1 + 2 * r2 + 2 * r3 + r4
    return ScalarTerms(G=g, R=(r1, r2, r3, r4), Rs=rs)


def vector_field(params, state):
    """The flow's velocity at a state, as a PhaseState of components."""
    x1, x2, x3, x4 = state.X
    z1, z2, z3, z4 = state.Z
    terms = scalar_terms(params, state)
    g = terms.G
    r1, r2, r3, r4 = terms.R
    gm1 = g - 1
    return PhaseState(
        X=(x1 * gm1 + r1, x2 * gm1 + r2, x3 * gm1 + r3, x4 * gm1 + r4),
        Z=(z1 * (g + x1 - x2 - x3), z2 * (g + x2 - x3 - x1),
           z3 * (g + x3 - x1 - x2), z4 * (x4 - g)))


def residuals(params, state):
    """All constraint residuals at a state."""
    x1, x2, x3, x4 = state.X
    z1, z2, z3, z4 = state.Z
    da, db, dc = _matching(cubic_coefficients(params), state.Z)
    terms = scalar_terms(params, state)
    u23 = z2 * z3 * z4
    u13 = z1 * z3 * z4
    u12 = z1 * z2 * z4
    f = (x1 + z1 - z2 - z3 + da * u23,
         x2 + z2 - z3 - z1 - db * u13,
         x3 + z3 - z1 - z2 - dc * u12,
         x4 - da * u23 + db * u13 + dc * u12)
    h = (x1 + z1 - z2 - z3 - da * u23,
         x2 + z2 - z3 - z1 + db * u13,
         x3 + z3 - z1 - z2 + dc * u12,
         x4 + da * u23 - db * u13 - dc * u12)
    zsum = z1 + z2 + z3
    return ConstraintResiduals(
        hyperplane=2 * (x1 + x2 + x3) + x4 - 1,
        conservation=terms.G - 1 + terms.Rs,
        F=f,
        H=h,
        zcons_plus=2 * zsum - da * u23 + db * u13 + dc * u12 - 1,
        zcons_minus=2 * zsum + da * u23 - db * u13 - dc * u12 - 1)


def x_from_z(params, z, chirality):
    """The X coordinates forced by the first-order system on a chirality set.

    Solves F = 0 (PLUS) or H = 0 (MINUS) for X given Z, which is linear.
    """
    z1, z2, z3, z4 = z
    da, db, dc = _matching(cubic_coefficients(params), z)
    sgn = 1 if chirality is Chirality.PLUS else -1
    u23 = da * (z2 * z3 * z4) * sgn
    u13 = db * (z1 * z3 * z4) * sgn
    u12 = dc * (z1 * z2 * z4) * sgn
    return (z2 + z3 - z1 - u23,
            z3 + z1 - z2 + u13,
            z1 + z2 - z3 + u12,
            u23 - u13 - u12)


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
    terms = scalar_terms(params, state)
    vel = vector_field(params, state)
    v1, v2, v3, v4 = vel.X
    flow_sum = 2 * (v1 + v2 + v3) + v4
    expected = res.hyperplane * (terms.G - 1) + (terms.G - 1 + terms.Rs)
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
    ca, cb, cc = (float(c) for c in quartic_coefficients(params))

    def rhs(eta, y):
        x1, x2, x3, x4, z1, z2, z3, z4 = y
        g = 2.0 * (x1 * x1 + x2 * x2 + x3 * x3) + x4 * x4
        z4sq = z4 * z4
        t23 = z2 * z2 * z3 * z3 * z4sq
        t13 = z1 * z1 * z3 * z3 * z4sq
        t12 = z1 * z1 * z2 * z2 * z4sq
        r1 = 6.0 * z2 * z3 + z1 * z1 - z2 * z2 - z3 * z3 - ca * t23
        r2 = 6.0 * z1 * z3 + z2 * z2 - z3 * z3 - z1 * z1 - cb * t13
        r3 = 6.0 * z1 * z2 + z3 * z3 - z1 * z1 - z2 * z2 - cc * t12
        r4 = ca * t23 + cb * t13 + cc * t12
        gm1 = g - 1.0
        return (x1 * gm1 + r1, x2 * gm1 + r2, x3 * gm1 + r3, x4 * gm1 + r4,
                z1 * (g + x1 - x2 - x3), z2 * (g + x2 - x3 - x1),
                z3 * (g + x3 - x1 - x2), z4 * (x4 - g))

    return rhs


def reduced_z_rhs(params, chirality):
    """Float-specialized right-hand side of the reduced 4-dimensional flow.

    On either chirality set the X coordinates are functions of Z, so the Z
    equations close up; this is the system actually integrated in the spin
    shooting modes.
    """
    da, db, dc = (float(c) for c in cubic_coefficients(params))
    sgn = 1.0 if chirality is Chirality.PLUS else -1.0

    def rhs(eta, z):
        z1, z2, z3, z4 = z
        u23 = sgn * da * z2 * z3 * z4
        u13 = sgn * db * z1 * z3 * z4
        u12 = sgn * dc * z1 * z2 * z4
        x1 = z2 + z3 - z1 - u23
        x2 = z3 + z1 - z2 + u13
        x3 = z1 + z2 - z3 + u12
        x4 = u23 - u13 - u12
        g = 2.0 * (x1 * x1 + x2 * x2 + x3 * x3) + x4 * x4
        return (z1 * (g + x1 - x2 - x3), z2 * (g + x2 - x3 - x1),
                z3 * (g + x3 - x1 - x2), z4 * (x4 - g))

    return rhs
