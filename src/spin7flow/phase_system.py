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

This module is the one place where a flow polynomial is written, each
once, generic over exact values (Fraction, QuadExt, RatPoly), floats,
numpy columns and the duals of ``derivative``, which takes every
Jacobian and gradient from the polynomial it differentiates.  So are
the orbit's coefficients (``_scaled_coefficients``, on (k, l) or
symbols), the cone points' Z4 (``_cone_z4``) and the (1, 1) boundary
faces (``_line_face``, ``_curve_face``) that shooting locks and
membership checks.  Kernels come from the same helpers: ``_trace``
runs a body body(coefficients, point) on recording scalars and writes
it out as source, once per process, with the orbit's coefficients
among its inputs.  The stepper inlines the kernels of the right-hand
sides' bodies into its stages.  ``jacobian``, ``constraint_gradients``
and ``first_order_jacobians`` run the kernel traced from their
``derivative`` pass, on integers at a rational state: each entry is
N / D**deg, with D the lcm of the inputs' denominators.  Rounding
rule: a float expression associates as the integrator runs it
(``flow_rhs``, ``reduced_z_rhs``, ``zcons_constraint``,
``crf_constraints``): da*Z2*Z3*Z4 left to right, Rs as
12*(Z1*Z2 + Z2*Z3 + Z3*Z1) - 2*(Z1^2 + Z2^2 + Z3^2) - q*Z4^2, since a
last-bit change there moves integrated states well beyond an ulp.  The
evaluators thus agree with the integrator bit for bit.  A float partial
associates as the product rule d(ab) = da*b + a*db runs through that
same expression.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache, partial
from math import isfinite, lcm, sqrt

import numpy as np

from .aw_algebra import _as_params
from .errors import InvalidRequestError
from .exact import QuadExt, is_exact_scalar

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
    "zcons_of_z",
    "rs_of_z",
    "membership",
    "identity_checks",
    "cubic_coefficients",
    "quartic_coefficients",
    "g_of_x",
    "r_terms",
    "einstein_residual",
    "derivative",
    "value_and_derivative",
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


def _scaled_coefficients(k, l):
    """6*Delta times the cubic and (6*Delta)**2 times the quartic
    coefficients, in the bundles' slot order (k+l, l, k), on ints or
    symbols; at (1, rho) they go with the rays' Z4 = (6*Delta/k)*delta."""
    m = k + l
    return (3 * m, 3 * l, 3 * k), (18 * m ** 2, 18 * l ** 2, 18 * k ** 2)


@lru_cache(maxsize=64)
def _coefficient_tuples(k, l, delta):
    """The cubic and the quartic coefficients of the orbit as Fractions,
    built once per orbit; keyed on integers, so any params object with
    k, l and delta shares the entry."""
    cubic, quartic = _scaled_coefficients(k, l)
    d = 6 * delta
    return (tuple(Fraction(a, d) for a in cubic),
            tuple(Fraction(a, d * d) for a in quartic))


def cubic_coefficients(params):
    """The rational coefficients ((k+l), l, k) / (2*delta) of the Z-cubics."""
    return _coefficient_tuples(params.k, params.l, params.delta)[0]


def quartic_coefficients(params):
    """The rational coefficients ((k+l)^2, l^2, k^2) / (2*delta^2)."""
    return _coefficient_tuples(params.k, params.l, params.delta)[1]


def _cone_z4(params, i):
    """Z4 = 6*Delta/order at the cone point of the bundle in slot i, as
    18*Delta over its scaled cubic coefficient 3*order (not 0)."""
    return Fraction(18 * params.delta,
                    _scaled_coefficients(params.k, params.l)[0][i])


def _matching(coeffs, z):
    """coeffs as floats on float or numpy Z, else exact: Fraction * numpy
    column is an object array, Fraction * float is float(coeff) * float;
    a dual counts as its value."""
    if any(isinstance(v.value if type(v) is _Dual else v,
                      (float, np.generic, np.ndarray)) for v in z):
        return tuple(map(float, coeffs))
    return coeffs


def _spin_coefficients(params, chirality):
    """Cubic coefficients with the chirality's sign: F has +a, H has -a."""
    sgn = 1 if chirality is Chirality.PLUS else -1
    return tuple(sgn * c for c in cubic_coefficients(params))


# ---------------------------------------------------------------------------
# polynomials; c = quartic, d = (signed) cubic coefficients


def g_of_x(x):
    """G = 2*X1^2 + 2*X2^2 + 2*X3^2 + X4^2; needs no orbit parameters."""
    x1, x2, x3, x4 = x
    return 2 * (x1 * x1 + x2 * x2 + x3 * x3) + x4 * x4


def _squares(z1, z2, z3):
    """The monomials (Z2*Z3)^2, (Z1*Z3)^2, (Z1*Z2)^2 of R4 / Z4^2."""
    return z2 * z2 * z3 * z3, z1 * z1 * z3 * z3, z1 * z1 * z2 * z2


def _r4(c, t):
    """R4 from its three terms t: the squares times Z4^2."""
    ca, cb, cc = c
    t23, t13, t12 = t
    return ca * t23 + cb * t13 + cc * t12


def _r123(c, z1, z2, z3, t):
    """R1..R3 from R4's three terms t."""
    ca, cb, cc = c
    t23, t13, t12 = t
    return (6 * z2 * z3 + z1 * z1 - z2 * z2 - z3 * z3 - ca * t23,
            6 * z1 * z3 + z2 * z2 - z3 * z3 - z1 * z1 - cb * t13,
            6 * z1 * z2 + z3 * z3 - z1 * z1 - z2 * z2 - cc * t12)


def r_terms(c, z1, z2, z3, z4sq):
    """R1..R4; Z4 enters only through Z4^2."""
    t = tuple(m * z4sq for m in _squares(z1, z2, z3))
    return _r123(c, z1, z2, z3, t) + (_r4(c, t),)


def einstein_residual(params, z1, z2, z3):
    """((R1, R2, R3) - 6/49, Z4^2) with Z4^2 = (6/49)/q solving R4 = 6/49:
    the vector field's X rows at X = (1/7, ..., 1/7), where its Z rows
    vanish (the homogeneous Einstein condition).  q is R4 on the bare
    squares, which has the bits of R4 at Z4^2 = 1."""
    *c, level = _matching(quartic_coefficients(params) + (EINSTEIN_LEVEL,),
                          (z1, z2, z3))
    return _einstein(c, level, z1, z2, z3)


def _einstein(c, level, z1, z2, z3):
    """einstein_residual with the quartic coefficients c and the level."""
    squares = _squares(z1, z2, z3)
    z4sq = level / _r4(c, squares)
    t = tuple(m * z4sq for m in squares)
    return tuple(r - level for r in _r123(c, z1, z2, z3, t)), z4sq


def rs_of_z(c, z):
    """Rs = 2*R1 + 2*R2 + 2*R3 + R4 at Z alone, as scalar_terms gives it,
    with the quartic coefficients c that go with z's Z4."""
    ca, cb, cc = c
    z1, z2, z3, z4 = z
    q = (ca * z2 * z2 * z3 * z3 + cb * z1 * z1 * z3 * z3
         + cc * z1 * z1 * z2 * z2)  # R4 = q*Z4^2
    return (12 * (z1 * z2 + z2 * z3 + z3 * z1)
            - 2 * (z1 * z1 + z2 * z2 + z3 * z3) - q * z4 * z4)


def _crf_values(c, x, z):
    """The hyperplane and conservation residuals."""
    x1, x2, x3, x4 = x
    return 2 * (x1 + x2 + x3) + x4 - 1, g_of_x(x) - 1 + rs_of_z(c, z)


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


def _line_face(z):
    """The (1, 1) boundary line of the plus chirality, {Z2 = Z3,
    3Z1 + 3Z2 = 1}, as the zeros of its two values."""
    return z[1] - z[2], 3 * z[0] + 3 * z[1] - 1


def _curve_face(z):
    """The (1, 1) boundary curve of the minus chirality, {Z2 + Z3 = Z1,
    (Z2 + Z3) Z4 = 6}, as the zeros of its two values."""
    return z[1] + z[2] - z[0], (z[1] + z[2]) * z[3] - 6


def _first_order(x, z, plus, minus):
    """F and H, from F's cubic terms and H's (their negatives)."""
    return tuple(tuple(a - b for a, b in zip(x, _x_of_z(z, u)))
                 for u in (plus, minus))


# bodies body(coefficients, point) of the derivative kernels


def _flow_body(c, y):
    return _field(c, y[:4], y[4:])


def _crf_body(c, y):
    return _crf_values(c, y[:4], y[4:])


def _systems(d, y):
    """F and H in one tuple."""
    x, z = y[:4], y[4:]
    plus = _cubic_terms(d, z)
    return sum(_first_order(x, z, plus, tuple(-u for u in plus)), ())


def _zcons_body(d, z):
    return (_zcons(z, _cubic_terms(d, z)),)


def _reduced_body(d, z):
    """The Z rows of the flow at X = _x_of_z: the reduced system on the
    chirality set of the signed cubic coefficients d."""
    x = _x_of_z(z, _cubic_terms(d, z))
    return _z_field(g_of_x(x), x, z)


def _einstein_body(c, z):
    """R1..R3 - level at z, c = (the quartic coefficients, the level)."""
    *c, level = c
    return _einstein(c, level, *z)[0]


def _einstein_numerators(c, z):
    """(q*(R1 - level), q*(R2 - level), q*(R3 - level), q) at z, with
    c as in _einstein_body and q = R4 on the bare squares: the residual
    over q without a quotient.  R1..R3 are affine in R4's terms t, so q
    times R_i at t = squares*level/q is q*R_i(t = 0) plus
    R_i(t = squares*level) - R_i(t = 0)."""
    *c, level = c
    squares = _squares(*z)
    q = _r4(c, squares)
    bare = _r123(c, *z, (0, 0, 0))
    full = _r123(c, *z, tuple(m * level for m in squares))
    return tuple(q * (b - level) + (f - b)
                 for b, f in zip(bare, full)) + (q,)


# ---------------------------------------------------------------------------
# derivatives: the helpers above run on forward-mode duals


class _Dual:
    """A value with its partials {coordinate index: value}, for
    forward-mode differentiation (Griewank & Walther, Evaluating
    Derivatives, 2008).  A product takes d(ab) = da*b + a*db in that
    order and skips the terms with an exact-zero factor, so a
    structurally zero partial is never stored; a seed's unit partial
    times a factor is the factor itself.  The one quotient is a
    constant over a dual, c/q, with d(c/q) = -(c/q)/q * dq; the
    constant may be a _Traced input, as the level is when the AC Newton
    kernel is traced (_einstein_values_and_rows)."""

    __slots__ = ("value", "partials")

    def __init__(self, value, partials):
        self.value = value
        self.partials = partials

    def __add__(self, other):
        if type(other) is not _Dual:
            return _Dual(self.value + other, self.partials)
        out = self.partials.copy()
        for j, p in other.partials.items():
            out[j] = out[j] + p if j in out else p
        return _Dual(self.value + other.value, out)

    __radd__ = __add__

    def __neg__(self):
        return _Dual(-self.value, {j: -p for j, p in self.partials.items()})

    def __sub__(self, other):
        if type(other) is not _Dual:
            return _Dual(self.value - other, self.partials)
        out = self.partials.copy()
        for j, p in other.partials.items():
            out[j] = out[j] - p if j in out else -p
        return _Dual(self.value - other.value, out)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if type(other) is not _Dual:
            other = _Dual(other, {})
        a, b = self.value, other.value
        out = {}
        if b:
            for j, p in self.partials.items():
                out[j] = b if type(p) is int and p == 1 else p * b
        if a:
            for j, p in other.partials.items():
                p = a if type(p) is int and p == 1 else p * a
                out[j] = out[j] + p if j in out else p
        return _Dual(a * b, out)

    __rmul__ = __mul__

    def __rtruediv__(self, other):
        value = other / self.value
        scale = -value / self.value
        return _Dual(value, {j: p * scale for j, p in self.partials.items()})


class _Traced:
    """A recording scalar: arithmetic on it builds the expression graph
    of a float kernel instead of a value.  Each node is one +, -, *, /
    or negation exactly as the helpers run it, so printing the graph
    keeps their association, and with it every bit.  The quotient is
    the one _Dual.__rtruediv__ performs, (c/q and -(c/q)/q); only the
    plain form of _trace prints it.  A trace makes each operation on
    the same operands once, and a product with the int 0 is 0, so a
    dual skips what it would skip at an exact-zero value.  Only int and
    float constants combine with it; anything else fails the trace."""

    __slots__ = ("op", "args", "nodes")

    def __init__(self, op, args, nodes):
        self.op = op
        self.args = args
        self.nodes = nodes

    def _apply(self, op, args):
        if not all(type(a) in (_Traced, int, float) for a in args):
            return NotImplemented
        if op == "*" and any(type(a) is int and not a for a in args):
            return 0
        key = (op,) + tuple(a if type(a) is _Traced else (type(a), repr(a))
                            for a in args)
        node = self.nodes.get(key)
        if node is None:
            node = self.nodes[key] = _Traced(op, args, self.nodes)
        return node

    def __add__(self, other):
        return self._apply("+", (self, other))

    def __radd__(self, other):
        return self._apply("+", (other, self))

    def __sub__(self, other):
        return self._apply("-", (self, other))

    def __rsub__(self, other):
        return self._apply("-", (other, self))

    def __mul__(self, other):
        return self._apply("*", (self, other))

    def __rmul__(self, other):
        return self._apply("*", (other, self))

    def __truediv__(self, other):
        return self._apply("/", (self, other))

    def __rtruediv__(self, other):
        return self._apply("/", (other, self))

    def __neg__(self):
        return self._apply("neg", (self,))


# binding strength in Python source: + and - < * and / < unary minus < a name
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3}


def _trace(fun, n, homogeneous=False, m=0):
    """(source, degrees, inputs): the kernel of fun(inputs) on n + m
    inputs, the degree of each output, and the sorted indices of the
    inputs that the kernel reads.

    The source is a template of assignment lines: input j < n reads
    "{v}j" and input n + j reads "{c}j", which keeps m coefficient
    inputs named apart from the others; output i is assigned to "{k}i",
    and a value used more than once is assigned to a temporary w_m
    first; every other value stays nested in the expression that uses
    it.  A quotient is always assigned, even where a product with the
    int 0 drops its value, so a zero divisor raises ZeroDivisionError
    as it does on the duals.  Constants appear as their repr literals,
    which round-trip.  Substituting names with str.format and running
    the lines gives fun's bits on floats.

    A value's degree is 1 for an input, 0 for a constant, the sum over
    a product, the difference over a quotient and the max over a sum.
    Homogeneous lines carry D**degree times each value, from D times
    each input: a sum's operand e below its degree is multiplied by
    "{p}e", which is to hold D**e.  They have no quotient: a body that
    divides raises ValueError there.
    """
    nodes = {}
    inputs = [_Traced("input", (j,), nodes) for j in range(n + m)]
    outputs = fun(inputs)
    uses = {}
    order = []  # operation nodes, each after its operands
    degree = dict.fromkeys(inputs, 1)
    read = set()

    def visit(node):
        if type(node) is not _Traced:
            return
        if node.op == "input":
            read.add(node.args[0])
            return
        uses[node] = uses.get(node, 0) + 1
        if uses[node] == 1:
            if homogeneous and node.op == "/":
                raise ValueError("a homogeneous kernel has no quotient")
            for arg in node.args:
                visit(arg)
            order.append(node)
            degrees = [degree.get(arg, 0) for arg in node.args]
            degree[node] = (sum(degrees) if node.op == "*" else
                            degrees[0] - degrees[1] if node.op == "/"
                            else max(degrees))

    for out in outputs:
        visit(out)
    for node in list(nodes.values()):
        if node.op == "/":
            visit(node)
    names = {}

    def text(node):
        """(source, precedence) of a value as an operand."""
        if type(node) is not _Traced:
            source = repr(node)
            return source, 3 if source.startswith("-") else 4
        if node.op == "input":
            j = node.args[0]
            return ("{v}%d" % j if j < n else "{c}%d" % (j - n)), 4
        if node in names:
            return names[node], 4
        return expression(node), _PRECEDENCE[node.op]

    def operand(arg, node):
        """text(arg), scaled to node's degree in a homogeneous sum."""
        (source, prec), gap = text(arg), degree[node] - degree.get(arg, 0)
        if not (homogeneous and gap and _PRECEDENCE[node.op] == 1):
            return source, prec
        return "%s * {p}%d" % (source if prec > 1 else "(%s)" % source,
                               gap), 2

    def expression(node):
        prec = _PRECEDENCE[node.op]
        if node.op == "neg":
            source, inner = text(node.args[0])
            return "-" + (source if inner >= prec else "(%s)" % source)
        (left, lp), (right, rp) = (operand(arg, node) for arg in node.args)
        return "%s %s %s" % (left if lp >= prec else "(%s)" % left, node.op,
                             right if rp > prec else "(%s)" % right)

    lines = []
    for node in order:
        if uses[node] > 1 or node.op == "/":
            lines.append("w_%d = %s" % (len(names), expression(node)))
            names[node] = "w_%d" % len(names)
    for i, out in enumerate(outputs):
        lines.append("{k}%d = %s" % (i, text(out)[0]))
    return ("\n".join(lines) + "\n", [degree.get(out, 0) for out in outputs],
            tuple(sorted(read)))


def value_and_derivative(fun, point):
    """(fun(point), the rows d fun_i / d point_j) from one pass of duals.

    fun, made of ring operations and constants over a dual like every
    helper here, runs on duals seeded with unit partials; a constant
    output gives a zero row.
    """
    n = len(point)
    outputs = fun([_Dual(v, {j: 1}) for j, v in enumerate(point)])
    return (tuple(f.value if type(f) is _Dual else f for f in outputs),
            tuple(tuple(f.partials.get(j, 0) if type(f) is _Dual else 0
                        for j in range(n)) for f in outputs))


def derivative(fun, point):
    """The rows of value_and_derivative, exact at exact points."""
    return value_and_derivative(fun, point)[1]


def _compile(fun, zeros, homogeneous=True):
    """(kernel, degrees, live): fun(inputs) on len(zeros) inputs, traced
    by _trace with each zero input as 0, so each term with a zero factor
    is skipped as the duals skip it at that value.  A homogeneous kernel
    is called kernel(inputs, (1, D, D**2, ...)) and returns the outputs
    as one list in _trace's homogeneous form: entry i carries
    D**degrees[i] times its value; a plain one is called kernel(inputs).
    live holds the indices of the inputs that the kernel reads; no
    other input changes its result."""

    def traced(inputs):
        return fun([0 if zero else v for v, zero in zip(inputs, zeros)])

    template, degrees, live = _trace(traced, len(zeros), homogeneous)
    lines = ["def kernel(v%s):" % (", p" if homogeneous else ""),
             "%s, = v" % ", ".join("v%d" % j for j in range(len(zeros)))]
    if homogeneous:
        lines.append("%s, = p" % ", ".join(
            "p%d" % e for e in range(max(degrees) + 1)))
    lines += template.format(v="v", k="k", p="p").splitlines()
    lines.append("return [%s]" % ", ".join(
        "k%d" % i for i in range(len(degrees))))
    namespace = {}
    exec("\n    ".join(lines), namespace)
    return namespace["kernel"], degrees, live


@lru_cache(maxsize=64)
def _derivative_kernel(body, zeros, n, values=False):
    """(kernel, degrees, live) from _compile for derivative(lambda y:
    body(c, y), y) over the inputs (y, c), y the first n of them, traced
    once per body, per set of zero inputs and per form.  The kernel is
    homogeneous and returns the rows as one list; with values it is
    plain, runs on floats, and its list starts with body's values, and
    only then may the body divide."""

    def rows(inputs):
        out, partials = value_and_derivative(
            lambda y: body(inputs[n:], y), inputs[:n])
        return (out if values else ()) + sum(partials, ())

    return _compile(rows, zeros, homogeneous=not values)


def _on_integers(kernel, degrees, values):
    """(nums, scales): a homogeneous kernel with output degrees run at
    rational values (ints, floats or Fractions) on their numerators over
    D, the lcm of their denominators, with scales[e] = D**e: output i
    is nums[i] / scales[degrees[i]]."""
    ratios = [v.as_integer_ratio() for v in values]
    den = lcm(*(d for _, d in ratios))
    scales = [den ** e for e in range(max(degrees) + 1)]
    return kernel([n * (den // d) for n, d in ratios], scales), scales


def _derivative_rows(body, c, point, rounded=False):
    """derivative(lambda y: body(c, y), point) from its kernel; with
    rounded, each entry as float() rounds it.

    At a rational point the kernel runs on integers (_on_integers):
    entry i is N_i / D**deg_i, and its float is that quotient, correctly
    rounded.  At any other point (Q(sqrt d), floats) it runs on the
    point's own numbers with D = 1.  The kernel skips only the products
    with an exact-zero input, where the duals skip every product whose
    factor is zero when they run, so at a float point two cases differ:
    where an intermediate underflows or cancels to zero the kernel can
    give -0.0 where the duals give 0, and where a factor next to a zero
    coordinate overflows it gives 0 where the duals give 0.0 * inf =
    NaN.  Entries from two quadratic fields raise TypeError, as in
    QuadExt arithmetic.
    """
    n = len(point)
    values = tuple(point) + tuple(c)
    kernel, degrees, _ = _derivative_kernel(
        body, tuple(not v for v in values), n)
    if all(type(v) in (int, Fraction) for v in values):
        out, scales = _on_integers(kernel, degrees, values)
        out = [num / scales[e] if rounded else Fraction(num, scales[e])
               for num, e in zip(out, degrees)]
    else:
        surds = [v for v in values if type(v) is QuadExt and v.b]
        if None in [surds[0]._split(v) for v in surds[1:]]:
            raise TypeError("state entries lie in two quadratic fields")
        out = kernel(values, [1] * (max(degrees) + 1))
        out = [float(v) for v in out] if rounded else out
    return _split_rows(out, n)


def _split_rows(out, n):
    return tuple(tuple(out[i:i + n]) for i in range(0, len(out), n))


def _einstein_values_and_rows(params, z):
    """value_and_derivative over einstein_residual(params, *z)[0] at a
    float z, from the plain kernel of _derivative_kernel for
    _einstein_body, traced once per process and per set of zero inputs
    (the dual pass with its quotient c/q), with the quartic coefficients
    and the level as float inputs: the duals' bits wherever no
    intermediate of their pass underflows to zero (see
    _derivative_rows).  Where R4 vanishes it raises ZeroDivisionError,
    as the duals do."""
    values = (*z, *map(float, quartic_coefficients(params)),
              float(EINSTEIN_LEVEL))
    out = _derivative_kernel(_einstein_body, tuple(not v for v in values),
                             3, True)[0](values)
    return tuple(out[:3]), _split_rows(out[3:], 3)


@lru_cache(maxsize=1)
def _einstein_numerator_kernel():
    """(kernel, degrees): _compile's homogeneous form of
    _einstein_numerators over the inputs (z, c)."""
    return _compile(lambda v: _einstein_numerators(v[3:], v[:3]),
                    (False,) * 7)[:2]


def _exact_einstein_residual(params, z):
    """einstein_residual(params, *z)[0] at a rational z, on integers, as
    unreduced (numerator, denominator) pairs.

    The homogeneous kernel of _einstein_numerators runs at (z, quartic
    coefficients, EINSTEIN_LEVEL) on integers (_on_integers): numerator
    i is N_i / D**deg_i and q is Q / D**deg_q, so residual i is
    N_i * D**deg_q / (Q * D**deg_i), the rational einstein_residual
    builds term by term in Fractions.  The pairs are not reduced: the
    float of a residual is the quotient n / d, correctly rounded as
    Fraction.__float__ rounds the reduced one, and it vanishes exactly
    when N_i does.  Q = 0, where R4 vanishes, raises ZeroDivisionError
    as that quotient does.  z holds ints, floats or Fractions.
    """
    kernel, degrees = _einstein_numerator_kernel()
    (*nums, q), scales = _on_integers(kernel, degrees, (
        *z, *quartic_coefficients(params), EINSTEIN_LEVEL))
    if q == 0:
        raise ZeroDivisionError("the Einstein residual divides by R4 = 0")
    return tuple((num * scales[degrees[-1]], q * scales[e])
                 for num, e in zip(nums, degrees))


def scalar_terms(params, state):
    """Evaluate G, R1..R4, and Rs = 2*R1 + 2*R2 + 2*R3 + R4 at a state."""
    c = _matching(quartic_coefficients(params), state.Z)
    z1, z2, z3, z4 = state.Z
    return ScalarTerms(G=g_of_x(state.X), R=r_terms(c, z1, z2, z3, z4 * z4),
                       Rs=rs_of_z(c, state.Z))


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
    f, h = _first_order(x, z, plus, minus)
    return ConstraintResiduals(
        hyperplane=hyperplane, conservation=conservation, F=f, H=h,
        zcons_plus=_zcons(z, plus), zcons_minus=_zcons(z, minus))


def x_from_z(params, z, chirality):
    """The X coordinates forced by the first-order system on a chirality set.

    Solves F = 0 (PLUS) or H = 0 (MINUS) for X given Z, which is linear.
    """
    d = _matching(_spin_coefficients(params, chirality), z)
    return _x_of_z(z, _cubic_terms(d, z))


def zcons_of_z(d, z):
    """zcons+ (cubic coefficients d) or zcons- (their negatives), the
    Z-only constraint of a chirality set; d goes with z's Z4."""
    return _zcons(z, _cubic_terms(d, z))


def jacobian(params, state):
    """8x8 derivative of the vector field; exact at exact states;
    params is an AWParams or a (k, l) pair."""
    return _derivative_rows(_flow_body, _matching(
        quartic_coefficients(_as_params(params)), state.Z), state.as_tuple())


def _jacobian_inputs(params, state):
    """live: (index, type, parts...) for each input of _flow_body's
    kernel (X, Z, c) that jacobian(params, state) reads, with a
    QuadExt's parts (a, b, d) and any other number's its value.  So a
    float never matches an exact value, nor b*sqrt(d) a QuadExt written
    with another d.  Read inputs are nonzero, and the others leave the
    matrix as it is when zero, so live keys it alone: where Z4 = 0 the
    kernel does not read c, and every orbit, (1, 0) included, gives the
    same key."""
    values = state.as_tuple() + tuple(
        _matching(quartic_coefficients(params), state.Z))
    live = []
    for j in _derivative_kernel(_flow_body,
                                tuple(not v for v in values), 8)[2]:
        v = values[j]
        live.append((j, QuadExt, v.a, v.b, v.d) if type(v) is QuadExt
                    else (j, type(v), v))
    return tuple(live)


def _float_jacobian(live):
    """The jacobian at any state with _jacobian_inputs live, rounded
    entrywise by float(), as an array.  It is built at the state whose
    inputs that the kernel does not read are 0, which gives the same
    bits; a rational state's exact entries are never built."""
    values = [0] * 11
    for j, kind, *parts in live:
        values[j] = QuadExt(*parts) if kind is QuadExt else parts[0]
    return np.array(_derivative_rows(_flow_body, values[8:], values[:8],
                                     rounded=True))


def constraint_gradients(params, state):
    """Gradients of the hyperplane and conservation constraints; params
    is an AWParams or a (k, l) pair."""
    hyperplane, conservation = _derivative_rows(_crf_body, _matching(
        quartic_coefficients(_as_params(params)), state.Z), state.as_tuple())
    return {"hyperplane": hyperplane, "conservation": conservation}


def first_order_jacobians(params, state):
    """4x8 derivatives of the F system and of the H system; params is an
    AWParams or a (k, l) pair."""
    rows = _derivative_rows(_systems, _matching(
        cubic_coefficients(_as_params(params)), state.Z), state.as_tuple())
    return rows[:4], rows[4:]


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
        conds.append(_ge("Z4 <= 6*delta/(k+l)", _cone_z4(params, 0) - z4,
                         tol))
        conds.append(_ge("Z2 + Z3 <= 2/3", TWO_THIRDS - (z2 + z3), tol))
    elif set_id is SetId.T_K_CHECK:
        add_spin(Chirality.MINUS)
        conds.append(_ge("Z1 + Z2 + Z3 <= 2/3", TWO_THIRDS - (z1 + z2 + z3), tol))
        conds.append(_ge("Z4 <= 6*delta/k", _cone_z4(params, 2) - z4, tol))
        conds.append(_ge("Z1 >= Z2", z1 - z2, tol))
        conds.append(_ge("Z2 >= Z3", z2 - z3, tol))
    elif set_id is SetId.S_TILDE:
        add_spin(Chirality.PLUS)
        conds.append(_eq("X2 = X3", state.X[1] - state.X[2], tol))
        conds.append(_eq("Z2 = Z3", _line_face(state.Z)[0], tol))
        if is_exact_scalar(z2) and is_exact_scalar(z3) and is_exact_scalar(z4) \
                and z2 == z3:
            slack = 3 - z2 * z4
        else:
            prod = float(z2) * float(z3)
            slack = 3.0 - sqrt(max(prod, 0.0)) * float(z4)
        conds.append(_ge("sqrt(Z2*Z3)*Z4 <= 3", slack, tol))
    elif set_id is SetId.T_TILDE:
        add_spin(Chirality.MINUS)
        sides, level = _curve_face(state.Z)
        conds.append(_ge("Z2 + Z3 >= Z1", sides, tol))
        conds.append(_ge("(Z2 + Z3)*Z4 <= 6", -level, tol))
    else:  # pragma: no cover
        raise InvalidRequestError(f"unhandled set id {set_id!r}")

    conds = tuple(conds)
    return MembershipReport(set_id=set_id, ok=all(c.ok for c in conds),
                            conditions=conds)


def _stepping_kernel(body, n, m):
    """The plain template of body(c, y) from _trace, y's n components
    read as "{v}j" and the m coefficients c as "{c}j": one template for
    every orbit, which the stepper inlines into its stages."""
    return _trace(lambda v: body(v[n:], v[:n]), n, m=m)[0]


class _RightHandSide(partial):
    """partial(body, coefficients) of a stepping body, called as a
    right-hand side (eta, values): values, any sequence of numbers,
    become Python floats (float64 arithmetic, faster than numpy
    scalars) for body(coefficients, values).  The stepper reads func and
    args, as _project reads a constraint's, and runs the body's kernel
    with the coefficients as inputs."""

    def __call__(self, eta, values):
        if isinstance(values, np.ndarray):
            values = values.astype(float, copy=False).tolist()
        else:
            values = list(map(float, values))
        return self.func(*self.args, values)


def flow_rhs(params):
    """Float-specialized right-hand side for the full 8-dimensional flow."""
    return _RightHandSide(_flow_body,
                          tuple(map(float, quartic_coefficients(params))))


def reduced_z_rhs(params, chirality):
    """Float-specialized right-hand side of the reduced 4-dimensional flow.

    On either chirality set the X coordinates are functions of Z, so the Z
    equations close up; this is the system actually integrated in the spin
    shooting modes.
    """
    return _RightHandSide(_reduced_body, tuple(
        map(float, _spin_coefficients(params, chirality))))


def zcons_constraint(params, chirality):
    """z -> (zcons+,) or (zcons-,), as partial(body, coefficients) of a
    derivative kernel's body; z holds Python floats (or the duals of
    derivative)."""
    return partial(_zcons_body,
                   tuple(map(float, _spin_coefficients(params, chirality))))


def crf_constraints(params):
    """y -> (hyperplane, conservation), as partial(body, coefficients) of
    a derivative kernel's body; y holds Python floats (or the duals of
    derivative)."""
    return partial(_crf_body, tuple(map(float, quartic_coefficients(params))))
