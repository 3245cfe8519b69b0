"""Barrier polynomials, slice root functions, and certified positivity.

The compact invariant sets of the quotient flow are carved out by sign
conditions on four exact-rational polynomials in the phase coordinates
(Z1, Z2, Z3, Z4).  This module builds those barriers, restricts them
along the line and ray families used in the containment arguments,
tracks the distinguished roots of the restricted polynomials together
with their first and second implicit derivatives, and certifies
non-negativity of the Sylvester resultants that witness root
interlacing.  The resultants are cross-checked, coefficient by
coefficient, against independently recorded reference expansions
before any certificate is issued.

Two slice families appear.  Lines hold Z1 = alpha fixed, travel in
u = Z2 + Z3, and scale the fourth coordinate as
Z4 = 6*Delta*beta/(k+l); the two barrier restrictions are called q1
(quadratic in u) and q2 (quartic in u).  The barriers Q and A see the
orbit only through w = (k+l)/(2*Delta)*Z4, which is 3*beta on a line,
so q1 and q2 and their resultant are built once per process and serve
every orbit.  Rays set (Z2, Z3) = (alpha*Z1, beta*Z1) with
Z4 = (6*Delta/k)*delta; the restrictions p1 (quadratic in Z1) and p2
(quartic in Z1) depend on the orbit integers only through the ratio
rho = l/k, so they and their resultant are built once per process with
rho as a variable, and an orbit substitutes rho.  Both families are
the barrier formulas evaluated on symbols.

All arithmetic below is exact.  Floating point enters only in the
convenience return value of root_fn and, as a guess that exact signs
check, in the root isolation of ratpoly.  The root functions read each
slice from the integer evaluation kernel on its symbolic family, as
integer coefficients over one denominator, so they build no RatPoly;
slice() builds the RatPoly for callers that want one.
"""

import threading
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, isqrt
from operator import mul

from .aw_algebra import _as_params
from .errors import (
    DegenerateRootError,
    DomainAnomalyError,
    FormulaDiscrepancyError,
    InvalidRequestError,
)
from .exact import QuadExt, _square_decompose
from .phase_system import rs_of_z, zcons_of_z
from .ratpoly import (
    DEFAULT_MAX_DEPTH,
    Ball,
    Box,
    Certificate,
    Interval,
    RatPoly,
    _bernstein_form,
    _cell_exclusion,
    _cell_point,
    _certify_checks,
    _coerce as _rat,
    _compile_evaluation,
    _corners,
    _dense_tensor,
    _integer_evaluation,
    _split_axis,
    _subdivide,
    _tensor_steps,
    certify_nonneg,
    random_nonnegativity_audit,
    smallest_root_in_interval,
    sylvester_resultant,
)

__all__ = [
    "BARRIER_KINDS",
    "BARRIER_VARIABLES",
    "DEFAULT_EXCLUSION_RADIUS",
    "LINE_PARAMETER_DOMAIN",
    "LINE_SLICE_KINDS",
    "LINE_SLICE_VARIABLES",
    "RAY_PARAMETER_DOMAIN",
    "RAY_SLICE_KINDS",
    "RAY_SLICE_VARIABLES",
    "ROOT_KINDS",
    "barrier",
    "boundary_zero_report",
    "certify_line_resultant",
    "certify_nonneg",
    "certify_ray_resultant",
    "implicit_derivatives",
    "line_resultant",
    "line_slices",
    "printed_line_resultant",
    "printed_ray_expansion",
    "random_nonnegativity_audit",
    "ray_slices",
    "root_fn",
    "root_gap_hessian_det",
    "rtilde",
    "slice",
    "stated_boundary_zeros",
    "sylvester_resultant",
]

BARRIER_VARIABLES = ("Z1", "Z2", "Z3", "Z4")
LINE_SLICE_VARIABLES = ("alpha", "beta", "u")
RAY_SLICE_VARIABLES = ("alpha", "beta", "delta", "Z1")
RAY_PARAMETER_VARIABLES = ("alpha", "beta", "delta")
_RAY_FAMILY_VARIABLES = ("alpha", "beta", "delta", "rho", "Z1")

BARRIER_KINDS = ("Q", "A", "P", "B")
LINE_SLICE_KINDS = ("q1", "q2")
RAY_SLICE_KINDS = ("p1", "p2")
ROOT_KINDS = ("omega", "zeta", "xi", "sigma")

# Exclusion balls of this radius around the proven zeros keep the
# subdivision away from points where no interval bound can win.
DEFAULT_EXCLUSION_RADIUS = Fraction(1, 100)

# Parameter boxes for the two resultants.  The beta and delta edges
# are half open because the scalings degenerate there; certification
# works on the closure, which is a strictly stronger statement once
# the degenerate prefactor has been divided out.
LINE_PARAMETER_DOMAIN = Box((
    Interval(Fraction(0), Fraction(1, 2)),
    Interval(Fraction(0), Fraction(1), lower_open=True),
))
RAY_PARAMETER_DOMAIN = Box((
    Interval(Fraction(0), Fraction(1)),
    Interval(Fraction(0), Fraction(1)),
    Interval(Fraction(0), Fraction(1), lower_open=True),
))

# Root search windows for the quartic slices.  The quadratic slices
# use the exact discriminant instead of a window.
ZETA_WINDOW = (Fraction(0), Fraction(2, 3))
SIGMA_WINDOW = (Fraction(0), Fraction(1, 2))


# ---------------------------------------------------------------------------
# barrier polynomials


def barrier(params, which):
    """One of the four invariant-set barriers, exactly.

    which selects among Q and A (bounding the spin(+) family along
    lines of constant Z1) and P and B (bounding the spin(-) family
    along rays through the origin).  The result is a RatPoly over
    (Z1, Z2, Z3, Z4) whose coefficients involve the orbit integers
    through k, l, and Delta = k**2 + k*l + l**2 only: Q and A are their
    formulas at (Z1, Z2 + Z3, a*Z4) with a = (k+l)/(2*Delta), and P and
    B take the orbit's cubic and quartic coefficients.
    """
    params = _as_params(params)
    try:
        builder = _BARRIER_BUILDERS[which]
    except KeyError:
        raise InvalidRequestError(
            f"unknown barrier {which!r}, expected one of {BARRIER_KINDS}"
        ) from None
    names = BARRIER_VARIABLES
    z = tuple(RatPoly.variable(names, n) for n in names)
    return builder(*_orbit_coefficients(params), z)


def _barrier_q(z1, s, w):
    """Q at Z1, s = Z2 + Z3 and w = a*Z4, a = (k+l)/(2*Delta)."""
    return w / 4 * (s - z1) ** 2 - 2 * (s + z1) + 1


def _barrier_a(z1, s, w):
    """A at Z1, s = Z2 + Z3 and w = a*Z4, a = (k+l)/(2*Delta)."""
    return (w * w / 8 * s ** 4 - 2 * s * s - (12 * z1 + 2) * s
            + 2 * z1 * z1 - 2 * z1 + 2)


def _barrier_p(cubic, z):
    """P = -zcons-, the Z-only constraint of the minus chirality set."""
    return -zcons_of_z(tuple(-c for c in cubic), z)


def _barrier_b(quartic, z):
    """B = 2 - 2*(Z1 + Z2 + Z3) - Rs."""
    return 2 - 2 * (z[0] + z[1] + z[2]) - rs_of_z(quartic, z)


def _orbit_coefficients(params):
    """The orbit's cubic and quartic coefficients: the ray's, which go
    with Z4 = (6*Delta/k)*delta, scaled back to Z4 itself.  The first
    cubic one is a = (k+l)/(2*Delta)."""
    s = Fraction(params.k, 6 * params.delta)
    cubic, quartic = _ray_coefficients(params.rho)
    return tuple(s * c for c in cubic), tuple(s * s * c for c in quartic)


# Each builder takes the orbit's (cubic, quartic) and the symbols z.
_BARRIER_BUILDERS = {
    "Q": lambda cubic, _, z: _barrier_q(z[0], z[1] + z[2], cubic[0] * z[3]),
    "A": lambda cubic, _, z: _barrier_a(z[0], z[1] + z[2], cubic[0] * z[3]),
    "P": lambda cubic, _, z: _barrier_p(cubic, z),
    "B": lambda _, quartic, z: _barrier_b(quartic, z),
}


# ---------------------------------------------------------------------------
# slice families


class _Compiled(RatPoly):
    """A process-wide family polynomial with data compiled from it once.

    It prints, compares and computes as the RatPoly it is; compiled
    holds what the per-orbit and per-point calls read instead of its
    terms.  It lives in the family's one-entry cache, with the family.
    """

    __slots__ = ("compiled",)

    def __init__(self, poly, compiled):
        for name, value in (("variables", poly.variables),
                            ("terms", poly.terms), ("compiled", compiled)):
            object.__setattr__(self, name, value)


def _compiled_slice(poly, fixed_names):
    """A slice family with its evaluator: every variable but the root
    one fixed, in the order _slice_family and its callers give them."""
    return _Compiled(poly, _compile_evaluation(
        poly, [poly.variables.index(name) for name in fixed_names]))


@lru_cache(maxsize=1)
def line_slices():
    """The two line restrictions (q1, q2) over (alpha, beta, u).

    On the line Z1 = alpha, Z2 + Z3 = u, Z4 = 6*Delta*beta/(k+l) the
    barrier formulas of Q and A take w = 3*beta, so the orbit drops
    out: q1 and q2 are those formulas at (alpha, u, 3*beta), built once
    per process for every orbit, each with its compiled evaluator.
    """
    alpha, beta, u = (RatPoly.variable(LINE_SLICE_VARIABLES, n)
                      for n in LINE_SLICE_VARIABLES)
    return tuple(_compiled_slice(poly, ("alpha", "beta")) for poly in (
        _barrier_q(alpha, u, 3 * beta), _barrier_a(alpha, u, 3 * beta)))


def ray_slices(params):
    """The two ray restrictions (p1, p2) over (alpha, beta, delta, Z1).

    The substitution (Z2, Z3) = (alpha*Z1, beta*Z1) with
    Z4 = (6*Delta/k)*delta leaves polynomials whose coefficients
    depend on the orbit integers only through rho = l/k: this is the
    ray family, built once per process, at rho.
    """
    rho = _as_params(params).rho
    return tuple(p.substitute({"rho": rho}) for p in _ray_family())


def _ray_coefficients(rho):
    """Cubic and quartic coefficients for a ray's Z4 = delta: the orbit's
    times 6*Delta/k and (6*Delta/k)**2, which depend on rho alone."""
    return ((3 * (1 + rho), 3 * rho, 3),
            (18 * (1 + rho) ** 2, 18 * rho ** 2, 18))


@lru_cache(maxsize=1)
def _ray_family():
    """(p1, p2) over _RAY_FAMILY_VARIABLES: barriers P and B at
    Z = (Z1, alpha*Z1, beta*Z1, delta), with the ray coefficients, each
    with its compiled evaluator."""
    alpha, beta, delta, rho, z1 = (RatPoly.variable(_RAY_FAMILY_VARIABLES, n)
                                   for n in _RAY_FAMILY_VARIABLES)
    cubic, quartic = _ray_coefficients(rho)
    z = (z1, alpha * z1, beta * z1, delta)
    return tuple(_compiled_slice(poly, ("rho",) + RAY_PARAMETER_VARIABLES)
                 for poly in (_barrier_p(cubic, z), _barrier_b(quartic, z)))


def _slice_family(params, which):
    """(symbolic slice, fixed values) for a slice kind.  The line
    slices serve every orbit, so params may be None for them; the ray
    slices fix rho = l/k.  The values followed by the slice parameters
    are in the order the slice's evaluator takes them."""
    if which in LINE_SLICE_KINDS:
        if params is not None:
            _as_params(params)
        return line_slices()[LINE_SLICE_KINDS.index(which)], {}
    if which in RAY_SLICE_KINDS:
        return (_ray_family()[RAY_SLICE_KINDS.index(which)],
                {"rho": _as_params(params).rho})
    raise InvalidRequestError(
        f"unknown slice {which!r}, expected one of "
        f"{LINE_SLICE_KINDS + RAY_SLICE_KINDS}")


def slice(params, which, alpha, beta, delta=None):
    """A univariate slice polynomial at exact parameter values.

    which in {q1, q2} fixes (alpha, beta) and returns a polynomial in
    u = Z2 + Z3, the same for every orbit (params may be None); which
    in {p1, p2} additionally needs delta and returns a polynomial in
    Z1.  Coordinates must be exact rationals (Fraction, int, or a
    num/den string); floats are refused so the restriction stays
    exact.
    """
    source, values = _slice_family(params, which)
    if (delta is None) != (which in LINE_SLICE_KINDS):
        raise InvalidRequestError(
            "the ray slices p1 and p2 need a delta value, "
            "and the line slices q1 and q2 take none")
    values.update(alpha=_rat(alpha), beta=_rat(beta))
    if delta is not None:
        values["delta"] = _rat(delta)
    return source.substitute(values)


# ---------------------------------------------------------------------------
# root functions of the slices


_ROOT_SETUP = {
    # kind: (slice name, root variable, parameter names, search)
    "omega": ("q1", "u", ("alpha", "beta"), "quadratic"),
    "zeta": ("q2", "u", ("alpha", "beta"), "zeta"),
    "xi": ("p1", "Z1", RAY_PARAMETER_VARIABLES, "quadratic"),
    "sigma": ("p2", "Z1", RAY_PARAMETER_VARIABLES, "sigma"),
}


def root_fn(params, which, point):
    """Distinguished root of a slice polynomial, as a float.

    The slice at point is read from the integer evaluation kernel as
    integer coefficients over one positive denominator; no RatPoly is
    built.  omega and xi are the smaller positive roots of the
    quadratic slices q1 and p1, picked by the integer signs of the
    coefficients and the discriminant and built exactly.  zeta is the
    smallest non-negative root of q2 on [0, 2/3] and sigma the
    smallest positive root of p2 on (0, 1/2], both isolated by Sturm
    counts on the integer coefficients and then bisected to 1e-12 on
    the exact sign of the slice polynomial (the last halvings skipped
    when a float estimate's cell passes an exact check).  Returns None
    when no root lies in the window.  A
    negative discriminant for omega or xi raises DomainAnomalyError
    because two real roots are guaranteed on the stated parameter
    boxes.  omega and zeta serve every orbit, so params may be None
    for them.
    """
    found = _root_exact(params, which, point)
    if found is None:
        return None
    value, _ = found
    return float(value)


def _root_exact(params, which, point):
    """(root value, exactness flag) for root_fn, or None.

    The value is a Fraction or a quadratic-extension number, exact
    whenever the flag is True; otherwise it is a rational bracket
    midpoint within 1e-12 of the root.
    """
    try:
        slice_name, _, names, search = _ROOT_SETUP[which]
    except KeyError:
        raise InvalidRequestError(
            f"unknown root function {which!r}, expected one of "
            f"{ROOT_KINDS}") from None
    point = tuple(_rat(x) for x in point)
    if len(point) != len(names):
        raise InvalidRequestError(
            f"{which} expects {len(names)} coordinates {names}, "
            f"got {len(point)}")
    ints, denominator = _slice_integers(params, slice_name, names, point)
    if search == "quadratic":
        return _smaller_positive_quadratic_root(ints, denominator, which,
                                                point)
    # A positive common denominator changes no sign, so the numerators
    # have the slice's roots.
    if search == "zeta":
        return smallest_root_in_interval(
            ints, ZETA_WINDOW[0], ZETA_WINDOW[1], include_lo=True)
    return smallest_root_in_interval(
        ints, SIGMA_WINDOW[0], SIGMA_WINDOW[1], include_lo=False)


def _slice_integers(params, slice_name, names, point):
    """(ints, denominator): the slice at point as the ascending integer
    coefficients of its root variable over one positive denominator,
    read from the integer kernel with the symbolic family's evaluator."""
    source, values = _slice_family(params, slice_name)
    values.update(zip(names, point))
    (sums, denominator), = _integer_evaluation(
        source.compiled, [[x.as_integer_ratio() for x in values.values()]])
    ints = [0] * (1 + max(e for e, in sums))
    for (e,), n in sums.items():
        ints[e] = n
    return ints, denominator


def _smaller_positive_quadratic_root(ints, denominator, which, point):
    """Smaller positive root of a (possibly degenerate) quadratic
    n0 + n1*x + n2*x**2 over a positive denominator.

    The root is picked from integer signs: by Vieta the roots' product
    has the sign of n0*n2 and their sum that of -n1*n2, and
    (-c1 - sqrt(disc))/(2*c2), c_i = n_i/denominator, is the smaller
    root when c2 > 0.  Only the picked root is built, from the
    integers, as the Fraction or QuadExt that evaluating this with
    exact_sqrt gives: sqrt(disc) is rational exactly when disc is a
    square, and otherwise exact_sqrt(disc/denominator**2) is
    s*sqrt(d)*g/denominator**2, g = gcd(disc, denominator**2).
    """
    n0, n1, n2 = ints
    if n2 == 0:
        if n1 == 0 or n0 * n1 >= 0:
            return None
        return Fraction(-n0, n1), True
    disc = n1 * n1 - 4 * n2 * n0
    if disc < 0:
        raise DomainAnomalyError(
            f"negative discriminant {Fraction(disc, denominator ** 2)} "
            f"for {which} at {point}; "
            "two real roots are guaranteed on the stated domain")
    product, total = n0 * n2, -n1 * n2
    if product > 0 and total > 0:  # both roots positive: the smaller
        sign = -1 if n2 > 0 else 1
    elif product < 0 or (product == 0 and total > 0):  # only the larger
        sign = -1 if n2 < 0 else 1
    else:
        return None
    root = isqrt(disc)
    if root * root == disc:
        return Fraction(sign * root - n1, 2 * n2), True
    square = denominator * denominator
    g = gcd(disc, square)
    s, d = _square_decompose(disc // g * (square // g))
    return QuadExt(Fraction(-n1, 2 * n2),
                   Fraction(sign * s * g, 2 * n2 * denominator), d), True


def implicit_derivatives(params, which, point, order=2):
    """Exact partials of a slice root in its slice parameters.

    The root v solves F(x, v(x)) = 0 with F the symbolic slice
    polynomial, so v_i = -F_i/F_v and the second partials follow from
    one more implicit differentiation.  The returned dict maps sorted
    name tuples to values: the root itself under the empty tuple,
    first partials under one-name tuples, and, for order 2, second
    partials under two-name tuples.  Values are exact whenever the
    root is exactly representable (every rational root and every
    quadratic-slice root); a quartic root that only brackets to 1e-12
    yields partials carrying that same uncertainty.

    Raises DegenerateRootError when F_v vanishes at the point, since
    the root is then not simple and the derivatives do not exist.
    """
    if order not in (1, 2):
        raise InvalidRequestError("order must be 1 or 2")
    found = _root_exact(params, which, point)
    if found is None:
        raise InvalidRequestError(
            f"{which} has no root in its window at {point}, "
            "nothing to differentiate")
    root, _ = found
    slice_name, root_var, names, _ = _ROOT_SETUP[which]
    point = tuple(_rat(x) for x in point)
    symbolic, values = _slice_family(params, slice_name)
    values.update(zip(names, point))
    values[root_var] = root

    def at(poly):
        return poly.evaluate(values)

    # Each partial is taken once: the second partials reuse the first.
    f = {name: symbolic.partial(name) for name in names + (root_var,)}
    denom = at(f[root_var])
    if denom == 0:
        raise DegenerateRootError(
            f"{which} has a non-simple root at {tuple(map(str, point))}; "
            "implicit derivatives are undefined there")
    out = {(): root}
    first = {}
    for name in names:
        first[name] = -at(f[name]) / denom
        out[(name,)] = first[name]
    if order == 2:
        f_vv = at(f[root_var].partial(root_var))
        f_xv = {name: at(f[name].partial(root_var)) for name in names}
        for i, ni in enumerate(names):
            for nj in names[i:]:
                vi, vj = first[ni], first[nj]
                out[(ni, nj)] = -(at(f[ni].partial(nj)) + f_xv[ni] * vj
                                  + f_xv[nj] * vi + f_vv * vi * vj) / denom
    return out


def root_gap_hessian_det(params, point=(1, 0, 1)):
    """Determinant of the (alpha, beta) Hessian of sigma - xi.

    At the collision corner (alpha, beta, delta) = (1, 0, 1) the two
    ray-slice roots agree, their gradients in (alpha, beta) agree, and
    positivity of this determinant (with a positive diagonal) shows
    the gap grows quadratically away from the corner with delta held
    fixed.  Exact; for the corner itself the value works out to
    (19*k**2 - k*l - l**2) / (300*k**2).
    """
    xi_d = implicit_derivatives(params, "xi", point, order=2)
    sigma_d = implicit_derivatives(params, "sigma", point, order=2)
    h_aa = sigma_d[("alpha", "alpha")] - xi_d[("alpha", "alpha")]
    h_ab = sigma_d[("alpha", "beta")] - xi_d[("alpha", "beta")]
    h_bb = sigma_d[("beta", "beta")] - xi_d[("beta", "beta")]
    return h_aa * h_bb - h_ab * h_ab


# ---------------------------------------------------------------------------
# resultants and their recorded reference expansions


@lru_cache(maxsize=1)
def line_resultant():
    """Resultant of (q1, q2) in u, as a RatPoly over (alpha, beta).

    A zero of this polynomial at (alpha, beta) is equivalent to the
    two line slices sharing a root there, which is how root
    interlacing can fail.  It is computed once per process and compared
    with the recorded closed form coefficient by coefficient; a
    mismatch raises FormulaDiscrepancyError on every call, and nothing
    is cached.
    """
    computed = sylvester_resultant(*line_slices(), "u")
    _require_equal(computed, printed_line_resultant(), "line resultant")
    return computed


def printed_line_resultant():
    """The recorded closed form of the line resultant.

    Entered by hand as 27*beta**2 times a bracket polynomial and kept
    independent of the Sylvester pipeline so the two can audit each
    other.
    """
    names = ("alpha", "beta")
    a = RatPoly.variable(names, "alpha")
    b = RatPoly.variable(names, "beta")
    f = Fraction
    bracket = (
        f(243, 16384) * a ** 8 * b ** 6
        + (-f(81, 512) * a ** 7 + f(81, 1024) * a ** 6) * b ** 5
        + (f(81, 256) * a ** 6 - f(189, 256) * a ** 5
           + f(27, 128) * a ** 4) * b ** 4
        + (-f(153, 32) * a ** 5 - f(27, 32) * a ** 4
           + f(27, 16) * a ** 3 - f(9, 32) * a ** 2) * b ** 3
        + (18 * a ** 4 - f(39, 2) * a ** 3 + f(159, 16) * a ** 2
           - f(9, 4) * a + f(3, 16)) * b ** 2
        + (21 * a ** 3 - 15 * a ** 2 + f(17, 4) * a - f(7, 16)) * b
        + 6 * a ** 2 - 2 * a + f(1, 4)
    )
    return 27 * b ** 2 * bracket


# Recorded expansion of the reduced ray resultant in powers of
# rho = l/k: entries are (coefficient, rho power, alpha power,
# beta power, delta power).  Entered by hand, independent of the
# Sylvester pipeline, so the two constructions audit each other.
_RTILDE_RHO_TERMS = (
    (36, 4, 4, 4, 2), (-72, 4, 3, 4, 2), (144, 3, 4, 4, 2),
    (108, 4, 2, 4, 2), (45, 3, 5, 3, 1), (-6, 3, 4, 4, 1),
    (-72, 3, 4, 3, 2), (45, 3, 3, 5, 1), (-216, 3, 3, 4, 2),
    (216, 2, 4, 4, 2), (-72, 4, 1, 4, 2), (-69, 3, 4, 3, 1),
    (60, 3, 3, 4, 1), (144, 3, 3, 3, 2), (-63, 3, 2, 5, 1),
    (216, 3, 2, 4, 2), (135, 2, 5, 3, 1), (-18, 2, 4, 4, 1),
    (-216, 2, 4, 3, 2), (135, 2, 3, 5, 1), (-216, 2, 3, 4, 2),
    (144, 1, 4, 4, 2), (36, 4, 0, 4, 2), (174, 3, 3, 3, 1),
    (-144, 3, 2, 3, 2), (63, 3, 1, 5, 1), (-72, 3, 1, 4, 2),
    (15, 2, 6, 2, 0), (-4, 2, 5, 3, 0), (-63, 2, 5, 2, 1),
    (26, 2, 4, 4, 0), (-78, 2, 4, 3, 1), (108, 2, 4, 2, 2),
    (-4, 2, 3, 5, 0), (51, 2, 3, 4, 1), (288, 2, 3, 3, 2),
    (15, 2, 2, 6, 0), (-126, 2, 2, 5, 1), (108, 2, 2, 4, 2),
    (135, 1, 5, 3, 1), (-18, 1, 4, 4, 1), (-216, 1, 4, 3, 2),
    (135, 1, 3, 5, 1), (-72, 1, 3, 4, 2), (36, 0, 4, 4, 2),
    (-174, 3, 2, 3, 1), (-60, 3, 1, 4, 1), (72, 3, 1, 3, 2),
    (-45, 3, 0, 5, 1), (-10, 2, 5, 2, 0), (28, 2, 4, 3, 0),
    (120, 2, 4, 2, 1), (-48, 2, 3, 4, 0), (216, 2, 3, 3, 1),
    (-144, 2, 3, 2, 2), (36, 2, 2, 5, 0), (120, 2, 2, 4, 1),
    (-144, 2, 2, 3, 2), (-6, 2, 1, 6, 0), (63, 2, 1, 5, 1),
    (30, 1, 6, 2, 0), (-8, 1, 5, 3, 0), (-126, 1, 5, 2, 1),
    (52, 1, 4, 4, 0), (51, 1, 4, 3, 1), (216, 1, 4, 2, 2),
    (-8, 1, 3, 5, 0), (-78, 1, 3, 4, 1), (144, 1, 3, 3, 2),
    (30, 1, 2, 6, 0), (-63, 1, 2, 5, 1), (45, 0, 5, 3, 1),
    (-6, 0, 4, 4, 1), (-72, 0, 4, 3, 2), (45, 0, 3, 5, 1),
    (69, 3, 1, 3, 1), (6, 3, 0, 4, 1), (81, 2, 4, 2, 0),
    (-24, 2, 3, 3, 0), (-306, 2, 3, 2, 1), (44, 2, 2, 4, 0),
    (-306, 2, 2, 3, 1), (108, 2, 2, 2, 2), (36, 2, 1, 5, 0),
    (-129, 2, 1, 4, 1), (15, 2, 0, 6, 0), (-6, 1, 6, 1, 0),
    (26, 1, 5, 2, 0), (63, 1, 5, 1, 1), (-20, 1, 4, 3, 0),
    (120, 1, 4, 2, 1), (-72, 1, 4, 1, 2), (-20, 1, 3, 4, 0),
    (216, 1, 3, 3, 1), (-144, 1, 3, 2, 2), (26, 1, 2, 5, 0),
    (120, 1, 2, 4, 1), (-6, 1, 1, 6, 0), (15, 0, 6, 2, 0),
    (-4, 0, 5, 3, 0), (-63, 0, 5, 2, 1), (26, 0, 4, 4, 0),
    (60, 0, 4, 3, 1), (108, 0, 4, 2, 2), (-4, 0, 3, 5, 0),
    (-69, 0, 3, 4, 1), (15, 0, 2, 6, 0), (-45, 3, 0, 3, 1),
    (-44, 2, 3, 2, 0), (-24, 2, 2, 3, 0), (120, 2, 2, 2, 1),
    (-48, 2, 1, 4, 0), (129, 2, 1, 3, 1), (-4, 2, 0, 5, 0),
    (46, 1, 5, 1, 0), (44, 1, 4, 2, 0), (-129, 1, 4, 1, 1),
    (-4, 1, 3, 3, 0), (-306, 1, 3, 2, 1), (72, 1, 3, 1, 2),
    (44, 1, 2, 4, 0), (-306, 1, 2, 3, 1), (46, 1, 1, 5, 0),
    (-6, 0, 6, 1, 0), (36, 0, 5, 2, 0), (63, 0, 5, 1, 1),
    (-48, 0, 4, 3, 0), (-72, 0, 4, 1, 2), (28, 0, 3, 4, 0),
    (174, 0, 3, 3, 1), (-10, 0, 2, 5, 0), (81, 2, 2, 2, 0),
    (28, 2, 1, 3, 0), (-63, 2, 1, 2, 1), (26, 2, 0, 4, 0),
    (-76, 1, 4, 1, 0), (-44, 1, 3, 2, 0), (129, 1, 3, 1, 1),
    (-44, 1, 2, 3, 0), (120, 1, 2, 2, 1), (-76, 1, 1, 4, 0),
    (15, 0, 6, 0, 0), (36, 0, 5, 1, 0), (-45, 0, 5, 0, 1),
    (44, 0, 4, 2, 0), (-60, 0, 4, 1, 1), (36, 0, 4, 0, 2),
    (-24, 0, 3, 3, 0), (-174, 0, 3, 2, 1), (81, 0, 2, 4, 0),
    (-10, 2, 1, 2, 0), (-4, 2, 0, 3, 0), (76, 1, 3, 1, 0),
    (118, 1, 2, 2, 0), (-63, 1, 2, 1, 1), (76, 1, 1, 3, 0),
    (-4, 0, 5, 0, 0), (-48, 0, 4, 1, 0), (6, 0, 4, 0, 1),
    (-24, 0, 3, 2, 0), (69, 0, 3, 1, 1), (-44, 0, 2, 3, 0),
    (15, 2, 0, 2, 0), (-46, 1, 2, 1, 0), (-46, 1, 1, 2, 0),
    (26, 0, 4, 0, 0), (28, 0, 3, 1, 0), (-45, 0, 3, 0, 1),
    (81, 0, 2, 2, 0), (6, 1, 1, 1, 0), (-4, 0, 3, 0, 0),
    (-10, 0, 2, 1, 0), (15, 0, 2, 0, 0),
)


def printed_ray_expansion(params):
    """The recorded reduced ray resultant at this parameter ratio: the
    recorded rho-expansion, read as one RatPoly over (alpha, beta,
    delta, rho), at rho = l/k."""
    return _recorded_ray_resultant().substitute(
        {"rho": _as_params(params).rho})


def _recorded_ray_resultant():
    return RatPoly(RAY_PARAMETER_VARIABLES + ("rho",), {
        (e_alpha, e_beta, e_delta, e_rho): coeff
        for coeff, e_rho, e_alpha, e_beta, e_delta in _RTILDE_RHO_TERMS})


def rtilde(params, cross_check=True):
    """The reduced ray resultant over (alpha, beta, delta).

    The Sylvester resultant of the ray family (p1, p2) in Z1 over
    36*delta**2, computed once per process in (alpha, beta, delta, rho)
    and taken at rho = l/k (p1 and p2 keep their degree in Z1 at every
    rho).  A zero is equivalent to the two ray slices sharing a root,
    which is what the ray containment argument rules out.  cross_check
    compares it with the recorded rho-expansion coefficient by
    coefficient, once per process and so for every ratio at once; a
    mismatch raises FormulaDiscrepancyError on every call.

    The process-wide form holds, for each (alpha, beta, delta) exponent
    key in term order, the integer coefficients c_m of rho**m over one
    lcm L.  With rho = p/q the coefficient at a key is one integer dot
    product, sum c_m p**m q**(4 - m) over L*q**4; the keys whose sum
    vanishes drop out, and the RatPoly is built without re-checking the
    keys this module made.
    """
    family = _checked_ray_resultant() if cross_check else _ray_resultant()
    (sums, denominator), = _integer_evaluation(
        family.compiled[0], [[_as_params(params).rho.as_integer_ratio()]])
    return RatPoly._ordered(RAY_PARAMETER_VARIABLES, {
        key: Fraction(n, denominator) for key, n in sums.items() if n})


@lru_cache(maxsize=1)
def _checked_ray_resultant():
    """_ray_resultant once it matches the recorded expansion; a
    mismatch raises, and nothing is cached."""
    computed = _ray_resultant()
    _require_equal(computed, _recorded_ray_resultant(),
                   "reduced ray resultant")
    return computed


@lru_cache(maxsize=1)
def _ray_resultant():
    """The reduced ray resultant over (alpha, beta, delta, rho), compiled
    for every ratio: its evaluator at fixed rho, whose groups are the
    rho-coefficients of each (alpha, beta, delta) key, and its Bernstein
    tensor in (alpha, beta, delta, rho) (_rho_bernstein_parts)."""
    p1, p2 = _ray_family()
    resultant = sylvester_resultant(p1, p2, "Z1")
    offenders = [(exps, coeff, None)
                 for exps, coeff in resultant.terms.items() if exps[2] < 2]
    if offenders:
        raise FormulaDiscrepancyError(
            "ray resultant lacks the expected 36*delta**2 prefactor",
            offenders)
    reduced = RatPoly(resultant.variables, {
        (e_alpha, e_beta, e_delta - 2, e_rho): coeff / 36
        for (e_alpha, e_beta, e_delta, e_rho), coeff
        in resultant.terms.items()})
    evaluator = _compile_evaluation(reduced, [reduced.variables.index("rho")])
    return _Compiled(reduced, (evaluator, _rho_bernstein_parts(evaluator)))


def _rho_bernstein_parts(evaluator):
    """(nums, scale, dims, strides): the Bernstein tensor of the ray
    resultant on RAY_PARAMETER_DOMAIN x [0, 1] in (alpha, beta, delta,
    rho), integer numerators over one scale, rho the last axis.

    The first three axes' tables give the Bernstein tensors B_m of the
    rho**m parts on RAY_PARAMETER_DOMAIN; the rho axis's degree-4 table,
    _axis_table(4, 0, 1), then turns each entry's (B_0, ..., B_4) into
    its five rho-Bernstein coefficients b_j.  At rho = p/q in [0, 1] an
    entry's Bernstein coefficient on the (alpha, beta, delta) box is
    sum w_j b_j with w_j = C(4, j) p**j (q - p)**(4 - j), over
    scale*q**4.  The degrees are the family's at every rho >= 0, because
    each of alpha, beta and delta has a top-degree rho-group whose
    coefficients are all positive, the rho**0 one included.
    """
    scale, _, groups = evaluator
    terms = [(key + exps, n) for key, rows in groups for exps, n in rows]
    dims = tuple(max(e) + 1 for e in zip(*(exps for exps, _ in terms)))
    flat, strides = _dense_tensor(terms, dims)
    box = Box(RAY_PARAMETER_DOMAIN.intervals
              + (Interval(Fraction(0), Fraction(1)),))
    return _bernstein_form(flat, scale, dims, strides, box)


def _require_equal(computed, recorded, label):
    if computed == recorded:
        return
    keys = set(computed.terms) | set(recorded.terms)
    differences = sorted(
        (key, computed.terms.get(key, Fraction(0)),
         recorded.terms.get(key, Fraction(0)))
        for key in keys
        if computed.terms.get(key, Fraction(0))
        != recorded.terms.get(key, Fraction(0)))
    raise FormulaDiscrepancyError(
        f"{label}: computed expansion differs from the recorded one "
        f"in {len(differences)} monomials", differences)


# ---------------------------------------------------------------------------
# zero bookkeeping and certification drivers


def stated_boundary_zeros(params):
    """Corners of the closed ray box where the reduced resultant
    vanishes, per the recorded zero-locus statement.

    (1, 0, 1) always; (0, 1, 1) joins exactly when k = l.  Returned
    as tuples of Fractions, ready to center exclusion balls on.
    """
    params = _as_params(params)
    zeros = [(Fraction(1), Fraction(0), Fraction(1))]
    if params.k == params.l:
        zeros.append((Fraction(0), Fraction(1), Fraction(1)))
    return tuple(zeros)


def boundary_zero_report(params):
    """Exact values of the reduced ray resultant at the corner
    candidates that different zero-locus conventions mention.

    Evaluates (1, 0, 1), (0, 1, 1), and (1, 1, 0) and reports which
    vanish.  Two conventions circulate for the repeated-parameter
    case, one naming (0, 1, 1) and one naming (1, 1, 0); the report
    records the direct evaluations so callers can see which corner
    actually lies in the zero set, without trying to resolve the
    wording.  When l = 0 every monomial carries a factor alpha**2, so
    the whole alpha = 0 face vanishes identically; certification then
    leans on exact lower bounds of zero rather than exclusion balls,
    and the report notes the face.
    """
    params = _as_params(params)
    poly = rtilde(params)
    candidates = (
        (Fraction(1), Fraction(0), Fraction(1)),
        (Fraction(0), Fraction(1), Fraction(1)),
        (Fraction(1), Fraction(1), Fraction(0)),
    )
    values = {point: poly.evaluate(point) for point in candidates}
    notes = []
    if params.k == params.l:
        first = values[candidates[1]]
        second = values[candidates[2]]
        notes.append(
            "repeated-parameter case: (0, 1, 1) evaluates to "
            f"{first} and (1, 1, 0) to {second}; the stated zero "
            "list uses whichever corner actually vanishes")
    if params.l == 0:
        face = poly.coefficient_of("alpha", 0)
        notes.append(
            "l = 0: the alpha = 0 face evaluates to the zero "
            f"polynomial ({face.is_zero}), so zeros there are "
            "non-isolated and are discharged by exact zero lower "
            "bounds instead of exclusion balls")
    return {
        "values": values,
        "stated": stated_boundary_zeros(params),
        "notes": tuple(notes),
    }


def certify_line_resultant():
    """Certificate that the line resultant is non-negative on the
    closed box [0, 1/2] x [0, 1].

    The lone zero at (alpha, beta) = (0, 1) is excluded by a ball of
    radius DEFAULT_EXCLUSION_RADIUS; positivity inside the ball is the
    business of the implicit-derivative data, not of subdivision.
    """
    ball = Ball((Fraction(0), Fraction(1)), DEFAULT_EXCLUSION_RADIUS)
    return certify_nonneg(line_resultant(), LINE_PARAMETER_DOMAIN,
                          exclusions=(ball,))


def certify_ray_resultant(params):
    """Certificate that the reduced ray resultant is non-negative on
    the closed unit cube in (alpha, beta, delta).

    Exclusion balls sit exactly on the stated boundary zeros for the
    given parameters, so the certificate and the zero-locus statement
    are checked against each other: a missing or misplaced ball shows
    up as an Inconclusive or CounterexampleFound verdict.

    The certificate is certify_nonneg's on rtilde(params), with the box
    and ball checks made against RAY_PARAMETER_VARIABLES: the same
    subdivision, decision for decision, with the same exact values.  It
    walks the cells of one tree that every orbit shares
    (_ray_certificate): the resultant's Bernstein tensor in (alpha,
    beta, delta, rho), split in (alpha, beta, delta) once per process,
    whose cells know for which entries the sign holds at every rho, so
    an orbit evaluates only the others at its rho = l/k.  rtilde's
    RatPoly is not built.
    """
    params = _as_params(params)
    parts = _checked_ray_resultant().compiled[1]
    exclusions = _ray_exclusions(stated_boundary_zeros(params))
    with _RAY_CELLS_LOCK:
        return _ray_certificate(parts, _RAY_CELLS, params.rho, exclusions)


@lru_cache(maxsize=4)
def _ray_exclusions(centers):
    """(box, balls, in_ball): RAY_PARAMETER_DOMAIN and exclusion balls
    of radius DEFAULT_EXCLUSION_RADIUS on centers, as _certify_checks
    gives them, with their integer cell test (_cell_exclusion); one
    tuple per process for each list of centers."""
    box, balls = _certify_checks(
        RAY_PARAMETER_VARIABLES, RAY_PARAMETER_DOMAIN,
        (Ball(center, DEFAULT_EXCLUSION_RADIUS) for center in centers))
    return box, balls, _cell_exclusion(balls, box)


# The ray certificate's shared cells, keyed by their cells as _subdivide
# names them; a process keeps at most _RAY_CELL_LIMIT of them.  A stored
# cell holds a full tensor only while it is a leaf of the stored tree,
# so at most half of them do: 512 cells, at most 256 tensors of 735
# integers (7.9 MiB once a stream of small-rho orbits filled it).  A
# walk changes the cells it visits, so one walk at a time holds the lock.
_RAY_CELL_LIMIT = 512
_RAY_CELLS = {}
_RAY_CELLS_LOCK = threading.Lock()


class _RayCell:
    """A cell of the ray resultant's tensor from _rho_bernstein_parts,
    read for every rho in [0, 1] at once.

    Entry e of the (alpha, beta, delta) tensor holds five rho-Bernstein
    coefficients b_j; at rho = p/q its value is sum w_j b_j with weights
    w_j = C(4, j) p**j (q - p)**(4 - j) >= 0.  An entry whose b_j are all
    >= 0 is nonnegative at every rho; undecided maps each other entry to
    its b_j, so a cell with none is discharged at every rho.  negative
    marks an entry negative at every rho (every b_j <= 0, b_0 < 0 and
    b_4 < 0): no rho discharges the cell by sign.  tensor, the cell's
    full data for splitting, numerators over the root scale << shift, is
    dropped once its children are stored or nothing is undecided.  near
    is (balls, inside, free) for the last set of exclusion balls the
    cell was examined with: whether it lies in one of them, and its
    undecided corners outside them (see _corners), which depend on the
    balls alone.  split_before records that an orbit has split the cell
    without storing its halves.
    """

    __slots__ = ("shift", "undecided", "negative", "tensor", "near",
                 "split_before")

    def __init__(self, tensor, shift, width):
        lows = map(min, *(tensor[j::width] for j in range(width)))
        self.undecided = {e: tensor[e * width:(e + 1) * width]
                          for e, low in enumerate(lows) if low < 0}
        self.negative = any(max(b) <= 0 and b[0] < 0 and b[-1] < 0
                            for b in self.undecided.values())
        self.tensor = tensor if self.undecided else None
        self.shift = shift
        self.near = None
        self.split_before = False


def _ray_certificate(parts, table, rho, exclusions,
                     max_depth=DEFAULT_MAX_DEPTH):
    """certify_nonneg's certificate of the ray resultant at rho in
    [0, 1], with the box and balls of exclusions (_ray_exclusions), from
    its tensor parts (_rho_bernstein_parts) and a table of _RayCell
    shared by every rho.

    An orbit evaluates a cell's undecided entries only, as the integer
    dot products sum w_j b_j over scale*q**4 << shift: all of them for
    the sign test and at max_depth (the lowest coefficient is among
    them), the corners alone when one entry is negative at every rho.
    A stored cell's halves are stored the second time it is split, both
    from one _split_axis of its tensor, which it then drops.  The first
    time, and whenever the table holds _RAY_CELL_LIMIT cells, its
    entries at this rho become the orbit's own (alpha, beta, delta)
    tensor, which the rest of that branch splits as certify_nonneg does
    and which goes with the walk: a cell that one orbit alone visits
    costs no split in four dimensions, and one-shot certificates cost
    what they cost without the table.  Reduced, every value is the one
    certify_nonneg finds on rtilde at rho, so the certificate and its
    boxes per depth are that one's.
    """
    tensor, scale, dims, strides = parts
    box, balls, in_ball = exclusions
    width = dims[-1]
    dims3, strides3 = dims[:-1], tuple(s // width for s in strides[:-1])
    degrees = tuple(size - 1 for size in dims3)
    corners = _corners(dims3, strides3)
    p, q = rho.as_integer_ratio()
    weights = [comb(width - 1, j) * p ** j * (q - p) ** (width - 1 - j)
               for j in range(width)]
    scale *= q ** (width - 1)
    own_examine, own_split = _tensor_steps(dims3, strides3, scale, in_ball)

    def at_rho(b):
        return sum(map(mul, weights, b))

    def near(cell, cells):
        if cell.near is None or cell.near[0] is not balls:
            cell.near = balls, in_ball(cells), tuple(
                (top, c) for top, c in corners if c in cell.undecided
                and not any(ball.contains_point(_cell_point(box, cells, top))
                            for ball in balls))
        return cell.near[1:]

    def examine(cell, cells, last):
        if type(cell) is tuple:
            return own_examine(cell, cells, last)
        undecided = cell.undecided
        if not undecided:
            return None
        inside, free = near(cell, cells)
        if inside:
            return None
        if cell.negative and not last:
            values = {c: at_rho(undecided[c]) for _, c in free}
        else:
            values = {e: at_rho(b) for e, b in undecided.items()}
            if min(values.values()) >= 0:
                return None
        return ([(top, values[c]) for top, c in free if values[c] < 0],
                scale << cell.shift, min(values.values()) if last else None)

    def split(cell, axis, halves):
        if type(cell) is tuple:
            return own_split(cell, axis, halves)
        stored = tuple(map(table.get, halves))
        if stored[0] is not None:
            return stored
        if not cell.split_before or len(table) + 2 > _RAY_CELL_LIMIT:
            cell.split_before = True
            full = cell.tensor
            nums = [at_rho(full[i:i + width])
                    for i in range(0, len(full), width)]
            return own_split((nums, cell.shift), axis, halves)
        shift = cell.shift + degrees[axis]
        children = tuple(_RayCell(half, shift, width) for half
                         in _split_axis(cell.tensor, dims, strides, axis))
        table.update(zip(halves, children))
        cell.tensor = None
        return children

    root_cells = ((0, 0),) * len(dims3)
    root = table.get(root_cells)
    if root is None:
        root = table[root_cells] = _RayCell(tensor, 0, width)
    return _subdivide(box, balls, max_depth, root, examine, split)
