"""Critical points of the flow: exact catalog, linearizations, eigenframes.

The flow has seven kinds of critical points inside the Ricci-flat
constraint set:

* three cone points, one per circle bundle (labels ``P0_KplusL``,
  ``P0_L``, ``P0_K``), each the start of the shooting families;
* the ALC sink ``P1`` together with three companions ``ALC_b1..3`` whose
  Z entries involve sqrt(10);
* two points ``AC_1``, ``AC_2`` whose Z entries solve the homogeneous
  Einstein condition R_i = 6/49 (asymptotic-cone limits);
* three sources ``G2_source_1..3`` and three saddles ``G2_saddle_1..3``
  inside the locus where both chirality systems vanish;
* a surface of fixed states with Z = 0 (``CircleFamily``) and a ray on
  the X4 axis (``LineFamily``).

Coordinates are stored exactly (Fraction, with QuadExt for the sqrt(10)
entries).  The linearization and the constraint derivatives are those of
``phase_system`` (re-exported here) and are exact at exact states;
``eigen`` rounds the linearization once and adds a floating-point
spectral decomposition with clustering, cached per process on the
inputs the linearization reads, and ``reference_frame`` returns
closed-form eigenvector tables for the cone points and the sink, with
tangency flags computed from exact constraint gradients.  The AC pair
comes from scalar Newton started at each point of the (1, 1) pair
(``SEEDS``), with residual and Jacobian from a float kernel traced once
per process from a pass of duals, and a last step with the residual
exact, on integers.

``_BUNDLE_CONES``, the one bundle table, gives each circle bundle's cone
point and the chirality its family is shot with; ``unstable_frame``,
``shooting`` and the CLI's default ``--mode`` read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from numbers import Real
from operator import mul

import numpy as np

from .aw_algebra import AWParams, BundleTag, _as_params
from .errors import InvalidRequestError, SolverIncompleteError
from .exact import QuadExt, exact_sqrt
from .phase_system import (Chirality, PhaseState,
                           _einstein_values_and_rows,
                           _exact_einstein_residual, _float_jacobian,
                           _jacobian_inputs, _tangency_rows,
                           constraint_gradients, einstein_residual,
                           first_order_jacobians, jacobian)

__all__ = [
    "FlowClass",
    "CriticalPoint",
    "CriticalFamily",
    "CatalogNote",
    "Catalog",
    "FrameVector",
    "ReferenceFrame",
    "EigenData",
    "catalog",
    "jacobian",
    "eigen",
    "reference_frame",
    "unstable_frame",
    "constraint_gradients",
    "first_order_jacobians",
    "solve_homogeneous_einstein",
]

LABEL_P0_KPLUSL = "P0_KplusL"
LABEL_P0_L = "P0_L"
LABEL_P0_K = "P0_K"
LABEL_P1 = "P1"
LABELS_ALC_B = ("ALC_b1", "ALC_b2", "ALC_b3")
LABELS_AC = ("AC_1", "AC_2")
LABELS_G2_SOURCE = ("G2_source_1", "G2_source_2", "G2_source_3")
LABELS_G2_SADDLE = ("G2_saddle_1", "G2_saddle_2", "G2_saddle_3")
LABEL_CIRCLE = "CircleFamily"
LABEL_LINE = "LineFamily"

# circle bundle -> (its cone point, the chirality of its shooting family)
_BUNDLE_CONES = {
    BundleTag.K_PLUS_L: (LABEL_P0_KPLUSL, Chirality.PLUS),
    BundleTag.K: (LABEL_P0_K, Chirality.MINUS),
    BundleTag.L: (LABEL_P0_L, Chirality.MINUS),
}

THIRD = Fraction(1, 3)
SIXTH = Fraction(1, 6)
HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)
SEVENTH = Fraction(1, 7)
CLUSTER_TOL = 1e-8  # eigen: cluster width; smaller imaginary parts read as 0


class FlowClass(Enum):
    """Which constrained system a request refers to."""

    RICCI_FLAT = "ricci"
    SPIN_PLUS = "spin+"
    SPIN_MINUS = "spin-"


def _flow_class(value):
    """value as a FlowClass (a member or its value); anything else
    raises InvalidRequestError."""
    try:
        return FlowClass(value)
    except (TypeError, ValueError):
        raise InvalidRequestError(f"unknown flow class {value!r}") from None


@dataclass(frozen=True)
class CriticalPoint:
    label: str
    state: PhaseState
    exact: bool
    description: str = ""


@dataclass(frozen=True)
class CriticalFamily:
    """A positive-dimensional set of fixed states with a sampler."""

    label: str
    description: str
    sample: object  # callable producing PhaseState from rational parameters


@dataclass(frozen=True)
class CatalogNote:
    label: str
    reason: str


@dataclass(frozen=True)
class Catalog:
    params: AWParams
    points: tuple
    families: tuple
    notes: tuple

    def get(self, label):
        for pt in self.points:
            if pt.label == label:
                return pt
        raise InvalidRequestError(f"no isolated critical point labeled {label!r}")

    def labels(self):
        return tuple(pt.label for pt in self.points)


def _cone_states(params):
    d = params.delta
    out = {
        LABEL_P0_KPLUSL: PhaseState(
            (THIRD, 0, 0, THIRD),
            (0, THIRD, THIRD, Fraction(6 * d, params.k + params.l))),
        LABEL_P0_K: PhaseState(
            (0, 0, THIRD, THIRD),
            (THIRD, THIRD, 0, Fraction(6 * d, params.k))),
    }
    if params.l > 0:
        out[LABEL_P0_L] = PhaseState(
            (0, THIRD, 0, THIRD),
            (THIRD, 0, THIRD, Fraction(6 * d, params.l)))
    return out


def _alc_companions():
    big = QuadExt(0, Fraction(1, 12), 10)
    small = QuadExt(0, Fraction(1, 24), 10)
    x = (SIXTH, SIXTH, SIXTH, 0)
    return (PhaseState(x, (big, small, small, 0)),
            PhaseState(x, (small, big, small, 0)),
            PhaseState(x, (small, small, big, 0)))


def _g2_points():
    sources = (PhaseState((-HALF, HALF, HALF, 0), (HALF, 0, 0, 0)),
               PhaseState((HALF, -HALF, HALF, 0), (0, HALF, 0, 0)),
               PhaseState((HALF, HALF, -HALF, 0), (0, 0, HALF, 0)))
    saddles = (PhaseState((HALF, 0, 0, 0), (0, QUARTER, QUARTER, 0)),
               PhaseState((0, HALF, 0, 0), (QUARTER, 0, QUARTER, 0)),
               PhaseState((0, 0, HALF, 0), (QUARTER, QUARTER, 0, 0)))
    return sources, saddles


def _circle_family_sample(d1, d2, d3):
    """Rational point of the Z = 0 fixed surface.

    The surface is the intersection of the hyperplane
    2(x1+x2+x3)+x4 = 1 with the ellipsoid 2(x1^2+x2^2+x3^2)+x4^2 = 1.
    Lines through the point (0, 0, 0, 1) inside the hyperplane meet the
    ellipsoid in exactly one more point, which this returns.
    """
    d1, d2, d3 = Fraction(d1), Fraction(d2), Fraction(d3)
    d4 = -2 * (d1 + d2 + d3)
    denom = 2 * (d1 * d1 + d2 * d2 + d3 * d3) + d4 * d4
    if denom == 0:
        raise InvalidRequestError("zero direction for the fixed surface")
    t = -2 * d4 / denom
    return PhaseState((t * d1, t * d2, t * d3, 1 + t * d4), (0, 0, 0, 0))


def _line_family_sample(z4):
    z4 = Fraction(z4)
    if z4 < 0:
        raise InvalidRequestError("the fixed ray requires z4 >= 0")
    return PhaseState((0, 0, 0, 1), (0, 0, 0, z4))


def catalog(params):
    """All critical points for one parameter pair, exact where possible.

    Points whose defining data degenerate (the l-bundle cone point at
    l = 0) or whose coordinates are not exactly representable (the AC pair
    away from algebraically solvable parameters) are recorded in
    ``notes``; AC entries are still cataloged in that case, flagged
    ``exact=False``, with Z1..Z3 the correctly rounded roots of the
    homogeneous Einstein condition (see solve_homogeneous_einstein).
    params is an AWParams or a (k, l) pair.
    """
    params = _as_params(params)
    return _catalog_cached(params.k, params.l)


@lru_cache(maxsize=64)
def _catalog_cached(k, l):
    params = AWParams(k, l)
    points = []
    notes = []

    cones = _cone_states(params)
    points.append(CriticalPoint(
        LABEL_P0_KPLUSL, cones[LABEL_P0_KPLUSL], True,
        "cone point of the (k+l)-bundle; start of the plus-chirality family"))
    if LABEL_P0_L in cones:
        points.append(CriticalPoint(
            LABEL_P0_L, cones[LABEL_P0_L], True,
            "cone point of the l-bundle; start of a minus-chirality family"))
    else:
        notes.append(CatalogNote(
            LABEL_P0_L,
            "omitted: coordinate Z4 = 6*delta/l is undefined for l = 0, "
            "the l-bundle has no cone point"))
    points.append(CriticalPoint(
        LABEL_P0_K, cones[LABEL_P0_K], True,
        "cone point of the k-bundle; start of a minus-chirality family"))

    points.append(CriticalPoint(
        LABEL_P1, PhaseState((SIXTH, SIXTH, SIXTH, 0), (SIXTH, SIXTH, SIXTH, 0)),
        True, "the ALC sink; lies in the locus where both chiralities vanish"))
    for label, state in zip(LABELS_ALC_B, _alc_companions()):
        points.append(CriticalPoint(
            label, state, True,
            "ALC companion point with Z entries proportional to sqrt(10)"))

    try:
        ac_points, ac_notes = _ac_pair(params)
        points.extend(ac_points)
        notes.extend(ac_notes)
    except SolverIncompleteError as err:
        notes.append(CatalogNote("AC", f"homogeneous Einstein solve failed: {err}"))

    sources, saddles = _g2_points()
    for label, state in zip(LABELS_G2_SOURCE, sources):
        points.append(CriticalPoint(
            label, state, True,
            "source of the restricted flow on the locus where both "
            "chiralities vanish; one Z entry equals 1/2"))
    for label, state in zip(LABELS_G2_SADDLE, saddles):
        points.append(CriticalPoint(
            label, state, True,
            "saddle of the restricted flow on the locus where both "
            "chiralities vanish; two Z entries equal 1/4"))

    families = (
        CriticalFamily(
            LABEL_CIRCLE,
            "fixed surface with Z = 0: 2(x1+x2+x3)+x4 = 1 and "
            "2(x1^2+x2^2+x3^2)+x4^2 = 1; sample(d1, d2, d3) returns a "
            "rational point",
            _circle_family_sample),
        CriticalFamily(
            LABEL_LINE,
            "fixed ray (0,0,0,1,0,0,0,z4) with z4 >= 0; sample(z4)",
            _line_family_sample),
    )
    return Catalog(params=params, points=tuple(points), families=families,
                   notes=tuple(notes))


def _ac_pair(params):
    """The two AC critical points, exact when rationalizable."""
    sols = solve_homogeneous_einstein(params)
    points, notes = [], []
    x = (SEVENTH, SEVENTH, SEVENTH, SEVENTH)
    for label, (z, is_exact) in zip(LABELS_AC, sols):
        desc = ("cone-limit point: Z solves the homogeneous Einstein "
                "condition R_i = 6/49")
        points.append(CriticalPoint(label, PhaseState(x, z), is_exact, desc))
        if not is_exact:
            notes.append(CatalogNote(
                label,
                "coordinates are algebraic but not rational for these "
                "parameters; cataloged at floating-point accuracy"))
    return points, notes


# ---------------------------------------------------------------------------
# linearization


@dataclass(frozen=True)
class EigenData:
    label: str
    values: tuple          # eigenvalues sorted by descending real part
    clusters: tuple        # ((value, multiplicity), ...) after 1e-8 clustering
    vectors: np.ndarray    # columns matching ``values``
    max_residual: float


def _resolve_point(params, point_or_label):
    if isinstance(point_or_label, CriticalPoint):
        return point_or_label
    if isinstance(point_or_label, PhaseState):
        return CriticalPoint("(ad hoc)", point_or_label, point_or_label.is_exact())
    if isinstance(point_or_label, str):
        if point_or_label in (LABEL_CIRCLE, LABEL_LINE):
            raise InvalidRequestError(
                f"{point_or_label} is a family of fixed states; eigen-analysis "
                "applies to isolated points only")
        return catalog(params).get(point_or_label)
    raise InvalidRequestError(f"cannot resolve {point_or_label!r}")


def eigen(params, point_or_label):
    """Floating-point spectrum of the linearization at a critical point.

    The point is a catalog label, a CriticalPoint or a PhaseState, and
    params an AWParams or a (k, l) pair.  The matrix is the exact
    Jacobian rounded entry by entry.  Its decomposition is computed once
    per process for each value of what the Jacobian reads
    (phase_system._jacobian_inputs) and cached (_spectrum, 64 entries),
    so the ten points with Z4 = 0 (P1, ALC_b1..3 and the six G2 points),
    where the orbit's coefficients are not read, are decomposed once for
    all orbits, (1, 0) included.  The returned vectors are read-only.  A
    state entry that is not a real number or a QuadExt, entries from two
    quadratic fields and a linearization that is not finite raise
    InvalidRequestError naming the point.
    """
    params = _as_params(params)
    pt = _resolve_point(params, point_or_label)
    if not all(isinstance(v, (Real, QuadExt)) for v in pt.state.as_tuple()):
        raise InvalidRequestError(
            f"{pt.label}: a state entry is not a real number")
    try:
        spectrum = _spectrum(_jacobian_inputs(params, pt.state))
    except TypeError as err:  # surds from two quadratic fields
        raise InvalidRequestError(f"{pt.label}: {err}") from None
    except ArithmeticError:
        raise InvalidRequestError(
            f"{pt.label}: the linearization at this state is not finite"
        ) from None
    return EigenData(pt.label, *spectrum)


@lru_cache(maxsize=64)
def _spectrum(live):
    """(values, clusters, vectors, max_residual) of EigenData for the
    Jacobian with _jacobian_inputs live, with read-only
    vectors.  An exact entry beyond the float range raises
    OverflowError, and a matrix that is not finite FloatingPointError;
    neither is cached."""
    mat = _float_jacobian(live)
    if not np.isfinite(mat).all():
        raise FloatingPointError
    vals, vecs = np.linalg.eig(mat)
    order = np.argsort(-vals.real - 1e-12 * vals.imag)
    vals, vecs = vals[order], vecs[:, order]
    resid = max(float(np.linalg.norm(mat @ vecs[:, i] - vals[i] * vecs[:, i]))
                for i in range(len(vals)))
    clusters = []
    for v in vals:
        if clusters and abs(v - clusters[-1][0]) <= CLUSTER_TOL:
            val, mult = clusters[-1]
            clusters[-1] = ((val * mult + v) / (mult + 1), mult + 1)
        else:
            clusters.append((v, 1))
    clusters = tuple((complex(v).real if abs(complex(v).imag) < CLUSTER_TOL
                      else complex(v), m) for v, m in clusters)
    vecs.setflags(write=False)
    return tuple(vals), clusters, vecs, resid


# ---------------------------------------------------------------------------
# closed-form eigenvector tables


@dataclass(frozen=True)
class FrameVector:
    value: Fraction
    vector: tuple
    tangent_crf: bool
    tangent_spin_plus: bool
    tangent_spin_minus: bool


@dataclass(frozen=True)
class ReferenceFrame:
    label: str
    point: CriticalPoint
    pairs: tuple


# Each table gives the eigenvalues, the eigenvectors as integer tuples
# and the denominator den of their Z4 slot (k + l, k, l or 1): a vector
# is (v1, ..., v7, v8 / den), and (den*v1, ..., den*v7, v8) is a
# positive integer multiple of it.


def _table_p0_kplusl(k, l, delta):
    kl = k + l
    vals = [Fraction(2, 3)] * 4 + [Fraction(-2, 3)] * 2 + [Fraction(-4, 3)] * 2
    vecs = [
        (2, 0, 0, -4, 0, -1, -1, -36 * delta),
        (-3 * kl, 4 * k + 5 * l, 5 * k + 4 * l, -12 * kl,
         3 * kl, -5 * k - 4 * l, -4 * k - 5 * l, 0),
        (0, 1, -1, 0, 0, 1, -1, 0),
        (0, 3, 3, 0, 2, 0, 0, 0),
        (4, -3, -3, 4, 0, -2, -2, 36 * delta),
        (0, 1, 1, 0, 0, 0, 0, 0),
        (0, 2, -2, 0, 0, -1, 1, 0),
        (2, -1, 1, -4, 0, 1, 0, 18 * delta),
    ]
    return vals, vecs, kl


def _table_p0_k(k, l, delta):
    vals = [Fraction(2, 3)] * 4 + [Fraction(-2, 3)] * 2 + [Fraction(-4, 3)] * 2
    vecs = [
        (0, 0, 2, -4, -1, -1, 0, -36 * delta),
        (5 * k + l, 4 * k - l, -3 * k, -12 * k, -4 * k + l, -5 * k - l, 3 * k, 0),
        (-1, 1, 0, 0, -1, 1, 0, 0),
        (3, 3, 0, 0, 0, 0, 2, 0),
        (0, 0, 2, 2, -1, -1, 0, 18 * delta),
        (1, 1, 0, 0, 0, 0, 0, 0),
        (2, -2, 0, 0, -1, 1, 0, 0),
        (-1, 1, 2, -4, 1, 0, 0, 18 * delta),
    ]
    return vals, vecs, k


def _mirror(vec):
    """Swap the second and third slots of both the X and Z parts."""
    return (vec[0], vec[2], vec[1], vec[3], vec[4], vec[6], vec[5], vec[7])


def _table_p0_l(k, l, delta):
    # The flow with parameters (k, l) maps to the flow with (l, k) under the
    # mirror that swaps the second and third slots, carrying the k-bundle
    # cone point to the l-bundle one.
    vals, vecs, den = _table_p0_k(l, k, delta)
    return vals, [_mirror(v) for v in vecs], den


def _table_p1():
    vals = ([Fraction(-1, 6)] * 3 + [Fraction(-5, 6)] * 2
            + [Fraction(-2, 3)] * 2 + [Fraction(1, 3)])
    vecs = [
        (0, 0, 0, 0, 0, 0, 0, 1),
        (2, -1, -1, 0, -4, 2, 2, 0),
        (0, -1, 1, 0, 0, 2, -2, 0),
        (0, 0, 0, 1, 0, 0, 0, 0),
        (-5, -5, -5, 0, 1, 1, 1, 0),
        (4, -2, -2, 0, -2, 1, 1, 0),
        (0, 2, -2, 0, 0, -1, 1, 0),
        (2, 2, 2, 0, 1, 1, 1, 0),
    ]
    return vals, vecs, 1


def _annihilates(rows, vec):
    """Whether every integer row has a zero dot product with vec."""
    return not any(sum(map(mul, row, vec)) for row in rows)


def reference_frame(params, label):
    """Closed-form eigenvalue/eigenvector table at a cone point or the sink.

    Tangency flags are computed exactly: a vector is tangent to the
    Ricci-flat set when it annihilates the gradients of the hyperplane and
    conservation constraints, and tangent to a chirality set when it
    additionally lies in the kernel of that system's derivative; each dot
    product is taken in integers, on the table's integer form of the
    vector and the gradient rows as phase_system._tangency_rows gives
    them, positive multiples of both sides.  Frames are cached per
    (k, l, label); they are frozen, so callers share them.  params is an
    AWParams or a (k, l) pair.
    """
    params = _as_params(params)
    return _reference_frame_cached(params.k, params.l, label)


@lru_cache(maxsize=32)
def _reference_frame_cached(k, l, label):
    params = AWParams(k, l)
    d = params.delta
    if label == LABEL_P0_KPLUSL:
        vals, vecs, den = _table_p0_kplusl(k, l, d)
    elif label == LABEL_P0_K:
        vals, vecs, den = _table_p0_k(k, l, d)
    elif label == LABEL_P0_L:
        if l == 0:
            raise InvalidRequestError("the l-bundle cone point does not exist "
                                      "for l = 0")
        vals, vecs, den = _table_p0_l(k, l, d)
    elif label == LABEL_P1:
        vals, vecs, den = _table_p1()
    else:
        raise InvalidRequestError(
            f"no closed-form eigenvector table for {label!r}")

    point = catalog(params).get(label)
    crf_rows, df, dh = _tangency_rows(params, point.state)
    pairs = []
    for lam, vec in zip(vals, vecs):
        ints = tuple(den * v for v in vec[:7]) + vec[7:]
        crf = _annihilates(crf_rows, ints)
        plus = crf and _annihilates(df, ints)
        minus = crf and _annihilates(dh, ints)
        vector = tuple(map(Fraction, vec[:7])) + (Fraction(vec[7], den),)
        pairs.append(FrameVector(value=lam, vector=vector, tangent_crf=crf,
                                 tangent_spin_plus=plus,
                                 tangent_spin_minus=minus))
    return ReferenceFrame(label=label, point=point, pairs=tuple(pairs))


def unstable_frame(params, label, flow_class):
    """The unstable directions used for shooting out of a cone point.

    For the Ricci-flat system this is (v1, v2, v3); for a chirality
    system it is (v1, v2), and the chirality must be the cone point's
    (_BUNDLE_CONES).  params is an AWParams or a (k, l) pair.
    """
    flow_class = _flow_class(flow_class)
    cones = dict(_BUNDLE_CONES.values())
    if label not in cones:
        raise InvalidRequestError(
            f"unstable frames are defined at cone points, not {label!r}")
    frame = reference_frame(params, label)
    if flow_class is FlowClass.RICCI_FLAT:
        want, flag, name = frame.pairs[:3], "tangent_crf", "Ricci-flat"
    else:
        chir = cones[label]
        if Chirality(flow_class.value) is not chir:
            raise InvalidRequestError(
                f"{label} does not lie on the {flow_class.value} constraint "
                f"set; its chirality is {chir.value}")
        want, name = frame.pairs[:2], flow_class.value
        flag = ("tangent_spin_plus" if chir is Chirality.PLUS
                else "tangent_spin_minus")
    if not all(getattr(p, flag) for p in want):
        raise InvalidRequestError(
            f"table inconsistency: unstable frame at {label} is not tangent "
            f"to the {name} set")
    return want


# ---------------------------------------------------------------------------
# homogeneous Einstein solve (the AC pair)


# The starts of Newton's iteration: the AC pair of (1, 1), as floats.
SEEDS = ((2 / 7, 1 / 7, 1 / 7), (2 / 21, 5 / 21, 5 / 21))
NEWTON_ITERS = 80
RESID_TOL = 1e-12


def _einstein_system(params, z):
    """R1..R3 - 6/49 at z = (z1, z2, z3) and its Jacobian rows: what
    value_and_derivative over einstein_residual's residual gives, bit
    for bit, from the float kernel traced once per process from that
    dual pass (phase_system._einstein_values_and_rows), with the
    quartic coefficients and the level as inputs."""
    return _einstein_values_and_rows(params, z)


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _newton_step(jac, r):
    """The solution s of jac @ s = r for a 3x3 jac.

    In closed form: with a0, a1, a2 the rows of jac, the columns of the
    adjugate are a1 x a2, a2 x a0 and a0 x a1, and det = a0 . (a1 x a2).
    A non-finite entry in jac or r, or |det| <= 1e-14, gives (0, 0, 0).
    """
    a0, a1, a2 = jac
    adj = _cross(a1, a2), _cross(a2, a0), _cross(a0, a1)
    det = a0[0] * adj[0][0] + a0[1] * adj[0][1] + a0[2] * adj[0][2]
    if not (all(map(math.isfinite, (*a0, *a1, *a2, *r))) and abs(det) > 1e-14):
        return (0.0, 0.0, 0.0)
    r0, r1, r2 = r
    return tuple((c0 * r0 + c1 * r1 + c2 * r2) / det
                 for c0, c1, c2 in zip(*adj))


def _polish(params, z123):
    """(z1, z2, z3, z4) after one Newton step with an exact residual.

    The float iterates stop anywhere within RESID_TOL of the root; with
    the exact residual (_exact_einstein_residual, on integers) the step
    lands far closer than half an ulp, so the single final rounding
    gives the correctly rounded root whichever iterate the step starts
    from; the Jacobian is the float one at z123, as in the iteration.
    z4 = sqrt(Z4^2) in floats there.
    """
    resid = tuple(n / d for n, d in _exact_einstein_residual(params, z123))
    jac = _einstein_system(params, z123)[1]
    delta = _newton_step(jac, resid)
    z123 = tuple(float(Fraction(v) - Fraction(d))
                 for v, d in zip(z123, delta))
    return z123 + (einstein_residual(params, *z123)[1] ** 0.5,)


def _newton(params, seed):
    """Newton's iteration from seed until the residual is below
    RESID_TOL: at most NEWTON_ITERS steps, and none where R4 vanishes."""
    z = seed
    for sweep in range(NEWTON_ITERS + 1):
        try:
            r, jac = _einstein_system(params, z)
        except ZeroDivisionError:
            break
        if all(abs(v) < RESID_TOL for v in r):
            return z
        if sweep < NEWTON_ITERS:
            z = tuple(v - d for v, d in zip(z, _newton_step(jac, r)))
    raise SolverIncompleteError(
        f"Newton from {seed} did not reach the residual {RESID_TOL} in "
        f"{NEWTON_ITERS} sweeps; it stopped at {z}")


def solve_homogeneous_einstein(params):
    """Solve R_i(z) = 6/49 (i = 1..4) with all z_i > 0.

    z4 is eliminated through R4 = 6/49, which fixes z4^2 rationally in
    terms of (z1, z2, z3).  The quartic coefficients then enter R1..R3
    only through the ratios of ((k+l)^2, l^2, k^2), so the roots depend
    on (k, l) only through rho = l/k in [0, 1].  Newton's iteration on
    floats (_newton) follows them from each of SEEDS, the pair at
    rho = 1.  Returns [(z_tuple, exact_flag), ...] sorted by descending
    z1, with exact rational (or quadratic-surd z4) coordinates whenever
    the numeric solution rationalizes and verifies exactly, and
    otherwise z1..z3 the correctly rounded roots (see _polish).

    Raises SolverIncompleteError when a start does not reach RESID_TOL
    within NEWTON_ITERS sweeps, or when the two final points, which are
    canonical, are equal or not positive.  params is an AWParams or a
    (k, l) pair.
    """
    params = _as_params(params)
    out = []
    for seed in SEEDS:
        z123 = _newton(params, seed)
        exact = _try_exact_einstein(params, z123)
        out.append((exact, True) if exact else (_polish(params, z123), False))
    out.sort(key=lambda sol: -sol[0][0])
    (first, _), (second, _) = out
    if first == second or not all(v > 0 for v in first + second):
        raise SolverIncompleteError(
            f"expected 2 distinct positive homogeneous Einstein "
            f"solutions, found {[z for z, _ in out]}")
    return out


def _try_exact_einstein(params, z123):
    """Rationalize a numeric solution and verify it exactly, or None.

    The exact residual runs on integers (_exact_einstein_residual); only
    a verified point takes Z4^2 from einstein_residual in Fractions, for
    exact_sqrt.
    """
    zr = tuple(Fraction(v).limit_denominator(10 ** 6) for v in z123)
    if any(abs(float(r) - v) > 1e-9 for v, r in zip(z123, zr)):
        return None
    if any(n for n, _ in _exact_einstein_residual(params, zr)):
        return None
    return zr + (exact_sqrt(einstein_residual(params, *zr)[1]),)
