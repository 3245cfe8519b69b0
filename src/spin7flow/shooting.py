"""Shooting from the conical fixed points along their unstable frames.

The module integrates trajectories that leave a cone point P0 along a
prescribed combination of unstable directions, watches the algebraic
constraints, classifies the forward limit (ALC sink, conical point,
escape, or undetermined), and recovers the metric coefficient profile
(a, b, c, f) as functions of the arclength variable t.

A run's cone point and, in a spin mode, its chirality come from the
bundle table critical_points._BUNDLE_CONES; ShootSpec converts and
checks every input of a run once, at construction.

Two integration modes exist.  Spin modes run the reduced 4-dimensional
Z-system (the X block is a function of Z on either chirality set) and
carry the single Z-only conservation constraint.  The Ricci-flat mode
runs the full 8-dimensional system and carries the hyperplane and
conservation constraints.  Either way the constraint set is exactly
invariant for the exact flow but transversally unstable for the
numerical one (the linearization at the sink has a positive off-set
eigenvalue), so the integrator renormalizes: it works in fixed-length
chunks and Newton-projects the state back onto the constraint set at
every chunk boundary, logging the pre-projection defect as drift.  The
projection's Jacobian comes from the derivative kernel traced from the
constraint's body, as jacobian's does.

CHUNK_LENGTH = 10 was measured under DOP853, whose steps span about
1.6-1.9 units of eta on the benchmark's families; a test keeps every
pre-projection defect of its reference runs within a tenth of the drift
bound DRIFT_FACTOR * rel_tol.  An early-stopping run ends at the first
chunk end after its decision window closes, up to one chunk past it.

The stepper, the Dormand-Prince 8(5,3) pair (DOP853), only steps: it
runs a whole chunk, its first derivative included, in one compiled
function whose derivatives evaluate the right-hand side as a kernel
traced from its phase_system body and inlined, so a chunk makes no
Python call and keeps the helpers' bits; it packs each accepted step
into one raw row of a float table: its start, F0 and the derivatives
that its continuous extension reads.  The extension (its three stages
and the coefficients that _dense reads) is computed by one finishing
pass generated from the same tableau and kernel and run on numpy
columns over every raw row that a sampling pass needs (_finish), with
the bits of a per-step pass on Python floats.  The orbit's coefficients
are the inputs of both, so one chunk and one finishing pass per body
serve every orbit and chirality.  Samples are built lazily from the
chunks' step tables, only where a decision could fire and when the run
ends (integrate), so each raw row is finished once, and an escape's
crossing is bisected on its step's row from the run's last pass.  The
decision is one stateless pass over the table built so far, classify's
own (_decision).  No BLAS or LAPACK call reaches a trajectory (the
projection's step is solved on Python floats, the extension and the
dense output are elementwise), so its bits do not depend on the BLAS
build.

Boundary runs need one more ingredient.  For (k, l) = (1, 1) the
invariant region has one-dimensional boundary segments (a line for the
plus chirality, a curve for the minus chirality) that join the cone
point to a conical limit.  A spin run whose offset direction is tangent
to its segment at the cone point (_locked_face) is locked to it for the
whole run: the segment equations join every chunk-end projection ("face
lock"), which removes the two unstable transverse modes of the conical
saddle.  It depends on the direction alone, not on epsilon or tolerances.
"""

import math
import os
import struct
from dataclasses import dataclass, replace
from functools import lru_cache, partial, reduce

import numpy as np

from .aw_algebra import AWParams, BundleIndex, _as_params, bundle
from .critical_points import (_BUNDLE_CONES, LABEL_P1, LABELS_AC,
                              LABELS_ALC_B, FlowClass, _flow_class, catalog,
                              unstable_frame)
from .errors import (InitializationError, IntegrationError,
                     InvalidRequestError, ReconstructionDomainError)
from .phase_system import (Chirality, PhaseState, _curve_face,
                           _derivative_rows, _line_face, _stepping_kernel,
                           crf_constraints, derivative, flow_rhs, g_of_x,
                           reduced_z_rhs, residuals, x_from_z,
                           zcons_constraint)

SAMPLE_STEP = 0.05
CHUNK_LENGTH = 10.0
DECISION_WINDOW = 5.0
DECISION_RADIUS = 1e-6
ESCAPE_NORM = 1e3
DRIFT_FACTOR = 100.0
TANGENCY_TOL = 1e-13
MAX_PROJECTION_ITERS = 50
PROJECTION_TARGET = 1e-14
HORIZON_SLACK = 1e-12  # integrate stops once eta is this close to eta_max
MAX_DIRECTIONS = 10_000  # sweep cap: about 50 s at 5 ms per direction
# rows in _last_outside's first window: a decision window of samples
_FIRST_WINDOW = round(DECISION_WINDOW / SAMPLE_STEP) + 1

OUTCOME_ALC = "ALC"
OUTCOME_AC = "AC"
OUTCOME_ESCAPE = "Escape"
OUTCOME_UNDETERMINED = "Undetermined"

_SETTINGS = ("epsilon", "eta_max", "rel_tol", "abs_tol")


def _real(value, name):
    """value as a float; one that float() refuses or that lies past the
    float range raises InvalidRequestError naming the input."""
    try:
        return float(value)
    except (OverflowError, TypeError, ValueError):
        raise InvalidRequestError(
            "%s is not a real number that fits a float" % name) from None


def _direction(s):
    """The components of a direction s as floats (s1, s2, ...); s that
    is not a sequence, or is text (str, bytes or bytearray), raises
    InvalidRequestError."""
    try:
        if isinstance(s, (str, bytes, bytearray)):
            raise TypeError
        parts = tuple(s)
    except TypeError:
        raise InvalidRequestError(
            "s must be a sequence of real numbers, got %r" % (s,)) from None
    return tuple(_real(v, "s%d" % i) for i, v in enumerate(parts, start=1))


def _check_run_settings(**given):
    """The run settings that do not depend on the direction (_SETTINGS),
    as floats by name, after checking them; raises InvalidRequestError."""
    settings = {name: _real(given[name], name) for name in _SETTINGS}
    eps, eta_max, rel_tol, abs_tol = settings.values()
    if not 0.0 < eps <= 1e-2:
        raise InvalidRequestError(
            "epsilon must lie in (0, 1e-2], got %g" % eps)
    if not (eta_max > HORIZON_SLACK and math.isfinite(eta_max)):
        raise InvalidRequestError(
            "eta_max must be finite and above %g: no chunk runs at or "
            "below it" % HORIZON_SLACK)
    if not all(0.0 < tol < math.inf for tol in (rel_tol, abs_tol)):
        raise InvalidRequestError(
            "integrator tolerances must be positive and finite")
    return settings


@dataclass(frozen=True)
class ShootSpec:
    """Everything needed to reproduce one shooting run.

    s is normalized to the unit sphere at construction (the zero vector
    is rejected); spin modes require s3 = 0 since their frame has two
    vectors.  epsilon is the max-norm amplitude of the initial offset.
    params is an AWParams or a (k, l) pair, and mode a FlowClass or its
    value.  The components of s and the four run settings are stored as
    floats; one that does not convert raises InvalidRequestError naming
    it, as do an unknown mode and an s that is not a sequence.
    """

    params: AWParams
    bundle: BundleIndex
    mode: FlowClass
    s: tuple
    epsilon: float = 1e-6
    eta_max: float = 200.0
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    stop_on_converged: bool = True

    def __post_init__(self):
        object.__setattr__(self, "params", _as_params(self.params))
        if not isinstance(self.bundle, BundleIndex):
            object.__setattr__(self, "bundle",
                               bundle(self.params, self.bundle))
        object.__setattr__(self, "mode", _flow_class(self.mode))
        s = _direction(self.s)
        if len(s) == 2:
            s = s + (0.0,)
        if len(s) != 3:
            raise InvalidRequestError(
                "s must have two or three components, got %r" % (self.s,))
        if not all(map(math.isfinite, s)):
            raise InvalidRequestError("s must have finite components")
        norm = math.sqrt(s[0]*s[0] + s[1]*s[1] + s[2]*s[2])
        if not math.isfinite(norm):
            # the squares overflow: scale by the largest component first
            big = max(map(abs, s))
            s = tuple(v / big for v in s)
            norm = math.sqrt(s[0]*s[0] + s[1]*s[1] + s[2]*s[2])
        if norm < 1e-12:
            raise InvalidRequestError("s must be a nonzero direction")
        if self.mode is not FlowClass.RICCI_FLAT and s[2] != 0.0:
            raise InvalidRequestError(
                "spin modes have a two-vector frame; s3 must be 0")
        object.__setattr__(self, "s", tuple(v / norm for v in s))
        for name, value in _check_run_settings(
                **{name: getattr(self, name) for name in _SETTINGS}).items():
            object.__setattr__(self, name, value)

    @property
    def cone_label(self):
        return _BUNDLE_CONES[self.bundle.tag][0]


@dataclass(frozen=True)
class Asymptotics:
    """Forward-limit classification of one trajectory."""

    kind: str
    limit_label: str = None
    limit_state: tuple = None
    limit_distance: float = math.inf
    eta_at_decision: float = math.nan
    note: str = ""


@dataclass(frozen=True)
class Trajectory:
    """A sampled shooting run with its constraint log and outcome.

    states holds full 8-dimensional rows (X rebuilt from Z in spin
    modes); residual_log columns are |hyperplane|, |conservation| and
    the chirality residual max-norm at each sample (the smaller of the
    two chiralities in Ricci-flat mode).  events is a tuple of
    (eta, kind) pairs with kind in {"converged", "escaped", "drift",
    "stiff-failure"}.  face_lock names the face locked for the whole run.
    """

    spec: ShootSpec
    etas: np.ndarray
    states: np.ndarray
    residual_log: np.ndarray
    events: tuple
    outcome: Asymptotics
    face_lock: str = None

    def __post_init__(self):
        for arr in (self.etas, self.states, self.residual_log):
            arr.setflags(write=False)

    @property
    def samples(self):
        return tuple((float(e), PhaseState.from_sequence(row))
                     for e, row in zip(self.etas, self.states))


@dataclass(frozen=True)
class MetricProfile:
    """Metric coefficients along a run, parameterized by arclength t."""

    t: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    f: np.ndarray
    trl_inv: np.ndarray
    gauge: float

    def __post_init__(self):
        for arr in (self.t, self.a, self.b, self.c, self.f, self.trl_inv):
            arr.setflags(write=False)

    def rows(self):
        return tuple(zip(self.t, self.a, self.b, self.c, self.f,
                         self.trl_inv))


@dataclass(frozen=True)
class SweepEntry:
    """One grid point of a sweep: its direction and what happened."""

    s: tuple
    outcome: Asymptotics = None
    error: str = None


@dataclass(frozen=True)
class _BoundaryFace:
    """An invariant boundary segment: the zeros of equations(z), one
    function of Z that returns the segment's polynomial values."""

    name: str
    equations: object


_LINE_FACE = _BoundaryFace("boundary-line", _line_face)
_CURVE_FACE = _BoundaryFace("boundary-curve", _curve_face)


def boundary_face(params, chirality):
    """The cataloged invariant boundary segment for these parameters.

    Only the (1, 1) orbit ships one: the plus chirality region has the
    line segment {Z2 = Z3, 3Z1 + 3Z2 = 1} and the minus chirality
    region the curve {Z2 + Z3 = Z1, (Z2 + Z3) Z4 = 6}.  Returns None
    when no verified segment exists.  equations(z), phase_system's
    _line_face or _curve_face, returns the two segment values, and
    derivative(face.equations, z) their gradients.
    """
    if (params.k, params.l) != (1, 1):
        return None
    return _LINE_FACE if chirality is Chirality.PLUS else _CURVE_FACE


def _max_abs(values):
    """The largest |v| of a sequence of floats; NaN when any v is NaN,
    as numpy's max gives it."""
    sizes = [abs(v) for v in values]
    return math.nan if any(size != size for size in sizes) else max(sizes)


@lru_cache(maxsize=8)
def _with_face(body, equations):
    """body(c, y) joined by a face's equations(y), one function per pair,
    so that its derivative kernel is traced once."""
    return lambda c, y: body(c, y) + equations(y)


def _dot(a, b):
    """The sum of the products a_i*b_i, added from left to right."""
    total = 0.0
    for x, y in zip(a, b):
        total += x * y
    return total


def _least_norm_step(rows, r):
    """The least-norm solution s of rows s = r for at most 3 independent
    rows, on Python floats: s = rows^T w with G w = r, G the Gram matrix
    of the rows.  Every dot product (_dot) adds from left to right; w
    comes from Gaussian elimination of G in row order without pivoting
    (G is symmetric positive definite), then back substitution from the
    last row, w_i = (r'_i - G'_i,>i . w_>i) / G'_ii.  No BLAS or LAPACK
    call, so the bits do not depend on the build; a zero pivot raises
    ZeroDivisionError."""
    g = [[_dot(a, b) for b in rows] for a in rows]
    w = list(r)
    for i in range(len(g)):
        for j in range(i + 1, len(g)):
            f = g[j][i] / g[i][i]
            g[j] = [a - f * b for a, b in zip(g[j], g[i])]
            w[j] -= f * w[i]
    for i in reversed(range(len(g))):
        w[i] = (w[i] - _dot(g[i][i + 1:], w[i + 1:])) / g[i][i]
    return [_dot(column, w) for column in zip(*rows)]


def _project(con, v, face=None):
    """Least-norm Gauss-Newton projection onto con(v) = 0, joined by the
    equations of a locked face.  con is partial(body, coefficients), as
    zcons_constraint and crf_constraints give it; a step's Jacobian is
    body's derivative kernel (joined by the face) run on the floats, and
    the step is _least_norm_step's, so the projection stays on Python
    floats.  Returns the projected point and the pre-projection defect,
    the max-norm of con at v; a singular Jacobian raises
    InitializationError."""
    body, (c,) = con.func, con.args
    if face is not None:
        body = _with_face(body, face.equations)
    y = [float(x) for x in v]
    defect = None
    for _ in range(MAX_PROJECTION_ITERS):
        values = con(y)
        r = values + face.equations(y) if face is not None else values
        if defect is None:
            defect = _max_abs(values)
        if _max_abs(r) < PROJECTION_TARGET:
            return np.array(y), defect
        try:
            step = _least_norm_step(_derivative_rows(body, c, y), r)
        except ZeroDivisionError:
            raise InitializationError(
                "constraint Jacobian is singular in the projection") from None
        y = [a - b for a, b in zip(y, step)]
    raise InitializationError(
        "constraint projection did not converge in %d iterations"
        % MAX_PROJECTION_ITERS)


def _offset_direction(spec):
    frame = unstable_frame(spec.params, spec.cone_label, spec.mode)
    vectors = [np.array([float(c) for c in pair.vector]) for pair in frame]
    w = sum(si * v for si, v in zip(spec.s, vectors))
    return w / np.max(np.abs(w))


@lru_cache(maxsize=16)
def _face_gradients(k, l, cone_label):
    """The boundary face at a cone point and its equations' gradients."""
    face = boundary_face(_as_params((k, l)),
                         dict(_BUNDLE_CONES.values())[cone_label])
    z = catalog((k, l)).get(cone_label).state.Z
    return face, [list(map(float, g)) for g in
                  (derivative(face.equations, z) if face else ())]


def _locked_face(spec):
    """The face a spin run is locked to for the whole run, or None: its
    cone point's boundary face when the Z part w of _offset_direction is
    tangent to it there to round-off, |grad f . w| <= TANGENCY_TOL
    |grad f| |w| for each face equation f, summed on Python floats."""
    face, gradients = _face_gradients(spec.params.k, spec.params.l,
                                      spec.cone_label)
    w = _offset_direction(spec)[4:].tolist() if face else ()
    return face if all(
        abs(_dot(g, w)) <= TANGENCY_TOL * math.sqrt(_dot(g, g) * _dot(w, w))
        for g in gradients) else None


def initial_state(spec):
    """The projected starting point P0 + epsilon * w of a shooting run.

    The offset direction w is the s-combination of the raw frame
    vectors, scaled to unit max-norm.  Spin modes then correct the
    Z-part of the offset point by a least-norm Newton step sequence
    onto the Z-only conservation surface (the correction is normal to
    the surface, so it is second order in epsilon and leaves the offset
    direction intact) and rebuild X from Z; the Ricci-flat mode
    projects the full state onto the hyperplane and conservation
    constraints the same way.
    """
    cat = catalog(spec.params)
    p0 = np.array(cat.get(spec.cone_label).state.as_floats())
    w = _offset_direction(spec)
    if spec.mode is FlowClass.RICCI_FLAT:
        y, _ = _project(crf_constraints(spec.params), p0 + spec.epsilon * w)
        return PhaseState.from_sequence(y)
    chirality = _BUNDLE_CONES[spec.bundle.tag][1]
    z, _ = _project(zcons_constraint(spec.params, chirality),
                    p0[4:] + spec.epsilon * w[4:])
    x = [float(v) for v in x_from_z(spec.params, tuple(z), chirality)]
    return PhaseState(tuple(x), tuple(z))


def _limit_candidates(params):
    """Fixed-point targets for classification, in decision priority, as
    (kind, label, state) with the state a read-only float array; built
    once per orbit and shared, like the catalog.  params is an AWParams
    or a (k, l) pair."""
    params = _as_params(params)
    return _limit_candidates_cached(params.k, params.l)


@lru_cache(maxsize=64)
def _limit_candidates_cached(k, l):
    cat = catalog((k, l))
    out = []
    for kind, labels in ((OUTCOME_ALC, (LABEL_P1,) + LABELS_ALC_B),
                         (OUTCOME_AC, LABELS_AC)):
        for label in labels:
            target = np.array(cat.get(label).state.as_floats())
            target.setflags(write=False)
            out.append((kind, label, target))
    return tuple(out)


def _row_max(table):
    """table.max(axis=1), reduced one column at a time with np.maximum:
    the same values, NaN included, since max is exact, and much faster
    than numpy's reduction along short rows."""
    return reduce(np.maximum, table.T)


def _may_decide(tail, targets):
    """False when every row ending in the coordinates tail (a list of
    floats) lies outside every decision ball of targets (lists of
    floats); _decision on a table ending in such a row is None.  A ball
    holds a row only if it holds the row's tail; a NaN counts as
    outside."""
    n = len(tail)
    for target in targets:
        for a, b in zip(tail, target[-n:]):
            if not abs(a - b) <= DECISION_RADIUS:
                break
        else:
            return True
    return False


def _last_outside(states, target):
    """The index of the last row of states outside target's decision
    ball (a NaN distance counts as outside), or -1 when there is none.
    Windows of rows are scanned back from the end, each twice as long
    as the one after it, so the cost follows the distance of that row
    from the end, not the length of the table."""
    end, size = len(states), _FIRST_WINDOW
    while end > 0:
        start = max(end - size, 0)
        outside = np.flatnonzero(~(_row_max(np.abs(
            states[start:end] - target)) <= DECISION_RADIUS))
        if outside.size:
            return start + int(outside[-1])
        end, size = start, 2 * size
    return -1


def _decision(etas, states, candidates):
    """Earliest eta from which the tail of the table stays inside one
    decision ball, as an Asymptotics, or None.

    Only a ball that holds the last row scans the table, back from its
    end (_last_outside); a NaN distance counts as outside.  The window
    has length DECISION_WINDOW, or is the whole table when no row lies
    outside the ball.
    """
    last = _row_max(np.abs(states[-1] - np.array(
        [target for _, _, target in candidates])))
    for (kind, label, target), dist in zip(candidates, last.tolist()):
        if not dist <= DECISION_RADIUS:
            continue
        start = _last_outside(states, target) + 1
        if (etas[-1] - etas[start] >= DECISION_WINDOW - 1e-9
                or (start == 0 and etas[-1] - etas[0] >= 0.0)):
            return Asymptotics(
                kind=kind, limit_label=label,
                limit_state=tuple(float(v) for v in target),
                limit_distance=dist, eta_at_decision=float(etas[start]))
    return None


def classify(traj, params=None):
    """Classify a trajectory's forward limit from its samples.

    Escape fires when the max-norm of any sample exceeds ESCAPE_NORM.
    ALC and AC need the trailing window (length DECISION_WINDOW, or the
    whole trajectory when it never left the ball) to stay within
    DECISION_RADIUS of one cataloged limit point (_decision).  Anything
    else is Undetermined, with the nearest candidate recorded in the
    note.
    """
    if params is None:
        params = traj.spec.params
    etas = np.asarray(traj.etas, dtype=float)
    states = np.asarray(traj.states, dtype=float)
    if len(etas) < 2:
        raise InvalidRequestError("classification needs at least 2 samples")
    candidates = _limit_candidates(params)
    norms = _row_max(np.abs(states))
    crossed = np.nonzero(norms >= ESCAPE_NORM * (1.0 - 1e-9))[0]
    if crossed.size:
        i = int(crossed[0])
        return Asymptotics(
            kind=OUTCOME_ESCAPE, limit_distance=float(norms[i]),
            eta_at_decision=float(etas[i]),
            note="state max-norm crossed %g" % ESCAPE_NORM)
    decided = _decision(etas, states, candidates)
    if decided is not None:
        return decided
    dists = [(float(np.max(np.abs(states[-1] - target))), label)
             for _, label, target in candidates]
    nearest = min(dists)
    return Asymptotics(
        kind=OUTCOME_UNDETERMINED, limit_distance=nearest[0],
        eta_at_decision=float(etas[-1]),
        note="nearest candidate %s at distance %.3e" % (nearest[1],
                                                        nearest[0]))


# ---------------------------------------------------------------------------
# Dormand-Prince 8(5,3), DOP853, with the step control of Hairer, Norsett &
# Wanner, Solving ODEs I, Sec. II.4 and II.10: scipy DOP853's tableau, error
# weights, dense-output stages and coefficients, initial-step rule and
# step-size factors.  A step's derivatives are k1..k16: k1 at its start,
# k2..k12 its stages, k13 at the new state (the next step's k1, first same
# as last) and k14..k16 the stages of its continuous extension.  Each row
# lists the weights of k1, k2, ... in order; zero weights are skipped.

# (time fraction, A row) of stages 2..12
_STAGES = (
    (0.05260015195876773, (0.05260015195876773,)),
    (0.0789002279381516, (0.0197250569845379, 0.0591751709536137)),
    (0.1183503419072274, (0.02958758547680685, 0, 0.08876275643042054)),
    (0.2816496580927726, (0.2413651341592667, 0, -0.8845494793282861,
                          0.924834003261792)),
    (0.3333333333333333, (0.037037037037037035, 0, 0, 0.17082860872947386,
                          0.12546768756682242)),
    (0.25, (0.037109375, 0, 0, 0.17025221101954405, 0.06021653898045596,
            -0.017578125)),
    (0.3076923076923077, (0.03709200011850479, 0, 0, 0.17038392571223998,
                          0.10726203044637328, -0.015319437748624402,
                          0.008273789163814023)),
    (0.6512820512820513, (0.6241109587160757, 0, 0, -3.3608926294469414,
                          -0.868219346841726, 27.59209969944671,
                          20.154067550477894, -43.48988418106996)),
    (0.6, (0.47766253643826434, 0, 0, -2.4881146199716677,
           -0.590290826836843, 21.230051448181193, 15.279233632882423,
           -33.28821096898486, -0.020331201708508627)),
    (0.8571428571428571, (-0.9371424300859873, 0, 0, 5.186372428844064,
                          1.0914373489967295, -8.149787010746927,
                          -18.52006565999696, 22.739487099350505,
                          2.4936055526796523, -3.0467644718982196)),
    (1.0, (2.273310147516538, 0, 0, -10.53449546673725,
           -2.0008720582248625, -17.9589318631188, 27.94888452941996,
           -2.8589982771350235, -8.87285693353063, 12.360567175794303,
           0.6433927460157636)),
)
# the same of the dense-output stages 14..16
_DENSE_STAGES = (
    (0.1, (0.056167502283047954, 0, 0, 0, 0, 0, 0.25350021021662483,
           -0.2462390374708025, -0.12419142326381637, 0.15329179827876568,
           0.00820105229563469, 0.007567897660545699, -0.008298)),
    (0.2, (0.03183464816350214, 0, 0, 0, 0, 0.028300909672366776,
           0.053541988307438566, -0.05492374857139099, 0, 0,
           -0.00010834732869724932, 0.0003825710908356584,
           -0.00034046500868740456, 0.1413124436746325)),
    (0.7777777777777778, (-0.42889630158379194, 0, 0, 0, 0,
                          -4.697621415361164, 7.683421196062599,
                          4.06898981839711, 0.3567271874552811, 0, 0, 0,
                          -0.0013990241651590145, 2.9475147891527724,
                          -9.15095847217987)),
)
_B = (0.054293734116568765, 0, 0, 0, 0, 4.450312892752409,
      1.8915178993145003, -5.801203960010585, 0.3111643669578199,
      -0.1521609496625161, 0.20136540080403034, 0.04471061572777259)
# the error estimators of orders 5 and 3
_E5 = (0.01312004499419488, 0, 0, 0, 0, -1.2251564463762044,
       -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
       0.3341791187130175, 0.08192320648511571, -0.022355307863886294)
_E3 = (-0.18980075407240762, 0, 0, 0, 0, 4.450312892752409,
       1.8915178993145003, -5.801203960010585, -0.4226823213237919,
       -0.1521609496625161, 0.20136540080403034, 0.02265179219836082)
# F3..F6 of the continuous extension are h times these combinations
_D = (
    (-8.428938276109013, 0, 0, 0, 0, 0.5667149535193777,
     -3.0689499459498917, 2.38466765651207, 2.117034582445028,
     -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
     -0.08899033645133331, 18.148505520854727, -9.194632392478356,
     -4.436036387594894),
    (10.427508642579134, 0, 0, 0, 0, 242.28349177525817,
     165.20045171727028, -374.5467547226902, -22.113666853125306,
     7.733432668472264, -30.674084731089398, -9.332130526430229,
     15.697238121770845, -31.139403219565178, -9.35292435884448,
     35.81684148639408),
    (19.985053242002433, 0, 0, 0, 0, -387.0373087493518,
     -189.17813819516758, 527.8081592054236, -11.57390253995963,
     6.8812326946963, -1.0006050966910838, 0.7777137798053443,
     -2.778205752353508, -60.19669523126412, 84.32040550667716,
     11.99229113618279),
    (-25.69393346270375, 0, 0, 0, 0, -154.18974869023643,
     -231.5293791760455, 357.6391179106141, 93.40532418362432,
     -37.45832313645163, 104.0996495089623, 29.8402934266605,
     -43.53345659001114, 96.32455395918828, -39.17726167561544,
     -149.72683625798564),
)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1 / 8


def _terms(row):
    """The nonzero (stage, weight) pairs of a tableau row, stages from 1."""
    return tuple((s, w) for s, w in enumerate(row, start=1) if w)


# The derivatives of a step that its continuous extension reads besides
# its own stages k14..k16: k1 and k6..k13.  The chunk packs them into the
# step's raw row, and the finishing pass (_finish) reads them there.
_RAW_STAGES = tuple(sorted(
    {s for row in _D + tuple(row for _, row in _DENSE_STAGES)
     for s, _ in _terms(row)} - {14, 15, 16}))


def _raw_width(n):
    """The doubles of a raw step row (t, h, *y, *F0, *k1, *k6, ...,
    *k13) on n components."""
    return 2 + (2 + len(_RAW_STAGES)) * n


def _dense(steps, grid):
    """The continuous extension of a finished step table (_finish) at
    grid points.

    Each point takes the step whose span holds it (the earlier step at a
    shared end point, as scipy's OdeSolution does).  With x = (t - t_old)
    / h its value is y_old + x*(F0 + (1 - x)*(F1 + x*(F2 + (1 - x)*(F3 +
    x*(F4 + (1 - x)*(F5 + x*F6)))))), elementwise, with no BLAS call;
    _interpolant evaluates one row the same way on Python floats.
    """
    n = (steps.shape[1] - 2) // 8
    seg = np.clip(np.searchsorted(steps[:, 0], grid) - 1, 0, len(steps) - 1)
    rows = steps[seg]
    x = ((grid - rows[:, 0]) / rows[:, 1])[:, None]
    w = 1.0 - x
    f = rows[:, 2:].reshape(-1, 8, n)  # y_old, F0, ..., F6
    y = f[:, 7] * x
    for i in range(5, -1, -1):
        y += f[:, 1 + i]
        y *= w if i % 2 else x
    y += f[:, 0]
    return y


def _interpolant(row, t):
    """The continuous extension of one step row (a list of floats) at t,
    on Python floats in _dense's order of operations, so with _dense's
    bits."""
    n = (len(row) - 2) // 8
    x = (t - row[0]) / row[1]
    w = 1.0 - x
    f = [row[2 + i * n:2 + (i + 1) * n] for i in range(8)]  # y_old, F0..F6
    y = [v * x for v in f[7]]
    for i in range(5, -1, -1):
        weight = w if i % 2 else x
        y = [(a + b) * weight for a, b in zip(y, f[1 + i])]
    return [a + b for a, b in zip(y, f[0])]


def _crossing(row, t_end):
    """Bisect the continuous extension of one step row (a list of
    floats) on [t_old, t_end] down to adjacent floats for where its
    max-norm reaches ESCAPE_NORM; returns the upper end of the last
    bracket.  A NaN component reads as below the norm."""
    lo, hi = row[0], t_end
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        if _max_abs(_interpolant(row, mid)) >= ESCAPE_NORM:
            hi = mid
        else:
            lo = mid


def _chunk_source(n, body=None, m=0):
    """Python source of _dop853's whole chunk on n components.

    chunk(fun, t, y, t_bound, rtol, atol, h_abs) steps from t, with state
    y, to t_bound.  It returns (status, t, y, rows, h_next) with
    _dop853's status; on an escape t is the end of the last step and y
    is None.  rows holds one raw row (t, h, *y, *F0, *k1, *k6, ...,
    *k13) per accepted step, packed as 2 + 11n doubles: y the step's
    start, F0 = u - y for the new state u, and the derivatives that its
    continuous extension reads besides its own stages (_RAW_STAGES).
    The extension, stages 14..16 included, is left to the finishing
    pass (_finish_source), which runs once over many chunks' rows.  Only
    an accepted step runs k13, which no error estimate reads.  y_j and
    k1_j stay in locals from one step to the next, and k13 becomes the
    next step's k1.

    The chunk starts with the first derivative k1 and the finiteness
    check of y and k1 (status -1 at t with no row).  h_abs is the first
    step tried; None takes the initial-step rule of Hairer, Norsett &
    Wanner (scipy's, with DOP853's exponent 1/8): the scale atol +
    |y_j|*rtol, the root mean squares d0 of y, d1 of k1 and d2 of (f1 -
    k1)/h0, f1 the derivative after an Euler trial step h0, each with
    its squares added from left to right (as the list form's _rms in
    tests/list_dop853.py: sum() compensates float sums from Python 3.12
    on, which would make step control depend on the interpreter).
    h_next, for the run's next chunk, is the step the controller
    proposed after the last accepted step that t_bound did not clip, or
    the first step tried when there was none.

    Every component is one straight-line expression in the association
    of the list form: stage i is y_j + (k1_j*A_i1 + ... +
    k(i-1)_j*A_i(i-1))*h over the nonzero weights, the new state y_j +
    h*(k1_j*B1 + ... + k12_j*B12), the scaled errors (k1_j*E5_1 + ... +
    k12_j*E5_12) / sc_j and the same with E3, sc_j = atol + max(|y_j|,
    |u_j|)*rtol, and error Hairer's combined norm h*e5 / sqrt((e5 +
    0.01*e3)*n), with e5 and e3 the sums of squares of the scaled
    errors added from left to right (0 when (e5 + 0.01*e3)*n is 0).  Tableau
    values and step-control factors are written as float literals (repr
    round-trips); a two-argument min or max is written out with Python's
    argument order (max(a, b) is "b if b > a else a", min(a, b) "b if
    b < a else a", a three-argument min two such compares), so NaN
    takes the branch the builtin takes.

    Each derivative calls fun(t_i, [stage state]) unless a body is
    given: then fun holds the m coefficients c of an autonomous
    right-hand side body(c, y), which the chunk unpacks into locals,
    and the lines of body's template (phase_system._stepping_kernel,
    the coefficients among its inputs) are inlined in place of every
    call, so the chunk never calls a function and gives the bits the
    calls would.
    """
    comps = range(n)
    kernel = None if body is None else _stepping_kernel(body, n, m)

    def names(prefix):
        return ", ".join("%s%d" % (prefix, j) for j in comps)

    def combo(row, j):
        return " + ".join("k%d_%d * %r" % (s, j, w) for s, w in _terms(row))

    def derivative(at, state, out):
        """Lines setting out_j to the derivative at state_j, time at."""
        if kernel is not None:
            return kernel.format(v=state, k=out, c="c_").splitlines()
        return ["%s, = fun(%s, [%s])" % (names(out), at, names(state))]

    def stages(table, first):
        """Lines running the stages of table, numbered from first."""
        lines = []
        for stage, (c, row) in enumerate(table, start=first):
            lines += ["v_%d = y_%d + (%s) * h" % (j, j, combo(row, j))
                      for j in comps]
            lines += derivative("t + %r * h" % c, "v_", "k%d_" % stage)
        return lines

    def squares(prefix):
        """The sum of squares of the n locals prefix_j, added from left
        to right."""
        return " + ".join("%s%d * %s%d" % (prefix, j, prefix, j)
                          for j in comps)

    def rms(prefix):
        return "sqrt(%s) / %r" % (squares(prefix), n ** 0.5)

    rule = ["span = t_bound - t"]
    rule += ["sc_%d = atol + abs(y_%d) * rtol" % (j, j) for j in comps]
    rule += ["q_%d = y_%d / sc_%d" % (j, j, j) for j in comps]
    rule.append("d0 = " + rms("q_"))
    rule += ["q_%d = k1_%d / sc_%d" % (j, j, j) for j in comps]
    rule.append("d1 = " + rms("q_"))
    rule += [
        "h0 = %r if d0 < %r or d1 < %r else %r * d0 / d1" % (
            1e-6, 1e-5, 1e-5, 0.01),
        "if span < h0:",
        "    h0 = span"]
    rule += ["v_%d = y_%d + h0 * k1_%d" % (j, j, j) for j in comps]
    rule += derivative("t + h0", "v_", "f1_")
    rule += ["q_%d = (f1_%d - k1_%d) / sc_%d" % (j, j, j, j) for j in comps]
    rule += [
        "d2 = %s / h0" % rms("q_"),
        "d = d2 if d2 > d1 else d1",
        "if d <= %r:" % 1e-15,
        "    h1 = h0 * %r" % 1e-3,
        "    if not h1 > %r:" % 1e-6,
        "        h1 = %r" % 1e-6,
        "else:",
        "    h1 = (%r / d) ** %r" % (0.01, -_ERROR_EXPONENT),
        "h_abs = 100 * h0",
        "if h1 < h_abs:",
        "    h_abs = h1",
        "if span < h_abs:",
        "    h_abs = span"]
    start = derivative("t", "y_", "k1_")
    start += [
        "if not (%s):" % " and ".join(
            "isfinite(%s%d)" % (prefix, j)
            for prefix in ("y_", "k1_") for j in comps),
        "    return -1, t, [%s], rows, h_abs" % names("y_"),
        "if h_abs is None:"]
    start += ["    " + line for line in rule]
    start.append("h_next = h_abs")

    attempt = stages(_STAGES, 2)
    attempt += ["u_%d = y_%d + h * (%s)" % (j, j, combo(_B, j))
                for j in comps]
    for j in comps:
        attempt += [
            "a, b = abs(y_%d), abs(u_%d)" % (j, j),
            "sc = atol + (b if b > a else a) * rtol",
            "s_%d = (%s) / sc" % (j, combo(_E5, j)),
            "r_%d = (%s) / sc" % (j, combo(_E3, j))]
    attempt += [
        "e5 = " + squares("s_"),
        "d = (e5 + %r * (%s)) * %d" % (0.01, squares("r_"), n),
        "error = 0.0 if d == 0 else h * e5 / sqrt(d)"]
    accept = derivative("t + h", "u_", "k13_")
    accept += ["f_%d = u_%d - y_%d" % (j, j, j) for j in comps]
    accept.append("append(pack(t, h, %s))" % ", ".join(
        names(prefix) for prefix in ("y_", "f_") + tuple(
            "k%d_" % stage for stage in _RAW_STAGES)))
    control = "%r * error ** %r" % (_SAFETY, _ERROR_EXPONENT)
    size = ("max(%s)" % ", ".join("abs(u_%d)" % j for j in comps)
            if n > 1 else "abs(u_0)")
    lines = [
        "def chunk(fun, t, y, t_bound, rtol, atol, h_abs):",
        "    %s, = y" % names("y_")]
    if kernel is not None:
        lines.append("    %s, = fun" % ", ".join("c_%d" % j
                                               for j in range(m)))
    lines += [
        "    rows = []",
        "    append = rows.append"]
    lines += ["    " + line for line in start]
    lines += [
        "    while t < t_bound:",
        "        min_step = 10 * (nextafter(t, inf) - t)",
        "        if min_step > h_abs:",
        "            h_abs = min_step",
        "        rejected = False",
        "        while True:",
        "            if not h_abs >= min_step:",
        "                return -1, t, [%s], rows, h_next" % names("y_"),
        "            t_new = t + h_abs",
        "            clipped = t_bound < t_new",
        "            if clipped:",
        "                t_new = t_bound",
        "            h = h_abs = t_new - t"]
    lines += ["            " + line for line in attempt]
    lines += [
        "            if error < 1:",
        "                factor = %r if error == 0 else %s" % (_MAX_FACTOR,
                                                           control),
        "                if not factor < %r:" % _MAX_FACTOR,
        "                    factor = %r" % _MAX_FACTOR,
        "                if rejected and not factor < 1:",
        "                    factor = 1",
        "                h_abs *= factor",
        "                break",
        "            factor = %s" % control,
        "            h_abs *= factor if factor > %r else %r" % (
            _MIN_FACTOR, _MIN_FACTOR),
        "            rejected = True",
        "        if not clipped:",
        "            h_next = h_abs"]
    lines += ["        " + line for line in accept]
    lines += [
        "        if %s >= %r:" % (size, ESCAPE_NORM),
        "            return 1, t_new, None, rows, h_next",
        "        t = t_new"]
    lines += ["        y_%d = u_%d" % (j, j) for j in comps]
    lines += ["        k1_%d = k13_%d" % (j, j) for j in comps]
    lines.append("    return 0, t, [%s], rows, h_next" % names("y_"))
    return "\n".join(lines) + "\n"


@lru_cache(maxsize=None)
def _chunk(n, body=None, m=0):
    """The compiled _chunk_source(n, body, m), once per size and body."""
    namespace = {"sqrt": math.sqrt, "isfinite": math.isfinite,
                 "nextafter": math.nextafter, "inf": math.inf,
                 "pack": struct.Struct("%dd" % _raw_width(n)).pack}
    exec(compile(_chunk_source(n, body, m), "<dop853 chunk, n=%d>" % n,
                 "exec"), namespace)
    return namespace["chunk"]


def _finish_source(n, body=None, m=0):
    """Python source of the finishing pass over raw step rows on n
    components.

    finish(fun, raw) turns a table of the chunk's raw rows (_chunk_source)
    into the step rows (t, h, *y, *F0, ..., *F6) that _dense reads, 2 +
    8n doubles each: scipy's Dop853DenseOutput, with F1 = h*k1 - F0, F2
    = 2*F0 - h*(k13 + k1) and F3..F6 h times the _D combinations of
    k1..k16.  It runs the dense-output stages 14..16 over all s rows at
    once: each quantity is an (n, s) block of numpy columns, one row per
    component, and the four _D rows, which share their nonzero stages,
    are summed as one (4, n, s) block.  Every sum keeps the association
    of the chunk's expressions (stage i is y + (k1*A_i1 + ...)*h over
    the nonzero weights, added from left to right), and elementwise
    float64 +, - and * round each operation as Python floats do, so each
    row holds the bits that finishing it alone on Python floats gives,
    whatever the rows around it.

    A stage's derivatives run body's kernel (_stepping_kernel) on the
    columns, with fun holding the m coefficients, as the chunk inlines
    it.  Without a body fun is called once per row and stage (_calls),
    with the stage's time and its state as a list of floats: stage 14
    on every row in row order, then stage 15, then stage 16.
    """
    kernel = None if body is None else _stepping_kernel(body, n, m)
    raw = ("Y", "F0") + tuple("K%d" % stage for stage in _RAW_STAGES)
    lines = ["def finish(fun, raw):"]
    if kernel is not None:
        lines.append("    %s, = fun" % ", ".join("c_%d" % j
                                               for j in range(m)))
    lines += [
        "    cols = raw.T.copy()",
        "    t, h = cols[0], cols[1]",
        "    %s = cols[2:].reshape(%d, %d, len(t))" % (", ".join(raw),
                                                     len(raw), n)]
    for stage, (c, row) in enumerate(_DENSE_STAGES, start=14):
        lines.append("    V = Y + (%s) * h" % " + ".join(
            "K%d * %r" % term for term in _terms(row)))
        if kernel is None:
            lines.append("    K%d = calls(fun, t + %r * h, V)" % (stage, c))
            continue
        lines.append("    %s, = V" % ", ".join("v_%d" % j for j in range(n)))
        lines += ["    " + line for line in kernel.format(
            v="v_", k="k_", c="c_").splitlines()]
        lines.append("    K%d = empty_like(Y)" % stage)
        lines += ["    K%d[%d] = k_%d" % (stage, j, j) for j in range(n)]
    stacked = [stage for stage, _ in _terms(_D[0])]
    assert all([stage for stage, _ in _terms(row)] == stacked for row in _D)
    lines += [
        "    F1 = h * K1 - F0",
        "    F2 = 2 * F0 - h * (K13 + K1)",
        "    D = %s" % " + ".join("K%d * d%d" % (s, s) for s in stacked),
        "    return concatenate((cols[:%d], F1, F2, (h * D).reshape(%d, "
        "len(t)))).T.copy()" % (2 + 2 * n, 4 * n)]
    return "\n".join(lines) + "\n"


def _calls(fun, times, states):
    """fun(t_r, [the floats of state r]) for each column r of an (n, s)
    block of states and its time t_r, one call per column in order, as
    an (n, s) block."""
    out = [fun(t, v) for t, v in zip(times.tolist(), states.T.tolist())]
    return np.array(out, dtype=float).reshape(-1, len(states)).T


@lru_cache(maxsize=None)
def _finisher(n, body=None, m=0):
    """The compiled _finish_source(n, body, m), once per size and body,
    with the columns of _D as (4, 1, 1) weights d1, d6, ..., d16."""
    namespace = {"concatenate": np.concatenate, "empty_like": np.empty_like,
                 "calls": _calls}
    for s, _ in _terms(_D[0]):
        namespace["d%d" % s] = np.array([row[s - 1] for row in _D])[
            :, None, None]
    exec(compile(_finish_source(n, body, m), "<dop853 finish, n=%d>" % n,
                 "exec"), namespace)
    return namespace["finish"]


def _specialized(factory, fun, n):
    """(factory's function for n components, its first argument).  For
    fun = partial(body, coefficients), as flow_rhs and reduced_z_rhs give
    it, the function runs body's kernel inlined and takes the
    coefficients; for any other fun it calls fun, which it takes."""
    if isinstance(fun, partial):
        (c,) = fun.args
        return factory(n, fun.func, len(c)), c
    return factory(n), fun


def _finish(fun, raw):
    """The step rows of a raw step table of _dop853 for the right-hand
    side fun, from one finishing pass over all its rows (_finish_source):
    a (s, 2 + 8n) float array for _dense.  Its cost is almost all fixed,
    about that of extending five steps one at a time on Python floats,
    so callers finish many chunks at once."""
    n = (raw.shape[1] - 2) // (2 + len(_RAW_STAGES))
    finish, arg = _specialized(_finisher, fun, n)
    with np.errstate(all="ignore"):
        return finish(arg, raw)


def _dop853(fun, t, y, t_bound, rtol, atol, h_abs=None):
    """Integrate y' = fun(t, y) from t to t_bound on Python floats.

    y is a list of floats, and h_abs the first step to try (None: the
    initial-step rule).  Returns (status, t, y, raw, h_next): status 0
    when t_bound was reached; 1 when an accepted step ended at max-norm
    ESCAPE_NORM or more, with t that step's end and y None; -1 when the
    step size fell below ten ulps of t (a non-finite start or
    right-hand side ends here too), with t, y the last accepted point.
    raw is the read-only raw step table, one row (t_old, h, *y_old,
    *F0, *k1, *k6, ..., *k13) per accepted step ((0, 2 + 11n) when none
    was taken), which only integrate's sampling pass finishes
    (_finish); h_next the step size for a next chunk.  The whole chunk,
    first derivative and initial step included, runs in one compiled
    function (_chunk).  When fun is partial(body, coefficients), as
    flow_rhs and reduced_z_rhs give it, the chunk and the finishing
    pass run body's kernel inlined, on the coefficients, and never call
    fun; any other fun is called with a list of floats.
    """
    n = len(y)
    chunk, arg = _specialized(_chunk, fun, n)
    status, t, y, rows, h_abs = chunk(arg, t, y, t_bound, rtol, atol, h_abs)
    raw = np.frombuffer(b"".join(rows)).reshape(-1, _raw_width(n))
    return status, t, y, raw, h_abs


def integrate(spec):
    """Run one shooting trajectory and classify it.

    The integrator is the Dormand-Prince 8(5,3) pair (_dop853: scipy
    DOP853's coefficients and step control, run on Python floats, each
    chunk on the kernel of the right-hand side's body), driven in
    chunks of CHUNK_LENGTH.  The first chunk takes the initial-step
    rule, and each later one the step size its predecessor proposed,
    held in a local of this run.  Sample k lies at eta = k / round(1 /
    SAMPLE_STEP): chunk j takes the indices (j*N, (j+1)*N], N =
    CHUNK_LENGTH / SAMPLE_STEP, up to the eta it reached, and that eta
    when it is off the grid.  Its samples come from its dense output,
    with the projected state as its last row.
    At every chunk boundary the state is renormalized onto the
    constraint set, and a locked run onto its face; the pre-projection
    defect is logged.  Events: "escaped" (an accepted step ended at
    max-norm ESCAPE_NORM or more; the last sample is the crossing,
    bisected on that step's finished row), "stiff-failure" (step-size
    underflow, also forced by a non-finite right-hand side; partial
    trajectory returned, or IntegrationError raised when it comes
    before the first accepted step, since a one-row table has no
    verdict), "drift" (defect above DRIFT_FACTOR * rel_tol),
    "converged" (trailing window settled inside a decision ball; stops
    the run when stop_on_converged is set).

    Samples are built only where a decision can fire.  With
    stop_on_converged set, a chunk whose projected end state lies
    outside every decision ball leaves the decision None, so its
    samples wait; the pending chunks are finished and sampled in one
    pass once an end state may lie inside a ball (_may_decide), and
    _decision runs on the whole table built so far; chunks still
    pending, an escaping one included, are sampled when the run ends.
    So each raw row is finished once.  _decision reads only the table,
    so the table and the events are those of sampling every chunk.

    The residual log is computed once, over the whole sample table, when
    the run ends; its operations are elementwise, so the rows carry the
    bits a per-row evaluation gives.  The outcome is classify's verdict
    on the finished table.
    """
    params = spec.params
    spin = spec.mode is not FlowClass.RICCI_FLAT
    chirality = _BUNDLE_CONES[spec.bundle.tag][1] if spin else None
    start = initial_state(spec)
    if spin:
        rhs = reduced_z_rhs(params, chirality)
        state = np.array(start.Z, dtype=float)
        con = zcons_constraint(params, chirality)
        locked = _locked_face(spec)
    else:
        rhs = flow_rhs(params)
        state = np.array(start.as_tuple(), dtype=float)
        con = crf_constraints(params)
        locked = None

    candidates = _limit_candidates(params)
    targets = [target.tolist() for _, _, target in candidates]
    pending = []  # (first grid index, eta reached, raw, projected end)

    def rows_of(block):
        """A block of solver states as full rows (X rebuilt from Z in
        spin modes)."""
        cols = tuple(np.asarray(block, dtype=float).T)
        if spin:
            cols = x_from_z(params, cols, chirality) + cols
        return np.column_stack(cols)

    table = [(np.zeros(1), rows_of([state]))]  # sampled (etas, rows)

    def sample(escaped=False):
        """The sample table so far as one (etas, rows) block, after adding
        the pending chunks' samples from one finishing and dense-output
        pass; a chunk's last sample is its projected end state when it
        has one, an escaping chunk's the crossing on its last finished row."""
        if pending:
            firsts, ends_at, raws, ends = map(list, zip(*pending))
            steps = _finish(rhs, np.concatenate(raws))
            if escaped:
                ends_at[-1] = _crossing(steps[-1].tolist(), ends_at[-1])
            grids = []
            for first, reached in zip(firsts, ends_at):
                grid = np.arange(first, first + per_chunk) / per_unit
                grids.append(np.append(grid[grid < reached], reached))
            grid = np.concatenate(grids)
            block = _dense(steps, grid)
            for i, end in zip(np.cumsum([g.size for g in grids]) - 1, ends):
                if end is not None:
                    block[i] = end
            pending.clear()
            table.append((grid, rows_of(block)))
        if len(table) > 1:
            table[:] = [tuple(np.concatenate(part) for part in zip(*table))]
        return table[0]

    per_unit = round(1 / SAMPLE_STEP)
    per_chunk = round(CHUNK_LENGTH / SAMPLE_STEP)
    events = []
    eta = 0.0
    first = 1  # grid index of the chunk's first sample
    drift_logged = False
    h_abs = None  # the first chunk takes the initial-step rule
    while eta < spec.eta_max - HORIZON_SLACK:
        top = min(eta + CHUNK_LENGTH, spec.eta_max)
        status, reached, end, raw, h_abs = _dop853(
            rhs, eta, state.tolist(), top, spec.rel_tol, spec.abs_tol, h_abs)
        if status == 0:
            state, drift = _project(con, end, locked)
            if drift > DRIFT_FACTOR * spec.rel_tol and not drift_logged:
                events.append((reached, "drift"))
                drift_logged = True
        if reached > eta:
            pending.append((first, reached, raw, None if status else state))
        if status != 0:
            break
        eta = top
        first += per_chunk
        if spec.stop_on_converged and _may_decide(state.tolist(), targets):
            decided = _decision(*sample(), candidates)
            if decided is not None:
                events.append((decided.eta_at_decision, "converged"))
                break
    etas, rows = sample(status == 1)
    if len(etas) < 2:
        raise IntegrationError(
            "stiff-failure at eta = %r, before the first accepted step "
            "(step-size underflow or a non-finite right-hand side): the "
            "run has no sample past its start" % reached)
    if status != 0:
        events.append((float(etas[-1]),
                       "escaped" if status == 1 else "stiff-failure"))
    res = residuals(params, PhaseState.from_sequence(rows.T))
    f_norm = np.max(np.abs(res.F), axis=0)
    h_norm = np.max(np.abs(res.H), axis=0)
    chiral = {Chirality.PLUS: f_norm, Chirality.MINUS: h_norm}.get(
        chirality, np.minimum(f_norm, h_norm))
    res_rows = np.column_stack(
        [np.abs(res.hyperplane), np.abs(res.conservation), chiral])
    traj = Trajectory(
        spec=spec, etas=etas, states=rows, residual_log=res_rows,
        events=tuple(events), outcome=None,
        face_lock=locked.name if locked is not None else None)
    outcome = classify(traj)
    if outcome.kind == OUTCOME_AC and locked is not None:
        outcome = replace(
            outcome,
            note=("limit identified by coordinates while locked to the "
                  "invariant boundary segment; an alternative labeling "
                  "convention swaps the two boundary limits"))
    return replace(traj, outcome=outcome)


def _simpson_pieces(y, dx):
    """Simpson integral over the first interval of each consecutive
    interval pair, for unequal widths dx."""
    x21, x32 = dx[:-1], dx[1:]
    x21_x31 = x21 / (x21 + x32)
    x21_x32 = x21 / x32
    both = x21_x31 * x21_x32
    return x21 / 6 * ((3 - x21_x31) * y[:-2] + (3 + both + x21_x31) * y[1:-1]
                      + -both * y[2:])


def _cumulative_simpson(y, x):
    """Cumulative composite Simpson integral of y over x (3 or more
    increasing points), starting at 0.

    Interval i takes its integral from the quadratic through points i,
    i+1, i+2 for even i and through i-1, i, i+1 for odd i; the last
    interval always uses the points before it.  The same operations as
    scipy.integrate.cumulative_simpson(y, x=x, initial=0).
    """
    dx = np.diff(x)
    forward = _simpson_pieces(y, dx)
    backward = _simpson_pieces(y[::-1], dx[::-1])[::-1]
    pieces = np.empty(dx.size)
    pieces[:-1:2] = forward[::2]
    pieces[1::2] = backward[::2]
    pieces[-1] = backward[-1]
    return np.concatenate(([0.0], np.cumsum(pieces)))


def reconstruct_metric(traj, gauge=1.0):
    """Recover the metric coefficient profile along a trajectory.

    Reads only the stored samples (traj.etas and traj.states), so a
    trajectory and its CSV table reconstruct to the same profile.
    1/trL solves (1/trL)' = (1/trL) * G with 1/trL = gauge at the first
    sample, where G = 2(X1^2 + X2^2 + X3^2) + X4^2: log(1/trL) is the
    cumulative Simpson integral of G over the sample grid (the
    unequal-interval rule of _cumulative_simpson, which also covers a
    run's shorter last interval).  t is the
    cumulative Simpson integral of 1/trL, anchored so that the
    leading-order cone solution has t -> 0 at the vertex (t at the first
    sample equals gauge / G there).  Coefficients: a = (1/trL)/sqrt(Z2 Z3),
    b = (1/trL)/sqrt(Z1 Z3), c = (1/trL)/sqrt(Z1 Z2), f = (1/trL) Z4.
    The first sample is dropped when a Z-product vanishes there (the run
    starts next to a cone point where one Z is zero).  A non-finite
    entry, a vanishing product at any later sample, or an eta that does
    not increase raises ReconstructionDomainError naming the sample; a
    gauge, taken as a float, outside 0 < gauge < inf raises
    InvalidRequestError.
    """
    gauge = _real(gauge, "gauge")
    if not 0.0 < gauge < math.inf:
        raise InvalidRequestError("gauge must be positive and finite")
    etas = np.asarray(traj.etas, dtype=float)
    states = np.asarray(traj.states, dtype=float)
    if etas.size < 3:
        raise InvalidRequestError("reconstruction needs at least 3 samples")
    if not (np.isfinite(etas).all() and np.isfinite(states).all()):
        i = np.nonzero(~np.isfinite(np.column_stack([etas, states])))[0][0]
        raise ReconstructionDomainError(
            "non-finite eta or state entry at sample %d" % i)
    stuck = np.nonzero(~(np.diff(etas) > 0.0))[0]
    if stuck.size:
        i = int(stuck[0]) + 1
        raise ReconstructionDomainError(
            "eta does not increase at sample %d (eta = %.6g after %.6g)"
            % (i, etas[i], etas[i-1]))
    z = states[:, 4:]
    prods = (z[:, 1]*z[:, 2], z[:, 0]*z[:, 2], z[:, 0]*z[:, 1])
    positive = (prods[0] > 0.0) & (prods[1] > 0.0) & (prods[2] > 0.0)
    start = 0 if positive[0] else 1
    bad = np.nonzero(~positive[start:])[0]
    if bad.size:
        i = int(bad[0]) + start
        raise ReconstructionDomainError(
            "Z-product vanishes at sample %d (eta = %.6g)" % (i, etas[i]))
    g = g_of_x(states[:, :4].T)
    trl_inv = gauge * np.exp(_cumulative_simpson(g, etas))
    t = gauge / g[0] + _cumulative_simpson(trl_inv, etas)
    sl = slice(start, None)
    return MetricProfile(
        t=t[sl],
        a=trl_inv[sl] / np.sqrt(prods[0][sl]),
        b=trl_inv[sl] / np.sqrt(prods[1][sl]),
        c=trl_inv[sl] / np.sqrt(prods[2][sl]),
        f=trl_inv[sl] * z[sl, 3],
        trl_inv=trl_inv[sl],
        gauge=gauge)


def worker_count():
    """Sweep worker cap: SPIN7_THREADS, else the CPU count.

    The cap is clamped to [1, os.cpu_count()], so no setting starts more
    worker processes than the machine has CPUs.
    """
    cpus = max(1, os.cpu_count() or 1)
    env = os.environ.get("SPIN7_THREADS", "").strip()
    try:
        return max(1, min(int(env or cpus), cpus))
    except ValueError:
        raise InvalidRequestError(
            "SPIN7_THREADS must be an integer, got %r" % env) from None


def quadrant_grid(count):
    """count <= MAX_DIRECTIONS interior directions of the open quadrant."""
    if not isinstance(count, int) or not 1 <= count <= MAX_DIRECTIONS:
        raise InvalidRequestError(
            f"grid count must be an int in 1..{MAX_DIRECTIONS}, got {count!r}")
    half_pi = math.pi / 2.0
    return tuple(
        (math.cos(j * half_pi / (count + 1)),
         math.sin(j * half_pi / (count + 1)))
        for j in range(1, count + 1))


def _sweep_point(spec):
    return integrate(spec).outcome


def sweep(params, bundle_tag, mode, s_values, epsilon=1e-6, eta_max=200.0,
          rel_tol=1e-10, abs_tol=1e-12):
    """Classify one run per direction; failures are recorded, not raised.

    An invalid shared input (params, bundle_tag, mode, epsilon, eta_max,
    tolerances) raises before any run, as ShootSpec raises it, and so
    does a spin mode that is not the chirality of the bundle's cone
    point (unstable_frame); a bad direction fails its row, whose s is
    then the row as given.  Runs
    are independent and distributed over a process pool capped by
    worker_count() (the environment variable SPIN7_THREADS, the only
    worker setting); results keep the input order regardless of
    completion order.
    """
    directions = list(s_values)
    if not 1 <= len(directions) <= MAX_DIRECTIONS:
        raise InvalidRequestError(
            f"sweep takes 1..{MAX_DIRECTIONS} directions, got "
            f"{len(directions)}")
    # checks every shared input and the cone's frame once; each row
    # replaces only s
    shared = ShootSpec(params, bundle_tag, mode, (1.0, 0.0), epsilon=epsilon,
                       eta_max=eta_max, rel_tol=rel_tol, abs_tol=abs_tol)
    unstable_frame(shared.params, shared.cone_label, shared.mode)
    specs = []
    failures = {}
    for i, s in enumerate(directions):
        try:
            directions[i] = _direction(s)
            specs.append((i, replace(shared, s=directions[i])))
        except Exception as exc:
            failures[i] = str(exc)
    outcomes = {}
    cap = min(worker_count(), max(1, len(specs)))
    if cap == 1:
        for i, spec in specs:
            try:
                outcomes[i] = _sweep_point(spec)
            except Exception as exc:
                failures[i] = str(exc)
    else:
        # imported here, its only use: concurrent.futures costs every
        # process that imports the package about 20 ms
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=cap) as pool:
            futures = [(i, pool.submit(_sweep_point, spec))
                       for i, spec in specs]
            for i, future in futures:
                try:
                    outcomes[i] = future.result()
                except Exception as exc:
                    failures[i] = str(exc)
    return tuple(
        SweepEntry(s=s, outcome=outcomes.get(i), error=failures.get(i))
        for i, s in enumerate(directions))
