"""Shooting from the conical fixed points along their unstable frames.

The module integrates trajectories that leave a cone point P0 along a
prescribed combination of unstable directions, watches the algebraic
constraints, classifies the forward limit (ALC sink, conical point,
escape, or undetermined), and recovers the metric coefficient profile
(a, b, c, f) as functions of the arclength variable t.

Two integration modes exist.  Spin modes run the reduced 4-dimensional
Z-system (the X block is a function of Z on either chirality set) and
carry the single Z-only conservation constraint.  The Ricci-flat mode
runs the full 8-dimensional system and carries the hyperplane and
conservation constraints.  Either way the constraint set is exactly
invariant for the exact flow but transversally unstable for the
numerical one (the linearization at the sink has a positive off-set
eigenvalue), so the integrator renormalizes: it works in fixed-length
chunks and Newton-projects the state back onto the constraint set at
every chunk boundary, logging the pre-projection defect as drift.

Boundary runs need one more ingredient.  For (k, l) = (1, 1) the
invariant region has one-dimensional boundary segments (a line for the
plus chirality, a curve for the minus chirality) that join the cone
point to a conical limit, and the tangent boundary offsets land on
them to round-off accuracy.  When the initial state satisfies a
cataloged segment to within FACE_LOCK_TOL, the segment equations join
the per-chunk projection ("face lock"), which removes the two unstable
transverse modes of the conical saddle; the lock is dropped if the
defect ever grows past FACE_RELEASE_TOL, so nudged runs never lock.
"""

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .aw_algebra import AWParams, BundleIndex, BundleTag, bundle
from .critical_points import (LABEL_P0_K, LABEL_P0_KPLUSL, LABEL_P0_L,
                              LABEL_P1, LABELS_AC, LABELS_ALC_B, FlowClass,
                              catalog, unstable_frame)
from .errors import (InitializationError, InvalidRequestError,
                     ReconstructionDomainError)
from .phase_system import (Chirality, PhaseState, crf_constraints,
                           flow_rhs, g_of_x, reduced_z_rhs, residuals,
                           x_from_z, zcons_constraint)

SAMPLE_STEP = 0.05
CHUNK_LENGTH = 5.0
DECISION_WINDOW = 5.0
DECISION_RADIUS = 1e-6
ESCAPE_NORM = 1e3
DRIFT_FACTOR = 100.0
FACE_LOCK_TOL = 1e-10
FACE_RELEASE_TOL = 1e-8
MAX_PROJECTION_ITERS = 50
PROJECTION_TARGET = 1e-14

_CONE_LABEL = {
    BundleTag.K_PLUS_L: LABEL_P0_KPLUSL,
    BundleTag.K: LABEL_P0_K,
    BundleTag.L: LABEL_P0_L,
}

_CHIRALITY = {
    FlowClass.SPIN_PLUS: Chirality.PLUS,
    FlowClass.SPIN_MINUS: Chirality.MINUS,
}

OUTCOME_ALC = "ALC"
OUTCOME_AC = "AC"
OUTCOME_ESCAPE = "Escape"
OUTCOME_UNDETERMINED = "Undetermined"


@dataclass(frozen=True)
class ShootSpec:
    """Everything needed to reproduce one shooting run.

    s is normalized to the unit sphere at construction (the zero vector
    is rejected); spin modes require s3 = 0 since their frame has two
    vectors.  epsilon is the max-norm amplitude of the initial offset.
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
        if not isinstance(self.params, AWParams):
            object.__setattr__(self, "params", AWParams(*self.params))
        if not isinstance(self.bundle, BundleIndex):
            object.__setattr__(self, "bundle",
                               bundle(self.params, self.bundle))
        if not isinstance(self.mode, FlowClass):
            object.__setattr__(self, "mode", FlowClass(self.mode))
        s = tuple(float(v) for v in self.s)
        if len(s) == 2:
            s = s + (0.0,)
        if len(s) != 3:
            raise InvalidRequestError(
                "s must have two or three components, got %r" % (self.s,))
        norm = math.sqrt(s[0]*s[0] + s[1]*s[1] + s[2]*s[2])
        if norm < 1e-12:
            raise InvalidRequestError("s must be a nonzero direction")
        if self.mode is not FlowClass.RICCI_FLAT and s[2] != 0.0:
            raise InvalidRequestError(
                "spin modes have a two-vector frame; s3 must be 0")
        object.__setattr__(self, "s", tuple(v / norm for v in s))
        eps = float(self.epsilon)
        if not 0.0 < eps <= 1e-2:
            raise InvalidRequestError(
                "epsilon must lie in (0, 1e-2], got %g" % eps)
        object.__setattr__(self, "epsilon", eps)
        if not self.eta_max > 0.0:
            raise InvalidRequestError("eta_max must be positive")
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
            raise InvalidRequestError("integrator tolerances must be positive")

    @property
    def cone_label(self):
        return _CONE_LABEL[self.bundle.tag]


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
    "stiff-failure"}.
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
    """An invariant boundary segment given by polynomial equations on Z."""

    name: str
    equations: tuple


def _line_face():
    return _BoundaryFace(
        "boundary-line",
        (lambda z: (z[1] - z[2], np.array([0.0, 1.0, -1.0, 0.0])),
         lambda z: (3.0*z[0] + 3.0*z[1] - 1.0,
                    np.array([3.0, 3.0, 0.0, 0.0]))))


def _curve_face():
    return _BoundaryFace(
        "boundary-curve",
        (lambda z: (z[1] + z[2] - z[0], np.array([-1.0, 1.0, 1.0, 0.0])),
         lambda z: ((z[1] + z[2])*z[3] - 6.0,
                    np.array([0.0, z[3], z[3], z[1] + z[2]]))))


def boundary_face(params, chirality):
    """The cataloged invariant boundary segment for these parameters.

    Only the (1, 1) orbit ships one: the plus chirality region has the
    line segment {Z2 = Z3, 3Z1 + 3Z2 = 1} and the minus chirality
    region the curve {Z2 + Z3 = Z1, (Z2 + Z3) Z4 = 6}.  Returns None
    when no verified segment exists.
    """
    if (params.k, params.l) != (1, 1):
        return None
    if chirality is Chirality.PLUS:
        return _line_face()
    return _curve_face()


def _face_defect(face, z):
    return max(abs(eq(z)[0]) for eq in face.equations)


def _project(con, v, face=None):
    """Least-norm Gauss-Newton projection onto con(v) = (values, rows) = 0,
    joined by the equations of a locked face."""
    equations = face.equations if face is not None else ()
    v = np.array(v, dtype=float)
    for _ in range(MAX_PROJECTION_ITERS):
        r, jac = con(v)
        extra = [eq(v) for eq in equations]
        r = list(r) + [e[0] for e in extra]
        jac = list(jac) + [e[1] for e in extra]
        if np.max(np.abs(r)) < PROJECTION_TARGET:
            return v
        step, *_ = np.linalg.lstsq(jac, r, rcond=None)
        v = v - step
    raise InitializationError(
        "constraint projection did not converge in %d iterations"
        % MAX_PROJECTION_ITERS)


def _offset_direction(spec):
    frame = unstable_frame(spec.params, spec.cone_label, spec.mode)
    vectors = [np.array([float(c) for c in pair.vector]) for pair in frame]
    w = sum(si * v for si, v in zip(spec.s, vectors))
    return w / np.max(np.abs(w))


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
    p0 = np.array([float(c) for c in
                   cat.get(spec.cone_label).state.as_tuple()])
    w = _offset_direction(spec)
    if spec.mode is FlowClass.RICCI_FLAT:
        y = _project(crf_constraints(spec.params), p0 + spec.epsilon * w)
        return PhaseState.from_sequence(y)
    chirality = _CHIRALITY[spec.mode]
    z = _project(zcons_constraint(spec.params, chirality),
                 p0[4:] + spec.epsilon * w[4:])
    x = [float(v) for v in x_from_z(spec.params, tuple(z), chirality)]
    return PhaseState(tuple(x), tuple(z))


def _limit_candidates(params):
    """Fixed-point targets for classification, in decision priority."""
    cat = catalog(params)
    out = []
    for label in (LABEL_P1,) + tuple(LABELS_ALC_B):
        point = cat.get(label)
        out.append((OUTCOME_ALC, label,
                    np.array(point.state.as_floats())))
    for label in LABELS_AC:
        point = cat.get(label)
        out.append((OUTCOME_AC, label,
                    np.array(point.state.as_floats())))
    return tuple(out)


class _DecisionScan:
    """The trailing-window decision over a table that grows by blocks.

    Per candidate it keeps the index of the last row outside the
    decision ball and the distance of the last row, both updated from
    the new rows only, so deciding after every chunk of a run costs
    O(rows) in all.
    """

    def __init__(self, candidates):
        self._candidates = candidates
        self._targets = np.array([target for _, _, target in candidates])
        self._etas = []
        self._last_outside = [-1] * len(candidates)
        self._last_distance = [math.inf] * len(candidates)

    def extend(self, etas, states):
        base = len(self._etas)
        self._etas.extend(etas.tolist())
        # max-norm distance of every row to every target, one coordinate
        # at a time: no rows x targets x coordinates temporary
        dist = np.zeros((len(states), len(self._targets)))
        for column, values in zip(states.T, self._targets.T):
            np.maximum(dist, np.abs(column[:, None] - values), out=dist)
        outside = ~(dist <= DECISION_RADIUS)
        last = base + len(dist) - 1 - np.argmax(outside[::-1], axis=0)
        for i in np.flatnonzero(outside.any(axis=0)).tolist():
            self._last_outside[i] = int(last[i])
        self._last_distance = dist[-1].tolist()

    def decision(self):
        """Earliest eta from which the tail stays inside one decision
        ball, as an Asymptotics, or None."""
        etas = self._etas
        span = etas[-1] - etas[0]
        for (kind, label, target), outside, dist in zip(
                self._candidates, self._last_outside, self._last_distance):
            if outside == len(etas) - 1:
                continue
            run_start = outside + 1
            tail = etas[-1] - etas[run_start]
            if tail >= DECISION_WINDOW - 1e-9 or (run_start == 0
                                                  and span >= 0.0):
                return Asymptotics(
                    kind=kind, limit_label=label,
                    limit_state=tuple(float(v) for v in target),
                    limit_distance=dist, eta_at_decision=etas[run_start])
        return None


def _trailing_decision(etas, states, candidates):
    """Earliest eta from which the tail stays inside one decision ball."""
    scan = _DecisionScan(candidates)
    scan.extend(etas, states)
    return scan.decision()


def classify(traj, params=None):
    """Classify a trajectory's forward limit from its samples.

    Escape fires when the max-norm of any sample exceeds ESCAPE_NORM.
    ALC and AC need the trailing window (length DECISION_WINDOW, or the
    whole trajectory when it never left the ball) to stay within
    DECISION_RADIUS of one cataloged limit point.  Anything else is
    Undetermined, with the nearest candidate recorded in the note.
    """
    if params is None:
        params = traj.spec.params
    etas = np.asarray(traj.etas, dtype=float)
    states = np.asarray(traj.states, dtype=float)
    if len(etas) < 2:
        raise InvalidRequestError("classification needs at least 2 samples")
    norms = np.max(np.abs(states), axis=1)
    crossed = np.nonzero(norms >= ESCAPE_NORM * (1.0 - 1e-9))[0]
    if crossed.size:
        i = int(crossed[0])
        return Asymptotics(
            kind=OUTCOME_ESCAPE, limit_distance=float(norms[i]),
            eta_at_decision=float(etas[i]),
            note="state max-norm crossed %g" % ESCAPE_NORM)
    candidates = _limit_candidates(params)
    decided = _trailing_decision(etas, states, candidates)
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
# Dormand-Prince 5(4) with the step control of Hairer, Norsett & Wanner,
# Solving ODEs I, Sec. II.4: scipy RK45's tableau, error weights,
# dense-output matrix, initial-step rule and step-size factors.

_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = (19372 / 6561, -25360 / 2187, 64448 / 6561,
                          -212 / 729)
_A61, _A62, _A63, _A64, _A65 = (9017 / 3168, -355 / 33, 46732 / 5247,
                                49 / 176, -5103 / 18656)
_B1, _B3, _B4, _B5, _B6 = (35 / 384, 500 / 1113, 125 / 192, -2187 / 6784,
                           11 / 84)
_E1, _E3, _E4, _E5, _E6, _E7 = (-71 / 57600, 71 / 16695, -71 / 1920,
                                17253 / 339200, -22 / 525, 1 / 40)
_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883,
     -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423]])
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1 / 5


def _rms(values):
    return math.sqrt(sum(v * v for v in values)) / len(values) ** 0.5


def _initial_step(fun, t, y, f, span, rtol, atol):
    """First step size from the size of y, f and a trial Euler step."""
    scale = [atol + abs(v) * rtol for v in y]
    d0 = _rms([v / s for v, s in zip(y, scale)])
    d1 = _rms([v / s for v, s in zip(f, scale)])
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
    f1 = fun(t + h0, [v + h0 * g for v, g in zip(y, f)])
    d2 = _rms([(a - b) / s for a, b, s in zip(f1, f, scale)]) / h0
    d = max(d1, d2)
    h1 = max(1e-6, h0 * 1e-3) if d <= 1e-15 else (0.01 / d) ** (1 / 5)
    return min(100 * h0, h1, span)


def _dense(steps, grid):
    """The continuous extension of accepted steps at grid points.

    Each point takes the step whose span holds it (the earlier step at a
    shared end point, as scipy's OdeSolution does); per step Q = K^T P,
    and y = y_old + h * Q (x, x^2, x^3, x^4) with x = (t - t_old) / h.
    """
    table = np.array(steps)
    n = (table.shape[1] - 2) // 8
    starts, widths = table[:, 0], table[:, 1]
    seg = np.clip(np.searchsorted(starts, grid) - 1, 0, len(steps) - 1)
    q = table[:, 2 + n:].reshape(-1, 7, n).transpose(0, 2, 1) @ _P
    x = (grid - starts[seg]) / widths[seg]
    powers = np.cumprod(np.repeat(x[:, None], 4, axis=1), axis=1)
    return (widths[seg, None] * (q[seg] @ powers[:, :, None])[:, :, 0]
            + table[seg, 2:2 + n])


def _crossing(step, t_end):
    """Bisect the step's interpolant on [t_old, t_end] down to adjacent
    floats for where its max-norm reaches ESCAPE_NORM; returns the upper
    end of the last bracket."""
    lo, hi = step[0], t_end
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        if np.max(np.abs(_dense([step], np.array([mid])))) >= ESCAPE_NORM:
            hi = mid
        else:
            lo = mid


def _dopri5(fun, t, y, t_bound, rtol, atol):
    """Integrate y' = fun(t, y) from t to t_bound on Python floats.

    y is a list of floats.  Returns (status, t, y, steps): status 0
    when t_bound was reached; 1 when an accepted step ended at max-norm
    ESCAPE_NORM or more, with t the crossing on that step's interpolant
    and y the interpolant there; -1 when the step size fell below ten
    ulps of t (a non-finite start or right-hand side ends here too),
    with t, y the last accepted point.  steps holds one row
    (t_old, h, *y_old, *k1, ..., *k7) per accepted step, for _dense.
    """
    steps = []
    f = fun(t, y)
    if not all(map(math.isfinite, [*y, *f])):
        return -1, t, y, steps
    h_abs = _initial_step(fun, t, y, f, t_bound - t, rtol, atol)
    while t < t_bound:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:
                return -1, t, y, steps
            t_new = min(t + h_abs, t_bound)
            h = h_abs = t_new - t
            k1 = f
            k2 = fun(t + _C2 * h, [v + a * _A21 * h
                                   for v, a in zip(y, k1)])
            k3 = fun(t + _C3 * h, [v + (a * _A31 + b * _A32) * h
                                   for v, a, b in zip(y, k1, k2)])
            k4 = fun(t + _C4 * h, [
                v + (a * _A41 + b * _A42 + c * _A43) * h
                for v, a, b, c in zip(y, k1, k2, k3)])
            k5 = fun(t + _C5 * h, [
                v + (a * _A51 + b * _A52 + c * _A53 + d * _A54) * h
                for v, a, b, c, d in zip(y, k1, k2, k3, k4)])
            k6 = fun(t + h, [
                v + (a * _A61 + b * _A62 + c * _A63 + d * _A64
                     + e * _A65) * h
                for v, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)])
            y_new = [v + h * (a * _B1 + c * _B3 + d * _B4 + e * _B5
                              + g * _B6)
                     for v, a, c, d, e, g in zip(y, k1, k3, k4, k5, k6)]
            k7 = fun(t + h, y_new)
            error = _rms([
                (a * _E1 + c * _E3 + d * _E4 + e * _E5 + g * _E6
                 + w * _E7) * h / (atol + max(abs(v), abs(u)) * rtol)
                for a, c, d, e, g, w, v, u
                in zip(k1, k3, k4, k5, k6, k7, y, y_new)])
            if error < 1:
                factor = (_MAX_FACTOR if error == 0 else
                          min(_MAX_FACTOR,
                              _SAFETY * error ** _ERROR_EXPONENT))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error ** _ERROR_EXPONENT)
            rejected = True
        steps.append((t, h, *y, *k1, *k2, *k3, *k4, *k5, *k6, *k7))
        if max(map(abs, y_new)) >= ESCAPE_NORM:
            t_cross = _crossing(steps[-1], t_new)
            y_cross = _dense(steps[-1:], np.array([t_cross]))[0]
            return 1, t_cross, y_cross.tolist(), steps
        t, y, f = t_new, y_new, k7
    return 0, t, y, steps


def integrate(spec):
    """Run one shooting trajectory and classify it.

    The integrator is the Dormand-Prince 5(4) pair (_dopri5: scipy
    RK45's coefficients and step control, run on Python floats), driven
    in chunks of CHUNK_LENGTH; each chunk's samples on the SAMPLE_STEP
    grid come from its dense output.  At every chunk boundary the state
    is renormalized onto the constraint set (see the module docstring)
    and the pre-projection defect is logged.  Events: "escaped" (an
    accepted step ended at max-norm ESCAPE_NORM or more; the crossing is
    bisected on that step's interpolant), "stiff-failure" (step-size
    underflow, also forced by a non-finite right-hand side; partial
    trajectory returned), "drift" (defect above DRIFT_FACTOR * rel_tol),
    "converged" (trailing window settled inside a decision ball, checked
    after every chunk from the new rows only; stops the run when
    stop_on_converged is set).
    """
    params = spec.params
    spin = spec.mode is not FlowClass.RICCI_FLAT
    chirality = _CHIRALITY.get(spec.mode)
    start = initial_state(spec)
    if spin:
        rhs = reduced_z_rhs(params, chirality)
        state = np.array(start.Z, dtype=float)
        con = zcons_constraint(params, chirality)
        face = boundary_face(params, chirality)
        locked = (face if face is not None
                  and _face_defect(face, state) < FACE_LOCK_TOL else None)
    else:
        rhs = flow_rhs(params)
        state = np.array(start.as_tuple(), dtype=float)
        con = crf_constraints(params)
        locked = None

    def rebuild(block):
        """Full rows and residual-log rows for a block of solver states."""
        cols = tuple(np.asarray(block, dtype=float).T)
        if spin:
            cols = x_from_z(params, cols, chirality) + cols
        res = residuals(params, PhaseState(cols[:4], cols[4:]))
        f_norm = np.max(np.abs(res.F), axis=0)
        h_norm = np.max(np.abs(res.H), axis=0)
        chiral = {FlowClass.SPIN_PLUS: f_norm,
                  FlowClass.SPIN_MINUS: h_norm}.get(
                      spec.mode, np.minimum(f_norm, h_norm))
        return np.column_stack(cols), np.column_stack(
            [np.abs(res.hyperplane), np.abs(res.conservation), chiral])

    chunks = []
    scan = (_DecisionScan(_limit_candidates(params))
            if spec.stop_on_converged else None)

    def add(grid, block):
        rows, res_rows = rebuild(block)
        chunks.append((grid, rows, res_rows))
        if scan is not None:
            scan.extend(grid, rows)

    add(np.zeros(1), [state])
    events = []
    eta = 0.0
    drift_logged = False
    while eta < spec.eta_max - 1e-12:
        top = min(eta + CHUNK_LENGTH, spec.eta_max)
        status, reached, end, steps = _dopri5(
            rhs, eta, state.tolist(), top, spec.rel_tol, spec.abs_tol)
        if status == 0:
            drift = float(np.max(np.abs(con(end)[0])))
            if locked is not None and _face_defect(locked, end) > \
                    FACE_RELEASE_TOL:
                locked = None
            state = _project(con, end, locked)
            if drift > DRIFT_FACTOR * spec.rel_tol and not drift_logged:
                events.append((reached, "drift"))
                drift_logged = True
        if reached > eta:
            grid = np.arange(eta + SAMPLE_STEP, reached + 1e-9, SAMPLE_STEP)
            if grid.size == 0 or reached - grid[-1] > 1e-9:
                grid = np.append(grid, reached)
            block = _dense(steps, np.minimum(grid, reached))
            if status == 0:
                block[-1] = state
            add(grid, block)
        if status == 1:
            events.append((reached, "escaped"))
            break
        if status != 0:
            events.append((reached, "stiff-failure"))
            break
        eta = top
        decided = scan.decision() if scan is not None else None
        if decided is not None:
            events.append((decided.eta_at_decision, "converged"))
            break

    etas, rows, res_rows = (np.concatenate(part)
                            for part in zip(*chunks))
    traj = Trajectory(
        spec=spec, etas=etas, states=rows, residual_log=res_rows,
        events=tuple(events), outcome=Asymptotics(OUTCOME_UNDETERMINED),
        face_lock=locked.name if locked is not None else None)
    outcome = classify(traj)
    if outcome.kind == OUTCOME_AC and traj.face_lock is not None:
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
    starts next to a cone point where one Z is zero).  A vanishing
    product at any later sample, or an eta that does not increase,
    raises ReconstructionDomainError naming the sample.
    """
    etas = np.asarray(traj.etas, dtype=float)
    states = np.asarray(traj.states, dtype=float)
    if etas.size < 3:
        raise InvalidRequestError("reconstruction needs at least 3 samples")
    stuck = np.nonzero(~(np.diff(etas) > 0.0))[0]
    if stuck.size:
        i = int(stuck[0]) + 1
        raise ReconstructionDomainError(
            "eta does not increase at sample %d (eta = %.6g after %.6g)"
            % (i, etas[i], etas[i-1]))
    z = states[:, 4:]
    prods = np.column_stack([z[:, 1]*z[:, 2], z[:, 0]*z[:, 2],
                             z[:, 0]*z[:, 1]])
    start = 0 if np.all(prods[0] > 0.0) else 1
    bad = np.nonzero(~np.all(prods[start:] > 0.0, axis=1))[0]
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
        a=trl_inv[sl] / np.sqrt(prods[sl, 0]),
        b=trl_inv[sl] / np.sqrt(prods[sl, 1]),
        c=trl_inv[sl] / np.sqrt(prods[sl, 2]),
        f=trl_inv[sl] * z[sl, 3],
        trl_inv=trl_inv[sl],
        gauge=float(gauge))


def worker_count(requested=None):
    """Worker cap: explicit argument, else SPIN7_THREADS, else cpu count.

    The cap is clamped to [1, os.cpu_count()], so no setting starts more
    worker processes than the machine has CPUs.
    """
    cpus = max(1, os.cpu_count() or 1)
    if requested is None:
        env = os.environ.get("SPIN7_THREADS", "").strip()
        if not env:
            return cpus
        try:
            requested = int(env)
        except ValueError:
            raise InvalidRequestError(
                "SPIN7_THREADS must be an integer, got %r" % env) from None
    return max(1, min(int(requested), cpus))


def quadrant_grid(count):
    """count interior directions of the open quadrant s1, s2 > 0."""
    if count < 1:
        raise InvalidRequestError("grid needs at least one point")
    half_pi = math.pi / 2.0
    return tuple(
        (math.cos(j * half_pi / (count + 1)),
         math.sin(j * half_pi / (count + 1)))
        for j in range(1, count + 1))


def _sweep_point(spec):
    return integrate(spec).outcome


def sweep(params, bundle_tag, mode, s_values, epsilon=1e-6, eta_max=200.0,
          rel_tol=1e-10, abs_tol=1e-12, workers=None):
    """Classify one run per direction; failures are recorded, not raised.

    Runs are independent and distributed over a process pool capped by
    worker_count(workers); results keep the input order regardless of
    completion order.
    """
    s_values = tuple(tuple(float(v) for v in s) for s in s_values)
    if not s_values:
        raise InvalidRequestError("sweep grid must be non-empty")
    specs = []
    failures = {}
    for i, s in enumerate(s_values):
        try:
            specs.append((i, ShootSpec(
                params=params, bundle=bundle_tag, mode=mode, s=s,
                epsilon=epsilon, eta_max=eta_max, rel_tol=rel_tol,
                abs_tol=abs_tol)))
        except Exception as exc:
            failures[i] = str(exc)
    outcomes = {}
    cap = min(worker_count(workers), max(1, len(specs)))
    if cap == 1 or len(specs) <= 1:
        for i, spec in specs:
            try:
                outcomes[i] = _sweep_point(spec)
            except Exception as exc:
                failures[i] = str(exc)
    else:
        with ProcessPoolExecutor(max_workers=cap) as pool:
            futures = [(i, pool.submit(_sweep_point, spec))
                       for i, spec in specs]
            for i, future in futures:
                try:
                    outcomes[i] = future.result()
                except Exception as exc:
                    failures[i] = str(exc)
    return tuple(
        SweepEntry(s=s_values[i], outcome=outcomes.get(i),
                   error=failures.get(i))
        for i in range(len(s_values)))
