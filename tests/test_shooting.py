"""Tests for shooting runs: setup, integration, classification, metrics."""

import dataclasses
import math
import os
import re
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from spin7flow.aw_algebra import AWParams, BundleTag
from spin7flow.critical_points import (_BUNDLE_CONES, FlowClass, catalog,
                                       unstable_frame)
from spin7flow.errors import (InvalidParameterError, InvalidRequestError,
                              ReconstructionDomainError)
from spin7flow import cli, shooting
from spin7flow.phase_system import (Chirality, PhaseState, _derivative_rows,
                                    crf_constraints, derivative, membership,
                                    residuals, x_from_z, zcons_constraint)
from spin7flow.shooting import (HORIZON_SLACK, MAX_DIRECTIONS, Asymptotics,
                                ShootSpec, Trajectory, classify, initial_state,
                                integrate, quadrant_grid, reconstruct_metric,
                                sweep, worker_count)

P32 = AWParams(3, 2)
P11 = AWParams(1, 1)

S_LINE = (-3.0 / math.sqrt(10.0), 1.0 / math.sqrt(10.0))
S_CURVE = (-1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))


@pytest.fixture(scope="module")
def traj_interior():
    return integrate(ShootSpec(params=P32, bundle="k+l", mode="spin+",
                               s=(0.6, 0.8)))


@pytest.fixture(scope="module")
def traj_line():
    return integrate(ShootSpec(params=P11, bundle="k+l", mode="spin+",
                               s=S_LINE))


@pytest.fixture(scope="module")
def traj_curve():
    return integrate(ShootSpec(params=P11, bundle="k", mode="spin-",
                               s=S_CURVE))


@pytest.fixture(scope="module")
def traj_minus():
    return integrate(ShootSpec(params=P32, bundle="k", mode="spin-",
                               s=(0.8, 0.6)))


@pytest.fixture(scope="module")
def traj_ricci():
    return integrate(ShootSpec(params=P32, bundle="k+l", mode="ricci",
                               s=(0.6, 0.8, 0.0)))


def test_spec_normalizes_s_and_rejects_zero():
    spec = ShootSpec(params=P32, bundle="k+l", mode="spin+", s=(3.0, 4.0))
    assert spec.s == pytest.approx((0.6, 0.8, 0.0), abs=1e-15)
    with pytest.raises(InvalidRequestError):
        ShootSpec(params=P32, bundle="k+l", mode="spin+", s=(0.0, 0.0))


def test_spec_rejects_s3_in_spin_modes():
    with pytest.raises(InvalidRequestError):
        ShootSpec(params=P32, bundle="k+l", mode="spin+", s=(0.6, 0.8, 0.1))
    spec = ShootSpec(params=P32, bundle="k+l", mode="ricci",
                     s=(0.6, 0.8, 0.1))
    assert abs(sum(v * v for v in spec.s) - 1.0) < 1e-12


def test_spec_epsilon_bounds():
    for bad in (0.0, -1e-6, 2e-2):
        with pytest.raises(InvalidRequestError):
            ShootSpec(params=P32, bundle="k+l", mode="spin+", s=(1.0, 0.0),
                      epsilon=bad)
    spec = ShootSpec(params=P32, bundle="k+l", mode="spin+", s=(1.0, 0.0),
                     epsilon=1e-2)
    assert spec.epsilon == 1e-2


@pytest.mark.parametrize("eta_max", [math.inf, math.nan, 0.0, -5.0])
def test_spec_rejects_nonfinite_or_nonpositive_eta_max(eta_max):
    # Construction only: an infinite horizon never reaches integrate.
    with pytest.raises(InvalidRequestError):
        ShootSpec((3, 2), "k+l", "spin+", (0.6, 0.8), eta_max=eta_max,
                  stop_on_converged=False)


@pytest.mark.parametrize("eta_max", [1e-13, 1e-12, 5e-324])
def test_horizon_without_a_chunk_is_refused(eta_max, monkeypatch):
    """integrate runs a chunk only while eta < eta_max - HORIZON_SLACK,
    so an eta_max at or below the slack is refused by ShootSpec and by
    sweep before any run, with a message that names eta_max."""
    monkeypatch.setenv("SPIN7_THREADS", "1")
    with pytest.raises(InvalidRequestError, match="eta_max"):
        ShootSpec(P32, "k+l", "spin+", (0.6, 0.8), eta_max=eta_max)
    with pytest.raises(InvalidRequestError, match="eta_max"):
        sweep(P32, "k+l", "spin+", [(0.6, 0.8)], eta_max=eta_max)


def test_shortest_horizon_runs_one_chunk():
    """Just above the slack, one chunk runs and the run is classified."""
    eta_max = math.nextafter(HORIZON_SLACK, math.inf)
    traj = integrate(ShootSpec(P32, "k+l", "spin+", (0.6, 0.8),
                               eta_max=eta_max))
    assert traj.etas.tolist() == [0.0, eta_max]
    assert traj.outcome.kind == "Undetermined"


def test_spec_rescales_a_direction_whose_squares_overflow():
    """(1e200, 1e200) squares to an infinite norm; it normalizes as
    (1, 1) does, and an ordinary direction keeps its bits."""
    huge = ShootSpec(P32, "k+l", "spin+", (1e200, 1e200))
    unit = ShootSpec(P32, "k+l", "spin+", (1.0, 1.0))
    assert huge.s == unit.s
    assert initial_state(huge) == initial_state(unit)
    assert ShootSpec(P32, "k+l", "spin+", (-1e308, 1e300)).s == \
        (-1.0, 1e300 / 1e308, 0.0)
    plain = ShootSpec(P32, "k+l", "spin+", (0.6, 0.8))
    norm = math.sqrt(0.6 * 0.6 + 0.8 * 0.8)
    assert plain.s == (0.6 / norm, 0.8 / norm, 0.0)


@pytest.mark.parametrize("s", [(math.inf, 1.0), (math.nan, 1.0),
                               (1.0, -math.inf)])
def test_spec_rejects_nonfinite_direction(s):
    with pytest.raises(InvalidRequestError):
        ShootSpec(P32, "k+l", "spin+", s)


@pytest.mark.parametrize("tol", [{"rel_tol": math.inf},
                                 {"abs_tol": math.inf},
                                 {"rel_tol": math.nan}, {"abs_tol": 0.0}])
def test_spec_requires_finite_positive_tolerances(tol):
    with pytest.raises(InvalidRequestError):
        ShootSpec(P32, "k+l", "spin+", (0.6, 0.8), **tol)


HUGE = Fraction(10 ** 400)  # past the float range


@pytest.mark.parametrize("name, value", [
    ("eta_max", HUGE), ("rel_tol", HUGE), ("abs_tol", HUGE),
    ("epsilon", HUGE), ("eta_max", "5x"), ("eta_max", None),
    ("rel_tol", "x"), ("abs_tol", 1j)])
def test_setting_that_is_no_float_is_refused_by_name(name, value,
                                                     monkeypatch):
    """A setting that float() refuses or that overflows a float raises
    InvalidRequestError naming it, from ShootSpec and from sweep, and
    sweep starts no run."""
    message = "%s is not a real number" % name
    with pytest.raises(InvalidRequestError, match=message):
        ShootSpec(P32, "k+l", "spin+", (0.6, 0.8), **{name: value})

    def no_run(spec):
        raise AssertionError("a run started")

    monkeypatch.setattr(shooting, "_sweep_point", no_run)
    monkeypatch.setenv("SPIN7_THREADS", "1")
    with pytest.raises(InvalidRequestError, match=message):
        sweep(P32, "k+l", "spin+", [(0.6, 0.8)], **{name: value})


@pytest.mark.parametrize("bad, name", [
    (("x", 1), "s1"), ((HUGE, 1), "s1"), ((None, 1), "s1"),
    ((1, "y"), "s2"), ((1.0, -HUGE), "s2")])
def test_bad_direction_fails_its_own_sweep_row(bad, name, monkeypatch):
    with pytest.raises(InvalidRequestError, match=name):
        ShootSpec(P32, "k+l", "spin+", bad)
    monkeypatch.setenv("SPIN7_THREADS", "1")
    table = sweep(P32, "k+l", "spin+", [(0.6, 0.8), bad, (0.8, 0.6)],
                  eta_max=150.0)
    assert table[1] == shooting.SweepEntry(
        s=bad, error="%s is not a real number that fits a float" % name)
    for entry in (table[0], table[2]):
        assert entry.error is None
        assert entry.outcome.limit_label == "P1"


def _run_bytes(traj):
    return (traj.etas.tobytes(), traj.states.tobytes(),
            traj.residual_log.tobytes(), traj.events, traj.outcome,
            traj.face_lock)


@pytest.mark.parametrize("given", [
    {"eta_max": Fraction(25)}, {"eta_max": 25}, {"eta_max": "25"},
    {"epsilon": Fraction(1, 10 ** 6), "rel_tol": Fraction(1, 10 ** 10),
     "abs_tol": Fraction(1, 10 ** 12)},
    {"epsilon": "1e-6", "rel_tol": "1e-10", "abs_tol": "1e-12"},
    {"s": (Fraction(3, 5), "0.8")}, {"s": (3, 4)}])
def test_exact_and_text_inputs_run_as_their_floats(given):
    """ShootSpec stores every setting and direction component as a float,
    so an int, Fraction or numeric str gives the bytes of its float."""
    base = {"s": (0.6, 0.8), "eta_max": 25.0}
    floats = {name: (tuple(map(float, value)) if name == "s"
                     else float(value)) for name, value in given.items()}
    spec = ShootSpec(P32, "k+l", "spin+", **{**base, **given})
    plain = ShootSpec(P32, "k+l", "spin+", **{**base, **floats})
    assert spec == plain
    for name in shooting._SETTINGS:
        assert type(getattr(spec, name)) is float
    assert all(type(v) is float for v in spec.s)
    assert _run_bytes(integrate(spec)) == _run_bytes(integrate(plain))


def test_one_bundle_table_sets_cone_chirality_and_cli_mode():
    """Each bundle's cone label, the spin mode its unstable frame takes
    and the CLI's default --mode all come from the one table; the other
    spin mode is refused.  (1, 0) has no l-bundle."""
    assert {tag.value: (label, chirality.value)
            for tag, (label, chirality) in _BUNDLE_CONES.items()} == {
        "k+l": ("P0_KplusL", "spin+"), "k": ("P0_K", "spin-"),
        "l": ("P0_L", "spin-")}
    parser = cli.build_parser()
    for params in (P32, AWParams(1, 0)):
        for tag, (label, chirality) in _BUNDLE_CONES.items():
            if tag is BundleTag.L and params.l == 0:
                with pytest.raises(InvalidParameterError):
                    ShootSpec(params, tag.value, "ricci", (1.0, 0.0))
                continue
            mode = chirality.value
            other = "spin-" if mode == "spin+" else "spin+"
            assert ShootSpec(params, tag.value, mode,
                             (1.0, 0.0)).cone_label == label
            assert len(unstable_frame(params, label, mode)) == 2
            refused = re.escape(
                "%s does not lie on the %s constraint set; its chirality "
                "is %s" % (label, other, mode))
            with pytest.raises(InvalidRequestError, match=refused):
                unstable_frame(params, label, other)
            with pytest.raises(InvalidRequestError, match=refused):
                initial_state(ShootSpec(params, tag.value, other, (1.0, 0.0)))
            args = parser.parse_args(["classify", "--k", str(params.k),
                                      "--l", str(params.l),
                                      "--bundle", tag.value])
            assert cli._mode(args) == mode


def _face_defect(face, z):
    return max(abs(v) for v in face.equations(z))


@pytest.mark.parametrize("chirality, bundle, s", [
    (Chirality.PLUS, "k+l", S_LINE), (Chirality.MINUS, "k", S_CURVE)])
def test_project_reports_constraint_defect_and_meets_face(chirality, bundle,
                                                          s):
    """The defect _project returns is max|con| at its input, without the
    face equations; the projected point satisfies con and the face."""
    con = zcons_constraint(P11, chirality)
    face = shooting.boundary_face(P11, chirality)
    z0 = initial_state(ShootSpec(P11, bundle, chirality.value, s)).Z
    z = [v + 1e-7 * (j + 1) for j, v in enumerate(z0)]
    assert _face_defect(face, z) > max(abs(v) for v in con(z))
    for locked in (None, face):
        v, defect = shooting._project(con, z, locked)
        assert defect == float(np.max(np.abs(con(z))))
        assert abs(con(v.tolist())[0]) < shooting.PROJECTION_TARGET
        if locked is not None:
            assert _face_defect(face, v) < shooting.PROJECTION_TARGET


P10 = AWParams(1, 0)
# (constraint, locked face or None, coordinates) of every projection
PROJECTIONS = {
    "(3,2) zcons+": (zcons_constraint(P32, Chirality.PLUS), None, 4),
    "(3,2) zcons-": (zcons_constraint(P32, Chirality.MINUS), None, 4),
    "(1,0) zcons+": (zcons_constraint(P10, Chirality.PLUS), None, 4),
    "(1,0) zcons-": (zcons_constraint(P10, Chirality.MINUS), None, 4),
    "(1,1) line": (zcons_constraint(P11, Chirality.PLUS),
                   shooting.boundary_face(P11, Chirality.PLUS), 4),
    "(1,1) curve": (zcons_constraint(P11, Chirality.MINUS),
                    shooting.boundary_face(P11, Chirality.MINUS), 4),
    "(3,2) ricci": (crf_constraints(P32), None, 8),
    "(1,0) ricci": (crf_constraints(P10), None, 8),
}


@settings(max_examples=300, deadline=None)
@given(case=st.sampled_from(sorted(PROJECTIONS)),
       y=st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, -2.5]),
                            st.floats(-10.0, 10.0),
                            st.floats(-1e40, 1e40)),
                  min_size=8, max_size=8))
def test_projection_kernel_rows_are_the_dual_rows(case, y):
    """_project's Jacobian, run from the kernel traced from the
    constraint's body (joined by a locked face's equations), equals the
    rows of derivative's duals byte for byte up to the sign of a zero:
    at exact zeros (of either sign) and with (1, 0)'s zero coefficient.
    The duals skip a term whose factor is 0.0 when they run, the kernel
    only one whose factor is an exact-zero input, so where an
    intermediate underflows or cancels to zero the kernel adds a term
    of +-0 that can flip a zero's sign.  Coordinates stay below 1e40,
    so no product of degree 6 overflows, where the duals would form
    0.0 * inf = NaN instead."""
    con, face, n = PROJECTIONS[case]
    point = y[:n]
    body, (c,) = con.func, con.args
    fun = con
    if face is not None:
        body = shooting._with_face(body, face.equations)
        fun = lambda t: con(t) + face.equations(t)  # noqa: E731
    want = np.array(derivative(fun, point), dtype=float)
    got = np.array(_derivative_rows(body, c, point), dtype=float)
    assert got.shape == want.shape == (len(fun(point)), n)
    # adding 0.0 turns -0.0 into 0.0 and keeps every other bit
    assert (got + 0.0).tobytes() == (want + 0.0).tobytes()


@settings(max_examples=200, deadline=None)
@given(case=st.sampled_from(sorted(PROJECTIONS)),
       y=st.lists(st.floats(-3.0, 3.0), min_size=8, max_size=8),
       r=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))
def test_least_norm_step_matches_lstsq(case, y, r):
    """The projection's step, solved on Python floats, is the least-norm
    solution lstsq gives, for the Jacobians of every projection at
    random points where the rows are well conditioned (condition number
    below 1e3: the Gram matrix squares it, and lstsq drops singular
    values below its own cutoff)."""
    con, face, n = PROJECTIONS[case]
    body, (c,) = con.func, con.args
    if face is not None:
        body = shooting._with_face(body, face.equations)
    rows = [list(row) for row in _derivative_rows(body, c, y[:n])]
    assume(np.linalg.cond(np.array(rows)) < 1e3)
    got = shooting._least_norm_step(rows, r[:len(rows)])
    want = np.linalg.lstsq(np.array(rows), np.array(r[:len(rows)]),
                           rcond=None)[0]
    assert np.max(np.abs(np.array(got) - want)) <= \
        1e-9 * max(1.0, np.max(np.abs(want)))


def test_kernel_and_duals_part_at_an_underflow_and_an_overflow():
    """Pinned points where the kernel rows and the dual rows part: an
    intermediate that underflows to zero gives the kernel -0.0 for the
    duals' 0; and at (1, 0), Z2 = 1.9e154 and a zero Z4, the Ricci
    constraints' conservation row in Z4 meets a product that overflows
    to inf, which the duals multiply by 0.0 into NaN and the kernel,
    skipping the exact-zero input, leaves out (0)."""
    con = PROJECTIONS["(3,2) zcons+"][0]
    y = [-1e-200, 1e-200, 0.0, 1.0]
    (want,), (got,) = derivative(con, y), _derivative_rows(con.func,
                                                            *con.args, y)
    assert want == got == (2.0, 2.0, 2.0, 0.0)
    assert math.copysign(1.0, want[3]) == 1.0
    assert math.copysign(1.0, got[3]) == -1.0
    con = PROJECTIONS["(1,0) ricci"][0]
    y = [0.0] * 5 + [1.9e154, 0.0, 0.0]
    want, got = derivative(con, y), _derivative_rows(con.func, *con.args, y)
    assert want[0] == got[0]
    assert want[1][:7] == got[1][:7]
    assert math.isnan(want[1][7]) and got[1][7] == 0.0


def test_boundary_face_gradients_come_from_its_equations():
    z = [0.25, 0.5, 0.125, 4.0]
    line = shooting.boundary_face(P11, Chirality.PLUS)
    curve = shooting.boundary_face(P11, Chirality.MINUS)
    assert derivative(line.equations, z) == ((0, 1, -1, 0), (3.0, 3.0, 0, 0))
    assert derivative(curve.equations, z) == ((-1, 1, 1, 0),
                                              (0, 4.0, 4.0, 0.625))
    assert shooting.boundary_face(P32, Chirality.PLUS) is None


def test_initial_state_offset_is_corrected_at_second_order():
    eps = 1e-6
    spec = ShootSpec(params=P32, bundle="k+l", mode="spin+", s=(1.0, 0.0),
                     epsilon=eps)
    got = np.array(initial_state(spec).as_floats())
    p0 = np.array(catalog(P32).get("P0_KplusL").state.as_floats())
    v1 = np.array([float(c) for c in
                   unstable_frame(P32, "P0_KplusL", "spin+")[0].vector])
    v1 = v1 / np.max(np.abs(v1))
    assert np.max(np.abs(got - (p0 + eps * v1))) <= 100.0 * eps * eps


def test_initial_state_shrinks_to_cone_point():
    spec = ShootSpec(params=P32, bundle="k+l", mode="spin+", s=(1.0, 0.0),
                     epsilon=1e-12)
    got = np.array(initial_state(spec).as_floats())
    p0 = np.array(catalog(P32).get("P0_KplusL").state.as_floats())
    assert np.max(np.abs(got - p0)) <= 1e-11


def test_initial_state_boundary_tangency():
    spec = ShootSpec(params=P11, bundle="k+l", mode="spin+", s=S_LINE)
    z = initial_state(spec).Z
    assert abs(z[1] - z[2]) <= 1e-10
    assert abs(math.sqrt(z[1] * z[2]) * z[3] - 3.0) <= 1e-10


def test_interior_run_reaches_sink_inside_invariant_set(traj_interior):
    out = traj_interior.outcome
    assert out.kind == "ALC"
    assert out.limit_label == "P1"
    assert out.limit_distance <= 1e-6
    for _, state in traj_interior.samples[::5]:
        assert membership(P32, state, "SCheck", tol=1e-7).ok
    assert np.max(traj_interior.residual_log[:, :2]) <= 1e-8


def test_interior_run_is_deterministic(traj_interior):
    again = integrate(ShootSpec(params=P32, bundle="k+l", mode="spin+",
                                s=(0.6, 0.8)))
    assert np.array_equal(again.etas, traj_interior.etas)
    assert np.array_equal(again.states, traj_interior.states)
    assert again.outcome == traj_interior.outcome


def test_boundary_run_locks_line_face(traj_line):
    out = traj_line.outcome
    assert out.kind == "AC"
    assert out.limit_label == "AC_2"
    assert out.limit_distance <= 1e-6
    assert traj_line.face_lock == "boundary-line"
    assert out.note != ""
    z = traj_line.states[:, 4:]
    assert np.max(np.abs(z[:, 1] - z[:, 2])) <= 1e-7
    assert np.max(np.abs(3.0 * z[:, 0] + 3.0 * z[:, 1] - 1.0)) <= 1e-7


def test_boundary_run_locks_curve_face(traj_curve):
    out = traj_curve.outcome
    assert out.kind == "AC"
    assert out.limit_label == "AC_1"
    assert out.limit_distance <= 1e-6
    assert traj_curve.face_lock == "boundary-curve"
    z = traj_curve.states[:, 4:]
    assert np.max(np.abs(z[:, 1] + z[:, 2] - z[:, 0])) <= 1e-7
    assert np.max(np.abs((z[:, 1] + z[:, 2]) * z[:, 3] - 6.0)) <= 1e-6


# (mode, boundary direction in s) of each (1, 1) bundle
BOUNDARY_DIRECTIONS = {"k+l": ("spin+", S_LINE), "k": ("spin-", S_CURVE),
                       "l": ("spin-", S_CURVE)}


def _turned(s, angle):
    """s turned by angle in the (s1, s2) plane."""
    theta = math.atan2(s[1], s[0]) + angle
    return math.cos(theta), math.sin(theta)


@pytest.mark.parametrize("side", [-1, 1], ids=["minus", "plus"])
@pytest.mark.parametrize("d", [1e-6, 1e-5, 3e-5, 1e-4])
@pytest.mark.parametrize("bundle", sorted(BOUNDARY_DIRECTIONS))
def test_nudged_run_does_not_lock(bundle, d, side):
    """A direction d radians off the boundary direction runs unlocked,
    however small its start's face defect: it ends at the ALC sink on
    the minus side and escapes on the plus side."""
    mode, s = BOUNDARY_DIRECTIONS[bundle]
    traj = integrate(ShootSpec(P11, bundle, mode, _turned(s, side * d)))
    assert traj.face_lock is None
    want = ("ALC", "P1") if side < 0 else ("Escape", None)
    assert (traj.outcome.kind, traj.outcome.limit_label) == want


@pytest.mark.parametrize("bundle, face, label", [
    ("k+l", "boundary-line", "AC_2"), ("k", "boundary-curve", "AC_1")])
def test_separatrix_runs_stay_locked_at_coarse_tolerances(bundle, face,
                                                          label):
    """The lock is fixed by the direction, so a boundary run keeps it
    and ends at its conical limit at coarse tolerances too."""
    mode, s = BOUNDARY_DIRECTIONS[bundle]
    traj = integrate(ShootSpec(P11, bundle, mode, s, rel_tol=1e-6,
                               abs_tol=1e-9))
    assert traj.face_lock == face
    assert (traj.outcome.kind, traj.outcome.limit_label) == ("AC", label)


def test_tangency_bound_separates_boundary_directions(monkeypatch):
    """Every (1, 1) cone point lies on its bundle's face.  The boundary
    direction still locks under a bound 100 times tighter, and a
    direction 1e-8 radians off stays unlocked under one 100 times
    looser.  Other orbits have no face and never lock."""
    tol = shooting.TANGENCY_TOL
    cat = catalog(P11)
    for bundle, (mode, s) in BOUNDARY_DIRECTIONS.items():
        spec = ShootSpec(P11, bundle, mode, s)
        face = shooting.boundary_face(P11, Chirality(mode))
        assert face.equations(cat.get(spec.cone_label).state.Z) == (0, 0)
        monkeypatch.setattr(shooting, "TANGENCY_TOL", tol / 100)
        assert shooting._locked_face(spec) is face
        monkeypatch.setattr(shooting, "TANGENCY_TOL", tol * 100)
        for side in (-1, 1):
            nudged = dataclasses.replace(spec, s=_turned(s, side * 1e-8))
            assert shooting._locked_face(nudged) is None
    assert shooting._face_gradients(1, 1, "P0_K") is \
        shooting._face_gradients(1, 1, "P0_K")
    assert shooting._locked_face(ShootSpec(P32, "k", "spin-", (1, 0))) is None


def test_classify_constant_trajectory_at_sink():
    p1 = np.array(catalog(P11).get("P1").state.as_floats())
    n = 11
    traj = Trajectory(spec=None, etas=np.arange(n) * 0.05,
                      states=np.tile(p1, (n, 1)),
                      residual_log=np.zeros((n, 3)), events=(),
                      outcome=Asymptotics("Undetermined"))
    out = classify(traj, params=P11)
    assert out.kind == "ALC"
    assert out.limit_label == "P1"
    assert out.eta_at_decision == 0.0


@pytest.mark.parametrize("pattern", [
    "1" * 7, "0" + "1" * 6, "1" * 30 + "0", "0" * 20 + "1" * 101,
    "0" * 20 + "1" * 100, "1" * 50 + "0" + "1" * 101,
    "10" * 40 + "1" * 120])
def test_classify_decision_starts_after_last_outside_sample(pattern):
    inside = np.array([c == "1" for c in pattern])
    n = len(inside)
    etas = np.arange(n) * 0.05
    states = np.tile(catalog(P11).get("P1").state.as_floats(), (n, 1))
    states[~inside] += 1e-3
    traj = Trajectory(spec=None, etas=etas, states=states,
                      residual_log=np.zeros((n, 3)), events=(),
                      outcome=Asymptotics("Undetermined"))
    out = classify(traj, params=P11)
    run_start = n - 1
    while run_start > 0 and inside[run_start - 1]:
        run_start -= 1
    if inside[-1] and (run_start == 0
                       or etas[-1] - etas[run_start] >= 5.0 - 1e-9):
        assert (out.kind, out.limit_label) == ("ALC", "P1")
        assert out.eta_at_decision == etas[run_start]
    else:
        assert out.kind == "Undetermined"


def test_classify_escape_from_norm_crossing():
    p1 = np.array(catalog(P11).get("P1").state.as_floats())
    states = np.tile(p1, (8, 1))
    states[5:] = 2.0e3
    traj = Trajectory(spec=None, etas=np.arange(8) * 0.05, states=states,
                      residual_log=np.zeros((8, 3)), events=(),
                      outcome=Asymptotics("Undetermined"))
    out = classify(traj, params=P11)
    assert out.kind == "Escape"
    assert out.eta_at_decision == pytest.approx(0.25)


def test_below_boundary_run_fails_or_escapes():
    s = (-0.975, math.sqrt(1.0 - 0.975 ** 2))
    traj = integrate(ShootSpec(params=P11, bundle="k+l", mode="spin+", s=s))
    assert traj.outcome.kind in ("Escape", "Undetermined")
    kinds = {kind for _, kind in traj.events}
    assert kinds & {"escaped", "stiff-failure"}


def test_ricci_mode_run(traj_ricci):
    out = traj_ricci.outcome
    assert out.kind == "ALC"
    assert out.limit_label == "P1"
    assert np.max(traj_ricci.residual_log[:, :2]) <= 1e-8
    assert np.min(traj_ricci.states[:, 3]) >= -1e-9


def test_trajectory_arrays_are_read_only(traj_interior):
    with pytest.raises(ValueError):
        traj_interior.states[0, 0] = 0.0
    eta0, state0 = traj_interior.samples[0]
    assert eta0 == 0.0
    assert isinstance(state0, PhaseState)


@pytest.mark.parametrize("name", ["traj_interior", "traj_minus",
                                  "traj_ricci"])
def test_samples_match_scalar_evaluators(name, request):
    """Each stored row equals a scalar evaluation of itself, bit for bit."""
    traj = request.getfixturevalue(name)
    chirality = {"spin+": Chirality.PLUS,
                 "spin-": Chirality.MINUS}.get(traj.spec.mode.value)
    for row, logged in zip(traj.states, traj.residual_log):
        row = [float(v) for v in row]
        if chirality is not None:
            assert list(x_from_z(P32, tuple(row[4:]), chirality)) == row[:4]
        res = residuals(P32, PhaseState.from_sequence(row))
        f_norm = max(abs(v) for v in res.F)
        h_norm = max(abs(v) for v in res.H)
        chiral = {Chirality.PLUS: f_norm,
                  Chirality.MINUS: h_norm}.get(chirality, min(f_norm, h_norm))
        assert [abs(res.hyperplane), abs(res.conservation), chiral] == \
            [float(v) for v in logged]


def test_integrate_drops_zero_width_chunk(monkeypatch):
    """A chunk that fails at its own start adds no sample."""
    dop853 = shooting._dop853
    calls = []

    def failing_second_chunk(fun, t, y, t_bound, rtol, atol, h_abs):
        calls.append((t, t_bound))
        if len(calls) == 2:
            return -1, t, y, [], h_abs
        return dop853(fun, t, y, t_bound, rtol, atol, h_abs)

    monkeypatch.setattr(shooting, "_dop853", failing_second_chunk)
    traj = integrate(ShootSpec(params=P32, bundle="k+l", mode="spin+",
                               s=(0.6, 0.8)))
    samples = round(shooting.CHUNK_LENGTH / shooting.SAMPLE_STEP) + 1
    assert traj.events[-1] == (shooting.CHUNK_LENGTH, "stiff-failure")
    assert traj.etas.size == samples
    assert np.all(np.diff(traj.etas) > 0.0)
    assert reconstruct_metric(traj).t.size == samples


GRID_RUNS = [
    (ShootSpec(P32, "k+l", "spin+", (0.6, 0.8)), None),
    (ShootSpec(P32, "k", "spin-", (0.3, 0.95), stop_on_converged=False),
     None),
    (ShootSpec(P32, "k+l", "ricci", (0.6, 0.8, 0.0), eta_max=33.33,
               stop_on_converged=False), 33.33),
    (ShootSpec(P11, "k", "spin-", (-0.9, 0.3)), "escaped"),
]


@pytest.mark.parametrize("spec, end", GRID_RUNS)
def test_sample_eta_is_its_grid_index(spec, end):
    """Every sample lies at eta = k / round(1 / SAMPLE_STEP) for an
    integer k, but a last sample that ends the run off the grid: the
    escape's crossing, or an eta_max between grid points."""
    per_unit = round(1 / shooting.SAMPLE_STEP)
    traj = integrate(spec)
    on_grid = traj.etas[:-1] if end is not None else traj.etas
    index = np.round(on_grid * per_unit)
    assert np.array_equal(on_grid, index / per_unit)
    assert np.array_equal(index, np.arange(index.size))
    if end == "escaped":
        assert traj.events[-1] == (traj.etas[-1], "escaped")
    elif end is not None:
        assert traj.etas[-1] == end


def test_sample_etas_do_not_depend_on_the_chunk_length(monkeypatch):
    """A full-horizon run's eta column is byte-identical at chunk
    lengths 5 and 10, each a whole number of sample steps."""
    spec = ShootSpec(P32, "k+l", "spin+", (0.95, 0.3),
                     stop_on_converged=False)
    assert (shooting.CHUNK_LENGTH / shooting.SAMPLE_STEP).is_integer()
    columns = []
    for length in (5.0, 10.0):
        monkeypatch.setattr(shooting, "CHUNK_LENGTH", length)
        columns.append(integrate(spec).etas.tobytes())
    assert columns[0] == columns[1]


MARGIN_RUNS = [
    (P11, "k+l", "spin+", S_LINE),
    (P11, "k", "spin-", S_CURVE),
    (P32, "k+l", "spin+", (0.6, 0.8)),
    (P32, "k", "spin-", (0.6, 0.8)),
    (P32, "k+l", "ricci", (0.6, 0.8, 0.0)),
]


def test_chunk_length_keeps_a_tenfold_margin(monkeypatch):
    """At the default tolerances, over the (1, 1) separatrix runs and
    (3, 2) spin and Ricci-flat runs, every pre-projection defect stays a
    tenth of the drift bound, the margin that bounds CHUNK_LENGTH.  A
    locked run stays on its face between projections: its
    pre-projection face defect stays below 1e-9 (at most 2.4e-10
    measured)."""
    project = shooting._project
    drifts, faces = [], []

    def recorded_project(con, v, face=None):
        if face is not None:
            faces.append(_face_defect(face, v))
        state, defect = project(con, v, face)
        drifts.append(defect)
        return state, defect

    monkeypatch.setattr(shooting, "_project", recorded_project)
    for params, bundle, mode, s in MARGIN_RUNS:
        integrate(ShootSpec(params, bundle, mode, s))
    assert max(drifts) <= shooting.DRIFT_FACTOR * ShootSpec.rel_tol / 10
    assert faces and max(faces) <= 1e-9


def test_reconstruct_constant_g_closed_form():
    """Constant X makes G constant, so 1/trL and t are exponentials."""
    etas = np.concatenate([np.arange(0.0, 10.0, 0.05), [10.0, 10.02]])
    x = np.array([0.1, 0.2, 0.1, 0.3])
    g = 2.0 * float(np.sum(x[:3] ** 2)) + x[3] ** 2
    states = np.tile(np.concatenate([x, [0.3, 0.2, 0.1, 2.0]]),
                     (etas.size, 1))
    prof = reconstruct_metric(SimpleNamespace(etas=etas, states=states),
                              gauge=2.0)
    grow = np.exp(g * etas)
    assert np.max(np.abs(prof.trl_inv / (2.0 * grow) - 1.0)) <= 1e-8
    assert np.max(np.abs(prof.t / (2.0 / g * grow) - 1.0)) <= 1e-8


def test_reconstruct_cone_anchor(traj_interior):
    prof = reconstruct_metric(traj_interior)
    assert np.all(np.diff(prof.t) > 0.0)
    target = 2.0 * P32.delta / 5.0
    assert abs(prof.f[0] / prof.t[0] - target) <= 0.05 * target
    assert abs(prof.a[0] / prof.t[0] - 1.0) <= 1e-3


def test_reconstruct_gauge_doubling(traj_interior):
    one = reconstruct_metric(traj_interior, gauge=1.0)
    two = reconstruct_metric(traj_interior, gauge=2.0)
    for name in ("t", "a", "b", "c", "f", "trl_inv"):
        assert np.array_equal(getattr(two, name), 2.0 * getattr(one, name))


def test_reconstruct_exact_gauge_gives_the_float_profile(traj_interior):
    exact = reconstruct_metric(traj_interior, gauge=Fraction(1))
    one = reconstruct_metric(traj_interior, gauge=1.0)
    assert exact.gauge == 1.0 and isinstance(exact.gauge, float)
    for name in ("t", "a", "b", "c", "f", "trl_inv"):
        assert getattr(exact, name).dtype == np.float64
        assert np.array_equal(getattr(exact, name), getattr(one, name))


def test_reconstruct_rejects_vanishing_z_product():
    traj = integrate(ShootSpec(params=P32, bundle="k+l", mode="spin+",
                               s=(0.6, 0.8), eta_max=10.0))
    states = traj.states.copy()
    states[100, 4] = 0.0
    bad = dataclasses.replace(traj, states=states)
    with pytest.raises(ReconstructionDomainError) as err:
        reconstruct_metric(bad)
    assert "sample 100" in str(err.value)


@pytest.mark.parametrize("column, value", [(0, math.nan), (1, math.inf),
                                           (5, math.nan), (8, -math.inf)])
def test_reconstruct_rejects_non_finite_samples(column, value):
    traj = integrate(ShootSpec(params=P32, bundle="k+l", mode="spin+",
                               s=(0.6, 0.8), eta_max=10.0))
    table = np.column_stack([traj.etas, traj.states])
    table[40, column] = value
    bad = SimpleNamespace(etas=table[:, 0], states=table[:, 1:])
    with pytest.raises(ReconstructionDomainError) as err:
        reconstruct_metric(bad)
    assert str(err.value) == "non-finite eta or state entry at sample 40"


@pytest.mark.parametrize("gauge", [0.0, -1.0, math.inf, math.nan])
def test_reconstruct_rejects_gauge_outside_positive_reals(traj_interior,
                                                          gauge):
    with pytest.raises(InvalidRequestError, match="gauge"):
        reconstruct_metric(traj_interior, gauge=gauge)


@pytest.mark.parametrize("gauge", [Fraction(10 ** 400),
                                   Fraction(-10 ** 400)])
def test_reconstruct_rejects_exact_gauge_past_float_range(traj_interior,
                                                         gauge):
    with pytest.raises(InvalidRequestError, match="gauge"):
        reconstruct_metric(traj_interior, gauge=gauge)


def test_sweep_is_ordered_and_classified(monkeypatch):
    monkeypatch.setenv("SPIN7_THREADS", "1")
    grid = quadrant_grid(3)
    table = sweep(P32, "k+l", "spin+", grid, eta_max=150.0)
    assert tuple(entry.s for entry in table) == grid
    for entry in table:
        assert entry.error is None
        assert entry.outcome.kind == "ALC"
        assert entry.outcome.limit_label == "P1"


def test_sweep_pool_matches_inline(monkeypatch):
    grid = quadrant_grid(2)
    monkeypatch.setenv("SPIN7_THREADS", "1")
    inline = sweep(P32, "k+l", "spin+", grid, eta_max=150.0)
    monkeypatch.setenv("SPIN7_THREADS", "2")
    pooled = sweep(P32, "k+l", "spin+", grid, eta_max=150.0)
    assert pooled == inline


def test_sweep_records_bad_points(monkeypatch):
    monkeypatch.setenv("SPIN7_THREADS", "1")
    table = sweep(P32, "k+l", "spin+", [(1.0, 0.0), (0.0, 0.0)],
                  eta_max=20.0)
    assert table[0].error is None
    assert table[1].outcome is None
    assert table[1].error is not None


@pytest.mark.parametrize("shared, error, message", [
    ({"mode": "bogus"}, InvalidRequestError, "unknown flow class"),
    ({"mode": None}, InvalidRequestError, "unknown flow class"),
    ({"bundle": "zz"}, InvalidParameterError, "unknown bundle tag"),
    ({"params": (3, 2, 1)}, InvalidRequestError, "pair"),
    ({"params": (2, 3)}, InvalidParameterError, "k >= l")])
def test_bad_shared_input_is_refused_before_any_run(shared, error, message,
                                                    monkeypatch):
    """A bad orbit, bundle or mode raises a package error from ShootSpec,
    and from sweep before any run, not as an error on every row."""
    given = {"params": P32, "bundle": "k+l", "mode": "spin+", **shared}
    with pytest.raises(error, match=message):
        ShootSpec(s=(0.6, 0.8), **given)

    def no_run(spec):
        raise AssertionError("a run started")

    monkeypatch.setattr(shooting, "_sweep_point", no_run)
    monkeypatch.setenv("SPIN7_THREADS", "1")
    with pytest.raises(error, match=message):
        sweep(given["params"], given["bundle"], given["mode"],
              [(0.6, 0.8), (0.8, 0.6)])


def test_sweep_refuses_a_mode_off_its_cone_before_any_run(monkeypatch):
    """A spin mode that is not the chirality of the bundle's cone point
    raises from sweep before any run, as classify refuses it, not as an
    error on every row."""

    def no_run(spec):
        raise AssertionError("a run started")

    monkeypatch.setattr(shooting, "_sweep_point", no_run)
    monkeypatch.setenv("SPIN7_THREADS", "1")
    with pytest.raises(InvalidRequestError,
                       match="P0_KplusL does not lie on the spin- constraint"):
        sweep(P32, "k+l", "spin-", [(0.6, 0.8), (0.8, 0.6)])


def test_sweep_refuses_more_than_max_directions_before_any_run(
        monkeypatch):
    """More than MAX_DIRECTIONS directions raise from sweep, naming the
    cap, before any run or worker process starts."""

    def no_run(*args):
        raise AssertionError("a run or a pool started")

    monkeypatch.setattr(shooting, "_sweep_point", no_run)
    monkeypatch.setattr(shooting, "worker_count", no_run)
    with pytest.raises(InvalidRequestError,
                       match="1..%d directions, got %d" % (
                           MAX_DIRECTIONS, MAX_DIRECTIONS + 1)):
        sweep(P32, "k+l", "spin+", [(0.6, 0.8)] * (MAX_DIRECTIONS + 1))


def test_direction_that_is_no_sequence_is_refused(monkeypatch):
    with pytest.raises(InvalidRequestError, match="s must be a sequence"):
        ShootSpec(P32, "k+l", "spin+", None)
    monkeypatch.setenv("SPIN7_THREADS", "1")
    table = sweep(P32, "k+l", "spin+", [None, (0.6, 0.8)], eta_max=150.0)
    assert table[0].s is None
    assert table[0].error.startswith("s must be a sequence")
    assert table[1].outcome.limit_label == "P1"


@pytest.mark.parametrize("text", ["10", "0.6,0.8", b"10", bytearray(b"10")],
                         ids=["str", "comma str", "bytes", "bytearray"])
def test_direction_given_as_text_is_refused(text, monkeypatch):
    """A str, bytes or bytearray direction is refused, not read as its
    characters or bytes; in a sweep it fails only its own row."""
    with pytest.raises(InvalidRequestError, match="s must be a sequence"):
        ShootSpec(P32, "k+l", "spin+", text)
    monkeypatch.setenv("SPIN7_THREADS", "1")
    table = sweep(P32, "k+l", "spin+", [text, (0.6, 0.8)], eta_max=150.0)
    assert table[0].s == text and table[0].outcome is None
    assert table[0].error.startswith("s must be a sequence")
    assert table[1].error is None
    assert table[1].outcome.limit_label == "P1"


def test_spec_takes_a_pair_and_a_flow_class():
    spec = ShootSpec((3, 2), "k+l", FlowClass.SPIN_PLUS, (0.6, 0.8))
    assert spec == ShootSpec(P32, "k+l", "spin+", (0.6, 0.8))


def test_quadrant_grid_unit_directions():
    grid = quadrant_grid(8)
    assert len(grid) == 8
    for s1, s2 in grid:
        assert s1 > 0.0 and s2 > 0.0
        assert abs(s1 * s1 + s2 * s2 - 1.0) <= 1e-12


@pytest.mark.parametrize("count", [2.5, 3.0, "3", None, 0, -1,
                                   MAX_DIRECTIONS + 1])
def test_quadrant_grid_refuses_a_bad_count(count):
    # MAX_DIRECTIONS itself is a valid count.
    assert len(quadrant_grid(MAX_DIRECTIONS)) == MAX_DIRECTIONS
    with pytest.raises(InvalidRequestError):
        quadrant_grid(count)


def test_worker_count_env(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setenv("SPIN7_THREADS", "3")
    assert worker_count() == 3
    monkeypatch.setenv("SPIN7_THREADS", "zero")
    with pytest.raises(InvalidRequestError):
        worker_count()
    monkeypatch.delenv("SPIN7_THREADS")
    assert worker_count() >= 1


def test_worker_count_clamps_to_cpu_count(monkeypatch):
    cpus = max(1, os.cpu_count() or 1)
    monkeypatch.setenv("SPIN7_THREADS", str(10 ** 9))
    assert worker_count() == cpus
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert worker_count() == 3
