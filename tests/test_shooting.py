"""Tests for shooting runs: setup, integration, classification, metrics."""

import dataclasses
import math
import os
from types import SimpleNamespace

import numpy as np
import pytest

from spin7flow.aw_algebra import AWParams
from spin7flow.critical_points import catalog, unstable_frame
from spin7flow.errors import InvalidRequestError, ReconstructionDomainError
from spin7flow import shooting
from spin7flow.phase_system import (Chirality, PhaseState, membership,
                                    residuals, x_from_z)
from spin7flow.shooting import (Asymptotics, ShootSpec, Trajectory, classify,
                                initial_state, integrate, quadrant_grid,
                                reconstruct_metric, sweep, worker_count)

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


def test_nudged_run_does_not_lock():
    traj = integrate(ShootSpec(params=P11, bundle="k+l", mode="spin+",
                               s=(S_LINE[0] + 0.05, S_LINE[1])))
    assert traj.face_lock is None
    assert traj.outcome.kind == "ALC"
    assert traj.outcome.limit_label == "P1"


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
    dopri5 = shooting._dopri5
    calls = []

    def failing_second_chunk(fun, t, y, t_bound, rtol, atol):
        calls.append((t, t_bound))
        if len(calls) == 2:
            return -1, t, y, []
        return dopri5(fun, t, y, t_bound, rtol, atol)

    monkeypatch.setattr(shooting, "_dopri5", failing_second_chunk)
    traj = integrate(ShootSpec(params=P32, bundle="k+l", mode="spin+",
                               s=(0.6, 0.8)))
    assert traj.events[-1] == (5.0, "stiff-failure")
    assert traj.etas.size == 101
    assert np.all(np.diff(traj.etas) > 0.0)
    assert reconstruct_metric(traj).t.size == 101


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


def test_reconstruct_rejects_vanishing_z_product():
    traj = integrate(ShootSpec(params=P32, bundle="k+l", mode="spin+",
                               s=(0.6, 0.8), eta_max=10.0))
    states = traj.states.copy()
    states[100, 4] = 0.0
    bad = dataclasses.replace(traj, states=states)
    with pytest.raises(ReconstructionDomainError) as err:
        reconstruct_metric(bad)
    assert "sample 100" in str(err.value)


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


def test_sweep_records_bad_points():
    table = sweep(P32, "k+l", "spin+", [(1.0, 0.0), (0.0, 0.0)],
                  eta_max=20.0, workers=1)
    assert table[0].error is None
    assert table[1].outcome is None
    assert table[1].error is not None


def test_quadrant_grid_unit_directions():
    grid = quadrant_grid(8)
    assert len(grid) == 8
    for s1, s2 in grid:
        assert s1 > 0.0 and s2 > 0.0
        assert abs(s1 * s1 + s2 * s2 - 1.0) <= 1e-12


def test_worker_count_env(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setenv("SPIN7_THREADS", "3")
    assert worker_count() == 3
    assert worker_count(5) == 5
    monkeypatch.setenv("SPIN7_THREADS", "zero")
    with pytest.raises(InvalidRequestError):
        worker_count()
    monkeypatch.delenv("SPIN7_THREADS")
    assert worker_count() >= 1


def test_worker_count_clamps_to_cpu_count(monkeypatch):
    cpus = max(1, os.cpu_count() or 1)
    monkeypatch.setenv("SPIN7_THREADS", str(10 ** 9))
    assert worker_count() == cpus
    assert worker_count(10 ** 9) == cpus
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert worker_count() == 3
    assert worker_count(0) == 1
