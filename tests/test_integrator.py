"""The native integrator against its references.

scipy is a test dependency only: solve_ivp(method="RK45") is the oracle
for the Dormand-Prince stepper and cumulative_simpson for the quadrature
of reconstruct_metric.  The incremental decision scan is checked against
the whole-table decision, and the package must import without scipy.
"""

import ast
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import cumulative_simpson, solve_ivp

import spin7flow
from spin7flow import shooting
from spin7flow.aw_algebra import AWParams
from spin7flow.critical_points import FlowClass, catalog
from spin7flow.phase_system import Chirality, flow_rhs, reduced_z_rhs
from spin7flow.shooting import ShootSpec, initial_state, integrate

P32 = AWParams(3, 2)
P11 = AWParams(1, 1)
RTOL, ATOL = 1e-10, 1e-12

CHUNK_CASES = {
    "spin+ start": (ShootSpec(P32, "k+l", "spin+", (0.6, 0.8)), 0.0),
    "spin+ mid-run": (ShootSpec(P32, "k+l", "spin+", (0.6, 0.8)), 40.0),
    "spin- start": (ShootSpec(P32, "k", "spin-", (0.8, 0.6)), 0.0),
    "spin- mid-run": (ShootSpec(P32, "k", "spin-", (0.8, 0.6)), 40.0),
    "ricci start": (ShootSpec(P32, "k+l", "ricci", (0.6, 0.8, 0.0)), 0.0),
    "ricci mid-run": (ShootSpec(P32, "k+l", "ricci", (0.6, 0.8, 0.0)),
                      40.0),
    "(1,1) escape": (ShootSpec(P11, "k", "spin-",
                               (-0.9, math.sqrt(1.0 - 0.81))), 25.0),
}


def _rhs(spec):
    if spec.mode is FlowClass.RICCI_FLAT:
        return flow_rhs(spec.params)
    chirality = (Chirality.PLUS if spec.mode is FlowClass.SPIN_PLUS
                 else Chirality.MINUS)
    return reduced_z_rhs(spec.params, chirality)


def _chunk_start(spec, eta0):
    """The integrated coordinates at eta0: the initial state, or the
    projected state integrate carries into the chunk starting there."""
    if eta0 == 0.0:
        state = initial_state(spec).as_tuple()
    else:
        traj = integrate(replace(spec, eta_max=eta0, stop_on_converged=False))
        state = tuple(traj.states[-1])
    if spec.mode is not FlowClass.RICCI_FLAT:
        state = state[4:]
    return [float(v) for v in state]


def _counted(fun):
    calls = []

    def wrapped(t, y):
        calls.append(t)
        return fun(t, y)
    return wrapped, calls


def _escape_event(t, y):
    return shooting.ESCAPE_NORM - float(np.max(np.abs(y)))


_escape_event.terminal = True
_escape_event.direction = -1.0


@pytest.mark.parametrize("case", sorted(CHUNK_CASES))
def test_dopri5_chunk_matches_scipy_rk45(case):
    spec, eta0 = CHUNK_CASES[case]
    y0 = _chunk_start(spec, eta0)
    top = eta0 + shooting.CHUNK_LENGTH
    ours, our_calls = _counted(_rhs(spec))
    status, reached, end, steps = shooting._dopri5(ours, eta0, list(y0),
                                                   top, RTOL, ATOL)
    sol = solve_ivp(_rhs(spec), (eta0, top), np.array(y0), method="RK45",
                    rtol=RTOL, atol=ATOL, dense_output=True,
                    events=[_escape_event])
    assert status == sol.status
    assert status == (1 if case == "(1,1) escape" else 0)
    assert len(our_calls) == sol.nfev
    assert len(steps) == sol.t.size - 1
    if status == 1:
        # Near the crossing one ulp of eta moves the state by about 1e-4,
        # so there only the crossing eta is compared.
        assert abs(reached - sol.t[-1]) <= 1e-9
        assert max(map(abs, end)) >= shooting.ESCAPE_NORM
    else:
        assert reached == sol.t[-1] == top
        ref_end = sol.y[:, -1]
        assert np.max(np.abs(np.array(end) - ref_end)) <= \
            1e-12 * np.max(np.abs(ref_end))
    grid = np.arange(eta0 + shooting.SAMPLE_STEP, sol.t[-1],
                     shooting.SAMPLE_STEP)
    ours_grid = shooting._dense(steps, grid)
    ref_grid = sol.sol(grid).T
    scale = np.max(np.abs(ref_grid), axis=1, keepdims=True)
    assert np.max(np.abs(ours_grid - ref_grid) / scale) <= 1e-12


def _van_der_pol(t, y):
    return (y[1], 5.0 * (1.0 - y[0] * y[0]) * y[1] - y[0])


def _decay(t, y):
    return (-y[0], -10.0 * y[1])


@pytest.mark.parametrize("fun, y0, rtol, atol", [
    (_van_der_pol, [2.0, 0.0], 1e-6, 1e-9),
    (_van_der_pol, [2.0, 0.0], 1e-10, 1e-12),
    (_decay, [1e-8, 1e-9], RTOL, ATOL),
    (_decay, [0.0, 0.0], RTOL, ATOL),
], ids=["vdp-coarse", "vdp-fine", "decay-tiny", "decay-zero"])
def test_dopri5_matches_scipy_rk45_step_control(fun, y0, rtol, atol):
    """Problems that reject steps and take every initial-step branch:
    the same accepted steps, RHS calls and dense output as scipy."""
    ours, calls = _counted(fun)
    status, reached, end, steps = shooting._dopri5(ours, 0.0, list(y0), 20.0,
                                                   rtol, atol)
    sol = solve_ivp(fun, (0.0, 20.0), np.array(y0), method="RK45",
                    rtol=rtol, atol=atol, dense_output=True)
    assert (status, reached) == (sol.status, sol.t[-1]) == (0, 20.0)
    assert len(calls) == sol.nfev
    assert len(steps) == sol.t.size - 1
    grid = np.linspace(0.0, 20.0, 401)
    ref = sol.sol(grid).T
    assert np.max(np.abs(shooting._dense(steps, grid) - ref)) <= \
        1e-12 * max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_dopri5_nonfinite_rhs_fails_in_bounded_steps(bad):
    """A right-hand side that turns non-finite mid-chunk ends the chunk
    with status -1 at a finite state before that point."""
    spec = ShootSpec(P32, "k+l", "spin+", (0.6, 0.8))
    base = _rhs(spec)

    def poisoned(t, y):
        return tuple(bad if t > 2.5 else v for v in base(t, y))

    rhs, calls = _counted(poisoned)
    status, reached, end, steps = shooting._dopri5(
        rhs, 0.0, _chunk_start(spec, 0.0), 5.0, RTOL, ATOL)
    assert status == -1
    assert 0.0 < reached <= 2.5
    assert all(map(math.isfinite, end))
    assert len(calls) <= 10000


def test_dopri5_nonfinite_start_fails_at_once():
    status, reached, end, steps = shooting._dopri5(
        lambda t, y: (math.nan,) * 4, 0.0, [0.1, 0.2, 0.3, 0.4], 5.0,
        RTOL, ATOL)
    assert (status, reached, steps) == (-1, 0.0, [])


def test_integrate_stops_on_nonfinite_rhs(monkeypatch):
    factory = shooting.reduced_z_rhs

    def poisoned_factory(params, chirality):
        rhs = factory(params, chirality)
        return lambda t, y: tuple(math.nan if t > 7.5 else v
                                  for v in rhs(t, y))

    monkeypatch.setattr(shooting, "reduced_z_rhs", poisoned_factory)
    traj = integrate(ShootSpec(P32, "k+l", "spin+", (0.6, 0.8)))
    eta, kind = traj.events[-1]
    assert kind == "stiff-failure" and 5.0 < eta <= 7.5
    assert np.all(np.isfinite(traj.states))
    assert abs(traj.etas[-1] - eta) <= 1e-9


def _simpson_grid(rng, n, uniform):
    if uniform:
        x = np.arange(n) * 0.05
        x[-1] = x[-2] + rng.uniform(0.001, 0.05)
        return x
    return np.cumsum(rng.uniform(1e-3, 1.0, n)) + rng.uniform(-5.0, 5.0)


@pytest.mark.parametrize("seed", range(6))
def test_cumulative_simpson_matches_scipy_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    sizes = [3, 4, 5, 6, 199, 200] + list(rng.integers(3, 201, 10))
    for n in sizes:
        for uniform in (True, False):
            x = _simpson_grid(rng, int(n), uniform)
            y = rng.normal(size=x.size) * np.exp(rng.uniform(-3, 3))
            assert np.array_equal(shooting._cumulative_simpson(y, x),
                                  cumulative_simpson(y, x=x, initial=0))


# ---------------------------------------------------------------------------
# incremental decision scan

PATTERNS = ["1" * 7, "0" + "1" * 6, "1" * 30 + "0", "0" * 20 + "1" * 101,
            "0" * 20 + "1" * 100, "1" * 50 + "0" + "1" * 101,
            "10" * 40 + "1" * 120]


def _pattern_table(codes):
    """Rows at P1 ("1"), next to P1 ("0") or at AC_1 ("a")."""
    cat = catalog(P11)
    at = {"1": np.array(cat.get("P1").state.as_floats()),
          "a": np.array(cat.get("AC_1").state.as_floats())}
    at["0"] = at["1"] + 1e-3
    states = np.array([at[c] for c in codes])
    return np.arange(len(codes)) * 0.05, states


def _assert_scan_matches(etas, states, cuts):
    candidates = shooting._limit_candidates(P11)
    scan = shooting._DecisionScan(candidates)
    bounds = sorted(set(cuts) | {len(etas)})
    start = 0
    for end in bounds:
        if end <= start:
            continue
        scan.extend(etas[start:end], states[start:end])
        assert scan.decision() == shooting._trailing_decision(
            etas[:end], states[:end], candidates)
        start = end


@pytest.mark.parametrize("pattern", PATTERNS)
def test_decision_scan_matches_whole_table_on_patterns(pattern):
    etas, states = _pattern_table(pattern)
    _assert_scan_matches(etas, states, [1] + list(range(1, len(etas), 100)))
    _assert_scan_matches(etas, states, range(1, len(etas)))


@settings(max_examples=60, deadline=2000)
@given(codes=st.lists(st.sampled_from("10a"), min_size=1, max_size=300),
       cuts=st.lists(st.integers(1, 300), max_size=12))
def test_decision_scan_matches_whole_table_on_random_chunkings(codes, cuts):
    etas, states = _pattern_table(codes)
    _assert_scan_matches(etas, states, [c for c in cuts if c < len(etas)])


# ---------------------------------------------------------------------------
# properties of whole runs

@settings(max_examples=8, deadline=5000)
@given(bundle_mode=st.sampled_from([("k+l", "spin+"), ("k", "spin-")]),
       theta=st.floats(0.05, math.pi / 2.0 - 0.05))
def test_integrate_keeps_constraint_residuals_small(bundle_mode, theta):
    """Quadrant directions of (3,2): every logged residual stays below
    1e-6 (deadline 5 s per run)."""
    bundle, mode = bundle_mode
    traj = integrate(ShootSpec(P32, bundle, mode,
                               (math.cos(theta), math.sin(theta))))
    assert np.max(traj.residual_log) <= 1e-6


def test_package_imports_without_scipy():
    src = Path(spin7flow.__file__).resolve().parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src.parent)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                             else []))
    code = ("import sys, spin7flow, spin7flow.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names]
                     if isinstance(node, ast.Import) else
                     [node.module or ""] if isinstance(node, ast.ImportFrom)
                     else [])
            assert not any(n.split(".")[0] == "scipy" for n in names), \
                "%s:%d imports scipy" % (path.name, node.lineno)
