"""The native integrator against its references.

scipy is a test dependency only: solve_ivp(method="DOP853") is the
oracle for the Dormand-Prince stepper and cumulative_simpson for the
quadrature of reconstruct_metric.  The list-form stepper
(tests/list_dop853.py) is the bit-for-bit oracle of the straight-line
one.  The tests named after dopri5 and scipy's rk45 check the DOP853
stepper against those two oracles; they keep the names they had when
the stepper was the 5(4) pair.  classify's verdict is checked against
a reference that measures every row against every target, the
early-stop prefilter _may_decide against _decision, integrate's outcome
against classify, and the package must import without scipy.
"""

import ast
import math
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import cumulative_simpson, solve_ivp

import list_dop853
import spin7flow
from spin7flow import shooting
from spin7flow.aw_algebra import AWParams
from spin7flow.critical_points import FlowClass, catalog
from spin7flow.errors import IntegrationError, InvalidRequestError
from spin7flow.phase_system import (Chirality, _stepping_kernel, flow_rhs,
                                    reduced_z_rhs)
from spin7flow.shooting import ShootSpec, classify, initial_state, integrate

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


def _dop853_calls(sol):
    """The right-hand side calls of a chunk and its finishing pass that
    take scipy DOP853's steps.  scipy counts the start, the initial-step
    trial, 12 calls per attempt and the 3 dense-output stages per
    accepted step; the chunk makes one call less per rejected attempt,
    whose derivative at the new state enters no error estimate."""
    accepted = sol.t.size - 1
    attempts, rest = divmod(sol.nfev - 2 - 3 * accepted, 12)
    assert rest == 0 and attempts >= accepted
    return sol.nfev - (attempts - accepted)


def _finished(fun, calls, chunk):
    """The finished step table of a _dop853 chunk made by the counted
    fun, after checking that the finishing pass made 3 calls per step.
    The calls that scipy makes for the chunk are then the chunk's and
    the finishing pass's."""
    raw = chunk[3]
    made = len(calls)
    steps = shooting._finish(fun, raw)
    assert len(calls) - made == 3 * len(raw)
    return steps


@pytest.mark.parametrize("case", sorted(CHUNK_CASES))
def test_dopri5_chunk_matches_scipy_rk45(case):
    """A chunk from the initial-step rule takes scipy DOP853's steps."""
    spec, eta0 = CHUNK_CASES[case]
    y0 = _chunk_start(spec, eta0)
    top = eta0 + shooting.CHUNK_LENGTH
    ours, our_calls = _counted(_rhs(spec))
    chunk = shooting._dop853(ours, eta0, list(y0), top, RTOL, ATOL)
    status, reached, end, _, _ = chunk
    steps = _finished(ours, our_calls, chunk)
    sol = solve_ivp(_rhs(spec), (eta0, top), np.array(y0), method="DOP853",
                    rtol=RTOL, atol=ATOL, dense_output=True,
                    events=[_escape_event])
    assert status == sol.status
    assert status == (1 if case == "(1,1) escape" else 0)
    assert len(our_calls) == _dop853_calls(sol)
    assert len(steps) == sol.t.size - 1
    if status == 1:
        # Near the crossing one ulp of eta moves the state by about 1e-4,
        # so there only the crossing eta, bisected on the finished last
        # row, is compared with scipy's event time.
        assert end is None
        crossing = shooting._crossing(steps[-1].tolist(), reached)
        assert abs(crossing - sol.t_events[0][0]) <= 1e-9
        assert max(map(abs, shooting._interpolant(
            steps[-1].tolist(), crossing))) >= shooting.ESCAPE_NORM
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


def test_tableau_is_scipys_dop853():
    """The tableau the chunk is generated from holds the floats of
    scipy's DOP853 coefficients: the time fractions, the A rows of
    stages 2..12 and of the dense-output stages 14..16, B, the two
    error estimators and the dense-output matrix D."""
    from scipy.integrate._ivp import dop853_coefficients as ref
    stages = shooting._STAGES + shooting._DENSE_STAGES
    for i, (c, row) in zip(list(range(1, 12)) + [13, 14, 15], stages):
        assert (c, row) == (ref.C[i], tuple(ref.A[i, :i]))
    assert shooting._B == tuple(ref.B)
    assert shooting._E5 == tuple(ref.E5[:12]) and ref.E5[12] == 0
    assert shooting._E3 == tuple(ref.E3[:12]) and ref.E3[12] == 0
    assert shooting._D == tuple(map(tuple, ref.D))


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
    the same accepted steps, RHS calls and dense output as scipy DOP853.

    scipy adds its stage and error sums in BLAS, whose FMA kernels
    round them differently, and the error estimate cancels about seven
    digits, so the step sizes drift apart by about 1e-11 relative over
    the coarse Van der Pol run and its dense output by up to 2e-11 of
    its size (1.8e-11 under OpenBLAS's Haswell kernel).  Under a kernel
    without FMA (Prescott, Sandybridge) the two agree bit for bit."""
    ours, calls = _counted(fun)
    chunk = shooting._dop853(ours, 0.0, list(y0), 20.0, rtol, atol)
    status, reached, end, _, _ = chunk
    steps = _finished(ours, calls, chunk)
    sol = solve_ivp(fun, (0.0, 20.0), np.array(y0), method="DOP853",
                    rtol=rtol, atol=atol, dense_output=True)
    assert (status, reached) == (sol.status, sol.t[-1]) == (0, 20.0)
    assert len(calls) == _dop853_calls(sol)
    assert len(steps) == sol.t.size - 1
    grid = np.linspace(0.0, 20.0, 401)
    ref = sol.sol(grid).T
    assert np.max(np.abs(shooting._dense(steps, grid) - ref)) <= \
        1e-10 * max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_dopri5_nonfinite_rhs_fails_in_bounded_steps(bad):
    """A right-hand side that turns non-finite mid-chunk ends the chunk
    with status -1 at a finite state before that point."""
    spec = ShootSpec(P32, "k+l", "spin+", (0.6, 0.8))
    base = _rhs(spec)

    def poisoned(t, y):
        return tuple(bad if t > 2.5 else v for v in base(t, y))

    rhs, calls = _counted(poisoned)
    status, reached, end, steps, _ = shooting._dop853(
        rhs, 0.0, _chunk_start(spec, 0.0), 5.0, RTOL, ATOL)
    assert status == -1
    assert 0.0 < reached <= 2.5
    assert all(map(math.isfinite, end))
    assert len(calls) <= 10000


def test_dopri5_nonfinite_start_fails_at_once():
    status, reached, end, steps, _ = shooting._dop853(
        lambda t, y: (math.nan,) * 4, 0.0, [0.1, 0.2, 0.3, 0.4], 5.0,
        RTOL, ATOL)
    assert (status, reached) == (-1, 0.0)
    assert steps.shape == (0, 2 + 11 * 4)
    assert shooting._finish(_decay, steps).shape == (0, 2 + 8 * 4)


def _relax(t, y):
    return (-50.0 * (y[0] - math.cos(t)),)


def _blow_up(t, y):
    return (y[0] * y[0],)


def _chunk_case(name):
    """(fun for the stepper, fun for the oracle, y0, t0, t_bound); the
    phase-system cases give both the public closure, which the stepper
    calls once it is wrapped for counting."""
    spec, eta0 = CHUNK_CASES[name]
    rhs = _rhs(spec)
    return (rhs, rhs, _chunk_start(spec, eta0), eta0,
            eta0 + shooting.CHUNK_LENGTH)


def _non_finite_case():
    """The spin+ start chunk with a right-hand side that turns NaN
    after t = 2.5."""
    rhs, _, y0, t0, t_bound = _chunk_case("spin+ start")

    def poisoned(t, y):
        return tuple(math.nan if t > 2.5 else v for v in rhs(t, y))
    return poisoned, poisoned, y0, t0, t_bound


ORACLE_CASES = {
    "n=1 relax": lambda: (_relax, _relax, [0.0], 0.0, 3.0),
    "n=1 blow-up": lambda: (_blow_up, _blow_up, [1.0], 0.0, 2.0),
    "n=2 vdp": lambda: (_van_der_pol, _van_der_pol, [2.0, 0.0], 0.0, 20.0),
    "n=2 decay": lambda: (_decay, _decay, [1e-8, 1e-9], 0.0, 20.0),
    "n=4 spin+": lambda: _chunk_case("spin+ start"),
    "n=4 spin- mid-run": lambda: _chunk_case("spin- mid-run"),
    "n=4 escape": lambda: _chunk_case("(1,1) escape"),
    "n=4 non-finite": _non_finite_case,
    "n=8 ricci": lambda: _chunk_case("ricci start"),
    "n=8 ricci mid-run": lambda: _chunk_case("ricci mid-run"),
}


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


def _same_table(steps, rows, width):
    """The step table is one (steps, width) float array that holds the
    oracle's tuple rows, bit for bit."""
    assert steps.dtype == np.float64
    assert steps.shape == (len(rows), width)
    assert steps.tobytes() == b"".join(_bits(row) for row in rows)


def _oracle(fun, *args):
    """The list form's chunk result with the list form's finished rows
    of its raw rows appended, the chunk's calls made first."""
    want = list_dop853.dop853(fun, *args)
    return want + (list_dop853.finish(fun, want[3]),)


def _same_chunk(got, want, n, fun):
    """_dop853's result equals the list form's (_oracle), bit for bit:
    status, end point, read-only raw step table (2 + 11n doubles a row)
    and next step size; finishing the raw table with fun gives the list
    form's finished rows (2 + 8n doubles).  An escape has no end state,
    and its crossing, bisected on the finished last row, is the list
    form's, as is the state _dense gives there."""
    status, reached, end, raw, h_next = got
    assert status == want[0]
    assert _bits([reached]) == _bits([want[1]])
    if status == 1:
        assert end is None is want[2]
    else:
        assert _bits(end) == _bits(want[2])
    assert not raw.flags.writeable
    _same_table(raw, want[3], 2 + 11 * n)
    assert _bits([h_next]) == _bits([want[4]])
    steps = shooting._finish(fun, raw)
    _same_table(steps, want[5], 2 + 8 * n)
    if status == 1:
        crossing = shooting._crossing(steps[-1].tolist(), reached)
        assert _bits([crossing]) == _bits(
            [list_dop853._crossing(want[5][-1], want[1])])
        assert _bits(shooting._dense(steps, np.array([crossing]))) == \
            _bits(list_dop853.interpolant(want[5][-1], crossing))


@pytest.mark.parametrize("tol", [(1e-6, 1e-9), (RTOL, ATOL)],
                         ids=["coarse", "fine"])
@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_dopri5_matches_list_form_bit_for_bit(case, tol):
    """Status, end point, every raw and finished step row, the next step
    size and every right-hand side call equal the list-form stepper's,
    bit for bit, for n = 1, 2, 4 and 8: the chunk's calls, then the
    finishing pass's, stage 14 on every row first, then 15, then 16."""
    fun, oracle_fun, y0, t0, t_bound = ORACLE_CASES[case]()
    ours, our_calls = _counted(fun)
    ref, ref_calls = _counted(oracle_fun)
    got = shooting._dop853(ours, t0, list(y0), t_bound, *tol)
    want = _oracle(ref, t0, list(y0), t_bound, *tol)
    chunk_calls = len(our_calls)
    assert _bits(our_calls) == _bits(ref_calls[:chunk_calls])
    _same_chunk(got, want, len(y0), ours)
    assert len(our_calls) - chunk_calls == 3 * len(got[3])
    assert _bits(our_calls[chunk_calls:]) == _bits(ref_calls[chunk_calls:])
    assert got[0] == {"n=1 blow-up": 1, "n=4 escape": 1,
                      "n=4 non-finite": -1}.get(case, 0)


def test_list_form_oracle_covers_every_size():
    sizes = {len(ORACLE_CASES[case]()[2]) for case in ORACLE_CASES}
    assert sizes == {1, 2, 4, 8}


KERNEL_CHUNKS = {
    "(3,2) spin+": (ShootSpec(P32, "k+l", "spin+", (0.6, 0.8)), (0.0, 40.0)),
    "(3,2) spin-": (ShootSpec(P32, "k", "spin-", (0.8, 0.6)), (0.0, 40.0)),
    "(1,1) spin+": (ShootSpec(P11, "k+l", "spin+", (0.6, 0.8)), (0.0, 40.0)),
    "(1,1) spin-": (ShootSpec(P11, "k", "spin-", (0.6, 0.8)), (0.0, 40.0)),
    "(13,5) spin+": (ShootSpec(AWParams(13, 5), "k+l", "spin+", (0.6, 0.8)),
                     (0.0, 40.0)),
    "(13,5) spin-": (ShootSpec(AWParams(13, 5), "k", "spin-", (0.6, 0.8)),
                     (0.0, 40.0)),
    "(1,1) escape": (CHUNK_CASES["(1,1) escape"][0], (25.0,)),
    "ricci": (CHUNK_CASES["ricci start"][0], (0.0, 40.0)),
    "(1,0) spin+": (ShootSpec(AWParams(1, 0), "k+l", "spin+", (0.6, 0.8)),
                    (0.0, 40.0)),
    "(1,0) spin-": (ShootSpec(AWParams(1, 0), "k", "spin-", (0.6, 0.8)),
                    (0.0, 40.0)),
    "(1,0) ricci": (ShootSpec(AWParams(1, 0), "k+l", "ricci",
                              (0.6, 0.8, 0.0)), (0.0,)),
    "(59,23) spin-": (ShootSpec(AWParams(59, 23), "k", "spin-", (0.8, 0.6)),
                      (0.0, 40.0)),
}


@pytest.mark.parametrize("tol", [(1e-6, 1e-9), (RTOL, ATOL)],
                         ids=["coarse", "fine"])
@pytest.mark.parametrize("case, eta0", [
    (case, eta0) for case in sorted(KERNEL_CHUNKS)
    for eta0 in KERNEL_CHUNKS[case][1]])
def test_traced_kernel_steps_match_list_form_bit_for_bit(case, eta0, tol,
                                                        monkeypatch):
    """The stages and the dense-output stages run the kernel of the
    right-hand side's body, with the orbit's coefficients as inputs,
    inlined: status, end point and every raw and finished step row
    equal the list-form stepper's calling the public closure, bit for
    bit."""
    spec = KERNEL_CHUNKS[case][0]
    rhs = _rhs(spec)
    y0 = _chunk_start(spec, eta0)
    t_bound = eta0 + shooting.CHUNK_LENGTH
    want = _oracle(rhs, eta0, list(y0), t_bound, *tol)

    def never(self, eta, values):
        raise AssertionError("the chunk called the right-hand side")

    # the chunk start and the finishing pass run the kernel too: the
    # closure is never called
    monkeypatch.setattr(type(rhs), "__call__", never)
    got = shooting._dop853(rhs, eta0, list(y0), t_bound, *tol)
    _same_chunk(got, want, len(y0), rhs)
    assert got[0] == (1 if case == "(1,1) escape" else 0)


@pytest.mark.parametrize("path", ["kernel", "call"])
@pytest.mark.parametrize("case", ["(3,2) spin+", "(1,1) spin-",
                                  "(13,5) spin-", "ricci"])
def test_carried_step_matches_list_form_bit_for_bit(case, path):
    """A chunk that starts from the step its predecessor proposed, on
    the inlined kernel and on the call path: status, end point, raw and
    finished step rows, next step size and calls equal the list form's,
    bit for bit."""
    spec = KERNEL_CHUNKS[case][0]
    rhs = _rhs(spec)
    y0 = _chunk_start(spec, 0.0)
    t0, t1 = 0.0, shooting.CHUNK_LENGTH
    t2 = t1 + shooting.CHUNK_LENGTH
    first = shooting._dop853(rhs, t0, list(y0), t1, RTOL, ATOL)
    _same_chunk(first, _oracle(rhs, t0, list(y0), t1, RTOL, ATOL),
                len(y0), rhs)
    assert first[0] == 0 and first[4] != first[3][-1, 1]
    ours, our_calls = _counted(rhs)
    ref, ref_calls = _counted(rhs)
    fun = rhs if path == "kernel" else ours
    got = shooting._dop853(fun, t1, list(first[2]), t2, RTOL, ATOL, first[4])
    want = _oracle(ref, t1, list(first[2]), t2, RTOL, ATOL, first[4])
    _same_chunk(got, want, len(y0), fun)
    if path == "call":
        assert _bits(our_calls) == _bits(ref_calls)


def test_later_chunks_skip_the_initial_step_rule(monkeypatch):
    """On the call path, a run's first chunk makes the initial-step
    trial call and every later chunk starts from the step size its
    predecessor proposed.  A chunk with s accepted steps and r rejected
    attempts calls the right-hand side 1 + 12s + 11r times (the start;
    eleven stages per attempt; the derivative at the new state per
    accepted step), plus the trial on the first chunk only; the
    finishing passes call it for the three dense-output stages of every
    accepted step.  The run gives the kernel path's bits."""
    spec = ShootSpec(P32, "k+l", "spin+", (0.6, 0.8))
    inlined = integrate(spec)
    calls, chunks = [], []
    factory, step = shooting.reduced_z_rhs, shooting._dop853

    def counted_factory(params, chirality):
        rhs = factory(params, chirality)

        def counted(t, y):
            calls.append(t)
            return rhs(t, y)
        return counted

    def recorded(fun, t, y, t_bound, rtol, atol, h_abs):
        assert not isinstance(fun, partial)
        before = len(calls)
        result = step(fun, t, y, t_bound, rtol, atol, h_abs)
        chunks.append((h_abs, len(calls) - before, len(result[3]),
                       result[4]))
        return result

    monkeypatch.setattr(shooting, "reduced_z_rhs", counted_factory)
    monkeypatch.setattr(shooting, "_dop853", recorded)
    traj = integrate(spec)
    assert len(chunks) > 10
    assert chunks[0][0] is None
    for (*_, proposed), (given, *_) in zip(chunks, chunks[1:]):
        assert _bits([given]) == _bits([proposed])
    for i, (_, made, accepted, _) in enumerate(chunks):
        trial = 1 if i == 0 else 0
        rejected, rest = divmod(made - 1 - trial - 12 * accepted, 11)
        assert (rest, rejected >= 0) == (0, True), i
    assert len(calls) - sum(made for _, made, _, _ in chunks) == \
        3 * sum(accepted for _, _, accepted, _ in chunks)
    for name in ("etas", "states", "residual_log"):
        assert _bits(getattr(traj, name)) == _bits(getattr(inlined, name))
    assert (traj.events, traj.outcome) == (inlined.events, inlined.outcome)


def test_kernel_chunk_never_calls_fun():
    """With a body the chunk start (first derivative and initial-step
    trial), every stage and the dense-output stages of the finishing
    pass run inlined: the sources have no call of fun.  The chunk's
    call path writes 14: the first derivative, the trial, eleven stages
    and the derivative at the new state; the finishing pass's writes 3,
    one per dense-output stage."""
    for rhs, n in ((reduced_z_rhs(P32, Chirality.PLUS), 4),
                   (reduced_z_rhs(P11, Chirality.MINUS), 4),
                   (flow_rhs(P32), 8)):
        body, m = rhs.func, len(rhs.args[0])
        for source in (shooting._chunk_source(n, body, m),
                       shooting._finish_source(n, body, m)):
            assert "fun(" not in source and "calls(" not in source
        assert shooting._chunk_source(n).count("fun(") == 14
        assert shooting._finish_source(n).count("calls(fun, ") == 3


def _compiled(rhs, n):
    """A function (c, *y) -> outputs running the lines of the kernel of
    rhs's body."""
    m = len(rhs.args[0])
    body = _stepping_kernel(rhs.func, n, m).format(v="v_", k="k_", c="c_")
    source = "def run(c, %s):\n    %s, = c\n%s    return (%s,)\n" % (
        ", ".join("v_%d" % j for j in range(n)),
        ", ".join("c_%d" % j for j in range(m)),
        "".join("    %s\n" % line for line in body.splitlines()),
        ", ".join("k_%d" % j for j in range(n)))
    namespace = {}
    exec(source, namespace)
    return namespace["run"]


# Coprime k >= l >= 0 up to 10^6 + 1.
ORBITS = st.integers(1, 10 ** 6 + 1).flatmap(
    lambda k: st.tuples(st.just(k), st.integers(0, k))).filter(
    lambda kl: math.gcd(*kl) == 1)


@settings(max_examples=200, deadline=None)
@given(kl=ORBITS, which=st.sampled_from(["spin+", "spin-", "flow"]),
       y=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                  min_size=8, max_size=8))
@example(kl=(1, 0), which="spin+", y=[0.5, 0.25, 0.125, 2.0] * 2)
@example(kl=(1, 0), which="spin-", y=[0.5, 0.25, 0.125, 2.0] * 2)
@example(kl=(1, 0), which="flow", y=[0.1, 0.2, 0.15, 0.1, 0.5, 0.25,
                                     0.125, 2.0])
def test_traced_kernel_gives_on_floats_bits(kl, which, y):
    """The kernel traced once from each body, with the orbit's float
    coefficients as inputs, returns the bits of the body run on floats
    at every orbit, overflow and all."""
    orbit = AWParams(*kl)
    if which == "flow":
        rhs, n = flow_rhs(orbit), 8
    else:
        rhs, n = reduced_z_rhs(orbit, Chirality(which)), 4
    point = y[:n]
    with np.errstate(all="ignore"):
        assert _bits(_compiled(rhs, n)(*rhs.args, *point)) == \
            _bits(rhs.func(*rhs.args, point))


def test_chunk_is_compiled_once_per_body():
    """Runs on four orbits in both chiralities and a Ricci-flat run
    compile two chunks and two finishing passes in all: one of each for
    the reduced body, one for the flow's."""
    shooting._chunk.cache_clear()
    shooting._finisher.cache_clear()
    for kl in ((3, 2), (1, 1), (13, 5), (1, 0)):
        for bundle_tag, mode in (("k+l", "spin+"), ("k", "spin-")):
            integrate(ShootSpec(AWParams(*kl), bundle_tag, mode, (0.6, 0.8),
                                eta_max=10.0))
    integrate(ShootSpec(P32, "k+l", "ricci", (0.6, 0.8, 0.0), eta_max=10.0))
    for compiled in (shooting._chunk, shooting._finisher):
        info = compiled.cache_info()
        assert (info.currsize, info.misses) == (2, 2)


def _run_chunks(fun, spec, count):
    """The raw tables of count consecutive chunks of a run, each from
    the state and step size its predecessor left."""
    y, h_abs, raws = _chunk_start(spec, 0.0), None, []
    for j in range(count):
        t0 = j * shooting.CHUNK_LENGTH
        status, _, y, raw, h_abs = shooting._dop853(
            fun, t0, y, t0 + shooting.CHUNK_LENGTH, RTOL, ATOL, h_abs)
        assert status == 0
        raws.append(raw)
    return raws


FINISH_TABLES = {
    name: np.concatenate(_run_chunks(_rhs(spec), spec, 2))
    for name, spec in (("spin+", CHUNK_CASES["spin+ start"][0]),
                       ("ricci", CHUNK_CASES["ricci start"][0]))}


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(FINISH_TABLES)),
       path=st.sampled_from(["kernel", "call"]),
       cuts=st.lists(st.integers(0, 60), max_size=4))
@example(name="spin+", path="kernel", cuts=[0])
@example(name="ricci", path="call", cuts=[1, 1, 7])
def test_finishing_a_table_equals_finishing_its_parts(name, path, cuts):
    """Finishing the concatenation of a run's raw chunk tables gives,
    bit for bit, the rows of finishing its parts alone, for any split
    points (empty parts included), on the inlined kernel and on the
    call path."""
    raw = FINISH_TABLES[name]
    rhs = _rhs(CHUNK_CASES["%s start" % name][0])
    fun = rhs if path == "kernel" else (lambda t, y: rhs(t, y))
    edges = [0] + sorted(min(c, len(raw)) for c in cuts) + [len(raw)]
    parts = [shooting._finish(fun, raw[a:b])
             for a, b in zip(edges, edges[1:])]
    whole = shooting._finish(fun, raw)
    assert whole.shape == (len(raw), 2 + 8 * (raw.shape[1] - 2) // 11)
    assert _bits(np.concatenate(parts)) == _bits(whole)


def test_call_path_evaluates_sixteen_derivatives_per_accepted_step():
    """On the call path a chunk and its finishing pass evaluate each
    accepted step's 16 derivatives, k1..k16 at t + c*h for the tableau's
    time fractions c (0 for k1, 1 for k13): k1 is the chunk's first call
    or the step before's k13, so each step adds 15 calls; every other
    call is the start, the initial-step trial or one of the 11 stages of
    a rejected attempt."""
    fractions = ([0.0] + [c for c, _ in shooting._STAGES] + [1.0]
                 + [c for c, _ in shooting._DENSE_STAGES])
    assert len(fractions) == 16
    for fun, y0, t_bound, rtol, atol in (
            (_van_der_pol, [2.0, 0.0], 20.0, 1e-6, 1e-9),
            (_blow_up, [1.0], 2.0, RTOL, ATOL)):
        ours, calls = _counted(fun)
        _, _, _, raw, _ = shooting._dop853(ours, 0.0, y0, t_bound, rtol,
                                           atol)
        made = len(calls)
        shooting._finish(ours, raw)
        assert len(calls) - made == 3 * len(raw) > 0
        left = list(calls)
        assert left[0] == raw[0, 0]  # the first step's k1
        for t, h in raw[:, :2].tolist():
            for c in fractions[1:]:
                left.remove(t + c * h)
        rejected, rest = divmod(len(left) - 2, 11)
        assert rest == 0 and rejected >= 0


@settings(max_examples=60, deadline=None)
@given(x=st.floats(0.0, 1.0), scale=st.floats(1e-3, 1e3),
       nan=st.sampled_from([None, 0, 3]))
def test_interpolant_gives_dense_bits(x, scale, nan):
    """The scalar interpolant that the crossing bisects gives the bits
    of _dense on one finished row, NaN components included, and the
    bisection reads a NaN as below the escape norm."""
    raw = FINISH_TABLES["spin+"][3:4].copy()
    steps = shooting._finish(_rhs(CHUNK_CASES["spin+ start"][0]), raw)
    steps[:, 2:] *= scale
    if nan is not None:
        steps[0, 2 + 4 * 7 + nan] = math.nan
    t = steps[0, 0] + x * steps[0, 1]
    row = steps[0].tolist()
    assert _bits(shooting._interpolant(row, t)) == \
        _bits(shooting._dense(steps, np.array([t]))[0])
    if nan is not None:
        assert shooting._crossing(row, row[0] + row[1]) == row[0] + row[1]


def test_rms_adds_left_to_right():
    """Two squares of 1e-16 each vanish against 1.0 one at a time; a
    compensated sum would keep them and move the last bit.  The oracle's
    rule is the one the generated chunk writes out inline."""
    assert list_dop853._rms([1.0, 1e-8, 1e-8]) == 1.0 / 3 ** 0.5


def test_rhs_kernels_match_public_closures():
    """The bodies the stepper's kernels are traced from give the public
    closures' values on lists of floats; the closures still take
    tuples, arrays and Fractions."""
    z = [0.1, 0.25, 0.3, 2.5]
    y = [0.1, 0.2, 0.15, 0.1] + z
    for rhs, point in ((reduced_z_rhs(P32, Chirality.PLUS), z),
                       (reduced_z_rhs(P32, Chirality.MINUS), z),
                       (flow_rhs(P32), y)):
        want = rhs(0.0, point)
        assert _bits(rhs.func(*rhs.args, list(point))) == _bits(want)
        assert _bits(rhs(0.0, tuple(point))) == _bits(want)
        assert _bits(rhs(0.0, np.array(point))) == _bits(want)
        exact = [Fraction(v).limit_denominator(1000) for v in point]
        assert _bits(rhs(0.0, exact)) == _bits(
            rhs(0.0, [float(v) for v in exact]))


def _poisoned_factory(monkeypatch):
    """Make spin runs' right-hand side turn NaN after eta = 7.5."""
    factory = shooting.reduced_z_rhs

    def poisoned_factory(params, chirality):
        rhs = factory(params, chirality)
        return lambda t, y: tuple(math.nan if t > 7.5 else v
                                  for v in rhs(t, y))
    monkeypatch.setattr(shooting, "reduced_z_rhs", poisoned_factory)


def test_integrate_stops_on_nonfinite_rhs(monkeypatch):
    _poisoned_factory(monkeypatch)
    traj = integrate(ShootSpec(P32, "k+l", "spin+", (0.6, 0.8)))
    eta, kind = traj.events[-1]
    assert kind == "stiff-failure" and 5.0 < eta <= 7.5
    assert np.all(np.isfinite(traj.states))
    assert abs(traj.etas[-1] - eta) <= 1e-9


FINISH_RUNS = {  # (spec, last event, sampling passes that finish rows)
    "(1,1) escape": (CHUNK_CASES["(1,1) escape"][0], "escaped", 1),
    "stiff-failure": (CHUNK_CASES["spin+ start"][0], "stiff-failure", 1),
    "(3,2) early stop": (CHUNK_CASES["spin- start"][0], "converged", 2),
    "full horizon": (replace(CHUNK_CASES["spin+ start"][0],
                             stop_on_converged=False), None, 1),
}


@pytest.mark.parametrize("case", sorted(FINISH_RUNS))
def test_integrate_finishes_every_raw_row_once(case, monkeypatch):
    """The rows integrate passes to _finish, over all its sampling
    passes, are the raw rows its chunks returned, each once and in
    order; an escape's eta is the list form's crossing on its finished
    last row, bit for bit."""
    spec, last, passes = FINISH_RUNS[case]
    if case == "stiff-failure":
        _poisoned_factory(monkeypatch)
    chunks, finished = [], []
    step, finish = shooting._dop853, shooting._finish

    def recorded_step(*args):
        chunks.append(step(*args))
        return chunks[-1]

    def recorded_finish(fun, raw):
        finished.append(raw)
        return finish(fun, raw)

    monkeypatch.setattr(shooting, "_dop853", recorded_step)
    monkeypatch.setattr(shooting, "_finish", recorded_finish)
    traj = integrate(spec)
    raws = [raw for _, _, _, raw, _ in chunks]
    assert len(finished) == passes
    assert sum(map(len, finished)) == sum(map(len, raws)) > 0
    assert _bits(np.concatenate(finished)) == _bits(np.concatenate(raws))
    assert (traj.events[-1][1] if traj.events else None) == last
    if last == "escaped":
        rhs = _rhs(spec)
        row = list_dop853.finish(rhs, [chunks[-1][3][-1].tolist()])[0]
        crossing = list_dop853._crossing(row, chunks[-1][1])
        assert _bits([traj.etas[-1]]) == _bits([crossing])
        assert traj.events[-1] == (crossing, "escaped")
        assert type(traj.events[-1][0]) is float


def test_integrate_failing_at_its_start_raises_integration_error(
        monkeypatch):
    """A stiff failure before the first accepted step leaves only the
    starting row, which has no verdict: integrate raises
    IntegrationError naming the failure and its eta, while classify
    still refuses such a table passed in as an invalid request."""
    def stuck(fun, t, y, t_bound, rtol, atol, h_abs=None):
        return -1, t, y, np.zeros((0, 2 + 11 * len(y))), h_abs

    monkeypatch.setattr(shooting, "_dop853", stuck)
    with pytest.raises(IntegrationError, match=(
            r"^stiff-failure at eta = 0\.0, before the first accepted step")):
        integrate(ShootSpec(P32, "k+l", "spin+", (0.6, 0.8)))
    with pytest.raises(InvalidRequestError, match="at least 2 samples"):
        classify(SimpleNamespace(etas=np.zeros(1), states=np.zeros((1, 8))),
                 P32)


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
# the trailing-window decision

R = shooting.DECISION_RADIUS


def _row(base, j, value):
    row = np.array(base, dtype=float)
    row[j] = value
    return row


# Three targets where a row can sit exactly on a ball's boundary: T0 = 0,
# T1 = 2R (a row at R is on both boundaries) and T2 = 1/2; the rows lie
# at the targets, on or just past a boundary, far off, or hold NaN or inf.
EXACT_TARGETS = (("ALC", "T0", np.zeros(8)), ("ALC", "T1", np.full(8, 2 * R)),
                 ("AC", "T2", np.full(8, 0.5)))
EXACT_ROWS = [
    np.zeros(8), np.full(8, R), _row(np.zeros(8), 5, -R),
    _row(np.zeros(8), 2, math.nextafter(R, 1.0)), np.full(8, 2 * R),
    np.full(8, 0.5), _row(np.full(8, 0.5), 7, 0.5 + R),
    _row(np.zeros(8), 3, math.nan), np.full(8, math.nan),
    _row(np.full(8, 0.5), 0, math.inf), np.ones(8)]


def _p11_rows():
    """P1, next to P1, AC_1, P1 with a NaN, P1 moved by R, all NaN, P1
    with +inf, AC_1 with -inf, next to P1 with a NaN, and P1 past
    ESCAPE_NORM in one coordinate."""
    cat = catalog(P11)
    p1 = np.array(cat.get("P1").state.as_floats())
    ac = np.array(cat.get("AC_1").state.as_floats())
    return [p1, p1 + 1e-3, ac, _row(p1, 6, math.nan),
            _row(p1, 4, p1[4] + R), np.full(8, math.nan),
            _row(p1, 2, math.inf), _row(ac, 7, -math.inf),
            _row(p1 + 1e-3, 0, math.nan),
            _row(p1, 5, 2.0 * shooting.ESCAPE_NORM)]


def _table(exact, runs):
    """(candidates, etas, states): the exact targets and rows, or the
    (1, 1) limit points and _p11_rows, with each (row index, count) of
    runs repeating one row of the alphabet, so some tails stay in a
    ball long enough to decide; samples lie 0.05 apart in eta."""
    if exact:
        candidates, rows = EXACT_TARGETS, EXACT_ROWS
    else:
        candidates, rows = shooting._limit_candidates(P11), _p11_rows()
    states = np.array([rows[i % len(rows)] for i, count in runs
                       for _ in range(count)])
    return candidates, np.arange(len(states)) * 0.05, states


RUNS = st.lists(st.tuples(st.integers(0, 10), st.integers(1, 130)),
                min_size=2, max_size=6)


def _reference_outcome(etas, states, candidates):
    """classify's verdict with every row max-norm taken by
    .max(axis=1), the decision from the whole table at once."""
    norms = np.abs(states).max(axis=1)
    crossed = np.nonzero(norms >= shooting.ESCAPE_NORM * (1.0 - 1e-9))[0]
    if crossed.size:
        i = int(crossed[0])
        return ("Escape", float(norms[i]), float(etas[i]))
    for kind, label, target in candidates:
        dist = np.abs(states - target).max(axis=1)
        outside = np.flatnonzero(~(dist <= R))
        start = int(outside[-1]) + 1 if outside.size else 0
        if start == len(etas):
            continue
        if (etas[-1] - etas[start] >= shooting.DECISION_WINDOW - 1e-9
                or start == 0):
            return (kind, label, float(dist[-1]), float(etas[start]))
    dists = [(float(np.max(np.abs(states[-1] - target))), label)
             for _, label, target in candidates]
    return ("Undetermined",) + min(dists) + (float(etas[-1]),)


def _verdict(outcome):
    if outcome.kind == "Escape":
        return (outcome.kind, outcome.limit_distance, outcome.eta_at_decision)
    if outcome.kind == "Undetermined":
        return (outcome.kind, outcome.limit_distance,
                outcome.note.split()[2], outcome.eta_at_decision)
    return (outcome.kind, outcome.limit_label, outcome.limit_distance,
            outcome.eta_at_decision)


def _float_bits(verdict):
    return tuple(_bits([v]) if isinstance(v, float) else v for v in verdict)


@settings(max_examples=120, deadline=4000)
@given(exact=st.booleans(), runs=RUNS)
# runs of P1 (row 0) and of rows next to it (row 1): the window closes
# at 101 rows inside the ball, not at 100
@example(exact=False, runs=[(0, 7)])
@example(exact=False, runs=[(1, 1), (0, 6)])
@example(exact=False, runs=[(0, 30), (1, 1)])
@example(exact=False, runs=[(1, 20), (0, 101)])
@example(exact=False, runs=[(1, 20), (0, 100)])
@example(exact=False, runs=[(0, 50), (1, 1), (0, 101)])
@example(exact=False, runs=[(0, 1), (1, 1)] * 40 + [(0, 120)])
def test_classify_on_nan_and_inf_rows_matches_row_max_reference(exact, runs):
    """On tables of limit points, rows next to them, on or just past a
    ball's boundary, and rows holding NaN, +inf or -inf, classify's
    column-wise reductions and pruned decision give, bit for bit, the
    verdict of a reference that measures every row against every
    target with .max(axis=1)."""
    candidates, etas, states = _table(exact, runs)
    with mock.patch.object(shooting, "_limit_candidates",
                           lambda params: candidates):
        got = classify(SimpleNamespace(etas=etas, states=states), P11)
    want = _reference_outcome(etas, states, candidates)
    assert _float_bits(_verdict(got)) == _float_bits(want)


@settings(max_examples=120, deadline=4000)
@given(exact=st.booleans(), runs=RUNS)
def test_decision_is_none_where_may_decide_is_false(exact, runs):
    """On the same alphabets, a table whose last row ends in a tail that
    _may_decide puts outside every ball is one _decision leaves
    undecided, for the Z tail that spin runs pass and the whole row
    that Ricci-flat runs pass; on the whole row _may_decide is True
    exactly when a ball holds the row."""
    candidates, etas, states = _table(exact, runs)
    targets = [target.tolist() for _, _, target in candidates]
    decided = shooting._decision(etas, states, candidates)
    for tail in (states[-1, 4:].tolist(), states[-1].tolist()):
        assert decided is None or shooting._may_decide(tail, targets)
    assert shooting._may_decide(states[-1].tolist(), targets) == any(
        np.max(np.abs(states[-1] - target)) <= R
        for _, _, target in candidates)


def _full_scan(states, target):
    outside = np.flatnonzero(~(np.abs(states - target).max(axis=1) <= R))
    return int(outside[-1]) if outside.size else -1


# an inside row, rows just inside and just outside the ball, far off, NaN
SCAN_ROWS = (np.zeros(8), np.full(8, R), _row(np.zeros(8), 3, -R),
             _row(np.zeros(8), 6, math.nextafter(R, 1.0)), np.ones(8),
             _row(np.zeros(8), 1, math.nan), np.full(8, math.nan))


@settings(max_examples=150, deadline=None)
@given(runs=st.lists(st.tuples(st.integers(0, len(SCAN_ROWS) - 1),
                               st.integers(1, 700)), min_size=1, max_size=5))
@example(runs=[(0, 3000)])
@example(runs=[(4, 1), (0, 101)])
@example(runs=[(4, 1), (0, 102)])
@example(runs=[(6, 1), (1, 2600)])
@example(runs=[(5, 1), (2, 303), (0, 101)])
def test_last_outside_matches_a_full_scan(runs):
    """The backward scan in doubling windows finds the last row outside
    the ball that a scan of the whole table finds, with NaN rows
    counted as outside, or -1 when every row is inside; so does
    _decision's window start."""
    states = np.array([SCAN_ROWS[i] for i, count in runs
                       for _ in range(count)])
    want = _full_scan(states, np.zeros(8))
    assert shooting._last_outside(states, np.zeros(8)) == want
    etas = np.arange(len(states)) * 0.05
    decided = shooting._decision(etas, states, (("ALC", "T0", np.zeros(8)),))
    if decided is not None:
        assert decided.eta_at_decision == etas[want + 1]


def test_limit_candidates_are_built_once_per_orbit():
    """A second call, with the AWParams or the (k, l) pair, returns the
    same tuple; its targets are the cataloged points as floats, in
    decision priority, and refuse writes."""
    first = shooting._limit_candidates(P32)
    assert shooting._limit_candidates((3, 2)) is first
    assert [label for _, label, _ in first] == [
        "P1", "ALC_b1", "ALC_b2", "ALC_b3", "AC_1", "AC_2"]
    for _, label, target in first:
        assert target.tolist() == list(catalog(P32).get(label).state
                                       .as_floats())
        with pytest.raises(ValueError, match="read-only"):
            target[0] = 0.0


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


OUTCOME_RUNS = {
    "converging spin+": ShootSpec(P32, "k+l", "spin+", (0.6, 0.8)),
    "converging spin- full horizon": ShootSpec(
        P32, "k", "spin-", (0.8, 0.6), stop_on_converged=False),
    "face-locked AC line": ShootSpec(
        P11, "k+l", "spin+", (-3.0 / math.sqrt(10.0), 1.0 / math.sqrt(10.0))),
    "face-locked AC curve, full horizon": ShootSpec(
        P11, "k", "spin-", (-1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)),
        stop_on_converged=False),
    "escaping": ShootSpec(P11, "k", "spin-", (-0.9, math.sqrt(1.0 - 0.81))),
    "ricci": ShootSpec(P32, "k+l", "ricci", (0.6, 0.8, 0.0)),
    "ricci full horizon": ShootSpec(P32, "k+l", "ricci", (0.6, 0.8, 0.0),
                                    stop_on_converged=False),
    "undetermined": ShootSpec(P32, "k+l", "spin+", (0.6, 0.8), eta_max=3.0),
}


@pytest.mark.parametrize("name", sorted(OUTCOME_RUNS))
def test_integrate_outcome_equals_classify(name):
    """integrate's outcome is classify's verdict on the finished table
    (face-locked AC runs add a note), also where the run stopped early
    on a decision taken mid-run from the table built so far."""
    traj = integrate(OUTCOME_RUNS[name])
    expected = classify(traj)
    if traj.face_lock is not None:
        assert expected.kind == "AC" and expected.note == ""
        assert "invariant boundary segment" in traj.outcome.note
        expected = replace(expected, note=traj.outcome.note)
    assert traj.outcome == expected
    kind = {"escaping": "Escape", "undetermined": "Undetermined"}.get(
        name, "AC" if "AC" in name else "ALC")
    assert traj.outcome.kind == kind


@pytest.mark.parametrize("window", [shooting.DECISION_WINDOW, 1.0])
@pytest.mark.parametrize("name", sorted(
    name for name, spec in OUTCOME_RUNS.items() if spec.stop_on_converged))
def test_early_stop_is_the_full_run_cut_at_its_first_decision(name, window,
                                                              monkeypatch):
    """An early-stopped run is its full-horizon twin cut at the first
    chunk end whose prefix classify decides, plus the "converged" event.

    Full-horizon runs sample once at the end, so the oracle does not
    depend on the test that decides when an early-stopping run samples.
    With the shipped window a stopping row lies within 0.43 radii of
    P1 (5 units at the slowest rate, 1/6); the 1-unit window also puts
    stopping rows in the outer half of the ball.
    """
    monkeypatch.setattr(shooting, "DECISION_WINDOW", window)
    spec = OUTCOME_RUNS[name]
    early = integrate(spec)
    full = integrate(replace(spec, stop_on_converged=False))
    cut, outcome, events = len(full.etas), full.outcome, full.events
    for top in np.arange(shooting.CHUNK_LENGTH, full.etas[-1] + 1e-9,
                         shooting.CHUNK_LENGTH):
        n = int(np.searchsorted(full.etas, top, side="right"))
        verdict = classify(SimpleNamespace(etas=full.etas[:n],
                                           states=full.states[:n]),
                           spec.params)
        if verdict.kind in ("ALC", "AC"):
            cut, outcome = n, verdict
            events = tuple(e for e in full.events if e[0] <= top) + (
                (verdict.eta_at_decision, "converged"),)
            break
    assert (outcome is full.outcome) == (name in ("escaping",
                                                  "undetermined"))
    if early.face_lock is not None:
        outcome = replace(outcome, note=early.outcome.note)
    assert _bits(early.etas) == _bits(full.etas[:cut])
    assert _bits(early.states) == _bits(full.states[:cut])
    assert _bits(early.residual_log) == _bits(full.residual_log[:cut])
    assert early.events == events
    assert early.outcome == outcome


def modules_after_a_fresh_import(prefix):
    """The sorted names of the modules under prefix that a fresh process
    has loaded after importing spin7flow and spin7flow.cli."""
    src = Path(spin7flow.__file__).resolve().parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src.parent)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                             else []))
    code = ("import sys, spin7flow, spin7flow.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == %r or m.startswith(%r)))" % (prefix, prefix + "."))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_package_imports_without_scipy():
    src = Path(spin7flow.__file__).resolve().parent
    assert modules_after_a_fresh_import("scipy") == "[]"
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names]
                     if isinstance(node, ast.Import) else
                     [node.module or ""] if isinstance(node, ast.ImportFrom)
                     else [])
            assert not any(n.split(".")[0] == "scipy" for n in names), \
                "%s:%d imports scipy" % (path.name, node.lineno)


def test_package_imports_without_a_process_pool():
    # sweep imports concurrent.futures itself, when it starts a pool.
    assert modules_after_a_fresh_import("concurrent.futures") == "[]"
