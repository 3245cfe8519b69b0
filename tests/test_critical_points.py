"""Tests for the critical-point catalog, linearizations, and eigenframes."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spin7flow.aw_algebra import AWParams
from spin7flow import critical_points
from spin7flow.cli import main
from spin7flow.critical_points import (LABEL_P1, LABELS_ALC_B,
                                       LABELS_G2_SADDLE, LABELS_G2_SOURCE,
                                       RESID_TOL, SEEDS, CriticalPoint,
                                       FlowClass, _catalog_cached,
                                       _einstein_values_and_rows,
                                       _newton_step,
                                       _polish, _spectrum, _table_p0_k,
                                       _table_p0_kplusl, _table_p0_l,
                                       _table_p1,
                                       _try_exact_einstein, catalog,
                                       constraint_gradients, eigen,
                                       first_order_jacobians, jacobian,
                                       reference_frame,
                                       solve_homogeneous_einstein,
                                       unstable_frame)
from spin7flow.errors import (InvalidParameterError, InvalidRequestError,
                              SolverIncompleteError)
from spin7flow.exact import QuadExt
from spin7flow.phase_system import (PhaseState, _crf_body, _Dual,
                                    _exact_einstein_residual, _flow_body,
                                    _scaled_coefficients, _systems, _trace,
                                    derivative, einstein_residual,
                                    flow_rhs, residuals, vector_field)
from spin7flow.ratpoly import RatPoly

import fraction_reference
from printed_tables import (expected_lin_cone_k, expected_lin_cone_kpl,
                            expected_lin_sink)

F = Fraction
PARAMS = [AWParams(1, 0), AWParams(1, 1), AWParams(3, 2), AWParams(17, 5)]


def test_catalog_labels():
    for p in PARAMS:
        cat = catalog(p)
        labels = cat.labels()
        expected = {"P0_KplusL", "P0_K", "P1", "ALC_b1", "ALC_b2", "ALC_b3",
                    "AC_1", "AC_2", "G2_source_1", "G2_source_2", "G2_source_3",
                    "G2_saddle_1", "G2_saddle_2", "G2_saddle_3"}
        assert expected.issubset(set(labels))
        if p.l > 0:
            assert "P0_L" in labels
        else:
            assert "P0_L" not in labels
            assert any(n.label == "P0_L" for n in cat.notes)
        family_labels = {f.label for f in cat.families}
        assert family_labels == {"CircleFamily", "LineFamily"}


def test_exact_points_have_zero_velocity():
    for p in PARAMS:
        for pt in catalog(p).points:
            if not pt.exact:
                continue
            vel = vector_field(p, pt.state)
            assert all(v == 0 for v in vel.as_tuple()), (p, pt.label)
            res = residuals(p, pt.state)
            assert res.hyperplane == 0
            assert res.conservation == 0


def test_inexact_ac_points_have_small_velocity():
    for p in PARAMS:
        for pt in catalog(p).points:
            if pt.exact:
                continue
            rhs = flow_rhs(p)
            vel = rhs(0.0, pt.state.as_floats())
            assert max(abs(v) for v in vel) < 1e-10, (p, pt.label)


def test_ac_pair_printed_values_for_1_1():
    cat = catalog(AWParams(1, 1))
    ac1, ac2 = cat.get("AC_1"), cat.get("AC_2")
    assert ac1.exact and ac2.exact
    assert ac1.state.X == (F(1, 7),) * 4
    assert ac1.state.Z == (F(2, 7), F(1, 7), F(1, 7), F(21))
    assert ac2.state.Z == (F(2, 21), F(5, 21), F(5, 21), F(63, 5))


def test_ac_solver_finds_two_positive_solutions():
    for kl in [(1, 0), (1, 1), (3, 2), (13, 5), (17, 5), (55, 41), (59, 23)]:
        p = AWParams(*kl)
        sols = solve_homogeneous_einstein(p)
        assert len(sols) == 2
        (z_first, _), (z_second, _) = sols
        assert float(z_first[0]) > float(z_second[0])
        for z, exact in sols:
            assert all(float(v) > 0 for v in z)
            assert exact == (kl == (1, 1))
            resid = critical_points.einstein_residual(
                p, *(Fraction(v) for v in z[:3]))[0]
            assert all(abs(r) < 1e-15 for r in resid)


def grid_roots(params):
    """The AC roots found by Newton from a 10^3 grid on [0.05, 0.5]^3,
    in at most 80 sweeps, batched over numpy columns of
    einstein_residual with a central-difference Jacobian (step 1e-6)
    and LAPACK solves, so it shares no code with the solver's step.

    Iterates are clipped to [1e-4, 4]; a start retires once its residual
    is below RESID_TOL, and a system with a non-finite entry or
    |det| <= 1e-14 takes no step.  Converged iterates within 1e-6 (max
    norm) of an earlier one count as the same root.  Each root comes
    back rationalized or polished as solve_homogeneous_einstein does it.
    """
    def resid(w):
        with np.errstate(all="ignore"):
            return np.array(einstein_residual(params, *w.T)[0]).T

    h = 1e-6
    axis = np.linspace(0.05, 0.5, 10)
    z = np.array(np.meshgrid(axis, axis, axis)).reshape(3, -1).T
    live = np.arange(len(z))
    converged = np.zeros(len(z), dtype=bool)
    for sweep in range(81):
        rows = resid(z[live])
        done = np.abs(rows).max(axis=1) < RESID_TOL
        converged[live[done]] = True
        live, rows = live[~done], rows[~done]
        if not len(live) or sweep == 80:
            break
        jac = np.stack([(resid(z[live] + h * e) - resid(z[live] - h * e))
                        / (2 * h) for e in np.eye(3)], axis=2)
        ok = np.isfinite(jac).all(axis=(1, 2)) & np.isfinite(rows).all(axis=1)
        ok[ok] = np.abs(np.linalg.det(jac[ok])) > 1e-14
        step = np.zeros_like(rows)
        step[ok] = np.linalg.solve(jac[ok], rows[ok][..., None])[..., 0]
        z[live] = np.clip(z[live] - step, 1e-4, 4.0)
    z = z[converged]
    roots = []
    while len(z):
        polished = _polish(params, tuple(z[0].tolist()))
        roots.append(_try_exact_einstein(params, polished[:3]) or polished)
        z = z[np.abs(z - z[0]).max(axis=1) >= 1e-6]
    return sorted(roots, key=lambda v: -v[0])


@pytest.mark.parametrize("kl", [(1, 0), (1, 1), (2, 1), (3, 2), (13, 5),
                                (55, 41), (59, 23), (10 ** 6, 1),
                                (10 ** 6 + 1, 10 ** 6)])
def test_grid_search_finds_exactly_the_seeded_roots(kl):
    # The seeds are the AC pair of (1, 1); a 1000-start grid finds no
    # root that Newton from them misses.
    p = AWParams(*kl)
    assert grid_roots(p) == [z for z, _ in solve_homogeneous_einstein(p)]


def test_exact_check_runs_only_at_the_exact_roots(monkeypatch):
    """Each start is polished before its exact check, and the exact
    residual runs on a start's rationalized candidate only when the
    candidate's floats are the polished root: on the coprime orbits
    60 >= k >= l >= 1 and (1, 0), at the four exact AC points of (1, 1),
    (11, 2) and (38, 17) alone, each of which it verifies."""
    checked, active = [], []
    residual, attempt = (critical_points._exact_einstein_residual,
                         critical_points._try_exact_einstein)

    def counted(params, z):
        if active:
            active[-1].append(z)
        return residual(params, z)

    def tried(params, z123):
        checked.append([(params.k, params.l)])
        active.append(checked[-1])
        try:
            return attempt(params, z123)
        finally:
            active.pop()

    monkeypatch.setattr(critical_points, "_exact_einstein_residual", counted)
    monkeypatch.setattr(critical_points, "_try_exact_einstein", tried)
    orbits = [(1, 0)] + [(k, l) for k in range(1, 61)
                         for l in range(1, k + 1) if math.gcd(k, l) == 1]
    exact = [(kl, z) for kl in orbits
             for z, flag in solve_homogeneous_einstein(kl) if flag]
    assert len(checked) == 2 * len(orbits) == 2206
    assert [(kl, z[:3]) for kl, z in exact] == [
        tuple(start) for start in checked if len(start) > 1]
    assert [kl for kl, _ in exact] == [(1, 1), (1, 1), (11, 2), (38, 17)]


def test_newton_takes_at_most_six_steps_per_seed(monkeypatch):
    # The README's "at most six sweeps": each seed evaluates the system
    # at most 7 times (6 steps and the final check) on every orbit of
    # coprime 60 >= k > l >= 1, (1, 0), (1, 1) and two far orbits.
    orbits = [(k, l) for k in range(2, 61) for l in range(1, k)
              if math.gcd(k, l) == 1]
    orbits += [(1, 0), (1, 1), (10 ** 6, 1), (10 ** 6 + 1, 10 ** 6)]
    system = critical_points._einstein_values_and_rows
    newton = critical_points._newton
    calls, passes = [0], []

    def counting_system(params, z):
        calls[0] += 1
        return system(params, z)

    def counting_newton(params, seed):
        before = calls[0]
        z = newton(params, seed)
        passes.append(calls[0] - before)
        return z

    monkeypatch.setattr(critical_points, "_einstein_values_and_rows",
                        counting_system)
    monkeypatch.setattr(critical_points, "_newton", counting_newton)
    for kl in orbits:
        solve_homogeneous_einstein(AWParams(*kl))
    assert len(orbits) == 1105 and len(passes) == 2 * len(orbits)
    assert max(passes) <= 7


@pytest.fixture
def fresh_catalog():
    _catalog_cached.cache_clear()
    yield
    _catalog_cached.cache_clear()


@pytest.mark.parametrize("seeds, reason", [
    ((SEEDS[0], SEEDS[0]), "distinct positive"),
    (tuple(tuple(-v for v in z) for z in SEEDS), "distinct positive"),
    # Newton from this start wanders on (1, 0) without converging.
    (((1.0, 10.0, 1.0), SEEDS[1]), "did not reach"),
    # R4 = 0 there, since l = 0: the residual divides by zero.
    (((1.0, 0.0, 1.0), SEEDS[1]), "did not reach"),
], ids=["one-start-twice", "negated", "wandering", "r4-vanishes"])
def test_ac_solver_failure_is_reported(monkeypatch, fresh_catalog, seeds,
                                       reason):
    p = AWParams(1, 0)
    monkeypatch.setattr(critical_points, "SEEDS", seeds)
    with pytest.raises(SolverIncompleteError, match=reason):
        solve_homogeneous_einstein(p)
    cat = catalog(p)
    assert "AC_1" not in cat.labels() and "AC_2" not in cat.labels()
    [note] = [n for n in cat.notes if n.label == "AC"]
    assert note.reason.startswith("homogeneous Einstein solve failed: ")
    assert reason in note.reason


def test_newton_step_matches_lapack_solve():
    rng = np.random.default_rng(7)
    for _ in range(500):
        jac = 2.0 * np.eye(3) + 0.3 * rng.standard_normal((3, 3))
        r = rng.standard_normal(3)
        want = np.linalg.solve(jac, r)
        got = _newton_step(jac.tolist(), r.tolist())
        assert type(got) is tuple and all(type(v) is float for v in got)
        ulp = np.finfo(float).eps * np.abs(want).max()
        assert (np.abs(np.array(got) - want) <= 8 * ulp).all()


def test_newton_step_is_zero_on_masked_rows():
    good = [[2.0, 1.0, 0.0], [0.0, 3.0, 1.0], [1.0, 0.0, 4.0]]
    ones = [1.0, 1.0, 1.0]
    nan_entry = [[2.0, 1.0, math.nan], good[1], good[2]]
    inf_entry = [good[0], [0.0, math.inf, 1.0], good[2]]
    singular = [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]]
    tiny = (1e-5 * np.eye(3)).tolist()   # det 1e-15
    for jac, r in ((nan_entry, ones), (inf_entry, ones),
                   (good, [1.0, 1.0, -math.inf]), (singular, ones),
                   (tiny, ones)):
        assert _newton_step(jac, r) == (0.0, 0.0, 0.0)
    assert np.allclose(_newton_step(good, ones), np.linalg.solve(good, ones))
    step = _newton_step((1e-4 * np.eye(3)).tolist(), ones)  # det 1e-12
    assert np.allclose(step, [1e4] * 3)


def shifted(z, offsets):
    """z moved by offsets[i] ulps in coordinate i."""
    out = []
    for v, k in zip(z, offsets):
        for _ in range(abs(k)):
            v = math.nextafter(v, math.copysign(math.inf, k))
        out.append(v)
    return tuple(out)


@pytest.mark.parametrize("kl", [(3, 2), (17, 5), (55, 41), (59, 23)])
def test_ac_polish_is_canonical(kl):
    # The converged float iterates cycle through a few ulps; the exact
    # polish maps every float near a root to the same point.
    p = AWParams(*kl)
    rng = random.Random(kl[0] * 100 + kl[1])
    offsets = list(itertools.product((-8, 8), repeat=3)) + [
        tuple(rng.randint(-8, 8) for _ in range(3)) for _ in range(25)]
    for z, exact in solve_homogeneous_einstein(p):
        assert not exact
        assert _polish(p, z[:3]) == z
        for off in offsets:
            assert _polish(p, shifted(z[:3], off)) == z


@pytest.mark.parametrize("kl", [(1, 0), (3, 2), (55, 41)])
def test_einstein_system_rows_and_jacobians(kl):
    # At each point the rows have the bits of einstein_residual on
    # floats, and each Jacobian entry is the exact partial at the same
    # point up to rounding: at most 4.7e-16 of the largest partial in
    # its row on these points.  Partials that nearly cancel are small,
    # so an entry's error relative to itself reaches 1.4e-13.
    p = AWParams(*kl)
    points = np.random.default_rng(kl[0]).uniform(0.05, 0.5, size=(40, 3))
    for z in points.tolist():
        rows, jac = _einstein_values_and_rows(p, z)
        assert [v.hex() for v in rows] == \
            [v.hex() for v in einstein_residual(p, *z)[0]]
        assert len(jac) == 3 and all(len(row) == 3 for row in jac)
        exact = derivative(lambda y: einstein_residual(p, *y)[0],
                           tuple(map(Fraction, z)))
        for got, want in zip(jac, exact):
            scale = max(map(abs, want))
            for g, w in zip(got, want):
                assert abs(Fraction(g) - w) <= 1e-14 * scale


# Coprime k >= l >= 0 up to 10^6 + 1.
ORBITS = st.integers(1, 10 ** 6 + 1).flatmap(
    lambda k: st.tuples(st.just(k), st.integers(0, k))).filter(
    lambda kl: math.gcd(*kl) == 1)
FAR_ORBITS = [(1, 0), (1, 1), (10 ** 6, 1), (10 ** 6 + 1, 10 ** 6)]
# Magnitudes in [2^-60, 1].  The duals skip a factor that is 0 when they
# run and the kernel only one that is 0 where it is traced, so where a
# product of smaller coordinates underflows to 0 the two can part in the
# sign of a zero or in a NaN (see phase_system._derivative_rows).
UNIT_FLOATS = st.floats(2.0 ** -60, 1.0)


def typed_bits(values, rows):
    return [(type(v).__name__, float(v).hex())
            for v in values + sum(rows, ())]


@settings(max_examples=300, deadline=None)
@given(kl=ORBITS, z=st.tuples(UNIT_FLOATS, UNIT_FLOATS, UNIT_FLOATS))
@example(kl=(1, 0), z=(0.5, 0.25, 0.125))
@example(kl=(1, 1), z=SEEDS[0])
@example(kl=(10 ** 6, 1), z=SEEDS[1])
@example(kl=(10 ** 6 + 1, 10 ** 6), z=(1.0, 2.0 ** -60, 1.0))
def test_einstein_kernel_gives_the_dual_bits(kl, z):
    # The traced kernel returns the values and partials of the dual pass
    # over einstein_residual, type and bits.
    p = AWParams(*kl)
    assert typed_bits(*_einstein_values_and_rows(p, z)) == \
        typed_bits(*fraction_reference.einstein_system(p, z))


def test_einstein_kernel_divides_by_zero_as_the_duals_do():
    # R4 = 0 at l = 0, z = (1, 0, 1): every term of the residual that
    # reads Z4^2 has a zero factor, but the quotient is still taken.
    p = AWParams(1, 0)
    for system in (_einstein_values_and_rows,
                   fraction_reference.einstein_system):
        with pytest.raises(ZeroDivisionError):
            system(p, (1.0, 0.0, 1.0))
    for residual in (_exact_einstein_residual,
                     fraction_reference.exact_einstein_residual):
        with pytest.raises(ZeroDivisionError):
            residual(p, (1, 0, 1))
    # A plain trace keeps a quotient whose value a zero product drops;
    # the homogeneous (integer) form refuses a quotient.
    assert _trace(lambda v: (0 * (v[0] / v[1]) + v[1],), 2)[0] == \
        "w_0 = {v}0 / {v}1\n{k}0 = 0 + {v}1\n"
    with pytest.raises(ValueError, match="quotient"):
        _trace(lambda v: (v[0] / (v[1] * v[1]),), 2, homogeneous=True)


DYADIC = st.one_of(UNIT_FLOATS, st.floats(2.0 ** -30, 64.0),
                   st.builds(lambda n, e: Fraction(n, 2 ** e),
                             st.integers(1, 2 ** 40), st.integers(0, 80)))


@settings(max_examples=200, deadline=None)
@given(kl=ORBITS, z=st.tuples(DYADIC, DYADIC, DYADIC))
@example(kl=(1, 0), z=(0.5, 0.25, 0.125))
@example(kl=(1, 1), z=(F(2, 7), F(1, 7), F(1, 7)))
@example(kl=(1, 1), z=(F(2, 21), F(5, 21), F(5, 21)))
def test_exact_einstein_residual_is_the_fraction_one(kl, z):
    # Unreduced integer pairs: their quotients are the Fraction
    # residuals, their floats those Fractions' floats, and a residual
    # vanishes exactly when its numerator does.
    p = AWParams(*kl)
    got = _exact_einstein_residual(p, z)
    want = fraction_reference.exact_einstein_residual(p, z)
    assert all(type(n) is int and type(d) is int and d for n, d in got)
    assert tuple(F(n, d) for n, d in got) == want
    assert [n / d for n, d in got] == [float(v) for v in want]
    assert [n != 0 for n, _ in got] == [v != 0 for v in want]


@pytest.mark.parametrize("kl", FAR_ORBITS + [(3, 2), (13, 5), (59, 23)])
def test_exact_einstein_residual_at_the_solver_points(kl):
    # The rationalized polished roots that _try_exact_einstein checks, and
    # the exact AC points it finds, where the residual vanishes.
    p = AWParams(*kl)
    for z, exact in solve_homogeneous_einstein(p):
        z123 = (tuple(F(v).limit_denominator(10 ** 6) for v in z[:3]),
                z[:3])
        for point in z123:
            want = fraction_reference.exact_einstein_residual(p, point)
            assert tuple(F(n, d) for n, d in
                         _exact_einstein_residual(p, point)) == want
            assert (not any(want)) == (exact and point == z[:3])


def test_g2_points_satisfy_both_first_order_systems():
    for p in PARAMS:
        cat = catalog(p)
        for label in ("G2_source_1", "G2_source_2", "G2_source_3",
                      "G2_saddle_1", "G2_saddle_2", "G2_saddle_3"):
            res = residuals(p, cat.get(label).state)
            assert all(v == 0 for v in res.F)
            assert all(v == 0 for v in res.H)


def test_alc_companions_mirror_the_sink_block():
    cat = catalog(AWParams(3, 2))
    for label in ("ALC_b1", "ALC_b2", "ALC_b3"):
        st = cat.get(label).state
        assert st.X == (F(1, 6), F(1, 6), F(1, 6), 0)
        assert st.Z[3] == 0
        big = sorted(st.Z[:3], key=float)[-1]
        assert float(big) == pytest.approx(10 ** 0.5 / 12)


def test_circle_family_samples_are_exact_fixed_points():
    p = AWParams(3, 2)
    fam = next(f for f in catalog(p).families if f.label == "CircleFamily")
    rng = random.Random(7)
    for _ in range(25):
        d = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)]
        if all(v == 0 for v in d):
            continue
        st = fam.sample(*d)
        x1, x2, x3, x4 = st.X
        assert 2 * (x1 + x2 + x3) + x4 == 1
        assert 2 * (x1 * x1 + x2 * x2 + x3 * x3) + x4 * x4 == 1
        assert all(v == 0 for v in vector_field(p, st).as_tuple())
    with pytest.raises(InvalidRequestError):
        fam.sample(0, 0, 0)


def test_line_family_samples_are_exact_fixed_points():
    p = AWParams(1, 1)
    fam = next(f for f in catalog(p).families if f.label == "LineFamily")
    for z4 in (0, F(5, 2), 7):
        st = fam.sample(z4)
        assert all(v == 0 for v in vector_field(p, st).as_tuple())
    with pytest.raises(InvalidRequestError):
        fam.sample(-1)


def test_catalog_get_unknown_label_raises():
    with pytest.raises(InvalidRequestError):
        catalog(AWParams(3, 2)).get("nonsense")


def test_jacobian_matches_closed_forms():
    for p in (AWParams(3, 2), AWParams(1, 1)):
        cat = catalog(p)
        for label, expected in (
                ("P0_KplusL", expected_lin_cone_kpl(p)),
                ("P0_K", expected_lin_cone_k(p)),
                ("P1", expected_lin_sink())):
            got = jacobian(p, cat.get(label).state)
            for i in range(8):
                for j in range(8):
                    assert got[i][j] == expected[i][j], (label, i, j)


def jacobian_fd(params, state, step=1e-6):
    """Central-difference derivative of the float vector field, an oracle
    independent of the forward-mode Jacobian."""
    rhs = flow_rhs(params)
    y0 = np.asarray(state.as_floats(), dtype=float)
    out = np.empty((8, 8))
    for j in range(8):
        h = step * max(1.0, abs(y0[j]))
        yp, ym = y0.copy(), y0.copy()
        yp[j] += h
        ym[j] -= h
        out[:, j] = (np.asarray(rhs(0.0, yp))
                     - np.asarray(rhs(0.0, ym))) / (2.0 * h)
    return out


def test_jacobian_fd_cross_check():
    rng = random.Random(20240817)
    p = AWParams(3, 2)
    checked = 0
    for _ in range(100):
        x = [rng.uniform(-0.5, 0.8) for _ in range(4)]
        z = [rng.uniform(0.0, 1.2) for _ in range(4)]
        st = PhaseState(tuple(x), tuple(z))
        exact = np.array([[float(v) for v in row] for row in jacobian(p, st)])
        fd = jacobian_fd(p, st, step=1e-6)
        scale = np.maximum(1.0, np.abs(exact))
        assert np.all(np.abs(fd - exact) <= 1e-6 * scale)
        checked += 1
    assert checked == 100


def test_eigen_spectra_at_cone_points_and_sink():
    cone_expected = [(F(2, 3), 4), (F(-2, 3), 2), (F(-4, 3), 2)]
    sink_expected = [(F(1, 3), 1), (F(-1, 6), 3), (F(-2, 3), 2), (F(-5, 6), 2)]
    for p in PARAMS:
        labels = ["P0_KplusL", "P0_K"] + (["P0_L"] if p.l > 0 else [])
        for label in labels:
            data = eigen(p, label)
            assert data.max_residual <= 1e-10
            assert len(data.clusters) == 3
            for (got_val, got_mult), (want, mult) in zip(data.clusters,
                                                         cone_expected):
                assert got_mult == mult
                assert abs(got_val - float(want)) <= 1e-10
        data = eigen(p, "P1")
        assert data.max_residual <= 1e-10
        assert [m for _, m in data.clusters] == [1, 3, 2, 2]
        for (got_val, got_mult), (want, mult) in zip(data.clusters,
                                                     sink_expected):
            assert abs(got_val - float(want)) <= 1e-10


def test_eigen_accepts_point_objects_and_rejects_families():
    p = AWParams(3, 2)
    pt = catalog(p).get("ALC_b1")
    data = eigen(p, pt)
    assert data.max_residual <= 1e-9
    with pytest.raises(InvalidRequestError):
        eigen(p, "CircleFamily")
    with pytest.raises(InvalidRequestError):
        eigen(p, "LineFamily")


@pytest.mark.parametrize("kl", [(1, 0), (1, 1), (3, 2), (13, 5), (55, 41),
                                (59, 23)])
def test_eigen_decomposes_the_rounded_dual_jacobian(kl, monkeypatch):
    """The matrix eigen hands to LAPACK is the dual-pass Jacobian rounded
    entry by entry, bit for bit with the sign of every zero.  At (1, 0)
    the coefficient of (Z1*Z3)^2 is 0, so row 1, column 7 of AC_1 and
    AC_2 is +0.0, as the duals leave it."""
    p = AWParams(*kl)
    matrices = []
    eig = np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig",
                        lambda mat: matrices.append(mat.copy()) or eig(mat))
    for pt in catalog(p).points:
        critical_points._spectrum.cache_clear()
        eigen(p, pt)
        want = [float(v) for row in fraction_reference.jacobian(p, pt.state)
                for v in row]
        assert [v.hex() for v in matrices.pop().ravel().tolist()] == \
            [v.hex() for v in want], pt.label
    if kl == (1, 0):
        for label in ("AC_1", "AC_2"):
            critical_points._spectrum.cache_clear()
            eigen(p, label)
            assert math.copysign(1.0, matrices.pop()[1, 7]) == 1.0


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_eigen_refuses_a_non_finite_state(bad):
    p = AWParams(3, 2)
    sink = catalog(p).get("P1").state
    state = PhaseState(sink.X, (bad,) + sink.Z[1:])
    with pytest.raises(InvalidRequestError, match="not finite"):
        eigen(p, state)


def test_eigen_refuses_an_exact_state_beyond_the_float_range():
    # Exact entries are rounded as N / D**deg, which overflows here.
    p = AWParams(3, 2)
    sixth = F(1, 6)
    state = PhaseState((sixth,) * 4, (F(10 ** 200), sixth, sixth, F(1)))
    with pytest.raises(InvalidRequestError, match="not finite"):
        eigen(p, state)


ORBIT_FREE = (LABEL_P1,) + LABELS_ALC_B + LABELS_G2_SOURCE + LABELS_G2_SADDLE


def _bits(data):
    """Everything eigen returns but the label, bit for bit."""
    return ([(complex(v).real.hex(), complex(v).imag.hex())
             for v in data.values], repr(data.clusters),
            data.vectors.tobytes(), data.max_residual.hex())


def test_eigen_hit_equals_a_cold_call():
    """The ten points with Z4 = 0 are decomposed once for all orbits: a
    hit warmed on (7, 3) gives every orbit's spectrum bit for bit as a
    call with the cache cleared does, under the caller's label.  (1, 0)
    shares them: its zero quartic coefficient l^2 is not read there."""
    orbits = [AWParams(*kl) for kl in ((1, 0), (1, 1), (3, 2), (13, 5),
                                       (55, 41), (59, 23))]
    cold = {}
    for p in orbits:
        for label in ORBIT_FREE:
            _spectrum.cache_clear()
            cold[p, label] = _bits(eigen(p, label))
    _spectrum.cache_clear()
    for label in ORBIT_FREE:
        eigen(AWParams(7, 3), label)
    for p in orbits:
        for label in ORBIT_FREE:
            hit = eigen(p, label)
            assert hit.label == label
            assert _bits(hit) == cold[p, label], (p, label)
        assert eigen(p, catalog(p).get(LABEL_P1).state).label == "(ad hoc)"
    info = _spectrum.cache_info()
    assert (info.misses, info.hits) == (10, 11 * len(orbits))


def test_eigen_keys_on_the_type_and_form_of_each_input():
    """A float state does not share the exact state's entry, even where
    its floats equal the exact entries (the G2 source), nor
    sqrt(40)/24 the entry of sqrt(10)/12."""
    p = AWParams(3, 2)
    states = [catalog(p).get(label).state for label in ("P1", "G2_source_1")]
    states += [PhaseState.from_sequence(st.as_floats()) for st in states]
    assert states[3].as_tuple() == states[1].as_tuple()
    alc = catalog(p).get("ALC_b1").state
    states += [alc, PhaseState(alc.X, (QuadExt(0, F(1, 24), 40),) + alc.Z[1:])]
    assert states[5].Z[0] == alc.Z[0]
    _spectrum.cache_clear()
    for state in states:
        eigen(p, state)
    assert _spectrum.cache_info().misses == 6


def test_eigen_vectors_are_read_only():
    data = eigen(AWParams(3, 2), LABEL_P1)
    assert not data.vectors.flags.writeable
    with pytest.raises(ValueError):
        data.vectors[0, 0] = 0.0


def test_eigen_cache_is_bounded():
    """Over 200 orbits the cache keeps at most 64 entries, and each
    orbit-free point misses once."""
    assert _spectrum.cache_info().maxsize == 64
    _spectrum.cache_clear()
    per_orbit = 0
    for k in range(2, 202):
        p = AWParams(k, 1)
        points = catalog(p).points
        for pt in points:
            eigen(p, pt)
        per_orbit += len(points) - len(ORBIT_FREE)
        assert _spectrum.cache_info().currsize <= 64
    assert _spectrum.cache_info().misses == len(ORBIT_FREE) + per_orbit


@pytest.mark.parametrize("entry, message", [
    ("a", "not a real number"), (None, "not a real number"),
    (1j, "not a real number"), (QuadExt(0, 1, 3), "two quadratic fields"),
    (math.inf, "not finite")])
def test_eigen_refuses_a_bad_state_and_caches_nothing(entry, message):
    """A non-numeric entry (None too, which reads as zero), surds from two
    fields and a non-finite state raise InvalidRequestError naming the
    point, and leave no cache entry."""
    p = AWParams(3, 2)
    alc = catalog(p).get("ALC_b1").state
    bad = CriticalPoint("bad", PhaseState(alc.X, (entry,) + alc.Z[1:]),
                        False)
    _spectrum.cache_clear()
    with pytest.raises(InvalidRequestError, match="^bad: .*" + message):
        eigen(p, bad)
    assert _spectrum.cache_info().currsize == 0


def test_critical_points_take_a_pair():
    """Each public function takes (k, l) as AWParams(k, l); a malformed
    value raises a package error, not AttributeError."""
    p = AWParams(3, 2)
    assert catalog((3, 2)) is catalog(p)
    assert _bits(eigen((3, 2), LABEL_P1)) == _bits(eigen(p, LABEL_P1))
    assert reference_frame((3, 2), "P0_K") is reference_frame(p, "P0_K")
    assert unstable_frame((3, 2), "P0_KplusL", "spin+") == \
        unstable_frame(p, "P0_KplusL", FlowClass.SPIN_PLUS)
    assert solve_homogeneous_einstein((3, 2)) == solve_homogeneous_einstein(p)
    for bad in (None, 5, (3, 2, 1), "x"):
        with pytest.raises(InvalidRequestError, match=r"\(k, l\) pair"):
            catalog(bad)
        with pytest.raises(InvalidRequestError, match=r"\(k, l\) pair"):
            eigen(bad, LABEL_P1)
    with pytest.raises(InvalidParameterError):
        reference_frame((2, 3), "P1")
    with pytest.raises(InvalidRequestError, match="unknown flow class"):
        unstable_frame(p, "P0_KplusL", 5)


@pytest.mark.parametrize("derivative_of", [
    jacobian, constraint_gradients, first_order_jacobians])
def test_derivatives_take_a_pair(derivative_of):
    """The linearization and the constraint derivatives take (k, l) as
    AWParams(k, l), at exact and float states; a malformed value raises
    InvalidRequestError, not AttributeError."""
    p = AWParams(3, 2)
    for state in (catalog(p).get(LABEL_P1).state,
                  catalog(p).get("P0_K").state,
                  PhaseState.from_sequence(
                      catalog(p).get("P0_K").state.as_floats())):
        assert derivative_of((3, 2), state) == derivative_of(p, state)
    for bad in (None, 5, (3, 2, 1), "x"):
        with pytest.raises(InvalidRequestError, match=r"\(k, l\) pair"):
            derivative_of(bad, state)
    with pytest.raises(InvalidParameterError):
        derivative_of((2, 3), state)


def test_reference_frames_are_exact_eigenpairs():
    for p in PARAMS:
        labels = ["P0_KplusL", "P0_K", "P1"] + (["P0_L"] if p.l > 0 else [])
        for label in labels:
            frame = reference_frame(p, label)
            mat = jacobian(p, frame.point.state)
            assert len(frame.pairs) == 8
            for pair in frame.pairs:
                image = [sum(mat[i][j] * pair.vector[j] for j in range(8))
                         for i in range(8)]
                want = [pair.value * c for c in pair.vector]
                assert image == want, (p, label, pair)


def test_reference_frame_is_cached_per_orbit_and_label(tmp_path):
    """Frames are shared per (k, l, label), equal to a fresh build, and
    critical-points prints the same bytes with a cold or a warm cache."""
    cold = tmp_path / "cold.json"
    warm = tmp_path / "warm.json"
    critical_points._reference_frame_cached.cache_clear()
    assert main(["critical-points", "--k", "3", "--l", "2",
                 "--out", str(cold)]) == 0
    assert main(["critical-points", "--k", "3", "--l", "2",
                 "--out", str(warm)]) == 0
    assert cold.read_bytes() == warm.read_bytes()
    for label in ("P0_KplusL", "P0_K", "P0_L", "P1"):
        shared = reference_frame(AWParams(3, 2), label)
        assert reference_frame(AWParams(3, 2), label) is shared
        critical_points._reference_frame_cached.cache_clear()
        assert reference_frame(AWParams(3, 2), label) == shared


def test_reference_frame_vectors_match_printed_forms():
    p = AWParams(3, 2)
    frame = reference_frame(p, "P0_KplusL")
    assert frame.pairs[0].vector == (2, 0, 0, -4, 0, -1, -1, F(-36 * 19, 5))
    assert frame.pairs[1].vector == (-15, 22, 23, -60, 15, -23, -22, 0)
    frame_k = reference_frame(p, "P0_K")
    assert frame_k.pairs[1].vector == (17, 10, -9, -36, -10, -17, 9, 0)
    frame_l = reference_frame(p, "P0_L")
    assert frame_l.pairs[0].vector == (0, 2, 0, -4, -1, 0, -1, F(-36 * 19, 2))
    assert frame_l.pairs[1].vector == (13, -6, 5, -24, -5, 6, -13, 0)
    assert frame_l.pairs[2].vector == (-1, 0, 1, 0, -1, 0, 1, 0)


def test_k_bundle_frame_slot_corrections_are_forced():
    """Two table rows admit one valid slot placement only.

    Within the 2/3 eigenvalue block the Z entry of the fourth vector must
    sit on the vanishing Z slot, and within the -4/3 eigenspace the X part
    (-1, 1, 2, -4) forces the Z1 entry to be 1.  The variants with the
    entry shifted one slot (or doubled) fail the eigen equation exactly.
    """
    p = AWParams(3, 2)
    frame = reference_frame(p, "P0_K")
    mat = jacobian(p, frame.point.state)
    assert frame.pairs[3].vector == (3, 3, 0, 0, 0, 0, 2, 0)
    assert frame.pairs[7].vector == (-1, 1, 2, -4, 1, 0, 0, F(18 * 19, 3))

    def eigen_residual(vec, lam):
        image = [sum(mat[i][j] * vec[j] for j in range(8)) for i in range(8)]
        return [image[i] - lam * vec[i] for i in range(8)]

    bad_v4 = (3, 3, 0, 0, 0, 2, 0, 0)
    bad_v8 = (-1, 1, 2, -4, 2, 0, 0, F(18 * 19, 3))
    assert any(r != 0 for r in eigen_residual(bad_v4, F(2, 3)))
    assert any(r != 0 for r in eigen_residual(bad_v8, F(-4, 3)))
    assert all(r == 0 for r in eigen_residual(frame.pairs[3].vector, F(2, 3)))
    assert all(r == 0 for r in eigen_residual(frame.pairs[7].vector, F(-4, 3)))


def test_tangency_flags():
    for p in (AWParams(3, 2), AWParams(1, 1), AWParams(17, 5)):
        kpl = reference_frame(p, "P0_KplusL").pairs
        assert [v.tangent_crf for v in kpl] == [
            True, True, True, False, True, False, True, True]
        assert [v.tangent_spin_plus for v in kpl] == [
            True, True, False, False, False, False, True, False]
        k_frame = reference_frame(p, "P0_K").pairs
        assert [v.tangent_crf for v in k_frame] == [
            True, True, True, False, False, False, True, True]
        assert [v.tangent_spin_minus for v in k_frame] == [
            True, True, False, False, False, False, True, False]
        l_frame = reference_frame(p, "P0_L").pairs
        assert [v.tangent_crf for v in l_frame] == [
            True, True, True, False, False, False, True, True]
        assert [v.tangent_spin_minus for v in l_frame] == [
            True, True, False, False, False, False, True, False]
        sink = reference_frame(p, "P1").pairs
        assert [v.tangent_crf for v in sink] == [
            True, True, True, False, False, True, True, False]
        for pairs in (kpl, k_frame, l_frame, sink):
            for v in pairs:
                if v.tangent_spin_plus or v.tangent_spin_minus:
                    assert v.tangent_crf


def seeded_orbits(count, top, seed):
    """count coprime orbits with top >= k > l >= 1."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        k = rng.randint(2, top)
        l = rng.randint(1, k - 1)
        if math.gcd(k, l) == 1:
            out.append((k, l))
    return out


@pytest.mark.parametrize("kl", [(1, 0), (1, 1), (3, 2), (17, 5), (59, 23),
                                (10 ** 6, 1), (10 ** 6 + 1, 10 ** 6)]
                         + seeded_orbits(12, 10 ** 4, 32))
def test_tangency_flags_match_fraction_dot_products(kl):
    p = AWParams(*kl)
    for label in ("P0_KplusL", "P0_K", "P0_L", "P1"):
        if label == "P0_L" and p.l == 0:
            continue
        pairs = reference_frame(p, label).pairs
        assert [(v.tangent_crf, v.tangent_spin_plus, v.tangent_spin_minus)
                for v in pairs] == fraction_reference.tangency_flags(
            p, label, [v.vector for v in pairs])
        assert all(type(c) is Fraction for v in pairs for c in v.vector)


@pytest.mark.parametrize("kl", [(1, 0), (1, 1), (3, 2), (17, 5),
                                (10 ** 6, 1), (10 ** 6 + 1, 10 ** 6)])
def test_tangency_flags_match_the_public_derivatives(kl):
    """An independent per-orbit oracle: the typed flags are those of
    Fraction dot products with the rows of the public
    constraint_gradients and first_order_jacobians."""
    p = AWParams(*kl)
    for label in ("P0_KplusL", "P0_K", "P1") + (("P0_L",) if p.l else ()):
        frame = reference_frame(p, label)
        grads = constraint_gradients(p, frame.point.state)
        df, dh = first_order_jacobians(p, frame.point.state)
        for pair in frame.pairs:

            def annihilated(rows):
                return all(sum(a * b for a, b in zip(row, pair.vector)) == 0
                           for row in rows)

            crf = annihilated(grads.values())
            assert (pair.tangent_crf, pair.tangent_spin_plus,
                    pair.tangent_spin_minus) == (
                crf, crf and annihilated(df), crf and annihilated(dh))


# The proofs for every orbit run on symbols (k, l, u), with u = Z4/(6*Delta)
# in place of Z4.  phase_system's bodies read the orbit's coefficients only
# as c*Z4 and c*Z4**2, so on _scaled_coefficients(k, l) and u in the Z4 slot
# they give the flow in these coordinates, as polynomials in (k, l, u).
SYMBOLS = ("k", "l", "u")
K, L, U = (RatPoly.variable(SYMBOLS, name) for name in SYMBOLS)


def _symbolic_tables():
    """(label, order, l_zero, point, vals, rows) for each frame table in
    the u-coordinates.  A cone point has u = 1/order, kept as the symbol
    u, with order = k + l, l or k its scaled cubic coefficient over 3;
    the sink has u = 0 and order 1 (no u is cleared).  A P0 table's Z4 entry n*Delta/order
    is n*u/6 there, the table at delta = u/6.  The sink's vectors are
    scaled by 6*Delta, which keeps every flag and eigen equation.
    l_zero: whether the label's point exists at l = 0."""
    cubic = _scaled_coefficients(K, L)[0]
    out = []
    for i, (label, table) in enumerate((("P0_KplusL", _table_p0_kplusl),
                                        ("P0_L", _table_p0_l),
                                        ("P0_K", _table_p0_k))):
        x, z = [0, 0, 0, F(1, 3)], [F(1, 3)] * 3 + [U]
        x[i], z[i] = F(1, 3), 0
        vals, rows, den = table(K, L, U / 6)
        assert den == cubic[i] / 3
        out.append((label, den, label != "P0_L", tuple(x + z), vals, rows))
    vals, rows, _ = _table_p1()
    scale = 6 * (K * K + K * L + L * L)
    out.append(("P1", RatPoly.constant(SYMBOLS, 1), True,
                (F(1, 6),) * 3 + (0,) + (F(1, 6),) * 3 + (0,), vals,
                [(tuple(scale * v for v in vec[:7]) + vec[7:], flags)
                 for vec, flags in rows]))
    return out


def _symbolic_rows(body, coefficients, point):
    """derivative(body) at point on the scaled coefficients; they enter
    as constant duals, since a RatPoly times a dual raises."""
    c = tuple(_Dual(v, {}) for v in coefficients)
    return derivative(lambda y: body(c, y), point)


def _dot(row, vec):
    return sum((a * b for a, b in zip(row, vec)), RatPoly.zero(SYMBOLS))


def _at_orbit(poly, order):
    """order**deg_u times poly at u = 1/order: a polynomial in (k, l)
    with poly's zeros on every orbit, where order > 0."""
    top = max(poly.degree("u"), 0)
    return sum((poly.coefficient_of("u", e) * order ** (top - e)
                for e in range(top + 1)), RatPoly.zero(SYMBOLS))


def _zero_free(poly, l_zero):
    """Whether poly in (k, l) has no zero at integers k >= l >= 1, nor
    at l = 0 when l_zero: with k = l + m, its coefficients in (l, m)
    share one sign and it has a monomial without m, which is nonzero
    where l >= 1, and with l_zero one without l, nonzero where m >= 1."""
    names = ("l", "m")
    ell, m = (RatPoly.variable(names, name) for name in names)
    terms = poly.compose(names, {"k": ell + m, "l": ell, "u": 0}).terms
    return (len({c > 0 for c in terms.values()}) == 1
            and any(e[1] == 0 for e in terms)
            and (not l_zero or any(e[0] == 0 for e in terms)))


def _proven_flag(rows, vec, order, l_zero):
    """True when every row's dot product with vec is the zero
    polynomial, False when one of them has no zero on the label's
    orbits; anything else fails the proof."""
    dots = [_at_orbit(_dot(row, vec), order) for row in rows]
    if all(d.is_zero for d in dots):
        return True
    assert any(_zero_free(d, l_zero) for d in dots), dots
    return False


def test_zero_free_reads_the_orbits():
    """(k + l)*l vanishes on (1, 0) only, k - l on (1, 1), and
    k*k - 3*l*l on no orbit but has mixed signs, so only the first is
    proven zero-free, and only where l = 0 is left out."""
    assert _zero_free((K + L) * L, False)
    assert not _zero_free((K + L) * L, True)
    assert _zero_free(K + L, True) and _zero_free(-6 * K, True)
    assert not _zero_free(K - L, False)
    assert not _zero_free(K * K - 3 * L * L, False)
    assert not _zero_free(RatPoly.zero(SYMBOLS), False)


def test_symbolic_points_are_the_catalog_points():
    """Each table's point in the u-coordinates is the cataloged point."""
    for p in PARAMS:
        for label, order, l_zero, point, _, _ in _symbolic_tables():
            if l_zero or p.l:
                u = 1 / order.evaluate((p.k, p.l, 0))
                state = catalog(p).get(label).state.as_tuple()
                assert state[:7] + (state[7] / (6 * p.delta),) == tuple(
                    v.evaluate((p.k, p.l, u)) if type(v) is RatPoly else v
                    for v in point)


def test_typed_tangency_flags_hold_on_every_orbit():
    """Every typed (crf, spin+, spin-) flag of the four tables is
    derived once for all (k, l) from phase_system's own bodies: a True
    flag from dot products that are the zero polynomial, a False one
    from a dot product with no zero on the orbits where the point
    exists."""
    cubic, quartic = _scaled_coefficients(K, L)
    proven = 0
    for label, order, l_zero, point, _, rows in _symbolic_tables():
        crf = _symbolic_rows(_crf_body, quartic, point)
        systems = _symbolic_rows(_systems, cubic, point)
        for vec, flags in rows:
            tangent = _proven_flag(crf, vec, order, l_zero)
            assert (tangent,
                    tangent and _proven_flag(systems[:4], vec, order, l_zero),
                    tangent and _proven_flag(systems[4:], vec, order, l_zero)
                    ) == flags, (label, vec)
            proven += 3
    assert proven == 96


def test_tables_are_exact_eigenpairs_on_every_orbit():
    """J*v = lambda*v for all 32 table pairs, as polynomial identities in
    (k, l), with J the Jacobian of _flow_body at the table's point."""
    quartic = _scaled_coefficients(K, L)[1]
    pairs = 0
    for label, order, _, point, vals, rows in _symbolic_tables():
        jac = _symbolic_rows(_flow_body, quartic, point)
        for lam, (vec, _) in zip(vals, rows):
            for row, v in zip(jac, vec):
                assert _at_orbit(_dot(row, vec) - lam * v, order).is_zero, (
                    label, vec)
            pairs += 1
    assert pairs == 32


def test_unstable_frame_selection_and_chirality():
    p = AWParams(3, 2)
    rf = unstable_frame(p, "P0_KplusL", FlowClass.RICCI_FLAT)
    assert len(rf) == 3
    assert all(pair.value == F(2, 3) for pair in rf)
    assert all(pair.tangent_crf for pair in rf)
    plus = unstable_frame(p, "P0_KplusL", "spin+")
    assert len(plus) == 2
    assert all(pair.tangent_spin_plus for pair in plus)
    minus_k = unstable_frame(p, "P0_K", FlowClass.SPIN_MINUS)
    assert len(minus_k) == 2
    minus_l = unstable_frame(p, "P0_L", "spin-")
    assert len(minus_l) == 2
    with pytest.raises(InvalidRequestError):
        unstable_frame(p, "P0_KplusL", FlowClass.SPIN_MINUS)
    with pytest.raises(InvalidRequestError):
        unstable_frame(p, "P0_K", FlowClass.SPIN_PLUS)
    with pytest.raises(InvalidRequestError):
        unstable_frame(p, "P1", FlowClass.RICCI_FLAT)
    with pytest.raises(InvalidRequestError):
        unstable_frame(p, "P0_K", "bogus")


@pytest.mark.parametrize("p", PARAMS)
def test_fixed_family_samples_are_exact_ricci_flat_fixed_points(p):
    """Every sample of the Z = 0 surface and of the X4-axis ray is an
    exact fixed point on the Ricci-flat set; a zero direction and a
    negative z4 are refused."""
    samplers = {fam.label: fam.sample for fam in catalog(p).families}
    circle, line = samplers["CircleFamily"], samplers["LineFamily"]
    states = [circle(*d) for d in ((1, 0, 0), (F(1, 2), F(-1, 3), 2),
                                   (1, -1, 0), (0, 0, F(-5, 7)), (-1, 1, 1))]
    states += [line(z4) for z4 in (0, F(7, 3), 5)]
    for state in states:
        vel = vector_field(p, state)
        assert all(v == 0 for v in vel.X + vel.Z)
        res = residuals(p, state)
        assert (res.hyperplane, res.conservation) == (0, 0)
    with pytest.raises(InvalidRequestError):
        circle(0, 0, 0)
    with pytest.raises(InvalidRequestError):
        line(F(-1, 5))


def test_l_bundle_frame_absent_for_l_zero():
    p = AWParams(1, 0)
    with pytest.raises(InvalidRequestError):
        reference_frame(p, "P0_L")
    with pytest.raises(InvalidRequestError):
        unstable_frame(p, "P0_L", FlowClass.SPIN_MINUS)
