"""Acceptance suite: one test and one printed pass/fail line per criterion.

Each criterion is exercised at its stated tolerance and runtime budget.
Criterion 3 is reported honestly: every requirement holds except the
decision-time bound, which the sink's own contraction rate rules out;
the failure message carries the quantitative analysis.
"""

import math
import time
from fractions import Fraction as F

import numpy as np
import pytest

from conftest import ACCEPTANCE_LINES
from printed_tables import (expected_lin_cone_k, expected_lin_cone_kpl,
                            expected_lin_sink)
from spin7flow.aw_algebra import AWParams
from spin7flow.critical_points import (catalog, eigen, jacobian,
                                       reference_frame)
from spin7flow.phase_system import membership, vector_field
from spin7flow.polycert import (certify_line_resultant, certify_ray_resultant,
                                implicit_derivatives, line_resultant,
                                printed_line_resultant, printed_ray_expansion,
                                root_gap_hessian_det, rtilde,
                                stated_boundary_zeros)
from spin7flow.shooting import reconstruct_metric

P32 = AWParams(3, 2)
P11 = AWParams(1, 1)
C1_PARAMS = (AWParams(1, 0), AWParams(1, 1), AWParams(3, 2), AWParams(17, 5))
C6_PARAMS = (AWParams(1, 0), AWParams(29, 1), AWParams(17, 5),
             AWParams(3, 2), AWParams(7, 6), AWParams(1, 1))

AC1_STATE = ((F(1, 7),) * 4, (F(2, 7), F(1, 7), F(1, 7), F(21)))
AC2_STATE = ((F(1, 7),) * 4, (F(2, 21), F(5, 21), F(5, 21), F(63, 5)))

CONE_SPECTRUM = ((F(2, 3), 4), (F(-2, 3), 2), (F(-4, 3), 2))
SINK_SPECTRUM = ((F(1, 3), 1), (F(-1, 6), 3), (F(-2, 3), 2), (F(-5, 6), 2))


def _report(number, ok, detail):
    line = "C%d %s: %s" % (number, "PASS" if ok else "FAIL", detail)
    print(line)
    ACCEPTANCE_LINES.append(line)


def _sweep_items(runs):
    return [(key, traj) for key, traj in runs.items() if key != "elapsed"]


def test_c1_fixed_point_exactness():
    start = time.perf_counter()
    printed_pair = {}
    for params in C1_PARAMS:
        cat = catalog(params)
        labels = set(cat.labels())
        assert {"P1", "G2_source_1", "G2_source_2", "G2_source_3",
                "G2_saddle_1", "G2_saddle_2", "G2_saddle_3",
                "AC_1", "AC_2"} <= labels
        for point in cat.points:
            vel = vector_field(params, point.state)
            components = vel.X + vel.Z
            if point.exact:
                assert all(v == 0 for v in components), point.label
            else:
                assert max(abs(float(v)) for v in components) <= 1e-12
                assert any(note.label == point.label for note in cat.notes)
        if (params.k, params.l) == (1, 1):
            printed_pair["AC_1"] = cat.get("AC_1")
            printed_pair["AC_2"] = cat.get("AC_2")
    assert printed_pair["AC_1"].state.X == AC1_STATE[0]
    assert printed_pair["AC_1"].state.Z == AC1_STATE[1]
    assert printed_pair["AC_2"].state.X == AC2_STATE[0]
    assert printed_pair["AC_2"].state.Z == AC2_STATE[1]
    elapsed = time.perf_counter() - start
    ok = elapsed < 1.0
    _report(1, ok, "exact vanishing at all cataloged points for four "
            "parameter pairs; printed (1, 1) cone-limit pair matched "
            "(%.2f s)" % elapsed)
    assert ok


def test_c2_linearization_tables():
    start = time.perf_counter()
    for params in (P32, P11):
        cat = catalog(params)
        for label, expected in (("P0_KplusL", expected_lin_cone_kpl(params)),
                                ("P0_K", expected_lin_cone_k(params)),
                                ("P1", expected_lin_sink())):
            got = jacobian(params, cat.get(label).state)
            assert all(got[i][j] == expected[i][j]
                       for i in range(8) for j in range(8)), label
        for label, spectrum in (("P0_KplusL", CONE_SPECTRUM),
                                ("P0_K", CONE_SPECTRUM),
                                ("P1", SINK_SPECTRUM)):
            data = eigen(params, label)
            assert data.max_residual <= 1e-10
            assert len(data.clusters) == len(spectrum)
            for (value, mult), (want, want_mult) in zip(data.clusters,
                                                        spectrum):
                assert mult == want_mult
                assert abs(value - float(want)) <= 1e-10
            matrix = np.array([[float(v) for v in row]
                               for row in jacobian(params,
                                                   cat.get(label).state)])
            for pair in reference_frame(params, label).pairs:
                vec = np.array([float(c) for c in pair.vector])
                resid = matrix @ vec - float(pair.value) * vec
                assert np.linalg.norm(resid) <= 1e-10
        plus_flags = [p.tangent_spin_plus
                      for p in reference_frame(params, "P0_KplusL").pairs]
        assert plus_flags == [True, True, False, False,
                              False, False, True, False]
        crf_flags = [p.tangent_crf
                     for p in reference_frame(params, "P0_KplusL").pairs]
        assert crf_flags == [True, True, True, False, True, False, True, True]
        minus_flags = [p.tangent_spin_minus
                       for p in reference_frame(params, "P0_K").pairs]
        assert minus_flags == [True, True, False, False,
                               False, False, True, False]
    elapsed = time.perf_counter() - start
    ok = elapsed < 1.0
    _report(2, ok, "printed matrices entrywise exact, spectra and "
            "eigenvector residuals within 1e-10, tangency flags match "
            "(%.2f s)" % elapsed)
    assert ok


def test_c3_global_alc_family(alc_family_runs):
    runs = _sweep_items(alc_family_runs)
    assert len(runs) == 16
    set_for_bundle = {"k+l": "SCheck", "k": "TkCheck"}
    first_etas = []
    for (bundle, _j), traj in runs:
        out = traj.outcome
        assert out.kind == "ALC"
        assert out.limit_label == "P1"
        assert out.limit_distance <= 1e-6
        first_etas.append(out.eta_at_decision)
        for _eta, state in traj.samples:
            assert membership(P32, state, set_for_bundle[bundle],
                              tol=1e-7).ok
        z4 = traj.states[:, 7]
        assert np.all(np.diff(z4) <= 1e-9)
        assert float(np.max(traj.residual_log[:, :2])) <= 1e-6
    elapsed = alc_family_runs["elapsed"]
    assert elapsed < 30.0
    worst_eta = max(first_etas)
    ok = worst_eta <= 60.0
    detail = ("all 16 runs ALC(P1) within 1e-6, membership/monotonicity/"
              "drift within tolerance, %.1f s of integration; first eta "
              "with distance <= 1e-6 ranges %.1f..%.1f, bound was 60"
              % (elapsed, min(first_etas), worst_eta))
    _report(3, ok, detail)
    assert ok, (
        "every requirement except the decision-time bound holds; the "
        "decision distance includes Z4, which starts at 6*19/5 = 22.8 on "
        "the k+l bundle and 6*19/3 = 38 on the k bundle and contracts "
        "toward the sink at the slowest rate 1/6, so reaching 1e-6 needs "
        "at least 6*ln(22.8/1e-6) ~ 102 units of flow time; measured "
        "first crossings %.2f..%.2f agree, hence the eta <= 60 bound is "
        "unattainable; enlarging the initial offset to its admissible "
        "maximum only removes the slow start, not the terminal decay, "
        "and measured crossings stay above 100 there as well"
        % (min(first_etas), worst_eta))


def test_c4_boundary_runs(boundary_runs):
    line = boundary_runs["line"]
    curve = boundary_runs["curve"]
    elapsed = boundary_runs["elapsed"]

    z = line.states[:, 4:]
    assert float(np.max(np.abs(z[:, 1] - z[:, 2]))) <= 1e-6
    assert float(np.max(np.abs(3.0 * z[:, 0] + 3.0 * z[:, 1] - 1.0))) <= 1e-6
    assert line.outcome.kind == "AC"
    target = np.array([float(v) for v in AC2_STATE[0] + AC2_STATE[1]])
    assert float(np.max(np.abs(line.states[-1] - target))) <= 1e-6

    z = curve.states[:, 4:]
    assert float(np.max(np.abs((z[:, 1] + z[:, 2]) - z[:, 0]))) <= 1e-6
    assert float(np.max(np.abs((z[:, 1] + z[:, 2]) * z[:, 3] - 6.0))) <= 1e-5
    assert curve.outcome.kind == "AC"
    target = np.array([float(v) for v in AC1_STATE[0] + AC1_STATE[1]])
    assert float(np.max(np.abs(curve.states[-1] - target))) <= 1e-6

    for key in ("line_nudged", "curve_nudged"):
        out = boundary_runs[key].outcome
        assert out.kind == "ALC"
        assert out.limit_label == "P1"
        assert out.limit_distance <= 1e-6

    for traj in (line, curve):
        assert "swap" in traj.outcome.note
    assert elapsed < 20.0
    _report(4, True, "boundary runs converge to the printed cone-limit "
            "coordinates on their invariant faces, nudged runs ALC(P1); "
            "limits matched by coordinates, label naming under the "
            "alternative convention is swapped and the classifier notes it "
            "(%.1f s)" % elapsed)


def test_c5_root_function_data():
    start = time.perf_counter()
    omega = implicit_derivatives(P11, "omega", (0, 1))
    zeta = implicit_derivatives(P11, "zeta", (0, 1))
    xi = implicit_derivatives(P32, "xi", (1, 0, 1))
    sigma = implicit_derivatives(P32, "sigma", (1, 0, 1))
    assert omega[()] == F(2, 3) and zeta[()] == F(2, 3)
    assert xi[()] == F(1, 3) and sigma[()] == F(1, 3)
    assert (omega[("alpha",)], omega[("beta",)]) == (-3, F(1, 3))
    assert (zeta[("alpha",)], zeta[("beta",)]) == (-3, F(2, 15))
    assert omega[("alpha", "alpha")] == 24
    assert zeta[("alpha", "alpha")] == F(141, 5)
    assert (xi[("alpha",)], xi[("beta",)], xi[("delta",)]) == \
        (F(-1, 6), F(-1, 2), F(1, 6))
    assert sigma[("delta",)] == F(1, 15)
    for params, det in ((P11, F(17, 300)), (P32, F(161, 2700))):
        k, l = params.k, params.l
        assert root_gap_hessian_det(params) == det
        assert det == F(19 * k * k - k * l - l * l, 300 * k * k)
    elapsed = time.perf_counter() - start
    ok = elapsed < 1.0
    _report(5, ok, "root values, implicit derivatives, and root-gap "
            "Hessian determinants exact (%.2f s)" % elapsed)
    assert ok


def test_c6_resultant_certification():
    start = time.perf_counter()
    computed = line_resultant()
    printed = printed_line_resultant()
    assert computed.terms == printed.terms

    cert = certify_line_resultant()
    assert cert.status == "NonNegative"
    assert len(cert.exclusion_balls) == 1
    ball = cert.exclusion_balls[0]
    assert tuple(ball.center) == (F(0), F(1))
    assert ball.radius == F(1, 100)

    for params in C6_PARAMS:
        cert = certify_ray_resultant(params)
        assert cert.status == "NonNegative", (params.k, params.l)
        centers = {tuple(b.center) for b in cert.exclusion_balls}
        stated = {tuple(map(F, zero))
                  for zero in stated_boundary_zeros(params)}
        assert centers == stated, (params.k, params.l)

    for params in (P11, P32):
        assert rtilde(params).terms == printed_ray_expansion(params).terms
    elapsed = time.perf_counter() - start
    ok = elapsed < 300.0
    _report(6, ok, "computed resultants equal the recorded expansions "
            "coefficient-by-coefficient; all seven certificates "
            "NonNegative with exclusion balls exactly at the stated zeros "
            "(%.1f s)" % elapsed)
    assert ok


def test_c7_metric_reconstruction(interior_run_32):
    start = time.perf_counter()
    profile = reconstruct_metric(interior_run_32)
    t = np.asarray(profile.t)
    f = np.asarray(profile.f)
    tail = t >= t[-1] / 10.0
    assert int(np.count_nonzero(tail)) > 50
    f_variation = float((f[tail].max() - f[tail].min()) / abs(f[-1]))
    assert f_variation < 1e-3
    slopes = {}
    for name in ("a", "b", "c"):
        series = np.asarray(getattr(profile, name))
        grad = np.gradient(series, t)[tail]
        spread = float((grad.max() - grad.min()) / abs(grad[-1]))
        slopes[name] = grad[-1]
        assert spread < 1e-3, name
    cone_rate = 2.0 * (P32.k ** 2 + P32.k * P32.l + P32.l ** 2) \
        / (P32.k + P32.l)
    early = f[:5] / t[:5]
    assert np.all(np.abs(early / cone_rate - 1.0) <= 0.05)
    elapsed = time.perf_counter() - start
    ok = elapsed < 5.0
    _report(7, ok, "f settles to within %.1e over the final decade, "
            "slopes da/dt, db/dt, dc/dt constant to < 1e-3 "
            "(%.3f, %.3f, %.3f), early f/t within 5%% of %.2f (%.1f s)"
            % (f_variation, slopes["a"], slopes["b"], slopes["c"],
               cone_rate, elapsed))
    assert ok


def test_c8_tolerance_halving(alc_family_runs, alc_family_runs_halved,
                              boundary_runs, boundary_runs_halved):
    worst = 0.0
    pairs = []
    for key, traj in _sweep_items(alc_family_runs):
        pairs.append((traj, alc_family_runs_halved[key]))
    for key in ("line", "curve", "line_nudged", "curve_nudged"):
        pairs.append((boundary_runs[key], boundary_runs_halved[key]))
    for base, halved in pairs:
        assert base.outcome.kind == halved.outcome.kind
        assert base.outcome.limit_label == halved.outcome.limit_label
        assert abs(base.etas[-1] - halved.etas[-1]) == 0.0
        delta = float(np.max(np.abs(base.states[-1] - halved.states[-1])))
        worst = max(worst, delta)
        assert delta <= 1e-9
    _report(8, True, "halved tolerances preserve all 20 classifications; "
            "worst terminal-state shift %.1e <= 1e-9" % worst)
