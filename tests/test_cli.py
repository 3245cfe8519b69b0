"""Tests for the command-line front end: exit codes, schemas, examples."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from spin7flow.cli import (PROFILE_HEADER, SWEEP_HEADER, TRAJECTORY_HEADER,
                           VERIFY_CHECKS, main)
from spin7flow.shooting import (MAX_DIRECTIONS, Asymptotics, ShootSpec,
                                SweepEntry, integrate, reconstruct_metric)

RUN_32 = ["--k", "3", "--l", "2", "--bundle", "k+l", "--mode", "spin+",
          "--s1", "0.6", "--s2", "0.8"]


def run(argv):
    return main(argv)


@pytest.fixture(scope="module")
def traj_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "traj.csv"
    code = run(["integrate", *RUN_32, "--out", str(path)])
    assert code == 0
    return path


@pytest.fixture(scope="module")
def catalog_11(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "cp11.json"
    assert run(["critical-points", "--k", "1", "--l", "1",
                "--out", str(path)]) == 0
    return json.loads(path.read_text())


# ---------------------------------------------------------------------------
# critical-points


def test_catalog_11_contains_printed_ac_point(catalog_11):
    matches = [p for p in catalog_11["points"] if p["Z"][3] == "21"]
    assert len(matches) == 1
    point = matches[0]
    assert point["label"] == "AC_1"
    assert point["exact"] is True
    assert point["Z"][:3] == ["2/7", "1/7", "1/7"]


def test_catalog_32_contains_cone_point_z4(tmp_path):
    path = tmp_path / "cp32.json"
    assert run(["critical-points", "--k", "3", "--l", "2",
                "--out", str(path)]) == 0
    data = json.loads(path.read_text())
    cone = [p for p in data["points"] if p["label"] == "P0_KplusL"]
    assert cone and cone[0]["Z"][3] == "114/5"


def test_catalog_frames_carry_tangency_flags(catalog_11):
    by_label = {p["label"]: p for p in catalog_11["points"]}
    frame = by_label["P0_KplusL"]["frame"]
    assert frame is not None
    for entry in frame:
        assert set(entry) == {"eigenvalue", "vector", "tangent_crf",
                              "tangent_spin_plus", "tangent_spin_minus"}
    assert by_label["G2_source_1"]["frame"] is None
    assert all(len(p["eigenvalues"]) == 8 for p in catalog_11["points"])


def test_catalog_lists_families(catalog_11):
    labels = {f["label"] for f in catalog_11["families"]}
    assert labels == {"CircleFamily", "LineFamily"}


def test_invalid_orbit_parameters_exit_2(capsys):
    assert run(["critical-points", "--k", "0", "--l", "0"]) == 2
    assert "orbit" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# integrate / classify


def test_trajectory_csv_header_and_shape(traj_csv):
    lines = traj_csv.read_text().splitlines()
    assert lines[0] == TRAJECTORY_HEADER
    table = np.genfromtxt(str(traj_csv), delimiter=",", skip_header=1)
    assert table.shape[1] == 12
    assert table.shape[0] > 100
    assert np.all(np.diff(table[:, 0]) > 0)
    assert float(np.max(table[:, 9:])) <= 1e-6


def test_missing_s2_is_usage_error(capsys):
    assert run(["classify", "--k", "3", "--l", "2", "--s1", "0.6"]) == 2
    assert "--s2" in capsys.readouterr().err


def test_classification_json_schema(capsys):
    assert run(["classify", *RUN_32]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["params"] == {"k": 3, "l": 2}
    assert record["bundle"] == "k+l"
    assert record["mode"] == "spin+"
    assert len(record["s"]) == 3
    outcome = record["outcome"]
    assert set(outcome) == {"kind", "limit_point", "distance", "eta"}
    assert outcome["kind"] == "ALC"
    assert outcome["limit_point"] == "P1"
    assert outcome["distance"] <= 1e-6


def test_classify_boundary_direction_is_ac(capsys):
    code = run(["classify", "--k", "1", "--l", "1",
                "--s1=%r" % (-3.0 / math.sqrt(10.0)),
                "--s2", "%r" % (1.0 / math.sqrt(10.0))])
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    assert record["outcome"]["kind"] == "AC"


def test_classify_csv_format(capsys):
    assert run(["classify", *RUN_32, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "k,l,bundle,mode,kind,limit_point,distance,eta"
    cells = lines[1].split(",")
    assert cells[:6] == ["3", "2", "k+l", "spin+", "ALC", "P1"]


def test_rational_flags_match_decimal_flags(capsys):
    assert run(["classify", "--k", "3", "--l", "2",
                "--s1", "3/5", "--s2", "4/5"]) == 0
    first = capsys.readouterr().out
    assert run(["classify", *RUN_32]) == 0
    assert capsys.readouterr().out == first


def test_epsilon_out_of_range_exits_2(capsys):
    assert run(["classify", *RUN_32[:-4], "--s1", "0.6", "--s2", "0.8",
                "--eps", "1/2"]) == 2
    capsys.readouterr()


OVERFLOW_CASES = [(command, flag)
                  for command in ("integrate", "classify", "sweep")
                  for flag in ("--rel-tol", "--abs-tol", "--eta-max", "--eps",
                               "--theta" if command == "sweep" else "--s1")]


@pytest.mark.parametrize("command, flag", OVERFLOW_CASES)
def test_overflowing_numeric_flag_exits_2(command, flag, capsys):
    """A value too large for a float is a usage error (exit 2), not an
    OverflowError traceback (exit 1, the code of a failing verify)."""
    argv = [command, "--k", "3", "--l", "2", flag + "=1e400"]
    if command != "sweep":
        argv += ["--s2", "0.8"] + (["--s1", "0.6"] if flag != "--s1" else [])
    assert run(argv) == 2
    assert "%s does not fit a float" % flag in capsys.readouterr().err


def test_overflowing_gauge_exits_2(traj_csv, capsys):
    assert run(["reconstruct", str(traj_csv), "--gauge", "1e400"]) == 2
    assert "--gauge does not fit a float" in capsys.readouterr().err


def test_integrate_deterministic_bytes(tmp_path, traj_csv):
    again = tmp_path / "again.csv"
    assert run(["integrate", *RUN_32, "--out", str(again)]) == 0
    assert again.read_bytes() == traj_csv.read_bytes()


def test_integrate_json_rows(capsys):
    assert run(["integrate", *RUN_32, "--eta-max", "5", "--format",
                "json"]) == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["columns"] == TRAJECTORY_HEADER.split(",")
    row = payload["rows"][0]
    assert set(row) == {"eta", "state", "residuals"}
    assert len(row["state"]) == 8 and len(row["residuals"]) == 3


@pytest.mark.parametrize("command", ["integrate", "classify"])
@pytest.mark.parametrize("eta_max", ["1e-13", "1e-12", "0"])
def test_horizon_without_a_chunk_exits_2(command, eta_max, capsys):
    """An eta_max at which no chunk runs is refused up front, naming
    eta_max, not reported late as too few samples."""
    assert run([command, *RUN_32, "--eta-max", eta_max]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "eta_max must be finite and above 1e-12" in captured.err
    assert "samples" not in captured.err


def test_step_underflow_at_the_start_exits_4(capsys):
    """Tolerances so small that the step size underflows before the
    first step are an integration failure (exit 4, JSON on stderr), not
    a usage error about too few samples."""
    assert run(["classify", "--k", "3", "--l", "2", "--bundle", "k+l",
                "--s1", "0.6", "--s2", "0.8", "--rel-tol", "1e-300",
                "--abs-tol", "1e-300"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)
    assert error["error"] == "IntegrationError"
    assert error["message"].startswith(
        "stiff-failure at eta = 0.0, before the first accepted step")


def test_short_horizon_is_undetermined_exit_3(capsys):
    assert run(["classify", *RUN_32, "--eta-max", "5"]) == 3
    record = json.loads(capsys.readouterr().out)
    assert record["outcome"]["kind"] == "Undetermined"


# ---------------------------------------------------------------------------
# sweep


def test_sweep_single_direction(capsys):
    assert run(["sweep", "--k", "1", "--l", "1", "--bundle", "k",
                "--n", "1", "--theta", "0.5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert cells[0] == repr(0.5)
    assert cells[3] == "ALC"


def test_sweep_rejects_theta_with_larger_n(capsys):
    assert run(["sweep", "--k", "1", "--l", "1", "--bundle", "k",
                "--n", "4", "--theta", "0.5"]) == 2
    capsys.readouterr()


def test_sweep_rejects_empty_fan(capsys):
    assert run(["sweep", "--k", "1", "--l", "1", "--n", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--n must be at least 1" in captured.err


def test_sweep_rejects_a_fan_above_the_cap(monkeypatch, capsys):
    """--n above MAX_DIRECTIONS exits 2 before any direction is built."""
    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep started above the cap")

    monkeypatch.setattr("spin7flow.cli.sweep", no_sweep)
    assert run(["sweep", "--k", "1", "--l", "1",
                "--n", str(MAX_DIRECTIONS + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"at most {MAX_DIRECTIONS}" in captured.err
    assert run(["sweep", "--help"]) == 0
    assert f"at most {MAX_DIRECTIONS}" in " ".join(
        capsys.readouterr().out.split())


@pytest.mark.parametrize("flag, value, message", [
    ("--rel-tol", "0", "integrator tolerances must be positive"),
    ("--eps", "1/2", "epsilon must lie in (0, 1e-2]"),
    ("--eta-max", "1e-13", "eta_max must be finite and above 1e-12"),
    ("--mode", "spin+", "P0_K does not lie on the spin+ constraint set"),
])
def test_sweep_invalid_run_setting_exits_2(flag, value, message, capsys):
    """A setting every direction shares is a usage error (exit 2), as in
    classify, and no row runs; it is not one error row per direction.
    So is a spin mode that is not the chirality of the bundle's cone."""
    assert run(["sweep", "--k", "1", "--l", "1", "--bundle", "k",
                "--n", "2", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_sweep_grid_is_midpoint_fan_in_order(monkeypatch, capsys):
    recorded = {}

    def fake_sweep(params, bundle, mode, s_values, **kwargs):
        recorded["s"] = tuple(s_values)
        return tuple(
            SweepEntry(s=s, outcome=Asymptotics(kind="ALC", limit_label="P1",
                                                limit_distance=1e-9,
                                                eta_at_decision=50.0))
            for s in s_values)

    monkeypatch.setattr("spin7flow.cli.sweep", fake_sweep)
    assert run(["sweep", "--k", "1", "--l", "1", "--bundle", "k",
                "--n", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    thetas = [float(line.split(",")[0]) for line in lines[1:]]
    assert thetas == [math.pi * (2 * j + 1) / 8.0 for j in range(4)]
    assert all(s == (math.cos(t), math.sin(t))
               for s, t in zip(recorded["s"], thetas))


def test_sweep_error_rows_and_exit(monkeypatch, capsys):
    good = Asymptotics(kind="ALC", limit_label="P1", limit_distance=0.0,
                       eta_at_decision=10.0)

    def mixed(params, bundle, mode, s_values, **kwargs):
        entries = [SweepEntry(s=s, error="solver blew up")
                   for s in s_values[:-1]]
        entries.append(SweepEntry(s=s_values[-1], outcome=good))
        return tuple(entries)

    monkeypatch.setattr("spin7flow.cli.sweep", mixed)
    assert run(["sweep", "--k", "1", "--l", "1", "--n", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(",")[3] for line in lines[1:]] == \
        ["error", "error", "ALC"]

    def broken(params, bundle, mode, s_values, **kwargs):
        return tuple(SweepEntry(s=s, error="solver blew up")
                     for s in s_values)

    monkeypatch.setattr("spin7flow.cli.sweep", broken)
    assert run(["sweep", "--k", "1", "--l", "1", "--n", "2"]) == 4
    captured = capsys.readouterr()
    assert "solver blew up" in captured.err


def test_sweep_json_format(monkeypatch, capsys):
    def fake_sweep(params, bundle, mode, s_values, **kwargs):
        return tuple(
            SweepEntry(s=s, outcome=Asymptotics(kind="AC", limit_label="AC_1",
                                                limit_distance=2e-8,
                                                eta_at_decision=40.0))
            for s in s_values)

    monkeypatch.setattr("spin7flow.cli.sweep", fake_sweep)
    assert run(["sweep", "--k", "1", "--l", "1", "--n", "2",
                "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 2
    assert rows[0]["outcome"]["kind"] == "AC"
    assert rows[0]["outcome"]["limit_point"] == "AC_1"


# ---------------------------------------------------------------------------
# reconstruct


def test_reconstruct_profile_and_gauge_doubling(tmp_path, traj_csv):
    one = tmp_path / "p1.csv"
    two = tmp_path / "p2.csv"
    assert run(["reconstruct", str(traj_csv), "--out", str(one)]) == 0
    assert run(["reconstruct", str(traj_csv), "--gauge", "2",
                "--out", str(two)]) == 0
    assert one.read_text().splitlines()[0] == PROFILE_HEADER
    base = np.genfromtxt(str(one), delimiter=",", skip_header=1)
    doubled = np.genfromtxt(str(two), delimiter=",", skip_header=1)
    assert base.shape[1] == 6
    assert np.all(np.abs(doubled[:, :5] / base[:, :5] - 2.0) <= 1e-12)


def test_reconstruct_deterministic_bytes(tmp_path, traj_csv):
    one = tmp_path / "p1.csv"
    two = tmp_path / "p2.csv"
    assert run(["reconstruct", str(traj_csv), "--out", str(one)]) == 0
    assert run(["reconstruct", str(traj_csv), "--out", str(two)]) == 0
    assert one.read_bytes() == two.read_bytes()


def test_reconstruct_matches_library_bytes(tmp_path, traj_csv):
    """The CSV round trip is exact, so both paths print the same rows."""
    traj = integrate(ShootSpec((3, 2), "k+l", "spin+", (0.6, 0.8)))
    profile = reconstruct_metric(traj)
    expected = [PROFILE_HEADER] + [",".join(repr(float(v)) for v in row)
                                   for row in profile.rows()]
    out = tmp_path / "profile.csv"
    assert run(["reconstruct", str(traj_csv), "--out", str(out)]) == 0
    assert out.read_text() == "\n".join(expected) + "\n"


def test_reconstruct_has_no_tolerance_flag(traj_csv):
    assert run(["reconstruct", str(traj_csv), "--rel-tol", "1e-10"]) == 2


def test_reconstruct_repeated_eta_names_sample(tmp_path, traj_csv, capsys):
    lines = traj_csv.read_text().splitlines()
    cells = lines[6].split(",")
    cells[0] = lines[5].split(",")[0]
    lines[6] = ",".join(cells)
    path = tmp_path / "repeated.csv"
    path.write_text("\n".join(lines) + "\n")
    assert run(["reconstruct", str(path)]) == 4
    diag = json.loads(capsys.readouterr().err)
    assert diag["error"] == "ReconstructionDomainError"
    assert "at sample 5 (" in diag["message"]


def test_reconstruct_missing_file_exit_4(tmp_path, capsys):
    assert run(["reconstruct", str(tmp_path / "absent.csv")]) == 4
    diag = json.loads(capsys.readouterr().err)
    assert diag["error"] == "TrajectoryDataError"


@pytest.mark.parametrize("argv", [
    ["critical-points", "--k", "1", "--l", "1"],
    ["certify", "--target", "r"],
], ids=lambda argv: argv[0])
def test_unwritable_out_path_exit_4(argv, tmp_path, capsys):
    for out in (tmp_path / "absent" / "x.json", tmp_path):
        assert run([*argv, "--out", str(out)]) == 4
        diag = json.loads(capsys.readouterr().err)
        assert diag["error"] == "OutputFileError"
        assert str(out) in diag["message"]


def test_reconstruct_rejects_wrong_header(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("eta,X1\n0.0,1.0\n")
    assert run(["reconstruct", str(bad)]) == 4
    diag = json.loads(capsys.readouterr().err)
    assert "header" in diag["message"]


def test_reconstruct_needs_three_samples(tmp_path, capsys):
    short = tmp_path / "short.csv"
    row = ",".join(["0.1"] * 12)
    short.write_text(TRAJECTORY_HEADER + "\n" + row + "\n")
    assert run(["reconstruct", str(short)]) == 4
    diag = json.loads(capsys.readouterr().err)
    assert "3 samples" in diag["message"]


def test_reconstruct_domain_error_names_sample(tmp_path, capsys):
    path = tmp_path / "vanishing.csv"
    lines = [TRAJECTORY_HEADER]
    for i, z1 in enumerate((1.0, 1.0, 0.0, 1.0)):
        state = [0.2, 0.2, 0.2, 0.2, z1, 0.3, 0.3, 1.0]
        lines.append(",".join(
            [repr(0.5 * i)] + [repr(v) for v in state] + ["0.0"] * 3))
    path.write_text("\n".join(lines) + "\n")
    assert run(["reconstruct", str(path)]) == 4
    diag = json.loads(capsys.readouterr().err)
    assert diag["error"] == "ReconstructionDomainError"
    assert "sample 2" in diag["message"]


@pytest.mark.parametrize("cell, value", [(2, "inf"), (6, "nan")])
def test_reconstruct_non_finite_cell_names_sample(tmp_path, traj_csv, capsys,
                                                  cell, value):
    # inf in an X cell, nan in a Z cell
    lines = traj_csv.read_text().splitlines()
    cells = lines[8].split(",")
    cells[cell] = value
    lines[8] = ",".join(cells)
    path = tmp_path / "non_finite.csv"
    path.write_text("\n".join(lines) + "\n")
    assert run(["reconstruct", str(path)]) == 4
    diag = json.loads(capsys.readouterr().err)
    assert diag["error"] == "ReconstructionDomainError"
    assert diag["message"] == "non-finite eta or state entry at sample 7"


@pytest.mark.parametrize("flags", [["--gauge", "0"], ["--gauge=-1"],
                                   ["--gauge", "-0.5"]])
def test_reconstruct_gauge_must_be_positive(traj_csv, capsys, flags):
    assert run(["reconstruct", str(traj_csv)] + flags) == 2
    out, err = capsys.readouterr()
    assert out == "" and "gauge must be positive and finite" in err


# ---------------------------------------------------------------------------
# certify


def test_certify_line_resultant(capsys):
    assert run(["certify", "--target", "r"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["target"] == "r"
    assert payload["status"] == "NonNegative"
    assert payload["exclusions"] == [{"center": ["0/1", "1/1"],
                                      "radius": "1/100"}]


@pytest.mark.parametrize("k,l,balls", [(1, 1, 2), (17, 5, 1)])
def test_certify_ray_expansion_ball_counts(k, l, balls, capsys):
    assert run(["certify", "--target", "rtilde",
                "--k", str(k), "--l", str(l)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "NonNegative"
    assert payload["params"] == {"k": k, "l": l}
    assert len(payload["exclusions"]) == balls


def test_certify_unknown_target_exit_2(capsys):
    assert run(["certify", "--target", "q"]) == 2
    capsys.readouterr()


def test_certify_rtilde_requires_params(capsys):
    assert run(["certify", "--target", "rtilde"]) == 2
    assert "--k" in capsys.readouterr().err


@pytest.mark.parametrize("orbit", [["--k", "0", "--l", "0"],
                                   ["--k", "2", "--l", "4"],
                                   ["--k", "3", "--l", "2"], ["--l", "1"]])
def test_certify_r_refuses_orbit_flags(orbit, monkeypatch, capsys):
    """The line resultant is orbit-free: --k or --l with target r is a
    usage error, checked before any certificate runs."""
    def no_certificate():
        raise AssertionError("the line certificate ran")

    monkeypatch.setattr("spin7flow.cli.certify_line_resultant",
                        no_certificate)
    assert run(["certify", "--target", "r", *orbit]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "orbit-free" in captured.err


# ---------------------------------------------------------------------------
# verify and help


def test_verify_suite_passes(capsys):
    assert run(["verify"]) == 0
    out = capsys.readouterr().out
    assert "all 10 checks passed" in out
    assert out.count("ok ") == 10


def test_benchmark_expects_the_verify_line_of_every_check():
    """The benchmark's cli workload requires verify's last line to equal
    benchmarks/workloads.py's VERIFY_LINE; read from that file's text,
    without importing it, the line names every check in VERIFY_CHECKS,
    so a new check shows here first."""
    text = (Path(__file__).resolve().parents[1] / "benchmarks"
            / "workloads.py").read_text()
    found = re.findall(r'^VERIFY_LINE = "([^"]*)"$', text, re.MULTILINE)
    assert found == ["all %d checks passed" % len(VERIFY_CHECKS)]


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()
