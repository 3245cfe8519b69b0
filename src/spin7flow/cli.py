"""Command-line front end: catalog inspection, shooting, sweeps,
metric reconstruction, and positivity certificates.

Commands
    critical-points  exact catalog with spectra and tangency flags (JSON)
    integrate        shoot one trajectory and write its sample table
    classify         shoot one trajectory and write the outcome record
    sweep            classify a fan of unit directions (parallel workers)
    reconstruct      metric coefficients from a stored trajectory table
    certify          branch-and-bound positivity certificate (JSON)
    verify           run the cross-module invariant suite

Exit codes are a stable contract:
    0  success: ALC or AC classification, NonNegative certificate,
       catalog/reconstruction output written, sweep with at least one
       classified row
    1  verify found a failing invariant
    2  usage errors and invalid parameters (reconstruct --gauge <= 0)
    3  Escape or Undetermined classification, or conservation drift
    4  initialization, integration, or reconstruction failure, or an
       --out path that cannot be opened for writing (diagnostic JSON
       on stderr; reconstruction names the sample, for a non-finite
       entry, a vanishing Z-product or a stuck eta)
    5  certificate found a counterexample
    6  certificate inconclusive at the depth limit or past the box
       budget (ratpoly.BOX_BUDGET, 2**20 boxes)

Numeric flags accept exact rational syntax such as 7/10 alongside
decimals.  A value starting with a minus sign parses when attached
(--s1=-7/10) or when it is a plain decimal (--s1 -0.7).  When --mode is
omitted it defaults to spin+ on the k+l bundle and spin- on the k and l
bundles, matching the chirality carried by each cone point.  The
environment variable SPIN7_THREADS caps sweep workers; the cap never
exceeds the machine's CPU count (os.cpu_count()).  Identical
invocations of integrate, classify, sweep, and reconstruct produce
byte-identical output on the same build.
"""

import argparse
import csv
import json
import math
import sys
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from .aw_algebra import AWParams, BundleTag
from .critical_points import _BUNDLE_CONES, catalog, eigen, reference_frame
from .errors import (InitializationError, IntegrationError,
                     InvalidParameterError, InvalidRequestError,
                     ReconstructionDomainError, SolverIncompleteError,
                     Spin7FlowError)
from .exact import exact_str, parse_rational
from .phase_system import PhaseState, identity_checks, vector_field
from .polycert import (certify_line_resultant, certify_ray_resultant,
                       line_resultant, root_gap_hessian_det, rtilde,
                       stated_boundary_zeros)
from .ratpoly import (STATUS_COUNTEREXAMPLE, STATUS_INCONCLUSIVE,
                      STATUS_NONNEGATIVE, random_nonnegativity_audit)
from .shooting import (MAX_DIRECTIONS, OUTCOME_AC, OUTCOME_ALC, ShootSpec,
                       integrate, reconstruct_metric, sweep)

TRAJECTORY_HEADER = "eta,X1,X2,X3,X4,Z1,Z2,Z3,Z4,res_hyper,res_cons,res_spin"
PROFILE_HEADER = "t,a,b,c,f,trL_inv"
SWEEP_HEADER = "theta,s1,s2,outcome,limit_point,eta_decision"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_UNDECIDED = 3
EXIT_RUNTIME = 4
EXIT_COUNTEREXAMPLE = 5
EXIT_INCONCLUSIVE = 6


class _DataError(Exception):
    """An input file that does not exist or does not parse."""

    label = "TrajectoryDataError"


class _OutputError(Exception):
    """An --out path that cannot be opened or written."""

    label = "OutputFileError"


def _rational(text):
    """argparse type for flags that accept p/q, integers, or decimals."""
    try:
        return parse_rational(text)
    except (Spin7FlowError, ValueError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _params(args):
    return AWParams(args.k, args.l)


def _mode(args):
    if args.mode is not None:
        return args.mode
    return _BUNDLE_CONES[BundleTag(args.bundle)][1].value


def _emit(text, out_path):
    if out_path:
        try:
            with open(out_path, "w", newline="") as handle:
                handle.write(text)
        except OSError as exc:
            raise _OutputError(str(exc)) from None
    else:
        sys.stdout.write(text)


def _fmt(value):
    """Shortest round-trip decimal form; deterministic per build."""
    return repr(float(value))


def _finite_or_none(value):
    value = float(value)
    return value if math.isfinite(value) else None


def _json_text(payload):
    return json.dumps(payload, indent=2) + "\n"


# ---------------------------------------------------------------------------
# critical-points


def _frame_json(params, label):
    try:
        frame = reference_frame(params, label)
    except InvalidRequestError:
        return None
    return [{
        "eigenvalue": exact_str(pair.value),
        "vector": [exact_str(c) for c in pair.vector],
        "tangent_crf": pair.tangent_crf,
        "tangent_spin_plus": pair.tangent_spin_plus,
        "tangent_spin_minus": pair.tangent_spin_minus,
    } for pair in frame.pairs]


def cmd_critical_points(args):
    params = _params(args)
    cat = catalog(params)
    entries = []
    for point in cat.points:
        data = eigen(params, point)
        entries.append({
            "label": point.label,
            "X": [exact_str(v) for v in point.state.X],
            "Z": [exact_str(v) for v in point.state.Z],
            "exact": bool(point.exact),
            "description": point.description,
            "eigenvalues": [[float(v.real), float(v.imag)]
                            for v in data.values],
            "eigenvalue_clusters": [[float(v.real), float(v.imag), int(m)]
                                    for v, m in data.clusters],
            "max_residual": float(data.max_residual),
            "frame": _frame_json(params, point.label),
        })
    families = [{
        "label": fam.label,
        "description": fam.description,
    } for fam in cat.families]
    payload = {
        "params": {"k": params.k, "l": params.l},
        "points": entries,
        "families": families,
    }
    _emit(_json_text(payload), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# integrate / classify


def _float(value, flag):
    """A numeric flag's value as a float; one too large for a float is a
    usage error, not an OverflowError."""
    try:
        return float(value)
    except OverflowError:
        raise InvalidRequestError("%s does not fit a float" % flag) from None


def _run_settings(args):
    """The integrator settings integrate, classify and sweep share."""
    return {"epsilon": _float(args.eps, "--eps"),
            "eta_max": _float(args.eta_max, "--eta-max"),
            "rel_tol": _float(args.rel_tol, "--rel-tol"),
            "abs_tol": _float(args.abs_tol, "--abs-tol")}


def _build_spec(args):
    if args.s1 is None or args.s2 is None:
        raise InvalidRequestError("this command requires --s1 and --s2")
    s = [_float(args.s1, "--s1"), _float(args.s2, "--s2")]
    if args.s3 is not None:
        s.append(_float(args.s3, "--s3"))
    return ShootSpec(_params(args), args.bundle, _mode(args), s,
                     **_run_settings(args))


def _classification_exit(traj):
    if any(kind == "drift" for _eta, kind in traj.events):
        return EXIT_UNDECIDED
    if traj.outcome.kind in (OUTCOME_ALC, OUTCOME_AC):
        return EXIT_OK
    return EXIT_UNDECIDED


def _trajectory_csv(traj):
    res = np.asarray(traj.residual_log, dtype=float)
    states = np.asarray(traj.states, dtype=float)
    lines = [TRAJECTORY_HEADER]
    for i, eta in enumerate(np.asarray(traj.etas, dtype=float)):
        cells = [_fmt(eta)]
        cells.extend(_fmt(v) for v in states[i])
        cells.extend(_fmt(v) for v in res[i])
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _trajectory_json(traj):
    res = np.asarray(traj.residual_log, dtype=float)
    states = np.asarray(traj.states, dtype=float)
    rows = [{
        "eta": float(eta),
        "state": [float(v) for v in states[i]],
        "residuals": [float(v) for v in res[i]],
    } for i, eta in enumerate(np.asarray(traj.etas, dtype=float))]
    return {"columns": TRAJECTORY_HEADER.split(","), "rows": rows}


def _outcome_json(out):
    return {
        "kind": out.kind,
        "limit_point": out.limit_label,
        "distance": _finite_or_none(out.limit_distance),
        "eta": _finite_or_none(out.eta_at_decision),
    }


def _classification_json(traj):
    spec = traj.spec
    return {
        "params": {"k": spec.params.k, "l": spec.params.l},
        "bundle": spec.bundle.tag.value,
        "mode": getattr(spec.mode, "value", spec.mode),
        "s": [float(v) for v in spec.s],
        "outcome": _outcome_json(traj.outcome),
    }


def cmd_integrate(args):
    traj = integrate(_build_spec(args))
    if args.format == "json":
        _emit(_json_text(_trajectory_json(traj)), args.out)
    else:
        _emit(_trajectory_csv(traj), args.out)
    return _classification_exit(traj)


def cmd_classify(args):
    traj = integrate(_build_spec(args))
    record = _classification_json(traj)
    if args.format == "csv":
        out = record["outcome"]
        lines = ["k,l,bundle,mode,kind,limit_point,distance,eta",
                 ",".join([str(record["params"]["k"]),
                           str(record["params"]["l"]),
                           record["bundle"], record["mode"], out["kind"],
                           out["limit_point"] or "",
                           "" if out["distance"] is None
                           else _fmt(out["distance"]),
                           "" if out["eta"] is None else _fmt(out["eta"])])]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(_json_text(record), args.out)
    return _classification_exit(traj)


# ---------------------------------------------------------------------------
# sweep


def _sweep_thetas(args):
    if args.theta is not None:
        if args.n not in (None, 1):
            raise InvalidRequestError("--theta runs a single direction; "
                                      "omit --n or pass --n 1")
        return [_float(args.theta, "--theta")]
    count = 16 if args.n is None else args.n
    if not 1 <= count <= MAX_DIRECTIONS:
        raise InvalidRequestError(
            f"--n must be at least 1 and at most {MAX_DIRECTIONS}")
    return [math.pi * (2 * j + 1) / (2.0 * count) for j in range(count)]


def cmd_sweep(args):
    params = _params(args)
    thetas = _sweep_thetas(args)
    s_values = [(math.cos(t), math.sin(t)) for t in thetas]
    entries = sweep(params, args.bundle, _mode(args), s_values,
                    **_run_settings(args))
    if args.format == "json":
        rows = []
        for theta, entry in zip(thetas, entries):
            row = {"theta": theta, "s": [float(v) for v in entry.s]}
            if entry.outcome is None:
                row["error"] = str(entry.error)
            else:
                row["outcome"] = _outcome_json(entry.outcome)
            rows.append(row)
        _emit(_json_text(rows), args.out)
    else:
        lines = [SWEEP_HEADER]
        for theta, entry in zip(thetas, entries):
            if entry.outcome is None:
                cells = [_fmt(theta), _fmt(entry.s[0]), _fmt(entry.s[1]),
                         "error", "", ""]
            else:
                out = entry.outcome
                eta = float(out.eta_at_decision)
                cells = [_fmt(theta), _fmt(entry.s[0]), _fmt(entry.s[1]),
                         out.kind, out.limit_label or "",
                         _fmt(eta) if math.isfinite(eta) else ""]
            lines.append(",".join(cells))
        _emit("\n".join(lines) + "\n", args.out)
    if all(entry.outcome is None for entry in entries):
        first = next(e for e in entries if e.error is not None)
        raise IntegrationError("every sweep row failed; first error: %s"
                               % first.error)
    return EXIT_OK


# ---------------------------------------------------------------------------
# certify


def cmd_certify(args):
    if args.target == "r":
        if args.k is not None or args.l is not None:
            raise InvalidRequestError(
                "--target r takes no --k or --l: the line resultant is "
                "orbit-free")
        cert = certify_line_resultant()
        payload = {"target": "r"}
    else:
        if args.k is None or args.l is None:
            raise InvalidRequestError("--target rtilde requires --k and --l")
        params = _params(args)
        cert = certify_ray_resultant(params)
        payload = {"target": "rtilde",
                   "params": {"k": params.k, "l": params.l}}
    payload.update(cert.to_json_dict())
    _emit(_json_text(payload), args.out)
    if cert.status == STATUS_NONNEGATIVE:
        return EXIT_OK
    if cert.status == STATUS_COUNTEREXAMPLE:
        return EXIT_COUNTEREXAMPLE
    return EXIT_INCONCLUSIVE


# ---------------------------------------------------------------------------
# reconstruct


def _load_trajectory(path):
    try:
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            try:
                header = next(reader)
            except StopIteration:
                raise _DataError("%s: empty trajectory file" % path) from None
            if [h.strip() for h in header] != TRAJECTORY_HEADER.split(","):
                raise _DataError(
                    "%s: header %r does not match %r"
                    % (path, ",".join(header), TRAJECTORY_HEADER))
            rows = []
            for lineno, cells in enumerate(reader, start=2):
                if not cells:
                    continue
                if len(cells) != 12:
                    raise _DataError("%s line %d: expected 12 columns, got %d"
                                     % (path, lineno, len(cells)))
                try:
                    rows.append([float(c) for c in cells])
                except ValueError as exc:
                    raise _DataError("%s line %d: %s"
                                     % (path, lineno, exc)) from None
    except OSError as exc:
        raise _DataError(str(exc)) from None
    if len(rows) < 3:
        raise _DataError("%s: reconstruction needs at least 3 samples, "
                         "file has %d" % (path, len(rows)))
    table = np.asarray(rows, dtype=float)
    return SimpleNamespace(etas=table[:, 0], states=table[:, 1:9])


def cmd_reconstruct(args):
    traj = _load_trajectory(args.trajectory)
    profile = reconstruct_metric(traj, gauge=_float(args.gauge, "--gauge"))
    lines = [PROFILE_HEADER]
    for row in profile.rows():
        lines.append(",".join(_fmt(v) for v in row))
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _check_fixed_points():
    for k, l in ((1, 0), (1, 1), (3, 2), (17, 5)):
        params = AWParams(k, l)
        for point in catalog(params).points:
            vel = vector_field(params, point.state)
            if point.exact:
                bad = [v for v in vel.X + vel.Z if v != 0]
                if bad:
                    raise AssertionError("nonzero field at %s for (%d,%d)"
                                         % (point.label, k, l))
            else:
                worst = max(abs(float(v)) for v in vel.X + vel.Z)
                if worst > 1e-12:
                    raise AssertionError(
                        "field %.3e at inexact point %s for (%d,%d)"
                        % (worst, point.label, k, l))


def _check_linearization_residuals():
    for k, l in ((3, 2), (1, 1)):
        params = AWParams(k, l)
        for label in ("P0_KplusL", "P0_K", "P1"):
            data = eigen(params, label)
            if data.max_residual > 1e-10:
                raise AssertionError("eigen residual %.3e at %s for (%d,%d)"
                                     % (data.max_residual, label, k, l))


def _check_frame_tables():
    for k, l in ((3, 2), (1, 1), (17, 5)):
        params = AWParams(k, l)
        for label in ("P0_KplusL", "P0_K", "P0_L", "P1"):
            frame = reference_frame(params, label)
            table = sorted(float(p.value) for p in frame.pairs)
            numeric = sorted(v.real for v in eigen(params, label).values)
            drift = max(abs(a - b) for a, b in zip(table, numeric))
            if drift > 1e-9:
                raise AssertionError("table/eigen mismatch %.3e at %s"
                                     % (drift, label))


def _check_flow_identities():
    rng = np.random.default_rng(20260819)
    params = AWParams(3, 2)
    for _ in range(25):
        nums = rng.integers(-40, 41, size=8)
        state = PhaseState.from_sequence(
            [Fraction(int(n), 16) for n in nums])
        report = identity_checks(params, state)
        if (report.hyperplane_flow != 0 or report.spin_plus_sum != 0
                or report.spin_minus_sum != 0):
            raise AssertionError("flow identity violated at %r" % (state,))


def _check_line_resultant():
    poly = line_resultant()
    value = poly.evaluate({"alpha": Fraction(0), "beta": Fraction(1)})
    if value != 0:
        raise AssertionError("line resultant nonzero at its stated zero")


def _check_ray_expansions():
    for k, l in ((1, 1), (3, 2), (17, 5)):
        params = AWParams(k, l)
        poly = rtilde(params)
        for zero in stated_boundary_zeros(params):
            point = dict(zip(("alpha", "beta", "delta"), map(Fraction, zero)))
            if poly.evaluate(point) != 0:
                raise AssertionError("rtilde nonzero at stated zero %r of "
                                     "(%d,%d)" % (zero, k, l))


def _check_certificates():
    cert = certify_line_resultant()
    if cert.status != STATUS_NONNEGATIVE:
        raise AssertionError("line certificate status %s" % cert.status)
    cert = certify_ray_resultant(AWParams(3, 2))
    if cert.status != STATUS_NONNEGATIVE:
        raise AssertionError("ray certificate status %s" % cert.status)


def _check_hessian_determinants():
    for k, l in ((1, 1), (3, 2), (17, 5)):
        det = root_gap_hessian_det(AWParams(k, l))
        expected = Fraction(19 * k * k - k * l - l * l, 300 * k * k)
        if det != expected:
            raise AssertionError("Hessian determinant %s != %s for (%d,%d)"
                                 % (det, expected, k, l))


def _check_positivity_audit():
    worst_value, worst_point = random_nonnegativity_audit(
        line_resultant(), ((0, Fraction(1, 2)), (0, 1)),
        samples=2000, seed=7)
    if worst_value < 0:
        raise AssertionError("audit found negative value %s at %r"
                             % (worst_value, worst_point))


def _check_short_run():
    spec = ShootSpec((3, 2), "k+l", "spin+", (0.6, 0.8), eta_max=25.0,
                     stop_on_converged=False)
    traj = integrate(spec)
    if any(kind == "drift" for _eta, kind in traj.events):
        raise AssertionError("conservation drift on the reference run")
    worst = float(np.max(traj.residual_log))
    if worst > 1e-6:
        raise AssertionError("constraint residual %.3e on the reference run"
                             % worst)
    z4 = np.asarray(traj.states, dtype=float)[:, 7]
    if np.any(np.diff(z4) > 1e-9):
        raise AssertionError("Z4 increased along the reference run")
    profile = reconstruct_metric(traj)
    for name in ("t", "a", "b", "c", "f"):
        if not np.all(np.asarray(getattr(profile, name)) > 0):
            raise AssertionError("non-positive %s in reconstruction" % name)


VERIFY_CHECKS = (
    ("fixed-points-exact", _check_fixed_points),
    ("linearization-residuals", _check_linearization_residuals),
    ("frame-tables-match-spectra", _check_frame_tables),
    ("flow-identities-exact", _check_flow_identities),
    ("line-resultant-cross-check", _check_line_resultant),
    ("ray-expansion-cross-checks", _check_ray_expansions),
    ("certificates-nonnegative", _check_certificates),
    ("hessian-determinants", _check_hessian_determinants),
    ("positivity-audit", _check_positivity_audit),
    ("reference-run-invariants", _check_short_run),
)


def cmd_verify(args):
    failures = 0
    for name, check in VERIFY_CHECKS:
        try:
            check()
        except Exception as exc:
            failures += 1
            print("FAIL %s: %s" % (name, exc))
        else:
            print("  ok %s" % name)
    total = len(VERIFY_CHECKS)
    if failures:
        print("%d of %d checks failed" % (failures, total))
        return EXIT_VERIFY_FAILED
    print("all %d checks passed" % total)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_params(sub, required=True):
    sub.add_argument("--k", type=int, required=required,
                     help="first orbit parameter (coprime with --l)")
    sub.add_argument("--l", type=int, required=required,
                     help="second orbit parameter")


def _add_shooting(sub, with_s=True):
    sub.add_argument("--bundle", choices=["k+l", "k", "l"], default="k+l",
                     help="circle bundle collapsing at the cone point")
    sub.add_argument("--mode", choices=["ricci", "spin+", "spin-"],
                     default=None,
                     help="constrained system (default: spin+ on k+l, "
                          "spin- on k and l)")
    if with_s:
        sub.add_argument("--s1", type=_rational, default=None,
                         help="first shooting coefficient")
        sub.add_argument("--s2", type=_rational, default=None,
                         help="second shooting coefficient")
        sub.add_argument("--s3", type=_rational, default=None,
                         help="third shooting coefficient (ricci mode only)")
    sub.add_argument("--eps", type=_rational, default=Fraction(1, 10 ** 6),
                     help="offset of the initial point from the cone point")
    sub.add_argument("--eta-max", type=_rational, default=Fraction(200),
                     help="integration horizon in flow time")
    sub.add_argument("--rel-tol", type=_rational,
                     default=Fraction(1, 10 ** 10),
                     help="relative tolerance of the integrator")
    sub.add_argument("--abs-tol", type=_rational,
                     default=Fraction(1, 10 ** 12),
                     help="absolute tolerance of the integrator")


def _add_out(sub, formats=None, default_format=None):
    sub.add_argument("--out", default=None,
                     help="output file (default: stdout)")
    if formats:
        sub.add_argument("--format", choices=formats, default=default_format,
                         help="output format (default: %s)" % default_format)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="spin7flow",
        description="Cone-to-infinity flows over Aloff-Wallach orbits: "
                    "catalog, shooting, classification, reconstruction, "
                    "and positivity certificates.")
    commands = parser.add_subparsers(dest="command", required=True,
                                     metavar="command")

    sub = commands.add_parser(
        "critical-points",
        help="exact critical-point catalog with spectra (JSON)")
    _add_params(sub)
    _add_out(sub)
    sub.set_defaults(func=cmd_critical_points)

    sub = commands.add_parser(
        "integrate", help="shoot one trajectory and write the sample table")
    _add_params(sub)
    _add_shooting(sub)
    _add_out(sub, formats=["csv", "json"], default_format="csv")
    sub.set_defaults(func=cmd_integrate)

    sub = commands.add_parser(
        "classify", help="shoot one trajectory and write the outcome record")
    _add_params(sub)
    _add_shooting(sub)
    _add_out(sub, formats=["csv", "json"], default_format="json")
    sub.set_defaults(func=cmd_classify)

    sub = commands.add_parser(
        "sweep", help="classify a fan of unit directions")
    _add_params(sub)
    _add_shooting(sub, with_s=False)
    sub.add_argument("--n", type=int, default=None,
                     help="directions on the open upper half-circle "
                          f"(default 16, at most {MAX_DIRECTIONS})")
    sub.add_argument("--theta", type=_rational, default=None,
                     help="run a single direction (cos theta, sin theta)")
    _add_out(sub, formats=["csv", "json"], default_format="csv")
    sub.set_defaults(func=cmd_sweep)

    sub = commands.add_parser(
        "reconstruct",
        help="metric coefficients from a stored trajectory table")
    sub.add_argument("trajectory", help="trajectory CSV written by integrate")
    sub.add_argument("--gauge", type=_rational, default=Fraction(1),
                     help="scale of 1/trL at the first sample (default 1)")
    _add_out(sub)
    sub.set_defaults(func=cmd_reconstruct)

    sub = commands.add_parser(
        "certify", help="positivity certificate for a resultant polynomial")
    sub.add_argument("--target", required=True, choices=["r", "rtilde"],
                     help="r: interior-edge resultant on "
                          "[0,1/2]x[0,1]; rtilde: boundary-ray expansion "
                          "on [0,1]^3")
    _add_params(sub, required=False)
    _add_out(sub)
    sub.set_defaults(func=cmd_certify)

    sub = commands.add_parser(
        "verify", help="run the cross-module invariant suite")
    sub.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except (InvalidParameterError, InvalidRequestError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except (_DataError, _OutputError) as exc:
        json.dump({"error": exc.label, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return EXIT_RUNTIME
    except (InitializationError, IntegrationError, SolverIncompleteError,
            ReconstructionDomainError) as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)},
                  sys.stderr)
        sys.stderr.write("\n")
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
