"""Byte-identity guard for the exact outputs and the trajectories.

The exact layer (catalog coordinates, reference frames, certificates)
must not move when its arithmetic is reorganized.  These SHA-256
digests were taken from the outputs before the integer kernels
replaced the Fraction ones.  The float eigen data of the catalog is
left out, since it depends on the LAPACK build.  The trajectory digests
guard the stepper, the projection and the decision scan: they were
taken when the stepper became the DOP853 pair, with its step size
carried from chunk to chunk, and the projection and the dense output
left BLAS, so they hold under every OpenBLAS kernel.  They were taken
again when CHUNK_LENGTH went from 5 to 10: the projections fall at
other eta, and decided runs stop at the next 10-unit chunk end.  They
were taken once more when each sample's eta became its grid index over
round(1 / SAMPLE_STEP) instead of a float arange over the chunk: the eta
column moves by up to 2.3e-12 and the states sampled there with it.
"""

import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import spin7flow

from spin7flow.aw_algebra import AWParams, normalize
from spin7flow.cli import main
from spin7flow.critical_points import catalog, solve_homogeneous_einstein
from spin7flow.phase_system import Chirality, SetId, derivative, membership
from spin7flow.polycert import (DEFAULT_EXCLUSION_RADIUS, barrier,
                                certify_line_resultant,
                                certify_ray_resultant, line_resultant,
                                _root_exact, implicit_derivatives,
                                line_slices, ray_slices, root_gap_hessian_det,
                                rtilde, stated_boundary_zeros)
from spin7flow.ratpoly import Ball, Box, certify_nonneg
from spin7flow.shooting import ShootSpec, boundary_face, integrate

EXACT_FIELDS = ("label", "X", "Z", "exact", "frame")

CATALOG_DIGESTS = {
    (1, 0):
        "cd660988f6e0c84350e57ecab8c869d53ce25c14a9ff5ba9f04907831df619fb",
    (1, 1):
        "2cc76bf94ecfad8464db0899f217965b73c614a1e09f9ca46455ed47f9accbfe",
    (3, 2):
        "0c3d800715eea6367f381ee29d4e43cd0ec11f89e34e6f0089a1ce7d48bc5417",
    (13, 5):
        "3ca53e65c4d10c9f07b258050b596508c14f995d43e0954cbb4d9b60d25f1c7d",
    (55, 41):
        "d4f03e887ff4747c9ead2d4ff2461935da83caa7b5ab7428a7c083bd1f953340",
    (59, 23):
        "dba603316fe32682e2e07c0b9a1d6856437de1d21161235315aeefe3876f22bc",
}

CERTIFY_DIGESTS = {
    ("r",):
        "6a1acb3a473ab1a4a36003538eedfea15bc4c57c9b881f71c6325d479e258f9e",
    ("rtilde", 3, 2):
        "25e707ac52b79da1d8d1a27d9bbe6b4847d8b6908605f2ad7876cc9a1309639e",
    ("rtilde", 1, 1):
        "9a44e991a126b11bb4195735a763dc457210a728ce2b94b8a4b842689d5a4ced",
    ("rtilde", 13, 5):
        "f2185c411f24cc039f9aa73b27e2453570400a68522dd60701df9e8a7a1e991b",
}

# repr(solve_homogeneous_einstein(p)), one line per orbit, over (1, 0),
# (1, 1) and the coprime 30 >= k > l >= 1: the AC pair's values, bit for
# bit, and its exact flags; taken while the solver searched a 1000-start
# grid.
AC_ORBITS = [(1, 0), (1, 1)] + [(k, l) for k in range(2, 31)
                                for l in range(1, k) if math.gcd(k, l) == 1]
AC_DIGEST = "4961117331336dc869927c0f169c5473ab72b3be41bc11b8207bf9d568320e31"

# The same over two far orbits, rho near 0 and near 1; taken while both
# seeds ran as one batch of duals over numpy columns.
FAR_AC_ORBITS = [(10 ** 6, 1), (10 ** 6 + 1, 10 ** 6)]
FAR_AC_DIGEST = \
    "3083434c3c07bdc2daf8cf450a2e83ac82fbccdaa42708528b2ae6321790d896"

# The same over 40 extreme orbits, (10^e, 1), (10^e + 1, 10^e),
# (10^e, 10^e - 1) and (2*10^e + 1, 10^e) for e = 3..12; taken while the
# Newton Jacobian came from a dual pass through the quotient W = L/q.
EXTREME_AC_ORBITS = [kl for e in range(3, 13) for kl in (
    (10 ** e, 1), (10 ** e + 1, 10 ** e), (10 ** e, 10 ** e - 1),
    (2 * 10 ** e + 1, 10 ** e))]
EXTREME_AC_DIGEST = \
    "3282c67576e867dd7d22a11591f118deea8a23a12555264bcd96f2f1fb92b918"

# repr(rtilde(p)) and repr(ray_slices(p)), one line each per orbit, over
# (1, 0), (1, 1) and the coprime 20 >= k > l >= 1; taken while each ratio
# composed its own barriers and took its own Sylvester resultant.
RAY_ORBITS = [(1, 0), (1, 1)] + [(k, l) for k in range(2, 21)
                                 for l in range(1, k) if math.gcd(k, l) == 1]
RAY_DIGEST = "2e4b522cc4257ff72cfe1d0c30d75a7436d0e6d320dbe516781e25c19415df12"

# repr(barrier(p, w)) for w in Q, A, P, B over RAY_ORBITS, then
# repr(line_slices()) and repr(line_resultant()); taken while the line
# slices were composed from the barriers of (1, 0) with a split variable.
LINE_DIGEST = \
    "dfcc37c0985dca07e6283b3856d03bd45648fb2233f2fbc67ae82859b5f32111"

# json.dumps(certify_ray_resultant(p).to_json_dict()) over RAY_ORBITS,
# the same for certify_line_resultant(), then repr of an Inconclusive
# and of a CounterexampleFound run of rtilde(3, 2) on a box that is not
# the unit cube; taken while certify_nonneg split fibre by fibre and
# tested each ball on the corners of a Box of Fractions.
CERTIFICATE_BOX = Box.from_bounds([(Fraction(1, 3), 1), (0, Fraction(2, 3)),
                                   (Fraction(1, 5), 1)])
CERTIFICATE_DIGEST = \
    "81ed369f0c33dfafe787cee9734a2b1cc793f9cb95d68b1fb920e30658cee945"

# repr(certificate.boxes_per_depth), one line each, of
# certify_ray_resultant(p) over RAY_ORBITS and of
# certify_line_resultant(): the shape of every subdivision tree, which
# the JSON form leaves out; taken while each ray certificate converted
# its own rtilde(p) to Bernstein form.
TREE_DIGEST = \
    "70256b44a2a64e8e7e4dd403b8eb0237fef95a4575a8f1c3776db628cfa2f217"


# repr(_root_exact(p, kind, point)), or the exception's name and message,
# one line each: omega and zeta on the exact workload's line grid
# (alpha = i/62, beta = j/32, beta = 0 included) with params None; per
# orbit four seeded line points and 24 seeded ray points (alpha = i/15,
# beta = j/15, delta = m/16, zero edges included) for all four kinds; an
# off-domain grid that raises DomainAnomalyError; then repr of
# implicit_derivatives at eight points and of root_gap_hessian_det.
# Taken while every root went through slice() and the RatPoly it
# returns, both quadratic roots were built and compared in QuadExt, and
# every single-root bracket was halved down to the accuracy.
ROOT_ORBITS = [(1, 0), (1, 1), (13, 5), (55, 41), (59, 23)] + [
    (k, l) for k in range(2, 10) for l in range(1, k) if math.gcd(k, l) == 1
] + [(10, 3), (11, 4), (12, 7), (17, 6), (19, 11), (23, 9), (29, 13),
     (31, 30), (37, 2), (41, 40), (47, 17), (53, 26), (60, 1), (61, 60),
     (97, 89)]
ROOT_LINE_GRID = [(Fraction(i, 62), Fraction(j, 32))
                  for i in range(32) for j in range(33)]
ROOT_OFF_DOMAIN = [Fraction(v) for v in ("-1", "-1/2", "0", "1/3", "1", "3")]
ROOT_DERIVATIVES = [
    ((3, 2), "omega", (Fraction(1, 4), Fraction(1, 2)), 2),
    ((3, 2), "zeta", (Fraction(1, 4), Fraction(1, 2)), 2),
    ((3, 2), "xi", (Fraction(1, 2), Fraction(1, 3), Fraction(1, 2)), 2),
    ((3, 2), "sigma", (Fraction(1, 2), Fraction(1, 3), Fraction(1, 2)), 2),
    ((13, 5), "xi", (Fraction(2, 3), Fraction(1, 5), Fraction(3, 4)), 1),
    ((13, 5), "sigma", (Fraction(2, 3), Fraction(1, 5), Fraction(3, 4)), 1),
    ((1, 0), "sigma", (Fraction(1, 3), Fraction(1, 3), Fraction(1)), 2),
    ((1, 1), "zeta", (Fraction(15, 62), Fraction(7, 32)), 2),
]
ROOT_DIGEST = \
    "e317a66d3dd09520093e7ee5ced7140469597a88faa698e5cec40320d04eef17"


# Shooting runs: the benchmark's families ((3, 2) spin+ and spin- in the
# quadrant, (1, 1) spin- converging and escaping, the two locked (1, 1)
# AC runs, (3, 2) Ricci-flat), (13, 5) spin+ and spin-, early-stopping,
# full-horizon and cut short (Undetermined), each at the default and at
# a coarse tolerance pair.
# Per run the digest reads the bytes of etas, states and residual_log,
# then repr of events, outcome and face_lock; then the stdout of the
# README's classify and sweep examples.
S_LINE = (-3.0 / math.sqrt(10.0), 1.0 / math.sqrt(10.0))
S_CURVE = (-1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))
FULL = {"stop_on_converged": False}
TRAJECTORY_RUNS = [
    ((3, 2), "k+l", "spin+", (0.6, 0.8), {}),
    ((3, 2), "k+l", "spin+", (0.95, 0.3), FULL),
    ((3, 2), "k+l", "spin+", (0.6, 0.8), {"eta_max": 30.0}),
    ((3, 2), "k", "spin-", (0.8, 0.6), {}),
    ((3, 2), "k", "spin-", (0.3, 0.95), FULL),
    ((1, 1), "k", "spin-", (0.2, 0.98), {}),
    ((1, 1), "k", "spin-", (-0.9, 0.3), {}),
    ((1, 1), "k+l", "spin+", S_LINE, {}),
    ((1, 1), "k", "spin-", S_CURVE, {}),
    ((1, 1), "k+l", "spin+", S_LINE, FULL),
    ((3, 2), "k+l", "ricci", (0.6, 0.8, 0.0), {}),
    ((3, 2), "k+l", "ricci", (0.5, 0.5, 0.5), FULL),
    ((13, 5), "k+l", "spin+", (0.6, 0.8), {}),
    ((13, 5), "k", "spin-", (0.6, 0.8), {}),
    ((13, 5), "k+l", "spin+", (0.8, 0.6), FULL),
]
TRAJECTORY_TOLERANCES = [(1e-10, 1e-12), (1e-6, 1e-9)]
TRAJECTORY_ARGV = [
    ["classify", "--k", "3", "--l", "2", "--bundle", "k+l",
     "--s1", "0.6", "--s2", "0.8"],
    ["sweep", "--k", "1", "--l", "1", "--bundle", "k", "--n", "8"],
]
TRAJECTORY_DIGEST = \
    "b1216128eef704aa63d5b0a2270e8a4d00102f4f9b0faf65cb173077be221ffd"


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _stdout(argv, capsys):
    assert main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("kl", sorted(CATALOG_DIGESTS))
def test_catalog_exact_fields_are_unchanged(kl, capsys):
    out = _stdout(["critical-points", "--k", str(kl[0]), "--l", str(kl[1])],
                  capsys)
    exact = [{name: point[name] for name in EXACT_FIELDS if name in point}
             for point in json.loads(out)["points"]]
    assert _sha256(json.dumps(exact, sort_keys=True)) == CATALOG_DIGESTS[kl]


@pytest.mark.parametrize("target", sorted(CERTIFY_DIGESTS, key=str))
def test_certify_output_is_unchanged(target, capsys):
    argv = ["certify", "--target", target[0]]
    if len(target) > 1:
        argv += ["--k", str(target[1]), "--l", str(target[2])]
    assert _sha256(_stdout(argv, capsys)) == CERTIFY_DIGESTS[target]


def test_ac_pairs_are_unchanged():
    assert len(AC_ORBITS) == 279
    text = "".join(f"{solve_homogeneous_einstein(AWParams(*kl))!r}\n"
                   for kl in AC_ORBITS)
    assert _sha256(text) == AC_DIGEST


def test_far_ac_pairs_are_unchanged():
    text = "".join(f"{solve_homogeneous_einstein(AWParams(*kl))!r}\n"
                   for kl in FAR_AC_ORBITS)
    assert _sha256(text) == FAR_AC_DIGEST


def test_extreme_ac_pairs_are_unchanged():
    assert len(EXTREME_AC_ORBITS) == 40
    text = "".join(f"{solve_homogeneous_einstein(AWParams(*kl))!r}\n"
                   for kl in EXTREME_AC_ORBITS)
    assert _sha256(text) == EXTREME_AC_DIGEST


def test_ray_resultants_and_slices_are_unchanged():
    assert len(RAY_ORBITS) == 129
    orbits = [AWParams(*kl) for kl in RAY_ORBITS]
    text = "".join(f"{rtilde(p)!r}\n{ray_slices(p)!r}\n" for p in orbits)
    assert _sha256(text) == RAY_DIGEST


def test_barriers_and_line_family_are_unchanged():
    text = "".join(f"{barrier(AWParams(*kl), w)!r}\n"
                   for kl in RAY_ORBITS for w in "QAPB")
    text += f"{line_slices()!r}\n{line_resultant()!r}\n"
    assert _sha256(text) == LINE_DIGEST


def test_certificates_are_unchanged():
    lines = [json.dumps(certify_ray_resultant(AWParams(*kl)).to_json_dict())
             for kl in RAY_ORBITS]
    lines.append(json.dumps(certify_line_resultant().to_json_dict()))
    params = AWParams(3, 2)
    balls = tuple(Ball(center, DEFAULT_EXCLUSION_RADIUS)
                  for center in stated_boundary_zeros(params))
    poly = rtilde(params)
    inconclusive = certify_nonneg(poly, CERTIFICATE_BOX, exclusions=balls,
                                  max_depth=6)
    counter = certify_nonneg(poly - Fraction(1, 1000), CERTIFICATE_BOX,
                             exclusions=balls)
    assert (inconclusive.status, counter.status) == (
        "Inconclusive", "CounterexampleFound")
    lines += [repr(inconclusive), repr(counter)]
    assert _sha256("".join(line + "\n" for line in lines)) == \
        CERTIFICATE_DIGEST


def test_certificate_trees_are_unchanged():
    lines = [repr(certify_ray_resultant(AWParams(*kl)).boxes_per_depth)
             for kl in RAY_ORBITS]
    lines.append(repr(certify_line_resultant().boxes_per_depth))
    assert _sha256("".join(line + "\n" for line in lines)) == TREE_DIGEST


def _root_line(params, kind, point):
    try:
        return repr(_root_exact(params, kind, point))
    except Exception as exc:  # the error and its message are pinned too
        return f"{type(exc).__name__}: {exc}"


def test_root_values_are_unchanged():
    lines = [_root_line(None, kind, point) for point in ROOT_LINE_GRID
             for kind in ("omega", "zeta")]
    for kl in ROOT_ORBITS:
        params = AWParams(*kl)
        rng = random.Random("%d/%d" % kl)
        rays = [(Fraction(rng.randrange(16), 15),
                 Fraction(rng.randrange(16), 15),
                 Fraction(rng.randrange(17), 16)) for _ in range(24)]
        lines += [_root_line(params, kind, point)
                  for point in rng.sample(ROOT_LINE_GRID, 4)
                  for kind in ("omega", "zeta")]
        lines += [_root_line(params, kind, point) for point in rays
                  for kind in ("xi", "sigma")]
    for kl in ((3, 2), (1, 0)):
        for kind, n in (("omega", 2), ("zeta", 2), ("xi", 3), ("sigma", 3)):
            lines += [_root_line(AWParams(*kl), kind, point)
                      for point in itertools.product(ROOT_OFF_DOMAIN,
                                                     repeat=n)]
    for kl, kind, point, order in ROOT_DERIVATIVES:
        lines.append(repr(implicit_derivatives(AWParams(*kl), kind, point,
                                               order=order)))
    lines += [repr(root_gap_hessian_det(AWParams(*kl)))
              for kl in ((3, 2), (1, 1), (1, 0))]
    assert len(ROOT_ORBITS) == 47 and len(lines) == 5763
    assert _sha256("".join(line + "\n" for line in lines)) == ROOT_DIGEST


def test_trajectories_are_unchanged(monkeypatch, capsys):
    digest = hashlib.sha256()
    for kl, bundle_tag, mode, s, options in TRAJECTORY_RUNS:
        for rel_tol, abs_tol in TRAJECTORY_TOLERANCES:
            traj = integrate(ShootSpec(
                AWParams(*kl), bundle_tag, mode, s, rel_tol=rel_tol,
                abs_tol=abs_tol, **options))
            for arr in (traj.etas, traj.states, traj.residual_log):
                digest.update(arr.tobytes())
            digest.update(repr((traj.events, traj.outcome,
                                traj.face_lock)).encode())
    monkeypatch.setenv("SPIN7_THREADS", "1")
    for argv in TRAJECTORY_ARGV:
        digest.update(_stdout(argv, capsys).encode())
    assert digest.hexdigest() == TRAJECTORY_DIGEST


# Short full-horizon runs on orbits the runs above leave out: a zero
# cubic coefficient ((1, 0), l = 0), (13, 5) on the k+l bundle and in
# the Ricci-flat mode, and (59, 23); the same bytes per run as above,
# at both tolerance pairs.  Taken with the trajectory digest above.
ORBIT_RUNS = [
    ((1, 0), "k", "spin-", (0.6, 0.8)),
    ((13, 5), "k+l", "spin+", (0.3, 0.95)),
    ((59, 23), "k", "spin-", (0.8, 0.6)),
    ((13, 5), "k+l", "ricci", (0.6, 0.8, 0.0)),
]
ORBIT_DIGEST = \
    "195e350a1d490650ba4b23d4a8f433d386d6822cd1792667909626d59b7327d8"


def test_trajectories_on_more_orbits_are_unchanged():
    digest = hashlib.sha256()
    for kl, bundle_tag, mode, s in ORBIT_RUNS:
        for rel_tol, abs_tol in TRAJECTORY_TOLERANCES:
            traj = integrate(ShootSpec(
                AWParams(*kl), bundle_tag, mode, s, rel_tol=rel_tol,
                abs_tol=abs_tol, eta_max=20.0, **FULL))
            for arr in (traj.etas, traj.states, traj.residual_log):
                digest.update(arr.tobytes())
            digest.update(repr((traj.events, traj.outcome,
                                traj.face_lock)).encode())
    assert digest.hexdigest() == ORBIT_DIGEST


# The bytes of a short face-locked run (its projection solves a 3-row
# least-norm step) and of a short Ricci-flat run, one digest each, from
# child processes: one under the default OpenBLAS kernel and one under
# each older kernel that OPENBLAS_CORETYPE picks for that child.  No BLAS
# or LAPACK call reaches a trajectory, so every kernel gives the same
# bytes.
KERNEL_RUNS = [((1, 1), "k+l", "spin+", S_LINE),
               ((3, 2), "k+l", "ricci", (0.6, 0.8, 0.0))]
KERNEL_SCRIPT = """
import hashlib
from spin7flow.aw_algebra import AWParams
from spin7flow.shooting import ShootSpec, integrate
for kl, bundle_tag, mode, s in %r:
    traj = integrate(ShootSpec(AWParams(*kl), bundle_tag, mode, s,
                               eta_max=20.0, stop_on_converged=False))
    digest = hashlib.sha256()
    for arr in (traj.etas, traj.states, traj.residual_log):
        digest.update(arr.tobytes())
    digest.update(repr((traj.events, traj.outcome,
                        traj.face_lock)).encode())
    print(digest.hexdigest())
""" % (KERNEL_RUNS,)


def _on_openblas():
    try:
        config = np.show_config(mode="dicts")
        return "openblas" in config["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        return False


def _kernel_digests(coretype):
    env = {name: value for name, value in os.environ.items()
           if name != "OPENBLAS_CORETYPE"}
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    src = str(Path(spin7flow.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", KERNEL_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


@pytest.mark.skipif(not _on_openblas(),
                    reason="OPENBLAS_CORETYPE picks a kernel only when "
                    "numpy is built on OpenBLAS")
def test_trajectories_do_not_depend_on_the_blas_kernel():
    default = _kernel_digests(None)
    assert len(default) == len(KERNEL_RUNS)
    for coretype in ("Prescott", "Haswell"):
        assert _kernel_digests(coretype) == default, coretype


# Per orbit, per cataloged point and per SetId that the orbit admits
# (the two tilde sets only at (1, 1)): the set, the point's label, then
# each condition's name, ok and float.hex of its value, and the report's
# ok.  Taken while membership typed the TTilde curve and the cone
# points' Z4 caps itself.
MEMBERSHIP_ORBITS = [(1, 0), (1, 1), (3, 2), (13, 5)]
MEMBERSHIP_DIGEST = \
    "f7c2e54d04d7fc197af20b883f0591cf4963a64bada9c06e46c77a5481db0020"


def test_membership_reports_are_unchanged():
    lines = []
    for kl in MEMBERSHIP_ORBITS:
        params = AWParams(*kl)
        sets = [s for s in SetId if kl == (1, 1)
                or s not in (SetId.S_TILDE, SetId.T_TILDE)]
        for point in catalog(params).points:
            for set_id in sets:
                report = membership(params, point.state, set_id)
                lines.append(" ".join(
                    [set_id.value, point.label, str(report.ok)]
                    + ["%s|%s|%s" % (c.name, c.ok, c.value.hex())
                       for c in report.conditions]))
    assert len(lines) == 384
    assert _sha256("".join(line + "\n" for line in lines)) == \
        MEMBERSHIP_DIGEST


# float.hex of boundary_face(...).equations(z) and of every entry of
# derivative(face.equations, z), per chirality of (1, 1), at 200 seeded
# float points: half of them near the face, where shooting locks it;
# taken while shooting typed both faces as float lambdas.
FACE_DIGEST = \
    "9a929f528a20d22fbf8d7b2d440774c1b530a41208fbb3105ec96afdfeee5568"


def _face_points(rng, chirality):
    points = []
    for i in range(200):
        z = [rng.uniform(-1.0, 1.0) for _ in range(3)] + \
            [rng.uniform(0.0, 40.0)]
        if i % 2:  # near the face
            if chirality is Chirality.PLUS:
                z[2] = z[1] + rng.uniform(-1e-9, 1e-9)
                z[0] = (1.0 - 3.0 * z[1]) / 3.0
            else:
                z[0] = z[1] + z[2]
                z[3] = 6.0 / z[0] if z[0] else z[3]
        points.append(z)
    return points


def test_boundary_faces_are_unchanged():
    rng = random.Random(35)
    lines = []
    for chirality in (Chirality.PLUS, Chirality.MINUS):
        face = boundary_face(AWParams(1, 1), chirality)
        for z in _face_points(rng, chirality):
            values = face.equations(z)
            rows = derivative(face.equations, z)
            lines.append(" ".join(float(v).hex() for v in values) + " | "
                         + " ".join(float(v).hex()
                                    for row in rows for v in row))
    assert _sha256("".join(line + "\n" for line in lines)) == FACE_DIGEST


# repr(normalize(k, l)) over every nonzero pair with |k|, |l| <= 60;
# taken while normalize enumerated the twelve signed permutations.
NORMALIZE_DIGEST = \
    "7ff16885e040090f576095b8bd84557a069d96b3c613b56a91d64edfe9e8b0d7"


def test_normalize_is_unchanged():
    pairs = [(k, l) for k in range(-60, 61) for l in range(-60, 61)
             if (k, l) != (0, 0)]
    assert len(pairs) == 14640
    text = "".join(f"{normalize(k, l)!r}\n" for k, l in pairs)
    assert _sha256(text) == NORMALIZE_DIGEST
