"""Byte-identity guard for the exact outputs.

The exact layer (catalog coordinates, reference frames, certificates)
must not move when its arithmetic is reorganized.  These SHA-256
digests were taken from the outputs before the integer kernels
replaced the Fraction ones.  The float eigen data of the catalog is
left out, since it depends on the LAPACK build.
"""

import hashlib
import json
import math
from fractions import Fraction

import pytest

from spin7flow.aw_algebra import AWParams
from spin7flow.cli import main
from spin7flow.critical_points import solve_homogeneous_einstein
from spin7flow.polycert import (DEFAULT_EXCLUSION_RADIUS, barrier,
                                certify_line_resultant,
                                certify_ray_resultant, line_resultant,
                                line_slices, ray_slices, rtilde,
                                stated_boundary_zeros)
from spin7flow.ratpoly import Ball, Box, certify_nonneg

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
