"""The four seeded workloads: what each item runs and how it is checked.

Every workload hands out rounds.  A round is a short list of items whose
mix is the same for every seed (one item per input family, or a fixed
set of commands); the seed only picks the directions, orbits and grid
points inside each family.  The timed loop runs whole rounds, so the
mix, and with it the cost per item, does not depend on where the clock
stopped.

Items call the package through module attributes (``self.sh.integrate``
rather than an imported name), so the tracer's swapped bindings see
every call.
"""

import json
import math
import os
import random
import signal
import subprocess
import sys
import threading
from fractions import Fraction
from math import gcd
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

INV_SQRT2 = 1.0 / math.sqrt(2.0)
SEPARATRIX_MARGIN = 0.05
QUADRANT_MARGIN = math.pi / 36.0
S_LINE = (-3.0 / math.sqrt(10.0), 1.0 / math.sqrt(10.0))
S_CURVE = (-INV_SQRT2, INV_SQRT2)

RESIDUAL_LIMIT = 1e-6
TRL_REL_LIMIT = 1e-7
GAP_LIMIT = -1e-12
ORBIT_K_MAX = 60
LINE_POINTS = 6
RAY_POINTS = 6
CHILD_TIMEOUT = 120.0
VERIFY_LINE = "all 10 checks passed"
TRAJECTORY_HEADER = "eta,X1,X2,X3,X4,Z1,Z2,Z3,Z4,res_hyper,res_cons,res_spin"
PROFILE_HEADER = "t,a,b,c,f,trL_inv"


class CheckFailed(Exception):
    """An item ran but its output broke one of the stated expectations."""


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _rng(seed, name, index):
    return random.Random("%s:%s:%d" % (seed, name, index))


def _quadrant(rng):
    theta = rng.uniform(QUADRANT_MARGIN, math.pi / 2.0 - QUADRANT_MARGIN)
    return (math.cos(theta), math.sin(theta))


def _upper_half(rng, converging):
    """A unit direction with s2 > 0 at least SEPARATRIX_MARGIN away from
    s1 = -1/sqrt(2), on the converging or on the escaping side."""
    edge = math.acos(-INV_SQRT2 + SEPARATRIX_MARGIN)
    if converging:
        theta = rng.uniform(0.02, edge)
    else:
        theta = rng.uniform(math.acos(-INV_SQRT2 - SEPARATRIX_MARGIN),
                            math.pi - 0.02)
    return (math.cos(theta), math.sin(theta))


def orbit_pool(seed, name):
    """Coprime orbits k > l >= 1 in a seeded order; each has its own l/k."""
    pool = [(k, l) for k in range(2, ORBIT_K_MAX + 1)
            for l in range(1, k) if gcd(k, l) == 1]
    random.Random("%s:%s:orbits" % (seed, name)).shuffle(pool)
    return pool


def stated_ray_zeros(k, l):
    """Corners where the reduced ray resultant vanishes, as stated for
    the certificate: (1, 0, 1) always and (0, 1, 1) exactly when k = l."""
    zeros = {(Fraction(1), Fraction(0), Fraction(1))}
    if k == l:
        zeros.add((Fraction(0), Fraction(1), Fraction(1)))
    return zeros


def load_package():
    """Import the package from the checkout's src directory."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from spin7flow import critical_points, polycert, ratpoly, shooting
    return {"shooting": shooting, "critical_points": critical_points,
            "polycert": polycert, "ratpoly": ratpoly}


def child_env(threads=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    if threads is not None:
        env["SPIN7_THREADS"] = str(threads)
    return env


def _kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def run_child(argv, env, workdir, tag, timeout=CHILD_TIMEOUT):
    """Run one child process to completion in its own process group.

    Returns (exit code, wall seconds, peak RSS in MiB, stdout, stderr).
    The peak covers the child and every descendant it waited for.  A
    child still running at the timeout is killed with its group.
    """
    out_path = workdir / ("%s.out" % tag)
    err_path = workdir / ("%s.err" % tag)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env,
                                cwd=str(ROOT), start_new_session=True)
    timer = threading.Timer(timeout, _kill_group, (proc.pid,))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        _kill_group(proc.pid)
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)
    stdout = out_path.read_text()
    stderr = err_path.read_text()
    out_path.unlink()
    err_path.unlink()
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, stdout, stderr


def check_trajectory(traj, expect, spin):
    """Events, outcome and constraint log of one shooting run."""
    bad = [kind for _, kind in traj.events
           if kind in ("drift", "stiff-failure")]
    _require(not bad, "event %s" % bad)
    out = traj.outcome
    if expect == "decided":
        _require(out.kind in ("ALC", "AC", "Escape"),
                 "outcome %s is not decided" % out.kind)
    else:
        _require((out.kind, out.limit_label) == expect,
                 "outcome %s %s, expected %s %s"
                 % ((out.kind, out.limit_label) + tuple(expect)))
    if spin and out.kind in ("ALC", "AC"):
        worst = float(traj.residual_log[:, :2].max())
        _require(worst <= RESIDUAL_LIMIT,
                 "constraint residual %.3e" % worst)


class Workload:
    """Seeded rounds of items; subclasses fill in setup, round and run."""

    name = None
    # False when running an item warms a cache that a repeat of the same
    # item would hit, so a replay needs fresh inputs.
    replay_safe = True

    def __init__(self, seed, workers, workdir):
        self.seed = seed
        self.workers = workers
        self.workdir = workdir
        self.child_peak_mb = 0.0

    def setup(self):
        raise NotImplementedError

    def round(self, index):
        raise NotImplementedError

    def run(self, item):
        raise NotImplementedError


class ShootWorkload(Workload):
    """integrate + classify with early stop over the stated families."""

    name = "shoot"

    def setup(self):
        self.mods = load_package()
        self.sh = self.mods["shooting"]
        from spin7flow.aw_algebra import AWParams
        self.p32, self.p11 = AWParams(3, 2), AWParams(1, 1)
        for params in (self.p32, self.p11):
            self.mods["critical_points"].catalog(params)
        self.sh.integrate(self.sh.ShootSpec(self.p32, "k+l", "spin+",
                                            (0.6, 0.8), eta_max=1.0))

    def round(self, index):
        rng = _rng(self.seed, self.name, index)
        p32, p11 = self.p32, self.p11
        alc = ("ALC", "P1")
        # Six of the eleven items are (3, 2) quadrant runs of one cost,
        # so the median item falls inside that group, not between groups.
        quadrant = [(p32, bundle, mode, _quadrant(rng), alc)
                    for bundle, mode in (("k+l", "spin+"), ("k", "spin-"))
                    for _ in range(3)]
        return quadrant + [
            (p11, "k", "spin-", _upper_half(rng, True), alc),
            (p11, "k", "spin-", _upper_half(rng, False), ("Escape", None)),
            (p11, "k+l", "spin+", S_LINE, ("AC", "AC_2")),
            (p11, "k", "spin-", S_CURVE, ("AC", "AC_1")),
            (p32, "k+l", "ricci", _quadrant(rng) + (0.0,), "decided"),
        ]

    def run(self, item):
        params, bundle, mode, s, expect = item
        spec = self.sh.ShootSpec(params, bundle, mode, s)
        check_trajectory(self.sh.integrate(spec), expect, mode != "ricci")


class ProfileWorkload(Workload):
    """Full-horizon runs, each reconstructed from dense output and again
    from its samples alone (the CSV round-trip path)."""

    name = "profile"

    def setup(self):
        self.mods = load_package()
        self.sh = self.mods["shooting"]
        from spin7flow.aw_algebra import AWParams
        self.p32 = AWParams(3, 2)
        self.mods["critical_points"].catalog(self.p32)
        warm = self.sh.integrate(self.sh.ShootSpec(
            self.p32, "k+l", "spin+", (0.6, 0.8), eta_max=1.0,
            stop_on_converged=False))
        self.sh.reconstruct_metric(warm)

    def round(self, index):
        rng = _rng(self.seed, self.name, index)
        return [("k+l", "spin+", _quadrant(rng)),
                ("k", "spin-", _quadrant(rng))]

    def run(self, item):
        bundle, mode, s = item
        spec = self.sh.ShootSpec(self.p32, bundle, mode, s,
                                 stop_on_converged=False)
        traj = self.sh.integrate(spec)
        check_trajectory(traj, ("ALC", "P1"), True)
        dense = self.sh.reconstruct_metric(traj)
        table = SimpleNamespace(spec=SimpleNamespace(rel_tol=spec.rel_tol),
                                etas=traj.etas, states=traj.states, dense=())
        samples = self.sh.reconstruct_metric(table)
        for prof in (dense, samples):
            for name in ("t", "a", "b", "c", "f"):
                column = getattr(prof, name)
                _require(bool((column > 0.0).all()),
                         "non-positive %s in the profile" % name)
        _require(dense.trl_inv.shape == samples.trl_inv.shape,
                 "dense and samples-only profiles differ in length")
        rel = float((abs(dense.trl_inv - samples.trl_inv)
                     / abs(dense.trl_inv)).max())
        _require(rel <= TRL_REL_LIMIT,
                 "dense and samples-only trL_inv differ by %.3e" % rel)


class ExactWorkload(Workload):
    """One fresh orbit per item: catalog, spectra, frames, resultant,
    certificate and seeded slice roots with the interlacing check."""

    name = "exact"
    replay_safe = False
    orbits_per_round = 2

    def setup(self):
        self.mods = load_package()
        self.cp = self.mods["critical_points"]
        self.pc = self.mods["polycert"]
        from spin7flow.aw_algebra import AWParams
        self.AWParams = AWParams
        self.pool = orbit_pool(self.seed, self.name)
        # Warm-up on (1, 0), whose ratio l/k = 0 no item draws.
        warm = AWParams(1, 0)
        point = self.cp.catalog(warm).points[0]
        self.cp.eigen(warm, point)
        self.pc.root_fn(warm, "omega", (0, 1))

    def round(self, index):
        rng = _rng(self.seed, self.name, index)
        start = index * self.orbits_per_round
        orbits = self.pool[start:start + self.orbits_per_round]
        if len(orbits) < self.orbits_per_round:
            raise RuntimeError("orbit pool exhausted after %d rounds" % index)
        items = []
        for k, l in orbits:
            lines = [(Fraction(rng.randrange(32), 62),
                      Fraction(rng.randrange(1, 33), 32))
                     for _ in range(LINE_POINTS)]
            rays = []
            for _ in range(RAY_POINTS):
                i = rng.randrange(16)
                rays.append((Fraction(i, 15),
                             Fraction(rng.randrange(i + 1), 15),
                             Fraction(rng.randrange(1, 17), 16)))
            items.append((k, l, lines, rays))
        return items

    def run(self, item):
        k, l, lines, rays = item
        cp, pc = self.cp, self.pc
        params = self.AWParams(k, l)
        cat = cp.catalog(params)
        for point in cat.points:
            cp.eigen(params, point)
        for label in ("P0_KplusL", "P0_K", "P0_L", "P1"):
            cp.reference_frame(params, label)
        pc.rtilde(params, cross_check=True)
        cert = pc.certify_ray_resultant(params)
        _require(cert.status == "NonNegative",
                 "certificate status %s" % cert.status)
        centers = {tuple(ball.center) for ball in cert.exclusion_balls}
        _require(centers == stated_ray_zeros(k, l),
                 "exclusion balls at %s" % sorted(centers))
        for point in lines:
            omega = pc.root_fn(params, "omega", point)
            zeta = pc.root_fn(params, "zeta", point)
            _require(omega is not None and zeta is not None,
                     "line root missing at %s" % (point,))
            _require(zeta - omega >= GAP_LIMIT,
                     "zeta - omega = %.3e" % (zeta - omega))
        for point in rays:
            sigma = pc.root_fn(params, "sigma", point)
            if sigma is None:
                continue
            xi = pc.root_fn(params, "xi", point)
            _require(sigma - xi >= GAP_LIMIT,
                     "sigma - xi = %.3e" % (sigma - xi))


def _csv_rows(text, header):
    lines = text.strip().splitlines()
    _require(bool(lines) and lines[0] == header, "unexpected header")
    return [[float(v) for v in line.split(",")] for line in lines[1:]]


class CliWorkload(Workload):
    """One fresh process per command, one command at a time."""

    name = "cli"
    commands = ("critical-points", "classify", "integrate", "reconstruct",
                "certify_r", "certify_rtilde", "sweep", "verify")

    def setup(self):
        self.pool = orbit_pool(self.seed, self.name)
        self.round(0)
        code, *_ = run_child(self.argv("--help"), child_env(), self.workdir,
                             "warmup")
        if code != 0:
            raise RuntimeError("spin7flow --help exited %d" % code)

    @staticmethod
    def argv(*args):
        return [sys.executable, "-m", "spin7flow", *args]

    def round(self, index):
        rng = _rng(self.seed, self.name, index)
        catalog_orbit = self.pool[2 * index % len(self.pool)]
        cert_orbit = self.pool[(2 * index + 1) % len(self.pool)]
        csv_path = self.workdir / ("run-%d.csv" % index)

        def shot(bundle, s):
            return ["--k", "3", "--l", "2", "--bundle", bundle,
                    "--s1", repr(s[0]), "--s2", repr(s[1])]
        return [
            ("critical-points", ["critical-points",
                                 "--k", str(catalog_orbit[0]),
                                 "--l", str(catalog_orbit[1])], None),
            ("classify", ["classify", *shot("k+l", _quadrant(rng))], None),
            ("integrate", ["integrate", *shot("k", _quadrant(rng)),
                           "--format", "csv", "--out", str(csv_path)],
             csv_path),
            ("reconstruct", ["reconstruct", str(csv_path)], csv_path),
            ("certify_r", ["certify", "--target", "r"], None),
            ("certify_rtilde", ["certify", "--target", "rtilde",
                                "--k", str(cert_orbit[0]),
                                "--l", str(cert_orbit[1])], cert_orbit),
            ("sweep", ["sweep", "--k", "1", "--l", "1", "--bundle", "k",
                       "--n", "8"], None),
            ("verify", ["verify"], None),
        ]

    def execute(self, item, threads=None):
        """Run and check one command; returns its wall seconds."""
        name, args, extra = item
        if threads is None:
            threads = self.workers
        code, wall, rss, out, err = run_child(
            self.argv(*args), child_env(threads), self.workdir, name)
        _require(code == 0, "%s exited %d: %s" % (name, code, err[-300:]))
        self.child_peak_mb = max(self.child_peak_mb, rss)
        getattr(self, "_check_" + name.replace("-", "_"))(out, extra)
        return wall

    def run(self, item):
        return self.execute(item)

    def _check_critical_points(self, out, _):
        labels = {p["label"] for p in json.loads(out)["points"]}
        want = {"P0_KplusL", "P0_K", "P0_L", "P1", "AC_1", "AC_2"}
        _require(want <= labels, "catalog lacks %s" % sorted(want - labels))

    def _check_classify(self, out, _):
        got = json.loads(out)["outcome"]
        _require((got["kind"], got["limit_point"]) == ("ALC", "P1"),
                 "classified %s %s" % (got["kind"], got["limit_point"]))

    def _check_integrate(self, _, csv_path):
        rows = _csv_rows(csv_path.read_text(), TRAJECTORY_HEADER)
        _require(len(rows) >= 3, "too few samples")
        worst = max(max(row[9], row[10]) for row in rows)
        _require(worst <= RESIDUAL_LIMIT, "constraint residual %.3e" % worst)

    def _check_reconstruct(self, out, csv_path):
        rows = _csv_rows(out, PROFILE_HEADER)
        _require(len(rows) >= 3, "too few profile rows")
        _require(all(v > 0.0 for row in rows for v in row[:5]),
                 "non-positive t, a, b, c or f")
        csv_path.unlink()

    def _certificate(self, out, zeros):
        got = json.loads(out)
        _require(got["status"] == "NonNegative",
                 "certificate status %s" % got["status"])
        centers = {tuple(Fraction(c) for c in ball["center"])
                   for ball in got["exclusions"]}
        _require(centers == zeros, "exclusion balls at %s" % sorted(centers))

    def _check_certify_r(self, out, _):
        self._certificate(out, {(Fraction(0), Fraction(1))})

    def _check_certify_rtilde(self, out, orbit):
        self._certificate(out, stated_ray_zeros(*orbit))

    def _check_sweep(self, out, _):
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        _require(len(rows) == 8, "sweep printed %d rows" % len(rows))
        for row in rows:
            s1 = float(row[1])
            want = ("ALC", "P1") if s1 > -INV_SQRT2 else ("Escape", "")
            _require((row[3], row[4]) == want,
                     "sweep row s1=%s gave %s %s" % (row[1], row[3], row[4]))

    def _check_verify(self, out, _):
        lines = out.strip().splitlines()
        _require(bool(lines) and lines[-1] == VERIFY_LINE,
                 "verify said %r" % (lines[-1] if lines else ""))


WORKLOADS = {cls.name: cls for cls in
             (ShootWorkload, ProfileWorkload, ExactWorkload, CliWorkload)}
