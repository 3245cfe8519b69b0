#!/usr/bin/env python3
"""Benchmark of the spin7flow pipeline: shooting, reconstruction, exact
algebra and the command line.

Run from the repository root:

    python3 benchmarks/run.py --workload shoot --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 25

--trace 0 measures the end-to-end metrics of one workload in a closed
loop: one process, one item at a time, each item starting when the
previous one ends (the cli workload starts one child process per item).
--trace 1 runs the traced census instead (one traced round of every
workload) and reports the per-layer metrics and the tracing overhead.
--workload all runs every workload with --trace 0, each in a fresh
interpreter, and prints one table.  The last line of standard output is
always one JSON object with the keys correct, attempted, failed and
metrics.  Full results, the environment record and span files go to
benchmarks/out/.
"""

import os

# Single-threaded load: BLAS pools must not add threads of their own.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from importlib import metadata
from pathlib import Path
from time import perf_counter

from calibration import Calibration
from workloads import (ROOT, SRC, WORKLOADS, CheckFailed, child_env,
                       load_package, run_child)

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_PROBES = 5
IMPORT_PROBES = 3
TAIL_BEYOND = 10

END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("item_p50_s", "s"),
    ("peak_rss_mb", "MiB"),
)


def nproc():
    return len(os.sched_getaffinity(0))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workers", type=int, default=None,
                        help="sweep worker processes (default and maximum: "
                             "the CPUs this process may use)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# environment record


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "spin7flow").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(args, workers):
    def version(name):
        try:
            return metadata.version(name)
        except metadata.PackageNotFoundError:
            return None
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": nproc(),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "workers": workers,
    }


# ---------------------------------------------------------------------------
# timed loop


def run_items(workload, items, latencies, failures, tracer=None, tag="",
              calibration=None):
    """Run items one after another, recording latency and failures, with
    the calibration kernel (if any) between items."""
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.item = "%s/%d" % (tag, i)
        start = perf_counter()
        try:
            workload.run(item)
        except CheckFailed as exc:
            failures.append("%s: %s" % (workload.name, exc))
        except Exception:
            failures.append("%s: %s" % (
                workload.name, traceback.format_exc(limit=3).strip()))
        latencies.append(perf_counter() - start)
        if calibration is not None:
            calibration.after(latencies[-1])


def closed_loop(workload, seconds, calibration):
    """Whole rounds until the budget is spent to the nearest round."""
    latencies, failures = [], []
    start = perf_counter()
    rounds = 0
    while True:
        run_items(workload, workload.round(rounds), latencies, failures,
                  calibration=calibration)
        rounds += 1
        elapsed = perf_counter() - start
        if elapsed + 0.5 * elapsed / rounds >= seconds:
            return latencies, failures, elapsed, rounds


def tail(latencies):
    """Highest percentile with at least TAIL_BEYOND items beyond it."""
    n = len(latencies)
    if n < 2 * TAIL_BEYOND:
        return None
    ordered = sorted(latencies)
    return {"value": ordered[n - TAIL_BEYOND - 1],
            "percentile": 100.0 * (n - TAIL_BEYOND) / n, "samples": n}


def setup_probes(args, workers, workdir, calibration):
    """Wall time from a fresh interpreter to ready-to-time, several times,
    with the calibration kernel between probes."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed),
            "--workers", str(workers)]
    times = []
    for i in range(SETUP_PROBES):
        code, wall, _, _, err = run_child(argv, child_env(), workdir,
                                          "probe%d" % i)
        if code != 0:
            raise RuntimeError("setup probe exited %d: %s" % (code, err))
        times.append(wall)
        calibration.after(wall)
    return times


def timed(args, workers, workdir):
    """The timed run.  Every set-up probe and every item is rescaled to
    the nominal speed of the calibration kernel (see calibration.py)."""
    cls = WORKLOADS[args.workload]
    setup_speed = Calibration()
    setup_times = setup_probes(args, workers, workdir, setup_speed)
    workload = cls(args.seed, workers, workdir)
    start = perf_counter()
    workload.setup()
    in_process_setup = perf_counter() - start
    loop_speed = Calibration()
    latencies, failures, elapsed, rounds = closed_loop(
        workload, args.seconds, loop_speed)
    if args.workload == "cli":
        peak = workload.child_peak_mb
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_scaled = setup_speed.rescale(setup_times)
    scaled = loop_speed.rescale(latencies)
    values = {
        "setup_s": statistics.median(setup_scaled),
        "items_per_s": len(scaled) / sum(scaled),
        "item_p50_s": statistics.median(scaled),
        "peak_rss_mb": peak,
    }
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END}
    detail = {
        "failed_frac": len(failures) / len(latencies),
        "item_tail_s": tail(scaled),
        "measured": {
            "setup_s": statistics.median(setup_times),
            "items_per_s": len(latencies) / sum(latencies),
            "item_p50_s": statistics.median(latencies),
        },
        "speed_factor": {"setup": statistics.median(setup_speed.factors()),
                         "loop": statistics.median(loop_speed.factors())},
        "kernel_s": {"setup": setup_speed.groups,
                     "loop": loop_speed.groups},
        "setup_probes_s": setup_times,
        "in_process_setup_s": in_process_setup,
        "rounds": rounds,
        "elapsed_s": elapsed,
        "failures": failures[:20],
        "latencies_s": latencies,
    }
    return len(latencies), len(failures), metrics, detail


# ---------------------------------------------------------------------------
# traced census


def _import_times(workdir):
    """Cumulative import time of spin7flow and of scipy.integrate, from
    -X importtime in fresh interpreters (medians over IMPORT_PROBES)."""
    argv = [sys.executable, "-X", "importtime", "-c", "import spin7flow"]
    package, scipy_integrate = [], []
    for i in range(IMPORT_PROBES):
        code, _, _, _, err = run_child(argv, child_env(), workdir,
                                       "import%d" % i)
        if code != 0:
            raise RuntimeError("import spin7flow exited %d" % code)
        found = {}
        for line in err.splitlines():
            if not line.startswith("import time:"):
                continue
            cells = line.split("|")
            name = cells[2].strip()
            if name in ("spin7flow", "scipy.integrate") and name not in found:
                found[name] = int(cells[1]) * 1e-6
        package.append(found["spin7flow"])
        scipy_integrate.append(found.get("scipy.integrate", 0.0))
    return statistics.median(package), statistics.median(scipy_integrate)


def _census_cli(workload, items, failures):
    """Per-command wall times of one cli round, the 1-worker sweep, and
    the import split."""
    def timed_command(item, threads=None):
        start = perf_counter()
        try:
            workload.execute(item, threads)
        except CheckFailed as exc:
            failures.append("cli: %s" % exc)
        return perf_counter() - start

    out = {"cli.%s_s" % item[0]: timed_command(item) for item in items}
    sweep = next(item for item in items if item[0] == "sweep")
    out["shooting.sweep_pool_speedup"] = (timed_command(sweep, threads=1)
                                          / out["cli.sweep_s"])
    out["cli.import_s"], out["cli.import_scipy_s"] = _import_times(
        workload.workdir)
    return out


def _layer_metrics(tracer, cli):
    t = tracer
    samples = t.counts["shooting.samples"]
    isolations = t.calls("ratpoly.root_isolation")
    values = {
        "shooting.integrate_s": t.total("shooting.integrate"),
        "shooting.integrate_self_s": t.self_total("shooting.integrate"),
        "shooting.solve_ivp_s": t.total("shooting.solve_ivp"),
        "shooting.chunks": t.calls("shooting.solve_ivp"),
        "shooting.samples": samples,
        "shooting.initial_state_s": t.total("shooting.initial_state"),
        "shooting.classify_s": t.total("shooting.classify"),
        "shooting.reconstruct_dense_s":
            t.total("shooting.reconstruct_dense"),
        "shooting.reconstruct_samples_s":
            t.total("shooting.reconstruct_samples"),
        "shooting.reconstruct_g_evals": t.leaf_calls["shooting.g_eval"],
        "phase_system.rhs_evals": t.leaf_calls["phase_system.rhs"],
        "phase_system.rhs_s": t.leaf_seconds["phase_system.rhs"],
        "phase_system.rhs_evals_per_sample":
            t.leaf_calls["phase_system.rhs"] / max(samples, 1),
        "phase_system.residuals_calls":
            t.leaf_calls["phase_system.residuals"],
        "phase_system.residuals_s": t.leaf_seconds["phase_system.residuals"],
        "phase_system.x_from_z_calls": t.leaf_calls["phase_system.x_from_z"],
        "phase_system.x_from_z_s": t.leaf_seconds["phase_system.x_from_z"],
        "critical_points.catalog_s": t.total("critical_points.catalog"),
        "critical_points.eigen_s": t.total("critical_points.eigen"),
        "critical_points.reference_frame_s":
            t.total("critical_points.reference_frame"),
        "critical_points.unstable_frame_s":
            t.total("critical_points.unstable_frame"),
        "polycert.rtilde_s": t.total("polycert.rtilde"),
        "polycert.slice_s": t.total("polycert.slice"),
        "ratpoly.sylvester_resultant_s":
            t.total("ratpoly.sylvester_resultant"),
        "ratpoly.certify_nonneg_s": t.total("ratpoly.certify_nonneg"),
        "ratpoly.boxes_processed": t.counts["ratpoly.boxes_processed"],
        "ratpoly.root_isolation_s": t.total("ratpoly.root_isolation"),
        "ratpoly.sturm_counts": t.leaf_calls["ratpoly.sturm_count"],
        "ratpoly.sturm_counts_per_root":
            t.leaf_calls["ratpoly.sturm_count"] / max(isolations, 1),
    }
    for kind in ("omega", "zeta", "xi", "sigma"):
        values["polycert.root_fn.%s_s" % kind] = t.total(
            "polycert.root_fn.%s" % kind)
    values.update(cli)
    return values


def census(args, workers, workdir):
    """One traced round of every workload, plus the untraced replay of
    the named workload's round that gives the tracing overhead."""
    from tracing import Tracer, assert_pristine, capture_bindings, merge
    mods = load_package()
    reference = capture_bindings(mods)
    tracers = {}
    failures = []
    attempted = 0
    cli = {}
    rate_ratio = None
    for name, cls in WORKLOADS.items():
        workload = cls(args.seed, workers, workdir)
        workload.setup()
        items = workload.round(0)
        attempted += len(items)
        if name == args.workload:
            assert_pristine(mods, reference)
            replay = items if workload.replay_safe else workload.round(1)
            plain = []
            run_items(workload, replay, plain, [])
            untraced_rate = len(plain) / sum(plain)
        if name == "cli":
            cli = _census_cli(workload, items, failures)
            traced = sum(cli["cli.%s_s" % n] for n, _, _ in items)
        else:
            spent = []
            tracer = tracers[name] = Tracer(mods)
            with tracer:
                run_items(workload, items, spent, failures, tracer,
                          "%s/0" % name)
            assert_pristine(mods, reference)
            traced = sum(spent)
        if name == args.workload:
            rate_ratio = (len(items) / traced) / untraced_rate
    tracer = merge(tracers.values())
    values = _layer_metrics(tracer, cli)
    values["trace.rate_ratio"] = rate_ratio
    per_workload = {
        name: {key: value for key, value in _layer_metrics(t, {}).items()
               if value}
        for name, t in tracers.items()}
    return tracer, attempted, failures, values, per_workload


# ---------------------------------------------------------------------------
# output


def _print_table(title, rows):
    print(title)
    for name, value, unit in rows:
        shown = "%.6g" % value if isinstance(value, float) else str(value)
        print("  %-36s %14s %s" % (name, shown, unit))


def _timed_rows(metrics, detail):
    """Table rows: the declared metrics, failed_frac and the tail, then
    the times as measured and the speed factors that rescaled them."""
    rows = [(name, m["value"], m["unit"]) for name, m in metrics.items()]
    rows.append(("failed_frac", detail["failed_frac"], "fraction"))
    t = detail["item_tail_s"]
    if t is not None:
        rows.append(("item_tail_s (p%.1f of %d)"
                     % (t["percentile"], t["samples"]), t["value"], "s"))
    for name, value in detail["measured"].items():
        rows.append(("measured " + name, value, metrics[name]["unit"]))
    for part, factor in detail["speed_factor"].items():
        rows.append(("median speed factor, " + part, factor, "ratio"))
    return rows


def _spec():
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def run_all(args, workers):
    """Every workload with --trace 0, each in a fresh interpreter."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", repr(args.seconds), "--trace", "0",
                "--workers", str(workers)]
        done = subprocess.run(argv, capture_output=True, text=True,
                              cwd=str(ROOT))
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        with open(OUT / ("result-%s-%d-trace0.json" % (name, args.seed))) \
                as handle:
            detail = json.load(handle)["detail"]
        _print_table("workload %s" % name,
                     _timed_rows(result["metrics"], detail))
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            summary["metrics"]["%s.%s" % (name, key)] = metric
    print(json.dumps(summary))
    return 0


def main(argv=None):
    args = parse_args(argv)
    cpus = nproc()
    workers = cpus if args.workers is None else args.workers
    if not 1 <= workers <= cpus:
        print("error: --workers must lie in 1..%d (nproc), got %d"
              % (cpus, workers), file=sys.stderr)
        return 2
    if not (SRC / "spin7flow" / "__init__.py").is_file():
        print("error: %s not found; run from a spin7flow checkout"
              % (SRC / "spin7flow"), file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args, workers)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=str(OUT)))
    try:
        if args.setup_probe:
            workload = WORKLOADS[args.workload](args.seed, workers, workdir)
            workload.setup()
            workload.round(0)
            return 0
        env = environment(args, workers)
        if args.trace:
            tracer, attempted, failures, values, per_workload = census(
                args, workers, workdir)
            units = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
            metrics = {name: {"value": values[name], "unit": units[name]}
                       for name in units}
            spans = OUT / ("spans-%s-%d.jsonl" % (args.workload, args.seed))
            tracer.write_spans(spans)
            detail = {"failures": failures[:20], "spans_file": str(spans),
                      "spans": len(tracer.spans),
                      "per_workload": per_workload}
            failed = len(failures)
            _print_table("traced census (workload %s, seed %d)"
                         % (args.workload, args.seed),
                         [(k, m["value"], m["unit"])
                          for k, m in metrics.items()])
        else:
            attempted, failed, metrics, detail = timed(args, workers,
                                                       workdir)
            _print_table("workload %s (seed %d, %d items, %d rounds)"
                         % (args.workload, args.seed, attempted,
                            detail["rounds"]), _timed_rows(metrics, detail))
        for line in detail["failures"]:
            print("FAILED " + line.replace("\n", " | "))
        result = {"correct": failed == 0, "attempted": attempted,
                  "failed": failed, "metrics": metrics}
        with open(OUT / ("result-%s-%d-trace%d.json"
                         % (args.workload, args.seed, args.trace)),
                  "w") as handle:
            json.dump({"environment": env, "detail": detail, **result},
                      handle, indent=1)
        print("environment " + json.dumps(env))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
