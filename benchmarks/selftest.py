"""Self-test of the benchmark's tracer.

Run from the repository root, with or without pytest:

    python3 benchmarks/selftest.py
    python3 -m pytest -q benchmarks/selftest.py

It checks that the tracer puts every swapped binding back (also when an
item raises), that a swapped binding is detected, that the counts the
traced census reports repeat exactly across two traced runs with the same
seed, and that the calibration rescales each timed piece by the kernel
brackets on either side of it.  The two traced runs take about a minute
together.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
from tracing import Tracer, assert_pristine, capture_bindings  # noqa: E402
from workloads import ROOT, ShootWorkload, load_package  # noqa: E402

SEED = 20260
EXACT_COUNTS = ("phase_system.rhs_evals", "shooting.samples",
                "ratpoly.boxes_processed", "ratpoly.sturm_counts")


def _swapped(mods, reference):
    try:
        assert_pristine(mods, reference)
    except RuntimeError:
        return True
    return False


def test_bindings_restored_after_traced_item():
    mods = load_package()
    reference = capture_bindings(mods)
    workload = ShootWorkload(SEED, 1, HERE)
    workload.setup()
    tracer = Tracer(mods)
    with tracer:
        assert _swapped(mods, reference)
        workload.run(workload.round(0)[8])
    assert_pristine(mods, reference)
    assert tracer.calls("shooting.integrate") == 1
    assert tracer.leaf_calls["phase_system.rhs"] > 0
    assert tracer.counts["shooting.samples"] > 0


def test_bindings_restored_after_exception():
    mods = load_package()
    reference = capture_bindings(mods)
    try:
        with Tracer(mods):
            mods["polycert"].root_fn(None, "no-such-root", (0, 1))
    except ValueError:
        pass
    else:
        raise AssertionError("an unknown root kind must raise")
    assert_pristine(mods, reference)


def test_calibration_uses_brackets_on_both_sides():
    speed = calibration.Calibration()
    nominal = calibration.NOMINAL_S
    speed.groups = [[nominal], [2.0 * nominal, 2.0 * nominal],
                    [3.0 * nominal]]
    for got, want in zip(speed.factors() + speed.rescale([3.0, 5.0]),
                         [2.0 / 3.0, 0.4, 2.0, 2.0]):
        assert math.isclose(got, want), (got, want)
    try:
        speed.rescale([1.0])
    except ValueError:
        pass
    else:
        raise AssertionError("a piece count that does not match the "
                             "brackets must raise")


def _traced_run():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "exact",
         "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=str(ROOT), timeout=180)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_counts_repeat_exactly():
    first, second = _traced_run(), _traced_run()
    assert first["correct"] and second["correct"]
    for name in EXACT_COUNTS:
        a = first["metrics"][name]["value"]
        b = second["metrics"][name]["value"]
        assert a > 0, name
        assert a == b, (name, a, b)


if __name__ == "__main__":
    for name, test in sorted(globals().items()):
        if name.startswith("test_") and callable(test):
            test()
            print("ok", name)
