"""The list-form Dormand-Prince stepper, kept as a bit-for-bit oracle.

shooting._dopri5 runs a whole chunk, its start included, as one
generated function of straight-line per-component expressions, and
returns its steps as a packed array.  This is the form it replaced: the
stages, the new state and the scaled error terms as list comprehensions
over zip, with the same association per component, the initial step,
the dense output and the escape bisection as plain functions on tuple
rows.  It shares only the tableau with the stepper it checks.  Both
forms must give the same status, end point, step rows and right-hand
side calls, bit for bit.
"""

import math

import numpy as np

from spin7flow.shooting import (_A21, _A31, _A32, _A41, _A42, _A43, _A51,
                                _A52, _A53, _A54, _A61, _A62, _A63, _A64,
                                _A65, _B1, _B3, _B4, _B5, _B6, _C2, _C3,
                                _C4, _C5, _E1, _E3, _E4, _E5, _E6, _E7,
                                _ERROR_EXPONENT, _MAX_FACTOR, _MIN_FACTOR,
                                _P, _SAFETY, ESCAPE_NORM)


def _rms(values):
    """Root mean square, the squares added from left to right (sum()
    compensates float sums from Python 3.12 on, which would make step
    control depend on the interpreter)."""
    total = 0.0
    for v in values:
        total += v * v
    return math.sqrt(total) / len(values) ** 0.5


def _initial_step(fun, t, y, f, span, rtol, atol):
    """First step size from the size of y, f and a trial Euler step."""
    scale = [atol + abs(v) * rtol for v in y]
    d0 = _rms([v / s for v, s in zip(y, scale)])
    d1 = _rms([v / s for v, s in zip(f, scale)])
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
    f1 = fun(t + h0, [v + h0 * g for v, g in zip(y, f)])
    d2 = _rms([(a - b) / s for a, b, s in zip(f1, f, scale)]) / h0
    d = max(d1, d2)
    h1 = max(1e-6, h0 * 1e-3) if d <= 1e-15 else (0.01 / d) ** (1 / 5)
    return min(100 * h0, h1, span)


def _dense(steps, grid):
    """The continuous extension of tuple step rows at grid points."""
    table = np.array(steps, dtype=float)
    n = (table.shape[1] - 2) // 8
    starts, widths = table[:, 0], table[:, 1]
    seg = np.clip(np.searchsorted(starts, grid) - 1, 0, len(steps) - 1)
    q = table[:, 2 + n:].reshape(-1, 7, n).transpose(0, 2, 1) @ _P
    x = (grid - starts[seg]) / widths[seg]
    powers = np.cumprod(np.repeat(x[:, None], 4, axis=1), axis=1)
    return (widths[seg, None] * (q[seg] @ powers[:, :, None])[:, :, 0]
            + table[seg, 2:2 + n])


def _crossing(step, t_end):
    """Bisect one step's interpolant for its ESCAPE_NORM crossing."""
    lo, hi = step[0], t_end
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        if np.max(np.abs(_dense([step], np.array([mid])))) >= ESCAPE_NORM:
            hi = mid
        else:
            lo = mid


def dopri5(fun, t, y, t_bound, rtol, atol):
    """shooting._dopri5's contract, one list comprehension per stage."""
    steps = []
    f = fun(t, y)
    if not all(map(math.isfinite, [*y, *f])):
        return -1, t, y, steps
    h_abs = _initial_step(fun, t, y, f, t_bound - t, rtol, atol)
    while t < t_bound:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:
                return -1, t, y, steps
            t_new = min(t + h_abs, t_bound)
            h = h_abs = t_new - t
            k1 = f
            k2 = fun(t + _C2 * h, [v + a * _A21 * h
                                   for v, a in zip(y, k1)])
            k3 = fun(t + _C3 * h, [v + (a * _A31 + b * _A32) * h
                                   for v, a, b in zip(y, k1, k2)])
            k4 = fun(t + _C4 * h, [
                v + (a * _A41 + b * _A42 + c * _A43) * h
                for v, a, b, c in zip(y, k1, k2, k3)])
            k5 = fun(t + _C5 * h, [
                v + (a * _A51 + b * _A52 + c * _A53 + d * _A54) * h
                for v, a, b, c, d in zip(y, k1, k2, k3, k4)])
            k6 = fun(t + h, [
                v + (a * _A61 + b * _A62 + c * _A63 + d * _A64
                     + e * _A65) * h
                for v, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)])
            y_new = [v + h * (a * _B1 + c * _B3 + d * _B4 + e * _B5
                              + g * _B6)
                     for v, a, c, d, e, g in zip(y, k1, k3, k4, k5, k6)]
            k7 = fun(t + h, y_new)
            error = _rms([
                (a * _E1 + c * _E3 + d * _E4 + e * _E5 + g * _E6
                 + w * _E7) * h / (atol + max(abs(v), abs(u)) * rtol)
                for a, c, d, e, g, w, v, u
                in zip(k1, k3, k4, k5, k6, k7, y, y_new)])
            if error < 1:
                factor = (_MAX_FACTOR if error == 0 else
                          min(_MAX_FACTOR,
                              _SAFETY * error ** _ERROR_EXPONENT))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error ** _ERROR_EXPONENT)
            rejected = True
        steps.append((t, h, *y, *k1, *k2, *k3, *k4, *k5, *k6, *k7))
        if max(map(abs, y_new)) >= ESCAPE_NORM:
            t_cross = _crossing(steps[-1], t_new)
            y_cross = _dense(steps[-1:], np.array([t_cross]))[0]
            return 1, t_cross, y_cross.tolist(), steps
        t, y, f = t_new, y_new, k7
    return 0, t, y, steps
