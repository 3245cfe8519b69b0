"""The list-form Dormand-Prince stepper, kept as a bit-for-bit oracle.

shooting._dopri5 runs each step attempt as straight-line per-component
expressions.  This is the form it replaced: the stages, the new state
and the scaled error terms as list comprehensions over zip, with the
same association per component.  Both forms must give the same status,
end point, step rows and right-hand side calls, bit for bit.
"""

import math

import numpy as np

from spin7flow.shooting import (_A21, _A31, _A32, _A41, _A42, _A43, _A51,
                                _A52, _A53, _A54, _A61, _A62, _A63, _A64,
                                _A65, _B1, _B3, _B4, _B5, _B6, _C2, _C3,
                                _C4, _C5, _E1, _E3, _E4, _E5, _E6, _E7,
                                _ERROR_EXPONENT, _MAX_FACTOR, _MIN_FACTOR,
                                _SAFETY, ESCAPE_NORM, _crossing, _dense,
                                _initial_step)


def _rms(values):
    total = 0.0
    for v in values:
        total += v * v
    return math.sqrt(total) / len(values) ** 0.5


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
