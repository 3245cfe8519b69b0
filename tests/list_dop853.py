"""The list-form DOP853 stepper, kept as a bit-for-bit oracle.

shooting._dop853 runs a whole chunk, its start included, as one
generated function of straight-line per-component expressions, and
returns its steps as a packed array of raw rows, an escape ending at
its last step's end; shooting._finish runs the continuous extension of
many raw rows at once on numpy columns, and shooting._crossing bisects
an escape on its finished last row.  This is the same contract written
as plain functions on lists: each stage, the new state, the two scaled
error estimates and the continuous extension as comprehensions over the
components, every weighted sum added from left to right over the
nonzero weights, and the initial step, the finishing pass, the dense
output and the escape bisection as plain functions on tuple rows.  It
shares only the tableau with the stepper it checks.  Both forms must
give the same status, end point, raw rows, next step size and
right-hand side calls of a chunk, the same finished rows and calls of a
finishing pass, and the same crossing, bit for bit.
"""

import math

from spin7flow.shooting import (_B, _D, _DENSE_STAGES, _E3, _E5,
                                _ERROR_EXPONENT, _MAX_FACTOR, _MIN_FACTOR,
                                _SAFETY, _STAGES, ESCAPE_NORM)

# the derivatives a raw row carries, k1 and k6..k13
RAW_STAGES = (1, 6, 7, 8, 9, 10, 11, 12, 13)


def _rms(values):
    """Root mean square, the squares added from left to right (sum()
    compensates float sums from Python 3.12 on, which would make step
    control depend on the interpreter)."""
    total = 0.0
    for v in values:
        total += v * v
    return math.sqrt(total) / len(values) ** 0.5


def _weighted(k, row, j):
    """k1_j*w1 + k2_j*w2 + ... over the nonzero weights of row, added
    from left to right."""
    total = None
    for s, w in enumerate(row):
        if w:
            term = k[s][j] * w
            total = term if total is None else total + term
    return total


def _initial_step(fun, t, y, f, span, rtol, atol):
    """First step size from the size of y, f and a trial Euler step."""
    scale = [atol + abs(v) * rtol for v in y]
    d0 = _rms([v / s for v, s in zip(y, scale)])
    d1 = _rms([v / s for v, s in zip(f, scale)])
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
    f1 = fun(t + h0, [v + h0 * g for v, g in zip(y, f)])
    d2 = _rms([(a - b) / s for a, b, s in zip(f1, f, scale)]) / h0
    d = max(d1, d2)
    h1 = (max(1e-6, h0 * 1e-3) if d <= 1e-15
          else (0.01 / d) ** -_ERROR_EXPONENT)
    return min(100 * h0, h1, span)


def _run_stages(fun, t, y, h, k, table):
    """Append the derivatives of the stages in table to k."""
    for c, row in table:
        k.append(fun(t + c * h, [v + _weighted(k, row, j) * h
                                 for j, v in enumerate(y)]))


def _error(k, h, y, y_new, rtol, atol):
    """Hairer's combined norm of the order 5 and order 3 estimates."""
    scale = [atol + max(abs(v), abs(u)) * rtol for v, u in zip(y, y_new)]
    e5 = e3 = 0.0
    for j, s in enumerate(scale):
        a = _weighted(k, _E5, j) / s
        e5 += a * a
    for j, s in enumerate(scale):
        b = _weighted(k, _E3, j) / s
        e3 += b * b
    d = (e5 + 0.01 * e3) * len(y)
    return 0.0 if d == 0 else h * e5 / math.sqrt(d)


def _raw_row(t, h, y, y_new, k):
    """(t, h, *y, *F0, *k1, *k6, ..., *k13): what the continuous
    extension reads of the step."""
    f0 = [u - v for u, v in zip(y_new, y)]
    return (t, h, *y, *f0, *(v for s in RAW_STAGES for v in k[s - 1]))


def finish(fun, rows):
    """The finished rows (t, h, *y, *F0, ..., *F6) of raw rows: the
    stages 14..16, stage 14 on every row first, then 15, then 16, and
    the continuous extension of each row."""
    n = (len(rows[0]) - 2) // 11 if rows else 0
    ks = []
    for row in rows:
        k = [None] * 13
        for i, s in enumerate(RAW_STAGES):
            k[s - 1] = list(row[2 + (2 + i) * n:2 + (3 + i) * n])
        ks.append(k)
    for c, a_row in _DENSE_STAGES:
        for row, k in zip(rows, ks):
            t, h, y = row[0], row[1], row[2:2 + n]
            k.append(fun(t + c * h, [v + _weighted(k, a_row, j) * h
                                     for j, v in enumerate(y)]))
    out = []
    for row, k in zip(rows, ks):
        h, f0 = row[1], row[2 + n:2 + 2 * n]
        f1 = [h * a - d for a, d in zip(k[0], f0)]
        f2 = [2 * d - h * (b + a) for d, a, b in zip(f0, k[0], k[12])]
        rest = [h * _weighted(k, d_row, j) for d_row in _D for j in range(n)]
        out.append((*row[:2 + 2 * n], *f1, *f2, *rest))
    return out


def interpolant(row, t):
    """The step row's continuous extension at t."""
    n = (len(row) - 2) // 8
    y_old = row[2:2 + n]
    f = [row[2 + (i + 1) * n:2 + (i + 2) * n] for i in range(7)]
    x = (t - row[0]) / row[1]
    y = [v * x for v in f[6]]
    for i in (5, 4, 3, 2, 1, 0):
        weight = 1.0 - x if i % 2 else x
        y = [(a + b) * weight for a, b in zip(y, f[i])]
    return [a + b for a, b in zip(y, y_old)]


def _crossing(row, t_end):
    """Bisect one step's interpolant for its ESCAPE_NORM crossing."""
    lo, hi = row[0], t_end
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        sizes = [abs(v) for v in interpolant(row, mid)]
        if not any(v != v for v in sizes) and max(sizes) >= ESCAPE_NORM:
            hi = mid
        else:
            lo = mid


def dop853(fun, t, y, t_bound, rtol, atol, h_abs=None):
    """shooting._dop853's contract, one list comprehension per stage:
    the raw rows, and on an escape the escaping step's end and no
    state."""
    steps = []
    f = fun(t, y)
    if not all(map(math.isfinite, [*y, *f])):
        return -1, t, y, steps, h_abs
    if h_abs is None:
        h_abs = _initial_step(fun, t, y, f, t_bound - t, rtol, atol)
    h_next = h_abs
    while t < t_bound:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:
                return -1, t, y, steps, h_next
            clipped = t + h_abs > t_bound
            t_new = min(t + h_abs, t_bound)
            h = h_abs = t_new - t
            k = [f]
            _run_stages(fun, t, y, h, k, _STAGES)
            y_new = [v + h * _weighted(k, _B, j) for j, v in enumerate(y)]
            error = _error(k, h, y, y_new, rtol, atol)
            if error < 1:
                factor = (_MAX_FACTOR if error == 0 else
                          min(_MAX_FACTOR,
                              _SAFETY * error ** _ERROR_EXPONENT))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error ** _ERROR_EXPONENT)
            rejected = True
        if not clipped:
            h_next = h_abs
        k.append(fun(t + h, y_new))
        steps.append(_raw_row(t, h, y, y_new, k))
        if max(map(abs, y_new)) >= ESCAPE_NORM:
            return 1, t_new, None, steps, h_next
        t, y, f = t_new, y_new, k[12]
    return 0, t, y, steps, h_next
