"""Machine-speed calibration for the timed metrics.

The 2-CPU host the benchmark was built on changes its effective CPU
speed by up to about 1.6x within seconds: the same ``integrate`` call
took from 0.25 s to 0.54 s of user time, with no system time, page
faults or waiting.  Averaging over a longer run does not remove that,
so two sets of runs of the same code disagreed by up to a quarter.

Each run therefore also times a fixed calibration kernel in short
brackets before and after every timed piece of work (an item, or a
set-up probe), and rescales the piece to the kernel's nominal speed:

    reported = measured * NOMINAL_S / mean kernel time of the brackets
               just before and just after the piece

The kernel uses only the standard library, numpy and scipy, never
spin7flow.  A change to spin7flow therefore moves a reported time by the
same ratio as the measured one; what the rescaling removes is the part
of the machine's drift that slows the kernel and the items alike.  The
kernel has four parts of about 12 ms each, because no single kind of
work tracked every workload: an adaptive RK integration on small numpy
arrays, a ``Fraction`` polynomial remainder sequence, a dict-based
``Fraction`` polynomial product, and building and sorting a dict of
12000 tuples.  The slowdowns seem to hit large working sets hardest,
and the last two parts have the larger ones.
"""

import statistics
from fractions import Fraction
from time import perf_counter

import numpy as np

# Typical kernel time on the machine of the first measurements (2 CPUs,
# Python 3.11.7, numpy 2.4.6, scipy 1.17.1).  It only fixes the unit:
# reported times are seconds at this kernel speed.
NOMINAL_S = 0.05
# Kernel time after each piece, as a share of the piece's own time, and
# the least kernel time in one bracket.
SHARE = 0.1
MIN_BRACKET_S = 0.04


def _flow(t, y):
    # Four weakly coupled van der Pol oscillators: a fixed polynomial
    # field on R^8, evaluated on small numpy arrays like the phase flow.
    x, v = y[:4], y[4:]
    return np.concatenate((v, (1.0 - x * x) * v - x + 0.1 * x[::-1]))


def _integrate():
    from scipy.integrate import solve_ivp
    y0 = np.linspace(0.5, 2.0, 8)
    sol = solve_ivp(_flow, (0.0, 3.0), y0, rtol=1e-10, atol=1e-12)
    return float(sol.y[:, -1].sum())


def _rem(a, b):
    a = list(a)
    while len(a) >= len(b):
        q = a[-1] / b[-1]
        for i in range(len(b)):
            a[len(a) - len(b) + i] -= q * b[i]
        a.pop()
        while a and a[-1] == 0:
            a.pop()
    return a


def _remainders():
    # Length of the Euclidean remainder sequence of a fixed polynomial
    # and its derivative.
    p = [Fraction((7 * i * i + 3 * i + 1) % 23 - 11, i + 1)
         for i in range(19)]
    q = [i * c for i, c in enumerate(p)][1:]
    length = 1
    while q:
        p, q = q, [-c for c in _rem(p, q)]
        length += 1
    return length


def _product():
    p = {i: Fraction((5 * i + 1) % 17 - 8, i + 2) for i in range(50)}
    q = {i: Fraction((3 * i + 2) % 13 - 6, i + 3) for i in range(50)}
    r = {}
    for i, a in p.items():
        for j, b in q.items():
            r[i + j] = r.get(i + j, 0) + a * b
    return len(r)


def _table():
    d = {}
    for i in range(12000):
        d[(i * 7919) % 100003] = (i, str(i))
    return sorted(d.items())[-1]


def kernel():
    return (_integrate(), _remainders(), _product(), _table())


class Calibration:
    """Brackets of kernel runs around each timed piece of work.

    Bracket i runs just before piece i and bracket i + 1 just after it;
    the piece is rescaled by the mean kernel time of the two.  The
    machine's speed changes within seconds, so the nearest kernel runs
    track it far better than a whole-run average does.
    """

    def __init__(self):
        kernel()
        self.groups = []
        self.after(0.0)

    def after(self, busy):
        """Run the kernel for SHARE of ``busy`` seconds, and for at least
        MIN_BRACKET_S."""
        group = []
        while sum(group) < max(SHARE * busy, MIN_BRACKET_S):
            start = perf_counter()
            kernel()
            group.append(perf_counter() - start)
        self.groups.append(group)

    def factors(self):
        """Nominal over measured kernel time around each piece: below 1
        where the machine ran slow."""
        speed = [statistics.mean(group) for group in self.groups]
        return [2.0 * NOMINAL_S / (before + after)
                for before, after in zip(speed, speed[1:])]

    def rescale(self, times):
        factors = self.factors()
        if len(factors) != len(times):
            raise ValueError("%d brackets for %d timed pieces"
                             % (len(self.groups), len(times)))
        return [t * f for t, f in zip(times, factors)]
