"""Machine-speed reference for the end-to-end timings.

On the 2-core VM where the benchmark was defined, every process slows down
by up to 2x for tens of seconds at a time, and one unit of a workload takes
from 1 to 35 s.  Its raw wall time therefore mixes the program's speed with
the machine's.  ``SpeedMeter`` runs two fixed calibration loops, which use
no vanvisc code, for about 13 ms every ``PERIOD_S`` seconds while a unit
runs (from a ``SIGALRM`` handler, so it samples the machine inside the
unit, not only around it).  With ``period=None`` it samples only before and
after the block, for a block that must run undisturbed.

The two loops rate the two kinds of work the package does, which a slow
spell does not slow alike: ``scalar_loop`` is interpreter-bound with small
numpy calls (front tracking, measures), ``vector_loop`` is whole-array numpy
(the viscous grid, hybrid residuals).  A workload states the share of its
time that is of the vector kind.  The unit's own time is its wall time minus
the loops' time, and its time at the reference speed is

    ref_s = own_s * ((1 - share) * mean(REF_SCALAR_S / scalar_s_i)
                     + share * mean(REF_VECTOR_S / vector_s_i))

over the loops ``i`` around and inside the unit: the same share of the unit
ran at each sampled speed.  The ``REF_*`` times are round figures near the
loops' medians on the reference VM, so ``ref_s`` reads as seconds there.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.25
REF_SCALAR_S = 0.0065     # scalar_loop() on the reference VM
REF_VECTOR_S = 0.0065     # vector_loop() on the reference VM

_M = np.array([[2.0, 1.0], [1.0, 3.0]])
_X = np.linspace(0.0, 1.0, 20000)


def scalar_loop(n=400):
    """Interpreter-bound work with small numpy calls, like vanvisc's inner
    loops, fixed here so that no change to the package can move it."""
    acc = 0.0
    for i in range(n):
        v = np.array([1.0 + 1e-3 * i, 2.0])
        w, vec = np.linalg.eigh(_M + 1e-6 * i)
        x = float(vec[:, 0] @ v)
        acc += x * x + 1e-9 * sorted((w[0], w[1], x))[0]
    return acc


def vector_loop(n=36):
    """Whole-array arithmetic on 20k points, like a grid step."""
    a = _X.copy()
    for _ in range(n):
        b = np.sqrt(a * a + 1.0)
        a = np.concatenate([0.5 * np.cumsum(b[1:] - b[:-1]), [0.0]]) + _X
    return float(a[-1])


class SpeedMeter:
    """Samples the machine's speed while a block runs.

        with SpeedMeter(vector_share) as meter:
            work()
        own_s, ref_s = meter.own_s, meter.ref_s
    """

    def __init__(self, vector_share=0.0, period=PERIOD_S,
                 loops=(scalar_loop, vector_loop), clock=time.perf_counter):
        self.vector_share = vector_share
        self.period = period
        self.loops = loops
        self.clock = clock
        self.samples = []      # (scalar s, vector s) of each calibration
        self.loop_s = 0.0      # calibration time spent inside the block
        self.wall_s = None
        self._old_handler = None
        self._t0 = None

    def sample(self):
        """Time both calibration loops once and keep the times."""
        t0 = self.clock()
        self.loops[0]()
        t1 = self.clock()
        self.loops[1]()
        t2 = self.clock()
        self.samples.append((t1 - t0, t2 - t1))
        return t2 - t0

    def _tick(self, signum, frame):
        self.loop_s += self.sample()

    def __enter__(self):
        # one sample before the block, so a block shorter than the period
        # still has one on each side
        self.sample()
        if self.period:
            self._old_handler = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        self._t0 = self.clock()
        return self

    def __exit__(self, *exc):
        self.wall_s = self.clock() - self._t0
        if self.period:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, self._old_handler)
        self.sample()
        return False

    @property
    def own_s(self):
        """Wall time of the block without the calibration loops in it."""
        return self.wall_s - self.loop_s

    @property
    def speeds(self):
        """Mean scalar and vector speeds relative to the reference VM."""
        times = np.asarray(self.samples)
        return (float(np.mean(REF_SCALAR_S / times[:, 0])),
                float(np.mean(REF_VECTOR_S / times[:, 1])))

    @property
    def speed(self):
        """The speeds weighted by the block's share of vector work."""
        scalar, vector = self.speeds
        return (1.0 - self.vector_share) * scalar + self.vector_share * vector

    @property
    def ref_s(self):
        """The block's own time at the reference machine speed."""
        return self.own_s * self.speed
