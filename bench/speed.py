"""Host speed sampled while a pass runs, to scale its wall time.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent over seconds to minutes, and CPU time drifts with wall time.
A ``SpeedSampler`` times a fixed reference kernel before a pass and then,
from a ``SIGALRM`` interval timer, every ``period`` seconds during it.  The
pass's wall time minus the time spent in the sampler, divided by the mean
reference time, is its cost in reference units: it moves with the program's
work and far less with the host's speed.

The kernel mixes the kinds of work the package does: a pure-Python integer
loop (interpreter and mpmath), complex transcendentals on a numpy array
(``specfun``), small complex matrix products (``qosc``), and Python floats
read in scattered order from a list of about 10 MB.  The last part, about
a third of the kernel's time, makes it lose speed to cache contention from
other tenants as much as the package's workloads do; without it they slowed
about 1.2 times as much as the kernel, in log terms.  It uses only numpy and
its own data, so no change to the package can change its time.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

_Z = np.exp(1j * np.linspace(0.0, 1.0, 1024))
_M = np.full((32, 32), 0.5 + 0.5j)
_FLOATS = [float(i) for i in range(300000)]
_ORDER = np.random.default_rng(0).permutation(len(_FLOATS))[:9000].tolist()


def reference_kernel():
    """About 8 ms of fixed work on a 2-core Xeon."""
    s = 0
    for i in range(30000):
        s += i * i % 7
    for _ in range(15):
        np.log(np.exp(_Z) + 1.0)
    for _ in range(40):
        _M @ _M
    x = 0.0
    for i in _ORDER:
        x += _FLOATS[i]
    return s + x


class SpeedSampler:
    """Times the body of a ``with`` block and the reference kernel around it.

    On entry it runs the kernel once, then starts the clock and, if
    ``period`` is positive, a timer that runs the kernel again every
    ``period`` seconds.  On exit ``wall_s`` is the block's wall time less
    the time the sampler took from it, and ``samples`` holds every kernel
    time.  ``period=0`` takes only the first sample, for passes that must
    not be interrupted, such as traced ones.
    """

    def __init__(self, period=0.1, kernel=reference_kernel, clock=time.perf_counter):
        self.period = period
        self.kernel = kernel
        self.clock = clock
        self.samples = []
        self.wall_s = None
        self._spent = 0.0
        self._start = None
        self._previous = None

    def sample(self, *_):
        start = self.clock()
        self.kernel()
        duration = self.clock() - start
        self.samples.append(duration)
        self._spent += duration

    @property
    def ref_s(self):
        """Mean time of the reference kernel over the block."""
        return statistics.fmean(self.samples)

    def __enter__(self):
        self.samples, self.wall_s = [], None
        self.sample()
        self._spent = 0.0
        if self.period > 0:
            self._previous = signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        self._start = self.clock()
        return self

    def __exit__(self, *exc):
        if self.period > 0:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self.wall_s = self.clock() - self._start - self._spent
