"""A clock that runs at a fixed reference speed of the machine.

The benchmark is meant for small shared machines whose speed swings: on the
2-vCPU VM it was written on, a fixed computation took up to twice as long in
spells of seconds to tens of seconds, in CPU time as well as wall time. Whole
runs then read fast or slow, and medians within a run do not help.

:class:`RefClock` takes that swing out. While it runs, an interval timer
(``SIGALRM``, every ``period_s``) makes it time a fixed calibration kernel
of numpy and pure Python work, between two bytecodes of whatever the program
is doing. Between two samples the clock advances by the wall time elapsed
times ``REF_KERNEL_S / kernel time``: it reads the seconds the work would
have taken had the kernel run in ``REF_KERNEL_S``. Time spent in the kernel
itself is left out. The benchmark's figures, and the per-layer times of the
tracer, are read from this clock. The calibration code is the benchmark's
own, so a change to the program moves the figures and a change of machine
speed does not.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Kernel time, in seconds, that defines the reference speed: about the
# median kernel time on the machine the benchmark was written on, so that
# reference seconds read close to its wall seconds.
REF_KERNEL_S = 1.0e-3
PERIOD_S = 0.05
WINDOW = 3  # the speed is the median of this many latest kernel samples

_RNG = np.random.default_rng(0)
_SMALL = _RNG.standard_normal((12, 12))
_MEDIUM = _RNG.standard_normal((48, 48)) / 48


def _kernel():
    """A fixed mix of small numpy calls, a BLAS product and Python loops."""
    x = np.ones(12)
    for _ in range(80):
        x = _SMALL @ x
        x /= np.linalg.norm(x)
    y = _MEDIUM
    for _ in range(4):
        y = _MEDIUM @ y
    acc = {}
    for i in range(600):
        acc[i % 37] = repr(i * 0.37)
    return float(x[0] + y[0, 0]) + len(acc)


class RefClock:
    """Reference-speed time, sampled by an interval timer while started.

    A clock that was never started reads wall seconds.
    """

    def __init__(self, period_s=PERIOD_S):
        self.period_s = period_s
        self.kernel_s = []  # every kernel time sampled
        self._recent = []
        self._busy = False
        self._previous_handler = None
        # (reference seconds at the last sample, wall time it ended, scale)
        self._state = (0.0, time.perf_counter(), 1.0)

    def _sample(self):
        if self._busy:
            return
        self._busy = True
        try:
            begin = time.perf_counter()
            _kernel()
            end = time.perf_counter()
            ref, last, scale = self._state
            ref += (begin - last) * scale
            self._recent = (self._recent + [end - begin])[-WINDOW:]
            self._state = (ref, end, REF_KERNEL_S / statistics.median(self._recent))
            self.kernel_s.append(end - begin)
        finally:
            self._busy = False

    def _on_alarm(self, signum, frame):
        self._sample()

    def now(self):
        """Reference seconds since the clock was made."""
        while True:
            state = self._state
            t = time.perf_counter()
            if state is self._state:  # no sample ran in between
                ref, last, scale = state
                return ref + (t - last) * scale

    def start(self):
        for _ in range(WINDOW):
            self._sample()
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._previous_handler is not None:
            signal.signal(signal.SIGALRM, self._previous_handler)
            self._previous_handler = None
