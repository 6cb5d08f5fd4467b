"""Host speed probe.

A shared machine can run the same single-threaded work at different speeds
from one second to the next, depending on its other tenants. The probe
times a fixed kernel with three parts, the three kinds of work the package
does: a pure-Python loop, small numpy ops and a medium gemm. A sample's
host factor is the mean, over the parts, of each part's time divided by its
nominal time.

The run takes a sample before every operation and, while the request loop
runs, on a 0.1 s interval timer too, so that an operation lasting seconds
is sampled all along. An operation's host factor is the mean of the samples
from the last one before it to the first one after it. Its busy time is its
wall time minus the samples taken inside it. Dividing the busy time by the
host factor gives the time at nominal host speed, which is what the
end-to-end metrics report. The raw busy times are reported next to them.
"""

import bisect
import contextlib
import signal
import statistics
import time

import numpy as np

# time of each part on the reference machine (2-core x86-64 VM, Python
# 3.11, numpy 2.4, OpenBLAS 0.3.31) in its fast state; only the unit of the
# normalised times depends on them
NOMINAL_S = {"python": 190e-6, "numpy": 185e-6, "gemm": 160e-6}
TIMER_INTERVAL_S = 0.1


class Probe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = rng.normal(size=(16, 16))
        self._a = rng.normal(size=(64, 128))
        self._b = rng.normal(size=(128, 128)) * 0.05
        self._times = []     # perf_counter at the end of each sample
        self._samples = []   # host factor of each sample
        self._spent = []     # seconds each sample took
        self._busy = False   # a sample is running; the timer skips its turn

    def _kernel(self) -> dict:
        """Seconds each part of the kernel took."""
        t0 = time.perf_counter()
        x = 0
        for i in range(6000):
            x += i
        t1 = time.perf_counter()
        a = self._small
        for _ in range(64):
            a = np.tanh(a @ a * 0.01)
        t2 = time.perf_counter()
        a = self._a
        for _ in range(4):
            a = a @ self._b
        t3 = time.perf_counter()
        return {"python": t1 - t0, "numpy": t2 - t1, "gemm": t3 - t2}

    def sample(self, runs: int = 3) -> None:
        """Take one sample from `runs` kernel runs: each part's median."""
        self._busy = True
        start = time.perf_counter()
        parts = [self._kernel() for _ in range(runs)]
        factor = statistics.fmean(
            statistics.median(p[k] for p in parts) / nominal
            for k, nominal in NOMINAL_S.items())
        end = time.perf_counter()
        self._times.append(end)
        self._samples.append(factor)
        self._spent.append(end - start)
        self._busy = False

    @contextlib.contextmanager
    def sampling(self):
        """Take a one-run sample every TIMER_INTERVAL_S inside the block.

        SIGALRM handlers run in the main thread between bytecodes, so a
        sample interrupts the package's Python code, never a numpy call.
        """
        def tick(*_):
            if not self._busy:
                self.sample(1)

        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, TIMER_INTERVAL_S, TIMER_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self, start: float, end: float) -> float:
        """Host factor for an operation that ran from `start` to `end`."""
        first = max(bisect.bisect_right(self._times, start) - 1, 0)
        last = bisect.bisect_left(self._times, end)
        return statistics.fmean(self._samples[first:last + 1])

    def spent(self, start: float, end: float) -> float:
        """Seconds the samples taken between `start` and `end` took."""
        first = bisect.bisect_right(self._times, start)
        last = bisect.bisect_left(self._times, end)
        return sum(self._spent[first:last])
