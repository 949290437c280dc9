"""Host-speed calibration: CPU times rescaled to a reference speed.

On a shared host the CPU time of identical work is not steady, because
other tenants on the same physical core slow this process down.  On a
shared 2-vCPU virtual machine a fixed pure-Python loop took from 1.0x
to 1.8x its best CPU time, in phases lasting from under a second to
minutes, and the workloads' raw CPU times spread by 20-40% between runs.

So every ``INTERVAL_S`` of process CPU time a profiling-timer signal
runs a short fixed kernel and records how long it took.  ``clock()``
is CPU time with those slices subtracted.  ``factor`` is
``REFERENCE_KERNEL_S`` times the mean kernel rate over the slices taken
in a window; multiplying the window's work time by it gives CPU seconds
on a host that runs the kernel in exactly ``REFERENCE_KERNEL_S``.  The
slices sample the host's speed uniformly in CPU time, so a window that
spent a third of its time in a slow phase has about a third of its
slices there too.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.04
REFERENCE_KERNEL_S = 1e-3
_thread_time = time.thread_time


def kernel() -> int:
    """Dictionary updates and integer arithmetic, as in the solver's
    inner loop.  Of the kernels tried, this one tracked the workloads'
    speed best: it cut the spread of their pass times within one process
    from 11-18% to 2-3%."""
    table: dict[int, int] = {}
    x = 12345
    for _ in range(2000):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        key = x & 1023
        table[key] = table.get(key, 0) + (x >> 7)
    return len(table)


class HostSpeed:
    """Samples the kernel's CPU time on a profiling timer."""

    def __init__(self):
        self.slices: list[float] = []
        self.spent = 0.0

    def _sample(self, _signum, _frame):
        started = _thread_time()
        kernel()
        took = _thread_time() - started
        self.slices.append(took)
        self.spent += took

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        # a signal already on its way must not end the process
        signal.signal(signal.SIGPROF, signal.SIG_IGN)

    def clock(self) -> float:
        """CPU seconds of this thread, calibration slices excluded."""
        return _thread_time() - self.spent

    def mark(self) -> int:
        return len(self.slices)

    def local_factors(self, marks: list[int], reach: int = 4) -> list:
        """For each slice index in ``marks``, the factor over the slices
        within ``reach`` of it (about 0.15 s of CPU time either side), or
        None when there are none.  A short call is rescaled by the speed
        of its moment rather than by its whole pass's."""
        slices = list(self.slices)  # the timer may append while we read
        prefix = [0.0]
        for took in slices:
            prefix.append(prefix[-1] + REFERENCE_KERNEL_S / took)
        out = []
        for mark in marks:
            low, high = max(0, mark - reach), min(len(slices), mark + reach)
            count = high - low
            out.append((prefix[high] - prefix[low]) / count if count > 0 else None)
        return out

    def factor(self, since: int) -> float:
        """Reference seconds per work second over the slices since ``since``."""
        window = self.slices[since:]
        if not window:
            kernel_s = _thread_time()
            kernel()
            window = [_thread_time() - kernel_s]
        return REFERENCE_KERNEL_S * sum(1 / s for s in window) / len(window)
