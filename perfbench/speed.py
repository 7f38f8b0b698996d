"""Speed normalization: how fast the machine ran while a run was measured.

The benchmark shares a 2-core machine with other tenants, whose load slows
all work in our process by up to 2x over tens of seconds (no CPU is pinned
and no system setting is changed).  A fixed pure-Python reference kernel,
owned by the benchmark and never changed, is timed throughout each run: a
timer signal interrupts the measured work at a fixed interval and runs the
kernel, whose time the harness then subtracts from the operation it
interrupted.  The time of a round is reported at the reference speed, where
one kernel call takes ``KERNEL_NOMINAL_NS``:

    reported = measured * KERNEL_NOMINAL_NS / (kernel call time during the round)

where the kernel call time during a round is the median of the samples taken
inside it and of the ``worker.SCALE_WINDOW`` samples on each side of it.

The raw times are kept beside the reported ones in ``perfbench/out/``.
"""

from __future__ import annotations

import contextlib
import gc
import signal
import statistics
import time

#: Kernel time that defines the reference speed.
KERNEL_NOMINAL_NS = 100_000
#: The kernel interrupts the work this often, for about ``SHARE`` of the time.
EVERY_S = 0.25
SHARE = 0.05


def reference_kernel() -> complex:
    """Fixed work of the library's kind: complex arithmetic, calls, tuples."""
    acc = 0j
    z = complex(0.3, 1.1)
    for k in range(200):
        w = (z * k + 1.0) / (z + k + 2.0)
        acc += complex(*(w.real, w.imag))
    return acc


class Speedometer:
    """Reference-kernel timings taken over a run."""

    def __init__(self) -> None:
        #: (calls, ns) of each timed batch of kernel calls, in order.
        self.samples: list[tuple[int, int]] = []
        #: Total time spent in the kernel, to subtract from interrupted work.
        self.kernel_ns = 0

    def run(self, reps: int) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter_ns()
            for _ in range(reps):
                reference_kernel()
            ns = time.perf_counter_ns() - start
        finally:
            if enabled:
                gc.enable()
        self.samples.append((reps, ns))
        self.kernel_ns += ns

    @contextlib.contextmanager
    def interleaved(self):
        """Sample the kernel once before, every ``EVERY_S`` during (from a
        ``SIGALRM`` handler, which runs between bytecodes of the work), and
        once after the body."""
        start = time.perf_counter_ns()
        reference_kernel()
        reps = max(1, int(EVERY_S * SHARE * 1e9 / (time.perf_counter_ns() - start)))
        self.run(reps)
        previous = signal.signal(signal.SIGALRM, lambda *_: self.run(reps))
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
        self.run(reps)

    def scale(self, first: int = 0, stop: int | None = None) -> float:
        """Factor that turns a time measured while samples ``first`` to
        ``stop - 1`` were taken (all by default) into one at the reference
        speed: the nominal over the median call time of those samples, so
        that one sample cut short by preemption does not set the factor."""
        return KERNEL_NOMINAL_NS / statistics.median(ns / reps for reps, ns in self.samples[first:stop])
