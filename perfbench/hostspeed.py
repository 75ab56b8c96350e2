"""Host-speed calibration of the benchmark's timings.

On a shared host two things move a timing that the program does not:

* time the process is not running — other tenants' processes on the same
  vCPUs, or the hypervisor running another guest (steal).  The benchmark
  times in CPU seconds of the process (``time.process_time``, or the
  child's rusage for a subprocess), which leave both out: the kernel
  charges a task only for the time it ran, steal excluded.
* the speed of the instructions themselves, when a co-tenant shares the
  physical core, its caches or its memory bandwidth.  Such phases last
  from a fraction of a second to minutes and slow the interpreter up to
  about 2x, so they move whole runs.

For the second, :class:`HostSpeed` times a fixed reference kernel between
the benchmark's timed samples, at most every :data:`MIN_GAP_S` seconds.
The kernel has the two kinds of work the program's timings are mostly
made of: an interpreter-bound dict loop and an in-place numpy sort and
gather over 2 MB, about 5 ms together on an uncontended host.  It runs
once untimed first, so the cache state the program left behind does not
count, and it allocates nothing, so neither does the allocator's state.

When the reference host went from uncontended to loaded, the kernel
slowed 1.76x and a hashtable-engine detection 1.74x; the interpreter
loop alone slowed 2.0x and the numpy part alone 1.45x.  A page-fault
component was tried and left out, because it slowed far less than the
program did.

Each probe gives a *speed factor*: its CPU time over :data:`NOMINAL_S`.
The run's factor is the median over all its probes, and every CPU-timed
sample of the run is divided by it, so it reads what it would on the
reference host.  Within a loaded stretch the dict loop's speed swings
from one half-minute to the next far more than the program's does, so a
factor per sample, from the probes next to it, added noise; the run's
median keeps the level and drops the swings.

A lookup of the read path is a microsecond of interpreter work, which the
host's load slows more than the kernel above: scaled by that kernel,
lookups still read 30-40 % slower on the loaded host than on the
uncontended one.  Lookups are therefore calibrated one chunk at a time,
by :meth:`HostSpeed.call_kernel_ns`: a loop of short method calls, each
a dict lookup and a numpy scalar read, timed right before and right
after every chunk.

Neither kernel calls the program, so a change to the program moves the
scaled timings in full.
"""

from __future__ import annotations

import math
import resource
import statistics
import time

import numpy as np

#: CPU seconds of one reference kernel on the uncontended reference host
#: (2-vCPU Intel Xeon virtual machine, Python 3.11, numpy 2).  Any
#: constant works; this one keeps the scaled timings close to the CPU
#: times measured there.
NOMINAL_S = 0.0047
#: Least wall seconds between two probes (a probe takes about 10 ms).
MIN_GAP_S = 0.2
#: Calls in one :meth:`HostSpeed.call_kernel_ns`, and a reference time for
#: them: near their time on the uncontended host (the fastest loops seen
#: under load took 108 us).  Any constant works, as for NOMINAL_S.
CALLS = 400
CALL_NOMINAL_NS = 115_000


def child_cpu_s() -> float:
    """CPU seconds used so far by every waited-for child process."""
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


class _Reader:
    """The shape of a point lookup: a method call, a dict get, one array read."""

    def __init__(self, values: np.ndarray) -> None:
        self.tables = {"t": values}
        self.calls = 0

    def read(self, name: str, i: int) -> int:
        values = self.tables[name]
        if not 0 <= i < values.shape[0]:
            raise IndexError(i)
        self.calls += 1
        return int(values[i])


class HostSpeed:
    """The run's host-speed factors, one per probe, and the lookup call kernel."""

    def __init__(self) -> None:
        self._a = np.random.default_rng(7).integers(0, 1 << 20, 1 << 18)
        # Work buffers, so a probe allocates nothing: its time must not
        # depend on the allocator state the program left behind.
        self._b = np.empty_like(self._a)
        self._c = np.empty_like(self._a)
        self._reader = _Reader(self._a[:4096].copy())
        self.factors: list[float] = []
        self._last = -math.inf
        for _ in range(3):  # warm the caches and the allocator
            self._kernel()

    def _kernel(self) -> int:
        d: dict[int, int] = {}
        for i in range(30000):
            k = i & 1023
            d[k] = d.get(k, 0) + i
        b, c = self._b, self._c
        b[:] = self._a
        b.sort()
        np.bitwise_and(b, 0x3FFFF, out=b)
        np.take(self._a, b, out=c)
        return int(c.sum()) + len(d)

    def probe(self) -> None:
        """Time the kernel once, unless the last probe was under MIN_GAP_S ago."""
        if time.perf_counter() - self._last < MIN_GAP_S:
            return
        self._kernel()  # untimed: loads its data back into the caches
        c0 = time.process_time()
        self._kernel()
        self.factors.append((time.process_time() - c0) / NOMINAL_S)
        self._last = time.perf_counter()

    def call_kernel_ns(self) -> int:
        """Wall nanoseconds of CALLS point-lookup-shaped calls (run with gc off)."""
        read = self._reader.read
        t = time.perf_counter_ns()
        for i in range(CALLS):
            read("t", i)
        return time.perf_counter_ns() - t

    def factor(self) -> float:
        """The run's speed factor: the median over all its probes."""
        return statistics.median(self.factors) if self.factors else math.nan
