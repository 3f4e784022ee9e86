"""Host-speed reference: a fixed pure-Python loop timed next to each rep.

The shared virtual machine this benchmark was defined on changes speed by up to 2x,
for seconds to tens of minutes at a time (a co-tenant on the same
cores), which moves every interpreter-bound timing of a run together.
Timing the same small loop before and after each simulator rep
measures that factor, and dividing it out leaves the rep's own cost:
on eight runs of ``sim-transfer`` the run-to-run spread of the median
rep time fell from 0.33 to 0.02.  The loop does not track the serving
workloads (numpy compute and waiting), which stay unscaled.

The loop mimics the simulator's hot path (a method call per process
per cycle, attribute updates, small list traffic) and touches no code
of the repository, so a change to the program never moves it.
"""

from __future__ import annotations

from time import perf_counter_ns

__all__ = ["NOMINAL_MS", "reference_ms", "normalize"]

#: reference-loop time on an undisturbed host of the kind the benchmark
#: was defined on; normalized timings read as if measured at this speed
NOMINAL_MS = 20.0


class _Process:
    def __init__(self):
        self.count = 0
        self.fifo = []

    def tick(self, cycle):
        self.count += 1
        if cycle & 7 == 0:
            self.fifo.append(cycle)
        elif self.fifo:
            self.fifo.pop()
        return self.count & 1 == 0


def reference_ms(cycles: int = 20_000) -> float:
    """Host ms for ``cycles`` ticks of eight toy processes (~20 ms)."""
    procs = [_Process() for _ in range(8)]
    t0 = perf_counter_ns()
    for cycle in range(cycles):
        for proc in procs:
            proc.tick(cycle)
    return (perf_counter_ns() - t0) / 1e6


def normalize(seconds: float, ref_ms: float) -> float:
    """A duration measured while the reference took ``ref_ms``, scaled
    to the nominal host speed."""
    return seconds * NOMINAL_MS / ref_ms
