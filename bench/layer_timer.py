"""Calibrated self times from wrapping methods outside the program.

The benchmark times a layer by replacing a public method on an object
it built with a wrapper that reads ``perf_counter_ns`` around the call.
A wrapper costs time of its own, in two places:

* *inside* the measured window (the second clock read, the call into
  the wrapped function) — it inflates the callee's measured duration;
* *outside* it (argument passing, bookkeeping after the second read) —
  the caller pays it.

:func:`calibrate` measures both on an empty method, and
:class:`LayerTimer` subtracts them, so a layer's self time is its
measured duration minus its wrapped children's full cost minus the
inside bias.  Summed over all layers, self times plus the calibrated
wrapper cost account for the traced wall time; the simulator workloads
check that they do.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from time import perf_counter_ns

__all__ = ["Overhead", "LayerTimer", "calibrate"]


@dataclass(frozen=True)
class Overhead:
    """Per-call wrapper cost in ns, split at the measured window."""

    inside_ns: float = 0.0
    outside_ns: float = 0.0

    @property
    def total_ns(self) -> float:
        return self.inside_ns + self.outside_ns


class LayerTimer:
    """Accumulates count, total and self ns per layer name.

    Single-threaded: the simulator calls every wrapped method from one
    thread, so a plain list is the nesting stack.
    """

    def __init__(self, overhead: Overhead = Overhead()):
        self.overhead = overhead
        #: name -> [calls, total ns, self ns]
        self.stats: dict[str, list] = {}
        self._stack: list[float] = []

    def wrap(self, name: str, fn):
        """``fn`` timed under ``name``; nested wrapped calls are children."""
        stats = self.stats.setdefault(name, [0, 0, 0.0])
        stack = self._stack
        inside = self.overhead.inside_ns
        outside = self.overhead.outside_ns

        def timed(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter_ns() - t0
                children = stack.pop()
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - children - inside
                if stack:
                    stack[-1] += dur + outside

        return timed

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0,))[0]

    def self_ns(self, name: str) -> float:
        return self.stats.get(name, (0, 0, 0.0))[2]

    def total_ns(self, name: str) -> float:
        return self.stats.get(name, (0, 0))[1]

    def attributed_ns(self) -> float:
        """Self time of every layer plus the wrappers' own cost."""
        return sum(
            self_ns + calls * self.overhead.total_ns
            for calls, _total, self_ns in self.stats.values()
        )


class _Empty:
    def call(self, cycle=0):
        return None


def _per_call(fn, n: int) -> float:
    t0 = perf_counter_ns()
    for _ in range(n):
        fn(0)
    return (perf_counter_ns() - t0) / n


def calibrate(n: int = 20_000, rounds: int = 7) -> Overhead:
    """Median wrapper cost over ``rounds`` loops of ``n`` empty calls."""
    bare = _Empty().call
    inside, outside = [], []
    for _ in range(rounds):
        timer = LayerTimer()
        wrapped = timer.wrap("empty", bare)
        c_bare = _per_call(bare, n)
        c_wrapped = _per_call(wrapped, n)
        measured = timer.total_ns("empty") / n
        # c_bare is loop + call, c_wrapped is loop + call + both wrapper
        # parts, and the measured window holds the call plus the inside part
        inside.append(max(0.0, measured - (c_bare - _loop_ns(n))))
        outside.append(max(0.0, c_wrapped - c_bare - inside[-1]))
    return Overhead(statistics.median(inside), statistics.median(outside))


def _loop_ns(n: int) -> float:
    t0 = perf_counter_ns()
    for _ in range(n):
        pass
    return (perf_counter_ns() - t0) / n
