"""Schedule tracing: regenerate the Fig 3 work-item timeline.

Fig 3 shows how decoupled work-items start together at t0, then shift
in phase as their transfers serialize on the single memory channel —
"efficiently overlapping computation and transfers".  This module
records a per-cycle activity lane for every process in a region run and
renders the same C/T timeline as ASCII art.

Lane symbols
------------
``C``  compute progress (an active cycle of a kernel-side process)
``T``  the process owns the memory channel (its burst is draining)
``w``  stalled waiting (backpressure, empty stream, or channel queue)
``.``  finished
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.dataflow import DataflowRegion, RegionReport
from repro.obs import get_tracer
from repro.obs.stall import StallAttribution

__all__ = ["ScheduleTrace", "trace_region"]


@dataclass
class ScheduleTrace:
    """Per-cycle, per-process activity lanes of one region run."""

    lanes: dict[str, list[str]] = field(default_factory=dict)
    report: RegionReport | None = None

    @property
    def cycles(self) -> int:
        return max((len(v) for v in self.lanes.values()), default=0)

    def lane(self, name: str) -> str:
        return "".join(self.lanes[name])

    def overlap_fraction(self) -> float:
        """Fraction of cycles where compute and a transfer coexist —
        the quantity Fig 3 is about (≈ 0 means serialized phases)."""
        if not self.lanes:
            return 0.0
        n = self.cycles
        both = 0
        for t in range(n):
            symbols = {
                lane[t] if t < len(lane) else "."
                for lane in self.lanes.values()
            }
            if "C" in symbols and "T" in symbols:
                both += 1
        return both / n if n else 0.0

    def phase_shift(self) -> dict[str, int]:
        """Cycle of each lane's first channel grant — Fig 3's t_X shift."""
        shifts = {}
        for name, lane in self.lanes.items():
            try:
                shifts[name] = lane.index("T")
            except ValueError:
                continue
        return shifts

    def render(self, max_width: int = 100, start: int = 0) -> str:
        """ASCII rendering of the (windowed) timeline."""
        lines = [f"cycle {start} .. {min(self.cycles, start + max_width)}"]
        width = max(len(n) for n in self.lanes) if self.lanes else 0
        for name, lane in self.lanes.items():
            window = "".join(lane[start : start + max_width])
            lines.append(f"{name.ljust(width)} |{window}|")
        return "\n".join(lines)


def trace_region(
    region: DataflowRegion, max_cycles: int = 1_000_000, tracer=None
) -> ScheduleTrace:
    """Run a region cycle by cycle, recording every process's activity.

    Equivalent to ``region.run()`` but returns the schedule trace along
    with the report.  The channel owner each cycle is marked ``T`` on
    the lane of the process that submitted the draining burst.

    Implemented on the instrumented region loop: a
    :class:`~repro.obs.StallAttribution` with lane capture classifies
    every cycle, so the run also yields the full stall report
    (``trace.report.stall_report``) and — when a tracer is active —
    the Chrome trace-event timeline.

    The run takes the fast path, which records a parked process's
    sleep as one interval; the lanes still cover every cycle, identical
    to the reference loop's.
    """
    if tracer is None:
        tracer = get_tracer()
    attribution = StallAttribution(region.name, tracer=tracer, keep_lanes=True)
    report = region.run(max_cycles=max_cycles, attribution=attribution)
    return ScheduleTrace(lanes=attribution.lanes, report=report)
