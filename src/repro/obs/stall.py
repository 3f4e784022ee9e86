"""Stall attribution: classify every simulated cycle of a region or pipeline run.

The paper's performance argument is about *where cycles go*: decoupled
work-items keep their pipelines busy, and the Fig 3 schedule hides the
memory-channel transfers behind other work-items' compute.  This module
turns that claim into data — every cycle of every process in a
:class:`~repro.core.dataflow.DataflowRegion` or
:class:`~repro.core.pipes.MultiRegionRunner` run is attributed to one
class:

========================  ====================================================
state                     meaning
========================  ====================================================
``compute``               the process issued real work this cycle
``transfer``              the process's burst is draining on the channel
``fifo_full``             write stall: the output ``hls::stream`` was full
``fifo_empty``            read stall: the input ``hls::stream`` was empty
``memory_channel``        waiting for the shared channel grant (contention)
``pipeline``              an initiation-interval bubble (ablation configs)
========================  ====================================================

The headline number is the **compute/transfer overlap**: the fraction
of cycles where at least one process computes *while* the memory
channel is draining a burst.  A decoupled region shows substantial
overlap (Fig 3's interleaving); a serialized design shows ~0.

:class:`StallAttribution` is driven by the shared cycle loop
(:func:`~repro.core.dataflow.run_cycles`) with the states that may
have changed each cycle.  It keeps one open window per process and
channel, credits each window as one interval when it closes, emits it
as a Chrome ``cat="cycle"`` span through the injected
:class:`~repro.obs.tracer.Tracer`, and produces a :class:`StallReport`.
:func:`reports_from_trace` reconstructs the same report from an
exported trace file (the ``trace-report`` CLI path).
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.obs.tracer import NullTracer, Tracer

__all__ = [
    "COMPUTE",
    "TRANSFER",
    "FIFO_FULL",
    "FIFO_EMPTY",
    "MEMORY",
    "PIPELINE",
    "DONE",
    "STATES",
    "StallAttribution",
    "StallReport",
    "report_from_trace",
    "reports_from_trace",
]

COMPUTE = "compute"
TRANSFER = "transfer"
FIFO_FULL = "fifo_full"
FIFO_EMPTY = "fifo_empty"
MEMORY = "memory_channel"
PIPELINE = "pipeline"
DONE = "done"

#: Attribution classes in report-column order (``done`` is not a class:
#: finished processes stop accumulating cycles).
STATES = (COMPUTE, TRANSFER, FIFO_FULL, FIFO_EMPTY, MEMORY, PIPELINE)

#: Fig 3 lane symbol per state (ScheduleTrace compatibility).
_SYMBOLS = {COMPUTE: "C", TRANSFER: "T", DONE: "."}

#: One simulated cycle occupies one microsecond on the trace timeline.
CYCLE_US = 1.0


@dataclass
class StallReport:
    """Per-process cycle attribution plus the overlap headline."""

    region: str
    cycles: int
    per_process: dict[str, dict[str, int]] = field(default_factory=dict)
    channel_busy_cycles: list[int] = field(default_factory=list)
    compute_cycles: int = 0  # cycles with >= 1 process computing
    overlap_cycles: int = 0  # compute and a draining burst coexist

    # -- derived -----------------------------------------------------------------

    def overlap_fraction(self) -> float:
        """Fraction of cycles with compute/transfer overlap (Fig 3)."""
        return self.overlap_cycles / self.cycles if self.cycles else 0.0

    def process_utilization(self, name: str) -> float:
        counts = self.per_process[name]
        live = sum(counts.values())
        busy = counts.get(COMPUTE, 0) + counts.get(TRANSFER, 0)
        return busy / live if live else 0.0

    def consistent_with(self, process_stats) -> list[str]:
        """Cross-check attribution counts against ``ProcessStats`` buckets.

        For every process present in both this report and
        ``process_stats`` (a ``RegionReport.process_stats`` mapping),
        verifies the invariants tying the per-cycle taxonomy to the
        per-process counters:

        * attributed cycles sum to ``stats.cycles`` (live cycles);
        * ``pipeline`` attribution equals ``stats.pipeline_cycles``
          (initiation-interval bubbles are one bucket in both views);
        * ``compute <= active_cycles <= compute + transfer`` — an
          active cycle classifies as compute unless the process's own
          burst was draining that cycle (transfer wins the tie).

        Returns a list of human-readable discrepancies (empty = clean).
        """
        problems: list[str] = []
        for name, counts in self.per_process.items():
            stats = process_stats.get(name)
            if stats is None or not hasattr(stats, "pipeline_cycles"):
                continue  # channels and foreign entries have no buckets
            live = sum(counts.values())
            if live != stats.cycles:
                problems.append(
                    f"{name}: attributed {live} cycles but stats.cycles="
                    f"{stats.cycles}"
                )
            pipeline = counts.get(PIPELINE, 0)
            if pipeline != stats.pipeline_cycles:
                problems.append(
                    f"{name}: pipeline attribution {pipeline} != "
                    f"stats.pipeline_cycles {stats.pipeline_cycles}"
                )
            compute = counts.get(COMPUTE, 0)
            transfer = counts.get(TRANSFER, 0)
            if not compute <= stats.active_cycles <= compute + transfer:
                problems.append(
                    f"{name}: active_cycles {stats.active_cycles} outside "
                    f"[compute={compute}, compute+transfer={compute + transfer}]"
                )
        return problems

    def to_dict(self) -> dict:
        return {
            "region": self.region,
            "cycles": self.cycles,
            "per_process": {
                name: dict(counts) for name, counts in self.per_process.items()
            },
            "channel_busy_cycles": list(self.channel_busy_cycles),
            "compute_cycles": self.compute_cycles,
            "overlap_cycles": self.overlap_cycles,
            "overlap_fraction": self.overlap_fraction(),
        }

    def render(self) -> str:
        """The stall-attribution table the ``trace-report`` CLI prints."""
        header = ["process", *STATES, "live", "util%"]
        rows: list[list[str]] = []
        for name in sorted(self.per_process):
            counts = self.per_process[name]
            live = sum(counts.values())
            rows.append(
                [
                    name,
                    *(str(counts.get(s, 0)) for s in STATES),
                    str(live),
                    f"{100.0 * self.process_utilization(name):.1f}",
                ]
            )
        widths = [
            max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
            for i in range(len(header))
        ]
        lines = [f"stall attribution: {self.region} ({self.cycles} cycles)"]
        lines.append(
            "  ".join(h.ljust(widths[i]) for i, h in enumerate(header))
        )
        for r in rows:
            lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(r)))
        for i, busy in enumerate(self.channel_busy_cycles):
            frac = busy / self.cycles if self.cycles else 0.0
            lines.append(f"memory channel {i}: busy {busy} cycles ({frac:.1%})")
        lines.append(
            f"compute/transfer overlap: {self.overlap_cycles} cycles "
            f"({self.overlap_fraction():.1%}) — Fig 3 interleaving"
        )
        return "\n".join(lines)


class StallAttribution:
    """Interval recorder of stall classes, driven by the shared cycle loop.

    Parameters
    ----------
    region:
        Region or pipeline name (trace process row, report title).
    tracer:
        Sink for the compressed cycle-window spans (``NullTracer`` keeps
        the attribution purely in-memory).
    keep_lanes:
        Also build the per-cycle Fig 3 symbol lanes (C/T/w/.) that
        :class:`~repro.core.schedule.ScheduleTrace` renders.
    """

    def __init__(
        self,
        region: str,
        tracer: Tracer | None = None,
        keep_lanes: bool = False,
    ):
        self.region = region
        self.tracer = tracer if tracer is not None else NullTracer()
        self.keep_lanes = keep_lanes
        self.lanes: dict[str, list[str]] = {}
        self._counts: dict[str, dict[str, int]] = {}
        self._windows: dict[str, tuple[str, int]] = {}  # name -> (state, start)
        self._tracks: dict[str, object] = {}
        self._channel_busy: list[int] = []
        self._channel_windows: dict[int, int | None] = {}  # idx -> busy start
        self._computing = 0  # open process windows in ``compute``
        self._busy = 0  # open channel busy windows
        self._mark = 0  # the headline is credited up to this cycle
        self._compute_cycles = 0
        self._overlap_cycles = 0
        self._cycles = 0
        self._closed = False

    # -- interval driving --------------------------------------------------------

    def _track(self, name: str):
        track = self._tracks.get(name)
        if track is None:
            track = self.tracer.track(self.region, name)
            self._tracks[name] = track
        return track

    def _advance(self, cycle: int) -> None:
        """Credit the compute/overlap headline over ``[_mark, cycle)``."""
        if self._computing:
            span = cycle - self._mark
            self._compute_cycles += span
            if self._busy:
                self._overlap_cycles += span
        self._mark = cycle

    def _flush_window(self, name: str, end_cycle: int) -> None:
        state, start = self._windows.pop(name)
        span = end_cycle - start
        if self.keep_lanes:
            self.lanes[name].extend(_SYMBOLS.get(state, "w") * span)
        if state == DONE:
            return
        if state == COMPUTE:
            self._computing -= 1
        counts = self._counts[name]
        counts[state] = counts.get(state, 0) + span
        if self.tracer.enabled:
            self.tracer.complete(
                self._track(name),
                state,
                ts_us=start * CYCLE_US,
                dur_us=span * CYCLE_US,
                cat="cycle",
            )

    def record_cycle(
        self,
        cycle: int,
        states: dict[str, str],
        channels_busy: Sequence[bool],
    ) -> None:
        """Record the state of each given process and channel at ``cycle``.

        A process (or channel) whose state differs from its open window
        closes that window at ``cycle`` and opens a new one; the same
        state, or a process or channel left out, keeps the window open.
        So a caller passes only what may have changed at ``cycle``.
        Counts, lanes and channel busy cycles are credited when a window
        closes, for its whole length.  Calls come in nondecreasing
        ``cycle`` order; windows close in call order, which fixes the
        order of the trace spans.
        """
        self._advance(cycle)
        windows = self._windows
        for name, state in states.items():
            window = windows.get(name)
            if window is None:
                self._counts[name] = {}
                if self.keep_lanes:
                    self.lanes[name] = []
            elif window[0] == state:
                continue
            else:
                self._flush_window(name, cycle)
            windows[name] = (state, cycle)
            if state == COMPUTE:
                self._computing += 1
        for i, busy in enumerate(channels_busy):
            if i == len(self._channel_busy):
                self._channel_busy.append(0)
                self._channel_windows[i] = None
            if busy:
                if self._channel_windows[i] is None:
                    self._channel_windows[i] = cycle
                    self._busy += 1
            elif self._channel_windows[i] is not None:
                self._flush_channel(i, cycle)
        self._cycles = cycle + 1

    def _flush_channel(self, i: int, end_cycle: int) -> None:
        start = self._channel_windows[i]
        if start is None:
            return
        self._channel_windows[i] = None
        self._busy -= 1
        self._channel_busy[i] += end_cycle - start
        if self.tracer.enabled:
            self.tracer.complete(
                self.tracer.track(self.region, f"memory_channel[{i}]"),
                "burst",
                ts_us=start * CYCLE_US,
                dur_us=(end_cycle - start) * CYCLE_US,
                cat="cycle",
            )

    # -- finalization ------------------------------------------------------------

    def close(self, total_cycles: int | None = None) -> None:
        """Close every open window at ``total_cycles`` (idempotent).

        ``total_cycles`` becomes the report's ``cycles``; without it,
        windows close one cycle after the last recorded one.
        """
        if self._closed:
            return
        self._closed = True
        if total_cycles is not None:
            self._cycles = total_cycles
        end = self._cycles
        self._advance(end)
        for name in list(self._windows):
            self._flush_window(name, end)
        for i in list(self._channel_windows):
            self._flush_channel(i, end)

    def report(self) -> StallReport:
        self.close()
        return StallReport(
            region=self.region,
            cycles=self._cycles,
            per_process={n: dict(c) for n, c in self._counts.items()},
            channel_busy_cycles=list(self._channel_busy),
            compute_cycles=self._compute_cycles,
            overlap_cycles=self._overlap_cycles,
        )


# ---------------------------------------------------------------------------
# reconstruction from an exported trace (the `trace-report` CLI path)
# ---------------------------------------------------------------------------


def _union(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    if not intervals:
        return []
    merged: list[tuple[float, float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def _intersection_cycles(
    a: list[tuple[float, float]], b: list[tuple[float, float]]
) -> float:
    total = 0.0
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if hi > lo:
            total += hi - lo
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return total


def reports_from_trace(source: str | dict) -> list[StallReport]:
    """Rebuild stall reports from an exported Chrome trace.

    ``source`` is a path or an already-parsed trace dict.  One report is
    produced per trace process (pid) that carries ``cat="cycle"``
    events; traces without cycle events (pure engine traces) yield an
    empty list.
    """
    if isinstance(source, str):
        with open(source, encoding="utf-8") as fh:
            data = json.load(fh)
    else:
        data = source
    events = data.get("traceEvents", data if isinstance(data, list) else [])
    process_names: dict[int, str] = {}
    thread_names: dict[tuple[int, int], str] = {}
    for e in events:
        if e.get("ph") == "M" and e.get("name") == "process_name":
            process_names[e["pid"]] = e["args"]["name"]
        elif e.get("ph") == "M" and e.get("name") == "thread_name":
            thread_names[(e["pid"], e["tid"])] = e["args"]["name"]

    by_pid: dict[int, list[dict]] = {}
    for e in events:
        if e.get("ph") == "X" and e.get("cat") == "cycle":
            by_pid.setdefault(e["pid"], []).append(e)

    reports = []
    for pid, cycle_events in sorted(by_pid.items()):
        per_process: dict[str, dict[str, int]] = {}
        compute_intervals: list[tuple[float, float]] = []
        channel_intervals: list[tuple[float, float]] = []
        channel_busy: dict[int, int] = {}
        end_cycle = 0.0
        for e in cycle_events:
            thread = thread_names.get(
                (pid, e["tid"]), f"tid{e['tid']}"
            )
            start = e["ts"] / CYCLE_US
            dur = e["dur"] / CYCLE_US
            end_cycle = max(end_cycle, start + dur)
            if thread.startswith("memory_channel"):
                idx = len("memory_channel[")
                try:
                    channel_idx = int(thread[idx:].rstrip("]"))
                except ValueError:
                    channel_idx = 0
                channel_busy[channel_idx] = (
                    channel_busy.get(channel_idx, 0) + round(dur)
                )
                channel_intervals.append((start, start + dur))
                continue
            counts = per_process.setdefault(thread, {})
            counts[e["name"]] = counts.get(e["name"], 0) + round(dur)
            if e["name"] == COMPUTE:
                compute_intervals.append((start, start + dur))
        compute_union = _union(compute_intervals)
        overlap = _intersection_cycles(compute_union, _union(channel_intervals))
        reports.append(
            StallReport(
                region=process_names.get(pid, f"pid{pid}"),
                cycles=round(end_cycle),
                per_process=per_process,
                channel_busy_cycles=[
                    busy for _i, busy in sorted(channel_busy.items())
                ],
                compute_cycles=round(
                    sum(hi - lo for lo, hi in compute_union)
                ),
                overlap_cycles=round(overlap),
            )
        )
    return reports


def report_from_trace(source: str | dict) -> StallReport:
    """The first (usually only) stall report in a trace; raises if none."""
    reports = reports_from_trace(source)
    if not reports:
        raise ValueError(
            "trace contains no cycle-attribution events (cat='cycle'); "
            "was the run traced through DataflowRegion.run(tracer=...) "
            "or MultiRegionRunner.run under use_tracer(...)?"
        )
    return reports[0]
