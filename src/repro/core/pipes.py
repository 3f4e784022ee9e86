"""Inter-region pipes: compose DATAFLOW regions into one pipeline.

The paper stops at a single kernel region; MKPipe (PAPERS.md) and the
polyhedral-process-network line of work compose *multiple* kernels via
pipes with cross-kernel overlap.  This module generalizes
:class:`~repro.core.dataflow.DataflowRegion` the same way:

* a :class:`Pipe` is a :class:`~repro.core.stream.Stream` whose
  producer and consumer live in *different* regions — same bounded-FIFO
  blocking semantics, its own depth and stall accounting, but its
  endpoints are whole kernel regions rather than processes of one
  region (the OpenCL ``pipe`` / Intel FPGA channel construct);
* a :class:`PipelineGraph` wires regions together, enforcing the same
  single-producer/single-consumer rule *across* regions that the
  DATAFLOW pragma enforces within one, and topologically sorts the
  region DAG;
* a :class:`MultiRegionRunner` co-schedules every region on one shared
  cycle loop — producer regions and consumer regions overlap exactly
  like the processes inside one region do — with the fast path
  composed across regions: a process parked on a pipe wakes when the
  other region's process writes, reads or closes it, and the loop
  jumps only when *every* live process in *every* region is parked.
  The loop is the one
  :meth:`~repro.core.dataflow.DataflowRegion.run` uses, so an enabled
  tracer gives pipelines the same per-cycle stall attribution.

Memory channels are first-class at the pipeline level: each region
attaches the channel(s) its engines use (per-region channel affinity),
and a channel shared by two regions is one port with cross-region FIFO
arbitration.  The reference loop ticks it exactly once per cycle; the
fast loop never ticks it, and advances it once past each of its grants
and completions, whichever region's engine owns the burst.  A
work-item whose streams are pipes is fused like one inside a region
(:mod:`repro.core.chain`): a pricing work-item spans all three regions
of :mod:`repro.core.pricing`, and each of its engines submits at its
own region's position in the cycle.  The combined
:class:`PipelineReport` rolls per-region reports, pipe stats and
graph-indexed channel stats into one record.

``MultiRegionRunner.run_sequential`` runs the same graph one region at
a time (each region to completion before its consumer starts) — the
no-overlap baseline the overlap benchmark compares against.  It needs
pipes deep enough to hold every in-flight token; an undersized pipe
deadlocks the producer region, which is the honest failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.dataflow import (
    DataflowError,
    DataflowRegion,
    RegionReport,
    _resolve_attribution,
    _stream_snapshot,
    run_cycles,
    topological_order,
)
from repro.core.process import Process
from repro.core.stream import Stream
from repro.obs.stall import StallReport

__all__ = [
    "MultiRegionRunner",
    "Pipe",
    "PipeError",
    "PipelineGraph",
    "PipelineReport",
]


class PipeError(DataflowError):
    """Invalid pipeline wiring (pipe/stream used across the wrong scope)."""


class Pipe(Stream):
    """A stream whose producer and consumer live in different regions.

    Behaviorally identical to :class:`~repro.core.stream.Stream` (bounded
    FIFO, blocking poll semantics, stall accounting); the distinct type
    is how :class:`PipelineGraph` tells deliberate cross-region links
    from accidental ones — a plain ``Stream`` crossing regions is
    rejected, as is a ``Pipe`` with both ends in one region.
    """


@dataclass
class PipelineReport:
    """Combined result of a multi-region pipeline run."""

    #: total cycles of the run (pipelined: shared clock; sequential:
    #: sum of the per-region runs)
    cycles: int
    #: ``"pipelined"`` or ``"sequential"``
    mode: str
    #: per-region :class:`~repro.core.dataflow.RegionReport`, keyed by
    #: region name (each region's ``cycles`` is the cycle it finished)
    region_reports: dict[str, RegionReport] = field(default_factory=dict)
    #: cycle at which each region's last process finished
    region_done_cycles: dict[str, int] = field(default_factory=dict)
    #: stat snapshot per inter-region pipe (same shape as stream_stats)
    pipe_stats: dict[str, dict] = field(default_factory=dict)
    #: every process across every region plus graph-indexed channel
    #: stats (``__memory_channel_0__``, …) — channels shared between
    #: regions appear exactly once
    process_stats: dict[str, object] = field(default_factory=dict)
    #: per-cycle stall attribution across every region; only populated
    #: on pipelined runs under an enabled global tracer
    stall_report: StallReport | None = None

    @property
    def stream_stats(self) -> dict[str, dict]:
        """Every stream and pipe of the pipeline, merged across regions.

        The same shape :class:`RegionReport` exposes, so depth advisors
        built for single regions (``advise_stream_depth``) consume a
        pipeline report unchanged.
        """
        merged: dict[str, dict] = {}
        for report in self.region_reports.values():
            merged.update(report.stream_stats)
        merged.update(self.pipe_stats)
        return merged

    def runtime_seconds(self, frequency_hz: float) -> float:
        if frequency_hz <= 0:
            raise ValueError("frequency must be positive")
        return self.cycles / frequency_hz

    def runtime_ms(self, frequency_hz: float) -> float:
        return 1e3 * self.runtime_seconds(frequency_hz)


class PipelineGraph:
    """Regions wired by pipes, validated into a region DAG.

    The single producer-consumer rule extends across regions: every
    pipe has exactly one producing process (in one region) and one
    consuming process (in another).  Region-to-region edges derived
    from the pipes must form a feed-forward DAG, mirroring the
    DATAFLOW constraint one level up.
    """

    def __init__(self, name: str = "pipeline"):
        self.name = name
        self._regions: list[DataflowRegion] = []

    @property
    def regions(self) -> tuple[DataflowRegion, ...]:
        return tuple(self._regions)

    def add_region(self, region: DataflowRegion) -> DataflowRegion:
        """Register a region; returns it for chaining."""
        if any(r is region for r in self._regions):
            raise PipeError(f"region {region.name!r} added twice")
        if any(r.name == region.name for r in self._regions):
            raise PipeError(f"duplicate region name {region.name!r}")
        self._regions.append(region)
        return region

    # -- validation ----------------------------------------------------------------

    def _validate(self):
        """Validate wiring; returns (ordered regions, ordered processes,
        channels, pipes).

        Not cached: regions stay mutable after being added (a process
        added later must still tick), so every call re-validates.
        """
        if not self._regions:
            raise PipeError("pipeline has no regions")
        names: set[str] = set()
        region_order: dict[int, list[Process]] = {}
        for i, region in enumerate(self._regions):
            if not region.processes:
                raise PipeError(f"region {region.name!r} has no processes")
            region_order[i] = region._validate()
            for proc in region.processes:
                if proc.name in names:
                    raise PipeError(
                        f"duplicate process name {proc.name!r} across "
                        "regions"
                    )
                names.add(proc.name)
        producers: dict[Stream, int] = {}
        consumers: dict[Stream, int] = {}
        for i, region in enumerate(self._regions):
            for proc in region.processes:
                for s in proc.outputs():
                    if s in producers:
                        raise PipeError(
                            f"stream {s.name!r} produced in two regions"
                        )
                    producers[s] = i
                for s in proc.inputs():
                    if s in consumers:
                        raise PipeError(
                            f"stream {s.name!r} consumed in two regions"
                        )
                    consumers[s] = i
        edges: list[tuple[int, int]] = []
        pipes: list[Pipe] = []
        for s, producer in producers.items():
            consumer = consumers.get(s)
            if consumer is None:
                if isinstance(s, Pipe):
                    raise PipeError(
                        f"pipe {s.name!r} has a producer (region "
                        f"{self._regions[producer].name!r}) but no "
                        "consumer region"
                    )
                continue
            if producer == consumer:
                if isinstance(s, Pipe):
                    raise PipeError(
                        f"pipe {s.name!r} has both ends inside region "
                        f"{self._regions[producer].name!r}; use a plain "
                        "Stream for intra-region links"
                    )
                continue
            if not isinstance(s, Pipe):
                raise PipeError(
                    f"stream {s.name!r} crosses regions "
                    f"{self._regions[producer].name!r} -> "
                    f"{self._regions[consumer].name!r}; inter-region "
                    "links must be Pipes"
                )
            pipes.append(s)
            edges.append((producer, consumer))
        for s, consumer in consumers.items():
            if isinstance(s, Pipe) and s not in producers:
                raise PipeError(
                    f"pipe {s.name!r} has a consumer (region "
                    f"{self._regions[consumer].name!r}) but no producer "
                    "region"
                )
        order = topological_order(len(self._regions), edges)
        if order is None:
            raise PipeError(
                f"pipeline {self.name!r} contains a region cycle; "
                "pipelines require a feed-forward region DAG"
            )
        ordered_regions = [self._regions[i] for i in order]
        ordered_processes = [
            p for i in order for p in region_order[i]
        ]
        # channels in region topo order, deduped by identity: a channel
        # two regions share (same port, cross-region arbitration) must
        # advance exactly once per cycle
        channels: list = []
        seen_channels: set[int] = set()
        for region in ordered_regions:
            for channel in region.memory_channels:
                if id(channel) not in seen_channels:
                    seen_channels.add(id(channel))
                    channels.append(channel)
        return (
            ordered_regions,
            ordered_processes,
            tuple(channels),
            tuple(pipes),
        )

    @property
    def pipes(self) -> tuple[Pipe, ...]:
        return self._validate()[3]

    @property
    def memory_channels(self) -> tuple:
        """All channels across regions, deduped, in region topo order."""
        return self._validate()[2]


class MultiRegionRunner:
    """Co-schedule a :class:`PipelineGraph` on one shared cycle loop.

    The loop is :func:`~repro.core.dataflow.run_cycles`, the same one
    :meth:`DataflowRegion.run` uses, lifted to the pipeline: every live
    process across every region ticks once per cycle in
    region-topological then intra-region-topological order (so a token
    written into a pipe at cycle *t* is visible to the consumer region
    at cycle *t*), all channels advance after the processes, deadlock is
    detected across the whole graph, and the fast path parks stalled
    processes in *all* regions alike.
    """

    def __init__(self, graph: PipelineGraph):
        self.graph = graph
        #: cycles the last run jumped over instead of ticking
        self.skipped_cycles = 0

    # -- execution -----------------------------------------------------------------

    def run(
        self,
        max_cycles: int = 100_000_000,
        *,
        fast_path: bool | None = None,
    ) -> PipelineReport:
        """Run all regions concurrently until every process finishes.

        Same contract as :meth:`DataflowRegion.run`: raises
        :class:`DeadlockError` when a full cycle passes with zero
        progress anywhere in the pipeline, ``RuntimeError`` when
        ``max_cycles`` elapse, and ``fast_path=False`` forces the
        reference one-cycle-at-a-time loop (the differential suite
        asserts field-for-field identical :class:`PipelineReport`\\ s).
        An enabled global tracer (:func:`repro.obs.use_tracer`)
        instruments the run and fills ``PipelineReport.stall_report``.
        """
        validated = self.graph._validate()
        regions, ordered, channels, _pipes = validated
        attribution = _resolve_attribution(self.graph.name)
        cycles, done_at = run_cycles(
            self,
            f"pipeline {self.graph.name!r}",
            self.graph.regions,
            ordered,
            channels,
            max_cycles,
            fast=True if fast_path is None else fast_path,
            attribution=attribution,
        )
        region_done = {
            r.name: max(done_at[p.name] for p in r.processes) for r in regions
        }
        report = self._report(validated, cycles, region_done, "pipelined")
        if attribution is not None:
            report.stall_report = attribution.report()
        return report

    def run_sequential(
        self,
        max_cycles: int = 100_000_000,
        *,
        fast_path: bool | None = None,
    ) -> PipelineReport:
        """Run each region to completion in topo order (no overlap).

        The makespan baseline: stage N+1 starts only after stage N has
        produced *everything*, so every pipe must be deep enough to
        hold its stage's full output — an undersized pipe deadlocks the
        producer region, surfacing the sizing error instead of silently
        overlapping.
        """
        validated = self.graph._validate()
        self.skipped_cycles = 0
        total = 0
        region_done: dict[str, int] = {}
        for region in validated[0]:
            report = region.run(max_cycles=max_cycles, fast_path=fast_path)
            total += report.cycles
            region_done[region.name] = total
            self.skipped_cycles += region.skipped_cycles
        return self._report(validated, total, region_done, "sequential")

    # -- internals ------------------------------------------------------------------

    @staticmethod
    def _report(
        validated, cycles: int, region_done: dict[str, int], mode: str
    ) -> PipelineReport:
        regions, _ordered, channels, pipes = validated
        stats = {p.name: p.stats for r in regions for p in r.processes}
        for i, channel in enumerate(channels):
            stats[f"__memory_channel_{i}__"] = channel.stats
        return PipelineReport(
            cycles=cycles,
            mode=mode,
            region_reports={
                r.name: r._report(region_done[r.name]) for r in regions
            },
            region_done_cycles=region_done,
            pipe_stats={pipe.name: _stream_snapshot(pipe) for pipe in pipes},
            process_stats=stats,
        )
