"""DATAFLOW region: cycle-level co-simulation of concurrent processes.

Section III-A: "The DATAFLOW pragma [11], [12] schedules the work-items
in parallel, under the constraint that each variable has a single
producer-consumer pair."  This module models that region:

* every :class:`~repro.core.stream.Stream` must have exactly one
  producing and one consuming process (validated at construction, the
  same check Vivado HLS performs),
* all processes advance in lock-step, one clock cycle per step, in
  topological (producer-before-consumer) order so that a token written
  in cycle *t* can be consumed in cycle *t* by a downstream process —
  matching the concurrent start semantics of the pragma ("all
  work-items are triggered at t0", Fig 3),
* a shared :class:`~repro.core.memory.MemoryChannel` (if attached)
  advances once per cycle after the processes,
* deadlock (no process progresses, none done) raises with a full state
  dump instead of hanging.

The lock-step loop itself is :func:`run_cycles`, shared with
:class:`~repro.core.pipes.MultiRegionRunner`: a region is the
one-region case of a pipeline.  Its **fast path** is a wake calendar.
It parks each process after a tick in which it stalled, when the
process's :meth:`~repro.core.process.Process.next_event` hint, read
between cycles, is not ``None``.  A parked process leaves the awake
list until the cycle its hint names (a timer heap) or, for
``NO_SELF_EVENT``, until the next ``write``, ``read`` or ``close`` on
one of its streams; a loop cycle visits only awake processes, and on
waking ``skip_cycles`` credits the slept cycles.  Each work-item (a
source, its stream, a pricing tee if any and its Transfer engines) is
fused into a tree that steps from one burst submission to the next in
closed form, with one calendar entry per engine
(:mod:`repro.core.chain`), so its processes are not ticked at all.  The
channels are not ticked either: each keeps its own clock and is
advanced with ``skip_cycles`` only past its grants and completions.
When every live process is parked the loop jumps straight to the
earliest timer or channel event.  Traced runs (tracer
or explicit attribution) take the same calendar: a parked process's
stall class holds for its whole sleep, so it is recorded as one
interval, and a fused tree's class changes are recorded at their own
cycles.  Reports and traces are identical to the reference loop's
(``docs/simulator_fastpath.md``).
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from heapq import heappop, heappush
from operator import attrgetter

from repro.core.chain import TreeLeaf, fuse_chains
from repro.core.process import NO_SELF_EVENT, Process
from repro.core.stream import Stream
from repro.obs import get_tracer
from repro.obs import stall as _stall
from repro.obs.stall import StallAttribution, StallReport

__all__ = ["DataflowRegion", "DataflowError", "DeadlockError", "RegionReport"]


class DataflowError(ValueError):
    """Invalid region wiring (violates the single producer-consumer rule)."""


def topological_order(n: int, edges) -> list[int] | None:
    """Nodes ``0 .. n-1`` in producer-before-consumer order under the
    directed ``edges`` ``(u, v)``, or None if they form a cycle.

    Kahn's sort, generation by generation: the nodes without an incoming
    edge in index order, then each node in the order its last incoming
    edge is removed, a node's successors in edge order.  A repeated edge
    counts once.  Process and region indices follow this order, so it
    fixes the order of ticks, reports and traces.
    """
    successors: list[dict[int, None]] = [{} for _ in range(n)]
    for u, v in edges:
        successors[u][v] = None
    indegree = [0] * n
    for targets in successors:
        for v in targets:
            indegree[v] += 1
    generation = [v for v in range(n) if not indegree[v]]
    order: list[int] = []
    while generation:
        order += generation
        ready = []
        for u in generation:
            for v in successors[u]:
                indegree[v] -= 1
                if not indegree[v]:
                    ready.append(v)
        generation = ready
    return order if len(order) == n else None


class DeadlockError(RuntimeError):
    """The region stopped making progress before all processes finished."""


@dataclass
class RegionReport:
    """Result of a region run."""

    cycles: int
    process_stats: dict[str, "object"] = field(default_factory=dict)
    stream_stats: dict[str, dict] = field(default_factory=dict)
    #: per-cycle stall attribution; only populated on instrumented runs
    #: (a tracer was active or an attribution was passed to ``run``)
    stall_report: StallReport | None = None

    def runtime_seconds(self, frequency_hz: float) -> float:
        """Convert the cycle count to wall time at a clock frequency."""
        if frequency_hz <= 0:
            raise ValueError("frequency must be positive")
        return self.cycles / frequency_hz

    def runtime_ms(self, frequency_hz: float) -> float:
        return 1e3 * self.runtime_seconds(frequency_hz)


def _stream_snapshot(stream: Stream) -> dict:
    """Stat snapshot of one stream or pipe (a ``stream_stats`` entry)."""
    return {
        "depth": stream.depth,
        "high_water": stream.high_water,
        "total_writes": stream.total_writes,
        "total_reads": stream.total_reads,
        "write_stalls": stream.write_stalls,
        "read_stalls": stream.read_stalls,
    }


class DataflowRegion:
    """A set of processes wired by streams, executed cycle by cycle."""

    def __init__(self, name: str = "dataflow"):
        self.name = name
        self._processes: list[Process] = []
        self._memory_channels: list = []
        #: cycles the last run jumped over instead of ticking
        self.skipped_cycles = 0

    # -- construction ------------------------------------------------------------

    def add(self, process: Process) -> Process:
        """Register a process; returns it for chaining."""
        if any(p.name == process.name for p in self._processes):
            raise DataflowError(f"duplicate process name {process.name!r}")
        self._processes.append(process)
        return process

    def attach_memory_channel(self, channel) -> None:
        """Attach a device-global-memory channel.

        The paper's board exposes one channel; calling this more than
        once models the "further customizations of the memory
        controller" extension the conclusion suggests — multiple ports
        ticked concurrently.
        """
        self._memory_channels.append(channel)

    @property
    def memory_channels(self) -> tuple:
        return tuple(self._memory_channels)

    @property
    def processes(self) -> tuple[Process, ...]:
        return tuple(self._processes)

    def _validate(self) -> list[Process]:
        """Enforce single producer/consumer per stream; topo-sort processes."""
        producers: dict[Stream, Process] = {}
        consumers: dict[Stream, Process] = {}
        for proc in self._processes:
            for s in proc.outputs():
                if s in producers:
                    raise DataflowError(
                        f"stream {s.name!r} has two producers: "
                        f"{producers[s].name!r} and {proc.name!r}"
                    )
                producers[s] = proc
            for s in proc.inputs():
                if s in consumers:
                    raise DataflowError(
                        f"stream {s.name!r} has two consumers: "
                        f"{consumers[s].name!r} and {proc.name!r}"
                    )
                consumers[s] = proc
        index = {p: i for i, p in enumerate(self._processes)}
        order = topological_order(
            len(self._processes),
            [
                (index[producer], index[consumers[s]])
                for s, producer in producers.items()
                if s in consumers
            ],
        )
        if order is None:
            raise DataflowError(
                f"region {self.name!r} contains a stream cycle; DATAFLOW "
                "requires a feed-forward process network"
            )
        return [self._processes[i] for i in order]

    # -- execution ------------------------------------------------------------------

    def run(
        self,
        max_cycles: int = 100_000_000,
        tracer=None,
        attribution: StallAttribution | None = None,
        *,
        fast_path: bool | None = None,
    ) -> RegionReport:
        """Run until every process is done; returns the cycle report.

        Parameters
        ----------
        tracer:
            Explicit :class:`repro.obs.Tracer`; ``None`` resolves the
            global tracer (:func:`repro.obs.get_tracer`).  A disabled
            tracer keeps the run on the uninstrumented path.
        attribution:
            An externally owned :class:`~repro.obs.StallAttribution`
            (``trace_region`` passes one with lane capture); forces the
            instrumented path regardless of the tracer.
        fast_path:
            Enable the cycle-skipping fast path (default: on).
            ``False`` forces the reference one-cycle-at-a-time loop —
            the differential-equivalence suite runs both and asserts
            identical reports.  Instrumented runs park too, with the
            same ticks and skips and an identical trace and report.

        Raises
        ------
        DeadlockError
            If a full cycle passes with zero progress anywhere.
        RuntimeError
            If ``max_cycles`` elapse first (runaway guard).
        """
        if not self._processes:
            raise DataflowError("region has no processes")
        ordered = self._validate()
        if attribution is None:
            attribution = _resolve_attribution(self.name, tracer)
        cycles, _done_at = run_cycles(
            self,
            f"region {self.name!r}",
            (self,),
            ordered,
            self._memory_channels,
            max_cycles,
            fast=True if fast_path is None else fast_path,
            attribution=attribution,
        )
        report = self._report(cycles)
        if attribution is not None:
            report.stall_report = attribution.report()
        return report

    def _report(self, cycles: int) -> RegionReport:
        stats = {p.name: p.stats for p in self._processes}
        for i, channel in enumerate(self._memory_channels):
            stats[f"__memory_channel_{i}__"] = channel.stats
        return RegionReport(
            cycles=cycles,
            process_stats=stats,
            stream_stats={
                s.name: _stream_snapshot(s)
                for p in self._processes
                for s in (*p.inputs(), *p.outputs())
            },
        )


# ---------------------------------------------------------------------------
# the lock-step cycle loop (regions and pipelines)
# ---------------------------------------------------------------------------


def _resolve_attribution(name: str, tracer=None) -> StallAttribution | None:
    """An attribution when ``tracer`` (default: the global one) is on.

    Each traced run gets its own trace process row: when the tracer
    already holds ``name`` (an earlier run of the same region or
    pipeline), the run is named ``name #2``, ``name #3``, ... so
    ``trace-report`` never merges two runs into one table.
    """
    if tracer is None:
        tracer = get_tracer()
    if not tracer.enabled:
        return None
    row, n = name, 1
    while tracer.has_process(row):
        n += 1
        row = f"{name} #{n}"
    return StallAttribution(row, tracer=tracer)


def run_cycles(
    owner,
    label: str,
    regions,
    ordered: list[Process],
    channels,
    max_cycles: int,
    fast: bool,
    attribution: StallAttribution | None = None,
) -> tuple[int, dict[str, int]]:
    """Advance ``ordered`` in lock-step until every process is done.

    The one cycle loop behind :meth:`DataflowRegion.run` and
    :meth:`~repro.core.pipes.MultiRegionRunner.run`.  Each cycle every
    live process ticks in topological order, then every (deduped)
    channel advances one cycle.  A cycle with no progress anywhere
    raises :class:`DeadlockError` naming the stuck processes of
    ``regions``; ``max_cycles`` elapsing raises ``RuntimeError``.
    ``label`` names the run in both messages.  Cycles jumped over by
    the fast path are counted into ``owner.skipped_cycles`` (reset
    here), so the count survives an abort.

    ``fast`` runs :func:`_run_parked`, a wake calendar that ticks only
    awake processes, steps fused work-item trees from one burst
    submission to the next, and advances each channel only past its
    grants and completions.  ``fast=False`` ticks every live process
    and every channel every cycle: the reference the differential
    suites compare against.  Both leave every process and channel
    accounted through the final cycle on every exit.

    With an ``attribution`` both loops also classify each tick into the
    :mod:`repro.obs.stall` taxonomy (:func:`_classify`), with the same
    ticks and skips as without, and close it at their final cycle on
    every exit path: normal, runaway and deadlock alike.

    Returns the final cycle and the cycle at which each process (by
    name) finished — ``0`` for processes already done at the start.
    """
    owner.skipped_cycles = 0
    if fast:
        return _run_parked(
            owner, label, regions, ordered, channels, max_cycles, attribution
        )
    cycle = 0
    done_at = {p.name: 0 for p in ordered if p.done()}
    live = [p for p in ordered if not p.done()]
    try:
        while live:
            if cycle >= max_cycles:
                raise RuntimeError(f"{label} exceeded {max_cycles} cycles")
            if attribution is None:
                progressed = False
                for proc in live:
                    if proc.tick(cycle):
                        progressed = True
                for channel in channels:
                    if channel.tick(cycle):
                        progressed = True
            else:
                progressed = _attributed_cycle(
                    ordered, live, channels, cycle, attribution
                )
            cycle += 1  # a stalled cycle still counts
            if not progressed:
                raise DeadlockError(
                    _deadlock_message(label, regions, channels, cycle - 1)
                )
            still = [p for p in live if not p.done()]  # done() is monotone
            if len(still) != len(live):
                for proc in live:
                    if proc.done():
                        done_at[proc.name] = cycle
                live = still
    finally:
        if attribution is not None:
            attribution.close(cycle)
    return cycle, done_at


#: sort key of the awake list: topological position
_INDEX = attrgetter("index")


class _Calendar:
    """Who ticks on the fast path, and when parked processes wake.

    ``awake`` holds the processes to tick this cycle in topological
    order; ``later`` those a stream woke for the next cycle; ``timers``
    is a heap of ``(wake cycle, topological index, sleeper)`` over the
    timer parks, plus an ``inf`` sentinel that sorts after every real
    entry, so ``timers[0]`` always exists.  ``fused`` counts the live
    fused trees (:mod:`repro.core.chain`), which make progress between
    their wakes.
    """

    __slots__ = ("awake", "later", "timers", "fused")

    def __init__(self):
        self.awake: list = []
        self.later: list = []
        self.timers: list = [(NO_SELF_EVENT, -1, None)]
        self.fused = 0


class _Sleeper:
    """Loop-side state of one live process on the fast path.

    ``index`` is the process's topological position.  Awake: ``since``
    is ``None`` and ``until`` is 0, and the process is on its
    calendar's awake list.  Parked after a stalled tick: ``since`` is
    the first cycle not ticked and ``until`` the first cycle to tick
    again — the cycle the process's ``next_event`` hint named, waited
    for on the calendar's timer heap, or :data:`NO_SELF_EVENT` until a
    wake slot on one of its streams returns it to the awake list.  A
    ``write`` or ``close`` upstream runs :meth:`wake_now`, a ``read``
    downstream :meth:`wake_next`; a timer park ignores both.  Either
    way ``since`` stays set until the loop credits the sleep just
    before the next tick.  On a traced run ``state`` is the stall class
    of the last tick without channel ownership: a parked process
    repeats it.
    """

    __slots__ = ("proc", "index", "calendar", "since", "until", "state")

    def __init__(self, proc: Process, index: int, calendar: _Calendar):
        self.proc = proc
        self.index = index
        self.calendar = calendar
        self.since: int | None = None
        self.until: float = 0
        self.state: str | None = None

    def wake_now(self) -> None:
        """Consumer slot: the upstream producer, ticking now, wrote or
        closed, so this process ticks later in the same cycle."""
        if self.until == NO_SELF_EVENT:
            self.until = 0
            # past the producer's position, so the running ``for`` over
            # the awake list still reaches it
            insort(self.calendar.awake, self, key=_INDEX)

    def wake_next(self) -> None:
        """Producer slot: the downstream consumer read after this
        process's turn, so it ticks the next cycle."""
        if self.until == NO_SELF_EVENT:
            self.until = 0
            self.calendar.later.append(self)

    def park(self, cycle: int, until: float) -> None:
        self.since = cycle
        self.until = until
        if until == NO_SELF_EVENT:
            proc = self.proc
            for stream in proc.inputs():
                stream._consumer_wake = self.wake_now
            for stream in proc.outputs():
                stream._producer_wake = self.wake_next
        else:
            heappush(self.calendar.timers, (until, self.index, self))

    def rearm(self, until: float) -> None:
        """Put an entry parked on no stream onto the timer heap at
        ``until``: a fused tree's leaf whose next wake a wake of another
        leaf worked out."""
        if self.since is not None and self.until == NO_SELF_EVENT != until:
            self.until = until
            heappush(self.calendar.timers, (until, self.index, self))

    def resume(self, cycle: int) -> None:
        """Credit the slept cycles ``[since, cycle)`` and wake up."""
        if cycle > self.since:
            self.proc.skip_cycles(self.since, cycle - self.since)
        self.since = None
        self.until = 0


def _run_parked(
    owner,
    label: str,
    regions,
    ordered: list[Process],
    channels,
    max_cycles: int,
    attribution: StallAttribution | None,
) -> tuple[int, dict[str, int]]:
    """:func:`run_cycles` on the fast path: a wake calendar.

    A process whose tick stalled and whose ``next_event`` hint, read
    between cycles, is not ``None`` is parked: it leaves the awake list
    until the cycle the hint names (a timer on the calendar's heap) or,
    for :data:`NO_SELF_EVENT`, until the next ``write``, ``read`` or
    ``close`` on one of its streams.  A loop cycle ticks only the awake
    list.  A wake by an upstream producer inserts the consumer ahead of
    the current position, so it ticks that cycle; a wake by a
    downstream consumer comes after the producer's turn, so it ticks
    the next cycle — exactly when the reference loop's ticks would
    first differ from a stall repeat.  ``skip_cycles`` credits the
    slept cycles on waking, or on an abort.  When every live process
    is parked the loop jumps to the earlier of the heap top and each
    channel's ``next_event``.

    Channels are never ticked.  A channel lags the loop and is
    advanced with ``skip_cycles``, from its ``clock``, only once its
    next grant or completion (``due``) lies behind the loop's cycle.
    That is checked at the end of each cycle, so what the next one
    observes (``request.done``, the queue depth ``submit`` records,
    the hints read in between) is what a ticked channel would show.
    A jump advances every channel to its end, a traced cycle advances a
    channel with a grant or completion due through that cycle before
    reading the owner set, and every exit catches the channels up.
    Whether a channel is busy is read only on a cycle without process
    progress, the deadlock test.

    Each fused tree (:func:`~repro.core.chain.fuse_chains`) adds one
    calendar entry per engine, a :class:`~repro.core.chain.TreeLeaf` at
    that engine's topological index: it parks on the timer heap until
    its engine's next burst submission, so each submission reaches its
    channel at its own position in the cycle, and the tree is worked out
    in closed form in between; a live tree counts as progress.

    With an ``attribution`` each cycle records only what may have
    changed (:func:`_record_parked`), so a sleep is one interval; the
    trees' class changes (``marks``) are recorded at their own cycles
    as the loop passes them (:func:`_record`).
    """
    traced = attribution is not None
    cycle = 0
    done_at = {p.name: 0 for p in ordered if p.done()}
    for channel in channels:
        channel.rewind()
    calendar = _Calendar()
    marks: list | None = [] if traced else None
    trees = fuse_chains(ordered, channels, calendar, max_cycles, marks)
    fused = {id(p) for tree in trees for p in tree.processes}
    sleepers = [
        _Sleeper(p, i, calendar)
        for i, p in enumerate(ordered)
        if not (p.done() or id(p) in fused)
    ]
    awake = calendar.awake  # mutated in place: wake_now inserts into it
    awake += sleepers
    if trees:
        calendar.fused = len(trees)
        for tree in trees:
            tree.start()
            for leaf in tree.leaves:
                entry = leaf.entry = _Sleeper(leaf, leaf.index, calendar)
                entry.park(0, leaf.wake)
                sleepers.append(entry)
        sleepers.sort(key=_INDEX)
    later, timers = calendar.later, calendar.timers
    stalled: list[_Sleeper] = []  # ticked without progress this cycle
    ticked: list[tuple[_Sleeper, tuple]] = []  # traced: pre-tick samples
    owners: set[str] = set()  # traced: owners of the draining bursts
    if traced and sleepers and max_cycles > 0:
        attribution.record_cycle(0, dict.fromkeys(done_at, _stall.DONE), ())
    try:
        while sleepers:
            if cycle >= max_cycles:
                _abort(sleepers, channels, cycle)
                raise RuntimeError(f"{label} exceeded {max_cycles} cycles")
            if timers[0][0] <= cycle:
                while timers[0][0] <= cycle:
                    awake.append(heappop(timers)[2])
                awake.sort(key=_INDEX)
            progressed = finished = False
            for s in awake:  # reaches consumers that wake_now inserts
                if s.since is not None:
                    s.resume(cycle)
                proc = s.proc
                if traced and type(proc) is not TreeLeaf:
                    ticked.append((s, _sample(proc)))
                if proc.tick(cycle):
                    progressed = True
                    if proc.done():
                        finished = True
                elif proc.done():
                    finished = True
                else:
                    stalled.append(s)
            if traced:
                busy = [channel.busy for channel in channels]
                if True in busy:
                    progressed = True
                for channel in channels:  # the owner set after this cycle
                    if channel.due <= cycle:
                        channel.skip_cycles(channel.clock, cycle + 1 - channel.clock)
                owners = _record_parked(
                    attribution, marks, cycle, sleepers, ticked, channels, busy,
                    owners,
                )
            cycle += 1  # a stalled cycle still counts
            if (
                not progressed
                and not calendar.fused
                and not any(ch.busy for ch in channels)
            ):
                _abort(sleepers, channels, cycle)
                raise DeadlockError(
                    _deadlock_message(label, regions, channels, cycle - 1)
                )
            # no grant or completion may lie behind ``cycle`` when
            # processes poll request.done or hints are read
            for channel in channels:
                if channel.due < cycle:
                    channel.skip_cycles(channel.clock, cycle - channel.clock)
            if finished:  # done() is monotone and only a tick flips it
                kept, newly = [], {}
                for s in awake:
                    proc = s.proc
                    if not proc.done():
                        kept.append(s)
                    elif type(proc) is TreeLeaf:
                        done_at.update(proc.tree.done_cycles)  # it marks its own
                    else:
                        done_at[proc.name] = cycle
                        newly[proc.name] = (s.index, _stall.DONE)
                awake[:] = kept
                sleepers = [
                    s for s in sleepers if s.since is not None or not s.proc.done()
                ]
                if traced and sleepers and cycle < max_cycles:
                    _record(attribution, marks, cycle, 0, newly, ())
            if stalled:
                parked = False
                for s in stalled:
                    event = s.proc.next_event(cycle)
                    if event is not None:
                        s.park(cycle, event)
                        parked = True
                stalled.clear()
                if parked:
                    awake[:] = [s for s in awake if s.since is None]
            if later:
                awake += later
                later.clear()
                awake.sort(key=_INDEX)
            if not awake and sleepers:  # every live process is parked
                horizon = timers[0][0]
                for channel in channels:
                    event = channel.next_event(cycle)
                    if event < horizon:
                        horizon = event
                # an all-inf horizon is a deadlock the next cycle raises
                if horizon != NO_SELF_EVENT:
                    span = min(int(horizon), max_cycles) - cycle
                    if span > 0:
                        end = cycle + span
                        if traced and any(ch.due == cycle for ch in channels):
                            # a fused tree does not wake when its burst
                            # completes, so the next queued burst can be
                            # granted on the jump's first cycle
                            for channel in channels:
                                if channel.due == cycle:
                                    channel.skip_cycles(channel.clock, cycle + 1 - channel.clock)
                            owners = _record_parked(
                                attribution, marks, cycle, sleepers, ticked,
                                channels, (), owners,
                            )
                        for channel in channels:
                            channel.skip_cycles(channel.clock, end - channel.clock)
                        if traced:
                            # a burst completes in a jump only on its last
                            # cycle: the horizon is the completion plus one
                            owners = _record_parked(
                                attribution, marks, end - 1, sleepers, ticked,
                                channels, (), owners,
                            )
                        owner.skipped_cycles += span
                        cycle = end
        _catch_up(channels, cycle)
    finally:
        if traced:
            _record(attribution, marks, cycle, 0, {}, None)
            attribution.close(cycle)
        for tree in trees:
            tree.unlink()
    return cycle, done_at


def _catch_up(channels, cycle: int) -> None:
    """Advance every lagging channel to ``cycle``."""
    for channel in channels:
        if channel.clock < cycle:
            channel.skip_cycles(channel.clock, cycle - channel.clock)


def _abort(sleepers: list[_Sleeper], channels, end: int) -> None:
    """Credit every parked process, settle every fused tree and catch
    the channels up to ``end`` before an abort, as the reference loop
    ticked them through it."""
    trees = {}
    for s in sleepers:
        if s.since is not None:
            s.resume(end)
        if type(s.proc) is TreeLeaf:
            trees[id(s.proc.tree)] = s.proc.tree
    for tree in trees.values():
        tree.settle(end)
    _catch_up(channels, end)


def _sample(proc: Process) -> tuple:
    """Pre-tick counters for :func:`_classify`, taken *after* the
    upstream processes ticked this cycle."""
    return (
        proc.stats.active_cycles,
        proc.stall_reason(),
        [s.read_stalls for s in proc.inputs()],
        [s.write_stalls for s in proc.outputs()],
    )


def _classify(proc: Process, sample: tuple) -> str:
    """Stall class of the tick ``sample`` was taken before.

    Found by diffing the progress counters around ``tick()``:

    * ``active_cycles`` moved → compute;
    * an output stream's ``write_stalls`` moved → FIFO full;
    * an input stream's ``read_stalls`` moved → FIFO empty;
    * otherwise the process's own :meth:`Process.stall_reason` —
      channel-grant waits and initiation-interval bubbles classify
      themselves.

    The owner of a draining burst is ``transfer`` instead; callers
    apply that, as a parked process keeps the class without it.
    """
    active0, reason, reads0, writes0 = sample
    if proc.stats.active_cycles > active0:
        return _stall.COMPUTE
    if any(s.write_stalls > w0 for s, w0 in zip(proc.outputs(), writes0)):
        return _stall.FIFO_FULL
    if any(s.read_stalls > r0 for s, r0 in zip(proc.inputs(), reads0)):
        return _stall.FIFO_EMPTY
    return reason if reason is not None else _stall.PIPELINE


def _owners(channels) -> set[str]:
    """Names of the processes whose burst is draining on a channel."""
    return {ch._current.owner for ch in channels if ch._current is not None}


def _attributed_cycle(
    ordered: list[Process],
    live: list[Process],
    channels,
    cycle: int,
    attribution: StallAttribution,
) -> bool:
    """One reference cycle on a traced run: tick and classify everything.

    Records finished processes first, then live ones in topological
    order — the order the exported spans follow.  Returns whether
    anything progressed.
    """
    states = {p.name: _stall.DONE for p in ordered if p.done()}
    samples = []
    progressed = False
    for proc in live:
        samples.append(_sample(proc))
        if proc.tick(cycle):
            progressed = True
    busy = [channel.tick(cycle) for channel in channels]
    if any(busy):
        progressed = True
    owners = _owners(channels)
    for proc, sample in zip(live, samples):
        states[proc.name] = (
            _stall.TRANSFER if proc.name in owners else _classify(proc, sample)
        )
    attribution.record_cycle(cycle, states, busy)
    return progressed


def _record_parked(
    attribution: StallAttribution,
    marks: list | None,
    cycle: int,
    sleepers: list[_Sleeper],
    ticked: list,
    channels,
    busy,
    owners: set[str],
) -> set[str]:
    """Record one cycle of :func:`_run_parked`; returns the new owners.

    Records, in topological order, each process in ``ticked``
    (consumed) and each parked one whose burst started or ended
    draining since ``owners`` was taken.  A parked process repeats the
    class of its last stalled tick, or is ``transfer`` while its burst
    drains.  A jump passes no ticks: it grants no burst, since a grant
    follows a completion whose owner wakes the next cycle.  A fused
    tree's processes are not sleepers: their ``marks`` go in through
    :func:`_record`.
    """
    now = _owners(channels)
    live = {}
    for s, sample in ticked:
        name = s.proc.name
        s.state = _classify(s.proc, sample)
        live[name] = (s.index, _stall.TRANSFER if name in now else s.state)
    ticked.clear()
    if now != owners:
        merged = {}
        for s in sleepers:
            name = s.proc.name
            if name in live:
                merged[name] = live[name]
            elif name in now:
                merged[name] = (s.index, _stall.TRANSFER)
            elif name in owners:
                merged[name] = (s.index, s.state)
        live = merged
    _record(attribution, marks, cycle, 1, live, busy)
    return now


def _record(
    attribution: StallAttribution,
    marks: list | None,
    cycle: int,
    group: int,
    states: dict[str, tuple[int, str]],
    busy,
) -> None:
    """Record ``states`` (name → (topological index, class)) at
    ``cycle``, merged with the fused trees' ``marks``.

    Within a cycle the reference loop records the processes that
    finished the cycle before (``group`` 0, as ``done``) and then the
    live ones (group 1), each in topological order, and the channels
    last.  A mark is ``(cycle, group, index, name, class)``: every mark
    before ``(cycle, group)`` is recorded first, at its own cycle, and
    the marks at ``(cycle, group)`` join ``states`` in index order.
    ``busy`` is ``None`` only at an exit, which records no ``states``.
    """
    key = (cycle, group)
    while marks and marks[0][:2] < key:
        at = marks[0][0]
        passed = {}
        while marks and marks[0][0] == at and marks[0][:2] < key:
            _at, _group, _index, name, state = heappop(marks)
            passed[name] = state
        attribution.record_cycle(at, passed, ())
    if busy is None:
        return
    if marks and marks[0][:2] == key:
        merged = [(index, name, state) for name, (index, state) in states.items()]
        while marks and marks[0][:2] == key:
            _at, _group, index, name, state = heappop(marks)
            merged.append((index, name, state))
        merged.sort()
        record = {name: state for _index, name, state in merged}
    else:
        record = {name: state for name, (_index, state) in states.items()}
    attribution.record_cycle(cycle, record, busy)


def _deadlock_message(label: str, regions, channels, cycle: int) -> str:
    """State dump naming every stuck process, grouped by region."""
    lines = [f"deadlock in {label} at cycle {cycle}:"]
    for region in regions:
        stuck = [p for p in region.processes if not p.done()]
        if not stuck:
            continue
        lines.append(f"  region {region.name!r}:")
        for p in stuck:
            lines.append(f"    stuck: {p!r}")
            for s in p.inputs():
                lines.append(f"      in  {s!r}")
            for s in p.outputs():
                lines.append(f"      out {s!r}")
    for channel in channels:
        lines.append(f"  channel: {channel!r}")
    return "\n".join(lines)
