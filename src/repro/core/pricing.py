"""Three-stage pricing pipeline: RNG region → pricing region → aggregation.

The paper's kernel ends at device memory: gamma variates stream from
``GammaRNG`` into ``Transfer`` engines.  The natural next step its
conclusion gestures at — and the MKPipe line of work (PAPERS.md) makes
explicit — is *consuming* those variates in further kernels connected
by pipes.  This module builds that workload three ways from one
configuration:

* **pipelined** — three :class:`~repro.core.dataflow.DataflowRegion`\\ s
  (RNG, pricing, aggregation) joined by :class:`~repro.core.pipes.Pipe`\\ s
  and co-scheduled by a :class:`~repro.core.pipes.MultiRegionRunner`,
  so stage N+1 consumes tokens while stage N is still producing;
* **fused** — the identical process network inside ONE region (the
  all-in-one-kernel formulation), the numerical-equivalence oracle:
  same processes, same streams-as-plain-``Stream``, same memory layout,
  so device memory and every aggregate must match the pipelined run
  bit for bit;
* **sequential** — each region runs to completion before the next
  starts (host-orchestrated kernel-after-kernel), the no-overlap
  makespan baseline the overlap benchmark divides by.

Per work-item the stages are:

1. a gamma work-item streams validated gamma variates (the per-sector
   variance is the sector's volatility).
   :func:`~repro.core.lanes.gamma_process` builds it, so the
   ``marsaglia_bray`` kernel runs as
   :class:`~repro.core.lanes.VectorGammaRNGProcess` lanes in every mode
   and the other transforms run the scalar
   :class:`~repro.core.kernel.GammaRNGProcess`.  Tests substitute
   ``gamma_process`` in this module to build the scalar oracle;
2. :class:`PricingProcess` reads each variate, prices a call-style
   payoff ``discount * max(gamma - strike, 0)``, and forks the result:
   the price goes down the priced pipe, the raw variate down a local
   stream for archival (the tee is why pricing is its own region —
   one producer, two consumers downstream);
3. an :class:`AggregatingTransferEngine` bursts the priced values to
   device memory while folding them into a running portfolio sum, and
   a plain :class:`~repro.core.transfer.TransferEngine` in the pricing
   region archives the raw variates alongside.

On the fast cycle loop each work-item — its gamma kernel, the pricer
tee and both engines — is one fused tree (:mod:`repro.core.chain`),
worked out in closed form between burst submissions, so a pipelined or
fused run steps only its memory channels event by event.  The
per-tick code and the fast-path hints of :class:`PricingProcess` and
the engines serve the runs that do not fuse: the reference loop,
sequential mode (no region holds a whole work-item) and subclasses
that override ``tick``.

Memory channels are assigned per region via
:attr:`PricingPipelineConfig.channel_affinity`: with ``n_channels=1``
both archival and aggregation traffic arbitrate on one port (the
paper's board); with ``n_channels=2`` and affinity ``(0, 1)`` each
region owns a port — the multi-channel split EXPERIMENTS.md measures
at ~2x on transfer-bound configurations, here promoted to first-class
pipeline configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.dataflow import DataflowRegion, RegionReport
from repro.core.decoupled import DEFAULT_FREQUENCY_HZ
from repro.core.kernel import GammaKernelConfig, GammaRNGProcess
from repro.core.lanes import gamma_process
from repro.core.memory import (
    GlobalMemory,
    MemoryChannel,
    MemoryChannelConfig,
)
from repro.core.pipes import (
    MultiRegionRunner,
    Pipe,
    PipelineGraph,
    PipelineReport,
)
from repro.core.process import NO_SELF_EVENT, Process
from repro.core.stream import Stream
from repro.core.transfer import TransferEngine
from repro.fixedpoint import FLOATS_PER_WORD

__all__ = [
    "AggregatingTransferEngine",
    "PricingPipelineConfig",
    "PricingProcess",
    "PricingResult",
    "build_fused_pricing_region",
    "build_pricing_pipeline",
    "run_pricing_pipeline",
]


class PricingProcess(Process):
    """Price each gamma variate and tee price + raw variate downstream.

    One value per cycle at II=1: read the variate, evaluate the payoff
    combinationally, write the price to ``priced_sink`` and the
    untouched variate to ``raw_sink``.  Either sink refusing leaves the
    value pending (the blocking ``hls::stream`` write freezes the
    pipeline), flushed on later cycles before anything new is read.

    Parameters
    ----------
    name, wid:
        Process identity.
    source:
        Gamma variates from the RNG stage (a Pipe when pipelined).
    priced_sink:
        Priced payoffs toward the aggregation stage.
    raw_sink:
        Raw variates toward the archival engine.
    count:
        Values to process before declaring done (closes both sinks).
    strike, discount:
        Payoff parameters: ``discount * max(value - strike, 0)``.
    """

    def __init__(
        self,
        name: str,
        wid: int,
        source: Stream,
        priced_sink: Stream,
        raw_sink: Stream,
        count: int,
        strike: float = 1.0,
        discount: float = 0.97,
    ):
        super().__init__(name)
        if count < 1:
            raise ValueError("count must be >= 1")
        self.wid = wid
        self.source = source
        self.priced_sink = priced_sink
        self.raw_sink = raw_sink
        self.count = count
        self.strike = strike
        self.discount = discount
        self._emitted = 0
        self._pending: list[tuple[Stream, float]] = []
        self._done = False
        # fast-path hints describe THIS tick implementation; a subclass
        # overriding tick() falls back to the reference loop
        self._hintable = type(self).tick is PricingProcess.tick

    def inputs(self) -> tuple[Stream, ...]:
        return (self.source,)

    def outputs(self) -> tuple[Stream, ...]:
        return (self.priced_sink, self.raw_sink)

    def done(self) -> bool:
        return self._done

    def price(self, value: float) -> float:
        """The per-variate payoff (combinational in hardware terms)."""
        return self.discount * max(value - self.strike, 0.0)

    # -- cycle-skipping fast path (runs where the work-item does not fuse) -----------

    def next_event(self, cycle: int) -> int | float | None:
        if not self._hintable or self._done:
            return None
        if self._pending:
            if all(sink.full() for sink, _ in self._pending):
                return NO_SELF_EVENT  # frozen on the blocking writes
            return None  # a flush lands next tick
        if self._emitted >= self.count:
            return None  # done-transition next tick
        if self.source.empty():
            if self.source.drained():
                return None  # early-close transition next tick
            return NO_SELF_EVENT  # starved until the producer acts
        return None

    def skip_cycles(self, cycle: int, count: int) -> None:
        if self._pending:
            # blocked writes: one failing can_write() poll per pending
            # sink per cycle (the sinks are distinct — at most one
            # in-flight value per sink)
            for sink, _ in self._pending:
                sink.credit_write_stalls(count, cycle + count - 1)
            self.stats.cycles += count
            self.stats.stall_cycles += count
            return
        # starved: one failing can_read() poll per skipped cycle
        self.source.credit_read_stalls(count, cycle + count - 1)
        self.stats.cycles += count
        self.stats.stall_cycles += count

    # -- the pipeline --------------------------------------------------------------

    def tick(self, cycle: int) -> bool:
        if self._done:
            return self._account(False)

        # flush values frozen on full sinks before reading anything new
        if self._pending:
            flushed = False
            still: list[tuple[Stream, float]] = []
            for sink, value in self._pending:
                if sink.can_write(cycle):
                    sink.write(value)
                    flushed = True
                else:
                    still.append((sink, value))
            self._pending = still
            return self._account(flushed)

        # quota met, or the producer closed early (limit_max capped it):
        # declare done and propagate the close downstream
        if self._emitted >= self.count or self.source.drained():
            self._done = True
            self.priced_sink.close()
            self.raw_sink.close()
            return self._account(True)

        if not self.source.can_read(cycle):
            return self._account(False)
        value = self.source.read()
        priced = self.price(value)
        self._emitted += 1
        self.stats.iterations += 1
        for sink, token in (
            (self.priced_sink, priced),
            (self.raw_sink, value),
        ):
            if sink.can_write(cycle):
                sink.write(token)
            else:
                self._pending.append((sink, token))
        return self._account(True)


class AggregatingTransferEngine(TransferEngine):
    """Transfer engine that folds each value into a running sum.

    Overrides only the :meth:`~repro.core.transfer.TransferEngine._ingest`
    hook — the aggregation is combinational alongside the pack, so the
    cycle behavior (and therefore the inherited fast-path hints, which
    guard on ``tick`` identity) is untouched.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.total = 0.0
        self.values = 0

    def _ingest(self, value: float) -> float:
        self.total += value
        self.values += 1
        return value


@dataclass(frozen=True)
class PricingPipelineConfig:
    """Static configuration of the three-stage pricing workload."""

    n_work_items: int = 2
    kernel: GammaKernelConfig = field(
        default_factory=lambda: GammaKernelConfig(limit_main=64)
    )
    burst_words: int = 4  # LTRANSF of both archival and aggregation engines
    #: depth of the inter-region pipes (gamma and priced)
    pipe_depth: int = 16
    #: depth of the intra-region raw-archive stream
    stream_depth: int = 16
    channel: MemoryChannelConfig = field(default_factory=MemoryChannelConfig)
    n_channels: int = 1
    #: channel index per memory-using region: ``(pricing_archive,
    #: aggregation)`` — ``(0, 0)`` shares one port across regions,
    #: ``(0, 1)`` with ``n_channels=2`` gives each region its own
    channel_affinity: tuple[int, int] = (0, 0)
    strike: float = 1.0
    discount: float = 0.97
    frequency_hz: float = DEFAULT_FREQUENCY_HZ

    def __post_init__(self):
        if self.n_work_items < 1:
            raise ValueError("need at least one work-item")
        if self.n_channels < 1:
            raise ValueError("need at least one memory channel")
        if self.pipe_depth < 1:
            raise ValueError("pipe_depth must be >= 1")
        if len(self.channel_affinity) != 2:
            raise ValueError(
                "channel_affinity must name (pricing, aggregation) channels"
            )
        if any(
            not 0 <= idx < self.n_channels for idx in self.channel_affinity
        ):
            raise ValueError(
                f"channel_affinity {self.channel_affinity} out of range for "
                f"{self.n_channels} channel(s)"
            )
        values_per_burst = self.burst_words * FLOATS_PER_WORD
        if self.kernel.limit_main % values_per_burst:
            raise ValueError(
                f"limit_main ({self.kernel.limit_main}) must be a multiple "
                f"of the values per burst ({values_per_burst})"
            )

    @property
    def bursts_per_sector(self) -> int:
        return self.kernel.limit_main // (self.burst_words * FLOATS_PER_WORD)

    @property
    def words_per_item(self) -> int:
        """Device-memory block per engine (blockOffset)."""
        return self.kernel.sectors * self.bursts_per_sector * self.burst_words

    @property
    def total_words(self) -> int:
        """Priced block (front half) + raw-archive block (back half)."""
        return 2 * self.n_work_items * self.words_per_item

    @property
    def outputs_per_item(self) -> int:
        return self.kernel.total_outputs

    @property
    def sequential_pipe_depth(self) -> int:
        """Pipe depth that lets :meth:`MultiRegionRunner.run_sequential`
        complete: each stage's full output must fit in its pipe."""
        return max(self.pipe_depth, self.outputs_per_item)


@dataclass
class _PipelineBuild:
    """All the live objects of one built pipeline (any mode)."""

    config: PricingPipelineConfig
    memory: GlobalMemory
    channels: list[MemoryChannel]
    kernels: list[GammaRNGProcess]
    pricers: list[PricingProcess]
    aggregate_engines: list[AggregatingTransferEngine]
    archive_engines: list[TransferEngine]
    graph: PipelineGraph | None = None
    region: DataflowRegion | None = None

    @property
    def runner(self) -> MultiRegionRunner:
        if self.graph is None:
            raise ValueError("fused build has no pipeline graph")
        return MultiRegionRunner(self.graph)


def _build(
    config: PricingPipelineConfig,
    *,
    pipelined: bool,
    pipe_depth: int | None = None,
) -> _PipelineBuild:
    depth = config.pipe_depth if pipe_depth is None else pipe_depth
    link_cls = Pipe if pipelined else Stream
    memory = GlobalMemory(config.total_words)
    channels = [
        MemoryChannel(config.channel, memory)
        for _ in range(config.n_channels)
    ]
    archive_channel = channels[config.channel_affinity[0]]
    aggregate_channel = channels[config.channel_affinity[1]]

    kernels: list[GammaRNGProcess] = []
    pricers: list[PricingProcess] = []
    aggregate_engines: list[AggregatingTransferEngine] = []
    archive_engines: list[TransferEngine] = []
    for wid in range(config.n_work_items):
        gamma = link_cls(f"gammaPipe{wid}", depth=depth)
        priced = link_cls(f"pricedPipe{wid}", depth=depth)
        raw = Stream(f"rawStream{wid}", depth=config.stream_depth)
        kernels.append(
            gamma_process(f"GammaRNG{wid}", wid, config.kernel, gamma)
        )
        pricers.append(
            PricingProcess(
                f"Pricer{wid}",
                wid,
                gamma,
                priced,
                raw,
                count=config.outputs_per_item,
                strike=config.strike,
                discount=config.discount,
            )
        )
        # priced payoffs land in the front half of device memory …
        aggregate_engines.append(
            AggregatingTransferEngine(
                f"Aggregate{wid}",
                wid,
                priced,
                aggregate_channel,
                burst_words=config.burst_words,
                bursts_per_sector=config.bursts_per_sector,
                sectors=config.kernel.sectors,
                block_offset=config.words_per_item,
            )
        )
        # … raw variates in the back half (wid offset past all priced)
        archive_engines.append(
            TransferEngine(
                f"Archive{wid}",
                config.n_work_items + wid,
                raw,
                archive_channel,
                burst_words=config.burst_words,
                bursts_per_sector=config.bursts_per_sector,
                sectors=config.kernel.sectors,
                block_offset=config.words_per_item,
            )
        )

    build = _PipelineBuild(
        config=config,
        memory=memory,
        channels=channels,
        kernels=kernels,
        pricers=pricers,
        aggregate_engines=aggregate_engines,
        archive_engines=archive_engines,
    )
    if pipelined:
        graph = PipelineGraph("pricing_pipeline")
        rng = DataflowRegion("rng")
        for kernel in kernels:
            rng.add(kernel)
        pricing = DataflowRegion("pricing")
        for pricer, archive in zip(pricers, archive_engines):
            pricing.add(pricer)
            pricing.add(archive)
        pricing.attach_memory_channel(archive_channel)
        aggregation = DataflowRegion("aggregation")
        for engine in aggregate_engines:
            aggregation.add(engine)
        aggregation.attach_memory_channel(aggregate_channel)
        graph.add_region(rng)
        graph.add_region(pricing)
        graph.add_region(aggregation)
        build.graph = graph
    else:
        region = DataflowRegion("pricing_fused")
        for procs in (kernels, pricers, aggregate_engines, archive_engines):
            for proc in procs:
                region.add(proc)
        seen: set[int] = set()
        for channel in (archive_channel, aggregate_channel):
            if id(channel) not in seen:
                seen.add(id(channel))
                region.attach_memory_channel(channel)
        build.region = region
    return build


def build_pricing_pipeline(
    config: PricingPipelineConfig, *, pipe_depth: int | None = None
) -> _PipelineBuild:
    """Three pipe-connected regions ready for a :class:`MultiRegionRunner`.

    ``pipe_depth`` overrides the config's inter-region pipe depth (the
    sequential baseline needs :attr:`~PricingPipelineConfig.sequential_pipe_depth`).
    """
    return _build(config, pipelined=True, pipe_depth=pipe_depth)


def build_fused_pricing_region(
    config: PricingPipelineConfig,
) -> _PipelineBuild:
    """The identical process network inside one DATAFLOW region.

    Same processes, same FIFO depths, same memory layout — only the
    region structure differs, so every numeric output must match the
    pipelined run exactly (the equivalence oracle in tests/core).
    """
    return _build(config, pipelined=False)


@dataclass
class PricingResult:
    """Outcome of one pricing-pipeline run (any mode)."""

    mode: str  # "pipelined" | "sequential" | "fused"
    config: PricingPipelineConfig
    report: "PipelineReport | RegionReport"
    build: _PipelineBuild
    skipped_cycles: int

    @property
    def cycles(self) -> int:
        return self.report.cycles

    @property
    def runtime_ms(self) -> float:
        return self.report.runtime_ms(self.config.frequency_hz)

    @property
    def memory(self) -> GlobalMemory:
        return self.build.memory

    def priced(self, wid: int | None = None) -> np.ndarray:
        """Priced payoffs read back from device memory (front half)."""
        cfg = self.config
        if wid is None:
            return np.concatenate(
                [self.priced(w) for w in range(cfg.n_work_items)]
            )
        if not 0 <= wid < cfg.n_work_items:
            raise IndexError(f"work-item id {wid} out of range")
        return self.memory.read_floats(
            wid * cfg.words_per_item, cfg.outputs_per_item
        )

    def raw(self, wid: int | None = None) -> np.ndarray:
        """Archived raw variates read back from device memory (back half)."""
        cfg = self.config
        if wid is None:
            return np.concatenate(
                [self.raw(w) for w in range(cfg.n_work_items)]
            )
        if not 0 <= wid < cfg.n_work_items:
            raise IndexError(f"work-item id {wid} out of range")
        return self.memory.read_floats(
            (cfg.n_work_items + wid) * cfg.words_per_item,
            cfg.outputs_per_item,
        )

    @property
    def aggregate_totals(self) -> list[float]:
        """Per-work-item running portfolio sums (full-precision doubles,
        folded in stream order by the aggregation engines)."""
        return [e.total for e in self.build.aggregate_engines]

    @property
    def portfolio_total(self) -> float:
        return sum(self.aggregate_totals)


def run_pricing_pipeline(
    config: PricingPipelineConfig,
    mode: str = "pipelined",
    max_cycles: int = 100_000_000,
    *,
    fast_path: bool | None = None,
) -> PricingResult:
    """Build and run the workload in one of the three modes.

    ``"pipelined"`` co-schedules the three regions on one clock;
    ``"sequential"`` runs them one at a time with pipes deepened to
    :attr:`~PricingPipelineConfig.sequential_pipe_depth` (the honest
    no-overlap baseline needs every in-flight token to fit);
    ``"fused"`` runs the identical network as one region.
    """
    if mode == "fused":
        build = build_fused_pricing_region(config)
        report = build.region.run(max_cycles=max_cycles, fast_path=fast_path)
        skipped = build.region.skipped_cycles
    elif mode in ("pipelined", "sequential"):
        depth = (
            config.sequential_pipe_depth if mode == "sequential" else None
        )
        build = build_pricing_pipeline(config, pipe_depth=depth)
        runner = build.runner
        if mode == "sequential":
            report = runner.run_sequential(
                max_cycles=max_cycles, fast_path=fast_path
            )
        else:
            report = runner.run(max_cycles=max_cycles, fast_path=fast_path)
        skipped = runner.skipped_cycles
    else:
        raise ValueError(
            f"unknown mode {mode!r}; pick pipelined, sequential or fused"
        )
    return PricingResult(
        mode=mode,
        config=config,
        report=report,
        build=build,
        skipped_cycles=skipped,
    )
