"""``DecoupledWorkItems`` — the paper's headline pattern (Listing 1).

Builds N fully decoupled work-items inside one dataflow region: per
work-item a :class:`~repro.core.kernel.GammaRNGProcess` (compute, built
by :func:`~repro.core.lanes.gamma_process`) wired by a blocking stream
to a :class:`~repro.core.transfer.TransferEngine` (memory), all
transfer engines sharing the single
:class:`~repro.core.memory.MemoryChannel` into device
:class:`~repro.core.memory.GlobalMemory`.

Each work-item receives its unique id at construction ("the same way
OpenCL would assign them in a .cl kernel") and its own pointer into the
combined device buffer (Section III-E-2).  Because every work-item is
its own pipeline, a data-dependent rejection in one never stalls any
other — Fig 2c versus Fig 2b.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.dataflow import DataflowRegion, RegionReport
from repro.core.kernel import GammaKernelConfig, GammaRNGProcess
from repro.core.lanes import gamma_process
from repro.core.memory import (
    GlobalMemory,
    MemoryChannel,
    MemoryChannelConfig,
)
from repro.core.stream import Stream
from repro.core.transfer import DummySource, TransferEngine
from repro.fixedpoint import FLOATS_PER_WORD
from repro.rng.icdf import IcdfFpga

__all__ = ["DecoupledConfig", "DecoupledResult", "DecoupledWorkItems"]

#: Default SDAccel kernel clock on the ADM-PCIE-7V3 (Section IV-A).
DEFAULT_FREQUENCY_HZ = 200e6


@dataclass(frozen=True)
class DecoupledConfig:
    """Region-level configuration of the decoupled work-items pattern."""

    n_work_items: int = 6
    kernel: GammaKernelConfig = field(default_factory=GammaKernelConfig)
    burst_words: int = 4  # LTRANSF
    stream_depth: int = 16
    channel: MemoryChannelConfig = field(default_factory=MemoryChannelConfig)
    frequency_hz: float = DEFAULT_FREQUENCY_HZ
    # the paper's board has ONE channel; >1 models the "customized
    # memory controller" extension its conclusion suggests
    n_channels: int = 1
    #: run each work-item's MAINLOOP math in vectorized numpy blocks
    #: (:mod:`repro.core.lanes`) wherever the transform has lanes
    #: (marsaglia_bray) — bit-identical results, less host time per
    #: tick.  ``False`` builds the scalar kernel for every work-item:
    #: the differential oracle the lanes are checked against.
    vector_lanes: bool = True

    def __post_init__(self):
        if self.n_work_items < 1:
            raise ValueError("need at least one work-item")
        if self.n_channels < 1:
            raise ValueError("need at least one memory channel")
        values_per_burst = self.burst_words * FLOATS_PER_WORD
        if self.kernel.limit_main % values_per_burst:
            raise ValueError(
                f"limit_main ({self.kernel.limit_main}) must be a multiple "
                f"of the values per burst ({values_per_burst}) so REPLOOP "
                "has a fixed trip count (Listing 4)"
            )

    @property
    def bursts_per_sector(self) -> int:
        return self.kernel.limit_main // (self.burst_words * FLOATS_PER_WORD)

    @property
    def words_per_item(self) -> int:
        """Device-memory block per work-item (blockOffset)."""
        return self.kernel.sectors * self.bursts_per_sector * self.burst_words

    @property
    def total_words(self) -> int:
        return self.words_per_item * self.n_work_items


@dataclass
class DecoupledResult:
    """Outcome of a decoupled-work-items run."""

    report: RegionReport
    config: DecoupledConfig
    memory: GlobalMemory
    kernels: list[GammaRNGProcess]
    engines: list[TransferEngine]

    @property
    def cycles(self) -> int:
        return self.report.cycles

    @property
    def runtime_ms(self) -> float:
        return self.report.runtime_ms(self.config.frequency_hz)

    @property
    def rejection_rate(self) -> float:
        """Pooled rejection rate across all work-items."""
        attempts = sum(k.attempts for k in self.kernels)
        accepts = sum(k.accepts for k in self.kernels)
        return 1.0 - accepts / attempts if attempts else 0.0

    def gammas(self, wid: int | None = None) -> np.ndarray:
        """Read the generated gamma RNs back from device memory.

        With ``wid=None`` all work-items' outputs are concatenated in
        work-item order (the single combined buffer of Section III-E-2).
        """
        cfg = self.config
        per_item = cfg.kernel.total_outputs
        if wid is None:
            return np.concatenate(
                [self.gammas(w) for w in range(cfg.n_work_items)]
            )
        if not 0 <= wid < cfg.n_work_items:
            raise IndexError(f"work-item id {wid} out of range")
        return self.memory.read_floats(wid * cfg.words_per_item, per_item)

    def throughput_rns_per_second(self) -> float:
        total = self.config.kernel.total_outputs * self.config.n_work_items
        return total / (self.cycles / self.config.frequency_hz)


class DecoupledWorkItems:
    """Builder/runner for the Listing 1 pattern.

    >>> cfg = DecoupledConfig(n_work_items=2,
    ...                       kernel=GammaKernelConfig(limit_main=64))
    >>> result = DecoupledWorkItems(cfg).run()
    >>> result.gammas().shape
    (128,)
    """

    def __init__(self, config: DecoupledConfig):
        self.config = config
        self.memory = GlobalMemory(config.total_words)
        self.channels = [
            MemoryChannel(config.channel, self.memory)
            for _ in range(config.n_channels)
        ]
        self.channel = self.channels[0]
        self.region = DataflowRegion("decoupled_work_items")
        for channel in self.channels:
            self.region.attach_memory_channel(channel)
        self.kernels: list[GammaRNGProcess] = []
        self.engines: list[TransferEngine] = []
        # one ICDF ROM shared by all work-items (a BRAM table per CU
        # would also work; sharing mirrors the resource report better)
        icdf = (
            IcdfFpga() if config.kernel.transform == "icdf_fpga" else None
        )
        for wid in range(config.n_work_items):
            stream = Stream(f"gammaStream{wid}", depth=config.stream_depth)
            kernel = gamma_process(
                f"GammaRNG{wid}",
                wid,
                config.kernel,
                stream,
                icdf_table=icdf,
                lanes=config.vector_lanes,
            )
            engine = TransferEngine(
                f"Transfer{wid}",
                wid,
                stream,
                self.channels[wid % config.n_channels],
                burst_words=config.burst_words,
                bursts_per_sector=config.bursts_per_sector,
                sectors=config.kernel.sectors,
                block_offset=config.words_per_item,
            )
            self.region.add(kernel)
            self.region.add(engine)
            self.kernels.append(kernel)
            self.engines.append(engine)

    def run(
        self,
        max_cycles: int = 100_000_000,
        *,
        fast_path: bool | None = None,
    ) -> DecoupledResult:
        """Run the region; ``fast_path`` passes through to
        :meth:`~repro.core.dataflow.DataflowRegion.run` (``False`` forces
        the reference one-cycle-at-a-time loop)."""
        report = self.region.run(max_cycles=max_cycles, fast_path=fast_path)
        return DecoupledResult(
            report=report,
            config=self.config,
            memory=self.memory,
            kernels=self.kernels,
            engines=self.engines,
        )


def build_transfer_only_region(
    n_work_items: int,
    values_per_item: int,
    burst_words: int,
    channel_config: MemoryChannelConfig | None = None,
    stream_depth: int = 16,
) -> tuple[DataflowRegion, GlobalMemory, MemoryChannel]:
    """Region for the Fig 7 experiment: dummy sources + transfer engines.

    "If we now remove the computations from our kernel, leaving only the
    transfers to device memory" — each work-item becomes a
    :class:`~repro.core.transfer.DummySource` feeding its engine.
    """
    values_per_burst = burst_words * FLOATS_PER_WORD
    if values_per_item % values_per_burst:
        raise ValueError(
            "values_per_item must be a multiple of the burst payload"
        )
    bursts = values_per_item // values_per_burst
    words_per_item = bursts * burst_words
    memory = GlobalMemory(words_per_item * n_work_items)
    channel = MemoryChannel(channel_config or MemoryChannelConfig(), memory)
    region = DataflowRegion("transfers_only")
    region.attach_memory_channel(channel)
    for wid in range(n_work_items):
        stream = Stream(f"dummy{wid}", depth=stream_depth)
        region.add(DummySource(f"Source{wid}", stream, values_per_item))
        region.add(
            TransferEngine(
                f"Transfer{wid}",
                wid,
                stream,
                channel,
                burst_words=burst_words,
                bursts_per_sector=bursts,
                sectors=1,
                block_offset=words_per_item,
            )
        )
    return region, memory, channel
