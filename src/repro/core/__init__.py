"""Core contribution: decoupled OpenCL work-items on FPGAs, as a
cycle-level dataflow simulation.

Public surface:

* :class:`~repro.core.stream.Stream` — ``hls::stream`` model,
* :class:`~repro.core.dataflow.DataflowRegion` — the DATAFLOW pragma,
* :class:`~repro.core.delayed_counter.DelayedCounter` — dynamic
  loop-exit workaround (Section III-B),
* :class:`~repro.core.mt_adapted.AdaptedMT` — enable-gated twister
  (Listing 3),
* :class:`~repro.core.kernel.GammaRNGProcess` — the test-case kernel
  (Listing 2),
* :class:`~repro.core.transfer.TransferEngine` — burst transfers
  (Listing 4),
* :class:`~repro.core.memory.MemoryChannel` / ``GlobalMemory`` — the
  shared device-memory port,
* :class:`~repro.core.decoupled.DecoupledWorkItems` — the N-work-item
  builder (Listing 1).
"""

from repro.core.stream import FifoStats, Stream, StreamEmpty, StreamFull
from repro.core.process import Process, ProcessStats
from repro.core.dataflow import (
    DataflowRegion,
    DataflowError,
    DeadlockError,
    RegionReport,
)
from repro.core.delayed_counter import DelayedCounter, NAIVE_EXIT_II
from repro.core.memory import (
    BurstRequest,
    GlobalMemory,
    MemoryChannel,
    MemoryChannelConfig,
    transfer_only_cycles,
)
from repro.core.transfer import DummySource, TransferEngine
from repro.core.mt_adapted import AdaptedMT, NaiveGatedMT
from repro.core.kernel import GammaKernelConfig, GammaRNGProcess, TRANSFORMS
from repro.core.decoupled import (
    DEFAULT_FREQUENCY_HZ,
    DecoupledConfig,
    DecoupledResult,
    DecoupledWorkItems,
    build_transfer_only_region,
)
from repro.core.pipes import (
    MultiRegionRunner,
    Pipe,
    PipeError,
    PipelineGraph,
    PipelineReport,
)
from repro.core.pricing import (
    AggregatingTransferEngine,
    PricingPipelineConfig,
    PricingProcess,
    PricingResult,
    build_fused_pricing_region,
    build_pricing_pipeline,
    run_pricing_pipeline,
)
from repro.core.schedule import ScheduleTrace, trace_region
from repro.core.hls_report import HlsReport, LoopInfo, synthesize_report
from repro.core.fifo_sizing import (
    DepthPoint,
    SizingResult,
    advise_stream_depth,
)
from repro.core.ndrange_map import (
    NDRangeMapping,
    equivalent_task_form,
    map_ndrange,
)

__all__ = [
    "Stream",
    "StreamEmpty",
    "StreamFull",
    "Process",
    "ProcessStats",
    "DataflowRegion",
    "DataflowError",
    "DeadlockError",
    "RegionReport",
    "DelayedCounter",
    "NAIVE_EXIT_II",
    "BurstRequest",
    "GlobalMemory",
    "MemoryChannel",
    "MemoryChannelConfig",
    "transfer_only_cycles",
    "DummySource",
    "TransferEngine",
    "AdaptedMT",
    "NaiveGatedMT",
    "GammaKernelConfig",
    "GammaRNGProcess",
    "TRANSFORMS",
    "DecoupledConfig",
    "DecoupledResult",
    "DecoupledWorkItems",
    "DEFAULT_FREQUENCY_HZ",
    "build_transfer_only_region",
    "Pipe",
    "PipeError",
    "PipelineGraph",
    "PipelineReport",
    "MultiRegionRunner",
    "PricingProcess",
    "PricingPipelineConfig",
    "PricingResult",
    "AggregatingTransferEngine",
    "build_pricing_pipeline",
    "build_fused_pricing_region",
    "run_pricing_pipeline",
    "ScheduleTrace",
    "trace_region",
    "NDRangeMapping",
    "map_ndrange",
    "equivalent_task_form",
    "HlsReport",
    "LoopInfo",
    "synthesize_report",
    "DepthPoint",
    "SizingResult",
    "advise_stream_depth",
    "FifoStats",
]
