"""Exhaustive design-space sweeps (``fifo-prune``, ``sweep-prune``,
``timing-prune``).

Each experiment cycle-simulates every point of its grid on the fast
path and prunes the grid to the exact answer: the smallest adequate
FIFO depth (:func:`repro.core.fifo_sizing.advise_stream_depth`), or the
(resource cost, cycles) Pareto frontier (:func:`pareto_indices`) of a
burst length × channel count grid or of work-item replication against
the Table II slice budget.  The tables list every point's simulated
cycles.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.decoupled import DecoupledConfig, DecoupledWorkItems
from repro.core.fifo_sizing import advise_stream_depth
from repro.core.kernel import GammaKernelConfig
from repro.core.memory import MemoryChannelConfig
from repro.harness.experiments import ExperimentResult
from repro.rng.mersenne import MT521_PARAMS

__all__ = [
    "PRUNE_BASE_CONFIG",
    "PRUNE_DEPTHS",
    "TIMING_PRUNE_COUNTS",
    "pareto_indices",
    "run_fifo_prune",
    "run_sweep_prune",
    "run_timing_prune",
]

#: The depth-sensitive configuration the fifo_sizing tests sweep —
#: the default vectorized lanes + the short Mersenne Twister keep one
#: simulation cheap.
PRUNE_BASE_CONFIG = DecoupledConfig(
    n_work_items=2,
    kernel=GammaKernelConfig(mt_params=MT521_PARAMS, limit_main=128),
    burst_words=2,
    channel=MemoryChannelConfig(setup_cycles=40, cycles_per_word=2),
)

PRUNE_DEPTHS = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64)


def pareto_indices(costs, values) -> list[int]:
    """Indices on the (cost, value) Pareto frontier, both minimized.

    Weak dominance with ties kept: a point is dropped only if another
    point is no worse on both axes and strictly better on at least one.
    Exact duplicates all stay on the frontier.
    """
    c = np.asarray(costs, dtype=np.float64)
    v = np.asarray(values, dtype=np.float64)
    if c.shape != v.shape or c.ndim != 1:
        raise ValueError("costs and values must be equal-length 1-D")
    keep = []
    for i in range(len(c)):
        dominated = (
            (c <= c[i]) & (v <= v[i]) & ((c < c[i]) | (v < v[i]))
        ).any()
        if not dominated:
            keep.append(i)
    return keep


def run_fifo_prune(
    base_config: DecoupledConfig | None = None,
    depths: tuple[int, ...] = PRUNE_DEPTHS,
) -> ExperimentResult:
    """FIFO sizing: simulate every depth, recommend the smallest adequate."""
    base = base_config or PRUNE_BASE_CONFIG
    result = advise_stream_depth(
        lambda depth: DecoupledWorkItems(
            dataclasses.replace(base, stream_depth=depth)
        ).region,
        depths=depths,
    )
    rows = [
        [
            p.depth,
            p.cycles,
            p.total_write_stalls,
            "yes" if p.depth == result.recommended_depth else "",
        ]
        for p in result.points
    ]
    return ExperimentResult(
        experiment="FIFO sizing (exhaustive sweep)",
        headers=["depth", "simulated_cycles", "write_stalls", "recommended"],
        rows=rows,
        notes=(
            f"recommended depth {result.recommended_depth}; simulated "
            f"{len(result.points)}/{len(depths)} depths "
            f"(tolerance {result.tolerance:.0%})"
        ),
    )


def _grid(base: DecoupledConfig):
    """(config, resource cost) per point: burst buffers + channel ports."""
    configs, costs = [], []
    for n_channels in (1, 2, 3):
        for burst_words in (1, 2, 4, 8):
            configs.append(
                dataclasses.replace(
                    base, burst_words=burst_words, n_channels=n_channels
                )
            )
            # per-engine burst staging buffers plus the (much pricier)
            # extra memory-controller port
            costs.append(
                burst_words * base.n_work_items + 64 * (n_channels - 1)
            )
    return configs, costs


def run_sweep_prune(
    base_config: DecoupledConfig | None = None,
) -> ExperimentResult:
    """Exact Pareto frontier of a (burst length × channels) grid."""
    base = base_config or dataclasses.replace(
        PRUNE_BASE_CONFIG, n_work_items=4
    )
    configs, costs = _grid(base)
    cycles = [DecoupledWorkItems(cfg).run().cycles for cfg in configs]
    frontier = pareto_indices(costs, cycles)
    rows = [
        [
            cfg.burst_words,
            cfg.n_channels,
            costs[i],
            cycles[i],
            "yes" if i in frontier else "",
        ]
        for i, cfg in enumerate(configs)
    ]
    return ExperimentResult(
        experiment="Burst x channels Pareto sweep (exhaustive)",
        headers=[
            "burst_words",
            "channels",
            "cost",
            "simulated_cycles",
            "frontier",
        ],
        rows=rows,
        notes=(
            f"frontier {frontier} of {len(configs)} grid points; "
            f"simulated {len(cycles)}/{len(configs)}"
        ),
    )


#: Work-item counts for the timing-closure sweep.  The total output
#: budget (384 floats) divides evenly by every count, and the per-item
#: share stays a multiple of one 512-bit burst (16 floats), so each
#: point satisfies the decoupled design's ``limit_main %
#: (burst_words * 16) == 0`` constraint.
TIMING_PRUNE_COUNTS = (1, 2, 3, 4, 6, 8)
_TIMING_PRUNE_TOTAL_OUTPUTS = 384


def run_timing_prune(
    counts: tuple[int, ...] = TIMING_PRUNE_COUNTS,
    config: str = "Config1",
) -> ExperimentResult:
    """Timing-closure sweep: replication vs routing pressure.

    The cost axis is the Table II placement's slice count: more
    work-item replicas mean more parallel cycles *and* more routing
    pressure, and past the knee the achievable clock sags
    (:class:`repro.resources.TimingModel`).  Every point is simulated
    and the frontier is exact in cycles; the derated columns convert
    each point's cycles to wall time at its *achievable* clock — the
    frontier in time-at-closure can differ from the frontier in raw
    cycles, which is the point.
    """
    from repro.resources import DEVICE_BUDGET, ResourceModel, TimingModel

    resource_model = ResourceModel()
    timing = TimingModel()
    configs, costs, utils = [], [], []
    for n in counts:
        limit_main = _TIMING_PRUNE_TOTAL_OUTPUTS // n
        configs.append(
            dataclasses.replace(
                PRUNE_BASE_CONFIG,
                n_work_items=n,
                # one 512-bit word per burst keeps every limit_main
                # (384/n) a legal REPLOOP trip count
                burst_words=1,
                kernel=GammaKernelConfig(
                    mt_params=MT521_PARAMS, limit_main=limit_main
                ),
            )
        )
        placement = resource_model.estimate(config, n)
        costs.append(placement.totals.slices)
        utils.append(placement.totals.slices / DEVICE_BUDGET.slices)
    cycles = [DecoupledWorkItems(cfg).run().cycles for cfg in configs]
    frontier = pareto_indices(costs, cycles)
    rows = []
    for i, n in enumerate(counts):
        freq_hz = timing.achievable_hz(min(utils[i], 1.0))
        rows.append(
            [
                n,
                costs[i],
                f"{100.0 * utils[i]:.1f}%",
                f"{freq_hz / 1e6:.1f}",
                cycles[i],
                f"{1e3 * cycles[i] / freq_hz:.3f}",
                "yes" if i in frontier else "",
            ]
        )
    return ExperimentResult(
        experiment="Timing-closure sweep (exhaustive)",
        headers=[
            "work_items",
            "slices",
            "utilization",
            "derated clock [MHz]",
            "simulated_cycles",
            "derated time [ms]",
            "frontier",
        ],
        rows=rows,
        series={
            "utilization": {str(n): utils[i] for i, n in enumerate(counts)},
            "derated_hz": {
                str(n): timing.achievable_hz(min(utils[i], 1.0))
                for i, n in enumerate(counts)
            },
        },
        notes=(
            f"frontier {frontier} of {len(configs)} replication "
            f"points ({config} blocks); simulated "
            f"{len(cycles)}/{len(configs)}"
        ),
    )
