"""Surrogate-pruned sweep drivers (``fifo-prune``, ``sweep-prune``).

These CLI experiments exercise :mod:`repro.surrogate` end to end on the
same config family the exhaustive sweeps use: score the whole grid with
the calibrated surrogate, cycle-simulate only the surviving candidates,
and report predicted-vs-simulated cycles per point so the pruning is
auditable from the rendered table (``-`` marks points the surrogate
ruled out without simulation).
"""

from __future__ import annotations

import dataclasses

from repro.core.decoupled import DecoupledConfig
from repro.core.kernel import GammaKernelConfig
from repro.core.memory import MemoryChannelConfig
from repro.harness.experiments import ExperimentResult
from repro.rng.mersenne import MT521_PARAMS

__all__ = [
    "PRUNE_BASE_CONFIG",
    "PRUNE_DEPTHS",
    "TIMING_PRUNE_COUNTS",
    "run_fifo_prune",
    "run_sweep_prune",
    "run_timing_prune",
]

#: The depth-sensitive configuration the fifo_sizing tests sweep —
#: the default vectorized lanes + the short Mersenne Twister keep one
#: simulation cheap enough that pruning headroom, not Python overhead,
#: dominates.
PRUNE_BASE_CONFIG = DecoupledConfig(
    n_work_items=2,
    kernel=GammaKernelConfig(mt_params=MT521_PARAMS, limit_main=128),
    burst_words=2,
    channel=MemoryChannelConfig(setup_cycles=40, cycles_per_word=2),
)

PRUNE_DEPTHS = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64)


def run_fifo_prune(
    base_config: DecoupledConfig | None = None,
    depths: tuple[int, ...] = PRUNE_DEPTHS,
) -> ExperimentResult:
    """FIFO sizing via the surrogate-pruned sweep."""
    from repro.surrogate import pruned_stream_depth_sweep

    base = base_config or PRUNE_BASE_CONFIG
    result = pruned_stream_depth_sweep(base, depths=depths)
    simulated = {p.depth: p for p in result.points}
    rows = []
    for depth in depths:
        point = simulated.get(depth)
        rows.append(
            [
                depth,
                round(result.predicted[depth], 1),
                point.cycles if point else "-",
                point.total_write_stalls if point else "-",
                "yes" if depth == result.recommended_depth else "",
            ]
        )
    return ExperimentResult(
        experiment="FIFO sizing (surrogate-pruned sweep)",
        headers=[
            "depth",
            "predicted_cycles",
            "simulated_cycles",
            "write_stalls",
            "recommended",
        ],
        rows=rows,
        series={
            "predicted": {str(d): result.predicted[d] for d in depths},
        },
        notes=(
            f"recommended depth {result.recommended_depth}; simulated "
            f"{len(result.simulated_depths)}/{len(depths)} depths "
            f"(margin {result.margin:.3f}, max LOO error "
            f"{result.fit.max_relative_error:.3f}, "
            f"tolerance {result.tolerance:.0%})"
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
    """Pareto frontier of a (burst length × channels) grid, pruned."""
    from repro.surrogate import pruned_grid_sweep

    base = base_config or dataclasses.replace(
        PRUNE_BASE_CONFIG, n_work_items=4
    )
    configs, costs = _grid(base)
    result = pruned_grid_sweep(configs, costs)
    frontier = set(result.frontier_indices)
    rows = []
    for i, (cfg, cost) in enumerate(zip(configs, costs)):
        rows.append(
            [
                cfg.burst_words,
                cfg.n_channels,
                cost,
                round(float(result.predicted[i]), 1),
                result.simulated_cycles.get(i, "-"),
                "yes" if i in frontier else "",
            ]
        )
    return ExperimentResult(
        experiment="Burst x channels Pareto sweep (surrogate-pruned)",
        headers=[
            "burst_words",
            "channels",
            "cost",
            "predicted_cycles",
            "simulated_cycles",
            "frontier",
        ],
        rows=rows,
        notes=(
            f"frontier {sorted(frontier)} of {len(configs)} grid points; "
            f"simulated {len(result.candidate_indices)} "
            f"(margin {result.margin:.3f}, max LOO error "
            f"{result.fit.max_relative_error:.3f})"
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
    """Timing-closure sweep: replication vs routing pressure, pruned.

    The cost axis is the Table II placement's slice count: more
    work-item replicas mean more parallel cycles *and* more routing
    pressure, and past the knee the achievable clock sags
    (:class:`repro.resources.TimingModel`).  The surrogate prunes the
    cycle simulations exactly as in the burst/channel sweep; the
    derated columns then convert surviving cycle counts to wall time at
    each point's *achievable* clock — the frontier in time-at-closure
    can differ from the frontier in raw cycles, which is the point.
    """
    from repro.resources import DEVICE_BUDGET, ResourceModel, TimingModel
    from repro.surrogate import pruned_grid_sweep

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
    result = pruned_grid_sweep(configs, costs)
    frontier = set(result.frontier_indices)
    rows = []
    for i, n in enumerate(counts):
        freq_hz = timing.achievable_hz(min(utils[i], 1.0))
        cycles = result.simulated_cycles.get(i)
        rows.append(
            [
                n,
                costs[i],
                f"{100.0 * utils[i]:.1f}%",
                f"{freq_hz / 1e6:.1f}",
                round(float(result.predicted[i]), 1),
                cycles if cycles is not None else "-",
                (
                    f"{1e3 * cycles / freq_hz:.3f}"
                    if cycles is not None
                    else "-"
                ),
                "yes" if i in frontier else "",
            ]
        )
    return ExperimentResult(
        experiment="Timing-closure sweep (surrogate-pruned)",
        headers=[
            "work_items",
            "slices",
            "utilization",
            "derated clock [MHz]",
            "predicted_cycles",
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
            f"frontier {sorted(frontier)} of {len(configs)} replication "
            f"points ({config} blocks); simulated "
            f"{len(result.candidate_indices)} "
            f"(margin {result.margin:.3f}, max LOO error "
            f"{result.fit.max_relative_error:.3f})"
        ),
    )
