"""CLI experiment for the pipe-connected multi-kernel pipeline.

``python -m repro pipeline`` runs the three-stage pricing workload
(:mod:`repro.core.pricing`) four ways and reports one table:

* **pipelined** — three regions co-scheduled on one clock via
  :class:`~repro.core.pipes.MultiRegionRunner`,
* **fused** — the identical network in one DATAFLOW region (the
  numerical-equivalence oracle; the driver asserts device memory and
  portfolio totals match the pipelined run exactly),
* **sequential** — region-after-region, the no-overlap baseline,
* a transfer-bound variant at one vs two memory channels with
  per-region channel affinity — the multi-channel split EXPERIMENTS.md
  measures at ~2x, reproduced here as first-class pipeline config.

The notes carry the pipe-depth recommendation of an exhaustive sweep
(:func:`repro.core.fifo_sizing.advise_stream_depth` over a
:class:`~repro.core.pipes.MultiRegionRunner` per depth), so the table
documents not just the overlap but the FIFO budget needed to get it.
"""

from __future__ import annotations

import numpy as np

from repro.core.fifo_sizing import advise_stream_depth
from repro.core.kernel import GammaKernelConfig
from repro.core.pricing import (
    PricingPipelineConfig,
    build_pricing_pipeline,
    run_pricing_pipeline,
)
from repro.harness.experiments import ExperimentResult
from repro.rng.mersenne import MT521_PARAMS

__all__ = ["PIPE_SWEEP_DEPTHS", "TRANSFER_BOUND_CONFIG", "run_pipeline"]

PIPE_SWEEP_DEPTHS = (2, 4, 8, 16, 32, 64)

#: Channel-pressure variant: four work-items, short bursts (setup
#: amortizes badly) and double traffic (priced + raw archive) keep the
#: single channel saturated — the regime the multi-channel split helps.
TRANSFER_BOUND_CONFIG = PricingPipelineConfig(
    n_work_items=4,
    kernel=GammaKernelConfig(mt_params=MT521_PARAMS, limit_main=128),
    burst_words=2,
)


def run_pipeline(
    config: PricingPipelineConfig | None = None,
) -> ExperimentResult:
    """Pipelined vs fused vs sequential, plus the channel-affinity split."""
    import dataclasses

    base = config or PricingPipelineConfig()

    pipelined = run_pricing_pipeline(base, mode="pipelined")
    fused = run_pricing_pipeline(base, mode="fused")
    sequential = run_pricing_pipeline(base, mode="sequential")
    if not (
        np.array_equal(pipelined.priced(), fused.priced())
        and np.array_equal(pipelined.raw(), fused.raw())
        and pipelined.aggregate_totals == fused.aggregate_totals
    ):  # pragma: no cover - equivalence is CI-tested; belt and braces
        raise AssertionError(
            "pipelined and fused runs diverged numerically"
        )

    tb = TRANSFER_BOUND_CONFIG
    one_ch = run_pricing_pipeline(tb, mode="pipelined")
    two_ch = run_pricing_pipeline(
        dataclasses.replace(tb, n_channels=2, channel_affinity=(0, 1)),
        mode="pipelined",
    )

    rows = []
    for label, result in (
        ("pipelined", pipelined),
        ("fused", fused),
        ("sequential", sequential),
        ("transfer-bound 1ch", one_ch),
        ("transfer-bound 2ch (affinity 0,1)", two_ch),
    ):
        rows.append(
            [
                label,
                result.cycles,
                f"{result.runtime_ms:.4f}",
                result.skipped_cycles,
                f"{result.portfolio_total:.6f}",
            ]
        )

    sweep = advise_stream_depth(
        lambda depth: build_pricing_pipeline(base, pipe_depth=depth).runner,
        depths=PIPE_SWEEP_DEPTHS,
    )

    overlap = pipelined.cycles / sequential.cycles
    speedup = one_ch.cycles / two_ch.cycles
    return ExperimentResult(
        experiment="Pipe-connected pricing pipeline (3 regions)",
        headers=[
            "variant",
            "cycles",
            "runtime_ms",
            "skipped_cycles",
            "portfolio_total",
        ],
        rows=rows,
        series={
            "mode_cycles": {
                "pipelined": pipelined.cycles,
                "fused": fused.cycles,
                "sequential": sequential.cycles,
            },
            "channel_cycles": {
                "1ch": one_ch.cycles,
                "2ch": two_ch.cycles,
            },
            "pipe_depth_cycles": {
                str(p.depth): p.cycles for p in sweep.points
            },
        },
        notes=(
            f"pipelined/sequential makespan {overlap:.3f} (overlap hides "
            f"{1.0 - overlap:.0%}); second channel speedup {speedup:.2f}x "
            f"on the transfer-bound variant; pipelined == fused bit for "
            f"bit; recommended pipe depth {sweep.recommended_depth} "
            f"(simulated {len(sweep.points)}/{len(PIPE_SWEEP_DEPTHS)} depths)"
        ),
    )
