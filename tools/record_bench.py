#!/usr/bin/env python
"""Record the simulator's and the serving tier's deterministic outputs.

The ``simulator`` suite (``BENCH_simulator.json``) pins:

* the cycle count of a two-sector decoupled region, which the scalar
  kernels and the vectorized numpy lanes must both reach,
* the cycles and skipped cycles of the channel-bound Fig 7 workload,
  which the reference loop and the cycle-skipping loop must both reach,
* the pipe-connected pricing pipeline's cycle counts, overlap,
  channel-affinity gain and recommended pipe depth.

The ``serving`` suite (``BENCH_serving.json``) pins the offered-load
sweep of the sharded tier on the virtual clock: p50/p99 latency, shed
breakdown and goodput per step, all a pure function of the pinned seed.

Every value is simulated, not timed, so a re-run on any host writes
the same file; ``tools/check_bench.py`` gates it exactly.  Host speed
is measured by ``bench/run.py`` and the floors under ``benchmarks/``::

    PYTHONPATH=src python tools/record_bench.py [--suite serving] [-o FILE]
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys


def bench_lane_throughput() -> dict:
    """Scalar vs vectorized simulation of the same decoupled region."""
    from repro.core.decoupled import DecoupledConfig, DecoupledWorkItems
    from repro.core.kernel import GammaKernelConfig, GammaRNGProcess
    from repro.core.lanes import VectorGammaRNGProcess

    config = DecoupledConfig(
        n_work_items=6,
        kernel=GammaKernelConfig(
            limit_main=512, sector_variances=(1.39, 0.5)
        ),
    )
    scalar = DecoupledWorkItems(
        dataclasses.replace(config, vector_lanes=False)
    ).run()
    vector = DecoupledWorkItems(
        dataclasses.replace(config, vector_lanes=True)
    ).run()
    # a lanes-vs-lanes comparison would pass every check below
    assert {type(k) for k in scalar.kernels} == {GammaRNGProcess}
    assert {type(k) for k in vector.kernels} == {VectorGammaRNGProcess}
    assert vector.cycles == scalar.cycles, "lanes must be bit-identical"
    return {"cycles": scalar.cycles}


def bench_fastpath() -> dict:
    """Reference loop vs cycle-skipping loop on the Fig 7 workload."""
    from repro.core.decoupled import build_transfer_only_region

    kwargs = dict(
        n_work_items=6, values_per_item=4096, burst_words=1, stream_depth=2
    )

    def run(fast_path):
        region, _, _ = build_transfer_only_region(**kwargs)
        report = region.run(fast_path=fast_path)
        return report, region.skipped_cycles

    ref_report, _ = run(False)
    fast_report, skipped = run(True)
    assert fast_report.cycles == ref_report.cycles
    return {"cycles": ref_report.cycles, "skipped_cycles": skipped}


def bench_pipeline() -> dict:
    """Pipe-connected 3-region pipeline: overlap + channel affinity.

    Cycle counts, the overlap ratio (pipelined makespan over the
    stage-sequential sum), the channel-affinity gain on the
    transfer-bound variant, and the pipe-depth recommendation of an
    exhaustive sweep.
    """
    from repro.core.fifo_sizing import advise_stream_depth
    from repro.core.pricing import (
        PricingPipelineConfig,
        build_pricing_pipeline,
        run_pricing_pipeline,
    )
    from repro.harness.pipelines import (
        PIPE_SWEEP_DEPTHS,
        TRANSFER_BOUND_CONFIG,
    )

    cfg = PricingPipelineConfig()
    pipelined = run_pricing_pipeline(cfg)
    fused = run_pricing_pipeline(cfg, mode="fused")
    sequential = run_pricing_pipeline(cfg, mode="sequential")
    assert pipelined.portfolio_total == fused.portfolio_total
    overlap = pipelined.cycles / sequential.cycles
    assert overlap < 0.85, "co-scheduling must hide stage latency"

    one = run_pricing_pipeline(TRANSFER_BOUND_CONFIG)
    two = run_pricing_pipeline(
        dataclasses.replace(
            TRANSFER_BOUND_CONFIG, n_channels=2, channel_affinity=(0, 1)
        )
    )
    sweep = advise_stream_depth(
        lambda depth: build_pricing_pipeline(cfg, pipe_depth=depth).runner,
        depths=PIPE_SWEEP_DEPTHS,
    )
    return {
        "pipelined_cycles": pipelined.cycles,
        "fused_cycles": fused.cycles,
        "sequential_cycles": sequential.cycles,
        "overlap_ratio": round(overlap, 4),
        "skipped_cycles": pipelined.skipped_cycles,
        "portfolio_total": round(pipelined.portfolio_total, 6),
        "transfer_bound_1ch_cycles": one.cycles,
        "transfer_bound_2ch_cycles": two.cycles,
        "channel_gain": round(one.cycles / two.cycles, 2),
        "recommended_pipe_depth": sweep.recommended_depth,
    }


def bench_serving() -> dict:
    """Offered-load sweep of the sharded tier (virtual clock)."""
    from repro.serve.bench import run_serve_tier

    result = run_serve_tier()
    return {
        "experiment": result.experiment,
        "workload": result.series["workload"],
        "tier": result.series["tier"],
        "faults": result.series["faults"],
        "steps": result.series["steps"],
    }


#: block name → recording function, per suite
SUITE_BENCHES: dict = {
    "simulator": {
        "lane_throughput": bench_lane_throughput,
        "fastpath": bench_fastpath,
        "pipeline": bench_pipeline,
    },
    "serving": {
        "serving": bench_serving,
    },
}


def measure_suite(suite: str) -> dict:
    """Run every block of a suite once."""
    return {name: fn() for name, fn in SUITE_BENCHES[suite].items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "-o", "--output", default=None,
        help="output path (default: BENCH_<suite>.json)",
    )
    parser.add_argument(
        "--suite", choices=tuple(SUITE_BENCHES), default="simulator",
        help="benchmark suite to record (default: %(default)s)",
    )
    args = parser.parse_args(argv)
    record = measure_suite(args.suite)
    output = args.output or f"BENCH_{args.suite}.json"
    with open(output, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(json.dumps(record, indent=2))
    print(f"\nwrote {output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
