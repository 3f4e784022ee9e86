#!/usr/bin/env python
"""Record the simulator's headline performance numbers.

Measures, on the current machine:

* cycle-simulator throughput (cycles/second) with the scalar kernels
  (``vector_lanes=False``) and with the default vectorized numpy lanes,
* the cycle-skipping fast path's wall-clock speedup on the channel-bound
  Fig 7 workload (reference loop vs skipping loop),
* the pipe-connected pricing pipeline's cycle counts, overlap,
  channel-affinity gain and recommended pipe depth.

Writes ``BENCH_simulator.json`` (committed at the repo root so number
drift shows up in review; CI uploads the freshly measured file as an
artifact)::

    PYTHONPATH=src python tools/record_bench.py [-o BENCH_simulator.json]

``--suite serving`` records the serving-tier latency baseline instead
(``BENCH_serving.json``): the offered-load sweep of the sharded tier on
the virtual clock — p50/p99 latency, shed breakdown and goodput per
step.  Everything under ``"steps"`` is a pure function of the pinned
seed (byte-reproducible); only the environment header and
``wall_seconds`` vary per machine::

    PYTHONPATH=src python tools/record_bench.py --suite serving

``--to-db FILE`` additionally stores each measured block as a ``done``
row in a :mod:`repro.campaign` sqlite store (campaign
``bench-<suite>``, payload ``{"bench": <block>, "suite": <suite>}``),
and ``--from-db FILE`` *renders* the record from those rows instead of
re-measuring — the BENCH trajectory as a query, not a re-run::

    PYTHONPATH=src python tools/record_bench.py --suite serving --to-db bench.sqlite
    PYTHONPATH=src python tools/record_bench.py --suite serving --from-db bench.sqlite
    PYTHONPATH=src python tools/check_bench.py  --suite serving --from-db bench.sqlite
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import platform
import sys
import time


def _best_of(fn, n=3):
    """(best wall seconds, last return value) over ``n`` runs."""
    best, value = float("inf"), None
    for _ in range(n):
        t0 = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - t0)
    return best, value


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
    scalar_s, scalar = _best_of(
        lambda: DecoupledWorkItems(
            dataclasses.replace(config, vector_lanes=False)
        ).run()
    )
    vector_s, vector = _best_of(
        lambda: DecoupledWorkItems(
            dataclasses.replace(config, vector_lanes=True)
        ).run()
    )
    # a lanes-vs-lanes ratio would pass every check below
    assert {type(k) for k in scalar.kernels} == {GammaRNGProcess}
    assert {type(k) for k in vector.kernels} == {VectorGammaRNGProcess}
    assert vector.cycles == scalar.cycles, "lanes must be bit-identical"
    return {
        "cycles": scalar.cycles,
        "scalar_ms": round(1e3 * scalar_s, 1),
        "vector_ms": round(1e3 * vector_s, 1),
        "scalar_cycles_per_s": round(scalar.cycles / scalar_s),
        "vector_cycles_per_s": round(vector.cycles / vector_s),
        "vector_speedup": round(scalar_s / vector_s, 2),
    }


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

    ref_s, (ref_report, _) = _best_of(lambda: run(False))
    fast_s, (fast_report, skipped) = _best_of(lambda: run(True))
    assert fast_report.cycles == ref_report.cycles
    return {
        "cycles": ref_report.cycles,
        "skipped_cycles": skipped,
        "reference_ms": round(1e3 * ref_s, 1),
        "fast_ms": round(1e3 * fast_s, 1),
        "speedup": round(ref_s / fast_s, 2),
    }


def bench_pipeline() -> dict:
    """Pipe-connected 3-region pipeline: overlap + channel affinity.

    Everything except ``pipelined_ms`` is a deterministic function of
    the pinned configs: cycle counts, the overlap ratio (pipelined
    makespan over the stage-sequential sum), the channel-affinity gain
    on the transfer-bound variant, and the pipe-depth recommendation of
    an exhaustive sweep.
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
    pipelined_s, pipelined = _best_of(lambda: run_pricing_pipeline(cfg))
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
        "pipelined_ms": round(1e3 * pipelined_s, 1),
    }


def bench_serving() -> dict:
    """Offered-load sweep of the sharded tier (virtual clock).

    The per-step series is deterministic under the pinned seed; only
    ``wall_seconds`` (how long the simulation itself took) varies.
    """
    from repro.serve.bench import run_serve_tier

    wall_s, result = _best_of(lambda: run_serve_tier(), n=1)
    return {
        "wall_seconds": round(wall_s, 2),
        "experiment": result.experiment,
        "workload": result.series["workload"],
        "tier": result.series["tier"],
        "faults": result.series["faults"],
        "steps": result.series["steps"],
    }


#: block name → measuring function, per suite.  The campaign store's
#: ``{"bench": <block>}`` payloads resolve through this table too
#: (:func:`repro.campaign.campaign.execute_payload`), so a campaign
#: worker and ``--to-db`` record exactly the same numbers.
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

BENCHES: dict = {
    name: fn
    for blocks in SUITE_BENCHES.values()
    for name, fn in blocks.items()
}


def _env_header() -> dict:
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def measure_suite(suite: str) -> dict:
    """Measure every block of a suite (env header included)."""
    record = _env_header()
    for name, fn in SUITE_BENCHES[suite].items():
        record[name] = fn()
    return record


def store_record(db_path: str, suite: str, record: dict) -> None:
    """Persist a measured record's blocks as done campaign rows.

    One row per block in campaign ``bench-<suite>``; re-recording the
    same block replaces the previous result (latest wins) and the env
    header lands in the campaign's meta table.
    """
    from repro.campaign.store import CampaignStore

    store = CampaignStore(db_path, campaign=f"bench-{suite}")
    for name in SUITE_BENCHES[suite]:
        store.record_done({"bench": name, "suite": suite}, record[name])
    store.set_meta("python", record["python"])
    store.set_meta("machine", record["machine"])


def record_from_db(db_path: str, suite: str) -> dict:
    """Render a suite record from campaign rows (no re-measurement).

    Raises ``LookupError`` naming the missing blocks when the database
    has not recorded the full suite yet.
    """
    from repro.campaign.store import CampaignStore

    store = CampaignStore(db_path, campaign=f"bench-{suite}")
    by_block = {
        row.payload.get("bench"): row
        for row in store.rows(status="done")
        if row.payload.get("suite") == suite
    }
    missing = [n for n in SUITE_BENCHES[suite] if n not in by_block]
    if missing:
        raise LookupError(
            f"campaign 'bench-{suite}' in {db_path!r} has no done rows "
            f"for block(s): {', '.join(missing)} — record with "
            f"`record_bench.py --suite {suite} --to-db {db_path}` first"
        )
    record = {
        "python": store.get_meta("python") or platform.python_version(),
        "machine": store.get_meta("machine") or platform.machine(),
    }
    for name in SUITE_BENCHES[suite]:
        record[name] = by_block[name].result
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "-o", "--output", default=None,
        help="output path (default: BENCH_<suite>.json)",
    )
    parser.add_argument(
        "--suite", choices=("simulator", "serving"), default="simulator",
        help="benchmark suite to record (default: %(default)s)",
    )
    parser.add_argument(
        "--to-db", metavar="FILE", default=None,
        help="also store each measured block as a done campaign row",
    )
    parser.add_argument(
        "--from-db", metavar="FILE", default=None,
        help="render the record from campaign rows instead of measuring",
    )
    args = parser.parse_args(argv)
    if args.from_db and args.to_db:
        parser.error("--from-db and --to-db are mutually exclusive")
    if args.from_db:
        try:
            record = record_from_db(args.from_db, args.suite)
        except LookupError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    else:
        record = measure_suite(args.suite)
        if args.to_db:
            store_record(args.to_db, args.suite, record)
            print(f"stored {args.suite} blocks -> {args.to_db}",
                  file=sys.stderr)
    # with --to-db the store is the destination: only write the JSON
    # file when asked explicitly, so a CI `--to-db` run cannot clobber
    # the committed BENCH_<suite>.json baseline it will be gated against
    if args.output is None and args.to_db:
        return 0
    output = args.output or f"BENCH_{args.suite}.json"
    with open(output, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(json.dumps(record, indent=2))
    print(f"\nwrote {output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
