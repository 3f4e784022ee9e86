"""Bench: the sharded serving tier vs a single engine at saturation.

The acceptance experiment for `repro.serve`: the same heavy-tailed
workload family drives (a) a single-shard tier — the pre-tier engine
behaviour — and (b) the 4-shard consistent-hash tier, each offered
load well past its knee.  Offered load scales with shard count so both
tiers saturate at a comparable shed rate; throughput is compared on
the virtual-time simulation (jobs per simulated second of makespan),
which is deterministic across hosts.  The pytest-benchmark timing
tracks the real host-side simulation cost.
"""

import json

import pytest

from repro.serve import (
    DEFAULT_LOAD_MULTIPLIERS,
    TierSpec,
    WorkloadSpec,
    default_serve_chaos_plan,
    generate_trace,
    offered_load_sweep,
    run_serve_chaos,
    simulate_tier,
)

#: Past the single-shard knee (~4.0k jobs/s at 2 workers) by ~1.5x, so
#: the tier is shedding and throughput measures capacity, not arrivals.
SATURATION_SPEC = WorkloadSpec(seed=20170529, n_jobs=3000, rate_jps=6000.0)

SINGLE = TierSpec(n_shards=1, workers_per_shard=2)
QUAD = TierSpec(n_shards=4, workers_per_shard=2)


def test_four_shards_sustain_3x_single_engine(benchmark):
    """>= 3x single-engine saturation throughput at equal shed rate."""
    single = simulate_tier(generate_trace(SATURATION_SPEC), SINGLE)
    quad = benchmark(
        lambda: simulate_tier(
            generate_trace(SATURATION_SPEC.scaled(4.0)), QUAD
        )
    )
    ratio = quad["throughput_jps"] / single["throughput_jps"]
    print(
        f"\nsaturation throughput: {single['throughput_jps']:.0f} -> "
        f"{quad['throughput_jps']:.0f} jobs/s ({ratio:.2f}x), shed "
        f"{single['shed_rate']:.3f} vs {quad['shed_rate']:.3f}"
    )
    # both tiers are saturated (shedding), at comparable rates
    assert single["shed_rate"] > 0.2 and quad["shed_rate"] > 0.2
    assert quad["shed_rate"] == pytest.approx(single["shed_rate"], abs=0.1)
    assert ratio >= 3.0


def test_sharding_spreads_the_key_space(benchmark):
    """No shard starves: batching keys land on every shard."""
    report = benchmark(
        lambda: simulate_tier(generate_trace(SATURATION_SPEC.scaled(4.0)), QUAD)
    )
    per_shard = report["per_shard_completed"]
    assert len(per_shard) == 4
    assert all(count > 0 for count in per_shard.values())
    # consistent hashing is not perfectly uniform, but no shard should
    # carry more than half the tier's completions
    assert max(per_shard.values()) < 0.5 * report["completed"]


def test_chaos_plan_completes_with_zero_unresolved(benchmark):
    """Wall-clock chaos replay against the live sharded tier."""
    plan = default_serve_chaos_plan(seed=20170529)
    result = benchmark.pedantic(
        lambda: run_serve_chaos(
            n_jobs=120,
            n_shards=4,
            workers_per_shard=2,
            seed=20170529,
            speedup=20.0,
            faults=plan,
        ),
        rounds=1,
        iterations=1,
    )
    (row,) = result.rows
    unresolved = row[-1]
    assert unresolved == 0
    offered, completed = row[0], row[1]
    assert offered == 120
    # degradation is graceful: most jobs still complete under faults
    assert completed >= 0.5 * offered


@pytest.mark.serve_soak
def test_offered_load_sweep_is_deterministic_at_scale(benchmark):
    """The full BENCH_serving sweep, twice, byte-identical."""
    spec = WorkloadSpec(seed=20170529, n_jobs=2000, rate_jps=1500.0)
    sweep = benchmark.pedantic(
        lambda: offered_load_sweep(spec, DEFAULT_LOAD_MULTIPLIERS, QUAD),
        rounds=1,
        iterations=1,
    )
    again = offered_load_sweep(spec, DEFAULT_LOAD_MULTIPLIERS, QUAD)
    assert json.dumps(sweep, sort_keys=True) == json.dumps(
        again, sort_keys=True
    )
    goodput = [step["throughput_jps"] for step in sweep]
    assert max(goodput) > 3 * goodput[0]
