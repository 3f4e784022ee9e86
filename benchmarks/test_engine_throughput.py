"""Bench: the execution engine vs serial one-job-at-a-time execution.

The acceptance experiment for `repro.engine`: the same deterministic
job mix runs (a) serially — one device, one job per transaction, the
pre-engine host behaviour, run as the engine with one worker and
``max_batch=1`` — and (b) through the engine with batching and a pool
of >= 2 device workers.  Throughput is compared on the modeled device
timeline (jobs per simulated device-second of makespan), which is
deterministic across hosts; the pytest-benchmark timing tracks the
real host-side orchestration cost.
"""

import numpy as np
import pytest

from repro.engine import ExecutionEngine, make_job_mix, run_serve_bench

N_JOBS = 48
N_SAMPLES = 1024


@pytest.fixture(scope="module")
def serial_stats():
    stats, _ = _engine_stats(n_workers=1, max_batch=1)
    return stats


def _engine_stats(n_workers=2, max_batch=8, policy="fifo"):
    engine = ExecutionEngine(
        n_workers=n_workers, max_batch=max_batch, policy=policy
    )
    with engine:
        results = engine.run(make_job_mix(N_JOBS, N_SAMPLES))
    assert len(results) == N_JOBS
    return engine.stats(), results


def test_engine_beats_serial_throughput(serial_stats):
    """Batching + 2 devices sustain strictly higher job throughput."""
    stats, _ = _engine_stats(n_workers=2, max_batch=8)
    assert stats.jobs_completed == serial_stats.jobs_completed == N_JOBS
    assert stats.modeled_throughput_jps > serial_stats.modeled_throughput_jps
    # both levers contribute: the speedup exceeds the device count alone
    assert (
        stats.modeled_throughput_jps
        > 2 * 0.9 * serial_stats.modeled_throughput_jps
    )


def test_batching_alone_beats_serial(serial_stats):
    """Even on a single device, coalescing amortizes fixed costs."""
    stats, _ = _engine_stats(n_workers=1, max_batch=8)
    assert stats.modeled_throughput_jps > serial_stats.modeled_throughput_jps


def test_multi_device_scales_makespan(serial_stats):
    """More devices shrink the modeled makespan (least-loaded placement,
    which balances on the modeled backlog rather than host-thread
    racing, so the comparison is stable)."""
    makespans = []
    for n_workers in (1, 2, 4):
        stats, _ = _engine_stats(
            n_workers=n_workers, max_batch=8, policy="least-loaded"
        )
        makespans.append(stats.modeled_makespan_s)
    assert makespans[0] > makespans[1] > makespans[2]


def test_engine_payloads_match_serial(serial_stats):
    """Throughput gains change nothing about the numbers produced."""
    _, results = _engine_stats(n_workers=2, max_batch=8)
    expected = [job.compute() for job in make_job_mix(N_JOBS, N_SAMPLES)]
    # job ids are assigned in creation order, so sorting the results by
    # id re-aligns them with the (seed-ordered) mix
    ordered = sorted(results, key=lambda r: r.job_id)
    for reference, result in zip(expected, ordered):
        np.testing.assert_array_equal(reference, result.payload)


def test_serve_bench_regenerates(benchmark, show):
    """The serve-bench driver end to end, timed."""
    result = benchmark.pedantic(
        run_serve_bench,
        kwargs=dict(n_jobs=32, n_samples=512, n_workers=2, max_batch=8),
        iterations=1,
        rounds=3,
    )
    show(result)
    serial_row, engine_row = result.rows
    assert engine_row[5] > serial_row[5]  # jobs/s (modeled)
    assert engine_row[6] > 1.0  # speedup


def test_policy_throughput_spread(show):
    """Both pickup rules complete the mix; report their makespans."""
    rows = []
    for policy in ("fifo", "least-loaded"):
        stats, _ = _engine_stats(n_workers=2, max_batch=8, policy=policy)
        rows.append((policy, stats.modeled_makespan_s))
        assert stats.jobs_completed == N_JOBS
    # any policy must stay within 4x of the best (no pathological skew)
    best = min(m for _, m in rows)
    assert all(m <= 4 * best for _, m in rows)
