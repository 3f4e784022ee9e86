"""Request-tracing overhead: always-on tracing must stay under 10%.

The acceptance bar for the request-trace pipeline, the serving-tier
analogue of ``test_obs_overhead.py``'s tracer bar: with a
:class:`~repro.obs.RequestTraceLog` installed and **every** request
traced (sample rate 1.0, eight-ish spans per request), the live tier's
end-to-end throughput drops by less than 10% against the same run with
tracing off.  The budget holds because the hot path records raw tuples
(the ``SpanEvent`` dataclasses materialize at read time) and takes two
uncontended-in-practice locks per hop — a few µs per request against a
payload measured in hundreds of µs.
"""

import time
from contextlib import nullcontext

from repro.engine.jobs import GammaJob
from repro.obs import RequestTraceLog, use_request_log
from repro.serve.gateway import AdmissionGateway, TenantPolicy
from repro.serve.sharding import ShardedEngine

WAVE = 400  # jobs sent together, about 0.15 s at ~2,700 jobs/s
#: timed seconds per run, in whole waves: a single wave is too short to
#: outlast the tier's start-up and the host's swings (consecutive
#: single-wave runs differed by -19 % to +25 % on a shared 2-vCPU host)
MIN_RUN_S = 1.0
VARIANCES = (0.35, 1.39, 4.45)  # three batch keys, spread over shards


def _throughput(log) -> tuple[float, int]:
    """Jobs/s and jobs sent for one gateway→tier run with ``log`` installed.

    Waves of ``WAVE`` jobs go through until ``MIN_RUN_S`` of admit and
    wait time has passed; building a wave's jobs is not timed.
    """
    with ShardedEngine(
        n_shards=2, n_workers=2, queue_depth=256, max_batch=8
    ) as tier:
        gateway = AdmissionGateway(
            tier, default_policy=TenantPolicy(rate=1e6, burst=1e6)
        )
        sent, elapsed = 0, 0.0
        while elapsed < MIN_RUN_S:
            jobs = [
                GammaJob(
                    config="Config1",
                    variance=VARIANCES[i % len(VARIANCES)],
                    n_samples=2048,
                    seed=sent + i,
                )
                for i in range(WAVE)
            ]
            t0 = time.perf_counter()
            with use_request_log(log) if log is not None else nullcontext():
                handles = [gateway.admit_sync("t", j) for j in jobs]
                for h in handles:
                    h.result(timeout=60)
            elapsed += time.perf_counter() - t0
            sent += WAVE
        return sent / elapsed, sent


def test_tracing_on_costs_under_ten_percent():
    # interleaved (off, on, off, on, ...) so that a host-speed swing
    # lands on both sides instead of reading as tracing cost
    off, on, logs = [], [], []
    for _ in range(5):
        off.append(_throughput(None)[0])
        logs.append(RequestTraceLog())
        rate, sent = _throughput(logs[-1])
        on.append(rate)
    off, on = max(off), max(on)
    cost = 1.0 - on / off
    print(
        f"\nuntraced {off:.0f} jobs/s, traced {on:.0f} jobs/s, "
        f"cost {100 * cost:+.1f}%"
    )
    # every traced run really captured every request
    assert logs[-1].snapshot()["minted"] == sent
    assert on > off * 0.90, (
        f"always-on tracing costs {100 * cost:.1f}% throughput (> 10%)"
    )


def test_emit_cost_is_a_few_microseconds():
    """The per-hop budget the <10% bar rests on."""
    log = RequestTraceLog()
    n = 20_000
    ctxs = [log.mint(i) for i in range(n)]
    t0 = time.perf_counter()
    for ctx in ctxs:
        ctx.emit("queue", "wait", t=0.0, dur=0.1, engine="shard0")
    per_emit = (time.perf_counter() - t0) / n
    print(f"\n{1e6 * per_emit:.2f} us/emit")
    assert per_emit < 10e-6, f"emit costs {1e6 * per_emit:.1f} µs (>= 10)"


def test_untraced_jobs_pay_only_a_none_check():
    """With no log installed the instrumentation is `job.trace is None`
    checks; a traced-capable tier must not mint or retain anything."""
    log = RequestTraceLog()
    _throughput(None)  # no log installed
    assert log.snapshot()["minted"] == 0
