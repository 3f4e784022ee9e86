"""The live tier keeps flat memory however many requests it serves.

Requests enter through :meth:`AdmissionGateway.submit` (the asyncio
bridge) and cross the whole tier: gateway, ring, shard queue, batch,
device worker, and back through the bridge's future.  Every request
comes from a new tenant, so the gateway's tenant map sees each one.
The traced-heap growth from the end of a warm-up to the end of the run
must stay under 64 B per request, with no request log and with a
``RequestTraceLog(capacity=64)``, whose ring is full before the
measured window opens.  A tier that kept each request's ``JobHandle``
(its job, result and done event) would grow by about 3 KB per request.
"""

import asyncio
import contextlib
import gc
import tracemalloc

import pytest

from repro.engine.jobs import GammaJob
from repro.obs import RequestTraceLog, use_request_log
from repro.serve.gateway import AdmissionGateway
from repro.serve.sharding import ShardedEngine

WARM_REQUESTS = 500
TOTAL_REQUESTS = 3000
WAVE = 25  # requests in flight at once; a shard queue holds 64
VARIANCES = (0.5, 0.75, 1.39, 1.5)  # Config1 keys: two on each shard
MAX_GROWTH_PER_REQUEST = 64


def _traced_bytes() -> int:
    gc.collect()
    return tracemalloc.get_traced_memory()[0]


async def _serve(gateway: AdmissionGateway, first: int, last: int) -> None:
    for start in range(first, last, WAVE):
        futures = [
            await gateway.submit(
                f"tenant{i}",
                GammaJob(
                    variance=VARIANCES[i % len(VARIANCES)],
                    n_samples=256,
                    seed=i,
                ),
            )
            for i in range(start, min(start + WAVE, last))
        ]
        await asyncio.gather(*futures)


async def _growth_per_request(gateway: AdmissionGateway) -> float:
    await _serve(gateway, 0, WARM_REQUESTS)
    warm = _traced_bytes()
    await _serve(gateway, WARM_REQUESTS, TOTAL_REQUESTS)
    return (_traced_bytes() - warm) / (TOTAL_REQUESTS - WARM_REQUESTS)


@pytest.mark.parametrize("traced", [False, True], ids=["no-log", "log"])
def test_tier_memory_is_flat_in_request_count(traced):
    log = RequestTraceLog(capacity=64) if traced else None
    scope = use_request_log(log) if traced else contextlib.nullcontext()
    with scope, ShardedEngine(n_shards=2, n_workers=2) as tier:
        gateway = AdmissionGateway(tier)
        tracemalloc.start()
        try:
            per_request = asyncio.run(_growth_per_request(gateway))
        finally:
            tracemalloc.stop()
    assert per_request < MAX_GROWTH_PER_REQUEST, (
        f"tier retained {per_request:.1f} B per request"
    )
    assert gateway.snapshot()["gateway.completed"] == TOTAL_REQUESTS
    assert all(s.stats().jobs_completed for s in tier.shards.values())
    if traced:
        snap = log.snapshot()
        assert snap["minted"] == TOTAL_REQUESTS
        assert snap["committed"] == 64
