"""A device worker keeps flat memory however many batches it serves.

One :class:`DeviceWorker` executes a stream of 65536-sample
:class:`GammaJob` batches (256 KB of results each) and the outcomes are
dropped at once, as the engine does after resolving the jobs.  The
traced-heap growth between batch 10 and batch 60 must stay under
4 KB per batch: a worker that kept a result buffer or a readback copy
per batch would grow by hundreds of KB per batch.
"""

import gc
import tracemalloc

from repro.engine import Batch, DeviceWorker, GammaJob

N_SAMPLES = 65536  # 256 KB of float32 results per batch
WARM_BATCHES = 10
TOTAL_BATCHES = 60
MAX_GROWTH_PER_BATCH = 4096


def _serve(worker: DeviceWorker, first: int, last: int) -> None:
    for seed in range(first, last):
        worker.execute(Batch(jobs=[GammaJob(seed=seed, n_samples=N_SAMPLES)]))


def _traced_bytes() -> int:
    gc.collect()
    return tracemalloc.get_traced_memory()[0]


def test_worker_memory_is_flat_in_batch_count():
    worker = DeviceWorker("soak")
    tracemalloc.start()
    try:
        _serve(worker, 0, WARM_BATCHES)
        warm = _traced_bytes()
        _serve(worker, WARM_BATCHES, TOTAL_BATCHES)
        grown = _traced_bytes() - warm
    finally:
        tracemalloc.stop()
    per_batch = grown / (TOTAL_BATCHES - WARM_BATCHES)
    assert per_batch < MAX_GROWTH_PER_BATCH, (
        f"worker retained {per_batch:.0f} B per batch"
    )
    assert worker.batches_done == TOTAL_BATCHES
