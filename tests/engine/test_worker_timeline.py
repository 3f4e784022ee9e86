"""The worker's modeled device clock against the OpenCL command queue.

:class:`DeviceWorker` advances a running clock by the kernel time plus
one PCIe read of the batch's combined result.  That is the arithmetic
an in-order :class:`repro.opencl.CommandQueue` does for an
``enqueue_task`` followed by an ``enqueue_read_buffer``.  These tests
replay every executed batch through a fresh queue on the paper's
platform and require the timelines and the modeled trace spans to be
identical, not close.
"""

import numpy as np
import pytest

from repro.engine import Batch, DeviceWorker, GammaJob
from repro.obs import ChromeTracer, use_tracer
from repro.opencl import Context, KernelHandle, MemFlag, paper_platform

SIZES = (1, 3, 64, 257, 1000, 4096)
VARIANCES = (1.39, 0.5, 0.35)


def _batches(seed: int, n: int = 12) -> list[Batch]:
    """Seeded mixed-size batches: 1-4 jobs of one key each."""
    rng = np.random.default_rng(seed)
    batches = []
    for _ in range(n):
        variance = float(rng.choice(VARIANCES))
        batches.append(Batch(jobs=[
            GammaJob(
                seed=int(rng.integers(1 << 30)),
                variance=variance,
                n_samples=int(rng.choice(SIZES)),
            )
            for _ in range(int(rng.integers(1, 5)))
        ]))
    return batches


def _oracle(worker: DeviceWorker, executed: list) -> tuple:
    """The same commands through a fresh in-order queue.

    Returns the queue and each batch's timeline advance.
    """
    context = Context(paper_platform(), worker.device_name)
    queue = context.create_queue()
    advances = []
    for batch, outcome in executed:
        kernel_s = sum(outcome.device_seconds)
        t0 = queue.now
        queue.enqueue_task(KernelHandle(
            name=f"batch{batch.batch_id}_{worker.configuration.name}",
            time_model=lambda device, ndrange: kernel_s,
        ))
        nbytes = max(4, -(-batch.result_bytes() // 4) * 4)
        queue.enqueue_read_buffer(context.create_buffer(
            f"batch{batch.batch_id}_result", nbytes, MemFlag.WRITE_ONLY
        ))
        advances.append(queue.finish() - t0)
    return queue, advances


@pytest.mark.parametrize("device_name, seed", [("FPGA", 5), ("CPU", 6)])
def test_clock_and_spans_equal_the_command_queue(device_name, seed):
    worker = DeviceWorker(f"w-{device_name}", device_name=device_name)
    with use_tracer(ChromeTracer()) as tracer:
        executed = [(b, worker.execute(b)) for b in _batches(seed)]
    queue, advances = _oracle(worker, executed)

    assert [o.batch_device_seconds for _, o in executed] == advances
    assert worker.device_busy_s == queue.now

    oracle_tracer = ChromeTracer()
    queue.export_trace(
        oracle_tracer,
        process="devices (modeled)",
        thread=f"{worker.name} [{device_name}]",
    )

    def modeled(t):
        return [e for e in t.events() if e.get("cat") == "modeled"]

    assert len(modeled(tracer)) == 2 * len(executed)
    assert modeled(tracer) == modeled(oracle_tracer)

