"""Repository benchmark: five workloads over the simulator and the live tier.

Run from the repository root::

    python3 bench/run.py                                   # every workload
    python3 bench/run.py --workload serve-small --seed 7 --seconds 10 --trace 0

Each workload runs in fresh child processes (``bench/child.py``), one
after another, never in parallel.  An untraced run (``--trace 0``)
starts :data:`SETUP_SAMPLES` children: all but the last only set up
(imports and warm-up) and exit; the last also measures.  ``setup_s`` is
the median set-up time, from spawning the child to its first timed
operation.  A traced run (``--trace 1``) starts one child that reports
per-layer metrics and writes a Chrome trace to ``bench/out/``.  Without
``--workload`` every workload runs untraced, then traced.

For a single workload the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code
is non-zero when the program cannot be run (for example without
``src/``) or a child fails or times out.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

DEFAULT_SEED = 20170529
DEFAULT_SECONDS = 10.0
#: set-up samples per untraced run; setup_s is their median
SETUP_SAMPLES = 3
#: one run, set-up samples included, must end within this budget
RUN_BUDGET_S = 170.0


class ChildFailed(RuntimeError):
    """A child process exited non-zero, timed out or printed no result."""


def _child(workload: str, seed: int, seconds: float, trace: bool,
           setup_only: bool, timeout: float) -> dict:
    argv = [sys.executable, str(BENCH_DIR / "child.py"), workload, str(seed),
            repr(seconds)]
    argv += ["--trace"] * trace + ["--setup-only"] * setup_only
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, timeout),
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{workload}: child timed out after {exc.timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{workload}: child exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["setup_done_at"] - spawned_at
    return result


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run of one workload; returns the result object."""
    started = time.monotonic()

    def remaining() -> float:
        return RUN_BUDGET_S - (time.monotonic() - started)

    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(
                _child(workload, seed, seconds, False, True, remaining())["setup_s"]
            )
    result = _child(workload, seed, seconds, trace, False, remaining())
    values = dict(result["metrics"])
    if not trace:
        setups.append(result["setup_s"])
        values["setup_s"] = statistics.median(setups)
    for line in result["report"]:
        print(line)
    if setups:
        print(f"setup_s samples: {', '.join(f'{s:.3f}' for s in setups)}")
    rendered = metrics.render(values, trace)
    for name, metric in rendered.items():
        print(f"{workload:<14} {name:<34} {metric['value']:>16.6g} {metric['unit']}")
    return {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": rendered,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Repository benchmark (see bench/README.md)."
    )
    parser.add_argument("--workload", action="append", choices=metrics.WORKLOADS,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics, 1: per-layer metrics "
                        "(default: both, one after the other)")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: {SRC / 'repro'} not found; run from a repository "
              "checkout", file=sys.stderr)
        return 2
    workloads = args.workload or list(metrics.WORKLOADS)
    modes = [bool(args.trace)] if args.trace is not None else [False, True]
    results = []
    try:
        for workload in workloads:
            for trace in modes:
                results.append(run_workload(workload, args.seed, args.seconds, trace))
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        print(json.dumps(results[0]))
        return 0
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
