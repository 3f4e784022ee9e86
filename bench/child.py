"""One workload in a fresh process: ``python bench/child.py ARGS``.

``bench/run.py`` starts this script once per set-up sample and once for
the measured run, so each run pays its own imports and warm-up, and
``ru_maxrss`` belongs to that workload alone.  The last line of stdout
is one JSON object:

``setup_done_at``
    ``time.monotonic()`` when set-up ended (the parent subtracts its
    spawn time, so set-up includes interpreter start and imports).
``correct``, ``attempted``, ``failed``
    Outcome of the correctness checks; ``failed`` counts wrong results,
    non-deadline job errors and failed checks.
``metrics``
    Raw metric values by name; ``report`` is human-readable lines.

With ``--setup-only`` only ``setup_done_at`` is printed.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import metrics

OUT_DIR = Path(__file__).resolve().parent / "out"


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=metrics.WORKLOADS)
    parser.add_argument("seed", type=int)
    parser.add_argument("seconds", type=float)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if args.workload.startswith("serve-"):
        from serve_workloads import run_serve as run
    else:
        from sim_workloads import run_sim as run
    result = run(
        args.workload,
        args.seed,
        args.seconds,
        trace=args.trace,
        setup_only=args.setup_only,
        out_dir=OUT_DIR if args.trace else None,
    )
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
