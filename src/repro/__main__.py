"""Command-line entry point: regenerate the paper's artifacts.

Usage::

    python -m repro                 # every table and figure
    python -m repro table3 fig9    # a selection
    python -m repro serve-bench    # the execution-engine throughput bench
    python -m repro --list         # available experiment names
    python -m repro --json eq1     # machine-readable results
    python -m repro --trace out.json fig3   # + Chrome trace-event file
    python -m repro trace-report out.json   # stall-attribution table
    python -m repro --faults plan.json serve-bench   # fault injection
    python -m repro chaos                   # serve-chaos on one shard
    python -m repro campaign run --db c.sqlite       # resumable campaign
    python -m repro campaign status --db c.sqlite    # row/step progress

The experiment table derives from :mod:`repro.harness.registry` on each
call of :func:`main`; new drivers register there (eagerly or lazily)
and appear here without touching this module.

``--trace`` installs a global :class:`repro.obs.ChromeTracer` for the
run, so every instrumented layer — region cycle loops, the execution
engine, the modeled device timelines — emits into one file viewable in
``chrome://tracing`` or https://ui.perfetto.dev (see
``docs/observability.md``).  ``trace-report`` reads such a file back
and prints the per-process stall-attribution table.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import time

from repro.harness import registry
from repro.harness.reporting import jsonable


def result_record(name: str, result, elapsed_s: float) -> dict:
    """One machine-readable record: name, wall time, key scalars."""
    record = {
        "name": name,
        "experiment": getattr(result, "experiment", name),
        "wall_seconds": round(elapsed_s, 4),
    }
    headers = getattr(result, "headers", None)
    rows = getattr(result, "rows", None)
    if headers and rows:
        record["headers"] = jsonable(headers)
        record["rows"] = jsonable(rows)
        # key scalars: the first row, labelled by header — enough for
        # dashboards without shipping the full series payloads
        record["scalars"] = {
            str(h): jsonable(v) for h, v in zip(headers, rows[0])
        }
    notes = getattr(result, "notes", "")
    if notes:
        record["notes"] = notes
    series = getattr(result, "series", None)
    if series:
        record["series"] = jsonable(series)
    return record


def trace_report(path: str) -> int:
    """Print the stall-attribution table(s) of an exported trace."""
    from repro.obs import reports_from_trace

    try:
        reports = reports_from_trace(path)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read trace {path!r}: {exc}", file=sys.stderr)
        return 2
    if not reports:
        print(
            f"trace {path!r} contains no cycle-attribution events "
            "(run a region experiment with --trace, e.g. "
            "`python -m repro --trace out.json fig3`)",
            file=sys.stderr,
        )
        return 1
    for report in reports:
        print(report.render())
        print()
    return 0


def request_trace_report(path: str, top: int = 10) -> int:
    """Print the critical-path decomposition of a request-trace export.

    One row per p99-tail exemplar (slowest first): where the end-to-end
    latency went — queue wait, batch formation, retries, the final
    execute — with the segments summing to the total by construction.
    """
    from repro.obs import critical_path_report, request_trace_from_json

    try:
        with open(path, encoding="utf-8") as fh:
            payload = request_trace_from_json(fh.read())
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"cannot read request trace {path!r}: {exc}", file=sys.stderr)
        return 2
    rows = critical_path_report(payload, top=top)
    if not rows:
        print(
            f"request trace {path!r} has no completed exemplars "
            "(run with --trace-requests on a workload that completes "
            "jobs, e.g. `python -m repro --trace-requests rt.json "
            "serve-tier`)",
            file=sys.stderr,
        )
        return 1
    snap = payload["request_trace"]
    print(
        f"request-trace: {snap['minted']} minted, "
        f"{snap['committed']} committed chains, "
        f"sample rate {snap['sample_rate']:g}, "
        f"terminals {snap['terminals']}"
    )
    print()
    header = (
        f"{'trace_id':<18} {'total[ms]':>10} {'queue':>8} {'batch':>8} "
        f"{'retry':>8} {'execute':>8} {'att':>4}  terminal"
    )
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row['trace_id']:<18} {1e3 * row['total_s']:>10.3f} "
            f"{1e3 * row['queue_s']:>8.3f} {1e3 * row['batch_s']:>8.3f} "
            f"{1e3 * row['retry_s']:>8.3f} {1e3 * row['execute_s']:>8.3f} "
            f"{row['attempts']:>4d}  {row['terminal']}"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    raw = sys.argv[1:] if argv is None else list(argv)
    if raw and raw[0] == "campaign":
        # the campaign CLI owns its own flags (--db, --plan, --workers);
        # dispatch before the experiment parser can reject them
        from repro.campaign.cli import main as campaign_main

        return campaign_main(raw[1:])
    experiments = registry.runners()
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="EXPERIMENT",
        help=f"subset to run (default: all). Known: {', '.join(experiments)}",
    )
    parser.add_argument(
        "--list", action="store_true", help="list experiment names and exit"
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable JSON (name, wall time, key scalars) "
        "instead of rendered tables",
    )
    parser.add_argument(
        "--trace",
        metavar="OUT.json",
        default=None,
        help="record the run as a Chrome trace-event file (open in "
        "chrome://tracing or ui.perfetto.dev); cycle-level events for "
        "region experiments, pipeline spans for serve-bench",
    )
    parser.add_argument(
        "--trace-requests",
        metavar="OUT.json",
        default=None,
        help="record per-request span chains (gateway→shard→queue→batch→"
        "worker) into OUT.json; read back with "
        "`trace-report --requests OUT.json`",
    )
    parser.add_argument(
        "--trace-sample",
        type=float,
        default=1.0,
        metavar="RATE",
        help="head-sampling rate for successful request chains under "
        "--trace-requests (errors/sheds are always kept; default 1.0)",
    )
    parser.add_argument(
        "--requests",
        action="store_true",
        help="with trace-report: the file is a --trace-requests export; "
        "print the per-request critical-path table instead of stall "
        "attribution",
    )
    parser.add_argument(
        "--faults",
        metavar="PLAN.json",
        default=None,
        help="fault-injection plan (FaultPlan JSON, see "
        "docs/resilience.md) passed to every selected experiment that "
        "accepts a `faults` parameter (serve-bench, serve-tier, "
        "serve-chaos, chaos)",
    )
    # intermixed: `trace-report --requests rt.json` puts an option
    # between positionals, which plain parse_args cannot re-enter
    args = parser.parse_intermixed_args(argv)

    if args.list:
        for name in experiments:
            print(name)
        return 0

    selected = args.experiments or list(experiments)
    if selected and selected[0] == "trace-report":
        if len(selected) != 2:
            parser.error(
                "usage: python -m repro trace-report [--requests] TRACE.json"
            )
        if args.requests:
            return request_trace_report(selected[1])
        return trace_report(selected[1])
    unknown = [name for name in selected if name not in experiments]
    if unknown:
        parser.error(f"unknown experiment(s): {', '.join(unknown)}")

    def _accepts_faults(runner) -> bool:
        try:
            return "faults" in inspect.signature(runner).parameters
        except (TypeError, ValueError):
            return False

    fault_aware: set[str] = set()
    if args.faults is not None:
        fault_aware = {
            name for name in selected if _accepts_faults(experiments[name])
        }
        if not fault_aware:
            parser.error(
                "--faults requires at least one selected experiment with "
                "a `faults` parameter (serve-bench, serve-tier, "
                "serve-chaos, chaos); "
                f"selected: {', '.join(selected)}"
            )
        # fail fast on an unreadable/invalid plan rather than deep
        # inside a driver (the engine is already imported: resolving
        # the fault-aware runners above pulled it in)
        from repro.engine.resilience import FaultPlan

        try:
            FaultPlan.from_json(args.faults)
        except (OSError, ValueError, TypeError) as exc:
            parser.error(f"cannot load fault plan {args.faults!r}: {exc}")

    tracer = None
    if args.trace is not None:
        from repro.obs import ChromeTracer, set_tracer

        tracer = ChromeTracer()
        set_tracer(tracer)

    request_log = None
    if args.trace_requests is not None:
        from repro.obs import RequestTraceLog, set_request_log

        if not 0.0 <= args.trace_sample <= 1.0:
            parser.error("--trace-sample must be in [0, 1]")
        request_log = RequestTraceLog(sample_rate=args.trace_sample)
        set_request_log(request_log)

    records = []
    for name in selected:
        t0 = time.perf_counter()
        kwargs = {"faults": args.faults} if name in fault_aware else {}
        if tracer is not None:
            with tracer.span(tracer.track("harness", "experiments"), name):
                result = experiments[name](**kwargs)
        else:
            result = experiments[name](**kwargs)
        elapsed = time.perf_counter() - t0
        if args.json:
            records.append(result_record(name, result, elapsed))
            continue
        if name == "fig8":
            # a 180-row power trace is better summarized than dumped
            watts = [w for _, w in result.rows]
            print(f"{result.experiment}: {len(watts)} samples, "
                  f"idle≈{min(watts):.0f} W, plateau≈{max(watts):.0f} W")
            print(result.notes)
        else:
            print(result.render())
        print(f"[{name}: {elapsed:.2f}s]")
        print()
    if tracer is not None:
        from repro.obs import set_tracer

        set_tracer(None)
        n_events = tracer.export(args.trace)
        print(f"trace: {n_events} events -> {args.trace}", file=sys.stderr)
    if request_log is not None:
        from repro.obs import set_request_log

        set_request_log(None)
        n_chains = request_log.export(args.trace_requests)
        snap = request_log.snapshot()
        print(
            f"request trace: {n_chains} chains "
            f"({snap['minted']} minted, terminals {snap['terminals']}) "
            f"-> {args.trace_requests}",
            file=sys.stderr,
        )
    if args.json:
        print(json.dumps(records, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
