#!/usr/bin/env python
"""Regression gate over the committed ``BENCH_*.json`` baselines.

``tools/record_bench.py`` records only simulated outputs: cycle counts,
skipped cycles, the pipeline block and the serving tier's seeded step
series.  This gate re-runs a suite and diffs it against the committed
baseline exactly: numbers must agree to a relative 1e-6 (room for
float formatting, none for drift), every other leaf must be equal, and
every missing or extra key is flagged.

Usage::

    PYTHONPATH=src python tools/check_bench.py --suite serving
    PYTHONPATH=src python tools/check_bench.py --suite serving --fresh new.json

Without ``--fresh`` the suite is re-run in process (same code path as
``record_bench.py``).  Exit 0 when the records match, 1 on drift, 2
when a record cannot be read.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

__all__ = ["compare_records", "main"]

#: largest relative difference two numbers may show and still match
REL_TOL = 1e-6


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _numbers_match(baseline: float, fresh: float) -> bool:
    if math.isnan(baseline) or math.isnan(fresh):
        return math.isnan(baseline) and math.isnan(fresh)
    if baseline == fresh:
        return True
    scale = max(abs(baseline), abs(fresh), 1e-12)
    return abs(fresh - baseline) / scale <= REL_TOL


def compare_records(baseline, fresh) -> list:
    """Diff two benchmark records; one finding dict per violation.

    Findings carry ``path`` (dotted, list indices included: e.g.
    ``serving.steps.3.latency_s.p99``), ``kind`` (``missing``/``extra``/
    ``mismatch``/``type``) and the two values.  A key present on one
    side only flags once, at its own path, whatever it holds.
    """
    findings: list = []

    def flag(path: str, kind: str, base, new) -> None:
        findings.append(
            {"path": path, "kind": kind, "baseline": base, "fresh": new}
        )

    def visit(path: str, base, new) -> None:
        if isinstance(base, dict) and isinstance(new, dict):
            for key in base:
                child = f"{path}.{key}" if path else str(key)
                if key in new:
                    visit(child, base[key], new[key])
                else:
                    flag(child, "missing", base[key], None)
            for key in new:
                if key not in base:
                    child = f"{path}.{key}" if path else str(key)
                    flag(child, "extra", None, new[key])
        elif isinstance(base, list) and isinstance(new, list):
            if len(base) != len(new):
                flag(path, "mismatch", f"len {len(base)}", f"len {len(new)}")
                return
            for i, (b, n) in enumerate(zip(base, new)):
                visit(f"{path}.{i}", b, n)
        elif _is_number(base) and _is_number(new):
            if not _numbers_match(float(base), float(new)):
                flag(path, "mismatch", base, new)
        elif type(base) is not type(new):
            flag(path, "type", base, new)
        elif base != new:
            flag(path, "mismatch", base, new)

    visit("", baseline, fresh)
    return findings


def _measure_suite(suite: str) -> dict:
    """Re-run a suite in process, mirroring ``record_bench.main``."""
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import record_bench

    return record_bench.measure_suite(suite)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--suite", choices=("simulator", "serving"), default="simulator",
        help="benchmark suite to check (default: %(default)s)",
    )
    parser.add_argument(
        "--baseline", default=None,
        help="committed baseline (default: BENCH_<suite>.json)",
    )
    parser.add_argument(
        "--fresh", default=None,
        help="pre-recorded fresh run to compare instead of re-running",
    )
    args = parser.parse_args(argv)
    baseline_path = args.baseline or f"BENCH_{args.suite}.json"
    try:
        with open(baseline_path, encoding="utf-8") as fh:
            baseline = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read baseline {baseline_path!r}: {exc}",
              file=sys.stderr)
        return 2
    if args.fresh is not None:
        try:
            with open(args.fresh, encoding="utf-8") as fh:
                fresh = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"cannot read fresh record {args.fresh!r}: {exc}",
                  file=sys.stderr)
            return 2
    else:
        fresh = _measure_suite(args.suite)

    findings = compare_records(baseline, fresh)
    if not findings:
        print(f"check_bench[{args.suite}]: OK — fresh run matches "
              f"{baseline_path}")
        return 0
    print(f"check_bench[{args.suite}]: {len(findings)} value(s) drifted "
          f"from {baseline_path}:")
    for f in findings:
        print(f"  {f['kind']:<8} {f['path']}: "
              f"baseline={f['baseline']!r} fresh={f['fresh']!r}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
