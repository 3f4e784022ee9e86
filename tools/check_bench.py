#!/usr/bin/env python
"""Regression gate over the committed ``BENCH_*.json`` baselines.

``tools/record_bench.py`` records two kinds of numbers side by side:
deterministic outputs (cycle counts, recommended depths, the entire
serving-tier step series under its pinned seed) and machine-dependent
wall-clock measurements (``*_ms``, ``*_per_s``, ``wall_seconds``,
speedups).  This gate re-measures a suite and diffs it against the
committed baseline with **per-metric tolerance bands**: deterministic
values must match to float precision, wall-time-derived ratios get a
wide band, and raw timings are skipped entirely (they say more about
the CI machine than about the code).

Usage::

    PYTHONPATH=src python tools/check_bench.py --suite serving
    PYTHONPATH=src python tools/check_bench.py --suite simulator --report-only
    PYTHONPATH=src python tools/check_bench.py --suite serving --fresh new.json
    PYTHONPATH=src python tools/check_bench.py --suite serving --from-db bench.sqlite

Without ``--fresh``/``--from-db`` the suite is re-run in process (same
code path as ``record_bench.py``).  ``--from-db`` renders the fresh
record from a :mod:`repro.campaign` sqlite store instead (rows written
by ``record_bench.py --to-db``), so the gate runs without repeating the
measurement.  ``--report-only`` prints the full comparison but always
exits 0 — the mode CI uses while a baseline is being reworked.

Tolerance bands (first match on the dotted metric path wins, so the
metric-shaped rules — skips, speedups — come before the block-scoped
catch-alls)::

    python, machine, *wall_seconds, *_ms, *_per_s   skipped
    *speedup*                                       rel <= 0.75
    pipeline.* and everything else                  rel <= 1e-6 / exact
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import math
import os
import sys

__all__ = ["DEFAULT_RULES", "compare_records", "main", "tolerance_for"]

#: (path glob, rule) pairs; rule is "skip", "exact", or a max relative
#: error.  Paths are dotted (list indices included): e.g.
#: ``serving.steps.3.latency_s.p99`` or ``fastpath.speedup``.
DEFAULT_RULES: tuple = (
    ("python", "skip"),
    ("machine", "skip"),
    ("*wall_seconds", "skip"),
    ("*_ms", "skip"),
    ("*_per_s", "skip"),
    # metric-shaped rules must precede block-scoped catch-alls:
    # first match wins, so with `pipeline.*` ahead of `*speedup*` a
    # future pipeline speedup metric would silently inherit the exact
    # band instead of the wall-clock one (regression-tested in
    # tests/tools/test_check_bench.py::TestRulePrecedence)
    ("*speedup*", 0.75),
    # the rest of the pipeline block is deterministic end to end
    # (cycle counts and ratios of cycle counts): the exact band
    ("pipeline.*", 1e-6),
    ("*", 1e-6),
)


def tolerance_for(path: str, rules=DEFAULT_RULES):
    """First matching rule for a dotted metric path (None == no rule)."""
    for pattern, rule in rules:
        if fnmatch.fnmatchcase(path, pattern):
            return rule
    return None


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _subtree_flaggable(path: str, value, rules) -> bool:
    """Would any leaf under ``path`` produce a finding if it drifted?

    An absent key is only worth a ``missing``/``extra`` finding when
    the vanished subtree contains at least one non-skipped leaf.  This
    check recurses, so the verdict for a key is identical whether its
    subtree disappears wholesale or leaf by leaf — and it is applied to
    baseline-only and fresh-only keys alike.
    """
    if tolerance_for(path, rules) == "skip":
        return False
    if isinstance(value, dict):
        return any(
            _subtree_flaggable(f"{path}.{key}", child, rules)
            for key, child in value.items()
        )
    if isinstance(value, list):
        return any(
            _subtree_flaggable(f"{path}.{i}", item, rules)
            for i, item in enumerate(value)
        )
    return True


def _numbers_match(baseline: float, fresh: float, tol: float) -> bool:
    if math.isnan(baseline) or math.isnan(fresh):
        return math.isnan(baseline) and math.isnan(fresh)
    if baseline == fresh:
        return True
    scale = max(abs(baseline), abs(fresh), 1e-12)
    return abs(fresh - baseline) / scale <= tol


def compare_records(baseline, fresh, rules=DEFAULT_RULES) -> list:
    """Diff two benchmark records; one finding dict per violation.

    Findings carry ``path``, ``kind`` (``missing``/``extra``/
    ``mismatch``/``type``), the two values and the applied tolerance.
    Skipped paths produce no findings; structure changes do — a metric
    vanishing from the record is drift worth reviewing even when its
    values were exempt.  Absent-key detection is symmetric: a
    baseline-only key flags ``missing`` and a fresh-only key flags
    ``extra`` under exactly the same rule — the finding is suppressed
    only when *every* leaf of the vanished subtree is skipped (so
    dropping ``{"wall_seconds": …}`` wholesale is as silent as
    dropping its one skipped leaf).
    """
    findings: list = []

    def flag_absent(child: str, kind: str, base, new) -> None:
        value = base if kind == "missing" else new
        if _subtree_flaggable(child, value, rules):
            findings.append(
                {"path": child, "kind": kind, "baseline": base, "fresh": new}
            )

    def visit(path: str, base, new) -> None:
        rule = tolerance_for(path, rules) if path else None
        if rule == "skip":
            return
        if isinstance(base, dict) and isinstance(new, dict):
            for key in base:
                child = f"{path}.{key}" if path else str(key)
                if key not in new:
                    flag_absent(child, "missing", base[key], None)
                else:
                    visit(child, base[key], new[key])
            for key in new:
                child = f"{path}.{key}" if path else str(key)
                if key not in base:
                    flag_absent(child, "extra", None, new[key])
            return
        if isinstance(base, list) and isinstance(new, list):
            if len(base) != len(new):
                findings.append(
                    {"path": path, "kind": "mismatch",
                     "baseline": f"len {len(base)}", "fresh": f"len {len(new)}"}
                )
                return
            for i, (b, n) in enumerate(zip(base, new)):
                visit(f"{path}.{i}", b, n)
            return
        if _is_number(base) and _is_number(new):
            tol = rule if isinstance(rule, (int, float)) else 0.0
            if not _numbers_match(float(base), float(new), float(tol)):
                findings.append(
                    {"path": path, "kind": "mismatch",
                     "baseline": base, "fresh": new, "tolerance": tol}
                )
            return
        if type(base) is not type(new):
            findings.append(
                {"path": path, "kind": "type",
                 "baseline": base, "fresh": new}
            )
            return
        if base != new:
            findings.append(
                {"path": path, "kind": "mismatch",
                 "baseline": base, "fresh": new}
            )

    visit("", baseline, fresh)
    return findings


def _record_bench():
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import record_bench

    return record_bench


def _measure_suite(suite: str) -> dict:
    """Re-run a suite in process, mirroring ``record_bench.main``."""
    return _record_bench().measure_suite(suite)


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
        help="pre-recorded fresh run to compare instead of re-measuring",
    )
    parser.add_argument(
        "--from-db", metavar="FILE", default=None,
        help="render the fresh record from a campaign sqlite store "
        "(rows written by record_bench.py --to-db) instead of "
        "re-measuring",
    )
    parser.add_argument(
        "--report-only", action="store_true",
        help="print the comparison but exit 0 regardless of drift",
    )
    args = parser.parse_args(argv)
    if args.fresh is not None and args.from_db is not None:
        parser.error("--fresh and --from-db are mutually exclusive")
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
    elif args.from_db is not None:
        try:
            fresh = _record_bench().record_from_db(args.from_db, args.suite)
        except (LookupError, OSError) as exc:
            print(str(exc), file=sys.stderr)
            return 2
    else:
        fresh = _measure_suite(args.suite)

    findings = compare_records(baseline, fresh)
    checked = args.suite
    if not findings:
        print(f"check_bench[{checked}]: OK — fresh run matches "
              f"{baseline_path} within tolerance")
        return 0
    print(f"check_bench[{checked}]: {len(findings)} metric(s) drifted "
          f"from {baseline_path}:")
    for f in findings:
        tol = f.get("tolerance")
        band = f" (tol {tol:g})" if tol is not None else ""
        print(f"  {f['kind']:<8} {f['path']}: "
              f"baseline={f['baseline']!r} fresh={f['fresh']!r}{band}")
    if args.report_only:
        print("report-only: not failing the build")
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
