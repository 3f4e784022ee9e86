"""Campaign driver: registry runners as claimable grid rows.

A :class:`CampaignPlan` names a grid of row payloads plus an optional
calibration payload; :func:`run_campaign` seeds the grid into a
:class:`~repro.campaign.store.CampaignStore` and executes the standard
four-step DAG::

    calibrate -> sweep -> validate -> report

* **calibrate** runs the plan's calibration payload once (for the
  default plans: a pinned gamma-kernel run measuring the rejection
  rate and effective initiation interval) and persists the result as
  step state;
* **sweep** seeds the grid rows (idempotent — identity is the config
  hash) and drains ``pending`` rows, either in-process or with N
  claimed-row worker subprocesses; a resumed sweep only sees rows that
  are still pending, so ``done`` work is never recomputed;
* **validate** checks every row resolved ``done`` and every stored
  result is structurally sound;
* **report** renders the deterministic campaign report (no wall-clock
  content, rows ordered by config hash) and stores it under the
  ``report`` meta key — the byte-identical-after-resume artifact.

Row payloads come in two kinds::

    {"experiment": "fifo-prune", "kwargs": {...}}   # registry runner
    {"spec": "pkg.module:callable", "kwargs": {...}}  # direct import
"""

from __future__ import annotations

import os
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from typing import Callable

from repro.campaign.dag import Step, StepDAG
from repro.campaign.store import CampaignRow, CampaignStore
from repro.harness.reporting import jsonable

__all__ = [
    "CampaignPlan",
    "PLANS",
    "build_dag",
    "calibrate_gamma",
    "execute_payload",
    "render_report",
    "run_campaign",
    "run_worker",
]


# ---------------------------------------------------------------------------
# payload execution
# ---------------------------------------------------------------------------


def _resolve_spec(spec: str) -> Callable:
    import importlib

    module_name, _, attr = spec.partition(":")
    if not module_name or not attr:
        raise ValueError(f"payload spec must be 'module:callable', got {spec!r}")
    return getattr(importlib.import_module(module_name), attr)


def result_to_json(result) -> dict:
    """Serialize a driver's return value for the ``result`` column.

    ``ExperimentResult``-shaped objects keep their structured fields;
    plain dicts pass through; anything else lands under ``value``.
    Everything is coerced with the same :func:`jsonable` the ``--json``
    CLI path uses, so a row's stored result matches what the CLI would
    have printed.
    """
    headers = getattr(result, "headers", None)
    rows = getattr(result, "rows", None)
    if headers is not None and rows is not None:
        return {
            "experiment": getattr(result, "experiment", ""),
            "headers": jsonable(headers),
            "rows": jsonable(rows),
            "series": jsonable(getattr(result, "series", {}) or {}),
            "notes": getattr(result, "notes", ""),
        }
    if isinstance(result, dict):
        return jsonable(result)
    return {"value": jsonable(result)}


def execute_payload(payload: dict) -> dict:
    """Run one row payload and return its JSON-able result."""
    kwargs = payload.get("kwargs", {}) or {}
    if "experiment" in payload:
        from repro.harness import registry

        runner = registry.get_runner(payload["experiment"])
    elif "spec" in payload:
        runner = _resolve_spec(payload["spec"])
    else:
        raise ValueError(
            f"payload needs one of 'experiment' or 'spec': {payload!r}"
        )
    return result_to_json(runner(**kwargs))


def payload_label(payload: dict) -> str:
    """Short human label for a payload (report and status tables)."""
    # a row of neither kind fails when run; its label must still render
    label = payload.get("experiment") or payload.get("spec") or repr(payload)
    kwargs = payload.get("kwargs") or {}
    if kwargs:
        inner = ",".join(f"{k}={kwargs[k]!r}" for k in sorted(kwargs))
        label += f"({inner})"
    return label


# ---------------------------------------------------------------------------
# the worker loop
# ---------------------------------------------------------------------------


def run_worker(
    store: CampaignStore,
    worker_id: str | None = None,
    max_rows: int | None = None,
) -> dict[str, int]:
    """Claim and execute pending rows until the grid drains.

    A row whose payload raises is marked ``failed`` (full traceback in
    the ``error`` column) and the loop moves on — one broken config
    must not wedge the campaign.  Returns ``{"done": n, "failed": m}``
    for this worker's share.
    """
    if worker_id is None:
        worker_id = f"{os.uname().nodename}:{os.getpid()}"
    tally = {"done": 0, "failed": 0}
    while max_rows is None or sum(tally.values()) < max_rows:
        row = store.claim(worker_id)
        if row is None:
            break
        try:
            result = execute_payload(row.payload)
        except Exception:
            store.fail(row.id, traceback.format_exc())
            tally["failed"] += 1
        else:
            store.finish(row.id, result)
            tally["done"] += 1
    return tally


def _spawn_workers(store: CampaignStore, n_workers: int) -> None:
    """Drain the grid with ``n_workers`` claimed-row subprocesses."""
    import repro

    env = dict(os.environ)
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_root, env.get("PYTHONPATH")) if p
    )
    procs = [
        subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "campaign",
                "worker",
                "--db",
                store.path,
                "--campaign",
                store.campaign,
            ],
            env=env,
        )
        for _ in range(n_workers)
    ]
    failures = [p.wait() for p in procs]
    bad = [code for code in failures if code != 0]
    if bad:
        raise RuntimeError(
            f"{len(bad)}/{len(procs)} campaign workers exited non-zero: {bad}"
        )


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------


def calibrate_gamma() -> dict:
    """Pinned gamma-kernel calibration run: the pooled rejection rate and
    the kernels' cycles per MAINLOOP iteration (active plus II-bubble
    cycles over iterations, the effective initiation interval)."""
    from repro.core.decoupled import DecoupledWorkItems
    from repro.harness.sweeps import PRUNE_BASE_CONFIG

    result = DecoupledWorkItems(PRUNE_BASE_CONFIG).run()
    stats = [result.report.process_stats[k.name] for k in result.kernels]
    busy = sum(s.active_cycles + s.pipeline_cycles for s in stats)
    iterations = sum(s.iterations for s in stats)
    return {
        "cycles": result.cycles,
        "rejection_rate": round(result.rejection_rate, 6),
        "cycles_per_iteration": round(busy / iterations, 6),
    }


@dataclass(frozen=True)
class CampaignPlan:
    """A named grid of row payloads plus the calibration payload."""

    name: str
    grid: tuple = ()
    calibrate: dict | None = field(
        default_factory=lambda: {
            "spec": "repro.campaign.campaign:calibrate_gamma"
        }
    )
    seed: int | None = 20170529


#: The paper campaign: every registry sweep/pipeline/serving driver as
#: one claimable row.  ``mini`` is the CI/test-sized grid (sub-second
#: analytic drivers only).
PLANS: dict[str, CampaignPlan] = {
    "default": CampaignPlan(
        name="default",
        grid=(
            {"experiment": "fifo-prune", "kwargs": {}},
            {"experiment": "sweep-prune", "kwargs": {}},
            {"experiment": "timing-prune", "kwargs": {}},
            {"experiment": "pipeline", "kwargs": {}},
            {"experiment": "serve-tier", "kwargs": {}},
        ),
    ),
    "mini": CampaignPlan(
        name="mini",
        grid=(
            {"experiment": "eq1", "kwargs": {}},
            {"experiment": "table1", "kwargs": {}},
            {"experiment": "rejection", "kwargs": {}},
            {"experiment": "buffers", "kwargs": {}},
            {"experiment": "variance", "kwargs": {}},
            {"experiment": "fig2", "kwargs": {}},
        ),
    ),
}


# ---------------------------------------------------------------------------
# the standard DAG
# ---------------------------------------------------------------------------


def render_report(
    store: CampaignStore, calibration: dict | None = None
) -> str:
    """Deterministic campaign report: provenance-free, query-rendered.

    Rows are ordered by config hash and carry no timestamps, worker
    ids or git shas, so an interrupted-then-resumed campaign renders
    byte-identically to an uninterrupted one — the acceptance bar for
    resume correctness.
    """
    from repro.harness.reporting import format_table

    rows = sorted(store.rows(), key=lambda r: r.config_hash)
    table = []
    for row in rows:
        summary = ""
        if row.status == "done" and row.result is not None:
            notes = row.result.get("notes", "")
            summary = notes.splitlines()[0] if notes else ""
            if not summary and row.result.get("rows"):
                first = row.result["rows"][0]
                summary = ", ".join(str(c) for c in first[:4])
        elif row.status == "failed":
            summary = (row.error or "").strip().splitlines()[-1:] or [""]
            summary = summary[0]
        table.append(
            [
                row.config_hash,
                payload_label(row.payload),
                row.status,
                summary,
            ]
        )
    lines = [
        f"campaign: {store.campaign}",
        f"rows: {len(rows)}",
    ]
    if calibration:
        pairs = ", ".join(
            f"{k}={calibration[k]}" for k in sorted(calibration)
        )
        lines.append(f"calibration: {pairs}")
    lines.append("")
    lines.append(
        format_table(["config", "payload", "status", "summary"], table)
    )
    return "\n".join(lines) + "\n"


def build_dag(
    store: CampaignStore,
    plan: CampaignPlan,
    workers: int = 1,
) -> StepDAG:
    """The standard ``calibrate -> sweep -> validate -> report`` DAG."""
    if workers < 1:
        raise ValueError("workers must be >= 1")

    def calibrate(store: CampaignStore, upstream: dict) -> dict:
        if plan.calibrate is None:
            return {}
        return execute_payload(plan.calibrate)

    def sweep(store: CampaignStore, upstream: dict) -> dict:
        store.add_rows(list(plan.grid), seed=plan.seed)
        if workers == 1:
            run_worker(store)
        else:
            _spawn_workers(store, workers)
        counts = store.counts()
        if counts["pending"] or counts["claimed"]:
            raise RuntimeError(
                f"sweep did not drain the grid: {counts} — a worker "
                "died mid-row; run `campaign resume`"
            )
        return counts

    def validate(store: CampaignStore, upstream: dict) -> dict:
        problems: list[str] = []
        rows = store.rows()
        for row in rows:
            if row.status != "done":
                problems.append(
                    f"row {row.id} ({payload_label(row.payload)}) is "
                    f"{row.status}"
                )
                continue
            if not isinstance(row.result, dict):
                problems.append(f"row {row.id} has a non-dict result")
        if problems:
            raise RuntimeError(
                "campaign validation failed:\n  " + "\n  ".join(problems)
            )
        return {"validated": len(rows)}

    def report(store: CampaignStore, upstream: dict) -> dict:
        text = render_report(store, calibration=upstream.get("calibrate"))
        store.set_meta("report", text)
        return {"report": text}

    return StepDAG(
        store,
        [
            Step("calibrate", calibrate),
            Step("sweep", sweep, after=("calibrate",)),
            Step("validate", validate, after=("sweep",)),
            Step("report", report, after=("calibrate", "validate")),
        ],
    )


def run_campaign(
    db_path: str,
    plan: CampaignPlan | str = "default",
    workers: int = 1,
    resume: bool = True,
    seed_only: bool = False,
) -> dict:
    """Seed and run (or resume) a campaign; returns states + counts.

    ``resume=True`` (the default) releases orphaned claims and skips
    ``done`` DAG steps, so calling this on an interrupted database
    continues exactly where the campaign stopped.  ``seed_only`` seeds
    the grid rows and returns without executing the DAG — the shape CI
    uses to stage a crash-and-resume scenario explicitly.
    """
    if isinstance(plan, str):
        try:
            plan = PLANS[plan]
        except KeyError:
            raise ValueError(
                f"unknown plan {plan!r}; known: {', '.join(PLANS)}"
            ) from None
    store = CampaignStore(db_path, campaign=plan.name)
    store.set_meta("seed", plan.seed)
    store.set_meta("grid", list(plan.grid))
    if seed_only:
        ids = store.add_rows(list(plan.grid), seed=plan.seed)
        return {"seeded": len(ids), "counts": store.counts()}
    if resume:
        store.release_claims()
    dag = build_dag(store, plan, workers=workers)
    states = dag.run(resume=resume)
    return {
        "states": states,
        "counts": store.counts(),
        "steps": dag.status(),
    }
