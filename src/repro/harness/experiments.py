"""Experiment drivers — one per paper table/figure.

Every driver returns an :class:`ExperimentResult`: structured rows plus
the paper's reference values where the paper publishes them, and a
``render()`` that prints the same artifact the paper shows.  The
benchmark suite (benchmarks/) wraps these one-to-one.

Scale note: statistical experiments (Fig 6) and schedule experiments
(Fig 3-like behavior) run the cycle-accurate simulator at reduced
sample counts; runtime/energy tables use the calibrated analytic models
at full paper scale.  DESIGN.md §2 records why that split preserves the
relevant behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core import (
    DecoupledConfig,
    DecoupledWorkItems,
    MemoryChannelConfig,
    build_transfer_only_region,
    transfer_only_cycles,
)
from repro.devices import (
    FixedArchitectureModel,
    FpgaModel,
    attempt_profile,
    eq1_theoretical_runtime,
    measured_path_rates,
)
from repro.harness.configs import CONFIGURATIONS
from repro.harness.registry import register
from repro.harness.reporting import format_series, format_table
from repro.opencl import (
    Context,
    NDRange,
    PAPER_DEVICES,
    combine_at_device_level,
    combine_at_host_level,
    paper_platform,
)
from repro.paper import (
    EQ1_PREDICTIONS_MS,
    FIG9_FPGA_EFFICIENCY,
    MEASURED_BANDWIDTH_GBPS,
    OPTIMAL_LOCAL_SIZES,
    REJECTION_RATES,
    SETUP,
    TABLE2_UTILIZATION,
    TABLE3_RUNTIME_MS,
)
from repro.power import MeasurementProtocol, PowerModel, VirtualMultimeter
from repro.resources import ResourceModel

__all__ = [
    "ExperimentResult",
    "run_fig2",
    "run_fig3",
    "run_variance_sweep",
    "run_table1",
    "run_table2",
    "run_table3",
    "run_fig5a",
    "run_fig5b",
    "run_fig6",
    "run_fig7",
    "run_fig8",
    "run_fig9",
    "run_eq1",
    "run_rejection_rates",
    "run_buffer_combining",
]

FIXED_DEVICES = ("CPU", "GPU", "PHI")


@dataclass
class ExperimentResult:
    """Uniform container for a regenerated table/figure."""

    experiment: str
    headers: list[str]
    rows: list[list]
    series: dict = field(default_factory=dict)
    notes: str = ""

    def render(self) -> str:
        out = format_table(self.headers, self.rows, title=self.experiment)
        if self.notes:
            out += f"\n{self.notes}"
        return out

    def column(self, header: str) -> list:
        idx = self.headers.index(header)
        return [row[idx] for row in self.rows]


# ---------------------------------------------------------------------------
# helpers shared by the runtime/energy drivers
# ---------------------------------------------------------------------------


def _measured_rejection(config_name: str) -> float:
    cfg = CONFIGURATIONS[config_name]
    key = "marsaglia_bray" if cfg.transform == "marsaglia_bray" else "icdf_fpga"
    return 1.0 - measured_path_rates(key, SETUP.sector_variance).combined_accept


def _fixed_runtime_ms(device: str, config_name: str, icdf_style: str) -> float:
    cfg = CONFIGURATIONS[config_name]
    model = FixedArchitectureModel(PAPER_DEVICES[device])
    profile = attempt_profile(
        cfg.transform, SETUP.sector_variance, icdf_style=icdf_style
    )
    ndrange = NDRange(SETUP.global_size, OPTIMAL_LOCAL_SIZES[device])
    est = model.estimate(
        profile, ndrange, SETUP.outputs_per_work_item, cfg.state_words
    )
    return est.milliseconds


def _fpga_runtime_ms(config_name: str) -> float:
    cfg = CONFIGURATIONS[config_name]
    model = FpgaModel(n_work_items=cfg.fpga_work_items)
    est = model.estimate(
        SETUP.total_outputs, SETUP.num_sectors, _measured_rejection(config_name)
    )
    return est.milliseconds


def model_runtime_ms(setup_key: str) -> float:
    """Runtime of one Table III row key on its platform-appropriate model."""
    # setup keys look like "Config1", "Config3_cuda", "Config4_fpga_style"
    parts = setup_key.split("_", 1)
    return _fpga_runtime_ms(parts[0])


# ---------------------------------------------------------------------------
# Fig 2 — lockstep vs decoupled execution
# ---------------------------------------------------------------------------


@register("fig2", "lockstep vs decoupled execution (Fig 2)")
def run_fig2(
    width: int = 8, quota: int = 4, variance: float | None = None
) -> ExperimentResult:
    """Fig 2: lockstep divergence (a/b) vs decoupled execution (c).

    Simulates a width-W partition running the Marsaglia-Bray nested
    kernel's acceptance process at the measured rejection rate and
    reports the lane-efficiency of each execution style.
    """
    from repro.devices import simulate_partition
    from repro.devices.lockstep_sim import render_fig2

    v = SETUP.sector_variance if variance is None else variance
    p = measured_path_rates("marsaglia_bray", v).combined_accept
    rows = []
    for label, w, prob in (
        ("(a) lockstep, static branches", width, 1.0),
        ("(b) lockstep, divergent", width, p),
        ("(c) decoupled", 1, p),
    ):
        res = simulate_partition(w, quota, prob, runs=400, seed=7)
        rows.append(
            [label, w, round(res.mean_iterations, 2), round(res.efficiency, 3)]
        )
    return ExperimentResult(
        experiment="Fig 2: work-item execution on fixed vs FPGA architectures",
        headers=["style", "partition width", "iters/quota run", "lane efficiency"],
        rows=rows,
        notes=render_fig2(accept_prob=p, width=min(width, 8), quota=quota),
    )


# ---------------------------------------------------------------------------
# §IV-E extension — sensitivity to the sector variance
# ---------------------------------------------------------------------------


@register("variance", "rejection/runtime vs sector variance")
def run_variance_sweep(
    variances: tuple[float, ...] = (0.1, 0.35, 1.39, 10.0, 100.0)
) -> ExperimentResult:
    """Rejection rate and FPGA runtime across sector variances.

    Extends the paper's §IV-E spot values (v = 0.1 / 1.39 / 100) into a
    full sensitivity curve: how the workload's divergence — and with it
    the FPGA's compute bound — moves with the CreditRisk+ sector
    variance.
    """
    rows = []
    for v in variances:
        mb = measured_path_rates("marsaglia_bray", v)
        ic = measured_path_rates("icdf_fpga", v)
        r_mb = 1.0 - mb.combined_accept
        r_ic = 1.0 - ic.combined_accept
        t_mb = FpgaModel(n_work_items=6).estimate(
            SETUP.total_outputs, SETUP.num_sectors, r_mb
        )
        t_ic = FpgaModel(n_work_items=8).estimate(
            SETUP.total_outputs, SETUP.num_sectors, r_ic
        )
        rows.append(
            [v, round(r_mb, 4), round(t_mb.milliseconds), t_mb.bound,
             round(r_ic, 4), round(t_ic.milliseconds), t_ic.bound]
        )
    return ExperimentResult(
        experiment="Sensitivity: rejection and FPGA runtime vs sector variance",
        headers=["variance", "r (MB)", "FPGA ms (MB)", "bound",
                 "r (ICDF)", "FPGA ms (ICDF)", "bound"],
        rows=rows,
        notes=(
            "MB configs stay compute-bound and track r; ICDF configs stay "
            "pinned to the transfer bound regardless of v"
        ),
    )


# ---------------------------------------------------------------------------
# Fig 3 — the C/T schedule
# ---------------------------------------------------------------------------


@register("fig3", "work-item C/T schedule (Fig 3)")
def run_fig3(
    n_work_items: int = 4, limit_main: int = 128, burst_words: int = 1
) -> ExperimentResult:
    """Fig 3: work-item schedule in time (C = computation, T = transfer).

    Traces the cycle-accurate region and reports, per work-item, the
    first channel grant (the t_X phase shift) and the overall
    compute/transfer overlap.
    """
    from repro.core import trace_region

    region = DecoupledWorkItems(
        DecoupledConfig(
            n_work_items=n_work_items,
            kernel=CONFIGURATIONS["Config2"].kernel_config(limit_main=limit_main),
            burst_words=burst_words,
        )
    ).region
    trace = trace_region(region)
    shifts = trace.phase_shift()
    rows = [
        [name, shift, trace.lanes[name].count("T")]
        for name, shift in sorted(shifts.items())
    ]
    return ExperimentResult(
        experiment="Fig 3: work-items schedule (C = compute, T = transfer)",
        headers=["engine", "first grant (t_X)", "channel cycles"],
        rows=rows,
        series={"lanes": {k: "".join(v) for k, v in trace.lanes.items()}},
        notes=(
            trace.render(max_width=96)
            + f"\noverlap fraction: {trace.overlap_fraction():.1%}"
        ),
    )


# ---------------------------------------------------------------------------
# Table I — configurations
# ---------------------------------------------------------------------------


@register("table1", "application configurations (Table I)")
def run_table1() -> ExperimentResult:
    """Regenerate Table I from the configuration registry."""
    rows = []
    for cfg in CONFIGURATIONS.values():
        rows.append(
            [
                cfg.name,
                "Marsaglia-Bray" if cfg.transform == "marsaglia_bray" else "ICDF",
                cfg.exponent,
                f"2^({cfg.exponent}-1)",
                cfg.state_words,
            ]
        )
    return ExperimentResult(
        experiment="Table I: Simulation Setup — Application Configurations",
        headers=["Config", "U->N Transformation", "Exponent", "Period", "States"],
        rows=rows,
    )


# ---------------------------------------------------------------------------
# Table II — resources
# ---------------------------------------------------------------------------


@register("table2", "FPGA resource utilization (Table II)")
def run_table2() -> ExperimentResult:
    """Regenerate Table II from the resource model, with paper deltas."""
    model = ResourceModel()
    table = model.table2()
    rows = []
    for config, util in table.items():
        paper = TABLE2_UTILIZATION[config]
        rows.append(
            [
                config,
                int(util["work_items"]),
                util["Slice"],
                paper["Slice"],
                util["DSP"],
                paper["DSP"],
                util["BRAM"],
                paper["BRAM"],
            ]
        )
    return ExperimentResult(
        experiment="Table II: FPGA P&R Resources Utilization [%]",
        headers=[
            "Config", "WorkItems",
            "Slice", "Slice(paper)",
            "DSP", "DSP(paper)",
            "BRAM", "BRAM(paper)",
        ],
        rows=rows,
        notes="all configurations slice-limited, as in the paper",
    )


# ---------------------------------------------------------------------------
# Table III — runtimes
# ---------------------------------------------------------------------------

#: (table row key, config, icdf style on fixed platforms)
TABLE3_ROWS = [
    ("Config1", "Config1", "cuda"),
    ("Config2", "Config2", "cuda"),
    ("Config3_cuda", "Config3", "cuda"),
    ("Config3_fpga_style", "Config3", "fpga"),
    ("Config4_cuda", "Config4", "cuda"),
    ("Config4_fpga_style", "Config4", "fpga"),
]


@register("table3", "runtimes on all platforms (Table III)")
def run_table3() -> ExperimentResult:
    """Regenerate Table III: runtime [ms] for the given setup."""
    rows = []
    for key, config, style in TABLE3_ROWS:
        row = [key]
        for dev in FIXED_DEVICES:
            row.append(_fixed_runtime_ms(dev, config, style))
            row.append(TABLE3_RUNTIME_MS[key][dev])
        fpga = _fpga_runtime_ms(config)
        row.append(fpga)
        row.append(TABLE3_RUNTIME_MS[key]["FPGA"])
        rows.append(row)
    headers = ["Setup"]
    for dev in (*FIXED_DEVICES, "FPGA"):
        headers += [dev, f"{dev}(paper)"]
    return ExperimentResult(
        experiment="Table III: Runtime [ms] for the given Setup",
        headers=headers,
        rows=rows,
        notes=(
            "fixed platforms: calibrated lockstep model; FPGA: decoupled-"
            "pipeline + channel model at the Table II work-item counts"
        ),
    )


# ---------------------------------------------------------------------------
# Fig 5 — localSize / globalSize sweeps
# ---------------------------------------------------------------------------


@register("fig5a", "runtime vs localSize (Fig 5a)")
def run_fig5a(
    config_name: str = "Config1",
    local_sizes: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256),
) -> ExperimentResult:
    """Fig 5a: runtime vs localSize on the fixed platforms."""
    cfg = CONFIGURATIONS[config_name]
    series: dict[str, dict] = {}
    optima = {}
    for dev in FIXED_DEVICES:
        model = FixedArchitectureModel(PAPER_DEVICES[dev])
        profile = attempt_profile(cfg.transform, SETUP.sector_variance)
        curve = {}
        for ls in local_sizes:
            est = model.estimate(
                profile,
                NDRange(SETUP.global_size, ls),
                SETUP.outputs_per_work_item,
                cfg.state_words,
            )
            curve[ls] = round(est.milliseconds, 1)
        series[dev] = curve
        optima[dev] = min(curve, key=curve.get)
    rows = [
        [ls, *(series[dev][ls] for dev in FIXED_DEVICES)]
        for ls in local_sizes
    ]
    return ExperimentResult(
        experiment=f"Fig 5a: runtime [ms] vs localSize ({config_name})",
        headers=["localSize", *FIXED_DEVICES],
        rows=rows,
        series=series,
        notes=(
            f"optima: {optima} — paper derives "
            f"{OPTIMAL_LOCAL_SIZES}"
        ),
    )


@register("fig5b", "runtime vs globalSize (Fig 5b)")
def run_fig5b(
    config_name: str = "Config1",
    global_sizes: tuple[int, ...] = (1024, 4096, 16384, 65536, 262144),
) -> ExperimentResult:
    """Fig 5b: runtime vs globalSize at the optimal localSize."""
    cfg = CONFIGURATIONS[config_name]
    series: dict[str, dict] = {}
    for dev in FIXED_DEVICES:
        model = FixedArchitectureModel(PAPER_DEVICES[dev])
        profile = attempt_profile(cfg.transform, SETUP.sector_variance)
        curve = {}
        for gs in global_sizes:
            est = model.estimate(
                profile,
                NDRange(gs, OPTIMAL_LOCAL_SIZES[dev]),
                max(1, SETUP.total_outputs // gs),
                cfg.state_words,
            )
            curve[gs] = round(est.milliseconds, 1)
        series[dev] = curve
    rows = [
        [gs, *(series[dev][gs] for dev in FIXED_DEVICES)]
        for gs in global_sizes
    ]
    return ExperimentResult(
        experiment=f"Fig 5b: runtime [ms] vs globalSize ({config_name}, optimal localSize)",
        headers=["globalSize", *FIXED_DEVICES],
        rows=rows,
        series=series,
        notes="fixed total work; saturation confirms globalSize = 65536",
    )


# ---------------------------------------------------------------------------
# Fig 6 — distribution validation
# ---------------------------------------------------------------------------


@register("fig6", "gamma distribution validation (Fig 6)")
def run_fig6(
    variances: tuple[float, ...] = (0.35, 1.39),
    samples_per_variance: int = 4096,
    n_work_items: int = 2,
    bins: int = 40,
) -> ExperimentResult:
    """Fig 6: FPGA-generated gamma RNs vs the reference distribution.

    Runs the cycle-accurate decoupled pipeline (reduced sample count),
    reads device memory back, and compares against scipy's gamma (our
    stand-in for Matlab's ``gamrnd`` benchmark) with a KS test and a
    histogram over the same support.
    """
    from scipy import stats

    rows = []
    series = {}
    for v in variances:
        limit = max(32, samples_per_variance // n_work_items // 32 * 32)
        cfg = DecoupledConfig(
            n_work_items=n_work_items,
            kernel=CONFIGURATIONS["Config2"].kernel_config(
                limit_main=limit, sector_variances=(v,)
            ),
            burst_words=2,
        )
        result = DecoupledWorkItems(cfg).run()
        data = result.gammas()
        ks = stats.kstest(data, "gamma", args=(1.0 / v, 0, v))
        hist, edges = np.histogram(data, bins=bins, density=True)
        centers = 0.5 * (edges[:-1] + edges[1:])
        pdf = stats.gamma.pdf(centers, 1.0 / v, scale=v)
        series[f"v={v}"] = {
            "histogram": hist.tolist(),
            "centers": centers.tolist(),
            "reference_pdf": pdf.tolist(),
        }
        rows.append(
            [v, data.size, float(data.mean()), float(data.var()),
             float(ks.statistic), float(ks.pvalue)]
        )
    return ExperimentResult(
        experiment="Fig 6: FPGA gamma distribution vs reference gamrnd",
        headers=["variance", "samples", "mean", "var", "KS stat", "KS p"],
        rows=rows,
        series=series,
        notes="mean ≈ 1 and var ≈ v by construction (Section II-D4)",
    )


# ---------------------------------------------------------------------------
# Fig 7 — transfers only
# ---------------------------------------------------------------------------


@register("fig7", "transfers-only runtime (Fig 7)")
def run_fig7(
    burst_rns: tuple[int, ...] = (16, 32, 64, 128, 256, 512, 1024, 2048, 4096),
    work_items: tuple[int, ...] = (1, 2, 4, 6, 8),
    validate_with_simulation: bool = True,
) -> ExperimentResult:
    """Fig 7: transfers-only runtime vs burst length and work-items.

    Paper-scale numbers come from the closed-form channel model; at a
    reduced scale every point is cross-checked against the
    cycle-accurate region (the validation the model's tests rely on).
    """
    channel = MemoryChannelConfig()
    f = SETUP.fpga_frequency_hz
    series: dict[str, dict] = {}
    for n_wi in work_items:
        per_item = SETUP.total_outputs // n_wi
        curve = {}
        for rns in burst_rns:
            burst_words = max(1, rns // 16)
            cycles = transfer_only_cycles(
                per_item, n_wi, burst_words, config=channel
            )
            curve[rns] = round(1e3 * cycles / f, 1)
        series[f"{n_wi} WI"] = curve
    if validate_with_simulation:
        # one reduced-scale cross-check per work-item count
        for n_wi in work_items:
            burst_words = 4
            values = 64 * burst_words * 16
            region, _, _ = build_transfer_only_region(
                n_wi, values, burst_words, channel_config=channel
            )
            sim = region.run().cycles
            model = transfer_only_cycles(values, n_wi, burst_words, config=channel)
            if abs(sim - model) > max(8, 0.1 * sim):
                raise AssertionError(
                    f"fig7 model diverged from simulation at {n_wi} WI: "
                    f"{model} vs {sim}"
                )
    rows = [
        [rns, *(series[f"{n} WI"][rns] for n in work_items)]
        for rns in burst_rns
    ]
    bw_at_64w = channel.effective_bandwidth(64, f) / 1e9
    return ExperimentResult(
        experiment="Fig 7: transfers-only runtime [ms] vs burst length",
        headers=["RNs/burst", *(f"{n} WI" for n in work_items)],
        rows=rows,
        series=series,
        notes=(
            f"effective bandwidth at 1024 RNs/burst: {bw_at_64w:.2f} GB/s "
            f"(paper measures {MEASURED_BANDWIDTH_GBPS['Config3,4']} GB/s)"
        ),
    )


# ---------------------------------------------------------------------------
# Fig 8 / Fig 9 — power and energy
# ---------------------------------------------------------------------------


@register("fig8", "wall-plug power trace (Fig 8)")
def run_fig8(config_name: str = "Config1", device: str = "FPGA") -> ExperimentResult:
    """Fig 8: the wall-plug power trace of one measurement run."""
    runtime_s = _fpga_runtime_ms(config_name) / 1e3 if device == "FPGA" else (
        _fixed_runtime_ms(device, config_name, "cuda") / 1e3
    )
    meter = VirtualMultimeter(PowerModel(), noise_w=1.5)
    protocol = MeasurementProtocol(meter)
    invocations = max(1, int(-(-protocol.min_active_s // runtime_s)))
    from repro.power.model import ActivityInterval

    active = ActivityInterval(
        protocol.lead_in_s,
        protocol.lead_in_s + invocations * runtime_s,
        device,
    )
    samples = meter.record([active], active.end_s + 10.0)
    rows = [[s.time_s, round(s.watts, 1)] for s in samples]
    return ExperimentResult(
        experiment=f"Fig 8: power trace, {config_name} on {device}",
        headers=["t [s]", "P [W]"],
        rows=rows,
        series={"power": {s.time_s: s.watts for s in samples}},
        notes=(
            f"markers: kernel trigger at t={protocol.lead_in_s:.0f}s; "
            f"integration window = last {protocol.window_s:.0f}s of activity"
        ),
    )


@register("fig9", "dynamic energy per invocation (Fig 9)")
def run_fig9() -> ExperimentResult:
    """Fig 9: dynamic energy per kernel invocation, all setups."""
    meter = VirtualMultimeter(PowerModel())
    protocol = MeasurementProtocol(meter)
    rows = []
    series: dict[str, dict] = {d: {} for d in (*FIXED_DEVICES, "FPGA")}
    for key, config, style in TABLE3_ROWS:
        if style == "fpga":
            continue  # Fig 9 uses the faster (CUDA-style) fixed kernels
        row = [key]
        energies = {}
        for dev in FIXED_DEVICES:
            t = _fixed_runtime_ms(dev, config, style) / 1e3
            energies[dev] = protocol.measure(dev, t).energy_per_invocation_j
        t_fpga = _fpga_runtime_ms(config) / 1e3
        energies["FPGA"] = protocol.measure("FPGA", t_fpga).energy_per_invocation_j
        for dev in (*FIXED_DEVICES, "FPGA"):
            row.append(round(energies[dev], 1))
            series[dev][key] = energies[dev]
        row.append(round(energies["CPU"] / energies["FPGA"], 2))
        row.append(round(energies["GPU"] / energies["FPGA"], 2))
        row.append(round(energies["PHI"] / energies["FPGA"], 2))
        rows.append(row)
    return ExperimentResult(
        experiment="Fig 9: dynamic energy per kernel invocation [J]",
        headers=[
            "Setup", "CPU", "GPU", "PHI", "FPGA",
            "FPGA adv vs CPU", "vs GPU", "vs PHI",
        ],
        rows=rows,
        series=series,
        notes=(
            f"paper Config1 ratios: {FIG9_FPGA_EFFICIENCY['Config1']}; "
            f"Config4 ≈ {FIG9_FPGA_EFFICIENCY['Config4']}"
        ),
    )


# ---------------------------------------------------------------------------
# Eq (1), rejection rates, buffer combining
# ---------------------------------------------------------------------------


@register("eq1", "Eq (1) theoretical runtime")
def run_eq1() -> ExperimentResult:
    """Eq (1) theoretical runtime vs the full model vs the paper."""
    rows = []
    for pair, configs in (("Config1,2", ("Config1",)), ("Config3,4", ("Config3",))):
        config = configs[0]
        cfg = CONFIGURATIONS[config]
        r = _measured_rejection(config)
        eq1_ms = 1e3 * eq1_theoretical_runtime(
            SETUP.num_scenarios,
            SETUP.num_sectors,
            cfg.fpga_work_items,
            SETUP.fpga_frequency_hz,
            r,
        )
        eq1_paper_r = 1e3 * eq1_theoretical_runtime(
            SETUP.num_scenarios,
            SETUP.num_sectors,
            cfg.fpga_work_items,
            SETUP.fpga_frequency_hz,
            REJECTION_RATES[cfg.transform]["setup"],
        )
        full_ms = _fpga_runtime_ms(config)
        rows.append(
            [pair, round(r, 4), round(eq1_ms), round(eq1_paper_r),
             EQ1_PREDICTIONS_MS[pair], round(full_ms),
             TABLE3_RUNTIME_MS[config if pair == "Config1,2" else "Config3_cuda"]["FPGA"]]
        )
    return ExperimentResult(
        experiment="Eq (1): theoretical FPGA runtime vs model vs measured",
        headers=[
            "Configs", "r (ours)", "Eq1(ours) [ms]", "Eq1(paper r) [ms]",
            "Eq1 paper quote", "full model [ms]", "paper measured",
        ],
        rows=rows,
        notes="Eq (1) undershoots Config3,4 — the transfer bound dominates",
    )


@register("rejection", "rejection rates vs variance (SIV-E)")
def run_rejection_rates(
    variances: tuple[float, ...] = (0.1, 1.39, 100.0)
) -> ExperimentResult:
    """§IV-E: combined rejection rates across sector variances."""
    rows = []
    for transform, key in (("marsaglia_bray", "marsaglia_bray"), ("icdf", "icdf_fpga")):
        for v in variances:
            rates = measured_path_rates(key, v)
            paper = REJECTION_RATES[transform]
            paper_val = {0.1: paper["v0.1"], 1.39: paper["setup"], 100.0: paper["v100"]}.get(v)
            rows.append(
                [transform, v, round(1 - rates.combined_accept, 4), paper_val]
            )
    return ExperimentResult(
        experiment="Rejection rates vs sector variance (Section IV-E)",
        headers=["transform", "variance", "rejection (ours)", "paper"],
        rows=rows,
        notes=(
            "shape: MB path rejects several times more than the ICDF "
            "path; both rise with variance"
        ),
    )


@register("buffers", "host vs device buffer combining (SIII-E)")
def run_buffer_combining(
    n_work_items: int = 6, block: int = 65536
) -> ExperimentResult:
    """§III-E: host-level vs device-level buffer combining."""
    ctx = Context(paper_platform(), "FPGA")
    rng = np.random.default_rng(8)
    blocks = [rng.random(block).astype(np.float32) for _ in range(n_work_items)]
    host = combine_at_host_level(ctx, blocks)
    dev = combine_at_device_level(Context(paper_platform(), "FPGA"), blocks)
    assert np.array_equal(host.host_array, dev.host_array)
    rows = [
        ["host_level", host.device_buffers, host.read_requests,
         round(1e3 * host.read_time_s, 3), host.kernel_time_penalty],
        ["device_level", dev.device_buffers, dev.read_requests,
         round(1e3 * dev.read_time_s, 3), dev.kernel_time_penalty],
    ]
    return ExperimentResult(
        experiment="Section III-E: buffer combining strategies",
        headers=["strategy", "device buffers", "read requests",
                 "readback [ms]", "kernel penalty"],
        rows=rows,
        notes="device-level chosen: single read, <1% device-side loss",
    )
