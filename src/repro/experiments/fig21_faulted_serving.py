"""Fig. 21 — serving under faults: SLO impact of graceful degradation
(repro extension).

Composes the fig20 continuous-batching request stream with the fig19
fault schedules: every system serves the *same* seeded stream while plane
failures, NVLS unit deaths, stragglers, and link faults fire mid-stream,
and the resilience machinery (SLO-aware admission control, per-request
retransmit budgets, fault-aware batch replanning — see DESIGN.md §12)
degrades service instead of stalling it.  Three views:

1. **SLO attainment and goodput vs fault intensity** — the operator's
   curve: what fraction of the offered stream still meets the TTFT
   target, and how many SLO-good tokens/s survive, as the fabric decays.
   Shed requests count against attainment, so admission control cannot
   game the metric by rejecting load.
2. **Clean vs degraded tails at peak intensity** — requests are
   classified by overlap with the fault schedule's active windows (the
   same windows the run-report time-series sink overlays per window);
   the split shows where the tail latency actually comes from.
3. **Resilience per mm² of silicon** — degraded-mode goodput joined with
   the Section V-D area model: CAIS pays merge-unit + synchronizer area
   for its fabric; the table reports SLO-good tokens/s per mm² of total
   silicon under peak faults, and each system's goodput retention.

Fault sets are nested across intensities and every run is a pure function
of ``(seed, fault_seed, intensity)``, so the whole figure is byte-stable
and the attainment columns degrade monotonically — both properties are CI
gates.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence

from ..common.config import dgx_h100_config
from ..hw.area import (H100_DIE_MM2, NVSWITCH_DIE_MM2, gpu_synchronizer_area,
                       switch_merge_unit_area)
from .fig19_resilience import fault_spec_for
from .fig20_serving import spec_for as fig20_spec_for
from .parallel import ExecContext, SimTask, run_matrix
from .runner import DEFAULT, Scale, markdown_table

#: Coarser grid than fig19: faulted serving runs are the repo's most
#: expensive simulations (every retransmission is an event inside a live
#: batching loop).
INTENSITIES = (0.0, 0.5, 1.0)
#: CAIS against the NVLS barrier baselines and the ring software pipeline.
SYSTEMS = ("TP-NVLS", "SP-NVLS", "CoCoNet", "CAIS")

#: TTFT target: report.py's default, calibrated to land strictly between
#: 0% and 100% on the fault-free quick stream.
SLO_TTFT_MS = 3.0
#: Per-request retransmit charge bound before abort + re-prefill.
RETRY_BUDGET = 64

DETAILS = ("serving.slo_attainment", "serving.goodput_tokens_per_s",
           "serving.tokens_per_s", "serving.ttft_p95_ns",
           "serving.requests", "serving.shed", "serving.aborts",
           "serving.reprefill_tokens", "serving.replans",
           "serving.capacity_factor", "serving.degraded_requests",
           "serving.ttft_p95_clean_ns", "serving.ttft_p95_degraded_ns",
           "serving.tpot_p95_clean_ns", "serving.tpot_p95_degraded_ns",
           "faults.retries", "faults.nvls_fallbacks",
           "faults.plane_failures")


def spec_for(scale: Scale, seed: int = 2026):
    """fig20's stream with the resilience mechanisms armed.

    Admission control and the SLO details are active in every cell
    (including intensity 0, so the fault-free column is the controller's
    own baseline, not fig20's); the retry budget only matters once faults
    produce retransmissions.
    """
    return replace(fig20_spec_for(scale, seed),
                   admission_policy="shed",
                   slo_ttft_ms=SLO_TTFT_MS,
                   retry_budget=RETRY_BUDGET)


def run(scale: Scale = DEFAULT, seed: int = 2026,
        intensities: Sequence[float] = INTENSITIES, fault_seed: int = 0,
        systems: Sequence[str] = SYSTEMS,
        ctx: Optional[ExecContext] = None
        ) -> Dict[str, Dict[float, Dict[str, float]]]:
    """Returns {system: {intensity: {metric: value}}} over one stream."""
    # Like fig19: the sweep owns its fault specs (including the disabled
    # intensity-0 baseline); an ambient --faults override must not leak in.
    if ctx is not None and ctx.fault_spec is not None:
        ctx = replace(ctx, fault_spec=None)
    spec = spec_for(scale, seed)
    cfg = dgx_h100_config()
    tasks: List[SimTask] = []
    keys: List[tuple] = []
    for intensity in intensities:
        fcfg = cfg.with_faults(fault_spec_for(intensity, fault_seed))
        for system in systems:
            tasks.append(SimTask(system=system, graphs=(), config=fcfg,
                                 scale=scale, serving=spec))
            keys.append((system, intensity))
    summaries = run_matrix(tasks, ctx)
    out: Dict[str, Dict[float, Dict[str, float]]] = {s: {} for s in systems}
    for (system, intensity), res in zip(keys, summaries):
        details = dict(res.details)
        cell = {"makespan_ns": res.makespan_ns}
        for name in DETAILS:
            cell[name] = details.get(name, 0.0)
        out[system][intensity] = cell
    return out


def _extension_mm2(system: str, cfg) -> float:
    """Extra silicon a system's fabric needs beyond stock dies.

    Only CAIS extends the hardware: one merge unit per switch plane plus
    one TB-group synchronizer per GPU (Section V-D).  The NVLS and ring
    baselines run on stock NVSwitch/H100.
    """
    if system != "CAIS":
        return 0.0
    merge = switch_merge_unit_area(cfg.switch).total_mm2
    sync = gpu_synchronizer_area().total_mm2
    return merge * cfg.num_switches + sync * cfg.num_gpus


def format_table(results: Dict[str, Dict[float, Dict[str, float]]]) -> str:
    intensities = sorted(next(iter(results.values())))
    peak = max(intensities)
    base = min(intensities)

    att_rows = []
    for system, row in results.items():
        att_rows.append(
            [system]
            + [f"{row[i]['serving.slo_attainment']:.3f}"
               for i in intensities]
            + [row[i]["serving.goodput_tokens_per_s"]
               for i in intensities])
    head = ("### Fig. 21: serving under faults — SLO attainment and "
            f"goodput vs fault intensity (TTFT <= {SLO_TTFT_MS:g} ms, "
            "shed requests count as missed)\n" +
            markdown_table(
                ["system"]
                + [f"att x={i:g}" for i in intensities]
                + [f"goodput x={i:g}" for i in intensities],
                att_rows))

    tail_rows = []
    for system, row in results.items():
        cell = row[peak]
        tail_rows.append([
            system,
            cell["serving.ttft_p95_clean_ns"] / 1e6,
            cell["serving.ttft_p95_degraded_ns"] / 1e6,
            cell["serving.tpot_p95_clean_ns"] / 1e6,
            cell["serving.tpot_p95_degraded_ns"] / 1e6,
            int(cell["serving.degraded_requests"]),
            int(cell["serving.shed"]),
            int(cell["serving.aborts"]),
            int(cell["serving.replans"]),
            int(cell["faults.retries"]),
        ])
    tails = (f"\n\n### Clean vs degraded windows at peak intensity "
             f"(x={peak:g})\n" +
             markdown_table(
                 ["system", "TTFT p95 clean (ms)", "TTFT p95 degr (ms)",
                  "TPOT p95 clean (ms)", "TPOT p95 degr (ms)",
                  "degr reqs", "shed", "aborts", "replans", "retries"],
                 tail_rows))

    cfg = dgx_h100_config()
    fabric_mm2 = (cfg.num_switches * NVSWITCH_DIE_MM2
                  + cfg.num_gpus * H100_DIE_MM2)
    dollar_rows = []
    for system, row in results.items():
        ext = _extension_mm2(system, cfg)
        total = fabric_mm2 + ext
        degraded_goodput = row[peak]["serving.goodput_tokens_per_s"]
        clean_goodput = row[base]["serving.goodput_tokens_per_s"]
        retention = (degraded_goodput / clean_goodput * 100.0
                     if clean_goodput > 0 else 0.0)
        dollar_rows.append([
            system, f"{ext:.3f}", f"{total:.0f}",
            degraded_goodput, degraded_goodput / total,
            f"{retention:.1f}%",
        ])
    dollar = ("\n\n### Resilience per mm² (degraded-mode goodput against "
              "total fabric silicon, Section V-D area model)\n" +
              markdown_table(
                  ["system", "extension mm²", "total mm²",
                   f"goodput@x={peak:g} (tok/s)", "tok/s per mm²",
                   "goodput retention"],
                  dollar_rows))
    return head + tails + dollar
