"""Fig. 19 — resilience under fault injection (repro extension).

Not a figure from the paper: the paper's evaluation assumes a perfect
fabric.  This sweep measures how gracefully each transport degrades when
the fabric is *not* perfect — CAIS (in-switch reduction with ack/retransmit
and merge-unit drain), TP-NVLS (NVLS collectives with abort-and-fallback
to ring), and CoCoNet (ring collectives with per-chunk retransmission) on
one LLaMA-7B sub-layer across a fault-intensity grid.

The fault schedule is a pure function of ``(seed, fault_seed, intensity)``
and fault sets are nested across intensities (see
:mod:`repro.faults.schedule`), so the makespan curve degrades monotonically
by construction and the whole sweep is reproducible run to run.  Intensity
``0.0`` is the genuine fault-free baseline — the run's config carries the
default disabled :class:`FaultSpec`, sharing cache entries with every other
fault-free experiment.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence

from ..common.config import FaultSpec, dgx_h100_config
from ..llm.models import LLAMA_7B
from .parallel import ExecContext, SimTask, run_matrix
from .runner import DEFAULT, Scale, markdown_table, sublayer_for

INTENSITIES = (0.0, 0.25, 0.5, 0.75, 1.0)
SYSTEMS = ("CAIS", "TP-NVLS", "CoCoNet")

#: Resilience counters surfaced per cell (all default 0 when absent).
COUNTERS = ("faults.retries", "faults.nvls_fallbacks",
            "faults.messages_dropped", "faults.plane_failures")


def fault_spec_for(intensity: float, fault_seed: int = 0) -> FaultSpec:
    """The sweep's spec at one intensity; 0.0 is the disabled baseline."""
    if intensity <= 0.0:
        return FaultSpec()
    return FaultSpec(enabled=True, intensity=intensity,
                     fault_seed=fault_seed)


def run(scale: Scale = DEFAULT, which: str = "L1",
        intensities: Sequence[float] = INTENSITIES, fault_seed: int = 0,
        ctx: Optional[ExecContext] = None
        ) -> Dict[str, Dict[float, Dict[str, float]]]:
    """Returns {system: {intensity: {metric: value}}}.

    Metrics per cell: ``makespan_ns`` plus the :data:`COUNTERS`.
    """
    # This sweep owns its fault specs, including the intensity-0 fault-free
    # baseline; an ambient --faults override must not reach into it.
    if ctx is not None and ctx.fault_spec is not None:
        ctx = replace(ctx, fault_spec=None)
    model = scale.apply(LLAMA_7B)
    cfg = dgx_h100_config()
    tasks: List[SimTask] = []
    keys: List[tuple] = []
    for intensity in intensities:
        fcfg = cfg.with_faults(fault_spec_for(intensity, fault_seed))
        for system in SYSTEMS:
            graph = sublayer_for(model, cfg.num_gpus, system, which)
            tasks.append(SimTask(system=system, graphs=(graph,),
                                 config=fcfg, scale=scale))
            keys.append((system, intensity))
    summaries = run_matrix(tasks, ctx)
    out: Dict[str, Dict[float, Dict[str, float]]] = {s: {} for s in SYSTEMS}
    for (system, intensity), res in zip(keys, summaries):
        details = dict(res.details)
        cell = {"makespan_ns": res.makespan_ns}
        for name in COUNTERS:
            cell[name] = details.get(name, 0.0)
        out[system][intensity] = cell
    return out


def slowdowns(results: Dict[str, Dict[float, Dict[str, float]]]
              ) -> Dict[str, Dict[float, float]]:
    """Makespan normalized to each system's own fault-free baseline."""
    out: Dict[str, Dict[float, float]] = {}
    for system, row in results.items():
        base = row[min(row)]["makespan_ns"]
        out[system] = {i: (cell["makespan_ns"] / base if base > 0 else 0.0)
                       for i, cell in row.items()}
    return out


def format_table(results: Dict[str, Dict[float, Dict[str, float]]]) -> str:
    norm = slowdowns(results)
    intensities = sorted(next(iter(results.values())))
    rows = [[s] + [norm[s][i] for i in intensities] for s in results]
    head = ("### Fig. 19: slowdown vs fault intensity "
            "(normalized to each system's fault-free run)\n" +
            markdown_table(["system"] + [f"x={i:g}" for i in intensities],
                           rows))
    counter_rows = []
    for system in results:
        worst = results[system][max(intensities)]
        counter_rows.append(
            [system] + [int(worst[name]) for name in COUNTERS])
    tail = ("\n\n### Resilience counters at peak intensity\n" +
            markdown_table(
                ["system"] + [name.split(".", 1)[1] for name in COUNTERS],
                counter_rows))
    return head + tail
