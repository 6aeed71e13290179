"""Fig. 13 — merging-aware TB coordination analysis.

(a) *Minimal required Merge Table size*: the high-water mark of merge-table
    occupancy per port, measured with capacity unbounded, with and without
    coordination — the paper reports up to 250 KB uncoordinated versus
    < 40 KB coordinated (an 87% reduction).

(b) *Waiting-time ablation*: the delay between the earliest and latest
    request targeting the same address, as the coordination mechanisms are
    enabled stage by stage (none -> +TB grouping & pre-launch sync ->
    +pre-access sync -> +TB-aware throttling & merging-aware ordering);
    the paper reports 35 us dropping below 3 us.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..common.config import dgx_h100_config
from ..llm.models import TABLE_I
from ..llm.tp import SUBLAYERS, sublayer_graph
from .parallel import AblationSpec, ExecContext, SimTask, run_matrix
from .runner import DEFAULT, Scale, markdown_table

#: Ablation stages of Fig. 13(b): coordination features enabled.
STAGES = (
    ("uncoordinated", frozenset()),
    ("+grouping & pre-launch sync", frozenset({"prelaunch"})),
    ("+pre-access sync", frozenset({"prelaunch", "preaccess"})),
    ("+throttling & ordering",
     frozenset({"prelaunch", "preaccess", "throttle", "order"})),
)


def _ablation_task(graph, scale: Scale, features: frozenset) -> SimTask:
    """One CAIS run with explicit coordination features and an unbounded
    merge table (capacity/timeout None), as Fig. 13 measures."""
    return SimTask(system="CAIS", graphs=(graph,),
                   config=dgx_h100_config(), scale=scale,
                   ablation=AblationSpec.of(features))


def run_table_size(scale: Scale = DEFAULT,
                   models: Optional[Sequence[str]] = None,
                   sublayers: Sequence[str] = ("L1", "L2"),
                   ctx: Optional[ExecContext] = None,
                   ) -> Dict[str, Dict[str, float]]:
    """Fig. 13(a): peak per-port occupancy (KB), coordinated vs not."""
    tasks: List[SimTask] = []
    keys: List[tuple] = []
    for model_name in (models or list(TABLE_I)):
        model = scale.apply(TABLE_I[model_name])
        for which in sublayers:
            for label, features in (("CAIS", STAGES[-1][1]),
                                    ("CAIS-w/o-Coord", frozenset())):
                graph = sublayer_graph(model, 8, which)
                tasks.append(_ablation_task(graph, scale, features))
                keys.append((f"{model_name} {which}", label))
    summaries = run_matrix(tasks, ctx)
    out: Dict[str, Dict[str, float]] = {}
    for (key, label), summary in zip(keys, summaries):
        out.setdefault(key, {})[label] = \
            summary.merge_peak_bytes_per_port / 1024
    for row in out.values():
        row["reduction_%"] = 100.0 * (1 - row["CAIS"] /
                                      row["CAIS-w/o-Coord"])
    return out


def run_wait_ablation(scale: Scale = DEFAULT,
                      model_name: str = "LLaMA-7B",
                      which: str = "L1",
                      ctx: Optional[ExecContext] = None) -> Dict[str, float]:
    """Fig. 13(b): average first-to-last request spread (us) per stage."""
    model = scale.apply(TABLE_I[model_name])
    tasks = [_ablation_task(sublayer_graph(model, 8, which), scale,
                            features) for _, features in STAGES]
    summaries = run_matrix(tasks, ctx)
    return {label: summary.merge_average_wait_ns / 1e3
            for (label, _), summary in zip(STAGES, summaries)}


def format_table(table_size: Dict[str, Dict[str, float]],
                 wait: Dict[str, float]) -> str:
    rows_a: List[List[object]] = [
        [key, row["CAIS-w/o-Coord"], row["CAIS"], row["reduction_%"]]
        for key, row in table_size.items()]
    part_a = ("### Fig. 13(a): minimal required merge-table size "
              "(KB per port)\n" +
              markdown_table(["workload", "w/o coordination",
                              "with coordination", "reduction %"], rows_a))
    rows_b = [[label, value] for label, value in wait.items()]
    part_b = ("### Fig. 13(b): average waiting time per coordination "
              "stage (us)\n" +
              markdown_table(["stage", "avg wait (us)"], rows_b))
    return part_a + "\n\n" + part_b
