"""Deterministic run reports for the serving workload (``repro report``).

A **run report** is the SLO-facing view of one continuous-batching serving
simulation: overall attainment against TTFT/TPOT targets, exact latency
tails, the per-window time series recorded by
:class:`repro.obs.TimeSeriesSink` with injected fault windows overlaid,
the per-request phase/category time breakdown from
:class:`repro.obs.RequestLog`, and a worst-request drill-down.

A report is not a shape of its own: it is the run record
(:mod:`repro.obs.ledger`) that :func:`~.ledger.record_for_task` builds for
the serving or replica :class:`~.parallel.SimTask` that ran, plus one
``serving`` section holding the views above (DESIGN.md §10).  Report
files hold the record's stable view (``volatile`` stripped), a pure
function of the seed — so two same-seed runs produce byte-identical
files, and ``repro diff`` (:mod:`.diff`) can attribute every metric
movement between two reports to specific windows and phases.  Reports
are never appended to the ledger: the sinks force the reference engine
path, so their ``events``/``fastpath.*`` differ from the matrix record
with the same fingerprint.

Entry points:

* :func:`run_report` — run one serving or replica task with the
  time-series, request-log and causality sinks installed and build its
  record.
* ``python -m repro report`` (:func:`add_parser`) — CLI wrapper; renders
  the report for the terminal and optionally writes the JSON artifact.
* :func:`experiment_report` — the ``--report`` hook of
  ``python -m repro experiments`` for fig19–fig22.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import replace
from typing import Dict, List, Optional, Sequence

from .. import obs
from ..common.config import dgx_h100_config
from ..llm.serving import exact_quantile
from ..obs.ledger import TAIL_KEYS, stable_line, validate_record
from ..obs.metrics import Histogram
from ..obs.requests import GROUPS, PHASE_KINDS
from .fig19_resilience import fault_spec_for
from .fig20_serving import spec_for
from .ledger import record_for_task
from .parallel import RunSummary, SimTask, _run_replica, _run_serving
from .runner import DEFAULT, Scale, markdown_table

#: Default SLO targets, calibrated so the quick fig20 stream lands
#: strictly between 0% and 100% attainment on every system (saturated
#: arrivals: early admissions meet the target, queued tail requests
#: do not) — a non-trivial starting point rather than a vacuous one.
DEFAULT_SLO_TTFT_MS = 3.0
DEFAULT_SLO_TPOT_MS = 0.75

#: Window-resident counters surfaced per report window, in column order:
#: (report key, time-series counter name).
_WINDOW_COUNTERS = (
    ("tokens", "serving.tokens"),
    ("iterations", "serving.iterations"),
    ("completions", "serving.requests_completed"),
    ("evictions", "serving.evictions"),
    ("sheds", "serving.shed"),
    ("aborts", "serving.aborts"),
    ("retries", "faults.retries"),
)


def _tail(values: Sequence[float]) -> Dict[str, float]:
    """The report's standard tail summary of one latency sample."""
    if not values:
        return {"p50": math.nan, "p90": math.nan, "p95": math.nan,
                "p99": math.nan, "mean": math.nan, "max": math.nan}
    return {
        "p50": exact_quantile(values, 0.50),
        "p90": exact_quantile(values, 0.90),
        "p95": exact_quantile(values, 0.95),
        "p99": exact_quantile(values, 0.99),
        "mean": sum(values) / len(values),
        "max": max(values),
    }


def _window_rows(snapshot: Dict, makespan_ns: float) -> List[Dict]:
    """Project a time-series snapshot into the report's window series."""
    marks = snapshot["marks"]

    def labels_for(lo: float, hi: float) -> List[str]:
        out = []
        for m in marks:
            end = m["end_ns"] if m["end_ns"] is not None else makespan_ns
            if m["start_ns"] < hi and end > lo:
                out.append(m["label"])
        return out

    rows = []
    for win in snapshot["windows"]:
        counters = win.get("counters", {})
        gauges = win.get("gauges", {})
        sketches = win.get("sketches", {})
        row: Dict[str, object] = {
            "index": win["index"],
            "start_ns": win["start_ns"],
            "end_ns": win["end_ns"],
        }
        for key, name in _WINDOW_COUNTERS:
            row[key] = counters.get(name, 0.0)
        kv = gauges.get("serving.kv_bytes")
        row["kv_peak_bytes"] = kv["peak"] if kv else 0.0
        batch = gauges.get("serving.batch_requests")
        row["batch_peak"] = batch["peak"] if batch else 0.0
        ttft = sketches.get("serving.ttft_ns")
        row["ttft_p95_ns"] = (Histogram.from_state(ttft).quantile(0.95)
                              if ttft else None)
        row["faults"] = labels_for(win["start_ns"], win["end_ns"])
        rows.append(row)
    return rows


def build_report(task: SimTask, serving, *, wall_ms: float = 0.0,
                 slo_ttft_ms: float = DEFAULT_SLO_TTFT_MS,
                 slo_tpot_ms: float = DEFAULT_SLO_TPOT_MS,
                 worst_n: int = 5) -> Dict:
    """The run record of ``task``, whose run produced the
    :class:`ServingResult` ``serving``, plus its ``serving`` section.

    The result's :class:`RunResult` carries the time-series sink and
    request log when they were installed for the run; either may be
    absent, in which case the corresponding parts are empty.  The host
    event throughput is wall-clock, so it joins the record's
    ``volatile`` section and only the terminal rendering shows it.
    """
    run = serving.run
    record = record_for_task(task, RunSummary.from_result(run),
                             cache_hit=False, wall_ms=wall_ms)
    if run.network is not None and hasattr(run.network, "sim"):
        record["volatile"]["events_per_wall_second"] = \
            run.network.sim.events_per_wall_second()
    makespan = run.makespan_ns
    stats = serving.stats
    ttfts = [s.ttft_ns for s in stats]
    tpots = [s.tpot_ns for s in stats if s.output_len > 1]
    e2es = [s.e2e_ns for s in stats]

    slo_ttft_ns = slo_ttft_ms * 1e6
    slo_tpot_ns = slo_tpot_ms * 1e6

    def meets_slo(s) -> bool:
        return (s.ttft_ns <= slo_ttft_ns
                and (s.output_len <= 1 or s.tpot_ns <= slo_tpot_ns))

    good = [s for s in stats if meets_slo(s)]
    ttft_ok = sum(1 for s in stats if s.ttft_ns <= slo_ttft_ns)
    tpot_eligible = [s for s in stats if s.output_len > 1]
    tpot_ok = sum(1 for s in tpot_eligible if s.tpot_ns <= slo_tpot_ns)
    n = len(stats)

    section: Dict[str, object] = {
        "summary": {
            "requests": n,
            "tokens": serving.total_output_tokens,
            "iterations": serving.iterations,
            "evictions": serving.evictions,
            "shed": len(serving.shed),
            "aborts": serving.aborts,
            "kv_peak_bytes": serving.peak_kv_bytes,
            "makespan_ns": makespan,
            "tokens_per_s": serving.tokens_per_s,
            "ttft_ns": _tail(ttfts),
            "tpot_ns": _tail(tpots),
            "e2e_ns": _tail(e2es),
        },
        "slo": {
            "ttft_ms": slo_ttft_ms,
            "tpot_ms": slo_tpot_ms,
            "ttft_attainment": ttft_ok / n if n else 0.0,
            "tpot_attainment": (tpot_ok / len(tpot_eligible)
                                if tpot_eligible else 1.0),
            "attainment": len(good) / n if n else 0.0,
            "goodput_tokens_per_s":
                (sum(s.output_len for s in good) / makespan * 1e9
                 if makespan > 0 else 0.0),
        },
    }

    ts = run.timeseries
    if ts is not None:
        snapshot = ts.snapshot(makespan)
        section["window_ns"] = snapshot["window_ns"]
        section["windows"] = _window_rows(snapshot, makespan)
        section["fault_windows"] = snapshot["marks"]
    else:
        section["window_ns"] = None
        section["windows"] = []
        section["fault_windows"] = []

    reqlog = run.request_log
    if reqlog is not None:
        records = reqlog.records()
        totals = {k: sum(r.phase_total_ns(k) for r in records)
                  for k in PHASE_KINDS}
        cats = {g: sum(r.category_total_ns(g) for r in records)
                for g in GROUPS}
        by_rid = {s.rid: s for s in stats}
        worst = sorted(records, key=lambda r: (-r.e2e_ns, r.rid))[:worst_n]
        section["phases"] = {"totals_ns": totals, "categories_ns": cats}
        section["worst_requests"] = [{
            "rid": r.rid,
            "arrival_ns": r.arrival_ns,
            "e2e_ns": r.e2e_ns,
            "ttft_ns": by_rid[r.rid].ttft_ns if r.rid in by_rid else None,
            "evictions": r.evictions,
            "queue_ns": r.phase_total_ns("queue"),
            "prefill_ns": r.phase_total_ns("prefill"),
            "decode_ns": r.phase_total_ns("decode"),
            "categories_ns": {g: r.category_total_ns(g) for g in GROUPS},
        } for r in worst]
    else:
        section["phases"] = {"totals_ns": {}, "categories_ns": {}}
        section["worst_requests"] = []
    record["serving"] = section
    validate_record(record)
    return record


# ---------------------------------------------------------------------------
# Files and rendering
# ---------------------------------------------------------------------------

def write_report(record: Dict, path: str) -> None:
    """Write the record's stable view: byte-identical across same-seed
    runs (the wall-clock ``volatile`` section stays in memory)."""
    validate_record(record)
    with open(path, "w") as fh:
        fh.write(stable_line(record) + "\n")


def load_report(path: str) -> Dict:
    with open(path) as fh:
        record = json.load(fh)
    validate_record(record, report=True)
    return record


def _ms(ns: Optional[float]) -> object:
    if ns is None or (isinstance(ns, float) and math.isnan(ns)):
        return "-"
    return ns / 1e6


def run_title(spec: Dict) -> str:
    """``system model [role] (seed S[, fault intensity X])`` of a record
    spec, for report and diff headers."""
    name = " ".join(str(spec[k]) for k in ("system", "model", "role")
                    if spec.get(k)) or "run"
    # A fault-free FaultSpec still carries intensity 1.0: test `enabled`.
    faults = spec.get("faults") or {}
    extra = (f", fault intensity {faults['intensity']:g}"
             if faults.get("enabled") else "")
    return f"{name} (seed {spec.get('seed', '?')}{extra})"


def format_report(record: Dict, max_window_rows: int = 40) -> str:
    """Deterministic terminal rendering of one report record (plus the
    host event rate when the in-memory record still has ``volatile``)."""
    report = record["serving"]
    summary = report["summary"]
    slo = report["slo"]
    hiccups = f"{summary['evictions']} evictions"
    if summary.get("shed"):
        hiccups += f", {summary['shed']} shed"
    if summary.get("aborts"):
        hiccups += f", {summary['aborts']} aborts"
    engine = f"engine: {record['metrics']['events']:,} events"
    eps = record.get("volatile", {}).get("events_per_wall_second")
    if eps:
        engine += f" ({eps:,.0f}/s host)"
    elided = record["details"].get("fastpath.events_elided")
    if elided:
        engine += f", fast-path elided {int(elided):,}"
    head = [f"### repro run report — {run_title(record['spec'])}",
            "",
            f"{summary['requests']} requests, {summary['tokens']} tokens "
            f"in {summary['iterations']} iterations "
            f"({hiccups}) over "
            f"{summary['makespan_ns'] / 1e6:.2f} ms — "
            f"{summary['tokens_per_s']:,.0f} tokens/s",
            f"SLO (TTFT <= {slo['ttft_ms']:g} ms, TPOT <= "
            f"{slo['tpot_ms']:g} ms): TTFT {slo['ttft_attainment']:.1%}, "
            f"TPOT {slo['tpot_attainment']:.1%}, joint "
            f"{slo['attainment']:.1%}, goodput "
            f"{slo['goodput_tokens_per_s']:,.0f} tokens/s",
            engine]
    tails = markdown_table(
        ["metric (ms)"] + list(TAIL_KEYS),
        [[name] + [_ms(summary[key][t]) for t in TAIL_KEYS]
         for name, key in (("TTFT", "ttft_ns"), ("TPOT", "tpot_ns"),
                           ("E2E", "e2e_ns"))])
    blocks = ["\n".join(head), "#### Latency tails\n" + tails]

    totals = report["phases"]["totals_ns"]
    cats = report["phases"]["categories_ns"]
    if totals:
        blocks.append(
            "#### Phase time (ms, summed over requests)\n" +
            markdown_table(
                list(PHASE_KINDS) + [f"cat:{g}" for g in GROUPS],
                [[_ms(totals.get(k, 0.0)) for k in PHASE_KINDS] +
                 [_ms(cats.get(g, 0.0)) for g in GROUPS]]))

    windows = report["windows"]
    if windows:
        active = [w for w in windows
                  if w["tokens"] or w["completions"] or w["evictions"]
                  or w["retries"] or w["faults"]]
        shown = active[:max_window_rows]
        rows = [[int(w["index"]),
                 f"{w['start_ns'] / 1e3:.0f}",
                 int(w["tokens"]), int(w["completions"]),
                 int(w["evictions"]), int(w["retries"]),
                 f"{w['kv_peak_bytes'] / 1e6:.1f}",
                 int(w["batch_peak"]),
                 _ms(w["ttft_p95_ns"]),
                 ",".join(w["faults"]) if w["faults"] else ""]
                for w in shown]
        note = (f" ({len(active)} active of {len(windows)}; "
                f"first {len(shown)} shown)"
                if len(active) > len(shown)
                else f" ({len(active)} active of {len(windows)})")
        blocks.append(
            f"#### Windows — {report['window_ns'] / 1e3:.0f} us each"
            + note + "\n" +
            markdown_table(["w", "t (us)", "tok", "done", "evict", "retry",
                            "kv MB", "batch", "ttft p95 (ms)", "faults"],
                           rows))

    worst = report["worst_requests"]
    if worst:
        rows = []
        for r in worst:
            top = max(GROUPS, key=lambda g: r["categories_ns"].get(g, 0.0))
            rows.append([r["rid"], _ms(r["e2e_ns"]), _ms(r["ttft_ns"]),
                         _ms(r["queue_ns"]), _ms(r["prefill_ns"]),
                         _ms(r["decode_ns"]), r["evictions"], top])
        blocks.append(
            "#### Worst requests (by E2E)\n" +
            markdown_table(["rid", "e2e", "ttft", "queue", "prefill",
                            "decode", "evict", "top category"], rows))
    return "\n\n".join(blocks)


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------

def serving_task(system: str = "CAIS", scale: Scale = DEFAULT,
                 seed: int = 2026, fault_intensity: float = 0.0,
                 fault_seed: int = 0, admission_policy: str = "none",
                 slo_ttft_ms: float = DEFAULT_SLO_TTFT_MS,
                 retry_budget: Optional[int] = None) -> SimTask:
    """The fig20-stream serving task a report runs.

    A positive ``fault_intensity`` applies the fig19 fault schedule on
    top (the "faulted fig19-style serving run").  ``admission_policy`` /
    ``retry_budget`` arm the resilient serving mechanisms (DESIGN.md
    §12) with ``slo_ttft_ms`` as the admission SLO.  With the defaults
    this is exactly fig20's task for ``system``, fingerprint included.
    """
    cfg = dgx_h100_config(seed=seed)
    if fault_intensity > 0.0:
        cfg = cfg.with_faults(fault_spec_for(fault_intensity, fault_seed))
    spec = spec_for(scale, seed)
    if admission_policy != "none" or retry_budget is not None:
        spec = replace(spec, admission_policy=admission_policy,
                       slo_ttft_ms=slo_ttft_ms, retry_budget=retry_budget)
    return SimTask(system=system, graphs=(), config=cfg, scale=scale,
                   serving=spec)


def run_report(task: SimTask, *, window_ns: float = 100_000.0,
               **slo) -> Dict:
    """Run one serving or replica task with the reporting sinks and
    build its report record (``slo``: the SLO targets and ``worst_n``
    of :func:`build_report`).

    The task runs through the same code path as in a matrix sweep, so the
    record's spec and fingerprint are the sweep's.  The previously
    installed sinks are restored afterwards, so this can run inside the
    experiments CLI without clobbering its metrics registry.
    """
    prev_ts = obs.current_timeseries()
    prev_rl = obs.current_request_log()
    prev_cz = obs.current_causality()
    obs.install(timeseries=obs.TimeSeriesSink(window_ns=window_ns),
                request_log=obs.RequestLog(),
                causality=obs.CausalityRecorder())
    start = time.perf_counter()
    try:
        serving = (_run_replica if task.replica is not None
                   else _run_serving)(task)
    finally:
        obs.install(timeseries=prev_ts, request_log=prev_rl,
                    causality=prev_cz)
    return build_report(task, serving,
                        wall_ms=(time.perf_counter() - start) * 1e3,
                        **slo)


def experiment_report(experiment: str, scale: Scale, ctx=None) -> Dict:
    """The ``--report`` artifact for an experiments-CLI invocation.

    ``fig20_serving`` reports its fault-free CAIS task; ``fig19`` the
    faulted serving run (intensity 1.0, the sweep's peak, honoring an
    ambient ``--fault-seed``); ``fig21`` its peak-intensity CAIS task,
    resilience mechanisms armed.  Reports are per-simulation (the sinks
    instrument one engine), so ``fig22`` drills into the CAIS fleet's
    replica-0 task at peak load — the same requests that replica serves
    inside the full fig22 run, by the determinism of the router plan.
    """
    fault_seed = (ctx.fault_spec.fault_seed
                  if ctx is not None and ctx.fault_spec is not None else 0)
    if experiment == "fig20_serving":
        return run_report(serving_task(scale=scale))
    if experiment == "fig19":
        return run_report(serving_task(scale=scale, fault_intensity=1.0,
                                       fault_seed=fault_seed))
    if experiment == "fig21":
        from .fig21_faulted_serving import RETRY_BUDGET, SLO_TTFT_MS
        return run_report(
            serving_task(scale=scale, fault_intensity=1.0,
                         fault_seed=fault_seed, admission_policy="shed",
                         slo_ttft_ms=SLO_TTFT_MS,
                         retry_budget=RETRY_BUDGET),
            slo_ttft_ms=SLO_TTFT_MS)
    if experiment == "fig22":
        from ..llm.fleet import plan_fleet
        from .fig22_fleet import LOADS, SLO_TTFT_MS, fleet_spec_for
        replica = plan_fleet(fleet_spec_for(scale, max(LOADS))).stage1[0]
        return run_report(
            SimTask(system="CAIS", graphs=(), config=dgx_h100_config(),
                    scale=scale, replica=replica),
            slo_ttft_ms=SLO_TTFT_MS)
    raise ValueError(
        f"--report supports fig19, fig20_serving, fig21 and fig22, "
        f"not {experiment!r}")


def add_parser(subparsers, shared) -> None:
    """Register ``report`` on the ``python -m repro`` tree."""
    parser = subparsers.add_parser(
        "report", parents=[shared.faults],
        help="SLO run report for the serving workload",
        description="SLO run report for the continuous-batching serving "
                    "workload (run one simulation, or render an existing "
                    "report JSON)")
    parser.add_argument("--from", dest="from_path", metavar="PATH",
                        default=None,
                        help="render an existing report JSON instead of "
                             "running a simulation")
    parser.add_argument("--system", default="CAIS")
    parser.add_argument("--scale", type=float, default=0.125,
                        help="tokens fraction (default: %(default)s)")
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--window-us", type=float, default=100.0,
                        help="time-series window (default: %(default)s)")
    parser.add_argument("--slo-ttft-ms", type=float,
                        default=DEFAULT_SLO_TTFT_MS)
    parser.add_argument("--slo-tpot-ms", type=float,
                        default=DEFAULT_SLO_TPOT_MS)
    parser.add_argument("--admission", default="none",
                        choices=("none", "shed", "defer"),
                        help="SLO-aware admission policy (gates on the "
                             "--slo-ttft-ms target; default: %(default)s)")
    parser.add_argument("--retry-budget", type=int, default=None,
                        metavar="N",
                        help="per-request retransmit budget before abort "
                             "+ re-prefill (default: unbounded)")
    parser.add_argument("--worst", type=int, default=5, metavar="N",
                        help="worst-request rows (default: %(default)s)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the report JSON artifact")
    parser.set_defaults(func=_command)


def _command(args) -> int:
    """Run-and-render, or render an existing report (``--from``)."""
    if args.from_path:
        record = load_report(args.from_path)
    else:
        task = serving_task(
            system=args.system,
            scale=Scale(tokens_fraction=args.scale),
            seed=args.seed,
            fault_intensity=(args.fault_intensity if args.faults else 0.0),
            fault_seed=args.fault_seed,
            admission_policy=args.admission,
            slo_ttft_ms=args.slo_ttft_ms,
            retry_budget=args.retry_budget)
        record = run_report(task, window_ns=args.window_us * 1e3,
                            slo_ttft_ms=args.slo_ttft_ms,
                            slo_tpot_ms=args.slo_tpot_ms,
                            worst_n=args.worst)
    print(format_report(record))
    if args.json:
        write_report(record, args.json)
        print(f"\nreport: {args.json}")
    return 0
