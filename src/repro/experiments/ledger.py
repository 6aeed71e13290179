"""Ledger records for experiment runs + the ``repro ledger`` CLI.

:mod:`repro.obs.ledger` owns the generic record envelope and the
append-only store; this module owns the **policy** — what a simulation's
spec digest and headline metrics look like — and the command line that
queries the accumulated history:

* :func:`task_spec` / :func:`record_for_task` — one canonical record per
  :class:`~.parallel.SimTask` outcome.  Matrix workers, the cache-hit
  path and ``python -m repro run --ledger`` all use these (a direct run
  describes itself as the equivalent task and projects its result with
  :meth:`~.parallel.RunSummary.from_result`), so every record of the
  same run carries a byte-identical stable section.  ``repro report``
  builds its record with the same function (:mod:`.report`).
* ``python -m repro ledger query|summarize|regress`` (:func:`add_parser`) —
  filter recorded runs, per-system trends across history, and a drift
  gate comparing the ledger against the committed benchmark envelopes
  (``BENCH_baseline.json`` / ``BENCH_engine.json``) — the substrate the
  ROADMAP-5 DSE driver will search.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from typing import Any, Dict, List, Optional

from ..common import fastpath
from ..obs.ledger import RunLedger, build_record, canonical_json, \
    stable_line
from .cache import canonical
from .runner import markdown_table

#: Default benchmark envelopes ``ledger regress`` checks against
#: (relative to the invoking working directory — the repo root in CI).
DEFAULT_ENGINE_BENCH = "BENCH_engine.json"
DEFAULT_BASELINE_BENCH = "benchmarks/BENCH_baseline.json"

#: ``regress`` fails when the ledger's median host event throughput
#: falls below this fraction of the committed ``events_per_cpu_second``
#: reference.  Deliberately loose (machines differ) — this is a canary
#: for catastrophic engine slowdowns, not a precision gate.
DEFAULT_THROUGHPUT_FLOOR = 0.01


def _model_of(task) -> Optional[str]:
    """Best-effort Table-I model name for query/summarize filters."""
    if task.replica is not None:
        return (task.replica.model.name if task.replica.model is not None
                else task.replica.spec.model)
    if task.serving is not None:
        return task.serving.model
    from ..llm.models import TABLE_I
    for graph in task.graphs:
        for name in sorted(TABLE_I, key=len, reverse=True):
            if graph.name.startswith(name + "-"):
                return name
    return None


def task_spec(task) -> Dict[str, Any]:
    """Deterministic spec digest of one task: everything a reader needs
    to know *what ran* without re-deriving the fingerprint payload."""
    cfg = task.config
    fp = fastpath.config()
    role = None
    if task.replica is not None:
        workload = "fleet"
        # "replica" / "prefill" / "decode" plus the pool-local slot, so
        # fleet rollups never alias each other or single-session serving.
        role = f"{task.replica.role}[{task.replica.index}]"
    elif task.serving is not None:
        workload = "serving"
    elif task.ablation is not None:
        workload = "ablation"
    else:
        workload = "graphs"
    return {
        "system": task.system,
        "workload": workload,
        "role": role,
        "model": _model_of(task),
        "seed": cfg.seed,
        "num_gpus": cfg.num_gpus,
        "num_switches": cfg.num_switches,
        "graphs": [g.name for g in task.graphs],
        "kwargs": [[k, canonical(v)] for k, v in sorted(task.kwargs)],
        "scale": canonical(task.scale),
        "faults": canonical(cfg.faults),
        # Replica tasks record the per-replica serving spec: it is what
        # actually ran (the fleet routing lives in the role + requests).
        "serving": canonical(task.serving if task.serving is not None
                             else task.replica.spec
                             if task.replica is not None else None),
        "ablation": canonical(task.ablation),
        "fastpath": fp.cache_token() if fp.any_enabled else None,
    }


def summary_metrics(summary) -> Dict[str, float]:
    """Headline scalars of a :class:`~.parallel.RunSummary`."""
    return {
        "makespan_ns": summary.makespan_ns,
        "compute_ns": summary.compute_ns,
        "tbs_completed": summary.tbs_completed,
        "events": summary.events,
        "gpu_utilization": summary.gpu_utilization,
        "avg_bandwidth_utilization": summary.avg_bandwidth_utilization,
        "link_bytes_total": summary.link_bytes_total,
    }


def record_for_task(task, summary, *, cache_hit: bool, wall_ms: float,
                    fingerprint: Optional[str] = None) -> Dict[str, Any]:
    """One ledger record for a task outcome (simulated or cache-served)."""
    return build_record(
        fingerprint=fingerprint or task.fingerprint(),
        spec=task_spec(task),
        metrics=summary_metrics(summary),
        details=dict(summary.details),
        cache_hit=cache_hit,
        wall_ms=wall_ms)


# ---------------------------------------------------------------------------
# Query / summarize / regress
# ---------------------------------------------------------------------------

def filter_records(records, *, system: Optional[str] = None,
                   workload: Optional[str] = None,
                   model: Optional[str] = None,
                   seed: Optional[int] = None,
                   fingerprint: Optional[str] = None) -> List[Dict]:
    out = []
    for rec in records:
        spec = rec["spec"]
        if system is not None and spec.get("system") != system:
            continue
        if workload is not None and spec.get("workload") != workload:
            continue
        if model is not None and spec.get("model") != model:
            continue
        if seed is not None and spec.get("seed") != seed:
            continue
        if fingerprint is not None and \
                not rec["fingerprint"].startswith(fingerprint):
            continue
        out.append(rec)
    return out


def _when(rec: Dict) -> str:
    ts = rec["volatile"].get("recorded_unix", 0.0)
    return time.strftime("%Y-%m-%d %H:%M:%S", time.gmtime(ts))


def format_query(records: List[Dict]) -> str:
    if not records:
        return "ledger query: no matching records"
    rows = []
    for rec in records:
        spec, vol = rec["spec"], rec["volatile"]
        rows.append([
            _when(rec),
            spec.get("system", "?"),
            spec.get("workload", "?"),
            spec.get("model") or "-",
            spec.get("seed", "?"),
            rec["metrics"]["makespan_ns"] / 1e6,
            int(rec["metrics"]["events"]),
            "hit" if vol["cache_hit"] else "miss",
            vol["wall_ms"],
            rec["fingerprint"][:12],
        ])
    table = markdown_table(
        ["recorded (utc)", "system", "workload", "model", "seed",
         "makespan (ms)", "events", "cache", "wall (ms)", "fingerprint"],
        rows)
    return f"### repro ledger — {len(records)} record(s)\n{table}"


def summarize_records(records: List[Dict]) -> List[Dict]:
    """Per-(system, workload, role) aggregates across recorded history.

    ``role`` is ``None`` for everything but fleet replica records
    (``replica[i]`` / ``prefill[i]`` / ``decode[i]``) — without it in
    the key, a fleet's N per-replica serving runs would alias each other
    and any single-session serving record of the same system.
    """
    groups: Dict[tuple, List[Dict]] = defaultdict(list)
    for rec in records:
        spec = rec["spec"]
        groups[(spec.get("system", "?"),
                spec.get("workload", "?"),
                spec.get("role"))].append(rec)
    out = []
    for (system, workload, role), recs in sorted(
            groups.items(), key=lambda kv: (kv[0][0], kv[0][1],
                                            kv[0][2] or "")):
        makespans = [r["metrics"]["makespan_ns"] for r in recs]
        hits = sum(1 for r in recs if r["volatile"]["cache_hit"])
        miss_walls = [r["volatile"]["wall_ms"] for r in recs
                      if not r["volatile"]["cache_hit"]]
        out.append({
            "system": system,
            "workload": workload,
            "role": role,
            "runs": len(recs),
            "fingerprints": len({r["fingerprint"] for r in recs}),
            "cache_hit_rate": hits / len(recs),
            "makespan_ns": {
                "latest": makespans[-1],
                "min": min(makespans),
                "mean": sum(makespans) / len(makespans),
            },
            "sim_wall_ms_total": sum(miss_walls),
            "last_recorded": _when(recs[-1]),
        })
    return out


def format_summary(groups: List[Dict]) -> str:
    if not groups:
        return "ledger summarize: no records"
    rows = [[g["system"], g["workload"], g.get("role") or "-",
             g["runs"], g["fingerprints"],
             f"{g['cache_hit_rate']:.0%}",
             g["makespan_ns"]["latest"] / 1e6,
             g["makespan_ns"]["min"] / 1e6,
             g["makespan_ns"]["mean"] / 1e6,
             g["sim_wall_ms_total"] / 1e3,
             g["last_recorded"]]
            for g in groups]
    table = markdown_table(
        ["system", "workload", "role", "runs", "specs", "hit rate",
         "latest (ms)", "min (ms)", "mean (ms)", "sim wall (s)",
         "last recorded (utc)"],
        rows)
    total = sum(g["runs"] for g in groups)
    return (f"### repro ledger summary — {total} record(s), "
            f"{len(groups)} system/workload group(s)\n{table}")


def regress_check(records: List[Dict], *,
                  engine_bench: Optional[Dict] = None,
                  baseline_bench: Optional[Dict] = None,
                  throughput_floor: float = DEFAULT_THROUGHPUT_FLOOR,
                  ) -> List[str]:
    """All drift problems found in the ledger; empty means the gate passes.

    Three checks, strongest first:

    1. **Determinism drift** — the same fingerprint must never appear
       with two different stable sections (spec/metrics/details); the
       fingerprint *is* the promise that the outcome is reproducible.
    2. **Cache-replay fidelity** — a hit record must be stable-identical
       to the miss record that populated its cache entry (the pure-replay
       invariant ``BENCH_baseline.json``'s cached row asserts in bench
       form).  A drift here with check 1 passing is impossible, but the
       message names the cache when both sides exist.
    3. **Engine throughput canary** — against ``BENCH_engine.json``'s
       ``events_per_cpu_second`` reference: the median host event
       throughput of simulated records must stay above
       ``throughput_floor`` of it.  Loose by design; it exists to catch
       order-of-magnitude engine regressions the moment any ledgered run
       exhibits one.
    """
    problems: List[str] = []
    if not records:
        return ["ledger is empty: nothing to check "
                "(run with --ledger or REPRO_LEDGER first)"]

    by_fp: Dict[str, Dict[str, Dict]] = defaultdict(dict)
    for rec in records:
        line = stable_line(rec)
        by_fp[rec["fingerprint"]].setdefault(line, rec)
    for fp, variants in sorted(by_fp.items()):
        if len(variants) > 1:
            recs = list(variants.values())
            hit_kinds = {r["volatile"]["cache_hit"] for r in recs}
            makespans = sorted({r["metrics"]["makespan_ns"]
                                for r in recs})
            if hit_kinds == {True, False}:
                problems.append(
                    f"cache replay diverged from simulation for "
                    f"{fp[:12]}…: makespans {makespans}")
            else:
                problems.append(
                    f"determinism drift: fingerprint {fp[:12]}… has "
                    f"{len(variants)} distinct stable records "
                    f"(makespans {makespans})")

    if engine_bench is not None:
        reference = float(engine_bench.get("events_per_cpu_second", 0.0))
        rates = [r["metrics"]["events"] / (r["volatile"]["wall_ms"] / 1e3)
                 for r in records
                 if not r["volatile"]["cache_hit"]
                 and r["volatile"]["wall_ms"] > 0.0
                 and r["metrics"]["events"] > 0]
        if reference > 0.0 and rates:
            floor = throughput_floor * reference
            observed = statistics.median(rates)
            if observed < floor:
                problems.append(
                    f"engine throughput collapsed: median "
                    f"{observed:,.0f} events/s over {len(rates)} "
                    f"simulated record(s) is below "
                    f"{throughput_floor:.0%} of the committed "
                    f"{reference:,.0f} events/s reference")

    if baseline_bench is not None:
        # The committed cached row promises warm re-runs are pure
        # replays; in ledger terms a hit record must cost (essentially)
        # no simulation wall time.
        expensive_hits = [r for r in records
                          if r["volatile"]["cache_hit"]
                          and r["volatile"]["wall_ms"] > 1e3]
        if expensive_hits:
            problems.append(
                f"{len(expensive_hits)} cache-hit record(s) carry "
                f">1 s of wall time — hits should be pure replays "
                f"(BENCH_baseline.json cached envelope)")
    return problems


def _load_json(path: str) -> Optional[Dict]:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def add_parser(subparsers, shared) -> None:
    """Register ``ledger`` on the ``python -m repro`` tree."""
    parser = subparsers.add_parser(
        "ledger", help="query the cross-run ledger",
        description="query, summarize, and regression-gate the "
                    "append-only run ledger (see README, 'Auditing runs "
                    "over time')")
    parser.add_argument("--dir", default=".repro_ledger", metavar="DIR",
                        help="ledger root (default: %(default)s)")
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("query", help="filter and list recorded runs")
    q.add_argument("--system", default=None)
    q.add_argument("--workload", default=None,
                   choices=("graphs", "serving", "ablation", "fleet"))
    q.add_argument("--model", default=None)
    q.add_argument("--seed", type=int, default=None)
    q.add_argument("--fingerprint", default=None, metavar="PREFIX",
                   help="hex fingerprint prefix")
    q.add_argument("--limit", type=int, default=None, metavar="N",
                   help="show only the latest N matches")
    q.add_argument("--json", action="store_true",
                   help="emit matching records as JSONL instead")

    s = sub.add_parser("summarize",
                       help="per-system trends across recorded runs")
    s.add_argument("--system", default=None)
    s.add_argument("--json", action="store_true")

    r = sub.add_parser("regress",
                       help="fail on determinism drift or engine "
                            "slowdown vs the committed benchmarks")
    r.add_argument("--engine-bench", default=DEFAULT_ENGINE_BENCH,
                   metavar="PATH",
                   help="BENCH_engine.json envelope "
                        "(default: %(default)s)")
    r.add_argument("--bench", default=DEFAULT_BASELINE_BENCH,
                   metavar="PATH",
                   help="BENCH_baseline.json envelope "
                        "(default: %(default)s)")
    r.add_argument("--throughput-floor", type=float,
                   default=DEFAULT_THROUGHPUT_FLOOR, metavar="F",
                   help="minimum fraction of the reference host event "
                        "throughput (default: %(default)s)")
    parser.set_defaults(func=_command)


def _command(args) -> int:
    ledger = RunLedger(args.dir)
    records = ledger.records()

    if args.command == "query":
        matched = filter_records(
            records, system=args.system, workload=args.workload,
            model=args.model, seed=args.seed,
            fingerprint=args.fingerprint)
        if args.limit is not None:
            matched = matched[-args.limit:]
        if args.json:
            for rec in matched:
                print(canonical_json(rec))
        else:
            print(format_query(matched))
        return 0

    if args.command == "summarize":
        matched = filter_records(records, system=args.system)
        groups = summarize_records(matched)
        if args.json:
            print(canonical_json(groups))
        else:
            print(format_summary(groups))
        return 0

    # regress
    engine = _load_json(args.engine_bench)
    baseline = _load_json(args.bench)
    problems = regress_check(records, engine_bench=engine,
                             baseline_bench=baseline,
                             throughput_floor=args.throughput_floor)
    skipped = [name for name, obj in
               (("engine", engine), ("baseline", baseline)) if obj is None]
    print(f"ledger regress: {len(records)} record(s), "
          f"{len({r['fingerprint'] for r in records})} fingerprint(s)"
          + (f" (skipped envelopes: {', '.join(skipped)})"
             if skipped else ""))
    if problems:
        print("\nDRIFT:")
        for p in problems:
            print(f"  - {p}")
        return 1
    print("ledger regress: OK")
    return 0
