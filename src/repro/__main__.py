"""The command line: one ``python -m repro <subcommand>`` tree.

Usage::

    python -m repro run --system CAIS --model LLaMA-7B --workload L1
    python -m repro run --system SP-NVLS --workload layer --training \\
        --scale 0.125 --seed 7
    python -m repro run --system CAIS --workload L1 --trace out.json \\
        --metrics --profile
    python -m repro run --list
    python -m repro experiments fig11 --quick
    python -m repro explain --workload L2 --systems CAIS TP-NVLS
    python -m repro report --faults --json faulted.json
    python -m repro diff clean.json faulted.json
    python -m repro ledger query --system CAIS
    python -m repro cache --gc

``run`` is an ad-hoc single simulation; ``experiments`` regenerates the
paper's tables/figures.  This module builds the only parser.  Every other
subcommand module (``experiments/__main__.py``, ``explain``, ``report``,
``diff``, ``ledger``, ``cache``) registers its own flags next to its
handler through an ``add_parser(subparsers, shared)`` function.  Flags that
several subcommands share (``--no-fastpath``, ``--ledger`` and the fault
trio) are defined once here as parent parsers, and
:func:`apply_process_flags` applies their process-wide side effects.

Two older spellings stay as aliases: ``python -m repro --system ...``
without a subcommand means ``run``, and ``python -m repro.experiments
ARGS`` means ``python -m repro experiments ARGS``.

Observability flags of ``run`` (see README, "Observability"): ``--trace``
writes a Chrome/Perfetto trace of the simulated hardware, ``--metrics`` /
``--metrics-out`` snapshot the counter/gauge/histogram registry, and
``--profile`` prints a host-time hotspot profile of the simulator itself.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time

from . import obs
from .common import fastpath
from .common.config import FaultSpec, dgx_h100_config
from .experiments import __main__ as experiments_cli
from .experiments import cache, diff, explain, ledger, report
from .experiments.runner import Scale, layer_graphs, sublayer_for
from .llm.models import TABLE_I, by_name
from .llm.tiling import TilingConfig
from .llm.tp import SUBLAYERS
from .metrics.report import format_run_report
from .systems import SYSTEM_CLASSES, make_system

WORKLOADS = tuple(SUBLAYERS) + ("layer", "serving", "fleet")


def build_parser() -> argparse.ArgumentParser:
    """The whole ``python -m repro`` command tree."""
    # The root parser, then the parent parsers holding the flags several
    # subcommands share (argparse wants parents without their own -h).
    parser, no_fastpath, ledger_flag, faults = (
        argparse.ArgumentParser(prog="python -m repro", add_help=root)
        for root in (True, False, False, False))
    no_fastpath.add_argument(
        "--no-fastpath", action="store_true",
        help="force the reference event path everywhere (disables every "
             "engine fast-path layer; the byte-identity baseline, see "
             "DESIGN.md §11)")
    ledger_flag.add_argument(
        "--ledger", nargs="?", const=".repro_ledger", default=None,
        metavar="DIR",
        help="append one run record per completed simulation to this "
             "ledger directory (default when given bare: %(const)s; see "
             "`python -m repro ledger`)")
    faults.add_argument("--faults", action="store_true",
                        help="inject a deterministic fault schedule (see "
                             "README, 'Fault injection & resilience')")
    faults.add_argument("--fault-seed", type=int, default=0, metavar="S",
                        help="fault-schedule seed (default: %(default)s)")
    faults.add_argument("--fault-intensity", type=float, default=1.0,
                        metavar="X",
                        help="fault intensity in [0,1] "
                             "(default: %(default)s)")
    shared = argparse.Namespace(no_fastpath=no_fastpath,
                                ledger=ledger_flag, faults=faults)
    subparsers = parser.add_subparsers(dest="subcommand", required=True)
    _add_run_parser(subparsers, shared)
    for module in (experiments_cli, explain, report, diff, ledger, cache):
        module.add_parser(subparsers, shared)
    return parser


def apply_process_flags(args: argparse.Namespace) -> None:
    """Apply ``--no-fastpath`` / ``--ledger`` to the whole process.

    Both travel through environment variables as well as in-process
    state, so pool workers spawned by ``run_matrix`` inherit the choice
    regardless of start method and append their own ledger records (see
    obs/ledger.py).
    """
    if getattr(args, "no_fastpath", False):
        os.environ["REPRO_NO_FASTPATH"] = "1"
        fastpath.set_config(fastpath.DISABLED)
    if getattr(args, "ledger", None):
        os.environ[obs.LEDGER_ENV] = args.ledger


def main(argv=None) -> int:
    """Parse ``argv`` against the tree and run the chosen subcommand."""
    if argv is None:
        argv = sys.argv[1:]
    if not argv or (argv[0].startswith("-")
                    and argv[0] not in ("-h", "--help")):
        argv = ["run", *argv]      # alias: no subcommand means `run`
    args = build_parser().parse_args(argv)
    apply_process_flags(args)
    return args.func(args)


def _add_run_parser(subparsers, shared) -> None:
    parser = subparsers.add_parser(
        "run", parents=[shared.no_fastpath, shared.ledger, shared.faults],
        help="run one system on one workload and print a report",
        description="run one system on one workload and print a report")
    parser.add_argument("--list", action="store_true",
                        help="list systems and models, then exit")
    parser.add_argument("--system", default="CAIS",
                        choices=sorted(SYSTEM_CLASSES))
    parser.add_argument("--model", default="LLaMA-7B",
                        choices=sorted(TABLE_I) + ["LLaMA-full"])
    parser.add_argument("--workload", default="L1", choices=WORKLOADS,
                        help="one Fig. 12 sub-layer, a full layer, the "
                             "continuous-batching serving stream, or a "
                             "multi-replica serving fleet")
    parser.add_argument("--training", action="store_true",
                        help="forward + backward (layer workload only)")
    parser.add_argument("--scale", type=float, default=0.125,
                        help="fraction of the model's tokens to simulate")
    parser.add_argument("--gpus", type=int, default=8)
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--no-gantt", action="store_true",
                        help="omit the kernel timeline from the report")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="write a Chrome/Perfetto trace of the run "
                             "(open at ui.perfetto.dev)")
    parser.add_argument("--metrics", action="store_true",
                        help="print the metrics snapshot as JSON")
    parser.add_argument("--metrics-out", metavar="PATH", default=None,
                        help="write the metrics snapshot to PATH")
    parser.add_argument("--profile", action="store_true",
                        help="print a host-time hotspot profile of the "
                             "simulator's event loop")
    parser.add_argument("--admission", default="none",
                        choices=("none", "shed", "defer"),
                        help="serving workload: SLO-aware admission "
                             "policy (default: %(default)s)")
    parser.add_argument("--slo-ttft-ms", type=float, default=None,
                        metavar="MS",
                        help="serving workload: TTFT SLO target driving "
                             "--admission and the attainment summary")
    parser.add_argument("--retry-budget", type=int, default=None,
                        metavar="N",
                        help="serving workload: per-request retransmit "
                             "budget before abort + re-prefill")
    parser.add_argument("--replicas", type=int, default=None, metavar="N",
                        help="fleet workload: TP-replica count "
                             "(default: the fig22 fleet size)")
    parser.add_argument("--fleet-policy", default="round-robin",
                        choices=("round-robin", "least-kv",
                                 "prefix-affinity"),
                        help="fleet workload: router load-balancing "
                             "policy (default: %(default)s)")
    parser.add_argument("--prefill-replicas", type=int, default=0,
                        metavar="P",
                        help="fleet workload: carve P replicas into a "
                             "prefill pool with KV handoff to the rest "
                             "(default: combined replicas)")
    parser.set_defaults(func=_run, error=parser.error)


def _run(args) -> int:
    if args.admission != "none" and args.slo_ttft_ms is None:
        args.error("--admission requires --slo-ttft-ms")
    if args.training and args.workload != "layer":
        args.error("--training applies to --workload layer only")
    if args.trace and args.workload == "fleet":
        args.error("--trace does not apply to --workload fleet: its "
                   "replica engines share no timeline")

    if args.list:
        print("systems:", ", ".join(sorted(SYSTEM_CLASSES)))
        print("models: ", ", ".join(sorted(TABLE_I) + ["LLaMA-full"]))
        print("workloads:", ", ".join(WORKLOADS))
        return 0

    # Observability sinks must be installed before the harness is built —
    # components capture the current tracer/registry at construction.
    tracer = obs.Tracer() if args.trace else None
    metrics = (obs.MetricsRegistry()
               if (args.metrics or args.metrics_out) else None)
    profiler = obs.SimProfiler() if args.profile else None
    # A trace gets the causal DAG recorded too, so the exported file
    # carries the critical-path row and its flow arrows.
    causality = obs.CausalityRecorder() if args.trace else None
    obs.install(tracer=tracer, metrics=metrics, profiler=profiler,
                causality=causality)

    config = dgx_h100_config(num_gpus=args.gpus, seed=args.seed)
    if args.faults:
        config = config.with_faults(FaultSpec(
            enabled=True, intensity=args.fault_intensity,
            fault_seed=args.fault_seed))
    scale = Scale(tokens_fraction=args.scale,
                  tiling=TilingConfig(chunk_bytes=32768,
                                      red_chunk_bytes=8192))
    try:
        if args.workload == "fleet":
            _run_fleet(args, config, scale)
        else:
            _run_single(args, config, scale)
        if args.ledger:
            ledger_dir = obs.ledger_from_env()
            print(f"ledger: {ledger_dir.path} "
                  f"({len(ledger_dir)} record(s))")
        if tracer is not None:
            from .obs.perfetto import write_chrome_trace
            write_chrome_trace(tracer, args.trace)
            print(f"trace: {args.trace} ({len(tracer.events())} events; "
                  f"open at https://ui.perfetto.dev)")
        if metrics is not None:
            payload = metrics.to_json()
            if args.metrics_out:
                with open(args.metrics_out, "w") as fh:
                    fh.write(payload + "\n")
                print(f"metrics: {args.metrics_out}")
            if args.metrics:
                print(payload)
        if profiler is not None:
            print(profiler.report())
    finally:
        obs.reset()
    return 0


def _run_fleet(args, config, scale: Scale) -> None:
    """The fleet path aggregates N independent replica runs; there is no
    single RunResult to report, so it prints its own summary, and each
    replica task appends its own ledger record through ``run_matrix``."""
    from .experiments.fig22_fleet import (fleet_spec_for,
                                          format_fleet_summary, run_fleet)
    fleet = fleet_spec_for(
        scale, 1.0, args.seed,
        replicas=args.replicas if args.replicas is not None else 4,
        policy=args.fleet_policy,
        prefill_replicas=args.prefill_replicas)
    fleet = dataclasses.replace(fleet, serving=dataclasses.replace(
        fleet.serving, model=args.model,
        retry_budget=args.retry_budget,
        **({"admission_policy": args.admission,
            "slo_ttft_ms": args.slo_ttft_ms}
           if args.admission != "none" else {})))
    print(format_fleet_summary(run_fleet(args.system, fleet, config=config,
                                         scale=scale)))


def _run_single(args, config, scale: Scale) -> None:
    """One serving stream, sub-layer or layer: print its run report and,
    under ``--ledger``, append its record."""
    system = make_system(args.system, config, tiling=scale.tiling)
    run_started = time.perf_counter()
    spec = None
    graphs = []
    if args.workload == "serving":
        from .experiments.fig20_serving import spec_for
        from .experiments.runner import style_for
        from .llm.serving import simulate_serving
        spec = dataclasses.replace(spec_for(scale, seed=args.seed),
                                   model=args.model,
                                   admission_policy=args.admission,
                                   slo_ttft_ms=args.slo_ttft_ms,
                                   retry_budget=args.retry_budget)
        serving = simulate_serving(system, spec, model=by_name(args.model),
                                   style=style_for(args.system))
        result = serving.run
        hiccups = f"{serving.evictions} evictions"
        if serving.shed:
            hiccups += f", {len(serving.shed)} shed"
        if serving.aborts:
            hiccups += f", {serving.aborts} aborts"
        print(f"serving: {len(serving.stats)} requests, "
              f"{serving.total_output_tokens} tokens in "
              f"{serving.iterations} iterations "
              f"({hiccups}) -> "
              f"{serving.tokens_per_s:,.0f} tokens/s, "
              f"TTFT mean {serving.mean_ttft_ns() / 1e6:.2f} ms / "
              f"p95 {serving.ttft_quantile_ns(0.95) / 1e6:.2f} ms, "
              f"TPOT mean {serving.mean_tpot_ns() / 1e6:.2f} ms")
        if args.slo_ttft_ms is not None:
            slo_ns = args.slo_ttft_ms * 1e6
            print(f"SLO (TTFT <= {args.slo_ttft_ms:g} ms): "
                  f"{serving.slo_attainment(slo_ns):.1%} attainment "
                  f"of {len(serving.stats) + len(serving.shed)} "
                  f"offered")
    else:
        model = scale.apply(by_name(args.model))
        if args.workload == "layer":
            graphs = layer_graphs(model, args.gpus, args.system,
                                  args.training)
        else:
            graphs = [sublayer_for(model, args.gpus, args.system,
                                   args.workload)]
        result = system.run(graphs)
    run_wall_ms = (time.perf_counter() - run_started) * 1e3
    print(format_run_report(result, gantt=not args.no_gantt))
    if args.ledger:
        # Describe the run as the SimTask it is equivalent to, so a direct
        # run and the identical matrix task append the same record.
        from .experiments.ledger import record_for_task
        from .experiments.parallel import RunSummary, SimTask
        task = SimTask(system=args.system, graphs=tuple(graphs),
                       config=config, scale=scale, serving=spec)
        obs.ledger_from_env().append(record_for_task(
            task, RunSummary.from_result(result), cache_hit=False,
            wall_ms=run_wall_ms))


if __name__ == "__main__":
    sys.exit(main())
