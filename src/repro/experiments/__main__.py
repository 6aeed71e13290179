"""``python -m repro experiments``: regenerate the paper's tables/figures.

Usage::

    python -m repro experiments fig2            # one experiment
    python -m repro experiments fig11 --quick   # smaller workload scale
    python -m repro experiments all --out EXPERIMENTS.generated.md
    python -m repro experiments all --quick --jobs 8   # fan out over cores
    python -m repro experiments all --no-cache         # force re-simulation

``--quick`` runs at 1/8 of the models' token count, the default at 1/4,
``--full`` unscaled (hours in pure Python; see DESIGN.md).

Every experiment is a matrix of independent simulations; ``--jobs N``
(default: all cores) fans them across worker processes and the
content-addressed result cache under ``--cache-dir`` (default
``.repro_cache/``) reuses any run already simulated — across figures and
across invocations.  ``--jobs 1 --no-cache`` is the original serial path,
byte-for-byte.  ``--metrics`` prints the observability registry snapshot
(cache hits/misses, per-task wall-time histogram) after the tables.

This module registers the subcommand's flags (:func:`add_parser`); the
parser itself is built by :mod:`repro.__main__`.  Run as a script,
``python -m repro.experiments ARGS`` is an alias for
``python -m repro experiments ARGS``.
"""

from __future__ import annotations

import os
import sys
import time

from . import (
    fig02_scaling,
    sensitivity,
    fig11_end_to_end,
    fig12_sublayer,
    fig13_merge_table,
    fig14_table_sweep,
    fig15_bandwidth,
    fig16_utilization_trace,
    fig17_scalability,
    fig18_nvls_validation,
    fig19_resilience,
    fig20_serving,
    fig21_faulted_serving,
    fig22_fleet,
    table2_scaling_validation,
)
from .. import obs
from ..common.config import FaultSpec
from ..hw.area import overhead_report
from .cache import SimCache
from .parallel import ExecContext
from .runner import DEFAULT, FULL, QUICK, Scale


def _fig2(scale: Scale, ctx: ExecContext) -> str:
    return fig02_scaling.format_table(fig02_scaling.run(scale))


def _fig11(scale: Scale, ctx: ExecContext) -> str:
    return fig11_end_to_end.format_table(
        fig11_end_to_end.run(scale, ctx=ctx))


def _fig12(scale: Scale, ctx: ExecContext) -> str:
    return fig12_sublayer.format_table(fig12_sublayer.run(scale, ctx=ctx))


def _fig13(scale: Scale, ctx: ExecContext) -> str:
    return fig13_merge_table.format_table(
        fig13_merge_table.run_table_size(scale, ctx=ctx),
        fig13_merge_table.run_wait_ablation(scale, ctx=ctx))


def _fig14(scale: Scale, ctx: ExecContext) -> str:
    return fig14_table_sweep.format_table(
        fig14_table_sweep.run(scale, ctx=ctx))


def _fig15(scale: Scale, ctx: ExecContext) -> str:
    return fig15_bandwidth.format_table(
        fig15_bandwidth.run(scale, ctx=ctx))


def _fig16(scale: Scale, ctx: ExecContext) -> str:
    return fig16_utilization_trace.format_table(
        fig16_utilization_trace.run(scale, ctx=ctx))


def _fig17(scale: Scale, ctx: ExecContext) -> str:
    return fig17_scalability.format_table(
        fig17_scalability.run(scale, ctx=ctx))


def _fig18(scale: Scale, ctx: ExecContext) -> str:
    return fig18_nvls_validation.format_table(fig18_nvls_validation.run())


def _fig19(scale: Scale, ctx: ExecContext) -> str:
    seed = (ctx.fault_spec.fault_seed
            if ctx.fault_spec is not None else 0)
    return fig19_resilience.format_table(
        fig19_resilience.run(scale, fault_seed=seed, ctx=ctx))


def _fig20(scale: Scale, ctx: ExecContext) -> str:
    return fig20_serving.format_table(fig20_serving.run(scale, ctx=ctx))


def _fig21(scale: Scale, ctx: ExecContext) -> str:
    seed = (ctx.fault_spec.fault_seed
            if ctx.fault_spec is not None else 0)
    return fig21_faulted_serving.format_table(
        fig21_faulted_serving.run(scale, fault_seed=seed, ctx=ctx))


def _fig22(scale: Scale, ctx: ExecContext) -> str:
    return fig22_fleet.format_table(fig22_fleet.run(scale, ctx=ctx))


def _sensitivity(scale: Scale, ctx: ExecContext) -> str:
    return sensitivity.format_tables(
        sensitivity.bandwidth_sweep(scale, ctx=ctx),
        sensitivity.seed_sweep(scale, ctx=ctx))


def _table2(scale: Scale, ctx: ExecContext) -> str:
    return table2_scaling_validation.format_table(
        table2_scaling_validation.run(scale, ctx=ctx))


def _hw(scale: Scale, ctx: ExecContext) -> str:
    return "### Section V-D: hardware overhead\n```\n" + \
        overhead_report() + "\n```"


EXPERIMENTS = {
    "fig2": _fig2,
    "fig11": _fig11,
    "fig12": _fig12,
    "fig13": _fig13,
    "fig14": _fig14,
    "fig15": _fig15,
    "fig16": _fig16,
    "fig17": _fig17,
    "fig18": _fig18,
    "fig19": _fig19,
    "fig20_serving": _fig20,
    "fig21": _fig21,
    "fig22": _fig22,
    "sensitivity": _sensitivity,
    "table2": _table2,
    "hw": _hw,
}


def add_parser(subparsers, shared) -> None:
    """Register ``experiments`` on the ``python -m repro`` tree."""
    parser = subparsers.add_parser(
        "experiments",
        parents=[shared.no_fastpath, shared.ledger, shared.faults],
        help="regenerate the paper's tables/figures",
        description="regenerate the paper's tables/figures")
    parser.add_argument("experiment",
                        choices=sorted(EXPERIMENTS) + ["all"],
                        help="which table/figure to regenerate")
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--quick", action="store_true",
                       help="1/8-token workloads (fastest)")
    group.add_argument("--full", action="store_true",
                       help="unscaled Table-I workloads (slow)")
    parser.add_argument("--out", default=None,
                        help="also append the output to this file")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes for independent simulations "
                             "(default: all cores; 1 = serial)")
    parser.add_argument("--no-cache", action="store_true",
                        help="always re-simulate, never reuse results")
    parser.add_argument("--cache-dir", default=".repro_cache",
                        metavar="DIR",
                        help="simulation-reuse cache location "
                             "(default: %(default)s)")
    parser.add_argument("--metrics", action="store_true",
                        help="print the metrics snapshot (cache hits/"
                             "misses, task wall times) after the tables")
    parser.add_argument("--progress", action="store_true",
                        help="live stderr progress board for matrix "
                             "sweeps (done/total, cache hit rate, ETA)")
    parser.add_argument("--meta-trace", metavar="PATH", default=None,
                        help="write a Perfetto trace of the matrix "
                             "runner itself (one track per worker, one "
                             "span per task) to PATH")
    parser.add_argument("--report", metavar="PATH", default=None,
                        help="also write a serving run-report JSON "
                             "(fig20_serving: fault-free; fig19: faulted "
                             "at peak intensity; fig21: faulted with "
                             "admission control and retry budgets; fig22: "
                             "the fleet's replica-0 stream; see "
                             "`python -m repro report`)")
    parser.set_defaults(func=_command, error=parser.error)


def _command(args) -> int:
    if args.report and args.experiment not in ("fig19", "fig20_serving",
                                               "fig21", "fig22"):
        args.error("--report is only meaningful for fig19, "
                   "fig20_serving, fig21 and fig22")

    jobs = args.jobs if args.jobs is not None else (os.cpu_count() or 1)
    if jobs < 1:
        args.error(f"--jobs must be >= 1, got {jobs}")
    cache = None if args.no_cache else SimCache(args.cache_dir)
    fault_spec = None
    if args.faults or args.fault_seed or args.fault_intensity != 1.0:
        fault_spec = FaultSpec(enabled=args.faults,
                               intensity=args.fault_intensity,
                               fault_seed=args.fault_seed)
    ctx = ExecContext(jobs=jobs, cache=cache, fault_spec=fault_spec,
                      progress=args.progress, meta_trace=args.meta_trace)

    metrics = obs.MetricsRegistry() if args.metrics else None
    if metrics is not None:
        obs.install(metrics=metrics)

    scale = QUICK if args.quick else (FULL if args.full else DEFAULT)
    names = sorted(EXPERIMENTS) if args.experiment == "all" \
        else [args.experiment]
    blocks = []
    try:
        for name in names:
            start = time.time()
            text = EXPERIMENTS[name](scale, ctx)
            elapsed = time.time() - start
            block = f"{text}\n\n_(regenerated in {elapsed:.1f}s at scale " \
                    f"{scale.tokens_fraction})_"
            print(block)
            print()
            blocks.append(block)
        if args.out:
            with open(args.out, "a") as fh:
                fh.write("\n\n".join(blocks) + "\n")
        if args.report:
            from .report import experiment_report, write_report
            write_report(experiment_report(args.experiment, scale, ctx),
                         args.report)
            print(f"report: {args.report}")
        if metrics is not None:
            print(metrics.to_json())
    finally:
        if metrics is not None:
            obs.reset()
    return 0


if __name__ == "__main__":
    from ..__main__ import main
    sys.exit(main(["experiments", *sys.argv[1:]]))
