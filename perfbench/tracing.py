"""The traced run: per-layer host time, engagement counts and a span file.

The run first measures untraced passes and one pass on the reference
event path (every fast-path layer off), which the default engine must
reproduce exactly.  It then installs the span wrappers and the layer
profiler and traces one complete pass: input construction, the cold
pass and one warm replay.  On ``fleet-observed`` it traces a second
cold pass without the metrics sink, for the sink slowdown.  Per-layer
metrics are self times of that first traced pass, scaled to the
reference machine speed like the end-to-end timings.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter
from pathlib import Path

from layers import (BENCH, ENTRY_POINTS, OWNER_ACCOUNTS, UNMAPPED,
                    LayerProfiler, SpanRecorder, account_for_owner,
                    install_wrappers)
from repro import obs
from repro.common import fastpath
from repro.obs.perfetto import validate_trace_file
from workloads import first_difference

#: Self-time accounts reported as ``<account>.host_s``: every account an
#: event owner or an entry point rolls up to.
HOST_ACCOUNTS = tuple(sorted(set(OWNER_ACCOUNTS.values())
                             | {account for _, _, account, _ in ENTRY_POINTS}))


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def write_spans(spans, path: Path) -> list:
    """Write kept spans as Chrome trace "X" events; returns the problems
    :func:`validate_trace_file` finds in the written file."""
    events = [{"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
               "args": {"name": "perfbench host CPU"}}]
    for index, (name, start, end, parent) in enumerate(spans):
        events.append({"name": name, "ph": "X", "pid": 1, "tid": 1,
                       "ts": start * 1e6, "dur": (end - start) * 1e6,
                       "args": {"span": index, "parent": parent}})
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
    return validate_trace_file(str(path))


def per_layer(workload, seed, seconds, tally, work: Path, measure,
              calibration):
    inputs = workload.prepare(seed, work / workload.name)
    samples, untraced = measure(workload, inputs, seed, seconds, tally,
                                calibration)
    if untraced is None:
        return {}
    untraced_cpu = statistics.median(samples["cpu_s"])

    # Reference event path: every fast-path layer off.  The default
    # engine must reproduce its outputs exactly; a difference fails the run.
    with fastpath.overridden(fastpath.DISABLED):
        reference = workload.outcome(inputs, workload.run(inputs)).observed
    reference_problems = []

    def check_reference(observed, what):
        key = first_difference(observed, reference)
        if key is not None:
            reference_problems.append(
                f"{what}: {key} differs from the reference path "
                "(fastpath.DISABLED)")

    check_reference(untraced.observed, "default engine")

    recorder = SpanRecorder()
    hits = Counter()
    peak = [0]

    def on_lookup(args, result):
        hits["lookups"] += 1
        hits["hits"] += result is not None

    def on_matrix(args, result):
        hits["tasks"] += len(args[0])

    def on_run(args, result):
        peak[0] = max(peak[0], args[0].peak_queue_depth)

    profiler = LayerProfiler(recorder)
    obs.install(profiler=profiler)
    uninstall = install_wrappers(recorder, on_return={
        "SimCache.lookup": on_lookup, "run_matrix": on_matrix,
        "Simulator.run": on_run})
    problems = []
    before = calibration.sample()
    try:
        recorder.open(BENCH, f"{workload.name} traced pass")
        traced_inputs = workload.prepare(seed, work / workload.name)
        recorder.open(BENCH, "cold pass")
        raw = workload.run(traced_inputs)
        traced_cpu = recorder.close()
        outcome = workload.outcome(traced_inputs, raw)
        workload.cache_outcome(traced_inputs, outcome)
        recorder.open(BENCH, "warm replay")
        problems += workload.replay_problems(
            outcome, workload.replay(traced_inputs, outcome))
        recorder.close()
        root_cpu = recorder.close()
        factor = calibration.factor(before, calibration.sample())
        traced_cpu *= factor
        self_s = {k: v * factor for k, v in recorder.self_s.items()}
        calls = Counter(recorder.calls)
        matrix = Counter(hits)
        owners = profiler.top(1 << 30)
        # Read this pass's run summaries before the pass without the sink
        # replaces them in the cache.
        tbs, events, counts = outcome.tbs, outcome.events, outcome.counts
        peak_depth = peak[0]
        sink_slowdown = 1.0
        if workload.name == "fleet-observed":
            recorder.open(BENCH, "cold pass without sink")
            plain = workload.outcome(traced_inputs,
                                     workload.run(traced_inputs, sink=False))
            sink_slowdown = traced_cpu / (recorder.close() * factor)
            check_reference(plain.observed, "default engine without sink")
    finally:
        uninstall()
        obs.reset()
    if first_difference(outcome.observed, untraced.observed) is not None:
        problems.append("tracing changed the outputs")
    problems += write_spans(
        recorder.spans, work / f"trace-{workload.name}-{seed}.json")
    tally.record(f"{workload.name} traced pass", problems)
    tally.record(f"{workload.name} reference check", reference_problems)

    link_events = sum(count for owner, _, count in owners
                      if account_for_owner(owner) == "interconnect.link")
    sends = calls["Link.send"]
    launches = calls["Executor.launch_kernel"]
    collective_calls = calls["CollectiveFastPath.run"]
    metrics = {f"{account}.host_s": (self_s.get(account, 0.0), "s")
               for account in HOST_ACCOUNTS}
    metrics.update({
        "events.fired": (events, "count"),
        "events.elided": (counts["fastpath.events_elided"], "count"),
        "events.per_cpu_s": (events / untraced_cpu, "1/s"),
        "events.peak_queue_depth": (peak_depth, "count"),
        "interconnect.link.events": (link_events, "count"),
        "interconnect.link.us_per_event": (
            _share(self_s.get("interconnect.link", 0.0) * 1e6, link_events),
            "us"),
        "interconnect.link.sends": (sends, "count"),
        "interconnect.link.window_share": (
            _share(counts["fastpath.link_messages"], sends), "ratio"),
        "interconnect.switch.receives": (calls["Switch.receive"], "count"),
        "cais.merge.process_calls": (calls["MergeUnit.process"], "count"),
        "nvls.process_calls": (calls["NvlsEngine.process"], "count"),
        "gpu.tbs": (tbs, "count"),
        "gpu.us_per_tb": (_share(self_s.get("gpu", 0.0) * 1e6, tbs),
                          "us"),
        "gpu.kernel_launches": (launches, "count"),
        "gpu.analytic_kernel_share": (
            _share(counts["fastpath.kernel_launches"], launches), "ratio"),
        "collectives.analytic.calls": (collective_calls, "count"),
        "collectives.analytic.hit_share": (
            _share(counts["fastpath.analytic_ops"], collective_calls),
            "ratio"),
        "collectives.analytic.disagreements": (
            counts["fastpath.analytic_disagreements"], "count"),
        "llm.serving.iterations": (counts["serving.iterations"], "count"),
        "experiments.tasks": (matrix["tasks"], "count"),
        "experiments.cache.hit_share": (
            _share(matrix["hits"], matrix["lookups"]), "ratio"),
        "obs.sink_slowdown": (sink_slowdown, "ratio"),
        "trace.overhead": (traced_cpu / untraced_cpu, "ratio"),
        "trace.unattributed_share": (
            _share(self_s.get(BENCH, 0.0) + self_s.get(UNMAPPED, 0.0),
                   root_cpu * factor), "ratio"),
        "fastpath.reference_mismatches": (len(reference_problems),
                                          "count"),
    })
    return metrics
