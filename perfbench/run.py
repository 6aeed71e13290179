#!/usr/bin/env python3
"""The repository benchmark: host cost of simulating the CAIS reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload cais-layer --seed 2026 \
        --seconds 25 --trace 0

Each run builds the workload's inputs from ``--seed``, repeats its cold
pass (and a warm replay from the result cache after each) for
``--seconds``, checks every output, and prints as its last line one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics (medians over the passes);
``--trace 1`` adds one traced pass and reports the per-layer metrics, and
writes that pass's spans to ``.perfbench/trace-<workload>-<seed>.json``.
Host time is process CPU time, single process, no worker pool.

``--pin`` re-records ``pins.json``: the reference event path's outputs
on the pinned seeds, which every pass on those seeds must reproduce.
See README.md beside this file for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from calibration import Calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
PINS = HERE / "pins.json"

#: Seeds whose outputs ``pins.json`` pins: the default and the held-out one.
PINNED_SEEDS = (2026, 7)
#: Cold passes a run makes even when ``--seconds`` is already spent.
MIN_PASSES = 3
#: Timed warm replays after each cold pass.
REPLAYS = 5
#: Subprocesses timing set-up; ``setup_s`` is their median.
SETUP_PROBES = 5


def _machine(phase: str) -> dict:
    return {"phase": phase, "nproc": os.cpu_count(),
            "load1": os.getloadavg()[0]}


def _git_revision() -> str:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


class _FirstEvent(Exception):
    """Raised at the first ``Simulator.run`` of a set-up probe."""


def setup_probe(workload, seed: int) -> float:
    """Process CPU from interpreter start to the first simulated event,
    scaled to the reference machine speed."""
    from repro.common.events import Simulator

    def stop(self, *args, **kwargs):
        raise _FirstEvent(time.process_time())

    Simulator.run = stop
    work = WORK / f"probe-{workload.name}-{os.getpid()}"
    try:
        workload.run(workload.prepare(seed, work))
    except _FirstEvent as reached:
        setup_s = reached.args[0]
    else:
        raise RuntimeError("the workload finished without simulating an "
                           "event")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    calibration = Calibration()
    return setup_s * calibration.factor(calibration.sample(),
                                        calibration.sample())


def rss_probe(workload, seed: int) -> float:
    """Peak resident MB of one cold pass and one warm replay, in a process
    that holds nothing else (no calibration working set)."""
    work = WORK / f"rss-{workload.name}-{os.getpid()}"
    try:
        inputs = workload.prepare(seed, work)
        outcome = workload.outcome(inputs, workload.run(inputs))
        workload.cache_outcome(inputs, outcome)
        workload.replay(inputs, outcome)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def probe(name: str, seed: int, flag: str) -> float:
    """Run this script with ``flag`` in a fresh interpreter; returns the
    number it prints."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), flag],
        capture_output=True, text=True, timeout=150, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def load_pins() -> dict:
    with open(PINS) as fh:
        return json.load(fh)


def one_pass(workload, inputs, pins, first, calibration):
    """One cold pass plus its warm replays, each timing scaled by the
    calibration samples taken around it.

    Returns ``(cpu_s, replay_s list, outcome, problems)``."""
    from workloads import first_difference

    before = calibration.sample()
    start = time.process_time()
    raw = workload.run(inputs)
    cpu_s = time.process_time() - start
    between = calibration.sample()
    cpu_s *= calibration.factor(before, between)
    outcome = workload.outcome(inputs, raw)
    problems = list(outcome.problems)
    problems += workload.invariants(inputs, outcome)
    if pins is not None:
        key = first_difference(outcome.observed, pins)
        if key is not None:
            problems.append(f"{key} differs from pins.json")
    if first is not None:
        key = first_difference(outcome.observed, first.observed)
        if key is not None:
            problems.append(f"{key} differs from this run's first pass")
    workload.cache_outcome(inputs, outcome)
    replays = []
    for _ in range(REPLAYS):
        start = time.process_time()
        raw = workload.replay(inputs, outcome)
        replays.append(time.process_time() - start)
        problems += workload.replay_problems(outcome, raw)
    factor = calibration.factor(between, calibration.sample())
    return cpu_s, [r * factor for r in replays], outcome, problems


class Tally:
    """Passes attempted and failed; a pass fails when it raises or when
    any output check fails."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, problems) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"FAILED {what}: {problem}", file=sys.stderr)
        return not problems


def measure(workload, inputs, seed, seconds, tally, calibration):
    """Cold passes (each with its replays) until ``seconds`` of wall time
    have passed; returns per-pass samples of the passes that completed
    and the first completed pass."""
    pinned = load_pins().get(workload.name, {}).get(str(seed))
    deadline = time.monotonic() + seconds
    samples = {"cpu_s": [], "tbs_per_cpu_s": [], "replay_s": []}
    first = None
    while True:
        try:
            cpu_s, replays, outcome, problems = one_pass(
                workload, inputs, pinned, first, calibration)
        except Exception:   # noqa: BLE001 - a raising pass is a failure
            outcome, problems = None, [traceback.format_exc()]
        tally.record(f"{workload.name} pass", problems)
        if outcome is not None:
            # A pass whose checks failed still timed its simulation; the
            # failure is reported through ``failed``.
            first = first or outcome
            samples["cpu_s"].append(cpu_s)
            samples["tbs_per_cpu_s"].append(outcome.tbs / cpu_s)
            samples["replay_s"].extend(replays)
        if tally.attempted >= MIN_PASSES and time.monotonic() >= deadline:
            return samples, first


def end_to_end(workload, seed, seconds, tally, calibration):
    setup = [probe(workload.name, seed, "--setup-probe")
             for _ in range(SETUP_PROBES)]
    peak_rss_mb = probe(workload.name, seed, "--rss-probe")
    inputs = workload.prepare(seed, WORK / workload.name)
    samples, _ = measure(workload, inputs, seed, seconds, tally,
                         calibration)
    metrics = {"setup_s": (statistics.median(setup), "s")}
    units = {"cpu_s": "s", "tbs_per_cpu_s": "1/s", "replay_s": "s"}
    for name, values in samples.items():
        if values:
            metrics[name] = (statistics.median(values), units[name])
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--rss-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--pin", action="store_true",
                        help="re-record pins.json for the pinned seeds")
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"the simulator sources are missing: {SRC / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.pin:
        from pinning import write_pins
        return write_pins(WORKLOADS, PINNED_SEEDS, WORK, PINS)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        print(setup_probe(workload, args.seed))
        return 0
    if args.rss_probe:
        print(rss_probe(workload, args.seed))
        return 0

    before = _machine("before")
    machine = {"python": sys.version.split()[0],
               "git_revision": _git_revision(), "workload": workload.name,
               "seed": args.seed,
               # One core's worth of the load average may be the
               # previous run of this benchmark; the rest is other work.
               "busy": before["load1"] >= before["nproc"],
               "load": [before]}
    tally = Tally()
    calibration = Calibration()
    if args.trace:
        from tracing import per_layer
        try:
            metrics = per_layer(workload, args.seed, args.seconds, tally,
                                WORK, measure, calibration)
        except Exception:   # noqa: BLE001 - a raising pass is a failure
            tally.record(f"{workload.name} traced pass",
                         [traceback.format_exc()])
            metrics = {}
    else:
        metrics = end_to_end(workload, args.seed, args.seconds, tally,
                             calibration)
    machine["load"].append(_machine("after"))
    machine["calibration_s"] = calibration.sample()
    print(json.dumps({"machine": machine}))
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name:>40} {value:>16.6g} {unit}")
    print(f"{'fail_rate':>40} {tally.failed / tally.attempted:>16.6g} "
          f"failed/attempted")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
