"""The benchmark's workloads: inputs from a seed, one timed pass, checks.

The seed picks the simulated hardware's execution-jitter stream
(``SystemConfig.seed``); graphs, request streams and fleet routing are
the fixed figure workloads.  That keeps the amount of simulated work the
same for every seed (6,928 thread blocks on ``cais-layer``, 154 requests
on ``nvls-serving``, 36 requests over 4 replicas on ``fleet-observed``),
so run-to-run spread measures the simulator, not the input size.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro import obs
from repro.common.config import SystemConfig, dgx_h100_config
from repro.experiments import fig22_fleet, runner
from repro.experiments.cache import SimCache
from repro.experiments.fig20_serving import spec_for
from repro.experiments.parallel import (CACHE_MISSES, ExecContext,
                                        RunSummary, SimTask, run_matrix)
from repro.llm import fleet as llm_fleet
from repro.llm import serving as llm_serving
from repro.llm.models import TABLE_I
from repro.systems import systems

#: Engine counters summed over a pass (``RunResult.details`` keys).
COUNTED_DETAILS = ("fastpath.kernel_launches", "fastpath.link_messages",
                   "fastpath.analytic_ops", "fastpath.analytic_disagreements",
                   "fastpath.events_elided", "serving.iterations")


@dataclass
class Inputs:
    """Everything a pass reads, built once per seed."""

    config: SystemConfig
    work: Path
    graphs: tuple = ()
    spec: object = None

    @property
    def cache_dir(self) -> Path:
        return self.work / "cache"

    @property
    def ledger_dir(self) -> Path:
        return self.work / "ledger"


@dataclass
class Outcome:
    """One pass: the checked outputs plus the work it simulated."""

    observed: Dict[str, object]
    #: The pass as matrix tasks, for the warm replay from the cache.
    tasks: List[SimTask]
    #: Loads the tasks' run summaries; called on first use, so a traced
    #: pass can read them after its spans are closed.
    load_summaries: Callable[[], List[RunSummary]]
    problems: List[str] = field(default_factory=list)

    @cached_property
    def summaries(self) -> List[RunSummary]:
        return self.load_summaries()

    @property
    def tbs(self) -> int:
        return sum(s.tbs_completed for s in self.summaries)

    @property
    def events(self) -> int:
        return sum(s.events for s in self.summaries)

    @property
    def counts(self) -> Dict[str, float]:
        total = dict.fromkeys(COUNTED_DETAILS, 0.0)
        for summary in self.summaries:
            details = dict(summary.details)
            for key in COUNTED_DETAILS:
                total[key] += float(details.get(key, 0.0))
        return total


def _fresh(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)


class Workload:
    """One benchmark workload.  :meth:`run` is the timed simulation call;
    the rest is bookkeeping outside the timed region."""

    name = ""
    why = ""

    def prepare(self, seed: int, work: Path) -> Inputs:
        """Build the inputs (graphs, specs, config) for ``seed``."""
        raise NotImplementedError

    def run(self, inputs: Inputs):
        """The timed cold pass; returns what :meth:`outcome` reads."""
        raise NotImplementedError

    def outcome(self, inputs: Inputs, raw) -> Outcome:
        raise NotImplementedError

    def invariants(self, inputs: Inputs, outcome: Outcome) -> List[str]:
        """Checks that hold for every seed."""
        return []

    def cache_outcome(self, inputs: Inputs, outcome: Outcome) -> None:
        """Store the cold pass in the result cache for :meth:`replay`."""
        _fresh(inputs.cache_dir)
        cache = SimCache(str(inputs.cache_dir))
        for task, summary in zip(outcome.tasks, outcome.summaries):
            cache.store(task.fingerprint(), summary.to_dict())

    def replay(self, inputs: Inputs, outcome: Outcome):
        """The timed warm pass: the same run served from the cache."""
        registry = obs.MetricsRegistry()
        obs.install(metrics=registry)
        try:
            ctx = ExecContext(cache=SimCache(str(inputs.cache_dir)))
            return registry, run_matrix(outcome.tasks, ctx)
        finally:
            obs.install(metrics=obs.NullMetrics())

    def replay_problems(self, outcome: Outcome, raw) -> List[str]:
        """Any cache miss, or any output differing from the cold pass."""
        registry, warm = raw
        problems = []
        if registry.counter(CACHE_MISSES).value:
            problems.append("warm pass missed the cache")
        if [s.makespan_ns for s in warm] != [
                s.makespan_ns for s in outcome.summaries]:
            problems.append("warm pass makespan differs from cold pass")
        return problems


class CaisLayer(Workload):
    name = "cais-layer"
    why = ("CAIS on the fig11 LLaMA-7B forward layer: the paper's system; "
           "links and executor do the work, no fast-path bypass engages")
    SYSTEM = "CAIS"
    TBS = 6928

    def prepare(self, seed, work):
        config = dgx_h100_config(seed=seed)
        model = runner.QUICK.apply(TABLE_I["LLaMA-7B"])
        graphs = runner.layer_graphs(model, config.num_gpus, self.SYSTEM,
                                     training=False)
        return Inputs(config=config, work=work, graphs=tuple(graphs))

    def run(self, inputs):
        return runner.run_system(self.SYSTEM, list(inputs.graphs),
                                 inputs.config, runner.QUICK)

    def outcome(self, inputs, result):
        tasks = [SimTask(system=self.SYSTEM, graphs=inputs.graphs,
                         config=inputs.config, scale=runner.QUICK)]
        summaries = [RunSummary.from_result(result)]
        return Outcome(
            observed={"makespan_ns": result.makespan_ns,
                      "tbs": result.tbs_completed},
            tasks=tasks, load_summaries=lambda: summaries)

    def invariants(self, inputs, outcome):
        if outcome.tbs != self.TBS:
            return [f"{outcome.tbs} thread blocks, expected {self.TBS}"]
        return []


class NvlsServing(Workload):
    name = "nvls-serving"
    why = ("TP-NVLS serving the fig20 stream: analytic kernels and "
           "collectives do the work; links, switches and CAIS stay idle")
    SYSTEM = "TP-NVLS"

    def prepare(self, seed, work):
        return Inputs(config=dgx_h100_config(seed=seed), work=work,
                      spec=spec_for(runner.FULL))

    def run(self, inputs):
        scale = runner.FULL
        system = systems.make_system(self.SYSTEM, inputs.config,
                                     tiling=scale.tiling,
                                     chunk_bytes=scale.coll_chunk_bytes)
        return llm_serving.simulate_serving(
            system, inputs.spec, style=runner.style_for(self.SYSTEM))

    def outcome(self, inputs, served):
        tasks = [SimTask(system=self.SYSTEM, graphs=(),
                         config=inputs.config, scale=runner.FULL,
                         serving=inputs.spec)]
        summaries = [RunSummary.from_result(served.run)]
        return Outcome(
            observed={"makespan_ns": served.makespan_ns,
                      "requests": [[s.rid, s.ttft_ns, s.e2e_ns]
                                   for s in served.stats]},
            tasks=tasks, load_summaries=lambda: summaries)

    def invariants(self, inputs, outcome):
        offered = len(llm_serving.generate_requests(inputs.spec))
        rows = outcome.observed["requests"]
        problems = []
        if len(rows) != offered:
            problems.append(f"{len(rows)} of {offered} requests finished")
        if any(not 0 < ttft <= e2e for _, ttft, e2e in rows):
            problems.append("a request has TTFT outside (0, E2E]")
        return problems


class FleetObserved(Workload):
    name = "fleet-observed"
    why = ("4 TP-NVLS replicas via run_fleet/run_matrix with cache, ledger "
           "and metrics sink on: reference event path plus harness I/O")
    SYSTEM = "TP-NVLS"
    LOAD = 1.0

    def prepare(self, seed, work):
        spec = fig22_fleet.fleet_spec_for(runner.QUICK, self.LOAD)
        return Inputs(config=dgx_h100_config(seed=seed), work=work,
                      spec=spec)

    def _run_fleet(self, inputs, sink: bool):
        registry = obs.MetricsRegistry() if sink else obs.NullMetrics()
        obs.install(metrics=registry)
        if sink:
            os.environ[obs.LEDGER_ENV] = str(inputs.ledger_dir)
        try:
            ctx = ExecContext(jobs=1, cache=SimCache(str(inputs.cache_dir)))
            result = fig22_fleet.run_fleet(self.SYSTEM, inputs.spec,
                                           config=inputs.config,
                                           scale=runner.QUICK, ctx=ctx)
        finally:
            obs.install(metrics=obs.NullMetrics())
            os.environ.pop(obs.LEDGER_ENV, None)
        return registry, result

    def run(self, inputs, sink: bool = True):
        """One cold fleet run, as ``fig22 --quick --metrics --ledger``
        makes it: a fresh cache, the ledger on, a metrics sink installed.
        ``sink=False`` drops the sink and the ledger, for the traced run's
        sink-slowdown ratio."""
        _fresh(inputs.cache_dir)
        _fresh(inputs.ledger_dir)
        return self._run_fleet(inputs, sink)

    @staticmethod
    def _observed(result) -> Dict[str, object]:
        return {"tokens_per_s": result.tokens_per_s,
                "requests": [[s.rid, s.replica, s.ttft_ns, s.e2e_ns]
                             for s in result.stats],
                "shed": [s.rid for s in result.shed]}

    def outcome(self, inputs, raw):
        _, result = raw

        def load_summaries():
            # The fleet result carries no engine counters; the replica
            # summaries the cold pass cached do.
            cache = SimCache(str(inputs.cache_dir))
            return [RunSummary.from_dict(cache.lookup(SimTask(
                system=self.SYSTEM, graphs=(), config=inputs.config,
                scale=runner.QUICK, replica=rs).fingerprint()))
                for rs in llm_fleet.plan_fleet(inputs.spec).stage1]

        return Outcome(observed=self._observed(result), tasks=[],
                       load_summaries=load_summaries)

    def invariants(self, inputs, outcome):
        offered = len(llm_serving.generate_requests(inputs.spec.serving))
        served = len(outcome.observed["requests"])
        shed = len(outcome.observed["shed"])
        if served + shed != offered:
            return [f"{served} finished + {shed} shed of {offered} offered"]
        return []

    def cache_outcome(self, inputs, outcome):
        """The cold pass filled the cache itself."""

    def replay(self, inputs, outcome):
        return self._run_fleet(inputs, sink=True)

    def replay_problems(self, outcome, raw):
        registry, result = raw
        problems = []
        if registry.counter(CACHE_MISSES).value:
            problems.append("warm pass missed the cache")
        if self._observed(result) != outcome.observed:
            problems.append("warm pass rows differ from cold pass")
        return problems


WORKLOADS = {w.name: w for w in (CaisLayer(), NvlsServing(), FleetObserved())}


def first_difference(observed: Dict[str, object],
                     expected: Dict[str, object]) -> Optional[str]:
    """The first key whose value differs (exact float equality), or None."""
    for key in sorted(set(observed) | set(expected)):
        if observed.get(key) != expected.get(key):
            return key
    return None
