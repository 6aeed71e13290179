"""Per-layer host-time attribution, measured from outside the simulator.

Two sources feed one span stack (:class:`SpanRecorder`):

* wrappers around public entry points (:data:`ENTRY_POINTS`), installed by
  :func:`install_wrappers` on the defining class or module and on every
  module that imported the function by name;
* every fired simulator event, through :class:`LayerProfiler`, a
  :class:`repro.obs.SimProfiler` whose callback owners roll up to
  accounts via :data:`OWNER_ACCOUNTS`.

A span's self time is its duration minus the durations of its direct
child spans, so nested spans of the same layer are never counted twice
and the self times of all spans add up to the outermost span.  Host time
is process CPU time (:func:`time.process_time`) throughout.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs import SimProfiler
from repro.obs.profiler import owner_key

#: Account of spans the benchmark opens around its own code; their self
#: time is the unattributed remainder.
BENCH = "bench"
#: Account of event callbacks whose owner is missing from the roll-up.
UNMAPPED = "unmapped"

#: First component of a profiler owner (``Class.method`` or
#: ``function.<locals>.name``) -> account.  The module each owner lives in
#: is noted beside it.
OWNER_ACCOUNTS: Dict[str, str] = {
    "Link": "interconnect.link",                    # interconnect/link.py
    "Switch": "interconnect.switch",                # interconnect/switch.py
    "Executor": "gpu",                              # gpu/executor.py
    "MemoryController": "gpu",                      # gpu/memory.py
    "MergeUnit": "cais.merge",                      # cais/merge_unit.py
    "NvlsEngine": "nvls",                           # nvls/engine.py
    "CollectiveFastPath": "collectives.analytic",   # collectives/analytic.py
    "simulate_serving": "llm.serving",              # llm/serving.py
}

#: Public entry points wrapped in spans during the traced run:
#: (module, attribute path, account, keep the individual spans).
#: Per-message entry points are accounted but not kept one by one, so
#: the span file stays small.
ENTRY_POINTS: Tuple[Tuple[str, str, str, bool], ...] = (
    ("repro.common.events", "Simulator.run", "events.loop", True),
    ("repro.interconnect.link", "Link.send", "interconnect.link", False),
    ("repro.interconnect.switch", "Switch.receive", "interconnect.switch",
     False),
    ("repro.cais.merge_unit", "MergeUnit.process", "cais.merge", False),
    ("repro.cais.compiler", "compile_kernel", "cais.compile", False),
    ("repro.cais.dataflow", "find_chains", "cais.compile", True),
    ("repro.nvls.engine", "NvlsEngine.process", "nvls", False),
    ("repro.gpu.executor", "Executor.launch_kernel", "gpu", True),
    ("repro.collectives.analytic", "CollectiveFastPath.run",
     "collectives.analytic", False),
    ("repro.experiments.runner", "layer_graphs", "llm.graph_build", True),
    ("repro.llm.serving", "simulate_serving", "llm.serving", True),
    ("repro.llm.serving", "serving_iteration_graph",
     "llm.serving.iteration_graph", True),
    ("repro.llm.serving", "ContinuousBatcher.plan_iteration",
     "llm.serving.batcher", True),
    ("repro.llm.serving", "ContinuousBatcher.commit",
     "llm.serving.batcher", True),
    ("repro.llm.fleet", "plan_fleet", "llm.fleet.plan", True),
    ("repro.llm.fleet", "aggregate_fleet", "llm.fleet.aggregate", True),
    ("repro.systems.systems", "make_system", "systems.construct", True),
    ("repro.systems.systems", "System.session", "systems.construct", True),
    ("repro.experiments.cache", "SimCache.lookup",
     "experiments.cache.lookup", True),
    ("repro.experiments.cache", "SimCache.store",
     "experiments.cache.store", True),
    ("repro.experiments.parallel", "run_matrix", "experiments.harness",
     True),
    ("repro.obs.ledger", "RunLedger.append", "obs.ledger.append", True),
)


def account_for_owner(owner: str) -> str:
    """The account a profiler owner key rolls up to."""
    return OWNER_ACCOUNTS.get(owner.split(".", 1)[0], UNMAPPED)


class SpanRecorder:
    """Stack of open spans; accumulates self time per account.

    ``spans`` keeps ``[name, start, end, parent]`` for spans opened with a
    name (``parent`` indexes ``spans``, -1 for a root), until the run ends.
    ``calls`` counts opened spans per name.
    """

    def __init__(self, clock: Callable[[], float] = time.process_time):
        self.clock = clock
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.spans: List[list] = []
        self._stack: List[list] = []   # [account, start, child_s, span]
        self._parent = -1

    def open(self, account: str, name: Optional[str] = None) -> None:
        start = self.clock()
        span = -1
        if name is not None:
            self.calls[name] += 1
            span = len(self.spans)
            self.spans.append([name, start, start, self._parent])
            self._parent = span
        self._stack.append([account, start, 0.0, span])

    def close(self) -> float:
        """Close the innermost span; returns its duration."""
        end = self.clock()
        account, start, child_s, span = self._stack.pop()
        duration = end - start
        self.self_s[account] += duration - child_s
        if self._stack:
            self._stack[-1][2] += duration
        if span >= 0:
            self.spans[span][2] = end
            self._parent = self.spans[span][3]
        return duration


class LayerProfiler(SimProfiler):
    """A :class:`SimProfiler` that also opens one span per fired event,
    under the account its callback owner rolls up to."""

    def __init__(self, recorder: SpanRecorder):
        super().__init__(clock=recorder.clock)
        self._recorder = recorder
        self._accounts: Dict[str, str] = {}

    def timed(self, callback, args) -> None:
        owner = owner_key(callback)
        account = self._accounts.get(owner)
        if account is None:
            account = self._accounts[owner] = account_for_owner(owner)
        self._recorder.open(account)
        try:
            super().timed(callback, args)
        finally:
            self._recorder.close()


def _wrap(function, recorder: SpanRecorder, account: str, label: str,
          keep: bool, hook: Optional[Callable]):
    name = label if keep else None

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        if name is None:
            recorder.calls[label] += 1
        recorder.open(account, name)
        try:
            result = function(*args, **kwargs)
        finally:
            recorder.close()
        if hook is not None:
            hook(args, result)
        return result

    return wrapper


def install_wrappers(recorder: SpanRecorder,
                     entry_points=ENTRY_POINTS,
                     on_return: Optional[Dict[str, Callable]] = None
                     ) -> Callable[[], None]:
    """Wrap each entry point in a span; returns a function undoing it.

    Install before the system is built: components bind methods such as
    ``switch.receive`` when they are constructed.  ``on_return`` maps an
    attribute path to ``hook(args, result)``, called after the wrapped
    call returns.
    """
    on_return = on_return or {}
    undo: List[Tuple[object, str, object]] = []
    for module_name, path, account, keep in entry_points:
        module = importlib.import_module(module_name)
        owner: object = module
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        attr = parts[-1]
        original = owner.__dict__[attr]
        wrapper = _wrap(original, recorder, account, path, keep,
                        on_return.get(path))
        undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)
        if owner is module:
            # Modules that did ``from module import name`` hold their own
            # reference to the function.
            for other in list(sys.modules.values()):
                namespace = getattr(other, "__dict__", None)
                if other is module or not namespace:
                    continue
                for key, value in list(namespace.items()):
                    if value is original:
                        undo.append((other, key, original))
                        setattr(other, key, wrapper)

    def uninstall() -> None:
        for target, attr, original in reversed(undo):
            setattr(target, attr, original)

    return uninstall
