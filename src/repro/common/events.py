"""Discrete-event simulation engine.

The engine is the substrate every hardware model in this repository runs on:
GPUs, links, switches, NVLS engines and the CAIS merge unit all schedule
callbacks on one shared :class:`Simulator`.

Design notes
------------
* Time is a float in nanoseconds (see :mod:`repro.common.units`).
* Events at equal timestamps fire in scheduling order (a monotonically
  increasing sequence number breaks ties), which makes runs fully
  deterministic for a fixed seed.
* Events are cancellable: :meth:`Event.cancel` marks the event dead and the
  main loop skips it.  This supports timeout timers (CAIS merge-entry
  timeouts) that are usually disarmed before they fire.  The simulator
  tracks how many cancelled events sit in the queue and auto-compacts the
  queue when they outnumber the live ones (timeout-heavy CAIS runs would
  otherwise drag dead timers through every queue operation).
* The event store is one binary heap of ``(time, seq, event)`` tuples.
  ``seq`` is unique per simulator, so the C-level tuple comparison never
  reaches the :class:`Event` and events fire in the total ``(time, seq)``
  order (property-tested against a sorted-list model in
  ``tests/properties/test_scheduler_equivalence.py``).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from time import perf_counter
from typing import Any, Callable, List, Optional, Tuple

from ..obs import current_causality, current_metrics, current_profiler
from ..obs.causality import NO_CAUSE
from .errors import SimulationError

#: Queues smaller than this are never auto-compacted — the rebuild would
#: cost more than skipping the handful of dead events.
_AUTO_COMPACT_MIN_QUEUE = 64


class Event:
    """A scheduled callback.

    Instances are created by :meth:`Simulator.schedule`; user code only ever
    cancels them or inspects :attr:`time`.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "owner",
                 "cause")

    def __init__(self, time: float, seq: int,
                 callback: Callable[..., None], args: tuple,
                 owner: Optional["Simulator"] = None,
                 cause: int = NO_CAUSE):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.owner = owner
        # Ambient causal-node id captured at schedule time (repro.obs
        # .causality); restored before the callback fires so causality
        # propagates through arbitrary callback cascades.
        self.cause = cause

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        if self.cancelled:
            return
        self.cancelled = True
        if self.owner is not None:
            self.owner._cancelled_live += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "armed"
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        return f"Event(t={self.time:.1f}ns, {name}, {state})"


class Simulator:
    """Priority-queue discrete-event simulator.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(10.0, fired.append, "a")
    >>> _ = sim.schedule(5.0, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    """

    def __init__(self) -> None:
        self._now: float = 0.0
        # Binary heap of (time, seq, event) entries.
        self._queue: List[Tuple[float, int, Event]] = []
        self._seq = 0
        self._events_processed = 0
        self._running = False
        self._cancelled_live = 0
        self._auto_compactions = 0
        self._peak_queue_depth = 0
        self._wall_seconds = 0.0
        self._work_reporters: List[Callable[[], Optional[str]]] = []
        # Observability hooks, captured at construction (install first).
        self._profiler = current_profiler()
        self._metrics = current_metrics()
        self._causality = current_causality()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in nanoseconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events fired so far (cancelled events excluded)."""
        return self._events_processed

    def pending(self) -> int:
        """Number of events still in the queue (including cancelled ones)."""
        return len(self._queue)

    def cancelled_pending(self) -> int:
        """Cancelled events still occupying queue slots."""
        return self._cancelled_live

    def cancelled_fraction(self) -> float:
        """Fraction of the queue occupied by cancelled events."""
        if not self._queue:
            return 0.0
        return self._cancelled_live / len(self._queue)

    @property
    def auto_compactions(self) -> int:
        """Times the queue was auto-compacted (see :meth:`schedule`)."""
        return self._auto_compactions

    @property
    def peak_queue_depth(self) -> int:
        """High-water mark of the event queue."""
        return self._peak_queue_depth

    @property
    def wall_seconds(self) -> float:
        """Cumulative wall-clock time spent inside :meth:`run`."""
        return self._wall_seconds

    def events_per_wall_second(self) -> float:
        """Engine throughput so far (0 before the first :meth:`run`)."""
        if self._wall_seconds <= 0.0:
            return 0.0
        return self._events_processed / self._wall_seconds

    # ------------------------------------------------------------------
    # Outstanding-work diagnostics
    # ------------------------------------------------------------------
    def register_work_reporter(
            self, reporter: Callable[[], Optional[str]]) -> None:
        """Register a callable describing an entity's outstanding work.

        Reporters return a one-line summary (e.g. ``"gpu 3: 5 busy TBs, 2
        sync-pending"``) or ``None``/``""`` when the entity is idle.  They
        are only consulted when a stall is being turned into a
        :class:`DeadlockError`, so they may be arbitrarily slow.
        """
        self._work_reporters.append(reporter)

    def outstanding_report(self) -> List[str]:
        """One line per entity that still has work outstanding.

        A reporter that itself crashes must not mask the deadlock being
        diagnosed, so its exception is folded into the report instead of
        propagating.
        """
        lines: List[str] = []
        for reporter in self._work_reporters:
            try:
                line = reporter()
            except Exception as exc:  # pragma: no cover - defensive
                line = f"<work reporter {reporter!r} failed: {exc!r}>"
            if line:
                lines.append(line)
        return lines

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., None],
                 *args: Any) -> Event:
        """Schedule ``callback(*args)`` to fire ``delay`` ns from now."""
        if delay < 0:
            raise SimulationError(
                f"cannot schedule event {delay} ns in the past "
                f"(now={self._now})")
        return self._push(self._now + delay, callback, args)

    def schedule_at(self, time: float, callback: Callable[..., None],
                    *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute time ``time`` ns.

        The timestamp is used exactly as given — no round-trip through a
        relative delay, which would perturb absolute times by float
        rounding (``now + (time - now) != time`` in general).
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at {time} ns, in the past "
                f"(now={self._now})")
        return self._push(time, callback, args)

    def _push(self, time: float, callback: Callable[..., None],
              args: tuple) -> Event:
        seq = self._seq
        self._seq = seq + 1
        ev = Event(time, seq, callback, args, owner=self,
                   cause=self._causality.current)
        queue = self._queue
        heappush(queue, (time, seq, ev))
        depth = len(queue)
        if depth > self._peak_queue_depth:
            self._peak_queue_depth = depth
        # Auto-compact: when dead timers dominate the queue, one O(n)
        # rebuild beats dragging them through every push/pop.
        if (self._cancelled_live * 2 > depth
                and depth >= _AUTO_COMPACT_MIN_QUEUE):
            self.drain_cancelled()
            self._auto_compactions += 1
            if self._metrics.enabled:
                self._metrics.counter("sim.auto_compactions").inc()
        return ev

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _dispatch(self, ev: Event) -> None:
        """Advance the clock to ``ev`` and fire it.

        The one dispatch path shared by :meth:`step` and :meth:`run` —
        clock monotonicity check, causality restore, profiler wrap.
        """
        if ev.time < self._now:
            raise SimulationError(
                f"event queue time went backwards: {ev.time} < {self._now}")
        self._now = ev.time
        self._events_processed += 1
        causality = self._causality
        if causality.enabled:
            causality.current = ev.cause
        profiler = self._profiler
        if profiler is None:
            ev.callback(*ev.args)
        else:
            profiler.timed(ev.callback, ev.args)

    def step(self) -> bool:
        """Fire the next live event.  Returns False when the queue is empty."""
        queue = self._queue
        while queue:
            ev = heappop(queue)[2]
            if ev.cancelled:
                self._cancelled_live -= 1
                continue
            self._dispatch(ev)
            self.publish_metrics()
            return True
        return False

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        """Run until the queue drains, ``until`` ns is reached, or
        ``max_events`` events have fired.

        ``until`` is an absolute simulation time; when the next event lies
        beyond it the clock is advanced to ``until`` and the loop stops with
        the event still queued.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not re-entrant")
        self._running = True
        # Hot loop: hoist attribute lookups out of the per-event path
        # (this loop fires every event of every simulation).  The queue
        # list is mutated in place everywhere (drain_cancelled included),
        # so the local binding stays valid across callbacks.
        queue = self._queue
        pop = heappop
        dispatch = self._dispatch
        fired = 0
        wall_start = perf_counter()
        try:
            while True:
                if max_events is not None and fired >= max_events:
                    return
                if not queue:
                    break
                entry = queue[0]
                ev = entry[2]
                if ev.cancelled:
                    pop(queue)
                    self._cancelled_live -= 1
                    continue
                if until is not None and entry[0] > until:
                    self._now = until
                    return
                pop(queue)
                dispatch(ev)
                fired += 1
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._running = False
            self._wall_seconds += perf_counter() - wall_start
            self.publish_metrics()

    def drain_cancelled(self) -> None:
        """Compact the queue by dropping cancelled events.

        Mutates the queue list in place: :meth:`run` holds a local
        reference to it across
        callbacks (which may trigger auto-compaction via :meth:`schedule`),
        so the list's identity must never change.
        """
        queue = self._queue
        queue[:] = [e for e in queue if not e[2].cancelled]
        heapify(queue)
        self._cancelled_live = 0

    def publish_metrics(self) -> None:
        """Export engine health gauges to the metrics registry (no-op when
        metrics are disabled)."""
        metrics = self._metrics
        if not metrics.enabled:
            return
        metrics.gauge("sim.queue_depth").set(len(self._queue))
        metrics.gauge("sim.peak_queue_depth").set(self._peak_queue_depth)
        metrics.gauge("sim.cancelled_fraction").set(self.cancelled_fraction())
        metrics.gauge("sim.events_processed").set(self._events_processed)
        # Volatile: wall-clock-dependent, excluded from snapshots so
        # same-seed runs keep byte-identical metrics exports.
        metrics.gauge("sim.events_per_wall_second", volatile=True).set(
            self.events_per_wall_second())
