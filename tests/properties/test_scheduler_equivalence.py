"""Property tests: the simulator fires events in exact ``(time, seq)`` order.

The engine's determinism rests on one claim: every armed event fires
exactly once, in ascending ``(time, seq)`` order, where ``seq`` is the
scheduling order; cancelled events never fire.  These tests drive the
:class:`Simulator` through randomized schedule/cancel/step scripts
generated by hypothesis and compare the observable firing sequence with
a naive sorted-list model of that claim — including through
auto-compaction of cancelled-dominated queues.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.events import _AUTO_COMPACT_MIN_QUEUE, Simulator

_DELAY = st.floats(min_value=0.0, max_value=1e6,
                   allow_nan=False, allow_infinity=False)

# One scripted operation: (kind, value).
#   ("push", delay)    — schedule a recording callback `delay` ns ahead
#   ("push_at", dt)    — schedule at absolute time now + dt (exact)
#   ("cancel", k)      — cancel the k-th oldest event never cancelled
#   ("run", n)         — fire up to n events
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), _DELAY),
        st.tuples(st.just("push_at"), _DELAY),
        st.tuples(st.just("cancel"), st.integers(0, 30)),
        st.tuples(st.just("run"), st.integers(1, 20)),
    ),
    min_size=1, max_size=60)


@st.composite
def _compacting_scripts(draw):
    """Scripts whose queue crosses the auto-compaction floor with a
    cancelled majority, followed by an arbitrary ``_OPS`` tail."""
    delays = draw(st.lists(_DELAY, min_size=_AUTO_COMPACT_MIN_QUEUE,
                           max_size=2 * _AUTO_COMPACT_MIN_QUEUE))
    n = len(delays)
    cancels = draw(st.lists(st.integers(0, 30), min_size=n // 2 + 2,
                            max_size=n))
    return ([("push", d) for d in delays]
            + [("cancel", k) for k in cancels]
            + [("push", 0.0)]           # this push triggers compaction
            + draw(_OPS))


def _execute(script):
    """Run one script on a fresh simulator; returns (log, now, fired, sim)."""
    sim = Simulator()
    log = []
    armed = []

    def fire(tag):
        log.append((sim.now, tag))

    tag = 0
    for kind, value in script:
        if kind == "push":
            armed.append(sim.schedule(value, fire, tag))
            tag += 1
        elif kind == "push_at":
            armed.append(sim.schedule_at(sim.now + value, fire, tag))
            tag += 1
        elif kind == "cancel":
            live = [e for e in armed if not e.cancelled]
            if live:
                live[value % len(live)].cancel()
        elif kind == "run":
            for _ in range(value):
                if not sim.step():
                    break
    sim.run()
    return log, sim.now, sim.events_processed, sim


def _model(script):
    """The ordering claim as a naive sorted list; returns (log, now, fired).

    ``events[seq]`` is ``[time, cancelled]`` (an event's tag is its seq);
    ``pending`` holds the seqs not yet fired.
    """
    now = 0.0
    log = []
    events = []
    pending = []

    def step():
        nonlocal now
        armed = sorted((events[s][0], s) for s in pending
                       if not events[s][1])
        if not armed:
            pending.clear()
            return False
        now, seq = armed[0]
        pending.remove(seq)
        log.append((now, seq))
        return True

    for kind, value in script:
        if kind in ("push", "push_at"):
            pending.append(len(events))
            events.append([now + value, False])
        elif kind == "cancel":
            live = [e for e in events if not e[1]]
            if live:
                live[value % len(live)][1] = True
        elif kind == "run":
            for _ in range(value):
                if not step():
                    break
    while step():
        pass
    return log, now, len(log)


@settings(max_examples=200, deadline=None)
@given(_OPS)
def test_simulator_fires_armed_events_in_time_seq_order(script):
    log, now, fired, _ = _execute(script)
    assert (log, now, fired) == _model(script)


@settings(max_examples=50, deadline=None)
@given(_compacting_scripts())
def test_order_survives_auto_compaction(script):
    log, now, fired, sim = _execute(script)
    assert sim.auto_compactions >= 1
    assert (log, now, fired) == _model(script)


def test_compaction_inside_run_keeps_the_live_queue():
    """Auto-compaction triggered by a callback must compact the queue in
    place: :meth:`Simulator.run` holds a local binding to it, so a rebuilt
    queue would strand every later event."""
    sim = Simulator()
    fired = []
    n = 2 * _AUTO_COMPACT_MIN_QUEUE
    survivors = range(n // 2 + 2, n)

    def trigger():
        fired.append("trigger")
        sim.schedule(0.5, fired.append, "after")

    def burst():
        timers = [sim.schedule(float(n - i), fired.append, i)
                  for i in range(n)]
        for timer in timers[:survivors[0]]:
            timer.cancel()
        sim.schedule(0.0, trigger)      # pushes past the compaction floor

    sim.schedule(0.0, burst)
    sim.run()
    assert sim.auto_compactions == 1
    assert fired == ["trigger", "after"] + sorted(survivors, reverse=True)
    assert sim.pending() == 0 and sim.cancelled_pending() == 0


def test_schedule_at_avoids_cumulative_drift():
    """Regression: chained absolute schedules land on exact timestamps.

    A periodic process that re-schedules itself with a *relative* delay
    accumulates float rounding (``0.1 + 0.1 + 0.1 != 0.3``); one that
    precomputes ``t_k = k * period`` and uses ``schedule_at`` must fire at
    exactly those floats.  This is the contract the analytic kernel
    fast-path relies on when it schedules its completion at a precomputed
    absolute ``t_end``.
    """
    period, n = 0.1, 50
    targets = [k * period for k in range(1, n + 1)]
    # The relative chain provably drifts off the absolute timeline.
    acc, drifted = 0.0, False
    for t in targets:
        acc += period
        drifted = drifted or (acc != t)
    assert drifted

    sim = Simulator()
    fired = []

    def tick(k):
        fired.append(sim.now)
        if k + 1 < len(targets):
            sim.schedule_at(targets[k + 1], tick, k + 1)

    sim.schedule_at(targets[0], tick, 0)
    sim.run()
    assert fired == targets


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=1.0, max_value=1e12,
                 allow_nan=False, allow_infinity=False),
       st.floats(min_value=0.0, max_value=1e6,
                 allow_nan=False, allow_infinity=False))
def test_schedule_at_never_perturbs_timestamps(base, offset):
    """For arbitrary (base, offset), an event scheduled at an absolute
    time fires at *exactly* that float."""
    target = base + offset  # an arbitrary representable float >= base
    assert not math.isnan(target)
    sim = Simulator()
    fired = []
    sim.schedule(base, lambda: None)   # advance the clock first
    sim.run()
    sim.schedule_at(target, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [target]
