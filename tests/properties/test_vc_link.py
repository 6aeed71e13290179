"""Property test: virtual-channel link queueing against a naive model.

A traffic-controlled :class:`~repro.interconnect.link.Link` keeps one
queue per traffic class in a tuple, a running waiting count, and a
round-robin cursor over precomputed successors.  The naive model below
keeps the discipline as it reads in the paper: a class-keyed dict of
queues, depth as the sum of their lengths, and a modulo round-robin scan.
Both run on the real link's timing machinery; every observable must
agree on random mixed-class traffic with backpressure waiters.
"""

from collections import deque

from hypothesis import given, settings, strategies as st

from repro.common.config import LinkSpec
from repro.common.events import Simulator
from repro.interconnect.link import Link
from repro.interconnect.message import (Message, Op, TrafficClass,
                                        gpu_node, switch_node)

CLASSES = (TrafficClass.CONTROL, TrafficClass.LOAD, TrafficClass.REDUCTION)
OP_FOR = {TrafficClass.CONTROL: Op.CREDIT,
          TrafficClass.LOAD: Op.LD_CAIS_RESP,
          TrafficClass.REDUCTION: Op.RED_CAIS}


class NaiveVcLink(Link):
    """The same link with the queueing discipline spelled out naively."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.naive = {tc: deque() for tc in CLASSES}
        self.naive_rr = 0

    def send(self, msg):
        self.naive[msg.traffic_class].append(msg)
        depth = sum(len(q) for q in self.naive.values())
        self.peak_queue_depth = max(self.peak_queue_depth, depth)
        if not self._busy:
            self._start_next()

    def queue_depth(self, traffic_class=None):
        if traffic_class is not None:
            return len(self.naive[traffic_class])
        return sum(len(q) for q in self.naive.values())

    def idle(self):
        return (not self.inflight_deliveries and not self._busy
                and not any(self.naive.values()))

    def _pick_next(self):
        for step in range(len(CLASSES)):
            idx = (self.naive_rr + step) % len(CLASSES)
            queue = self.naive[CLASSES[idx]]
            if queue:
                self.naive_rr = (idx + 1) % len(CLASSES)
                return queue.popleft()
        return None


def _drive(link_cls, actions):
    """Run ``actions`` on a fresh link; returns everything observable."""
    sim = Simulator()
    link = link_cls(sim, LinkSpec(bandwidth_gbps=1.0, latency_ns=10.0),
                    "vc", traffic_control=True)
    log = []

    def snapshot(what):
        log.append((sim.now, what, link.queue_depth(),
                    tuple(link.queue_depth(tc) for tc in CLASSES),
                    link.peak_queue_depth))

    link.deliver = lambda msg: snapshot(("deliver", msg.meta["k"]))

    def message(k, cls, size):
        return Message(OP_FOR[CLASSES[cls]], gpu_node(0), switch_node(0),
                       payload_bytes=size, meta={"k": k})

    def act(k, kind, cls, size, limit):
        if kind == "send":
            link.send(message(k, cls, size))
        else:
            def admitted():
                snapshot(("admit", k))
                # An admitted waiter issues into its class, as a stalled
                # TB does once its virtual channel has room.
                link.send(message(k, cls, size))
            link.wait_for_room(CLASSES[cls], limit, admitted)
        snapshot((kind, k))

    t = 0.0
    for k, (gap, kind, cls, size, limit) in enumerate(actions):
        t += gap
        sim.schedule_at(t, act, k, kind, cls, size, limit)
    sim.run()
    return log, link.peak_queue_depth, link.idle(), link.queue_depth()


ACTION = st.tuples(
    st.sampled_from([0.0, 0.0, 16.0, 50.0, 144.0, 400.0]),   # gap (ns)
    st.sampled_from(["send", "send", "send", "wait"]),
    st.integers(min_value=0, max_value=2),                   # class
    st.sampled_from([0, 128, 1024]),                         # payload
    st.integers(min_value=1, max_value=4),                   # room limit
)


@given(actions=st.lists(ACTION, min_size=1, max_size=60))
@settings(max_examples=120, deadline=None)
def test_vc_link_matches_naive_model(actions):
    """Delivery order and times, total and per-class depth after every
    action and delivery, waiter admission order, peak depth and final
    idleness all equal the naive discipline's."""
    fast = _drive(Link, actions)
    naive = _drive(NaiveVcLink, actions)
    assert fast == naive
    log, _, idle, depth = fast
    assert idle and depth == 0
    sends = sum(1 for a in actions if a[1] == "send")
    waits = len(actions) - sends
    assert sum(1 for entry in log if entry[1][0] == "deliver") == \
        sends + waits
