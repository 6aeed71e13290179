"""Cluster-scale fleet serving: replica routing and disaggregated pools.

One :class:`~repro.llm.serving.ServingSpec` describes what a *single* TP
group serves; production traffic is served by a fleet of such replicas
behind a router.  This module adds the fleet layer on top of the PR 5/8
serving machinery without touching the per-replica simulation:

* :class:`FleetSpec` — the fleet workload by value (replica count,
  routing policy, epoch granularity, optional prefill/decode
  disaggregation with explicit KV-handoff cost), frozen and built from
  primitives so it enters the experiment cache fingerprint verbatim.
* :class:`Router` — a deterministic, epoch-batched load balancer.
  Decisions are taken from *router-side bookkeeping only* (like a real
  L7 router, which never sees oracle replica state): round-robin,
  least-outstanding-KV against a decaying per-replica estimate, or
  prefix-affinity via seeded per-request prefix hashing.
* :func:`plan_fleet` / :func:`plan_decode` — split the offered stream
  into per-replica :class:`ReplicaSpec` runs.  Each replica then executes
  as one independent simulation (``SimTask.replica`` in
  :mod:`repro.experiments.parallel`), cacheable and byte-identical
  across ``--jobs`` settings; the router is the coarser-grained
  coordinator exchanging request batches at deterministic sim-time
  epochs.
* :func:`aggregate_fleet` — fold the per-replica outcomes back into
  fleet-level request stats, SLO attainment, goodput, and handoff
  traffic (:class:`FleetResult`).

Disaggregation model: with ``prefill_replicas = P > 0``, the first ``P``
replicas form the prefill pool (front door: admission control applies
here) and the rest the decode pool.  A request runs its prompt plus
first token on a prefill replica; its KV cache is then handed off as
explicit fabric traffic (``handoff_base_ns + bytes / handoff_gbps``) and
the remaining tokens decode *warm* on a decode replica (see
``Request.warm``).  Fidelity envelope and the epoch model are documented
in DESIGN.md §14.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..common.errors import SimulationError, WorkloadError
from ..common.rng import RngPool
from .models import ModelConfig
from .serving import (
    Request,
    RequestStats,
    ServingSpec,
    exact_quantile,
    generate_requests,
    kv_bytes_per_token,
)

#: Pluggable load-balancing policies (see :class:`Router`).
FLEET_POLICIES = ("round-robin", "least-kv", "prefix-affinity")

ROLE_REPLICA = "replica"
ROLE_PREFILL = "prefill"
ROLE_DECODE = "decode"


@dataclass(frozen=True)
class FleetSpec:
    """One fleet serving workload, fully described by value.

    ``serving`` is the *offered* stream plus the per-replica serving
    knobs (every replica is a full TP group with its own KV budget and
    batch limit); the fleet fields describe how the router splits that
    stream.  Frozen and primitive-valued, so it fingerprints canonically
    (cache schema v5).
    """

    serving: ServingSpec = field(default_factory=ServingSpec)
    replicas: int = 2
    policy: str = "round-robin"
    #: ``False`` bypasses the router entirely (the whole stream goes to
    #: replica 0 untouched) — the metamorphic anchor proving a 1-replica
    #: fleet is byte-identical to the single-session serving path.  Only
    #: meaningful (and only allowed) for an undisaggregated 1-replica
    #: fleet.
    routing: bool = True
    #: Router decision epoch in simulated milliseconds: assignments are
    #: committed in arrival-ordered batches at multiples of this
    #: interval, and the least-KV estimate decays once per epoch.
    epoch_ms: float = 0.25
    #: ``0`` = combined replicas; ``P > 0`` carves the fleet into ``P``
    #: prefill replicas and ``replicas - P`` decode replicas with KV
    #: handoff charged between the pools.
    prefill_replicas: int = 0
    #: Handoff fabric bandwidth (GB/s) and per-transfer base latency for
    #: shipping a request's KV cache from prefill to decode pool.
    handoff_gbps: float = 50.0
    handoff_base_ns: float = 2_000.0
    #: Prefix-affinity hash space: requests sharing a (seeded) prefix
    #: bucket land on the same replica absent degradation.
    prefix_buckets: int = 64
    #: least-kv: fraction of the router's outstanding-KV estimate that
    #: survives one epoch boundary (requests drain over time, and the
    #: router only ever sees its own accounting).
    router_decay: float = 0.5

    def __post_init__(self) -> None:
        def require(ok: bool, name: str, value, constraint: str) -> None:
            # ServingSpec's convention: name the offending field + value.
            if not ok:
                raise WorkloadError(
                    f"FleetSpec.{name}={value!r} {constraint}")

        require(self.replicas >= 1, "replicas", self.replicas,
                "must be >= 1")
        require(self.policy in FLEET_POLICIES, "policy", self.policy,
                f"must be one of {FLEET_POLICIES}")
        require(self.routing or (self.replicas == 1
                                 and self.prefill_replicas == 0),
                "routing", self.routing,
                "can only be disabled for a 1-replica fleet without "
                "disaggregation")
        require(self.epoch_ms > 0, "epoch_ms", self.epoch_ms,
                "must be > 0")
        require(0 <= self.prefill_replicas < self.replicas
                or self.prefill_replicas == 0,
                "prefill_replicas", self.prefill_replicas,
                f"needs 0 <= prefill_replicas < replicas={self.replicas} "
                f"(at least one decode replica must remain)")
        require(self.handoff_gbps > 0, "handoff_gbps", self.handoff_gbps,
                "must be > 0")
        require(self.handoff_base_ns >= 0, "handoff_base_ns",
                self.handoff_base_ns, "must be >= 0")
        require(self.prefix_buckets >= 1, "prefix_buckets",
                self.prefix_buckets, "must be >= 1")
        require(0.0 <= self.router_decay <= 1.0, "router_decay",
                self.router_decay, "must be in [0, 1]")

    @property
    def decode_replicas(self) -> int:
        """Decode-pool size (= ``replicas`` when not disaggregated)."""
        return self.replicas - self.prefill_replicas

    @property
    def disaggregated(self) -> bool:
        return self.prefill_replicas > 0

    def handoff_ns(self, kv_bytes: int) -> float:
        """Fabric latency of shipping ``kv_bytes`` of KV cache between
        the pools (base + serialization at ``handoff_gbps`` GB/s)."""
        return self.handoff_base_ns + kv_bytes / self.handoff_gbps


# ---------------------------------------------------------------------------
# Routing
# ---------------------------------------------------------------------------

def prefix_bucket(seed: int, rid: int, buckets: int) -> int:
    """Seeded prefix hash of one request (stand-in for content hashing:
    the simulator carries no prompt text, so the bucket is drawn from
    the request's own RNG stream — deterministic per ``(seed, rid)`` and
    uniform across buckets)."""
    stream = RngPool(seed).stream(f"fleet.prefix.{rid}")
    return int(stream.integers(0, buckets))


class Router:
    """Deterministic epoch-batched router over one replica pool.

    Requests are processed in ``(arrival_ns, rid)`` order.  Before each
    decision the router advances to the request's epoch
    (``floor(arrival / epoch_ns)``), decaying its outstanding-KV
    estimates once per epoch crossed.  The decision then reads only
    router-side state — the round-robin cursor, the decayed KV
    estimates, or the request's prefix bucket — so routing is a pure
    function of the offered stream, never of simulated replica state.
    """

    def __init__(self, fleet: FleetSpec, pool: int, kvpt: int):
        if pool < 1:
            raise WorkloadError(f"router needs a pool >= 1, got {pool}")
        self.fleet = fleet
        self.pool = pool
        self.kvpt = kvpt
        self._epoch_ns = fleet.epoch_ms * 1e6
        self._cursor = 0
        self._epoch = 0
        #: Router-side outstanding-KV-bytes estimate per replica.
        self.outstanding: List[float] = [0.0] * pool

    def _advance_to(self, epoch: int) -> None:
        while self._epoch < epoch:
            decay = self.fleet.router_decay
            self.outstanding = [o * decay for o in self.outstanding]
            self._epoch += 1

    def route(self, request: Request, bucket: int) -> int:
        """Assign one request to a pool-local replica index."""
        self._advance_to(int(request.arrival_ns // self._epoch_ns))
        policy = self.fleet.policy
        if policy == "round-robin":
            idx = self._cursor % self.pool
            self._cursor += 1
        elif policy == "prefix-affinity":
            idx = bucket % self.pool
        else:   # least-kv: smallest estimate, lowest index breaks ties
            idx = min(range(self.pool),
                      key=lambda r: (self.outstanding[r], r))
        self.outstanding[idx] += (
            (request.prompt_len + request.output_len) * self.kvpt)
        return idx


# ---------------------------------------------------------------------------
# Per-replica run descriptions
# ---------------------------------------------------------------------------

#: Flat request encoding: (rid, arrival_ns, prompt_len, output_len, warm).
RequestTuple = Tuple[int, float, int, int, bool]


@dataclass(frozen=True)
class ReplicaSpec:
    """One replica's serving run, fully described by value.

    Picklable and canonical-JSON-friendly: it travels to pool workers as
    ``SimTask.replica`` and enters the v5 cache fingerprint verbatim
    (explicit request tuples included — two fleets routing differently
    never share replica cache entries).
    """

    role: str                                    # replica|prefill|decode
    index: int                                   # pool-local index
    spec: ServingSpec
    requests: Tuple[RequestTuple, ...]
    #: Embedded model for ad-hoc (non-Table-I) models, e.g. the tiny
    #: property-test model; ``None`` resolves ``spec.model`` by name in
    #: the worker.
    model: Optional[ModelConfig] = None

    def to_requests(self) -> List[Request]:
        return [Request(rid=int(r), arrival_ns=float(a),
                        prompt_len=int(p), output_len=int(o),
                        warm=bool(w))
                for r, a, p, o, w in self.requests]


def encode_requests(requests: Sequence[Request]
                    ) -> Tuple[RequestTuple, ...]:
    return tuple((r.rid, r.arrival_ns, r.prompt_len, r.output_len,
                  bool(r.warm)) for r in requests)


#: Flat per-request outcome encoding shipped back from workers in
#: ``RunSummary.request_stats``: (rid, arrival_ns, prompt_len,
#: output_len, first_token_ns|-1, finish_ns|-1, evictions, aborts, shed).
StatsTuple = Tuple[float, ...]


def encode_request_stats(serving) -> Tuple[StatsTuple, ...]:
    """Encode a :class:`ServingResult`'s per-request outcomes (finished
    and shed) as JSON-round-trippable flat tuples, sorted by rid."""
    rows: List[StatsTuple] = []
    for s in list(serving.stats) + list(serving.shed):
        rows.append((
            float(s.rid), float(s.arrival_ns), float(s.prompt_len),
            float(s.output_len),
            -1.0 if s.first_token_ns is None else float(s.first_token_ns),
            -1.0 if s.finish_ns is None else float(s.finish_ns),
            float(s.evictions), float(s.aborts), 1.0 if s.shed else 0.0))
    return tuple(sorted(rows, key=lambda r: r[0]))


def decode_request_stats(rows: Sequence[StatsTuple]) -> List[RequestStats]:
    """Rebuild :class:`RequestStats` from :func:`encode_request_stats`."""
    out: List[RequestStats] = []
    for rid, arrival, prompt, output, first, finish, ev, ab, shed in rows:
        out.append(RequestStats(
            rid=int(rid), arrival_ns=float(arrival),
            prompt_len=int(prompt), output_len=int(output),
            first_token_ns=None if first < 0 else float(first),
            finish_ns=None if finish < 0 else float(finish),
            evictions=int(ev), aborts=int(ab), shed=bool(shed)))
    return out


# ---------------------------------------------------------------------------
# Planning
# ---------------------------------------------------------------------------

@dataclass
class FleetPlan:
    """The router's complete stage-1 decision for one fleet run."""

    fleet: FleetSpec
    model: ModelConfig
    #: The offered stream, in arrival order.
    requests: List[Request]
    #: rid -> pool-local stage-1 replica index (serve pool when combined,
    #: prefill pool when disaggregated).
    assignment: Dict[int, int]
    #: rid -> seeded prefix bucket (always computed — cheap, and the
    #: affinity property tests read it regardless of policy).
    buckets: Dict[int, int]
    #: One run per *non-empty* stage-1 replica (a replica that received
    #: no requests runs no simulation; aggregation fills in a zero row).
    stage1: List[ReplicaSpec]
    #: The ad-hoc model override passed to :func:`plan_fleet`, if any —
    #: re-embedded into stage-2 runs by :func:`plan_decode`.
    embedded: Optional[ModelConfig] = None
    #: Filled by :func:`plan_decode` for disaggregated fleets.
    decode_assignment: Dict[int, int] = field(default_factory=dict)
    #: rid -> (handoff_ns, handoff_bytes) charged between the pools.
    handoffs: Dict[int, Tuple[float, int]] = field(default_factory=dict)
    stage2: List[ReplicaSpec] = field(default_factory=list)


def _replica_specs(role: str, spec: ServingSpec,
                   model: Optional[ModelConfig], pool: int,
                   routed: Dict[int, List[Request]]) -> List[ReplicaSpec]:
    return [ReplicaSpec(role=role, index=idx, spec=spec,
                        requests=encode_requests(routed[idx]),
                        model=model)
            for idx in range(pool) if routed.get(idx)]


def plan_fleet(fleet: FleetSpec,
               model: Optional[ModelConfig] = None) -> FleetPlan:
    """Route the offered stream into per-replica stage-1 runs.

    ``model`` overrides the Table-I lookup of ``fleet.serving.model``
    (tests use ad-hoc tiny models); when given it is embedded in every
    :class:`ReplicaSpec` so pool workers need no registry lookup.
    """
    embedded = model
    if model is None:
        from .models import by_name
        model = by_name(fleet.serving.model)
    requests = generate_requests(fleet.serving)
    buckets = {r.rid: prefix_bucket(fleet.serving.seed, r.rid,
                                    fleet.prefix_buckets)
               for r in requests}

    if not fleet.routing:
        # Router bypassed: the stream reaches replica 0 untouched.
        plan = FleetPlan(fleet=fleet, model=model, requests=requests,
                         assignment={r.rid: 0 for r in requests},
                         buckets=buckets, stage1=[], embedded=embedded)
        plan.stage1 = _replica_specs(ROLE_REPLICA, fleet.serving, embedded,
                                     1, {0: requests})
        return plan

    if fleet.disaggregated:
        role, pool = ROLE_PREFILL, fleet.prefill_replicas
        # Prefill runs the prompt plus the first token; the rest of the
        # output decodes warm on the decode pool (or nowhere, for
        # 1-token requests).
        def stage1_request(r: Request) -> Request:
            return replace(r, output_len=1)
        spec1 = fleet.serving
    else:
        role, pool = ROLE_REPLICA, fleet.replicas

        def stage1_request(r: Request) -> Request:
            return r
        spec1 = fleet.serving

    router = Router(fleet, pool, kv_bytes_per_token(model))
    assignment: Dict[int, int] = {}
    routed: Dict[int, List[Request]] = {}
    for r in sorted(requests, key=lambda r: (r.arrival_ns, r.rid)):
        idx = router.route(r, buckets[r.rid])
        assignment[r.rid] = idx
        routed.setdefault(idx, []).append(stage1_request(r))
    return FleetPlan(fleet=fleet, model=model, requests=requests,
                     assignment=assignment, buckets=buckets,
                     stage1=_replica_specs(role, spec1, embedded, pool,
                                           routed),
                     embedded=embedded)


def plan_decode(plan: FleetPlan,
                prefill_stats: Sequence[RequestStats]) -> List[ReplicaSpec]:
    """Route prefill completions into warm decode runs (stage 2).

    ``prefill_stats`` is the union of every prefill replica's outcomes.
    Each finished multi-token request re-arrives at the decode pool at
    ``prefill_finish + handoff`` with its KV cache warm (prompt + first
    token) and its remaining ``output_len - 1`` tokens to decode; shed
    and 1-token requests never reach the pool.  Fills
    ``plan.decode_assignment`` / ``plan.handoffs`` / ``plan.stage2`` and
    returns the stage-2 replica runs.
    """
    fleet = plan.fleet
    if not fleet.disaggregated:
        raise WorkloadError(
            "plan_decode on an undisaggregated fleet "
            f"(prefill_replicas={fleet.prefill_replicas})")
    kvpt = kv_bytes_per_token(plan.model)
    originals = {r.rid: r for r in plan.requests}
    decode_requests: List[Request] = []
    for s in sorted(prefill_stats, key=lambda s: s.rid):
        if s.shed:
            continue
        orig = originals[s.rid]
        if orig.output_len <= 1:
            continue          # fully served at prefill, nothing to decode
        kv = (orig.prompt_len + 1) * kvpt
        handoff = fleet.handoff_ns(kv)
        plan.handoffs[s.rid] = (handoff, kv)
        decode_requests.append(Request(
            rid=s.rid, arrival_ns=s.finish_ns + handoff,
            prompt_len=orig.prompt_len + 1,
            output_len=orig.output_len - 1, warm=True))
    # Decode-pool spec: admission applied at the front door only — a warm
    # request carries sunk prefill *and* handoff work, so the decode pool
    # never sheds or defers it.
    spec2 = replace(fleet.serving, admission_policy="none")
    router = Router(fleet, fleet.decode_replicas, kvpt)
    routed: Dict[int, List[Request]] = {}
    for r in sorted(decode_requests, key=lambda r: (r.arrival_ns, r.rid)):
        idx = router.route(r, plan.buckets[r.rid])
        plan.decode_assignment[r.rid] = idx
        routed.setdefault(idx, []).append(r)
    plan.stage2 = _replica_specs(ROLE_DECODE, spec2, plan.embedded,
                                 fleet.decode_replicas, routed)
    return plan.stage2


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

@dataclass
class ReplicaOutcome:
    """One replica simulation's result, as the fleet coordinator sees it
    (decoded from a :class:`~repro.experiments.parallel.RunSummary`)."""

    role: str
    index: int
    makespan_ns: float
    details: Dict[str, float]
    stats: List[RequestStats]


@dataclass
class FleetRequestStats:
    """Fleet-level outcome of one offered request, stages combined."""

    rid: int
    arrival_ns: float
    prompt_len: int
    output_len: int
    replica: int                       # stage-1 (serve/prefill) replica
    decode_replica: Optional[int] = None
    first_token_ns: Optional[float] = None
    finish_ns: Optional[float] = None
    evictions: int = 0
    aborts: int = 0
    shed: bool = False
    handoff_ns: float = 0.0
    handoff_bytes: int = 0

    @property
    def ttft_ns(self) -> float:
        return self.first_token_ns - self.arrival_ns

    @property
    def e2e_ns(self) -> float:
        return self.finish_ns - self.arrival_ns


@dataclass
class FleetResult:
    """Outcome of one fleet serving run."""

    fleet: FleetSpec
    stats: List[FleetRequestStats]          # finished, sorted by rid
    shed: List[FleetRequestStats]           # rejected, sorted by rid
    per_replica: List[Dict[str, float]]     # one row per fleet slot
    makespan_ns: float
    handoff_bytes: int = 0
    handoff_ns_total: float = 0.0

    @property
    def offered(self) -> int:
        return len(self.stats) + len(self.shed)

    @property
    def total_output_tokens(self) -> int:
        return sum(s.output_len for s in self.stats)

    @property
    def tokens_per_s(self) -> float:
        if self.makespan_ns <= 0:
            return 0.0
        return self.total_output_tokens / self.makespan_ns * 1e9

    def ttft_quantile_ns(self, q: float) -> float:
        return exact_quantile([s.ttft_ns for s in self.stats], q)

    def slo_attainment(self, slo_ttft_ns: float) -> float:
        """Fraction of the offered stream finished within the TTFT SLO —
        shed requests count against attainment (same accounting as
        :meth:`ServingResult.slo_attainment`)."""
        if not self.offered:
            return 0.0
        ok = sum(1 for s in self.stats if s.ttft_ns <= slo_ttft_ns)
        return ok / self.offered

    def good_tokens(self, slo_ttft_ns: float) -> int:
        return sum(s.output_len for s in self.stats
                   if s.ttft_ns <= slo_ttft_ns)

    def goodput_tokens_per_s(self, slo_ttft_ns: float) -> float:
        if self.makespan_ns <= 0:
            return 0.0
        return self.good_tokens(slo_ttft_ns) / self.makespan_ns * 1e9

    def details(self) -> Dict[str, float]:
        """Flat fleet metrics (the figure/ledger projection)."""
        out = {
            "fleet.replicas": float(self.fleet.replicas),
            "fleet.prefill_replicas": float(self.fleet.prefill_replicas),
            "fleet.offered": float(self.offered),
            "fleet.finished": float(len(self.stats)),
            "fleet.shed": float(len(self.shed)),
            "fleet.tokens": float(self.total_output_tokens),
            "fleet.tokens_per_s": self.tokens_per_s,
            "fleet.makespan_ns": self.makespan_ns,
            "fleet.evictions": float(sum(s.evictions for s in self.stats)),
            "fleet.aborts": float(sum(s.aborts for s in self.stats)),
            "fleet.ttft_mean_ns":
                (sum(s.ttft_ns for s in self.stats) / len(self.stats)
                 if self.stats else 0.0),
            "fleet.ttft_p95_ns": self.ttft_quantile_ns(0.95),
            "fleet.handoff_bytes": float(self.handoff_bytes),
            "fleet.handoff_ns_total": self.handoff_ns_total,
        }
        if self.fleet.serving.slo_ttft_ms is not None:
            slo_ns = self.fleet.serving.slo_ttft_ms * 1e6
            out["fleet.slo_attainment"] = self.slo_attainment(slo_ns)
            out["fleet.goodput_tokens_per_s"] = \
                self.goodput_tokens_per_s(slo_ns)
        return out


def _zero_row(role: str, index: int) -> Dict[str, float]:
    return {"role": role, "index": float(index), "requests": 0.0,
            "shed": 0.0, "tokens": 0.0, "iterations": 0.0,
            "evictions": 0.0, "kv_peak_bytes": 0.0, "makespan_ns": 0.0}


def _replica_row(outcome: ReplicaOutcome) -> Dict[str, float]:
    d = outcome.details
    return {"role": outcome.role, "index": float(outcome.index),
            "requests": d.get("serving.requests", 0.0),
            "shed": d.get("serving.shed", 0.0),
            "tokens": d.get("serving.tokens", 0.0),
            "iterations": d.get("serving.iterations", 0.0),
            "evictions": d.get("serving.evictions", 0.0),
            "kv_peak_bytes": d.get("serving.kv_peak_bytes", 0.0),
            "makespan_ns": outcome.makespan_ns}


def aggregate_fleet(plan: FleetPlan,
                    outcomes: Sequence[ReplicaOutcome]) -> FleetResult:
    """Fold per-replica outcomes into the fleet-level result.

    Enforces request conservation while combining: every offered request
    must appear exactly once fleet-wide (finished or shed, stages
    joined), or the aggregation raises — the property the fleet
    invariant suite pins.
    """
    fleet = plan.fleet
    originals = {r.rid: r for r in plan.requests}
    stage1: Dict[int, RequestStats] = {}
    decode: Dict[int, RequestStats] = {}
    for outcome in outcomes:
        sink = decode if outcome.role == ROLE_DECODE else stage1
        for s in outcome.stats:
            if s.rid in sink:
                raise SimulationError(
                    f"fleet conservation violated: request {s.rid} "
                    f"reported twice by the {outcome.role} pool")
            sink[s.rid] = s

    finished: List[FleetRequestStats] = []
    shed: List[FleetRequestStats] = []
    handoff_bytes = 0
    handoff_ns_total = 0.0
    for rid in sorted(originals):
        orig = originals[rid]
        s1 = stage1.get(rid)
        if s1 is None:
            raise SimulationError(
                f"fleet conservation violated: request {rid} vanished "
                f"(never reported by its stage-1 replica)")
        combined = FleetRequestStats(
            rid=rid, arrival_ns=orig.arrival_ns,
            prompt_len=orig.prompt_len, output_len=orig.output_len,
            replica=plan.assignment[rid],
            first_token_ns=s1.first_token_ns, finish_ns=s1.finish_ns,
            evictions=s1.evictions, aborts=s1.aborts, shed=s1.shed)
        if s1.shed:
            shed.append(combined)
            continue
        if fleet.disaggregated and orig.output_len > 1:
            s2 = decode.get(rid)
            if s2 is None:
                raise SimulationError(
                    f"fleet conservation violated: request {rid} "
                    f"prefilled but never decoded")
            hand_ns, hand_bytes = plan.handoffs[rid]
            combined.decode_replica = plan.decode_assignment[rid]
            combined.finish_ns = s2.finish_ns
            combined.evictions += s2.evictions
            combined.aborts += s2.aborts
            combined.handoff_ns = hand_ns
            combined.handoff_bytes = hand_bytes
            handoff_bytes += hand_bytes
            handoff_ns_total += hand_ns
        finished.append(combined)
    extra = (set(stage1) | set(decode)) - set(originals)
    if extra:
        raise SimulationError(
            f"fleet conservation violated: replicas reported unknown "
            f"request(s) {sorted(extra)}")

    rows: Dict[Tuple[str, int], Dict[str, float]] = {}
    if fleet.disaggregated:
        for i in range(fleet.prefill_replicas):
            rows[(ROLE_PREFILL, i)] = _zero_row(ROLE_PREFILL, i)
        for i in range(fleet.decode_replicas):
            rows[(ROLE_DECODE, i)] = _zero_row(ROLE_DECODE, i)
    else:
        for i in range(fleet.replicas):
            rows[(ROLE_REPLICA, i)] = _zero_row(ROLE_REPLICA, i)
    for outcome in outcomes:
        rows[(outcome.role, outcome.index)] = _replica_row(outcome)
    order = {ROLE_REPLICA: 0, ROLE_PREFILL: 1, ROLE_DECODE: 2}
    per_replica = [rows[k] for k in sorted(
        rows, key=lambda k: (order.get(k[0], 9), k[1]))]
    makespan = max((o.makespan_ns for o in outcomes), default=0.0)
    return FleetResult(fleet=fleet, stats=finished, shed=shed,
                       per_replica=per_replica, makespan_ns=makespan,
                       handoff_bytes=handoff_bytes,
                       handoff_ns_total=handoff_ns_total)
