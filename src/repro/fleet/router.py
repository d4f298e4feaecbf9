"""SLA-aware query routing over a heterogeneous replica fleet.

One query stream hits a router that assigns each query to a replica at
arrival time.  Every replica is a single-GPU timeline, the one serving
event loop of :mod:`repro.core.serving`: it batches its queue with its
batcher's rule (:func:`~repro.core.serving.batch_rule`) and executes
batches back to back on its GPU, whose batch latency comes from a
per-replica calibrated model.  This composes the single-GPU serving
simulation into the cluster-scale setting the paper's SLA framing
targets (DeepRecSys-style serving studies).

Routing policies are pluggable.  ``round-robin`` is the oblivious
baseline: it assigns every arrival up front, which fills each replica's
queue at once.  ``jsq`` (join-shortest-queue) and ``power-of-two`` use
queue state; ``least-latency`` additionally weighs each replica's
speed, which is what makes heterogeneous fleets (A100 next to H100)
behave: an oblivious router feeds the slow replicas the same load as
the fast ones and their tail blows up first.  These state-aware
policies pick arrival by arrival from the router's flat per-replica
lists (:class:`RouterState`); the router keeps each replica's pending
dispatch time current with the batcher's O(1) join rule
(:func:`~repro.core.serving.join_rule`) and advances a replica's
timeline only when that time falls before the arrival at hand.  Both
paths then drain every replica the same way.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.core.curve import LatencyCurve, LatencyModel, as_curve
from repro.core.serving import (
    _Timeline,
    check_sla,
    check_stream,
    join_rule,
    poisson_arrivals,
)
from repro.fleet.report import (
    FleetReport,
    fold_fleet_report,
)
from repro.fleet.topology import FleetSpec, ReplicaSpec
from repro.telemetry.events import ArrivalBlock, BatchBlock, FleetRun
from repro.telemetry.sinks import CaptureSink, Sink, emit_run


class RouterState:
    """What state-aware policies choose from: the router's per-replica
    state as flat lists, indexed like the fleet's replicas.

    ``depth[r]`` is the number of queries waiting at replica ``r``;
    ``free[r]`` is when its GPU frees from the batches committed so far,
    so its backlog at ``now`` is ``max(free[r] - now, 0.0)``; ``due[r]``
    is when its pending batch dispatches (inf while the queue is empty);
    ``work[r]`` is the GPU seconds predicted to serve its queue plus one
    more query.  The router keeps them current; policies only read them.
    ``work`` is kept only for a policy that reads it
    (:attr:`RoutingPolicy.reads_work`); otherwise it is None.
    """

    __slots__ = ("depth", "free", "due", "work")

    def __init__(self, n_replicas: int) -> None:
        self.depth = [0] * n_replicas
        self.free = [0.0] * n_replicas
        self.due = [math.inf] * n_replicas
        self.work: list[float] | None = [0.0] * n_replicas


class _ReplicaState(_Timeline):
    """One replica under the router: a GPU timeline
    (:class:`~repro.core.serving._Timeline`) on the replica's table for
    every phase, plus its spec.

    The router fills its queue: round-robin with the replica's whole
    share up front, the per-arrival policies one arrival at a time,
    advancing the timeline to each arrival before queueing it.  The
    table is the curve's up to ``max_batch`` as a list, converted once.
    """

    __slots__ = ("spec", "latency_ms")

    def __init__(
        self, spec: ReplicaSpec, curve: LatencyCurve, n_phases: int
    ) -> None:
        latency_ms = curve.ms[:spec.batching.max_batch + 1].tolist()
        super().__init__([latency_ms] * n_phases, spec.batching)
        self.spec = spec
        self.latency_ms = latency_ms

    def work_s(self, depth: int) -> float:
        """Predicted GPU seconds to serve ``depth`` waiting queries plus
        one more.

        Counts every batch the queue implies, not just the next one — a
        deeply backed-up replica must not look cheap just because the
        latency curve saturates at one max-batch execution.
        """
        max_batch = self.spec.batching.max_batch
        full_batches, remainder = divmod(depth + 1, max_batch)
        work_ms = full_batches * self.latency_ms[max_batch]
        if remainder:
            work_ms += self.latency_ms[remainder]
        return work_ms / 1e3

    def to_block(self, phases: tuple[str, ...]) -> BatchBlock:
        """This replica's served batches and their members as a
        telemetry column block."""
        return dataclasses.replace(
            super().to_block(phases),
            replica=self.spec.name,
            member_times=np.asarray(self.times, dtype=float),
            member_phases=np.asarray(self.phase_ids, dtype=np.int64),
        )


class RoutingPolicy:
    """Chooses a replica index for each arriving query.

    :meth:`start` opens a run.  An oblivious policy returns every
    arrival's replica index there, up front, and the router queues each
    replica's share on it at once.  A state-aware policy
    returns None and is asked :meth:`select` once per arrival, in
    arrival order, with the router's :class:`RouterState` lists as they
    stand at that arrival.  Either way, a replica index outside
    ``0..n_replicas-1`` is rejected with a ``ValueError``.

    A state-aware policy declares the state it reads: ``reads_work``
    says whether :meth:`select` reads :attr:`RouterState.work`.  It
    defaults to True, so a policy that declares nothing never reads
    stale predictions; one that sets it False gets ``work = None``, and
    the router skips predicting work on every enqueue.
    """

    name = "policy"
    reads_work = True

    def start(
        self,
        n_replicas: int,
        n_arrivals: int,
        rng: np.random.Generator,
    ) -> np.ndarray | None:
        """Open a run of ``n_arrivals`` queries over ``n_replicas``;
        ``rng`` is the router's own stream.  Returns the up-front
        assignment, or None to choose per arrival."""
        return None

    def select(self, state: RouterState, now: float, k: int) -> int:
        """The replica for arrival ``k``, which arrives at ``now``."""
        raise NotImplementedError


class RoundRobinPolicy(RoutingPolicy):
    """Oblivious cycling; the baseline every load balancer starts from."""

    name = "round-robin"

    def start(self, n_replicas, n_arrivals, rng):
        return np.arange(n_arrivals) % n_replicas


class JoinShortestQueuePolicy(RoutingPolicy):
    """Route to the replica with the fewest waiting queries; ties go to
    the smaller backlog, then to the lower index."""

    name = "jsq"
    reads_work = False

    def select(self, state, now, k):
        depth = state.depth
        shortest = min(depth)
        best = depth.index(shortest)
        if depth.count(shortest) > 1:
            free = state.free
            backlog = free[best] - now
            for r in range(best + 1, len(depth)):
                if backlog <= 0.0:
                    break  # no backlog: no later replica beats it
                if depth[r] == shortest and free[r] - now < backlog:
                    best, backlog = r, free[r] - now
        return best


class PowerOfTwoPolicy(RoutingPolicy):
    """Sample two random replicas, keep the shorter queue (Mitzenmacher).

    The candidate pairs are drawn once per run, uniform over ordered
    pairs of distinct replicas: ``first[k]`` and ``second[k]`` are
    arrival ``k``'s.  Ties in (depth, backlog) go to the first.
    """

    name = "power-of-two"
    reads_work = False

    def start(self, n_replicas, n_arrivals, rng):
        if n_replicas == 1:
            self.first = self.second = [0] * n_arrivals
            return None
        first = rng.integers(n_replicas, size=n_arrivals)
        offset = 1 + rng.integers(n_replicas - 1, size=n_arrivals)
        self.first = first.tolist()
        self.second = ((first + offset) % n_replicas).tolist()
        return None

    def select(self, state, now, k):
        a, b = self.first[k], self.second[k]
        depth = state.depth
        if depth[a] != depth[b]:
            return a if depth[a] < depth[b] else b
        free = state.free
        return a if max(free[a] - now, 0.0) <= max(free[b] - now, 0.0) \
            else b


class LeastLatencyPolicy(RoutingPolicy):
    """Route to the lowest predicted completion time (backlog plus
    predicted work); ties go to the lower index.

    Unlike JSQ this weighs queue depth by the replica's own speed, so an
    H100 with three waiting queries can still beat an idle A100.
    """

    name = "least-latency"

    def select(self, state, now, k):
        # the backlog max(free - now, 0.0) as a branch: the same bits,
        # without a call per replica
        completion = [
            (free - now if free > now else 0.0) + work
            for free, work in zip(state.free, state.work)
        ]
        return completion.index(min(completion))


#: policy name -> zero-argument factory.
ROUTING_POLICIES: dict[str, Callable[[], RoutingPolicy]] = {
    RoundRobinPolicy.name: RoundRobinPolicy,
    JoinShortestQueuePolicy.name: JoinShortestQueuePolicy,
    PowerOfTwoPolicy.name: PowerOfTwoPolicy,
    LeastLatencyPolicy.name: LeastLatencyPolicy,
}


def resolve_policy(policy: str | RoutingPolicy) -> RoutingPolicy:
    if isinstance(policy, RoutingPolicy):
        return policy
    try:
        return ROUTING_POLICIES[policy]()
    except KeyError:
        known = ", ".join(ROUTING_POLICIES)
        raise ValueError(
            f"unknown routing policy {policy!r}; known: {known}"
        ) from None


def resolve_latency_models(
    fleet: FleetSpec,
    latency_models: Mapping[str, LatencyModel],
    seen: dict | None = None,
) -> dict[str, LatencyCurve]:
    """Map each replica to its validated table, by replica name or by
    GPU name, covering the replica's ``1..batching.max_batch``.

    Replicas sharing one plain callable share one tabulation (see
    :func:`repro.core.curve.as_curve` for ``seen``).
    """
    seen = {} if seen is None else seen
    resolved = {}
    for replica in fleet.replicas:
        model = latency_models.get(replica.name) \
            or latency_models.get(replica.gpu.name)
        if model is None:
            raise KeyError(
                f"no latency model for replica {replica.name!r} "
                f"(gpu {replica.gpu.name!r})"
            )
        resolved[replica.name] = as_curve(
            model, replica.batching.max_batch, seen
        )
    return resolved


def _bad_choice(
    router: RoutingPolicy, k: int, choice, n_replicas: int
) -> ValueError:
    return ValueError(
        f"routing policy {router.name!r} chose replica {choice!r} for "
        f"arrival {k}; the fleet has {n_replicas} replicas "
        f"0..{n_replicas - 1}"
    )


def _check_assignment(
    router: RoutingPolicy, assignment, n_arrivals: int, n_replicas: int
) -> np.ndarray:
    """An up-front assignment as an index array: one integer in
    ``0..n_replicas-1`` per arrival, or a ``ValueError``."""
    assignment = np.asarray(assignment)
    if assignment.shape != (n_arrivals,) or \
            not np.issubdtype(assignment.dtype, np.integer):
        raise ValueError(
            f"routing policy {router.name!r} assigned arrivals up front "
            f"as a {assignment.dtype} array of shape {assignment.shape}; "
            f"expected {n_arrivals} integer replica indices for a fleet "
            f"of {n_replicas} replicas"
        )
    bad = np.flatnonzero((assignment < 0) | (assignment >= n_replicas))
    if len(bad):
        k = int(bad[0])
        raise _bad_choice(router, k, int(assignment[k]), n_replicas)
    return assignment


def _route_each_arrival(
    replicas: list[_ReplicaState],
    router: RoutingPolicy,
    times: np.ndarray,
    phase_ids: np.ndarray,
) -> None:
    """Route arrival by arrival into the replicas' queues.

    The router keeps each replica's depth, GPU-free time, due time and
    (for a policy that reads it) predicted work in :class:`RouterState`
    lists.  An enqueue updates them in O(1), the due time through the
    replica's join rule; a replica's timeline is advanced to an arrival,
    committing its batches, only once its due time falls before that
    arrival.
    """
    joins = [join_rule(replica.spec.batching) for replica in replicas]
    n_replicas = len(replicas)
    state = RouterState(n_replicas)
    depth, free, due = state.depth, state.free, state.due
    if router.reads_work:
        work = state.work
        work[:] = [replica.work_s(0) for replica in replicas]
    else:
        work = state.work = None
    select = router.select
    next_due = math.inf
    for k, (now, phase) in enumerate(zip(times.tolist(), phase_ids.tolist())):
        while next_due < now:
            r = due.index(next_due)
            replica = replicas[r]
            due[r] = replica.advance(now)
            free[r] = replica.gpu_free
            depth[r] = len(replica.times) - replica.head
            if work is not None:
                work[r] = replica.work_s(depth[r])
            next_due = min(due)
        r = select(state, now, k)
        if not 0 <= r < n_replicas:
            raise _bad_choice(router, k, r, n_replicas)
        replica = replicas[r]
        replica.times.append(now)
        replica.phase_ids.append(phase)
        queued = depth[r] + 1
        depth[r] = queued
        pending = due[r] = joins[r](due[r], queued, now, free[r])
        if pending < next_due:
            next_due = pending
        if work is not None:
            work[r] = replica.work_s(queued)


def _route_stream(
    fleet: FleetSpec,
    latency_models: Mapping[str, LatencyModel],
    times: np.ndarray,
    phase_ids: np.ndarray,
    phases: tuple[str, ...],
    *,
    policy: str | RoutingPolicy,
    seed: int,
) -> tuple[list[BatchBlock], RoutingPolicy]:
    """Route a time-sorted arrival stream and drain every replica: one
    batch block per replica, and the policy that routed.  Each
    replica's curve is resolved to a table once, at entry.  The two
    paths differ only in how the replicas' queues fill: up front, or
    arrival by arrival."""
    curves = resolve_latency_models(fleet, latency_models)
    router = resolve_policy(policy)
    # distinct stream from the arrival-generation rng: sampling policies
    # must not replay the bits that produced the inter-arrival gaps
    rng = np.random.default_rng([seed, 0x617])
    n_replicas = fleet.n_replicas
    replicas = [
        _ReplicaState(spec, curves[spec.name], len(phases))
        for spec in fleet.replicas
    ]
    assignment = router.start(n_replicas, len(times), rng)
    if assignment is None:
        _route_each_arrival(replicas, router, times, phase_ids)
    else:
        assignment = _check_assignment(
            router, assignment, len(times), n_replicas,
        )
        for r, replica in enumerate(replicas):
            mine = assignment == r
            replica.times = times[mine].tolist()
            replica.phase_ids = phase_ids[mine].tolist()
    blocks = []
    for replica in replicas:
        replica.advance(math.inf)
        blocks.append(replica.to_block(phases))
    return blocks, router


def simulate_fleet(
    fleet: FleetSpec,
    latency_models: Mapping[str, LatencyModel],
    *,
    qps: float,
    duration_s: float = 10.0,
    policy: str | RoutingPolicy = "jsq",
    seed: int = 0,
    sink: Sink | None = None,
) -> FleetReport:
    """Discrete-event simulation of a routed fleet serving Poisson load.

    ``latency_models`` maps replica names — or, as a convenient fallback,
    GPU names — to batch-latency curves (:class:`LatencyCurve` tables or
    plain callables batch size -> ms, tabulated once at entry).
    Query latency = routing (instant) + batching wait + queueing + batch
    execution on the assigned replica.  The run's telemetry (arrival
    block + one batch block per replica) goes to ``sink``, falling back
    to the ambient default.
    """
    arrivals = poisson_arrivals(qps, duration_s, seed)
    phase_ids = np.zeros(len(arrivals), dtype=np.int64)
    blocks, router = _route_stream(
        fleet, latency_models, arrivals, phase_ids, ("all",),
        policy=policy, seed=seed,
    )
    run = FleetRun(
        meta={
            "kind": "fleet",
            "fleet": fleet.name,
            "policy": router.name,
            "qps": qps,
            "seed": seed,
            "cost_units": float(fleet.cost_units),
        },
        arrivals=ArrivalBlock(
            times=arrivals, phase_ids=phase_ids, phases=("all",)
        ),
        replicas=blocks,
    )
    report = fold_fleet_report(run)
    emit_run(sink, run)
    return report


def simulate_fleet_stream(
    fleet: FleetSpec,
    latency_models: Mapping[str, LatencyModel],
    stream,
    *,
    policy: str | RoutingPolicy = "jsq",
    sla_ms: float | None = None,
    seed: int = 0,
    phase_hit_rates: Sequence[float] | None = None,
    sink: Sink | None = None,
) -> FleetReport:
    """A routed fleet serving one scenario stream, with per-phase tails.

    ``stream`` is any object with the
    :class:`repro.traffic.ScenarioTrace` shape (``times``, ``phase_ids``,
    ``phases``, ``phase_durations``, ``duration_s``, ``name``) — this is
    how routing policies get evaluated *inside* a burst or a drift
    window instead of on the run average.  ``seed`` only drives the
    router's sampling policies (the stream is already materialized).
    ``phase_hit_rates`` (one memstore HBM hit rate per phase) is
    threaded into the per-phase breakdown.  Replicas sharing one plain
    callable tabulate it once.  The run's telemetry goes to ``sink``
    (or the ambient default); the report is :func:`fold_fleet_report`
    of that run.
    """
    times, phase_ids = check_stream(stream)
    check_sla(sla_ms)
    phases = tuple(stream.phases)
    blocks, router = _route_stream(
        fleet, latency_models, times, phase_ids, phases,
        policy=policy, seed=seed,
    )
    run = FleetRun(
        meta={
            "kind": "fleet_stream",
            "fleet": fleet.name,
            "scenario": stream.name,
            "policy": router.name,
            "sla_ms": sla_ms,
            "duration_s": stream.duration_s,
            "cost_units": float(fleet.cost_units),
            "phases": list(phases),
            "phase_durations": [float(d) for d in stream.phase_durations],
            "phase_hit_rates": (
                None if phase_hit_rates is None
                else [float(r) for r in phase_hit_rates]
            ),
        },
        arrivals=ArrivalBlock(
            times=times,
            phase_ids=np.asarray(phase_ids, dtype=np.int64),
            phases=phases,
        ),
        replicas=blocks,
    )
    report = fold_fleet_report(run)
    emit_run(sink, run)
    return report


def subfleet(fleet: FleetSpec, replicas: Sequence[str]) -> FleetSpec:
    """The sub-fleet holding exactly ``replicas`` (order preserved).

    Returns ``fleet`` itself when the subset is the whole fleet, so a
    degenerate selection changes nothing — not even the fleet name.
    """
    wanted = set(replicas)
    unknown = sorted(wanted - {r.name for r in fleet.replicas})
    if unknown:
        known = ", ".join(r.name for r in fleet.replicas)
        raise KeyError(f"unknown replicas {unknown}; known: {known}")
    if wanted == {r.name for r in fleet.replicas}:
        return fleet
    subset = tuple(r for r in fleet.replicas if r.name in wanted)
    return FleetSpec(
        name=f"{fleet.name}/{'+'.join(r.name for r in subset)}",
        replicas=subset,
    )


def tenant_fleet(
    fleet: FleetSpec,
    assignments: Mapping[str, Sequence[str]] | None,
    tenant: str,
) -> FleetSpec:
    """The replicas ``tenant`` is routed over: its assignment, else the
    whole fleet."""
    replicas = assignments.get(tenant) if assignments is not None else None
    return fleet if replicas is None else subfleet(fleet, replicas)


def simulate_fleet_tenant_streams(
    fleet: FleetSpec,
    latency_models: Mapping[str, Mapping[str, LatencyModel]],
    streams: Mapping[str, object],
    *,
    assignments: Mapping[str, Sequence[str]] | None = None,
    policy: str | RoutingPolicy = "jsq",
    sla_ms: Mapping[str, float | None] | float | None = None,
    seed: int = 0,
    sink: Sink | None = None,
) -> dict[str, FleetReport]:
    """Route several tenants' streams over the fleet, one report each.

    Multi-tenant serving in the MPS-style concurrency model: each
    tenant's queries are routed over its assigned replicas on the
    tenant's own timeline (contention between co-resident tenants is
    carried by the latency curves — :mod:`repro.tenancy.share` prices
    it), so per-tenant tails and SLA attainment stay attributable.
    ``latency_models[tenant]`` maps replica or GPU names to that
    tenant's curves; ``assignments[tenant]`` names the replicas it may
    use (omitted: all of them).  Each tenant is routed by
    :func:`simulate_fleet_stream` itself over :func:`tenant_fleet`, so
    its report is the one a direct call returns; its run record is the
    one that call emits, with ``meta["tenant"]`` appended as the last
    key, and goes to ``sink`` (or the ambient default).
    """
    missing = sorted(set(streams) - set(latency_models))
    if missing:
        raise KeyError(f"no latency models for tenants {missing}")
    reports: dict[str, FleetReport] = {}
    for name in streams:
        capture = CaptureSink()
        reports[name] = simulate_fleet_stream(
            tenant_fleet(fleet, assignments, name),
            latency_models[name], streams[name], policy=policy,
            sla_ms=(
                sla_ms.get(name) if isinstance(sla_ms, Mapping) else sla_ms
            ),
            seed=seed, sink=capture,
        )
        (run,) = capture.runs
        run.meta["tenant"] = name
        emit_run(sink, run)
    return reports
