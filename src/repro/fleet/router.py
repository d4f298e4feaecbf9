"""SLA-aware query routing over a heterogeneous replica fleet.

One query stream hits a router that assigns each query to a replica at
arrival time; every replica batches its queue with the single-GPU rule
(:func:`~repro.core.serving.next_batch`, under either batcher) and
executes batches back to back on its GPU, whose batch latency comes
from a per-replica calibrated model.  This composes the single-GPU
serving simulation in :mod:`repro.core.serving` into the cluster-scale
setting the paper's SLA framing targets (DeepRecSys-style serving
studies).

Routing policies are pluggable.  ``round-robin`` is the oblivious
baseline; ``jsq`` (join-shortest-queue) and ``power-of-two`` use queue
state; ``least-latency`` additionally weighs each replica's speed, which
is what makes heterogeneous fleets (A100 next to H100) behave: an
oblivious router feeds the slow replicas the same load as the fast ones
and their tail blows up first.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.core.curve import LatencyCurve, LatencyModel, as_curve
from repro.core.serving import check_stream, next_batch, poisson_arrivals
from repro.fleet.report import (
    FleetReport,
    fold_fleet_report,
)
from repro.fleet.topology import FleetSpec, ReplicaSpec
from repro.telemetry.events import ArrivalBlock, BatchBlock, FleetRun
from repro.telemetry.sinks import Sink, emit_run


class _ReplicaState:
    """One replica under the router: its queue, its GPU clock, its batch
    columns and the routing metrics.

    The queue is the routed arrival times (and phase ids) from ``head``
    on; dispatched queries stay in the lists as the batch members.
    ``due``/``size`` cache the pending batch decision (``due`` is inf
    while the queue is empty).  ``latency_ms`` is the curve as a plain
    list, which the per-arrival routing metrics read.
    """

    __slots__ = (
        "spec", "curve", "latency_ms", "times", "phases", "head",
        "gpu_free", "due", "size",
        "batch_starts", "batch_exec", "batch_sizes",
    )

    def __init__(self, spec: ReplicaSpec, latency_ms: LatencyModel) -> None:
        self.spec = spec
        max_batch = spec.batching.max_batch
        self.curve = as_curve(latency_ms, max_batch)
        self.latency_ms = self.curve.ms[:max_batch + 1].tolist()
        self.times: list[float] = []
        self.phases: list[int] = []
        self.head = 0
        self.gpu_free = 0.0
        self.due = math.inf
        self.size = 0
        self.batch_starts: list[float] = []
        self.batch_exec: list[float] = []
        self.batch_sizes: list[int] = []

    # -- event mechanics ------------------------------------------------
    def enqueue(self, arrival: float, phase: int = 0) -> None:
        self.times.append(arrival)
        self.phases.append(phase)
        self._decide()

    def _decide(self) -> None:
        """Re-decide the pending batch off the current queue."""
        if self.head < len(self.times):
            self.due, self.size = next_batch(
                self.spec.batching, self.times, self.head, self.gpu_free,
                self.curve,
            )
        else:
            self.due = math.inf

    def advance(self, now: float) -> None:
        """Commit every pending batch due strictly before ``now``: no
        arrival at ``now`` or later can join it any more."""
        while self.due < now:
            exec_s = self.latency_ms[self.size] / 1e3
            self.gpu_free = self.due + exec_s
            self.batch_starts.append(self.due)
            self.batch_exec.append(exec_s)
            self.batch_sizes.append(self.size)
            self.head += self.size
            self._decide()

    def to_block(self, phases: tuple[str, ...] = ()) -> BatchBlock:
        """This replica's served batches as a telemetry column block."""
        return BatchBlock(
            starts=np.asarray(self.batch_starts, dtype=float),
            exec_s=np.asarray(self.batch_exec, dtype=float),
            sizes=np.asarray(self.batch_sizes, dtype=np.int64),
            replica=self.spec.name,
            member_times=np.asarray(self.times, dtype=float),
            member_phases=np.asarray(self.phases, dtype=np.int64),
            phases=phases,
        )

    # -- routing metrics ------------------------------------------------
    def queue_len(self) -> int:
        return len(self.times) - self.head

    def backlog_s(self, now: float) -> float:
        """Seconds of already-committed GPU work still ahead of ``now``."""
        return max(self.gpu_free - now, 0.0)

    def estimated_completion_s(self, now: float) -> float:
        """Predicted time-in-system for a query routed here at ``now``.

        Counts every batch the queue implies, not just the next one —
        a deeply backed-up replica must not look cheap just because the
        latency curve saturates at one max-batch execution.
        """
        max_batch = self.spec.batching.max_batch
        pending = self.queue_len() + 1
        full_batches, remainder = divmod(pending, max_batch)
        work_ms = full_batches * self.latency_ms[max_batch]
        if remainder:
            work_ms += self.latency_ms[remainder]
        return self.backlog_s(now) + work_ms / 1e3


class RoutingPolicy:
    """Chooses a replica index for each arriving query."""

    name = "policy"

    def reset(self, n_replicas: int) -> None:  # pragma: no cover - default
        pass

    def select(
        self,
        replicas: Sequence[_ReplicaState],
        now: float,
        rng: np.random.Generator,
    ) -> int:
        raise NotImplementedError


class RoundRobinPolicy(RoutingPolicy):
    """Oblivious cycling; the baseline every load balancer starts from."""

    name = "round-robin"

    def reset(self, n_replicas: int) -> None:
        self._next = 0

    def select(self, replicas, now, rng):
        index = self._next % len(replicas)
        self._next += 1
        return index


class JoinShortestQueuePolicy(RoutingPolicy):
    """Route to the replica with the fewest waiting queries."""

    name = "jsq"

    def select(self, replicas, now, rng):
        return min(
            range(len(replicas)),
            key=lambda i: (
                replicas[i].queue_len(),
                replicas[i].backlog_s(now),
                i,
            ),
        )


class PowerOfTwoPolicy(RoutingPolicy):
    """Sample two random replicas, keep the shorter queue (Mitzenmacher)."""

    name = "power-of-two"

    def select(self, replicas, now, rng):
        if len(replicas) == 1:
            return 0
        a, b = rng.choice(len(replicas), size=2, replace=False)
        key = lambda i: (replicas[i].queue_len(), replicas[i].backlog_s(now))
        return int(a) if key(a) <= key(b) else int(b)


class LeastLatencyPolicy(RoutingPolicy):
    """Route to the lowest predicted completion time.

    Unlike JSQ this weighs queue depth by the replica's own speed, so an
    H100 with three waiting queries can still beat an idle A100.
    """

    name = "least-latency"

    def select(self, replicas, now, rng):
        return min(
            range(len(replicas)),
            key=lambda i: (replicas[i].estimated_completion_s(now), i),
        )


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


def _route_stream(
    fleet: FleetSpec,
    latency_models: Mapping[str, LatencyModel],
    times: np.ndarray,
    phase_ids: np.ndarray,
    *,
    policy: str | RoutingPolicy,
    seed: int,
) -> tuple[list[_ReplicaState], RoutingPolicy]:
    """Route a time-sorted arrival stream and drain every replica; each
    replica's curve is resolved to a table once, at entry."""
    curves = resolve_latency_models(fleet, latency_models)
    states = [
        _ReplicaState(replica, curves[replica.name])
        for replica in fleet.replicas
    ]
    router = resolve_policy(policy)
    router.reset(len(states))
    # distinct stream from the arrival-generation rng: sampling policies
    # must not replay the bits that produced the inter-arrival gaps
    rng = np.random.default_rng([seed, 0x617])

    for now, phase in zip(times.tolist(), phase_ids.tolist()):
        for state in states:
            if state.due < now:
                state.advance(now)
        states[router.select(states, now, rng)].enqueue(now, phase)
    for state in states:
        state.advance(math.inf)
    return states, router


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
    states, router = _route_stream(
        fleet, latency_models, arrivals, phase_ids,
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
        replicas=[s.to_block(("all",)) for s in states],
    )
    report = fold_fleet_report(run)
    emit_run(sink, run)
    return report


def _simulate_fleet_stream_run(
    fleet: FleetSpec,
    latency_models: Mapping[str, LatencyModel],
    stream,
    *,
    policy: str | RoutingPolicy = "jsq",
    sla_ms: float | None = None,
    seed: int = 0,
    phase_hit_rates: Sequence[float] | None = None,
    tenant: str | None = None,
) -> tuple[FleetReport, FleetRun]:
    """Route one scenario stream; package (report, run record)."""
    times, phase_ids = check_stream(stream)
    states, router = _route_stream(
        fleet, latency_models, times, phase_ids, policy=policy, seed=seed,
    )
    phases = tuple(stream.phases)
    meta = {
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
    }
    if tenant is not None:
        meta["tenant"] = tenant
    run = FleetRun(
        meta=meta,
        arrivals=ArrivalBlock(
            times=times,
            phase_ids=np.asarray(phase_ids, dtype=np.int64),
            phases=phases,
        ),
        replicas=[s.to_block(phases) for s in states],
    )
    return fold_fleet_report(run), run


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
    threaded into the per-phase breakdown.  The run's telemetry goes to
    ``sink`` (or the ambient default).
    """
    report, run = _simulate_fleet_stream_run(
        fleet, latency_models, stream, policy=policy, sla_ms=sla_ms,
        seed=seed, phase_hit_rates=phase_hit_rates,
    )
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
    use (omitted: all of them).  A single tenant assigned the whole
    fleet is served by :func:`simulate_fleet_stream` verbatim —
    field-identical to calling it directly.  Each tenant's run record
    is emitted to ``sink`` (or the ambient default) with
    ``meta["tenant"]`` set.
    """
    missing = sorted(set(streams) - set(latency_models))
    if missing:
        raise KeyError(f"no latency models for tenants {missing}")
    reports: dict[str, FleetReport] = {}
    for name in streams:
        sla = (
            sla_ms.get(name) if isinstance(sla_ms, Mapping) else sla_ms
        )
        reports[name], run = _simulate_fleet_stream_run(
            tenant_fleet(fleet, assignments, name),
            latency_models[name], streams[name],
            policy=policy, sla_ms=sla, seed=seed, tenant=name,
        )
        emit_run(sink, run)
    return reports
