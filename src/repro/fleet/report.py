"""Fleet-level serving reports: tails, balance, cost-normalized throughput.

A :class:`FleetReport` aggregates the per-replica
:class:`~repro.core.serving.ServingReport`s of one routed simulation
into the numbers a capacity planner reads: fleet-wide p50/p95/p99 over
*all* queries (not a mean of per-replica tails — tail latency does not
average), utilization balance across replicas, and throughput
normalized by GPU count and by cost.  Scenario runs additionally carry
a per-phase breakdown (p50/p99/goodput per scenario phase) so routing
policies can be judged inside the burst, not just on the run average.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.serving import (
    PhaseStats,
    ReportSlaMixin,
    ServingReport,
    build_serving_report,
    find_phase,
    latency_tails,
    phase_breakdown,
)
from repro.telemetry.events import FleetRun

__all__ = [
    "FleetReport",
    "build_fleet_report",
    "fold_fleet_report",
    "phase_breakdown",  # re-export: shared with core.serving
]


@dataclass(frozen=True)
class FleetReport(ReportSlaMixin):
    """One fleet simulation: global latency tails + per-replica detail."""

    fleet_name: str
    policy: str
    qps: float
    n_queries: int
    p50_ms: float
    p95_ms: float
    p99_ms: float
    replica_reports: tuple[ServingReport, ...]
    cost_units: float
    sla_ms: float | None = None
    goodput_qps: float = 0.0
    sla_hit_pct: float = 100.0
    phases: tuple[PhaseStats, ...] = ()

    def phase(self, name: str) -> PhaseStats:
        return find_phase(self.phases, name)

    @property
    def n_replicas(self) -> int:
        return len(self.replica_reports)

    @property
    def qps_per_gpu(self) -> float:
        """Offered load divided by replica count."""
        return self.qps / self.n_replicas

    @property
    def qps_per_cost_unit(self) -> float:
        """Cost-normalized throughput (A100-equivalents in the divisor)."""
        return self.qps / self.cost_units if self.cost_units else 0.0

    @property
    def mean_utilization(self) -> float:
        return float(
            np.mean([r.gpu_utilization for r in self.replica_reports])
        )

    @property
    def utilization_balance(self) -> float:
        """max / mean replica utilization (1.0 = perfectly balanced)."""
        utils = [r.gpu_utilization for r in self.replica_reports]
        mean = float(np.mean(utils))
        return float(max(utils) / mean) if mean > 0 else 1.0

    @property
    def routed_fractions(self) -> dict[str, float]:
        """Share of the query stream each replica served."""
        total = sum(r.n_queries for r in self.replica_reports)
        if total == 0:
            return {r.scheme_name: 0.0 for r in self.replica_reports}
        return {
            r.scheme_name: r.n_queries / total for r in self.replica_reports
        }


def build_fleet_report(
    fleet_name: str,
    policy: str,
    qps: float,
    latencies_ms: np.ndarray,
    replica_reports: tuple[ServingReport, ...],
    cost_units: float,
    *,
    sla_ms: float | None = None,
    duration_s: float | None = None,
    phases: tuple[PhaseStats, ...] = (),
) -> FleetReport:
    """Assemble a :class:`FleetReport` from routed per-query latencies."""
    if len(latencies_ms) == 0:
        raise ValueError("fleet simulation produced no queries")
    n = int(len(latencies_ms))
    within = (
        int(np.count_nonzero(latencies_ms <= sla_ms))
        if sla_ms is not None else n
    )
    p50, p95, p99 = latency_tails(latencies_ms)
    return FleetReport(
        fleet_name=fleet_name,
        policy=policy,
        qps=qps,
        n_queries=n,
        p50_ms=p50,
        p95_ms=p95,
        p99_ms=p99,
        replica_reports=replica_reports,
        cost_units=cost_units,
        sla_ms=sla_ms,
        goodput_qps=within / duration_s if duration_s else 0.0,
        sla_hit_pct=100.0 * within / n,
        phases=phases,
    )


def fold_fleet_report(run: FleetRun) -> FleetReport:
    """Pure fold: a recorded :class:`FleetRun` into its report.

    Shared by the live routed simulators and the replay decoder —
    the latencies concatenate per replica in the run's replica order,
    each replica's batches in dispatch order, members in queue-pop
    order, exactly as the live simulation accumulated them, so the
    fleet-wide percentiles match bit for bit.  Each replica's row is
    :func:`~repro.core.serving.build_serving_report` under the replica's
    name, and both run kinds make one :func:`build_fleet_report` call:
    a Poisson run (``kind="fleet"``) with its offered qps and no SLA,
    duration or phases.
    """
    meta = run.meta
    times = run.arrivals.times
    blocks = run.replicas
    horizon = max(
        float(times[-1]),
        max(
            (float(b.done[-1]) if len(b) else 0.0) for b in blocks
        ),
    )
    lat_parts = []
    phase_parts = []
    for b in blocks:
        member_times, member_phases = b.members()
        done_at = np.repeat(b.done, b.sizes)
        lat_parts.append(1e3 * (done_at - member_times))
        phase_parts.append(np.asarray(member_phases, dtype=np.int64))
    # a replica row's scheme_name is the replica: fleet consumers
    # (routed_fractions, per-replica tables) identify rows by replica,
    # and the kernel scheme lives on ReplicaSpec.scheme
    replica_reports = tuple(
        build_serving_report(
            b.replica or "replica",
            len(lat_ms) / horizon if horizon > 0 else 0.0,
            b, lat_ms, horizon,
        )
        for b, lat_ms in zip(blocks, lat_parts)
    )
    all_latencies_ms = np.concatenate(lat_parts)
    sla_ms = meta.get("sla_ms")
    duration_s = meta.get("duration_s")
    if meta["kind"] == "fleet_stream":
        qps = len(times) / duration_s if duration_s else 0.0
        phases = phase_breakdown(
            all_latencies_ms, np.concatenate(phase_parts),
            tuple(meta["phases"]), tuple(meta["phase_durations"]),
            sla_ms, phase_hit_rates=meta.get("phase_hit_rates"),
        )
    else:
        qps, phases = meta["qps"], ()
    return build_fleet_report(
        fleet_name=meta["fleet"],
        policy=meta["policy"],
        qps=qps,
        latencies_ms=all_latencies_ms,
        replica_reports=replica_reports,
        cost_units=meta["cost_units"],
        sla_ms=sla_ms,
        duration_s=duration_s,
        phases=phases,
    )
