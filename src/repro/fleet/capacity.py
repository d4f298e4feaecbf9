"""Fleet-wide capacity planning: sustainable QPS, replicas-needed, autoscaling.

Three planner questions, answered on the routed fleet simulator:

1. *How much can this fleet take?* — :func:`fleet_max_sustainable_qps`
   scans a QPS grid and bisects the feasibility boundary for the
   largest load whose fleet-wide tail latency meets the SLA.
2. *How many replicas do I need for X QPS?* — :func:`replicas_needed`
   grows a fleet one replica at a time until the SLA holds.
3. *What does the scaling curve look like?* — :func:`autoscaler_sweep`
   runs (2) over a load grid, the table a horizontal autoscaler is
   configured from.

Calibration helpers turn the kernel-level simulator into the per-replica
batch-latency curves the router consumes: one expensive sweep per
(GPU, scheme), reused across every load point.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.config.gpu import GpuSpec
from repro.config.model import PAPER_MODEL, DLRMConfig
from repro.config.scale import SimScale
from repro.core.pipeline import run_inference
from repro.core.schemes import Scheme
from repro.core.curve import MAX_BATCH, LatencyCurve, as_curve
from repro.core.serving import (
    LatencyModel,
    interpolated_latency_model,
    resolve_percentile_field,
)
from repro.dlrm.timing import non_embedding_time
from repro.gpusim.memo import KernelMemo
from repro.fleet.report import FleetReport
from repro.fleet.router import RoutingPolicy, simulate_fleet
from repro.fleet.topology import FleetSpec

#: Per-replica QPS grid, scaled by fleet size for the default fleet grid.
_PER_REPLICA_GRID = (500, 1000, 2000, 4000, 8000, 16000, 32000, 64000)


def _simulate_capped(
    fleet: FleetSpec,
    latency_models: Mapping[str, LatencyModel],
    *,
    qps: float,
    duration_s: float,
    policy: str | RoutingPolicy,
    seed: int,
    max_queries: int,
) -> FleetReport:
    """One load point, with the simulated horizon capped in queries.

    Planner sweeps visit very different load magnitudes; capping the
    query count keeps per-point cost flat while leaving enough tail
    samples (p99 of 60k queries = 600 tail events) for a stable verdict.
    """
    duration = min(duration_s, max_queries / qps)
    return simulate_fleet(
        fleet, latency_models, qps=qps, duration_s=duration,
        policy=policy, seed=seed,
    )


# ----------------------------------------------------------------------
# calibration: kernel simulator -> batch-latency curves
# ----------------------------------------------------------------------
def calibrated_latency_model(
    gpu: GpuSpec,
    scheme: Scheme,
    *,
    dataset: str = "med_hot",
    batch_sizes: Sequence[int] = (512, 1024, 2048),
    model: DLRMConfig = PAPER_MODEL,
    num_sms: int = 2,
    seed: int = 0,
    memo: KernelMemo | None = None,
) -> LatencyCurve:
    """Batch-latency curve from full pipeline simulations.

    Runs the end-to-end inference simulation at each calibration batch
    size and interpolates between the points — one sweep per
    (GPU, scheme) serves every routing/load experiment.  The underlying
    kernel simulations flow through the kernel memo (the process
    default, or ``memo``), so repeated calibrations — across planner
    sweeps, autoscaler steps, or whole runs when the disk store is
    enabled — cost almost nothing.
    """
    points = []
    for batch in batch_sizes:
        batch_model = replace(model, batch_size=batch)
        scale = SimScale(name=f"fleet{num_sms}", num_sms=num_sms)
        result = run_inference(
            dataset, scheme, gpu=gpu, model=batch_model, scale=scale,
            seed=seed, memo=memo,
        )
        points.append(result.batch_latency_ms)
    return interpolated_latency_model(batch_sizes, points)


def tiered_latency_model(
    base_model: LatencyModel,
    *,
    host_us_per_query: float,
) -> LatencyModel:
    """A batch-latency curve plus the host-tier fetch cost.

    ``host_us_per_query`` comes from a memstore calibration — e.g. a
    :class:`~repro.fleet.placement.TieredShard`'s per-query host time,
    or a :class:`~repro.memstore.store.TierStats` divided by its batch.
    HBM-miss traffic is bandwidth-bound and per-batch link latency is
    second-order, so the penalty scales linearly in batch size — the
    same shape assumption :func:`linear_latency_model` makes for the
    embedding stage itself (:meth:`LatencyCurve.plus_per_query`).  A
    fully-resident plan has ``host_us_per_query == 0`` and returns the
    base curve unchanged; a plain callable base is tabulated first.
    """
    if host_us_per_query == 0:
        return base_model
    return as_curve(base_model).plus_per_query(host_us_per_query)


def tiered_fleet_models(
    latency_models: Mapping[str, LatencyModel],
    placement,
) -> dict[str, LatencyModel]:
    """Apply a :class:`~repro.fleet.placement.TieredPlacement`'s host
    penalties to per-GPU batch-latency curves.

    Each GPU name's curve is wrapped with the worst per-query host time
    of the shards it hosts (conservative when one GPU type holds
    several shards); GPUs without shards pass through unchanged, and a
    shard whose GPU has no curve raises — the host penalty must never
    silently drop out of an over-HBM simulation.  The result feeds any
    planner or router entry point unchanged — this is how an over-HBM
    model still yields end-to-end p99/goodput numbers.
    """
    worst: dict[str, float] = {}
    for shard in placement.shards:
        worst[shard.gpu_name] = max(
            worst.get(shard.gpu_name, 0.0), shard.host_us_per_query
        )
    missing = sorted(set(worst) - set(latency_models))
    if missing:
        raise KeyError(
            f"no latency model for placed GPUs {missing}; "
            f"known: {sorted(latency_models)}"
        )
    out = dict(latency_models)
    for name, host in worst.items():
        out[name] = tiered_latency_model(out[name], host_us_per_query=host)
    return out


def linear_latency_model(
    gpu: GpuSpec,
    *,
    emb_us: float,
    emb_batch: int,
    model: DLRMConfig = PAPER_MODEL,
) -> LatencyCurve:
    """Batch-latency curve from a single calibrated embedding point.

    The embedding stage is bandwidth-bound and scales ~linearly in batch
    size; the dense stages come from the roofline at each batch size.
    Cheaper than :func:`calibrated_latency_model` when a harness context
    already holds the embedding-stage time at one batch size.  The whole
    table is one vectorized roofline evaluation over every batch size.
    """
    if emb_batch < 1:
        raise ValueError("emb_batch must be >= 1")
    batch = np.arange(MAX_BATCH + 1)
    emb = emb_us * batch / emb_batch
    non_emb = non_embedding_time(gpu, model, batch_size=batch).total_us
    return LatencyCurve(
        (emb + non_emb) / 1e3,
        f"linear({gpu.name}, {emb_us:g}us@{emb_batch})",
    )


# ----------------------------------------------------------------------
# planner queries
# ----------------------------------------------------------------------
def fleet_max_sustainable_qps(
    fleet: FleetSpec,
    latency_models: Mapping[str, LatencyModel],
    *,
    sla_ms: float,
    percentile: str = "p99",
    qps_grid: Sequence[float] | None = None,
    policy: str | RoutingPolicy = "jsq",
    duration_s: float = 3.0,
    refine_iters: int = 4,
    max_queries: int = 60_000,
    seed: int = 0,
) -> tuple[float, list[FleetReport]]:
    """Largest sustained QPS whose fleet tail latency meets the SLA.

    Scans ``qps_grid`` (default: the per-replica grid scaled by fleet
    size), then bisects between the best passing and first failing grid
    points ``refine_iters`` times to sharpen the boundary.
    """
    resolve_percentile_field(sla_ms, percentile)
    if qps_grid is None:
        qps_grid = [q * fleet.n_replicas for q in _PER_REPLICA_GRID]
    reports = []
    best = 0.0
    worst_fail = float("inf")
    for qps in qps_grid:
        report = _simulate_capped(
            fleet, latency_models, qps=qps, duration_s=duration_s,
            policy=policy, seed=seed, max_queries=max_queries,
        )
        reports.append(report)
        if report.meets_sla(sla_ms, percentile):
            best = max(best, qps)
        else:
            worst_fail = min(worst_fail, qps)
    for _ in range(refine_iters):
        if not best or worst_fail <= best:
            break
        mid = (best + min(worst_fail, 2 * best)) / 2
        report = _simulate_capped(
            fleet, latency_models, qps=mid, duration_s=duration_s,
            policy=policy, seed=seed, max_queries=max_queries,
        )
        reports.append(report)
        if report.meets_sla(sla_ms, percentile):
            best = mid
        else:
            worst_fail = mid
    return best, reports


def replicas_needed(
    make_fleet: Callable[[int], FleetSpec],
    latency_models: Mapping[str, LatencyModel],
    *,
    qps: float,
    sla_ms: float,
    percentile: str = "p99",
    policy: str | RoutingPolicy = "jsq",
    duration_s: float = 3.0,
    max_replicas: int = 16,
    max_queries: int = 60_000,
    seed: int = 0,
) -> int | None:
    """Smallest replica count meeting the SLA at ``qps`` (None if > max).

    ``make_fleet(n)`` builds the candidate fleet at size ``n`` — e.g.
    ``lambda n: FleetSpec.homogeneous(A100_SXM4_80GB, n, scheme=...)``.
    """
    resolve_percentile_field(sla_ms, percentile)
    for n in range(1, max_replicas + 1):
        report = _simulate_capped(
            make_fleet(n), latency_models, qps=qps,
            duration_s=duration_s, policy=policy, seed=seed,
            max_queries=max_queries,
        )
        if report.meets_sla(sla_ms, percentile):
            return n
    return None


def autoscaler_sweep(
    make_fleet: Callable[[int], FleetSpec],
    latency_models: Mapping[str, LatencyModel],
    *,
    qps_grid: Sequence[float],
    sla_ms: float,
    percentile: str = "p99",
    policy: str | RoutingPolicy = "jsq",
    duration_s: float = 3.0,
    max_replicas: int = 16,
    max_queries: int = 60_000,
    seed: int = 0,
) -> list[tuple[float, int | None]]:
    """Replicas needed at each load point — the autoscaler's lookup table.

    Monotone in load, so the search at each grid point starts from the
    previous answer rather than from one replica.
    """
    resolve_percentile_field(sla_ms, percentile)
    table: list[tuple[float, int | None]] = []
    floor = 1
    for qps in sorted(qps_grid):
        found = None
        for n in range(floor, max_replicas + 1):
            report = _simulate_capped(
                make_fleet(n), latency_models, qps=qps,
                duration_s=duration_s, policy=policy, seed=seed,
                max_queries=max_queries,
            )
            if report.meets_sla(sla_ms, percentile):
                found = n
                break
        table.append((qps, found))
        floor = found if found is not None else max_replicas
    return table
