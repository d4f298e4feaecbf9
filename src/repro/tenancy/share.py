"""MPS-style concurrent GPU sharing: the interference model.

Co-resident tenants do not time-slice the GPU — under MPS/MIG-style
concurrency their kernels execute simultaneously and contend for the
two resources that gate a DLRM inference kernel: SM issue slots and
HBM bandwidth (the paper's whole characterization is that embedding
kernels live on the memory roofline).  This module models that
contention with a calibrated *interference function*:

    effective latency = solo latency x contention factor

where the factor for tenant *i* is the worst oversubscription across
the shared resources::

    factor_i = max(1, sm_i + sum_j sm_j * load_j,
                      hbm_i + sum_j hbm_j * load_j)   (j != i)

Each tenant's resource demand (:class:`ShareDemand`) comes from its
*solo* kernel profile on the memoized kernel simulator — SM throughput
and HBM-bandwidth utilization are exactly the NCU-style counters the
simulator already reports — and each co-runner's demand is weighted by
its duty cycle (``load``: the fraction of wall time it is actually
executing, measured from its solo serving run).  The shape gives the
three properties the property suite pins: the factor is always
``>= 1.0``, *exactly* ``1.0`` when solo (demands are fractions of the
device, so one tenant alone never oversubscribes), and monotone
non-decreasing in every co-runner's load.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.config.gpu import A100_SXM4_80GB, GpuSpec
from repro.config.scale import SimScale
from repro.core.embedding import kernel_workload, run_table_kernel
from repro.core.curve import LatencyCurve, as_curve
from repro.core.serving import (
    BatchingPolicy,
    ContinuousBatching,
    LatencyModel,
    StreamReport,
    _default_policy,
    _resolve_phase_models,
    fold_stream_report,
    serve_tenant_streams,
)
from repro.datasets.spec import HOTNESS_PRESETS
from repro.dlrm.timing import KERNEL_LAUNCH_US
from repro.fleet.capacity import linear_latency_model
from repro.fleet.report import FleetReport, fold_fleet_report
from repro.fleet.router import (
    resolve_latency_models,
    simulate_fleet_tenant_streams,
    tenant_fleet,
)
from repro.fleet.topology import FleetSpec
from repro.gpusim.memo import KernelMemo
from repro.memstore.store import HostLink
from repro.telemetry.events import GroupRun
from repro.telemetry.sinks import CaptureSink, Sink, emit_run
from repro.tenancy.zoo import TenantSpec, ZooSpec
from repro.traffic.scenario import ScenarioTrace


@dataclass(frozen=True)
class ShareDemand:
    """One tenant's solo demand on the GPU's shared resources.

    Both demands are fractions of the whole device in ``[0, 1]`` —
    the normalization that makes "exactly 1.0 when solo" structural
    rather than calibrated.
    """

    sm_fraction: float
    hbm_fraction: float

    def __post_init__(self) -> None:
        for label, value in (
            ("sm_fraction", self.sm_fraction),
            ("hbm_fraction", self.hbm_fraction),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{label} must be in [0, 1], got {value}")


def contention_factor(
    own: ShareDemand,
    co_runners: Sequence[tuple[ShareDemand, float]],
) -> float:
    """Latency multiplier for one tenant given its co-runners.

    ``co_runners`` pairs each co-resident tenant's demand with its
    load (duty cycle in ``[0, 1]``).  The factor is the worst
    oversubscription across SM issue and HBM bandwidth: below device
    saturation concurrent kernels coexist for free (factor exactly
    1.0); past it, service rates scale down proportionally.
    """
    sm = own.sm_fraction
    hbm = own.hbm_fraction
    for demand, load in co_runners:
        if not 0.0 <= load <= 1.0:
            raise ValueError(f"co-runner load must be in [0, 1], got {load}")
        sm += demand.sm_fraction * load
        hbm += demand.hbm_fraction * load
    return max(1.0, sm, hbm)


def zoo_contention(
    demands: Mapping[str, ShareDemand],
    loads: Mapping[str, float],
) -> dict[str, float]:
    """Per-tenant contention factors for one co-resident group."""
    missing = sorted(set(demands) - set(loads))
    if missing:
        raise KeyError(f"no load for tenants {missing}")
    return {
        name: contention_factor(
            demands[name],
            [(demands[other], loads[other])
             for other in demands if other != name],
        )
        for name in demands
    }


# ----------------------------------------------------------------------
# calibration off the memoized kernel simulator
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TenantCalibration:
    """One tenant's solo numbers on one GPU: curve + demand + stage time."""

    tenant: str
    gpu_name: str
    demand: ShareDemand
    embedding_stage_us: float
    latency_ms: LatencyCurve = field(repr=False, compare=False)


def calibrate_tenant(
    tenant: TenantSpec,
    gpu: GpuSpec = A100_SXM4_80GB,
    *,
    num_sms: int = 2,
    seed: int = 0,
    memo: KernelMemo | None = None,
) -> TenantCalibration:
    """Solo calibration: batch-latency curve and shared-resource demand.

    One memoized kernel run per (tenant model, dataset, scheme, GPU):
    the embedding-stage time anchors a linear batch-latency curve
    (embedding is bandwidth-bound, dense stages from the roofline) and
    the profile's NCU-style counters — SM throughput and average HBM
    bandwidth utilization — become the tenant's :class:`ShareDemand`.
    """
    scale = SimScale(name=f"tenancy{num_sms}", num_sms=num_sms)
    workload = kernel_workload(gpu, tenant.model, scale)
    result = run_table_kernel(
        workload, HOTNESS_PRESETS[tenant.dataset], tenant.scheme,
        seed=seed, memo=memo,
    )
    emb_us = tenant.model.num_tables * (
        result.kernel_time_us + KERNEL_LAUNCH_US
    )
    profile = result.profile
    demand = ShareDemand(
        sm_fraction=min(1.0, max(0.0, profile.sm_throughput_pct / 100.0)),
        hbm_fraction=min(1.0, max(0.0, profile.hbm_bw_util_pct / 100.0)),
    )
    return TenantCalibration(
        tenant=tenant.name,
        gpu_name=gpu.name,
        demand=demand,
        embedding_stage_us=emb_us,
        latency_ms=linear_latency_model(
            gpu,
            emb_us=emb_us,
            emb_batch=tenant.model.batch_size,
            model=tenant.model,
        ),
    )


def calibrate_zoo(
    zoo: ZooSpec,
    gpus: Sequence[GpuSpec] = (A100_SXM4_80GB,),
    *,
    num_sms: int = 2,
    seed: int = 0,
    memo: KernelMemo | None = None,
) -> dict[str, dict[str, TenantCalibration]]:
    """``calibrations[gpu_name][tenant]`` for every (GPU type, tenant)."""
    unique = {gpu.name: gpu for gpu in gpus}
    return {
        gpu_name: {
            tenant.name: calibrate_tenant(
                tenant, gpu, num_sms=num_sms, seed=seed, memo=memo,
            )
            for tenant in zoo.tenants
        }
        for gpu_name, gpu in unique.items()
    }


def zoo_effective_times(
    zoo: ZooSpec,
    gpus: Sequence[GpuSpec],
    *,
    hbm_utilization: float = 0.9,
    num_sms: int = 2,
    seed: int = 0,
    memo: KernelMemo | None = None,
) -> dict[str, dict[str, float]]:
    """Per-GPU-type tiered effective batch time for every tenant.

    The cost surface :func:`repro.fleet.placement.place_zoo` balances:
    each tenant's solo embedding-stage time on each GPU type, plus the
    host-fetch time its HBM share would cost there — priced at the
    fraction a whole zoo sharing that GPU's budget would leave it
    (the pre-placement estimate; the arbiter settles exact shares
    after placement, mirroring ``place_tables_tiered``'s two passes).
    """
    from repro.tenancy.arbiter import zoo_hit_curves

    if not 0.0 < hbm_utilization <= 1.0:
        raise ValueError("hbm_utilization must be in (0, 1]")
    times: dict[str, dict[str, float]] = {}
    for gpu in gpus:
        if gpu.name in times:
            continue
        calibrations = {
            tenant.name: calibrate_tenant(
                tenant, gpu, num_sms=num_sms, seed=seed, memo=memo,
            )
            for tenant in zoo.tenants
        }
        curves = zoo_hit_curves(zoo, gpu, num_sms=num_sms, seed=seed)
        budget = gpu.scaled_slice(num_sms).hbm_bytes * hbm_utilization
        total = sum(c.table_bytes for c in curves.values())
        fraction = min(1.0, budget / total) if total else 1.0
        # the sliced kernel preserves per-SM work, so the stage time
        # reads as the FULL-chip batch's — price host fetches to match:
        # per-query miss bytes (a scale-free ratio) x the full batch,
        # on the full-chip link
        link = HostLink.pcie(gpu)
        times[gpu.name] = {}
        for tenant in zoo.tenants:
            curve = curves[tenant.name]
            host_us = curve.host_us_per_query(
                int(fraction * curve.table_rows), link
            ) * tenant.model.batch_size
            times[gpu.name][tenant.name] = (
                calibrations[tenant.name].embedding_stage_us + host_us
            )
    return times


def shared_latency_model(
    solo: LatencyModel, factor: float
) -> LatencyModel:
    """The solo curve under contention: every entry times ``factor``
    (:meth:`LatencyCurve.scaled`).  A factor of exactly 1.0 returns the
    solo curve itself, so a degenerate one-tenant zoo is served by *the
    same object* — bit-identical results, not merely close ones."""
    if factor < 1.0:
        raise ValueError("contention factor must be >= 1.0")
    if factor == 1.0:
        return solo
    return as_curve(solo).scaled(factor)


# ----------------------------------------------------------------------
# zoo serving: one GPU, then the routed fleet
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ZooReport:
    """One zoo serving run: per-tenant reports + consolidation totals.

    ``aggregate_goodput_qps`` is the consolidation headline (queries
    served within each tenant's own SLA, per second, summed across
    tenants); ``contention`` and ``loads`` expose the interference
    calibration so erosion can be attributed.
    """

    zoo: str
    tenant_reports: dict[str, StreamReport]
    contention: dict[str, float]
    loads: dict[str, float]
    aggregate_goodput_qps: float
    aggregate_offered_qps: float
    sla_attainment_pct: float

    @property
    def n_tenants(self) -> int:
        return len(self.tenant_reports)

    def tenant(self, name: str) -> StreamReport:
        try:
            return self.tenant_reports[name]
        except KeyError:
            known = ", ".join(self.tenant_reports)
            raise KeyError(f"no tenant {name!r}; known: {known}") from None


def _aggregate(reports: Mapping[str, object]) -> tuple[float, float]:
    """(aggregate goodput, query-weighted SLA attainment %) over any
    per-tenant reports carrying goodput_qps / sla_hit_pct / n_queries."""
    goodput = sum(r.goodput_qps for r in reports.values())
    total = sum(r.n_queries for r in reports.values())
    within = sum(
        r.sla_hit_pct / 100.0 * r.n_queries for r in reports.values()
    )
    attainment = 100.0 * within / total if total else 100.0
    return goodput, attainment


def _tenant_runs(serve, *args, **kwargs) -> tuple[dict, dict]:
    """``serve(*args, **kwargs)``'s per-tenant reports, plus the run
    records it emitted, by tenant."""
    capture = CaptureSink()
    reports = serve(*args, sink=capture, **kwargs)
    return reports, {run.meta["tenant"]: run for run in capture.runs}


def _final_runs(solo_runs: dict, contended_runs: dict) -> dict:
    """Each tenant's final run, in serving order: its contended run if
    it was re-served, else its solo run."""
    return {
        name: contended_runs.get(name, run)
        for name, run in solo_runs.items()
    }


def fold_zoo_report(run: GroupRun) -> ZooReport:
    """Pure fold: a recorded zoo group run into its :class:`ZooReport`.

    The children are each tenant's *final* run (contended, or solo when
    its factor is exactly 1.0); the interference calibration travels in
    the group's meta, so replay needs neither pass re-run.
    """
    meta = run.meta
    reports = {
        name: fold_stream_report(child)
        for name, child in run.children.items()
    }
    goodput, attainment = _aggregate(reports)
    return ZooReport(
        zoo=meta["zoo"],
        tenant_reports=reports,
        contention=dict(meta["contention"]),
        loads=dict(meta["loads"]),
        aggregate_goodput_qps=goodput,
        aggregate_offered_qps=sum(
            r.offered_qps for r in reports.values()
        ),
        sla_attainment_pct=attainment,
    )


def _check_streams(
    zoo: ZooSpec, streams: Mapping[str, ScenarioTrace]
) -> None:
    """Given streams must name exactly the zoo's tenants."""
    missing = sorted(set(zoo.tenant_names) - set(streams))
    extra = sorted(set(streams) - set(zoo.tenant_names))
    if missing or extra:
        raise KeyError(
            f"streams must name exactly the zoo's tenants: "
            f"missing {missing}, extra {extra}"
        )


def simulate_zoo_serving(
    zoo: ZooSpec,
    latency_models: Mapping[str, object],
    *,
    demands: Mapping[str, ShareDemand] | None = None,
    streams: Mapping[str, ScenarioTrace] | None = None,
    policies: Mapping[
        str, BatchingPolicy | ContinuousBatching
    ] | None = None,
    phase_hit_rates: Mapping[str, Sequence[float]] | None = None,
    seed: int = 0,
    sink: Sink | None = None,
) -> ZooReport:
    """All tenants of a zoo sharing ONE GPU under MPS-style concurrency.

    ``latency_models`` maps each tenant to its *solo* batch-latency
    curve (or per-phase curves).  Serving runs in two passes: a solo
    pass measures each tenant's duty cycle (its GPU utilization when
    alone), then the interference function prices every tenant's
    contention factor off its co-runners' demands and measured loads,
    and the contended pass produces the per-tenant reports.  With
    ``demands`` omitted every tenant is assumed fully demanding
    (``ShareDemand(1, 1)``) — the conservative worst case.  Given
    ``streams`` must name exactly the zoo's tenants (``KeyError``).

    The contended pass re-serves only the tenants whose factor moved.
    A tenant whose factor is exactly 1.0 would be served through its
    solo tables (:meth:`LatencyCurve.scaled` returns the table itself),
    so its solo run stands as its contended run.  A one-tenant zoo has
    no co-runners and so is field-identical to calling
    :func:`repro.core.serving.serve_stream` directly.

    Telemetry: one :class:`~repro.telemetry.events.GroupRun` (meta
    ``kind="zoo"`` carrying loads and contention factors, children =
    the final per-tenant runs, in serving order) goes to ``sink`` or
    the ambient default.
    """
    missing = sorted(set(zoo.tenant_names) - set(latency_models))
    if missing:
        raise KeyError(f"no latency model for tenants {missing}")
    if streams is None:
        streams = zoo.streams(seed)
    else:
        _check_streams(zoo, streams)
    if demands is None:
        demands = {
            name: ShareDemand(1.0, 1.0) for name in zoo.tenant_names
        }
    slas = {t.name: t.sla_ms for t in zoo.tenants}
    scheme_names = {t.name: t.scheme.name for t in zoo.tenants}
    # each tenant's per-phase tables, resolved once for both passes
    seen: dict = {}
    curves = {
        name: _resolve_phase_models(
            latency_models[name], streams[name].phases,
            _default_policy(
                policies.get(name) if policies else None, slas.get(name)
            ).max_batch,
            seen,
        )
        for name in streams
    }

    solo, solo_runs = _tenant_runs(
        serve_tenant_streams, curves, streams,
        policies=policies, sla_ms=slas,
        scheme_names=scheme_names,
        phase_hit_rates=phase_hit_rates,
    )
    loads = {
        name: min(1.0, report.gpu_utilization)
        for name, report in solo.items()
    }
    factors = zoo_contention(
        {name: demands[name] for name in zoo.tenant_names}, loads
    )
    # scaled(1.0) is the solo table itself: a tenant at exactly 1.0 would
    # serve its solo run again, so only the others are re-served
    moved = [name for name in zoo.tenant_names if factors[name] != 1.0]
    _, contended_runs = _tenant_runs(
        serve_tenant_streams,
        {
            name: [curve.scaled(factors[name]) for curve in curves[name]]
            for name in moved
        },
        {name: streams[name] for name in moved},
        policies=policies, sla_ms=slas,
        scheme_names=scheme_names,
        phase_hit_rates=phase_hit_rates,
    )
    group = GroupRun(
        meta={
            "kind": "zoo",
            "zoo": zoo.name,
            "contention": dict(factors),
            "loads": dict(loads),
        },
        children=_final_runs(solo_runs, contended_runs),
    )
    report = fold_zoo_report(group)
    emit_run(sink, group)
    return report


@dataclass(frozen=True)
class ZooFleetReport:
    """A zoo served on a routed fleet: per-tenant fleet reports."""

    zoo: str
    fleet: str
    tenant_reports: dict[str, FleetReport]
    contention: dict[str, dict[str, float]]  # replica -> tenant -> factor
    aggregate_goodput_qps: float
    sla_attainment_pct: float

    def tenant(self, name: str) -> FleetReport:
        try:
            return self.tenant_reports[name]
        except KeyError:
            known = ", ".join(self.tenant_reports)
            raise KeyError(f"no tenant {name!r}; known: {known}") from None


def fold_zoo_fleet_report(run: GroupRun) -> ZooFleetReport:
    """Pure fold: a recorded zoo-fleet group run into its report."""
    meta = run.meta
    reports = {
        name: fold_fleet_report(child)
        for name, child in run.children.items()
    }
    goodput, attainment = _aggregate(reports)
    return ZooFleetReport(
        zoo=meta["zoo"],
        fleet=meta["fleet"],
        tenant_reports=reports,
        contention={
            replica: dict(per)
            for replica, per in meta["contention"].items()
        },
        aggregate_goodput_qps=goodput,
        sla_attainment_pct=attainment,
    )


def simulate_zoo_fleet(
    zoo: ZooSpec,
    fleet: FleetSpec,
    latency_models: Mapping[str, Mapping[str, LatencyModel]],
    *,
    assignments: Mapping[str, Sequence[str]] | None = None,
    demands: Mapping[str, ShareDemand] | None = None,
    streams: Mapping[str, ScenarioTrace] | None = None,
    policy: str = "jsq",
    seed: int = 0,
    sink: Sink | None = None,
) -> ZooFleetReport:
    """A zoo co-resident on a routed fleet, with per-replica contention.

    ``latency_models[tenant]`` maps replica (or GPU) names to that
    tenant's solo curve; ``assignments`` restricts each tenant to a
    replica subset (e.g. from :func:`repro.fleet.placement.place_zoo`) —
    omitted, every tenant runs on every replica.  As in the single-GPU
    path, a solo routing pass measures per-replica duty cycles, the
    interference function prices a contention factor per (replica,
    tenant) from the co-residents *on that replica*, and the contended
    pass yields per-tenant :class:`~repro.fleet.report.FleetReport`s.
    Given ``streams`` must name exactly the zoo's tenants (``KeyError``).

    The contended pass re-routes only the tenants whose factor moved on
    some replica they serve; one at exactly 1.0 everywhere keeps its
    solo run (each tenant's router draws its own stream, so routing a
    subset changes no other tenant's run).  A one-tenant zoo is
    field-identical to :func:`repro.fleet.router.simulate_fleet_stream`
    on the same stream: no co-residents means every factor is exactly
    1.0 and nothing is re-routed.
    """
    missing = sorted(set(zoo.tenant_names) - set(latency_models))
    if missing:
        raise KeyError(f"no latency models for tenants {missing}")
    if streams is None:
        streams = zoo.streams(seed)
    else:
        _check_streams(zoo, streams)
    if demands is None:
        demands = {
            name: ShareDemand(1.0, 1.0) for name in zoo.tenant_names
        }
    slas = {t.name: t.sla_ms for t in zoo.tenants}
    # each tenant's table per replica it may use, resolved once for both
    # passes
    seen: dict = {}
    curves = {
        name: resolve_latency_models(
            tenant_fleet(fleet, assignments, name),
            latency_models[name], seen,
        )
        for name in zoo.tenant_names
    }

    solo, solo_runs = _tenant_runs(
        simulate_fleet_tenant_streams, fleet, curves, streams,
        assignments=assignments, policy=policy,
        sla_ms=slas, seed=seed,
    )
    # who shares each replica, and how hard they drive it when alone
    replica_tenants: dict[str, list[str]] = {}
    replica_loads: dict[str, dict[str, float]] = {}
    for name, report in solo.items():
        for replica in report.replica_reports:
            replica_tenants.setdefault(replica.scheme_name, []).append(name)
            replica_loads.setdefault(replica.scheme_name, {})[name] = min(
                1.0, replica.gpu_utilization
            )
    contention: dict[str, dict[str, float]] = {
        replica: zoo_contention(
            {name: demands[name] for name in tenants},
            replica_loads[replica],
        )
        for replica, tenants in replica_tenants.items()
    }
    # a tenant's factor on each replica it serves; solo replicas stay 1.0
    factors = {
        name: {
            replica: contention[replica][name]
            for replica in contention if name in contention[replica]
        }
        for name in zoo.tenant_names
    }
    # as on one GPU: a tenant at exactly 1.0 on every replica it serves
    # would route its solo run again
    moved = [
        name for name in zoo.tenant_names
        if any(f != 1.0 for f in factors[name].values())
    ]
    _, contended_runs = _tenant_runs(
        simulate_fleet_tenant_streams, fleet,
        {
            name: {
                replica: curve.scaled(factors[name].get(replica, 1.0))
                for replica, curve in curves[name].items()
            }
            for name in moved
        },
        {name: streams[name] for name in moved},
        assignments=assignments, policy=policy,
        sla_ms=slas, seed=seed,
    )
    group = GroupRun(
        meta={
            "kind": "zoo_fleet",
            "zoo": zoo.name,
            "fleet": fleet.name,
            "contention": {
                replica: dict(per)
                for replica, per in contention.items()
            },
        },
        children=_final_runs(solo_runs, contended_runs),
    )
    report = fold_zoo_fleet_report(group)
    emit_run(sink, group)
    return report
