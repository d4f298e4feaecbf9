"""Serve scenario streams: single GPU and routed fleet entry points.

This is the orchestration layer between :mod:`repro.traffic.scenario`
(what arrives when) and the serving engines (what happens to it): one
call generates a seeded stream and plays it against the
continuous-batching event loop in :mod:`repro.core.serving` or the
routed fleet simulator in :mod:`repro.fleet.router`.

It also owns the drift-scenario calibration: a :class:`DriftSpec`
changes the *workload* under the server, not the arrivals, so its
phases need one batch-latency curve each.  :func:`memstore_drift_profile`
is the one calibration loop (re-using :class:`repro.core.drift.DriftModel`
and the memoized kernel simulator): the table sits behind an HBM⇄host
embedding store, and each phase yields both a latency factor (kernel +
host-fetch time) and the cache's hit rate — optionally under a periodic
cache-refresh policy, so reports show hit-rate decay and recovery.
:func:`drift_phase_factors` is its untiered view, every row resident:
how much the kernel alone slows down as popularity drifts away from the
pinned working set.  :func:`scaled_latency_models` turns a base curve
plus factors into the per-phase models the serving layer accepts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.config.gpu import A100_SXM4_80GB, GpuSpec
from repro.config.model import PAPER_MODEL, DLRMConfig
from repro.config.scale import SimScale
from repro.core.drift import DriftModel
from repro.core.embedding import kernel_workload, run_table_kernel
from repro.core.curve import LatencyCurve, as_curve
from repro.core.schemes import L2P_OPTMT, Scheme
from repro.core.serving import (
    BatchingPolicy,
    ContinuousBatching,
    LatencyModel,
    StreamReport,
    serve_stream,
)
from repro.datasets.generator import generate_trace
from repro.datasets.spec import HOTNESS_PRESETS
from repro.fleet.report import FleetReport
from repro.fleet.router import RoutingPolicy, simulate_fleet_stream
from repro.fleet.topology import FleetSpec
from repro.kernels.pinning import pinnable_rows
from repro.memstore.policy import popular_rows
from repro.memstore.store import EmbeddingStore, HostLink, TierPlan
from repro.traffic.scenario import (
    DriftSpec,
    ScenarioSpec,
    ScenarioTrace,
    generate_arrivals,
)


def simulate_scenario_serving(
    spec: ScenarioSpec | ScenarioTrace,
    latency_ms: LatencyModel | Sequence[LatencyModel]
                | Mapping[str, LatencyModel],
    *,
    policy: BatchingPolicy | ContinuousBatching | None = None,
    sla_ms: float | None = None,
    scheme_name: str = "scheme",
    seed: int = 0,
    phase_hit_rates: Sequence[float] | None = None,
) -> StreamReport:
    """One GPU serving one scenario; per-phase p50/p99/goodput.

    ``spec`` may be a scenario (sampled here with ``seed``) or an
    already-generated :class:`ScenarioTrace` when several policies
    should face the *identical* stream.  ``phase_hit_rates`` (e.g. from
    :func:`memstore_drift_profile`) lands in the per-phase stats.
    """
    trace = (
        spec if isinstance(spec, ScenarioTrace)
        else generate_arrivals(spec, seed)
    )
    return serve_stream(
        latency_ms, trace, policy=policy, sla_ms=sla_ms,
        scheme_name=scheme_name, phase_hit_rates=phase_hit_rates,
    )


def simulate_fleet_scenario(
    fleet: FleetSpec,
    latency_models: Mapping[str, LatencyModel],
    spec: ScenarioSpec | ScenarioTrace,
    *,
    policy: str | RoutingPolicy = "jsq",
    sla_ms: float | None = None,
    seed: int = 0,
    phase_hit_rates: Sequence[float] | None = None,
) -> FleetReport:
    """A routed fleet serving one scenario; per-phase fleet breakdown.

    The routing ``seed`` also seeds the arrival stream when ``spec`` is
    a scenario, so a (fleet, policy, seed) triple is fully reproducible.
    """
    trace = (
        spec if isinstance(spec, ScenarioTrace)
        else generate_arrivals(spec, seed)
    )
    return simulate_fleet_stream(
        fleet, latency_models, trace, policy=policy, sla_ms=sla_ms,
        seed=seed, phase_hit_rates=phase_hit_rates,
    )


def drift_phase_factors(
    spec: DriftSpec,
    *,
    dataset: str = "med_hot",
    scheme: Scheme = L2P_OPTMT,
    gpu: GpuSpec = A100_SXM4_80GB,
    model: DLRMConfig = PAPER_MODEL,
    num_sms: int = 2,
    seed: int = 0,
) -> tuple[float, ...]:
    """Kernel-time degradation per drift phase, relative to phase 0.

    Mirrors the paper's Section IV-C concern: rows are pinned once
    against the phase-0 popularity profile, then the access pattern
    drifts away from the pinned set phase by phase and the kernel slows
    down.  This is :func:`memstore_drift_profile`'s factors with every
    row resident in HBM, where the host tier costs nothing.  Factors
    are measured on the (memoized) kernel simulator, so repeated
    calibrations are nearly free.
    """
    return memstore_drift_profile(
        spec, dataset=dataset, scheme=scheme, gpu=gpu, model=model,
        hbm_fraction=1.0, num_sms=num_sms, seed=seed,
    ).factors


def scaled_latency_models(
    base_model: LatencyModel, factors: Sequence[float]
) -> list[LatencyCurve]:
    """One latency curve per phase: the base curve scaled per factor
    (:meth:`LatencyCurve.scaled`; a plain callable is tabulated once)."""
    base = as_curve(base_model)
    return [base.scaled(float(f)) for f in factors]


@dataclass(frozen=True)
class MemstoreDriftProfile:
    """Per-phase tiered-serving calibration under popularity drift.

    ``factors`` multiply the phase-0 batch latency (kernel time *plus*
    host-fetch time, so misses show up in the tail); ``hit_rates`` are
    the HBM-cache hit rates the serving reports thread through
    per-phase; ``refreshed`` marks phases where the cache-refresh
    policy re-warmed the hot set.
    """

    factors: tuple[float, ...]
    hit_rates: tuple[float, ...]
    refreshed: tuple[bool, ...]


def memstore_drift_profile(
    spec: DriftSpec,
    *,
    dataset: str = "med_hot",
    scheme: Scheme = L2P_OPTMT,
    gpu: GpuSpec = A100_SXM4_80GB,
    model: DLRMConfig = PAPER_MODEL,
    hbm_fraction: float = 0.1,
    cache_policy: str = "static_hot",
    refresh_every: int | None = None,
    num_sms: int = 2,
    seed: int = 0,
) -> MemstoreDriftProfile:
    """Tiered drift calibration: latency factors + hit rates per phase.

    The table sits behind an HBM⇄host :class:`EmbeddingStore` holding
    ``hbm_fraction`` of its rows, warmed (and L2-pinned, if the scheme
    pins) against the phase-0 popularity profile.  As the access
    pattern drifts phase by phase, hits decay and host fetches grow.
    ``refresh_every=k`` re-warms the cache — and re-profiles the pinned
    rows — every ``k`` phases from the *previous* phase's pattern (the
    online view), which is what makes hit rate recover.
    """
    workload = kernel_workload(
        gpu, model, SimScale(name=f"memdrift{num_sms}", num_sms=num_sms)
    )
    dataset_spec = HOTNESS_PRESETS[dataset]
    base_trace = generate_trace(
        dataset_spec,
        batch_size=workload.batch_size,
        pooling_factor=workload.pooling_factor,
        table_rows=workload.table_rows,
        seed=seed,
    )
    k_pin = pinnable_rows(
        workload.gpu.l2_set_aside_bytes, workload.row_bytes
    ) if scheme.l2_pinning else 0
    pin_rows = popular_rows(base_trace, k_pin) if k_pin else None
    plan = TierPlan.from_fraction(
        workload.table_rows, workload.row_bytes, hbm_fraction,
        policy=cache_policy,
    )
    link = HostLink.pcie(workload.full_gpu).scaled(workload.factor)
    store = EmbeddingStore(
        plan, link, hot_rows=popular_rows(base_trace, plan.resident_rows)
    )
    drift = DriftModel(drift_per_batch=spec.drift_per_phase, seed=seed)

    times, rates, refreshed = [], [], []
    for phase in range(spec.n_phases):
        trace = drift.apply(base_trace, phase)
        did_refresh = (
            refresh_every is not None
            and phase > 0 and phase % refresh_every == 0
        )
        if did_refresh:
            # refresh from the *previous* phase's pattern (online view)
            previous = drift.apply(base_trace, phase - 1)
            store.reset()
            store.warm(popular_rows(previous, plan.resident_rows))
            if pin_rows is not None:
                pin_rows = popular_rows(previous, k_pin)
        result = run_table_kernel(
            workload, dataset_spec, scheme,
            trace=trace, hot_rows=pin_rows, seed=seed, store=store,
        )
        times.append(result.total_time_us)
        rates.append(result.tier_stats.hit_rate)
        refreshed.append(did_refresh)
    return MemstoreDriftProfile(
        factors=tuple(t / times[0] for t in times),
        hit_rates=tuple(rates),
        refreshed=tuple(refreshed),
    )
