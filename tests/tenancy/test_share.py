"""Unit tests for the interference model and zoo serving orchestration."""

import dataclasses
import io

import pytest

from repro.config.gpu import A100_SXM4_80GB, H100_NVL
from repro.core.curve import LatencyCurve
from repro.core.serving import (
    BatchingPolicy,
    ContinuousBatching,
    serve_tenant_streams,
)
from repro.fleet import FleetSpec
from repro.fleet.router import simulate_fleet_tenant_streams
from repro.telemetry.events import GroupRun
from repro.telemetry.sinks import CaptureSink, RecorderSink
from repro.tenancy import (
    ShareDemand,
    TenantSpec,
    ZooSpec,
    calibrate_tenant,
    contention_factor,
    shared_latency_model,
    simulate_zoo_fleet,
    simulate_zoo_serving,
    zoo_contention,
)
from repro.tenancy.share import zoo_effective_times
from repro.tenancy.zoo import example_zoo
from repro.traffic.scenario import (
    DiurnalSpec,
    FlashCrowdSpec,
    StationarySpec,
)


def _toy(batch: int) -> float:
    return 10.0 + 0.01 * batch


def test_share_demand_validation():
    with pytest.raises(ValueError, match="sm_fraction"):
        ShareDemand(sm_fraction=1.2, hbm_fraction=0.5)
    with pytest.raises(ValueError, match="hbm_fraction"):
        ShareDemand(sm_fraction=0.5, hbm_fraction=-0.1)


def test_contention_factor_oversubscription():
    own = ShareDemand(0.6, 0.2)
    # SM is the binding resource: 0.6 + 0.8*0.75 = 1.2
    co = [(ShareDemand(0.8, 0.1), 0.75)]
    assert contention_factor(own, co) == pytest.approx(1.2)
    # HBM binds instead when the co-runner is bandwidth-hungry
    co = [(ShareDemand(0.1, 1.0), 1.0)]
    assert contention_factor(own, co) == pytest.approx(1.2)
    with pytest.raises(ValueError, match="load"):
        contention_factor(own, [(own, 1.5)])


def test_zoo_contention_requires_loads():
    demands = {"a": ShareDemand(0.5, 0.5), "b": ShareDemand(0.5, 0.5)}
    with pytest.raises(KeyError, match="no load"):
        zoo_contention(demands, {"a": 0.5})
    factors = zoo_contention(demands, {"a": 1.0, "b": 0.0})
    # b is idle, so a sees no one; a is busy, so b pays for a
    assert factors["a"] == 1.0
    assert factors["b"] == pytest.approx(1.0)  # 0.5 + 0.5*1.0


def test_shared_latency_model_identity_and_scaling():
    assert shared_latency_model(_toy, 1.0) is _toy
    scaled = shared_latency_model(_toy, 1.5)
    assert scaled(100) == pytest.approx(1.5 * _toy(100))
    with pytest.raises(ValueError, match=">= 1"):
        shared_latency_model(_toy, 0.9)


def test_simulate_zoo_serving_requires_all_models():
    zoo = example_zoo(2, base_qps=300.0, duration_s=2.0)
    with pytest.raises(KeyError, match="no latency model"):
        simulate_zoo_serving(zoo, {zoo.tenant_names[0]: _toy})


def _counting(monkeypatch, name):
    """Count the calls a zoo entry point makes to ``name``."""
    import repro.tenancy.share as share

    calls = []
    real = getattr(share, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(share, name, counted)
    return calls


def _bad_streams(zoo, case):
    """The zoo's streams without its last tenant, or with an extra one."""
    streams = zoo.streams(0)
    last = zoo.tenant_names[-1]
    if case == "missing":
        return {name: streams[name] for name in zoo.tenant_names[:-1]}
    return dict(streams, outsider=streams[last])


@pytest.mark.parametrize("case", ["missing", "extra"])
def test_zoo_serving_checks_streams_before_serving(monkeypatch, case):
    zoo = example_zoo(3, base_qps=300.0, duration_s=1.0)
    streams = _bad_streams(zoo, case)
    models = {name: _toy for name in [*zoo.tenant_names, "outsider"]}
    calls = _counting(monkeypatch, "serve_tenant_streams")
    with pytest.raises(KeyError, match=f"{case} \\['"):
        simulate_zoo_serving(zoo, models, streams=streams)
    assert calls == []


@pytest.mark.parametrize("case", ["missing", "extra"])
def test_zoo_fleet_checks_streams_before_routing(monkeypatch, case):
    zoo = example_zoo(3, base_qps=300.0, duration_s=1.0)
    streams = _bad_streams(zoo, case)
    fleet = FleetSpec.mixed(
        {A100_SXM4_80GB: 1},
        batching=BatchingPolicy(max_batch=32, timeout_ms=2.0),
    )
    models = {
        name: {A100_SXM4_80GB.name: _curve(2.0, 0.05)}
        for name in [*zoo.tenant_names, "outsider"]
    }
    calls = _counting(monkeypatch, "simulate_fleet_tenant_streams")
    with pytest.raises(KeyError, match=f"{case} \\['"):
        simulate_zoo_fleet(zoo, fleet, models, streams=streams)
    assert calls == []


def test_consolidation_erodes_tails_not_correctness():
    """Co-residency must slow tenants down, never lose their queries."""
    zoo = example_zoo(3, base_qps=2000.0, duration_s=2.0, sla_ms=50.0)
    models = {name: _toy for name in zoo.tenant_names}
    solo_p99 = {}
    for tenant in zoo.tenants:
        alone = ZooSpec(name=f"s-{tenant.name}", tenants=(tenant,))
        report = simulate_zoo_serving(
            alone, {tenant.name: _toy}, seed=5,
        )
        solo_p99[tenant.name] = report.tenant(tenant.name).p99_ms
    shared = simulate_zoo_serving(zoo, models, seed=5)
    for name in zoo.tenant_names:
        report = shared.tenant(name)
        assert shared.contention[name] >= 1.0
        assert report.p99_ms >= solo_p99[name]
        # same stream, every query still served
        assert report.n_queries == zoo.tenant(name).stream(5).n_arrivals
    assert shared.n_tenants == 3
    with pytest.raises(KeyError, match="known"):
        shared.tenant("stranger")


def test_calibrate_tenant_demand_is_a_valid_fraction():
    tenant = TenantSpec(
        name="cal", scenario=StationarySpec(base_qps=100, duration_s=1.0)
    )
    cal = calibrate_tenant(tenant, A100_SXM4_80GB, num_sms=2, seed=0)
    assert 0.0 <= cal.demand.sm_fraction <= 1.0
    assert 0.0 <= cal.demand.hbm_fraction <= 1.0
    assert cal.embedding_stage_us > 0
    # the curve is usable and increasing in batch
    assert cal.latency_ms(2048) > cal.latency_ms(1) > 0


def test_zoo_effective_times_cover_every_tenant_and_gpu():
    zoo = example_zoo(2, base_qps=100.0, duration_s=1.0)
    times = zoo_effective_times(zoo, [A100_SXM4_80GB], num_sms=2, seed=0)
    assert set(times) == {A100_SXM4_80GB.name}
    assert set(times[A100_SXM4_80GB.name]) == set(zoo.tenant_names)
    assert all(t > 0 for t in times[A100_SXM4_80GB.name].values())


# ----------------------------------------------------------------------
# the contended pass re-serves only the tenants whose factor moved
# ----------------------------------------------------------------------
SEED = 3


def _mixed_zoo():
    """Three tenants whose factors, on one GPU and on the two-replica
    fleet below, mix exactly 1.0 (a light co-runner, or a replica of
    its own) with factors above 1.0."""
    base = example_zoo(3, duration_s=2.0, sla_ms=40.0)
    scenarios = (
        DiurnalSpec(base_qps=120.0, duration_s=2.0, amplitude=0.5),
        FlashCrowdSpec(base_qps=150.0, duration_s=2.0, spike_at_s=0.8,
                       magnitude=3.0),
        StationarySpec(base_qps=100.0, duration_s=2.0),
    )
    zoo = ZooSpec(name="mixed", tenants=tuple(
        dataclasses.replace(t, scenario=spec)
        for t, spec in zip(base.tenants, scenarios)
    ))
    light, heavy, middle = zoo.tenant_names
    demands = {
        light: ShareDemand(0.05, 0.05),
        heavy: ShareDemand(0.9, 0.6),
        middle: ShareDemand(0.7, 0.4),
    }
    return zoo, demands


def _curve(base_ms, per_query_ms):
    # wider than every batcher below, so no table is tabulated at entry
    return LatencyCurve.from_fn(lambda b: base_ms + per_query_ms * b, 64)


def _recording(run) -> str:
    buffer = io.StringIO()
    sink = RecorderSink(buffer)
    run.emit_to(sink)
    sink.close()
    return buffer.getvalue()


def _assert_group_equal(group, expected):
    assert list(group.children) == list(expected.children)
    for name, child in group.children.items():
        assert child.meta == expected.children[name].meta
    assert _recording(group) == _recording(expected)


def test_zoo_serving_reuses_solo_runs_of_unmoved_tenants():
    """A tenant at exactly 1.0 keeps its solo run; the group equals
    re-serving every tenant on its scaled curves."""
    zoo, demands = _mixed_zoo()
    names = zoo.tenant_names
    models = {
        name: _curve(2.0 + k, 0.05) for k, name in enumerate(names)
    }
    policies = {
        names[0]: BatchingPolicy(max_batch=32, timeout_ms=2.0),
        names[1]: ContinuousBatching(max_batch=32, sla_ms=15.0),
        names[2]: ContinuousBatching(max_batch=16),
    }
    hit_rates = {names[1]: (0.9, 0.7, 0.8)}
    capture = CaptureSink()
    simulate_zoo_serving(
        zoo, models, demands=demands, policies=policies,
        phase_hit_rates=hit_rates, seed=SEED, sink=capture,
    )
    (group,) = capture.runs
    factors = group.meta["contention"]
    assert factors[names[0]] == 1.0
    assert factors[names[1]] > 1.0 and factors[names[2]] > 1.0

    reserved = CaptureSink()
    serve_tenant_streams(
        {name: models[name].scaled(factors[name]) for name in names},
        zoo.streams(SEED), policies=policies,
        sla_ms={t.name: t.sla_ms for t in zoo.tenants},
        scheme_names={t.name: t.scheme.name for t in zoo.tenants},
        phase_hit_rates=hit_rates, sink=reserved,
    )
    _assert_group_equal(group, GroupRun(
        meta=group.meta,
        children={run.meta["tenant"]: run for run in reserved.runs},
    ))


def test_zoo_fleet_reuses_solo_runs_of_unmoved_tenants():
    """A tenant at exactly 1.0 on every replica it serves keeps its solo
    run; one whose factor moved on any replica is re-routed; the group
    equals re-routing every tenant on its scaled per-replica curves."""
    zoo, demands = _mixed_zoo()
    names = zoo.tenant_names
    fleet = FleetSpec.mixed(
        {A100_SXM4_80GB: 1, H100_NVL: 1},
        batching=BatchingPolicy(max_batch=32, timeout_ms=2.0),
    )
    a100, h100 = (replica.name for replica in fleet.replicas)
    models = {
        name: {
            A100_SXM4_80GB.name: _curve(2.0 + k, 0.05),
            H100_NVL.name: _curve(1.5 + k, 0.03),
        }
        for k, name in enumerate(names)
    }
    # light alone on the A100, heavy alone on the H100, middle on both
    assignments = {names[0]: [a100], names[1]: [h100],
                   names[2]: [a100, h100]}
    capture = CaptureSink()
    simulate_zoo_fleet(
        zoo, fleet, models, assignments=assignments, demands=demands,
        seed=SEED, sink=capture,
    )
    (group,) = capture.runs
    contention = group.meta["contention"]
    assert contention[a100][names[0]] == contention[a100][names[2]] == 1.0
    assert contention[h100][names[1]] == 1.0
    assert contention[h100][names[2]] > 1.0

    gpu_of = {replica.name: replica.gpu.name for replica in fleet.replicas}
    reserved = CaptureSink()
    simulate_fleet_tenant_streams(
        fleet,
        {
            name: {
                replica: models[name][gpu_of[replica]].scaled(
                    contention[replica][name]
                )
                for replica in assignments[name]
            }
            for name in names
        },
        zoo.streams(SEED), assignments=assignments,
        sla_ms={t.name: t.sla_ms for t in zoo.tenants}, seed=SEED,
        sink=reserved,
    )
    _assert_group_equal(group, GroupRun(
        meta=group.meta,
        children={run.meta["tenant"]: run for run in reserved.runs},
    ))
