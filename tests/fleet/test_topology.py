"""Fleet topology: replica specs, mixed fleets, cost accounting."""

import pytest

from repro.config.gpu import A100_SXM4_80GB, H100_NVL
from repro.core.schemes import OPTMT
from repro.core.serving import BatchingPolicy, ContinuousBatching
from repro.fleet.router import simulate_fleet
from repro.fleet.topology import GPU_COST_UNITS, FleetSpec, ReplicaSpec


class TestReplicaSpec:
    def test_defaults(self):
        replica = ReplicaSpec(name="r0", gpu=A100_SXM4_80GB)
        assert replica.scheme.name == "base"
        assert replica.batching.max_batch == 2048

    def test_cost_units_follow_gpu(self):
        a = ReplicaSpec(name="a", gpu=A100_SXM4_80GB)
        h = ReplicaSpec(name="h", gpu=H100_NVL)
        assert a.cost_units == GPU_COST_UNITS[A100_SXM4_80GB.name]
        assert h.cost_units > a.cost_units

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            ReplicaSpec(name="", gpu=A100_SXM4_80GB)

    def test_batching_must_be_a_batcher(self):
        with pytest.raises(TypeError, match="batching .*'fixed'"):
            ReplicaSpec(name="r0", gpu=A100_SXM4_80GB, batching="fixed")

    def test_continuous_batching_replicas_serve(self):
        """Replicas take either batcher: a continuous (and SLA-adaptive)
        fleet routes and serves every query."""
        for batching in (ContinuousBatching(max_batch=64),
                         ContinuousBatching(max_batch=64, sla_ms=20.0)):
            fleet = FleetSpec.homogeneous(H100_NVL, 2, batching=batching)
            assert all(r.batching is batching for r in fleet.replicas)
            report = simulate_fleet(
                fleet, {H100_NVL.name: lambda b: 2.0 + 0.05 * b},
                qps=2000, duration_s=0.5, policy="least-latency",
            )
            assert report.n_queries == 1000
            assert sum(r.n_queries for r in report.replica_reports) == 1000
            assert report.p50_ms >= 2.05


class TestFleetSpec:
    def test_homogeneous_factory(self):
        fleet = FleetSpec.homogeneous(A100_SXM4_80GB, 3, scheme=OPTMT)
        assert fleet.n_replicas == 3
        assert fleet.gpu_counts == {A100_SXM4_80GB.name: 3}
        assert not fleet.is_heterogeneous
        assert all(r.scheme is OPTMT for r in fleet.replicas)

    def test_mixed_factory(self):
        fleet = FleetSpec.mixed({A100_SXM4_80GB: 2, H100_NVL: 2})
        assert fleet.n_replicas == 4
        assert fleet.is_heterogeneous
        assert fleet.gpu_counts == {
            A100_SXM4_80GB.name: 2, H100_NVL.name: 2,
        }

    def test_cost_units_sum(self):
        fleet = FleetSpec.mixed({A100_SXM4_80GB: 2, H100_NVL: 2})
        expected = 2 * GPU_COST_UNITS[A100_SXM4_80GB.name] \
            + 2 * GPU_COST_UNITS[H100_NVL.name]
        assert fleet.cost_units == pytest.approx(expected)

    def test_replica_names_unique(self):
        fleet = FleetSpec.mixed({A100_SXM4_80GB: 3, H100_NVL: 2})
        names = [r.name for r in fleet.replicas]
        assert len(set(names)) == 5

    def test_duplicate_names_rejected(self):
        replica = ReplicaSpec(name="dup", gpu=A100_SXM4_80GB)
        with pytest.raises(ValueError):
            FleetSpec(name="f", replicas=(replica, replica))

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError):
            FleetSpec(name="f", replicas=())

    def test_invalid_counts_rejected(self):
        with pytest.raises(ValueError):
            FleetSpec.homogeneous(A100_SXM4_80GB, 0)
        with pytest.raises(ValueError):
            FleetSpec.mixed({A100_SXM4_80GB: 0})

    def test_describe_mentions_gpus(self):
        fleet = FleetSpec.mixed({A100_SXM4_80GB: 2, H100_NVL: 1})
        text = fleet.describe()
        assert A100_SXM4_80GB.name in text and H100_NVL.name in text

    def test_custom_batching_propagates(self):
        policy = BatchingPolicy(max_batch=64, timeout_ms=2.0)
        fleet = FleetSpec.homogeneous(A100_SXM4_80GB, 2, batching=policy)
        assert all(r.batching is policy for r in fleet.replicas)
