"""Fleet capacity planning: sustainable QPS, replicas-needed, autoscaling."""

import pytest

from repro.config.gpu import A100_SXM4_80GB, H100_NVL
from repro.config.model import PAPER_MODEL
from repro.core.serving import BatchingPolicy
from repro.dlrm.timing import non_embedding_time
from repro.fleet import capacity
from repro.fleet.capacity import (
    autoscaler_sweep,
    fleet_max_sustainable_qps,
    linear_latency_model,
    replicas_needed,
)
from repro.fleet.router import simulate_fleet
from repro.fleet.topology import FleetSpec

POLICY = BatchingPolicy(max_batch=512, timeout_ms=5.0)
MODELS = {
    A100_SXM4_80GB.name: lambda b: 10.0 + 0.02 * b,
    H100_NVL.name: lambda b: 6.0 + 0.011 * b,
}
GRID = (1000, 4000, 16000, 64000)


def homo(n):
    return FleetSpec.homogeneous(A100_SXM4_80GB, n, batching=POLICY)


class TestFleetMaxSustainableQps:
    def test_bigger_fleet_sustains_more(self):
        small, _ = fleet_max_sustainable_qps(
            homo(1), MODELS, sla_ms=60.0, qps_grid=GRID,
            refine_iters=0, duration_s=1.0,
        )
        big, _ = fleet_max_sustainable_qps(
            homo(4), MODELS, sla_ms=60.0, qps_grid=GRID,
            refine_iters=0, duration_s=1.0,
        )
        assert big >= small
        assert small > 0

    def test_mixed_beats_homogeneous_at_equal_count(self):
        mixed = FleetSpec.mixed(
            {A100_SXM4_80GB: 1, H100_NVL: 1}, batching=POLICY,
        )
        qps_homo, _ = fleet_max_sustainable_qps(
            homo(2), MODELS, sla_ms=60.0, duration_s=1.0,
        )
        qps_mixed, _ = fleet_max_sustainable_qps(
            mixed, MODELS, sla_ms=60.0, duration_s=1.0,
        )
        assert qps_mixed > qps_homo

    def test_refinement_sharpens_the_boundary(self):
        coarse, _ = fleet_max_sustainable_qps(
            homo(1), MODELS, sla_ms=60.0, qps_grid=GRID,
            refine_iters=0, duration_s=1.0,
        )
        fine, _ = fleet_max_sustainable_qps(
            homo(1), MODELS, sla_ms=60.0, qps_grid=GRID,
            refine_iters=4, duration_s=1.0,
        )
        assert fine >= coarse

    def test_impossible_sla_yields_zero(self):
        best, reports = fleet_max_sustainable_qps(
            homo(1), MODELS, sla_ms=0.5, qps_grid=(1000, 2000),
            refine_iters=2, duration_s=0.5,
        )
        assert best == 0.0
        assert len(reports) == 2  # no refinement without a passing point

    @pytest.mark.parametrize("check, match", [
        *(pytest.param({"sla_ms": bad}, rf"sla_ms .*{bad!r}", id=repr(bad))
          for bad in (float("nan"), -5.0, 0.0, None)),
        pytest.param({"sla_ms": 60.0, "percentile": "p42"},
                     "unknown percentile 'p42'", id="p42"),
    ])
    def test_sla_must_be_finite_and_positive(self, check, match,
                                             monkeypatch):
        # each planner used to return 0.0 (or no replica count) for a
        # bad SLA, and to reject it, a None SLA (with a bare TypeError)
        # or an unknown percentile only after simulating one load
        runs = []

        def counting(*args, **kwargs):
            runs.append(kwargs["qps"])
            return simulate_fleet(*args, **kwargs)

        monkeypatch.setattr(capacity, "simulate_fleet", counting)
        with pytest.raises(ValueError, match=match):
            fleet_max_sustainable_qps(
                homo(1), MODELS, qps_grid=(1000,), duration_s=0.2, **check,
            )
        with pytest.raises(ValueError, match=match):
            replicas_needed(homo, MODELS, qps=1000, duration_s=0.2,
                            max_replicas=2, **check)
        with pytest.raises(ValueError, match=match):
            autoscaler_sweep(homo, MODELS, qps_grid=(1000,), duration_s=0.2,
                             max_replicas=2, **check)
        assert runs == []


class TestReplicasNeeded:
    def test_more_load_needs_more_replicas(self):
        low = replicas_needed(
            homo, MODELS, qps=5_000, sla_ms=60.0, duration_s=1.0,
            max_replicas=8,
        )
        high = replicas_needed(
            homo, MODELS, qps=40_000, sla_ms=60.0, duration_s=1.0,
            max_replicas=8,
        )
        assert low is not None and high is not None
        assert high >= low

    def test_unreachable_load_returns_none(self):
        answer = replicas_needed(
            homo, MODELS, qps=1_000_000, sla_ms=1.0, duration_s=0.5,
            max_replicas=2,
        )
        assert answer is None


class TestAutoscalerSweep:
    def test_monotone_in_load(self):
        sweep = autoscaler_sweep(
            homo, MODELS, qps_grid=(5_000, 20_000, 40_000),
            sla_ms=60.0, duration_s=1.0, max_replicas=8,
        )
        counts = [n for _, n in sweep if n is not None]
        assert counts == sorted(counts)
        assert len(sweep) == 3


class TestLinearLatencyModel:
    def test_monotone_in_batch(self):
        model = linear_latency_model(
            A100_SXM4_80GB, emb_us=50_000.0, emb_batch=2048,
        )
        assert model(512) < model(1024) < model(4096)

    def test_anchored_at_calibration_point(self):
        emb_us = 40_000.0
        model = linear_latency_model(
            A100_SXM4_80GB, emb_us=emb_us, emb_batch=2048,
        )
        non_emb = non_embedding_time(
            A100_SXM4_80GB, PAPER_MODEL, batch_size=2048,
        ).total_us
        assert model(2048) == pytest.approx((emb_us + non_emb) / 1e3)

    def test_invalid_batch_anchor_rejected(self):
        with pytest.raises(ValueError):
            linear_latency_model(A100_SXM4_80GB, emb_us=1.0, emb_batch=0)
