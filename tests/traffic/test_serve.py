"""Scenario serving: continuous batching, phase models, fleet wiring."""

import numpy as np
import pytest

from repro.config.gpu import A100_SXM4_80GB, H100_NVL
from repro.core.serving import BatchingPolicy, ContinuousBatching
from repro.fleet import FleetSpec
from repro.traffic import (
    DriftSpec,
    FlashCrowdSpec,
    StationarySpec,
    drift_phase_factors,
    generate_arrivals,
    scaled_latency_models,
    scenario_profile,
    simulate_fleet_scenario,
    simulate_scenario_serving,
)


def toy_model(batch):
    return 10.0 + 0.01 * batch


class TestScenarioServing:
    def test_reports_every_phase(self):
        spec = scenario_profile("flash", base_qps=2000, duration_s=4.0)
        report = simulate_scenario_serving(
            spec, toy_model, sla_ms=40.0, seed=0
        )
        assert {p.phase for p in report.phases} == {
            "pre", "spike", "recovery"
        }
        assert report.n_queries == sum(p.n_queries for p in report.phases)
        assert report.phase("spike").n_queries > 0
        with pytest.raises(KeyError):
            report.phase("nope")

    def test_accepts_pregenerated_trace(self):
        spec = StationarySpec(base_qps=1000, duration_s=3.0)
        trace = generate_arrivals(spec, seed=4)
        a = simulate_scenario_serving(trace, toy_model, sla_ms=50.0)
        b = simulate_scenario_serving(spec, toy_model, sla_ms=50.0, seed=4)
        assert a.p99_ms == b.p99_ms
        assert a.goodput_qps == b.goodput_qps

    def test_continuous_beats_fixed_timeout_tax_at_light_load(self):
        # below saturation the fixed batcher pays its formation timeout
        # on every dispatch; continuous batching dispatches immediately
        spec = StationarySpec(base_qps=50, duration_s=4.0)
        trace = generate_arrivals(spec, seed=0)
        fixed = simulate_scenario_serving(
            trace, toy_model,
            policy=BatchingPolicy(max_batch=64, timeout_ms=5.0),
            sla_ms=30.0,
        )
        cont = simulate_scenario_serving(
            trace, toy_model,
            policy=ContinuousBatching(max_batch=64, sla_ms=30.0),
            sla_ms=30.0,
        )
        # the formation timeout shows up as a ~timeout-sized shift of
        # the typical latency; deep-tail queries are amortized either
        # way, so the structural claim is about p50 and the hit rate
        assert cont.p50_ms < fixed.p50_ms - 0.5 * 5.0
        assert cont.sla_hit_pct >= fixed.sla_hit_pct

    def test_per_phase_latency_models(self):
        spec = DriftSpec(base_qps=500, duration_s=4.0, n_phases=2)
        trace = generate_arrivals(spec, seed=0)
        # second phase served by a 3x slower GPU: its tail must show it
        report = simulate_scenario_serving(
            trace, [toy_model, lambda b: 3 * toy_model(b)], sla_ms=100.0,
        )
        assert report.phase("drift1").p50_ms > 2 * report.phase(
            "drift0"
        ).p50_ms

    def test_phase_model_mapping_and_validation(self):
        spec = DriftSpec(base_qps=500, duration_s=2.0, n_phases=2)
        trace = generate_arrivals(spec, seed=0)
        by_name = simulate_scenario_serving(
            trace, {"drift0": toy_model, "drift1": toy_model},
        )
        assert by_name.n_queries == trace.n_arrivals
        with pytest.raises(KeyError):
            simulate_scenario_serving(trace, {"drift0": toy_model})
        with pytest.raises(ValueError):
            simulate_scenario_serving(trace, [toy_model])


class TestFleetScenario:
    MODELS = {
        A100_SXM4_80GB.name: toy_model,
        H100_NVL.name: lambda b: 6.0 + 0.006 * b,
    }

    def test_phase_breakdown_and_conservation(self):
        fleet = FleetSpec.mixed({A100_SXM4_80GB: 1, H100_NVL: 1})
        spec = FlashCrowdSpec(
            base_qps=3000, duration_s=4.0, spike_at_s=1.5,
            magnitude=6.0, ramp_s=0.2, decay_s=0.4,
        )
        trace = generate_arrivals(spec, seed=0)
        report = simulate_fleet_scenario(
            fleet, self.MODELS, trace, policy="jsq", sla_ms=40.0, seed=0,
        )
        assert report.n_queries == trace.n_arrivals
        assert {p.phase for p in report.phases} <= set(trace.phases)
        assert sum(p.n_queries for p in report.phases) == trace.n_arrivals
        assert report.sla_ms == 40.0
        assert report.goodput_qps > 0

    def test_seed_reproducible(self):
        fleet = FleetSpec.mixed({A100_SXM4_80GB: 2})
        spec = scenario_profile("mmpp", base_qps=2000, duration_s=3.0)
        a = simulate_fleet_scenario(
            fleet, self.MODELS, spec, policy="power-of-two", seed=9,
        )
        b = simulate_fleet_scenario(
            fleet, self.MODELS, spec, policy="power-of-two", seed=9,
        )
        assert a.p99_ms == b.p99_ms
        assert a.routed_fractions == b.routed_fractions


class TestDriftCalibration:
    def test_factors_start_at_one(self):
        spec = DriftSpec(
            base_qps=500, duration_s=4.0, n_phases=3, drift_per_phase=0.2,
        )
        factors = drift_phase_factors(spec, seed=0)
        assert len(factors) == 3
        assert factors[0] == pytest.approx(1.0)
        assert all(f > 0.5 for f in factors)

    def test_factors_pinned(self):
        # the defaults: A100, med_hot, L2P+OptMT
        spec = DriftSpec(
            base_qps=1000, duration_s=4.0, n_phases=3, drift_per_phase=0.3,
        )
        assert drift_phase_factors(spec, seed=1) == (
            1.0,
            float.fromhex("0x1.0166df837e8d9p+0"),
            float.fromhex("0x1.055bf0bcb3765p+0"),
        )

    def test_scaled_models_scale(self):
        models = scaled_latency_models(toy_model, (1.0, 2.0))
        assert models[0](100) == pytest.approx(toy_model(100))
        assert models[1](100) == pytest.approx(2 * toy_model(100))
