"""Record -> replay determinism, differential against the live runs.

The golden scenarios of the regression suite (single-GPU serving, the
routed fleet under every policy, the multi-tenant zoo on one GPU and on
a fleet) are recorded through a :class:`RecorderSink` and folded back with
:func:`repro.telemetry.replay.replay_reports`; every replayed report
must equal the live one **field for field** (dataclass ``==``, no
tolerance) without invoking any simulator.  The rest of the module
pins the failure modes: schema mismatch, truncation, corruption all
raise :class:`ReplayError` with a readable message.
"""

import dataclasses
import io
import json

import pytest

from repro.config.gpu import A100_SXM4_80GB, H100_NVL
from repro.core.serving import BatchingPolicy, ContinuousBatching, simulate_serving
from repro.fleet import FleetSpec, simulate_fleet
from repro.telemetry.events import SCHEMA_VERSION
from repro.telemetry.replay import (
    ReplayError,
    iter_records,
    load_runs,
    replay_report,
    replay_reports,
)
from repro.telemetry.sinks import RecorderSink, use_sink
from repro.tenancy import (
    ShareDemand,
    example_zoo,
    simulate_zoo_fleet,
    simulate_zoo_serving,
)
from repro.traffic import (
    scenario_profile,
    simulate_fleet_scenario,
    simulate_scenario_serving,
)


def _toy_model(batch: int) -> float:
    return 10.0 + 0.01 * batch


def _fast_toy_model(batch: int) -> float:
    return 6.0 + 0.006 * batch


def _record(fn):
    """Run ``fn`` under a recorder; return (live results, JSONL text)."""
    buf = io.StringIO()
    recorder = RecorderSink(buf)
    with use_sink(recorder):
        live = fn()
    recorder.close()
    return live, buf.getvalue()


def _assert_identical(replayed, live):
    # dataclass equality first (the contract), then per-field on
    # failure for a readable diff
    if replayed != live:
        for f in dataclasses.fields(live):
            assert getattr(replayed, f.name) == getattr(live, f.name), \
                f.name
    assert replayed == live


class TestGoldenServingReplay:
    def test_fixed_and_continuous_replay_identical(self):
        def run():
            fixed = simulate_serving(
                _toy_model, qps=800, duration_s=5.0, seed=42,
                policy=BatchingPolicy(max_batch=256, timeout_ms=5.0),
            )
            continuous = simulate_serving(
                _toy_model, qps=800, duration_s=5.0, seed=42,
                policy=ContinuousBatching(max_batch=256, sla_ms=30.0),
            )
            return fixed, continuous

        (fixed, continuous), text = _record(run)
        replayed = replay_reports(io.StringIO(text))
        assert len(replayed) == 2
        _assert_identical(replayed[0], fixed)
        _assert_identical(replayed[1], continuous)

    def test_flash_scenario_replays_identical(self):
        def run():
            return simulate_scenario_serving(
                scenario_profile("flash", base_qps=2500, duration_s=6.0),
                _toy_model,
                policy=ContinuousBatching(max_batch=256, sla_ms=30.0),
                sla_ms=30.0,
                seed=7,
            )

        live, text = _record(run)
        (replayed,) = replay_reports(io.StringIO(text))
        _assert_identical(replayed, live)
        # per-phase stats are part of the contract too
        assert replayed.phases == live.phases


def _golden_fleet():
    """A two-replica A100 + H100 fleet and its toy curves."""
    fleet = FleetSpec.mixed(
        {A100_SXM4_80GB: 1, H100_NVL: 1}, name="golden-fleet"
    )
    models = {
        A100_SXM4_80GB.name: _toy_model,
        H100_NVL.name: _fast_toy_model,
    }
    return fleet, models


class TestGoldenFleetReplay:
    @pytest.mark.parametrize(
        "policy", ["round-robin", "jsq", "power-of-two", "least-latency"]
    )
    def test_poisson_jsq_replays_identical(self, policy):
        fleet, models = _golden_fleet()
        live, text = _record(lambda: simulate_fleet(
            fleet, models, qps=3000, duration_s=3.0,
            policy=policy, seed=7,
        ))
        (replayed,) = replay_reports(io.StringIO(text))
        _assert_identical(replayed, live)
        assert replayed.replica_reports == live.replica_reports

    def test_mmpp_least_latency_replays_identical(self):
        fleet, models = _golden_fleet()
        live, text = _record(lambda: simulate_fleet_scenario(
            fleet, models,
            scenario_profile("mmpp", base_qps=2000, duration_s=5.0),
            policy="least-latency", sla_ms=40.0, seed=7,
        ))
        (replayed,) = replay_reports(io.StringIO(text))
        _assert_identical(replayed, live)


class TestGoldenZooReplay:
    def test_zoo_serving_replays_identical(self):
        zoo = example_zoo(
            3, base_qps=900.0, duration_s=4.0, sla_ms=45.0,
            hbm_floor_fraction=0.01,
        )
        models = {name: _toy_model for name in zoo.tenant_names}
        demands = {
            "med_hot": ShareDemand(0.6, 0.3),
            "high_hot": ShareDemand(0.9, 0.1),
            "low_hot": ShareDemand(0.5, 0.4),
        }
        live, text = _record(lambda: simulate_zoo_serving(
            zoo, models, demands=demands, seed=13,
        ))
        (replayed,) = replay_reports(io.StringIO(text))
        _assert_identical(replayed, live)
        assert set(replayed.tenant_reports) == set(live.tenant_reports)
        for name, report in live.tenant_reports.items():
            _assert_identical(replayed.tenant_reports[name], report)

    def test_zoo_fleet_replays_identical(self):
        zoo = example_zoo(
            3, base_qps=900.0, duration_s=4.0, sla_ms=45.0,
            hbm_floor_fraction=0.01,
        )
        fleet, models = _golden_fleet()
        a100, h100 = (replica.name for replica in fleet.replicas)
        live, text = _record(lambda: simulate_zoo_fleet(
            zoo, fleet, {name: models for name in zoo.tenant_names},
            assignments={"med_hot": [a100], "high_hot": [a100, h100],
                         "low_hot": [h100]},
            demands={
                "med_hot": ShareDemand(0.6, 0.3),
                "high_hot": ShareDemand(0.9, 0.1),
                "low_hot": ShareDemand(0.5, 0.4),
            },
            policy="least-latency", seed=13,
        ))
        (replayed,) = replay_reports(io.StringIO(text))
        # the contended pass re-routed someone: the group's children are
        # not all solo runs
        assert any(
            factor != 1.0
            for per in live.contention.values() for factor in per.values()
        )
        _assert_identical(replayed, live)
        assert set(replayed.tenant_reports) == set(live.tenant_reports)
        for name, report in live.tenant_reports.items():
            _assert_identical(replayed.tenant_reports[name], report)
            assert replayed.tenant_reports[name].replica_reports == \
                report.replica_reports


class TestReplayErrors:
    def _valid_recording(self):
        _, text = _record(lambda: simulate_serving(
            _toy_model, qps=200, duration_s=1.0, seed=0,
            policy=BatchingPolicy(max_batch=64, timeout_ms=5.0),
        ))
        return text

    def test_empty_file(self):
        with pytest.raises(ReplayError, match="empty file"):
            list(iter_records(io.StringIO("")))

    def test_wrong_header(self):
        bad = '{"k": "nope"}\n'
        with pytest.raises(ReplayError, match="not a telemetry recording"):
            list(iter_records(io.StringIO(bad)))

    def test_schema_mismatch(self):
        bad = json.dumps({
            "k": "telemetry", "schema": SCHEMA_VERSION + 1,
        }) + "\n"
        with pytest.raises(ReplayError, match="is not supported"):
            list(iter_records(io.StringIO(bad)))

    def test_truncated_missing_footer(self):
        lines = self._valid_recording().splitlines()[:-1]
        with pytest.raises(ReplayError, match="truncated"):
            load_runs(io.StringIO("\n".join(lines) + "\n"))

    def test_truncated_mid_line(self):
        text = self._valid_recording()
        with pytest.raises(ReplayError, match="not valid JSON"):
            load_runs(io.StringIO(text[: len(text) // 2]))

    def test_footer_count_mismatch(self):
        lines = self._valid_recording().splitlines()
        footer = json.loads(lines[-1])
        footer["records"] += 1
        lines[-1] = json.dumps(footer)
        with pytest.raises(ReplayError, match="footer says"):
            load_runs(io.StringIO("\n".join(lines) + "\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ReplayError, match="cannot read"):
            load_runs(str(tmp_path / "ghost.jsonl"))

    def test_unknown_record_kind(self):
        text = (
            '{"k": "telemetry", "schema": %d}\n'
            '{"k": "x"}\n'
            '{"k": "end", "records": 1}\n' % SCHEMA_VERSION
        )
        with pytest.raises(ReplayError, match="unknown record kind"):
            load_runs(io.StringIO(text))

    def test_run_end_without_run_start(self):
        text = (
            '{"k": "telemetry", "schema": %d}\n'
            '{"k": "e", "t": "run_end"}\n'
            '{"k": "end", "records": 1}\n' % SCHEMA_VERSION
        )
        with pytest.raises(ReplayError, match="without run_start"):
            load_runs(io.StringIO(text))

    def test_block_outside_run(self):
        lines = self._valid_recording().splitlines()
        # drop the run_start so the first block floats free
        body = [
            line for line in lines[1:-1]
            if '"t":"run_start"' not in line.replace(" ", "")
        ]
        footer = json.dumps({"k": "end", "records": len(body)})
        text = "\n".join([lines[0], *body, footer]) + "\n"
        with pytest.raises(ReplayError, match="outside any run"):
            load_runs(io.StringIO(text))

    def test_unknown_run_kind_at_fold(self):
        text = (
            '{"k": "telemetry", "schema": %d}\n'
            '{"k": "e", "t": "run_start", "meta": {"kind": "zoo"}}\n'
            '{"k": "e", "t": "run_end"}\n'
            '{"k": "end", "records": 2}\n' % SCHEMA_VERSION
        )
        (run,) = load_runs(io.StringIO(text))
        run.meta["kind"] = "comet"
        with pytest.raises(ReplayError, match="cannot replay run kind"):
            replay_report(run)

    def test_non_structural_events_are_tolerated(self):
        text = (
            '{"k": "telemetry", "schema": %d}\n'
            '{"k": "e", "t": "cache_hit", "count": 3, "label": "s"}\n'
            '{"k": "end", "records": 1}\n' % SCHEMA_VERSION
        )
        assert load_runs(io.StringIO(text)) == []
