"""Serving-layer simulation: batching, tails, sustainable load."""

import dataclasses

import numpy as np
import pytest

from repro.core import serving
from repro.core.curve import LatencyCurve
from repro.core.serving import (
    BatchingPolicy,
    ContinuousBatching,
    interpolated_latency_model,
    max_sustainable_qps,
    resolve_percentile_field,
    serve_stream,
    serve_tenant_streams,
    simulate_serving,
)
from repro.telemetry.sinks import CaptureSink
from repro.traffic.scenario import (
    FlashCrowdSpec,
    StationarySpec,
    generate_arrivals,
)
from tests.conftest import assert_same_run


def linear_model(batch):
    # 10 ms fixed + 10 us per query
    return 10.0 + 0.01 * batch


class TestLatencyModel:
    def test_interpolation(self):
        model = interpolated_latency_model([512, 2048], [30.0, 90.0])
        assert model(512) == pytest.approx(30.0)
        assert model(1280) == pytest.approx(60.0)
        assert model(2048) == pytest.approx(90.0)

    def test_clamps_outside_range(self):
        model = interpolated_latency_model([512, 2048], [30.0, 90.0])
        assert model(100) == pytest.approx(30.0)
        assert model(10_000) == pytest.approx(90.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            interpolated_latency_model([1, 2], [1.0])
        with pytest.raises(ValueError):
            interpolated_latency_model([], [])


class TestSimulateServing:
    def test_light_load_low_latency(self):
        report = simulate_serving(
            linear_model, qps=50, duration_s=5.0,
            policy=BatchingPolicy(max_batch=64, timeout_ms=1.0),
        )
        # mostly singleton batches served immediately: ~exec + timeout
        assert report.p50_ms < 25.0
        assert report.mean_batch_size < 8
        assert report.gpu_utilization < 0.9

    def test_overload_grows_tail(self):
        light = simulate_serving(
            linear_model, qps=50, duration_s=5.0, seed=1,
        )
        heavy = simulate_serving(
            linear_model, qps=5_000, duration_s=5.0, seed=1,
        )
        assert heavy.p99_ms > light.p99_ms
        assert heavy.mean_batch_size > light.mean_batch_size

    def test_batching_amortizes_under_load(self):
        # big batches keep utilization below 100% even at high qps
        report = simulate_serving(
            linear_model, qps=20_000, duration_s=2.0,
            policy=BatchingPolicy(max_batch=2048, timeout_ms=5.0),
        )
        assert report.mean_batch_size > 100
        assert report.n_queries == 40_000

    def test_percentiles_ordered(self):
        report = simulate_serving(linear_model, qps=500, duration_s=3.0)
        assert report.p50_ms <= report.p95_ms <= report.p99_ms

    def test_deterministic_by_seed(self):
        a = simulate_serving(linear_model, qps=500, seed=3)
        b = simulate_serving(linear_model, qps=500, seed=3)
        assert a.p99_ms == b.p99_ms

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_serving(linear_model, qps=0)
        # a non-positive duration used to come back as a one-query run,
        # NaN and inf to die inside the sampler
        for field, bad in (
            ("qps", float("nan")), ("qps", float("inf")), ("qps", -3.0),
            ("duration_s", -5.0), ("duration_s", 0.0),
            ("duration_s", float("nan")), ("duration_s", float("inf")),
        ):
            with pytest.raises(
                ValueError,
                match=rf"{field} must be a finite number > 0, got {bad!r}",
            ):
                simulate_serving(linear_model, **{"qps": 100.0, field: bad})
        with pytest.raises(ValueError):
            BatchingPolicy(max_batch=0)
        with pytest.raises(ValueError):
            BatchingPolicy(timeout_ms=-1)
        # a non-finite timeout would leave a queued batch never due
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=rf"timeout_ms .*{bad!r}"):
                BatchingPolicy(timeout_ms=bad)
        for batcher in (BatchingPolicy, ContinuousBatching):
            with pytest.raises(TypeError, match=r"max_batch .*2\.5"):
                batcher(max_batch=2.5)
            with pytest.raises(ValueError, match=r"max_batch .*-3"):
                batcher(max_batch=-3)
            assert batcher(max_batch=np.int64(8)).max_batch == 8

    def test_continuous_batching_validation(self, monkeypatch):
        # the batcher's SLA rule is the one rule: the stream entry point,
        # the report's SLA check and the planner apply it too (each used
        # to count no query as in time, or no load as sustainable); the
        # planner checks its SLA and percentile before it simulates
        report = simulate_serving(linear_model, qps=100, duration_s=1.0)
        stream = generate_arrivals(
            StationarySpec(base_qps=200, duration_s=1.0), seed=0
        )
        runs = []

        def counting(*args, **kwargs):
            runs.append(kwargs["qps"])
            return simulate_serving(*args, **kwargs)

        monkeypatch.setattr(serving, "simulate_serving", counting)
        for bad in (float("nan"), float("inf"), 0.0, -5.0):
            match = rf"sla_ms .*{bad!r}"
            with pytest.raises(ValueError, match=match):
                ContinuousBatching(sla_ms=bad)
            with pytest.raises(ValueError, match=match):
                serve_stream(linear_model, stream,
                             policy=BatchingPolicy(256, 5.0), sla_ms=bad)
            with pytest.raises(ValueError, match=match):
                report.meets_sla(bad)
            with pytest.raises(ValueError, match=match):
                max_sustainable_qps(linear_model, sla_ms=bad,
                                    qps_grid=(100,))
        # None means "no SLA" to a batcher, but an SLA check needs one
        # (meets_sla used to die on p99 <= None with a bare TypeError)
        with pytest.raises(ValueError, match=r"sla_ms .*None"):
            report.meets_sla(None)
        with pytest.raises(ValueError, match=r"sla_ms .*None"):
            max_sustainable_qps(linear_model, sla_ms=None, qps_grid=(100,))
        with pytest.raises(ValueError, match="unknown percentile 'p42'"):
            max_sustainable_qps(linear_model, sla_ms=60.0, percentile="p42",
                                qps_grid=(100,))
        assert runs == []
        with pytest.raises(ValueError, match="max_batch"):
            ContinuousBatching(max_batch=0)
        assert ContinuousBatching(sla_ms=None).sla_ms is None


class TestSustainableQps:
    def test_faster_model_sustains_more(self):
        slow = interpolated_latency_model([1, 2048], [40.0, 90.0])
        fast = interpolated_latency_model([1, 2048], [20.0, 50.0])
        qps_slow, _ = max_sustainable_qps(
            slow, sla_ms=100.0, qps_grid=(1000, 4000, 16000, 64000),
        )
        qps_fast, _ = max_sustainable_qps(
            fast, sla_ms=100.0, qps_grid=(1000, 4000, 16000, 64000),
        )
        assert qps_fast >= qps_slow

    def test_impossible_sla_yields_zero(self):
        model = interpolated_latency_model([1, 2048], [500.0, 900.0])
        qps, reports = max_sustainable_qps(
            model, sla_ms=10.0, qps_grid=(100, 1000),
        )
        assert qps == 0.0
        assert len(reports) == 2

    def test_sla_check_percentile(self):
        report = simulate_serving(linear_model, qps=100, duration_s=2.0)
        assert report.meets_sla(10_000.0)
        assert not report.meets_sla(0.001)


class TestMeetsSlaPercentiles:
    def test_known_percentiles_and_case(self):
        report = simulate_serving(linear_model, qps=100, duration_s=1.0)
        for name in ("p50", "p95", "p99", "P99", "P50"):
            assert report.meets_sla(10_000.0, name)

    def test_unknown_percentile_rejected(self):
        report = simulate_serving(linear_model, qps=100, duration_s=1.0)
        for bad in ("p75", "mean", "p99_ms", "", "scheme_name"):
            with pytest.raises(ValueError, match="unknown percentile"):
                report.meets_sla(100.0, bad)

    def test_non_string_percentile_rejected(self):
        report = simulate_serving(linear_model, qps=100, duration_s=1.0)
        with pytest.raises(ValueError, match="unknown percentile"):
            report.meets_sla(100.0, 99)

    def test_resolver_maps_fields(self):
        assert resolve_percentile_field(100.0, "p95") == "p95_ms"


class _SteadyStream:
    """Minimal stream for serve_stream unit tests."""

    def __init__(self, times, phase_ids=None, phases=("steady",),
                 phase_durations=None, duration_s=None):
        self.name = "unit"
        self.times = np.asarray(times, dtype=float)
        self.phase_ids = (
            np.zeros(len(times), dtype=np.int64) if phase_ids is None
            else np.asarray(phase_ids)
        )
        self.phases = phases
        self.duration_s = (
            duration_s if duration_s is not None
            else float(self.times[-1]) + 0.1
        )
        self.phase_durations = phase_durations or (self.duration_s,)


class TestContinuousBatching:
    def test_validation(self):
        with pytest.raises(ValueError):
            ContinuousBatching(max_batch=0)
        with pytest.raises(ValueError):
            ContinuousBatching(sla_ms=0.0)
        with pytest.raises(ValueError):
            ContinuousBatching(sla_ms=-5.0)
        assert "continuous" in ContinuousBatching().label

    def test_dispatches_immediately_when_idle(self):
        # 3 well-separated queries: each served alone, no formation wait
        stream = _SteadyStream([0.0, 1.0, 2.0])
        report = serve_stream(
            lambda b: 10.0, stream, policy=ContinuousBatching(),
        )
        assert report.p99_ms == pytest.approx(10.0)
        assert report.mean_batch_size == pytest.approx(1.0)

    def test_riders_join_in_flight_formation(self):
        # queries landing while the GPU is busy form the next batch
        stream = _SteadyStream([0.0, 0.001, 0.002, 0.003])
        report = serve_stream(
            lambda b: 10.0, stream, policy=ContinuousBatching(),
        )
        # batch 1 = [t0]; batch 2 = the three riders at gpu_free=10ms
        assert report.mean_batch_size == pytest.approx(2.0)
        assert report.n_queries == 4

    def test_max_batch_respected(self):
        stream = _SteadyStream([0.0] * 10)
        report = serve_stream(
            lambda b: 1.0, stream, policy=ContinuousBatching(max_batch=4),
        )
        assert report.mean_batch_size <= 4.0

    def test_sla_adaptive_sizing_prefers_in_sla_batches(self):
        # 100 queries at t=0; exec(b) = b ms; SLA 10 ms.  A full drain
        # (100 ms) saves nobody; goodput-greedy serves 10-sized batches
        # while they can still hit, then drains
        stream = _SteadyStream([0.0] * 100, duration_s=1.0)
        exec_ms = lambda b: float(b)
        greedy = serve_stream(
            exec_ms, stream,
            policy=ContinuousBatching(max_batch=100, sla_ms=10.0),
            sla_ms=10.0,
        )
        blind = serve_stream(
            exec_ms, stream,
            policy=ContinuousBatching(max_batch=100), sla_ms=10.0,
        )
        assert greedy.sla_hit_pct > blind.sla_hit_pct

    def test_simulate_serving_accepts_continuous_policy(self):
        report = simulate_serving(
            linear_model, qps=200, duration_s=2.0,
            policy=ContinuousBatching(max_batch=64, sla_ms=50.0),
        )
        assert report.n_queries == 400
        assert report.p50_ms > 0


class TestServeStream:
    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            serve_stream(lambda b: 1.0, _SteadyStream([], duration_s=1.0))

    def test_fixed_policy_matches_simulate_serving(self):
        rng = np.random.default_rng(3)
        qps, duration = 500, 2.0
        n = int(qps * duration)
        times = np.cumsum(rng.exponential(1.0 / qps, size=n))
        via_stream = serve_stream(
            linear_model,
            _SteadyStream(times, duration_s=duration),
            policy=BatchingPolicy(),
        )
        direct = simulate_serving(
            linear_model, qps=qps, duration_s=duration, seed=3,
        )
        assert via_stream.p99_ms == pytest.approx(direct.p99_ms)
        assert via_stream.mean_batch_size == pytest.approx(
            direct.mean_batch_size
        )

    def test_goodput_counts_only_in_sla_completions(self):
        stream = _SteadyStream([0.0, 0.0, 0.0, 0.0], duration_s=2.0)
        # batch of 4 takes 40 ms; SLA 50 -> all good, SLA 30 -> none
        loose = serve_stream(
            lambda b: 10.0 * b, stream,
            policy=ContinuousBatching(), sla_ms=50.0,
        )
        tight = serve_stream(
            lambda b: 10.0 * b, stream,
            policy=ContinuousBatching(), sla_ms=30.0,
        )
        assert loose.goodput_qps == pytest.approx(4 / 2.0)
        assert tight.goodput_qps == pytest.approx(0.0)
        assert tight.sla_hit_pct == pytest.approx(0.0)

    def test_phase_stats_partition_queries(self):
        stream = _SteadyStream(
            [0.0, 0.5, 1.0, 1.5],
            phase_ids=[0, 0, 1, 1],
            phases=("a", "b"),
            phase_durations=(1.0, 1.0),
            duration_s=2.0,
        )
        report = serve_stream(
            lambda b: 1.0, stream, policy=ContinuousBatching(),
            sla_ms=5.0,
        )
        assert [p.phase for p in report.phases] == ["a", "b"]
        assert all(p.n_queries == 2 for p in report.phases)
        assert report.offered_qps == pytest.approx(2.0)


class TestTenantStreams:
    def test_each_tenant_is_served_by_serve_stream(self):
        """Every tenant's run is the run ``serve_stream`` emits for that
        tenant alone, tagged with ``meta["tenant"]`` as its last key."""
        def flash(qps, seed):
            return generate_arrivals(FlashCrowdSpec(
                base_qps=qps, duration_s=2.0, spike_at_s=0.8, magnitude=3.0,
                ramp_s=0.1, decay_s=0.3,
            ), seed)

        streams = {
            "ads": flash(300.0, 1),
            "feed": generate_arrivals(
                StationarySpec(base_qps=500.0, duration_s=2.0), 2
            ),
            "search": flash(400.0, 3),
        }
        # ads and feed share one plain callable
        models = {"ads": linear_model, "feed": linear_model,
                  "search": lambda b: 4.0 + 0.02 * b}
        policies = {"ads": BatchingPolicy(max_batch=256, timeout_ms=3.0),
                    "feed": ContinuousBatching(max_batch=128, sla_ms=25.0)}
        slas = {"ads": 40.0, "feed": 25.0, "search": 30.0}
        scheme_names = {"ads": "rpf"}
        hit_rates = {"ads": (0.9, 0.6, 0.8), "search": (0.7, 0.5, 0.95)}
        capture = CaptureSink()
        reports = serve_tenant_streams(
            models, streams, policies=policies, sla_ms=slas,
            scheme_names=scheme_names, phase_hit_rates=hit_rates,
            sink=capture,
        )
        assert list(reports) == list(streams)
        assert [run.meta["tenant"] for run in capture.runs] == list(streams)
        for name, run in zip(streams, capture.runs):
            alone = CaptureSink()
            report = serve_stream(
                models[name], streams[name], policy=policies.get(name),
                sla_ms=slas[name],
                scheme_name=scheme_names.get(name, name),
                phase_hit_rates=hit_rates.get(name), sink=alone,
            )
            (solo,) = alone.runs
            assert_same_run(run, dataclasses.replace(
                solo, meta={**solo.meta, "tenant": name},
            ))
            assert reports[name] == report


class TestStreamBoundary:
    """Bad inputs fail at the serving entry points instead of turning
    into wrong numbers."""

    def _stream(self):
        return generate_arrivals(
            StationarySpec(base_qps=1000, duration_s=1.0), seed=0
        )

    def test_unsorted_arrivals_raise(self):
        stream = self._stream()
        shuffled = dataclasses.replace(
            stream, name="shuffled",
            times=np.random.default_rng(0).permutation(stream.times),
        )
        match = r"arrival stream 'shuffled' is not sorted: index \d+"
        for policy in (BatchingPolicy(), ContinuousBatching(sla_ms=20.0)):
            with pytest.raises(ValueError, match=match):
                serve_stream(linear_model, shuffled, policy=policy)
        with pytest.raises(ValueError, match=match):
            serve_tenant_streams({"t": linear_model}, {"t": shuffled})

    def test_nan_arrival_raises(self):
        stream = self._stream()
        times = stream.times.copy()
        times[17] = np.nan
        broken = dataclasses.replace(stream, name="holey", times=times)
        with pytest.raises(
            ValueError, match=r"'holey': time at index 17 is nan"
        ):
            serve_stream(linear_model, broken)

    def test_curve_shorter_than_policy_raises(self):
        short = LatencyCurve.from_fn(linear_model, 64)
        with pytest.raises(ValueError, match=r"1\.\.64.*up to 2048"):
            serve_stream(short, self._stream(), policy=BatchingPolicy())
        with pytest.raises(ValueError, match=r"1\.\.64.*up to 2048"):
            simulate_serving(short, qps=100)
        report = serve_stream(
            short, self._stream(), policy=BatchingPolicy(max_batch=64)
        )
        assert report.n_queries == len(self._stream().times)

    def test_non_monotone_callable_refused(self):
        with pytest.raises(ValueError, match=r"drops at batch sizes 99->100"):
            serve_stream(
                lambda b: 5.0 if b >= 100 else 10.0, self._stream(),
                policy=ContinuousBatching(max_batch=256, sla_ms=20.0),
            )

    @pytest.mark.parametrize("policy", [
        BatchingPolicy(max_batch=512),
        ContinuousBatching(max_batch=512, sla_ms=15.0),
    ], ids=["fixed", "continuous-sla"])
    def test_table_and_callable_serve_identically(self, policy):
        stream = self._stream()
        table = LatencyCurve.from_fn(linear_model, 512)
        assert serve_stream(table, stream, policy=policy) == serve_stream(
            linear_model, stream, policy=policy
        )
