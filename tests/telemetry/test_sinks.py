"""Sinks: no-op default, aggregation, fan-out, JSONL recording."""

import io
import json

import numpy as np
import pytest

from repro.config.gpu import A100_SXM4_80GB, H100_NVL
from repro.core.curve import LatencyCurve
from repro.core.serving import BatchingPolicy, serve_stream
from repro.fleet import ROUTING_POLICIES, FleetSpec
from repro.fleet.router import simulate_fleet_stream
from repro.telemetry.derive import max_queue_depth, queue_depth_timeline
from repro.telemetry.events import (
    SCHEMA_VERSION,
    ArrivalBlock,
    BatchBlock,
    CacheHit,
    CacheMiss,
    HostFetch,
    RunEnd,
    RunStart,
    StreamRun,
)
from repro.telemetry.sinks import (
    NULL_SINK,
    CaptureSink,
    ConsoleSink,
    MultiSink,
    NullSink,
    RecorderSink,
    Sink,
    StatsSink,
    default_sink,
    emit_event,
    emit_run,
    resolve_sink,
    set_default_sink,
    use_sink,
)
from repro.traffic.scenario import FlashCrowdSpec


def _run(n=6, batch_sizes=(3, 3)):
    times = np.linspace(0.0, 1.0, n)
    arrivals = ArrivalBlock(
        times=times,
        phase_ids=np.zeros(n, dtype=np.int64),
        phases=("all",),
    )
    starts = np.array([0.5, 1.0])
    batches = BatchBlock(
        starts=starts,
        exec_s=np.array([0.004, 0.004]),
        sizes=np.array(batch_sizes, dtype=np.int64),
        phases=("all",),
    )
    return StreamRun(
        meta={"kind": "stream", "scenario": "probe"},
        arrivals=arrivals,
        batches=batches,
    )


#: A flash crowd that backs queries up on every replica of the fleet.
FLASH = FlashCrowdSpec(
    base_qps=1500.0, duration_s=2.0, spike_at_s=0.5, magnitude=6.0
).sample(0)
BATCHER = BatchingPolicy(max_batch=32, timeout_ms=2.0)
CURVES = {
    A100_SXM4_80GB.name: LatencyCurve.from_fn(lambda b: 2.0 + 0.05 * b, 64),
    H100_NVL.name: LatencyCurve.from_fn(lambda b: 1.5 + 0.03 * b, 64),
}


def _peak_queue(run):
    """StatsSink's peak queue for a captured run."""
    stats = StatsSink()
    stats.emit_run(run)
    (summary,) = stats.summary()["runs"]
    return summary["max_queue_depth"]


def _timeline_peak(run):
    """The peak of the queue-depth step timeline, event by event."""
    _, depth = queue_depth_timeline(run)
    return int(depth.max())


class TestDefaultSink:
    def test_null_by_default(self):
        assert default_sink() is NULL_SINK
        assert not NULL_SINK.enabled

    def test_use_sink_restores_previous(self):
        stats = StatsSink()
        with use_sink(stats) as active:
            assert active is stats
            assert resolve_sink(None) is stats
        assert resolve_sink(None) is NULL_SINK

    def test_set_default_none_restores_null(self):
        previous = set_default_sink(StatsSink())
        assert previous is NULL_SINK
        set_default_sink(None)
        assert default_sink() is NULL_SINK

    def test_explicit_sink_wins_over_ambient(self):
        explicit = StatsSink()
        with use_sink(StatsSink()):
            assert resolve_sink(explicit) is explicit

    def test_emit_run_skips_disabled_sink(self):
        emit_run(None, _run())  # ambient null: must be a no-op
        emit_event(NullSink(), CacheHit(count=5))


class TestBaseSink:
    def test_materializes_blocks_into_scalar_events(self):
        seen = []

        class Probe(Sink):
            def emit(self, event):
                seen.append(event.kind)

        _run().emit_to(Probe())
        assert seen.count("arrival") == 6
        assert seen.count("dispatch") == 2
        assert seen.count("complete") == 6
        assert seen[0] == "run_start" and seen[-1] == "run_end"


class TestStatsSink:
    def test_counts_match_materialized_view(self):
        stats = StatsSink()
        naive = []

        class Probe(Sink):
            def emit(self, event):
                naive.append(event.kind)

        run = _run()
        run.emit_to(stats)
        run.emit_to(Probe())
        for kind, count in stats.counts.items():
            assert count == naive.count(kind), kind

    def test_run_summary(self):
        stats = StatsSink()
        _run().emit_to(stats)
        (summary,) = stats.runs
        assert summary["kind"] == "stream"
        assert summary["name"] == "probe"
        assert summary["n_queries"] == 6
        assert summary["n_batches"] == 2
        assert summary["max_queue_depth"] >= 1

    def test_peak_queue_matches_derive_on_a_stream_run(self):
        capture = CaptureSink()
        serve_stream(CURVES[A100_SXM4_80GB.name], FLASH, policy=BATCHER,
                     sink=capture)
        (run,) = capture.runs
        assert _peak_queue(run) == max_queue_depth(run) > 1
        assert max_queue_depth(run) == _timeline_peak(run)

    @pytest.mark.parametrize("policy", list(ROUTING_POLICIES))
    def test_peak_queue_matches_derive_on_a_fleet_run(self, policy):
        """The peak counts the queues of every replica together."""
        fleet = FleetSpec.mixed(
            {A100_SXM4_80GB: 2, H100_NVL: 2}, batching=BATCHER
        )
        capture = CaptureSink()
        simulate_fleet_stream(fleet, CURVES, FLASH, policy=policy,
                              sink=capture)
        (run,) = capture.runs
        assert _peak_queue(run) == max_queue_depth(run) > 1
        assert max_queue_depth(run) == _timeline_peak(run)

    def test_cache_totals(self):
        stats = StatsSink()
        stats.emit(CacheHit(count=10))
        stats.emit(CacheMiss(count=4))
        stats.emit(HostFetch(rows=4, bytes=2048, us=11.0))
        assert stats.cache["hits"] == 10
        assert stats.cache["misses"] == 4
        assert stats.cache["host_bytes"] == 2048

    def test_render_mentions_runs_and_cache(self):
        stats = StatsSink()
        _run().emit_to(stats)
        stats.emit(CacheHit(count=1))
        text = stats.render()
        assert "stream:probe" in text
        assert "cache:" in text


class TestMultiSink:
    def test_fans_out_events_and_blocks(self):
        a, b = StatsSink(), StatsSink()
        _run().emit_to(MultiSink(a, b))
        assert a.counts == b.counts
        assert a.counts["arrival"] == 6


class TestConsoleSink:
    def test_prints_one_line_per_run(self):
        out = io.StringIO()
        console = ConsoleSink(out)
        _run().emit_to(console)
        console.close()
        assert "stream:probe" in out.getvalue()


class TestRecorderSink:
    def test_header_records_footer(self):
        buf = io.StringIO()
        recorder = RecorderSink(buf)
        recorder.emit(RunStart(meta={"kind": "stream"}))
        recorder.emit(RunEnd())
        recorder.close()
        lines = [json.loads(s) for s in buf.getvalue().splitlines()]
        assert lines[0] == {
            "k": "telemetry",
            "schema": SCHEMA_VERSION,
            "format": "repro-telemetry",
        }
        assert lines[-1] == {"k": "end", "records": 2}

    def test_blocks_written_as_columns_not_events(self):
        buf = io.StringIO()
        recorder = RecorderSink(buf)
        _run().emit_to(recorder)
        recorder.close()
        kinds = [
            json.loads(s).get("k") for s in buf.getvalue().splitlines()
        ]
        # 2 scalar events + 2 blocks, not thousands of lines
        assert kinds == ["telemetry", "e", "b", "b", "e", "end"]

    def test_close_is_idempotent(self):
        buf = io.StringIO()
        recorder = RecorderSink(buf)
        recorder.close()
        recorder.close()
        assert buf.getvalue().count('"end"') == 1

    def test_writes_to_path(self, tmp_path):
        path = tmp_path / "rec.jsonl"
        with RecorderSink(str(path)) as recorder:
            recorder.emit(RunStart(meta={}))
        content = path.read_text()
        assert content.startswith('{"k":"telemetry"')
        assert '"end"' in content
