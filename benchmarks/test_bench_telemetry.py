"""Telemetry overhead guardrail: recording must stay near-free.

The column-block design is what makes an attached recorder cheap: one
``serve_stream`` call emits two blocks (plus run markers), not one
line per query.  This bench records the flash-crowd golden scenario's
run with the recorder + stats sink and bounds that cost against
base64-encoding the run's columns in the same process — a base the
serving loop's speed cannot move, so a faster loop never fails the
guard while the recorder is unchanged.

It also leaves ``telemetry-scenario.jsonl`` behind (a recorded
fixed-vs-continuous scenario run that replays field-identical); CI
uploads it as a workflow artifact.
"""

from __future__ import annotations

import base64
import io
import time

import numpy as np

from repro.core.serving import BatchingPolicy, ContinuousBatching, serve_stream
from repro.telemetry.replay import replay_reports
from repro.telemetry.sinks import (
    CaptureSink,
    MultiSink,
    RecorderSink,
    StatsSink,
    emit_run,
)
from repro.traffic import generate_arrivals, scenario_profile

#: Allowed cost of recording a run (recorder + stats sink), as a
#: multiple of base64-encoding the run's in-memory columns.  The same
#: recorder measured 0.83-1.28x (median 0.90x, 50 runs) on a noisy
#: 2-core box; the budget is that worst run plus 0.10.
RECORD_BUDGET = 1.38
ARTIFACT = "telemetry-scenario.jsonl"


def _toy_model(batch: int) -> float:
    return 10.0 + 0.01 * batch


def _stream():
    return generate_arrivals(
        scenario_profile("flash", base_qps=2500, duration_s=6.0), seed=7
    )


def _serve(stream, sink=None):
    return serve_stream(
        _toy_model, stream,
        policy=ContinuousBatching(max_batch=256, sla_ms=30.0),
        sla_ms=30.0, sink=sink,
    )


def _interleaved_best(fn_a, fn_b, rounds: int) -> tuple[float, float]:
    """Best-of timings taken alternately, so clock drift and cache
    warmth hit both sides equally."""
    best_a = best_b = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn_a()
        best_a = min(best_a, time.perf_counter() - start)
        start = time.perf_counter()
        fn_b()
        best_b = min(best_b, time.perf_counter() - start)
    return best_a, best_b


def test_recorder_overhead_within_budget():
    stream = _stream()
    capture = CaptureSink()
    _serve(stream, sink=capture)
    (run,) = capture.runs
    columns = [
        np.ascontiguousarray(column) for column in (
            run.arrivals.times, run.arrivals.phase_ids,
            run.batches.starts, run.batches.exec_s, run.batches.sizes,
        )
    ]

    def encode():
        for column in columns:
            base64.b64encode(column.data)

    def record():
        recorder = RecorderSink(io.StringIO())
        emit_run(MultiSink(recorder, StatsSink()), run)
        recorder.close()

    encode_s, record_s = _interleaved_best(encode, record, rounds=101)
    ratio = record_s / encode_s
    n = len(run.arrivals.times)
    print(
        f"\ntelemetry overhead: recording {record_s / n * 1e9:.1f} "
        f"ns/arrival, base64 of the columns {encode_s / n * 1e9:.1f} "
        f"ns/arrival ({ratio:.3f}x)"
    )
    assert ratio <= RECORD_BUDGET, (
        f"recording a run costs {ratio:.2f}x base64 of its columns "
        f"(> {RECORD_BUDGET:.2f}x budget)"
    )


def test_detached_report_identical_to_attached():
    """Telemetry must observe, never perturb: same report either way."""
    stream = _stream()
    detached = _serve(stream)
    buffer = io.StringIO()
    recorder = RecorderSink(buffer)
    attached = _serve(stream, sink=MultiSink(recorder, StatsSink()))
    recorder.close()
    assert attached == detached
    # and the recording folds back into that very report
    (replayed,) = replay_reports(io.StringIO(buffer.getvalue()))
    assert replayed == detached


def test_record_scenario_artifact():
    """Record the fixed-vs-continuous scenario pair for the CI artifact."""
    stream = _stream()
    with RecorderSink(ARTIFACT) as recorder:
        sink = MultiSink(recorder, StatsSink())
        fixed = serve_stream(
            _toy_model, stream,
            policy=BatchingPolicy(max_batch=256, timeout_ms=5.0),
            sla_ms=30.0, sink=sink,
        )
        continuous = _serve(stream, sink=sink)
    replayed = replay_reports(ARTIFACT)
    assert replayed == [fixed, continuous]
    print(f"\nrecorded {recorder.records} records -> {ARTIFACT}")
