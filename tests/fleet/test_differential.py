"""Differential: a 1-replica fleet serves exactly like ``serve_stream``.

The single GPU and every fleet replica run one event loop
(``core.serving._Timeline``), deciding their batches with one rule (the
``decide`` of :func:`repro.core.serving.batch_rule`).  A fleet of one
replica must therefore reproduce ``serve_stream`` bit for bit — the
same batch columns, hence the same tails and goodput — under every
batcher, every routing policy and on every scenario shape.
Round-robin fills the replica's queue with the whole stream up front;
jsq, power-of-two and least-latency route it arrival by arrival,
advancing the replica to each arrival first, so both router paths are
pinned.  Beside the three everyday batchers run the
edge cases of the decision: every arrival fills its batch
(``max_batch=1``), the timeout expires on arrival (``timeout_ms=0``), a
continuous batch of one, and an SLA-adaptive batcher whose SLA is below
every one-query execution.  Two hand-built streams pin the tie rule:
in ``tie`` an arrival lands exactly when the oldest query's timeout
expires and joins that batch on both paths; ``grid`` puts arrivals on a
coarse grid, so duplicate times and ties are everywhere.
"""

import numpy as np
import pytest

from repro.config.gpu import A100_SXM4_80GB
from repro.core.serving import (
    BatchingPolicy,
    ContinuousBatching,
    serve_stream,
)
from repro.fleet.router import simulate_fleet_stream
from repro.fleet.topology import FleetSpec
from repro.telemetry.sinks import CaptureSink
from repro.traffic.scenario import (
    SCENARIO_PROFILES,
    generate_arrivals,
    scenario_profile,
)

SLA_MS = 30.0
POLICIES = {
    "size-or-timeout": BatchingPolicy(max_batch=4, timeout_ms=5.0),
    "continuous": ContinuousBatching(max_batch=64),
    "sla-adaptive": ContinuousBatching(max_batch=64, sla_ms=SLA_MS),
    "max-batch-1": BatchingPolicy(max_batch=1, timeout_ms=5.0),
    "timeout-0": BatchingPolicy(max_batch=4, timeout_ms=0.0),
    "continuous-1": ContinuousBatching(max_batch=1),
    # model(1) is 4.2 ms: no batch can meet this SLA
    "sla-below-exec": ContinuousBatching(max_batch=64, sla_ms=2.0),
}
ROUTINGS = ("round-robin", "jsq", "power-of-two", "least-latency")


def model(batch):
    return 4.0 + 0.2 * batch


class _HandStream:
    """A one-phase stream over given arrival times."""

    def __init__(self, name, times):
        self.name = name
        self.times = np.asarray(times, dtype=float)
        self.phase_ids = np.zeros(len(self.times), dtype=np.int64)
        self.phases = ("steady",)
        self.duration_s = 1.0
        self.phase_durations = (1.0,)


HAND_STREAMS = {
    # 0.005 s is exactly the first query's 5 ms timeout
    "tie": [0.0, 0.005, 0.006],
    "grid": np.sort(np.random.default_rng(5).integers(0, 400, 600)) * 2.5e-3,
}


def _stream(shape):
    if shape in HAND_STREAMS:
        return _HandStream(shape, HAND_STREAMS[shape])
    return generate_arrivals(
        scenario_profile(shape, base_qps=800, duration_s=2.0), seed=11
    )


def _cases():
    """(shape, batcher, routing); round-robin cases keep the plain
    ``shape-batcher`` id."""
    for shape in [*SCENARIO_PROFILES, *HAND_STREAMS]:
        for name, policy in POLICIES.items():
            for routing in ROUTINGS:
                suffix = "" if routing == "round-robin" else f"-{routing}"
                yield pytest.param(
                    shape, policy, routing, id=f"{shape}-{name}{suffix}",
                )


@pytest.mark.parametrize("shape, policy, routing", _cases())
def test_one_replica_fleet_is_serve_stream(shape, policy, routing):
    stream = _stream(shape)
    solo_sink, fleet_sink = CaptureSink(), CaptureSink()
    solo = serve_stream(
        model, stream, policy=policy, sla_ms=SLA_MS, sink=solo_sink,
    )
    routed = simulate_fleet_stream(
        FleetSpec.homogeneous(A100_SXM4_80GB, 1, batching=policy),
        {A100_SXM4_80GB.name: model}, stream,
        policy=routing, sla_ms=SLA_MS, sink=fleet_sink,
    )
    (solo_run,), (fleet_run,) = solo_sink.runs, fleet_sink.runs
    (replica,) = fleet_run.replicas
    for column in ("starts", "exec_s", "sizes"):
        np.testing.assert_array_equal(
            getattr(replica, column), getattr(solo_run.batches, column),
            err_msg=column,
        )
    for field in ("p50_ms", "p95_ms", "p99_ms", "goodput_qps"):
        assert getattr(routed, field) == getattr(solo, field), field
