"""Differential: the fleet router against its per-replica-object reference.

:mod:`tests.fleet.reference_router` keeps the router as it was before
its state went flat: one object per replica, one Python key per
replica per arrival.  The router must reproduce it exactly — every
replica's batch columns (``starts``, ``exec_s``, ``sizes``) and its
routed members in order — for round-robin, jsq and least-latency, on
every scenario shape, under every batcher, on 1-, 3- and 8-replica
A100/H100 fleets.  Power-of-two draws its candidate pairs once per run;
fed those same pairs, the reference must agree with it too.

The grid is 5 shapes x 3 batchers x 3 fleets x 4 policies.  Each
(shape, batcher) pair runs on one fleet size in the default suite,
picked so every fleet size appears; the rest of the grid and the long
hypothesis run are the extended set, skipped unless
``REPRO_FUZZ_FULL=1`` (CI runs them in a dedicated step).

Both router paths fill the replicas' queues and drain them through the
one serving event loop (``core.serving._Timeline``); the reference
commits each batch with the size its own per-enqueue decision gave.

A second differential pins the pending batch decision itself: at every
arrival, each replica's ``RouterState.due`` must equal the due time the
reference recomputes with a full call of the batcher's rule after
every enqueue (the ``next_batch`` in the test names).
Its grid adds three edge batchers (``max_batch=1``, ``timeout_ms=0``
and ``ContinuousBatching(max_batch=1)``) and runs the three state-aware
policies; each (shape, batcher) pair runs one fleet size and one policy
in the default suite.

A policy that declares nothing about the state it reads must get every
list kept current: re-implementing least-latency's choice in such a
policy routes batch for batch like least-latency itself.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config.gpu import A100_SXM4_80GB, H100_NVL
from repro.core.serving import BatchingPolicy, ContinuousBatching
from repro.fleet.router import (
    RoutingPolicy,
    resolve_policy,
    simulate_fleet_stream,
)
from repro.fleet.topology import FleetSpec
from repro.telemetry.sinks import CaptureSink
from repro.traffic.scenario import (
    SCENARIO_PROFILES,
    generate_arrivals,
    scenario_profile,
)
from tests.fleet.reference_router import reference_route
from tests.fleet.test_properties import (
    _Stream,
    _fleet as _random_fleet,
    arrival_times,
)

_RUN_FULL = os.environ.get("REPRO_FUZZ_FULL", "") == "1"
SLA_MS = 30.0
#: small batch caps and a tight adaptive SLA, so the bursts fill
#: batches and SLA pressure changes the adaptive sizes
BATCHERS = {
    "size-or-timeout": BatchingPolicy(max_batch=8, timeout_ms=5.0),
    "continuous": ContinuousBatching(max_batch=16),
    "sla-adaptive": ContinuousBatching(max_batch=16, sla_ms=12.0),
}
#: replicas -> GPU mix; A100s come first, as FleetSpec.mixed lists them
FLEETS = {
    1: {A100_SXM4_80GB: 1},
    3: {A100_SXM4_80GB: 2, H100_NVL: 1},
    8: {A100_SXM4_80GB: 4, H100_NVL: 4},
}
ROUTINGS = ("round-robin", "jsq", "least-latency", "power-of-two")
MODELS = {
    A100_SXM4_80GB.name: lambda b: 4.0 + 0.2 * b,
    H100_NVL.name: lambda b: 2.5 + 0.12 * b,
}


def _fleet(n_replicas, batching):
    return FleetSpec.mixed(FLEETS[n_replicas], batching=batching)


def _scenario(shape, n_replicas):
    # ~600 queries/s per replica: the calm phases leave headroom, the
    # bursts queue up past max_batch
    return generate_arrivals(
        scenario_profile(shape, base_qps=600.0 * n_replicas, duration_s=1.0),
        seed=23,
    )


def _route(fleet, models, stream, routing, seed=0):
    """The router's run record and the policy object it routed with."""
    policy = resolve_policy(routing)
    sink = CaptureSink()
    simulate_fleet_stream(
        fleet, models, stream, policy=policy, sla_ms=SLA_MS, seed=seed,
        sink=sink,
    )
    (run,) = sink.runs
    return run, policy


def assert_matches_reference(fleet, models, stream, routing, seed=0):
    run, policy = _route(fleet, models, stream, routing, seed)
    # power-of-two: the reference compares the router's own pairs
    pairs = (
        list(zip(policy.first, policy.second))
        if routing == "power-of-two" else None
    )
    expected = reference_route(
        fleet, models, stream.times, stream.phase_ids, routing,
        seed=seed, pairs=pairs,
    )
    assert len(run.replicas) == len(expected)
    for block, replica in zip(run.replicas, expected):
        assert block.replica == replica.spec.name
        for column, want in (
            ("starts", replica.batch_starts),
            ("exec_s", replica.batch_exec),
            ("sizes", replica.batch_sizes),
            ("member_times", replica.times),
            ("member_phases", replica.phases),
        ):
            np.testing.assert_array_equal(
                getattr(block, column), np.asarray(want),
                err_msg=f"{block.replica} {column}",
            )


def _grid():
    shapes = list(SCENARIO_PROFILES)
    fleet_sizes = list(FLEETS)
    for s, shape in enumerate(shapes):
        for b, batcher in enumerate(BATCHERS):
            smoke_fleet = fleet_sizes[(s + b) % len(fleet_sizes)]
            for n_replicas in fleet_sizes:
                for routing in ROUTINGS:
                    marks = []
                    if n_replicas != smoke_fleet:
                        marks.append(pytest.mark.fuzz_extended)
                        if not _RUN_FULL:
                            marks.append(pytest.mark.skip(
                                reason="extended router differential; "
                                       "set REPRO_FUZZ_FULL=1"
                            ))
                    yield pytest.param(
                        shape, batcher, n_replicas, routing,
                        id=f"{shape}-{batcher}-{n_replicas}x-{routing}",
                        marks=marks,
                    )


@pytest.mark.parametrize("shape, batcher, n_replicas, routing", _grid())
def test_router_matches_reference(shape, batcher, n_replicas, routing):
    assert_matches_reference(
        _fleet(n_replicas, BATCHERS[batcher]), MODELS,
        _scenario(shape, n_replicas), routing, seed=3,
    )


class _LeastLatencyLookalike(RoutingPolicy):
    """least-latency's choice, re-implemented by a policy that declares
    nothing about the state it reads."""

    name = "least-latency-lookalike"

    def select(self, state, now, k):
        completion = [
            max(free - now, 0.0) + work
            for free, work in zip(state.free, state.work)
        ]
        return completion.index(min(completion))


@pytest.mark.parametrize("shape, batcher, n_replicas", [
    (shape, batcher, list(FLEETS)[(s + b) % len(FLEETS)])
    for s, shape in enumerate(SCENARIO_PROFILES)
    for b, batcher in enumerate(BATCHERS)
])
def test_undeclared_policy_sees_current_work(shape, batcher, n_replicas):
    """A policy that declares nothing gets every list kept current, so
    re-implementing least-latency routes batch for batch like it."""
    fleet = _fleet(n_replicas, BATCHERS[batcher])
    stream = _scenario(shape, n_replicas)
    lookalike, _ = _route(fleet, MODELS, stream, _LeastLatencyLookalike())
    builtin, _ = _route(fleet, MODELS, stream, "least-latency")
    for got, want in zip(lookalike.replicas, builtin.replicas, strict=True):
        for column in ("starts", "exec_s", "sizes", "member_times"):
            np.testing.assert_array_equal(
                getattr(got, column), getattr(want, column),
                err_msg=f"{got.replica} {column}",
            )


# the property suite's random fleets (A100/H100 alternating, 1..8
# replicas) on its stream strategy; the A100 curve crosses the suite's
# 10 ms adaptive SLA at 13 queries, inside the drawn batch caps
_RANDOM_MODELS = {
    A100_SXM4_80GB.name: lambda b: 4.0 + 0.5 * b,
    H100_NVL.name: lambda b: 2.5 + 0.3 * b,
}
_cases = dict(
    times=arrival_times,
    n_replicas=st.integers(1, 8),
    max_batch=st.integers(1, 16),
    timeout_ms=st.floats(0.0, 20.0),
    routing=st.sampled_from(ROUTINGS),
    batcher=st.sampled_from(
        ["size-or-timeout", "continuous", "continuous-sla"]
    ),
    seed=st.integers(0, 2**31 - 1),
)


def _check_random_case(times, n_replicas, max_batch, timeout_ms, routing,
                       batcher, seed):
    fleet = _random_fleet(n_replicas, max_batch, timeout_ms, batcher)
    assert_matches_reference(fleet, _RANDOM_MODELS, _Stream(times), routing,
                             seed=seed)


@given(**_cases)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_router_matches_reference_on_random_streams(**case):
    _check_random_case(**case)


@pytest.mark.fuzz_extended
@pytest.mark.skipif(not _RUN_FULL,
                    reason="extended router differential; "
                           "set REPRO_FUZZ_FULL=1")
@given(**_cases)
@settings(max_examples=400, deadline=None, derandomize=True)
def test_router_matches_reference_on_random_streams_extended(**case):
    _check_random_case(**case)


# ----------------------------------------------------------------------
# the pending decision: RouterState.due against a full decision per
# enqueue
# ----------------------------------------------------------------------
#: the batchers above plus the edge cases of the decision: every arrival
#: fills its batch, the timeout expires on arrival, and a continuous
#: batch of one
DUE_BATCHERS = {
    **BATCHERS,
    "max-batch-1": BatchingPolicy(max_batch=1, timeout_ms=5.0),
    "timeout-0": BatchingPolicy(max_batch=8, timeout_ms=0.0),
    "continuous-1": ContinuousBatching(max_batch=1),
}
STATE_AWARE = ("jsq", "least-latency", "power-of-two")


class _RecordDue(RoutingPolicy):
    """Routes like ``policy`` and keeps a copy of ``RouterState.due`` as
    each arrival finds it."""

    def __init__(self, policy):
        self.policy = policy
        self.name = policy.name
        self.reads_work = policy.reads_work
        self.dues = []

    def start(self, n_replicas, n_arrivals, rng):
        return self.policy.start(n_replicas, n_arrivals, rng)

    def select(self, state, now, k):
        self.dues.append(list(state.due))
        return self.policy.select(state, now, k)


def assert_due_matches_reference(fleet, models, stream, routing, seed=0):
    recorder = _RecordDue(resolve_policy(routing))
    simulate_fleet_stream(fleet, models, stream, policy=recorder,
                          sla_ms=SLA_MS, seed=seed, sink=CaptureSink())
    policy = recorder.policy
    pairs = (
        list(zip(policy.first, policy.second))
        if routing == "power-of-two" else None
    )
    expected = []
    reference_route(
        fleet, models, stream.times, stream.phase_ids, routing,
        seed=seed, pairs=pairs, dues=expected,
    )
    assert len(recorder.dues) == len(expected) == len(stream.times)
    for k, (got, want) in enumerate(zip(recorder.dues, expected)):
        assert got == want, (
            f"arrival {k} at {stream.times[k]!r} s: router due {got}, "
            f"full decision after every enqueue {want}"
        )


def _due_grid():
    shapes = list(SCENARIO_PROFILES)
    fleet_sizes = list(FLEETS)
    for s, shape in enumerate(shapes):
        for b, batcher in enumerate(DUE_BATCHERS):
            smoke = (fleet_sizes[(s + b) % len(fleet_sizes)],
                     STATE_AWARE[(s + 2 * b) % len(STATE_AWARE)])
            for n_replicas in fleet_sizes:
                for routing in STATE_AWARE:
                    marks = []
                    if (n_replicas, routing) != smoke:
                        marks.append(pytest.mark.fuzz_extended)
                        if not _RUN_FULL:
                            marks.append(pytest.mark.skip(
                                reason="extended router differential; "
                                       "set REPRO_FUZZ_FULL=1"
                            ))
                    yield pytest.param(
                        shape, batcher, n_replicas, routing,
                        id=f"{shape}-{batcher}-{n_replicas}x-{routing}",
                        marks=marks,
                    )


@pytest.mark.parametrize("shape, batcher, n_replicas, routing",
                         _due_grid())
def test_router_due_matches_next_batch(shape, batcher, n_replicas, routing):
    assert_due_matches_reference(
        _fleet(n_replicas, DUE_BATCHERS[batcher]), MODELS,
        _scenario(shape, n_replicas), routing, seed=3,
    )


_due_cases = dict(_cases, routing=st.sampled_from(STATE_AWARE))


def _check_random_due_case(times, n_replicas, max_batch, timeout_ms,
                           routing, batcher, seed):
    fleet = _random_fleet(n_replicas, max_batch, timeout_ms, batcher)
    assert_due_matches_reference(fleet, _RANDOM_MODELS, _Stream(times),
                                 routing, seed=seed)


@given(**_due_cases)
@settings(max_examples=20, deadline=None, derandomize=True)
def test_router_due_matches_next_batch_on_random_streams(**case):
    _check_random_due_case(**case)


@pytest.mark.fuzz_extended
@pytest.mark.skipif(not _RUN_FULL,
                    reason="extended router differential; "
                           "set REPRO_FUZZ_FULL=1")
@given(**_due_cases)
@settings(max_examples=400, deadline=None, derandomize=True)
def test_router_due_matches_next_batch_on_random_streams_extended(**case):
    _check_random_due_case(**case)
