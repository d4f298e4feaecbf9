"""Property-based invariants for fleet placement and routing.

Randomized (hypothesis) checks of the structural guarantees the fleet
layer must never lose, whatever the workload:

* placement — every table instance in the mix lands on exactly one
  GPU, no instance is dropped or duplicated;
* routing — conservation: every request that enters the router is
  served exactly once (after the final drain nothing is left in
  flight), whatever the routing policy and the replicas' batcher;
* JSQ — never picks a replica whose queue is strictly longer than
  another's.

``derandomize=True`` keeps CI deterministic (hypothesis still explores
the space, from a fixed seed).
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.serving import BatchingPolicy, ContinuousBatching
from repro.fleet.placement import hetero_lpt_shard
from repro.fleet.router import (
    JoinShortestQueuePolicy,
    _ReplicaState,
    simulate_fleet,
    simulate_fleet_stream,
)
from repro.fleet.topology import FleetSpec, ReplicaSpec
from repro.config.gpu import A100_SXM4_80GB, H100_NVL

SETTINGS = dict(max_examples=40, deadline=None, derandomize=True)

# ----------------------------------------------------------------------
# placement: every table placed exactly once
# ----------------------------------------------------------------------
_table_names = st.sampled_from(
    ["high_hot", "med_hot", "low_hot", "random", "one_item"]
)
_mixes = st.dictionaries(_table_names, st.integers(1, 5), min_size=1)
_gpu_lists = st.lists(
    st.sampled_from(["A100", "H100", "L4"]), min_size=1, max_size=5
)


@given(mix=_mixes, gpus=_gpu_lists, data=st.data())
@settings(**SETTINGS)
def test_every_table_placed_exactly_once(mix, gpus, data):
    table_times = {
        gpu: {
            name: data.draw(
                st.floats(0.5, 500.0, allow_nan=False),
                label=f"time[{gpu}][{name}]",
            )
            for name in mix
        }
        for gpu in set(gpus)
    }
    placement = hetero_lpt_shard(table_times, mix, gpus)
    assert len(placement) == len(gpus)
    placed: dict[str, int] = {}
    for shard in placement:
        for table in shard:
            placed[table] = placed.get(table, 0) + 1
    assert placed == dict(mix)


# ----------------------------------------------------------------------
# routing: conservation (in == served after drain), any policy
# ----------------------------------------------------------------------
class _Stream:
    """Minimal ScenarioTrace-shaped stream for arbitrary arrival lists."""

    def __init__(self, times):
        self.name = "prop"
        self.times = np.asarray(sorted(times), dtype=float)
        self.phase_ids = np.zeros(len(times), dtype=np.int64)
        self.phases = ("steady",)
        self.duration_s = float(self.times[-1]) + 1.0
        self.phase_durations = (self.duration_s,)


def _batching(batcher, max_batch, timeout_ms):
    if batcher == "size-or-timeout":
        return BatchingPolicy(max_batch=max_batch, timeout_ms=timeout_ms)
    if batcher == "continuous":
        return ContinuousBatching(max_batch=max_batch)
    return ContinuousBatching(max_batch=max_batch, sla_ms=10.0)


def _fleet(n_replicas, max_batch, timeout_ms, batcher="size-or-timeout"):
    gpus = [A100_SXM4_80GB, H100_NVL]
    return FleetSpec(
        name=f"prop{n_replicas}",
        replicas=tuple(
            ReplicaSpec(
                name=f"r{i}",
                gpu=gpus[i % 2],
                batching=_batching(batcher, max_batch, timeout_ms),
            )
            for i in range(n_replicas)
        ),
    )


_MODELS = {
    A100_SXM4_80GB.name: lambda b: 2.0 + 0.05 * b,
    H100_NVL.name: lambda b: 1.2 + 0.03 * b,
}


@given(
    times=st.lists(
        st.floats(0.0, 30.0, allow_nan=False, allow_infinity=False),
        min_size=1, max_size=400,
    ),
    n_replicas=st.integers(1, 4),
    max_batch=st.integers(1, 64),
    timeout_ms=st.floats(0.0, 20.0),
    policy=st.sampled_from(
        ["round-robin", "jsq", "power-of-two", "least-latency"]
    ),
    seed=st.integers(0, 2**31 - 1),
    batcher=st.sampled_from(
        ["size-or-timeout", "continuous", "continuous-sla"]
    ),
)
@settings(**SETTINGS)
def test_router_conserves_requests(
    times, n_replicas, max_batch, timeout_ms, policy, seed, batcher
):
    stream = _Stream(times)
    fleet = _fleet(n_replicas, max_batch, timeout_ms, batcher)
    report = simulate_fleet_stream(
        fleet, _MODELS, stream, policy=policy, seed=seed,
    )
    # in == completed + in-flight, and after the final drain nothing is
    # in flight: every arrival was served exactly once, somewhere
    assert report.n_queries == len(times)
    assert sum(r.n_queries for r in report.replica_reports) == len(times)
    # latency is physical: at least one batch execution per query
    min_exec_ms = min(model(1) for model in _MODELS.values())
    assert report.p50_ms >= min_exec_ms - 1e-9


@given(
    qps=st.floats(10.0, 5000.0),
    duration_s=st.floats(0.1, 3.0),
    policy=st.sampled_from(
        ["round-robin", "jsq", "power-of-two", "least-latency"]
    ),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=20, deadline=None, derandomize=True)
def test_poisson_router_conserves_requests(qps, duration_s, policy, seed):
    fleet = _fleet(3, 64, 5.0)
    report = simulate_fleet(
        fleet, _MODELS, qps=qps, duration_s=duration_s, policy=policy,
        seed=seed,
    )
    expected = max(1, int(qps * duration_s))
    assert report.n_queries == expected
    assert sum(r.n_queries for r in report.replica_reports) == expected


# ----------------------------------------------------------------------
# JSQ: never picks a strictly longer queue
# ----------------------------------------------------------------------
@given(
    queue_lens=st.lists(st.integers(0, 50), min_size=1, max_size=8),
    backlogs=st.data(),
)
@settings(**SETTINGS)
def test_jsq_never_picks_strictly_longer_queue(queue_lens, backlogs):
    states = []
    for i, qlen in enumerate(queue_lens):
        state = _ReplicaState(
            ReplicaSpec(name=f"r{i}", gpu=A100_SXM4_80GB),
            _MODELS[A100_SXM4_80GB.name],
        )
        for k in range(qlen):
            state.enqueue(0.01 * k)
        state.gpu_free = backlogs.draw(
            st.floats(0.0, 5.0, allow_nan=False), label=f"gpu_free[{i}]"
        )
        states.append(state)
    policy = JoinShortestQueuePolicy()
    policy.reset(len(states))
    chosen = policy.select(states, now=1.0, rng=np.random.default_rng(0))
    assert states[chosen].queue_len() == min(queue_lens)
