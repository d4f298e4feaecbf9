"""Property-based invariants for fleet placement and routing.

Randomized (hypothesis) checks of the structural guarantees the fleet
layer must never lose, whatever the workload:

* placement — every table instance in the mix lands on exactly one
  GPU, no instance is dropped or duplicated; on identical GPUs the
  placer is classic heap LPT, shard for shard;
* routing — conservation: every request that enters the router is
  served exactly once (after the final drain nothing is left in
  flight), whatever the routing policy and the replicas' batcher;
* policies, on the router's flat per-replica lists — JSQ never picks
  a replica whose queue is strictly longer than another's;
  power-of-two never picks the strictly longer of its two candidates,
  and its pairs are distinct replicas, uniform over ordered pairs;
  least-latency picks the minimum predicted completion, lowest index
  on ties.

``derandomize=True`` keeps CI deterministic (hypothesis still explores
the space, from a fixed seed).
"""

import heapq

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.serving import BatchingPolicy, ContinuousBatching
from repro.fleet.placement import hetero_lpt_shard
from repro.fleet.router import (
    JoinShortestQueuePolicy,
    LeastLatencyPolicy,
    PowerOfTwoPolicy,
    RouterState,
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


def _heap_lpt(table_times, mix, n_gpus):
    """Classic LPT on identical machines: longest first, each to the
    least-loaded GPU (lowest index on equal loads)."""
    tables = [name for name, count in mix.items() for _ in range(count)]
    tables.sort(key=lambda name: table_times[name], reverse=True)
    heap = [(0.0, gpu) for gpu in range(n_gpus)]
    placement: list[list[str]] = [[] for _ in range(n_gpus)]
    for name in tables:
        load, gpu = heapq.heappop(heap)
        placement[gpu].append(name)
        heapq.heappush(heap, (load + table_times[name], gpu))
    return placement


@given(
    mix=st.dictionaries(_table_names, st.integers(1, 40), min_size=1),
    n_gpus=st.integers(1, 9),
    data=st.data(),
)
@settings(**SETTINGS)
def test_identical_gpus_place_like_heap_lpt(mix, n_gpus, data):
    # integer-valued times keep every load sum exact, so the placer's
    # min(load + t) and the heap's min(load) cannot split on rounding
    table_times = {
        name: float(data.draw(st.integers(0, 5000), label=f"time[{name}]"))
        for name in mix
    }
    placement = hetero_lpt_shard({"g": table_times}, mix, ["g"] * n_gpus)
    assert placement == _heap_lpt(table_times, mix, n_gpus)


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


#: arrival lists for routed streams (sorted by :class:`_Stream`)
arrival_times = st.lists(
    st.floats(0.0, 30.0, allow_nan=False, allow_infinity=False),
    min_size=1, max_size=400,
)


@given(
    times=arrival_times,
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
# policies: what each picks from the router's lists
# ----------------------------------------------------------------------
def _state(depths, frees, works=None):
    state = RouterState(len(depths))
    state.depth[:] = depths
    state.free[:] = frees
    if works is not None:
        state.work[:] = works
    return state


def _backlog(state, r, now):
    return max(state.free[r] - now, 0.0)


#: GPU-free times on a coarse grid around ``now = 1.0``, so equal
#: backlogs (idle replicas, equal free times) come up often
_free_times = st.integers(0, 10).map(lambda i: 0.25 * i)


@given(
    queue_lens=st.lists(st.integers(0, 50), min_size=1, max_size=8),
    backlogs=st.data(),
)
@settings(**SETTINGS)
def test_jsq_never_picks_strictly_longer_queue(queue_lens, backlogs):
    frees = [
        backlogs.draw(
            st.floats(0.0, 5.0, allow_nan=False), label=f"gpu_free[{i}]"
        )
        for i in range(len(queue_lens))
    ]
    state = _state(queue_lens, frees)
    policy = JoinShortestQueuePolicy()
    policy.start(len(queue_lens), 1, np.random.default_rng(0))
    chosen = policy.select(state, 1.0, 0)
    assert state.depth[chosen] == min(queue_lens)
    # ties: the smaller backlog, then the lower index
    assert (queue_lens[chosen], _backlog(state, chosen, 1.0), chosen) == min(
        (queue_lens[r], _backlog(state, r, 1.0), r)
        for r in range(len(queue_lens))
    )


@given(
    n_replicas=st.integers(1, 8),
    data=st.data(),
    seed=st.integers(0, 2**31 - 1),
)
@settings(**SETTINGS)
def test_power_of_two_never_picks_strictly_longer_candidate(
    n_replicas, data, seed
):
    depths = data.draw(
        st.lists(st.integers(0, 3), min_size=n_replicas,
                 max_size=n_replicas), label="depths",
    )
    frees = data.draw(
        st.lists(_free_times, min_size=n_replicas, max_size=n_replicas),
        label="frees",
    )
    state = _state(depths, frees)
    policy = PowerOfTwoPolicy()
    n_arrivals = 64
    assert policy.start(
        n_replicas, n_arrivals, np.random.default_rng(seed)
    ) is None
    for k in range(n_arrivals):
        a, b = policy.first[k], policy.second[k]
        chosen = policy.select(state, 1.0, k)
        assert chosen in (a, b)
        other = b if chosen == a else a
        assert depths[chosen] <= depths[other]
        key = lambda r: (depths[r], _backlog(state, r, 1.0))
        # ties in (depth, backlog) go to the first candidate
        assert chosen == (a if key(a) <= key(b) else b)


@given(
    n_replicas=st.integers(1, 8),
    data=st.data(),
    now=st.sampled_from([0.0, 1.0, 2.5]),
)
@settings(**SETTINGS)
def test_least_latency_picks_minimum_predicted_completion(
    n_replicas, data, now
):
    frees = data.draw(
        st.lists(_free_times, min_size=n_replicas, max_size=n_replicas),
        label="frees",
    )
    works = data.draw(
        st.lists(st.sampled_from([0.004, 0.0055, 0.25, 1.0]),
                 min_size=n_replicas, max_size=n_replicas),
        label="works",
    )
    state = _state([0] * n_replicas, frees, works)
    chosen = LeastLatencyPolicy().select(state, now, 0)
    completion = [
        _backlog(state, r, now) + works[r] for r in range(n_replicas)
    ]
    assert completion[chosen] == min(completion)
    assert chosen == completion.index(min(completion))


#: a pair's count may stray this many binomial standard deviations
#: from its expectation (fixed in advance; at most 56 pairs per size,
#: so a false alarm has probability below 1e-4 per run)
_PAIR_Z = 5.0


@pytest.mark.parametrize("n_replicas", [2, 3, 8])
def test_power_of_two_pairs_are_distinct_and_uniform(n_replicas):
    n_arrivals = 60_000
    policy = PowerOfTwoPolicy()
    policy.start(n_replicas, n_arrivals, np.random.default_rng([7, 0x617]))
    first = np.asarray(policy.first)
    second = np.asarray(policy.second)
    assert len(first) == len(second) == n_arrivals
    assert np.all((first >= 0) & (first < n_replicas))
    assert np.all((second >= 0) & (second < n_replicas))
    assert not np.any(first == second)
    counts = np.zeros((n_replicas, n_replicas), dtype=np.int64)
    np.add.at(counts, (first, second), 1)
    p = 1.0 / (n_replicas * (n_replicas - 1))
    mean = n_arrivals * p
    bound = _PAIR_Z * np.sqrt(n_arrivals * p * (1.0 - p))
    off_diagonal = ~np.eye(n_replicas, dtype=bool)
    assert np.all(np.abs(counts[off_diagonal] - mean) <= bound), counts
