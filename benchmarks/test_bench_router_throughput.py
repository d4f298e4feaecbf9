"""Router throughput: the per-arrival fleet router's own speed, guarded.

For each state-aware policy (jsq, power-of-two, least-latency) this
routes one stream with the library router and with the test-only
per-replica-object reference (``tests/fleet/reference_router.py``),
interleaved in one process, and tracks the router's speedup over the
reference.  The stream is the benchmark's fleet-route shape: its MMPP
arrivals over 4xA100 + 4xH100 replicas batching size-or-timeout
(2048 / 5 ms), on linear curves anchored at the embedding-stage times
fleet-route calibrates for seed 0.  Power-of-two draws its pairs once
per run; the reference is fed the router's own pairs, as the router
differential does.

Ratios are measured on one machine in one process, so they are stable
across hardware; ``router_throughput_baseline.json`` pins the committed
medians and the test fails when a ratio falls more than 30% below its
committed value.
"""

import json
import statistics
import time
from pathlib import Path

import numpy as np

from perfbench.fleet_route import STREAM
from repro.config.gpu import A100_SXM4_80GB, H100_NVL
from repro.core.serving import BatchingPolicy
from repro.fleet.capacity import linear_latency_model
from repro.fleet.router import _route_stream, resolve_policy
from repro.fleet.topology import FleetSpec
from repro.traffic.scenario import MMPPSpec, generate_arrivals
from tests.fleet.reference_router import reference_route

BASELINE_PATH = Path(__file__).parent / "router_throughput_baseline.json"
#: Fail when a measured ratio drops >30% below its committed baseline.
REGRESSION_TOLERANCE = 0.7
#: Interleaved (router, reference) rounds per policy; the speedup is
#: the median of the rounds' ratios, so a stall that hits one side of a
#: round does not move it.
ROUNDS = 7
POLICIES = ("jsq", "power-of-two", "least-latency")
#: embedding-stage microseconds per 2048-query batch, as fleet-route
#: calibrates them on seed 0
EMB_US = {A100_SXM4_80GB: 43140.0, H100_NVL: 31048.2}


def test_router_throughput(benchmark):
    fleet = FleetSpec.mixed(
        {A100_SXM4_80GB: 4, H100_NVL: 4},
        batching=BatchingPolicy(max_batch=2048, timeout_ms=5.0),
    )
    models = {
        gpu.name: linear_latency_model(gpu, emb_us=us, emb_batch=2048)
        for gpu, us in EMB_US.items()
    }
    stream = generate_arrivals(MMPPSpec(**STREAM), 0)
    times = np.asarray(stream.times, dtype=float)
    phase_ids = np.asarray(stream.phase_ids, dtype=np.int64)
    phases = tuple(stream.phases)
    n = len(times)

    def route(policy):
        return _route_stream(fleet, models, times, phase_ids, phases,
                             policy=policy, seed=0)

    # the tracked trajectory metric: one jsq routing of the stream
    benchmark.pedantic(lambda: route("jsq"), rounds=3, iterations=1)

    baseline = json.loads(BASELINE_PATH.read_text())
    speedups = {}
    for name in POLICIES:
        _, policy = route(resolve_policy(name))
        pairs = (
            list(zip(policy.first, policy.second))
            if name == "power-of-two" else None
        )
        t_router, t_reference = [], []
        for _ in range(ROUNDS):
            start = time.perf_counter()
            route(name)
            t_router.append(time.perf_counter() - start)
            start = time.perf_counter()
            reference_route(fleet, models, times, phase_ids, name,
                            pairs=pairs)
            t_reference.append(time.perf_counter() - start)
        speedups[name] = statistics.median(
            ref / own for ref, own in zip(t_reference, t_router)
        )
        router_qps = n / min(t_router)
        reference_qps = n / min(t_reference)
        benchmark.extra_info[f"queries_per_s.{name}"] = round(router_qps)
        benchmark.extra_info[f"reference_queries_per_s.{name}"] = round(
            reference_qps
        )
        benchmark.extra_info[f"speedup.{name}"] = round(speedups[name], 3)
        print(
            f"\n{name}: router {router_qps / 1e3:.0f}k vs reference "
            f"{reference_qps / 1e3:.0f}k queries/s over {n} arrivals "
            f"({speedups[name]:.2f}x)"
        )

    for name, speedup in speedups.items():
        floor = baseline[name] * REGRESSION_TOLERANCE
        assert speedup >= floor, (
            f"{name} router regressed: {speedup:.2f}x the reference vs "
            f"committed {baseline[name]}x (floor {floor:.2f}x)"
        )
