"""Serve throughput: the single-GPU serving loop's own speed, guarded.

For each of zoo-serve's three tenants this serves the tenant's arrival
stream with the library loop (``core.serving._serve_arrays``) and with
the test-only frozen reference (``tests/core/reference_serving.py``),
interleaved in one process, and tracks the loop's speedup over the
reference.  The shapes are the benchmark's zoo-serve set-up on seed 0:
each tenant's non-stationary stream, its batcher (size-or-timeout
2048 / 5 ms for ``med_hot``, SLA-adaptive continuous batching for the
other two) and its tiered linear curve, anchored at the embedding-stage
and host-fetch times and the SLAs zoo-serve derives for seed 0.

Ratios are measured on one machine in one process, so they are stable
across hardware; ``serve_throughput_baseline.json`` pins the committed
medians and the test fails when a ratio falls more than 30% below its
committed value.
"""

import json
import statistics
import time
from pathlib import Path

import numpy as np

from perfbench.zoo_serve import (
    BASE_QPS,
    DURATION_S,
    MAX_BATCH,
    TIMEOUT_MS,
    TIMEOUT_TENANT,
    _scenario,
)
from repro.config.gpu import A100_SXM4_80GB
from repro.core.serving import (
    BatchingPolicy,
    ContinuousBatching,
    _serve_arrays,
)
from repro.fleet.capacity import linear_latency_model, tiered_latency_model
from repro.tenancy.zoo import example_zoo
from repro.traffic.scenario import derive_seed, generate_arrivals
from tests.core.reference_serving import reference_serve

BASELINE_PATH = Path(__file__).parent / "serve_throughput_baseline.json"
#: Fail when a measured ratio drops >30% below its committed baseline.
REGRESSION_TOLERANCE = 0.7
#: Interleaved (loop, reference) rounds per tenant; the speedup is the
#: median of the rounds' ratios, so a stall that hits one side of a
#: round does not move it.
ROUNDS = 7
#: embedding-stage microseconds per 2048-query batch, as zoo-serve
#: calibrates them on seed 0
EMB_US = {
    "med_hot": 51894.18318958854,
    "high_hot": 9020.030208212782,
    "low_hot": 32898.89762669979,
}
#: host-fetch microseconds per query at each tenant's arbitrated HBM
#: share (seed 0)
HOST_US = {"med_hot": 110.50666666666666, "high_hot": 0.0, "low_hot": 66.048}
#: the SLA-adaptive tenants' SLAs: three times their solo p99 (seed 0)
SLA_MS = {"high_hot": 0.3, "low_hot": 1.27}


def _tenants():
    """(name, arrival times, phase ids, per-phase curves, batcher,
    phase names) for each of zoo-serve's tenants, seed 0."""
    shapes = []
    for index, tenant in enumerate(example_zoo(len(EMB_US)).tenants):
        name = tenant.name
        curve = tiered_latency_model(
            linear_latency_model(
                A100_SXM4_80GB, emb_us=EMB_US[name],
                emb_batch=tenant.model.batch_size, model=tenant.model,
            ),
            host_us_per_query=HOST_US[name],
        )
        stream = generate_arrivals(
            _scenario(index, BASE_QPS[name], DURATION_S),
            derive_seed(0, name),
        )
        policy = (
            BatchingPolicy(MAX_BATCH, TIMEOUT_MS) if name == TIMEOUT_TENANT
            else ContinuousBatching(MAX_BATCH, sla_ms=SLA_MS[name])
        )
        shapes.append((
            name,
            np.asarray(stream.times, dtype=float),
            np.asarray(stream.phase_ids, dtype=np.int64),
            [curve] * len(stream.phases),
            policy,
            tuple(stream.phases),
        ))
    return shapes


def test_serve_throughput(benchmark):
    tenants = _tenants()

    def serve_all():
        for _, times, phase_ids, curves, policy, phases in tenants:
            _serve_arrays(times, phase_ids, curves, policy, phases)

    # the tracked trajectory metric: one serve of every tenant's stream
    benchmark.pedantic(serve_all, rounds=3, iterations=1)

    baseline = json.loads(BASELINE_PATH.read_text())
    speedups = {}
    for name, times, phase_ids, curves, policy, phases in tenants:
        block = _serve_arrays(times, phase_ids, curves, policy, phases)
        starts, _, sizes = reference_serve(times, phase_ids, curves, policy)
        assert block.sizes.tolist() == sizes
        assert block.starts.tolist() == starts
        t_loop, t_reference = [], []
        for _ in range(ROUNDS):
            start = time.perf_counter()
            _serve_arrays(times, phase_ids, curves, policy, phases)
            t_loop.append(time.perf_counter() - start)
            start = time.perf_counter()
            reference_serve(times, phase_ids, curves, policy)
            t_reference.append(time.perf_counter() - start)
        speedups[name] = statistics.median(
            ref / own for ref, own in zip(t_reference, t_loop)
        )
        n = len(times)
        loop_qps = n / min(t_loop)
        reference_qps = n / min(t_reference)
        benchmark.extra_info[f"queries_per_s.{name}"] = round(loop_qps)
        benchmark.extra_info[f"reference_queries_per_s.{name}"] = round(
            reference_qps
        )
        benchmark.extra_info[f"speedup.{name}"] = round(speedups[name], 3)
        print(
            f"\n{name}: loop {loop_qps / 1e6:.2f}M vs reference "
            f"{reference_qps / 1e6:.2f}M queries/s over {n} arrivals, "
            f"{len(block)} batches ({speedups[name]:.2f}x)"
        )

    for name, speedup in speedups.items():
        floor = baseline[name] * REGRESSION_TOLERANCE
        assert speedup >= floor, (
            f"{name} serving loop regressed: {speedup:.2f}x the reference "
            f"vs committed {baseline[name]}x (floor {floor:.2f}x)"
        )
