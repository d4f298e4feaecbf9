"""Engine throughput: the simulator's own speed, guarded over time.

Unlike the figure benchmarks (which regenerate paper results and record
their wall-clock into the pytest-benchmark JSON trajectory), this file
benchmarks the *simulator machinery* on one realistic embedding-bag
launch:

* ``compiled`` — lowering the launch with ``build_trace`` and running it
  on ``run_kernel``, the library's one executor (tracked metric:
  micro-ops/second, so future changes can't silently regress the
  engine); the lowering is also timed on its own (recorded, not
  gated),
* ``reference`` — the test-only generator-driven executor in
  ``tests/gpusim/reference_engine.py`` on the same launch: a fixed
  pure-Python yardstick timed in the same process, interleaved with
  the compiled runs,
* ``memo`` — a repeated identical launch answered by the kernel memo.

A *sweep* here means what the harness and the fleet planners actually
do: the same launch evaluated N times (figure reuse, capacity grids,
autoscaler steps).  Its speedup is composed from the measured parts::

    sweep_speedup = N * t_reference / (t_cold + (N - 1) * t_memo_hit)

Ratios are measured on one machine in one process, so they are stable
across hardware; ``engine_throughput_baseline.json`` pins the committed
expectations and the test fails when a ratio falls more than 30% below
its committed value.
"""

import json
import time
from pathlib import Path

from repro.config.gpu import A100_SXM4_80GB
from repro.config.scale import SimScale
from repro.core.embedding import kernel_workload, run_table_kernel
from repro.core.schemes import Scheme
from repro.datasets.generator import generate_trace
from repro.datasets.spec import HOTNESS_PRESETS
from repro.gpusim.engine import run_kernel
from repro.gpusim.hierarchy import MemoryHierarchy
from repro.gpusim.memo import KernelMemo
from repro.kernels import calibration as cal
from repro.kernels.address_map import STREAMING_RANGE, AddressMap
from repro.kernels.embedding_bag import build_trace
from tests.gpusim.reference_engine import build_programs, run_reference

BASELINE_PATH = Path(__file__).parent / "engine_throughput_baseline.json"
#: Fail when a measured ratio drops >30% below its committed baseline.
REGRESSION_TOLERANCE = 0.7
#: Launches per simulated sweep (cold + warm repeats).
SWEEP_LAUNCHES = 5

DATASET = "med_hot"
SCHEME = Scheme(optmt=True)


def _workload():
    return kernel_workload(
        A100_SXM4_80GB, scale=SimScale("engine-bench", 4)
    )


def _hierarchy(workload, build):
    hierarchy = MemoryHierarchy(
        workload.gpu, streaming_range=STREAMING_RANGE
    )
    local_lines = build.spilled_regs + (
        build.prefetch_distance if build.prefetch == "local" else 0
    )
    hierarchy.configure_local_memory(
        local_lines * 128 * build.warps_per_sm,
        int(workload.full_gpu.l1_bytes * cal.LOCAL_L1_BUDGET_FRACTION),
    )
    return hierarchy


def _best_of(fn, rounds=3):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_engine_throughput(benchmark):
    workload = _workload()
    build = SCHEME.compile(workload.gpu)
    amap = AddressMap(row_bytes=workload.row_bytes)
    spec = HOTNESS_PRESETS[DATASET]
    trace = generate_trace(
        spec,
        batch_size=workload.batch_size,
        pooling_factor=workload.pooling_factor,
        table_rows=workload.table_rows,
        seed=0,
    )
    compiled = build_trace(trace, build, amap)
    n_ops = compiled.n_ops

    def run_fast():
        return run_kernel(
            workload.gpu, _hierarchy(workload, build),
            build_trace(trace, build, amap),
            warps_per_sm=build.warps_per_sm,
            warps_per_block=build.warps_per_block,
        )

    def run_ref():
        return run_reference(
            workload.gpu, _hierarchy(workload, build),
            build_programs(trace, build, amap),
            warps_per_sm=build.warps_per_sm,
            warps_per_block=build.warps_per_block,
        )

    # the tracked trajectory metric: compiled-path launches
    stats = benchmark.pedantic(run_fast, rounds=3, iterations=1)
    assert stats.n_warps == compiled.n_warps
    issued = stats.issued_insts

    # interleave the rounds so machine-load drift hits both paths alike
    t_fast = float("inf")
    t_ref = float("inf")
    for _ in range(4):
        t_fast = min(t_fast, _best_of(run_fast, rounds=1))
        t_ref = min(t_ref, _best_of(run_ref, rounds=1))

    # lowering on its own, the first half of a cold launch
    t_lower = _best_of(lambda: build_trace(trace, build, amap), rounds=5)

    # memo tier: cold table-kernel run, then repeated identical launches
    memo = KernelMemo(capacity=8)

    def run_table(m=memo):
        return run_table_kernel(
            workload, spec, SCHEME, seed=0, memo=m,
        )

    t_cold = _best_of(lambda: run_table(KernelMemo(capacity=8)), rounds=2)
    run_table()  # prime
    t_hit = _best_of(run_table, rounds=5)
    assert memo.hits >= 5

    engine_cold_speedup = t_ref / t_fast
    memo_hit_speedup = t_cold / t_hit
    sweep_speedup = (SWEEP_LAUNCHES * t_ref) / (
        t_cold + (SWEEP_LAUNCHES - 1) * t_hit
    )
    benchmark.extra_info.update({
        "micro_ops": n_ops,
        "issued_insts": issued,
        "micro_ops_per_sec_compiled": round(n_ops / t_fast),
        "micro_ops_per_sec_reference": round(n_ops / t_ref),
        "micro_ops_lowered_per_sec": round(n_ops / t_lower),
        "engine_cold_speedup": round(engine_cold_speedup, 3),
        "memo_hit_speedup": round(memo_hit_speedup, 1),
        "sweep_speedup": round(sweep_speedup, 2),
        "t_reference_s": round(t_ref, 4),
        "t_compiled_s": round(t_fast, 4),
        "t_lower_s": round(t_lower, 4),
        "t_memo_hit_s": round(t_hit, 5),
    })
    print(
        f"\nengine throughput: {n_ops / t_fast / 1e6:.2f}M compiled "
        f"vs {n_ops / t_ref / 1e6:.2f}M reference micro-ops/s "
        f"(lowering {n_ops / t_lower / 1e6:.2f}M/s); "
        f"memo hit {memo_hit_speedup:.0f}x over cold, "
        f"{SWEEP_LAUNCHES}-launch sweep {sweep_speedup:.1f}x"
    )

    baseline = json.loads(BASELINE_PATH.read_text())
    floor = {k: v * REGRESSION_TOLERANCE for k, v in baseline.items()}
    assert engine_cold_speedup >= floor["engine_cold_speedup"], (
        f"compiled path regressed: {engine_cold_speedup:.2f}x vs "
        f"committed {baseline['engine_cold_speedup']}x"
    )
    assert sweep_speedup >= floor["memo_sweep_speedup"], (
        f"sweep speedup regressed: {sweep_speedup:.2f}x vs "
        f"committed {baseline['memo_sweep_speedup']}x"
    )
    # the memo must keep re-running an identical launch near-free
    assert t_hit < t_cold / 10, (
        f"memo hit cost {t_hit * 1e3:.1f}ms is not near-zero vs "
        f"cold {t_cold * 1e3:.1f}ms"
    )
