"""Differential fuzzing: ``run_kernel`` == the test-only reference.

``tests/gpusim/test_trace_compile.py`` pins the library's executor and
trace builders to :mod:`tests.gpusim.reference_engine` on a curated
scheme lineup; this suite widens the net with *randomized* kernel
configurations — scheme knobs (prefetch kind/distance, register caps,
pinning), dataset hotness, and workload shape (batch, pooling, table
size, trace seed) are all drawn from seeded RNG streams
(:mod:`tests.gpusim.kernel_cases`) — and asserts, case by case, that
``run_kernel`` on the built trace gives ``RawKernelStats`` and a full
memory-hierarchy counter state field-identical to the generator-driven
reference executor on the generator programs.

The first ``SMOKE_CASES`` draws always run (they fold into the tier-1
suite and cover every prefetch station); the remaining draws up to
``TOTAL_CASES`` are the extended fuzz set, skipped unless
``REPRO_FUZZ_FULL=1`` (CI runs them as a dedicated step).  Draws are
indexed by case number, so case ``k`` is the same kernel configuration
forever — a failure reproduces with ``-k case47``.
"""

import dataclasses

import pytest

from repro.gpusim.engine import run_kernel
from repro.gpusim.profiler import HierarchyStats
from repro.kernels.embedding_bag import build_trace
from tests.gpusim.kernel_cases import draw_case, fuzz_case_params, fuzz_launch
from tests.gpusim.reference_engine import build_programs, run_reference


@pytest.mark.fuzz
@pytest.mark.parametrize("case", fuzz_case_params())
def test_compiled_engine_matches_reference(case):
    launch = fuzz_launch(case)
    trace, build, amap = launch.trace, launch.build, launch.amap
    results = []
    for run, programs in (
        (run_reference, build_programs(trace, build, amap)),
        (run_kernel, build_trace(trace, build, amap)),
    ):
        hierarchy = launch.hierarchy()
        stats = run(launch.gpu, hierarchy, programs, **launch.run_args())
        results.append((
            dataclasses.asdict(stats),
            dataclasses.asdict(HierarchyStats.capture(hierarchy)),
        ))
    assert results[0] == results[1], (
        f"engines diverged on case {case}: {draw_case(case)}"
    )
