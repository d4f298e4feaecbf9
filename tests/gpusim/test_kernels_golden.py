"""Golden snapshot of the kernel simulator, launch by launch.

For every fuzz case and every launch of the curated lineup
(:mod:`tests.gpusim.kernel_cases`), plus the L2 pin kernel, this pins
the lowered trace (its ``n_ops`` and content ``fingerprint()``) and the
result of executing it: every ``RawKernelStats`` field and the
``HierarchyStats`` counter snapshot.  The fingerprints pin the lowering
byte for byte; the statistics pin the executor.

Comparison is exact — the simulator is deterministic and its numbers
must not move under a host-time optimization.  A deliberate behaviour
change regenerates the snapshot with::

    REPRO_REGEN_GOLDEN=1 REPRO_FUZZ_FULL=1 PYTHONPATH=src \
        python -m pytest tests/gpusim/test_kernels_golden.py -q

and commits the updated ``tests/golden/kernels.json``.  A regenerating
run rewrites only the entries of the cases it ran.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path

import pytest

from repro.gpusim.engine import run_kernel
from repro.gpusim.hierarchy import MemoryHierarchy
from repro.gpusim.profiler import HierarchyStats
from repro.kernels.address_map import AddressMap
from repro.kernels.pinning import build_pin_kernel_trace, simulate_pin_kernel
from repro.kernels.embedding_bag import build_trace
from tests.gpusim.kernel_cases import (
    CURATED_LAUNCHES,
    curated_launch,
    curated_workload,
    fuzz_case_params,
    fuzz_launch,
    pin_kernel_rows,
)

GOLDEN_PATH = Path(__file__).parent.parent / "golden" / "kernels.json"
REGEN = os.environ.get("REPRO_REGEN_GOLDEN", "") == "1"


def _snapshot(compiled, stats, hierarchy) -> dict:
    return {
        "n_ops": compiled.n_ops,
        "fingerprint": compiled.fingerprint(),
        "stats": dataclasses.asdict(stats),
        "hierarchy": dataclasses.asdict(HierarchyStats.capture(hierarchy)),
    }


def _launch_snapshot(launch) -> dict:
    compiled = build_trace(launch.trace, launch.build, launch.amap)
    hierarchy = launch.hierarchy()
    stats = run_kernel(launch.gpu, hierarchy, compiled, **launch.run_args())
    return _snapshot(compiled, stats, hierarchy)


def _check(key: str, snapshot: dict) -> None:
    golden = (
        json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    )
    if REGEN:
        golden[key] = snapshot
        GOLDEN_PATH.parent.mkdir(exist_ok=True)
        GOLDEN_PATH.write_text(
            json.dumps(golden, indent=1, sort_keys=True) + "\n"
        )
        pytest.skip(f"regenerated {key} in {GOLDEN_PATH.name}")
    assert key in golden, (
        f"no golden entry {key!r}; run with REPRO_REGEN_GOLDEN=1"
    )
    # JSON round-trips every int and float exactly: no tolerance
    assert json.loads(json.dumps(snapshot)) == golden[key]


@pytest.mark.parametrize("case", fuzz_case_params())
def test_fuzz_case_matches_golden(case):
    _check(f"fuzz/case{case}", _launch_snapshot(fuzz_launch(case)))


@pytest.mark.parametrize("dataset, scheme", [
    pytest.param(dataset, scheme, id=f"{dataset}-{scheme.name}")
    for dataset, scheme in CURATED_LAUNCHES
])
def test_curated_launch_matches_golden(dataset, scheme):
    _check(
        f"curated/{dataset}/{scheme.name}",
        _launch_snapshot(curated_launch(scheme, dataset)),
    )


def test_pin_kernel_matches_golden():
    workload = curated_workload()
    gpu = workload.gpu
    hot = pin_kernel_rows(workload)
    amap = AddressMap(row_bytes=workload.row_bytes)
    hierarchy = MemoryHierarchy(
        gpu, l2_set_aside_bytes=gpu.l2_set_aside_bytes
    )
    stats = simulate_pin_kernel(gpu, hierarchy, hot, amap)
    _check(
        "pin-kernel",
        _snapshot(build_pin_kernel_trace(hot, amap, gpu), stats, hierarchy),
    )
