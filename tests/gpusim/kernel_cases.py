"""Kernel launches shared by the engine's differential and golden tests.

Two families of launches:

* the **fuzz** cases — :data:`TOTAL_CASES` seeded random kernel
  configurations (scheme knobs, dataset hotness, workload shape, GPU),
  drawn by case number so case ``k`` is the same launch forever.  The
  first :data:`SMOKE_CASES` always run; the rest are marked
  ``fuzz_extended`` and skipped unless ``REPRO_FUZZ_FULL=1``;
* the **curated** lineup — every kernel shape the repo can emit
  (baseline, OptMT, all four prefetch stations, heavy spilling) on
  ``med_hot`` and ``random``, plus an L2-pinned launch.

A :class:`Launch` builds a fresh, configured (and, for pinning
schemes, pre-pinned) memory hierarchy on demand, so two runs of one
launch start from identical state.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import pytest

from repro.config.gpu import A100_SXM4_80GB, H100_NVL
from repro.config.scale import SimScale
from repro.core.embedding import KernelWorkload, kernel_workload
from repro.core.schemes import Scheme
from repro.datasets.generator import generate_trace
from repro.datasets.spec import HOTNESS_PRESETS
from repro.datasets.trace import EmbeddingTrace
from repro.gpusim.hierarchy import MemoryHierarchy
from repro.kernels import calibration as cal
from repro.kernels.address_map import STREAMING_RANGE, AddressMap
from repro.kernels.compiler import KernelBuild
from repro.kernels.pinning import pin_hot_rows, profile_hot_rows

SMOKE_CASES = 12
TOTAL_CASES = 50
RUN_FULL = os.environ.get("REPRO_FUZZ_FULL", "") == "1"

#: cycled through the first draws so the always-on smoke subset covers
#: every prefetch station, both register-cap styles, and pinning.
_COVERAGE_SCHEMES = (
    dict(),
    dict(optmt=True),
    dict(prefetch="register", optmt=True),
    dict(prefetch="shared", optmt=True),
    dict(prefetch="local", optmt=True),
    dict(prefetch="l1d", optmt=True),
    dict(l2_pinning=True, optmt=True),
    dict(prefetch="register", l2_pinning=True, optmt=True),
    dict(maxrregcount=40),
    dict(prefetch="register", maxrregcount=32),
    dict(prefetch="shared", l2_pinning=True),
    dict(prefetch="local"),
)

#: The curated lineup's schemes: baseline, OptMT (spilled), all four
#: prefetch stations (with and without heavy spilling).
CURATED_SCHEMES = (
    Scheme(),
    Scheme(optmt=True),
    Scheme(prefetch="register", optmt=True),
    Scheme(prefetch="shared", optmt=True),
    Scheme(prefetch="local", optmt=True),
    Scheme(prefetch="l1d", optmt=True),
    Scheme(maxrregcount=40),
    Scheme(prefetch="register", maxrregcount=32),
    Scheme(prefetch="shared"),
)
CURATED_DATASETS = ("med_hot", "random")
#: the curated lineup's L2-pinned launch (on ``med_hot``)
PINNED_SCHEME = Scheme(l2_pinning=True, optmt=True)
#: (dataset, scheme) of every curated launch
CURATED_LAUNCHES = tuple(
    (dataset, scheme)
    for scheme in CURATED_SCHEMES for dataset in CURATED_DATASETS
) + (("med_hot", PINNED_SCHEME),)


@dataclass(frozen=True)
class Launch:
    """One kernel launch: its workload, trace, build and hot rows."""

    name: str
    workload: KernelWorkload
    trace: EmbeddingTrace
    build: KernelBuild
    hot_rows: np.ndarray | None = None

    @property
    def gpu(self):
        return self.workload.gpu

    @property
    def amap(self) -> AddressMap:
        return AddressMap(row_bytes=self.workload.row_bytes)

    def hierarchy(self) -> MemoryHierarchy:
        """A fresh hierarchy configured the way ``run_table_kernel``
        configures it, with the hot rows pinned for pinning schemes."""
        build = self.build
        set_aside = (
            self.gpu.l2_set_aside_bytes if self.hot_rows is not None else 0
        )
        hierarchy = MemoryHierarchy(
            self.gpu,
            l2_set_aside_bytes=set_aside,
            streaming_range=STREAMING_RANGE,
        )
        local_lines = build.spilled_regs + (
            build.prefetch_distance if build.prefetch == "local" else 0
        )
        hierarchy.configure_local_memory(
            local_lines * 128 * build.warps_per_sm,
            int(self.workload.full_gpu.l1_bytes
                * cal.LOCAL_L1_BUDGET_FRACTION),
        )
        if self.hot_rows is not None:
            pin_hot_rows(hierarchy, self.hot_rows, self.amap)
        return hierarchy

    def run_args(self) -> dict:
        """Keyword arguments for ``run_kernel`` (or the reference)."""
        return dict(
            warps_per_sm=self.build.warps_per_sm,
            warps_per_block=self.build.warps_per_block,
            name=self.name,
        )


def draw_case(case: int) -> dict:
    """Deterministically draw one kernel configuration for case ``case``."""
    rng = np.random.default_rng(987_001 + case)
    if case < len(_COVERAGE_SCHEMES):
        scheme_kwargs = dict(_COVERAGE_SCHEMES[case])
    else:
        prefetch = rng.choice(
            [None, "register", "shared", "local", "l1d"]
        )
        scheme_kwargs = {
            "prefetch": None if prefetch is None else str(prefetch),
            "l2_pinning": bool(rng.random() < 0.3),
        }
        cap_style = rng.integers(0, 3)  # none / optmt / explicit cap
        if cap_style == 1:
            scheme_kwargs["optmt"] = True
        elif cap_style == 2:
            scheme_kwargs["maxrregcount"] = int(rng.integers(24, 96))
    if scheme_kwargs.get("prefetch") and rng.random() < 0.5:
        scheme_kwargs["prefetch_distance"] = int(rng.integers(1, 9))
    return {
        "scheme": Scheme(**scheme_kwargs),
        "gpu": A100_SXM4_80GB if rng.random() < 0.7 else H100_NVL,
        "dataset": str(rng.choice(sorted(HOTNESS_PRESETS))),
        "batch_size": int(rng.choice([4, 8, 12, 16])),
        "pooling_factor": int(rng.integers(4, 17)),
        "table_rows": int(rng.choice([1024, 4096, 16384])),
        "trace_seed": int(rng.integers(0, 10_000)),
    }


def fuzz_case_params():
    """``case`` parameters: the smoke subset always, the rest marked
    ``fuzz_extended`` and skipped unless ``REPRO_FUZZ_FULL=1``."""
    for case in range(TOTAL_CASES):
        marks = []
        if case >= SMOKE_CASES:
            marks.append(pytest.mark.fuzz_extended)
            if not RUN_FULL:
                marks.append(pytest.mark.skip(
                    reason="extended fuzz case; set REPRO_FUZZ_FULL=1"
                ))
        yield pytest.param(case, id=f"case{case}", marks=marks)


def fuzz_launch(case: int) -> Launch:
    """The launch of fuzz case ``case``."""
    cfg = draw_case(case)
    scheme = cfg["scheme"]
    workload = kernel_workload(
        cfg["gpu"],
        scale=SimScale(f"fuzz{case}", 2),
        batch_size=cfg["batch_size"],
        pooling_factor=cfg["pooling_factor"],
        table_rows=cfg["table_rows"],
    )
    spec = HOTNESS_PRESETS[cfg["dataset"]]
    dims = dict(
        batch_size=workload.batch_size,
        pooling_factor=workload.pooling_factor,
        table_rows=workload.table_rows,
    )
    trace = generate_trace(spec, seed=cfg["trace_seed"], **dims)
    hot_rows = None
    if scheme.l2_pinning:
        hot_rows = profile_hot_rows(
            spec, k=64, seed=cfg["trace_seed"], **dims
        )
    return Launch(
        f"fuzz{case}", workload, trace,
        scheme.compile(workload.gpu), hot_rows,
    )


def curated_workload() -> KernelWorkload:
    return kernel_workload(
        A100_SXM4_80GB,
        scale=SimScale("trace-test", 2),
        batch_size=16,
        pooling_factor=12,
        table_rows=4096,
    )


def curated_launch(scheme: Scheme, dataset: str) -> Launch:
    """One launch of the curated lineup (pinned when ``scheme`` pins)."""
    workload = curated_workload()
    dims = dict(
        batch_size=workload.batch_size,
        pooling_factor=workload.pooling_factor,
        table_rows=workload.table_rows,
    )
    spec = HOTNESS_PRESETS[dataset]
    trace = generate_trace(spec, seed=0, **dims)
    hot_rows = (
        profile_hot_rows(spec, k=64, seed=0, **dims)
        if scheme.l2_pinning else None
    )
    return Launch(
        "kernel", workload, trace, scheme.compile(workload.gpu), hot_rows,
    )


def pin_kernel_rows(workload: KernelWorkload) -> np.ndarray:
    """The hot rows the curated pin-kernel launch pins."""
    return profile_hot_rows(
        HOTNESS_PRESETS["high_hot"],
        batch_size=workload.batch_size,
        pooling_factor=workload.pooling_factor,
        table_rows=workload.table_rows,
        k=32,
        seed=1,
    )
