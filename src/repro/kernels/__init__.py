"""Embedding-bag kernel variants and the compiler model."""

from repro.kernels.address_map import LOCAL_WINDOW_BYTES, AddressMap
from repro.kernels.compiler import (
    PREFETCH_KINDS,
    KernelBuild,
    compile_kernel,
    demand_registers,
    optmt_maxrreg,
)
from repro.kernels.embedding_bag import (
    expected_global_loads,
    iter_warp_work,
    warps_per_sample,
)
from repro.kernels.pinning import (
    hot_row_lines,
    pin_hot_rows,
    pinnable_rows,
    pinned_coverage,
    profile_hot_rows,
    simulate_pin_kernel,
)

__all__ = [
    "AddressMap",
    "KernelBuild",
    "LOCAL_WINDOW_BYTES",
    "PREFETCH_KINDS",
    "compile_kernel",
    "demand_registers",
    "expected_global_loads",
    "hot_row_lines",
    "iter_warp_work",
    "optmt_maxrreg",
    "pin_hot_rows",
    "pinnable_rows",
    "pinned_coverage",
    "profile_hot_rows",
    "simulate_pin_kernel",
    "warps_per_sample",
]
