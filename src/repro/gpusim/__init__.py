"""From-scratch GPU microarchitecture timing simulator.

The substrate the paper's real A100/H100 measurements are replayed on:
sectored caches with residency control, HBM bandwidth queue, per-SM
uTLBs, occupancy rules, and an event-driven warp scheduler with
scoreboard-stall attribution.
"""

from repro.gpusim import isa
from repro.gpusim.cache import SectoredCache
from repro.gpusim.engine import RawKernelStats, run_kernel
from repro.gpusim.hbm import HbmChannel
from repro.gpusim.hierarchy import MemoryHierarchy, Tlb
from repro.gpusim.memo import (
    KernelMemo,
    MemoizedKernelRun,
    default_memo,
    memo_key,
    set_default_memo,
)
from repro.gpusim.occupancy import (
    KernelResources,
    max_regs_for_warps,
    occupancy_pct,
    regs_per_warp_allocated,
    resident_warps,
)
from repro.gpusim.profiler import HierarchyStats, KernelProfile
from repro.gpusim.trace import CompiledTrace, TraceBuilder

__all__ = [
    "CompiledTrace",
    "HbmChannel",
    "HierarchyStats",
    "KernelMemo",
    "KernelProfile",
    "KernelResources",
    "MemoizedKernelRun",
    "MemoryHierarchy",
    "RawKernelStats",
    "SectoredCache",
    "Tlb",
    "TraceBuilder",
    "default_memo",
    "isa",
    "max_regs_for_warps",
    "memo_key",
    "occupancy_pct",
    "regs_per_warp_allocated",
    "resident_warps",
    "run_kernel",
    "set_default_memo",
]
