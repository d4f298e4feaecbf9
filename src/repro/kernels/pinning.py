"""Application-aware L2 pinning (paper Section IV-C, Figure 10).

The four-step design:

1. *offline* identification of the hottest rows (we profile a separate
   calibration trace drawn from the same distribution — never the trace
   being timed, so the profiling is honest),
2. load those indices to the GPU,
3. run a small CUDA kernel issuing ``prefetch.global.L2::evict_last``
   for every line of every hot row, pinning them in the L2 set-aside,
4. launch the normal embedding-bag kernel.

The set-aside is capped at 75% of L2 (30 MB on A100), which holds
``30 MB / 512 B = 61440`` vectors — the paper's "top 60K" rows.
"""

from __future__ import annotations

import numpy as np

from repro.config.gpu import CACHE_LINE_BYTES, GpuSpec
from repro.datasets.trace import EmbeddingTrace
from repro.gpusim.engine import RawKernelStats, run_kernel
from repro.gpusim.hierarchy import MemoryHierarchy
from repro.gpusim.isa import OP_ALU, OP_PREFETCH_L2
from repro.gpusim.trace import CompiledTrace, TraceBuilder
from repro.kernels.address_map import AddressMap
# The offline hot-row profiling (step 1 of Fig. 10) lives in the shared
# policy module now — memstore admission, drift re-pinning and L2P all
# rank popularity the same way.  Re-exported under its historic name.
from repro.memstore.policy import profile_hot_rows

__all__ = [
    "build_pin_kernel_trace",
    "hot_row_lines",
    "pin_hot_rows",
    "pinnable_rows",
    "pinned_coverage",
    "profile_hot_rows",
    "simulate_pin_kernel",
]

_LINE_SHIFT = CACHE_LINE_BYTES.bit_length() - 1

#: ALU overhead per pinned line in the pin kernel (loop + address math).
_PIN_LOOP_ALU = 4


def pinnable_rows(set_aside_bytes: int, row_bytes: int) -> int:
    """How many embedding vectors fit in the L2 set-aside."""
    return set_aside_bytes // row_bytes


def hot_row_lines(rows: np.ndarray, amap: AddressMap) -> list[int]:
    """All cache lines backing the given rows, in pin order."""
    lines_per_row = amap.row_bytes // CACHE_LINE_BYTES
    lines: list[int] = []
    for row in rows:
        base = amap.row_addr(int(row))
        for chunk in range(lines_per_row):
            lines.append((base + chunk * CACHE_LINE_BYTES) >> _LINE_SHIFT)
    return lines


def pin_hot_rows(
    hierarchy: MemoryHierarchy, rows: np.ndarray, amap: AddressMap
) -> int:
    """Directly pin (and warm) the hot rows' lines in the L2 set-aside,
    modelling a pin kernel whose cost is hidden behind host-side work
    (the paper overlaps it with CPU pre-processing).  Returns the number
    of lines actually pinned."""
    pinned = 0
    for line in hot_row_lines(rows, amap):
        if hierarchy.l2.pin(line):
            pinned += 1
    return pinned


def build_pin_kernel_trace(
    rows: np.ndarray, amap: AddressMap, gpu: GpuSpec
) -> CompiledTrace:
    """Compiled trace of the explicit pin kernel (step 3 of Fig. 10):
    hot-row lines are strided across one block of warps per SM, each warp
    issuing ``prefetch.global.L2::evict_last`` back to back."""
    lines = hot_row_lines(rows, amap)
    n_warps = max(1, gpu.num_sms * gpu.warps_per_block)
    builder = TraceBuilder()
    emit = builder.append
    for start in range(n_warps):
        for line in lines[start::n_warps]:
            emit(OP_PREFETCH_L2, line << _LINE_SHIFT, 4)
            emit(OP_ALU, _PIN_LOOP_ALU)
        builder.end_warp()
    return builder.build()


def simulate_pin_kernel(
    gpu: GpuSpec,
    hierarchy: MemoryHierarchy,
    rows: np.ndarray,
    amap: AddressMap,
) -> RawKernelStats:
    """Run the pin kernel through the engine (for overhead reporting)."""
    programs = build_pin_kernel_trace(rows, amap, gpu)
    return run_kernel(
        gpu,
        hierarchy,
        programs,
        warps_per_sm=gpu.warps_per_block,
        warps_per_block=gpu.warps_per_block,
        name="l2_pin_kernel",
    )


def pinned_coverage(trace: EmbeddingTrace, rows: np.ndarray) -> float:
    """Fraction of a trace's accesses that hit the pinned row set."""
    if trace.n_accesses == 0:
        return 0.0
    pinned = np.isin(trace.indices, rows)
    return float(np.count_nonzero(pinned) / trace.n_accesses)
