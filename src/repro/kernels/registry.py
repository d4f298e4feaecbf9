"""Dispatch from a compiled kernel build to its trace builder."""

from __future__ import annotations

from repro.datasets.trace import EmbeddingTrace
from repro.gpusim.trace import CompiledTrace
from repro.kernels.address_map import AddressMap
from repro.kernels.compiler import KernelBuild
from repro.kernels.embedding_bag import build_base_trace
from repro.kernels.prefetch import build_prefetch_trace


def build_trace(
    trace: EmbeddingTrace,
    build: KernelBuild,
    amap: AddressMap,
    *,
    warp_uid_base: int = 0,
) -> CompiledTrace:
    """Compiled warp trace for one table's kernel launch under any
    variant."""
    if build.prefetch is None:
        return build_base_trace(
            trace, build, amap, warp_uid_base=warp_uid_base
        )
    return build_prefetch_trace(
        trace, build, amap, warp_uid_base=warp_uid_base
    )
