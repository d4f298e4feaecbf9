"""The stock embedding-bag CUDA kernel (Algorithm 2), lowered to warp traces.

Work partitioning follows the paper's Figure 4: each sample's output row
is split across ``row_bytes / 128`` warps (4 warps for a 128-dim fp32
table); every warp runs the full pooling loop for its 32-element chunk.
Per gather-reduce iteration a warp:

1. loads ``indices[idx]`` (one 32-B sector, broadcast),
2. burns the address-generation ALU burst (depends on the index),
3. loads its 128-B chunk of the embedding row (four sectors),
4. accumulates (depends on the row data),

plus register-spill round-trips to local memory when the compiler was
forced below the kernel's register demand.

The builders lower each kernel variant straight into a
:class:`~repro.gpusim.trace.CompiledTrace`: the op shape of a gather
iteration (and of its spill round-trips) is a fixed column pattern
extended onto the trace columns, and dependency-free ALU ops are fused
into the burst they follow.  ``tests/golden/kernels.json`` pins the
lowered op streams by content fingerprint, and
``tests/gpusim/reference_engine.py`` keeps the op streams as readable
generator programs that ``tests/gpusim/test_trace_compile.py`` pins the
builders to.
"""

from __future__ import annotations

import numpy as np

from repro.config.gpu import CACHE_LINE_BYTES
from repro.datasets.trace import EmbeddingTrace
from repro.gpusim.isa import (
    OP_ALU,
    OP_LD_GLOBAL,
    OP_LD_LOCAL,
    OP_ST_GLOBAL,
    OP_ST_LOCAL,
)
from repro.gpusim.trace import CompiledTrace, TraceBuilder
from repro.kernels import calibration as cal
from repro.kernels.address_map import AddressMap
from repro.kernels.compiler import KernelBuild

# Scoreboard tag assignments (per-warp namespace).
TAG_OFF = 0
TAG_IDX = 1
TAG_ROW = 2
TAG_SPILL = 3
TAG_SMEM = 4
TAG_LOCAL_PF = 5
TAG_PF_BASE = 16  # prefetch slots use TAG_PF_BASE + j

#: Local-memory slot where LMPF buffers start (spill slots come first).
LMPF_SLOT_BASE = 48


def warps_per_sample(row_bytes: int) -> int:
    if row_bytes % CACHE_LINE_BYTES:
        raise ValueError("row size must be a multiple of the 128-B line")
    return row_bytes // CACHE_LINE_BYTES


def iter_warp_work(
    trace: EmbeddingTrace, row_bytes: int
) -> Iterator[tuple[int, int, int, list[int]]]:
    """Yield ``(sample, col_byte_offset, flat_begin, rows)`` per warp, in
    launch order (all warps of sample 0, then sample 1, ...).

    The offsets array is converted to plain ints once and each sample's
    row list is materialized exactly once — the chunk loop re-yields the
    same list object for every warp of the sample.
    """
    col_offs = tuple(
        chunk * CACHE_LINE_BYTES
        for chunk in range(warps_per_sample(row_bytes))
    )
    bounds = trace.offsets.tolist()
    indices = trace.indices
    for sample in range(trace.batch_size):
        begin = bounds[sample]
        rows = indices[begin:bounds[sample + 1]].tolist()
        for col_off in col_offs:
            yield sample, col_off, begin, rows


def spill_state(build: KernelBuild) -> tuple[float, int]:
    """(spill round-trips per iteration, distinct spill lines per warp)."""
    return build.spill_pairs_per_iter, max(1, build.spilled_regs)


def spill_schedule(spill_pairs: float, n_iters: int) -> list[int]:
    """Register-spill round-trips after each of a warp's first
    ``n_iters`` gather iterations: one per whole unit of spill pairs
    accumulated so far.  The same for every warp of a launch."""
    counts = []
    acc = 0.0
    for _ in range(n_iters):
        acc += spill_pairs
        count = 0
        while acc >= 1.0:
            acc -= 1.0
            count += 1
        counts.append(count)
    return counts


def _base_shape(spill_counts: list[int]) -> tuple[list, list, list, list]:
    """The kind, b, tag and dep columns of one base-kernel warp that
    gathers ``len(spill_counts)`` rows: the shape every such warp of a
    launch shares.  The epilogue ALU is fused into the burst before it,
    so it adds no op."""
    shape: tuple[list, list, list, list] = ([], [], [], [])
    kinds, b, tags, deps = shape

    def op(kind: int, sectors: int = 0, tag: int = -1,
           dep: int = -1) -> None:
        kinds.append(kind)
        b.append(sectors)
        tags.append(tag)
        deps.append(dep)

    op(OP_LD_GLOBAL, 1, TAG_OFF)
    op(OP_ALU, dep=TAG_OFF)
    for spills in spill_counts:
        op(OP_LD_GLOBAL, 1, TAG_IDX)
        op(OP_ALU, dep=TAG_IDX)
        op(OP_LD_GLOBAL, 4, TAG_ROW)
        op(OP_ALU, dep=TAG_ROW)
        for _ in range(spills):
            op(OP_ST_LOCAL, 4)
            op(OP_LD_LOCAL, 4, TAG_SPILL)
            op(OP_ALU, dep=TAG_SPILL)
    op(OP_ST_GLOBAL, 4)
    return shape


def build_base_trace(
    trace: EmbeddingTrace,
    build: KernelBuild,
    amap: AddressMap,
    *,
    warp_uid_base: int = 0,
) -> CompiledTrace:
    """Compiled trace for a baseline (or OptMT) kernel launch.

    A warp's op shape — its kind, operand-B, tag and dep columns —
    depends only on how many rows it gathers: the offsets load and
    prologue ALU, one 4-op gather iteration per row followed by that
    iteration's spill round-trips, and the output store.  Each shape is
    built once per launch (:func:`_base_shape`) and extended onto the
    columns; per warp only operand A is computed, in the same order.
    The epilogue ALU is dependency-free and always follows an ALU burst
    (prologue, accumulate or spill-consume), so it is fused into it.
    """
    spill_pairs, spill_lines = spill_state(build)
    row_bytes = amap.row_bytes
    addr_alu = cal.ADDR_CALC_ALU
    accum_alu = cal.ACCUM_ALU
    spill_consume_alu = cal.SPILL_CONSUME_ALU
    local_line = AddressMap.local_line
    row_base = amap.row_addr(0)
    spill_counts = spill_schedule(
        spill_pairs, int(np.diff(trace.offsets).max())
    )
    shapes: dict[int, tuple[list, list, list, list]] = {}

    builder = TraceBuilder()
    kind_col = builder.kind
    a_col = builder.a
    b_col = builder.b
    tag_col = builder.tag
    dep_col = builder.dep
    end_warp = builder.end_warp

    uid = warp_uid_base
    for sample, col_off, begin, rows in iter_warp_work(trace, row_bytes):
        n = len(rows)
        shape = shapes.get(n)
        if shape is None:
            shape = shapes[n] = _base_shape(spill_counts[:n])
        kind_col.extend(shape[0])
        b_col.extend(shape[1])
        tag_col.extend(shape[2])
        dep_col.extend(shape[3])

        a_col.extend((amap.offsets_addr(sample), cal.PROLOGUE_ALU))
        idx_addr = amap.index_addr(begin)
        chunk_base = row_base + col_off
        if spill_pairs == 0.0:
            for row in rows:
                a_col.extend((
                    idx_addr, addr_alu,
                    chunk_base + row * row_bytes, accum_alu,
                ))
                idx_addr += 8
        else:
            spill_addrs = [
                local_line(uid, slot) for slot in range(spill_lines)
            ]
            spill_slot = 0
            for row, spills in zip(rows, spill_counts):
                a_col.extend((
                    idx_addr, addr_alu,
                    chunk_base + row * row_bytes, accum_alu,
                ))
                idx_addr += 8
                for _ in range(spills):
                    addr = spill_addrs[spill_slot % spill_lines]
                    spill_slot += 1
                    a_col.extend((addr, addr, spill_consume_alu))
        a_col[-1] += cal.EPILOGUE_ALU  # fused into the burst before it
        a_col.append(amap.output_addr(sample, col_off))
        end_warp()
        uid += 1
    return builder.build()


def expected_global_loads(trace: EmbeddingTrace, row_bytes: int) -> int:
    """Analytic warp-level global load count for the baseline kernel:
    one offsets load per warp plus (index + row) per iteration."""
    n_warps = trace.batch_size * warps_per_sample(row_bytes)
    return n_warps + 2 * trace.n_accesses * warps_per_sample(row_bytes)
