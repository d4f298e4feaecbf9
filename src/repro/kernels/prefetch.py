"""Software-prefetching variants of the embedding-bag kernel (Sec. IV-B).

All four schemes batch the indirect gather loads ``d`` iterations ahead
(Figure 8), differing only in the buffer station:

* **RPF** — buffer registers; consumption is free but register demand
  grows with ``d`` (occupancy collapse without OptMT).
* **SMPF** — shared memory; a store burst parks the data, consumption
  pays the 29-cycle shared latency.
* **LMPF** — local memory; same shape as SMPF but the buffer round-trips
  through L1 and counts as local traffic.
* **L1DPF** — ``prefetch.global.L1``; no buffer registers, but the
  demand loop still executes in full, making it the highest-overhead,
  lowest-gain variant.

The prefetch burst issues the ``d`` row loads back-to-back, so their
latencies overlap; the group then pays roughly one memory latency
instead of ``d`` — which is exactly the scoreboard-driven hiding the
paper engineers.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.trace import EmbeddingTrace
from repro.gpusim.isa import (
    OP_ALU,
    OP_LD_GLOBAL,
    OP_LD_LOCAL,
    OP_LD_SHARED,
    OP_PREFETCH_L1,
    OP_ST_GLOBAL,
    OP_ST_LOCAL,
    OP_ST_SHARED,
)
from repro.gpusim.trace import CompiledTrace, TraceBuilder
from repro.kernels import calibration as cal
from repro.kernels.address_map import AddressMap
from repro.kernels.compiler import KernelBuild
from repro.kernels.embedding_bag import (
    LMPF_SLOT_BASE,
    TAG_IDX,
    TAG_LOCAL_PF,
    TAG_OFF,
    TAG_PF_BASE,
    TAG_SMEM,
    TAG_SPILL,
    iter_warp_work,
    spill_schedule,
    spill_state,
)

def _prefetch_shape(
    station: str, n: int, distance: int, spill_counts: list[int]
) -> tuple[list, list, list, list]:
    """The kind, b, tag and dep columns of one prefetching warp that
    gathers ``n`` rows: the shape every such warp of a launch shares.
    The trigger and epilogue ALU ops are fused into the burst before
    them, so they add no op."""
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
    for i in range(0, n, distance):
        batch = min(distance, n - i)
        # --- prefetch burst: gather loads issued back-to-back ----------
        for j in range(batch):
            op(OP_LD_GLOBAL, 1, TAG_IDX)
            op(OP_ALU, dep=TAG_IDX)
            if station == "l1d":
                op(OP_PREFETCH_L1, 4)
            else:
                op(OP_LD_GLOBAL, 4, TAG_PF_BASE + j)
        # --- park the burst in the buffer station -----------------------
        for j in range(batch):
            if station == "shared":
                op(OP_ST_SHARED, dep=TAG_PF_BASE + j)
            elif station == "local":
                op(OP_ST_LOCAL, 4, dep=TAG_PF_BASE + j)
        # --- consume one iteration at a time ----------------------------
        for j in range(batch):
            if station == "register":
                op(OP_ALU, dep=TAG_PF_BASE + j)
            elif station == "shared":
                op(OP_LD_SHARED, tag=TAG_SMEM)
                op(OP_ALU, dep=TAG_SMEM)
            elif station == "local":
                op(OP_LD_LOCAL, 4, TAG_LOCAL_PF)
                op(OP_ALU, dep=TAG_LOCAL_PF)
            else:  # l1d: the demand loop runs in full, hitting L1
                op(OP_LD_GLOBAL, 1, TAG_IDX)
                op(OP_ALU, dep=TAG_IDX)
                op(OP_LD_GLOBAL, 4, TAG_PF_BASE)
                op(OP_ALU, dep=TAG_PF_BASE)
            for _ in range(spill_counts[i + j]):
                op(OP_ST_LOCAL, 4)
                op(OP_LD_LOCAL, 4, TAG_SPILL)
                op(OP_ALU, dep=TAG_SPILL)
    op(OP_ST_GLOBAL, 4)
    return shape


def build_prefetch_trace(
    trace: EmbeddingTrace,
    build: KernelBuild,
    amap: AddressMap,
    *,
    warp_uid_base: int = 0,
) -> CompiledTrace:
    """Compiled trace for every warp of a prefetching kernel launch.

    Per warp: the offsets load and prologue ALU; then, per trigger group
    of up to ``d`` rows, the trigger ALU, a burst of ``d`` back-to-back
    gather loads, their parking in the buffer station, and ``d``
    consume steps, each followed by its register-spill round-trips; the
    epilogue ALU and the output store close the warp.  A warp's op
    shape — its kind, operand-B, tag and dep columns — depends only on
    how many rows it gathers, so each shape is built once per launch
    (:func:`_prefetch_shape`) and extended onto the columns; per warp
    only operand A is computed, in the same order.  The trigger and
    epilogue ALU ops carry no dependency and always follow an ALU
    burst, so they are fused into it.
    """
    if build.prefetch is None:
        raise ValueError("kernel build has no prefetch scheme")
    station = build.prefetch
    distance = build.prefetch_distance
    spill_pairs, spill_lines = spill_state(build)
    row_bytes = amap.row_bytes
    burst_alu = (
        cal.L1DPF_BURST_ALU if station == "l1d" else cal.ADDR_CALC_ALU
    )
    addr_alu = cal.ADDR_CALC_ALU
    consume_alu = cal.ACCUM_ALU + cal.PF_CONSUME_EXTRA_ALU[station]
    spill_alu = cal.SPILL_CONSUME_ALU
    trigger_alu = cal.PF_TRIGGER_ALU
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
            shape = shapes[n] = _prefetch_shape(
                station, n, distance, spill_counts
            )
        kind_col.extend(shape[0])
        b_col.extend(shape[1])
        tag_col.extend(shape[2])
        dep_col.extend(shape[3])

        chunk_base = row_base + col_off
        row_addrs = [chunk_base + row * row_bytes for row in rows]
        idx_base = amap.index_addr(begin)
        spill_addrs = [
            local_line(uid, slot) for slot in range(spill_lines)
        ]
        lmpf_addrs = [
            local_line(uid, LMPF_SLOT_BASE + j) for j in range(distance)
        ]
        a_col.extend((amap.offsets_addr(sample), cal.PROLOGUE_ALU))
        spill_slot = 0
        for i in range(0, n, distance):
            batch = distance if i + distance <= n else n - i
            a_col[-1] += trigger_alu  # fused into the burst before it
            for k in range(i, i + batch):
                a_col.extend((idx_base + 8 * k, burst_alu, row_addrs[k]))
            if station == "shared":
                a_col.extend((0,) * batch)
            elif station == "local":
                a_col.extend(lmpf_addrs[:batch])
            for k in range(i, i + batch):
                if station == "register":
                    a_col.append(consume_alu)
                elif station == "shared":
                    a_col.extend((0, consume_alu))
                elif station == "local":
                    a_col.extend((lmpf_addrs[k - i], consume_alu))
                else:  # l1d: the demand loop
                    a_col.extend((idx_base + 8 * k, addr_alu,
                                  row_addrs[k], consume_alu))
                for _ in range(spill_counts[k]):
                    addr = spill_addrs[spill_slot % spill_lines]
                    spill_slot += 1
                    a_col.extend((addr, addr, spill_alu))
        a_col[-1] += cal.EPILOGUE_ALU  # fused into the burst before it
        a_col.append(amap.output_addr(sample, col_off))
        end_warp()
        uid += 1
    return builder.build()
