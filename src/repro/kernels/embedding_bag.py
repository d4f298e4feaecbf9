"""The embedding-bag CUDA kernel (Algorithm 2) and its software-prefetching
variants (Sec. IV-B), lowered to warp traces.

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

The prefetching variants batch the indirect gather loads ``d``
iterations ahead (Figure 8), differing only in the buffer station:

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
paper engineers.  The stock kernel is the register station one row
ahead, without the trigger check or the consume overhead, and with its
own row tag.

:func:`build_trace` lowers every variant straight into a
:class:`~repro.gpusim.trace.CompiledTrace`.  A warp's columns depend
only on how many rows it gathers, except for its addresses, so each
warp shape is built once per launch — all five columns, with
dependency-free ALU ops fused into the burst before them, plus the
positions of its address operands — and the warps sharing it fill in
only those positions.  ``tests/golden/kernels.json`` pins the lowered
op streams by content fingerprint, and
``tests/gpusim/reference_engine.py`` keeps the op streams as readable
generator programs that ``tests/gpusim/test_trace_compile.py`` pins the
builder to.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterator, NamedTuple

import numpy as np

from repro.config.gpu import CACHE_LINE_BYTES
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


class _WarpShape(NamedTuple):
    """The trace of one warp that gathers a given number of rows.

    ``a`` is the operand-A column with its address operands left at 0;
    each ``*_pos`` array holds the positions of one kind of address
    operand, and the array after it what a warp adds to its base: the
    index load's byte offset ``8 * k``, the row ``k`` whose chunk is
    loaded, and the line's offset in the warp's local window.  The
    offsets load is the first op and the output store the last.
    """

    kind: list[int]
    a: np.ndarray
    b: list[int]
    tag: list[int]
    dep: list[int]
    index_pos: np.ndarray
    index_off: np.ndarray
    row_pos: np.ndarray
    row_k: np.ndarray
    local_pos: np.ndarray
    local_off: np.ndarray


def _warp_shapes(
    build: KernelBuild, row_counts: list[int]
) -> list[_WarpShape]:
    """The shape of a warp of ``build`` that gathers each of
    ``row_counts`` rows (ascending, distinct).

    Per warp: the offsets load and prologue ALU; then, per trigger group
    of up to ``d`` rows, the trigger ALU, a burst of back-to-back gather
    loads, their parking in the buffer station, and one consume step
    per row, each followed by its register-spill round-trips; the
    epilogue ALU and the output store close the warp.  The trigger and
    epilogue ALU carry no dependency and always follow an ALU burst, so
    they are fused into it (the stock kernel's trigger adds 0 cycles).

    A warp's full trigger groups are a prefix of every longer warp's,
    so one builder appends each group once, in row order.  At each row
    count it closes a shape with the partial group, the epilogue and
    the store, copies it out, and rewinds to the prefix.
    """
    station = build.prefetch
    spill_pairs, spill_lines = spill_state(build)
    if station is None:  # the stock kernel: registers, one row ahead
        station, distance = "register", 1
        trigger_alu, consume_alu, row_tags = 0, cal.ACCUM_ALU, (TAG_ROW,)
    else:
        distance = build.prefetch_distance
        trigger_alu = cal.PF_TRIGGER_ALU
        consume_alu = cal.ACCUM_ALU + cal.PF_CONSUME_EXTRA_ALU[station]
        row_tags = tuple(TAG_PF_BASE + j for j in range(distance))
    burst_alu = cal.L1DPF_BURST_ALU if station == "l1d" else cal.ADDR_CALC_ALU
    window_base = AddressMap.local_window(0)
    # spill round-trip slots of row k: first_spill[k] .. first_spill[k+1]
    first_spill = list(accumulate(
        spill_schedule(spill_pairs, row_counts[-1]), initial=0
    ))

    builder = TraceBuilder()
    append = builder.append
    # (positions, args) of each kind of address operand
    index_slots: tuple[list[int], list[int]] = ([], [])
    row_slots: tuple[list[int], list[int]] = ([], [])
    local_slots: tuple[list[int], list[int]] = ([], [])
    columns = (builder.kind, builder.a, builder.b, builder.tag,
               builder.dep, *index_slots, *row_slots, *local_slots)

    def load(kind: int, slot: tuple[list[int], list[int]], arg: int,
             sectors: int, tag: int = -1, dep: int = -1) -> None:
        """Append a memory op whose address a warp fills in."""
        slot[0].append(len(builder.kind))
        slot[1].append(arg)
        append(kind, 0, sectors, tag, dep)

    def local(slot: int) -> int:
        """Offset of local line ``slot`` in a warp's window."""
        return AddressMap.local_line(0, slot) - window_base

    def group(i: int, batch: int) -> None:
        """Append the trigger group of rows ``i .. i + batch - 1``."""
        append(OP_ALU, trigger_alu)
        # --- prefetch burst: gather loads issued back-to-back ----------
        for j in range(batch):
            load(OP_LD_GLOBAL, index_slots, 8 * (i + j), 1, TAG_IDX)
            append(OP_ALU, burst_alu, dep=TAG_IDX)
            if station == "l1d":
                load(OP_PREFETCH_L1, row_slots, i + j, 4)
            else:
                load(OP_LD_GLOBAL, row_slots, i + j, 4, row_tags[j])
        # --- park the burst in the buffer station -----------------------
        for j in range(batch):
            if station == "shared":
                append(OP_ST_SHARED, dep=TAG_PF_BASE + j)
            elif station == "local":
                load(OP_ST_LOCAL, local_slots, local(LMPF_SLOT_BASE + j),
                     4, dep=TAG_PF_BASE + j)
        # --- consume one iteration at a time ----------------------------
        for j in range(batch):
            if station == "register":
                append(OP_ALU, consume_alu, dep=row_tags[j])
            elif station == "shared":
                append(OP_LD_SHARED, tag=TAG_SMEM)
                append(OP_ALU, consume_alu, dep=TAG_SMEM)
            elif station == "local":
                load(OP_LD_LOCAL, local_slots, local(LMPF_SLOT_BASE + j),
                     4, TAG_LOCAL_PF)
                append(OP_ALU, consume_alu, dep=TAG_LOCAL_PF)
            else:  # l1d: the demand loop runs in full, hitting L1
                load(OP_LD_GLOBAL, index_slots, 8 * (i + j), 1, TAG_IDX)
                append(OP_ALU, cal.ADDR_CALC_ALU, dep=TAG_IDX)
                load(OP_LD_GLOBAL, row_slots, i + j, 4, TAG_PF_BASE)
                append(OP_ALU, consume_alu, dep=TAG_PF_BASE)
            for slot in range(first_spill[i + j], first_spill[i + j + 1]):
                line = local(slot % spill_lines)
                load(OP_ST_LOCAL, local_slots, line, 4)
                load(OP_LD_LOCAL, local_slots, line, 4, TAG_SPILL)
                append(OP_ALU, cal.SPILL_CONSUME_ALU, dep=TAG_SPILL)

    append(OP_LD_GLOBAL, 0, 1, TAG_OFF)
    append(OP_ALU, cal.PROLOGUE_ALU, dep=TAG_OFF)
    shapes: list[_WarpShape] = []
    done = 0  # rows in the prefix's full trigger groups
    for n in row_counts:
        while n - done >= distance:
            group(done, distance)
            done += distance
        marks = [len(column) for column in columns]
        burst = builder.a[-1]  # the closing ALU fuses into this burst
        if n > done:
            group(done, n - done)
        append(OP_ALU, cal.EPILOGUE_ALU)
        append(OP_ST_GLOBAL, 0, 4)
        shapes.append(_WarpShape(
            builder.kind[:], np.array(builder.a, dtype=np.int64),
            builder.b[:], builder.tag[:], builder.dep[:],
            *(np.array(slots, dtype=np.int64) for slots in columns[5:]),
        ))
        for column, mark in zip(columns, marks):
            del column[mark:]
        builder.a[-1] = burst
    return shapes


def build_trace(
    trace: EmbeddingTrace, build: KernelBuild, amap: AddressMap
) -> CompiledTrace:
    """Compiled trace for one table's kernel launch under any variant.

    Warps run in :func:`iter_warp_work` order, and warp ``w`` owns local
    window ``w``.  Each warp takes its shape's columns
    (:func:`_warp_shapes`), in launch order; the warps that gather
    equally many rows share one shape, and their address operands are
    written into the operand-A column together, once per row count.
    """
    wps = warps_per_sample(amap.row_bytes)
    offsets = trace.offsets.astype(np.int64)
    bags = np.diff(offsets)
    row_counts, bag_shape = np.unique(bags, return_inverse=True)
    shapes = _warp_shapes(build, row_counts.tolist())
    warp_shape = np.repeat(bag_shape, wps)
    in_order = [shapes[i] for i in warp_shape.tolist()]
    sizes = np.array([len(shape.kind) for shape in shapes])
    warp_starts = np.concatenate(([0], np.cumsum(sizes[warp_shape])))
    row_addrs = amap.row_addr(0) + amap.row_bytes * trace.indices.astype(
        np.int64
    )
    a = np.concatenate([shape.a for shape in in_order])
    for i, shape in enumerate(shapes):
        warps = np.flatnonzero(warp_shape == i)
        samples = warps // wps
        col_offs = warps % wps * CACHE_LINE_BYTES
        begins = offsets[samples, None]
        first = warp_starts[warps, None]  # each warp's first op
        a[first] = amap.offsets_addr(samples)[:, None]
        a[first + shape.index_pos] = amap.index_addr(begins) + shape.index_off
        a[first + shape.row_pos] = (
            row_addrs[begins + shape.row_k] + col_offs[:, None]
        )
        a[first + shape.local_pos] = (
            AddressMap.local_window(warps)[:, None] + shape.local_off
        )
        a[first + sizes[i] - 1] = amap.output_addr(samples, col_offs)[:, None]
    starts = warp_starts.tolist()
    # full-length columns: growing four lists warp by warp fragments
    # the heap and raised kernel-sweep's peak RSS by about 2 MB
    kind, b, tag, dep = ([0] * starts[-1] for _ in range(4))
    for lo, hi, shape in zip(starts, starts[1:], in_order):
        kind[lo:hi] = shape.kind
        b[lo:hi] = shape.b
        tag[lo:hi] = shape.tag
        dep[lo:hi] = shape.dep
    return CompiledTrace(kind, a.tolist(), b, tag, dep, starts)


def expected_global_loads(trace: EmbeddingTrace, row_bytes: int) -> int:
    """Analytic warp-level global load count for the baseline kernel:
    one offsets load per warp plus (index + row) per iteration."""
    n_warps = trace.batch_size * warps_per_sample(row_bytes)
    return n_warps + 2 * trace.n_accesses * warps_per_sample(row_bytes)
