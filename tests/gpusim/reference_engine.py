"""Test-only reference: generator warp programs and the engine that
drives them.

The library lowers every kernel straight into a
:class:`~repro.gpusim.trace.CompiledTrace` and runs it on the one
executor, :func:`repro.gpusim.engine.run_kernel`.  This module keeps
the slow, obviously-correct shapes that executor and those lowerings
replaced, so tests can compare against them:

* the generator *programs* — one factory per warp yielding the ISA
  5-tuples of :mod:`repro.gpusim.isa` — for the base, prefetching and
  pin kernels (:func:`build_programs`, :func:`build_pin_kernel_programs`);
* :func:`compile_programs`, which lowers such programs into a
  ``CompiledTrace`` (and :func:`to_programs` / :func:`warp_ops`, which
  go back the other way);
* :func:`run_reference`, the generator-driven executor with the same
  scheduling semantics as ``run_kernel``.

``tests/gpusim/test_trace_compile.py`` pins the library's trace
builders to ``compile_programs(build_programs(...))`` and the executor
to ``run_reference``; ``tests/gpusim/test_differential_fuzz.py`` does
the same over 50 random launches; and
``benchmarks/test_bench_engine_throughput.py`` uses ``run_reference``
as its same-process yardstick.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable, Iterable, Iterator

from repro.config.gpu import GpuSpec
from repro.datasets.trace import EmbeddingTrace
from repro.gpusim.engine import RawKernelStats
from repro.gpusim.hierarchy import MemoryHierarchy
from repro.gpusim.isa import (
    OP_ALU,
    OP_LD_GLOBAL,
    OP_LD_LOCAL,
    OP_LD_SHARED,
    OP_PREFETCH_L1,
    OP_PREFETCH_L2,
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
    TAG_ROW,
    TAG_SMEM,
    TAG_SPILL,
    iter_warp_work,
    spill_state,
)
from repro.kernels.pinning import _LINE_SHIFT, _PIN_LOOP_ALU, hot_row_lines

WarpProgram = Callable[[], Iterator[tuple]]


# ----------------------------------------------------------------------
# generator programs
# ----------------------------------------------------------------------
def make_base_warp_program(
    amap: AddressMap,
    sample: int,
    col_off: int,
    flat_begin: int,
    rows: list[int],
    warp_uid: int,
    spill_pairs: float,
    spill_lines: int,
) -> WarpProgram:
    """The off-the-shelf kernel body for one warp (plus spill traffic)."""
    addr_alu = cal.ADDR_CALC_ALU
    accum_alu = cal.ACCUM_ALU
    local_line = AddressMap.local_line

    def gen() -> Iterator[tuple]:
        yield (OP_LD_GLOBAL, amap.offsets_addr(sample), 1, TAG_OFF, None)
        yield (OP_ALU, cal.PROLOGUE_ALU, 0, None, TAG_OFF)
        idx_base = amap.index_addr(flat_begin)
        spill_acc = 0.0
        spill_slot = 0
        for i, row in enumerate(rows):
            yield (OP_LD_GLOBAL, idx_base + 8 * i, 1, TAG_IDX, None)
            yield (OP_ALU, addr_alu, 0, None, TAG_IDX)
            yield (OP_LD_GLOBAL, amap.row_addr(row, col_off), 4,
                   TAG_ROW, None)
            yield (OP_ALU, accum_alu, 0, None, TAG_ROW)
            spill_acc += spill_pairs
            while spill_acc >= 1.0:
                spill_acc -= 1.0
                addr = local_line(warp_uid, spill_slot % spill_lines)
                spill_slot += 1
                yield (OP_ST_LOCAL, addr, 4, None, None)
                yield (OP_LD_LOCAL, addr, 4, TAG_SPILL, None)
                yield (OP_ALU, cal.SPILL_CONSUME_ALU, 0, None, TAG_SPILL)
        yield (OP_ALU, cal.EPILOGUE_ALU, 0, None, None)
        yield (OP_ST_GLOBAL, amap.output_addr(sample, col_off), 4,
               None, None)

    return gen


def build_base_programs(
    trace: EmbeddingTrace,
    build: KernelBuild,
    amap: AddressMap,
    *,
    warp_uid_base: int = 0,
) -> list[WarpProgram]:
    """Programs for every warp of a baseline (or OptMT) kernel launch."""
    spill_pairs, spill_lines = spill_state(build)
    programs: list[WarpProgram] = []
    uid = warp_uid_base
    for sample, col_off, begin, rows in iter_warp_work(
            trace, amap.row_bytes):
        programs.append(
            make_base_warp_program(
                amap, sample, col_off, begin, rows,
                uid, spill_pairs, spill_lines,
            )
        )
        uid += 1
    return programs


def _spill_ops(
    warp_uid: int, spill_slot: int, spill_lines: int
) -> tuple[tuple, tuple, tuple]:
    addr = AddressMap.local_line(warp_uid, spill_slot % spill_lines)
    return (
        (OP_ST_LOCAL, addr, 4, None, None),
        (OP_LD_LOCAL, addr, 4, TAG_SPILL, None),
        (OP_ALU, cal.SPILL_CONSUME_ALU, 0, None, TAG_SPILL),
    )


def _make_prefetch_program(
    kind: str,
    amap: AddressMap,
    sample: int,
    col_off: int,
    flat_begin: int,
    rows: list[int],
    warp_uid: int,
    distance: int,
    spill_pairs: float,
    spill_lines: int,
) -> WarpProgram:
    addr_alu = cal.ADDR_CALC_ALU
    consume_alu = cal.ACCUM_ALU + cal.PF_CONSUME_EXTRA_ALU[kind]
    trigger_alu = cal.PF_TRIGGER_ALU
    idx_base = amap.index_addr(flat_begin)
    local_line = AddressMap.local_line

    def gen() -> Iterator[tuple]:
        yield (OP_LD_GLOBAL, amap.offsets_addr(sample), 1, TAG_OFF, None)
        yield (OP_ALU, cal.PROLOGUE_ALU, 0, None, TAG_OFF)
        n = len(rows)
        spill_acc = 0.0
        spill_slot = 0
        i = 0
        while i < n:
            batch = distance if i + distance <= n else n - i
            yield (OP_ALU, trigger_alu, 0, None, None)
            # --- prefetch burst: gather loads issued back-to-back ------
            if kind == "l1d":
                for j in range(batch):
                    yield (OP_LD_GLOBAL, idx_base + 8 * (i + j), 1,
                           TAG_IDX, None)
                    yield (OP_ALU, cal.L1DPF_BURST_ALU, 0, None, TAG_IDX)
                    yield (OP_PREFETCH_L1,
                           amap.row_addr(rows[i + j], col_off), 4,
                           None, None)
            else:
                for j in range(batch):
                    yield (OP_LD_GLOBAL, idx_base + 8 * (i + j), 1,
                           TAG_IDX, None)
                    yield (OP_ALU, addr_alu, 0, None, TAG_IDX)
                    yield (OP_LD_GLOBAL,
                           amap.row_addr(rows[i + j], col_off), 4,
                           TAG_PF_BASE + j, None)
            # --- park the burst in the buffer station -------------------
            if kind == "shared":
                for j in range(batch):
                    yield (OP_ST_SHARED, 0, 0, None, TAG_PF_BASE + j)
            elif kind == "local":
                for j in range(batch):
                    yield (OP_ST_LOCAL,
                           local_line(warp_uid, LMPF_SLOT_BASE + j), 4,
                           None, TAG_PF_BASE + j)
            # --- consume one iteration at a time ------------------------
            for j in range(batch):
                if kind == "register":
                    yield (OP_ALU, consume_alu, 0, None, TAG_PF_BASE + j)
                elif kind == "shared":
                    yield (OP_LD_SHARED, 0, 0, TAG_SMEM, None)
                    yield (OP_ALU, consume_alu, 0, None, TAG_SMEM)
                elif kind == "local":
                    yield (OP_LD_LOCAL,
                           local_line(warp_uid, LMPF_SLOT_BASE + j), 4,
                           TAG_LOCAL_PF, None)
                    yield (OP_ALU, consume_alu, 0, None, TAG_LOCAL_PF)
                else:  # l1d: the demand loop runs in full, hitting L1
                    yield (OP_LD_GLOBAL, idx_base + 8 * (i + j), 1,
                           TAG_IDX, None)
                    yield (OP_ALU, addr_alu, 0, None, TAG_IDX)
                    yield (OP_LD_GLOBAL,
                           amap.row_addr(rows[i + j], col_off), 4,
                           TAG_PF_BASE, None)
                    yield (OP_ALU, consume_alu, 0, None, TAG_PF_BASE)
                spill_acc += spill_pairs
                while spill_acc >= 1.0:
                    spill_acc -= 1.0
                    for op in _spill_ops(warp_uid, spill_slot, spill_lines):
                        yield op
                    spill_slot += 1
            i += batch
        yield (OP_ALU, cal.EPILOGUE_ALU, 0, None, None)
        yield (OP_ST_GLOBAL, amap.output_addr(sample, col_off), 4,
               None, None)

    return gen


def build_prefetch_programs(
    trace: EmbeddingTrace,
    build: KernelBuild,
    amap: AddressMap,
    *,
    warp_uid_base: int = 0,
) -> list[WarpProgram]:
    """Programs for every warp of a prefetching kernel launch."""
    if build.prefetch is None:
        raise ValueError("kernel build has no prefetch scheme")
    spill_pairs, spill_lines = spill_state(build)
    programs: list[WarpProgram] = []
    uid = warp_uid_base
    for sample, col_off, begin, rows in iter_warp_work(
            trace, amap.row_bytes):
        programs.append(
            _make_prefetch_program(
                build.prefetch, amap, sample, col_off, begin, rows,
                uid, build.prefetch_distance, spill_pairs, spill_lines,
            )
        )
        uid += 1
    return programs


def build_programs(
    trace: EmbeddingTrace,
    build: KernelBuild,
    amap: AddressMap,
    *,
    warp_uid_base: int = 0,
) -> list[WarpProgram]:
    """Warp programs for one table's kernel launch under any variant
    (the generator twin of ``repro.kernels.embedding_bag.build_trace``)."""
    if build.prefetch is None:
        return build_base_programs(
            trace, build, amap, warp_uid_base=warp_uid_base
        )
    return build_prefetch_programs(
        trace, build, amap, warp_uid_base=warp_uid_base
    )


def build_pin_kernel_programs(
    rows, amap: AddressMap, gpu: GpuSpec
) -> list[WarpProgram]:
    """Warp programs for the explicit pin kernel (the generator twin of
    ``repro.kernels.pinning.build_pin_kernel_trace``): hot-row lines
    are strided across one block of warps per SM, each warp issuing
    ``prefetch.global.L2::evict_last`` back to back."""
    lines = hot_row_lines(rows, amap)
    n_warps = max(1, gpu.num_sms * gpu.warps_per_block)

    def make_program(start: int) -> WarpProgram:
        my_lines = lines[start::n_warps]

        def gen() -> Iterator[tuple]:
            for line in my_lines:
                yield (OP_PREFETCH_L2, line << _LINE_SHIFT, 4, None, None)
                yield (OP_ALU, _PIN_LOOP_ALU, 0, None, None)

        return gen

    return [make_program(w) for w in range(n_warps)]


# ----------------------------------------------------------------------
# generator programs <-> compiled traces
# ----------------------------------------------------------------------
def compile_programs(
    programs: Iterable[WarpProgram], *, fuse: bool = True
) -> CompiledTrace:
    """Lower generator warp programs into one flat ``CompiledTrace``.

    Runs each generator exactly once, appending its ISA 5-tuples to a
    ``TraceBuilder`` (``None`` tag/dep become ``-1``), with ALU fusion
    unless ``fuse=False``.
    """
    builder = TraceBuilder(fuse=fuse)
    append = builder.append
    for factory in programs:
        for kind, a, b, tag, dep in factory():
            append(
                kind, a, b,
                -1 if tag is None else tag,
                -1 if dep is None else dep,
            )
        builder.end_warp()
    return builder.build()


def warp_ops(trace: CompiledTrace, warp: int) -> Iterator[tuple]:
    """The ISA 5-tuples of one warp of ``trace`` (``-1`` back to None)."""
    kind, a, b = trace.kind, trace.a, trace.b
    tag, dep = trace.tag, trace.dep
    for i in range(trace.warp_starts[warp], trace.warp_starts[warp + 1]):
        yield (
            kind[i], a[i], b[i],
            tag[i] if tag[i] >= 0 else None,
            dep[i] if dep[i] >= 0 else None,
        )


def to_programs(trace: CompiledTrace) -> list[WarpProgram]:
    """Generator-program adapters over a compiled trace."""

    def make(w: int) -> WarpProgram:
        return lambda: warp_ops(trace, w)

    return [make(w) for w in range(trace.n_warps)]


# ----------------------------------------------------------------------
# the generator-driven executor
# ----------------------------------------------------------------------
class _Warp:
    __slots__ = ("gen", "op", "sm", "smsp", "pending", "short_tags",
                 "avail", "start", "block")

    def __init__(self, gen: Iterator[tuple], sm: int, smsp: int,
                 start: float, block: list) -> None:
        self.gen = gen
        self.op = next(gen, None)
        self.sm = sm
        self.smsp = smsp
        self.pending: dict[int, float] = {}
        self.short_tags: set[int] = set()
        self.avail = start
        self.start = start
        self.block = block


def run_reference(
    gpu: GpuSpec,
    hierarchy: MemoryHierarchy,
    programs: Iterable[WarpProgram] | CompiledTrace,
    *,
    warps_per_sm: int,
    warps_per_block: int = 8,
    name: str = "kernel",
) -> RawKernelStats:
    """Execute one launch by driving its generator programs directly.

    Same contract and scheduling semantics as ``run_kernel``: blocks of
    ``warps_per_block`` warps go round-robin over the SMs and stream
    into ``warps_per_sm // warps_per_block`` resident slots per SM.
    """
    if isinstance(programs, CompiledTrace):
        programs = to_programs(programs)
    programs = list(programs)
    if warps_per_sm <= 0:
        raise ValueError("kernel has zero occupancy (too many registers?)")
    if not programs:
        raise ValueError("kernel launched with zero warps")
    num_sms = gpu.num_sms
    smsps_per_sm = gpu.smsps_per_sm
    n_smsp = num_sms * smsps_per_sm
    lat_shared = gpu.lat_shared

    blocks = [
        programs[i:i + warps_per_block]
        for i in range(0, len(programs), warps_per_block)
    ]
    queues: list[deque] = [deque() for _ in range(num_sms)]
    for b, block in enumerate(blocks):
        queues[b % num_sms].append(block)
    resident_slots = max(1, warps_per_sm // warps_per_block)

    smsp_next_free = [0.0] * n_smsp
    smsp_issued = [0] * n_smsp
    sm_warp_counter = [0] * num_sms

    heap: list[tuple[float, int, _Warp]] = []
    seq = 0

    # counters
    n_alu = n_ldg = n_ldl = n_lds = n_st = n_pf = 0
    stall_long = stall_short = stall_ns = 0.0
    warp_resident = 0.0
    max_finish = 0.0
    n_warps_run = 0

    def start_block(sm: int, factories: list[WarpProgram], t: float) -> None:
        nonlocal seq, n_warps_run
        # block state: [warps remaining, latest finish, home SM]
        block_state = [len(factories), t, sm]
        for factory in factories:
            smsp = sm * smsps_per_sm + (sm_warp_counter[sm] % smsps_per_sm)
            sm_warp_counter[sm] += 1
            warp = _Warp(factory(), sm, smsp, t, block_state)
            n_warps_run += 1
            if warp.op is None:  # empty program: finishes immediately
                _retire(warp, t)
                continue
            seq += 1
            heapq.heappush(heap, (t, seq, warp))

    def _retire(warp: _Warp, finish: float) -> None:
        nonlocal warp_resident, max_finish
        warp_resident += finish - warp.start
        if finish > max_finish:
            max_finish = finish
        block_state = warp.block
        block_state[0] -= 1
        if finish > block_state[1]:
            block_state[1] = finish
        if block_state[0] == 0:
            home = block_state[2]
            if queues[home]:
                start_block(home, queues[home].popleft(), block_state[1])

    for sm in range(num_sms):
        for _ in range(resident_slots):
            if queues[sm]:
                start_block(sm, queues[sm].popleft(), 0.0)

    heappush, heappop = heapq.heappush, heapq.heappop
    load = hierarchy.load
    store = hierarchy.store
    pf_l1 = hierarchy.prefetch_into_l1
    pf_l2 = hierarchy.prefetch_pin_l2

    while heap:
        t, _, w = heappop(heap)
        op = w.op
        smsp = w.smsp
        nf = smsp_next_free[smsp]
        t_can = nf if nf > t else t
        if t_can > t:
            stall_ns += t_can - t

        kind = op[0]
        if kind == OP_ALU:
            n = op[1]
            # runtime burst coalescing: a dependency-free ALU op directly
            # following an ALU op joins the same burst (the warp holds
            # its issue port across the chain) — the same rule the trace
            # compiler applies at compile time
            nxt = next(w.gen, None)
            while nxt is not None and nxt[0] == OP_ALU and nxt[4] is None:
                n += nxt[1]
                nxt = next(w.gen, None)
            smsp_next_free[smsp] = t_can + n
            smsp_issued[smsp] += n
            n_alu += n
            w.avail = t_can + n
        else:
            if kind == OP_LD_GLOBAL:
                w.pending[op[3]] = load(w.sm, op[1], op[2], t_can)
                n_ldg += 1
            elif kind == OP_LD_LOCAL:
                w.pending[op[3]] = load(w.sm, op[1], op[2], t_can, local=True)
                n_ldl += 1
            elif kind == OP_LD_SHARED:
                tag = op[3]
                w.pending[tag] = t_can + lat_shared
                w.short_tags.add(tag)
                n_lds += 1
            elif kind == OP_ST_GLOBAL:
                store(w.sm, op[1], op[2], t_can)
                n_st += 1
            elif kind == OP_ST_SHARED:
                n_st += 1
            elif kind == OP_ST_LOCAL:
                store(w.sm, op[1], op[2], t_can, local=True)
                n_st += 1
            elif kind == OP_PREFETCH_L1:
                pf_l1(w.sm, op[1], op[2], t_can)
                n_pf += 1
            elif kind == OP_PREFETCH_L2:
                pf_l2(op[1], op[2], t_can)
                n_pf += 1
            else:
                raise ValueError(f"unknown micro-op kind {kind}")
            smsp_next_free[smsp] = t_can + 1
            smsp_issued[smsp] += 1
            w.avail = t_can + 1
            nxt = next(w.gen, None)

        if nxt is None:
            _retire(w, w.avail)
            continue

        # one-step scoreboard scheduling for the next op
        avail = w.avail
        nxt_t = avail
        dep = nxt[4]
        if dep is not None:
            dep_ready = w.pending.get(dep)
            if dep_ready is not None:
                del w.pending[dep]
                if dep_ready > avail:
                    if dep in w.short_tags:
                        stall_short += dep_ready - avail
                        w.short_tags.discard(dep)
                    else:
                        stall_long += dep_ready - avail
                    nxt_t = dep_ready
                else:
                    w.short_tags.discard(dep)
        w.op = nxt
        seq += 1
        heappush(heap, (nxt_t, seq, w))

    if n_warps_run != len(programs):
        raise RuntimeError(
            "block scheduler lost warps: "
            f"ran {n_warps_run} of {len(programs)}"
        )

    return RawKernelStats(
        name=name,
        makespan_cycles=max_finish,
        n_warps=len(programs),
        warps_per_sm=warps_per_sm,
        n_smsp=n_smsp,
        issued_insts=sum(smsp_issued),
        alu_insts=n_alu,
        ld_global_insts=n_ldg,
        ld_local_insts=n_ldl,
        ld_shared_insts=n_lds,
        st_insts=n_st,
        prefetch_insts=n_pf,
        warp_resident_cycles=warp_resident,
        stall_long_scoreboard=stall_long,
        stall_short_scoreboard=stall_short,
        stall_not_selected=stall_ns,
    )
