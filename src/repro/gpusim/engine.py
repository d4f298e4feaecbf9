"""Event-driven warp-level GPU execution engine.

Models what the paper's characterization hinges on, at warp granularity:

* each SM has 4 SMSPs (sub-partitions); an SMSP issues at most one
  warp-instruction per cycle,
* a per-warp scoreboard lets execution continue past loads until the
  first dependent instruction, which then stalls the warp ("long
  scoreboard stall" for global/local loads, "short" for shared memory),
* thread blocks occupy resident-warp slots; the block scheduler streams
  queued blocks onto SMs as slots free up (waves),
* warps that are ready but not picked accumulate "not selected" stalls.

The engine executes one kernel launch lowered into a
:class:`~repro.gpusim.trace.CompiledTrace` — flat per-op columns in the
micro-op encoding of :mod:`repro.gpusim.isa` — against a
:class:`~repro.gpusim.hierarchy.MemoryHierarchy` that provides load
completion times.  Its loop indexes the trace columns directly.
Scheduling is loose-round-robin: the ready warp with the earliest ready
time issues first; ties break deterministically (first pushed, first
issued).

Scheduling semantics:

* **ALU-burst coalescing** — consecutive ALU micro-ops with no
  intervening dependency issue as a single burst; the warp holds its
  SMSP issue port across the chain (a dependent arithmetic chain never
  yields the port mid-burst).  This is what lets the trace builders
  fuse such ops at lowering time without changing any statistic.
* **one-step scoreboard scheduling** — when the op following a
  dispatch depends on an outstanding scoreboard tag, the stall
  (``ready_time - warp_avail``) is attributed immediately and the warp
  is scheduled directly at the dependency's ready time, rather than
  waking at ``warp_avail`` only to re-queue.  Stall attribution is
  therefore measured from when the warp *could have issued* — the way
  NCU's warp-state sampling attributes long/short-scoreboard cycles —
  and each dependency costs one heap event instead of two.  Makespans,
  issue counts and not-selected stalls are unaffected.

``tests/gpusim/reference_engine.py`` keeps a generator-driven executor
with the same semantics; the differential tests and
``tests/golden/kernels.json`` pin this one to it.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.config.gpu import CACHE_LINE_BYTES, GpuSpec
from repro.gpusim.hierarchy import MemoryHierarchy
from repro.gpusim.isa import (
    OP_ALU,
    OP_LD_GLOBAL,
    OP_LD_LOCAL,
    OP_LD_SHARED,
    OP_NAMES,
    OP_PREFETCH_L1,
    OP_PREFETCH_L2,
    OP_ST_GLOBAL,
    OP_ST_LOCAL,
    OP_ST_SHARED,
)
from repro.gpusim.trace import CompiledTrace


@dataclass
class RawKernelStats:
    """Raw counters from one kernel execution (pre-profiler)."""

    name: str
    makespan_cycles: float
    n_warps: int
    warps_per_sm: int
    n_smsp: int
    issued_insts: int
    alu_insts: int
    ld_global_insts: int
    ld_local_insts: int
    ld_shared_insts: int
    st_insts: int
    prefetch_insts: int
    warp_resident_cycles: float
    stall_long_scoreboard: float
    stall_short_scoreboard: float
    stall_not_selected: float

    @property
    def load_insts(self) -> int:
        """Load instructions the way NCU counts them for the paper's
        "#load insts" rows (global + local; shared reported separately)."""
        return self.ld_global_insts + self.ld_local_insts


def run_kernel(
    gpu: GpuSpec,
    hierarchy: MemoryHierarchy,
    trace: CompiledTrace,
    *,
    warps_per_sm: int,
    warps_per_block: int = 8,
    name: str = "kernel",
) -> RawKernelStats:
    """Execute one kernel launch and return its raw statistics.

    ``trace`` holds one op stream per warp in launch order; consecutive
    groups of ``warps_per_block`` warps form thread blocks, which are
    distributed round-robin over the simulated SMs and streamed into
    ``warps_per_sm // warps_per_block`` resident slots per SM.
    """
    if not isinstance(trace, CompiledTrace):
        raise TypeError(
            f"run_kernel takes a CompiledTrace, not {type(trace).__name__}"
        )
    if warps_per_sm <= 0:
        raise ValueError("kernel has zero occupancy (too many registers?)")
    if not 1 <= warps_per_block <= warps_per_sm:
        raise ValueError(
            f"warps_per_block must be between 1 and warps_per_sm: got "
            f"warps_per_block={warps_per_block}, "
            f"warps_per_sm={warps_per_sm}"
        )
    if trace.n_warps == 0:
        raise ValueError("kernel launched with zero warps")
    return _run_compiled(
        gpu, hierarchy, trace,
        warps_per_sm=warps_per_sm, warps_per_block=warps_per_block,
        name=name,
    )


def _run_compiled(
    gpu: GpuSpec,
    hierarchy: MemoryHierarchy,
    trace: CompiledTrace,
    *,
    warps_per_sm: int,
    warps_per_block: int,
    name: str,
) -> RawKernelStats:
    num_sms = gpu.num_sms
    smsps_per_sm = gpu.smsps_per_sm
    n_smsp = num_sms * smsps_per_sm
    lat_shared = gpu.lat_shared

    op_kind = trace.kind
    op_a = trace.a
    op_b = trace.b
    op_tag = trace.tag
    op_dep = trace.dep
    starts = trace.warp_starts
    n_warps = trace.n_warps
    n_ops = trace.n_ops

    # Every op issues exactly once whatever the schedule, so the
    # per-kind counts come from one pass over the kind column; only the
    # ALU cycle count (fused bursts) is summed as bursts issue.
    kind_counts = np.bincount(
        np.fromiter(op_kind, dtype=np.int8, count=n_ops),
        minlength=len(OP_NAMES),
    ).tolist()
    n_alu = 0
    # Without shared-memory loads no tag is ever short-scoreboard.
    track_short = kind_counts[OP_LD_SHARED] > 0

    blocks = [
        range(i, min(i + warps_per_block, n_warps))
        for i in range(0, n_warps, warps_per_block)
    ]
    queues: list[deque] = [deque() for _ in range(num_sms)]
    for bid, block in enumerate(blocks):
        queues[bid % num_sms].append(block)
    resident_slots = warps_per_sm // warps_per_block

    smsp_next_free = [0.0] * n_smsp
    sm_warp_counter = [0] * num_sms

    # per-warp state, indexed by launch id (pc travels in heap entries)
    w_sm = [0] * n_warps
    w_smsp = [0] * n_warps
    w_start = [0.0] * n_warps
    w_pending: list[dict] = [None] * n_warps  # type: ignore[list-item]
    w_short: list[set] = [None] * n_warps  # type: ignore[list-item]
    w_block: list[list] = [None] * n_warps  # type: ignore[list-item]

    heap: list[tuple[float, int, int, int]] = []
    seq = 0

    stall_long = stall_short = stall_ns = 0.0
    warp_resident = 0.0
    max_finish = 0.0
    n_warps_run = 0

    def start_block(sm: int, warp_ids, t: float) -> None:
        nonlocal seq, n_warps_run
        # block state: [warps remaining, latest finish, home SM]
        block_state = [len(warp_ids), t, sm]
        for wi in warp_ids:
            smsp = sm * smsps_per_sm + (sm_warp_counter[sm] % smsps_per_sm)
            sm_warp_counter[sm] += 1
            w_sm[wi] = sm
            w_smsp[wi] = smsp
            w_start[wi] = t
            w_pending[wi] = {}
            w_short[wi] = set()
            w_block[wi] = block_state
            n_warps_run += 1
            if starts[wi] == starts[wi + 1]:  # empty program
                _retire(wi, t)
                continue
            seq += 1
            heapq.heappush(heap, (t, seq, wi, starts[wi]))

    def _retire(wi: int, finish: float) -> None:
        nonlocal warp_resident, max_finish
        warp_resident += finish - w_start[wi]
        if finish > max_finish:
            max_finish = finish
        block_state = w_block[wi]
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

    heappop = heapq.heappop
    load = hierarchy.load
    load_local = hierarchy.load_local
    store = hierarchy.store
    pf_l1 = hierarchy.prefetch_into_l1
    pf_l2 = hierarchy.prefetch_pin_l2
    lat_l1 = hierarchy.gpu.lat_l1
    # Pure L1 hits are accounted here and flushed to the hierarchy after
    # the loop (identical final counters): warm hits on streaming
    # addresses (offsets / indices / output) once their line is in the
    # per-SM seen set, and every local load while local memory fits L1.
    stream_lo, stream_hi = hierarchy.streaming_range
    stream_seen = hierarchy._stream_seen
    line_shift = CACHE_LINE_BYTES.bit_length() - 1
    l1_hits = [0] * num_sms
    local_in_l1 = not hierarchy.local_overflow
    local_reads = local_writes = 0

    heappushpop = heapq.heappushpop
    while heap:
        t, _, wi, pc = heappop(heap)
        # Each pass issues one op of warp ``wi``; the warp is then pushed
        # back and the earliest event popped in one heappushpop, until a
        # warp retires and the outer loop pops the next event.
        while True:
            smsp = w_smsp[wi]
            nf = smsp_next_free[smsp]
            if nf > t:
                stall_ns += nf - t
                t = nf

            kind = op_kind[pc]
            if kind == OP_ALU:
                # runtime burst coalescing (same rule as the builders'
                # ALU fusion, so fused and unfused traces agree)
                a_v = op_a[pc]
                pc += 1
                end = starts[wi + 1]
                while pc < end and op_kind[pc] == OP_ALU and op_dep[pc] < 0:
                    a_v += op_a[pc]
                    pc += 1
                n_alu += a_v
                avail = t + a_v
            else:
                a_v = op_a[pc]
                b_v = op_b[pc]
                if kind == OP_LD_GLOBAL:
                    sm = w_sm[wi]
                    if (
                        stream_lo <= a_v < stream_hi
                        and (a_v >> line_shift) in stream_seen[sm]
                    ):
                        l1_hits[sm] += b_v
                        w_pending[wi][op_tag[pc]] = t + lat_l1
                    else:
                        w_pending[wi][op_tag[pc]] = load(sm, a_v, b_v, t)
                elif kind == OP_LD_LOCAL:
                    if local_in_l1:
                        local_reads += b_v
                        l1_hits[w_sm[wi]] += b_v
                        w_pending[wi][op_tag[pc]] = t + lat_l1
                    else:
                        w_pending[wi][op_tag[pc]] = load_local(
                            w_sm[wi], a_v, b_v, t
                        )
                elif kind == OP_ST_LOCAL:
                    if local_in_l1:
                        local_writes += b_v
                    else:
                        store(w_sm[wi], a_v, b_v, t, local=True)
                elif kind == OP_LD_SHARED:
                    tag_v = op_tag[pc]
                    w_pending[wi][tag_v] = t + lat_shared
                    w_short[wi].add(tag_v)
                elif kind == OP_ST_GLOBAL:
                    store(w_sm[wi], a_v, b_v, t)
                elif kind == OP_ST_SHARED:
                    pass
                elif kind == OP_PREFETCH_L1:
                    pf_l1(w_sm[wi], a_v, b_v, t)
                elif kind == OP_PREFETCH_L2:
                    pf_l2(a_v, b_v, t)
                else:
                    raise ValueError(f"unknown micro-op kind {kind}")
                avail = t + 1
                pc += 1
                end = starts[wi + 1]
            smsp_next_free[smsp] = avail

            if pc == end:
                _retire(wi, avail)
                break

            # one-step scoreboard scheduling for the next op
            dep = op_dep[pc]
            if dep >= 0:
                dep_ready = w_pending[wi].pop(dep, None)
                if dep_ready is not None:
                    if dep_ready > avail:
                        if track_short and dep in w_short[wi]:
                            stall_short += dep_ready - avail
                            w_short[wi].discard(dep)
                        else:
                            stall_long += dep_ready - avail
                        avail = dep_ready
                    elif track_short:
                        w_short[wi].discard(dep)
            seq += 1
            t, _, wi, pc = heappushpop(heap, (avail, seq, wi, pc))

    for sm in range(num_sms):
        if l1_hits[sm]:
            hierarchy.l1s[sm].hit_sectors += l1_hits[sm]
    hierarchy.local_read_sectors += local_reads
    hierarchy.local_write_sectors += local_writes

    if n_warps_run != n_warps:
        raise RuntimeError(
            "block scheduler lost warps: "
            f"ran {n_warps_run} of {n_warps}"
        )

    n_st = (
        kind_counts[OP_ST_GLOBAL] + kind_counts[OP_ST_SHARED]
        + kind_counts[OP_ST_LOCAL]
    )
    return RawKernelStats(
        name=name,
        makespan_cycles=max_finish,
        n_warps=n_warps,
        warps_per_sm=warps_per_sm,
        n_smsp=n_smsp,
        issued_insts=n_alu + n_ops - kind_counts[OP_ALU],
        alu_insts=n_alu,
        ld_global_insts=kind_counts[OP_LD_GLOBAL],
        ld_local_insts=kind_counts[OP_LD_LOCAL],
        ld_shared_insts=kind_counts[OP_LD_SHARED],
        st_insts=n_st,
        prefetch_insts=(
            kind_counts[OP_PREFETCH_L1] + kind_counts[OP_PREFETCH_L2]
        ),
        warp_resident_cycles=warp_resident,
        stall_long_scoreboard=stall_long,
        stall_short_scoreboard=stall_short,
        stall_not_selected=stall_ns,
    )
