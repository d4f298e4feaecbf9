"""Engine invariants over randomized warp programs (hypothesis)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config.gpu import A100_SXM4_80GB
from repro.gpusim.engine import run_kernel
from repro.gpusim.hierarchy import MemoryHierarchy
from repro.gpusim.isa import (
    OP_ALU,
    OP_LD_GLOBAL,
    OP_LD_SHARED,
    OP_ST_GLOBAL,
)
from tests.gpusim.reference_engine import compile_programs

GPU = A100_SXM4_80GB.scaled_slice(1)
TABLE = 1 << 35

# one random micro-op: (kind, operand, tag, dep)
_op = st.tuples(
    st.sampled_from([OP_ALU, OP_LD_GLOBAL, OP_LD_SHARED, OP_ST_GLOBAL]),
    st.integers(1, 8),       # ALU cycles / address stride
    st.integers(0, 3),       # tag
    st.one_of(st.none(), st.integers(0, 3)),  # dep
)
_program = st.lists(_op, min_size=1, max_size=20)
_programs = st.lists(_program, min_size=1, max_size=12)


def materialize(raw_program):
    def gen():
        for kind, operand, tag, dep in raw_program:
            if kind == OP_ALU:
                yield (OP_ALU, operand, 0, None, dep)
            elif kind == OP_LD_GLOBAL:
                yield (OP_LD_GLOBAL, TABLE + 128 * operand, 4, tag, dep)
            elif kind == OP_LD_SHARED:
                yield (OP_LD_SHARED, 0, 0, tag, dep)
            else:
                yield (OP_ST_GLOBAL, TABLE + 128 * operand, 4, None, dep)
    return gen


def run(raw_programs, warps_per_sm=8):
    programs = [materialize(p) for p in raw_programs]
    hierarchy = MemoryHierarchy(GPU)
    return run_kernel(
        GPU, hierarchy, compile_programs(programs),
        warps_per_sm=warps_per_sm, warps_per_block=1,
    )


class TestEngineInvariants:
    @settings(max_examples=40, deadline=None)
    @given(_programs)
    def test_all_instructions_issue_exactly_once(self, raw):
        stats = run(raw)
        expected = sum(
            op[1] if op[0] == OP_ALU else 1
            for program in raw for op in program
        )
        assert stats.issued_insts == expected

    @settings(max_examples=40, deadline=None)
    @given(_programs)
    def test_makespan_bounds(self, raw):
        stats = run(raw)
        # lower bound: no SMSP can issue faster than 1/cycle
        per_warp_issue = [
            sum(op[1] if op[0] == OP_ALU else 1 for op in program)
            for program in raw
        ]
        assert stats.makespan_cycles >= max(per_warp_issue)
        # upper bound: fully serial execution with worst-case latency
        worst = sum(per_warp_issue) + 40 * len(raw) + sum(
            (GPU.lat_hbm + GPU.tlb_miss_penalty + GPU.lat_shared)
            for program in raw for op in program
            if op[0] in (OP_LD_GLOBAL, OP_LD_SHARED)
        )
        assert stats.makespan_cycles <= worst

    @settings(max_examples=40, deadline=None)
    @given(_programs)
    def test_stalls_are_nonnegative(self, raw):
        stats = run(raw)
        assert stats.stall_long_scoreboard >= 0
        assert stats.stall_short_scoreboard >= 0
        assert stats.stall_not_selected >= 0
        assert stats.warp_resident_cycles >= 0

    @settings(max_examples=25, deadline=None)
    @given(_programs, st.integers(1, 16))
    def test_occupancy_never_changes_issue_totals(self, raw, warps):
        a = run(raw, warps_per_sm=8)
        b = run(raw, warps_per_sm=warps)
        assert a.issued_insts == b.issued_insts
        assert a.n_warps == b.n_warps

    @settings(max_examples=25, deadline=None)
    @given(_programs)
    def test_determinism_property(self, raw):
        a = run(raw)
        b = run(raw)
        assert a.makespan_cycles == b.makespan_cycles
        assert a.stall_not_selected == b.stall_not_selected


class TestWaveStress:
    def test_many_small_blocks_all_complete(self):
        raw = [[(OP_ALU, 2, 0, None)]] * 200
        stats = run(raw, warps_per_sm=8)
        assert stats.n_warps == 200
        assert stats.issued_insts == 400

    def test_single_warp_many_loads(self):
        raw = [[(OP_LD_GLOBAL, i, i % 4, None) for i in range(20)]]
        stats = run(raw)
        assert stats.ld_global_insts == 20

    def test_mixed_block_sizes(self):
        programs = [materialize([(OP_ALU, 1, 0, None)])] * 13
        hierarchy = MemoryHierarchy(GPU)
        stats = run_kernel(
            GPU, hierarchy, compile_programs(programs),
            warps_per_sm=8, warps_per_block=4,
        )
        assert stats.n_warps == 13
