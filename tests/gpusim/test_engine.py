"""The event-driven engine: hand-crafted warp programs with known timing.

Programs are written as generators of ISA 5-tuples and lowered with the
test-only ``compile_programs`` before they run.
"""

import pytest

from repro.config.gpu import A100_SXM4_80GB
from repro.gpusim.engine import run_kernel
from repro.gpusim.hierarchy import MemoryHierarchy
from repro.gpusim.isa import (
    alu,
    ld_global,
    ld_shared,
    prefetch_l1,
    prefetch_l2,
    st_global,
    st_shared,
)
from tests.gpusim.reference_engine import compile_programs

GPU = A100_SXM4_80GB.scaled_slice(1)
TABLE = 1 << 35


def run(programs, warps_per_sm=8, set_aside=0):
    hierarchy = MemoryHierarchy(GPU, l2_set_aside_bytes=set_aside)
    stats = run_kernel(
        GPU, hierarchy, compile_programs(programs),
        warps_per_sm=warps_per_sm, warps_per_block=1,
    )
    return stats, hierarchy


def program(*ops):
    def gen():
        yield from ops
    return gen


class TestAluTiming:
    def test_single_alu_burst(self):
        stats, _ = run([program(alu(10))])
        assert stats.makespan_cycles == pytest.approx(10.0)
        assert stats.issued_insts == 10
        assert stats.alu_insts == 10

    def test_sequential_bursts_accumulate(self):
        stats, _ = run([program(alu(5), alu(5))])
        assert stats.makespan_cycles == pytest.approx(10.0)

    def test_two_warps_same_smsp_serialize_issue(self):
        # warps_per_block=1, two blocks land on SMSP 0 and SMSP 1, so use
        # 5 warps to force a same-SMSP pair on a 4-SMSP SM
        stats, _ = run([program(alu(100)) for _ in range(5)])
        # warps 0 and 4 share SMSP 0: its issue port serializes them
        assert stats.makespan_cycles == pytest.approx(200.0)
        assert stats.stall_not_selected > 0


class TestLoadsAndScoreboard:
    def test_independent_load_does_not_stall(self):
        stats, _ = run([program(ld_global(TABLE, 4, 0), alu(3))])
        # load issues at 0, ALU runs immediately after issue
        assert stats.makespan_cycles == pytest.approx(4.0)
        assert stats.stall_long_scoreboard == 0.0

    def test_dependent_alu_waits_for_load(self):
        stats, _ = run([program(ld_global(TABLE, 4, 0), alu(3, dep=0))])
        # cold table load: DRAM + page walk, then the ALU burst
        expected = GPU.lat_hbm + GPU.tlb_miss_penalty + 3
        assert stats.makespan_cycles == pytest.approx(expected, abs=2)
        assert stats.stall_long_scoreboard > 0

    def test_scoreboard_allows_loads_in_flight(self):
        ops = [ld_global(TABLE + i * 128, 4, i) for i in range(4)]
        ops.append(alu(1, dep=3))
        stats, hierarchy = run([program(*ops)])
        # all four loads overlap: far less than 4 serial DRAM latencies
        assert stats.makespan_cycles < 2 * (
            GPU.lat_hbm + GPU.tlb_miss_penalty
        )
        assert hierarchy.hbm.reads == 4

    def test_warp_hides_latency_of_other_warp(self):
        loader = program(ld_global(TABLE, 4, 0), alu(1, dep=0))
        worker = program(alu(400))
        stats, _ = run([loader, worker, worker, worker, worker])
        solo, _ = run([loader])
        # adding computation on other SMSPs doesn't stretch the makespan
        assert stats.makespan_cycles < solo.makespan_cycles + 450

    def test_shared_memory_dep_counts_short_stall(self):
        stats, _ = run([program(ld_shared(0), alu(1, dep=0))])
        assert stats.stall_short_scoreboard > 0
        assert stats.stall_long_scoreboard == 0
        assert stats.makespan_cycles == pytest.approx(
            GPU.lat_shared + 1, abs=1
        )

    def test_dep_on_unknown_tag_is_noop(self):
        stats, _ = run([program(alu(2, dep=42))])
        assert stats.makespan_cycles == pytest.approx(2.0)


class TestStoresAndPrefetch:
    def test_stores_issue_one_cycle(self):
        stats, _ = run([program(st_global(TABLE, 4), st_shared())])
        assert stats.makespan_cycles == pytest.approx(2.0)
        assert stats.st_insts == 2

    def test_prefetch_l1_warms_cache(self):
        stats, hierarchy = run([program(
            prefetch_l1(TABLE, 4),
            alu(2000),  # wait out the fill
            ld_global(TABLE, 4, 0),
            alu(1, dep=0),
        )])
        # the demand load hits L1: total far below two DRAM trips
        assert stats.makespan_cycles < 2004 + GPU.lat_l1 + 5
        assert stats.prefetch_insts == 1

    def test_prefetch_l2_pins(self):
        _, hierarchy = run(
            [program(prefetch_l2(TABLE, 4))],
            set_aside=GPU.l2_set_aside_bytes,
        )
        assert (TABLE >> 7) in hierarchy.l2.pinned


class TestBlockScheduling:
    def test_waves_when_blocks_exceed_slots(self):
        # 4 warps on 1 SM with 1 resident warp -> 4 sequential waves...
        # but each block goes to a different SMSP only when resident, so
        # with warps_per_sm=1 they run one after another
        stats, _ = run([program(alu(10)) for _ in range(4)],
                       warps_per_sm=1)
        assert stats.makespan_cycles == pytest.approx(40.0)

    def test_all_warps_run(self):
        stats, _ = run([program(alu(1)) for _ in range(13)],
                       warps_per_sm=4)
        assert stats.n_warps == 13
        assert stats.issued_insts == 13

    def test_empty_program_list_rejected(self):
        with pytest.raises(ValueError):
            run([])

    def test_zero_occupancy_rejected(self):
        with pytest.raises(ValueError):
            run([program(alu(1))], warps_per_sm=0)

    @pytest.mark.parametrize("warps_per_block, message", [
        (0, "warps_per_block=0, warps_per_sm=8"),
        (-8, "warps_per_block=-8, warps_per_sm=8"),
        (16, "warps_per_block=16, warps_per_sm=8"),
    ], ids=["zero", "negative", "larger-than-resident"])
    def test_block_size_outside_resident_warps_rejected(
        self, warps_per_block, message
    ):
        trace = compile_programs([program(alu(1)) for _ in range(32)])
        with pytest.raises(ValueError, match=message):
            run_kernel(
                GPU, MemoryHierarchy(GPU), trace,
                warps_per_sm=8, warps_per_block=warps_per_block,
            )

    def test_generator_programs_rejected(self):
        with pytest.raises(TypeError, match="CompiledTrace"):
            run_kernel(
                GPU, MemoryHierarchy(GPU), [program(alu(1))],
                warps_per_sm=8, warps_per_block=1,
            )

    def test_empty_warp_program_retires_cleanly(self):
        stats, _ = run([program(), program(alu(5))])
        assert stats.makespan_cycles == pytest.approx(5.0)


class TestAccounting:
    def test_instruction_counters(self):
        stats, _ = run([program(
            ld_global(TABLE, 4, 0),
            ld_shared(1),
            st_global(TABLE, 4),
            alu(7),
            prefetch_l1(TABLE + 128, 4),
        )])
        assert stats.ld_global_insts == 1
        assert stats.ld_shared_insts == 1
        assert stats.st_insts == 1
        assert stats.alu_insts == 7
        assert stats.prefetch_insts == 1
        assert stats.issued_insts == 11
        assert stats.load_insts == 1  # global + local only

    def test_warp_resident_cycles(self):
        stats, _ = run([program(alu(10))])
        assert stats.warp_resident_cycles == pytest.approx(10.0)

    def test_determinism(self):
        def build():
            return [
                program(
                    ld_global(TABLE + 128 * i, 4, 0),
                    alu(3, dep=0),
                    ld_global(TABLE + 64 * i, 2, 1),
                    alu(2, dep=1),
                )
                for i in range(16)
            ]
        a, _ = run(build())
        b, _ = run(build())
        assert a.makespan_cycles == b.makespan_cycles
        assert a.stall_long_scoreboard == b.stall_long_scoreboard
        assert a.issued_insts == b.issued_insts
