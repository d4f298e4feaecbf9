"""Baseline embedding-bag warp programs: structure and op accounting."""

import numpy as np
import pytest

from repro.config.gpu import A100_SXM4_80GB
from repro.gpusim.isa import (
    OP_ALU,
    OP_LD_GLOBAL,
    OP_LD_LOCAL,
    OP_ST_GLOBAL,
    OP_ST_LOCAL,
)
from repro.kernels.address_map import STREAMING_RANGE, AddressMap
from repro.kernels.compiler import compile_kernel
from repro.kernels.embedding_bag import (
    expected_global_loads,
    iter_warp_work,
    warps_per_sample,
)
from tests.conftest import make_trace
from tests.gpusim.reference_engine import build_base_programs

AMAP = AddressMap(row_bytes=512)


def ops_of(program):
    return list(program())


class TestWorkPartitioning:
    def test_warps_per_sample_128_dim_fp32(self):
        assert warps_per_sample(512) == 4

    def test_warps_per_sample_rejects_misaligned(self):
        with pytest.raises(ValueError):
            warps_per_sample(100)

    def test_iter_warp_work_layout(self):
        trace = make_trace(batch=3, pooling=5)
        work = list(iter_warp_work(trace, 512))
        assert len(work) == 3 * 4
        # 4 consecutive warps share a sample, differ in column offset
        sample0 = work[:4]
        assert {w[0] for w in sample0} == {0}
        assert [w[1] for w in sample0] == [0, 128, 256, 384]
        # warps of one sample share the same row list object
        assert sample0[0][3] is sample0[1][3]

    def test_rows_match_trace(self):
        trace = make_trace(batch=2, pooling=4)
        work = list(iter_warp_work(trace, 512))
        assert work[0][3] == trace.sample_rows(0).tolist()
        assert work[4][3] == trace.sample_rows(1).tolist()


class TestProgramStructure:
    def test_op_counts_without_spills(self):
        trace = make_trace(batch=2, pooling=6)
        build = compile_kernel(A100_SXM4_80GB)
        programs = build_base_programs(trace, build, AMAP)
        assert len(programs) == 2 * 4
        ops = ops_of(programs[0])
        kinds = [op[0] for op in ops]
        # per iteration: idx load + addr ALU + row load + accum ALU
        assert kinds.count(OP_LD_GLOBAL) == 1 + 2 * 6  # offsets + per-iter
        assert kinds.count(OP_ST_GLOBAL) == 1
        assert kinds.count(OP_LD_LOCAL) == 0

    def test_expected_global_loads_formula(self):
        trace = make_trace(batch=2, pooling=6)
        build = compile_kernel(A100_SXM4_80GB)
        programs = build_base_programs(trace, build, AMAP)
        total = sum(
            1 for p in programs for op in p() if op[0] == OP_LD_GLOBAL
        )
        assert total == expected_global_loads(trace, 512)

    def test_spill_traffic_emitted_when_capped(self):
        trace = make_trace(batch=2, pooling=40)
        build = compile_kernel(A100_SXM4_80GB, maxrregcount=32)  # 42 spills
        programs = build_base_programs(trace, build, AMAP)
        ops = ops_of(programs[0])
        kinds = [op[0] for op in ops]
        n_spill_loads = kinds.count(OP_LD_LOCAL)
        expected = build.spill_pairs_per_iter * 40
        assert n_spill_loads == pytest.approx(expected, abs=1.5)
        assert kinds.count(OP_ST_LOCAL) == n_spill_loads

    def test_spill_addresses_rotate_distinct_lines(self):
        trace = make_trace(batch=1, pooling=60)
        build = compile_kernel(A100_SXM4_80GB, maxrregcount=48)
        programs = build_base_programs(trace, build, AMAP, warp_uid_base=9)
        local_addrs = {
            op[1] for op in ops_of(programs[0]) if op[0] == OP_LD_LOCAL
        }
        assert len(local_addrs) >= 2
        base = AddressMap.local_window(9)
        for addr in local_addrs:
            assert base <= addr < base + 8192

    def test_row_addresses_target_table_region(self):
        trace = make_trace(batch=1, pooling=4)
        build = compile_kernel(A100_SXM4_80GB)
        programs = build_base_programs(trace, build, AMAP)
        rows = trace.sample_rows(0)
        loads = [op for op in ops_of(programs[1]) if op[0] == OP_LD_GLOBAL]
        # skip offsets + idx loads; row loads are 4-sector
        row_loads = [op for op in loads if op[2] == 4]
        expected = {AMAP.row_addr(int(r), 128) for r in rows}
        assert {op[1] for op in row_loads} == expected

    def test_idx_loads_are_streaming_region(self):
        trace = make_trace(batch=1, pooling=4)
        build = compile_kernel(A100_SXM4_80GB)
        programs = build_base_programs(trace, build, AMAP)
        lo, hi = STREAMING_RANGE
        one_sector = [
            op for op in ops_of(programs[0])
            if op[0] == OP_LD_GLOBAL and op[2] == 1
        ]
        assert one_sector
        for op in one_sector:
            assert lo <= op[1] < hi

    def test_accumulate_depends_on_row_load(self):
        trace = make_trace(batch=1, pooling=3)
        build = compile_kernel(A100_SXM4_80GB)
        ops = ops_of(build_base_programs(trace, build, AMAP)[0])
        # every 4-sector load is followed (eventually) by a dependent ALU
        for i, op in enumerate(ops):
            if op[0] == OP_LD_GLOBAL and op[2] == 4:
                tag = op[3]
                deps = [o for o in ops[i + 1:] if o[4] == tag]
                assert deps, "row load has no consumer"
