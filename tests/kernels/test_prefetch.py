"""Prefetching warp programs: burst structure per buffer station."""

import pytest

from repro.config.gpu import A100_SXM4_80GB
from repro.gpusim.isa import (
    OP_LD_GLOBAL,
    OP_LD_LOCAL,
    OP_LD_SHARED,
    OP_PREFETCH_L1,
    OP_ST_LOCAL,
    OP_ST_SHARED,
)
from repro.kernels.address_map import AddressMap
from repro.kernels.compiler import compile_kernel
from tests.conftest import make_trace
from tests.gpusim.reference_engine import build_prefetch_programs

AMAP = AddressMap(row_bytes=512)
POOL = 12


def program_ops(kind, distance, pooling=POOL, maxrreg=None):
    trace = make_trace(batch=1, pooling=pooling)
    build = compile_kernel(
        A100_SXM4_80GB, prefetch=kind, prefetch_distance=distance,
        maxrregcount=maxrreg,
    )
    programs = build_prefetch_programs(trace, build, AMAP)
    return [list(p()) for p in programs]


def kinds(ops):
    return [op[0] for op in ops]


class TestRowLoadCounts:
    @pytest.mark.parametrize("kind", ["register", "shared", "local"])
    def test_buffered_schemes_load_each_row_once(self, kind):
        ops = program_ops(kind, 4)[0]
        row_loads = [o for o in ops if o[0] == OP_LD_GLOBAL and o[2] == 4]
        assert len(row_loads) == POOL

    def test_l1dpf_prefetches_then_demands(self):
        ops = program_ops("l1d", 4)[0]
        ks = kinds(ops)
        assert ks.count(OP_PREFETCH_L1) == POOL
        demand_rows = [o for o in ops if o[0] == OP_LD_GLOBAL and o[2] == 4]
        assert len(demand_rows) == POOL  # demand loop runs in full


class TestBufferStations:
    def test_smpf_stores_and_loads_shared(self):
        ops = program_ops("shared", 3)[0]
        ks = kinds(ops)
        assert ks.count(OP_ST_SHARED) == POOL
        assert ks.count(OP_LD_SHARED) == POOL

    def test_lmpf_round_trips_local(self):
        ops = program_ops("local", 3)[0]
        ks = kinds(ops)
        assert ks.count(OP_ST_LOCAL) == POOL
        assert ks.count(OP_LD_LOCAL) == POOL

    def test_rpf_uses_no_buffer_ops(self):
        ops = program_ops("register", 3)[0]
        ks = kinds(ops)
        assert OP_ST_SHARED not in ks
        assert OP_LD_SHARED not in ks
        assert OP_ST_LOCAL not in ks

    def test_lmpf_buffer_lines_disjoint_from_spills(self):
        ops = program_ops("local", 3, maxrreg=48)[0]
        buffer_addrs = {o[1] for o in ops if o[0] == OP_ST_LOCAL and
                        o[4] is not None}
        spill_addrs = {o[1] for o in ops if o[0] == OP_ST_LOCAL and
                       o[4] is None}
        assert buffer_addrs.isdisjoint(spill_addrs)


class TestBatching:
    def test_partial_final_group(self):
        # pooling 10, distance 4 -> groups of 4, 4, 2
        ops = program_ops("register", 4, pooling=10)[0]
        row_loads = [o for o in ops if o[0] == OP_LD_GLOBAL and o[2] == 4]
        assert len(row_loads) == 10

    def test_distance_one_degenerates_to_serial(self):
        ops = program_ops("register", 1)[0]
        # one trigger ALU per iteration
        from repro.kernels import calibration as cal

        triggers = [o for o in ops if o[0] == 0 and
                    o[1] == cal.PF_TRIGGER_ALU]
        assert len(triggers) == POOL

    def test_distance_larger_than_pooling(self):
        ops = program_ops("register", 50, pooling=6)[0]
        row_loads = [o for o in ops if o[0] == OP_LD_GLOBAL and o[2] == 4]
        assert len(row_loads) == 6

    def test_burst_issues_loads_back_to_back(self):
        ops = program_ops("register", 4)[0]
        ks = kinds(ops)
        # within a group, the 4 row loads appear before any consume ALU
        # that depends on a prefetch tag
        first_consume = next(
            i for i, o in enumerate(ops)
            if o[0] == 0 and o[4] is not None and o[4] >= 16
        )
        rows_before = sum(
            1 for o in ops[:first_consume]
            if o[0] == OP_LD_GLOBAL and o[2] == 4
        )
        assert rows_before == 4


class TestValidation:
    def test_requires_prefetch_build(self):
        trace = make_trace(batch=1, pooling=4)
        build = compile_kernel(A100_SXM4_80GB)  # no prefetch
        with pytest.raises(ValueError):
            build_prefetch_programs(trace, build, AMAP)

    def test_one_program_per_warp(self):
        trace = make_trace(batch=3, pooling=4)
        build = compile_kernel(
            A100_SXM4_80GB, prefetch="shared", prefetch_distance=2
        )
        assert len(build_prefetch_programs(trace, build, AMAP)) == 12
