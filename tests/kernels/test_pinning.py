"""L2 pinning: hot-row selection, pin kernel, coverage."""

import numpy as np
import pytest

from repro.config.gpu import A100_SXM4_80GB
from repro.datasets.spec import HOTNESS_PRESETS
from repro.gpusim.hierarchy import MemoryHierarchy
from repro.kernels.address_map import AddressMap
from repro.kernels.pinning import (
    hot_row_lines,
    pin_hot_rows,
    pinnable_rows,
    pinned_coverage,
    profile_hot_rows,
    simulate_pin_kernel,
)
from tests.conftest import make_trace
from tests.gpusim.reference_engine import build_pin_kernel_programs

AMAP = AddressMap(row_bytes=512)
GPU = A100_SXM4_80GB.scaled_slice(2)


class TestCapacityMath:
    def test_paper_60k_vectors(self):
        # 30 MB set-aside / 512 B vectors = 61440 (the paper's "top 60K")
        assert pinnable_rows(30 * 1024 * 1024, 512) == 61_440

    def test_zero_set_aside(self):
        assert pinnable_rows(0, 512) == 0


class TestHotRowSelection:
    def test_profiling_matches_timed_trace_hot_set(self):
        spec = HOTNESS_PRESETS["high_hot"]
        hot = profile_hot_rows(
            spec, batch_size=64, pooling_factor=50,
            table_rows=50_000, k=20, seed=0,
        )
        timed = make_trace("high_hot", batch=64, pooling=50, rows=50_000, seed=0)
        coverage = pinned_coverage(timed, hot)
        # the top-20 hot rows carry a large share of a high_hot trace
        assert coverage > 0.25

    def test_hot_row_lines_expands_whole_rows(self):
        lines = hot_row_lines(np.array([0, 1]), AMAP)
        assert len(lines) == 2 * 4  # 512 B rows = 4 lines each
        assert len(set(lines)) == 8

    def test_pinned_coverage_crafted(self):
        trace = make_trace("one_item", batch=4, pooling=4)
        row = trace.indices[0]
        assert pinned_coverage(trace, np.array([row])) == 1.0
        assert pinned_coverage(trace, np.array([row + 1])) == 0.0


class TestDirectPinning:
    def test_pin_hot_rows_respects_capacity(self):
        hierarchy = MemoryHierarchy(
            GPU, l2_set_aside_bytes=16 * 512  # room for 16 rows
        )
        pinned = pin_hot_rows(hierarchy, np.arange(100), AMAP)
        assert pinned == 16 * 4
        assert len(hierarchy.l2.pinned) == 64

    def test_pinned_rows_hit_l2(self):
        hierarchy = MemoryHierarchy(GPU, l2_set_aside_bytes=512 * 64)
        pin_hot_rows(hierarchy, np.array([7]), AMAP)
        done = hierarchy.load(0, AMAP.row_addr(7), 4, now=0.0)
        # guaranteed L2 hit: pays L2 latency + the cold page walk, but
        # never a DRAM trip
        assert done == pytest.approx(GPU.lat_l2 + GPU.tlb_miss_penalty)
        assert hierarchy.dram_read_bytes == 0


class TestPinKernel:
    def test_programs_cover_all_lines(self):
        rows = np.arange(10)
        programs = build_pin_kernel_programs(rows, AMAP, GPU)
        prefetches = [
            op for p in programs for op in p() if op[0] == 8
        ]
        assert len(prefetches) == 40
        covered = {op[1] >> 7 for op in prefetches}
        assert covered == set(hot_row_lines(rows, AMAP))

    def test_simulate_pin_kernel_pins_and_times(self):
        hierarchy = MemoryHierarchy(
            GPU, l2_set_aside_bytes=GPU.l2_set_aside_bytes
        )
        stats = simulate_pin_kernel(GPU, hierarchy, np.arange(50), AMAP)
        assert stats.makespan_cycles > 0
        assert len(hierarchy.l2.pinned) == 200
        assert stats.prefetch_insts == 200
