"""Trace lowering and the one executor, against the test-only
reference; and the kernel-result memo layer.

The contract under test: for every kernel variant the repo can build,
the library's trace builders emit exactly the op stream of the readable
generator programs in :mod:`tests.gpusim.reference_engine`, and
``run_kernel`` produces ``RawKernelStats`` *identical field for field*
to the generator-driven reference executor, on identical hierarchy
state.  ``tests/golden/kernels.json`` pins the same lineup's numbers.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.embedding import run_table_kernel
from repro.core.schemes import Scheme
from repro.datasets.generator import generate_trace
from repro.datasets.graph import csr_trace
from repro.datasets.spec import HOTNESS_PRESETS
from repro.datasets.trace import EmbeddingTrace
from repro.gpusim.engine import run_kernel
from repro.gpusim.isa import OP_ALU, OP_LD_GLOBAL
from repro.gpusim.memo import (
    KernelMemo,
    MemoizedKernelRun,
    memo_key,
)
from repro.gpusim.profiler import HierarchyStats
from repro.gpusim.trace import TraceBuilder
from repro.kernels.address_map import AddressMap
from repro.kernels.pinning import build_pin_kernel_trace
from repro.kernels.embedding_bag import build_trace
from tests.gpusim.kernel_cases import (
    CURATED_SCHEMES,
    PINNED_SCHEME,
    curated_launch,
    curated_workload,
    pin_kernel_rows,
)
from tests.gpusim.reference_engine import (
    build_pin_kernel_programs,
    build_programs,
    compile_programs,
    run_reference,
    to_programs,
)


#: Bag sizes of the ragged launch: two empty bags, six row counts and a
#: run of equal bags mid-launch, so one launch lowers several warp
#: shapes and shares one among consecutive samples.
RAGGED_BAGS = (0, 3, 7, 1, 12, 0, 5, 9, 9, 9)

#: Every variant the builder lowers: base, OptMT and a tight register
#: cap, then every prefetch station at several distances, with and
#: without OptMT.
RAGGED_SCHEMES = (
    Scheme(), Scheme(optmt=True), Scheme(maxrregcount=32),
) + tuple(
    Scheme(prefetch=station, prefetch_distance=distance, optmt=optmt)
    for station in ("register", "shared", "local", "l1d")
    for distance in (1, 2, 3, 5)
    for optmt in (False, True)
)


def ragged_trace() -> EmbeddingTrace:
    rng = np.random.default_rng(23)
    table_rows = 4096
    return EmbeddingTrace(
        name="ragged",
        indices=rng.integers(0, table_rows, sum(RAGGED_BAGS)),
        offsets=np.concatenate(([0], np.cumsum(RAGGED_BAGS))),
        table_rows=table_rows,
    )


def graph_trace() -> EmbeddingTrace:
    """A neighbor-gather launch over power-law vertex degrees (1 to
    307 rows): most bags differ in size from the one before, as in the
    graph workloads of :mod:`repro.datasets.graph`."""
    rng = np.random.default_rng(7)
    table_rows = 4096
    degrees = np.minimum(rng.zipf(1.6, 48), 400)
    return csr_trace(
        np.concatenate(([0], np.cumsum(degrees))),
        rng.integers(0, table_rows, degrees.sum()),
        table_rows,
    )


@pytest.fixture(scope="module")
def workload():
    return curated_workload()


@pytest.fixture(scope="module")
def traces(workload):
    return {
        name: generate_trace(
            HOTNESS_PRESETS[name],
            batch_size=workload.batch_size,
            pooling_factor=workload.pooling_factor,
            table_rows=workload.table_rows,
            seed=0,
        )
        for name in ("med_hot", "random")
    }


def hierarchy_snapshot(hierarchy):
    return dataclasses.asdict(HierarchyStats.capture(hierarchy))


def run_both(launch):
    """(stats, hierarchy snapshot) from the reference executor on the
    generator programs, then from ``run_kernel`` on the built trace."""
    results = []
    for run, programs in (
        (run_reference,
         build_programs(launch.trace, launch.build, launch.amap)),
        (run_kernel, build_trace(launch.trace, launch.build, launch.amap)),
    ):
        hierarchy = launch.hierarchy()
        stats = run(launch.gpu, hierarchy, programs, **launch.run_args())
        results.append(
            (dataclasses.asdict(stats), hierarchy_snapshot(hierarchy))
        )
    return results


class TestCompiledEquivalence:
    @pytest.mark.parametrize(
        "scheme", CURATED_SCHEMES, ids=lambda s: s.name or "base"
    )
    @pytest.mark.parametrize("dataset", ["med_hot", "random"])
    def test_stats_identical_to_reference(self, dataset, scheme):
        """``run_kernel`` == the reference executor, field for field,
        plus the full memory-hierarchy counter state."""
        ref, fast = run_both(curated_launch(scheme, dataset))
        assert fast == ref

    @pytest.mark.parametrize(
        "scheme", CURATED_SCHEMES, ids=lambda s: s.name or "base"
    )
    def test_structured_builders_match_lowered_generators(self, scheme):
        """The trace builders emit exactly the op stream of the
        generator programs, fused the same way."""
        launch = curated_launch(scheme, "med_hot")
        args = (launch.trace, launch.build, launch.amap)
        structured = build_trace(*args)
        lowered = compile_programs(build_programs(*args))
        assert structured == lowered
        assert structured.fingerprint() == lowered.fingerprint()

    @pytest.mark.parametrize(
        "scheme", RAGGED_SCHEMES,
        ids=lambda s: f"{s.name}-d{s.resolved_distance()}",
    )
    def test_ragged_bags_match_lowered_generators(self, workload, scheme):
        """Bags of different sizes, empty ones included: each launch
        mixes warp shapes, and every one matches the generator
        programs op for op."""
        args = (
            ragged_trace(),
            scheme.compile(workload.gpu),
            AddressMap(row_bytes=workload.row_bytes),
        )
        assert build_trace(*args) == compile_programs(build_programs(*args))

    @pytest.mark.parametrize(
        "scheme", RAGGED_SCHEMES,
        ids=lambda s: f"{s.name}-d{s.resolved_distance()}",
    )
    def test_graph_launch_matches_lowered_generators(self, workload,
                                                     scheme):
        """A graph launch: nearly every warp shape is cut from the
        longest warp's trigger groups, and each matches the generator
        programs op for op."""
        args = (
            graph_trace(),
            scheme.compile(workload.gpu),
            AddressMap(row_bytes=workload.row_bytes),
        )
        assert build_trace(*args) == compile_programs(build_programs(*args))

    def test_pinned_kernel_equivalence(self):
        """The L2-pinning variant: pinned hierarchy state, both paths."""
        ref, fast = run_both(curated_launch(PINNED_SCHEME, "med_hot"))
        assert fast == ref

    def test_pin_kernel_trace_matches_programs(self, workload):
        hot = pin_kernel_rows(workload)
        amap = AddressMap(row_bytes=workload.row_bytes)
        gpu = workload.gpu
        structured = build_pin_kernel_trace(hot, amap, gpu)
        lowered = compile_programs(build_pin_kernel_programs(hot, amap, gpu))
        assert structured == lowered

    def test_unfused_trace_runs_identically(self):
        """Runtime ALU coalescing makes fused and unfused encodings of
        the same program execute identically."""
        launch = curated_launch(Scheme(optmt=True), "med_hot")
        args = (launch.trace, launch.build, launch.amap)
        fused = compile_programs(build_programs(*args))
        unfused = compile_programs(build_programs(*args), fuse=False)
        assert unfused.n_ops > fused.n_ops
        out = []
        for compiled in (fused, unfused):
            stats = run_kernel(
                launch.gpu, launch.hierarchy(), compiled,
                **launch.run_args(),
            )
            out.append(dataclasses.asdict(stats))
        assert out[0] == out[1]

    def test_run_kernel_dispatch_paths_agree(self):
        """Built and lowered traces through ``run_kernel``, and programs
        or a trace through the reference, all agree."""
        launch = curated_launch(Scheme(), "med_hot")
        args = (launch.trace, launch.build, launch.amap)
        outs = []
        for run, programs in (
            (run_kernel, build_trace(*args)),
            (run_kernel, compile_programs(build_programs(*args))),
            (run_reference, build_programs(*args)),
            (run_reference, build_trace(*args)),
        ):
            stats = run(
                launch.gpu, launch.hierarchy(), programs,
                **launch.run_args(),
            )
            outs.append(dataclasses.asdict(stats))
        assert outs[0] == outs[1] == outs[2] == outs[3]


class TestTraceStructure:
    def test_roundtrip_through_programs(self, workload, traces):
        build = Scheme(prefetch="register", optmt=True).compile(workload.gpu)
        amap = AddressMap(row_bytes=workload.row_bytes)
        ct = build_trace(traces["med_hot"], build, amap)
        assert compile_programs(to_programs(ct)) == ct

    def test_fingerprint_stable_and_content_addressed(
        self, workload, traces
    ):
        build = Scheme().compile(workload.gpu)
        amap = AddressMap(row_bytes=workload.row_bytes)
        a = build_trace(traces["med_hot"], build, amap)
        b = build_trace(traces["med_hot"], build, amap)
        assert a.fingerprint() == b.fingerprint()
        other = build_trace(traces["random"], build, amap)
        assert a.fingerprint() != other.fingerprint()

    def test_builder_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            TraceBuilder().append(99)

    def test_builder_requires_terminated_warps(self):
        builder = TraceBuilder()
        builder.append(OP_ALU, 3)
        with pytest.raises(ValueError):
            builder.build()

    def test_builder_fuses_dependency_free_alu_runs(self):
        builder = TraceBuilder()
        builder.append(OP_ALU, 3, dep=1)
        builder.append(OP_ALU, 4)
        builder.append(OP_ALU, 5)
        builder.append(OP_LD_GLOBAL, 1 << 35, 4, tag=0)
        builder.append(OP_ALU, 2, dep=0)  # dep: not fused
        builder.end_warp()
        ct = builder.build()
        assert ct.kind == [OP_ALU, OP_LD_GLOBAL, OP_ALU]
        assert ct.a[0] == 12
        # fusion never crosses a warp boundary
        builder2 = TraceBuilder()
        builder2.append(OP_ALU, 3)
        builder2.end_warp()
        builder2.append(OP_ALU, 4)
        builder2.end_warp()
        assert builder2.build().n_ops == 2

    def test_empty_warp_is_legal(self):
        builder = TraceBuilder()
        builder.end_warp()
        builder.append(OP_ALU, 5)
        builder.end_warp()
        ct = builder.build()
        assert ct.n_warps == 2
        assert ct.warp_starts == [0, 0, 1]


class TestKernelMemo:
    def test_key_stable_across_calls(self, workload, traces):
        parts = (
            "table-kernel", workload.gpu, traces["med_hot"].indices,
            traces["med_hot"].offsets, 3.5, None, True,
        )
        assert memo_key(*parts) == memo_key(*parts)

    def test_key_invalidates_on_any_input_change(self, workload, traces):
        base = memo_key("k", workload.gpu, traces["med_hot"].indices, 0)
        assert base != memo_key("k", workload.gpu,
                                traces["med_hot"].indices, 1)
        assert base != memo_key("k", workload.full_gpu,
                                traces["med_hot"].indices, 0)
        assert base != memo_key("k", workload.gpu,
                                traces["random"].indices, 0)

    def test_key_type_tagged(self):
        assert memo_key(1) != memo_key("1")
        assert memo_key(1.0) != memo_key(1)
        assert memo_key(True) != memo_key(1)
        assert memo_key(None) != memo_key("None")

    def test_key_rejects_unhashable_types(self):
        with pytest.raises(TypeError):
            memo_key(object())

    def _run_once(self, workload, memo, *, seed=0, scheme=None):
        return run_table_kernel(
            workload,
            HOTNESS_PRESETS["med_hot"],
            scheme or Scheme(optmt=True),
            seed=seed,
            memo=memo,
        )

    def test_hit_returns_equal_result_without_engine(
        self, workload, monkeypatch
    ):
        memo = KernelMemo(capacity=8)
        cold = self._run_once(workload, memo)
        assert memo.misses == 1 and memo.hits == 0

        import repro.core.embedding as embedding_mod

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("engine ran on a memo hit")

        monkeypatch.setattr(embedding_mod, "run_kernel", boom)
        warm = self._run_once(workload, memo)
        assert memo.hits == 1
        assert warm.profile == cold.profile
        assert warm.build == cold.build
        assert (warm.pinned_lines, warm.pin_coverage, warm.pin_kernel_us) \
            == (cold.pinned_lines, cold.pin_coverage, cold.pin_kernel_us)

    def test_pinned_hit_skips_profiling_and_engine(
        self, workload, monkeypatch
    ):
        """For L2P schemes a memo hit must skip the offline hot-row
        profiling pass too, not just the engine run."""
        memo = KernelMemo(capacity=8)
        scheme = Scheme(l2_pinning=True, optmt=True)
        cold = self._run_once(workload, memo, scheme=scheme)
        assert cold.pinned_lines > 0

        import repro.core.embedding as embedding_mod

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("expensive path ran on a memo hit")

        monkeypatch.setattr(embedding_mod, "run_kernel", boom)
        monkeypatch.setattr(embedding_mod, "profile_hot_rows", boom)
        warm = self._run_once(workload, memo, scheme=scheme)
        assert memo.hits == 1
        assert warm.profile == cold.profile
        assert warm.pinned_lines == cold.pinned_lines
        assert warm.pin_coverage == cold.pin_coverage

    def test_config_change_misses(self, workload):
        memo = KernelMemo(capacity=8)
        self._run_once(workload, memo, seed=0)
        self._run_once(workload, memo, seed=1)
        self._run_once(workload, memo, scheme=Scheme())
        assert memo.hits == 0
        assert memo.misses == 3

    def test_lru_eviction(self):
        memo = KernelMemo(capacity=2)
        runs = {}
        for i in range(3):
            stats = dataclasses.replace(
                _dummy_stats(), name=f"k{i}"
            )
            runs[i] = MemoizedKernelRun(stats, _dummy_hier())
            memo.put(f"key{i}", runs[i])
        assert len(memo) == 2
        assert memo.get("key0") is None  # evicted
        assert memo.get("key2") is runs[2]

    def test_disabled_memo_is_noop(self):
        memo = KernelMemo(capacity=0)
        assert not memo.enabled
        memo.put("k", MemoizedKernelRun(_dummy_stats(), _dummy_hier()))
        assert memo.get("k") is None
        assert len(memo) == 0

    def test_disk_roundtrip(self, tmp_path):
        run = MemoizedKernelRun(
            _dummy_stats(), _dummy_hier(),
            pinned_lines=7, pin_coverage=0.25, pin_kernel_us=1.5,
        )
        writer = KernelMemo(capacity=4, disk_dir=tmp_path)
        writer.put("deadbeef", run)
        reader = KernelMemo(capacity=4, disk_dir=tmp_path)
        got = reader.get("deadbeef")
        assert got is not None
        assert reader.disk_hits == 1
        assert dataclasses.asdict(got.stats) == \
            dataclasses.asdict(run.stats)
        assert got.hierarchy == run.hierarchy
        assert got.pinned_lines == 7
        # corrupt entries count as misses, not crashes
        (tmp_path / "bad.json").write_text("{not json")
        assert reader.get("bad") is None

    def test_disk_store_shares_across_memos_end_to_end(
        self, workload, tmp_path, monkeypatch
    ):
        first = KernelMemo(capacity=4, disk_dir=tmp_path)
        cold = self._run_once(workload, first)

        import repro.core.embedding as embedding_mod

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("engine ran despite disk memo entry")

        monkeypatch.setattr(embedding_mod, "run_kernel", boom)
        fresh = KernelMemo(capacity=4, disk_dir=tmp_path)  # new "process"
        warm = self._run_once(workload, fresh)
        assert fresh.disk_hits == 1
        assert warm.profile == cold.profile


def _dummy_stats():
    from repro.gpusim.engine import RawKernelStats

    return RawKernelStats(
        name="dummy", makespan_cycles=100.0, n_warps=4, warps_per_sm=8,
        n_smsp=8, issued_insts=40, alu_insts=30, ld_global_insts=5,
        ld_local_insts=1, ld_shared_insts=1, st_insts=2, prefetch_insts=1,
        warp_resident_cycles=400.0, stall_long_scoreboard=10.0,
        stall_short_scoreboard=1.0, stall_not_selected=2.0,
    )


def _dummy_hier():
    return HierarchyStats(
        l1_hit_sectors=10, l1_miss_sectors=5, l2_hit_sectors=4,
        l2_miss_sectors=1, l2_pin_hit_sectors=0, dram_read_bytes=1280,
        dram_write_bytes=128, tlb_hits=9, tlb_misses=1,
        local_read_sectors=2, local_write_sectors=2, global_write_sectors=4,
    )
