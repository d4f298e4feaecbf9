"""Heterogeneous table placement (unrelated-machines LPT)."""

import math

import pytest

from repro.config.gpu import A100_SXM4_80GB, H100_NVL
from repro.config.scale import SimScale
from repro.core.embedding import kernel_workload
from repro.core.schemes import BASE
from repro.fleet import placement as placement_module
from repro.fleet.placement import (
    HeteroPlacement,
    HeteroShard,
    hetero_lpt_shard,
    place_tables,
    place_tables_tiered,
    run_distributed_stage,
)

#: Synthetic measured times: the "fast" GPU is 2x quicker on everything.
TIMES = {
    "fast": {"hot": 5.0, "cold": 25.0},
    "slow": {"hot": 10.0, "cold": 50.0},
}


class TestHeteroLptShard:
    def test_identical_gpus_balance_counts(self):
        placement = hetero_lpt_shard(
            {"g": {"t": 10.0}}, {"t": 8}, ["g", "g", "g", "g"],
        )
        assert [len(p) for p in placement] == [2, 2, 2, 2]

    def test_faster_gpu_gets_more_tables(self):
        placement = hetero_lpt_shard(
            TIMES, {"hot": 6, "cold": 6}, ["fast", "slow"],
        )
        assert len(placement[0]) > len(placement[1])

    def test_time_balance_not_count_balance(self):
        placement = hetero_lpt_shard(
            TIMES, {"hot": 8, "cold": 4}, ["fast", "slow"],
        )
        loads = [
            sum(TIMES[gpu][t] for t in tables)
            for gpu, tables in zip(("fast", "slow"), placement)
        ]
        assert max(loads) / min(loads) < 1.8

    def test_more_gpus_than_tables_leaves_spares_empty(self):
        placement = hetero_lpt_shard(
            {"g": {"t": 1.0}}, {"t": 2}, ["g"] * 5,
        )
        assert sum(len(p) for p in placement) == 2
        assert sum(1 for p in placement if not p) == 3

    def test_all_tables_placed(self):
        placement = hetero_lpt_shard(
            TIMES, {"hot": 7, "cold": 3}, ["fast", "slow", "fast"],
        )
        assert sum(len(p) for p in placement) == 10

    def test_missing_measurement_raises(self):
        with pytest.raises(KeyError, match="no measured times"):
            hetero_lpt_shard(
                {"fast": {"hot": 1.0}}, {"hot": 1, "cold": 1}, ["fast"],
            )

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            hetero_lpt_shard(TIMES, {}, ["fast"])
        with pytest.raises(ValueError):
            hetero_lpt_shard(TIMES, {"hot": 1}, [])


class TestHeteroPlacement:
    def _placement(self):
        return HeteroPlacement(shards=(
            HeteroShard("fast", ("hot", "hot"), 10.0),
            HeteroShard("slow", ("hot",), 10.0),
        ))

    def test_critical_path_is_slowest_shard(self):
        assert self._placement().critical_path_us == 10.0

    def test_balanced_imbalance_is_one(self):
        assert self._placement().imbalance == pytest.approx(1.0)

    def test_tables_on_sums_instances(self):
        assert self._placement().tables_on("fast") == 2
        assert self._placement().tables_on("slow") == 1


class TestPlaceTables:
    def test_synthetic_times_skip_measurement(self):
        placement = place_tables(
            {"hot": 4, "cold": 2}, BASE, [A100_SXM4_80GB, H100_NVL],
            table_times={
                A100_SXM4_80GB.name: {"hot": 10.0, "cold": 40.0},
                H100_NVL.name: {"hot": 6.0, "cold": 24.0},
            },
        )
        assert placement.n_gpus == 2
        assert sum(len(s.tables) for s in placement.shards) == 6
        assert placement.tables_on(H100_NVL.name) \
            >= placement.tables_on(A100_SXM4_80GB.name)

    def test_measured_placement_balances_mixed_gpus(self):
        """End-to-end with real (tiny) kernel simulations."""
        placement = place_tables(
            {"med_hot": 4, "random": 2}, BASE,
            [A100_SXM4_80GB, H100_NVL], num_sms=2,
        )
        assert sum(len(s.tables) for s in placement.shards) == 6
        # H100 kernels are faster, so it should carry at least as many
        assert placement.tables_on(H100_NVL.name) \
            >= placement.tables_on(A100_SXM4_80GB.name)
        assert placement.imbalance < 2.0


class TestPlacerInputChecked:
    """Bad counts, times and GPU lists fail before anything is placed
    or simulated, naming the table (and the GPU)."""

    @pytest.mark.parametrize("mix, match", [
        ({"hot": -2, "cold": 3}, "table 'hot': count must be an integer"),
        ({"hot": 2.5}, "table 'hot': count must be an integer"),
        ({"hot": 0, "cold": 0}, "table mix is empty"),
    ])
    def test_bad_counts_rejected(self, mix, match):
        with pytest.raises(ValueError, match=match):
            hetero_lpt_shard(TIMES, mix, ["fast", "fast"])
        with pytest.raises(ValueError, match=match):
            place_tables(mix, BASE, [A100_SXM4_80GB], table_times={
                A100_SXM4_80GB.name: TIMES["fast"],
            })

    @pytest.mark.parametrize("bad", [math.nan, -1.0, math.inf])
    def test_bad_times_rejected(self, bad):
        times = {"fast": {"hot": bad, "cold": 25.0}, "slow": TIMES["slow"]}
        with pytest.raises(ValueError, match="table 'hot' on GPU 'fast'"):
            hetero_lpt_shard(times, {"hot": 4, "cold": 2}, ["fast", "slow"])

    @pytest.mark.parametrize("call", [
        lambda wl: place_tables(
            {"high_hot": -3, "random": 2}, BASE, [A100_SXM4_80GB]
        ),
        lambda wl: place_tables({"random": 2.5}, BASE, [A100_SXM4_80GB]),
        lambda wl: place_tables({"random": 2}, BASE, []),
        lambda wl: place_tables_tiered(
            {"high_hot": -1, "random": 2}, BASE, [A100_SXM4_80GB]
        ),
        lambda wl: run_distributed_stage(wl, {"random": 2}, BASE, n_gpus=0),
        lambda wl: run_distributed_stage(
            wl, {"random": 2, "high_hot": -1}, BASE, n_gpus=2
        ),
    ], ids=[
        "place-negative", "place-fractional", "place-no-gpu",
        "tiered-negative", "stage-no-gpu", "stage-negative",
    ])
    def test_entry_points_check_before_simulating(self, monkeypatch, call):
        calls = []

        def kernel(*args, **kwargs):
            calls.append(args)
            raise RuntimeError("a kernel was simulated")

        monkeypatch.setattr(placement_module, "run_table_kernel", kernel)
        wl = kernel_workload(scale=SimScale("check", 2), batch_size=16)
        with pytest.raises(ValueError):
            call(wl)
        assert calls == []
