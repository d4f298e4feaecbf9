"""Distributed (model-parallel) embedding stage extension."""

import pytest

from repro.config.scale import SimScale
from repro.core.embedding import kernel_workload
from repro.core.schemes import BASE, RPF_L2P_OPTMT
from repro.fleet.placement import (
    allgather_us,
    hetero_lpt_shard,
    run_distributed_stage,
)


def on_identical_gpus(table_times, mix, n_gpus):
    """The placer on ``n_gpus`` identical GPUs."""
    return hetero_lpt_shard({"g": table_times}, mix, ["g"] * n_gpus)


@pytest.fixture(scope="module")
def wl():
    return kernel_workload(
        scale=SimScale("dist", 2),
        batch_size=16, pooling_factor=24, table_rows=8192,
    )


class TestLptSharding:
    def test_balances_homogeneous_tables(self):
        placement = on_identical_gpus({"a": 10.0}, {"a": 8}, n_gpus=4)
        assert [len(p) for p in placement] == [2, 2, 2, 2]

    def test_heavy_tables_spread_first(self):
        times = {"hot": 1.0, "cold": 10.0}
        placement = on_identical_gpus(times, {"hot": 2, "cold": 2}, n_gpus=2)
        for shard in placement:
            assert "cold" in shard  # one heavy table per GPU

    def test_single_gpu_gets_everything(self):
        placement = on_identical_gpus({"a": 1.0}, {"a": 5}, n_gpus=1)
        assert len(placement[0]) == 5

    def test_invalid_gpu_count(self):
        with pytest.raises(ValueError):
            on_identical_gpus({"a": 1.0}, {"a": 1}, n_gpus=0)


class TestAllGather:
    def test_single_gpu_free(self, wl):
        assert allgather_us(wl, 250, 1) == 0.0

    def test_grows_with_gpus_remote_fraction(self, wl):
        two = allgather_us(wl, 250, 2)
        four = allgather_us(wl, 250, 4)
        assert 0 < two < four


class TestLptEdgeCases:
    def test_more_gpus_than_tables(self):
        placement = on_identical_gpus({"a": 3.0}, {"a": 2}, n_gpus=5)
        assert sum(len(p) for p in placement) == 2
        assert sum(1 for p in placement if not p) == 3
        # the placed tables land on distinct GPUs
        assert max(len(p) for p in placement) == 1

    def test_more_gpus_than_tables_stage_runs(self, wl):
        result = run_distributed_stage(
            wl, {"random": 2}, BASE, n_gpus=4,
        )
        assert result.n_gpus == 4
        empty = [s for s in result.shards if not s.tables]
        assert len(empty) == 2
        assert all(s.compute_us == 0.0 for s in empty)
        assert result.critical_path_us > 0

    def test_skewed_mix_imbalance_bounded_by_heaviest_table(self, wl):
        """One giant table dominates: imbalance reflects it but LPT
        still spreads everything else away from that GPU."""
        times = {"giant": 100.0, "tiny": 1.0}
        placement = on_identical_gpus(
            times, {"giant": 1, "tiny": 8}, n_gpus=2
        )
        giant_gpu = next(
            i for i, p in enumerate(placement) if "giant" in p
        )
        # every tiny table goes to the other GPU
        assert len(placement[1 - giant_gpu]) == 8
        assert placement[giant_gpu] == ["giant"]


class TestAllGatherEdgeCases:
    def test_single_gpu_stage_has_zero_allgather(self, wl):
        result = run_distributed_stage(
            wl, {"random": 3}, BASE, n_gpus=1,
        )
        assert result.allgather_us == 0.0
        assert result.critical_path_us == pytest.approx(
            result.shards[0].compute_us
        )

    def test_imbalance_on_skewed_measured_mix(self, wl):
        """A hot/random split shards unevenly per table but LPT keeps
        the per-GPU *time* imbalance modest."""
        result = run_distributed_stage(
            wl, {"one_item": 6, "random": 2}, BASE, n_gpus=2,
        )
        assert result.imbalance < 2.0
        assert result.imbalance >= 1.0


class TestDistributedStage:
    def test_all_tables_placed(self, wl):
        result = run_distributed_stage(
            wl, {"high_hot": 5, "random": 3}, BASE, n_gpus=2,
        )
        placed = sum(len(s.tables) for s in result.shards)
        assert placed == 8
        assert result.n_gpus == 2

    def test_critical_path_is_slowest_shard_plus_gather(self, wl):
        result = run_distributed_stage(
            wl, {"high_hot": 4, "random": 4}, BASE, n_gpus=2,
        )
        slowest = max(s.compute_us for s in result.shards)
        assert result.critical_path_us == pytest.approx(
            slowest + result.allgather_us
        )

    def test_lpt_keeps_imbalance_low(self, wl):
        result = run_distributed_stage(
            wl, {"high_hot": 6, "med_hot": 6, "random": 4}, BASE, n_gpus=4,
        )
        assert result.imbalance < 1.6

    def test_schemes_speed_up_distributed_stage(self, wl):
        base = run_distributed_stage(
            wl, {"random": 8}, BASE, n_gpus=2,
        )
        opt = run_distributed_stage(
            wl, {"random": 8}, RPF_L2P_OPTMT, n_gpus=2,
        )
        assert opt.speedup_over(base) > 1.0

    def test_empty_mix_rejected(self, wl):
        with pytest.raises(ValueError):
            run_distributed_stage(wl, {}, BASE, n_gpus=2)
