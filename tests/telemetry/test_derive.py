"""Derived timelines and interference attribution from run records."""

import numpy as np
import pytest

from repro.telemetry.derive import (
    in_flight_timeline,
    interference_attribution,
    max_queue_depth,
    queue_depth_timeline,
    timeline_summary,
)
from repro.telemetry.events import (
    ArrivalBlock,
    BatchBlock,
    FleetRun,
    GroupRun,
    StreamRun,
)


def _stream_run():
    # 4 queries at 0.0/0.1/0.2/0.3; batch of 3 dispatched at 0.2
    # (running 0.2->0.4), batch of 1 at 0.4 (running 0.4->0.5)
    arrivals = ArrivalBlock(
        times=np.array([0.0, 0.1, 0.2, 0.3]),
        phase_ids=np.zeros(4, dtype=np.int64),
        phases=("all",),
    )
    batches = BatchBlock(
        starts=np.array([0.2, 0.4]),
        exec_s=np.array([0.2, 0.1]),
        sizes=np.array([3, 1], dtype=np.int64),
        phases=("all",),
    )
    return StreamRun(
        meta={"kind": "stream", "scenario": "probe"},
        arrivals=arrivals,
        batches=batches,
    )


class TestQueueDepth:
    def test_stepwise_depths(self):
        times, depth = queue_depth_timeline(_stream_run())
        # chronological: arrivals 0.0, 0.1, 0.2 then dispatch -3 at
        # 0.2 (arrival first at the tie), arrival 0.3, dispatch -1
        assert times.tolist() == [0.0, 0.1, 0.2, 0.2, 0.3, 0.4]
        assert depth.tolist() == [1, 2, 3, 0, 1, 0]

    def test_max_queue_depth(self):
        assert max_queue_depth(_stream_run()) == 3

    def test_arrival_at_dispatch_instant_joins_departing_batch(self):
        # the +1 lands before the -n at an exactly shared timestamp
        run = _stream_run()
        _, depth = queue_depth_timeline(run)
        assert depth.min() >= 0

    def test_max_counts_queries_left_queued(self):
        # two arrive and leave at 0.2; the last three are never
        # dispatched, so the peak is the depth after the last dispatch
        run = StreamRun(
            meta={"kind": "stream"},
            arrivals=ArrivalBlock(
                times=np.array([0.0, 0.1, 0.5, 0.6, 0.7]),
                phase_ids=np.zeros(5, dtype=np.int64),
            ),
            batches=BatchBlock(
                starts=np.array([0.2]), exec_s=np.array([0.1]),
                sizes=np.array([2], dtype=np.int64),
            ),
        )
        _, depth = queue_depth_timeline(run)
        assert max_queue_depth(run) == depth.max() == 3

    def test_max_without_dispatches_is_every_arrival(self):
        run = StreamRun(
            meta={"kind": "stream"},
            arrivals=ArrivalBlock(
                times=np.array([0.0, 0.1, 0.2]),
                phase_ids=np.zeros(3, dtype=np.int64),
            ),
            batches=BatchBlock(
                starts=np.empty(0), exec_s=np.empty(0),
                sizes=np.empty(0, dtype=np.int64),
            ),
        )
        assert max_queue_depth(run) == 3

    def test_empty_run(self):
        run = StreamRun(
            meta={"kind": "stream"},
            arrivals=ArrivalBlock(
                times=np.empty(0),
                phase_ids=np.empty(0, dtype=np.int64),
            ),
            batches=BatchBlock(
                starts=np.empty(0), exec_s=np.empty(0),
                sizes=np.empty(0, dtype=np.int64),
            ),
        )
        assert max_queue_depth(run) == 0


class TestInFlight:
    def test_stepwise_flight(self):
        times, flight = in_flight_timeline(_stream_run())
        assert times.tolist() == [0.2, pytest.approx(0.4), 0.4, 0.5]
        # batch of 3 in flight 0.2-0.4, then batch of 1 until 0.5
        assert flight.tolist() == [3, 4, 1, 0]

    def test_fleet_sums_replicas(self):
        arrivals = ArrivalBlock(
            times=np.array([0.0, 0.0]),
            phase_ids=np.zeros(2, dtype=np.int64),
        )
        replica = lambda name: BatchBlock(
            starts=np.array([0.0]),
            exec_s=np.array([1.0]),
            sizes=np.array([1], dtype=np.int64),
            replica=name,
            member_times=np.array([0.0]),
            member_phases=np.zeros(1, dtype=np.int64),
        )
        run = FleetRun(
            meta={"kind": "fleet"},
            arrivals=arrivals,
            replicas=[replica("a"), replica("b")],
        )
        _, flight = in_flight_timeline(run)
        assert flight.max() == 2


class TestInterferenceAttribution:
    def test_zoo_attribution(self):
        run = GroupRun(
            meta={
                "kind": "zoo",
                "zoo": "z",
                "contention": {"a": 1.5, "b": 1.2},
                "loads": {"a": 0.8, "b": 0.4},
            },
            children={},
        )
        attr = interference_attribution(run)
        assert attr["a"]["factor"] == 1.5
        assert attr["a"]["co_runner_load"] == pytest.approx(0.4)
        assert attr["a"]["latency_penalty_pct"] == pytest.approx(50.0)
        assert attr["b"]["co_runner_load"] == pytest.approx(0.8)

    def test_zoo_fleet_attribution_takes_worst_replica(self):
        run = GroupRun(
            meta={
                "kind": "zoo_fleet",
                "contention": {
                    "gpu0": {"a": 1.1, "b": 1.3},
                    "gpu1": {"a": 1.4},
                },
            },
            children={},
        )
        attr = interference_attribution(run)
        assert attr["a"]["factor"] == 1.4
        assert attr["a"]["replica_factors"] == {"gpu0": 1.1, "gpu1": 1.4}
        assert attr["b"]["latency_penalty_pct"] == pytest.approx(30.0)

    def test_non_zoo_run_rejected(self):
        run = GroupRun(meta={"kind": "stream"}, children={})
        with pytest.raises(ValueError, match="needs a zoo run"):
            interference_attribution(run)


class TestTimelineSummary:
    def test_stream_digest(self):
        (row,) = timeline_summary([_stream_run()])
        assert row["kind"] == "stream"
        assert row["name"] == "probe"
        assert row["n_queries"] == 4
        assert row["n_batches"] == 2
        assert row["max_queue_depth"] == 3
        assert row["max_in_flight"] == 4

    def test_group_recurses_into_children(self):
        child = _stream_run()
        child.meta = dict(child.meta, tenant="t0")
        group = GroupRun(meta={"kind": "zoo"}, children={"t0": child})
        (row,) = timeline_summary([group])
        assert row["tenant"] == "t0"
