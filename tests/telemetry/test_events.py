"""Typed events and column blocks: wire round trips are exact."""

import json

import numpy as np
import pytest

from repro.telemetry.events import (
    EVENT_TYPES,
    Arrival,
    ArrivalBlock,
    BatchBlock,
    BatchFormed,
    CacheEvict,
    CacheHit,
    CacheMiss,
    Complete,
    Dispatch,
    FleetRun,
    GroupRun,
    HostFetch,
    PhaseEnd,
    PhaseStart,
    ReArbitrate,
    RunEnd,
    RunStart,
    StreamRun,
    Warm,
    block_from_record,
    decode_column,
    encode_column,
    event_from_record,
)


class TestColumnCodec:
    def test_float64_bits_roundtrip(self):
        rng = np.random.default_rng(0)
        col = rng.standard_normal(1000) * 1e-3
        back = decode_column(json.loads(json.dumps(encode_column(col))))
        assert back.dtype == col.dtype
        # exact bits, not approximate values
        assert np.array_equal(
            back.view(np.uint64), col.view(np.uint64)
        )

    def test_int64_roundtrip(self):
        col = np.array([0, -1, 2**62, -(2**62)], dtype=np.int64)
        back = decode_column(encode_column(col))
        assert back.dtype == np.int64
        assert np.array_equal(back, col)

    def test_empty_column(self):
        back = decode_column(encode_column(np.empty(0)))
        assert len(back) == 0

    def test_special_floats_survive(self):
        col = np.array([np.inf, -np.inf, 0.0, -0.0, 5e-324])
        back = decode_column(encode_column(col))
        assert np.array_equal(
            back.view(np.uint64), col.view(np.uint64)
        )

    def test_decoded_column_is_writable(self):
        back = decode_column(encode_column(np.arange(4.0)))
        back[0] = 9.0  # frombuffer alone would be read-only
        assert back[0] == 9.0


class TestScalarEvents:
    EXAMPLES = [
        RunStart(meta={"kind": "stream", "scenario": "s"}),
        RunEnd(),
        Arrival(t=1.5, phase="spike"),
        BatchFormed(t=2.0, size=64, phase="pre", replica="gpu0"),
        Dispatch(t=2.0, size=64, exec_ms=4.5, phase="pre"),
        Complete(t=2.1, latency_ms=7.25, phase="pre"),
        PhaseStart(t=0.0, phase="pre"),
        PhaseEnd(t=4.0, phase="recovery"),
        CacheHit(count=100, label="t0"),
        CacheMiss(count=28, label="t0"),
        CacheEvict(count=3, label="t0"),
        HostFetch(rows=28, bytes=14336, us=12.5, label="t0"),
        Warm(resident=512, label="t0"),
        ReArbitrate(phase=2, grants={"a": {"hit_rate": 0.9}}),
    ]

    @pytest.mark.parametrize(
        "event", EXAMPLES, ids=[e.kind for e in EXAMPLES]
    )
    def test_roundtrip(self, event):
        record = json.loads(json.dumps(event.to_record()))
        assert record["k"] == "e"
        assert record["t"] == event.kind
        assert event_from_record(record) == event

    def test_every_kind_registered(self):
        assert {e.kind for e in self.EXAMPLES} == set(EVENT_TYPES)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown event kind"):
            event_from_record({"k": "e", "t": "comet"})


def _arrivals():
    return ArrivalBlock(
        times=np.array([0.0, 0.5, 1.0, 1.5]),
        phase_ids=np.array([0, 0, 1, 1], dtype=np.int64),
        phases=("pre", "spike"),
    )


def _batches(**kwargs):
    return BatchBlock(
        starts=np.array([0.5, 1.5]),
        exec_s=np.array([0.004, 0.005]),
        sizes=np.array([2, 2], dtype=np.int64),
        phases=("pre", "spike"),
        **kwargs,
    )


class TestArrivalBlock:
    def test_roundtrip(self):
        block = _arrivals()
        back = block_from_record(
            json.loads(json.dumps(block.to_record()))
        )
        assert np.array_equal(back.times, block.times)
        assert np.array_equal(back.phase_ids, block.phase_ids)
        assert back.phases == block.phases

    def test_events_include_phase_transitions(self):
        kinds = [e.kind for e in _arrivals().events()]
        assert kinds == [
            "phase_start", "arrival", "arrival",
            "phase_end", "phase_start", "arrival", "arrival",
            "phase_end",
        ]

    def test_empty_block_emits_nothing(self):
        empty = ArrivalBlock(
            times=np.empty(0), phase_ids=np.empty(0, dtype=np.int64)
        )
        assert list(empty.events()) == []


class TestBatchBlock:
    def test_roundtrip_without_members(self):
        block = _batches()
        record = json.loads(json.dumps(block.to_record()))
        assert "member_times" not in record
        back = block_from_record(record)
        assert np.array_equal(back.starts, block.starts)
        assert np.array_equal(back.exec_s, block.exec_s)
        assert np.array_equal(back.sizes, block.sizes)
        assert back.member_times is None

    def test_roundtrip_with_members(self):
        block = _batches(
            replica="gpu1",
            member_times=np.array([0.0, 0.5, 1.0, 1.5]),
            member_phases=np.array([0, 0, 1, 1], dtype=np.int64),
        )
        back = block_from_record(
            json.loads(json.dumps(block.to_record()))
        )
        assert back.replica == "gpu1"
        assert np.array_equal(back.member_times, block.member_times)
        assert np.array_equal(back.member_phases, block.member_phases)

    def test_done_is_starts_plus_exec(self):
        block = _batches()
        assert np.array_equal(block.done, block.starts + block.exec_s)

    def test_members_resolve_from_arrivals(self):
        times, phases = _batches().members(_arrivals())
        assert np.array_equal(times, _arrivals().times)
        assert np.array_equal(phases, _arrivals().phase_ids)

    def test_members_without_arrivals_raise(self):
        with pytest.raises(ValueError, match="no member columns"):
            _batches().members(None)

    def test_events_materialize_completions(self):
        events = list(_batches().events(_arrivals()))
        kinds = [e.kind for e in events]
        assert kinds.count("batch_formed") == 2
        assert kinds.count("dispatch") == 2
        assert kinds.count("complete") == 4
        first_complete = next(
            e for e in events if e.kind == "complete"
        )
        # batch 0 done at 0.504; first member arrived at 0.0
        assert first_complete.latency_ms == pytest.approx(504.0)

    def test_unknown_block_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown block kind"):
            block_from_record({"k": "b", "t": "meteors"})


class TestRunRecords:
    def test_stream_run_emission_order(self):
        run = StreamRun(
            meta={"kind": "stream"},
            arrivals=_arrivals(),
            batches=_batches(),
        )
        seen = []

        class Probe:
            def emit(self, event):
                seen.append(event.kind)

            def emit_block(self, block):
                seen.append(block.kind)

        run.emit_to(Probe())
        assert seen == ["run_start", "arrivals", "batches", "run_end"]

    def test_fleet_run_emits_every_replica(self):
        run = FleetRun(
            meta={"kind": "fleet"},
            arrivals=_arrivals(),
            replicas=[_batches(replica="a"), _batches(replica="b")],
        )
        seen = []

        class Probe:
            def emit(self, event):
                seen.append(event.kind)

            def emit_block(self, block):
                seen.append(getattr(block, "replica", None) or block.kind)

        run.emit_to(Probe())
        assert seen == ["run_start", "arrivals", "a", "b", "run_end"]

    def test_group_run_nests_children(self):
        child = StreamRun(
            meta={"kind": "stream", "tenant": "t0"},
            arrivals=_arrivals(),
            batches=_batches(),
        )
        run = GroupRun(meta={"kind": "zoo"}, children={"t0": child})
        seen = []

        class Probe:
            def emit(self, event):
                seen.append(event.kind)

            def emit_block(self, block):
                seen.append(block.kind)

        run.emit_to(Probe())
        assert seen == [
            "run_start", "run_start", "arrivals", "batches",
            "run_end", "run_end",
        ]
