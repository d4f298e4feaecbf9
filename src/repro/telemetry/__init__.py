"""Typed event telemetry for the serving stack.

Events and sinks only at package level — the serving simulators import
:mod:`repro.telemetry.events` / :mod:`repro.telemetry.sinks`, so these
two modules must stay import-light (numpy + stdlib).  The replay
decoder (:mod:`repro.telemetry.replay`) and the derived-metric helpers
(:mod:`repro.telemetry.derive`) sit *above* the simulators and are
imported explicitly by their consumers (CLI, tests, notebooks)::

    from repro.telemetry.replay import load_runs, replay_report
    from repro.telemetry.derive import queue_depth_timeline
"""

from repro.telemetry.events import (
    BLOCK_TYPES,
    EVENT_TYPES,
    SCHEMA_VERSION,
    Arrival,
    ArrivalBlock,
    BatchBlock,
    BatchFormed,
    CacheEvict,
    CacheHit,
    CacheMiss,
    Complete,
    Dispatch,
    Event,
    FleetRun,
    GroupRun,
    HostFetch,
    PhaseEnd,
    PhaseStart,
    ReArbitrate,
    RunEnd,
    RunRecord,
    RunStart,
    StreamRun,
    Warm,
    block_from_record,
    event_from_record,
)
from repro.telemetry.sinks import (
    NULL_SINK,
    CaptureSink,
    ConsoleSink,
    MultiSink,
    NullSink,
    RecorderSink,
    Sink,
    StatsSink,
    default_sink,
    emit_event,
    emit_run,
    resolve_sink,
    set_default_sink,
    use_sink,
)

__all__ = [
    "BLOCK_TYPES",
    "EVENT_TYPES",
    "SCHEMA_VERSION",
    "Arrival",
    "ArrivalBlock",
    "BatchBlock",
    "BatchFormed",
    "CacheEvict",
    "CacheHit",
    "CacheMiss",
    "CaptureSink",
    "Complete",
    "ConsoleSink",
    "Dispatch",
    "Event",
    "FleetRun",
    "GroupRun",
    "HostFetch",
    "MultiSink",
    "NULL_SINK",
    "NullSink",
    "PhaseEnd",
    "PhaseStart",
    "ReArbitrate",
    "RecorderSink",
    "RunEnd",
    "RunRecord",
    "RunStart",
    "Sink",
    "StatsSink",
    "StreamRun",
    "Warm",
    "block_from_record",
    "default_sink",
    "emit_event",
    "emit_run",
    "event_from_record",
    "resolve_sink",
    "set_default_sink",
    "use_sink",
]
