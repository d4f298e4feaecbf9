"""Typed telemetry events and the run records the serving stack emits.

Two granularities share one :class:`~repro.telemetry.sinks.Sink`
interface:

* **scalar events** — small frozen dataclasses (``cache_hit``,
  ``warm``, ``re_arbitrate``, ``run_start`` ...), one JSONL line each
  on the recorder.  They are cheap because they are rare.
* **column blocks** — the high-frequency per-query / per-batch streams
  (:class:`ArrivalBlock`, :class:`BatchBlock`) travel as whole numpy
  columns, serialized as base64-encoded little-endian arrays.  This is
  what keeps the recorder within the perf-smoke overhead budget: one
  ``serve_stream`` call emits two blocks, not tens of thousands of
  lines, and the bytes round-trip *exactly* — the foundation of the
  bit-identical replay contract.  ``Block.events()`` materializes the
  scalar view (``arrival``, ``batch_formed``, ``dispatch``,
  ``complete``, ``phase_start``/``phase_end``) so a naive sink that
  only implements ``emit`` still sees every typed event.

A **run record** (:class:`StreamRun`, :class:`FleetRun`,
:class:`ZooRun`, :class:`ZooFleetRun`) is the unit of replay: the
``meta`` dict plus the blocks hold everything the pure report folds
(:func:`repro.core.serving.fold_stream_report` and friends) need —
the live simulators assemble their reports through the *same* folds,
which is what makes a recorded run replay field-identical.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass, field, fields
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

#: Bump on any incompatible change to the JSONL record layout.
SCHEMA_VERSION = 1


# ----------------------------------------------------------------------
# column codecs: exact-bit numpy <-> base64 round trips
# ----------------------------------------------------------------------
def encode_column(array: np.ndarray) -> dict[str, Any]:
    """One numpy column as a JSON-safe dict (little-endian, base64)."""
    arr = np.ascontiguousarray(array)
    return {
        "d": arr.dtype.newbyteorder("<").str.lstrip("<=|"),
        "n": int(arr.size),
        # encode straight from the array's buffer: a tobytes() copy of
        # a long column is a measurable share of the recorder's budget
        "b": base64.b64encode(
            arr.astype(arr.dtype.newbyteorder("<"), copy=False).data
        ).decode("ascii"),
    }


def decode_column(record: Mapping[str, Any]) -> np.ndarray:
    """Invert :func:`encode_column` (bit-exact)."""
    dtype = np.dtype("<" + record["d"])
    arr = np.frombuffer(
        base64.b64decode(record["b"]), dtype=dtype, count=record["n"]
    )
    return arr.astype(dtype.newbyteorder("="), copy=True)


def compact_ints(array: np.ndarray) -> np.ndarray:
    """Narrowest unsigned view of a non-negative int column.

    Index-like columns (phase ids, batch sizes) are int64 in memory
    but tiny in value; shrinking the wire dtype keeps the recorder
    inside its overhead budget.  Values are preserved exactly — the
    folds only count and select on these columns, so the narrower
    dtype replays identically.
    """
    arr = np.asarray(array)
    if arr.size == 0 or arr.min() < 0:
        return arr.astype(np.int64, copy=False)
    peak = int(arr.max())
    for dtype in (np.uint8, np.uint16, np.uint32):
        if peak <= np.iinfo(dtype).max:
            return arr.astype(dtype)
    return arr.astype(np.int64, copy=False)


# ----------------------------------------------------------------------
# scalar events
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Event:
    """Base scalar event; ``kind`` tags the concrete type on the wire.

    The wire key ``"t"`` carries the type tag, so the ``t`` timestamp
    field travels as ``"at"``.
    """

    kind = "event"

    def to_record(self) -> dict[str, Any]:
        record: dict[str, Any] = {"k": "e", "t": self.kind}
        for f in fields(self):
            key = "at" if f.name == "t" else f.name
            record[key] = getattr(self, f.name)
        return record

    @classmethod
    def from_record(cls, record: Mapping[str, Any]) -> "Event":
        names = {f.name for f in fields(cls)}
        payload = {
            ("t" if k == "at" else k): v for k, v in record.items()
        }
        return cls(**{k: v for k, v in payload.items() if k in names})


@dataclass(frozen=True)
class RunStart(Event):
    """A simulator run begins; ``meta`` is the fold's full input."""

    kind = "run_start"
    meta: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class RunEnd(Event):
    """Closes the innermost open run."""

    kind = "run_end"


@dataclass(frozen=True)
class Arrival(Event):
    """One query arrived (materialized from an :class:`ArrivalBlock`)."""

    kind = "arrival"
    t: float = 0.0
    phase: str = ""


@dataclass(frozen=True)
class BatchFormed(Event):
    """A batch closed at ``t`` with ``size`` members."""

    kind = "batch_formed"
    t: float = 0.0
    size: int = 0
    phase: str = ""
    replica: str | None = None


@dataclass(frozen=True)
class Dispatch(Event):
    """A formed batch launched on the GPU for ``exec_ms``."""

    kind = "dispatch"
    t: float = 0.0
    size: int = 0
    exec_ms: float = 0.0
    phase: str = ""
    replica: str | None = None


@dataclass(frozen=True)
class Complete(Event):
    """One query completed with the given end-to-end latency."""

    kind = "complete"
    t: float = 0.0
    latency_ms: float = 0.0
    phase: str = ""
    replica: str | None = None


@dataclass(frozen=True)
class PhaseStart(Event):
    """The arrival stream entered a scenario phase."""

    kind = "phase_start"
    t: float = 0.0
    phase: str = ""


@dataclass(frozen=True)
class PhaseEnd(Event):
    """The arrival stream left a scenario phase."""

    kind = "phase_end"
    t: float = 0.0
    phase: str = ""


@dataclass(frozen=True)
class CacheHit(Event):
    """``count`` HBM-cache hits in one store lookup."""

    kind = "cache_hit"
    count: int = 0
    label: str = "store"


@dataclass(frozen=True)
class CacheMiss(Event):
    """``count`` HBM-cache misses in one store lookup."""

    kind = "cache_miss"
    count: int = 0
    label: str = "store"


@dataclass(frozen=True)
class CacheEvict(Event):
    """``count`` rows evicted from HBM residency."""

    kind = "cache_evict"
    count: int = 0
    label: str = "store"


@dataclass(frozen=True)
class HostFetch(Event):
    """One bulk host-DRAM gather: rows, bytes, and modeled microseconds."""

    kind = "host_fetch"
    rows: int = 0
    bytes: int = 0
    us: float = 0.0
    label: str = "store"


@dataclass(frozen=True)
class Warm(Event):
    """A cache (re-)warm; ``resident`` rows are HBM-resident after."""

    kind = "warm"
    resident: int = 0
    label: str = "store"


@dataclass(frozen=True)
class ReArbitrate(Event):
    """The HBM arbiter re-ran after drift; per-tenant grant summary."""

    kind = "re_arbitrate"
    phase: int = 0
    grants: dict[str, dict[str, float]] = field(default_factory=dict)


#: wire tag -> event class, for the replay decoder.
EVENT_TYPES: dict[str, type[Event]] = {
    cls.kind: cls
    for cls in (
        RunStart, RunEnd, Arrival, BatchFormed, Dispatch, Complete,
        PhaseStart, PhaseEnd, CacheHit, CacheMiss, CacheEvict,
        HostFetch, Warm, ReArbitrate,
    )
}


def event_from_record(record: Mapping[str, Any]) -> Event:
    """Decode one ``{"k": "e", ...}`` record into its typed event."""
    try:
        cls = EVENT_TYPES[record["t"]]
    except KeyError:
        known = ", ".join(EVENT_TYPES)
        raise ValueError(
            f"unknown event kind {record.get('t')!r}; known: {known}"
        ) from None
    payload = {k: v for k, v in record.items() if k not in ("k", "t")}
    return cls.from_record(payload)


# ----------------------------------------------------------------------
# column blocks
# ----------------------------------------------------------------------
def _phase_name(phases: Sequence[str], index: int) -> str:
    return phases[index] if 0 <= index < len(phases) else str(index)


@dataclass
class ArrivalBlock:
    """The arrival stream of one run: times (s) and phase indices."""

    kind = "arrivals"

    times: np.ndarray
    phase_ids: np.ndarray
    phases: tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.times)

    def events(self) -> Iterator[Event]:
        """Scalar view: ``arrival`` per query plus ``phase_start`` /
        ``phase_end`` at every phase transition of the stream."""
        times = self.times
        ids = np.asarray(self.phase_ids)
        if not len(times):
            return
        previous = None
        for t, pid in zip(times.tolist(), ids.tolist()):
            name = _phase_name(self.phases, pid)
            if pid != previous:
                if previous is not None:
                    yield PhaseEnd(t=t, phase=_phase_name(
                        self.phases, previous
                    ))
                yield PhaseStart(t=t, phase=name)
                previous = pid
            yield Arrival(t=t, phase=name)
        yield PhaseEnd(
            t=float(times[-1]), phase=_phase_name(self.phases, previous)
        )

    def to_record(self) -> dict[str, Any]:
        return {
            "k": "b",
            "t": self.kind,
            "phases": list(self.phases),
            "times": encode_column(self.times),
            "phase_ids": encode_column(compact_ints(self.phase_ids)),
        }

    @classmethod
    def from_record(cls, record: Mapping[str, Any]) -> "ArrivalBlock":
        return cls(
            times=decode_column(record["times"]),
            phase_ids=decode_column(record["phase_ids"]),
            phases=tuple(record.get("phases", ())),
        )


@dataclass
class BatchBlock:
    """The batch stream of one GPU timeline.

    ``starts``/``exec_s``/``sizes`` are per batch, in dispatch order;
    ``member_times``/``member_phases`` are the batched queries'
    arrival times and phase indices flattened in dispatch order.  For
    single-GPU stream runs the members are exactly the arrival stream
    in order, so the member columns are omitted and resolved from the
    run's :class:`ArrivalBlock`; the routed fleet serves an arbitrary
    per-replica subset, so its blocks carry them explicitly.
    """

    kind = "batches"

    starts: np.ndarray
    exec_s: np.ndarray
    sizes: np.ndarray
    replica: str | None = None
    member_times: np.ndarray | None = None
    member_phases: np.ndarray | None = None
    phases: tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.starts)

    @property
    def done(self) -> np.ndarray:
        """Per-batch completion times (``starts + exec_s``)."""
        return self.starts + self.exec_s

    def members(
        self, arrivals: ArrivalBlock | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """(member arrival times, member phase ids) in dispatch order."""
        if self.member_times is not None:
            phases = (
                self.member_phases if self.member_phases is not None
                else np.zeros(len(self.member_times), dtype=np.int64)
            )
            return self.member_times, phases
        if arrivals is None:
            raise ValueError(
                "block has no member columns and no arrival block "
                "was given to resolve them"
            )
        return arrivals.times, np.asarray(arrivals.phase_ids)

    def events(
        self, arrivals: ArrivalBlock | None = None
    ) -> Iterator[Event]:
        """Scalar view: ``batch_formed`` + ``dispatch`` per batch and
        ``complete`` per member query."""
        try:
            member_times, member_phases = self.members(arrivals)
        except ValueError:
            member_times = member_phases = None
        done = self.done
        offset = 0
        for i, (start, exec_s, size) in enumerate(zip(
            self.starts.tolist(), self.exec_s.tolist(),
            self.sizes.tolist(),
        )):
            if member_phases is not None and len(member_phases):
                phase = _phase_name(
                    self.phases, int(member_phases[offset])
                )
            else:
                phase = ""
            yield BatchFormed(
                t=start, size=size, phase=phase, replica=self.replica
            )
            yield Dispatch(
                t=start, size=size, exec_ms=exec_s * 1e3, phase=phase,
                replica=self.replica,
            )
            if member_times is not None:
                batch_done = float(done[i])
                for j in range(offset, offset + size):
                    yield Complete(
                        t=batch_done,
                        latency_ms=(batch_done - float(member_times[j]))
                        * 1e3,
                        phase=_phase_name(
                            self.phases, int(member_phases[j])
                        ),
                        replica=self.replica,
                    )
            offset += size

    def to_record(self) -> dict[str, Any]:
        record: dict[str, Any] = {
            "k": "b",
            "t": self.kind,
            "replica": self.replica,
            "phases": list(self.phases),
            "starts": encode_column(self.starts),
            "exec_s": encode_column(self.exec_s),
            "sizes": encode_column(compact_ints(self.sizes)),
        }
        if self.member_times is not None:
            record["member_times"] = encode_column(self.member_times)
        if self.member_phases is not None:
            record["member_phases"] = encode_column(
                compact_ints(self.member_phases)
            )
        return record

    @classmethod
    def from_record(cls, record: Mapping[str, Any]) -> "BatchBlock":
        return cls(
            starts=decode_column(record["starts"]),
            exec_s=decode_column(record["exec_s"]),
            sizes=decode_column(record["sizes"]),
            replica=record.get("replica"),
            member_times=(
                decode_column(record["member_times"])
                if "member_times" in record else None
            ),
            member_phases=(
                decode_column(record["member_phases"])
                if "member_phases" in record else None
            ),
            phases=tuple(record.get("phases", ())),
        )


#: wire tag -> block class, for the replay decoder.
BLOCK_TYPES: dict[str, type] = {
    ArrivalBlock.kind: ArrivalBlock,
    BatchBlock.kind: BatchBlock,
}


def block_from_record(record: Mapping[str, Any]):
    """Decode one ``{"k": "b", ...}`` record into its typed block."""
    try:
        cls = BLOCK_TYPES[record["t"]]
    except KeyError:
        known = ", ".join(BLOCK_TYPES)
        raise ValueError(
            f"unknown block kind {record.get('t')!r}; known: {known}"
        ) from None
    return cls.from_record(record)


# ----------------------------------------------------------------------
# run records: the unit of replay
# ----------------------------------------------------------------------
@dataclass
class StreamRun:
    """One single-GPU serving run (``serve_stream``/``simulate_serving``).

    ``meta['kind']`` is ``"stream"`` or ``"serving"``; the remaining
    meta keys are exactly the report inputs that are not derivable from
    the blocks (scenario name, batcher label, SLA, phase names and
    durations, hit-rate calibration).
    """

    meta: dict[str, Any]
    arrivals: ArrivalBlock
    batches: BatchBlock

    def emit_to(self, sink) -> None:
        sink.emit(RunStart(meta=self.meta))
        sink.emit_block(self.arrivals)
        sink.emit_block(self.batches)
        sink.emit(RunEnd())


@dataclass
class FleetRun:
    """One routed-fleet run: the global stream plus per-replica batches.

    ``replicas`` is ordered like the fleet spec — the fold concatenates
    per-replica latencies in this order, which is what makes the
    fleet-wide percentiles bit-identical to the live simulator's.
    """

    meta: dict[str, Any]
    arrivals: ArrivalBlock
    replicas: list[BatchBlock]

    def emit_to(self, sink) -> None:
        sink.emit(RunStart(meta=self.meta))
        sink.emit_block(self.arrivals)
        for block in self.replicas:
            sink.emit_block(block)
        sink.emit(RunEnd())


@dataclass
class GroupRun:
    """A run grouping child runs (zoo serving): meta + ordered children.

    ``meta['kind']`` is ``"zoo"`` (stream children) or ``"zoo_fleet"``
    (fleet children).  Child order is the tenants' serving order — the
    aggregation folds sum in this order.
    """

    meta: dict[str, Any]
    children: dict[str, StreamRun | FleetRun]

    def emit_to(self, sink) -> None:
        sink.emit(RunStart(meta=self.meta))
        for child in self.children.values():
            child.emit_to(sink)
        sink.emit(RunEnd())


#: Anything ``load_runs`` can return.
RunRecord = StreamRun | FleetRun | GroupRun
