"""Telemetry sinks: one interface, no-op by default.

Every simulator in the stack emits through a :class:`Sink`.  The
default is the shared :data:`NULL_SINK` (a :class:`NullSink`), so
telemetry costs nothing unless a caller attaches one — either
explicitly via the serving functions' ``sink=`` parameter or ambiently
with :func:`use_sink` / :func:`set_default_sink` (how the harness CLI
wires ``--record`` without threading a sink through every experiment
builder).

* :class:`Sink` — the interface.  ``emit`` receives scalar typed
  events; ``emit_block`` receives column blocks and by default
  *materializes* them into scalar events, so a custom sink only has to
  implement ``emit`` to see everything.
* :class:`NullSink` — drops everything, including whole blocks, with
  zero materialization cost.
* :class:`StatsSink` — in-memory aggregation (event counts, cache
  totals, per-run summaries) using vectorized block handling.
* :class:`ConsoleSink` — a human summary line per run on a stream.
* :class:`RecorderSink` — schema-versioned JSONL: a header line, one
  line per event/block, and a footer carrying the record count so a
  truncated file is detectable at replay.
* :class:`MultiSink` — fan-out to several sinks (recorder + stats).
* :class:`CaptureSink` — keeps the run records themselves, for callers
  that build on the runs of a serving call they make.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from typing import Any, Iterator, TextIO

import numpy as np

from repro.telemetry.events import (
    SCHEMA_VERSION,
    ArrivalBlock,
    BatchBlock,
    Event,
    RunEnd,
    RunStart,
)


class Sink:
    """Receives telemetry.  Base behaviour: scalar events are dropped
    (``emit`` is a no-op hook) and blocks are materialized into scalar
    events — override ``emit`` to observe everything, or
    ``emit_block`` to handle columns natively."""

    #: emitters may skip record assembly entirely when False.
    enabled = True

    def __init__(self) -> None:
        self._arrivals: ArrivalBlock | None = None

    def emit(self, event: Event) -> None:
        """Receive one scalar typed event (no-op by default)."""

    def emit_run(self, run) -> None:
        """Receive one whole run record; default streams its events and
        blocks to :meth:`emit` / :meth:`emit_block`, in order."""
        run.emit_to(self)

    def emit_block(self, block: ArrivalBlock | BatchBlock) -> None:
        """Receive one column block; default materializes its events.

        The last :class:`ArrivalBlock` seen is remembered so a
        member-less stream :class:`BatchBlock` can resolve completions
        against it (emission within a run is sequential: arrivals
        always precede batches).
        """
        if isinstance(block, ArrivalBlock):
            self._arrivals = block
            events: Iterator[Event] = block.events()
        else:
            events = block.events(self._arrivals)
        for event in events:
            self.emit(event)

    def close(self) -> None:
        """Flush/release resources (no-op by default)."""

    def __enter__(self) -> "Sink":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class NullSink(Sink):
    """Drops everything; the zero-overhead default."""

    enabled = False

    def emit_block(self, block: ArrivalBlock | BatchBlock) -> None:
        pass


class MultiSink(Sink):
    """Fan out every event and block to several sinks."""

    def __init__(self, *sinks: Sink) -> None:
        super().__init__()
        self.sinks = tuple(sinks)

    def emit(self, event: Event) -> None:
        for sink in self.sinks:
            sink.emit(event)

    def emit_block(self, block: ArrivalBlock | BatchBlock) -> None:
        for sink in self.sinks:
            sink.emit_block(block)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


class CaptureSink(Sink):
    """Keeps every run record handed to it, in order, as ``runs``."""

    def __init__(self) -> None:
        super().__init__()
        self.runs: list = []

    def emit_run(self, run) -> None:
        self.runs.append(run)


def peak_queue_depth(blocks: list[ArrivalBlock | BatchBlock]) -> int:
    """Peak number of queries waiting over one run's blocks, counting
    every replica's queue: the maximum of
    :func:`repro.telemetry.derive.queue_depth_timeline`.

    The depth just before a dispatch instant ``s`` is the arrivals at
    or before ``s`` minus the members dispatched strictly before ``s``.
    Depth only rises at arrivals, so its peak is one of these values or
    the depth left after the last dispatch.
    """
    times = next(
        (b.times for b in blocks if isinstance(b, ArrivalBlock)), ()
    )
    arrivals = np.asarray(times, dtype=float)
    batches = [b for b in blocks if isinstance(b, BatchBlock) and len(b)]
    if not batches:
        return len(arrivals)
    starts = np.concatenate([np.asarray(b.starts, float) for b in batches])
    sizes = np.concatenate([np.asarray(b.sizes, np.int64) for b in batches])
    order = np.argsort(starts, kind="stable")
    starts = starts[order]
    dispatched = np.concatenate(([0], np.cumsum(sizes[order])))
    before = dispatched[np.searchsorted(starts, starts, side="left")]
    arrived = np.searchsorted(arrivals, starts, side="right")
    left = len(arrivals) - dispatched[-1]
    return int(max(np.max(arrived - before), left, 0))


class StatsSink(Sink):
    """In-memory aggregation: event counts, cache totals, run summaries.

    Blocks are folded with numpy instead of being materialized, so the
    counts match the scalar view at a fraction of the cost — the
    ``counts`` entries for ``arrival``/``dispatch``/``complete`` etc.
    are exactly what a per-event sink would have tallied.
    """

    def __init__(self) -> None:
        super().__init__()
        self.counts: dict[str, int] = {}
        self.cache = {
            "hits": 0, "misses": 0, "evictions": 0,
            "host_rows": 0, "host_bytes": 0, "host_us": 0.0,
        }
        self.runs: list[dict[str, Any]] = []
        # (summary, blocks) of each open run, innermost last
        self._stack: list[tuple[dict[str, Any], list]] = []

    def _count(self, kind: str, n: int = 1) -> None:
        self.counts[kind] = self.counts.get(kind, 0) + n

    def emit(self, event: Event) -> None:
        kind = event.kind
        if kind == "run_start":
            self._count(kind)
            meta = event.meta
            name = (
                meta.get("tenant") or meta.get("scenario")
                or meta.get("zoo") or meta.get("fleet")
                or meta.get("scheme_name") or "?"
            )
            self._stack.append(({
                "kind": meta.get("kind", "?"),
                "name": name,
                "n_queries": 0, "n_batches": 0,
                "busy_s": 0.0, "max_queue_depth": 0,
            }, []))
            return
        if kind == "run_end":
            self._count(kind)
            if self._stack:
                current, blocks = self._stack.pop()
                current["max_queue_depth"] = peak_queue_depth(blocks)
                self.runs.append(current)
            return
        self._count(kind)
        if kind == "cache_hit":
            self.cache["hits"] += event.count
        elif kind == "cache_miss":
            self.cache["misses"] += event.count
        elif kind == "cache_evict":
            self.cache["evictions"] += event.count
        elif kind == "host_fetch":
            self.cache["host_rows"] += event.rows
            self.cache["host_bytes"] += event.bytes
            self.cache["host_us"] += event.us

    def emit_block(self, block: ArrivalBlock | BatchBlock) -> None:
        current, blocks = self._stack[-1] if self._stack else (None, [])
        blocks.append(block)
        if isinstance(block, ArrivalBlock):
            n = len(block)
            self._count("arrival", n)
            if n:
                ids = np.asarray(block.phase_ids)
                transitions = 1 + int(np.count_nonzero(ids[1:] != ids[:-1]))
                self._count("phase_start", transitions)
                self._count("phase_end", transitions)
            if current is not None:
                current["n_queries"] += n
            return
        n_batches = len(block)
        served = int(np.sum(block.sizes)) if n_batches else 0
        self._count("batch_formed", n_batches)
        self._count("dispatch", n_batches)
        self._count("complete", served)
        if current is not None:
            current["n_batches"] += n_batches
            current["busy_s"] += float(np.sum(block.exec_s))

    def summary(self) -> dict[str, Any]:
        return {
            "counts": dict(self.counts),
            "cache": dict(self.cache),
            "runs": list(self.runs),
        }

    def render(self) -> str:
        lines = ["telemetry:"]
        for kind in sorted(self.counts):
            lines.append(f"  {kind:14s} {self.counts[kind]}")
        if any(self.cache.values()):
            c = self.cache
            lines.append(
                f"  cache: {c['hits']} hits / {c['misses']} misses / "
                f"{c['evictions']} evictions; host "
                f"{c['host_rows']} rows, {c['host_bytes']} B, "
                f"{c['host_us']:.1f} us"
            )
        for run in self.runs:
            lines.append(
                f"  run {run['kind']}:{run['name']} — "
                f"{run['n_queries']} queries, {run['n_batches']} "
                f"batches, busy {run['busy_s']:.3f}s, peak queue "
                f"{run['max_queue_depth']}"
            )
        return "\n".join(lines)


class ConsoleSink(StatsSink):
    """Human-readable progress: one line per completed run, a cache /
    totals footer on ``close``."""

    def __init__(self, stream: TextIO | None = None) -> None:
        super().__init__()
        self._stream = stream if stream is not None else sys.stdout

    def emit(self, event: Event) -> None:
        super().emit(event)
        if event.kind == "run_end" and self.runs:
            run = self.runs[-1]
            print(
                f"[telemetry] {run['kind']}:{run['name']} — "
                f"{run['n_queries']} queries in {run['n_batches']} "
                f"batches, peak queue {run['max_queue_depth']}",
                file=self._stream,
            )
        elif event.kind == "re_arbitrate":
            print(
                f"[telemetry] re-arbitrate @ phase {event.phase}: "
                + ", ".join(
                    f"{t}={g.get('hit_rate', 0.0):.3f}"
                    for t, g in event.grants.items()
                ),
                file=self._stream,
            )

    def close(self) -> None:
        c = self.cache
        if any(c.values()):
            print(
                f"[telemetry] cache: {c['hits']} hits / "
                f"{c['misses']} misses / {c['evictions']} evictions, "
                f"host {c['host_us']:.1f} us",
                file=self._stream,
            )


class RecorderSink(Sink):
    """Schema-versioned JSONL recorder.

    Line 1 is the header (``{"k": "telemetry", "schema": N}``); every
    event and block is one line; ``close`` appends a footer with the
    record count, which is how replay detects truncation.  Column
    blocks are written as base64 numpy columns — exact bits, so a
    recorded run replays field-identical.
    """

    def __init__(self, path_or_file: str | TextIO) -> None:
        super().__init__()
        if hasattr(path_or_file, "write"):
            self._file: TextIO = path_or_file  # type: ignore[assignment]
            self._owns = False
        else:
            self._file = open(path_or_file, "w", encoding="utf-8")
            self._owns = True
        self.records = 0
        self._closed = False
        self._write({
            "k": "telemetry",
            "schema": SCHEMA_VERSION,
            "format": "repro-telemetry",
        }, count=False)

    def _write(self, record: dict[str, Any], *, count: bool = True) -> None:
        self._file.write(json.dumps(record, separators=(",", ":")))
        self._file.write("\n")
        if count:
            self.records += 1

    def emit(self, event: Event) -> None:
        self._write(event.to_record())

    def emit_block(self, block: ArrivalBlock | BatchBlock) -> None:
        record = block.to_record()
        pieces = self._encode_block(record)
        if pieces is None:
            self._write(record)
            return
        for piece in pieces:
            self._file.write(piece)
        self._file.write("\n")
        self.records += 1

    @staticmethod
    def _encode_block(record: dict[str, Any]) -> list[str] | None:
        """Serialize a block record as the pieces of one line, splicing
        large base64 payloads in raw instead of letting ``json.dumps``
        escape-scan them — base64 needs no escaping, and the columns
        dominate the line.  The pieces are written one by one rather
        than joined, which would copy every payload once more.  Returns
        ``None`` (caller falls back to plain ``json.dumps``) when the
        envelope unexpectedly collides with the splice markers."""
        payloads: list[str] = []
        shallow = dict(record)
        for key, value in record.items():
            if (
                isinstance(value, dict)
                and isinstance(value.get("b"), str)
                and len(value["b"]) > 512
            ):
                payloads.append(value["b"])
                shallow[key] = {**value, "b": f"\x01{len(payloads) - 1}"}
        text = json.dumps(shallow, separators=(",", ":"))
        if not payloads:
            return [text]
        parts = text.split('"\\u0001')
        if len(parts) != len(payloads) + 1:
            return None
        out = [parts[0]]
        for part in parts[1:]:
            index, rest = part.split('"', 1)
            out.extend(('"', payloads[int(index)], '"', rest))
        return out

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._write({"k": "end", "records": self.records}, count=False)
        if self._owns:
            self._file.close()
        else:
            self._file.flush()


# ----------------------------------------------------------------------
# the ambient default sink
# ----------------------------------------------------------------------
#: The shared no-op sink; also the initial ambient default.
NULL_SINK = NullSink()

_DEFAULT_SINK: Sink = NULL_SINK


def default_sink() -> Sink:
    """The ambient sink emitters fall back to when ``sink=None``."""
    return _DEFAULT_SINK


def set_default_sink(sink: Sink | None) -> Sink:
    """Install the ambient sink (``None`` restores the no-op default);
    returns the previous one so callers can restore it."""
    global _DEFAULT_SINK
    previous = _DEFAULT_SINK
    _DEFAULT_SINK = sink if sink is not None else NULL_SINK
    return previous


@contextmanager
def use_sink(sink: Sink):
    """Ambient sink for the duration of a ``with`` block."""
    previous = set_default_sink(sink)
    try:
        yield sink
    finally:
        set_default_sink(previous)


def resolve_sink(sink: Sink | None) -> Sink:
    """An explicit sink, or the ambient default."""
    return sink if sink is not None else _DEFAULT_SINK


def emit_run(sink: Sink | None, run) -> None:
    """Emit a run record to ``sink`` (or the ambient default) unless
    the resolved sink is disabled — the emitters' one-liner."""
    resolved = resolve_sink(sink)
    if resolved.enabled:
        resolved.emit_run(run)


def emit_event(sink: Sink | None, event: Event) -> None:
    """Emit one scalar event, resolving the ambient default."""
    resolved = resolve_sink(sink)
    if resolved.enabled:
        resolved.emit(event)


__all__ = [
    "Sink",
    "NullSink",
    "MultiSink",
    "CaptureSink",
    "StatsSink",
    "ConsoleSink",
    "RecorderSink",
    "NULL_SINK",
    "default_sink",
    "set_default_sink",
    "use_sink",
    "resolve_sink",
    "emit_run",
    "emit_event",
    "peak_queue_depth",
    "RunStart",
    "RunEnd",
]
