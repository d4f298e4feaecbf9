"""Host-time spans for the traced benchmark run.

The benchmark records spans around its own calls into each layer of
``repro``; nothing under ``src/`` is instrumented.  Spans stay in memory
and are written once, when the run ends.  Callables that run hundreds of
thousands of times per pass (the latency curves handed to the serving
layers) are not spans: :meth:`Tracer.curve` aggregates them into a call
count and a time total, charged to the innermost open span so that span's
self time excludes them.

:class:`NullTracer` is what the untraced run uses: every hook is a no-op
and :meth:`NullTracer.curve` hands back the callable itself, so the
measured code path is exactly the library's.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

#: Pseudo-layer name of the aggregated latency-curve calls.
CURVE = "curve"


@dataclass
class Span:
    """One timed call: wall nanoseconds, the span that caused it, and the
    pass or set-up it belongs to."""

    name: str
    start: int
    end: int
    parent: int | None
    pass_id: str
    #: position in the tracer's span list
    index: int = 0
    attrs: dict[str, Any] = field(default_factory=dict)
    #: time of aggregated leaf calls (latency curves) made while this
    #: span was the innermost open one
    leaf_ns: int = 0
    #: number of those leaf calls
    leaf_calls: int = 0

    @property
    def duration_ns(self) -> int:
        return self.end - self.start


def union_ns(intervals: Iterable[tuple[int, int]]) -> int:
    """Total length covered by possibly overlapping ``(start, end)``
    intervals, each point counted once."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times_ns(spans: Sequence[Span]) -> list[int]:
    """Each span's duration minus the union of its children's intervals
    (clipped to the span) and minus its aggregated leaf time."""
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(
                (span.start, span.end)
            )
    out = []
    for index, span in enumerate(spans):
        clipped = [
            (max(s, span.start), min(e, span.end))
            for s, e in children.get(index, ())
            if min(e, span.end) > max(s, span.start)
        ]
        out.append(span.duration_ns - union_ns(clipped) - span.leaf_ns)
    return out


def layer_table(
    spans: Sequence[Span], pass_ids: Iterable[str] | None = None
) -> list[dict[str, Any]]:
    """Per-layer rows ranked by self time: one row per span name plus one
    for the aggregated curve calls, over the spans of ``pass_ids`` (all
    spans when ``None``).  ``share_pct`` is the row's share of the summed
    self time, i.e. of the traced passes' wall time."""
    keep = None if pass_ids is None else set(pass_ids)
    selves = self_times_ns(spans)
    rows: dict[str, dict[str, Any]] = {}
    curve_ns = curve_calls = 0
    for span, self_ns in zip(spans, selves):
        if keep is not None and span.pass_id not in keep:
            continue
        row = rows.setdefault(
            span.name, {"layer": span.name, "calls": 0, "total_ns": 0,
                        "self_ns": 0},
        )
        row["calls"] += 1
        row["total_ns"] += span.duration_ns
        row["self_ns"] += self_ns
        curve_ns += span.leaf_ns
        curve_calls += span.leaf_calls
    if curve_calls:
        rows[CURVE] = {"layer": CURVE, "calls": curve_calls,
                       "total_ns": curve_ns, "self_ns": curve_ns}
    ranked = sorted(rows.values(), key=lambda r: (-r["self_ns"], r["layer"]))
    whole = sum(r["self_ns"] for r in ranked) or 1
    for row in ranked:
        row["share_pct"] = 100.0 * row["self_ns"] / whole
        row["self_s"] = row.pop("self_ns") / 1e9
        row["total_s"] = row.pop("total_ns") / 1e9
    return ranked


def render_table(rows: Sequence[dict[str, Any]]) -> str:
    lines = [f"{'layer':<24} {'calls':>9} {'self_s':>10} {'total_s':>10} "
             f"{'share%':>7}"]
    for row in rows:
        lines.append(
            f"{row['layer']:<24} {row['calls']:>9} {row['self_s']:>10.4f} "
            f"{row['total_s']:>10.4f} {row['share_pct']:>7.1f}"
        )
    return "\n".join(lines)


class NullTracer:
    """The untraced run's tracer: records nothing, wraps nothing."""

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any):
        yield attrs

    def curve(self, fn: Callable[[int], float]) -> Callable[[int], float]:
        return fn

    @contextlib.contextmanager
    def patched(self):
        yield


class Tracer(NullTracer):
    """Records spans and curve aggregates in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._self_ns: list[int] = []
        self.pass_id = "setup"

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any):
        """Time the ``with`` body as one span; the yielded ``attrs`` dict
        may be filled in by the body (counts known only afterwards)."""
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        span = Span(name, time.perf_counter_ns(), 0, parent, self.pass_id,
                    index, attrs)
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield attrs
        finally:
            span.end = time.perf_counter_ns()
            self._stack.pop()

    def curve(self, fn: Callable[[int], float]) -> Callable[[int], float]:
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def timed(batch: int) -> float:
            start = clock()
            out = fn(batch)
            elapsed = clock() - start
            if stack:
                span = spans[stack[-1]]
                span.leaf_ns += elapsed
                span.leaf_calls += 1
            return out

        return timed

    def wrap(self, fn: Callable, name: str,
             attrs: Callable[..., dict] | None = None,
             result: Callable[[Any], dict] | None = None) -> Callable:
        """``fn`` with every call recorded as a span ``name``; ``attrs``
        derives span attributes from the arguments, ``result`` from the
        return value."""
        def traced(*args: Any, **kwargs: Any) -> Any:
            extra = attrs(*args, **kwargs) if attrs else {}
            with self.span(name, **extra) as span_attrs:
                out = fn(*args, **kwargs)
                if result:
                    span_attrs.update(result(out))
                return out

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Wrap the library names one layer calls inside another, in the
        calling module's namespace, for the duration of the block."""
        def dataset(*args: Any, **kwargs: Any) -> dict:
            return {"dataset": kwargs.get("name", "").rpartition("/")[2]}

        targets = (
            ("repro.core.embedding", "run_kernel", "gpusim.engine", dataset,
             lambda stats: {"insts": stats.issued_insts}),
            ("repro.core.embedding", "build_trace", "kernels.lower", None,
             lambda trace: {"uops": trace.n_ops}),
            ("repro.core.embedding", "profile_hot_rows",
             "kernels.pin_profile", None, None),
            ("repro.core.serving", "fold_stream_report", "serving.fold",
             None, None),
            ("repro.tenancy.share", "fold_stream_report", "serving.fold",
             None, None),
            ("repro.fleet.router", "fold_fleet_report", "fleet.fold", None,
             None),
            # replay looks the fleet fold up here when it is called
            ("repro.fleet.report", "fold_fleet_report", "fleet.fold", None,
             None),
            ("repro.tenancy.share", "emit_run", "telemetry.record", None,
             None),
            ("repro.fleet.router", "emit_run", "telemetry.record", None,
             None),
        )
        saved = []
        try:
            for module_name, attr, span_name, attrs, result in targets:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr,
                        self.wrap(original, span_name, attrs, result))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    # ------------------------------------------------------------------
    def of_pass(self, pass_id: str) -> list[Span]:
        return [s for s in self.spans if s.pass_id == pass_id]

    def exclusive_s(self, span: Span) -> float:
        """A span's time outside its child spans; aggregated curve calls
        made directly under it still count (they are its own work)."""
        if len(self._self_ns) != len(self.spans):
            self._self_ns = self_times_ns(self.spans)
        return (self._self_ns[span.index] + span.leaf_ns) / 1e9

    def dump(self, path: Path, tables: dict[str, Any],
             meta: dict[str, Any]) -> None:
        """Write every span plus the per-layer tables as one JSON file."""
        selves = self_times_ns(self.spans)
        doc = {
            "meta": meta,
            "tables": tables,
            "spans": [
                {"name": s.name, "start_ns": s.start, "end_ns": s.end,
                 "parent": s.parent, "pass": s.pass_id, "attrs": s.attrs,
                 "self_ns": self_ns, "curve_ns": s.leaf_ns,
                 "curve_calls": s.leaf_calls}
                for s, self_ns in zip(self.spans, selves)
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, default=str))
