"""Batch-latency curves: one validated table per curve.

Every serving layer — the single-GPU event loop, the fleet router, the
tenancy and memstore compositions — consumes the same quantity: how
long one batch of ``b`` queries takes to execute.  A
:class:`LatencyCurve` holds that curve as one read-only float64 array
``ms[0..max_batch]`` indexed by batch size, plus a provenance string
naming where the numbers came from.  Builders fill the table once
(interpolated calibration points, a vectorized roofline, or any plain
callable); combinators (:meth:`LatencyCurve.scaled`,
:meth:`LatencyCurve.plus_per_query`) derive new tables entry by entry
with the same IEEE operations the equivalent scalar formulas perform,
so serving through a table is bit-identical to calling the formula.

Construction validates the table: every entry for batch sizes
``1..max_batch`` must be finite, positive and non-decreasing in batch
size — the SLA-adaptive batcher's binary search for the largest batch
that fits a budget relies on the last property.  ``ms[0]`` is 0 (an
empty batch costs nothing) and is never served.

Serving entry points also accept plain callables ``batch -> ms``;
:func:`as_curve` tabulates each distinct callable once per call, over
the batching policy's domain, and validates it like any other table.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

#: Largest batch size a curve can cover; every builder's default domain.
MAX_BATCH = 16384

#: How many offending batch sizes a validation error lists.
_SHOWN = 5


@dataclass(frozen=True, eq=False, repr=False)
class LatencyCurve:
    """Batch execution latency (ms) for batch sizes ``1..max_batch``.

    ``ms`` is copied at construction, made read-only and validated;
    ``provenance`` names the curve's origin in errors and reprs.
    Calling the curve looks one batch size up; a batch outside the
    domain raises ``ValueError``.
    """

    ms: np.ndarray
    provenance: str

    def __post_init__(self) -> None:
        ms = np.array(self.ms, dtype=np.float64)
        if ms.ndim != 1 or not 2 <= len(ms) <= MAX_BATCH + 1:
            raise ValueError(
                f"latency curve {self.provenance}: need a 1-d table of "
                f"2..{MAX_BATCH + 1} entries (batch sizes 0..max_batch), "
                f"got shape {ms.shape}"
            )
        ms[0] = 0.0
        _validate(ms, self.provenance)
        ms.flags.writeable = False
        object.__setattr__(self, "ms", ms)

    # -- construction ---------------------------------------------------
    @classmethod
    def from_points(
        cls, batch_sizes: Sequence[int], latencies_ms: Sequence[float]
    ) -> LatencyCurve:
        """Piecewise-linear through measured (batch size, ms) points,
        clamped flat outside the measured range."""
        sizes = np.asarray(batch_sizes, dtype=float)
        lats = np.asarray(latencies_ms, dtype=float)
        if len(sizes) != len(lats) or len(sizes) < 1:
            raise ValueError("need matching, non-empty calibration points")
        order = np.argsort(sizes)
        sizes, lats = sizes[order], lats[order]
        ms = np.interp(np.arange(MAX_BATCH + 1), sizes, lats)
        points = ", ".join(f"{s:g}:{v:g}" for s, v in zip(sizes, lats))
        return cls(ms, f"points({points})")

    @classmethod
    def from_fn(
        cls, fn: Callable[[int], float], max_batch: int = MAX_BATCH
    ) -> LatencyCurve:
        """Tabulate a plain callable over ``1..max_batch``, one call per
        batch size."""
        if not 1 <= max_batch <= MAX_BATCH:
            raise ValueError(
                f"max_batch must be in 1..{MAX_BATCH}, got {max_batch}"
            )
        ms = np.empty(max_batch + 1)
        ms[0] = 0.0
        ms[1:] = np.fromiter(
            (fn(batch) for batch in range(1, max_batch + 1)),
            dtype=float, count=max_batch,
        )
        return cls(ms, getattr(fn, "__qualname__", type(fn).__name__))

    # -- combinators ----------------------------------------------------
    def scaled(self, factor: float) -> LatencyCurve:
        """Every entry times ``factor``; ``scaled(1.0)`` is ``self``."""
        if factor == 1.0:
            return self
        return LatencyCurve(
            self.ms * factor, f"{self.provenance}*{factor:g}"
        )

    def plus_per_query(self, us: float) -> LatencyCurve:
        """Add ``us`` microseconds per query in the batch (a cost linear
        in batch size, e.g. host-tier fetches); ``plus_per_query(0)``
        is ``self``."""
        if us < 0:
            raise ValueError(f"per-query cost must be >= 0, got {us}")
        if us == 0:
            return self
        batch = np.arange(len(self.ms))
        return LatencyCurve(
            self.ms + us * batch / 1e3,
            f"{self.provenance}+{us:g}us/query",
        )

    # -- queries --------------------------------------------------------
    @property
    def max_batch(self) -> int:
        return len(self.ms) - 1

    def __call__(self, batch: int) -> float:
        index = operator.index(batch)
        if not 1 <= index <= self.max_batch:
            raise ValueError(
                f"batch size {batch} is outside latency curve "
                f"{self.provenance}'s domain 1..{self.max_batch}"
            )
        return float(self.ms[index])

    def __repr__(self) -> str:
        return (
            f"LatencyCurve({self.provenance}, max_batch={self.max_batch})"
        )


#: What serving entry points accept as a batch-latency curve: a table,
#: or any plain callable batch size -> milliseconds.
LatencyModel = LatencyCurve | Callable[[int], float]


def as_curve(
    model: LatencyModel,
    max_batch: int = MAX_BATCH,
    seen: dict[int, tuple[object, LatencyCurve]] | None = None,
) -> LatencyCurve:
    """``model`` as a table covering at least ``1..max_batch``.

    A :class:`LatencyCurve` passes through once its domain is checked;
    a plain callable is tabulated over ``1..max_batch``.  ``seen``
    memoizes tabulations by callable identity for the duration of one
    call, so replicas or phases sharing one callable tabulate it once.
    """
    if isinstance(model, LatencyCurve):
        if model.max_batch < max_batch:
            raise ValueError(
                f"latency curve {model.provenance} covers batch sizes "
                f"1..{model.max_batch}, but the batching policy forms "
                f"batches up to {max_batch}"
            )
        return model
    if not callable(model):
        raise TypeError(
            "a latency model must be a LatencyCurve or a callable "
            f"batch size -> ms, got {type(model).__name__}"
        )
    if seen is not None:
        hit = seen.get(id(model))
        if hit is not None and hit[1].max_batch >= max_batch:
            return hit[1]
    curve = LatencyCurve.from_fn(model, max_batch)
    if seen is not None:
        # keep the callable alive so its id cannot be reused meanwhile
        seen[id(model)] = (model, curve)
    return curve


def _validate(ms: np.ndarray, provenance: str) -> None:
    """Entries ``1..max_batch`` finite, > 0 and non-decreasing."""
    body = ms[1:]
    bad = np.flatnonzero(~(np.isfinite(body) & (body > 0)))
    if len(bad):
        shown = ", ".join(
            f"{i + 1} ({float(body[i])!r} ms)" for i in bad[:_SHOWN]
        )
        raise ValueError(
            f"latency curve {provenance} must be finite and > 0 at every "
            f"batch size; offending batch sizes: {shown}"
        )
    drops = np.flatnonzero(body[1:] < body[:-1])
    if len(drops):
        shown = ", ".join(
            f"{i + 1}->{i + 2} "
            f"({float(body[i])!r} -> {float(body[i + 1])!r} ms)"
            for i in drops[:_SHOWN]
        )
        raise ValueError(
            f"latency curve {provenance} must be non-decreasing in batch "
            f"size; it drops at batch sizes {shown}"
        )
