"""Derived time-series metrics folded from recorded runs.

The fixed reports answer "how did the run end up"; these folds answer
"what happened *during* it" — the at-scale views the characterization
papers care about (queue growth inside a flash crowd, in-flight
concurrency, who pays for co-residency).  Everything here reads only
run records (:class:`~repro.telemetry.events.StreamRun` /
``FleetRun`` / ``GroupRun``), so the same code serves live sinks and
``repro-harness replay`` alike.

Like :mod:`repro.telemetry.replay`, this module sits above the serving
stack and is imported explicitly, not via ``repro.telemetry``.
"""

from __future__ import annotations

from typing import Any, Iterable

import numpy as np

from repro.telemetry.events import (
    BatchBlock,
    FleetRun,
    GroupRun,
    RunRecord,
    StreamRun,
)
from repro.telemetry.sinks import peak_queue_depth


def _batch_blocks(run: StreamRun | FleetRun) -> list[BatchBlock]:
    if isinstance(run, StreamRun):
        return [run.batches]
    return list(run.replicas)


def _step_timeline(
    plus_t: np.ndarray,
    plus_n: np.ndarray,
    minus_t: np.ndarray,
    minus_n: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Merge +/- count deltas into a step function ``(times, depth)``.

    At equal timestamps the additions land first — matching the serving
    loop, where a query arriving exactly at dispatch time joins the
    departing batch (``searchsorted side="right"``).
    """
    times = np.concatenate([plus_t, minus_t])
    deltas = np.concatenate([plus_n, -minus_n])
    # stable sort on (time, order-class): additions carry class 0
    order_class = np.concatenate([
        np.zeros(len(plus_t), dtype=np.int8),
        np.ones(len(minus_t), dtype=np.int8),
    ])
    order = np.lexsort((order_class, times))
    return times[order], np.cumsum(deltas[order])


def queue_depth_timeline(
    run: StreamRun | FleetRun,
) -> tuple[np.ndarray, np.ndarray]:
    """Step timeline of queued queries (arrived, not yet dispatched).

    Returns ``(times, depth)``: ``depth[i]`` is the queue depth just
    after the event at ``times[i]`` (an arrival or a batch dispatch).
    For a fleet run the depth is summed across every replica's queue.
    """
    blocks = _batch_blocks(run)
    dispatch_t = np.concatenate(
        [np.asarray(b.starts, dtype=float) for b in blocks]
    ) if blocks else np.empty(0)
    dispatch_n = np.concatenate(
        [np.asarray(b.sizes, dtype=np.int64) for b in blocks]
    ) if blocks else np.empty(0, dtype=np.int64)
    arrivals = np.asarray(run.arrivals.times, dtype=float)
    return _step_timeline(
        arrivals, np.ones(len(arrivals), dtype=np.int64),
        dispatch_t, dispatch_n,
    )


def in_flight_timeline(
    run: StreamRun | FleetRun,
) -> tuple[np.ndarray, np.ndarray]:
    """Step timeline of in-flight queries (dispatched, not complete).

    For a single-GPU stream run this is the executing batch's size
    (batches run back to back); for a fleet it is the sum over
    replicas — the cluster's instantaneous concurrency.
    """
    blocks = _batch_blocks(run)
    starts = np.concatenate(
        [np.asarray(b.starts, dtype=float) for b in blocks]
    ) if blocks else np.empty(0)
    dones = np.concatenate(
        [np.asarray(b.done, dtype=float) for b in blocks]
    ) if blocks else np.empty(0)
    sizes = np.concatenate(
        [np.asarray(b.sizes, dtype=np.int64) for b in blocks]
    ) if blocks else np.empty(0, dtype=np.int64)
    return _step_timeline(starts, sizes, dones, sizes)


def max_queue_depth(run: StreamRun | FleetRun) -> int:
    """Peak queued-query count over the whole run (0 for no arrivals):
    the maximum of :func:`queue_depth_timeline`, which
    :class:`~repro.telemetry.sinks.StatsSink` reports too."""
    return peak_queue_depth([run.arrivals, *_batch_blocks(run)])


def interference_attribution(run: GroupRun) -> dict[str, dict[str, Any]]:
    """Per-tenant interference attribution of one zoo run.

    For each tenant: its contention ``factor`` (the latency multiplier
    co-residents cost it), its own measured duty cycle ``load``, the
    summed ``co_runner_load`` it is exposed to, and the resulting
    ``latency_penalty_pct`` (``(factor - 1) x 100``).  Zoo-fleet runs
    attribute per replica and also report the worst factor.
    """
    meta = run.meta
    kind = meta.get("kind")
    if kind == "zoo":
        loads: dict[str, float] = meta["loads"]
        contention: dict[str, float] = meta["contention"]
        return {
            name: {
                "factor": factor,
                "load": loads.get(name, 0.0),
                "co_runner_load": sum(
                    load for other, load in loads.items()
                    if other != name
                ),
                "latency_penalty_pct": 100.0 * (factor - 1.0),
            }
            for name, factor in contention.items()
        }
    if kind == "zoo_fleet":
        per_replica: dict[str, dict[str, float]] = meta["contention"]
        tenants: dict[str, dict[str, Any]] = {}
        for replica, factors in per_replica.items():
            for name, factor in factors.items():
                entry = tenants.setdefault(name, {
                    "factor": 1.0, "replica_factors": {},
                })
                entry["replica_factors"][replica] = factor
                entry["factor"] = max(entry["factor"], factor)
        for entry in tenants.values():
            entry["latency_penalty_pct"] = 100.0 * (
                entry["factor"] - 1.0
            )
        return tenants
    raise ValueError(
        f"interference attribution needs a zoo run, got kind {kind!r}"
    )


def timeline_summary(runs: Iterable[RunRecord]) -> list[dict[str, Any]]:
    """Compact per-run timeline digest (the CLI's ``--report timeline``).

    One dict per run: name/kind, query and batch counts, peak queue
    depth, and peak in-flight concurrency.  Group runs digest their
    children.
    """
    rows: list[dict[str, Any]] = []
    for run in runs:
        if isinstance(run, GroupRun):
            rows.extend(timeline_summary(run.children.values()))
            continue
        _, flight = in_flight_timeline(run)
        blocks = _batch_blocks(run)
        rows.append({
            "kind": run.meta.get("kind", "?"),
            "name": (
                run.meta.get("scenario") or run.meta.get("fleet")
                or run.meta.get("scheme_name") or "?"
            ),
            "tenant": run.meta.get("tenant"),
            "n_queries": int(len(run.arrivals.times)),
            "n_batches": int(sum(len(b) for b in blocks)),
            "max_queue_depth": max_queue_depth(run),
            "max_in_flight": int(flight.max()) if len(flight) else 0,
        })
    return rows


__all__ = [
    "queue_depth_timeline",
    "in_flight_timeline",
    "max_queue_depth",
    "interference_attribution",
    "timeline_summary",
]
