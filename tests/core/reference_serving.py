"""Test-only reference: the single-GPU serving loop the library's
``core.serving._serve_arrays`` must reproduce.

This is the loop as it stood while every batch went through the
one-call form of the batching rule: a ``next_batch`` that dispatches on
the batcher's type per batch, an SLA-adaptive sizer that finds the
largest batch fitting a budget with one ``np.searchsorted`` over the
numpy latency table, and a loop that indexes the numpy phase ids and
tables batch by batch.  It is slow and obviously correct, which is all
it is for.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

import numpy as np

from repro.core.serving import ContinuousBatching


def reference_adaptive_batch(curve, times, head, waiting, start, sla_ms):
    """Goodput-greedy batch size among the ``waiting`` oldest queued
    queries: the most in-SLA completions per GPU-millisecond, ties to
    the larger batch."""
    if waiting <= 1:
        return waiting
    candidates = set()
    size = waiting
    while size >= 1:
        candidates.add(size)
        size //= 2
    slack_ms = sla_ms - (start - times[head]) * 1e3
    for budget in (sla_ms, slack_ms):
        fit = int(np.searchsorted(
            curve.ms[1:waiting + 1], budget, side="right"
        ))
        if fit:
            candidates.add(fit)
    best_size, best_key = waiting, (-1.0, -1.0)
    for size in sorted(candidates):
        exec_batch_ms = float(curve.ms[size])
        cutoff = start + (exec_batch_ms - sla_ms) / 1e3
        hits = size - (bisect_left(times, cutoff, head, head + size) - head)
        key = (hits / exec_batch_ms, size / exec_batch_ms)
        if key > best_key:
            best_key, best_size = key, size
    return best_size


def reference_next_batch(policy, times, head, gpu_free, curve):
    """(dispatch time, size) of the next batch off ``times[head:]``."""
    first = times[head]
    if isinstance(policy, ContinuousBatching):
        start = max(gpu_free, first)
        waiting = min(bisect_right(times, start, head) - head,
                      policy.max_batch)
        if policy.sla_ms is None:
            return start, waiting
        return start, reference_adaptive_batch(
            curve, times, head, waiting, start, policy.sla_ms
        )
    threshold = max(first + policy.timeout_ms / 1e3, gpu_free)
    waiting = bisect_right(times, threshold, head) - head
    if waiting >= policy.max_batch:
        full = policy.max_batch
        return max(times[head + full - 1], gpu_free), full
    return threshold, waiting


def reference_serve(times, phase_ids, curves, policy):
    """Serve time-sorted arrivals on one GPU: the batch columns
    (starts, execution seconds, sizes) as lists, in dispatch order.  A
    batch executes on the curve of its oldest query's phase."""
    queue = times.tolist()
    batch_starts, batch_exec, batch_sizes = [], [], []
    gpu_free = 0.0
    head = 0
    while head < len(queue):
        curve = curves[phase_ids[head]]
        start, size = reference_next_batch(policy, queue, head, gpu_free,
                                           curve)
        exec_s = float(curve.ms[size]) / 1e3
        gpu_free = start + exec_s
        batch_starts.append(start)
        batch_exec.append(exec_s)
        batch_sizes.append(size)
        head += size
    return batch_starts, batch_exec, batch_sizes
