"""Test-only reference: the per-replica-object router the flat-state
router in :mod:`repro.fleet.router` must reproduce.

This is the event loop as it stood before the router moved to flat
per-replica lists: one object per replica with its own routing metrics
(``queue_len``, ``backlog_s``, ``estimated_completion_s``) and four
``select`` rules that build one Python key per replica per arrival.
It is slow and obviously correct, which is all it is for.

Power-of-two draws its candidate pair with one ``rng.choice`` per
arrival, as it always did; pass ``pairs`` (one ``(a, b)`` per arrival)
to replay another sample path through the same comparison instead.

Every enqueue re-decides the pending batch with a full call of the
batcher's rule, built afresh per call (``batch_rule(policy)(times,
head, gpu_free, curve.ms)``); a batch commits with the size that
decision gave.  Pass ``dues`` (a list) to collect every replica's due
time as each arrival finds it, the lists the router's
``RouterState.due`` must match.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.curve import as_curve
from repro.core.serving import batch_rule
from repro.fleet.router import resolve_latency_models


class ReplicaState:
    """One replica: its queue, its GPU clock, its batch columns and the
    routing metrics the policies read."""

    def __init__(self, spec, latency_ms):
        self.spec = spec
        max_batch = spec.batching.max_batch
        self.curve = as_curve(latency_ms, max_batch)
        self.latency_ms = self.curve.ms[:max_batch + 1].tolist()
        self.times = []
        self.phases = []
        self.head = 0
        self.gpu_free = 0.0
        self.due = math.inf
        self.size = 0
        self.batch_starts = []
        self.batch_exec = []
        self.batch_sizes = []

    def enqueue(self, arrival, phase=0):
        self.times.append(arrival)
        self.phases.append(phase)
        self._decide()

    def _decide(self):
        if self.head < len(self.times):
            self.due, self.size = batch_rule(self.spec.batching)(
                self.times, self.head, self.gpu_free, self.curve.ms,
            )
        else:
            self.due = math.inf

    def advance(self, now):
        while self.due < now:
            exec_s = self.latency_ms[self.size] / 1e3
            self.gpu_free = self.due + exec_s
            self.batch_starts.append(self.due)
            self.batch_exec.append(exec_s)
            self.batch_sizes.append(self.size)
            self.head += self.size
            self._decide()

    def queue_len(self):
        return len(self.times) - self.head

    def backlog_s(self, now):
        return max(self.gpu_free - now, 0.0)

    def estimated_completion_s(self, now):
        max_batch = self.spec.batching.max_batch
        pending = self.queue_len() + 1
        full_batches, remainder = divmod(pending, max_batch)
        work_ms = full_batches * self.latency_ms[max_batch]
        if remainder:
            work_ms += self.latency_ms[remainder]
        return self.backlog_s(now) + work_ms / 1e3


def select_round_robin(replicas, now, k, pick):
    return k % len(replicas)


def select_jsq(replicas, now, k, pick):
    return min(
        range(len(replicas)),
        key=lambda i: (
            replicas[i].queue_len(), replicas[i].backlog_s(now), i,
        ),
    )


def select_power_of_two(replicas, now, k, pick):
    if len(replicas) == 1:
        return 0
    a, b = pick(k)
    key = lambda i: (replicas[i].queue_len(), replicas[i].backlog_s(now))
    return int(a) if key(a) <= key(b) else int(b)


def select_least_latency(replicas, now, k, pick):
    return min(
        range(len(replicas)),
        key=lambda i: (replicas[i].estimated_completion_s(now), i),
    )


SELECT = {
    "round-robin": select_round_robin,
    "jsq": select_jsq,
    "power-of-two": select_power_of_two,
    "least-latency": select_least_latency,
}


def reference_route(fleet, latency_models, times, phase_ids, policy, *,
                    seed=0, pairs=None, dues=None):
    """Route ``times`` with the named policy; the drained replicas.

    With ``dues`` given, one list of per-replica due times is appended
    per arrival, after the due batches are committed and before the
    policy picks."""
    curves = resolve_latency_models(fleet, latency_models)
    replicas = [ReplicaState(r, curves[r.name]) for r in fleet.replicas]
    rng = np.random.default_rng([seed, 0x617])
    if pairs is None:
        def pick(k):
            return rng.choice(len(replicas), size=2, replace=False)
    else:
        def pick(k):
            return pairs[k]
    select = SELECT[policy]
    for k, (now, phase) in enumerate(
        zip(np.asarray(times).tolist(), np.asarray(phase_ids).tolist())
    ):
        for replica in replicas:
            if replica.due < now:
                replica.advance(now)
        if dues is not None:
            dues.append([replica.due for replica in replicas])
        replicas[select(replicas, now, k, pick)].enqueue(now, phase)
    for replica in replicas:
        replica.advance(math.inf)
    return replicas
