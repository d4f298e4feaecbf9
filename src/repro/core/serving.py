"""Inference serving model: arrivals, batching, tail latency.

The paper's motivation is SLA-bound inference serving ("arriving
queries create batches, where each batch is expected to meet the SLA
target", Section III-A).  This module closes that loop with a single
discrete-event serving engine that consumes *arrival streams* — a
stationary Poisson process, or any non-stationary scenario produced by
:mod:`repro.traffic` (diurnal load, flash crowds, MMPP bursts,
popularity drift) — and batches them onto one GPU whose batch latency
comes from the simulated pipeline.  Its event loop is also the one
every replica of a routed fleet runs (:mod:`repro.fleet.router`).

Two batch-formation disciplines are supported:

* :class:`BatchingPolicy` — the classic size-or-timeout batcher: a
  batch closes when ``max_batch`` queries wait or the oldest has waited
  ``timeout_ms``.  Easy to reason about under stationary load, but it
  taxes light traffic with the full timeout and keeps serving oversized
  batches deep into an overload.
* :class:`ContinuousBatching` — continuous (in-flight) batch formation:
  a new batch forms at dispatch time out of everything that has arrived
  by then, so the GPU never idles while work waits and light load
  degenerates to single-query batches with zero batching delay.  With
  ``sla_ms`` set, the batch size additionally adapts to SLA pressure
  (see the class docstring).

The executor's batch latency is a :class:`~repro.core.curve.LatencyCurve`
table — by default interpolated between measured batch sizes, so one
expensive simulation sweep serves many load points.  Plain callables
``batch -> ms`` are accepted too: each entry point tabulates and
validates them once, over the batching policy's domain, so the event
loop only ever indexes tables.  Per-phase latency models (one curve per
scenario phase, e.g. under popularity drift) are accepted wherever a
single curve is.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.core.curve import LatencyCurve, LatencyModel, as_curve
from repro.telemetry.events import ArrivalBlock, BatchBlock, StreamRun
from repro.telemetry.sinks import CaptureSink, Sink, emit_run

_PERCENTILE_FIELDS = {"p50": "p50_ms", "p95": "p95_ms", "p99": "p99_ms"}


def resolve_percentile_field(sla_ms: float, percentile: str) -> str:
    """The report field an SLA check compares with ``sla_ms``
    (``"p99"`` -> ``"p99_ms"``): the one entry of every SLA check, which
    the planners call before they simulate anything.

    Raises ``ValueError`` for a None SLA (nothing to check against), one
    :func:`check_sla` rejects, or a percentile the reports do not carry
    — none may silently pass a check or die mid-comparison.
    """
    if sla_ms is None:
        raise ValueError(
            "an SLA check needs sla_ms as a number of milliseconds, "
            "got None"
        )
    check_sla(sla_ms)
    try:
        key = percentile.lower()
    except AttributeError:
        key = None
    field = _PERCENTILE_FIELDS.get(key)
    if field is None:
        known = ", ".join(_PERCENTILE_FIELDS)
        raise ValueError(
            f"unknown percentile {percentile!r}; known: {known}"
        )
    return field


def _check_max_batch(max_batch) -> None:
    """A batcher's ``max_batch``: an integer >= 1 (numpy integers too)."""
    if not isinstance(max_batch, (int, np.integer)):
        raise TypeError(f"max_batch must be an integer, got {max_batch!r}")
    if max_batch < 1:
        raise ValueError(f"max_batch must be >= 1, got {max_batch!r}")


def check_sla(sla_ms: float | None) -> None:
    """An SLA: None, or a finite number of milliseconds > 0.  NaN, zero
    or a negative SLA would count no query as in time."""
    if sla_ms is not None and not 0 < sla_ms < math.inf:
        raise ValueError(
            f"sla_ms must be a finite number > 0 or None, got {sla_ms!r}"
        )


@dataclass(frozen=True)
class BatchingPolicy:
    """Collect up to ``max_batch`` queries or wait at most ``timeout_ms``."""

    max_batch: int = 2048
    timeout_ms: float = 5.0

    def __post_init__(self) -> None:
        _check_max_batch(self.max_batch)
        # finite, so a non-empty queue always has a finite dispatch time
        if not 0 <= self.timeout_ms < math.inf:
            raise ValueError(
                f"timeout_ms must be a finite number >= 0, "
                f"got {self.timeout_ms!r}"
            )

    @property
    def label(self) -> str:
        return f"fixed(max={self.max_batch},timeout={self.timeout_ms:g}ms)"


@dataclass(frozen=True)
class ContinuousBatching:
    """Continuous (in-flight) batch formation with SLA-adaptive sizing.

    The batcher dispatches whenever the GPU is free and at least one
    query waits; the batch is whatever has arrived by dispatch time
    (capped at ``max_batch``), so queries join the forming batch right
    up to launch instead of waiting out a timeout.

    With ``sla_ms`` set, the batch size adapts to SLA pressure: the
    batcher picks the largest batch whose execution still lands the
    *oldest* queued query inside the SLA (larger batches amortize
    better but add execution time every rider pays).  Once the oldest
    query is past saving the batcher stops protecting it and drains at
    full width, maximizing goodput of the queries behind it.
    """

    max_batch: int = 2048
    sla_ms: float | None = None

    def __post_init__(self) -> None:
        _check_max_batch(self.max_batch)
        check_sla(self.sla_ms)

    @property
    def label(self) -> str:
        sla = f",sla={self.sla_ms:g}ms" if self.sla_ms is not None else ""
        return f"continuous(max={self.max_batch}{sla})"


class ReportSlaMixin:
    """Shared SLA check over a report's ``p50_ms``/``p95_ms``/``p99_ms``.

    One implementation for every report class (serving, stream, fleet)
    so the percentile-name validation can never drift between them.
    """

    def meets_sla(self, sla_ms: float, percentile: str = "p99") -> bool:
        field = resolve_percentile_field(sla_ms, percentile)
        return getattr(self, field) <= sla_ms


@dataclass(frozen=True)
class ServingReport(ReportSlaMixin):
    """Latency distribution of one simulated serving run."""

    scheme_name: str
    qps: float
    n_queries: int
    p50_ms: float
    p95_ms: float
    p99_ms: float
    mean_batch_size: float
    gpu_utilization: float


@dataclass(frozen=True)
class PhaseStats:
    """Latency/goodput breakdown of one scenario phase.

    ``goodput_qps`` counts queries that completed within the SLA per
    second of phase wall time; with no SLA given every completion
    counts.  ``hit_rate`` is the phase's HBM-cache hit rate when the
    workload is served from a tiered embedding store (None otherwise) —
    this is how popularity-drift scenarios surface cache decay and
    refresh recovery per phase.
    """

    phase: str
    n_queries: int
    p50_ms: float
    p95_ms: float
    p99_ms: float
    goodput_qps: float
    sla_hit_pct: float
    hit_rate: float | None = None


def latency_tails(latencies_ms: np.ndarray) -> tuple[float, float, float]:
    """(p50, p95, p99) of per-query latencies, from one percentile call:
    the same bits as three separate calls, at a third of the cost."""
    p50, p95, p99 = np.percentile(latencies_ms, (50, 95, 99)).tolist()
    return p50, p95, p99


def phase_breakdown(
    latencies_ms: np.ndarray,
    phase_ids: np.ndarray,
    phase_names: Sequence[str],
    phase_durations: Sequence[float],
    sla_ms: float | None,
    *,
    phase_hit_rates: Sequence[float] | None = None,
) -> tuple[PhaseStats, ...]:
    """Per-phase tails and goodput over per-query latencies.

    Shared by the single-GPU stream server and the routed fleet so the
    two per-phase reports can never drift apart.  Phases with no
    queries are omitted.  ``phase_hit_rates`` (indexed like
    ``phase_names``) attaches memstore HBM hit rates to the phases; each
    must be in [0, 1].
    """
    if phase_hit_rates is not None:
        if len(phase_hit_rates) != len(phase_names):
            raise ValueError(
                f"{len(phase_hit_rates)} hit rates for "
                f"{len(phase_names)} phases"
            )
        for name, rate in zip(phase_names, phase_hit_rates):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(
                    f"phase {name!r}: hit rate must be in [0, 1], "
                    f"got {rate!r}"
                )
    within = (
        latencies_ms <= sla_ms if sla_ms is not None
        else np.ones(len(latencies_ms), dtype=bool)
    )
    stats = []
    for pid, (name, span) in enumerate(zip(phase_names, phase_durations)):
        mask = phase_ids == pid
        count = int(mask.sum())
        if count == 0:
            continue
        p50, p95, p99 = latency_tails(latencies_ms[mask])
        good = int(within[mask].sum())
        stats.append(PhaseStats(
            phase=name,
            n_queries=count,
            p50_ms=p50,
            p95_ms=p95,
            p99_ms=p99,
            goodput_qps=good / span if span > 0 else 0.0,
            sla_hit_pct=100.0 * good / count,
            hit_rate=(
                float(phase_hit_rates[pid])
                if phase_hit_rates is not None else None
            ),
        ))
    return tuple(stats)


def find_phase(
    phases: Sequence[PhaseStats], name: str
) -> PhaseStats:
    """Look up one phase's stats by name (shared report helper)."""
    for stats in phases:
        if stats.phase == name:
            return stats
    known = ", ".join(p.phase for p in phases)
    raise KeyError(f"no phase {name!r}; known: {known}")


@dataclass(frozen=True)
class StreamReport(ReportSlaMixin):
    """One serving run over an arrival stream, with per-phase detail.

    ``hit_rate`` is the query-weighted HBM-cache hit rate across phases
    when the run was served from a tiered embedding store.
    """

    scenario: str
    scheme_name: str
    batcher: str
    sla_ms: float | None
    n_queries: int
    duration_s: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    goodput_qps: float
    sla_hit_pct: float
    mean_batch_size: float
    gpu_utilization: float
    phases: tuple[PhaseStats, ...]
    hit_rate: float | None = None

    @property
    def offered_qps(self) -> float:
        return self.n_queries / self.duration_s if self.duration_s else 0.0

    def phase(self, name: str) -> PhaseStats:
        return find_phase(self.phases, name)


def interpolated_latency_model(
    batch_sizes: Sequence[int], latencies_ms: Sequence[float]
) -> LatencyCurve:
    """Piecewise-linear batch-latency curve from measured points."""
    return LatencyCurve.from_points(batch_sizes, latencies_ms)


# ----------------------------------------------------------------------
# the batching rule and the one event loop
# ----------------------------------------------------------------------
def _adaptive_batch(
    ms: Sequence[float],
    times: Sequence[float],
    head: int,
    waiting: int,
    start: float,
    sla_ms: float,
) -> int:
    """Goodput-greedy batch sizing under SLA pressure, over the
    ``waiting`` oldest queued queries ``times[head:head + waiting]``;
    ``ms`` is the latency table, ``ms[b]`` for a batch of ``b``.

    Among candidate batch sizes, pick the one completing the most
    queries *within the SLA* per second of GPU time; ties go to the
    larger batch (throughput).  The candidate ladder is geometric plus
    the two SLA-shaped sweet spots — the largest batch whose execution
    alone fits the SLA, and the largest whose execution fits the oldest
    query's remaining slack.  Under light pressure this degenerates to
    "take everything"; once the whole queue is past saving every
    candidate scores zero and the tie-break drains at full width, which
    maximizes goodput of the queries arriving behind the backlog.
    """
    if waiting <= 1:
        return waiting
    candidates = set()
    size = waiting
    while size >= 1:
        candidates.add(size)
        size //= 2
    slack_ms = sla_ms - (start - times[head]) * 1e3
    for budget in (sla_ms, slack_ms):
        # the largest batch in 1..waiting whose latency fits the budget
        # (0 if none): one search, as the validated table never drops
        fit = bisect_right(ms, budget, 1, waiting + 1) - 1
        if fit:
            candidates.add(fit)
    best_size, best_key = waiting, (-1.0, -1.0)
    for size in sorted(candidates):
        exec_batch_ms = ms[size]
        cutoff = start + (exec_batch_ms - sla_ms) / 1e3
        hits = size - (bisect_left(times, cutoff, head, head + size) - head)
        # primary: in-SLA completions per GPU-millisecond; secondary:
        # raw throughput, which is what matters once nothing can be
        # saved and the backlog just needs to drain fastest
        key = (hits / exec_batch_ms, size / exec_batch_ms)
        if key > best_key:
            best_key, best_size = key, size
    return best_size


def batch_rule(
    policy: BatchingPolicy | ContinuousBatching,
) -> Callable[[Sequence[float], int, float, Sequence[float]],
              tuple[float, int]]:
    """The batching rule, chosen once per batcher and shared by every
    GPU timeline: ``decide(times, head, gpu_free, ms)`` is the
    (dispatch time, size) of the next batch off the time-sorted queue
    ``times[head:]``, given when the GPU frees and its latency table
    ``ms`` (indexed by batch size; only SLA-adaptive sizing reads it,
    and only when more than one query waits).

    An arrival at exactly the dispatch instant joins the batch.  Only
    queries that arrived by the dispatch time matter, so a caller that
    learns arrivals one by one may commit the decision once an arrival
    lands strictly later, as :meth:`_Timeline.advance` does.  Between
    commits such a caller need not re-decide on every arrival:
    :func:`join_rule` keeps the dispatch time current in O(1).
    """
    # the decisions take max and min as branches: the same values (ties
    # keep the first argument, as max and min do), without the calls
    max_batch = policy.max_batch
    if isinstance(policy, ContinuousBatching):
        sla_ms = policy.sla_ms

        def decide(times: Sequence[float], head: int, gpu_free: float,
                   ms: Sequence[float]) -> tuple[float, int]:
            first = times[head]
            start = first if first > gpu_free else gpu_free
            waiting = bisect_right(times, start, head) - head
            if waiting > max_batch:
                waiting = max_batch
            if sla_ms is None or waiting <= 1:
                return start, waiting
            return start, _adaptive_batch(
                ms, times, head, waiting, start, sla_ms
            )
        return decide
    timeout_s = policy.timeout_ms / 1e3

    def decide(times: Sequence[float], head: int, gpu_free: float,
               ms: Sequence[float]) -> tuple[float, int]:
        # size-or-timeout: the batch closes when full, or at
        # max(oldest + timeout, gpu_free) — arrivals during the GPU's
        # busy period keep joining, exactly as a host-side queue would
        threshold = times[head] + timeout_s
        if gpu_free > threshold:
            threshold = gpu_free
        waiting = bisect_right(times, threshold, head) - head
        if waiting >= max_batch:
            # the batch fills when its last member arrives
            full_at = times[head + max_batch - 1]
            return (gpu_free if gpu_free > full_at else full_at), max_batch
        return threshold, waiting
    return decide


def join_rule(
    policy: BatchingPolicy | ContinuousBatching,
) -> Callable[[float, int, float, float], float]:
    """The batcher's join rule, chosen once per batcher:
    ``join(due, depth, now, gpu_free)`` is the pending batch's dispatch
    time after an arrival at ``now`` is queued.

    For a caller that learns time-sorted arrivals one by one and, before
    queueing each, advances the GPU's timeline to it (as the fleet
    router does): ``due`` is the pending dispatch time before the
    arrival (inf while the queue is empty), ``depth`` the queue length
    including the arrival and ``gpu_free`` when the GPU frees from the
    committed batches.  The result is the dispatch time
    :func:`batch_rule`'s ``decide`` computes on the grown queue, bit for
    bit.  Every queued arrival has joined the pending batch or, once
    that batch is full, waits behind it, so:

    * an arrival into an empty queue starts a fresh decision:
      ``max(now + timeout_ms / 1e3, gpu_free)``, or ``max(now, gpu_free)``
      when ``max_batch == 1`` (size-or-timeout); ``max(gpu_free, now)``
      (continuous);
    * size-or-timeout moves ``due`` only when the arrival fills the
      batch, to ``max(now, gpu_free)``;
    * continuous batching never moves it; its size, SLA-adaptive sizing
      included, is decided when the batch commits.

    The batchers reject a non-finite timeout, so a non-empty queue
    always has a finite ``due``.
    """
    if isinstance(policy, ContinuousBatching):
        def join(due: float, depth: int, now: float,
                 gpu_free: float) -> float:
            return max(gpu_free, now) if depth == 1 else due
        return join
    max_batch = policy.max_batch
    timeout_s = policy.timeout_ms / 1e3

    def join(due: float, depth: int, now: float, gpu_free: float) -> float:
        if depth == max_batch:
            return max(now, gpu_free)
        if depth == 1:
            return max(now + timeout_s, gpu_free)
        return due
    return join


class _Timeline:
    """One GPU's serving event loop: its queue, its batcher's rule, its
    clock and the batches it has committed.

    The queue is the time-sorted arrival times ``times`` and their phase
    ids ``phase_ids`` from ``head`` on; dispatched queries stay in the
    lists as the batch members.  ``phase_ms[p]`` is phase ``p``'s latency
    table as a list, indexed by batch size and covering
    ``1..policy.max_batch``; a batch's execution time comes from the
    table of its oldest query's phase (phases are long relative to
    batches, so mixed batches are rare and the approximation is
    second-order).  Every batch is decided by the batcher's
    :func:`batch_rule`, chosen once.
    """

    __slots__ = (
        "times", "phase_ids", "phase_ms", "decide", "head", "gpu_free",
        "batch_starts", "batch_exec", "batch_sizes",
    )

    def __init__(
        self,
        phase_ms: Sequence[Sequence[float]],
        policy: BatchingPolicy | ContinuousBatching,
    ) -> None:
        self.phase_ms = phase_ms
        self.decide = batch_rule(policy)
        self.times: list[float] = []
        self.phase_ids: list[int] = []
        self.head = 0
        self.gpu_free = 0.0
        self.batch_starts: list[float] = []
        self.batch_exec: list[float] = []
        self.batch_sizes: list[int] = []

    def advance(self, until: float) -> float:
        """Commit, in dispatch order, every batch that starts strictly
        before ``until``; return the pending dispatch time (inf once the
        queue is empty).  A caller that queues arrivals one by one
        advances to each before queueing it: no later arrival can join
        a batch that starts before it."""
        times = self.times
        phase_ids = self.phase_ids
        phase_ms = self.phase_ms
        decide = self.decide
        batch_starts = self.batch_starts
        batch_exec = self.batch_exec
        batch_sizes = self.batch_sizes
        gpu_free = self.gpu_free
        head = self.head
        n = len(times)
        while head < n:
            ms = phase_ms[phase_ids[head]]
            start, size = decide(times, head, gpu_free, ms)
            if start >= until:
                break
            exec_s = ms[size] / 1e3
            gpu_free = start + exec_s
            batch_starts.append(start)
            batch_exec.append(exec_s)
            batch_sizes.append(size)
            head += size
        else:
            start = math.inf  # the queue is empty
        self.gpu_free = gpu_free
        self.head = head
        return start

    def to_block(self, phases: tuple[str, ...]) -> BatchBlock:
        """The committed batches as a telemetry column block."""
        return BatchBlock(
            starts=np.asarray(self.batch_starts, dtype=float),
            exec_s=np.asarray(self.batch_exec, dtype=float),
            sizes=np.asarray(self.batch_sizes, dtype=np.int64),
            phases=phases,
        )


def _serve_arrays(
    times: np.ndarray,
    phase_ids: np.ndarray,
    curves: Sequence[LatencyCurve],
    policy: BatchingPolicy | ContinuousBatching,
    phases: tuple[str, ...],
) -> BatchBlock:
    """Serve time-sorted arrivals on one GPU: one :class:`_Timeline`
    holding the whole stream, advanced until its queue is empty.

    Returns the run's batch block: start times (seconds), execution
    seconds and sizes, in dispatch order.  Everything the reports
    carry (per-query latencies, busy time, utilization) derives from
    these columns via the pure folds below, which is what lets a
    recorded run replay field-identical without re-running this loop.
    ``curves`` holds one curve per phase, each covering
    ``1..policy.max_batch``; each distinct curve's table is converted
    to a list once per run.
    """
    width = policy.max_batch + 1
    tables: dict[int, list[float]] = {}
    for curve in curves:
        if id(curve) not in tables:
            tables[id(curve)] = curve.ms[:width].tolist()
    timeline = _Timeline([tables[id(curve)] for curve in curves], policy)
    timeline.times = times.tolist()
    timeline.phase_ids = phase_ids.tolist()
    timeline.advance(math.inf)
    return timeline.to_block(phases)


def _batch_latencies_ms(
    arrivals: ArrivalBlock, batches: BatchBlock
) -> tuple[np.ndarray, float]:
    """Shared fold core: (per-query latencies ms, gpu-idle-at s).

    ``done_at`` assigns each query its batch's completion time by
    repeating ``starts + exec_s`` per batch size — the identical IEEE
    operations the live loop performed, so the bits match.
    """
    done = batches.starts + batches.exec_s
    done_at = np.repeat(done, batches.sizes)
    latencies_ms = (done_at - arrivals.times) * 1e3
    gpu_free = float(done[-1]) if len(done) else 0.0
    return latencies_ms, gpu_free


def _busy_s(batches: BatchBlock) -> float:
    """GPU-busy seconds of a batch block: a sequential left-fold over
    ``exec_s`` (numpy's pairwise sum would differ in the last ulps from
    the recorded reports)."""
    return float(sum(batches.exec_s.tolist()))


def _resolve_phase_models(
    latency_ms: LatencyModel | Sequence[LatencyModel]
                | Mapping[str, LatencyModel],
    phases: Sequence[str],
    max_batch: int,
    seen: dict | None = None,
) -> list[LatencyCurve]:
    """One validated table per phase, covering ``1..max_batch``, from a
    single curve, a sequence (indexed like ``phases``), or a mapping by
    phase name; a plain callable is tabulated once however many phases
    share it (see :func:`repro.core.curve.as_curve` for ``seen``)."""
    if callable(latency_ms):
        models = [latency_ms] * len(phases)
    elif isinstance(latency_ms, Mapping):
        missing = [p for p in phases if p not in latency_ms]
        if missing:
            raise KeyError(f"no latency model for phases {missing}")
        models = [latency_ms[p] for p in phases]
    else:
        models = list(latency_ms)
        if len(models) != len(phases):
            raise ValueError(
                f"{len(models)} latency models for {len(phases)} phases"
            )
    seen = {} if seen is None else seen
    return [as_curve(m, max_batch, seen) for m in models]


def check_arrivals(times: np.ndarray, stream: str) -> None:
    """Reject arrival times that are not finite and non-decreasing.

    Every event loop assumes time-sorted arrivals; an unsorted or NaN
    stream would otherwise come back as wrong (even negative or NaN)
    latencies instead of an error.
    """
    bad = np.flatnonzero(~np.isfinite(times))
    if len(bad):
        i = int(bad[0])
        raise ValueError(
            f"arrival stream {stream!r}: time at index {i} is "
            f"{float(times[i])!r}, not a finite number of seconds"
        )
    drops = np.flatnonzero(times[1:] < times[:-1])
    if len(drops):
        i = int(drops[0]) + 1
        raise ValueError(
            f"arrival stream {stream!r} is not sorted: index {i} arrives "
            f"at {float(times[i])!r} s, before index {i - 1} at "
            f"{float(times[i - 1])!r} s"
        )


def check_stream(stream) -> tuple[np.ndarray, np.ndarray]:
    """(arrival times, phase ids) of a stream that every serving entry
    point accepts: non-empty, ``duration_s > 0``, arrivals passing
    :func:`check_arrivals`, and one integer phase id per arrival, each
    indexing ``stream.phases`` (any other id would pick the wrong curve
    and drop out of the per-phase stats)."""
    name = stream.name
    times = np.asarray(stream.times, dtype=float)
    if len(times) == 0:
        raise ValueError(f"arrival stream {name!r} is empty")
    if not stream.duration_s > 0:
        raise ValueError(
            f"arrival stream {name!r} needs a positive duration_s, "
            f"got {stream.duration_s!r}"
        )
    check_arrivals(times, name)
    phase_ids = np.asarray(stream.phase_ids)
    if len(phase_ids) != len(times):
        raise ValueError(
            f"arrival stream {name!r} has {len(phase_ids)} phase ids "
            f"for {len(times)} arrivals"
        )
    if not np.issubdtype(phase_ids.dtype, np.integer):
        raise ValueError(
            f"arrival stream {name!r}: phase ids must be integers, "
            f"got {phase_ids.dtype}"
        )
    n_phases = len(stream.phases)
    bad = np.flatnonzero((phase_ids < 0) | (phase_ids >= n_phases))
    if len(bad):
        i = int(bad[0])
        raise ValueError(
            f"arrival stream {name!r}: phase id at index {i} is "
            f"{int(phase_ids[i])}, outside its {n_phases} phases "
            f"0..{n_phases - 1}"
        )
    return times, phase_ids


def poisson_arrivals(qps: float, duration_s: float, seed: int) -> np.ndarray:
    """``max(1, int(qps * duration_s))`` seeded Poisson arrival times.

    ``qps`` and ``duration_s`` must be finite and > 0: a zero or
    negative duration would otherwise come back as a one-query run, and
    NaN or inf would fail deep inside the sampler.
    """
    for field, value in (("qps", qps), ("duration_s", duration_s)):
        if not 0 < value < math.inf:
            raise ValueError(
                f"{field} must be a finite number > 0, got {value!r}"
            )
    rng = np.random.default_rng(seed)
    n = max(1, int(qps * duration_s))
    return np.cumsum(rng.exponential(1.0 / qps, size=n))


def _default_policy(
    policy: BatchingPolicy | ContinuousBatching | None,
    sla_ms: float | None,
) -> BatchingPolicy | ContinuousBatching:
    """A stream's batcher: ``policy``, else SLA-adaptive continuous."""
    return ContinuousBatching(sla_ms=sla_ms) if policy is None else policy


def fold_stream_report(run: StreamRun) -> StreamReport:
    """Pure fold: a recorded :class:`StreamRun` into its report.

    The live :func:`serve_stream` and the replay decoder both derive
    their reports through this one function, so a recorded run replays
    field-identical by construction — no simulator in sight.
    """
    meta = run.meta
    times = run.arrivals.times
    phase_ids = np.asarray(run.arrivals.phase_ids)
    phases = tuple(meta["phases"])
    sla_ms = meta["sla_ms"]
    duration_s = meta["duration_s"]
    hit_rates = meta.get("phase_hit_rates")
    latencies_ms, gpu_free = _batch_latencies_ms(run.arrivals, run.batches)
    within = (
        latencies_ms <= sla_ms if sla_ms is not None
        else np.ones(len(times), dtype=bool)
    )
    phase_stats = phase_breakdown(
        latencies_ms, phase_ids, phases,
        tuple(meta["phase_durations"]), sla_ms,
        phase_hit_rates=hit_rates,
    )
    hit_rate = None
    if hit_rates is not None:
        # the stream is non-empty (serve_stream checked), counts >= 1
        counts = np.bincount(phase_ids, minlength=len(phases))
        rates = np.asarray(hit_rates, dtype=float)
        hit_rate = float((rates * counts).sum() / counts.sum())
    horizon = max(gpu_free, float(times[-1]), duration_s)
    p50, p95, p99 = latency_tails(latencies_ms)
    return StreamReport(
        scenario=meta["scenario"],
        scheme_name=meta["scheme_name"],
        batcher=meta["batcher"],
        sla_ms=sla_ms,
        n_queries=len(times),
        duration_s=duration_s,
        p50_ms=p50,
        p95_ms=p95,
        p99_ms=p99,
        goodput_qps=float(within.sum()) / duration_s,
        sla_hit_pct=100.0 * float(within.sum()) / len(times),
        mean_batch_size=float(np.mean(run.batches.sizes)),
        gpu_utilization=(
            _busy_s(run.batches) / horizon if horizon > 0 else 0.0
        ),
        phases=phase_stats,
        hit_rate=hit_rate,
    )


def build_serving_report(
    name: str,
    qps: float,
    batches: BatchBlock,
    latencies_ms: np.ndarray,
    horizon: float,
) -> ServingReport:
    """The :class:`ServingReport` of one GPU timeline: its batch block,
    the latencies of the queries it served, and the horizon (seconds)
    its utilization is measured over.

    Both the Poisson fold (the scheme name and the offered qps) and a
    fleet's per-replica rows (the replica name and the queries it
    served per second of horizon) build their reports here.  A timeline
    that served nothing reports zero tails and batch size.
    """
    served = len(latencies_ms)
    p50, p95, p99 = latency_tails(latencies_ms) if served else (0.0, 0.0, 0.0)
    return ServingReport(
        scheme_name=name,
        qps=qps,
        n_queries=served,
        p50_ms=p50,
        p95_ms=p95,
        p99_ms=p99,
        mean_batch_size=float(np.mean(batches.sizes)) if len(batches) else 0.0,
        gpu_utilization=_busy_s(batches) / horizon if horizon > 0 else 0.0,
    )


def fold_serving_report(run: StreamRun) -> ServingReport:
    """Pure fold: a recorded Poisson run (``kind="serving"``) into its
    :class:`ServingReport`; shared by live simulation and replay.  The
    utilization horizon is ``max(gpu_free, last arrival)``."""
    latencies_ms, gpu_free = _batch_latencies_ms(run.arrivals, run.batches)
    return build_serving_report(
        run.meta["scheme_name"], run.meta["qps"], run.batches, latencies_ms,
        max(gpu_free, float(run.arrivals.times[-1])),
    )


def serve_stream(
    latency_ms: LatencyModel | Sequence[LatencyModel]
                | Mapping[str, LatencyModel],
    stream,
    *,
    policy: BatchingPolicy | ContinuousBatching | None = None,
    sla_ms: float | None = None,
    scheme_name: str = "scheme",
    phase_hit_rates: Sequence[float] | None = None,
    sink: Sink | None = None,
) -> StreamReport:
    """Serve one arrival stream on one GPU and report per-phase tails.

    ``stream`` is any object with the :class:`repro.traffic.ScenarioTrace`
    shape: ``name``, time-sorted ``times`` (seconds), ``phase_ids``,
    ``phases`` (names), ``phase_durations`` and ``duration_s``.  The
    default policy is :class:`ContinuousBatching` with its batch sizing
    adapted to ``sla_ms``.  ``phase_hit_rates`` (one HBM-cache hit rate
    per phase, from a tiered memstore calibration) is threaded into the
    per-phase stats and aggregated query-weighted into the report.
    Phases sharing one plain callable tabulate it once.

    The run's telemetry (arrival/batch blocks bracketed by
    ``run_start``/``run_end``) goes to ``sink``, falling back to the
    ambient default (:func:`repro.telemetry.sinks.use_sink`); with no
    sink installed nothing is emitted.  The report is
    :func:`fold_stream_report` of that run.
    """
    times, phase_ids = check_stream(stream)
    check_sla(sla_ms)
    policy = _default_policy(policy, sla_ms)
    curves = _resolve_phase_models(
        latency_ms, stream.phases, policy.max_batch
    )
    phases = tuple(stream.phases)
    run = StreamRun(
        meta={
            "kind": "stream",
            "scenario": stream.name,
            "scheme_name": scheme_name,
            "batcher": policy.label,
            "sla_ms": sla_ms,
            "duration_s": stream.duration_s,
            "phases": list(phases),
            "phase_durations": [float(d) for d in stream.phase_durations],
            "phase_hit_rates": (
                None if phase_hit_rates is None
                else [float(r) for r in phase_hit_rates]
            ),
        },
        arrivals=ArrivalBlock(
            times=times,
            phase_ids=np.asarray(phase_ids, dtype=np.int64),
            phases=phases,
        ),
        batches=_serve_arrays(times, phase_ids, curves, policy, phases),
    )
    report = fold_stream_report(run)
    emit_run(sink, run)
    return report


def serve_tenant_streams(
    latency_models: Mapping[str, LatencyModel | Sequence[LatencyModel]
                            | Mapping[str, LatencyModel]],
    streams: Mapping[str, object],
    *,
    policies: Mapping[str, BatchingPolicy | ContinuousBatching]
              | None = None,
    sla_ms: Mapping[str, float | None] | float | None = None,
    scheme_names: Mapping[str, str] | None = None,
    phase_hit_rates: Mapping[str, Sequence[float]] | None = None,
    sink: Sink | None = None,
) -> dict[str, StreamReport]:
    """Serve several tenants' arrival streams, one report per tenant.

    Each tenant runs on its own (virtual) GPU timeline — the MPS-style
    concurrency model, where co-resident kernels execute simultaneously
    and contention arrives through the latency curves themselves (see
    :mod:`repro.tenancy.share`), not through queueing behind each
    other.  Every per-tenant argument is keyed by tenant name;
    ``sla_ms`` may also be a single number shared by all tenants.
    Each tenant is served by :func:`serve_stream` itself, so its report
    is the one a direct call returns; its run record is the one that
    call emits, with ``meta["tenant"]`` appended as the last key, and
    goes to ``sink`` (or the ambient default).  Tenants sharing one
    plain callable each tabulate it: resolve tables first (as
    :mod:`repro.tenancy.share` does) to tabulate it once.
    """
    missing = sorted(set(streams) - set(latency_models))
    if missing:
        raise KeyError(f"no latency model for tenants {missing}")
    reports: dict[str, StreamReport] = {}
    for name in streams:
        capture = CaptureSink()
        reports[name] = serve_stream(
            latency_models[name],
            streams[name],
            policy=policies.get(name) if policies else None,
            sla_ms=(
                sla_ms.get(name) if isinstance(sla_ms, Mapping) else sla_ms
            ),
            scheme_name=(
                scheme_names.get(name, name) if scheme_names else name
            ),
            phase_hit_rates=(
                phase_hit_rates.get(name) if phase_hit_rates else None
            ),
            sink=capture,
        )
        (run,) = capture.runs
        run.meta["tenant"] = name
        emit_run(sink, run)
    return reports


def simulate_serving(
    batch_latency_ms: LatencyModel,
    *,
    qps: float,
    duration_s: float = 10.0,
    policy: BatchingPolicy | ContinuousBatching | None = None,
    scheme_name: str = "scheme",
    seed: int = 0,
    sink: Sink | None = None,
) -> ServingReport:
    """Discrete-event simulation of one GPU serving a Poisson stream.

    Queries arrive at ``qps`` and are batched by ``policy`` — the
    size-or-timeout :class:`BatchingPolicy` by default, or
    :class:`ContinuousBatching` — onto a GPU that serves batches back to
    back.  Query latency = queueing + batching wait + batch execution.
    Non-stationary arrival processes go through :func:`serve_stream`
    with a :mod:`repro.traffic` scenario instead.  The run's telemetry
    goes to ``sink`` (or the ambient default).
    """
    arrivals = poisson_arrivals(qps, duration_s, seed)
    policy = policy or BatchingPolicy()
    curve = as_curve(batch_latency_ms, policy.max_batch)
    phase_ids = np.zeros(len(arrivals), dtype=np.int64)
    run = StreamRun(
        meta={
            "kind": "serving",
            "scheme_name": scheme_name,
            "qps": qps,
            "seed": seed,
            "batcher": policy.label,
        },
        arrivals=ArrivalBlock(
            times=arrivals, phase_ids=phase_ids, phases=("all",)
        ),
        batches=_serve_arrays(arrivals, phase_ids, [curve], policy,
                              ("all",)),
    )
    report = fold_serving_report(run)
    emit_run(sink, run)
    return report


def max_sustainable_qps(
    batch_latency_ms: LatencyModel,
    *,
    sla_ms: float,
    percentile: str = "p99",
    qps_grid: Sequence[float] = (500, 1000, 2000, 4000, 8000, 16000,
                                 32000, 64000),
    policy: BatchingPolicy | ContinuousBatching | None = None,
    scheme_name: str = "scheme",
    seed: int = 0,
) -> tuple[float, list[ServingReport]]:
    """Largest grid point whose tail latency meets the SLA."""
    resolve_percentile_field(sla_ms, percentile)
    policy = policy or BatchingPolicy()
    batch_latency_ms = as_curve(batch_latency_ms, policy.max_batch)
    best = 0.0
    reports = []
    for qps in qps_grid:
        report = simulate_serving(
            batch_latency_ms, qps=qps, policy=policy,
            scheme_name=scheme_name, seed=seed,
        )
        reports.append(report)
        if report.meets_sla(sla_ms, percentile):
            best = max(best, qps)
    return best, reports
