"""Pieces the three workloads share: the workload interface, metric-name
slugs, per-pass span folds, the record->replay round trip and
run-record folds."""

from __future__ import annotations

import io
import statistics
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from perfbench.checks import Ledger, check_run
from perfbench.tracer import Span, Tracer

from repro import RecorderSink
from repro.telemetry.replay import load_runs, replay_report


def slug(name: str) -> str:
    """Scheme or policy name as used inside metric names:
    ``RPF+L2P+OptMT`` -> ``rpf-l2p-optmt``."""
    return name.lower().replace("+", "-")


def median_of(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def span_seconds(spans: Iterable[Span]) -> float:
    return sum(s.duration_ns for s in spans) / 1e9


def per_pass(tracer: Tracer, pass_ids: Sequence[str],
             fold: Callable[[list[Span]], float]) -> float:
    """Median over the traced passes (or setups) of ``fold(spans)``."""
    return median_of(fold(tracer.of_pass(p)) for p in pass_ids)


def named(spans: Iterable[Span], name: str, **attrs: Any) -> list[Span]:
    return [s for s in spans if s.name == name
            and all(s.attrs.get(k) == v for k, v in attrs.items())]


def span_s(tracer: Tracer, pass_ids: Sequence[str], name: str,
           **attrs: Any) -> float:
    """Median over ``pass_ids`` of the summed time of the spans ``name``."""
    return per_pass(tracer, pass_ids,
                    lambda spans: span_seconds(named(spans, name, **attrs)))


def curve_metrics(tracer: Tracer, passes: Sequence[str],
                  batches: int) -> dict[str, float]:
    """Per-pass latency-curve call count and time, and calls per batch."""
    calls = per_pass(tracer, passes,
                     lambda spans: sum(s.leaf_calls for s in spans))
    return {
        "curve.calls": calls,
        "curve.s": per_pass(
            tracer, passes, lambda spans: sum(s.leaf_ns for s in spans) / 1e9),
        "curve.calls_per_batch": calls / batches,
    }


@dataclass
class Recorded:
    """One serving call recorded into memory, loaded back and replayed;
    ``None`` fields mark the step that raised."""

    report: Any
    runs: list | None
    replayed: Any
    record_bytes: int


def record_and_replay(tracer: Tracer, ledger: Ledger, what: str,
                      span: str, attrs: dict[str, Any],
                      call: Callable[[RecorderSink], Any]) -> Recorded:
    """``call(sink)`` under span ``span`` with an in-memory recorder as
    its sink, then ``load_runs`` + ``replay_report`` on what it wrote."""
    buffer = io.StringIO()
    recorder = RecorderSink(buffer)
    with tracer.span(span, **attrs):
        report = ledger.call(what, call, recorder)
    recorder.close()
    text = buffer.getvalue()
    replayed = None
    with tracer.span("telemetry.replay", **attrs):
        runs = ledger.call(f"{what} record load", load_runs,
                           io.StringIO(text))
        if runs:
            replayed = ledger.call(f"{what} replay", replay_report, runs[0])
    return Recorded(report, runs, replayed, len(text))


def check_recorded(ledger: Ledger, what: str, rec: Recorded):
    """The round trip's output checks; returns the run record, or
    ``None`` when the call or its replay raised."""
    if rec.report is None or not rec.runs or rec.replayed is None:
        return None
    ledger.check(f"{what} record holds one run", len(rec.runs) == 1)
    run = rec.runs[0]
    ledger.check(f"{what} run record invariants", check_run(run))
    ledger.check(f"{what} replay equals live", rec.replayed == rec.report)
    return run


def queue_wait_p99_ms(run) -> float:
    """p99 of the time queries wait between arrival and batch start."""
    replicas = getattr(run, "replicas", None)
    blocks = [run.batches] if replicas is None else replicas
    waits = []
    for block in blocks:
        if replicas is None:
            members = np.asarray(run.arrivals.times, dtype=float)
        else:
            members = np.asarray(block.members()[0], dtype=float)
        waits.append(np.repeat(block.starts, block.sizes) - members)
    return float(np.percentile(np.concatenate(waits), 99) * 1e3)


def n_batches(run) -> int:
    """Batches dispatched in a run record, over every child and replica."""
    children = getattr(run, "children", None)
    if children is not None:
        return sum(n_batches(child) for child in children.values())
    replicas = getattr(run, "replicas", None)
    blocks = [run.batches] if replicas is None else replicas
    return sum(len(block) for block in blocks)


class Workload:
    """One benchmark workload.

    ``setup`` builds every input from the seed (it is repeated, each time
    from scratch, to time set-up); ``run_pass`` is the timed unit of work
    and returns what ``check_pass`` validates once the clock has stopped.
    ``check_pass`` returns the pass's simulated outputs, which must be
    identical on every pass of a run.
    """

    name = ""

    def __init__(self, seed: int, ledger: Ledger, toy: bool = False) -> None:
        self.seed = seed
        self.ledger = ledger
        self.toy = toy

    def setup(self, tracer: Tracer) -> None:
        raise NotImplementedError

    def run_pass(self, tracer: Tracer) -> Any:
        raise NotImplementedError

    def check_pass(self, out: Any) -> dict[str, float]:
        raise NotImplementedError

    def e2e_sim(self, sim: dict[str, float]) -> dict[str, float]:
        """``sim_latency_ms`` and ``sim_goodput_qps``."""
        raise NotImplementedError

    def layer_metrics(self, tracer: Tracer, passes: Sequence[str],
                      setups: Sequence[str],
                      sim: dict[str, float]) -> dict[str, float]:
        raise NotImplementedError
