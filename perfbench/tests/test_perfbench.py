"""The benchmark's own tests: the self-time fold, the run-record checker,
the metric catalogue against ``BENCHMARK.json``, and a toy-size smoke run
of every workload through the real entry point."""

import dataclasses
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import run as bench
from perfbench.checks import Ledger, check_run
from perfbench.tracer import CURVE, Span, layer_table, self_times_ns, union_ns

from repro import (
    A100_SXM4_80GB,
    H100_NVL,
    BatchingPolicy,
    ContinuousBatching,
    FleetSpec,
    RecorderSink,
    StationarySpec,
    generate_arrivals,
    serve_stream,
    simulate_fleet_stream,
)
from repro.telemetry.replay import load_runs

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# self-time fold
# ----------------------------------------------------------------------
def _span(name, start, end, parent=None, leaf_ns=0):
    return Span(name, start, end, parent, "p1", leaf_ns=leaf_ns)


def test_union_counts_overlap_once():
    assert union_ns([]) == 0
    assert union_ns([(0, 10), (20, 30)]) == 20
    assert union_ns([(0, 10), (5, 15), (14, 20)]) == 20
    assert union_ns([(0, 100), (10, 20)]) == 100


def test_self_time_subtracts_union_of_children():
    spans = [
        _span("root", 0, 100),
        _span("a", 10, 40, parent=0),
        _span("b", 30, 60, parent=0),  # overlaps a by 10
        _span("c", 50, 55, parent=2),  # grandchild: not the root's
    ]
    assert self_times_ns(spans) == [50, 30, 25, 5]


def test_self_time_clips_children_and_drops_leaf_time():
    spans = [
        _span("root", 0, 100, leaf_ns=15),
        _span("late", 90, 130, parent=0),  # only 10 of it inside root
    ]
    assert self_times_ns(spans) == [75, 40]


def test_layer_table_ranks_by_self_time_with_curve_row():
    spans = [
        _span("pass", 0, 110),
        _span("serving.loop", 0, 90, parent=0, leaf_ns=60),
        _span("serving.fold", 90, 95, parent=0),
    ]
    spans[1].leaf_calls = 1000
    rows = layer_table(spans)
    assert [r["layer"] for r in rows] == [
        CURVE, "serving.loop", "pass", "serving.fold"]
    assert rows[0]["calls"] == 1000
    assert rows[1]["self_s"] == pytest.approx(30e-9)
    assert sum(r["share_pct"] for r in rows) == pytest.approx(100.0)
    assert layer_table(spans, pass_ids=["other"]) == []


# ----------------------------------------------------------------------
# run-record checker
# ----------------------------------------------------------------------
def _model(batch):
    return 2.0 + 0.01 * batch


def _recorded(simulate):
    buffer = io.StringIO()
    recorder = RecorderSink(buffer)
    simulate(recorder)
    recorder.close()
    (run,) = load_runs(io.StringIO(buffer.getvalue()))
    return run


@pytest.fixture(scope="module")
def stream():
    return generate_arrivals(StationarySpec(base_qps=400.0, duration_s=1.0), 3)


@pytest.mark.parametrize("policy", [
    BatchingPolicy(max_batch=64, timeout_ms=5.0),
    ContinuousBatching(max_batch=64, sla_ms=20.0),
])
def test_checker_accepts_live_stream_runs(stream, policy):
    run = _recorded(lambda sink: serve_stream(
        _model, stream, policy=policy, sink=sink))
    assert check_run(run) == []


def _stream_run(stream):
    return _recorded(lambda sink: serve_stream(
        _model, stream, policy=BatchingPolicy(64, 5.0), sink=sink))


def _with_batches(run, **columns):
    batches = dataclasses.replace(run.batches, **columns)
    return dataclasses.replace(run, batches=batches)


def test_checker_flags_overlapping_batches(stream):
    run = _stream_run(stream)
    starts = run.batches.starts.copy()
    # pull batch 5 back inside batch 4's execution
    starts[5] = starts[4] + run.batches.exec_s[4] / 2
    errors = check_run(_with_batches(run, starts=starts))
    assert any("before the previous one finishes" in e for e in errors)


def test_checker_flags_lost_query(stream):
    run = _stream_run(stream)
    sizes = run.batches.sizes.copy()
    sizes[-1] -= 1
    errors = check_run(_with_batches(run, sizes=sizes))
    assert any("batch sizes sum" in e for e in errors)


def test_checker_flags_batch_before_its_last_member(stream):
    run = _stream_run(stream)
    sizes = run.batches.sizes
    last_member = run.arrivals.times[np.cumsum(sizes) - 1]
    starts = run.batches.starts.copy()
    starts[0] = last_member[0] - 1e-3
    errors = check_run(_with_batches(run, starts=starts))
    assert any("before its last member arrives" in e for e in errors)
    assert any("latency is below" in e for e in errors)


def test_checker_flags_query_lost_between_fleet_replicas(stream):
    models = {A100_SXM4_80GB.name: _model, H100_NVL.name: _model}
    fleet = FleetSpec.mixed({A100_SXM4_80GB: 2, H100_NVL: 2},
                            batching=BatchingPolicy(64, 5.0))
    run = _recorded(lambda sink: simulate_fleet_stream(
        fleet, models, stream, policy="jsq", sla_ms=50.0, sink=sink))
    assert check_run(run) == []
    block = run.replicas[0]
    lost = dataclasses.replace(
        block,
        sizes=np.concatenate([block.sizes[:-1], [block.sizes[-1] - 1]]),
        member_times=block.member_times[:-1],
        member_phases=block.member_phases[:-1],
    )
    broken = dataclasses.replace(run, replicas=[lost, *run.replicas[1:]])
    errors = check_run(broken)
    assert any("do not match" in e for e in errors)


def test_ledger_counts_raises_and_failed_checks():
    ledger = Ledger()
    assert ledger.call("ok", lambda: 3) == 3
    assert ledger.call("boom", lambda: 1 / 0) is None
    assert ledger.check("good", []) and ledger.check("good", True)
    assert not ledger.check("bad", ["broken"])
    assert (ledger.attempted, ledger.failed) == (5, 2)


# ----------------------------------------------------------------------
# catalogue and smoke runs
# ----------------------------------------------------------------------
def _declared(section):
    return [(m["name"], m["unit"]) for m in SPEC[section]]


def test_catalogue_matches_benchmark_json():
    assert _declared("end_to_end") == list(bench.END_TO_END)
    assert _declared("per_layer") == list(bench.PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300, check=False,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_toy_smoke_run(workload, trace):
    done = _run("--workload", workload, "--seed", "0", "--seconds", "0",
                "--trace", trace, "--toy")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, done.stderr
    assert result["attempted"] >= 1
    section = "per_layer" if trace == "1" else "end_to_end"
    printed = [(k, v["unit"]) for k, v in result["metrics"].items()]
    assert printed == _declared(section)
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    done = _run("--workload", "kernel-sweep", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
