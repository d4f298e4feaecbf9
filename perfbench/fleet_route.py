"""fleet-route: one MMPP stream routed over 4xA100 + 4xH100 replicas.

Every replica batches size-or-timeout (``max_batch=2048``,
``timeout_ms=5``) under a 100 ms SLA, as in the ``fleet`` experiment.
Each pass routes the stream under all four policies, recording and
replaying every run.  The per-arrival Python router does the work;
least-latency evaluates two curve points per replica per arrival.
"""

from __future__ import annotations

from typing import Sequence

from perfbench.common import (
    Recorded,
    Workload,
    check_recorded,
    curve_metrics,
    n_batches,
    named,
    per_pass,
    queue_wait_p99_ms,
    record_and_replay,
    slug,
    span_s,
)
from perfbench.tracer import Tracer

from repro import (
    A100_SXM4_80GB,
    H100_NVL,
    HOTNESS_PRESETS,
    PAPER_MODEL,
    ROUTING_POLICIES,
    RPF_L2P_OPTMT,
    BatchingPolicy,
    FleetSpec,
    KernelMemo,
    MMPPSpec,
    SimScale,
    generate_arrivals,
    generate_trace,
    kernel_workload,
    run_table_kernel,
    simulate_fleet_stream,
)
from repro.dlrm.timing import KERNEL_LAUNCH_US
from repro.fleet.capacity import linear_latency_model
from repro.kernels.pinning import pinnable_rows, profile_hot_rows

NUM_SMS = 2
DATASET = "med_hot"
SCHEME = RPF_L2P_OPTMT
SLA_MS = 100.0
REPLICAS_PER_GPU = 4
POLICIES = tuple(ROUTING_POLICIES)
#: the MMPP stream: calm at ``base_qps``, bursts at 3x, with short
#: regimes so one stream holds ~400 calm/burst cycles and its offered
#: load (hence the router's work) varies little from seed to seed
STREAM = dict(base_qps=1800.0, duration_s=4.0, burst_multiplier=3.0,
              mean_calm_s=0.008, mean_burst_s=0.002)
TOY_STREAM = dict(STREAM, base_qps=100.0, duration_s=0.4)


class FleetRoute(Workload):
    name = "fleet-route"

    def setup(self, tracer: Tracer) -> None:
        seed = self.seed
        memo = KernelMemo()
        spec = HOTNESS_PRESETS[DATASET]
        model = PAPER_MODEL
        self.models = {}
        for gpu in (A100_SXM4_80GB, H100_NVL):
            wl = kernel_workload(gpu, model, SimScale(
                name=f"fleet{NUM_SMS}", num_sms=NUM_SMS))
            dims = dict(batch_size=wl.batch_size,
                        pooling_factor=wl.pooling_factor,
                        table_rows=wl.table_rows)
            with tracer.span("datasets.trace", gpu=gpu.name):
                trace = generate_trace(spec, seed=seed, **dims)
            with tracer.span("kernels.pin_profile", gpu=gpu.name):
                hot_rows = profile_hot_rows(
                    spec, k=pinnable_rows(wl.gpu.l2_set_aside_bytes,
                                          wl.row_bytes),
                    seed=seed, **dims,
                )
            with tracer.span("core.table_kernel", gpu=gpu.name):
                kernel_us = run_table_kernel(
                    wl, spec, SCHEME, seed=seed, trace=trace,
                    hot_rows=hot_rows, memo=memo,
                ).kernel_time_us
            # as the fleet experiment: one calibrated embedding-stage
            # point per GPU anchors a linear batch-latency curve
            self.models[gpu.name] = linear_latency_model(
                gpu,
                emb_us=model.num_tables * (kernel_us + KERNEL_LAUNCH_US),
                emb_batch=model.batch_size,
                model=model,
            )
        self.fleet = FleetSpec.mixed(
            {A100_SXM4_80GB: REPLICAS_PER_GPU, H100_NVL: REPLICAS_PER_GPU},
            name="4xA100+4xH100", scheme=SCHEME,
            batching=BatchingPolicy(max_batch=2048, timeout_ms=5.0),
        )
        with tracer.span("traffic.arrivals"):
            self.stream = generate_arrivals(
                MMPPSpec(**(TOY_STREAM if self.toy else STREAM)), seed
            )

    def run_pass(self, tracer: Tracer) -> dict[str, Recorded]:
        models = {name: tracer.curve(m) for name, m in self.models.items()}
        return {
            policy: record_and_replay(
                tracer, self.ledger, f"{policy} route", "fleet.route",
                {"policy": policy},
                lambda sink, p=policy: simulate_fleet_stream(
                    self.fleet, models, self.stream, policy=p,
                    sla_ms=SLA_MS, seed=self.seed, sink=sink,
                ),
            )
            for policy in POLICIES
        }

    def check_pass(self, out: dict[str, Recorded]) -> dict[str, float]:
        self.record_mb = sum(o.record_bytes for o in out.values()) / 1e6
        self.batches = 0
        sim = {}
        for policy, o in out.items():
            run = check_recorded(self.ledger, f"{policy} route", o)
            if run is None:
                continue
            batches = n_batches(run)
            self.batches += batches
            sizes = sum(int(b.sizes.sum()) for b in run.replicas)
            name = slug(policy)
            sim.update({
                f"sim.p99_ms.{name}": o.report.p99_ms,
                f"sim.goodput_qps.{name}": o.report.goodput_qps,
                f"sim.mean_batch.{name}": sizes / batches,
                f"sim.queue_wait_p99_ms.{name}": queue_wait_p99_ms(run),
                f"sim.util_balance.{name}": o.report.utilization_balance,
            })
        return sim

    def e2e_sim(self, sim: dict[str, float]) -> dict[str, float]:
        def best(metric, pick):
            return pick(v for k, v in sim.items()
                        if k.startswith(f"sim.{metric}."))

        return {
            "sim_latency_ms": best("p99_ms", min),
            "sim_goodput_qps": best("goodput_qps", max),
        }

    def layer_metrics(self, tracer: Tracer, passes: Sequence[str],
                      setups: Sequence[str],
                      sim: dict[str, float]) -> dict[str, float]:
        n = len(self.stream.times)
        out = {
            **curve_metrics(tracer, passes, self.batches),
            "fleet.fold_s": span_s(tracer, passes, "fleet.fold"),
            "traffic.arrivals_s": span_s(tracer, setups, "traffic.arrivals"),
            "telemetry.record_s": span_s(tracer, passes, "telemetry.record"),
            "telemetry.record_mb": self.record_mb,
            "telemetry.replay_s": span_s(tracer, passes, "telemetry.replay"),
        }
        for policy in POLICIES:
            name = slug(policy)
            route = per_pass(
                tracer, passes,
                lambda spans, p=policy: sum(
                    tracer.exclusive_s(s)
                    for s in named(spans, "fleet.route", policy=p)))
            out[f"fleet.route_s.{name}"] = route
            out[f"fleet.queries_per_s.{name}"] = n / route if route else 0.0
            out[f"curve.calls_per_query.{name}"] = per_pass(
                tracer, passes,
                lambda spans, p=policy: sum(
                    s.leaf_calls
                    for s in named(spans, "fleet.route", policy=p)) / n)
        out.update(sim)
        return out
