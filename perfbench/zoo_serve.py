"""zoo-serve: the ``tenancy`` experiment's path for three tenants sharing
one A100.

Set-up calibrates every tenant cold, prices their HBM hit curves,
waterfills the HBM budget and probes each tenant solo for its SLA.  Each
pass runs ``simulate_zoo_serving`` (a solo pass, then the contended pass)
on per-tenant non-stationary streams, records the run into an in-memory
``RecorderSink`` and replays it.  The tiered and contention-scaled
latency closures dominate a pass; the engine runs only in set-up and the
router not at all.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

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
    span_s,
)
from perfbench.tracer import Tracer

from repro import (
    A100_SXM4_80GB,

    BatchingPolicy,
    ContinuousBatching,
    DiurnalSpec,
    FlashCrowdSpec,
    KernelMemo,
    ZooSpec,
    arbitrate,
    example_zoo,
    generate_arrivals,
    serve_stream,
    simulate_zoo_serving,
    zoo_hit_curves,
)
from repro.fleet.capacity import tiered_latency_model
from repro.memstore import HostLink
from repro.tenancy.share import calibrate_tenant
from repro.traffic.scenario import derive_seed

NUM_SMS = 2
N_TENANTS = 3
#: offered base load per tenant (queries/s) and stream length (s): each
#: tenant keeps its GPU share around a quarter busy before contention
BASE_QPS = {"med_hot": 1500.0, "high_hot": 6000.0, "low_hot": 2500.0}
DURATION_S = 4.0
MAX_BATCH = 2048
#: the size-or-timeout tenant's batch timeout
TIMEOUT_MS = 5.0
#: per-tenant SLA = this margin x the tenant's solo p99 on its stream
SLA_MARGIN = 3.0
#: HBM budget = this share of the zoo's useful cache demand, so the
#: arbiter has to choose (as in the ``tenancy`` experiment)
CACHE_PRESSURE = 0.5
#: the tenant that keeps size-or-timeout batching; the others batch
#: continuously with SLA-adaptive sizing
TIMEOUT_TENANT = "med_hot"


def _scenario(index: int, qps: float, duration_s: float):
    """A distinct non-stationary shape per tenant."""
    if index == 1:
        return FlashCrowdSpec(
            base_qps=qps, duration_s=duration_s,
            spike_at_s=0.4 * duration_s, magnitude=3.0,
            ramp_s=0.05 * duration_s, decay_s=0.15 * duration_s,
        )
    return DiurnalSpec(
        base_qps=qps, duration_s=duration_s, amplitude=0.5,
        period_s=duration_s / (1 + index // 2),
    )


def _useful_rows(curve) -> int:
    """Smallest capacity already reaching the curve's full coverage."""
    top = curve.hits_at(curve.table_rows)
    return int(np.searchsorted(curve.cum_hits, top))


class ZooServe(Workload):
    name = "zoo-serve"

    def setup(self, tracer: Tracer) -> None:
        gpu = A100_SXM4_80GB
        seed = self.seed
        memo = KernelMemo()
        zoo = example_zoo(N_TENANTS)
        with tracer.span("tenancy.calibrate"):
            calibrations = {
                t.name: calibrate_tenant(t, gpu, num_sms=NUM_SMS, seed=seed,
                                         memo=memo)
                for t in zoo.tenants
            }
        self.demands = {n: c.demand for n, c in calibrations.items()}

        with tracer.span("memstore.hit_curves"):
            curves = zoo_hit_curves(zoo, gpu, num_sms=NUM_SMS, seed=seed)
        budget = max(
            int(CACHE_PRESSURE * sum(_useful_rows(c) * c.bytes_per_row
                                     for c in curves.values())),
            sum(c.floor_bytes for c in curves.values()),
        )
        with tracer.span("tenancy.arbitrate"):
            grant = arbitrate(budget, curves)
        link = HostLink.pcie(gpu)
        self.models = {
            name: tiered_latency_model(
                calibrations[name].latency_ms,
                host_us_per_query=curves[name].host_us_per_query(
                    grant.grant(name).granted_rows, link),
            )
            for name in zoo.tenant_names
        }

        duration_s = 0.5 if self.toy else DURATION_S
        scenarios = {
            t.name: _scenario(i, 50.0 if self.toy else BASE_QPS[t.name],
                              duration_s)
            for i, t in enumerate(zoo.tenants)
        }
        with tracer.span("traffic.arrivals"):
            self.streams = {
                name: generate_arrivals(spec, derive_seed(seed, name))
                for name, spec in scenarios.items()
            }
        self.hit_rates = {
            name: (grant.grant(name).hit_rate,) * len(stream.phases)
            for name, stream in self.streams.items()
        }

        def policy(name, sla_ms=None):
            if name == TIMEOUT_TENANT:
                return BatchingPolicy(MAX_BATCH, TIMEOUT_MS)
            return ContinuousBatching(MAX_BATCH, sla_ms=sla_ms)

        # solo SLA probes, each tenant under its own batcher's rule
        slas = {}
        for name in zoo.tenant_names:
            with tracer.span("serving.solo_probe", tenant=name):
                solo = serve_stream(
                    self.models[name], self.streams[name],
                    policy=policy(name), sla_ms=None,
                )
            slas[name] = round(SLA_MARGIN * solo.p99_ms, 2)
        self.policies = {
            name: policy(name, slas[name]) for name in zoo.tenant_names
        }
        self.zoo = ZooSpec(name=zoo.name, tenants=tuple(
            dataclasses.replace(t, scenario=scenarios[t.name],
                                sla_ms=slas[t.name])
            for t in zoo.tenants
        ))
        self.n_queries = sum(len(s.times) for s in self.streams.values())

    def run_pass(self, tracer: Tracer) -> Recorded:
        models = {name: tracer.curve(m) for name, m in self.models.items()}
        return record_and_replay(
            tracer, self.ledger, "zoo serve", "serving.loop", {},
            lambda sink: simulate_zoo_serving(
                self.zoo, models, demands=self.demands,
                streams=self.streams, policies=self.policies,
                phase_hit_rates=self.hit_rates, seed=self.seed, sink=sink,
            ),
        )

    def check_pass(self, out: Recorded) -> dict[str, float]:
        self.record_mb = out.record_bytes / 1e6
        group = check_recorded(self.ledger, "zoo serve", out)
        if group is None:
            return {}
        self.batches = n_batches(group)
        # contended serving is a second pass over every stream
        self.serves = 1 if all(
            f == 1.0 for f in out.report.contention.values()) else 2
        report = out.report
        sim = {}
        for name, tenant in report.tenant_reports.items():
            sim.update({
                f"sim.p99_ms.{name}": tenant.p99_ms,
                f"sim.goodput_qps.{name}": tenant.goodput_qps,
                f"sim.mean_batch.{name}": tenant.mean_batch_size,
                f"sim.queue_wait_p99_ms.{name}":
                    queue_wait_p99_ms(group.children[name]),
                f"sim.gpu_util.{name}": tenant.gpu_utilization,
                f"sim.hit_rate.{name}": tenant.hit_rate,
                f"sim.contention.{name}": report.contention[name],
            })
        sim["aggregate_goodput_qps"] = report.aggregate_goodput_qps
        return sim

    def e2e_sim(self, sim: dict[str, float]) -> dict[str, float]:
        return {
            "sim_latency_ms": max(v for k, v in sim.items()
                                  if k.startswith("sim.p99_ms.")),
            "sim_goodput_qps": sim["aggregate_goodput_qps"],
        }

    def layer_metrics(self, tracer: Tracer, passes: Sequence[str],
                      setups: Sequence[str],
                      sim: dict[str, float]) -> dict[str, float]:
        loop = per_pass(tracer, passes, lambda spans: sum(
            tracer.exclusive_s(s) for s in named(spans, "serving.loop")))
        out = {
            **curve_metrics(tracer, passes, self.batches),
            "serving.loop_s": loop,
            "serving.queries_per_s":
                self.serves * self.n_queries / loop if loop else 0.0,
            "serving.fold_s": span_s(tracer, passes, "serving.fold"),
            "serving.solo_probe_s":
                span_s(tracer, setups, "serving.solo_probe"),
            "tenancy.calibrate_s": span_s(tracer, setups, "tenancy.calibrate"),
            "memstore.hit_curves_s":
                span_s(tracer, setups, "memstore.hit_curves"),
            "tenancy.arbitrate_s": span_s(tracer, setups, "tenancy.arbitrate"),
            "traffic.arrivals_s": span_s(tracer, setups, "traffic.arrivals"),
            "telemetry.record_s": span_s(tracer, passes, "telemetry.record"),
            "telemetry.record_mb": self.record_mb,
            "telemetry.replay_s": span_s(tracer, passes, "telemetry.replay"),
        }
        out.update({k: v for k, v in sim.items() if k.startswith("sim.")})
        return out
