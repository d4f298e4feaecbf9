"""kernel-sweep: the Fig. 12 schemes on ``high_hot`` and ``random``.

Each pass runs all ten launches cold against a fresh ``KernelMemo`` with
no disk tier, then repeats them as memo hits.  ``gpusim`` and kernel
lowering do nearly all the work; no latency curve or serving loop runs.
``high_hot`` exercises the cache-hit path and ``random`` the DRAM-miss
path, and the warm half reads what the cold half wrote.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from perfbench.common import (
    Workload,
    median_of,
    named,
    per_pass,
    slug,
    span_s,
    span_seconds,
)
from perfbench.tracer import Tracer

from repro import (
    A100_SXM4_80GB,
    BASE,
    FIG12_SCHEMES,
    HOTNESS_PRESETS,
    PAPER_MODEL,
    KernelMemo,
    SimScale,
    generate_trace,
    kernel_workload,
    run_table_kernel,
)
from repro.harness.paper_data import DATASETS4, FIG12_SPEEDUP
from repro.kernels.pinning import pinnable_rows, profile_hot_rows

NUM_SMS = 2
DATASETS = ("high_hot", "random")
SCHEMES = (BASE, *FIG12_SCHEMES)
#: schemes and profile fields reported per launch in the per-layer set
REPORTED_SCHEMES = ("base", "rpf-l2p-optmt")
PROFILE_FIELDS = {
    "kernel_us": "kernel_time_us",
    "l1_hit_pct": "l1_hit_pct",
    "l2_hit_pct": "l2_hit_pct",
    "dram_read_mb": "dram_read_mb",
    "long_sb_stall": "long_scoreboard_stall",
}


def paper_err_pct(speedups: dict[tuple[str, str], float]) -> float:
    """Mean absolute % error of simulated embedding-only speedups over
    base, keyed ``(scheme name, dataset)``, against Fig. 12."""
    errors = []
    for (scheme, dataset), value in speedups.items():
        paper = FIG12_SPEEDUP[scheme][DATASETS4.index(dataset)]
        errors.append(abs(value - paper) / paper * 100.0)
    return sum(errors) / len(errors)


@dataclass
class PassOut:
    cold: dict
    warm: dict
    cold_memo: tuple[int, int]
    warm_memo: tuple[int, int]


class KernelSweep(Workload):
    name = "kernel-sweep"

    def setup(self, tracer: Tracer) -> None:
        self.workload = kernel_workload(
            A100_SXM4_80GB, PAPER_MODEL,
            SimScale(name=f"perfbench{NUM_SMS}", num_sms=NUM_SMS),
            batch_size=2 if self.toy else None,
        )
        wl = self.workload
        dims = dict(batch_size=wl.batch_size,
                    pooling_factor=wl.pooling_factor,
                    table_rows=wl.table_rows)
        self.traces, self.hot_rows = {}, {}
        for dataset in DATASETS:
            spec = HOTNESS_PRESETS[dataset]
            with tracer.span("datasets.trace", dataset=dataset):
                self.traces[dataset] = generate_trace(
                    spec, seed=self.seed, **dims
                )
            with tracer.span("kernels.pin_profile", dataset=dataset):
                self.hot_rows[dataset] = profile_hot_rows(
                    spec, k=pinnable_rows(wl.gpu.l2_set_aside_bytes,
                                          wl.row_bytes),
                    seed=self.seed, **dims,
                )

    def _launches(self, tracer: Tracer, memo: KernelMemo,
                  span_name: str) -> dict:
        results = {}
        for dataset in DATASETS:
            for scheme in SCHEMES:
                with tracer.span(span_name, dataset=dataset,
                                 scheme=slug(scheme.name)):
                    results[(scheme.name, dataset)] = self.ledger.call(
                        f"{scheme.name}/{dataset} launch",
                        run_table_kernel,
                        self.workload, HOTNESS_PRESETS[dataset], scheme,
                        seed=self.seed,
                        trace=self.traces[dataset],
                        hot_rows=(self.hot_rows[dataset]
                                  if scheme.l2_pinning else None),
                        memo=memo,
                    )
        return results

    def run_pass(self, tracer: Tracer) -> PassOut:
        memo = KernelMemo()
        cold = self._launches(tracer, memo, "core.table_kernel")
        cold_memo = (memo.hits, memo.misses)
        warm = self._launches(tracer, memo, "gpusim.memo_hit")
        warm_memo = (memo.hits - cold_memo[0], memo.misses - cold_memo[1])
        return PassOut(cold, warm, cold_memo, warm_memo)

    def check_pass(self, out: PassOut) -> dict[str, float]:
        n = len(out.cold)
        self.memo_ratios = {"cold": out.cold_memo, "warm": out.warm_memo}
        self.ledger.check("cold half misses the memo every launch",
                          out.cold_memo == (0, n))
        self.ledger.check("warm half hits the memo every launch",
                          out.warm_memo == (n, 0))
        sim = {}
        for key, cold in out.cold.items():
            warm = out.warm[key]
            if cold is None or warm is None:
                continue
            self.ledger.check(
                f"{key} warm profile equals cold",
                warm.profile == cold.profile
                and warm.pinned_lines == cold.pinned_lines
                and warm.pin_coverage == cold.pin_coverage,
            )
            scheme, dataset = key
            for metric, field in PROFILE_FIELDS.items():
                sim[f"sim.{metric}.{slug(scheme)}.{dataset}"] = float(
                    getattr(cold.profile, field)
                )
        if len(sim) == len(out.cold) * len(PROFILE_FIELDS):
            sim["sim.paper_err_pct"] = paper_err_pct({
                (scheme.name, dataset):
                    out.cold[("base", dataset)].kernel_time_us
                    / out.cold[(scheme.name, dataset)].kernel_time_us
                for scheme in FIG12_SCHEMES for dataset in DATASETS
            })
        return sim

    def e2e_sim(self, sim: dict[str, float]) -> dict[str, float]:
        times_us = {
            (scheme.name, dataset):
                sim[f"sim.kernel_us.{slug(scheme.name)}.{dataset}"]
            for scheme in SCHEMES for dataset in DATASETS
        }
        total_s = sum(times_us.values()) / 1e6
        return {
            "sim_latency_ms": sum(times_us.values()) / len(times_us) / 1e3,
            # no SLA here: every query of every launch counts
            "sim_goodput_qps":
                len(times_us) * PAPER_MODEL.batch_size / total_s,
        }

    def layer_metrics(self, tracer: Tracer, passes: Sequence[str],
                      setups: Sequence[str],
                      sim: dict[str, float]) -> dict[str, float]:
        out = {
            "datasets.trace_s": span_s(tracer, setups, "datasets.trace"),
            "kernels.pin_profile_s":
                span_s(tracer, setups, "kernels.pin_profile"),
            "kernels.lower_s": span_s(tracer, passes, "kernels.lower"),
            "kernels.uops": per_pass(
                tracer, passes,
                lambda spans: sum(s.attrs["uops"]
                                  for s in named(spans, "kernels.lower"))),
            "core.table_kernel_s": median_of(
                s.duration_ns / 1e9 for p in passes
                for s in named(tracer.of_pass(p), "core.table_kernel")),
            "gpusim.insts_per_s": per_pass(
                tracer, passes,
                lambda spans: sum(s.attrs["insts"] for s in
                                  named(spans, "gpusim.engine"))
                / max(span_seconds(named(spans, "gpusim.engine")), 1e-12)),
            "gpusim.memo_hit_s": median_of(
                s.duration_ns / 1e9 for p in passes
                for s in named(tracer.of_pass(p), "gpusim.memo_hit")),
        }
        for dataset in DATASETS:
            out[f"gpusim.engine_s.{dataset}"] = span_s(
                tracer, passes, "gpusim.engine", dataset=dataset)
        for half, (hits, misses) in self.memo_ratios.items():
            out[f"gpusim.memo_hit_ratio.{half}"] = hits / (hits + misses)
        for key, value in sim.items():
            parts = key.split(".")
            if len(parts) < 4 or parts[2] in REPORTED_SCHEMES:
                out[key] = value
        return out
