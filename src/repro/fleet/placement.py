"""Embedding-table placement across GPUs (paper Sections II-A, VII).

Large DLRMs shard their embedding tables across GPUs; each GPU runs its
tables serially (the regime the paper's per-table optimizations target)
and the per-sample vectors are gathered over NVLink before interaction.
The paper argues its schemes apply unchanged per table.  This module is
the one table placer: greedy minimum-completion-time (the classic
2-approx heuristic production placers use) on *measured* per-table
kernel times, which production systems approximate with cost models.
Each table instance, longest first by its average cost, goes to the GPU
that would finish it earliest given that GPU's own measured times.  On
identical GPUs this is LPT (longest-processing-time-first); on unequal
ones the same table costs a different time on an A100 than on an H100,
so balance is sought in per-GPU completion time, not table count.

:func:`run_distributed_stage` is model-parallel sharding of one stage
over identical GPUs: it places the mix with any scheme per table and
adds the NVLink all-gather of the pooled outputs before interaction.

With the memstore tier (:func:`place_tables_tiered`), "does it fit?"
stops being a constraint and becomes a cost: each assigned table splits
into an HBM-resident fraction (set by the GPU's capacity budget) and a
host-DRAM remainder whose misses are fetched over the GPU's PCIe link,
and LPT balances on *effective* per-GPU time — kernel time plus the
host-fetch time that GPU's cache fraction implies.  Models bigger than
aggregate HBM place instead of failing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral
from typing import Mapping, Sequence

from repro.config.gpu import GpuSpec
from repro.config.model import PAPER_MODEL, DLRMConfig
from repro.config.scale import SimScale
from repro.core.embedding import (
    KernelWorkload,
    kernel_workload,
    run_table_kernel,
)
from repro.core.schemes import Scheme
from repro.datasets.generator import generate_trace
from repro.datasets.spec import HOTNESS_PRESETS
from repro.dlrm.timing import KERNEL_LAUNCH_US
from repro.memstore.store import HostLink, store_for_spec

#: gpu name -> table (dataset) name -> measured kernel time in us.
TableTimes = Mapping[str, Mapping[str, float]]

#: NVLink all-gather effective bandwidth per GPU (A100 NVLink3).
NVLINK_GBPS = 300.0


@dataclass(frozen=True)
class HeteroShard:
    """One GPU's table assignment, timed with that GPU's own kernels."""

    gpu_name: str
    tables: tuple[str, ...]
    compute_us: float


@dataclass(frozen=True)
class HeteroPlacement:
    """A fleet-level table placement over unequal GPUs."""

    shards: tuple[HeteroShard, ...]

    @property
    def n_gpus(self) -> int:
        return len(self.shards)

    @property
    def critical_path_us(self) -> float:
        """GPUs run their tables in parallel: the slowest one gates."""
        return max(s.compute_us for s in self.shards)

    @property
    def imbalance(self) -> float:
        """max / mean per-GPU compute time (1.0 = perfectly balanced)."""
        times = [s.compute_us for s in self.shards]
        mean = sum(times) / len(times)
        return max(times) / mean if mean else 1.0

    def tables_on(self, gpu_name: str) -> int:
        return sum(
            len(s.tables) for s in self.shards if s.gpu_name == gpu_name
        )


def _check_placement(
    mix: Mapping[str, int],
    gpu_names: Sequence[str],
    table_times: TableTimes | None = None,
) -> None:
    """Reject a placement's inputs before any kernel is simulated.

    Every count is an integer >= 0 and at least one is above 0, there
    is at least one GPU, and every time the placer would read is a
    finite number >= 0: a negative count would be dropped silently, and
    a NaN or negative time draws every table onto its GPU.
    """
    if not gpu_names:
        raise ValueError("need at least one GPU")
    for name, count in mix.items():
        if not isinstance(count, Integral) or count < 0:
            raise ValueError(
                f"table {name!r}: count must be an integer >= 0, "
                f"got {count!r}"
            )
    if not any(mix.values()):
        raise ValueError("table mix is empty")
    if table_times is None:
        return
    for gpu in sorted(set(gpu_names)):
        times = table_times.get(gpu, {})
        missing = set(mix) - set(times)
        if missing:
            raise KeyError(
                f"no measured times on {gpu!r} for tables {sorted(missing)}"
            )
        for name in mix:
            if not 0 <= times[name] < math.inf:
                raise ValueError(
                    f"table {name!r} on GPU {gpu!r}: time must be a "
                    f"finite number >= 0, got {times[name]!r}"
                )


def hetero_lpt_shard(
    table_times: TableTimes,
    mix: Mapping[str, int],
    gpu_names: Sequence[str],
) -> list[list[str]]:
    """Greedy min-completion-time placement onto (possibly unequal) GPUs.

    ``gpu_names`` lists one entry per GPU *instance* (repeats allowed);
    shard ``i`` of the result belongs to ``gpu_names[i]``.  With
    identical GPUs this degenerates to classic LPT.
    """
    _check_placement(mix, gpu_names, table_times)
    instances = [name for name, count in mix.items() for _ in range(count)]
    # longest-first by average cost across the GPU types present
    instances.sort(
        key=lambda t: sum(table_times[g][t] for g in set(gpu_names))
        / len(set(gpu_names)),
        reverse=True,
    )
    loads = [0.0] * len(gpu_names)
    placement: list[list[str]] = [[] for _ in gpu_names]
    for table in instances:
        best = min(
            range(len(gpu_names)),
            key=lambda i: (loads[i] + table_times[gpu_names[i]][table], i),
        )
        placement[best].append(table)
        loads[best] += table_times[gpu_names[best]][table]
    return placement


def _table_times(
    workload: KernelWorkload,
    mix: Mapping[str, int],
    scheme: Scheme,
    seed: int,
) -> dict[str, float]:
    """Measured kernel time (+ launch), in us, of every table in the mix."""
    return {
        name: run_table_kernel(
            workload, HOTNESS_PRESETS[name], scheme, seed=seed
        ).profile.kernel_time_us + KERNEL_LAUNCH_US
        for name in mix
    }


def measure_table_times(
    mix: Mapping[str, int],
    scheme: Scheme,
    gpus: Sequence[GpuSpec],
    *,
    model: DLRMConfig = PAPER_MODEL,
    num_sms: int = 2,
    seed: int = 0,
) -> dict[str, dict[str, float]]:
    """Per-GPU measured kernel time (+ launch) for every table in the mix."""
    times: dict[str, dict[str, float]] = {}
    scale = SimScale(name=f"placement{num_sms}", num_sms=num_sms)
    for gpu in gpus:
        if gpu.name not in times:
            times[gpu.name] = _table_times(
                kernel_workload(gpu, model, scale), mix, scheme, seed
            )
    return times


def place_tables(
    mix: Mapping[str, int],
    scheme: Scheme,
    gpus: Sequence[GpuSpec],
    *,
    model: DLRMConfig = PAPER_MODEL,
    num_sms: int = 2,
    seed: int = 0,
    table_times: TableTimes | None = None,
) -> HeteroPlacement:
    """Measure per-GPU kernel times and place the mix across ``gpus``.

    Pass ``table_times`` to reuse measurements across sweeps.
    """
    gpu_names = [gpu.name for gpu in gpus]
    _check_placement(mix, gpu_names, table_times)
    if table_times is None:
        table_times = measure_table_times(
            mix, scheme, gpus, model=model, num_sms=num_sms, seed=seed
        )
    placement = hetero_lpt_shard(table_times, mix, gpu_names)
    return HeteroPlacement(
        shards=tuple(
            HeteroShard(
                gpu_name=gpu_names[i],
                tables=tuple(tables),
                compute_us=sum(
                    table_times[gpu_names[i]][t] for t in tables
                ),
            )
            for i, tables in enumerate(placement)
        )
    )


# ----------------------------------------------------------------------
# model-parallel sharding: one stage over identical GPUs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DistributedStageResult(HeteroPlacement):
    """A sharded embedding stage: the shards run in parallel, then the
    pooled outputs are all-gathered over NVLink."""

    scheme: Scheme
    allgather_us: float

    @property
    def critical_path_us(self) -> float:
        """The slowest shard plus the gather."""
        return super().critical_path_us + self.allgather_us

    def speedup_over(self, other: "DistributedStageResult") -> float:
        return other.critical_path_us / self.critical_path_us


def allgather_us(
    workload: KernelWorkload, total_tables: int, n_gpus: int
) -> float:
    """All-gather of per-table pooled outputs before interaction.

    Every sample contributes one ``row_bytes`` vector per remote table;
    each GPU must receive the vectors of all tables it does not own.
    """
    if n_gpus == 1:
        return 0.0
    batch = workload.batch_size / workload.factor  # full-chip batch
    remote_tables = total_tables * (n_gpus - 1) / n_gpus
    bytes_in = batch * remote_tables * workload.row_bytes
    return 1e6 * bytes_in / (NVLINK_GBPS * 1e9)


def run_distributed_stage(
    workload: KernelWorkload,
    mix: Mapping[str, int],
    scheme: Scheme,
    *,
    n_gpus: int = 4,
    seed: int = 0,
) -> DistributedStageResult:
    """Shard the embedding stage over ``n_gpus`` identical GPUs."""
    gpus = [workload.gpu] * n_gpus
    _check_placement(mix, [gpu.name for gpu in gpus])
    placement = place_tables(
        mix, scheme, gpus,
        table_times={
            workload.gpu.name: _table_times(workload, mix, scheme, seed)
        },
    )
    return DistributedStageResult(
        shards=placement.shards,
        scheme=scheme,
        allgather_us=allgather_us(workload, sum(mix.values()), n_gpus),
    )


# ----------------------------------------------------------------------
# zoo placement: whole tenants onto GPU instances
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ZooShard:
    """One GPU instance's co-resident tenants."""

    replica_name: str
    gpu_name: str
    tenants: tuple[str, ...]
    effective_us: float


@dataclass(frozen=True)
class ZooPlacement:
    """A model zoo packed onto (possibly unequal) GPU instances."""

    shards: tuple[ZooShard, ...]

    @property
    def n_gpus(self) -> int:
        return len(self.shards)

    @property
    def critical_path_us(self) -> float:
        return max(s.effective_us for s in self.shards)

    @property
    def max_coresidency(self) -> int:
        """Most tenants sharing one GPU (the interference hot spot)."""
        return max(len(s.tenants) for s in self.shards)

    @property
    def assignments(self) -> dict[str, tuple[str, ...]]:
        """tenant -> replica names, the shape the zoo router consumes."""
        out: dict[str, tuple[str, ...]] = {}
        for shard in self.shards:
            for tenant in shard.tenants:
                out[tenant] = out.get(tenant, ()) + (shard.replica_name,)
        return out


def place_zoo(
    tenant_times: TableTimes,
    tenants: Sequence[str],
    instances: Sequence[tuple[str, str]],
) -> ZooPlacement:
    """Pack whole tenants onto GPU instances by tiered effective time.

    The multi-tenant sibling of :func:`place_tables`: the unit of
    placement is a *tenant* (its whole model; per-table sharding stays
    within :func:`place_tables_tiered`), and the cost of a tenant on a
    GPU is its tiered effective batch time there — kernel time plus
    the host-fetch penalty its HBM share implies, e.g. from
    :func:`repro.tenancy.share.zoo_effective_times`.  ``tenant_times``
    maps GPU *type* names to per-tenant effective times; ``instances``
    lists ``(replica_name, gpu_type)`` per GPU instance.  Greedy
    min-completion-time over unequal machines, exactly like table
    placement — heaviest tenant first, each to the instance that would
    finish it earliest.
    """
    if not tenants:
        raise ValueError("zoo placement needs at least one tenant")
    if not instances:
        raise ValueError("zoo placement needs at least one GPU instance")
    names = [name for name, _ in instances]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate instance names: {names}")
    gpu_types = [gpu for _, gpu in instances]
    assignment = hetero_lpt_shard(
        tenant_times, {tenant: 1 for tenant in tenants}, gpu_types
    )
    shards = []
    for i, placed in enumerate(assignment):
        replica_name, gpu_type = instances[i]
        shards.append(ZooShard(
            replica_name=replica_name,
            gpu_name=gpu_type,
            tenants=tuple(placed),
            effective_us=sum(
                tenant_times[gpu_type][t] for t in placed
            ),
        ))
    return ZooPlacement(shards=tuple(shards))


# ----------------------------------------------------------------------
# tiered placement: resident fraction + host remainder per table
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TieredShard:
    """One GPU's tables, split between its HBM budget and host DRAM."""

    gpu_name: str
    tables: tuple[str, ...]
    compute_us: float
    host_us: float
    host_us_per_query: float
    hbm_fraction: float
    resident_bytes: int
    host_bytes: int

    @property
    def effective_us(self) -> float:
        """Per-batch time including host fetches — what LPT balances."""
        return self.compute_us + self.host_us


@dataclass(frozen=True)
class TieredPlacement:
    """A fleet-level tiered placement: every table placed, split or not."""

    shards: tuple[TieredShard, ...]
    fits_in_hbm: bool
    hbm_utilization: float

    @property
    def n_gpus(self) -> int:
        return len(self.shards)

    @property
    def critical_path_us(self) -> float:
        return max(s.effective_us for s in self.shards)

    @property
    def imbalance(self) -> float:
        """max / mean per-GPU *effective* time (1.0 = balanced)."""
        times = [s.effective_us for s in self.shards]
        mean = sum(times) / len(times)
        return max(times) / mean if mean else 1.0

    @property
    def total_host_bytes(self) -> int:
        """Embedding bytes spilled to host DRAM across the fleet."""
        return sum(s.host_bytes for s in self.shards)

    def tables_on(self, gpu_name: str) -> int:
        return sum(
            len(s.tables) for s in self.shards if s.gpu_name == gpu_name
        )


class _HostCostModel:
    """Memoized host-fetch-time estimator per (GPU, dataset, fraction).

    Prices one table's HBM misses at a given resident fraction: a store
    is warmed from the dataset's popularity profile and an evaluation
    trace is replayed against it, all at the placement's simulation
    scale (the PCIe link bandwidth scales with the chip slice, exactly
    like HBM does in :meth:`GpuSpec.scaled_slice`).
    """

    def __init__(
        self,
        workloads: Mapping[str, KernelWorkload],
        policy: str,
        seed: int,
    ) -> None:
        self._workloads = workloads
        self._policy = policy
        self._seed = seed
        self._traces: dict[tuple[str, str], object] = {}
        self._cache: dict[tuple[str, str, int], float] = {}

    def _trace(self, gpu_name: str, dataset: str):
        key = (gpu_name, dataset)
        if key not in self._traces:
            w = self._workloads[gpu_name]
            self._traces[key] = generate_trace(
                HOTNESS_PRESETS[dataset],
                batch_size=w.batch_size,
                pooling_factor=w.pooling_factor,
                table_rows=w.table_rows,
                seed=self._seed,
            )
        return self._traces[key]

    def host_us(self, gpu_name: str, dataset: str, fraction: float) -> float:
        w = self._workloads[gpu_name]
        resident = int(round(fraction * w.table_rows))
        key = (gpu_name, dataset, resident)
        if key not in self._cache:
            store = store_for_spec(
                HOTNESS_PRESETS[dataset],
                batch_size=w.batch_size,
                pooling_factor=w.pooling_factor,
                table_rows=w.table_rows,
                row_bytes=w.row_bytes,
                hbm_fraction=min(1.0, max(0.0, fraction)),
                link=HostLink.pcie(w.full_gpu).scaled(w.factor),
                policy=self._policy,
                seed=self._seed,
            )
            self._cache[key] = store.lookup(
                self._trace(gpu_name, dataset)
            ).host_fetch_us
        return self._cache[key]


def place_tables_tiered(
    mix: Mapping[str, int],
    scheme: Scheme,
    gpus: Sequence[GpuSpec],
    *,
    model: DLRMConfig = PAPER_MODEL,
    hbm_utilization: float = 0.9,
    policy: str = "static_hot",
    num_sms: int = 2,
    seed: int = 0,
    table_times: TableTimes | None = None,
) -> TieredPlacement:
    """Place a mix whose total bytes may exceed aggregate HBM.

    Two passes: tables are LPT-placed on *effective* per-table times
    (kernel time plus host-fetch time at the fleet-wide average cache
    fraction), then each GPU's actual resident fraction is settled from
    its own HBM budget (``hbm_bytes * hbm_utilization``) against the
    bytes it was assigned, and shard times are re-priced at that
    fraction.  A fleet with enough HBM degenerates to fully-resident
    shards with zero host time (and ``fits_in_hbm=True``).
    """
    if not 0.0 < hbm_utilization <= 1.0:
        raise ValueError("hbm_utilization must be in (0, 1]")
    gpu_names = [gpu.name for gpu in gpus]
    _check_placement(mix, gpu_names, table_times)
    if table_times is None:
        table_times = measure_table_times(
            mix, scheme, gpus, model=model, num_sms=num_sms, seed=seed
        )
    scale = SimScale(name=f"placement{num_sms}", num_sms=num_sms)
    workloads = {
        gpu.name: kernel_workload(gpu, model, scale)
        for gpu in {g.name: g for g in gpus}.values()
    }
    costs = _HostCostModel(workloads, policy, seed)

    table_bytes = model.table.table_bytes
    total_bytes = sum(mix.values()) * table_bytes
    budgets = [gpu.hbm_bytes * hbm_utilization for gpu in gpus]
    f0 = min(1.0, sum(budgets) / total_bytes)

    effective = {
        name: {
            dataset: table_times[name][dataset]
            + costs.host_us(name, dataset, f0)
            for dataset in mix
        }
        for name in set(gpu_names)
    }
    assignment = hetero_lpt_shard(effective, mix, gpu_names)

    shards = []
    fits = True
    for i, tables in enumerate(assignment):
        gpu = gpus[i]
        assigned_bytes = len(tables) * table_bytes
        fraction = (
            1.0 if assigned_bytes == 0
            else min(1.0, budgets[i] / assigned_bytes)
        )
        if fraction < 1.0:
            fits = False
        host = sum(costs.host_us(gpu.name, t, fraction) for t in tables)
        resident = int(round(fraction * assigned_bytes))
        shards.append(TieredShard(
            gpu_name=gpu.name,
            tables=tuple(tables),
            compute_us=sum(table_times[gpu.name][t] for t in tables),
            host_us=host,
            # proportional slicing keeps per-batch time invariant (host
            # bytes and link bandwidth both scale with the slice), so
            # the slice's per-batch host time corresponds to the FULL
            # model batch — divide by that, not the sliced batch
            host_us_per_query=host / model.batch_size,
            hbm_fraction=fraction,
            resident_bytes=resident,
            host_bytes=assigned_bytes - resident,
        ))
    return TieredPlacement(
        shards=tuple(shards),
        fits_in_hbm=fits,
        hbm_utilization=hbm_utilization,
    )
