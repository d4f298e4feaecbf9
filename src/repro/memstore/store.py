"""Tiered embedding parameter-server: HBM hot set ⇄ host DRAM remainder.

Production recommenders hold terabyte-scale embedding tables behind a
GPU-cached parameter server (Wei et al., HugeCTR HPS); the GPU keeps a
hot subset of rows HBM-resident and fetches the rest from host DRAM
over PCIe/NVLink.  This module models that split:

* :class:`TierPlan` — how one table divides into a resident fraction
  and a host remainder (``resident_rows + host_rows == table_rows``
  always — a pinned invariant).
* :class:`HostLink` — the modeled interconnect (bandwidth + latency),
  derived from :class:`~repro.config.gpu.GpuSpec`.
* :class:`EmbeddingStore` — a plan plus a live
  :class:`~repro.memstore.policy.CachePolicy`; ``lookup(trace)``
  replays a trace's accesses against the cache and returns a
  :class:`TierStats` with hit/miss and host-fetch-time accounting.

Everything is deterministic: traces are seeded, policies carry no
randomness, so one ``(plan, policy, trace)`` triple always yields the
same :class:`TierStats` — the reproducibility contract the serving and
fleet layers build on.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.config.gpu import GpuSpec
from repro.datasets.spec import DatasetSpec
from repro.datasets.trace import EmbeddingTrace
from repro.memstore.policy import (
    CACHE_POLICIES,
    CachePolicy,
    make_policy,
    profile_hot_rows,
)
from repro.telemetry.events import (
    CacheEvict,
    CacheHit,
    CacheMiss,
    HostFetch,
    Warm,
)
from repro.telemetry.sinks import Sink, resolve_sink

#: Host-link launch latency (DMA setup + round trip) per bulk transfer.
PCIE_LATENCY_US = 10.0


@dataclass(frozen=True)
class HostLink:
    """A modeled host⇄device interconnect: bandwidth plus launch latency."""

    name: str
    bandwidth_gbps: float
    latency_us: float

    def __post_init__(self) -> None:
        if self.bandwidth_gbps <= 0:
            raise ValueError("bandwidth_gbps must be positive")
        if self.latency_us < 0:
            raise ValueError("latency_us must be >= 0")

    def transfer_us(self, n_bytes: int, *, transfers: int = 1) -> float:
        """Time to move ``n_bytes`` in ``transfers`` bulk DMA operations."""
        if n_bytes <= 0:
            return 0.0
        return transfers * self.latency_us + 1e6 * n_bytes / (
            self.bandwidth_gbps * 1e9
        )

    def scaled(self, factor: float) -> "HostLink":
        """Proportional chip slice: bandwidth scales, latency does not
        (mirrors :meth:`GpuSpec.scaled_slice` for HBM)."""
        if factor <= 0:
            raise ValueError("factor must be positive")
        return replace(self, bandwidth_gbps=self.bandwidth_gbps * factor)

    @classmethod
    def pcie(cls, gpu: GpuSpec) -> "HostLink":
        """The GPU's PCIe link to host DRAM."""
        return cls("pcie", gpu.pcie_gbps, PCIE_LATENCY_US)


@dataclass(frozen=True)
class TierPlan:
    """How one embedding table splits across HBM and host DRAM."""

    table_rows: int
    resident_rows: int
    row_bytes: int
    policy: str = "static_hot"

    def __post_init__(self) -> None:
        if self.table_rows <= 0:
            raise ValueError("table_rows must be positive")
        if self.row_bytes <= 0:
            raise ValueError("row_bytes must be positive")
        if not 0 <= self.resident_rows <= self.table_rows:
            raise ValueError(
                f"resident_rows must be in [0, {self.table_rows}], "
                f"got {self.resident_rows}"
            )
        if self.policy not in CACHE_POLICIES:
            known = ", ".join(CACHE_POLICIES)
            raise ValueError(
                f"unknown cache policy {self.policy!r}; known: {known}"
            )

    @property
    def host_rows(self) -> int:
        """Rows living in host DRAM (``resident + host == table`` always)."""
        return self.table_rows - self.resident_rows

    @property
    def resident_bytes(self) -> int:
        return self.resident_rows * self.row_bytes

    @property
    def host_bytes(self) -> int:
        return self.host_rows * self.row_bytes

    @property
    def resident_fraction(self) -> float:
        return self.resident_rows / self.table_rows

    @property
    def fully_resident(self) -> bool:
        return self.resident_rows >= self.table_rows

    @classmethod
    def from_fraction(
        cls,
        table_rows: int,
        row_bytes: int,
        hbm_fraction: float,
        *,
        policy: str = "static_hot",
    ) -> "TierPlan":
        """Plan keeping ``hbm_fraction`` of the table's rows resident."""
        if not 0.0 <= hbm_fraction <= 1.0:
            raise ValueError("hbm_fraction must be in [0, 1]")
        return cls(
            table_rows=table_rows,
            resident_rows=int(round(hbm_fraction * table_rows)),
            row_bytes=row_bytes,
            policy=policy,
        )

    @classmethod
    def from_budget(
        cls,
        table_rows: int,
        row_bytes: int,
        budget_bytes: int,
        *,
        policy: str = "static_hot",
    ) -> "TierPlan":
        """Plan keeping as many rows as ``budget_bytes`` of HBM holds."""
        if budget_bytes < 0:
            raise ValueError("budget_bytes must be >= 0")
        return cls(
            table_rows=table_rows,
            resident_rows=min(table_rows, budget_bytes // row_bytes),
            row_bytes=row_bytes,
            policy=policy,
        )


@dataclass(frozen=True)
class TierStats:
    """Hit/miss accounting of one trace replay against a store."""

    n_accesses: int
    hits: int
    host_rows_fetched: int
    host_bytes: int
    host_fetch_us: float

    def __post_init__(self) -> None:
        if not 0 <= self.hits <= self.n_accesses:
            raise ValueError("hits must be in [0, n_accesses]")

    @property
    def misses(self) -> int:
        return self.n_accesses - self.hits

    @property
    def hit_rate(self) -> float:
        """Fraction of accesses served from HBM (1.0 for an empty trace)."""
        if self.n_accesses == 0:
            return 1.0
        return self.hits / self.n_accesses


class EmbeddingStore:
    """One table's tiered store: a plan, a live policy, and a host link.

    ``lookup`` replays a trace's accesses against the cache policy and
    prices the misses on the link: every fetched row crosses as part of
    one bulk gather per batch (a single launch latency plus bytes over
    bandwidth).  Adaptive policies (LRU/LFU) mutate across lookups —
    that is the point; call :meth:`reset`/:meth:`warm` to model a cache
    refresh.

    Telemetry: each ``lookup`` emits ``cache_hit``/``cache_miss`` (and
    ``cache_evict``/``host_fetch`` when rows were displaced/fetched),
    each ``warm`` a ``warm`` event, to ``sink`` — or the ambient
    default when ``sink`` is ``None`` — tagged with ``label``.
    """

    def __init__(
        self,
        plan: TierPlan,
        link: HostLink,
        *,
        policy: CachePolicy | None = None,
        hot_rows: np.ndarray | None = None,
        sink: Sink | None = None,
        label: str = "store",
    ) -> None:
        if policy is None:
            policy = make_policy(plan.policy, plan.resident_rows)
        elif policy.capacity_rows != plan.resident_rows:
            raise ValueError(
                f"policy capacity {policy.capacity_rows} != plan "
                f"resident_rows {plan.resident_rows}"
            )
        self.plan = plan
        self.link = link
        self.policy = policy
        self.sink = sink
        self.label = label
        if hot_rows is not None:
            self.policy.warm(hot_rows)

    def warm(self, rows: np.ndarray) -> int:
        """(Re-)admit a popularity profile; returns rows now resident."""
        resident = self.policy.warm(rows)
        sink = resolve_sink(self.sink)
        if sink.enabled:
            sink.emit(Warm(resident=resident, label=self.label))
        return resident

    def reset(self) -> None:
        self.policy.reset()

    @property
    def resident_fraction(self) -> float:
        return self.plan.resident_fraction

    def lookup(self, trace: EmbeddingTrace | np.ndarray) -> TierStats:
        """Replay a trace (or raw index array) and account the tiers."""
        indices = (
            trace.indices if isinstance(trace, EmbeddingTrace)
            else np.asarray(trace, dtype=np.int64)
        )
        if len(indices) and int(indices.max()) >= self.plan.table_rows:
            raise ValueError("trace indices exceed the plan's table_rows")
        evicted_before = self.policy.evictions
        if self.plan.fully_resident:
            hits, fetches = len(indices), 0
        else:
            hits, fetches = self.policy.lookup(indices)
        host_bytes = fetches * self.plan.row_bytes
        stats = TierStats(
            n_accesses=len(indices),
            hits=hits,
            host_rows_fetched=fetches,
            host_bytes=host_bytes,
            host_fetch_us=self.link.transfer_us(host_bytes),
        )
        sink = resolve_sink(self.sink)
        if sink.enabled:
            sink.emit(CacheHit(count=hits, label=self.label))
            sink.emit(CacheMiss(count=stats.misses, label=self.label))
            evicted = self.policy.evictions - evicted_before
            if evicted:
                sink.emit(CacheEvict(count=evicted, label=self.label))
            if fetches:
                sink.emit(HostFetch(
                    rows=fetches, bytes=host_bytes,
                    us=stats.host_fetch_us, label=self.label,
                ))
        return stats


def store_for_spec(
    spec: DatasetSpec,
    *,
    batch_size: int,
    pooling_factor: int,
    table_rows: int,
    row_bytes: int,
    hbm_fraction: float,
    link: HostLink,
    policy: str = "static_hot",
    seed: int = 0,
) -> EmbeddingStore:
    """Build a store for one table, warmed from the dataset's profile.

    The warm set comes from :func:`profile_hot_rows` — the same honest
    offline profiling L2 pinning uses (calibration trace at a seed
    offset, never the trace being served).
    """
    plan = TierPlan.from_fraction(
        table_rows, row_bytes, hbm_fraction, policy=policy
    )
    hot = None
    if 0 < plan.resident_rows < plan.table_rows:
        hot = profile_hot_rows(
            spec,
            batch_size=batch_size,
            pooling_factor=pooling_factor,
            table_rows=table_rows,
            k=plan.resident_rows,
            seed=seed,
        )
    return EmbeddingStore(plan, link, hot_rows=hot)
