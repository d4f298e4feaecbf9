"""Tiered embedding parameter-server: HBM hot cache over host DRAM.

The scale axis of the reproduction: serve models *bigger than the
hardware* by keeping a per-GPU hot subset of embedding rows
HBM-resident and fetching the remainder from host DRAM over a modeled
PCIe link.  One policy module (popularity profiling + pluggable
admission/eviction) feeds every layer: L2 pinning's hot-row profiling,
drift re-pinning, kernel-stage miss latency, fleet placement splits,
and per-phase hit-rate reporting in the serving engines.
"""

from repro.memstore.policy import (
    CACHE_POLICIES,
    PROFILE_SEED_OFFSET,
    CachePolicy,
    LFUPolicy,
    LRUPolicy,
    StaticHotPolicy,
    hit_curve,
    make_policy,
    popular_rows,
    profile_hot_rows,
)
from repro.memstore.store import (
    EmbeddingStore,
    HostLink,
    TierPlan,
    TierStats,
    store_for_spec,
)

__all__ = [
    "CACHE_POLICIES",
    "CachePolicy",
    "EmbeddingStore",
    "HostLink",
    "LFUPolicy",
    "LRUPolicy",
    "PROFILE_SEED_OFFSET",
    "StaticHotPolicy",
    "TierPlan",
    "TierStats",
    "hit_curve",
    "make_policy",
    "popular_rows",
    "profile_hot_rows",
    "store_for_spec",
]
