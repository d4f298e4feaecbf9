"""Multi-tenant model zoo: who shares the fleet, and on what terms.

Production recommendation fleets do not dedicate a GPU per model: many
DLRM variants — ranking next to retrieval next to a lightweight
candidate filter — are co-resident on the same devices (the HugeCTR
GPU-embedding-cache inference parameter server is built around exactly
this regime, and Gupta et al.'s characterization shows how differently
such variants stress embedding vs. MLP).  A :class:`TenantSpec` binds
one variant's *model* (its own table sizes and pooling factor), its
*traffic* (a :class:`~repro.traffic.ScenarioSpec`), and its *contract*
(a latency SLA plus a floor on the HBM share the arbiter may never
take away).  A :class:`ZooSpec` is the co-resident collection.

Each tenant samples its own arrival stream from the run seed via
:func:`repro.traffic.scenario.derive_seed`, so streams are mutually
independent but bit-reproducible, and adding a tenant never perturbs
the streams of the tenants already in the zoo.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.config.model import PAPER_MODEL, DLRMConfig
from repro.core.schemes import OPTMT, Scheme
from repro.core.serving import check_sla
from repro.datasets.spec import HOTNESS_PRESETS
from repro.traffic.scenario import (
    ScenarioSpec,
    ScenarioTrace,
    StationarySpec,
    derive_seed,
    generate_arrivals,
)


@dataclass(frozen=True)
class TenantSpec:
    """One co-resident model: variant + traffic + serving contract."""

    name: str
    model: DLRMConfig = field(default_factory=lambda: PAPER_MODEL)
    dataset: str = "med_hot"
    scheme: Scheme = OPTMT
    scenario: ScenarioSpec = field(default_factory=StationarySpec)
    sla_ms: float = 100.0
    #: fraction of this tenant's own table bytes the HBM arbiter must
    #: keep resident whatever the co-tenants demand (its guaranteed
    #: minimum share; 0 = best-effort).
    hbm_floor_fraction: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if self.dataset not in HOTNESS_PRESETS:
            known = ", ".join(HOTNESS_PRESETS)
            raise ValueError(
                f"unknown dataset {self.dataset!r}; known: {known}"
            )
        check_sla(self.sla_ms)
        if not 0.0 <= self.hbm_floor_fraction <= 1.0:
            raise ValueError("hbm_floor_fraction must be in [0, 1]")

    @property
    def table_bytes(self) -> int:
        """Total embedding footprint of this tenant's model."""
        return self.model.model_bytes

    def stream(self, seed: int = 0) -> ScenarioTrace:
        """This tenant's seeded arrival stream under a run-level seed."""
        return generate_arrivals(
            self.scenario, derive_seed(seed, self.name)
        )


@dataclass(frozen=True)
class ZooSpec:
    """A named collection of tenants co-resident on one fleet."""

    name: str
    tenants: tuple[TenantSpec, ...]

    def __post_init__(self) -> None:
        if not self.tenants:
            raise ValueError("zoo must have at least one tenant")
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names in zoo: {names}")

    @property
    def n_tenants(self) -> int:
        return len(self.tenants)

    @property
    def tenant_names(self) -> tuple[str, ...]:
        return tuple(t.name for t in self.tenants)

    @property
    def total_table_bytes(self) -> int:
        """Aggregate embedding footprint across the zoo."""
        return sum(t.table_bytes for t in self.tenants)

    def tenant(self, name: str) -> TenantSpec:
        for tenant in self.tenants:
            if tenant.name == name:
                return tenant
        known = ", ".join(self.tenant_names)
        raise KeyError(f"no tenant {name!r}; known: {known}")

    def streams(self, seed: int = 0) -> dict[str, ScenarioTrace]:
        """One independent seeded arrival stream per tenant."""
        return {t.name: t.stream(seed) for t in self.tenants}

    def describe(self) -> str:
        gb = self.total_table_bytes / 1024**3
        return (
            f"{self.name} ({self.n_tenants} tenants, "
            f"{gb:.1f} GiB embeddings)"
        )


#: The variant axes the example zoo cycles through: (dataset, table-rows
#: factor, pooling factor, table count) — a heavy ranking model, a
#: cooler mid-size model, a small hot candidate filter, a cold
#: long-tail retrieval model.  Distinct axes per Gupta et al.: what
#: makes co-location interference interesting is that the variants
#: stress HBM, SMs and cache capacity differently.
_EXAMPLE_VARIANTS = (
    ("med_hot", 1.0, 150, 250),
    ("high_hot", 0.5, 70, 120),
    ("low_hot", 0.75, 110, 180),
    ("random", 1.25, 40, 80),
)


def example_zoo(
    n_tenants: int,
    *,
    base_qps: float = 1000.0,
    duration_s: float = 8.0,
    sla_ms: float = 100.0,
    hbm_floor_fraction: float = 0.02,
    name: str | None = None,
) -> ZooSpec:
    """A representative ``n_tenants``-variant zoo for sweeps and tests.

    Tenants cycle through distinct (dataset, table size, pooling
    factor, table count) variants so no two stress the GPU the same
    way; every tenant offers stationary load at ``base_qps`` so
    consolidation sweeps change exactly one variable (the zoo size).
    """
    if n_tenants < 1:
        raise ValueError("n_tenants must be >= 1")
    tenants = []
    for i in range(n_tenants):
        dataset, rows_factor, pooling, tables = _EXAMPLE_VARIANTS[
            i % len(_EXAMPLE_VARIANTS)
        ]
        generation = i // len(_EXAMPLE_VARIANTS)
        model = replace(
            PAPER_MODEL,
            num_tables=tables,
            pooling_factor=pooling,
            table=PAPER_MODEL.table.scaled(rows_factor),
        )
        tenants.append(TenantSpec(
            name=f"{dataset}-v{generation}" if generation else dataset,
            model=model,
            dataset=dataset,
            scenario=StationarySpec(
                base_qps=base_qps, duration_s=duration_s
            ),
            sla_ms=sla_ms,
            hbm_floor_fraction=hbm_floor_fraction,
        ))
    return ZooSpec(
        name=name or f"zoo{n_tenants}", tenants=tuple(tenants)
    )
