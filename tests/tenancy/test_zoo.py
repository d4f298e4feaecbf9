"""Unit tests for TenantSpec / ZooSpec and the example-zoo factory."""

import pytest

from repro.tenancy import TenantSpec, ZooSpec, example_zoo
from repro.traffic.scenario import StationarySpec, derive_seed


def test_tenant_spec_validation():
    with pytest.raises(ValueError, match="name"):
        TenantSpec(name="")
    with pytest.raises(ValueError, match="dataset"):
        TenantSpec(name="t", dataset="nope")
    # the batcher's SLA rule; NaN used to pass a `<= 0` check
    for bad in (0.0, -5.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=rf"sla_ms .*{bad!r}"):
            TenantSpec(name="t", sla_ms=bad)
    with pytest.raises(ValueError, match="hbm_floor_fraction"):
        TenantSpec(name="t", hbm_floor_fraction=1.5)


def test_zoo_spec_validation():
    with pytest.raises(ValueError, match="at least one"):
        ZooSpec(name="z", tenants=())
    tenant = TenantSpec(name="t")
    with pytest.raises(ValueError, match="duplicate"):
        ZooSpec(name="z", tenants=(tenant, tenant))
    zoo = ZooSpec(name="z", tenants=(tenant,))
    with pytest.raises(KeyError, match="known"):
        zoo.tenant("other")
    assert zoo.tenant("t") is tenant
    assert zoo.n_tenants == 1
    assert zoo.total_table_bytes == tenant.table_bytes


def test_example_zoo_variants_are_distinct():
    zoo = example_zoo(4)
    assert zoo.n_tenants == 4
    shapes = {
        (t.dataset, t.model.table.rows, t.model.pooling_factor,
         t.model.num_tables)
        for t in zoo.tenants
    }
    assert len(shapes) == 4  # no two variants stress the GPU alike
    # a fifth tenant cycles the variants with a fresh name
    bigger = example_zoo(5)
    assert len(set(bigger.tenant_names)) == 5


def test_streams_are_independent_and_stable():
    zoo = example_zoo(3, base_qps=500.0, duration_s=2.0)
    streams = zoo.streams(seed=7)
    fingerprints = {
        name: s.fingerprint() for name, s in streams.items()
    }
    assert len(set(fingerprints.values())) == 3  # mutually distinct
    # adding a tenant must not perturb existing tenants' streams
    bigger = example_zoo(4, base_qps=500.0, duration_s=2.0)
    again = bigger.streams(seed=7)
    for name, fp in fingerprints.items():
        assert again[name].fingerprint() == fp


def test_derive_seed_is_stable_and_label_sensitive():
    assert derive_seed(0, "a") == derive_seed(0, "a")
    assert derive_seed(0, "a") != derive_seed(0, "b")
    assert derive_seed(0, "a") != derive_seed(1, "a")


def test_tenant_stream_uses_derived_seed():
    tenant = TenantSpec(
        name="t", scenario=StationarySpec(base_qps=300, duration_s=2.0)
    )
    direct = tenant.scenario.sample(derive_seed(11, "t"))
    assert tenant.stream(11).fingerprint() == direct.fingerprint()
