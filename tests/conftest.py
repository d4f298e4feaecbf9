"""Shared test fixtures: small, fast workloads on a 2-SM GPU slice."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.config.gpu import A100_SXM4_80GB, H100_NVL
from repro.config.model import DLRMConfig, EmbeddingTableConfig
from repro.config.scale import SimScale
from repro.core.embedding import KernelWorkload
from repro.datasets.generator import generate_trace
from repro.datasets.spec import HOTNESS_PRESETS
from repro.telemetry.events import FleetRun


@pytest.fixture(scope="session")
def tiny_gpu():
    """A 2-SM slice of the A100 for fast engine tests."""
    return A100_SXM4_80GB.scaled_slice(2)


@pytest.fixture(scope="session")
def tiny_h100():
    return H100_NVL.scaled_slice(2)


@pytest.fixture(scope="session")
def tiny_workload(tiny_gpu):
    """A small but non-trivial kernel workload (fast to simulate)."""
    return KernelWorkload(
        gpu=tiny_gpu,
        full_gpu=A100_SXM4_80GB,
        factor=2 / 108,
        batch_size=16,
        pooling_factor=24,
        table_rows=4096,
        row_bytes=512,
    )


@pytest.fixture(scope="session")
def small_model():
    """A functional-scale DLRM config (materializable weights)."""
    return DLRMConfig(
        num_tables=6,
        table=EmbeddingTableConfig(rows=512, dim=32),
        batch_size=12,
        pooling_factor=8,
        bottom_mlp_dims=(16, 32, 32),
        dense_features=16,
        top_mlp_dims=(32, 16, 1),
    )


@pytest.fixture(scope="session")
def test_scale():
    return SimScale(name="unit", num_sms=2)


def make_trace(name="random", batch=16, pooling=24, rows=4096, seed=0):
    return generate_trace(
        HOTNESS_PRESETS[name],
        batch_size=batch,
        pooling_factor=pooling,
        table_rows=rows,
        seed=seed,
    )


@pytest.fixture
def trace_factory():
    return make_trace


def _blocks(run):
    batches = run.replicas if isinstance(run, FleetRun) else [run.batches]
    return [run.arrivals, *batches]


def assert_same_run(run, expected) -> None:
    """``run`` equals ``expected`` exactly: the same meta items in the
    same key order, and every block column with the same dtype, shape
    and bytes."""
    assert type(run) is type(expected)
    assert list(run.meta.items()) == list(expected.meta.items())
    got, want = _blocks(run), _blocks(expected)
    assert len(got) == len(want)
    for block, other in zip(got, want):
        assert type(block) is type(other)
        for field in dataclasses.fields(block):
            a, b = getattr(block, field.name), getattr(other, field.name)
            if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
                assert (a.dtype, a.shape) == (b.dtype, b.shape), field.name
                assert a.tobytes() == b.tobytes(), field.name
            else:
                assert a == b, field.name
