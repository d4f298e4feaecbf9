"""LatencyCurve tables: equivalence with the scalar forms, validation.

The table builders and combinators must reproduce, bit for bit, the
scalar formulas the serving layers used to evaluate per call.  Those
scalar forms are kept here as the reference — the dense-stage roofline
with Python ``max``, scalar ``np.interp``, the host-tier and contention
wrappers, and the hand-rolled binary search the SLA-adaptive batcher
used — and every comparison is exact ``==``.
"""

from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config.gpu import A100_SXM4_80GB, H100_NVL
from repro.config.model import PAPER_MODEL
from repro.core.curve import MAX_BATCH, LatencyCurve, as_curve
from repro.dlrm.interaction import interaction_output_dim
from repro.dlrm.timing import KERNEL_LAUNCH_US
from repro.fleet.capacity import linear_latency_model, tiered_latency_model
from repro.tenancy.share import shared_latency_model
from repro.tenancy.zoo import example_zoo
from repro.traffic.serve import scaled_latency_models

SETTINGS = dict(max_examples=60, deadline=None, derandomize=True)
BATCHES = range(1, MAX_BATCH + 1)


# ----------------------------------------------------------------------
# the scalar reference forms
# ----------------------------------------------------------------------
def _gemm_us(gpu, batch, fan_in, fan_out):
    flops = 2.0 * batch * fan_in * fan_out
    bytes_moved = 4 * (fan_in * fan_out + batch * (fan_in + fan_out))
    compute_s = flops / (gpu.fp32_tflops * 1e12)
    memory_s = bytes_moved / (gpu.hbm_bandwidth_gbps * 1e9)
    return 1e6 * max(compute_s, memory_s)


def _mlp_us(gpu, batch, dims):
    return sum(_gemm_us(gpu, batch, fi, fo) for fi, fo in zip(dims, dims[1:]))


def _interaction_us(gpu, model, batch):
    n = model.num_tables + 1
    dim = model.table.dim
    flops = 2.0 * batch * n * n * dim
    out_dim = interaction_output_dim(model.num_tables, dim)
    bytes_moved = 4 * batch * (n * dim + out_dim + out_dim)
    compute_s = flops / (gpu.fp32_tflops * 1e12)
    memory_s = bytes_moved / (gpu.hbm_bandwidth_gbps * 1e9)
    return 1e6 * max(compute_s, memory_s)


def _transfer_us(gpu, model, batch):
    idx_bytes = 8 * batch * model.pooling_factor * model.num_tables
    off_bytes = 8 * (batch + 1) * model.num_tables
    dense_bytes = 4 * batch * model.dense_features
    return 1e6 * (idx_bytes + off_bytes + dense_bytes) / (gpu.pcie_gbps * 1e9)


def _non_embedding_us(gpu, model, batch):
    bottom_dims = model.bottom_mlp_dims
    top_dims = (
        interaction_output_dim(model.num_tables, model.table.dim),
        *model.top_mlp_dims,
    )
    n_kernels = (len(bottom_dims) - 1) + 1 + (len(top_dims) - 1)
    return (
        _transfer_us(gpu, model, batch)
        + _mlp_us(gpu, batch, bottom_dims)
        + _interaction_us(gpu, model, batch)
        + _mlp_us(gpu, batch, top_dims)
        + KERNEL_LAUNCH_US * n_kernels
    )


def _linear_ms(gpu, model, emb_us, emb_batch, batch):
    emb = emb_us * batch / emb_batch
    return (emb + _non_embedding_us(gpu, model, batch)) / 1e3


def _fits_within_reference(exec_ms, size, budget_ms):
    """The batcher's former binary search: largest batch in [1, size]
    with ``exec_ms(batch) <= budget_ms`` (0 if none)."""
    if exec_ms(size) <= budget_ms:
        return size
    if exec_ms(1) > budget_ms:
        return 0
    lo, hi = 1, size
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if exec_ms(mid) <= budget_ms:
            lo = mid
        else:
            hi = mid
    return lo


def _toy(batch):
    return 10.0 + 0.01 * batch


_MODELS = [("paper", PAPER_MODEL)] + [
    (t.name, t.model) for t in example_zoo(4).tenants
]


# ----------------------------------------------------------------------
# equivalence with the scalar forms
# ----------------------------------------------------------------------
@pytest.mark.parametrize("gpu", [A100_SXM4_80GB, H100_NVL], ids=lambda g: g.name)
@pytest.mark.parametrize("label,model", _MODELS, ids=[m[0] for m in _MODELS])
def test_linear_table_matches_scalar_roofline(gpu, label, model):
    emb_us = 37_123.25
    # the model's own batch anchors the harness curves; an anchor that
    # is not a power of two also pins the order of the scaling ops
    for emb_batch in (model.batch_size, 1000):
        curve = linear_latency_model(
            gpu, emb_us=emb_us, emb_batch=emb_batch, model=model,
        )
        assert curve.max_batch == MAX_BATCH
        expected = [
            _linear_ms(gpu, model, emb_us, emb_batch, b) for b in BATCHES
        ]
        assert curve.ms[1:].tolist() == expected


@pytest.mark.parametrize("points", [
    ([512, 2048], [30.0, 90.0]),
    ([2048, 1, 512], [90.5, 3.25, 31.0]),
    ([1000], [7.0]),
    ([1, 3, 4096, 16384], [0.1, 0.3000001, 55.5, 56.0]),
])
def test_from_points_matches_scalar_interp(points):
    sizes, lats = points
    curve = LatencyCurve.from_points(sizes, lats)
    order = np.argsort(np.asarray(sizes, dtype=float))
    xp = np.asarray(sizes, dtype=float)[order]
    fp = np.asarray(lats, dtype=float)[order]
    expected = [float(np.interp(b, xp, fp)) for b in BATCHES]
    assert curve.ms[1:].tolist() == expected


def _base_curve():
    return linear_latency_model(
        A100_SXM4_80GB, emb_us=41_000.0, emb_batch=2048,
    )


@pytest.mark.parametrize("us", [0.37, 12.5, 250.0])
def test_plus_per_query_matches_scalar_wrapper(us):
    base = _base_curve()
    tiered = base.plus_per_query(us)
    expected = [base(b) + us * b / 1e3 for b in BATCHES]
    assert tiered.ms[1:].tolist() == expected
    assert tiered_latency_model(base, host_us_per_query=us).ms.tolist() \
        == tiered.ms.tolist()


@pytest.mark.parametrize("factor", [1.0000001, 1.37, 2.5])
def test_scaled_matches_scalar_wrapper(factor):
    base = _base_curve()
    scaled = base.scaled(factor)
    expected = [base(b) * factor for b in BATCHES]
    assert scaled.ms[1:].tolist() == expected
    assert shared_latency_model(base, factor).ms.tolist() \
        == scaled.ms.tolist()
    assert scaled_latency_models(base, (factor,))[0].ms.tolist() \
        == scaled.ms.tolist()


def test_stacked_combinators_match_stacked_closures():
    """The tenancy stack: linear -> host tier -> contention."""
    base = _base_curve()
    curve = base.plus_per_query(3.5).scaled(1.25)
    expected = [(base(b) + 3.5 * b / 1e3) * 1.25 for b in BATCHES]
    assert curve.ms[1:].tolist() == expected


def test_from_fn_tabulates_plain_callable():
    curve = LatencyCurve.from_fn(_toy, 4096)
    assert curve.max_batch == 4096
    assert curve.ms[1:].tolist() == [_toy(b) for b in range(1, 4097)]
    assert "_toy" in repr(curve)


def test_identity_shortcuts():
    base = _base_curve()
    assert base.scaled(1.0) is base
    assert base.plus_per_query(0) is base
    assert shared_latency_model(base, 1.0) is base
    assert tiered_latency_model(base, host_us_per_query=0.0) is base


def test_table_is_read_only_and_call_matches_index():
    base = _base_curve()
    with pytest.raises(ValueError):
        base.ms[5] = 1.0
    assert base(2048) == base.ms[2048]
    assert base(np.int64(7)) == base.ms[7]
    assert base.ms[0] == 0.0


@st.composite
def _tables(draw):
    n = draw(st.integers(1, 300))
    steps = draw(st.lists(
        st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.75, 100.0]),
        min_size=n, max_size=n,
    ))
    start = draw(st.floats(0.01, 50.0))
    return np.concatenate([[0.0], start + np.cumsum(steps)])


@given(table=_tables(), data=st.data())
@settings(**SETTINGS)
def test_fits_within_equals_binary_search(table, data):
    """The SLA-adaptive batcher's search over the validated table list
    (``core.serving._adaptive_batch``) finds the largest batch that
    fits a budget, as the former binary search did."""
    curve = LatencyCurve(table, "random")
    size = data.draw(st.integers(1, curve.max_batch), label="size")
    budget = data.draw(st.one_of(
        st.floats(-1.0, float(table[-1]) + 10.0),
        st.sampled_from([float(v) for v in table[1:]]),
    ), label="budget")
    ms = curve.ms.tolist()
    assert bisect_right(ms, budget, 1, size + 1) - 1 == \
        _fits_within_reference(curve, size, budget)


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------
def test_dropping_curve_names_batch_sizes():
    with pytest.raises(ValueError, match=r"non-decreasing.*512->513"):
        LatencyCurve.from_fn(lambda b: 5.0 if b == 513 else 6.0, 1024)
    # a non-monotone calibration is refused, not silently accepted
    with pytest.raises(ValueError, match=r"points\(.*drops at batch sizes 2->3"):
        LatencyCurve.from_points([1, 2, 4], [1.0, 3.0, 2.0])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
def test_non_finite_or_non_positive_entry_names_batch(bad):
    with pytest.raises(ValueError, match=r"finite and > 0.*\b7 \("):
        LatencyCurve.from_fn(lambda b: bad if b == 7 else 1.0 + b, 64)


def test_batch_outside_domain_raises():
    curve = LatencyCurve.from_fn(_toy, 64)
    for batch in (0, 65, -3):
        with pytest.raises(ValueError, match=rf"batch size {batch}.*1\.\.64"):
            curve(batch)
    full = _base_curve()
    with pytest.raises(ValueError, match=rf"1\.\.{MAX_BATCH}"):
        full(MAX_BATCH + 1)
    with pytest.raises(ValueError, match=rf"max_batch must be in 1\.\.{MAX_BATCH}"):
        LatencyCurve.from_fn(_toy, MAX_BATCH + 1)


def test_short_curve_refused_by_policy_domain():
    curve = LatencyCurve.from_fn(_toy, 1024)
    assert as_curve(curve, 1024) is curve
    with pytest.raises(ValueError, match=r"1\.\.1024.*up to 2048"):
        as_curve(curve, 2048)


def test_as_curve_tabulates_each_callable_once():
    calls = []

    def counted(batch):
        calls.append(batch)
        return _toy(batch)

    seen = {}
    first = as_curve(counted, 256, seen)
    assert as_curve(counted, 128, seen) is first
    assert len(calls) == 256
    with pytest.raises(TypeError, match="LatencyCurve or a callable"):
        as_curve(3.5, 16)
