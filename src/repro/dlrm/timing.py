"""Roofline timing for the non-embedding stages + host-side costs.

The paper's object of study is the embedding kernel; the other three
stages are compute-bound GEMMs (prior work it cites) and are timed with
a standard roofline — ``max(flops / peak_flops, bytes / hbm_bw)`` per
layer — plus the host costs a real serving pipeline pays: PCIe transfer
of the batch inputs and per-kernel launch overhead.

Every function takes the batch size as a Python int or as a numpy
integer array; with an array each output is the array of per-batch
times, computed by the same IEEE operations as the scalar call, which
is how a whole batch-latency table is built in one evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config.gpu import GpuSpec
from repro.config.model import DLRMConfig
from repro.dlrm.interaction import interaction_output_dim

#: CUDA kernel launch overhead (host -> device, microseconds).
KERNEL_LAUNCH_US = 5.0

_FP32 = 4


def gemm_roofline_us(
    gpu: GpuSpec, batch: int, fan_in: int, fan_out: int
) -> float:
    """Roofline time of one dense layer on the full GPU."""
    flops = 2.0 * batch * fan_in * fan_out
    bytes_moved = _FP32 * (fan_in * fan_out + batch * (fan_in + fan_out))
    compute_s = flops / (gpu.fp32_tflops * 1e12)
    memory_s = bytes_moved / (gpu.hbm_bandwidth_gbps * 1e9)
    return 1e6 * np.maximum(compute_s, memory_s)


def mlp_us(gpu: GpuSpec, batch: int, dims: tuple[int, ...]) -> float:
    return sum(
        gemm_roofline_us(gpu, batch, fi, fo)
        for fi, fo in zip(dims, dims[1:])
    )


def interaction_us(gpu: GpuSpec, model: DLRMConfig, batch: int) -> float:
    """Pairwise-dot interaction: batched (n x d) @ (d x n) plus the
    concat read/write traffic."""
    n = model.num_tables + 1
    dim = model.table.dim
    flops = 2.0 * batch * n * n * dim
    out_dim = interaction_output_dim(model.num_tables, dim)
    bytes_moved = _FP32 * batch * (n * dim + out_dim + out_dim)
    compute_s = flops / (gpu.fp32_tflops * 1e12)
    memory_s = bytes_moved / (gpu.hbm_bandwidth_gbps * 1e9)
    return 1e6 * np.maximum(compute_s, memory_s)


def input_transfer_us(gpu: GpuSpec, model: DLRMConfig, batch: int) -> float:
    """PCIe time to ship one batch's inputs to the device: int64
    indices + offsets for every table, plus the dense features."""
    idx_bytes = 8 * batch * model.pooling_factor * model.num_tables
    off_bytes = 8 * (batch + 1) * model.num_tables
    dense_bytes = _FP32 * batch * model.dense_features
    return 1e6 * (idx_bytes + off_bytes + dense_bytes) / (gpu.pcie_gbps * 1e9)


@dataclass(frozen=True)
class NonEmbeddingTiming:
    """Per-stage latency of everything except the embedding stage (us)."""

    input_transfer_us: float
    bottom_mlp_us: float
    interaction_us: float
    top_mlp_us: float
    launch_us: float

    @property
    def total_us(self) -> float:
        return (
            self.input_transfer_us
            + self.bottom_mlp_us
            + self.interaction_us
            + self.top_mlp_us
            + self.launch_us
        )


def non_embedding_time(
    gpu: GpuSpec, model: DLRMConfig, *, batch_size: int | None = None
) -> NonEmbeddingTiming:
    """Latency of the three dense stages + host costs, full-chip model."""
    batch = model.batch_size if batch_size is None else batch_size
    bottom_dims = model.bottom_mlp_dims
    top_in = interaction_output_dim(model.num_tables, model.table.dim)
    top_dims = (top_in, *model.top_mlp_dims)
    n_kernels = (len(bottom_dims) - 1) + 1 + (len(top_dims) - 1)
    return NonEmbeddingTiming(
        input_transfer_us=input_transfer_us(gpu, model, batch),
        bottom_mlp_us=mlp_us(gpu, batch, bottom_dims),
        interaction_us=interaction_us(gpu, model, batch),
        top_mlp_us=mlp_us(gpu, batch, top_dims),
        launch_us=KERNEL_LAUNCH_US * n_kernels,
    )
