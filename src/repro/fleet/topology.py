"""Fleet topology: heterogeneous replica groups behind one router.

Production recommendation inference is not one GPU but a *fleet*: a
router fans a shared query stream out to replicas that may differ in
GPU generation (A100 next to H100), in the optimization scheme their
kernels were built with, and in their batching policy.  A
:class:`ReplicaSpec` captures one replica's configuration and a
:class:`FleetSpec` the whole cluster, including the relative cost of
each accelerator so capacity numbers can be normalized to spend
(QPS per cost unit), not just to GPU count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config.gpu import A100_SXM4_80GB, H100_NVL, GpuSpec
from repro.core.schemes import BASE, Scheme
from repro.core.serving import BatchingPolicy, ContinuousBatching

#: Relative accelerator cost, normalized to the A100 (approximate public
#: cloud on-demand price ratio).  Unknown GPUs default to 1.0.
GPU_COST_UNITS: dict[str, float] = {
    A100_SXM4_80GB.name: 1.0,
    H100_NVL.name: 1.9,
}


@dataclass(frozen=True)
class ReplicaSpec:
    """One serving replica: a GPU, a kernel scheme, and a batcher."""

    name: str
    gpu: GpuSpec
    scheme: Scheme = BASE
    batching: BatchingPolicy | ContinuousBatching = field(
        default_factory=BatchingPolicy
    )

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("replica name must be non-empty")
        if not isinstance(self.batching, (BatchingPolicy, ContinuousBatching)):
            raise TypeError(
                f"replica {self.name!r}: batching must be a BatchingPolicy "
                f"or ContinuousBatching, got {self.batching!r}"
            )

    @property
    def cost_units(self) -> float:
        return GPU_COST_UNITS.get(self.gpu.name, 1.0)


@dataclass(frozen=True)
class FleetSpec:
    """A named collection of (possibly heterogeneous) replicas."""

    name: str
    replicas: tuple[ReplicaSpec, ...]

    def __post_init__(self) -> None:
        if not self.replicas:
            raise ValueError("fleet must have at least one replica")
        names = [r.name for r in self.replicas]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate replica names in fleet: {names}")

    @property
    def n_replicas(self) -> int:
        return len(self.replicas)

    @property
    def gpu_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for replica in self.replicas:
            counts[replica.gpu.name] = counts.get(replica.gpu.name, 0) + 1
        return counts

    @property
    def cost_units(self) -> float:
        """Total fleet cost in A100-equivalents."""
        return sum(r.cost_units for r in self.replicas)

    @property
    def is_heterogeneous(self) -> bool:
        return len({r.gpu.name for r in self.replicas}) > 1

    def describe(self) -> str:
        gpus = " + ".join(
            f"{count}x{name}" for name, count in sorted(self.gpu_counts.items())
        )
        return f"{self.name} ({gpus}, {self.cost_units:.1f} cost units)"

    @classmethod
    def homogeneous(
        cls,
        gpu: GpuSpec,
        n_replicas: int,
        *,
        name: str | None = None,
        scheme: Scheme = BASE,
        batching: BatchingPolicy | ContinuousBatching | None = None,
    ) -> "FleetSpec":
        """``n_replicas`` identical replicas of one GPU type."""
        return cls.mixed(
            [(gpu, n_replicas)], name=name, scheme=scheme,
            batching=batching,
        )

    @classmethod
    def mixed(
        cls,
        counts: dict[GpuSpec, int] | list[tuple[GpuSpec, int]],
        *,
        name: str | None = None,
        scheme: Scheme = BASE,
        batching: BatchingPolicy | ContinuousBatching | None = None,
    ) -> "FleetSpec":
        """A heterogeneous fleet, e.g. ``{A100: 2, H100: 2}``."""
        pairs = list(counts.items()) if isinstance(counts, dict) else counts
        batching = batching or BatchingPolicy()
        replicas = []
        for gpu, count in pairs:
            if count < 1:
                raise ValueError(f"replica count for {gpu.name} must be >= 1")
            replicas.extend(
                ReplicaSpec(
                    name=f"{gpu.name}/{i}",
                    gpu=gpu,
                    scheme=scheme,
                    batching=batching,
                )
                for i in range(count)
            )
        auto_name = "+".join(f"{c}x{g.name}" for g, c in pairs)
        return cls(name=name or auto_name, replicas=tuple(replicas))
