"""Cluster-scale serving: heterogeneous fleets, routing, placement.

Composes the single-GPU pieces (kernel simulator, batching, serving)
into a discrete-event cluster simulator: a :class:`FleetSpec` of mixed
A100/H100 replicas, a router with pluggable load-balancing policies,
table placement (model-parallel sharding, unequal and tiered GPUs),
and capacity planning (max QPS at SLA, replicas-needed, autoscaler
sweeps).
"""

from repro.fleet.capacity import (
    autoscaler_sweep,
    calibrated_latency_model,
    fleet_max_sustainable_qps,
    linear_latency_model,
    replicas_needed,
    tiered_fleet_models,
    tiered_latency_model,
)
from repro.fleet.placement import (
    DistributedStageResult,
    HeteroPlacement,
    HeteroShard,
    TieredPlacement,
    TieredShard,
    ZooPlacement,
    ZooShard,
    hetero_lpt_shard,
    measure_table_times,
    place_tables,
    place_tables_tiered,
    place_zoo,
    run_distributed_stage,
)
from repro.fleet.report import (
    FleetReport,
    build_fleet_report,
    phase_breakdown,
)
from repro.fleet.router import (
    ROUTING_POLICIES,
    JoinShortestQueuePolicy,
    LeastLatencyPolicy,
    PowerOfTwoPolicy,
    RoundRobinPolicy,
    RouterState,
    RoutingPolicy,
    resolve_policy,
    simulate_fleet,
    simulate_fleet_stream,
    simulate_fleet_tenant_streams,
    subfleet,
)
from repro.fleet.topology import (
    GPU_COST_UNITS,
    FleetSpec,
    ReplicaSpec,
)

__all__ = [
    "GPU_COST_UNITS",
    "ROUTING_POLICIES",
    "DistributedStageResult",
    "FleetReport",
    "FleetSpec",
    "HeteroPlacement",
    "HeteroShard",
    "JoinShortestQueuePolicy",
    "LeastLatencyPolicy",
    "PowerOfTwoPolicy",
    "ReplicaSpec",
    "RoundRobinPolicy",
    "RouterState",
    "RoutingPolicy",
    "TieredPlacement",
    "TieredShard",
    "ZooPlacement",
    "ZooShard",
    "autoscaler_sweep",
    "build_fleet_report",
    "calibrated_latency_model",
    "fleet_max_sustainable_qps",
    "hetero_lpt_shard",
    "linear_latency_model",
    "measure_table_times",
    "phase_breakdown",
    "place_tables",
    "place_tables_tiered",
    "place_zoo",
    "replicas_needed",
    "resolve_policy",
    "run_distributed_stage",
    "simulate_fleet",
    "simulate_fleet_stream",
    "simulate_fleet_tenant_streams",
    "subfleet",
    "tiered_fleet_models",
    "tiered_latency_model",
]
