"""Routed fleet simulation: policies, dispatch semantics, consistency."""

import dataclasses

import numpy as np
import pytest

from repro.config.gpu import A100_SXM4_80GB, H100_NVL
from repro.core.curve import LatencyCurve
from repro.core.serving import BatchingPolicy, serve_stream, simulate_serving
from repro.fleet.router import (
    ROUTING_POLICIES,
    JoinShortestQueuePolicy,
    LeastLatencyPolicy,
    PowerOfTwoPolicy,
    RoutingPolicy,
    resolve_policy,
    simulate_fleet,
    simulate_fleet_stream,
    simulate_fleet_tenant_streams,
    subfleet,
)
from repro.fleet.topology import FleetSpec
from repro.telemetry.sinks import CaptureSink
from repro.traffic.scenario import (
    FlashCrowdSpec,
    StationarySpec,
    generate_arrivals,
)
from tests.conftest import assert_same_run


def a100_model(batch):
    return 12.0 + 0.010 * batch


def h100_model(batch):
    return 7.0 + 0.0055 * batch


MODELS = {A100_SXM4_80GB.name: a100_model, H100_NVL.name: h100_model}
POLICY = BatchingPolicy(max_batch=256, timeout_ms=5.0)


def homo_fleet(n=2):
    return FleetSpec.homogeneous(A100_SXM4_80GB, n, batching=POLICY)


def mixed_fleet():
    return FleetSpec.mixed(
        {A100_SXM4_80GB: 2, H100_NVL: 2}, batching=POLICY
    )


class TestPolicyResolution:
    def test_all_registered_policies_resolve(self):
        for name in ROUTING_POLICIES:
            assert resolve_policy(name).name == name

    def test_instance_passthrough(self):
        policy = JoinShortestQueuePolicy()
        assert resolve_policy(policy) is policy

    def test_unknown_policy_raises(self):
        with pytest.raises(ValueError, match="unknown routing policy"):
            resolve_policy("random-spray")


class TestSimulateFleet:
    def test_single_replica_matches_single_gpu_simulation(self):
        """A 1-replica fleet is exactly the core serving simulator."""
        fleet = homo_fleet(1)
        fleet_report = simulate_fleet(
            fleet, MODELS, qps=2000, duration_s=2.0, seed=5,
        )
        solo = simulate_serving(
            a100_model, qps=2000, duration_s=2.0, policy=POLICY, seed=5,
        )
        assert fleet_report.p99_ms == pytest.approx(solo.p99_ms)
        assert fleet_report.p50_ms == pytest.approx(solo.p50_ms)

    def test_deterministic_by_seed(self):
        a = simulate_fleet(mixed_fleet(), MODELS, qps=3000, seed=7,
                           duration_s=1.0)
        b = simulate_fleet(mixed_fleet(), MODELS, qps=3000, seed=7,
                           duration_s=1.0)
        assert a.p99_ms == b.p99_ms
        assert a.n_queries == b.n_queries

    def test_round_robin_splits_evenly(self):
        report = simulate_fleet(
            homo_fleet(4), MODELS, qps=4000, duration_s=1.0,
            policy="round-robin",
        )
        counts = [r.n_queries for r in report.replica_reports]
        assert max(counts) - min(counts) <= 1

    def test_jsq_shifts_load_to_faster_replicas(self):
        report = simulate_fleet(
            mixed_fleet(), MODELS, qps=12_000, duration_s=2.0,
            policy="jsq",
        )
        fractions = report.routed_fractions
        a100 = fractions[f"{A100_SXM4_80GB.name}/0"]
        h100 = fractions[f"{H100_NVL.name}/0"]
        assert h100 > a100

    def test_jsq_beats_round_robin_tail_on_mixed_fleet_at_load(self):
        kwargs = dict(qps=18_000, duration_s=2.0, seed=2)
        rr = simulate_fleet(
            mixed_fleet(), MODELS, policy="round-robin", **kwargs,
        )
        jsq = simulate_fleet(mixed_fleet(), MODELS, policy="jsq", **kwargs)
        assert jsq.p99_ms < rr.p99_ms

    def test_full_batches_dispatch_early(self):
        """Under heavy load batches fill to max_batch, never beyond."""
        report = simulate_fleet(
            homo_fleet(1), MODELS, qps=50_000, duration_s=0.5,
        )
        sizes = report.replica_reports[0].mean_batch_size
        assert 0 < sizes <= POLICY.max_batch

    def test_all_queries_served(self):
        report = simulate_fleet(
            mixed_fleet(), MODELS, qps=2000, duration_s=1.0,
        )
        assert report.n_queries == 2000
        assert sum(r.n_queries for r in report.replica_reports) == 2000

    def test_percentiles_ordered(self):
        report = simulate_fleet(mixed_fleet(), MODELS, qps=3000,
                                duration_s=1.0)
        assert report.p50_ms <= report.p95_ms <= report.p99_ms

    def test_power_of_two_and_least_latency_run(self):
        for policy in ("power-of-two", "least-latency"):
            report = simulate_fleet(
                mixed_fleet(), MODELS, qps=2000, duration_s=0.5,
                policy=policy,
            )
            assert report.policy == policy
            assert report.n_queries == 1000

    def test_latency_model_by_replica_name_wins(self):
        fleet = homo_fleet(2)
        models = {
            fleet.replicas[0].name: lambda b: 1.0,
            fleet.replicas[1].name: lambda b: 1.0,
            A100_SXM4_80GB.name: lambda b: 1e6,  # would dominate if used
        }
        report = simulate_fleet(fleet, models, qps=500, duration_s=0.5)
        assert report.p99_ms < 100.0

    def test_missing_latency_model_raises(self):
        with pytest.raises(KeyError, match="no latency model"):
            simulate_fleet(mixed_fleet(), {A100_SXM4_80GB.name: a100_model},
                           qps=100)

    def test_invalid_qps_rejected(self):
        with pytest.raises(ValueError):
            simulate_fleet(homo_fleet(), MODELS, qps=0)


class TestTenantStreams:
    def test_each_tenant_is_served_by_simulate_fleet_stream(self):
        """Every tenant's run is the run ``simulate_fleet_stream`` emits
        for that tenant alone on its replicas, tagged with
        ``meta["tenant"]`` as its last key."""
        fleet = mixed_fleet()
        h100s = [r.name for r in fleet.replicas if r.gpu is H100_NVL]
        streams = {
            "ads": generate_arrivals(FlashCrowdSpec(
                base_qps=800.0, duration_s=1.0, spike_at_s=0.4,
                magnitude=3.0, ramp_s=0.05, decay_s=0.15,
            ), 1),
            "feed": generate_arrivals(
                StationarySpec(base_qps=1500.0, duration_s=1.0), 2
            ),
            "search": generate_arrivals(
                StationarySpec(base_qps=600.0, duration_s=1.0), 3
            ),
        }
        models = {
            "ads": MODELS,
            "feed": {A100_SXM4_80GB.name: lambda b: 9.0 + 0.02 * b,
                     H100_NVL.name: lambda b: 5.0 + 0.01 * b},
            "search": MODELS,
        }
        assignments = {"feed": h100s}
        slas = {"ads": 40.0, "feed": 20.0, "search": None}
        capture = CaptureSink()
        reports = simulate_fleet_tenant_streams(
            fleet, models, streams, assignments=assignments,
            policy="power-of-two", sla_ms=slas, seed=5, sink=capture,
        )
        assert list(reports) == list(streams)
        assert [run.meta["tenant"] for run in capture.runs] == list(streams)
        every = [r.name for r in fleet.replicas]
        for name, run in zip(streams, capture.runs):
            alone = CaptureSink()
            report = simulate_fleet_stream(
                subfleet(fleet, assignments.get(name, every)),
                models[name], streams[name], policy="power-of-two",
                sla_ms=slas[name], seed=5, sink=alone,
            )
            (solo,) = alone.runs
            assert_same_run(run, dataclasses.replace(
                solo, meta={**solo.meta, "tenant": name},
            ))
            assert reports[name] == report
        assert [r.scheme_name for r in reports["feed"].replica_reports] \
            == h100s


class _Stream:
    """A ScenarioTrace-shaped stream with none of its own checks."""

    def __init__(self, name, phase_ids, duration_s=1.0):
        self.name = name
        self.times = np.linspace(0.0, 0.5, 20)
        self.phase_ids = np.asarray(phase_ids)
        self.phases = ("a", "b")
        self.phase_durations = (0.5, 0.5)
        self.duration_s = duration_s


def _serve(entry, stream, **kwargs):
    if entry == "serve_stream":
        return serve_stream(a100_model, stream, policy=POLICY, **kwargs)
    return simulate_fleet_stream(homo_fleet(), MODELS, stream, **kwargs)


#: Both stream entry points validate through one check.
ENTRY_POINTS = ("serve_stream", "simulate_fleet_stream")


class TestBoundaryValidation:
    """Bad inputs fail at the fleet entry points (and, through the one
    stream check, at ``serve_stream``) instead of turning into wrong
    numbers."""

    def _stream(self):
        return generate_arrivals(
            StationarySpec(base_qps=1000, duration_s=1.0), seed=0
        )

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_zero_duration_raises(self, entry):
        stream = _Stream("instant", [0] * 20, duration_s=0.0)
        with pytest.raises(
            ValueError, match=r"'instant' needs a positive duration_s"
        ):
            _serve(entry, stream)

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_negative_phase_id_raises(self, entry):
        ids = [0] * 10 + [1] * 10
        ids[4] = -1
        with pytest.raises(
            ValueError, match=r"'minus': phase id at index 4 is -1"
        ):
            _serve(entry, _Stream("minus", ids))

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_phase_id_past_the_end_raises(self, entry):
        ids = [0] * 10 + [1] * 10
        ids[13] = 2
        with pytest.raises(
            ValueError,
            match=r"'past': phase id at index 13 is 2, outside its 2 phases",
        ):
            _serve(entry, _Stream("past", ids))

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_phase_ids_not_aligned_raise(self, entry):
        with pytest.raises(
            ValueError, match=r"'short' has 19 phase ids for 20 arrivals"
        ):
            _serve(entry, _Stream("short", [0] * 19))

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_phase_ids_must_be_integers(self, entry):
        # a float id used to die on a list index (serve_stream) or be
        # served (the fleet)
        with pytest.raises(
            ValueError,
            match=r"'float': phase ids must be integers, got float64",
        ):
            _serve(entry, _Stream("float", [0.0] * 20))

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("bad", [float("nan"), -5.0, 0.0])
    def test_sla_must_be_finite_and_positive(self, entry, bad):
        # used to report goodput 0.0 and sla_hit_pct 0.0
        with pytest.raises(
            ValueError,
            match=rf"sla_ms must be a finite number > 0 or None, got {bad!r}",
        ):
            _serve(entry, _Stream("sla", [0] * 20), sla_ms=bad)

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("bad", [float("nan"), 1.5, -0.1])
    def test_hit_rates_must_be_in_unit_interval(self, entry, bad):
        # used to report the rate itself (NaN, 1.5) as the hit rate
        with pytest.raises(
            ValueError, match=rf"phase 'a': hit rate must be in \[0, 1\], "
                              rf"got {bad!r}",
        ):
            _serve(entry, _Stream("rates", [0] * 10 + [1] * 10),
                   phase_hit_rates=(bad, bad))
        with pytest.raises(ValueError, match=r"phase 'b': hit rate"):
            _serve(entry, _Stream("rates", [0] * 10 + [1] * 10),
                   phase_hit_rates=(0.5, bad))

    @pytest.mark.parametrize("field, bad", [
        ("qps", float("nan")), ("qps", float("inf")), ("qps", 0.0),
        ("duration_s", -5.0), ("duration_s", 0.0),
        ("duration_s", float("nan")), ("duration_s", float("inf")),
    ])
    def test_poisson_inputs_must_be_finite_and_positive(self, field, bad):
        # a non-positive duration used to route a one-query run
        with pytest.raises(
            ValueError,
            match=rf"{field} must be a finite number > 0, got {bad!r}",
        ):
            simulate_fleet(mixed_fleet(), MODELS,
                           **{"qps": 100.0, field: bad})

    def test_unsorted_arrivals_raise(self):
        stream = self._stream()
        shuffled = dataclasses.replace(
            stream, name="shuffled",
            times=np.random.default_rng(0).permutation(stream.times),
        )
        match = r"arrival stream 'shuffled' is not sorted: index \d+"
        with pytest.raises(ValueError, match=match):
            simulate_fleet_stream(mixed_fleet(), MODELS, shuffled)
        with pytest.raises(ValueError, match=match):
            simulate_fleet_tenant_streams(
                mixed_fleet(), {"t": MODELS}, {"t": shuffled},
            )

    def test_nan_arrival_raises(self):
        stream = self._stream()
        times = stream.times.copy()
        times[17] = np.nan
        broken = dataclasses.replace(stream, name="holey", times=times)
        with pytest.raises(
            ValueError, match=r"'holey': time at index 17 is nan"
        ):
            simulate_fleet_stream(homo_fleet(), MODELS, broken)

    def test_curve_shorter_than_replica_batch_raises(self):
        short = LatencyCurve.from_fn(a100_model, POLICY.max_batch - 1)
        with pytest.raises(ValueError, match=r"1\.\.255.*up to 256"):
            simulate_fleet_stream(
                homo_fleet(), {A100_SXM4_80GB.name: short}, self._stream(),
            )

    def test_shared_callable_tabulated_once_per_call(self):
        calls = []

        def counted(batch):
            calls.append(batch)
            return a100_model(batch)

        simulate_fleet(
            homo_fleet(8), {A100_SXM4_80GB.name: counted},
            qps=500, duration_s=0.2,
        )
        assert calls == list(range(1, POLICY.max_batch + 1))

    def test_table_and_callable_route_identically(self):
        stream = self._stream()
        tables = {
            name: LatencyCurve.from_fn(model, POLICY.max_batch)
            for name, model in MODELS.items()
        }
        for policy in ROUTING_POLICIES:
            assert simulate_fleet_stream(
                mixed_fleet(), tables, stream, policy=policy,
            ) == simulate_fleet_stream(
                mixed_fleet(), MODELS, stream, policy=policy,
            )


class _PicksPerArrival(RoutingPolicy):
    """Cycles through the replicas, then returns ``bad`` at arrival 5."""

    name = "picky"

    def __init__(self, bad):
        self.bad = bad

    def select(self, state, now, k):
        return self.bad if k == 5 else k % len(state.depth)


class _AssignsUpFront(RoutingPolicy):
    """Hands the router a fixed up-front assignment."""

    name = "up-front"

    def __init__(self, assign):
        self.assign = assign

    def start(self, n_replicas, n_arrivals, rng):
        return self.assign(n_replicas, n_arrivals)


class TestPolicyChoiceBoundary:
    """The router checks every replica index a policy hands it, per
    arrival and up front, against a 4-replica fleet."""

    def _route(self, policy):
        return simulate_fleet(
            mixed_fleet(), MODELS, qps=1000, duration_s=0.05, policy=policy,
        )

    def test_negative_choice_raises(self):
        # an unchecked -1 would index the last replica
        with pytest.raises(
            ValueError,
            match=r"routing policy 'picky' chose replica -1 for arrival 5; "
                  r"the fleet has 4 replicas 0\.\.3",
        ):
            self._route(_PicksPerArrival(-1))

    def test_choice_past_the_end_raises(self):
        with pytest.raises(
            ValueError,
            match=r"routing policy 'picky' chose replica 7 for arrival 5; "
                  r"the fleet has 4 replicas",
        ):
            self._route(_PicksPerArrival(7))

    def test_assignment_of_wrong_length_raises(self):
        policy = _AssignsUpFront(
            lambda n_replicas, n: np.arange(n - 1) % n_replicas
        )
        with pytest.raises(
            ValueError,
            match=r"'up-front' assigned arrivals up front as a int64 array "
                  r"of shape \(49,\); expected 50 integer replica indices "
                  r"for a fleet of 4 replicas",
        ):
            self._route(policy)

    def test_assignment_entry_out_of_range_raises(self):
        def assign(n_replicas, n):
            assignment = np.arange(n) % n_replicas
            assignment[13] = n_replicas
            return assignment

        with pytest.raises(
            ValueError,
            match=r"'up-front' chose replica 4 for arrival 13; "
                  r"the fleet has 4 replicas",
        ):
            self._route(_AssignsUpFront(assign))

    def test_assignment_of_non_integers_raises(self):
        # 0.5 matches no replica: the query would silently vanish
        policy = _AssignsUpFront(lambda n_replicas, n: np.full(n, 0.5))
        with pytest.raises(
            ValueError, match=r"as a float64 array of shape \(50,\)",
        ):
            self._route(policy)


class _ReadsWorkUndeclared(LeastLatencyPolicy):
    """least-latency's select under a declaration that it does not read
    the predicted work."""

    name = "undeclared"
    reads_work = False


class TestDeclaredState:
    def test_policies_declare_the_state_they_read(self):
        assert LeastLatencyPolicy.reads_work
        assert not JoinShortestQueuePolicy.reads_work
        assert not PowerOfTwoPolicy.reads_work
        # a policy that declares nothing gets everything kept current
        assert RoutingPolicy.reads_work

    def test_reading_work_without_declaring_it_raises(self):
        # the router keeps no work for this policy: reading it must fail,
        # not return numbers from before the last enqueue
        with pytest.raises(TypeError):
            simulate_fleet(
                mixed_fleet(), MODELS, qps=1000, duration_s=0.05,
                policy=_ReadsWorkUndeclared(),
            )
