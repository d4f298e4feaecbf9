"""Differential: the single-GPU serving loop against its frozen reference.

:mod:`tests.core.reference_serving` keeps the loop as it was while
every batch went through the one-call ``next_batch``: a type dispatch
per batch, numpy tables searched with ``np.searchsorted``.  The
library's ``_serve_arrays`` must reproduce its batch columns
(``starts``, ``exec_s``, ``sizes``) exactly:

* on every scenario shape, under the router differential's three
  batchers and five edge batchers — a batch of one
  (``max_batch=1``), a timeout that expires on arrival
  (``timeout_ms=0``), a continuous batch of one, an SLA below one
  batch's execution time (every slack budget is negative) and an SLA
  that lands exactly on a table entry;
* with one curve shared by every phase, a distinct curve per phase (a
  batch that spans a phase change must execute on its oldest query's
  curve), and a curve whose domain is wider than the batcher's
  ``max_batch``;
* on the fleet property suite's random arrival streams, with random
  per-query phases.

Each (shape, batcher) pair runs one curve set in the default suite; the
rest of the grid and the long hypothesis run are the extended set,
skipped unless ``REPRO_FUZZ_FULL=1`` (CI runs them in its extended-fuzz
step).
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.curve import LatencyCurve
from repro.core.serving import (
    BatchingPolicy,
    ContinuousBatching,
    _serve_arrays,
)
from repro.traffic.scenario import (
    SCENARIO_PROFILES,
    generate_arrivals,
    scenario_profile,
)
from tests.core.reference_serving import reference_serve
from tests.fleet.test_properties import arrival_times
from tests.fleet.test_router_differential import BATCHERS

_RUN_FULL = os.environ.get("REPRO_FUZZ_FULL", "") == "1"
#: the router differential's batchers plus the edge cases of the rule
SERVE_BATCHERS = {
    **BATCHERS,
    "max-batch-1": BatchingPolicy(max_batch=1, timeout_ms=5.0),
    "timeout-0": BatchingPolicy(max_batch=8, timeout_ms=0.0),
    "continuous-1": ContinuousBatching(max_batch=1),
    # below every curve's one-query execution time
    "sla-below-exec": ContinuousBatching(max_batch=16, sla_ms=2.0),
    # the shared curve's entry at 12 queries, exactly
    "sla-on-entry": ContinuousBatching(max_batch=16, sla_ms=10.0),
}
#: every batcher above forms batches of at most this many queries
WIDEST = 16


def _shared(batch):
    return 4.0 + 0.5 * batch


def _phase_curve(phase, width):
    """A distinct, steep curve per phase: the wrong phase's curve moves
    a batch's execution time, and the one-query and two-query entries
    are far enough apart for SLA pressure to split a pair."""
    return LatencyCurve.from_fn(
        lambda b: 2.5 + 1.5 * phase + (0.6 + 0.4 * phase) * b, width
    )


def _curves(curve_set, n_phases, max_batch):
    if curve_set == "shared":
        return [LatencyCurve.from_fn(_shared, max_batch)] * n_phases
    if curve_set == "per-phase":
        return [_phase_curve(p, max_batch) for p in range(n_phases)]
    # one curve covering four times the widest batcher's batches
    return [LatencyCurve.from_fn(_shared, 4 * WIDEST)] * n_phases


CURVE_SETS = ("shared", "per-phase", "wide")


def _scenario(shape):
    # the calm phases leave headroom; the bursts queue past max_batch
    return generate_arrivals(
        scenario_profile(shape, base_qps=600.0, duration_s=1.0), seed=23,
    )


def assert_matches_reference(times, phase_ids, curves, policy):
    times = np.asarray(times, dtype=float)
    phase_ids = np.asarray(phase_ids, dtype=np.int64)
    phases = tuple(f"p{i}" for i in range(len(curves)))
    block = _serve_arrays(times, phase_ids, curves, policy, phases)
    starts, exec_s, sizes = reference_serve(times, phase_ids, curves, policy)
    for column, want in (
        ("starts", starts), ("exec_s", exec_s), ("sizes", sizes),
    ):
        got = getattr(block, column)
        assert got.tolist() == want, f"{column} differs from the reference"
    assert block.sizes.dtype == np.int64
    assert block.phases == phases


def _grid():
    for s, shape in enumerate(SCENARIO_PROFILES):
        for b, batcher in enumerate(SERVE_BATCHERS):
            smoke = CURVE_SETS[(s + b) % len(CURVE_SETS)]
            for curve_set in CURVE_SETS:
                marks = []
                if curve_set != smoke:
                    marks.append(pytest.mark.fuzz_extended)
                    if not _RUN_FULL:
                        marks.append(pytest.mark.skip(
                            reason="extended serve differential; "
                                   "set REPRO_FUZZ_FULL=1"
                        ))
                yield pytest.param(
                    shape, batcher, curve_set,
                    id=f"{shape}-{batcher}-{curve_set}", marks=marks,
                )


@pytest.mark.parametrize("shape, batcher, curve_set", _grid())
def test_serve_matches_reference(shape, batcher, curve_set):
    stream = _scenario(shape)
    policy = SERVE_BATCHERS[batcher]
    curves = _curves(curve_set, len(stream.phases), policy.max_batch)
    assert_matches_reference(stream.times, stream.phase_ids, curves, policy)


def test_burst_on_the_sla_entry_takes_the_fitting_batch():
    """Sixteen simultaneous arrivals under an SLA equal to the 12-query
    entry: twelve of them finish exactly on the SLA, so the batch is
    twelve (a search that excludes the equal entry would pick eleven)."""
    policy = SERVE_BATCHERS["sla-on-entry"]
    curves = _curves("shared", 1, policy.max_batch)
    times = [0.001] * 16 + [0.5]
    block = _serve_arrays(np.asarray(times), np.zeros(17, dtype=np.int64),
                          curves, policy, ("p0",))
    assert block.sizes.tolist()[0] == 12
    assert_matches_reference(times, [0] * 17, curves, policy)


# the fleet property suite's stream strategy, with random per-query
# phases over one to three distinct curves
_cases = dict(
    times=arrival_times,
    max_batch=st.integers(1, WIDEST),
    timeout_ms=st.floats(0.0, 20.0),
    batcher=st.sampled_from(
        ["size-or-timeout", "continuous", "continuous-sla"]
    ),
    sla_ms=st.sampled_from([2.0, 10.0, 12.0, 40.0]),
    curve_set=st.sampled_from(CURVE_SETS),
    n_phases=st.integers(1, 3),
    phase_seed=st.integers(0, 2**32 - 1),
)


def _check_random_case(times, max_batch, timeout_ms, batcher, sla_ms,
                       curve_set, n_phases, phase_seed):
    if batcher == "size-or-timeout":
        policy = BatchingPolicy(max_batch=max_batch, timeout_ms=timeout_ms)
    elif batcher == "continuous":
        policy = ContinuousBatching(max_batch=max_batch)
    else:
        policy = ContinuousBatching(max_batch=max_batch, sla_ms=sla_ms)
    rng = np.random.default_rng(phase_seed)
    phase_ids = rng.integers(n_phases, size=len(times))
    assert_matches_reference(
        sorted(times), phase_ids, _curves(curve_set, n_phases, max_batch),
        policy,
    )


@given(**_cases)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_serve_matches_reference_on_random_streams(**case):
    _check_random_case(**case)


@pytest.mark.fuzz_extended
@pytest.mark.skipif(not _RUN_FULL,
                    reason="extended serve differential; "
                           "set REPRO_FUZZ_FULL=1")
@given(**_cases)
@settings(max_examples=400, deadline=None, derandomize=True)
def test_serve_matches_reference_on_random_streams_extended(**case):
    _check_random_case(**case)
