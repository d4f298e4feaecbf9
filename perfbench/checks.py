"""Output checks and the operation ledger behind ``attempted``/``failed``.

:func:`check_run` validates a recorded serving run the way a replayed
file is loaded back: every query is in exactly one batch, batch sizes
sum to the arrivals, batches never overlap on one GPU or replica
timeline, no batch starts before its last member arrives, and every
query's latency is at least its batch's execution time.
"""

from __future__ import annotations

import sys
import traceback
from typing import Any, Callable

import numpy as np

#: Slack for comparing simulated times that went through different
#: float operation orders (seconds; far below any modelled duration).
TIME_EPS_S = 1e-9


def _check_timeline(block, member_times: np.ndarray, where: str) -> list[str]:
    """Invariants of one GPU timeline whose members are ``member_times``
    in dispatch order."""
    errors = []
    sizes = np.asarray(block.sizes, dtype=np.int64)
    starts = np.asarray(block.starts, dtype=float)
    exec_s = np.asarray(block.exec_s, dtype=float)
    if not (len(sizes) == len(starts) == len(exec_s)):
        return [f"{where}: batch columns differ in length"]
    if len(sizes) and sizes.min() < 1:
        errors.append(f"{where}: empty batch")
    if int(sizes.sum()) != len(member_times):
        errors.append(
            f"{where}: batch sizes sum to {int(sizes.sum())} but "
            f"{len(member_times)} queries were batched"
        )
        return errors
    if len(starts) > 1:
        gaps = starts[1:] - (starts[:-1] + exec_s[:-1])
        if gaps.min() < -TIME_EPS_S:
            errors.append(
                f"{where}: batch {int(gaps.argmin()) + 1} starts before "
                f"the previous one finishes"
            )
    if len(sizes):
        ends = np.cumsum(sizes) - 1
        last_member = member_times[ends]
        if (starts - last_member).min() < -TIME_EPS_S:
            errors.append(
                f"{where}: batch {int((starts - last_member).argmin())} "
                f"starts before its last member arrives"
            )
        latency_s = np.repeat(starts + exec_s, sizes) - member_times
        short = latency_s - np.repeat(exec_s, sizes)
        if short.min() < -TIME_EPS_S:
            errors.append(f"{where}: a query's latency is below its "
                          f"batch's execution time")
    return errors


def check_run(run) -> list[str]:
    """Every invariant violation of one run record (empty when valid).

    Accepts the records :func:`repro.telemetry.replay.load_runs` returns:
    single-GPU stream runs, routed fleet runs and groups of either.
    """
    children = getattr(run, "children", None)
    if children is not None:
        errors = []
        for name, child in children.items():
            errors += [f"{name}: {e}" for e in check_run(child)]
        return errors
    arrivals = np.asarray(run.arrivals.times, dtype=float)
    replicas = getattr(run, "replicas", None)
    if replicas is None:
        # single GPU: members are the arrival stream in order
        return _check_timeline(run.batches, arrivals, "gpu")
    errors = []
    members = []
    for block in replicas:
        times, _ = block.members()
        times = np.asarray(times, dtype=float)
        members.append(times)
        errors += _check_timeline(block, times, block.replica or "replica")
    served = np.sort(np.concatenate(members)) if members else arrivals[:0]
    if len(served) != len(arrivals) or not np.array_equal(
        served, np.sort(arrivals)
    ):
        errors.append(
            f"fleet: {len(served)} batched queries do not match the "
            f"{len(arrivals)} arrivals one for one"
        )
    return errors


class Ledger:
    """Counts operations and failures; an operation fails when it raises
    or its check fails.  Failures are reported on stderr and the run goes
    on, so every failing operation of a run is counted."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def call(self, what: str, fn: Callable[..., Any], *args: Any,
             **kwargs: Any) -> Any:
        """One operation: ``fn(*args, **kwargs)``, or ``None`` if it
        raised (counted as failed)."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            print(f"perfbench: {what} raised:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return None

    def check(self, what: str, errors: list[str] | bool) -> bool:
        """One output check: ``errors`` is a list of violations (empty =
        pass) or a bare verdict."""
        self.attempted += 1
        if isinstance(errors, bool):
            errors = [] if errors else ["check failed"]
        if errors:
            self.failed += 1
            print(f"perfbench: check {what} failed: {'; '.join(errors[:5])}",
                  file=sys.stderr)
            return False
        return True
