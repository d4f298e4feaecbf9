"""Benchmark runner: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root.

One workload runs in this interpreter, single-threaded, against the
``repro`` sources under ``src/``.  Set-up is timed several times and the
median reported; then timed passes repeat over the workload's fixed
inputs until ``--seconds`` have elapsed, and host times are medians over
passes.  Outputs are checked after each pass, off the clock.  The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` is a
separate run that alternates untraced and traced passes, reports the
per-layer metrics, prints a per-layer self-time table and writes spans
plus tables to ``perfbench/out/``.

``--workload all`` (the default) runs every workload, each in a fresh
interpreter, and prints each one's metrics.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("kernel-sweep", "zoo-serve", "fleet-route")
#: overrides that could turn a cold pass warm or switch the engine
CLEARED_ENV = (
    "REPRO_KERNEL_MEMO",
    "REPRO_KERNEL_MEMO_DIR",
    "REPRO_KERNEL_MEMO_CAP",
    "REPRO_GPUSIM_ENGINE",
    "REPRO_HARNESS_SMS",
)
#: keep numpy's native libraries to the one thread the benchmark uses
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
MIN_PASSES = 3

_POLICIES = ("round-robin", "jsq", "power-of-two", "least-latency")
_TENANTS = ("med_hot", "high_hot", "low_hot")

#: (name, unit) of every end-to-end metric, printed with --trace 0
END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_latency_ms", "ms"),
    ("sim_goodput_qps", "qps"),
)

#: (name, unit) of every per-layer metric, printed with --trace 1; a
#: layer the workload does not run reads 0
PER_LAYER = (
    ("import_s", "s"),
    ("datasets.trace_s", "s"),
    ("kernels.pin_profile_s", "s"),
    ("kernels.lower_s", "s"),
    ("kernels.uops", "count"),
    ("core.table_kernel_s", "s"),
    ("gpusim.engine_s.high_hot", "s"),
    ("gpusim.engine_s.random", "s"),
    ("gpusim.insts_per_s", "1/s"),
    ("gpusim.memo_hit_ratio.cold", "ratio"),
    ("gpusim.memo_hit_ratio.warm", "ratio"),
    ("gpusim.memo_hit_s", "s"),
    ("curve.calls", "count"),
    ("curve.s", "s"),
    ("curve.calls_per_batch", "count"),
    *((f"curve.calls_per_query.{p}", "count") for p in _POLICIES),
    ("serving.loop_s", "s"),
    ("serving.queries_per_s", "1/s"),
    ("serving.fold_s", "s"),
    ("serving.solo_probe_s", "s"),
    *((f"fleet.route_s.{p}", "s") for p in _POLICIES),
    *((f"fleet.queries_per_s.{p}", "1/s") for p in _POLICIES),
    ("fleet.fold_s", "s"),
    ("tenancy.calibrate_s", "s"),
    ("memstore.hit_curves_s", "s"),
    ("tenancy.arbitrate_s", "s"),
    ("traffic.arrivals_s", "s"),
    ("telemetry.record_s", "s"),
    ("telemetry.record_mb", "MB"),
    ("telemetry.replay_s", "s"),
    *((f"sim.{metric}.{scheme}.{dataset}", unit)
      for metric, unit in (("kernel_us", "us"), ("l1_hit_pct", "%"),
                           ("l2_hit_pct", "%"), ("dram_read_mb", "MB"),
                           ("long_sb_stall", "cycles"))
      for scheme in ("base", "rpf-l2p-optmt")
      for dataset in ("high_hot", "random")),
    ("sim.paper_err_pct", "%"),
    *((f"sim.{metric}.{tenant}", unit)
      for metric, unit in (("p99_ms", "ms"), ("goodput_qps", "qps"),
                           ("mean_batch", "count"),
                           ("queue_wait_p99_ms", "ms"),
                           ("gpu_util", "ratio"), ("hit_rate", "ratio"),
                           ("contention", "ratio"))
      for tenant in _TENANTS),
    *((f"sim.{metric}.{policy}", unit)
      for metric, unit in (("p99_ms", "ms"), ("goodput_qps", "qps"),
                           ("mean_batch", "count"),
                           ("queue_wait_p99_ms", "ms"),
                           ("util_balance", "ratio"))
      for policy in _POLICIES),
    ("trace_overhead_pct", "%"),
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measurement window for the timed passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="tiny inputs and a single set-up, for the "
                             "smoke tests")
    return parser.parse_args(argv)


def result_line(ledger, values: dict[str, float],
                catalogue: tuple[tuple[str, str], ...]) -> str:
    return json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in catalogue
        },
    })


def run_workload(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    for name in CLEARED_ENV:
        os.environ.pop(name, None)
    for name in THREAD_ENV:
        os.environ[name] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench.checks import Ledger
    from perfbench.fleet_route import FleetRoute
    from perfbench.kernel_sweep import KernelSweep
    from perfbench.tracer import NullTracer, Tracer, layer_table, \
        render_table
    from perfbench.zoo_serve import ZooServe
    import_s = time.perf_counter() - PROCESS_START

    classes = {cls.name: cls for cls in (KernelSweep, ZooServe, FleetRoute)}
    ledger = Ledger()
    workload = classes[args.workload](args.seed, ledger, toy=args.toy)
    null = NullTracer()
    tracer = Tracer() if args.trace else null
    setup_repeats = 1 if args.toy else SETUP_REPEATS
    min_passes = 1 if args.toy else MIN_PASSES

    setup_ids, setup_times = [], []
    for k in range(setup_repeats):
        gc.collect()
        tracer.pass_id = f"setup{k}"
        setup_ids.append(tracer.pass_id)
        with tracer.patched():
            start = time.perf_counter()
            with tracer.span("setup"):
                workload.setup(tracer)
            setup_times.append(time.perf_counter() - start)

    # traced runs alternate untraced and traced passes, so the tracing
    # overhead is measured against the same process state
    times: dict[bool, list[float]] = {False: [], True: []}
    pass_ids: list[str] = []
    first_sim = None
    deadline = time.perf_counter() + args.seconds
    index = 0
    while True:
        traced = bool(args.trace) and index % 2 == 1
        active = tracer if traced else null
        if traced:
            tracer.pass_id = f"pass{index}"
            pass_ids.append(tracer.pass_id)
        gc.collect()
        with active.patched():
            start = time.perf_counter()
            with active.span("pass"):
                out = workload.run_pass(active)
            times[traced].append(time.perf_counter() - start)
        sim = workload.check_pass(out)
        if first_sim is None:
            first_sim = sim
        else:
            ledger.check("simulated outputs identical across passes",
                         sim == first_sim)
        index += 1
        enough = len(times[False]) >= min_passes and (
            not args.trace or len(times[True]) >= min_passes)
        if enough and time.perf_counter() >= deadline:
            break

    untraced_pass_s = statistics.median(times[False])
    # after a failed operation the workload's own numbers are not
    # trustworthy: they read 0 and the result says correct=false
    valid = ledger.failed == 0
    if args.trace:
        values = workload.layer_metrics(tracer, pass_ids, setup_ids,
                                        first_sim) if valid else {}
        values["import_s"] = import_s
        values["trace_overhead_pct"] = 100.0 * (
            statistics.median(times[True]) / untraced_pass_s - 1.0)
        tables = {
            "pass": layer_table(tracer.spans, pass_ids),
            "setup": layer_table(tracer.spans, setup_ids),
        }
        print(f"{workload.name}: per-layer self time over "
              f"{len(pass_ids)} traced passes")
        print(render_table(tables["pass"]))
        print(f"{workload.name}: per-layer self time over "
              f"{len(setup_ids)} set-ups")
        print(render_table(tables["setup"]))
        path = (ROOT / "perfbench" / "out"
                / f"{workload.name}-seed{args.seed}.trace.json")
        tracer.dump(path, tables, {"workload": workload.name,
                                   "seed": args.seed,
                                   "passes": pass_ids, "setups": setup_ids})
        print(f"{workload.name}: spans and tables written to {path}")
        catalogue = PER_LAYER
    else:
        values = {
            "setup_s": import_s + statistics.median(setup_times),
            "pass_s": untraced_pass_s,
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            **(workload.e2e_sim(first_sim) if valid else {}),
        }
        print(f"{workload.name}: pass_s is the median of "
              f"{len(times[False])} passes "
              f"({', '.join(f'{t:.3f}' for t in times[False])} s); setup_s "
              f"adds import ({import_s:.3f} s) to the median of "
              f"{setup_repeats} set-ups "
              f"({', '.join(f'{t:.3f}' for t in setup_times)} s)")
        catalogue = END_TO_END
    print(result_line(ledger, values, catalogue))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own fresh interpreter, overrides cleared."""
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    status = 0
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        if args.toy:
            command.append("--toy")
        done = subprocess.run(command, env=env, stdout=subprocess.PIPE,
                              text=True, check=False)
        lines = done.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        if done.returncode != 0 or not lines:
            print(f"{name}: failed with exit code {done.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        if not result["correct"]:
            status = 1
        print(f"{name}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:<36} {entry['value']:>16.6g} {entry['unit']}")
    return status


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
