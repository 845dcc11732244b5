"""One measured process of one workload.

Usage: ``python3 perfbench/worker.py --workload NAME --seed N [--trace]
[--budget SECONDS]``.  Prints one JSON object with the process's timings,
peak RSS, the host calibration loop before and after, the correctness errors
and, with ``--trace``, the per-layer metrics.

The first pass is cold: ``perfbench/run.py`` starts a fresh worker for every
set-up it measures, because the sequence and network caches of
``repro.scenarios.families`` are module-level and would serve a second
set-up from memory.  Without ``--trace``, the worker then simulates the
same rendered sources again until ``--budget`` seconds have passed since it
started (at least once when the budget is positive).  The warm passes give
more samples of the simulation time per process started, and each must
reproduce the cold pass's outcome exactly.

Times are CPU seconds (user + system) of this process and of the shard
workers it forks and joins: a measure of the work done that does not count
the time the host gives the benchmark's virtual CPUs to other tenants
(steal) or to other processes.  Wall times are kept alongside for the
human-readable summary and the layer trace.

``--inject LAYER:MICROSECONDS`` adds a busy-wait to one layer entry point
(``dsfa``: ``DynamicSparseFrameAggregator.push_index``; ``client``:
``StreamClient._on_frame``).  Only the sensitivity self-test uses it.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time

import checkout

STARTED = time.monotonic()
CALIBRATION_ITERATIONS = 300_000


def cpu_clock() -> float:
    """CPU seconds used so far by this process and its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def calibrate() -> float:
    """CPU seconds taken by a fixed pure-Python loop (a host-speed diagnostic)."""
    start = time.process_time()
    total = 0
    for i in range(CALIBRATION_ITERATIONS):
        total += i * i % 7
    elapsed = time.process_time() - start
    if total < 0:  # keeps the loop's result live
        raise AssertionError
    return elapsed


def inject_delay(spec: str) -> None:
    """Busy-wait ``spec = LAYER:MICROSECONDS`` inside one layer entry point."""
    from repro.core.dsfa import DynamicSparseFrameAggregator
    from repro.runtime.streams import StreamClient

    layer, micros = spec.split(":")
    targets = {
        "dsfa": (DynamicSparseFrameAggregator, "push_index"),
        "client": (StreamClient, "_on_frame"),
    }
    owner, name = targets[layer]
    original = getattr(owner, name)
    delay_ns = int(float(micros) * 1000)

    def delayed(*args, **kwargs):
        end = time.perf_counter_ns() + delay_ns
        while time.perf_counter_ns() < end:
            pass
        return original(*args, **kwargs)

    setattr(owner, name, delayed)


def peak_rss_mb() -> float:
    """Peak RSS of this process and its reaped children (shard workers)."""
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kb / 1024.0


def measure(
    workload: str, seed: int, trace: bool, inject: str = "", budget: float = 0.0
) -> dict:
    """Set up and simulate one workload cold, then warm while the budget lasts."""
    import workloads

    if inject:
        inject_delay(inject)
    spec = workloads.build_spec(workload, seed)
    calib_before = calibrate()
    tracer = None
    if trace:
        import layers

        tracer = layers.LayerTrace()
        tracer.install()
    try:
        wall_start, cpu_start = time.perf_counter(), cpu_clock()
        sources = workloads.compile_and_render(spec)
        wall_setup, cpu_setup = time.perf_counter(), cpu_clock()
        report = workloads.simulate(workload, sources)
        wall_end, cpu_end = time.perf_counter(), cpu_clock()
    finally:
        if tracer is not None:
            tracer.uninstall()
    errors = workloads.check(workload, seed, report, sources)
    cold_outcome = workloads.outcome(report)
    layer_metrics = tracer.metrics(wall_end - wall_start, report) if tracer else None
    warm_run_s = []
    while budget > 0 and not trace and (
        not warm_run_s or time.monotonic() - STARTED + warm_run_s[-1] < budget
    ):
        del report
        gc.collect()
        began = cpu_clock()
        report = workloads.simulate(workload, sources)
        warm_run_s.append(cpu_clock() - began)
        if workloads.outcome(report) != cold_outcome and not errors:
            errors.append("a warm pass gave another outcome than the cold pass")
    calib_after = calibrate()
    run_s = cpu_end - cpu_setup
    frames = report.frames_generated
    result = {
        "seed": seed,
        "setup_s": cpu_setup - cpu_start,
        "run_s": run_s,
        "e2e_s": cpu_end - cpu_start,
        "warm_run_s": warm_run_s,
        "wall_setup_s": wall_setup - wall_start,
        "wall_run_s": wall_end - wall_setup,
        "frames": frames,
        "frames_per_s": frames / statistics.median([run_s] + warm_run_s),
        "peak_rss_mb": peak_rss_mb(),
        "calib_s": [calib_before, calib_after],
        "errors": errors,
        "outcome": cold_outcome,
    }
    if layer_metrics is not None:
        result["layers"] = layer_metrics
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--inject", default="")
    parser.add_argument("--budget", type=float, default=0.0)
    args = parser.parse_args()
    try:
        checkout.import_repro()
    except checkout.CheckoutError as exc:
        print(f"worker: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(measure(args.workload, args.seed, args.trace, args.inject, args.budget)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
