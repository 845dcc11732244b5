"""Fleet-simulator benchmark: simulator throughput, set-up time and memory.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, in turn

One run measures one workload for about ``S`` seconds in a series of fresh
``perfbench/worker.py`` processes.  Each worker sets up cold (nothing is
served from the module-level sequence and network caches) and simulates
once (its cold pass), then, without ``--trace``, simulates the same sources
again (warm passes) for about a fifth of the run.  Times are CPU seconds of
the worker and its shard workers (see ``worker.py``).  ``setup_s``,
``e2e_s`` and ``peak_rss_mb`` are medians over the workers' cold passes;
``frames_per_s`` is the median over every pass of the run, cold and warm,
of its frames per second.  The workers of a run simulate different seeds
derived from ``--seed`` (``workloads.run_seed``), so a run's medians span
several inputs.  Every
pass's simulated output is checked (``workloads.check``); a worker whose
output fails the check, or that crashes, counts as a failed operation.

``--trace 0`` reports the end-to-end metrics (see ``BENCHMARK.json``).
``--trace 1`` alternates untraced and traced workers (cold passes only) and
reports the per-layer metrics of the traced ones (``layers.py``) plus
``trace.overhead_ratio``, the traced over the untraced median simulation
time.  ``host.calib_s`` is a fixed pure-Python loop timed before and after
every worker: a diagnostic of host speed, never used to normalise a metric.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The benchmark exits
with code 2, printing no result, when the checkout holds no ``src/repro``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checkout

HERE = Path(__file__).resolve().parent
# A run takes at least this many workers of each kind, even past
# ``--seconds``, so that every median has a middle.
MIN_RUNS = 3
MIN_TRACED_RUNS = 2
# An untraced worker simulates warm for this share of ``--seconds``.
WARM_SHARE = 0.2
# No measured run of a workload may go on past this many seconds, so that
# one invocation ends inside three minutes.
HARD_LIMIT_S = 160.0


def declared_metrics() -> dict:
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}`` as
    declared in the checkout's ``BENCHMARK.json``."""
    document = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())
    return {
        kind: {metric["name"]: metric["unit"] for metric in document[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def run_worker(
    workload: str,
    seed: int,
    traced: bool,
    inject: str = "",
    timeout: float = 120.0,
    budget: float = 0.0,
) -> dict:
    """One measured worker process; raises RuntimeError on failure."""
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--budget",
        str(budget),
    ]
    if traced:
        command.append("--trace")
    if inject:
        command += ["--inject", inject]
    try:
        done = subprocess.run(
            command,
            cwd=str(checkout.ROOT),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"worker timed out after {timeout:.0f} s") from None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"worker exited with {done.returncode}: {done.stderr.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Run fresh-process measurements of ``workload`` for about ``seconds``.

    Returns ``(untraced, traced, attempted, failed)``: the successful runs
    of each kind and the counts of runs started and failed.
    """
    import workloads

    untraced, traced = [], []
    attempted = failed = 0
    durations = []
    start = time.monotonic()
    while True:
        with_trace = trace and attempted % 2 == 1
        # A traced worker runs the seed of the untraced worker before it.
        worker_seed = workloads.run_seed(seed, attempted // 2 if trace else attempted)
        began = time.monotonic()
        attempted += 1
        try:
            result = run_worker(
                workload,
                worker_seed,
                with_trace,
                timeout=max(start + HARD_LIMIT_S - began, 1.0),
                budget=0.0 if trace else WARM_SHARE * seconds,
            )
        except (RuntimeError, ValueError) as exc:
            failed += 1
            print(f"[{workload}] run {attempted} failed: {exc}", file=sys.stderr)
        else:
            if result["errors"]:
                failed += 1
                for error in result["errors"][:5]:
                    print(f"[{workload}] run {attempted} incorrect: {error}", file=sys.stderr)
            (traced if with_trace else untraced).append(result)
        durations.append(time.monotonic() - began)
        elapsed = time.monotonic() - start
        enough = len(untraced) >= MIN_RUNS and (
            not trace or len(traced) >= MIN_TRACED_RUNS
        )
        if elapsed + max(durations) > HARD_LIMIT_S:
            break
        if enough and elapsed + statistics.median(durations) > seconds:
            break
        if attempted >= 4 * MIN_RUNS and failed == attempted:
            break
    return untraced, traced, attempted, failed


def _median(runs, key):
    return statistics.median(run[key] for run in runs)


def summarize(untraced, traced, trace: bool) -> dict:
    """The declared metrics of one mode: medians over the measured runs."""
    if trace:
        units = declared_metrics()["per_layer"]
        values = {
            name: statistics.median(run["layers"][name] for run in traced)
            for name in traced[0]["layers"]
        }
        values["trace.overhead_ratio"] = _median(traced, "run_s") / _median(
            untraced, "run_s"
        )
        values["host.calib_s"] = statistics.median(
            c for run in untraced + traced for c in run["calib_s"]
        )
    else:
        units = declared_metrics()["end_to_end"]
        values = {
            "setup_s": _median(untraced, "setup_s"),
            "e2e_s": _median(untraced, "e2e_s"),
            "frames_per_s": statistics.median(
                run["frames"] / t
                for run in untraced
                for t in [run["run_s"]] + run["warm_run_s"]
            ),
            "peak_rss_mb": _median(untraced, "peak_rss_mb"),
        }
    if set(values) != set(units):
        raise RuntimeError(
            f"measured metrics {sorted(values)} differ from BENCHMARK.json {sorted(units)}"
        )
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload and print its human-readable summary."""
    untraced, traced, attempted, failed = measure(workload, seed, seconds, trace)
    if not untraced or (trace and not traced):
        raise RuntimeError(f"{workload}: no successful run out of {attempted}")
    metrics = summarize(untraced, traced, trace)
    calib = statistics.median(c for run in untraced + traced for c in run["calib_s"])
    passes = sum(1 + len(run["warm_run_s"]) for run in untraced)
    print(
        f"# {workload} seed={seed} workers={len(untraced)} untraced ({passes} passes) "
        f"+ {len(traced)} traced, frames={untraced[0]['frames']}, host.calib_s={calib:.4f}, "
        f"wall setup/run={_median(untraced, 'wall_setup_s'):.3f}/"
        f"{_median(untraced, 'wall_run_s'):.3f} s, "
        f"outcome={untraced[0]['outcome']['digest'][:16]}"
    )
    for run in untraced:
        print(
            f"#   worker seed={run['seed']} setup={run['setup_s']:.3f} s "
            f"e2e={run['e2e_s']:.3f} s calib={run['calib_s'][0]:.4f}/{run['calib_s'][1]:.4f} s "
            "frames/s=" + ",".join(
                f"{run['frames'] / t:.0f}" for t in [run["run_s"]] + run["warm_run_s"]
            )
        )
    for name, metric in metrics.items():
        print(f"#   {name:28s} {metric['value']:.6g} {metric['unit']}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=None, help="default: 7")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        checkout.import_repro()
    except checkout.CheckoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads

    names = list(workloads.SPECS) if args.workload == "all" else [args.workload]
    if not set(names) <= set(workloads.SPECS):
        parser.error(f"unknown workload {args.workload!r}; available: {', '.join(workloads.SPECS)}")
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    print(f"# provenance {json.dumps(checkout.provenance(), sort_keys=True)}")
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{metric}": value
                for name, result in results.items()
                for metric, value in result["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
