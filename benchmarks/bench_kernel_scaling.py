"""Benchmark: fleet-scale kernel hot path — events-processed/sec vs fleet size.

Runs steady and churn fleets (compiled through the scenario registry) at
64/256/1024 streams on the refactored kernel — O(1) event routing, indexed
``SignatureServer`` pending queues, coalesced wake-ups — and compares
against two baselines at the tiers where it is affordable:

* ``legacy (warm)`` — the pre-refactor *data structures*
  (:class:`~repro.runtime.legacy.LegacyScanKernel` linear handler scan +
  :class:`~repro.runtime.legacy.LegacyListServer` O(queue) list scans and
  per-dispatch wake-up storms) with this PR's shared caches warm.  This
  isolates the routing/queue refactor and must produce **bit-identical**
  reports.
* ``pre-refactor`` — the same legacy structures with the per-run frame
  regeneration the pre-refactor runtime actually performed on every
  ``run()`` (``StreamSource`` frame caching is also part of this PR).  This
  is the end-to-end events/sec a PR-3 checkout delivered, and the number the
  ≥3x acceptance gate is asserted against at the 256-stream tier.

The sharded tiers (``test_kernel_scaling_sharded``) push past the single
process: 4096- and 10240-stream steady fleets partitioned by signature
across worker-process shards (see :mod:`repro.runtime.shard`), with a
single-process baseline at the smallest sharded tier.  On a >=4-core
runner the 4-shard aggregate events/sec must be >= 2x the single-process
kernel at equal stream count; on smaller machines the ratio is reported
but not asserted — worker processes cannot conjure cores.

Environment knobs (used by the CI smoke job):

* ``KERNEL_SCALING_TIERS`` — comma-separated fleet sizes (default
  ``64,256,1024``).  CI runs the smallest tier only.
* ``KERNEL_SCALING_REPEATS`` — timing repeats per cell (default 3).
* ``KERNEL_SCALING_SHARD_TIERS`` — comma-separated sharded fleet sizes
  (default ``4096,10240``; empty skips the sharded benchmark).
* ``KERNEL_SCALING_SHARDS`` — worker shard count (default 4).
* ``KERNEL_MEMORY_TIERS`` — comma-separated fleet sizes of the
  memory-attribution tier (default ``1024,4096``; empty skips it).

The memory-attribution tier (``test_kernel_memory_attribution``) compares
the lazy arrival-cursor discipline against the eager horizon-wide oracle
(``client_factory=EagerStreamClient``): tracemalloc peak allocations and
the kernel heap's high-water mark at each tier (``retain_records=False``,
so queued events dominate), plus a doubled-horizon run showing the lazy
heap is independent of horizon length while the eager heap tracks total
frames.
Its rows land in the same ``BENCH_kernel_scaling.json`` trajectory under
``section="memory"``.

Legacy baselines run only at tiers <= 256: the quadratic pending-list scans
make a 1024-stream legacy run take minutes, which is the point of the
refactor, not something worth waiting for in every benchmark run.
"""

from __future__ import annotations

import dataclasses
import os
import time
import tracemalloc

import pytest

from bench_utils import write_bench_json
from repro.core import DSFAConfig
from repro.experiments import format_table
from repro.hw import jetson_xavier_agx
from repro.runtime import MultiStreamSimulator
from repro.runtime.legacy import (
    EagerStreamClient,
    LegacyListServer,
    LegacyScanKernel,
)
from repro.scenarios.registry import default_registry
from repro.scenarios.spec import ScenarioSpec


def _tiers(env_var: str, default: str):
    return tuple(
        int(tier)
        for tier in os.environ.get(env_var, default).split(",")
        if tier.strip()
    )


TIERS = _tiers("KERNEL_SCALING_TIERS", "64,256,1024")
REPEATS = int(os.environ.get("KERNEL_SCALING_REPEATS", "3"))
SHARD_TIERS = _tiers("KERNEL_SCALING_SHARD_TIERS", "4096,10240")
SHARDS = int(os.environ.get("KERNEL_SCALING_SHARDS", "4"))
MEMORY_TIERS = _tiers("KERNEL_MEMORY_TIERS", "1024,4096")
# Lazy heap budget per active stream (one queued FrameReady + one StreamEnd
# plus in-flight dispatch/completion events).
MEMORY_HEAP_FACTOR = 4
# Horizon-independence slack: doubling the horizon may jiggle the lazy
# high-water by a few in-flight events, never track the doubled frame count.
MEMORY_HORIZON_SLACK = 1.25
# Largest tier the O(streams)/O(queue) legacy baselines are run at.
LEGACY_TIER_CAP = 256
FAMILIES = ("steady", "churn")
QUEUE_DEPTH = 16
SPEEDUP_GATE_TIER = 256
SPEEDUP_GATE = 3.0
SHARD_SPEEDUP_GATE = 2.0


def _available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _fleet(family: str, num_streams: int, duration: float = 0.2):
    """Compile one benchmark fleet through the scenario registry.

    The no-DSFA (``e2sf``) level sends every frame through the
    dispatch/backlog path — the kernel-bound regime this benchmark stresses
    — and a deeper inference queue keeps the pending queues populated.
    """
    spec = ScenarioSpec(
        name=f"kernel-scaling-{family}-{num_streams}-{duration}",
        family=family,
        num_streams=num_streams,
        duration=duration,
        scale=0.06,
        seed=7,
        params={"optimization": "e2sf"},
    )
    sources = default_registry().compile(spec)
    return [
        dataclasses.replace(
            source,
            config=dataclasses.replace(
                source.config, dsfa=DSFAConfig(inference_queue_depth=QUEUE_DEPTH)
            ),
        )
        for source in sources
    ]


def _timed_run(platform, sources, repeats=REPEATS, cold_frames=False, **sim_kwargs):
    """Best-of-``repeats`` wall-clock of one fleet simulation.

    ``cold_frames`` resets every source's render caches before each repeat
    (the ``generate_stack`` result and arrival column the timed run reads,
    plus the frame views over them), reproducing the pre-refactor behaviour
    of regenerating frames inside every ``run()``.
    """
    best = float("inf")
    report = None
    for _ in range(repeats):
        if cold_frames:
            for source in sources:
                source._stack = None
                source._arrival_times = None
                source._frames = None
        simulator = MultiStreamSimulator(platform, sources, **sim_kwargs)
        start = time.perf_counter()
        report = simulator.run()
        best = min(best, time.perf_counter() - start)
    return report, best


def _reports_identical(a, b) -> bool:
    """Bit-identical aggregates and per-stream records."""
    return (
        set(a.reports) == set(b.reports)
        and all(a.reports[k].records == b.reports[k].records for k in a.reports)
        and all(
            a.reports[k].frames_dropped == b.reports[k].frames_dropped
            for k in a.reports
        )
        and a.mean_latency == b.mean_latency
        and a.total_energy == b.total_energy
        and a.makespan == b.makespan
        and a.throughput == b.throughput
    )


def test_kernel_scaling(benchmark):
    platform = jetson_xavier_agx()
    # The baselines model pre-refactor checkouts, which had no lazy
    # arrival cursors: they run eager-primed (the report-identity assert
    # below then also pins the lazy-vs-eager equivalence across the
    # kernel-structure axis).
    legacy_kwargs = dict(
        kernel_factory=LegacyScanKernel,
        server_factory=LegacyListServer,
        client_factory=EagerStreamClient,
    )

    rows = []
    gate_speedups = {}
    for family in FAMILIES:
        for num_streams in TIERS:
            sources = _fleet(family, num_streams)
            for source in sources:
                source.generate_stack()  # warm the per-source frame cache
            if family == FAMILIES[0] and TIERS and num_streams == max(TIERS):
                benchmark.pedantic(
                    lambda: MultiStreamSimulator(platform, sources).run(),
                    iterations=1,
                    rounds=1,
                )
            # Every row's events/sec is measured the same way (best of
            # REPEATS, simulator construction outside the timed region).
            new_report, t_new = _timed_run(platform, sources)
            row = {
                "family": family,
                "streams": num_streams,
                "events": new_report.events_processed,
                "new_ev_per_s": new_report.events_processed / t_new,
                "dropped": new_report.frames_dropped,
            }
            if num_streams <= LEGACY_TIER_CAP:
                warm_report, t_warm = _timed_run(platform, sources, **legacy_kwargs)
                assert _reports_identical(new_report, warm_report), (
                    f"{family}/{num_streams}: legacy structures must be "
                    "report-identical"
                )
                cold_report, t_cold = _timed_run(
                    platform, sources, cold_frames=True, **legacy_kwargs
                )
                for source in sources:
                    source.generate_stack()
                row["legacy_warm_ev_per_s"] = warm_report.events_processed / t_warm
                row["pre_refactor_ev_per_s"] = cold_report.events_processed / t_cold
                row["speedup_structures"] = (
                    row["new_ev_per_s"] / row["legacy_warm_ev_per_s"]
                )
                row["speedup_pre_refactor"] = (
                    row["new_ev_per_s"] / row["pre_refactor_ev_per_s"]
                )
                if num_streams == SPEEDUP_GATE_TIER:
                    gate_speedups[family] = row["speedup_pre_refactor"]
            rows.append(row)

    print("\n=== Fleet-scale kernel hot path: events-processed/sec ===")
    print(
        format_table(
            rows,
            [
                "family",
                "streams",
                "events",
                "dropped",
                "new_ev_per_s",
                "legacy_warm_ev_per_s",
                "pre_refactor_ev_per_s",
                "speedup_structures",
                "speedup_pre_refactor",
            ],
        )
    )
    if gate_speedups:
        print(
            "256-stream events/sec vs pre-refactor kernel: "
            + ", ".join(f"{k}={v:.2f}x" for k, v in gate_speedups.items())
            + f" (gate: >= {SPEEDUP_GATE}x)"
        )

    # Every tier must simulate real traffic.
    for row in rows:
        assert row["events"] > 0
        assert row["new_ev_per_s"] > 0
    # Acceptance gate: >= 3x events/sec at the 256-stream tier vs the
    # pre-refactor kernel (linear scan + wake-up storms + per-run frame
    # regeneration).
    for family, speedup in gate_speedups.items():
        assert speedup >= SPEEDUP_GATE, (
            f"{family}@{SPEEDUP_GATE_TIER}: {speedup:.2f}x < {SPEEDUP_GATE}x"
        )
    write_bench_json(
        "kernel_scaling",
        rows,
        meta={"tiers": list(TIERS), "repeats": REPEATS, "families": list(FAMILIES)},
        section="scaling",
    )


def test_kernel_scaling_sharded(benchmark):
    """Sharded fleet tiers: aggregate events/sec past the single process.

    The smallest sharded tier also runs single-process to measure the
    shard speedup; larger tiers run sharded only (a 10k-stream
    single-process run is exactly what the shards exist to avoid timing).
    """
    if not SHARD_TIERS:
        pytest.skip("KERNEL_SCALING_SHARD_TIERS is empty")
    platform = jetson_xavier_agx()
    cores = _available_cores()

    rows = []
    for num_streams in SHARD_TIERS:
        sources = _fleet("steady", num_streams)
        for source in sources:
            source.generate_stack()  # warm caches before the workers fork
        if num_streams == max(SHARD_TIERS):
            benchmark.pedantic(
                lambda: MultiStreamSimulator(
                    platform, sources, shards=SHARDS
                ).run(),
                iterations=1,
                rounds=1,
            )
        sharded_report, t_sharded = _timed_run(platform, sources, shards=SHARDS)
        assert sharded_report.shards > 1
        assert sharded_report.total_inferences > 0
        row = {
            "family": "steady",
            "streams": num_streams,
            "shards": sharded_report.shards,
            "events": sharded_report.events_processed,
            "sharded_ev_per_s": sharded_report.events_processed / t_sharded,
            "dropped": sharded_report.frames_dropped,
        }
        if num_streams == min(SHARD_TIERS):
            single_report, t_single = _timed_run(platform, sources)
            row["single_ev_per_s"] = single_report.events_processed / t_single
            # Equal frames in, equal work out: sharding repartitions the
            # fleet, it must not change how much traffic gets simulated.
            assert sharded_report.frames_generated == single_report.frames_generated
            row["shard_speedup"] = (
                row["sharded_ev_per_s"] / row["single_ev_per_s"]
            )
        rows.append(row)

    print(f"\n=== Sharded kernel: {SHARDS}-shard aggregate events/sec ===")
    print(
        format_table(
            rows,
            [
                "family",
                "streams",
                "shards",
                "events",
                "dropped",
                "sharded_ev_per_s",
                "single_ev_per_s",
                "shard_speedup",
            ],
        )
    )
    print(f"cores={cores} (speedup gate applies at >= {SHARDS} cores)")

    for row in rows:
        assert row["events"] > 0
        assert row["sharded_ev_per_s"] > 0
    # Acceptance gate: on a machine with enough cores to actually run the
    # shards, aggregate events/sec must be >= 2x the single process at
    # equal stream count.
    gated = [row for row in rows if "shard_speedup" in row]
    if cores >= SHARDS:
        for row in gated:
            assert row["shard_speedup"] >= SHARD_SPEEDUP_GATE, (
                f"steady@{row['streams']}: {row['shard_speedup']:.2f}x "
                f"< {SHARD_SPEEDUP_GATE}x with {SHARDS} shards on {cores} cores"
            )
    write_bench_json(
        "kernel_scaling_sharded",
        rows,
        meta={
            "shard_tiers": list(SHARD_TIERS),
            "shards": SHARDS,
            "repeats": REPEATS,
            "cores": cores,
            "speedup_gate": SHARD_SPEEDUP_GATE,
            "gate_enforced": cores >= SHARDS,
        },
    )


def _traced_run(platform, sources, **sim_kwargs):
    """One warmed, tracemalloc-attributed fleet run.

    The warmup run renders every source cache (stacks, flat buffers,
    arrival lists) so the measured run's peak attributes the *runtime* —
    queued events, heap, pending queues — not the one-time render.
    """
    MultiStreamSimulator(platform, sources, **sim_kwargs).run()
    tracemalloc.start()
    try:
        report = MultiStreamSimulator(platform, sources, **sim_kwargs).run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return report, peak


def test_kernel_memory_attribution():
    """Memory attribution: lazy arrival cursors vs the eager oracle.

    Gates: at the largest tier the lazy discipline's tracemalloc peak must
    be strictly below eager (the horizon's FrameReady events dominate the
    eager peak once records are off), every tier's lazy heap high-water
    stays O(active streams) while eager's tracks total frames, and doubling
    the horizon at the smallest tier leaves the lazy high-water flat.
    """
    if not MEMORY_TIERS:
        pytest.skip("KERNEL_MEMORY_TIERS is empty")
    platform = jetson_xavier_agx()
    sim_kwargs = dict(retain_records=False)
    # Rows are labelled by arrival discipline in a ``schedule_mode`` column
    # so they stay comparable with the committed trajectory.
    clients = {"lazy": None, "eager": EagerStreamClient}
    base_duration = 0.2

    rows = []
    peaks = {}
    marks = {}
    for num_streams in MEMORY_TIERS:
        sources = _fleet("steady", num_streams, duration=base_duration)
        for mode in ("lazy", "eager"):
            report, peak = _traced_run(
                platform, sources, client_factory=clients[mode], **sim_kwargs
            )
            peaks[num_streams, mode] = peak
            marks[num_streams, mode, base_duration] = report.heap_high_water
            rows.append(
                {
                    "family": "steady",
                    "streams": num_streams,
                    "schedule_mode": mode,
                    "horizon_s": base_duration,
                    "events": report.events_processed,
                    "frames": report.frames_generated,
                    "tracemalloc_peak_bytes": peak,
                    "heap_high_water": report.heap_high_water,
                }
            )
    # Horizon-independence probe: double the horizon at the smallest tier
    # (heap high-water only — no warmup/tracemalloc pass needed).
    horizon_streams = min(MEMORY_TIERS)
    long_duration = base_duration * 2
    sources = _fleet("steady", horizon_streams, duration=long_duration)
    for mode in ("lazy", "eager"):
        report = MultiStreamSimulator(
            platform, sources, client_factory=clients[mode], **sim_kwargs
        ).run()
        marks[horizon_streams, mode, long_duration] = report.heap_high_water
        rows.append(
            {
                "family": "steady",
                "streams": horizon_streams,
                "schedule_mode": mode,
                "horizon_s": long_duration,
                "events": report.events_processed,
                "frames": report.frames_generated,
                "tracemalloc_peak_bytes": None,
                "heap_high_water": report.heap_high_water,
            }
        )

    print("\n=== Memory attribution: lazy cursors vs eager horizon prime ===")
    print(
        format_table(
            rows,
            [
                "family",
                "streams",
                "schedule_mode",
                "horizon_s",
                "events",
                "frames",
                "tracemalloc_peak_bytes",
                "heap_high_water",
            ],
        )
    )
    top = max(MEMORY_TIERS)
    print(
        f"{top}-stream tracemalloc peak: lazy={peaks[top, 'lazy']} B "
        f"vs eager={peaks[top, 'eager']} B "
        f"({peaks[top, 'eager'] / max(peaks[top, 'lazy'], 1):.2f}x)"
    )

    frames = {
        (row["streams"], row["schedule_mode"], row["horizon_s"]): row["frames"]
        for row in rows
    }
    # Gate 1: the lazy peak is strictly below eager at the largest tier —
    # the horizon of queued FrameReady events is the allocation eager pays
    # and lazy never makes.
    assert peaks[top, "lazy"] < peaks[top, "eager"], (
        f"lazy peak {peaks[top, 'lazy']} B must be < eager "
        f"{peaks[top, 'eager']} B at {top} streams"
    )
    # Gate 2: heap high-water is O(active streams) lazily, O(total frames)
    # eagerly, at every tier.
    for num_streams in MEMORY_TIERS:
        lazy_hw = marks[num_streams, "lazy", base_duration]
        eager_hw = marks[num_streams, "eager", base_duration]
        assert lazy_hw <= MEMORY_HEAP_FACTOR * num_streams, (
            f"lazy heap high-water {lazy_hw} exceeds "
            f"{MEMORY_HEAP_FACTOR}x{num_streams} streams"
        )
        assert eager_hw >= frames[num_streams, "eager", base_duration]
        assert lazy_hw < eager_hw
    # Gate 3: doubling the horizon leaves the lazy high-water flat while
    # the eager one tracks the grown frame count.
    lazy_short = marks[horizon_streams, "lazy", base_duration]
    lazy_long = marks[horizon_streams, "lazy", long_duration]
    assert lazy_long <= lazy_short * MEMORY_HORIZON_SLACK, (
        f"lazy heap high-water grew with the horizon: "
        f"{lazy_short} -> {lazy_long}"
    )
    assert (
        marks[horizon_streams, "eager", long_duration]
        >= marks[horizon_streams, "eager", base_duration] * 1.5
    )
    write_bench_json(
        "kernel_scaling",
        rows,
        meta={
            "tiers": list(MEMORY_TIERS),
            "heap_factor": MEMORY_HEAP_FACTOR,
            "horizon_slack": MEMORY_HORIZON_SLACK,
            "retain_records": False,
        },
        section="memory",
    )
