"""Benchmark: columnar COO data plane — render, merge and fleet throughput.

Three sections, all measured against the per-frame oracle paths the data
plane keeps alive (the :mod:`repro.runtime.legacy` pattern):

* **render** — events-rendered/sec of the one-pass
  :meth:`~repro.core.e2sf.Event2SparseFrameConverter.convert_stack`
  (single sort/group pass over the whole recording, zero-copy
  :class:`~repro.frames.stack.FrameStack` views) vs the per-interval ×
  per-bin :meth:`~repro.core.e2sf.Event2SparseFrameConverter.
  convert_sequence` loop.  Tiers are total event bins per recording; the
  ≥ 3x acceptance gate is asserted at the 1024-bin tier.
* **merge** — frames-merged/sec of the DSFA dispatch kernel
  :meth:`~repro.frames.stack.FrameStack.merge_ranges` (every bucket, as an
  index range into one packed stack, reduced in one grouped pass) vs one
  :meth:`~repro.frames.sparse.SparseFrame.add_reference`
  (``np.unique`` + ``bincount`` round trip) per bucket.  Tiers are bucket
  counts per dispatch batch, in the paper's sparse regime (~0.6 %
  occupancy, merge buckets of 4); the ≥ 2x cAdd gate is asserted at the
  512-bucket tier.  cAverage is reported alongside without a gate.
* **fleet** — end-to-end events/sec of a seeded ``mixed_fleet`` DSFA
  scenario run through ``MultiStreamSimulator`` on the production stack
  transport (columnar ``(stack, index)`` events, index-range merge buckets,
  stack-backed batches) vs the per-frame oracle transport
  (:class:`~repro.runtime.legacy.ReferenceStreamClient` driving
  :class:`~repro.runtime.legacy.ReferenceAggregator`).  Rendering
  is pre-cached outside the timed region on both sides, so the tier
  isolates the runtime transport.  Tiers are stream counts; the ≥ 2x gate
  is asserted at the 256-stream tier, along with a tracemalloc
  peak-allocation gate (the stack transport must not allocate more than
  the per-frame oracle at peak).

Every timed cell first asserts the fast path is bit-identical to its
oracle — a benchmark of a wrong kernel is worthless.  All sections write
into one committed ``BENCH_dataplane.json`` (rows tagged by section).

Environment knobs (used by the CI smoke job):

* ``DATAPLANE_RENDER_TIERS`` — comma-separated total-bin tiers (default
  ``256,1024``).  CI runs the smallest tiers only, which skips the gates.
* ``DATAPLANE_MERGE_TIERS`` — comma-separated bucket-count tiers (default
  ``128,512``).
* ``DATAPLANE_FLEET_TIERS`` — comma-separated stream-count tiers (default
  ``64,256``).
* ``DATAPLANE_REPEATS`` — timing repeats per cell (default 5).
"""

from __future__ import annotations

import gc
import os
import time

import numpy as np

import tracemalloc

from bench_utils import write_bench_json
from repro.core import Event2SparseFrameConverter
from repro.events import EventStream, SensorGeometry
from repro.experiments import format_table
from repro.frames import FrameStack, SparseFrame
from repro.hw import jetson_xavier_agx
from repro.runtime import MultiStreamSimulator
from repro.runtime.legacy import ReferenceStreamClient
from repro.scenarios import default_registry


def _tiers(env_var: str, default: str):
    return tuple(
        int(tier)
        for tier in os.environ.get(env_var, default).split(",")
        if tier.strip()
    )


RENDER_TIERS = _tiers("DATAPLANE_RENDER_TIERS", "256,1024")
MERGE_TIERS = _tiers("DATAPLANE_MERGE_TIERS", "128,512")
REPEATS = int(os.environ.get("DATAPLANE_REPEATS", "5"))

NUM_BINS = 4  # E2SF bins per grayscale interval
RENDER_GATE_TIER = 1024  # total bins
RENDER_GATE = 3.0
RENDER_EVENTS = 100_000
RENDER_GEOMETRY = (128, 128)  # (height, width)

MERGE_GATE_TIER = 512  # buckets per dispatch batch
MERGE_GATE = 2.0
MERGE_BUCKET_FRAMES = 4  # MBsize
MERGE_NNZ = 30  # active sites per frame: ~0.6 % of an 80x60 frame
MERGE_GEOMETRY = (60, 80)

FLEET_TIERS = _tiers("DATAPLANE_FLEET_TIERS", "64,256")
FLEET_GATE_TIER = 256  # streams
FLEET_GATE = 2.0
FLEET_SCENARIO = dict(duration=0.25, scale=0.1, num_bins=8, seed=42)


def _best(fn, repeats=REPEATS):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _frames_bit_identical(a: SparseFrame, b: SparseFrame) -> bool:
    return (
        (a.height, a.width) == (b.height, b.width)
        and a.t_start == b.t_start
        and a.t_end == b.t_end
        and np.array_equal(a.rows, b.rows)
        and np.array_equal(a.cols, b.cols)
        and np.array_equal(a.pos, b.pos)
        and np.array_equal(a.neg, b.neg)
    )


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
def _render_workload(total_bins: int, seed: int = 0):
    height, width = RENDER_GEOMETRY
    geometry = SensorGeometry(width=width, height=height)
    rng = np.random.default_rng(seed)
    n = RENDER_EVENTS
    stream = EventStream(
        rng.integers(0, width, n),
        rng.integers(0, height, n),
        np.sort(rng.uniform(0.0, 2.0, n)),
        rng.choice([-1, 1], n),
        geometry,
    )
    num_intervals = total_bins // NUM_BINS
    timestamps = np.linspace(0.0, 2.0, num_intervals + 1)
    return stream, timestamps


def _merge_workload(num_buckets: int, seed: int = 1):
    height, width = MERGE_GEOMETRY
    rng = np.random.default_rng(seed)
    frames = []
    for i in range(num_buckets * MERGE_BUCKET_FRAMES):
        nnz = int(rng.integers(max(1, MERGE_NNZ // 2), MERGE_NNZ + 1))
        flat = rng.choice(height * width, size=nnz, replace=False)
        frames.append(
            SparseFrame(
                (flat // width).astype(np.int32),
                (flat % width).astype(np.int32),
                rng.integers(0, 5, nnz).astype(np.float64),
                rng.integers(0, 5, nnz).astype(np.float64),
                height,
                width,
                i * 0.001,
                (i + 1) * 0.001,
            )
        )
    return [
        frames[i * MERGE_BUCKET_FRAMES : (i + 1) * MERGE_BUCKET_FRAMES]
        for i in range(num_buckets)
    ]


# ----------------------------------------------------------------------
# sections
# ----------------------------------------------------------------------
def _render_rows(benchmark):
    converter = Event2SparseFrameConverter(NUM_BINS)
    rows = []
    for total_bins in RENDER_TIERS:
        stream, timestamps = _render_workload(total_bins)
        stack = converter.convert_stack(stream, timestamps)
        oracle = [
            f
            for interval in converter.convert_sequence(stream, list(timestamps))
            for f in interval
        ]
        assert len(stack) == len(oracle) == total_bins
        assert all(
            _frames_bit_identical(view, ref)
            for view, ref in zip(stack.frames(), oracle)
        ), f"render tier {total_bins}: stack path diverged from the oracle"

        if total_bins == max(RENDER_TIERS):
            benchmark.pedantic(
                lambda: converter.convert_stack(stream, timestamps),
                iterations=1,
                rounds=1,
            )
        t_stack = _best(lambda: converter.convert_stack(stream, timestamps))
        t_oracle = _best(
            lambda: converter.convert_sequence(stream, list(timestamps))
        )
        rows.append(
            {
                "section": "render",
                "tier": total_bins,
                "events": len(stream),
                "stack_ev_per_s": len(stream) / t_stack,
                "oracle_ev_per_s": len(stream) / t_oracle,
                "speedup": t_oracle / t_stack,
            }
        )
    return rows


def _merge_rows():
    rows = []
    for num_buckets in MERGE_TIERS:
        groups = _merge_workload(num_buckets)
        # The runtime's buckets are index ranges into one rendered stack:
        # pack the workload once (outside the timed region) and merge it
        # as MBsize-frame ranges.
        stack = FrameStack.from_frames([f for group in groups for f in group])
        ranges = [
            (i * MERGE_BUCKET_FRAMES, (i + 1) * MERGE_BUCKET_FRAMES)
            for i in range(num_buckets)
        ]
        num_frames = num_buckets * MERGE_BUCKET_FRAMES

        merged = stack.merge_ranges(ranges)
        reference = [SparseFrame.add_reference(group) for group in groups]
        assert all(
            _frames_bit_identical(view, ref)
            for view, ref in zip(merged.frames(), reference)
        ), f"merge tier {num_buckets}: segmented kernel diverged from the oracle"
        averaged = stack.merge_ranges(ranges, average=True)
        assert all(
            _frames_bit_identical(view, SparseFrame.average(group))
            for view, group in zip(averaged.frames(), groups)
        )

        t_segmented = _best(lambda: stack.merge_ranges(ranges))
        t_oracle = _best(
            lambda: [SparseFrame.add_reference(group) for group in groups]
        )
        t_average = _best(lambda: stack.merge_ranges(ranges, average=True))
        rows.append(
            {
                "section": "merge",
                "tier": num_buckets,
                "frames": num_frames,
                "cadd_frames_per_s": num_frames / t_segmented,
                "oracle_frames_per_s": num_frames / t_oracle,
                "caverage_frames_per_s": num_frames / t_average,
                "cadd_speedup": t_oracle / t_segmented,
            }
        )
    return rows


def _fleet_aggregates(report):
    return (
        report.num_streams,
        report.total_inferences,
        report.frames_generated,
        report.frames_dropped,
        report.total_energy,
        report.makespan,
        report.mean_latency,
        report.throughput,
    )


def _fleet_rows():
    registry = default_registry()
    platform = jetson_xavier_agx()
    rows = []
    for num_streams in FLEET_TIERS:
        overrides = dict(num_streams=num_streams, **FLEET_SCENARIO)
        # One source list per data plane (sources cache their rendered
        # stacks, and the reference transport additionally materialises the
        # per-frame view); rendering happens here, outside the timed region,
        # so the tier isolates the runtime transport.
        per_plane = {}
        for dataplane in ("stack", "reference"):
            sources = registry.compile("mixed_fleet", **overrides)
            for source in sources:
                source.generate_stack()
                if dataplane == "reference":
                    source.generate_frames()
            per_plane[dataplane] = sources

        clients = {"stack": None, "reference": ReferenceStreamClient}

        def run(dataplane):
            return MultiStreamSimulator(
                platform, per_plane[dataplane], client_factory=clients[dataplane]
            ).run()

        stack_report = run("stack")
        oracle_report = run("reference")
        assert _fleet_aggregates(stack_report) == _fleet_aggregates(oracle_report), (
            f"fleet tier {num_streams}: stack transport diverged from the oracle"
        )
        events = stack_report.events_processed

        # Interleave the two planes' timing rounds: background load that
        # drifts over the measurement window then biases both baselines
        # equally instead of landing on whichever ran second.
        t_stack = t_oracle = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            run("stack")
            t_stack = min(t_stack, time.perf_counter() - start)
            start = time.perf_counter()
            run("reference")
            t_oracle = min(t_oracle, time.perf_counter() - start)

        # Peak-allocation comparison in a separate untimed pass: tracemalloc
        # slows execution, and getrusage's ru_maxrss is process-monotone so
        # it cannot compare two sections within one process.  Collecting
        # before each pass pins the GC phase, which otherwise shifts the
        # measured peak by a few percent between passes.
        peaks = {}
        for dataplane in ("stack", "reference"):
            gc.collect()
            tracemalloc.start()
            run(dataplane)
            _, peaks[dataplane] = tracemalloc.get_traced_memory()
            tracemalloc.stop()

        rows.append(
            {
                "section": "fleet",
                "tier": num_streams,
                "events": events,
                "stack_ev_per_s": events / t_stack,
                "oracle_ev_per_s": events / t_oracle,
                "speedup": t_oracle / t_stack,
                "stack_peak_alloc_bytes": peaks["stack"],
                "oracle_peak_alloc_bytes": peaks["reference"],
                "peak_alloc_ratio": peaks["stack"] / peaks["reference"],
            }
        )
    return rows


def test_dataplane_throughput(benchmark):
    render_rows = _render_rows(benchmark)
    merge_rows = _merge_rows()
    fleet_rows = _fleet_rows()

    print("\n=== Columnar render: events-rendered/sec (convert_stack vs loop) ===")
    print(
        format_table(
            render_rows,
            ["tier", "events", "stack_ev_per_s", "oracle_ev_per_s", "speedup"],
        )
    )
    print("\n=== DSFA merge: frames-merged/sec (merge_ranges vs per-bucket) ===")
    print(
        format_table(
            merge_rows,
            [
                "tier",
                "frames",
                "cadd_frames_per_s",
                "oracle_frames_per_s",
                "caverage_frames_per_s",
                "cadd_speedup",
            ],
        )
    )

    print("\n=== Fleet: end-to-end events/sec (stack vs reference dataplane) ===")
    print(
        format_table(
            fleet_rows,
            [
                "tier",
                "events",
                "stack_ev_per_s",
                "oracle_ev_per_s",
                "speedup",
                "peak_alloc_ratio",
            ],
        )
    )

    for row in render_rows:
        assert row["stack_ev_per_s"] > 0
    for row in merge_rows:
        assert row["cadd_frames_per_s"] > 0
    for row in fleet_rows:
        assert row["stack_ev_per_s"] > 0

    # Acceptance gates, asserted only when the gate tier actually ran (the
    # CI smoke job runs reduced tiers and skips them).
    render_gate = next(
        (r["speedup"] for r in render_rows if r["tier"] == RENDER_GATE_TIER), None
    )
    if render_gate is not None:
        print(f"1024-bin render speedup: {render_gate:.2f}x (gate: >= {RENDER_GATE}x)")
        assert render_gate >= RENDER_GATE, (
            f"render@{RENDER_GATE_TIER} bins: {render_gate:.2f}x < {RENDER_GATE}x"
        )
    merge_gate = next(
        (r["cadd_speedup"] for r in merge_rows if r["tier"] == MERGE_GATE_TIER), None
    )
    if merge_gate is not None:
        print(f"512-bucket cAdd speedup: {merge_gate:.2f}x (gate: >= {MERGE_GATE}x)")
        assert merge_gate >= MERGE_GATE, (
            f"merge@{MERGE_GATE_TIER} buckets: {merge_gate:.2f}x < {MERGE_GATE}x"
        )
    fleet_gate_row = next(
        (r for r in fleet_rows if r["tier"] == FLEET_GATE_TIER), None
    )
    if fleet_gate_row is not None:
        fleet_gate = fleet_gate_row["speedup"]
        alloc_ratio = fleet_gate_row["peak_alloc_ratio"]
        print(
            f"256-stream fleet speedup: {fleet_gate:.2f}x (gate: >= {FLEET_GATE}x), "
            f"peak-alloc ratio: {alloc_ratio:.2f} (gate: <= 1.0)"
        )
        assert fleet_gate >= FLEET_GATE, (
            f"fleet@{FLEET_GATE_TIER} streams: {fleet_gate:.2f}x < {FLEET_GATE}x"
        )
        assert alloc_ratio <= 1.0, (
            f"fleet@{FLEET_GATE_TIER} streams: stack transport peaked at "
            f"{alloc_ratio:.2f}x the oracle's allocations"
        )

    write_bench_json(
        "dataplane",
        render_rows + merge_rows + fleet_rows,
        meta={
            "render_tiers": list(RENDER_TIERS),
            "merge_tiers": list(MERGE_TIERS),
            "fleet_tiers": list(FLEET_TIERS),
            "repeats": REPEATS,
            "num_bins": NUM_BINS,
            "render_events": RENDER_EVENTS,
            "render_geometry": list(RENDER_GEOMETRY),
            "merge_bucket_frames": MERGE_BUCKET_FRAMES,
            "merge_nnz_per_frame": MERGE_NNZ,
            "merge_geometry": list(MERGE_GEOMETRY),
            "render_gate": {"tier": RENDER_GATE_TIER, "min_speedup": RENDER_GATE},
            "merge_gate": {"tier": MERGE_GATE_TIER, "min_speedup": MERGE_GATE},
            "fleet_gate": {
                "tier": FLEET_GATE_TIER,
                "min_speedup": FLEET_GATE,
                "max_peak_alloc_ratio": 1.0,
            },
            "fleet_scenario": dict(FLEET_SCENARIO),
        },
    )
