"""Benchmark: layered per-layer-occupancy cost stack vs the scalar-keyed stack.

Runs one mixed-density DSFA fleet — many streams sharing a single network
signature but fed from scenes spanning a wide event-density range, so DSFA
merges and cross-stream batches hit the cost stack at many distinct input
occupancies — under three cost stacks:

* ``flat`` — the pre-profile scalar path (``cost_mode="flat"``): measured
  input occupancy on the first layer, static modelled sparsity deeper.
  Also the equivalence gate: the layered stack running a uniform (flat)
  profile must be **bit-identical** to the
  :class:`~repro.runtime.legacy.ScalarCostModel` oracle.
* ``profile/layered`` — per-layer occupancy propagation with per-layer
  bucketing (``cost_mode="profile"``): mixed-density inputs converge onto
  shared deep-layer cache cells within a few layers.
* ``profile/scalar-keyed`` — the same propagated semantics on the PR-4
  scalar-keyed architecture (:class:`~repro.runtime.legacy.ScalarCostModel`
  in profile mode): per-layer occupancies derive from the input bucket and
  are keyed raw, so every input bucket mints its own copy of every layer
  cell.

The acceptance gate asserts the layered stack's ``LayerCostTable`` cache
hit-rate beats the scalar-keyed stack's on this fleet, with no events/sec
collapse.

A second **DAG-fleet tier** (:func:`test_cost_model_dag_fleet`) runs the
same comparison on a fleet spanning the skip-connection networks of the
zoo (Spike-FlowNet, Fusion-FlowNet, E2Depth, HALSIE).  Under graph-aware
propagation, skip connections re-inject input-dependent occupancies deep
into the decoders, so deep-layer convergence is weaker than on serial
chains — the tier gates that per-layer bucketing *still* shares cache
cells better than the raw-keyed scalar stack on exactly the networks
where propagation does the most work.

Both tiers append their rows (tagged ``tier``) to the same
``BENCH_cost_model.json`` trajectory.

Environment knobs (used by the CI smoke job):

* ``COST_MODEL_STREAMS`` — mixed-density fleet size (default 32; CI smokes 12).
* ``COST_MODEL_DAG_STREAMS`` — DAG fleet size (default 16; CI smokes 8).
* ``COST_MODEL_REPEATS`` — timing repeats per stack (default 3).
"""

from __future__ import annotations

import os
import time

from bench_utils import write_bench_json
from repro.core import DSFAConfig, EvEdgeConfig, OptimizationLevel
from repro.events import generate_sequence
from repro.experiments import format_table
from repro.hw import jetson_xavier_agx
from repro.models import build_network
from repro.runtime import MultiStreamSimulator, StreamSource
from repro.runtime.legacy import ScalarCostModel

NUM_STREAMS = int(os.environ.get("COST_MODEL_STREAMS", "32"))
NUM_DAG_STREAMS = int(os.environ.get("COST_MODEL_DAG_STREAMS", "16"))
REPEATS = int(os.environ.get("COST_MODEL_REPEATS", "3"))

# Skip-connection networks: graph propagation combines occupancies at the
# decoder joins, so their deep layers stay input-dependent.
_DAG_NETWORKS = ("spikeflownet", "fusionflownet", "e2depth", "halsie")

# Rows from every tier that ran in this session, written together so the
# committed trajectory holds the whole benchmark regardless of tier count.
_TIER_ROWS = []


def _publish_rows(rows):
    _TIER_ROWS.extend(rows)
    write_bench_json(
        "cost_model",
        list(_TIER_ROWS),
        meta={
            "streams": NUM_STREAMS,
            "dag_streams": NUM_DAG_STREAMS,
            "repeats": REPEATS,
        },
    )

# Scenes chosen to span the density spectrum: calibration bars are nearly
# empty, the drone scenes are bursty, the driving scenes moderately dense.
_SCENES = (
    "calibration_bars",
    "indoor_flying1",
    "outdoor_day1",
    "high_speed_disk",
    "town10",
    "indoor_flying2",
)


def _mixed_density_fleet(num_streams: int):
    """N DSFA streams on one network signature, densities all over the map."""
    network = build_network("spikeflownet", 64, 64)
    config = EvEdgeConfig(
        num_bins=8,
        optimization=OptimizationLevel.E2SF_DSFA,
        dsfa=DSFAConfig(inference_queue_depth=4),
    )
    sources = []
    for i in range(num_streams):
        sequence = generate_sequence(
            _SCENES[i % len(_SCENES)], scale=0.08, duration=0.25, seed=11 + i
        )
        sources.append(
            StreamSource(
                name=f"mix{i:03d}",
                sequence=sequence,
                network=network,
                config=config,
                start_offset=0.0004 * i,
            )
        )
    return sources


def _timed_run(platform, sources, repeats=REPEATS, **sim_kwargs):
    best = float("inf")
    report = None
    cache_info = None
    for _ in range(repeats):
        simulator = MultiStreamSimulator(platform, sources, **sim_kwargs)
        start = time.perf_counter()
        report = simulator.run()
        best = min(best, time.perf_counter() - start)
        cache_info = report.cache_info
    return report, cache_info, best


def _reports_identical(a, b) -> bool:
    return (
        set(a.reports) == set(b.reports)
        and all(a.reports[k].records == b.reports[k].records for k in a.reports)
        and a.mean_latency == b.mean_latency
        and a.total_energy == b.total_energy
        and a.makespan == b.makespan
        and a.frames_dropped == b.frames_dropped
    )


def test_cost_model_stacks(benchmark):
    platform = jetson_xavier_agx()
    sources = _mixed_density_fleet(NUM_STREAMS)
    for source in sources:
        source.generate_stack()  # warm the per-source frame cache

    stacks = [
        ("flat", dict(cost_mode="flat")),
        ("profile/layered", dict(cost_mode="profile")),
        (
            "profile/scalar-keyed",
            dict(cost_mode="profile", cost_model_factory=ScalarCostModel),
        ),
    ]

    benchmark.pedantic(
        lambda: MultiStreamSimulator(platform, sources, cost_mode="profile").run(),
        iterations=1,
        rounds=1,
    )

    rows = []
    results = {}
    for label, kwargs in stacks:
        report, cache, elapsed = _timed_run(platform, sources, **kwargs)
        results[label] = (report, cache, elapsed)
        rows.append(
            {
                "tier": "mixed-density",
                "stack": label,
                "events": report.events_processed,
                "ev_per_s": report.events_processed / elapsed,
                "inferences": report.total_inferences,
                "mean_latency_ms": report.mean_latency * 1e3,
                "table_entries": cache["entries"],
                "cache_hit_rate": cache["hit_rate"],
            }
        )

    print(f"\n=== Cost stacks on a mixed-density DSFA fleet ({NUM_STREAMS} streams) ===")
    print(
        format_table(
            rows,
            [
                "stack",
                "events",
                "ev_per_s",
                "inferences",
                "mean_latency_ms",
                "table_entries",
                "cache_hit_rate",
            ],
        )
    )
    layered = results["profile/layered"]
    scalar = results["profile/scalar-keyed"]
    print(
        "LayerCostTable cache hit-rate: layered="
        f"{layered[1]['hit_rate']:.3f} vs scalar-keyed={scalar[1]['hit_rate']:.3f}"
    )

    # Equivalence gate: a uniform (flat) profile must be bit-identical to
    # the PR-4 scalar oracle on the same seeded fleet.
    flat_report, _, _ = results["flat"]
    oracle_report, _, _ = _timed_run(
        platform, sources, repeats=1, cost_mode="flat", cost_model_factory=ScalarCostModel
    )
    assert _reports_identical(flat_report, oracle_report), (
        "flat-profile stack must be bit-identical to the scalar cost oracle"
    )

    # The fleet must actually mix densities and merge, or the comparison is
    # vacuous.
    assert layered[0].total_inferences > 0
    occupancies = {
        round(r.occupancy, 4)
        for stream in layered[0].reports.values()
        for r in stream.records
    }
    assert len(occupancies) > 4, "fleet does not exercise mixed densities"

    # Acceptance gate: per-layer bucketing after propagation must beat the
    # scalar-keyed stack's cache hit-rate (deep-layer cells are shared
    # across input densities instead of re-minted per input bucket).
    assert layered[1]["hit_rate"] > scalar[1]["hit_rate"], (
        f"layered stack hit-rate {layered[1]['hit_rate']:.3f} must exceed "
        f"scalar-keyed {scalar[1]['hit_rate']:.3f}"
    )
    assert layered[1]["entries"] < scalar[1]["entries"]

    # Sanity: the layered stack must not collapse events/sec vs the flat
    # path (propagation work is memoized per input bucket).
    for row in rows:
        assert row["ev_per_s"] > 0
    _publish_rows(rows)


def _dag_fleet(num_streams: int):
    """Streams spread across the zoo's skip-connection networks.

    Streams sharing a network signature still merge/batch; the tier's
    point is the cache behaviour when graph propagation is doing real
    join work, so every DAG network in the zoo contributes a slice of
    the fleet at mixed densities.
    """
    networks = {name: build_network(name, 64, 64) for name in _DAG_NETWORKS}
    config = EvEdgeConfig(
        num_bins=8,
        optimization=OptimizationLevel.E2SF_DSFA,
        dsfa=DSFAConfig(inference_queue_depth=4),
    )
    sources = []
    for i in range(num_streams):
        name = _DAG_NETWORKS[i % len(_DAG_NETWORKS)]
        sequence = generate_sequence(
            _SCENES[i % len(_SCENES)], scale=0.08, duration=0.25, seed=37 + i
        )
        sources.append(
            StreamSource(
                name=f"dag{i:03d}",
                sequence=sequence,
                network=networks[name],
                config=config,
                start_offset=0.0004 * i,
            )
        )
    return sources


def test_cost_model_dag_fleet(benchmark):
    platform = jetson_xavier_agx()
    sources = _dag_fleet(NUM_DAG_STREAMS)
    for source in sources:
        source.generate_stack()

    benchmark.pedantic(
        lambda: MultiStreamSimulator(platform, sources, cost_mode="profile").run(),
        iterations=1,
        rounds=1,
    )

    stacks = [
        ("profile/layered", dict(cost_mode="profile")),
        (
            "profile/scalar-keyed",
            dict(cost_mode="profile", cost_model_factory=ScalarCostModel),
        ),
    ]
    rows = []
    results = {}
    for label, kwargs in stacks:
        report, cache, elapsed = _timed_run(platform, sources, **kwargs)
        results[label] = (report, cache, elapsed)
        rows.append(
            {
                "tier": "dag-fleet",
                "stack": label,
                "events": report.events_processed,
                "ev_per_s": report.events_processed / elapsed,
                "inferences": report.total_inferences,
                "mean_latency_ms": report.mean_latency * 1e3,
                "table_entries": cache["entries"],
                "cache_hit_rate": cache["hit_rate"],
            }
        )

    print(
        f"\n=== Cost stacks on a DAG fleet ({NUM_DAG_STREAMS} streams over "
        f"{len(_DAG_NETWORKS)} skip-connection networks) ==="
    )
    print(
        format_table(
            rows,
            [
                "stack",
                "events",
                "ev_per_s",
                "inferences",
                "mean_latency_ms",
                "table_entries",
                "cache_hit_rate",
            ],
        )
    )
    layered = results["profile/layered"]
    scalar = results["profile/scalar-keyed"]
    print(
        "DAG-fleet LayerCostTable cache hit-rate: layered="
        f"{layered[1]['hit_rate']:.3f} vs scalar-keyed={scalar[1]['hit_rate']:.3f}"
    )

    # The fleet must mix densities, or deep-layer sharing is vacuous.
    assert layered[0].total_inferences > 0
    occupancies = {
        round(r.occupancy, 4)
        for stream in layered[0].reports.values()
        for r in stream.records
    }
    assert len(occupancies) > 4, "DAG fleet does not exercise mixed densities"

    # Acceptance gate: even with skip joins keeping decoder occupancies
    # input-dependent, per-layer bucketing must share cache cells at least
    # as well as the raw-keyed scalar stack — here strictly better, since
    # the scalar stack mints every layer cell per raw input occupancy.
    assert layered[1]["hit_rate"] >= scalar[1]["hit_rate"], (
        f"DAG-fleet layered hit-rate {layered[1]['hit_rate']:.3f} must be at "
        f"least scalar-keyed {scalar[1]['hit_rate']:.3f}"
    )
    assert layered[1]["entries"] < scalar[1]["entries"]
    for row in rows:
        assert row["ev_per_s"] > 0
    _publish_rows(rows)
