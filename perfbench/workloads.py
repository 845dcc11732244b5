"""The benchmark's four workloads and the check of their simulated output.

Each workload is a fixed batch job: a :class:`~repro.scenarios.ScenarioSpec`
(the seed comes from the command line) compiled by the default registry and
run by :class:`~repro.runtime.streams.MultiStreamSimulator` on the modelled
Jetson Xavier AGX.  Every spec field and every simulator option the workload
needs is written out, so a later change of a default cannot silently change
a workload.  Options that only select an equivalence oracle (``dataplane``,
``schedule_mode``, the ``*_factory`` hooks) are never passed.

Simulated statistics are not performance metrics: a change that only speeds
up the simulator must leave them bit-identical.  They are checked here
instead, against fingerprints recorded in ``references.json`` and, for any
seed, by per-stream frame conservation.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List

# repro.scenarios goes first: importing repro.runtime before repro.core
# fails on a circular import (runtime.executor -> core.pipeline ->
# runtime.executor), and the scenarios package imports them in a safe order.
from repro.scenarios import ScenarioSpec, default_registry  # isort: skip
from repro.hw.jetson import jetson_xavier_agx
from repro.runtime.streams import MultiStreamSimulator, RemapPolicy

DEFAULT_SEED = 7
# The workers of one benchmark run simulate the seeds ``seed``,
# ``seed + SEED_STRIDE``, ``seed + 2 * SEED_STRIDE``, ...: how much work a
# scenario holds depends on its seed (the hot spot of ``hotspot_dsfa`` is a
# single rendered sequence), and a run's medians over several seeds vary
# less from one run to the next than one seed's would.
SEED_STRIDE = 7919
REFERENCES = Path(__file__).resolve().parent / "references.json"

# The overloaded no-DSFA fleet: ~93% of frames hit the client's backlog drop
# rule, so kernel routing, the heap and the drop path carry the run, and
# DSFA and NMP do nothing.  ``fleet_sharded`` runs the same job in two
# worker processes.
_FLEET_SPEC = dict(
    family="steady",
    num_streams=1024,
    duration=0.6,
    scale=0.06,
    num_bins=5,
    network_resolution=(64, 64),
    params={"optimization": "e2sf"},
)
_FLEET_OPTIONS = dict(
    cost_mode="profile",
    retain_records=False,
    record_limit=None,
    occupancy_resolution=1.0 / 64.0,
    max_merge_streams=4,
    remap_policy=None,
)

SPECS: Dict[str, dict] = {
    "fleet_e2sf": _FLEET_SPEC,
    # Zipf-skewed onto one signature with DSFA on: placement and merge,
    # FrameStack.merge_ranges, profile combination and cross-stream
    # batching dominate; records are retained, so they are written too.
    "hotspot_dsfa": dict(
        family="hotspot",
        num_streams=512,
        duration=0.5,
        scale=0.12,
        num_bins=5,
        network_resolution=(64, 64),
        params={"optimization": "e2sf+dsfa"},
    ),
    # Every join and leave runs a budgeted NMP search; render and kernel
    # are light.
    "churn_remap": dict(
        family="churn",
        num_streams=48,
        duration=0.6,
        scale=0.12,
        num_bins=5,
        network_resolution=(64, 64),
        params={"optimization": "e2sf+dsfa+nmp"},
    ),
    "fleet_sharded": _FLEET_SPEC,
}


def simulator_options(workload: str) -> dict:
    """Every MultiStreamSimulator keyword the workload runs with."""
    if workload == "fleet_e2sf":
        return dict(_FLEET_OPTIONS, shards=1)
    if workload == "fleet_sharded":
        return dict(
            _FLEET_OPTIONS,
            shards=2,
            shard_by="signature",
            shard_mode="process",
            epoch_length=None,
        )
    if workload == "hotspot_dsfa":
        return dict(
            cost_mode="profile",
            retain_records=True,
            record_limit=None,
            occupancy_resolution=1.0 / 64.0,
            max_merge_streams=4,
            remap_policy=None,
            shards=1,
        )
    if workload == "churn_remap":
        return dict(
            cost_mode="profile",
            retain_records=True,
            record_limit=None,
            occupancy_resolution=1.0 / 64.0,
            max_merge_streams=4,
            remap_policy=RemapPolicy(),
            shards=1,
        )
    raise KeyError(f"unknown workload {workload!r}; available: {', '.join(SPECS)}")


def run_seed(seed: int, worker: int) -> int:
    """The scenario seed of the ``worker``-th worker of a run at ``seed``."""
    return seed + SEED_STRIDE * worker


def build_spec(workload: str, seed: int) -> ScenarioSpec:
    """The workload's scenario at ``seed``."""
    return ScenarioSpec(name=workload, seed=seed, **SPECS[workload])


def compile_and_render(spec: ScenarioSpec) -> list:
    """Set-up: compile the spec and render every source's frame stack."""
    sources = default_registry().compile(spec)
    for source in sources:
        source.generate_stack()
    return sources


def simulate(workload: str, sources: list):
    """Run the workload's simulator over rendered sources; return the report."""
    simulator = MultiStreamSimulator(
        jetson_xavier_agx(), sources, **simulator_options(workload)
    )
    return simulator.run()


# ----------------------------------------------------------------------
# correctness
# ----------------------------------------------------------------------
def outcome(report) -> dict:
    """The simulated outcome a performance change must leave bit-identical.

    Per-stream frames generated and dropped, inferences, latency sum and
    energy sum, plus the fleet makespan, folded into one digest (floats by
    their exact hex form).  Implementation counters — events processed,
    heap high water, cost-cache hits — are left out: performance changes
    may move them.
    """
    streams = []
    for name in sorted(report.reports):
        stream = report.reports[name]
        inferences = stream.num_inferences
        streams.append(
            [
                name,
                stream.frames_generated,
                stream.frames_dropped,
                inferences,
                (stream.mean_latency * inferences).hex(),
                float(stream.total_energy).hex(),
            ]
        )
    makespan = float(report.makespan)
    digest = hashlib.sha256(
        json.dumps([streams, makespan.hex()], separators=(",", ":")).encode()
    ).hexdigest()
    return {
        "digest": digest,
        "streams": len(streams),
        "frames_generated": report.frames_generated,
        "frames_dropped": report.frames_dropped,
        "inferences": report.total_inferences,
        "energy_j": report.total_energy,
        "makespan_s": makespan,
    }


def conservation_errors(report, sources) -> List[str]:
    """Per-stream frame conservation from the report's counters.

    Holds for every seed.  Each stream generated exactly the frames its
    source rendered.  Without DSFA every generated frame was executed alone
    (one inference) or dropped.  With DSFA every generated frame went into
    exactly one merged frame, and every merged frame was executed or
    evicted; that check needs the retained records.
    """
    errors = []
    if set(report.reports) != {source.name for source in sources}:
        return ["report streams differ from the compiled sources"]
    for source in sources:
        stream = report.reports[source.name]
        _, arrivals = source.generate_stack()
        if stream.frames_generated != len(arrivals):
            errors.append(
                f"{source.name}: generated {stream.frames_generated} frames, "
                f"rendered {len(arrivals)}"
            )
        if not source.config.optimization.uses_dsfa:
            if stream.num_inferences + stream.frames_dropped != stream.frames_generated:
                errors.append(
                    f"{source.name}: {stream.num_inferences} inferences + "
                    f"{stream.frames_dropped} drops != {stream.frames_generated} frames"
                )
            continue
        if stream.frames_merged > stream.frames_generated:
            errors.append(f"{source.name}: more merged frames than generated")
        if stream.frames_generated and not stream.frames_merged:
            errors.append(f"{source.name}: frames generated but none dispatched")
        if stream.keep_records:
            executed = sum(record.num_frames for record in stream.records)
            if executed + stream.frames_dropped != stream.frames_merged:
                errors.append(
                    f"{source.name}: {executed} executed + {stream.frames_dropped} "
                    f"evicted != {stream.frames_merged} merged frames"
                )
    return errors


def load_references() -> dict:
    """Recorded outcomes: ``{workload: {seed: outcome}}``."""
    if not REFERENCES.is_file():
        return {}
    return json.loads(REFERENCES.read_text())["outcomes"]


def check(workload: str, seed: int, report, sources) -> List[str]:
    """Every correctness error of one run (empty when the run is correct)."""
    errors = conservation_errors(report, sources)
    expected = load_references().get(workload, {}).get(str(seed))
    if expected is not None:
        actual = outcome(report)
        if actual != expected:
            diff = {
                key: (expected.get(key), actual[key])
                for key in actual
                if expected.get(key) != actual[key]
            }
            errors.append(f"outcome differs from the recorded reference: {diff}")
    return errors
