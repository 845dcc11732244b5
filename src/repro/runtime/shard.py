"""Sharded multiprocess runtime: epoch-synced worker kernels for 10k+ fleets.

One Python heap and one GIL cap how many streams a single
:class:`~repro.runtime.sim.SimulationKernel` can sustain regardless of
per-event cost.  ``MultiStreamSimulator(shards=N)`` is the entry point:
its ``run`` hands the configured simulator to :class:`ShardedSimulator`,
which partitions the fleet's :class:`~repro.runtime.streams.StreamSource`s
into *shards* that each own their
:class:`~repro.runtime.executor.SignatureServer`s,
:class:`~repro.runtime.sim.NetworkCostModel`s and
:class:`~repro.runtime.sim.LayerCostTable` outright, runs one kernel per
shard (worker processes, or inline), and merges the per-shard streaming
reports with :meth:`~repro.runtime.streams.MultiStreamReport.merge`.

**Partitioning rules.**  The unit of partitioning is the *signature group*
— every stream sharing one (network, mapping, config) signature — because
:class:`SignatureServer` only ever merges dispatches within a signature: a
signature-disjoint partition needs no cross-shard event traffic at all.
Two rules are available:

* ``by="signature"`` (default) — signature groups are greedily balanced
  across the requested shard count (largest group first onto the lightest
  shard; deterministic).  Each shard tracks busy time on its *own* kernel,
  so signatures that share a PE name but land on different shards stop
  contending: the shards model replicas of the platform (fleet-of-fleets),
  which is the scaling semantics the 10k-stream benchmark tiers measure.
* ``by="platform_group"`` — signature groups are first merged into
  connected components over shared PEs and only whole components are
  distributed.  Shards are then PE-disjoint by construction, so the merged
  report is **bit-identical** to the single-process kernel (the
  equivalence the seeded tests pin); the shard count is capped at the
  number of components.

**Epoch-barrier time sync.**  Shards must still agree on time for
platform-level accounting, so shards advance in lockstep through epochs of
``epoch_length`` simulated seconds: each shard runs its kernel up to the
epoch boundary, publishes an :class:`EpochSummary` (cumulative events /
inferences / drops plus its per-resource busy frontier) and blocks until
every shard reached the barrier.  One generator, :func:`_lockstep`, runs
a shard's epochs; the worker process and the inline driver only differ in
how they step it.  The protocol is *conservative* — with a
signature-disjoint partition no cross-shard event can exist, so pausing a
kernel at a barrier never reorders its heap and the merged result is
independent of the epoch length (property-tested).  The summaries are the
hook later cross-shard consumers (fault events, admission control, global
telemetry) attach to; :func:`epoch_rows` folds them into one platform-level
per-epoch timeline.

**Limitations.**  Cross-stream merging stays within a shard (it already
stayed within a signature, and signatures never straddle shards).  Under
``by="signature"``, PE contention between different signatures is not
modelled across shards — use ``by="platform_group"`` when single-platform
fidelity matters more than scale.  Traces do not compose across kernels,
so sharded runs do not accept a trace.
"""

from __future__ import annotations

import math
import multiprocessing
import traceback
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .sim import NetworkCostModel
from .streams import (
    MultiStreamReport,
    MultiStreamSimulator,
    StreamSource,
    validate_fleet_options,
)

__all__ = [
    "DEFAULT_EPOCHS",
    "ShardPlan",
    "EpochSummary",
    "signature_groups",
    "partition_sources",
    "epoch_rows",
]

# Epochs a fleet's horizon is divided into when no epoch length is given:
# few enough barriers to stay off the hot path, frequent enough that the
# per-epoch platform accounting resolves the load curve.
DEFAULT_EPOCHS = 8


# ----------------------------------------------------------------------
# partitioning
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardPlan:
    """Deterministic fleet partition: source indices per shard.

    ``assignments[s]`` are the (ascending) indices into the source list
    owned by shard ``s``; every source appears in exactly one shard and
    streams sharing a signature always land together.  ``num_shards`` can
    be smaller than ``requested`` when there are fewer partition units
    (signature groups, or PE-connected components) than shards asked for.
    """

    assignments: Tuple[Tuple[int, ...], ...]
    by: str
    requested: int

    @property
    def num_shards(self) -> int:
        return len(self.assignments)

    @property
    def shard_sizes(self) -> Tuple[int, ...]:
        return tuple(len(indices) for indices in self.assignments)


def signature_groups(sources: Sequence[StreamSource]) -> List[List[int]]:
    """Source indices grouped by cost-surface signature, in first-appearance
    order — the indivisible units of any shard partition."""
    groups: Dict[tuple, List[int]] = {}
    for index, source in enumerate(sources):
        signature = NetworkCostModel.signature_for(
            source.network, source.config, source.mapping
        )
        groups.setdefault(signature, []).append(index)
    return list(groups.values())


def _platform_group_units(
    sources: Sequence[StreamSource],
    groups: List[List[int]],
    platform,
) -> List[List[int]]:
    """Merge signature groups into connected components over shared PEs.

    Resolving one :class:`NetworkCostModel` per signature yields the PE set
    its mapping occupies; groups whose PE sets intersect are unioned.  Only
    whole components may move between shards, which is what makes a
    ``platform_group`` partition bit-identical to the single-process run.
    """
    pe_sets = []
    for group in groups:
        source = sources[group[0]]
        model = NetworkCostModel(
            source.network, platform, config=source.config, mapping=source.mapping
        )
        pe_sets.append(set(model.pes_used))
    parent = list(range(len(groups)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(groups)):
        for j in range(i + 1, len(groups)):
            if pe_sets[i] & pe_sets[j]:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
    components: Dict[int, List[int]] = {}
    for i, group in enumerate(groups):
        components.setdefault(find(i), []).extend(group)
    return [components[root] for root in sorted(components)]


def partition_sources(
    sources: Sequence[StreamSource],
    shards: int,
    by: str = "signature",
    platform=None,
) -> ShardPlan:
    """Partition a fleet into at most ``shards`` balanced, disjoint shards.

    Units (signature groups, or PE-connected components for
    ``by="platform_group"``) are assigned largest-first onto the currently
    lightest shard — a pure function of the source list, so the same fleet
    always shards the same way in every process.
    """
    validate_fleet_options(shards=shards, shard_by=by)
    units = signature_groups(sources)
    if by == "platform_group":
        if platform is None:
            raise ValueError("platform_group partitioning requires the platform")
        units = _platform_group_units(sources, units, platform)
    num_shards = min(shards, len(units))
    order = sorted(range(len(units)), key=lambda u: (-len(units[u]), u))
    loads = [0] * num_shards
    buckets: List[List[int]] = [[] for _ in range(num_shards)]
    for u in order:
        target = min(range(num_shards), key=lambda s: (loads[s], s))
        buckets[target].extend(units[u])
        loads[target] += len(units[u])
    return ShardPlan(
        assignments=tuple(tuple(sorted(bucket)) for bucket in buckets),
        by=by,
        requested=shards,
    )


# ----------------------------------------------------------------------
# epoch-barrier protocol
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EpochSummary:
    """One shard's state at an epoch barrier (cumulative counters).

    ``t_end`` is the nominal epoch boundary for interior epochs and the
    shard's actual final kernel time for the closing epoch; ``busy`` is the
    per-resource busy frontier — the platform-level occupancy exchange the
    barrier exists for.  Counters are cumulative since the start of the
    run; :func:`epoch_rows` differences them into per-epoch deltas.
    ``heap_high_water`` is the shard kernel's peak event-heap population so
    far — under lazy arrival cursors it stays O(the shard's active streams)
    at every barrier, and pausing at a barrier cannot lose a stream's
    cursor: the successor arrival is heaped *before* the current frame is
    processed, so the next event is always queued when the epoch closes.
    """

    shard: int
    epoch: int
    t_end: float
    events_processed: int
    inferences: int
    frames_dropped: int
    busy: Dict[str, float]
    heap_high_water: int = 0


def epoch_rows(summaries: Sequence[EpochSummary]) -> List[Dict[str, object]]:
    """Fold per-shard epoch summaries into one platform-level timeline.

    One row per epoch with the per-epoch (not cumulative) event/inference/
    drop totals across shards and the number of shards that reported.
    """
    previous: Dict[int, EpochSummary] = {}
    rows: Dict[int, Dict[str, object]] = {}
    for summary in sorted(summaries, key=lambda s: (s.epoch, s.shard)):
        prev = previous.get(summary.shard)
        row = rows.setdefault(
            summary.epoch,
            {
                "epoch": summary.epoch,
                "t_end": summary.t_end,
                "events": 0,
                "inferences": 0,
                "frames_dropped": 0,
                "shards": 0,
                "heap_high_water": 0,
            },
        )
        row["t_end"] = max(row["t_end"], summary.t_end)
        # Peak heap population is a max (not a delta): the row reports the
        # worst shard's high-water mark as of that barrier.
        row["heap_high_water"] = max(
            row["heap_high_water"], summary.heap_high_water
        )
        row["events"] += summary.events_processed - (prev.events_processed if prev else 0)
        row["inferences"] += summary.inferences - (prev.inferences if prev else 0)
        row["frames_dropped"] += summary.frames_dropped - (
            prev.frames_dropped if prev else 0
        )
        row["shards"] += 1
        previous[summary.shard] = summary
    return [rows[epoch] for epoch in sorted(rows)]


def _summarize(shard_id, epoch, t_end, kernel, clients) -> EpochSummary:
    """Snapshot one shard's cumulative counters at an epoch boundary."""
    inferences = 0
    dropped = 0
    for client in clients:
        inferences += client.report.num_inferences
        dropped += client.report.frames_dropped
    return EpochSummary(
        shard=shard_id,
        epoch=epoch,
        t_end=t_end,
        events_processed=kernel.events_processed,
        inferences=inferences,
        frames_dropped=dropped,
        busy=kernel.resource_busy_times(),
        heap_high_water=kernel.heap_high_water,
    )


def _lockstep(shard_id, platform, sources, sim_kwargs, boundaries):
    """One shard's epoch-lockstep simulation, as a generator.

    Builds and primes the shard's :class:`MultiStreamSimulator` on the
    first step, then yields an :class:`EpochSummary` each time the kernel
    reaches one of ``boundaries``; after the last boundary it drains the
    kernel and yields ``(report, final_summary)``.  The caller owns the
    barrier: :func:`_shard_worker` steps it across a pipe, the inline
    driver steps every shard's generator in turn, and a lone shard drains
    it with no boundaries.
    """
    simulator = MultiStreamSimulator(platform, sources, **sim_kwargs)
    kernel, clients, remaps_before = simulator._setup(None)
    for epoch, boundary in enumerate(boundaries):
        kernel.run(until=boundary)
        yield _summarize(shard_id, epoch, boundary, kernel, clients)
    end_time = kernel.run()
    report = simulator._finalize(kernel, clients, remaps_before, None, end_time)
    yield report, _summarize(shard_id, len(boundaries), end_time, kernel, clients)


def _shard_worker(conn, shard_id, platform, sources, sim_kwargs, boundaries):
    """Worker-process entry point: :func:`_lockstep` stepped across a pipe.

    Sends each epoch summary and blocks on the parent's ``"proceed"``
    token (the barrier), then ships the shard report; any failure is sent
    as its traceback.  Module-level so it is picklable under spawn start
    methods; under fork the sources arrive without any serialisation cost.
    """
    try:
        shard = _lockstep(shard_id, platform, sources, sim_kwargs, boundaries)
        for _ in boundaries:
            conn.send(("epoch", next(shard)))
            token = conn.recv()
            if token != "proceed":
                raise RuntimeError(f"unexpected barrier token {token!r}")
        report, final = next(shard)
        conn.send(("done", report, final))
    except Exception:
        conn.send(("error", traceback.format_exc()))
    finally:
        conn.close()


# ----------------------------------------------------------------------
# orchestration
# ----------------------------------------------------------------------
class ShardedSimulator:
    """Partition a configured fleet, run one kernel per shard, merge the reports.

    Built by :meth:`MultiStreamSimulator.run` when ``shards > 1``; every
    option comes from that simulator, which has already validated it.
    The effective shard count may be lower than requested (see
    :class:`ShardPlan`); with one effective shard the run collapses to a
    single in-process kernel, bit-identical to the unsharded run.  Under
    ``shard_mode="process"`` each shard runs in a worker process with
    epoch barriers over pipes, falling back to inline inside daemonic
    processes, which may not fork children (e.g. sweep pool workers);
    ``"inline"`` runs the same lockstep protocol sequentially in one
    process, with identical results.
    """

    def __init__(self, simulator: MultiStreamSimulator) -> None:
        self.platform = simulator.platform
        self.sources = simulator.sources
        self.plan = partition_sources(
            self.sources, simulator.shards, by=simulator.shard_by, platform=self.platform
        )
        self.epoch_length = simulator.epoch_length
        self.mode = simulator.shard_mode
        self.sim_kwargs = simulator._shard_sim_kwargs

    # ------------------------------------------------------------------
    def _boundaries(self) -> List[float]:
        """Interior epoch boundaries over the fleet horizon.

        The closing epoch is the final drain (no ``until``), so a fleet
        whose last events land ulps past the horizon still completes; with
        ``num_epochs <= 1`` there are no barriers at all.
        """
        horizon = max(source.end_time for source in self.sources)
        length = self.epoch_length
        if length is None:
            if horizon <= 0:
                return []
            length = horizon / DEFAULT_EPOCHS
        num_epochs = max(int(math.ceil(horizon / length)), 1)
        return [length * e for e in range(1, num_epochs)]

    def run(self) -> MultiStreamReport:
        """Simulate every shard to completion and merge the shard reports."""
        if self.plan.num_shards == 1:
            report, _ = next(
                _lockstep(0, self.platform, self.sources, self.sim_kwargs, [])
            )
            return report
        boundaries = self._boundaries()
        fleets = [
            [self.sources[i] for i in indices] for indices in self.plan.assignments
        ]
        mode = self.mode
        if mode == "process" and multiprocessing.current_process().daemon:
            # Daemonic workers (e.g. sweep pool processes) may not have
            # children; the inline protocol produces identical results.
            mode = "inline"
        if mode == "inline":
            reports, summaries = self._run_inline(fleets, boundaries)
        else:
            reports, summaries = self._run_process(fleets, boundaries)
        merged = MultiStreamReport.merged(reports)
        merged.epochs = sorted(summaries, key=lambda s: (s.epoch, s.shard))
        return merged

    # ------------------------------------------------------------------
    def _run_inline(
        self, fleets: List[List[StreamSource]], boundaries: List[float]
    ) -> Tuple[List[MultiStreamReport], List[EpochSummary]]:
        """Sequential lockstep: every shard reaches epoch ``e`` before any
        shard enters epoch ``e + 1`` — the barrier, minus the processes."""
        shards = [
            _lockstep(shard_id, self.platform, fleet, self.sim_kwargs, boundaries)
            for shard_id, fleet in enumerate(fleets)
        ]
        summaries: List[EpochSummary] = []
        for _ in boundaries:
            summaries.extend(next(shard) for shard in shards)
        reports = []
        for shard in shards:
            report, final = next(shard)
            reports.append(report)
            summaries.append(final)
        return reports, summaries

    def _run_process(
        self, fleets: List[List[StreamSource]], boundaries: List[float]
    ) -> Tuple[List[MultiStreamReport], List[EpochSummary]]:
        """One worker process per shard, barriers over duplex pipes."""
        ctx = multiprocessing.get_context()
        processes = []
        connections = []
        try:
            for shard_id, fleet in enumerate(fleets):
                parent_conn, child_conn = ctx.Pipe(duplex=True)
                process = ctx.Process(
                    target=_shard_worker,
                    args=(
                        child_conn,
                        shard_id,
                        self.platform,
                        fleet,
                        self.sim_kwargs,
                        boundaries,
                    ),
                    name=f"shard-{shard_id}",
                    daemon=True,
                )
                process.start()
                child_conn.close()  # EOF in the parent when the worker dies
                processes.append(process)
                connections.append(parent_conn)
            summaries: List[EpochSummary] = []
            for _epoch in range(len(boundaries)):
                # Barrier: collect every shard's summary, then release all.
                for shard_id, conn in enumerate(connections):
                    kind, payload = self._recv(conn, shard_id)
                    if kind != "epoch":
                        raise RuntimeError(
                            f"shard {shard_id}: expected epoch summary, got {kind!r}"
                        )
                    summaries.append(payload)
                for conn in connections:
                    conn.send("proceed")
            reports: List[MultiStreamReport] = []
            for shard_id, conn in enumerate(connections):
                kind, *payload = self._recv(conn, shard_id, expect_done=True)
                if kind != "done":
                    raise RuntimeError(
                        f"shard {shard_id}: expected final report, got {kind!r}"
                    )
                reports.append(payload[0])
                summaries.append(payload[1])
            for process in processes:
                process.join(timeout=60.0)
            return reports, summaries
        finally:
            for conn in connections:
                conn.close()
            for process in processes:
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=5.0)

    @staticmethod
    def _recv(conn, shard_id: int, expect_done: bool = False):
        """Receive one protocol message, surfacing worker failures."""
        try:
            message = conn.recv()
        except EOFError:
            raise RuntimeError(
                f"shard {shard_id} worker exited without a result"
            ) from None
        if message[0] == "error":
            raise RuntimeError(f"shard {shard_id} worker failed:\n{message[1]}")
        return message
