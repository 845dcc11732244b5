"""Reference implementations of the runtime hot path, kept as oracles.

The fleet-scale refactor (O(1) event routing in
:class:`~repro.runtime.sim.SimulationKernel`, indexed pending queues and
coalesced wake-ups in :class:`~repro.runtime.executor.SignatureServer`) is
required to be *report-identical*: the same fleet and seed must produce
bit-identical :class:`~repro.runtime.streams.MultiStreamReport` aggregates
before and after.  This module keeps the pre-refactor data structures alive
as oracles so that claim stays machine-checked:

* :class:`LegacyScanKernel` — linear handler-scan delivery: every event
  walks *all* registered handlers of its type and string-compares stream
  names, exactly as the kernel did before the routing table.
* :class:`LegacyListServer` — one flat pending list per server with
  O(queue) scans for enqueue bounding and distinct-stream merge selection,
  plus one scheduled wake-up per enqueued dispatch (the event storm the
  refactor coalesces).
* :class:`ScalarCostModel` — the PR-4 *scalar-keyed* cost stack.  In
  ``cost_mode="flat"`` it is the pre-profile path itself (measured input
  occupancy on the first layer, static modelled sparsity deeper) and must
  produce bit-identical ``MultiStreamReport`` aggregates to the layered
  stack running a uniform (flat) profile — the equivalence mode of the
  per-layer occupancy refactor.  In ``cost_mode="profile"`` it applies the
  *same* propagated semantics but keeps the old caching architecture:
  per-layer occupancies derive from the single quantized input bucket and
  are keyed **raw** (no per-layer bucketing), so every distinct input
  bucket mints its own copy of every layer cell — the memo-thrashing
  behaviour ``benchmarks/bench_cost_model.py`` quantifies against the
  layered stack.
* :class:`ChainCostModel` — the pre-graph *chain-propagated* cost stack
  on the layered caching architecture: profiles come from the serial topo
  chain walk instead of graph propagation.  The divergence tests use it
  to pin that graph propagation is bit-identical on serial networks and
  diverges exactly at DAG join nodes.
* :class:`ReferenceAggregator` / :class:`ReferenceMergeBucket` — the only
  per-frame DSFA, driven by :class:`ReferenceStreamClient`: ``push`` takes
  materialised frames, placement scans every bucket as Figure 6 is
  written, probes re-merge whole frame lists per call
  (``SparseFrame.add_reference``) and every dispatch merges bucket by
  bucket.  It shares no placement or merge code with the production
  stack-only aggregator.
* :class:`EagerStreamClient` — the pre-cursor arrival discipline: every
  arrival of the horizon is heaped at prime time, so the kernel heap grows
  to O(total frames) instead of O(active streams).
* :class:`ReferenceStreamClient` — the per-frame transport: ``FrameReady``
  events carry materialised frames from
  :meth:`~repro.runtime.streams.StreamSource.generate_frames` and DSFA runs
  on :class:`ReferenceAggregator`.

The kernel and server oracles implement the *current* accounting semantics
(per-member latency shares, the queued-service backlog estimate) on the
*old* data structures — they isolate the performance refactor, not the
accounting bugfixes, so the equivalence tests compare like with like.
Every oracle plugs into :class:`~repro.runtime.streams.MultiStreamSimulator`
through a factory hook: ``kernel_factory=LegacyScanKernel,
server_factory=LegacyListServer`` runs a fleet on the legacy structures,
``cost_model_factory`` takes the cost oracles and ``client_factory`` the
two stream clients.  The hooks compose freely — the legacy kernel and
server inherit :meth:`~repro.runtime.sim.SimulationKernel.schedule` and
:meth:`~repro.runtime.sim.SimulationKernel.reserve_sequences` unchanged,
so they run under either arrival discipline.

Like :func:`~repro.core.nmp.scheduler.ExecutionScheduler.schedule_reference`
for the NMP fast path, this is deliberately unoptimized code kept for
verification — do not use it in production clients.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Dict, List, Optional, Tuple

from ..core.dsfa import BucketStatus, DynamicSparseFrameAggregator, MergeMode
from ..frames.sparse import SparseFrame, SparseFrameBatch
from ..nn.occupancy import OccupancyProfile
from .executor import SignatureServer, _PendingDispatch
from .sim import (
    DispatchBatch,
    FrameReady,
    InferenceDone,
    NetworkCostModel,
    QueueEvict,
    SimEvent,
    SimulationKernel,
)
from .streams import StreamClient

__all__ = [
    "LegacyScanKernel",
    "LegacyListServer",
    "ScalarCostModel",
    "ChainCostModel",
    "ReferenceMergeBucket",
    "ReferenceAggregator",
    "EagerStreamClient",
    "ReferenceStreamClient",
]


class LegacyScanKernel(SimulationKernel):
    """Linear-scan event delivery (the pre-routing-table kernel)."""

    def __init__(self, trace: Optional[object] = None) -> None:
        super().__init__(trace=trace)
        self._legacy_handlers: Dict[
            type, List[Tuple[Optional[str], Callable[[SimEvent], None]]]
        ] = {}

    def on(
        self,
        event_type: type,
        handler: Callable[[SimEvent], None],
        stream: Optional[str] = None,
    ) -> None:
        self._legacy_handlers.setdefault(event_type, []).append((stream, handler))

    def run(self, until: Optional[float] = None) -> float:
        while self._heap:
            if until is not None and self._heap[0][0] > until:
                break
            time, _, _, event = heapq.heappop(self._heap)
            self.now = time
            self.events_processed += 1
            if self.trace is not None:
                self.trace.record(event)
            for stream, handler in self._legacy_handlers.get(type(event), []):
                if stream is None or stream == event.stream:
                    handler(event)
        return self.now


class LegacyListServer(SignatureServer):
    """Flat-list pending queue with per-dispatch wake-ups.

    The accounting operations (eviction order, service-estimate running
    sum, merge member order) are performed in exactly the same order as the
    indexed implementation, so the two produce bit-identical reports; only
    the data-structure costs differ.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._pending_list: List[_PendingDispatch] = []
        self._legacy_seq = itertools.count()

    @property
    def pending_count(self) -> int:
        return len(self._pending_list)

    def pending_entries(self) -> List[_PendingDispatch]:
        return list(self._pending_list)

    def dispatch(self, client, batch, time: float) -> None:
        busy = self.busy_until(client)
        if not self._pending_list and busy <= time:
            self._execute([_PendingDispatch(client, batch, time)], time)
            return
        mine = [p for p in self._pending_list if p.client is client]
        if len(mine) >= client.queue_depth:
            oldest = mine[0]
            self._pending_list.remove(oldest)
            self._pending_service -= oldest.service_estimate
            client.report.frames_dropped += len(oldest.batch)
            self.kernel.schedule(
                QueueEvict(
                    time=time,
                    stream=client.name,
                    num_frames=len(oldest.batch),
                    reason="queue-full",
                )
            )
        entry = _PendingDispatch(
            client, batch, time, next(self._legacy_seq), max(client.last_duration, 0.0)
        )
        self._pending_list.append(entry)
        self._pending_service += entry.service_estimate
        # One wake-up per enqueued dispatch: the pre-refactor event storm.
        self.kernel.schedule(
            InferenceDone(time=max(busy, time), stream=self.name, records=())
        )

    def _on_done(self, event: InferenceDone) -> None:
        if not self._pending_list:
            return
        busy = self.busy_until()
        if busy > event.time:
            self.kernel.schedule(
                InferenceDone(time=busy, stream=self.name, records=())
            )
            return
        members: List[_PendingDispatch] = []
        remaining: List[_PendingDispatch] = []
        taken = set()
        for entry in self._pending_list:
            client_id = id(entry.client)
            if client_id not in taken and len(taken) < self.max_merge_streams:
                taken.add(client_id)
                members.append(entry)
            else:
                remaining.append(entry)
        self._pending_list = remaining
        for member in members:
            self._pending_service -= member.service_estimate
        self._execute(members, event.time)


class ScalarCostModel(NetworkCostModel):
    """The PR-4 scalar-keyed cost stack, kept alive as an oracle.

    Two roles:

    * **Equivalence oracle** (``cost_mode="flat"``, the default) — identical
      semantics to the layered stack running a uniform (flat) profile: the
      measured input occupancy drives the first layer and deeper layers use
      their static modelled sparsity, with the whole-network memo keyed on
      the single input bucket.  The report-equivalence tests assert
      bit-identical ``MultiStreamReport`` aggregates between this model and
      the default stack on seeded contended fleets.
    * **Thrash baseline** (``cost_mode="profile"``) — the propagated
      per-layer semantics implemented on the scalar-keyed architecture:
      profiles derive from the quantized input bucket but their entries are
      kept (and keyed) *raw*, with no per-layer bucketing.  Deep-layer
      occupancies of different input buckets are then distinct floats even
      when they have converged to well under a bucket width apart, so every
      input bucket mints its own copy of every layer cell.
      ``benchmarks/bench_cost_model.py`` measures the cache hit-rate gap
      between this stack and the layered one on a mixed-density DSFA fleet.

    Like the other legacy implementations this is deliberately
    unoptimized verification code — do not use it in production clients.
    """

    def _build_profile(self, occ_key):
        if self.cost_mode != "profile" or occ_key is None:
            return super()._build_profile(occ_key)
        if len(self._assignments) <= 1:
            return super()._build_profile(occ_key)
        # Same graph-propagated semantics as the layered stack — the two
        # models differ *only* in caching architecture — but raw entries:
        # no per-layer bucketing.
        return OccupancyProfile.from_graph(self.network, occ_key)

    def _bucket_profile(self, profile):
        # Merge-time combinations stay raw too: the scalar-keyed stack has
        # no per-layer quantization anywhere, including merged dispatches.
        if self.cost_mode == "profile":
            return profile
        return super()._bucket_profile(profile)

    @property
    def _quantize_layers(self) -> bool:
        # Flat mode must key layer cells exactly as PR-4 did (bucketed);
        # profile mode keys the raw propagated occupancies.
        return self.cost_mode != "profile"


class ChainCostModel(NetworkCostModel):
    """The pre-graph *chain-propagated* cost stack, kept alive as an oracle.

    Identical to :class:`~repro.runtime.sim.NetworkCostModel` in every
    architectural respect (per-layer bucketing, layered memoization) but
    builds its profiles with the serial chain walk
    (:func:`~repro.nn.occupancy.propagate_occupancy_chain`) instead of
    graph propagation.  The divergence tests pin the graph refactor's
    semantics against it:

    * **serial networks** — graph propagation must be bit-identical to
      this model (every node has at most one predecessor, so the walks
      run the same float ops);
    * **DAG networks** — the models *must* diverge exactly at the join
      nodes, where the chain walk dilates whichever spec happened to
      precede the join in topological order and ignores the other
      branches.

    Like the other legacy implementations this is deliberately
    unoptimized verification code — do not use it in production clients.
    """

    def _build_profile(self, occ_key):
        num_layers = len(self._assignments)
        if self.cost_mode == "flat" or occ_key is None or num_layers <= 1:
            return OccupancyProfile.flat(occ_key, num_layers)
        specs = [spec for spec, _, _ in self._assignments]
        raw = OccupancyProfile.propagate(specs, occ_key)
        return raw.bucketed(self.table.bucket)


class ReferenceMergeBucket:
    """The paper's merge bucket as a plain frame list.

    Every :meth:`accepts` probe re-merges the whole list with
    :meth:`SparseFrame.add_reference` to read the merged density, and
    :meth:`merge` merges it the same way (scaled for cAverage).  Nothing is
    cached and no stack range or grouped-reduce kernel is involved: this is
    the quadratic, paper-literal bucket the production
    :class:`~repro.core.dsfa.StackMergeBucket` must match bit for bit.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("bucket capacity must be >= 1")
        self.capacity = capacity
        self.frames: List[SparseFrame] = []
        self.status = BucketStatus.AVAILABLE

    @property
    def is_full(self) -> bool:
        return self.status is BucketStatus.FULL or len(self.frames) >= self.capacity

    def accepts(
        self, frame: SparseFrame, max_delay: float, max_density_change: float
    ) -> bool:
        if self.is_full:
            return False
        if not self.frames:
            return True
        if frame.t_start - min(f.t_start for f in self.frames) > max_delay:
            return False
        merged = SparseFrame.add_reference(self.frames)
        return merged.density_change(frame) <= max_density_change

    def add(self, frame: SparseFrame) -> None:
        if self.is_full:
            raise RuntimeError("cannot add a frame to a FULL merge bucket")
        self.frames.append(frame)
        if len(self.frames) >= self.capacity:
            self.status = BucketStatus.FULL

    def merge(self, mode: MergeMode) -> SparseFrame:
        if not self.frames:
            raise RuntimeError("cannot merge an empty bucket")
        merged = SparseFrame.add_reference(self.frames)
        if mode is MergeMode.AVERAGE:
            merged = merged.scale(1.0 / len(self.frames))
        return merged


class ReferenceAggregator(DynamicSparseFrameAggregator):
    """The paper-literal per-frame DSFA, driven through :meth:`push`.

    Placement scans *every* buffered :class:`ReferenceMergeBucket` in order
    and marks each one that rejects the frame ``FULL`` (Figure 6 as
    written); the occupancy is recounted from the buckets; every dispatch
    merges bucket by bucket through ``add_reference``.  Only the dispatch
    trigger and inference-queue bookkeeping are shared with the production
    aggregator — none of its placement or merge code.  Dispatch decisions
    and merged values are bit-identical to
    :meth:`~repro.core.dsfa.DynamicSparseFrameAggregator.push_index`; the
    data-plane benchmark measures the columnar transport's fleet speedup
    against it.
    """

    @property
    def buffer_occupancy(self) -> int:
        return sum(len(bucket.frames) for bucket in self._buckets)

    def push(
        self, frame: SparseFrame, hardware_available: bool = False
    ) -> Optional[SparseFrameBatch]:
        """Offer a materialised sparse frame; returns the dispatched batch, if any."""
        self._place(frame)
        return self._maybe_dispatch(hardware_available)

    def _place(self, frame: SparseFrame) -> None:
        cfg = self.config
        if cfg.merge_mode is MergeMode.BATCH:
            bucket = ReferenceMergeBucket(1)
        else:
            for bucket in self._buckets:
                if bucket.accepts(frame, cfg.max_time_delay, cfg.max_density_change):
                    bucket.add(frame)
                    return
                # Condition failed: the paper marks the bucket FULL and moves on.
                bucket.status = BucketStatus.FULL
            bucket = ReferenceMergeBucket(cfg.merge_bucket_size)
        bucket.add(frame)
        self._buckets.append(bucket)

    def _merge_buckets(self) -> SparseFrameBatch:
        mode = self.config.merge_mode
        return SparseFrameBatch([bucket.merge(mode) for bucket in self._buckets])


class EagerStreamClient(StreamClient):
    """The pre-cursor arrival discipline: the whole horizon heaped at prime.

    The production :meth:`~repro.runtime.streams.StreamClient.prime`
    reserves the stream's sequence block and heaps arrival 0; this oracle
    then heaps arrivals ``1..count-1`` on their reserved slots and parks the
    cursor at the end, so every ``(time, priority, seq)`` tuple — and
    therefore every report — is identical to the lazy cursor's while the
    kernel heap holds O(total frames).
    """

    def prime(self) -> None:
        super().prime()
        for index in range(1, self._num_frames):
            self.kernel.schedule(self._frame_event(index), seq=self._seq_base + index)
        self._cursor = self._num_frames


class ReferenceStreamClient(StreamClient):
    """The per-frame transport: materialised frames and the reference DSFA.

    ``FrameReady`` events carry frame objects from
    :meth:`~repro.runtime.streams.StreamSource.generate_frames` (the
    rendered list is held on the client cursor, not closed over by queued
    events), DSFA runs on :class:`ReferenceAggregator` and no-DSFA
    dispatches wrap one frame per :class:`SparseFrameBatch`.  Arrival
    scheduling is the production lazy cursor.  Reports are bit-identical to
    the stack transport; the data-plane benchmark measures the columnar
    transport's fleet speedup against this client.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if self.aggregator is not None:
            self.aggregator = ReferenceAggregator(self.config.dsfa)
        self._frame_seq: List[Tuple[float, SparseFrame]] = []

    def prime(self) -> None:
        self._frame_seq = self.source.generate_frames()
        self._schedule_arrivals([arrival for arrival, _ in self._frame_seq])

    def _frame_event(self, index: int) -> FrameReady:
        arrival, frame = self._frame_seq[index]
        return FrameReady(time=arrival, stream=self.name, frame=frame)

    def _on_frame(self, event: FrameReady) -> None:
        cursor = self._cursor
        if cursor < self._num_frames:
            self._cursor = cursor + 1
            self.kernel.schedule(
                self._frame_event(cursor), seq=self._seq_base + cursor
            )
        arrival = event.time
        if self.aggregator is not None:
            batch = self.aggregator.push(
                event.frame,
                hardware_available=arrival >= self.executor.busy_until(self),
            )
            if batch is not None:
                self.report.frames_merged += len(batch)
                self.kernel.schedule(
                    DispatchBatch(time=arrival, stream=self.name, batch=batch)
                )
            return
        if self._backlog_drop(arrival):
            return
        self.kernel.schedule(
            DispatchBatch(
                time=arrival, stream=self.name, batch=SparseFrameBatch([event.frame])
            )
        )
