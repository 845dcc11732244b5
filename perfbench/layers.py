"""Outside-in layer tracing: self time and counts per simulator layer.

Nothing under ``src/`` knows about this module.  :class:`LayerTrace`
replaces the public entry points of each layer with timing wrappers for the
duration of one traced run and restores them afterwards.  Every wrapper is
a span: it adds its wall time to the enclosing span's child time and its
own time minus its children's to its layer's self time, so the self times
of all layers plus the time spent outside any span add up to the wall time
of the traced region exactly.

Kernel event handlers are attributed at registration: the wrapped
``SimulationKernel.on`` looks at the object a bound handler belongs to and
times ``StreamClient`` handlers as ``client`` and ``SignatureServer``
handlers as ``executor``.  Cyclic-GC pauses are taken from ``gc.callbacks``
and subtracted from whichever span they interrupted.

Sharded runs fork worker processes that inherit the wrappers.  Each worker
ships its layer totals back with its final report (an extra element of the
``"done"`` message, which the parent strips), and they are summed into the
layer metrics.  Worker time runs in parallel with the parent's wait, so the
wall-time accounting covers the parent process only.
"""

from __future__ import annotations

import gc
import multiprocessing.process
import time
from collections import defaultdict
from typing import Callable, Dict, List

from repro.core.dsfa import DynamicSparseFrameAggregator
from repro.frames.stack import FrameStack
from repro.runtime import shard as shard_module
from repro.runtime.executor import SignatureServer
from repro.runtime.sim import NetworkCostModel, PipelineReport, SimulationKernel
from repro.runtime.streams import (
    AdaptiveMappingClient,
    MultiStreamReport,
    MultiStreamSimulator,
    StreamClient,
    StreamSource,
)
from repro.scenarios import families as families_module
from repro.scenarios.registry import ScenarioRegistry

#: Layers whose self time is reported, in reporting order.
LAYERS = (
    "compile",
    "events",
    "render",
    "kernel",
    "client",
    "dsfa",
    "stack",
    "executor",
    "cost",
    "report",
    "nmp",
    "shard.partition",
    "shard.spawn",
    "shard.wait",
    "shard.merge",
    "gc",
)

_clock = time.perf_counter_ns


class _ShardConnection:
    """A worker's pipe end that appends the worker's layer totals to its
    final ``"done"`` message."""

    def __init__(self, conn, trace: "LayerTrace") -> None:
        self._conn = conn
        self._trace = trace

    def send(self, message) -> None:
        if message[0] == "done":
            message = tuple(message) + (self._trace.export(),)
        self._conn.send(message)

    def __getattr__(self, name):
        return getattr(self._conn, name)


class LayerTrace:
    """Span-based self-time accounting installed by patching classes."""

    def __init__(self) -> None:
        self.self_ns: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        self.counts: Dict[str, float] = defaultdict(float)
        # Self times of forked shard workers, kept apart from this process's
        # own: they ran in parallel and are not part of its wall time.
        self.worker_ns: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        # One child-time accumulator per open span; the bottom entry
        # collects the time of top-level spans.
        self._stack: List[List[int]] = [[0]]
        self._gc_start = 0
        self._patches: list = []
        self._servers: list = []
        self._rendered: set = set()

    # -- spans ---------------------------------------------------------
    def _span(self, layer: str, fn: Callable) -> Callable:
        stack = self._stack
        self_ns = self.self_ns

        def traced(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                stack.pop()
                stack[-1][0] += elapsed
                self_ns[layer] += elapsed - frame[0]

        return traced

    def _patch(self, owner, name: str, wrapper: Callable, kind=None) -> None:
        original = owner.__dict__[name]
        self._patches.append((owner, name, original))
        setattr(owner, name, kind(wrapper) if kind else wrapper)

    def _wrap(self, owner, name: str, layer: str, kind=None) -> None:
        original = owner.__dict__[name]
        if kind is not None:
            original = original.__func__
        self._patch(owner, name, self._span(layer, original), kind)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = _clock()
            return
        elapsed = _clock() - self._gc_start
        self._stack[-1][0] += elapsed
        self.self_ns["gc"] += elapsed
        if info.get("generation") == 2:
            self.counts["gc.full_collections"] += 1

    # -- installation --------------------------------------------------
    def install(self) -> None:
        """Patch every layer entry point and start recording GC pauses."""
        counts = self.counts
        span = self._span

        self._wrap(ScenarioRegistry, "compile", "compile")
        original_sequence = families_module.generate_sequence

        def generate_sequence(*args, **kwargs):
            counts["events.sequences"] += 1
            return original_sequence(*args, **kwargs)

        self._patch(families_module, "generate_sequence", span("events", generate_sequence))

        original_render = StreamSource.generate_stack
        rendered = self._rendered

        def generate_stack(source):
            result = original_render(source)
            if id(source) not in rendered:
                rendered.add(id(source))
                counts["render.frames"] += len(result[1])
            return result

        self._patch(StreamSource, "generate_stack", span("render", generate_stack))

        # Kernel: the event loop and heap pushes.
        original_run = SimulationKernel.run

        def kernel_run(kernel, *args, **kwargs):
            before = kernel.events_processed
            try:
                return original_run(kernel, *args, **kwargs)
            finally:
                counts["kernel.events"] += kernel.events_processed - before
                if kernel.heap_high_water > counts["kernel.heap_high_water"]:
                    counts["kernel.heap_high_water"] = kernel.heap_high_water

        self._patch(SimulationKernel, "run", span("kernel", kernel_run))
        self._wrap(SimulationKernel, "schedule", "kernel")
        original_on = SimulationKernel.on

        def on(kernel, event_type, handler, stream=None):
            owner = getattr(handler, "__self__", None)
            if isinstance(owner, StreamClient):
                handler = span("client", handler)
            elif isinstance(owner, SignatureServer):
                handler = span("executor", handler)
            return original_on(kernel, event_type, handler, stream)

        self._patch(SimulationKernel, "on", on)

        # Client construction and priming (handlers are timed via ``on``).
        self._wrap(StreamClient, "__init__", "client")
        self._wrap(StreamClient, "prime", "client")

        # DSFA placement and merge.
        original_push = DynamicSparseFrameAggregator.push_index

        def push_index(aggregator, *args, **kwargs):
            batch = original_push(aggregator, *args, **kwargs)
            counts["dsfa.pushes"] += 1
            if batch is not None:
                counts["dsfa.dispatches"] += 1
            return batch

        self._patch(DynamicSparseFrameAggregator, "push_index", span("dsfa", push_index))
        original_flush = DynamicSparseFrameAggregator.flush

        def flush(aggregator):
            batch = original_flush(aggregator)
            if batch is not None:
                counts["dsfa.dispatches"] += 1
            return batch

        self._patch(DynamicSparseFrameAggregator, "flush", span("dsfa", flush))

        original_merge_ranges = FrameStack.merge_ranges

        def merge_ranges(stack, *args, **kwargs):
            counts["stack.merges"] += 1
            return original_merge_ranges(stack, *args, **kwargs)

        self._patch(FrameStack, "merge_ranges", span("stack", merge_ranges))

        # Executor: construction, dispatch, and completion handlers (via on).
        original_server_init = SignatureServer.__init__
        servers = self._servers

        def server_init(server, *args, **kwargs):
            original_server_init(server, *args, **kwargs)
            servers.append(server)

        self._patch(SignatureServer, "__init__", span("executor", server_init))
        original_dispatch = SignatureServer.dispatch

        def dispatch(server, client, *args, **kwargs):
            inferences = server.inferences
            dropped = client.report.frames_dropped
            result = original_dispatch(server, client, *args, **kwargs)
            counts["executor.dispatches"] += 1
            if server.inferences == inferences:
                counts["executor.queued"] += 1
            counts["executor.evicted_frames"] += client.report.frames_dropped - dropped
            return result

        self._patch(SignatureServer, "dispatch", span("executor", dispatch))

        # Cost stack: model construction, profile build and combine, and
        # whole-network cost lookups.
        self._wrap(NetworkCostModel, "__init__", "cost")
        self._wrap(NetworkCostModel, "signature_for", "cost", staticmethod)
        self._wrap(NetworkCostModel, "densities_profile", "cost")
        self._wrap(NetworkCostModel, "batch_profile", "cost")
        self._wrap(NetworkCostModel, "rebind", "cost")
        original_profile_cost = NetworkCostModel.profile_cost

        def profile_cost(model, *args, **kwargs):
            table = model.table
            cells = table.hits + table.misses
            result = original_profile_cost(model, *args, **kwargs)
            counts["cost.lookups"] += 1
            if table.hits + table.misses == cells:
                counts["cost.memo_hits"] += 1
            return result

        self._patch(NetworkCostModel, "profile_cost", span("cost", profile_cost))

        # Report: record accounting and report assembly.
        original_add = PipelineReport.add_records

        def add_records(report, records):
            counts["report.records"] += len(records)
            return original_add(report, records)

        self._patch(PipelineReport, "add_records", span("report", add_records))
        self._wrap(MultiStreamSimulator, "_finalize", "report")

        # NMP remapping.
        original_remap = AdaptiveMappingClient.remap

        def remap(client, *args, **kwargs):
            result = original_remap(client, *args, **kwargs)
            if result is not None:
                counts["nmp.remaps"] += 1
                counts["nmp.evaluations"] += result.requested_evaluations
                counts["nmp.fitness_hits"] += result.cache_hits
                counts["nmp.fitness_misses"] += result.evaluations
            return result

        self._patch(AdaptiveMappingClient, "remap", span("nmp", remap))

        # Shards (parent side): partition, fork, barrier/result waits, merge.
        self._wrap(shard_module, "partition_sources", "shard.partition")
        self._wrap(multiprocessing.process.BaseProcess, "start", "shard.spawn")
        self._wrap(multiprocessing.process.BaseProcess, "join", "shard.wait")
        original_recv = shard_module.ShardedSimulator._recv

        def recv(conn, shard_id, expect_done=False):
            message = original_recv(conn, shard_id, expect_done)
            if message[0] == "done" and len(message) > 3:
                self._absorb(message[3])
                message = message[:3]
            return message

        self._patch(
            shard_module.ShardedSimulator, "_recv", span("shard.wait", recv), staticmethod
        )
        self._wrap(MultiStreamReport, "merged", "shard.merge", classmethod)
        original_worker = shard_module._shard_worker

        def shard_worker(conn, *args):
            self._reset_in_worker()
            return original_worker(_ShardConnection(conn, self), *args)

        self._patch(shard_module, "_shard_worker", shard_worker)

        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        """Restore every patched entry point and stop recording GC pauses."""
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- sharded workers -----------------------------------------------
    def _reset_in_worker(self) -> None:
        """Start a forked worker's totals from zero (in place: the wrappers
        hold references to these containers)."""
        for layer in self.self_ns:
            self.self_ns[layer] = 0
        self.counts.clear()
        del self._stack[1:]
        self._stack[0][0] = 0
        self._servers.clear()

    def _server_inferences(self) -> int:
        return sum(server.inferences for server in self._servers)

    def export(self) -> dict:
        """Layer totals of this process (a worker's payload to the parent)."""
        counts = dict(self.counts)
        counts["executor.inferences"] = self._server_inferences()
        return {"self_ns": dict(self.self_ns), "counts": counts}

    def _absorb(self, payload: dict) -> None:
        for layer, value in payload["self_ns"].items():
            self.worker_ns[layer] += value
        for name, value in payload["counts"].items():
            if name == "kernel.heap_high_water":
                self.counts[name] = max(self.counts[name], value)
            else:
                self.counts[name] += value

    # -- results -------------------------------------------------------
    @property
    def attributed_ns(self) -> int:
        """Wall time covered by top-level spans of this process."""
        return self._stack[0][0]

    def metrics(self, wall_s: float, report) -> Dict[str, float]:
        """Per-layer metrics of one traced run whose traced region took
        ``wall_s`` seconds and produced ``report``."""
        total_ns = {layer: self.self_ns[layer] + self.worker_ns[layer] for layer in LAYERS}
        counts = self.counts

        def ratio(part: float, whole: float) -> float:
            return part / whole if whole else 0.0

        out = {
            f"{layer}_s" if layer.startswith("shard.") else f"{layer}.self_s": ns / 1e9
            for layer, ns in total_ns.items()
        }
        out["gc.pause_s"] = out.pop("gc.self_s")
        cache = report.cache_info or {}
        out.update(
            {
                "events.sequences": counts["events.sequences"],
                "render.frames": counts["render.frames"],
                "kernel.events": counts["kernel.events"],
                "kernel.heap_high_water": counts["kernel.heap_high_water"],
                "client.backlog_drops": report.frames_dropped
                - counts["executor.evicted_frames"],
                "dsfa.pushes": counts["dsfa.pushes"],
                "dsfa.frames_per_dispatch": ratio(
                    counts["dsfa.pushes"], counts["dsfa.dispatches"]
                ),
                "stack.merges": counts["stack.merges"],
                "executor.dispatches": counts["executor.dispatches"],
                "executor.inferences": counts["executor.inferences"]
                + self._server_inferences(),
                "executor.queued_ratio": ratio(
                    counts["executor.queued"], counts["executor.dispatches"]
                ),
                "executor.evicted_frames": counts["executor.evicted_frames"],
                "cost.lookups": counts["cost.lookups"],
                "cost.memo_hit_ratio": ratio(counts["cost.memo_hits"], counts["cost.lookups"]),
                "cost.cell_hit_ratio": ratio(
                    cache.get("hits", 0.0), cache.get("hits", 0.0) + cache.get("misses", 0.0)
                ),
                "report.records": counts["report.records"],
                "nmp.remaps": counts["nmp.remaps"],
                "nmp.evaluations": counts["nmp.evaluations"],
                "nmp.fitness_hit_ratio": ratio(
                    counts["nmp.fitness_hits"],
                    counts["nmp.fitness_hits"] + counts["nmp.fitness_misses"],
                ),
                "gc.full_collections": counts["gc.full_collections"],
                "trace.wall_s": wall_s,
                # Time inside the traced region but outside every top-level
                # span; the self times of this process add up to the rest.
                "trace.unattributed_s": wall_s - self.attributed_ns / 1e9,
            }
        )
        return out
