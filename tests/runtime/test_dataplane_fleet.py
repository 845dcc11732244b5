"""Fleet-level equivalence of the columnar data plane.

The acceptance bar for the FrameStack render path: frames from
``StreamSource.generate_frames`` (one ``convert_stack`` per stream) must be
bit-identical to ``generate_frames_reference`` (the per-interval ``convert``
loop) across every built-in scenario family, and the end-to-end
``MultiStreamReport`` aggregates of a seeded 256-stream DSFA fleet must be
unchanged when the reference frames are substituted for the stack frames.
The end-to-end stack transport extends the bar: the production client and
the per-frame reference client
(:class:`~repro.runtime.legacy.ReferenceStreamClient`) must produce
identical aggregates on every family.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.hw import jetson_xavier_agx
from repro.runtime import MultiStreamSimulator
from repro.runtime.legacy import ReferenceStreamClient
from repro.scenarios import default_registry

SMALL = dict(num_streams=3, duration=0.3, scale=0.1, num_bins=4)


@pytest.fixture(scope="module")
def registry():
    return default_registry()


@pytest.fixture(scope="module")
def platform():
    return jetson_xavier_agx()


def frames_bit_identical(a, b):
    return (
        (a.height, a.width) == (b.height, b.width)
        and a.t_start == b.t_start
        and a.t_end == b.t_end
        and np.array_equal(a.rows, b.rows)
        and np.array_equal(a.cols, b.cols)
        and np.array_equal(a.pos, b.pos)
        and np.array_equal(a.neg, b.neg)
    )


class TestStackRenderEquivalence:
    def test_all_families_render_bit_identical(self, registry):
        assert len(registry.families()) >= 6
        for family in registry.families():
            sources = registry.compile(family, **SMALL)
            for source in sources:
                stack_frames = source.generate_frames()
                oracle_frames = source.generate_frames_reference()
                assert len(stack_frames) == len(oracle_frames), (family, source.name)
                for i, ((t_new, f_new), (t_ref, f_ref)) in enumerate(
                    zip(stack_frames, oracle_frames)
                ):
                    assert t_new == t_ref, (family, source.name, i)
                    assert frames_bit_identical(f_new, f_ref), (
                        family,
                        source.name,
                        i,
                    )

    def test_stop_time_respected_on_both_paths(self, registry):
        # Churn streams leave mid-footage: the stack path must clip the
        # same arrivals the reference loop clips.
        sources = registry.compile("churn", **SMALL)
        assert any(s.stop_time is not None for s in sources)


def _aggregates(report):
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


class TestFleetAggregatesUnchanged:
    def test_256_stream_dsfa_fleet(self, registry, platform):
        fleet = dict(num_streams=256, duration=0.25, scale=0.1, num_bins=4, seed=42)

        stack_sources = registry.compile("mixed_fleet", **fleet)
        stack_report = MultiStreamSimulator(platform, stack_sources).run()

        oracle_sources = registry.compile("mixed_fleet", **fleet)
        for source in oracle_sources:
            # Pre-seed the render cache with the per-interval oracle frames:
            # the reference client then consumes the fully pre-columnar
            # pipeline — oracle render, per-frame transport, reference DSFA.
            source._frames = source.generate_frames_reference()
        oracle_report = MultiStreamSimulator(
            platform, oracle_sources, client_factory=ReferenceStreamClient
        ).run()

        assert stack_report.num_streams == 256
        assert stack_report.total_inferences > 0
        assert _aggregates(stack_report) == _aggregates(oracle_report)

    def test_all_families_aggregates_identical_across_dataplanes(
        self, registry, platform
    ):
        assert len(registry.families()) >= 6
        for family in registry.families():
            results = {}
            for client_factory in (None, ReferenceStreamClient):
                sources = registry.compile(family, **SMALL)
                report = MultiStreamSimulator(
                    platform, sources, client_factory=client_factory
                ).run()
                results[client_factory] = _aggregates(report)
            assert results[None] == results[ReferenceStreamClient], family
