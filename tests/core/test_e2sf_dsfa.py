"""Tests for the Event2Sparse Frame converter and the Dynamic Sparse Frame Aggregator."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import (
    DSFAConfig,
    DynamicSparseFrameAggregator,
    Event2SparseFrameConverter,
    MergeMode,
    StackMergeBucket,
)
from repro.events import EventStream, SensorGeometry
from repro.frames import FrameStack, SparseFrame, discretized_event_bins
from repro.runtime.legacy import ReferenceAggregator, ReferenceMergeBucket


def make_stream(n=2000, seed=0, geometry=None, t_end=1.0):
    geometry = geometry or SensorGeometry(width=48, height=36)
    rng = np.random.default_rng(seed)
    return EventStream(
        rng.integers(0, geometry.width, n),
        rng.integers(0, geometry.height, n),
        np.sort(rng.uniform(0, t_end, n)),
        rng.choice([-1, 1], n),
        geometry,
    )


def make_frame(seed=0, n=100, density_scale=1.0, t_start=0.0, t_end=0.01, h=36, w=48):
    rng = np.random.default_rng(seed)
    count = max(int(n * density_scale), 1)
    return SparseFrame.from_events(
        rng.integers(0, w, count), rng.integers(0, h, count), rng.choice([-1, 1], count),
        h, w, t_start, t_end,
    )


def push_all(dsfa, frames, hardware_available=False):
    """Push ``frames`` in order through ``push_index`` over one stack.

    Returns the result of every push (``None`` or the dispatched batch).
    """
    stack = FrameStack.from_frames(frames)
    return [
        dsfa.push_index(stack, i, hardware_available=hardware_available)
        for i in range(len(stack))
    ]


def filled_bucket(frames, capacity):
    """A StackMergeBucket holding every frame of ``frames``."""
    bucket = StackMergeBucket(capacity, FrameStack.from_frames(frames), 0)
    for i in range(len(frames)):
        bucket.add_index(i)
    return bucket


class TestE2SF:
    def test_number_of_frames_equals_bins(self):
        stream = make_stream()
        frames = Event2SparseFrameConverter(8).convert(stream, 0.0, 1.0)
        assert len(frames) == 8

    def test_conserves_events(self):
        stream = make_stream()
        frames = Event2SparseFrameConverter(5).convert(stream, 0.0, 1.0)
        assert sum(f.num_events for f in frames) == pytest.approx(len(stream))

    def test_matches_dense_discretisation(self):
        stream = make_stream(seed=3)
        num_bins = 4
        frames = Event2SparseFrameConverter(num_bins).convert(stream, 0.0, 1.0)
        dense = discretized_event_bins(stream, 0.0, 1.0, num_bins)
        for k, frame in enumerate(frames):
            assert np.allclose(frame.to_dense(), dense[k])

    def test_bin_time_ranges(self):
        stream = make_stream()
        frames = Event2SparseFrameConverter(4).convert(stream, 0.0, 1.0)
        assert frames[0].t_start == 0.0
        assert frames[-1].t_end == pytest.approx(1.0)
        assert frames[1].t_start == pytest.approx(0.25)

    def test_empty_window_gives_empty_frames(self):
        stream = make_stream()
        frames = Event2SparseFrameConverter(3).convert(stream, 5.0, 6.0)
        assert all(f.num_active == 0 for f in frames)
        assert len(frames) == 3

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            Event2SparseFrameConverter(0)
        with pytest.raises(ValueError):
            Event2SparseFrameConverter(4).convert(make_stream(), 1.0, 0.5)

    def test_report_shows_direct_path_cheaper(self):
        stream = make_stream(n=500)
        _, report = Event2SparseFrameConverter(5).convert_with_report(stream, 0.0, 1.0)
        assert report.operation_saving > 1.0
        assert report.num_events == 500

    def test_convert_sequence(self):
        stream = make_stream()
        per_interval = Event2SparseFrameConverter(4).convert_sequence(stream, [0.0, 0.5, 1.0])
        assert len(per_interval) == 2
        assert all(len(frames) == 4 for frames in per_interval)
        with pytest.raises(ValueError):
            Event2SparseFrameConverter(4).convert_sequence(stream, [0.0])

    def test_mean_occupancy(self):
        converter = Event2SparseFrameConverter(4)
        frames = converter.convert(make_stream(), 0.0, 1.0)
        assert 0.0 < converter.mean_occupancy(frames) <= 1.0
        assert converter.mean_occupancy([]) == 0.0


class TestMergeBucket:
    def test_capacity_enforced(self):
        bucket = filled_bucket([make_frame(1), make_frame(2)], capacity=2)
        assert bucket.is_full
        with pytest.raises(RuntimeError):
            bucket.add_index(2)

    def test_accepts_respects_time_threshold(self):
        stack = FrameStack.from_frames(
            [make_frame(1, t_start=0.0, t_end=0.01), make_frame(2, t_start=1.0, t_end=1.01)]
        )
        bucket = StackMergeBucket(4, stack, 0)
        bucket.add_index(0)
        assert not bucket.accepts_index(1, max_delay=0.5, max_density_change=1.0)
        assert bucket.accepts_index(1, max_delay=2.0, max_density_change=1.0)

    def test_accepts_respects_density_threshold(self):
        stack = FrameStack.from_frames([make_frame(1, n=20), make_frame(2, n=600)])
        bucket = StackMergeBucket(4, stack, 0)
        bucket.add_index(0)
        assert not bucket.accepts_index(1, max_delay=1.0, max_density_change=0.1)
        assert bucket.accepts_index(1, max_delay=1.0, max_density_change=1.0)

    def test_merge_modes(self):
        frames = [make_frame(1), make_frame(2)]
        bucket = filled_bucket(frames, capacity=2)
        added = bucket.merge(MergeMode.ADD)
        averaged = bucket.merge(MergeMode.AVERAGE)
        assert added.num_events == pytest.approx(sum(f.num_events for f in frames))
        assert averaged.num_events == pytest.approx(added.num_events / 2)
        # Bit-identical to the paper-literal list bucket of the oracle.
        reference = ReferenceMergeBucket(capacity=2)
        for frame in frames:
            reference.add(frame)
        for mode in MergeMode:
            assert frames_bit_identical(bucket.merge(mode), reference.merge(mode))

    def test_merge_empty_bucket_rejected(self):
        stack = FrameStack.from_frames([make_frame(1)])
        with pytest.raises(RuntimeError):
            StackMergeBucket(2, stack, 0).merge(MergeMode.ADD)
        with pytest.raises(RuntimeError):
            ReferenceMergeBucket(capacity=2).merge(MergeMode.ADD)

    def test_invalid_capacity(self):
        stack = FrameStack.from_frames([make_frame(1)])
        with pytest.raises(ValueError):
            StackMergeBucket(0, stack, 0)
        with pytest.raises(ValueError):
            ReferenceMergeBucket(capacity=0)


class TestDSFAConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            DSFAConfig(event_buffer_size=0)
        with pytest.raises(ValueError):
            DSFAConfig(merge_bucket_size=10, event_buffer_size=4)
        with pytest.raises(ValueError):
            DSFAConfig(max_time_delay=0.0)
        with pytest.raises(ValueError):
            DSFAConfig(inference_queue_depth=0)


class TestDSFA:
    def test_buffer_overflow_triggers_dispatch(self):
        config = DSFAConfig(event_buffer_size=4, merge_bucket_size=2, max_density_change=10.0)
        dsfa = DynamicSparseFrameAggregator(config)
        frames = [make_frame(i, t_start=i * 0.001, t_end=(i + 1) * 0.001) for i in range(4)]
        dispatched = push_all(dsfa, frames)[-1]
        assert dispatched is not None
        assert dsfa.buffer_occupancy == 0
        # 4 frames in buckets of 2 -> batch of 2 merged frames.
        assert len(dispatched) == 2

    def test_hardware_available_dispatches_early(self):
        dsfa = DynamicSparseFrameAggregator(DSFAConfig(event_buffer_size=8, merge_bucket_size=4))
        (batch,) = push_all(dsfa, [make_frame(0)], hardware_available=True)
        assert batch is not None
        assert len(batch) == 1

    def test_cbatch_mode_keeps_frames_separate(self):
        config = DSFAConfig(event_buffer_size=4, merge_bucket_size=4, merge_mode=MergeMode.BATCH)
        dsfa = DynamicSparseFrameAggregator(config)
        frames = [make_frame(i, t_start=i * 0.001, t_end=(i + 1) * 0.001) for i in range(4)]
        batch = push_all(dsfa, frames)[-1]
        assert batch is not None
        assert len(batch) == 4  # every frame in its own bucket

    def test_cadd_conserves_events(self):
        config = DSFAConfig(event_buffer_size=4, merge_bucket_size=4, max_density_change=10.0,
                            max_time_delay=10.0)
        dsfa = DynamicSparseFrameAggregator(config)
        frames = [make_frame(i, t_start=i * 0.001, t_end=(i + 1) * 0.001) for i in range(4)]
        batch = push_all(dsfa, frames)[-1]
        assert batch is not None
        assert batch.num_events == pytest.approx(sum(f.num_events for f in frames))

    def test_flush_empties_buffer(self):
        dsfa = DynamicSparseFrameAggregator(DSFAConfig(event_buffer_size=8, merge_bucket_size=2))
        push_all(dsfa, [make_frame(0)])
        assert dsfa.flush() is not None
        assert dsfa.flush() is None
        assert dsfa.buffer_occupancy == 0

    def test_inference_queue_eviction(self):
        config = DSFAConfig(event_buffer_size=1, merge_bucket_size=1, inference_queue_depth=1)
        dsfa = DynamicSparseFrameAggregator(config)
        push_all(dsfa, [make_frame(0), make_frame(1)])
        assert dsfa.discarded_frames > 0
        assert len(dsfa.inference_queue) == 1

    def test_pop_batch_fifo(self):
        dsfa = DynamicSparseFrameAggregator(DSFAConfig(event_buffer_size=1, merge_bucket_size=1))
        push_all(dsfa, [make_frame(0)])
        assert dsfa.pop_batch() is not None
        assert dsfa.pop_batch() is None

    def test_density_mismatch_opens_new_bucket(self):
        config = DSFAConfig(event_buffer_size=8, merge_bucket_size=4, max_density_change=0.05)
        dsfa = DynamicSparseFrameAggregator(config)
        push_all(dsfa, [make_frame(0, n=20), make_frame(1, n=800)])
        assert dsfa.num_buckets == 2


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


class TestConvertStack:
    """The one-pass columnar render must match the per-interval oracle bit for bit."""

    def assert_stack_matches_oracle(self, stream, timestamps, num_bins):
        converter = Event2SparseFrameConverter(num_bins)
        stack = converter.convert_stack(stream, timestamps)
        oracle = [
            f for interval in converter.convert_sequence(stream, list(timestamps))
            for f in interval
        ]
        assert len(stack) == len(oracle) == (len(timestamps) - 1) * num_bins
        for i, (view, expected) in enumerate(zip(stack.frames(), oracle)):
            assert frames_bit_identical(view, expected), f"frame {i}"

    def test_matches_oracle_on_random_stream(self):
        stream = make_stream(n=5000, seed=11)
        self.assert_stack_matches_oracle(stream, np.linspace(0.0, 1.0, 9), 5)

    def test_matches_oracle_irregular_timestamps(self):
        # Uneven grayscale intervals give each interval its own bin duration.
        stream = make_stream(n=3000, seed=12)
        self.assert_stack_matches_oracle(
            stream, np.array([0.0, 0.05, 0.3, 0.35, 0.9, 1.0]), 4
        )

    def test_matches_oracle_with_empty_intervals(self):
        # No events at all in [2, 3): every frame of that interval is empty.
        stream = make_stream(n=1000, seed=13, t_end=1.0)
        self.assert_stack_matches_oracle(stream, np.array([0.0, 0.5, 2.0, 3.0]), 3)

    def test_matches_oracle_on_boundary_events(self):
        # Events exactly on grayscale timestamps must land in the interval
        # the half-open slice_time window assigns them to.
        geometry = SensorGeometry(width=16, height=16)
        t = np.array([0.0, 0.1, 0.25, 0.25, 0.5, 0.75, 1.0])
        stream = EventStream(
            np.arange(len(t)) % 16, np.arange(len(t)) % 16,
            t, np.where(np.arange(len(t)) % 2 == 0, 1, -1), geometry,
        )
        self.assert_stack_matches_oracle(stream, np.array([0.0, 0.25, 0.5, 1.0]), 2)

    def test_matches_oracle_single_bin(self):
        stream = make_stream(n=800, seed=14)
        self.assert_stack_matches_oracle(stream, np.linspace(0.0, 1.0, 5), 1)

    def test_matches_oracle_outside_recording(self):
        # Window entirely after the last event: all frames empty, exact
        # t bounds still required.
        stream = make_stream(n=100, seed=15, t_end=1.0)
        self.assert_stack_matches_oracle(stream, np.array([5.0, 5.5, 6.0]), 4)

    def test_rejects_bad_timestamps(self):
        stream = make_stream(n=10)
        converter = Event2SparseFrameConverter(2)
        with pytest.raises(ValueError):
            converter.convert_stack(stream, [0.0])
        with pytest.raises(ValueError):
            converter.convert_stack(stream, [0.0, 0.5, 0.5])
        with pytest.raises(ValueError):
            converter.convert_stack(stream, [0.0, 0.5, 0.2])

    def test_stack_frames_are_views(self):
        stream = make_stream(n=2000, seed=16)
        stack = Event2SparseFrameConverter(4).convert_stack(
            stream, np.linspace(0.0, 1.0, 5)
        )
        dense_total = sum(f.num_events for f in stack.frames())
        assert dense_total == pytest.approx(len(stream))
        assert np.shares_memory(stack.frame(0).pos, stack.pos)


class TestBufferOccupancyCounter:
    def _recomputed(self, dsfa):
        return sum(bucket.occupancy for bucket in dsfa._buckets)

    @pytest.mark.parametrize("mode", list(MergeMode))
    def test_counter_matches_recomputed_sum(self, mode):
        config = DSFAConfig(
            event_buffer_size=6,
            merge_bucket_size=3,
            merge_mode=mode,
            max_time_delay=0.004,
            max_density_change=0.3,
        )
        dsfa = DynamicSparseFrameAggregator(config)
        stack = FrameStack.from_frames(
            [
                make_frame(
                    seed=i,
                    n=60 if i % 5 else 600,
                    t_start=i * 0.002,
                    t_end=(i + 1) * 0.002,
                )
                for i in range(40)
            ]
        )
        for i in range(len(stack)):
            dsfa.push_index(stack, i, hardware_available=(i % 11 == 0))
            assert dsfa.buffer_occupancy == self._recomputed(dsfa)
        dsfa.flush()
        assert dsfa.buffer_occupancy == self._recomputed(dsfa) == 0

    def test_counter_resets_on_dispatch(self):
        dsfa = DynamicSparseFrameAggregator(
            DSFAConfig(event_buffer_size=2, merge_bucket_size=2)
        )
        stack = FrameStack.from_frames([make_frame(0), make_frame(1, t_start=0.01, t_end=0.02)])
        dsfa.push_index(stack, 0)
        assert dsfa.buffer_occupancy == 1
        batch = dsfa.push_index(stack, 1)
        assert batch is not None
        assert dsfa.buffer_occupancy == 0


class TestSegmentedDispatch:
    @pytest.mark.parametrize("mode", list(MergeMode))
    def test_dispatch_matches_per_bucket_merge(self, mode):
        config = DSFAConfig(
            event_buffer_size=12,
            merge_bucket_size=4,
            merge_mode=mode,
            max_time_delay=0.003,
            max_density_change=0.25,
            inference_queue_depth=8,
        )
        dsfa = DynamicSparseFrameAggregator(config)
        frames = [
            make_frame(seed=i, n=80, t_start=i * 0.002, t_end=(i + 1) * 0.002)
            for i in range(11)
        ]
        push_all(dsfa, frames)
        # The one-pass dispatch merge must equal merging each bucket's
        # frames in the oracle's paper-literal list bucket.
        expected = []
        for bucket in dsfa._buckets:
            reference = ReferenceMergeBucket(capacity=bucket.capacity)
            for frame in frames[bucket.start : bucket.stop]:
                reference.add(frame)
            expected.append(reference.merge(mode))
        batch = dsfa.flush()
        assert len(batch) == len(expected)
        for merged, reference in zip(batch, expected):
            assert frames_bit_identical(merged, reference)


@settings(max_examples=20, deadline=None)
@given(
    num_frames=st.integers(min_value=1, max_value=12),
    bucket=st.integers(min_value=1, max_value=4),
    buffer=st.integers(min_value=4, max_value=12),
)
def test_property_dsfa_never_loses_events_before_queue_eviction(num_frames, bucket, buffer):
    """Property: with a deep inference queue, cAdd merging conserves all events."""
    bucket = min(bucket, buffer)
    config = DSFAConfig(
        event_buffer_size=buffer,
        merge_bucket_size=bucket,
        max_time_delay=10.0,
        max_density_change=10.0,
        inference_queue_depth=64,
    )
    dsfa = DynamicSparseFrameAggregator(config)
    frames = [make_frame(i, t_start=i * 0.001, t_end=(i + 1) * 0.001) for i in range(num_frames)]
    push_all(dsfa, frames)
    dsfa.flush()
    total = sum(batch.num_events for batch in dsfa.inference_queue)
    assert total == pytest.approx(sum(f.num_events for f in frames))


def _assert_batches_identical(a, b):
    assert (a is None) == (b is None)
    if a is not None:
        assert len(a) == len(b)
        for fa, fb in zip(a, b):
            assert frames_bit_identical(fa, fb)


class TestStackIndexProtocol:
    """push_index(stack, i) must be step-for-step identical to the oracle's push(frame_i)."""

    def _config(self, mode=MergeMode.ADD):
        return DSFAConfig(
            event_buffer_size=6,
            merge_bucket_size=3,
            merge_mode=mode,
            max_time_delay=0.004,
            max_density_change=0.3,
            inference_queue_depth=4,
        )

    def _frames(self, n=40):
        return [
            make_frame(
                seed=i,
                n=60 if i % 5 else 600,
                t_start=i * 0.002,
                t_end=(i + 1) * 0.002,
            )
            for i in range(n)
        ]

    @pytest.mark.parametrize("mode", list(MergeMode))
    @settings(max_examples=20, deadline=None, derandomize=True)
    # Always run: a mixed-density stream (one dense frame in five, the
    # hardware idle on every seventh push), and a delay-bound stream where
    # MtTh, not MdTh or the capacity, closes each bucket.
    @example(
        bucket=3,
        spare=3,
        max_delay=0.004,
        max_density_change=0.3,
        queue_depth=4,
        pushes=[(60 if i % 5 else 600, i % 7 == 0) for i in range(40)],
    )
    @example(
        bucket=5,
        spare=5,
        max_delay=0.005,
        max_density_change=10.0,
        queue_depth=2,
        pushes=[(60, False)] * 12,
    )
    @given(
        bucket=st.integers(min_value=1, max_value=6),
        spare=st.integers(min_value=0, max_value=6),
        max_delay=st.sampled_from([0.001, 0.003, 0.005, 0.009, 1.0]),
        max_density_change=st.sampled_from([0.0, 0.1, 0.3, 0.6, 1.0, 10.0]),
        queue_depth=st.integers(min_value=1, max_value=4),
        # (active-site count, hardware available): a few density levels
        # (0 = an empty frame) so the MdTh test binds both ways, and the
        # hardware idle on ~1 push in 4 so buckets get to fill up.
        pushes=st.lists(
            st.tuples(
                st.sampled_from([0, 30, 40, 60, 120, 600]),
                st.integers(min_value=0, max_value=3).map(lambda k: k == 0),
            ),
            min_size=1,
            max_size=30,
        ),
    )
    def test_push_index_matches_push(
        self, mode, bucket, spare, max_delay, max_density_change, queue_depth, pushes
    ):
        config = DSFAConfig(
            event_buffer_size=bucket + spare,
            merge_bucket_size=bucket,
            merge_mode=mode,
            max_time_delay=max_delay,
            max_density_change=max_density_change,
            inference_queue_depth=queue_depth,
        )
        # One frame per push on a 2 ms bin grid.
        frames = [
            make_frame(seed=i, n=n, t_start=i * 0.002, t_end=(i + 1) * 0.002)
            if n
            else SparseFrame.empty(36, 48, i * 0.002, (i + 1) * 0.002)
            for i, (n, _) in enumerate(pushes)
        ]
        stack = FrameStack.from_frames(frames)
        reference = ReferenceAggregator(config)
        production = DynamicSparseFrameAggregator(config)
        for i, (frame, (_, hw)) in enumerate(zip(frames, pushes)):
            _assert_batches_identical(
                reference.push(frame, hardware_available=hw),
                production.push_index(stack, i, hardware_available=hw),
            )
            assert reference.buffer_occupancy == production.buffer_occupancy, i
            assert reference.merge_statistics() == production.merge_statistics(), i
        _assert_batches_identical(reference.flush(), production.flush())
        assert reference.merge_statistics() == production.merge_statistics()

    def test_push_index_rejects_a_second_stack(self):
        config = DSFAConfig(event_buffer_size=8, merge_bucket_size=4)
        first = FrameStack.from_frames(self._frames(n=3))
        second = FrameStack.from_frames(self._frames(n=3))
        dsfa = DynamicSparseFrameAggregator(config)
        dsfa.push_index(first, 0)
        with pytest.raises(ValueError):
            dsfa.push_index(second, 1)
        # The rejected push left the buffer untouched.
        assert dsfa.buffer_occupancy == 1
        assert dsfa.num_buckets == 1
        # Once the buffer drains, the aggregator may serve another stack.
        assert dsfa.flush() is not None
        assert dsfa.push_index(second, 0, hardware_available=True) is not None

    def test_occupancy_counter_under_push_index(self):
        frames = self._frames()
        stack = FrameStack.from_frames(frames)
        dsfa = DynamicSparseFrameAggregator(self._config())
        for i in range(len(stack)):
            dsfa.push_index(stack, i, hardware_available=(i % 11 == 0))
            assert dsfa.buffer_occupancy == sum(
                bucket.occupancy for bucket in dsfa._buckets
            )
        dsfa.flush()
        assert dsfa.buffer_occupancy == 0

    def test_dispatch_is_stack_backed_for_single_stream(self):
        frames = self._frames(n=5)
        stack = FrameStack.from_frames(frames)
        dsfa = DynamicSparseFrameAggregator(self._config())
        for i in range(len(stack)):
            assert dsfa.push_index(stack, i) is None
        batch = dsfa.flush()
        # Same-stack buckets dispatch through merge_ranges into one
        # stack-backed batch (no per-frame materialisation).
        assert batch.stack is not None

    def test_bucket_contiguity_guard(self):
        stack = FrameStack.from_frames(self._frames(n=4))
        bucket = StackMergeBucket(capacity=4, stack=stack, start=0)
        bucket.add_index(0)
        bucket.add_index(1)
        with pytest.raises(RuntimeError):
            bucket.add_index(3)
