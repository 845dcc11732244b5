#!/usr/bin/env python
"""DSFA tuning study: thresholds, merge modes and static-aggregation baselines.

Sweeps the DSFA thresholds (MtTh, MdTh), bucket size and merge mode on a
bursty sequence and compares against the static count-based and fixed-interval
aggregation policies of prior work, showing how dynamic merging adapts the
number of inferences to the event density.

Run with:  python examples/dsfa_tuning.py
"""

from repro.baselines import CountBasedAggregator, FixedIntervalAggregator
from repro.core import (
    DSFAConfig,
    DynamicSparseFrameAggregator,
    EvEdgeConfig,
    EvEdgePipeline,
    Event2SparseFrameConverter,
    MergeMode,
    OptimizationLevel,
)
from repro.events import generate_sequence
from repro.hw import jetson_xavier_agx
from repro.models import build_network


def main() -> None:
    sequence = generate_sequence("indoor_flying2", scale=0.25, duration=1.5, seed=0)
    platform = jetson_xavier_agx()
    network = build_network("fusionflownet")
    print(f"sequence: {sequence.name}, {len(sequence.events)} events, "
          f"{sequence.num_intervals} frame intervals")

    print()
    print("static aggregation baselines (prior work):")
    count_frames = CountBasedAggregator(events_per_frame=3000).aggregate(sequence.events)
    interval_frames = FixedIntervalAggregator(interval=1 / 60).aggregate(sequence.events)
    print(f"  count-based (3000 events/frame): {len(count_frames)} frames")
    print(f"  fixed interval (60 Hz):          {len(interval_frames)} frames")

    print()
    print("DSFA sweep (bucket size x merge mode) on the Ev-Edge pipeline:")
    for mode in MergeMode:
        for bucket in (2, 4):
            config = EvEdgeConfig(
                num_bins=10,
                dsfa=DSFAConfig(
                    event_buffer_size=8,
                    merge_bucket_size=bucket,
                    max_time_delay=0.05,
                    max_density_change=0.5,
                    merge_mode=mode,
                ),
                optimization=OptimizationLevel.E2SF_DSFA,
            )
            report = EvEdgePipeline(network, platform, config).run(sequence)
            print(f"  mode={mode.value:8s} MBsize={bucket}  inferences={report.num_inferences:4d}"
                  f"  mean latency={report.mean_latency * 1e3:7.2f} ms"
                  f"  mean occupancy={report.mean_occupancy:.3%}")

    print()
    print("threshold sensitivity (MdTh) with cAdd, MBsize=4:")
    converter = Event2SparseFrameConverter(10)
    t0, t1 = sequence.frames[0].timestamp, sequence.frames[-1].timestamp
    stack = converter.convert_stack(sequence.events, [t0, t1])
    for mdth in (0.05, 0.2, 0.5, 1.0):
        aggregator = DynamicSparseFrameAggregator(
            DSFAConfig(event_buffer_size=8, merge_bucket_size=4, max_density_change=mdth)
        )
        for index in range(len(stack)):
            aggregator.push_index(stack, index)
        aggregator.flush()
        stats = aggregator.merge_statistics()
        print(f"  MdTh={mdth:4.2f}  dispatched batches={stats['dispatched_batches']}")


if __name__ == "__main__":
    main()
