"""Ev-Edge core: E2SF, DSFA and the Network Mapper, plus the integrated pipeline."""

from .config import EvEdgeConfig, OptimizationLevel
from .dsfa import (
    BucketStatus,
    DSFAConfig,
    DynamicSparseFrameAggregator,
    MergeMode,
    StackMergeBucket,
)
from .e2sf import E2SFReport, Event2SparseFrameConverter
from .nmp import (
    Assignment,
    EvolutionaryStrategy,
    ExecutionScheduler,
    FitnessBreakdown,
    FitnessEvaluator,
    FlatGraph,
    GenerationStats,
    GreedyLayerwiseStrategy,
    MapperEngine,
    MappingCandidate,
    NMPConfig,
    NMPResult,
    RandomSearchStrategy,
    STRATEGIES,
    ScheduleResult,
    ScheduledNode,
    SearchContext,
    SearchStrategy,
    SimulatedAnnealingStrategy,
    make_strategy,
)

# The integrated pipeline sits above the runtime (it drives a StreamClient on
# the simulation kernel), while the runtime builds on core's E2SF, DSFA and
# NMP modules.  Loading it on first access keeps ``import repro.runtime``
# from re-entering the runtime through this package.
_PIPELINE_EXPORTS = ("EvEdgePipeline", "InferenceRecord", "PipelineReport")


def __getattr__(name):
    if name in _PIPELINE_EXPORTS:
        from . import pipeline

        return getattr(pipeline, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Event2SparseFrameConverter",
    "E2SFReport",
    "DynamicSparseFrameAggregator",
    "DSFAConfig",
    "MergeMode",
    "StackMergeBucket",
    "BucketStatus",
    "Assignment",
    "MappingCandidate",
    "ExecutionScheduler",
    "ScheduleResult",
    "ScheduledNode",
    "FitnessEvaluator",
    "FitnessBreakdown",
    "NMPConfig",
    "NMPResult",
    "GenerationStats",
    "MapperEngine",
    "SearchContext",
    "SearchStrategy",
    "EvolutionaryStrategy",
    "RandomSearchStrategy",
    "SimulatedAnnealingStrategy",
    "GreedyLayerwiseStrategy",
    "STRATEGIES",
    "make_strategy",
    "FlatGraph",
    "EvEdgeConfig",
    "OptimizationLevel",
    "EvEdgePipeline",
    "PipelineReport",
    "InferenceRecord",
]
