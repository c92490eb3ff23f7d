"""Parallel sweep engine.

The engine is the scaling substrate of the repository: it takes a
:class:`~repro.engine.grid.ScenarioGrid` (a declarative cartesian product of
protocol x partition schedule x crash schedule x latency model x no-voter
set), partitions the grid into chunks and executes them across a
``concurrent.futures.ProcessPoolExecutor`` (or a deterministic in-process
loop for ``workers=1``), streaming back compact, picklable
:class:`~repro.engine.summary.RunSummary` records.  An on-disk result cache
keyed by ``(spec-hash, seed)`` makes re-sweeps incremental.

Summaries either materialize into a list (:meth:`SweepEngine.run
<repro.engine.engine.SweepEngine.run>`) or stream in task order through
composable :mod:`~repro.engine.sink` aggregators
(:meth:`SweepEngine.run_streaming
<repro.engine.engine.SweepEngine.run_streaming>`) so arbitrarily large
sweeps run in O(sinks) memory.  :mod:`~repro.engine.refine` adds adaptive
onset-boundary refinement on top: coarse scan, then bisection of only the
intervals where the verdict class flips.

Scenario families are open: :mod:`~repro.engine.registry` is a spec-kind
registration point (spec dataclass + task executor + summary codec +
default sink factory) the engine, cache, sinks and CLI all resolve
through, so new spec types plug in with one ``register_spec_kind`` call.
:mod:`~repro.engine.resultlog` distributes a sweep across machines: a
deterministic, content-addressed shard partition; shards that append
atomically-sealed segments to a shared log directory (interrupted shards
resume from their last sealed segment); and
:func:`~repro.engine.resultlog.merge_result_log`, which folds the log
through checkpointed, outbox-committed batches -- an interrupted merge
resumes exactly-once -- into aggregates byte-identical to a
single-machine run.

Every experiment sweep, benchmark and the ``repro sweep`` / ``repro
boundaries`` / ``repro shard`` / ``repro merge`` CLI subcommands run on
top of this package.
"""

from repro.engine.cache import ResultCache
from repro.engine.engine import (
    StreamStats,
    SweepEngine,
    SweepResult,
    WorkerCrashedError,
    execute_task,
)
from repro.engine.grid import ScenarioGrid, SweepTask, tasks_from_specs
from repro.engine.hashing import spec_hash
from repro.engine.measures import MEASURES, register_measure
from repro.engine.refine import (
    Boundary,
    OnsetLine,
    RefinementDriver,
    RefinementResult,
    verdict_class,
    verdict_class_with_bound,
)
from repro.engine.registry import (
    SpecKind,
    UnknownSpecKindError,
    kind_by_name,
    kind_for_payload,
    kind_for_spec,
    kind_for_tag,
    register_spec_kind,
    registered_kinds,
    unregister_spec_kind,
)
from repro.engine.resultlog import (
    InjectedMergeCrash,
    MergeCursor,
    MergeResult,
    ResultLogError,
    ResultLogWriter,
    ShardLogResult,
    discover_segments,
    merge_result_log,
    read_segment,
    run_shard_log,
    shard_of,
    shard_tasks,
    write_segment,
)
from repro.engine.sink import (
    AtomicitySink,
    BlockingSink,
    CallbackSink,
    DecisionTimeHistogramSink,
    JsonlSink,
    ListSink,
    SummarySink,
    VerdictCounterSink,
    ViolationCollectorSink,
    read_jsonl,
)
from repro.engine.summary import RunSummary, summary_from_json_dict

__all__ = [
    "MEASURES",
    "AtomicitySink",
    "BlockingSink",
    "Boundary",
    "CallbackSink",
    "DecisionTimeHistogramSink",
    "InjectedMergeCrash",
    "JsonlSink",
    "ListSink",
    "MergeCursor",
    "MergeResult",
    "OnsetLine",
    "RefinementDriver",
    "RefinementResult",
    "ResultCache",
    "ResultLogError",
    "ResultLogWriter",
    "RunSummary",
    "ScenarioGrid",
    "ShardLogResult",
    "SpecKind",
    "StreamStats",
    "SummarySink",
    "SweepEngine",
    "SweepResult",
    "SweepTask",
    "UnknownSpecKindError",
    "VerdictCounterSink",
    "ViolationCollectorSink",
    "WorkerCrashedError",
    "discover_segments",
    "execute_task",
    "kind_by_name",
    "kind_for_payload",
    "kind_for_spec",
    "kind_for_tag",
    "merge_result_log",
    "read_jsonl",
    "read_segment",
    "register_measure",
    "register_spec_kind",
    "registered_kinds",
    "run_shard_log",
    "shard_of",
    "shard_tasks",
    "write_segment",
    "spec_hash",
    "summary_from_json_dict",
    "tasks_from_specs",
    "unregister_spec_kind",
    "verdict_class",
    "verdict_class_with_bound",
]
