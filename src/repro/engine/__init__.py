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

The engine runs three families of work -- single-transaction scenarios,
contended workloads and exhaustive model checks -- and
:mod:`~repro.engine.registry` is their fixed table of spec kinds (spec
dataclass + task executor + summary codec + default sink factory, one row
each) that the engine, cache, sinks and CLI all resolve through.
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

from repro.engine.cache import CacheEntryError, ResultCache
from repro.engine.engine import (
    StreamStats,
    SweepEngine,
    SweepResult,
    WorkerCrashedError,
    execute_task,
)
from repro.engine.grid import ScenarioGrid, SweepTask, tasks_from_specs
from repro.engine.hashing import spec_hash
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
    registered_kinds,
)
from repro.engine.resultlog import (
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
    read_jsonl,
)
from repro.engine.summary import RunSummary, summary_from_json_dict

__all__ = [
    "AtomicitySink",
    "BlockingSink",
    "Boundary",
    "CacheEntryError",
    "CallbackSink",
    "DecisionTimeHistogramSink",
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
    "registered_kinds",
    "run_shard_log",
    "shard_of",
    "shard_tasks",
    "write_segment",
    "spec_hash",
    "summary_from_json_dict",
    "tasks_from_specs",
    "verdict_class",
    "verdict_class_with_bound",
]
