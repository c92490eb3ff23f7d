"""The parallel sweep engine.

:class:`SweepEngine` executes a batch of sweep tasks -- a
:class:`~repro.engine.grid.ScenarioGrid`, an explicit task list, or raw
``(protocol, spec)`` pairs -- and streams back
:class:`~repro.engine.summary.RunSummary` records.

Execution strategy:

* ``workers=1`` -- a deterministic in-process loop (no subprocess cost, easy
  to debug, bit-for-bit reproducible);
* ``workers>1`` -- the task list is partitioned into chunks and executed on
  a ``concurrent.futures.ProcessPoolExecutor``; chunks amortize the
  per-submission pickling cost over many scenarios.  The pool belongs to
  the engine, not to the run: it is forked at the first batch that needs it,
  reused by every later batch, and released by :meth:`SweepEngine.close`
  (or the ``with`` block, or garbage collection of the engine).

Either way the result order equals the task order: runs are independent, so
summaries are reassembled by task index regardless of which worker finished
first.  With a :class:`~repro.engine.cache.ResultCache` attached, previously
executed ``(spec-hash, seed)`` points are served from disk and only the new
points are dispatched.

Two execution surfaces share that machinery:

* :meth:`SweepEngine.run` materializes every summary into a
  :class:`SweepResult` list -- right for the figure-sized sweeps;
* :meth:`SweepEngine.run_streaming` / :meth:`SweepEngine.stream` deliver
  each summary exactly once, *in task order*, to composable
  :class:`~repro.engine.sink.SummarySink` aggregators and then drop it, so
  a million-scenario sweep holds O(sinks) memory plus a reorder buffer of
  at most ``WINDOW_PER_WORKER * workers`` chunks of at most
  ``CHUNK_CEILING`` records each by default, held as bytes and decoded one
  summary at a time as the sinks take it (never the whole sweep).
  In-order delivery makes every sink aggregate -- and a
  :class:`~repro.engine.sink.JsonlSink` spill file byte-for-byte --
  identical across worker counts.
"""

from __future__ import annotations

import os
import time
import weakref
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Optional, Sequence, Union

from repro.engine.cache import ResultCache
from repro.engine.grid import ScenarioGrid, SweepTask
from repro.engine.hashing import spec_hash as hash_task
from repro.engine.measures import resolve_measures
from repro.engine.registry import kind_for_spec
from repro.engine.sink import SummarySink
from repro.engine.summary import RunSummary, summary_from_json_bytes
from repro.obs.metrics import MetricsRegistry, activate, get_active, set_active
from repro.protocols.runner import ScenarioSpec

if TYPE_CHECKING:
    # ``multiprocessing`` and ``concurrent.futures`` load with the first pool
    # (:meth:`SweepEngine._warm_pool`): a serial engine never pays for them.
    from concurrent.futures import ProcessPoolExecutor

TaskBatch = Union[ScenarioGrid, Iterable[SweepTask], Iterable[tuple[str, ScenarioSpec]]]

# The default chunk size never exceeds this many tasks, so a chunk's frame,
# and the reorder buffer holding its records, stay the same size however
# long the sweep is (``chunk_size=`` overrides it).
CHUNK_CEILING = 128

# At most this many chunks per worker are submitted and not yet delivered:
# one running and one queued behind it keeps every worker busy, and the
# parent never holds more than this window of chunk results.
WINDOW_PER_WORKER = 2

# One chunk ships as (measure names, [(index, protocol, spec, spec_hash), ...],
# collect-metrics flag).  The spec hash is ``None`` when the engine has no
# cache to key: the worker computes it.
_ChunkPayload = tuple[
    tuple[str, ...], list[tuple[int, str, ScenarioSpec, Optional[str]]], bool
]

# One chunk result returns as a single batched frame: the task indices plus
# the newline-joined canonical JSON bytes of their summaries, in the same
# order.  Shipping one bytes object per chunk (instead of pickling every
# summary's object graph) keeps the parent's IPC cost flat in the chunk size,
# and the frames are exactly what the result cache stores and what the sinks
# write.  The third element is the chunk's observability meta -- worker pid,
# monotonic start/elapsed, and the worker-side registry snapshot -- or
# ``None`` when metrics are off.
# Riding the meta in the frame keeps it strictly out-of-band: the summary
# bytes (element 1) are what the cache and every sink see, unchanged.
_ChunkFrame = tuple[tuple[int, ...], bytes, Optional[dict]]

# One in-order delivery: task index, summary, and the summary's canonical
# JSON bytes when the engine holds them (``None`` otherwise).
_Delivery = tuple[int, RunSummary, Optional[bytes]]


def execute_task(
    protocol: str, spec: ScenarioSpec, *, spec_hash: str, measures: Sequence[str] = ()
):
    """Run one task and reduce it to a summary (used by the workers).

    The spec's type selects a row of the spec-kind table
    (:mod:`repro.engine.registry`) whose executor runs the task: a
    :class:`~repro.protocols.runner.ScenarioSpec` runs one transaction and
    yields a :class:`~repro.engine.summary.RunSummary`; a
    :class:`~repro.txn.runner.ThroughputSpec` runs the concurrent-workload
    scheduler and yields a :class:`~repro.txn.summary.ThroughputSummary`; a
    :class:`~repro.modelcheck.spec.ModelCheckSpec` explores a state graph
    and yields a :class:`~repro.modelcheck.summary.ModelCheckSummary`.  The
    engine itself never names a concrete spec type.
    """
    kind = kind_for_spec(spec)
    return kind.execute(protocol, spec, spec_hash=spec_hash, measures=measures)


def _execute_chunk(payload: _ChunkPayload) -> _ChunkFrame:
    """Top-level (picklable) chunk executor run inside pool workers.

    Summaries are serialized to their canonical JSON bytes *in the worker*
    and returned as one batched frame; the parent hands the bytes to the
    cache as the frame arrives and decodes each summary with
    :func:`~repro.engine.summary.summary_from_json_bytes` only when the
    sinks take it.  Canonical JSON is single-line, so the newline join is
    unambiguous.  A task shipped without its spec hash (no cache to key)
    is hashed here.
    """
    measures, items, collect = payload
    indices: list[int] = []
    frames: list[bytes] = []
    if not collect:
        for index, protocol, spec, key in items:
            if key is None:
                key = hash_task(protocol, spec)
            summary = execute_task(protocol, spec, spec_hash=key, measures=measures)
            indices.append(index)
            frames.append(summary.to_json_bytes())
        return tuple(indices), b"\n".join(frames), None

    # Metrics are on: run the chunk under a fresh worker-side registry (so
    # kernel / cache / txn instruments land here, not in whatever registry
    # the fork inherited) and ship its snapshot home in the frame meta.
    registry = MetricsRegistry()
    execute_hist = registry.histogram("engine.task.execute_seconds")
    encode_hist = registry.histogram("engine.task.encode_seconds")
    executed = registry.counter("engine.tasks.executed")
    chunk_started = time.perf_counter()
    with activate(registry):
        for index, protocol, spec, key in items:
            if key is None:
                key = hash_task(protocol, spec)
            before = time.perf_counter()
            summary = execute_task(protocol, spec, spec_hash=key, measures=measures)
            after = time.perf_counter()
            data = summary.to_json_bytes()
            encode_hist.observe(time.perf_counter() - after)
            execute_hist.observe(after - before)
            executed.inc()
            indices.append(index)
            frames.append(data)
    meta = {
        "pid": os.getpid(),
        # perf_counter is CLOCK_MONOTONIC on Linux, shared across forked
        # processes, so the parent can subtract its own submit timestamp.
        "started": chunk_started,
        "elapsed": time.perf_counter() - chunk_started,
        "metrics": registry.snapshot(),
    }
    return tuple(indices), b"\n".join(frames), meta


class WorkerCrashedError(RuntimeError):
    """A pool worker died mid-run (killed, ``os._exit``, out of memory).

    The summaries delivered before the crash stand; ``first_undelivered``
    is the task index the stream would have yielded next and ``undelivered``
    how many tasks from there on were never delivered.  The engine has
    already discarded the broken pool, so the next batch runs on a fresh one.
    """

    def __init__(self, undelivered: int, first_undelivered: int) -> None:
        super().__init__(
            f"a worker process died mid-run: {undelivered} task(s) undelivered, "
            f"first undelivered task index {first_undelivered}"
        )
        self.undelivered = undelivered
        self.first_undelivered = first_undelivered


def _release_pool(pool: ProcessPoolExecutor, owner_pid: int) -> None:
    """Stop a pool's workers; a no-op in a process that merely inherited it.

    Chunks that have not started are cancelled, so a pool abandoned mid-run
    is released after at most the chunks already in flight.
    """
    if os.getpid() == owner_pid:
        pool.shutdown(wait=True, cancel_futures=True)


@dataclass
class StreamStats:
    """Run statistics of a streaming sweep (the summaries live in the sinks).

    ``max_buffered`` is the peak size of the in-order reorder buffer -- the
    proof that the sweep streamed: for a materializing run it would equal the
    sweep size; a streaming run holds at most ``WINDOW_PER_WORKER * workers``
    chunks of records (``CHUNK_CEILING`` each unless ``chunk_size`` says
    otherwise), as bytes until each is delivered.  It is 1 for a serial
    run and 0 when every point came from the cache.
    """

    total: int = 0
    executed: int = 0
    cache_hits: int = 0
    workers: int = 1
    chunk_count: int = 0
    elapsed: float = 0.0
    max_buffered: int = 0

    @property
    def throughput(self) -> float:
        """Scenarios per wall-clock second (0 when elapsed is unmeasured)."""
        return self.total / self.elapsed if self.elapsed > 0 else 0.0


@dataclass
class SweepResult(StreamStats):
    """The run statistics of :meth:`SweepEngine.run` plus its summaries,
    in task order."""

    summaries: list[RunSummary] = field(default_factory=list)

    def __iter__(self) -> Iterator[RunSummary]:
        return iter(self.summaries)

    def __len__(self) -> int:
        return len(self.summaries)

    def __getitem__(self, index: int) -> RunSummary:
        return self.summaries[index]


class SweepEngine:
    """Executes scenario grids across worker processes with result caching.

    At ``workers > 1`` the engine owns one warm process pool, forked by the
    first batch with two or more uncached tasks and reused by every later
    ``run`` / ``run_streaming`` / ``stream`` call.
    :meth:`close` (or ``with SweepEngine(...) as engine:``) stops the
    workers; an engine that is never closed releases them when it is
    garbage-collected.  A pool that can no longer be trusted -- a worker
    died, a consumer abandoned a stream with chunks outstanding, the engine
    was inherited across a fork -- is discarded and the next batch forks a
    fresh one.

    Args:
        workers: process count; ``1`` means a deterministic in-process loop.
        cache: a :class:`ResultCache`, a directory path for one, or ``None``
            to disable caching.
        chunk_size: scenarios per worker submission (default: enough chunks
            for ~4 submissions per worker, a balance between load-balancing
            and pickling overhead, but never more than ``CHUNK_CEILING``).
        mp_context: multiprocessing start-method name or context; defaults
            to ``fork`` where available (fastest) and the platform default
            elsewhere.  A name is resolved when the first pool starts.
        metrics: a :class:`~repro.obs.metrics.MetricsRegistry` to record
            run metrics into, or ``None`` (the default) for zero-cost
            no-op behaviour.  While a run is in flight the registry is
            also installed as the process-wide active registry, so the
            cache, kernel, scheduler and model-checker instruments all
            land in it; worker-side snapshots ride home in the chunk
            frames and are merged in.  Metrics never influence results:
            summaries, cache entries and sink output stay byte-identical.
    """

    def __init__(
        self,
        workers: int = 1,
        *,
        cache: Union[ResultCache, str, os.PathLike, None] = None,
        chunk_size: Optional[int] = None,
        mp_context: Union[str, Any, None] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.workers = workers
        self.chunk_size = chunk_size
        self.metrics = metrics
        if cache is None or isinstance(cache, ResultCache):
            self.cache = cache
        else:
            self.cache = ResultCache(cache)
        self._mp_context = mp_context
        self._pool: Optional[ProcessPoolExecutor] = None
        # The pid that forked the pool: a pool inherited across a fork of
        # this process is never reused.
        self._pool_pid = 0
        self._pool_finalizer: Optional[weakref.finalize] = None

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop the worker pool, if one is running (idempotent).

        The engine stays usable: a later parallel batch forks a new pool.
        """
        if self._pool is not None:
            self._pool_finalizer()
            self._pool = None

    def __enter__(self) -> "SweepEngine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def run(self, tasks: TaskBatch, *, measures: Sequence[str] = ()) -> SweepResult:
        """Execute every task and return ordered summaries plus statistics."""
        task_list = self._materialize(tasks)
        started = time.perf_counter()
        result = SweepResult(workers=self.workers)
        for _, summary, _ in self._stream_ordered(task_list, measures, result):
            result.summaries.append(summary)
        result.elapsed = time.perf_counter() - started
        return result

    def run_streaming(
        self,
        tasks: TaskBatch,
        *,
        sinks: Union[SummarySink, Sequence[SummarySink]],
        measures: Sequence[str] = (),
        stats: Optional[StreamStats] = None,
    ) -> StreamStats:
        """Execute every task, feeding each summary to the sinks in task order.

        No summary list is materialized: each summary is handed to every
        sink exactly once and then dropped, so memory stays O(sinks) plus a
        reorder buffer of at most ``WINDOW_PER_WORKER * workers`` chunks'
        records, held as bytes and decoded one at a time as the sinks take
        them (:attr:`StreamStats.max_buffered`).  Because delivery order equals
        task order, ``workers=1`` and ``workers=N`` leave every sink with
        identical final aggregates.  Sinks are closed (even on an empty
        sweep) before the stats are returned.

        Each delivery is :meth:`SummarySink.accept_record`, carrying the
        summary's canonical bytes whenever the engine already holds them --
        a cache entry, a worker frame, or what it just stored in the cache
        -- so a byte-writing sink never encodes the summary again.

        Pass a :class:`StreamStats` to observe counters *live* (e.g. for a
        ``--progress`` sink reading ``executed``/``cache_hits`` between
        deliveries); the same object is updated in place and returned.
        """
        sink_list = [sinks] if isinstance(sinks, SummarySink) else list(sinks)
        if stats is None:
            stats = StreamStats(workers=self.workers)
        else:
            stats.workers = self.workers
        started = time.perf_counter()
        body_raised = False
        try:
            for index, summary, data in self._stream_ordered(
                self._materialize(tasks), measures, stats
            ):
                for sink in sink_list:
                    sink.accept_record(index, summary, data)
        except BaseException:
            body_raised = True
            raise
        finally:
            # Close even on worker/sink failure so buffered sink output (e.g.
            # a partial JSONL spill) is flushed rather than lost; one sink's
            # close() failure must not leave the remaining sinks unflushed.
            close_error: Optional[BaseException] = None
            for sink in sink_list:
                try:
                    sink.close()
                except BaseException as exc:  # noqa: BLE001 - re-raised below
                    if close_error is None:
                        close_error = exc
            # A close failure surfaces unless an execution error is already
            # propagating (that one stays the primary exception).
            if close_error is not None and not body_raised:
                raise close_error
        stats.elapsed = time.perf_counter() - started
        return stats

    def stream(
        self,
        tasks: TaskBatch,
        *,
        measures: Sequence[str] = (),
        stats: Optional[StreamStats] = None,
    ) -> Iterator[RunSummary]:
        """Yield summaries one at a time, in task order, without a list.

        The generator analogue of :meth:`run_streaming`, for callers (the
        per-figure experiments) that fold the stream themselves.  Pass a
        :class:`StreamStats` to collect run statistics; its ``elapsed`` field
        is only final once the generator is exhausted.
        """
        if stats is None:
            stats = StreamStats(workers=self.workers)
        started = time.perf_counter()
        for _, summary, _ in self._stream_ordered(
            self._materialize(tasks), measures, stats
        ):
            yield summary
        stats.elapsed = time.perf_counter() - started

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _warm_pool(self) -> ProcessPoolExecutor:
        """The engine's pool, forked now unless a trusted one is running."""
        pid = os.getpid()
        if self._pool is not None and self._pool_pid != pid:
            # Inherited across a fork of this process: start over.
            self.close()
        if self._pool is None:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            context = self._mp_context
            if isinstance(context, str):
                context = multiprocessing.get_context(context)
            elif context is None and "fork" in multiprocessing.get_all_start_methods():
                context = multiprocessing.get_context("fork")
            # Workers outlive the run that forked them, so they must not keep
            # recording into a copy of whatever registry was active then.
            pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=context,
                initializer=set_active,
                initargs=(None,),
            )
            self._pool = pool
            self._pool_pid = pid
            self._pool_finalizer = weakref.finalize(self, _release_pool, pool, pid)
        return self._pool

    @staticmethod
    def _materialize(tasks: TaskBatch) -> list[SweepTask]:
        if isinstance(tasks, ScenarioGrid):
            return list(tasks.tasks())
        out = []
        for task in tasks:
            if isinstance(task, SweepTask):
                out.append(task)
            else:
                protocol, spec = task
                out.append(SweepTask(protocol=protocol, spec=spec))
        return out

    def _stream_ordered(
        self,
        tasks: list[SweepTask],
        measures: Sequence[str],
        stats: StreamStats,
    ) -> Iterator[_Delivery]:
        """Yield ``(index, summary, data)`` strictly in task order, bounded memory.

        ``data`` is the summary's canonical JSON bytes when the engine holds
        exactly those bytes (a cache entry, a worker frame, or the bytes
        just stored in the cache), and ``None`` otherwise.

        Cache hits are *not* held across the scan: the scan records only the
        key of a usable hit and re-reads it from disk at delivery time.
        Worker results are bounded too: at most ``WINDOW_PER_WORKER *
        workers`` chunks are submitted and not yet delivered, a chunk's
        payload is built only when it is submitted, and its frame is split
        into per-record bytes (and stored in the cache) as it arrives, then
        dropped.  The reorder buffer (``stats.max_buffered``) therefore holds
        at most that window's records, and each is decoded just before it
        is delivered.  Without a cache the parent never hashes a task it
        ships: the worker does.

        Observability (``self.metrics``): for the duration of the stream the
        engine's registry is the process-wide active one (restored
        afterwards), so cache and in-process-execution instruments record
        into it; worker registries ship back per chunk and are merged.  The
        cache scan and the chunk submissions are timed as the
        ``engine.cache_scan_seconds`` / ``engine.dispatch_seconds`` phases.
        Every instrument site is gated on one ``is None`` check.
        """
        metrics = self.metrics
        run_started = time.perf_counter()
        # pid -> [tasks, chunks, busy seconds]; labels assigned at run end.
        workers_seen: dict[int, list] = {}
        previous_active = get_active()
        if metrics is not None:
            set_active(metrics)
        try:
            yield from self._stream_ordered_observed(
                tasks, measures, stats, metrics, workers_seen
            )
        finally:
            if metrics is not None:
                set_active(previous_active)
                self._finalize_run_metrics(
                    stats, time.perf_counter() - run_started, workers_seen
                )

    def _stream_ordered_observed(
        self,
        tasks: list[SweepTask],
        measures: Sequence[str],
        stats: StreamStats,
        metrics: Optional[MetricsRegistry],
        workers_seen: dict[int, list],
    ) -> Iterator[_Delivery]:
        measure_names = resolve_measures(measures)
        stats.total = len(tasks)
        # (index, task, key); the key is ``None`` when there is no cache.
        pending: list[tuple[int, SweepTask, Optional[str]]] = []
        cached: dict[int, tuple[SweepTask, str]] = {}
        partial: dict[int, RunSummary] = {}
        scan_started = time.perf_counter() if metrics is not None else 0.0
        for index, task in enumerate(tasks):
            if self.cache is None:
                # Nothing to look up: hashing waits for whoever executes.
                pending.append((index, task, None))
                continue
            key = task.spec_hash
            if not measure_names:
                # No measures to check: a cheap existence probe suffices,
                # deferring the single read+parse to delivery time.
                if self.cache.probe(key, task.spec.seed):
                    cached[index] = (task, key)
                else:
                    pending.append((index, task, key))
            else:
                hit = self.cache.get(key, task.spec.seed)
                if hit is not None and all(
                    m in hit.metrics for m in measure_names
                ):
                    cached[index] = (task, key)
                else:
                    if hit is not None:
                        partial[index] = hit
                    pending.append((index, task, key))
        if metrics is not None:
            metrics.histogram("engine.cache_scan_seconds").observe(
                time.perf_counter() - scan_started
            )

        def finish(
            index: int, summary: RunSummary, data: Optional[bytes] = None
        ) -> tuple[RunSummary, Optional[bytes]]:
            """Fold in a partial hit's metrics and store the summary in the
            cache; return it with its canonical bytes, or ``None`` for them
            when there is no cache to encode them for."""
            stale = partial.pop(index, None)
            if stale is not None:
                summary.metrics = {**stale.metrics, **summary.metrics}
                # A worker's bytes encode the summary before this merge.
                data = None
            if self.cache is not None:
                if data is None:
                    data = summary.to_json_bytes()
                self.cache.put_bytes(summary.spec_hash, summary.seed, data)
            return summary, data

        def arrive(
            index: int, task: SweepTask, key: Optional[str], data: bytes
        ) -> tuple[Optional[RunSummary], Optional[bytes]]:
            """File one worker record as it arrives: stored in the cache at
            once, decoded at delivery (a partial hit decodes now, to merge)."""
            if index in partial:
                return finish(index, summary_from_json_bytes(data), data)
            if self.cache is not None:
                self.cache.put_bytes(key, task.spec.seed, data)
            return None, data

        # index -> (summary, bytes); the summary is ``None`` until delivery
        # decodes the bytes.
        buffered: dict[int, tuple[Optional[RunSummary], Optional[bytes]]] = {}
        cursor = 0

        def drain() -> Iterator[_Delivery]:
            nonlocal cursor
            while cursor < len(tasks):
                if cursor in buffered:
                    stats.executed += 1
                    summary, data = buffered.pop(cursor)
                    if summary is None:
                        summary = summary_from_json_bytes(data)
                    yield cursor, summary, data
                elif cursor in cached:
                    task, key = cached.pop(cursor)
                    # The scan already counted this hit; the delivery read is
                    # unrecorded so counters stay one-per-task.
                    hit = self.cache.get_record(key, task.spec.seed, record=False)
                    if hit is None:
                        # Evicted between scan and delivery: re-execute inline.
                        hit = finish(
                            cursor,
                            execute_task(
                                task.protocol,
                                task.spec,
                                spec_hash=key,
                                measures=measure_names,
                            ),
                        )
                        stats.executed += 1
                        if metrics is not None:
                            metrics.counter("engine.tasks.executed").inc()
                    else:
                        stats.cache_hits += 1
                    yield (cursor, *hit)
                else:
                    return
                cursor += 1

        if self.workers == 1 or len(pending) <= 1:
            stats.chunk_count = len(pending)
            if metrics is not None:
                execute_hist = metrics.histogram("engine.task.execute_seconds")
                executed_counter = metrics.counter("engine.tasks.executed")
                acct = workers_seen.setdefault(os.getpid(), [0, 0, 0.0])
            for index, task, _ in pending:
                key = task.spec_hash
                if metrics is None:
                    summary = execute_task(
                        task.protocol, task.spec, spec_hash=key, measures=measure_names
                    )
                else:
                    before = time.perf_counter()
                    summary = execute_task(
                        task.protocol, task.spec, spec_hash=key, measures=measure_names
                    )
                    task_elapsed = time.perf_counter() - before
                    execute_hist.observe(task_elapsed)
                    executed_counter.inc()
                    # In-process, every executed task is one chunk.
                    acct[0] += 1
                    acct[1] += 1
                    acct[2] += task_elapsed
                buffered[index] = finish(index, summary)
                stats.max_buffered = max(stats.max_buffered, len(buffered))
                yield from drain()
            yield from drain()
            return

        size = self._chunk_size(len(pending))
        starts = iter(range(0, len(pending), size))
        stats.chunk_count = -(-len(pending) // size)
        window = WINDOW_PER_WORKER * self.workers
        collect = metrics is not None
        if metrics is not None:
            queue_wait_hist = metrics.histogram("engine.chunk.queue_wait_seconds")
            chunk_execute_hist = metrics.histogram("engine.chunk.execute_seconds")
            fold_hist = metrics.histogram("engine.chunk.decode_seconds")
        from concurrent.futures import FIRST_COMPLETED, wait
        from concurrent.futures.process import BrokenProcessPool

        pool = self._warm_pool()
        # future -> (first pending position, submit timestamp) of every chunk
        # submitted and not yet folded.
        submitted: dict = {}
        # The last task index of every submitted chunk not wholly delivered,
        # in submission order, which is delivery order: the window.
        undelivered: deque[int] = deque()
        dispatch_seconds = 0.0

        def submit_more() -> None:
            """Refill the window, building each chunk's payload as it goes."""
            nonlocal dispatch_seconds
            began = time.perf_counter()
            while undelivered and undelivered[0] < cursor:
                undelivered.popleft()
            while len(undelivered) < window:
                start = next(starts, None)
                if start is None:
                    break
                items = [
                    (index, task.protocol, task.spec, key)
                    for index, task, key in pending[start : start + size]
                ]
                future = pool.submit(_execute_chunk, (measure_names, items, collect))
                submitted[future] = (start, time.perf_counter())
                undelivered.append(items[-1][0])
            dispatch_seconds += time.perf_counter() - began

        def fold(done: Iterable) -> None:
            """Split each finished chunk's frame into ``buffered`` and drop
            the future, and with it the frame."""
            for future in done:
                start, submitted_at = submitted.pop(future)
                indices, frame, meta = future.result()
                if metrics is not None and meta is not None:
                    queue_wait_hist.observe(max(0.0, meta["started"] - submitted_at))
                    chunk_execute_hist.observe(meta["elapsed"])
                    metrics.merge_snapshot(meta["metrics"])
                    acct = workers_seen.setdefault(meta["pid"], [0, 0, 0.0])
                    acct[0] += len(indices)
                    acct[1] += 1
                    acct[2] += meta["elapsed"]
                fold_started = time.perf_counter() if metrics is not None else 0.0
                for (index, task, key), data in zip(
                    pending[start : start + size], frame.split(b"\n")
                ):
                    buffered[index] = arrive(index, task, key, data)
                if metrics is not None:
                    # Split + cache-store fold of one chunk's frame (the
                    # summaries themselves decode at delivery).
                    fold_hist.observe(time.perf_counter() - fold_started)
            stats.max_buffered = max(stats.max_buffered, len(buffered))

        try:
            submit_more()
            while submitted:
                fold(wait(submitted, return_when=FIRST_COMPLETED).done)
                yield from drain()
                submit_more()
        except BrokenProcessPool as exc:
            self.close()
            raise WorkerCrashedError(len(tasks) - cursor, cursor) from exc
        except BaseException:
            # A failed chunk, or a consumer that abandoned the stream
            # (GeneratorExit), leaves chunks queued: cancel them with the pool
            # (the next batch forks a fresh one) so stale work never runs
            # ahead of that batch.
            if not all(future.done() for future in submitted):
                self.close()
            raise
        finally:
            if metrics is not None:
                # One observation per run: every refill's submissions.
                metrics.histogram("engine.dispatch_seconds").observe(
                    dispatch_seconds
                )
        yield from drain()

    def _finalize_run_metrics(
        self,
        stats: StreamStats,
        elapsed: float,
        workers_seen: dict[int, list],
    ) -> None:
        """Fold one run's per-worker accounting into the registry.

        Worker labels (``w0``, ``w1``, ...) are assigned by sorted pid, so
        within one run the labelling is deterministic; utilization is busy
        seconds over the run's wall clock, and the dispatch-overhead share
        is the fraction of worker-slot capacity *not* spent executing --
        exactly the number ROADMAP item 1 needs.
        """
        metrics = self.metrics
        if metrics is None:
            return
        metrics.counter("engine.tasks.total").inc(stats.total)
        metrics.counter("engine.tasks.cache_hits").inc(stats.cache_hits)
        metrics.counter("engine.chunks").inc(stats.chunk_count)
        metrics.gauge("engine.workers").set(float(self.workers))
        metrics.gauge("engine.elapsed_seconds").set(elapsed)
        total_busy = 0.0
        for label_index, pid in enumerate(sorted(workers_seen)):
            tasks_done, chunks_done, busy = workers_seen[pid]
            prefix = f"engine.worker.w{label_index}."
            metrics.counter(prefix + "tasks").inc(tasks_done)
            metrics.counter(prefix + "chunks").inc(chunks_done)
            metrics.gauge(prefix + "busy_seconds").set(busy)
            if elapsed > 0:
                metrics.gauge(prefix + "utilization").set(
                    min(1.0, busy / elapsed)
                )
            total_busy += busy
        slots = min(self.workers, len(workers_seen)) or 1
        if elapsed > 0 and workers_seen:
            share = 1.0 - total_busy / (elapsed * slots)
            metrics.gauge("engine.dispatch_overhead_share").set(
                min(1.0, max(0.0, share))
            )

    def _chunk_size(self, pending: int) -> int:
        """Tasks per chunk: ``chunk_size``, or by default ~4 chunks per
        worker (the pool stays busy without shipping one scenario at a
        time), capped at ``CHUNK_CEILING``."""
        if self.chunk_size is not None:
            return self.chunk_size
        return max(1, min(pending // (self.workers * 4), CHUNK_CEILING))
