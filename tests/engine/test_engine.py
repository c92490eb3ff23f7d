"""Unit tests for the sweep-engine building blocks (grid, hashing, cache)
and for the engine-owned worker pool's lifecycle."""

import faulthandler
import gc
import math
import multiprocessing
import os
import pathlib
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

import pytest

from repro.core.canonical import canonical_json_bytes
from repro.engine import (
    ResultCache,
    RunSummary,
    ScenarioGrid,
    SpecKind,
    StreamStats,
    SummarySink,
    SweepEngine,
    SweepTask,
    WorkerCrashedError,
    spec_hash,
    tasks_from_specs,
)
from repro.engine.engine import WINDOW_PER_WORKER
from repro.obs.metrics import MetricsRegistry, activate, get_active
from repro.core.reachability import simple_splits
from repro.protocols.runner import ScenarioSpec
from repro.sim.failures import CrashSchedule
from repro.sim.latency import ConstantLatency, UniformLatency
from repro.sim.partition import PartitionSchedule


class TestScenarioGrid:
    def test_cardinality_is_product_of_axes(self):
        grid = ScenarioGrid(
            protocols=("two-phase-commit", "three-phase-commit"),
            partitions=(None, PartitionSchedule.simple(1.0, [1, 2], [3])),
            crashes=(None, CrashSchedule.single(2, at=1.0)),
            latencies=(None, UniformLatency(0.5, 1.0)),
            no_voter_options=(frozenset(), frozenset({2})),
            models=("optimistic", "pessimistic"),
            seeds=(0, 1, 2),
        )
        assert len(grid) == 2 * 2 * 2 * 2 * 2 * 2 * 3
        assert len(list(grid.tasks())) == len(grid)

    def test_axis_order_protocol_outermost_seed_innermost(self):
        grid = ScenarioGrid(
            protocols=("two-phase-commit", "three-phase-commit"),
            seeds=(0, 1),
        )
        tasks = list(grid.tasks())
        assert [(t.protocol, t.spec.seed) for t in tasks] == [
            ("two-phase-commit", 0),
            ("two-phase-commit", 1),
            ("three-phase-commit", 0),
            ("three-phase-commit", 1),
        ]

    def test_from_partition_sweep_enumerates_time_then_split_then_votes(self):
        votes = (frozenset(), frozenset({2}))
        grid = ScenarioGrid.from_partition_sweep(
            "terminating-three-phase-commit", 3, times=[1.0, 2.5], no_voter_options=votes
        )
        expected = [
            (at, split, no_voters)
            for at in (1.0, 2.5)
            for split in simple_splits(3)
            for no_voters in votes
        ]
        assert len(grid) == len(expected)
        for task, (at, (g1, g2), no_voters) in zip(grid.tasks(), expected):
            assert task.spec.no_voters == no_voters
            assert [e.time for e in task.spec.partition] == [at]
            assert task.spec.partition.events[0].spec == PartitionSchedule.simple(
                at, g1, g2
            ).events[0].spec

    def test_multiple_partition_axis_builds_three_group_schedules(self):
        from repro.engine.grid import multiple_partition_axis

        schedules = multiple_partition_axis(5, times=[1.0, 2.0], n_groups=3)
        assert len(schedules) == 2
        for schedule, at in zip(schedules, [1.0, 2.0]):
            (event,) = list(schedule)
            assert event.time == at
            assert event.spec.is_multiple
            assert event.spec.sites == frozenset({1, 2, 3, 4, 5})

    def test_multiple_partition_axis_rejects_bad_group_counts(self):
        from repro.engine.grid import multiple_partition_axis

        with pytest.raises(ValueError):
            multiple_partition_axis(3, times=[1.0], n_groups=2)
        with pytest.raises(ValueError):
            multiple_partition_axis(3, times=[1.0], n_groups=4)

    def test_tasks_from_specs_wraps_protocol(self):
        tasks = tasks_from_specs("quorum-commit", [ScenarioSpec(), ScenarioSpec(n_sites=4)])
        assert [t.protocol for t in tasks] == ["quorum-commit"] * 2
        assert tasks[1].spec.n_sites == 4


class TestSpecHash:
    def test_stable_for_equal_specs(self):
        a = ScenarioSpec(partition=PartitionSchedule.simple(1.0, [1], [2, 3]))
        b = ScenarioSpec(partition=PartitionSchedule.simple(1.0, [1], [2, 3]))
        assert spec_hash("two-phase-commit", a) == spec_hash("two-phase-commit", b)

    def test_sensitive_to_protocol_and_every_axis(self):
        base = ScenarioSpec()
        baseline = spec_hash("two-phase-commit", base)
        variants = [
            spec_hash("three-phase-commit", base),
            spec_hash("two-phase-commit", ScenarioSpec(n_sites=4)),
            spec_hash("two-phase-commit", ScenarioSpec(seed=1)),
            spec_hash("two-phase-commit", ScenarioSpec(model="pessimistic")),
            spec_hash("two-phase-commit", ScenarioSpec(no_voters=frozenset({2}))),
            spec_hash(
                "two-phase-commit",
                ScenarioSpec(partition=PartitionSchedule.simple(1.0, [1], [2, 3])),
            ),
            spec_hash(
                "two-phase-commit",
                ScenarioSpec(crashes=CrashSchedule.single(2, at=1.0)),
            ),
            spec_hash("two-phase-commit", ScenarioSpec(latency=ConstantLatency(2.0))),
            spec_hash("two-phase-commit", ScenarioSpec(latency=UniformLatency(0.5, 1.0))),
        ]
        assert len({baseline, *variants}) == len(variants) + 1

    def test_integral_floats_hash_like_ints(self):
        assert spec_hash("two-phase-commit", ScenarioSpec(horizon=8)) == spec_hash(
            "two-phase-commit", ScenarioSpec(horizon=8.0)
        )
        assert spec_hash("two-phase-commit", ScenarioSpec(horizon=8.0)) != spec_hash(
            "two-phase-commit", ScenarioSpec(horizon=8.5)
        )

    def test_no_voter_enumeration_order_is_irrelevant(self):
        a = ScenarioSpec(no_voters=frozenset({4, 2, 3}))
        b = ScenarioSpec(no_voters=frozenset({3, 4, 2}))
        assert spec_hash("two-phase-commit", a) == spec_hash("two-phase-commit", b)


class TestRunSummaryJson:
    def test_round_trip_equality(self):
        engine = SweepEngine(workers=1)
        result = engine.run(
            [("terminating-three-phase-commit", ScenarioSpec(n_sites=3))],
            measures=("timeouts",),
        )
        summary = result[0]
        clone = RunSummary.from_json_bytes(summary.to_json_bytes())
        assert clone == summary

    def test_round_trip_preserves_infinite_waits(self):
        # Case 3.2.2.2 is the paper's unbounded wait: without the Section 6
        # rule the isolated slave times out in p and never decides.
        from repro.analysis.cases import build_case_scenario
        from repro.core.transient import PartitionCase

        scenario = build_case_scenario(PartitionCase.ALL_PREPARE_COMMIT_LOST_PROBES_PASS)
        result = SweepEngine(workers=1).run(
            [("terminating-three-phase-commit-no-transient", scenario.spec)],
            measures=("wait_in_w", "wait_in_p"),
        )
        summary = result[0]
        assert summary.blocked
        clone = RunSummary.from_json_bytes(summary.to_json_bytes())
        assert clone == summary
        waits = {**clone.metrics["wait_in_w"], **clone.metrics["wait_in_p"]}
        assert any(math.isinf(w) for w in waits.values())


class TestResultCache:
    def test_get_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("ab" * 32, 0) is None
        summary = SweepEngine(workers=1).run(
            [("two-phase-commit", ScenarioSpec())]
        )[0]
        cache.put(summary)
        assert cache.get(summary.spec_hash, summary.seed) == summary
        assert (cache.hits, cache.misses) == (1, 1)
        assert len(cache) == 1

    def test_distinct_seeds_cache_separately(self, tmp_path):
        cache = ResultCache(tmp_path)
        engine = SweepEngine(workers=1, cache=cache)
        spec_a = ScenarioSpec(latency=UniformLatency(0.25, 1.0), seed=0)
        spec_b = ScenarioSpec(latency=UniformLatency(0.25, 1.0), seed=1)
        engine.run([("two-phase-commit", spec_a), ("two-phase-commit", spec_b)])
        assert len(cache) == 2


class TestSweepEngine:
    def test_accepts_raw_protocol_spec_pairs(self):
        result = SweepEngine(workers=1).run(
            [("two-phase-commit", ScenarioSpec()), ("three-phase-commit", ScenarioSpec())]
        )
        assert [s.protocol for s in result] == [
            "two-phase-commit",
            "three-phase-commit",
        ]
        assert all(s.all_committed for s in result)

    def test_rejects_bad_worker_and_chunk_counts(self):
        with pytest.raises(ValueError):
            SweepEngine(workers=0)
        with pytest.raises(ValueError):
            SweepEngine(workers=1, chunk_size=0)

    def test_rejects_unknown_measures_before_running(self):
        with pytest.raises(KeyError, match="no_such_measure"):
            SweepEngine(workers=1).run(
                [("two-phase-commit", ScenarioSpec())], measures=("no_such_measure",)
            )

    def test_unknown_protocol_raises(self):
        with pytest.raises(KeyError, match="unknown protocol"):
            SweepEngine(workers=1).run([("not-a-protocol", ScenarioSpec())])

    def test_result_stats_and_throughput(self):
        result = SweepEngine(workers=1).run(
            tasks_from_specs("two-phase-commit", [ScenarioSpec(seed=s) for s in range(3)])
        )
        assert (result.total, result.executed, result.cache_hits) == (3, 3, 0)
        assert result.throughput > 0
        assert len(result) == 3
        assert result[0].protocol == "two-phase-commit"

    def test_result_is_the_stream_stats_plus_its_summaries(self, tmp_path):
        tasks = tasks_from_specs(
            "two-phase-commit", [ScenarioSpec(seed=s) for s in range(3)]
        )

        def counts(stats):
            return (
                stats.total,
                stats.executed,
                stats.cache_hits,
                stats.workers,
                stats.chunk_count,
            )

        for expected in ((3, 3, 0, 1, 3), (3, 0, 3, 1, 0)):  # cold, then warm
            result = SweepEngine(workers=1, cache=tmp_path / "run").run(tasks)
            stats = StreamStats(workers=1)
            engine = SweepEngine(workers=1, cache=tmp_path / "stream")
            streamed = list(engine.stream(tasks, stats=stats))
            assert isinstance(result, StreamStats)
            assert counts(result) == counts(stats) == expected
            assert list(result) == result.summaries == streamed
            assert result.elapsed > 0


# ----------------------------------------------------------------------
# the engine-owned worker pool
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ProbeSpec:
    """A spec whose executor reports on (or kills) the worker that ran it."""

    value: int = 0
    seed: int = 0
    log: Optional[str] = None  # append ``value`` to this file when executed
    sleep: float = 0.0
    exit_code: Optional[int] = None  # ``os._exit`` with this code instead


@dataclass
class ProbeSummary:
    protocol: str
    spec_hash: str
    seed: int
    value: int
    pid: int
    registry_active: bool
    metrics: dict[str, Any] = field(default_factory=dict)

    def to_json_dict(self) -> dict[str, Any]:
        return {"kind": "probe", **self.__dict__}

    @classmethod
    def from_json_dict(cls, payload: Mapping[str, Any]) -> "ProbeSummary":
        return cls(**{k: v for k, v in payload.items() if k != "kind"})

    def to_json_bytes(self) -> bytes:
        return canonical_json_bytes(self.to_json_dict())


def _execute_probe(protocol, spec, *, spec_hash, measures=()):
    if spec.exit_code is not None:
        os._exit(spec.exit_code)
    time.sleep(spec.sleep)
    if spec.log is not None:
        with open(spec.log, "a", encoding="utf-8") as handle:
            handle.write(f"{spec.value}\n")
    return ProbeSummary(
        protocol=protocol,
        spec_hash=spec_hash,
        seed=spec.seed,
        value=spec.value,
        pid=os.getpid(),
        registry_active=get_active() is not None,
    )


@pytest.fixture
def probe_kind(install_kind):
    install_kind(
        SpecKind(
            name="probe",
            spec_type=ProbeSpec,
            summary_type=ProbeSummary,
            execute=_execute_probe,
            decode=ProbeSummary.from_json_dict,
            json_tag="probe",
            make_sink=SummarySink,
            sample_task=lambda: probes([0])[0],
        )
    )


@pytest.fixture(autouse=True)
def hang_watchdog():
    """No plugin provides a test timeout: dump stacks and exit if a test hangs."""
    faulthandler.dump_traceback_later(120, exit=True)
    yield
    faulthandler.cancel_dump_traceback_later()


def probes(values, **fields) -> list[SweepTask]:
    return [
        SweepTask(protocol="noop", spec=ProbeSpec(value=v, seed=v, **fields))
        for v in values
    ]


def child_pids() -> set[int]:
    return {child.pid for child in multiprocessing.active_children()}


SCENARIOS = tasks_from_specs(
    "two-phase-commit", [ScenarioSpec(seed=s) for s in range(8)]
)

class TestWarmPool:
    """The pool belongs to the engine: forked once, reused, always released."""

    @staticmethod
    def run_on_pool(engine, tasks, others) -> set[int]:
        """Run ``tasks``; return the pool (the engine's live worker pids).

        The pool is the same before and after the run, and the run's
        per-worker counters account every task to at most that many
        processes: only pool workers executed the batch.
        """
        before = child_pids() - others
        engine.metrics = MetricsRegistry()
        engine.run(tasks)
        pool = child_pids() - others
        assert not before or before == pool
        per_worker = [
            value
            for name, value in engine.metrics.snapshot()["counters"].items()
            if name.startswith("engine.worker.w") and name.endswith(".tasks")
        ]
        assert sum(per_worker) == len(tasks)
        assert 1 <= len(per_worker) <= len(pool)
        return pool

    def test_consecutive_runs_share_one_pool_until_close(self):
        others = child_pids()
        engine = SweepEngine(workers=2, chunk_size=1)
        pool = self.run_on_pool(engine, SCENARIOS, others)
        assert len(pool) == 2
        # Reused: nothing forked, nothing stopped.
        assert self.run_on_pool(engine, SCENARIOS, others) == pool
        engine.close()
        assert child_pids() == others
        third = self.run_on_pool(engine, SCENARIOS, others)
        assert len(third) == 2 and third.isdisjoint(pool)
        engine.close()

    def test_serial_and_single_task_batches_never_fork(self):
        others = child_pids()
        SweepEngine(workers=1).run(SCENARIOS)
        parallel = SweepEngine(workers=2)
        parallel.run(SCENARIOS[:1])
        assert child_pids() == others

    def test_serial_runs_load_no_process_pool_machinery(self):
        # ``multiprocessing`` and ``concurrent.futures`` load with the first
        # pool: a fresh interpreter that imports the engine and runs batches
        # that never fork imports neither package.
        script = (
            "import sys\n"
            "from repro.engine import SweepEngine\n"
            "from repro.protocols.runner import ScenarioSpec\n"
            "task = [('two-phase-commit', ScenarioSpec(n_sites=3))]\n"
            "SweepEngine(workers=1).run(task)\n"
            "SweepEngine(workers=2, mp_context='spawn').run(task)\n"
            "print(sorted(name for name in sys.modules\n"
            "             if name.partition('.')[0] in ('multiprocessing', 'concurrent')))\n"
        )
        src = pathlib.Path(__file__).resolve().parents[2] / "src"
        loaded = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            check=True,
        ).stdout
        assert loaded.strip() == "[]"

    def test_close_and_context_manager_stop_the_workers(self):
        with SweepEngine(workers=2) as engine:
            engine.run(SCENARIOS)
            assert multiprocessing.active_children()
        assert multiprocessing.active_children() == []
        engine.close()  # idempotent

    def test_garbage_collection_stops_the_workers(self):
        engine = SweepEngine(workers=2)
        engine.run(SCENARIOS)
        assert multiprocessing.active_children()
        del engine
        gc.collect()
        assert multiprocessing.active_children() == []

    def test_abandoned_stream_runs_no_stale_chunk(self, probe_kind, tmp_path):
        log = tmp_path / "executed.log"
        with SweepEngine(workers=2, chunk_size=1) as engine:
            for summary in engine.stream(
                probes(range(100, 140), log=str(log), sleep=0.01)
            ):
                assert summary.value == 100
                break
            # In-flight chunks finished, queued ones were cancelled -- and
            # whatever ran, ran before the abandoned generator was closed.
            abandoned = log.read_text().split()
            assert len(abandoned) < 40
            result = engine.run(probes(range(12), log=str(log)))
            assert [s.value for s in result] == list(range(12))
            assert result.executed == 12
            after = log.read_text().split()[len(abandoned):]
            assert sorted(map(int, after)) == list(range(12))

    def test_stream_consumed_to_its_last_summary_keeps_the_pool(self, probe_kind):
        with SweepEngine(workers=2, chunk_size=1) as engine:
            # zip() stops on the short side: the generator is never exhausted,
            # but no chunk is outstanding, so the pool is still trusted.
            first = [s.pid for s, _ in zip(engine.stream(probes(range(6))), range(6))]
            pool = child_pids()
            assert set(first) <= pool
            assert {s.pid for s in engine.run(probes(range(6, 12)))} <= pool

    def test_worker_crash_is_a_typed_error_and_the_engine_recovers(
        self, probe_kind
    ):
        class ClosingSink(SummarySink):
            delivered, closed = 0, False

            def accept(self, index, summary):
                self.delivered += 1

            def close(self):
                self.closed = True

        tasks = probes(range(5)) + probes([5], exit_code=3) + probes(range(6, 10))
        sink = ClosingSink()
        engine = SweepEngine(workers=2, chunk_size=1)
        with pytest.raises(WorkerCrashedError) as info:
            engine.run_streaming(tasks, sinks=sink)
        error = info.value
        assert sink.closed
        assert error.first_undelivered == sink.delivered <= 5
        assert error.undelivered == len(tasks) - sink.delivered
        assert f"{error.undelivered} task(s) undelivered" in str(error)
        assert f"task index {error.first_undelivered}" in str(error)
        assert multiprocessing.active_children() == []  # broken pool discarded
        healthy = engine.run(probes(range(6)))
        assert [s.value for s in healthy] == list(range(6))
        engine.close()

    def test_workers_never_record_into_an_inherited_registry(self, probe_kind):
        outer = MetricsRegistry()
        with activate(outer), SweepEngine(workers=2, chunk_size=1) as engine:
            serial = SweepEngine(workers=1).run(probes(range(2)))
            assert all(s.registry_active for s in serial)  # the probe can tell
            pooled = engine.run(probes(range(8)))
        assert os.getpid() not in {s.pid for s in pooled}
        assert not any(s.registry_active for s in pooled)


class TestBoundedWindow:
    """A parallel stream keeps at most the window of chunks outstanding."""

    WINDOW = WINDOW_PER_WORKER * 2

    def test_one_delivery_at_a_time_never_exceeds_the_window(
        self, probe_kind, monkeypatch
    ):
        with SweepEngine(workers=2, chunk_size=1) as engine:
            pool = engine._warm_pool()
            submit = pool.submit
            submits = []

            def counting_submit(*args, **kwargs):
                submits.append(1)
                return submit(*args, **kwargs)

            monkeypatch.setattr(pool, "submit", counting_submit)
            ahead = []
            for index, summary in enumerate(
                engine.stream(probes(range(40), sleep=0.002))
            ):
                assert summary.value == index
                # Chunks 0 .. index - 1 are delivered: what else was
                # submitted is the window, at most.
                ahead.append(len(submits) - index)
            assert len(submits) == 40
            assert max(ahead) == self.WINDOW

    def test_an_abandoned_cached_run_keeps_every_chunk_that_arrived(
        self, probe_kind, tmp_path
    ):
        # The first task is slow, so the rest of the window arrives (and is
        # buffered) before the first delivery; the consumer then walks away.
        tasks = probes([0], sleep=1.0) + probes(range(1, 40))
        cache = ResultCache(tmp_path / "cache")
        stats = StreamStats()
        with SweepEngine(workers=2, chunk_size=1, cache=cache) as engine:
            for summary in engine.stream(tasks, stats=stats):
                assert summary.value == 0
                break
        # Every chunk folded before the first delivery is in the buffer at
        # that moment, and in the cache: nothing waits for its delivery.
        assert 2 <= stats.max_buffered <= self.WINDOW
        assert len(cache) == stats.max_buffered
        for task in tasks[: stats.max_buffered]:
            assert cache.get(task.spec_hash, task.spec.seed).value == task.spec.value
