"""Unit tests for the sweep-engine building blocks (grid, hashing, cache)
and for the engine-owned worker pool's lifecycle."""

import faulthandler
import gc
import importlib
import math
import multiprocessing
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

import pytest
from test_registry import ToySpec, toy_kind  # noqa: F401 - toy_kind is a fixture

from repro.core.canonical import canonical_json_bytes
from repro.engine import (
    MEASURES,
    ResultCache,
    RunSummary,
    ScenarioGrid,
    SpecKind,
    SummarySink,
    SweepEngine,
    SweepTask,
    WorkerCrashedError,
    register_measure,
    register_spec_kind,
    spec_hash,
    tasks_from_specs,
    unregister_spec_kind,
)
from repro.obs.metrics import MetricsRegistry, activate, get_active
from repro.obs.spans import SpanRecorder
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

    def test_iter_summaries_streams_indexed_results(self):
        tasks = tasks_from_specs(
            "two-phase-commit", [ScenarioSpec(seed=s) for s in range(4)]
        )
        seen = dict(SweepEngine(workers=1).iter_summaries(tasks))
        assert sorted(seen) == [0, 1, 2, 3]
        assert all(s.all_committed for s in seen.values())

    def test_result_stats_and_throughput(self):
        result = SweepEngine(workers=1).run(
            tasks_from_specs("two-phase-commit", [ScenarioSpec(seed=s) for s in range(3)])
        )
        assert (result.total, result.executed, result.cache_hits) == (3, 3, 0)
        assert result.throughput > 0
        assert len(result) == 3
        assert result[0].protocol == "two-phase-commit"


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
def probe_kind():
    register_spec_kind(
        SpecKind(
            name="probe",
            spec_type=ProbeSpec,
            summary_type=ProbeSummary,
            execute=_execute_probe,
            decode=ProbeSummary.from_json_dict,
            json_tag="probe",
        )
    )
    try:
        yield
    finally:
        unregister_spec_kind("probe")


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

# A module that registers a spec kind (codec and all) when it is imported --
# the only kind of late registration a spawned worker can ever see.
LATE_KIND_MODULE = '''
from dataclasses import dataclass, field

from repro.core.canonical import canonical_json_bytes
from repro.engine.registry import SpecKind, register_spec_kind


@dataclass(frozen=True)
class LateSpec:
    value: int = 1
    seed: int = 0


@dataclass
class LateSummary:
    protocol: str
    spec_hash: str
    seed: int
    doubled: int
    metrics: dict = field(default_factory=dict)

    def to_json_dict(self):
        return {"kind": "late", **self.__dict__}

    @classmethod
    def from_json_dict(cls, payload):
        return cls(**{k: v for k, v in payload.items() if k != "kind"})

    def to_json_bytes(self):
        return canonical_json_bytes(self.to_json_dict())


def _execute(protocol, spec, *, spec_hash, measures=()):
    return LateSummary(protocol, spec_hash, spec.seed, spec.value * 2)


register_spec_kind(
    SpecKind(
        name="late",
        spec_type=LateSpec,
        summary_type=LateSummary,
        execute=_execute,
        decode=LateSummary.from_json_dict,
        json_tag="late",
    )
)
'''


class TestWarmPool:
    """The pool belongs to the engine: forked once, reused, always released."""

    @staticmethod
    def run_pids(engine, tasks) -> set[int]:
        """Pids of the workers that executed ``tasks`` (from the chunk meta)."""
        before = len(engine.spans.spans())
        engine.run(tasks)
        return {
            span.attrs["pid"]
            for span in engine.spans.spans()[before:]
            if span.name == "worker-execute"
        }

    def test_consecutive_runs_share_one_pool_until_close(self):
        others = child_pids()
        engine = SweepEngine(
            workers=2, chunk_size=1, metrics=MetricsRegistry(), spans=SpanRecorder()
        )
        first = self.run_pids(engine, SCENARIOS)
        pool = child_pids() - others
        assert len(pool) == 2 and first <= pool
        assert self.run_pids(engine, SCENARIOS) <= pool
        assert child_pids() - others == pool  # nothing forked, nothing stopped
        engine.close()
        assert child_pids() == others
        third = self.run_pids(engine, SCENARIOS)
        assert third and third.isdisjoint(pool)
        engine.close()

    def test_serial_and_single_task_batches_never_fork(self):
        others = child_pids()
        SweepEngine(workers=1).run(SCENARIOS)
        parallel = SweepEngine(workers=2)
        parallel.run(SCENARIOS[:1])
        assert child_pids() == others

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

    def test_late_registrations_reach_forked_workers(self, request):
        late = "late-measure"
        with SweepEngine(workers=2, mp_context="fork") as engine:
            engine.run(SCENARIOS)  # the pool is forked before either exists
            request.getfixturevalue("toy_kind")
            toys = [
                SweepTask(protocol="noop", spec=ToySpec(value=v, seed=v))
                for v in range(1, 7)
            ]
            assert [s.product for s in engine.run(toys)] == [2, 4, 6, 8, 10, 12]
            register_measure(late)(lambda result: "seen")
            try:
                measured = engine.run(SCENARIOS, measures=(late,))
            finally:
                del MEASURES[late]
            assert [s.metrics[late] for s in measured] == ["seen"] * len(SCENARIOS)

    @pytest.mark.parametrize("context", ["fork", "spawn"])
    def test_kind_imported_after_the_first_run_is_executable(
        self, context, tmp_path, monkeypatch
    ):
        (tmp_path / "late_kind.py").write_text(LATE_KIND_MODULE)
        monkeypatch.syspath_prepend(str(tmp_path))
        with SweepEngine(workers=2, mp_context=context) as engine:
            engine.run(SCENARIOS)
            late_kind = importlib.import_module("late_kind")
            try:
                tasks = [
                    SweepTask(protocol="noop", spec=late_kind.LateSpec(value=v, seed=v))
                    for v in range(1, 5)
                ]
                assert [s.doubled for s in engine.run(tasks)] == [2, 4, 6, 8]
            finally:
                unregister_spec_kind("late")
                del sys.modules["late_kind"]

    def test_workers_never_record_into_an_inherited_registry(self, probe_kind):
        outer = MetricsRegistry()
        with activate(outer), SweepEngine(workers=2, chunk_size=1) as engine:
            serial = SweepEngine(workers=1).run(probes(range(2)))
            assert all(s.registry_active for s in serial)  # the probe can tell
            pooled = engine.run(probes(range(8)))
        assert os.getpid() not in {s.pid for s in pooled}
        assert not any(s.registry_active for s in pooled)
