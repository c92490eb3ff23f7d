"""Each record is encoded once, where it is made, and never again.

A summary's canonical JSON bytes travel with it from the place that holds
them -- a cache entry, a worker frame, or the bytes just stored in the
cache -- into the JSONL spill, the sealed log segments and the merged
spill.  These tests make every summary encoder raise on the paths that
must not encode, and check that the bytes written are still those of a
cold single-machine run.
"""

import os

import pytest

from repro.core.reachability import FAILURE_FREE, SINGLE_CRASH
from repro.engine import (
    JsonlSink,
    ResultCache,
    ScenarioGrid,
    SweepEngine,
    SweepTask,
    merge_result_log,
    run_shard_log,
)
from repro.engine.registry import kind_for_spec
from repro.modelcheck.spec import ModelCheckSpec
from repro.txn import ThroughputSpec

N_SHARDS = 3

PROTOCOLS = ("two-phase-commit", "terminating-three-phase-commit")


def _scenario_tasks():
    return [
        task
        for protocol in PROTOCOLS
        for task in ScenarioGrid.from_partition_sweep(
            protocol, 3, times=[0.5, 1.5, 2.5]
        ).tasks()
    ]


def _throughput_tasks():
    return [
        SweepTask(protocol=protocol, spec=ThroughputSpec(n_transactions=8, seed=seed))
        for protocol in PROTOCOLS
        for seed in (0, 1, 2)
    ]


def _modelcheck_tasks():
    return [
        SweepTask(protocol=protocol, spec=ModelCheckSpec(fault=fault))
        for protocol in ("two-phase-commit", "three-phase-commit")
        for fault in (FAILURE_FREE, SINGLE_CRASH)
    ]


TASKS = {
    "scenario": _scenario_tasks,
    "throughput": _throughput_tasks,
    "modelcheck": _modelcheck_tasks,
}


def _cold_spill(tasks, path, *, measures=()):
    SweepEngine(workers=1).run_streaming(tasks, sinks=JsonlSink(path), measures=measures)
    return path.read_bytes()


def _forbid_encoding(monkeypatch, summary_type, *, only_pid=None):
    """Make ``summary_type``'s encoders raise (in process ``only_pid`` if
    given; a forked worker keeps encoding); return the parent's call log."""
    calls = []

    def guard(name):
        original = getattr(summary_type, name)

        def forbidden(self, *args, **kwargs):
            if only_pid is not None and os.getpid() != only_pid:
                return original(self, *args, **kwargs)
            calls.append(name)
            raise AssertionError(f"{summary_type.__name__}.{name} called")

        monkeypatch.setattr(summary_type, name, forbidden)

    guard("to_json_bytes")
    guard("to_json_dict")
    return calls


@pytest.mark.parametrize("kind_name", sorted(TASKS))
def test_warm_shards_and_merge_encode_nothing(kind_name, monkeypatch, tmp_path):
    tasks = TASKS[kind_name]()
    cold = _cold_spill(tasks, tmp_path / "cold.jsonl")
    cache = ResultCache(tmp_path / "cache")
    SweepEngine(workers=1, cache=cache).run(tasks)

    summary_type = kind_for_spec(tasks[0].spec).summary_type
    calls = _forbid_encoding(monkeypatch, summary_type)
    log = tmp_path / "log"
    for shard in range(N_SHARDS):
        result = run_shard_log(
            tasks, shard, N_SHARDS, log,
            engine=SweepEngine(workers=1, cache=cache), segment_records=2,
        )
        assert result.stats.executed == 0
    merged = tmp_path / "merged.jsonl"
    merge_result_log(log, jsonl=merged, batch_records=3)
    assert calls == []
    assert merged.read_bytes() == cold


def test_parallel_jsonl_sweep_encodes_nothing_in_the_parent(monkeypatch, tmp_path):
    tasks = _scenario_tasks()
    cold = _cold_spill(tasks, tmp_path / "cold.jsonl")
    calls = _forbid_encoding(
        monkeypatch, kind_for_spec(tasks[0].spec).summary_type, only_pid=os.getpid()
    )
    spill = tmp_path / "parallel.jsonl"
    with SweepEngine(workers=2, chunk_size=2) as engine:
        stats = engine.run_streaming(tasks, sinks=JsonlSink(spill))
    assert stats.executed == len(tasks) and stats.chunk_count > 1
    assert calls == []
    assert spill.read_bytes() == cold


@pytest.mark.parametrize("workers", [1, 2])
def test_partial_cache_hits_spill_the_merged_summary(workers, tmp_path):
    # The cache holds "timeouts" only; the sweep asks for "probe_window"
    # too.  The re-run's own bytes lack "timeouts", so carrying them would
    # spill a different line than a cold run of both measures.
    tasks = _scenario_tasks()
    both = ("timeouts", "probe_window")
    cold = _cold_spill(tasks, tmp_path / "cold.jsonl", measures=both)
    cache = ResultCache(tmp_path / "cache")
    SweepEngine(workers=1, cache=cache).run(tasks, measures=("timeouts",))

    spill = tmp_path / "partial.jsonl"
    with SweepEngine(workers=workers, cache=cache, chunk_size=2) as engine:
        stats = engine.run_streaming(
            tasks, sinks=JsonlSink(spill), measures=("probe_window",)
        )
    assert (stats.executed, stats.cache_hits) == (len(tasks), 0)
    assert spill.read_bytes() == cold

    # The merged summaries went to the cache as well: a warm re-sweep for
    # both measures is all hits and spills the same bytes.
    warm = tmp_path / "warm.jsonl"
    stats = SweepEngine(workers=1, cache=cache).run_streaming(
        tasks, sinks=JsonlSink(warm), measures=both
    )
    assert stats.cache_hits == len(tasks)
    assert warm.read_bytes() == cold
