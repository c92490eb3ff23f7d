"""Durable result log: sealed segments, shard resume, resumable merge.

The acceptance bar of the distributed runner: ``merge_result_log`` over
any complete log must reproduce -- byte for byte -- the JSONL spill and
sink aggregates of a single-machine streaming run of the whole task list,
for the sweep, throughput AND modelcheck kinds, at any worker count, with
warm or cold caches.  And of the crash-safe pipeline: an interrupted merge
resumed from its checkpoint must reproduce the same bytes at
every possible interruption point, with late or re-run shards folded
exactly once.  Segments must never exist half-written: any file matching
the segment name pattern is complete and verifiable.
"""

import json

import pytest

from repro.core.reachability import FAILURE_FREE, SINGLE_CRASH
from repro.engine import (
    InjectedMergeCrash,
    JsonlSink,
    MergeCursor,
    ResultLogError,
    ResultLogWriter,
    ScenarioGrid,
    SweepEngine,
    SweepTask,
    discover_segments,
    merge_result_log,
    read_segment,
    run_shard_log,
    shard_tasks,
    write_segment,
)
from repro.engine.resultlog import CHECKPOINT_NAME, SegmentHeader, segment_name
from repro.engine.sink import VerdictCounterSink
from repro.modelcheck.sink import ModelCheckSink
from repro.modelcheck.spec import ModelCheckSpec
from repro.protocols.runner import ScenarioSpec
from repro.sim.failures import (
    ByzantineSpec,
    CrashSchedule,
    FaultPlan,
    LinkFault,
    RetransmitPolicy,
)
from repro.txn import DeadlockPolicy, RetryPolicy, ThroughputSpec
from repro.txn.sink import ThroughputSink

N_SHARDS = 3


@pytest.fixture(scope="module")
def sweep_tasks():
    """2 protocols x 3 onsets x 3 simple splits = 18 scenario tasks."""
    tasks = []
    for protocol in ("two-phase-commit", "terminating-three-phase-commit"):
        grid = ScenarioGrid.from_partition_sweep(protocol, 3, times=[0.5, 1.5, 2.5])
        tasks.extend(grid.tasks())
    return tasks


@pytest.fixture(scope="module")
def tput_tasks():
    """2 protocols x (closed-loop + open-loop retry/Poisson/crash) x 2 seeds."""
    tasks = []
    for protocol in ("two-phase-commit", "terminating-three-phase-commit"):
        for seed in (0, 1):
            tasks.append(
                SweepTask(
                    protocol=protocol,
                    spec=ThroughputSpec(n_transactions=10, tx_rate=1.0, seed=seed),
                )
            )
            tasks.append(
                SweepTask(
                    protocol=protocol,
                    spec=ThroughputSpec(
                        n_transactions=10,
                        tx_rate=2.0,
                        arrival="poisson",
                        hotspot=1.0,
                        n_keys=3,
                        op_delay=0.2,
                        seed=seed,
                        crashes=CrashSchedule.single(2, 4.0, recover_at=8.0),
                        deadlock=DeadlockPolicy(wait_timeout=3.0),
                        retry=RetryPolicy(max_attempts=2, backoff=0.5),
                    ),
                )
            )
    return tasks


@pytest.fixture(scope="module")
def fault_tasks():
    """Mixed-kind grid under fault plans: lossy scenarios with and without
    the retransmission layer, a Byzantine master, and a lossy-retransmit
    throughput workload over the network lock transport."""
    lossy = FaultPlan(links=(LinkFault(loss=0.3),), seed=11)
    lossy_rtx = FaultPlan(
        links=(LinkFault(loss=0.3),), retransmit=RetransmitPolicy(), seed=11
    )
    byzantine = FaultPlan(byzantine=(ByzantineSpec(site=1),), seed=13)
    tasks = [
        SweepTask(
            protocol=protocol,
            spec=ScenarioSpec(n_sites=3, seed=seed, faults=plan),
        )
        for protocol in ("two-phase-commit", "terminating-three-phase-commit")
        for plan in (lossy, lossy_rtx, byzantine)
        for seed in (0, 1)
    ]
    for seed in (0, 1):
        tasks.append(
            SweepTask(
                protocol="two-phase-commit",
                spec=ThroughputSpec(
                    n_transactions=8,
                    tx_rate=2.0,
                    seed=seed,
                    faults=lossy_rtx,
                    retry=RetryPolicy(max_attempts=2, backoff=0.5),
                ),
            )
        )
    return tasks


@pytest.fixture(scope="module")
def mc_tasks():
    """2 protocols x 2 exhaustive envelopes of bounded model checking."""
    return [
        SweepTask(protocol=protocol, spec=ModelCheckSpec(fault=fault))
        for protocol in ("two-phase-commit", "three-phase-commit")
        for fault in (FAILURE_FREE, SINGLE_CRASH)
    ]


def _single_machine(tasks, path, sinks=()):
    SweepEngine(workers=1).run_streaming(tasks, sinks=[*sinks, JsonlSink(path)])
    return path


def _log_all(
    tasks, log_dir, *, n_shards=N_SHARDS, segment_records=4, workers=1, cache=None
):
    for index in range(n_shards):
        run_shard_log(
            tasks,
            index,
            n_shards,
            log_dir,
            # chunk_size=1 so a multi-worker shard really interleaves workers.
            engine=SweepEngine(workers=workers, cache=cache, chunk_size=1),
            segment_records=segment_records,
        )
    return log_dir


def _fake_segment(path, *, indices, total=100, shard=0, seg=0, hashes=None):
    """Seal a synthetic segment of scenario-shaped payload stubs."""
    header = SegmentHeader(
        shard_index=shard, shard_count=1, total_tasks=total, segment_index=seg
    )
    records = [
        (index, {"spec_hash": (hashes or {}).get(index, f"h{index}")})
        for index in indices
    ]
    write_segment(path, header, records)
    return path


class TestSegmentFormat:
    def test_roundtrip_seals_and_reads(self, tmp_path):
        path = _fake_segment(tmp_path / segment_name(0, 0), indices=[3, 1, 7])
        header, footer, records = read_segment(path)
        assert header.shard_index == 0
        assert footer.records == 3
        assert [index for index, _ in records] == [3, 1, 7]
        # Sealing is atomic: no temp debris survives a completed write.
        assert list(tmp_path.iterdir()) == [path]

    def test_unsealed_segment_is_rejected(self, tmp_path):
        path = _fake_segment(tmp_path / segment_name(0, 0), indices=[0, 1])
        lines = path.read_bytes().splitlines(keepends=True)
        cut = tmp_path / segment_name(0, 1)
        cut.write_bytes(b"".join(lines[:-1]))  # drop the footer
        with pytest.raises(ResultLogError, match="unsealed"):
            read_segment(cut)

    def test_missing_record_is_a_count_mismatch(self, tmp_path):
        path = _fake_segment(tmp_path / segment_name(0, 0), indices=[0, 1, 2])
        lines = path.read_bytes().splitlines(keepends=True)
        cut = tmp_path / segment_name(0, 1)
        cut.write_bytes(b"".join(lines[:2] + lines[-1:]))  # drop 2 records
        with pytest.raises(ResultLogError, match="promises 3"):
            read_segment(cut)

    def test_corrupted_record_is_a_hash_mismatch(self, tmp_path):
        path = _fake_segment(tmp_path / segment_name(0, 0), indices=[0, 1])
        data = path.read_bytes().replace(b'"h0"', b'"hX"')
        bad = tmp_path / segment_name(0, 1)
        bad.write_bytes(data)
        with pytest.raises(ResultLogError, match="content hash mismatch"):
            read_segment(bad)

    def test_duplicate_index_within_a_segment_is_rejected(self, tmp_path):
        path = _fake_segment(tmp_path / segment_name(0, 0), indices=[5, 5])
        with pytest.raises(ResultLogError, match="index 5 appears twice"):
            read_segment(path)

    def test_out_of_range_index_is_rejected(self, tmp_path):
        path = _fake_segment(tmp_path / segment_name(0, 0), indices=[100])
        with pytest.raises(ResultLogError, match="outside"):
            read_segment(path)

    def test_future_format_version_is_rejected(self, tmp_path):
        path = _fake_segment(tmp_path / segment_name(0, 0), indices=[0])
        data = path.read_bytes().replace(b'"format":1', b'"format":99')
        path.write_bytes(data)
        with pytest.raises(ResultLogError, match="format 99"):
            read_segment(path)

    @pytest.mark.parametrize(
        "number, line, match",
        [
            # Valid JSON that is not an object, at every line role.
            (1, b"[1]", r":1: expected a JSON object, got list"),
            (2, b"3", r":2: expected a JSON object, got int"),
            (4, b'"footer"', r":4: expected a JSON object, got str"),
            (2, b"{not json", r":2: not JSON"),
            (1, b'{"kind":"segment-header","format":1}', r"shard_index=None"),
            (1, b'{"index":0,"summary":{}}', r"expected a 'segment-header'"),
            (2, b'{"index":"0","summary":{}}', r":2: task index '0' is not an integer"),
            (2, b'{"index":0,"summary":[1]}', r":2: summary of task index 0 is not"),
        ],
    )
    def test_malformed_line_is_a_typed_error_naming_it(
        self, number, line, match, tmp_path
    ):
        path = _fake_segment(tmp_path / segment_name(0, 0), indices=[0, 1])
        lines = path.read_bytes().splitlines()  # header, 2 records, footer
        lines[number - 1] = line
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(ResultLogError, match=match):
            read_segment(path)

    def test_discovery_ignores_non_segment_files(self, tmp_path):
        path = _fake_segment(tmp_path / segment_name(2, 0), indices=[0])
        (tmp_path / f".{segment_name(2, 1)}.tmp-123").write_bytes(b"garbage")
        (tmp_path / CHECKPOINT_NAME).write_text("{}")
        (tmp_path / "merged.jsonl").write_text("")
        assert discover_segments(tmp_path) == {2: [(0, path)]}

    def test_segment_numbering_gap_is_rejected(self, tmp_path):
        _fake_segment(tmp_path / segment_name(0, 0), indices=[0])
        _fake_segment(tmp_path / segment_name(0, 2), indices=[1], seg=2)
        with pytest.raises(ResultLogError, match="gap"):
            discover_segments(tmp_path)


class TestShardResume:
    def test_rerun_executes_nothing_and_appends_nothing(self, sweep_tasks, tmp_path):
        log = _log_all(sweep_tasks, tmp_path / "log")
        result = run_shard_log(
            sweep_tasks, 0, N_SHARDS, log, engine=SweepEngine(workers=1)
        )
        assert result.appended == 0
        assert result.segments_sealed == 0
        assert result.skipped == result.shard_tasks
        assert result.stats.total == 0  # nothing re-executed

    def test_crash_artifact_state_resumes_from_last_sealed_segment(
        self, sweep_tasks, tmp_path
    ):
        # A killed shard leaves a prefix of sealed segments plus ignorable
        # temp debris -- exactly what deleting the last sealed segment and
        # dropping a stray .tmp file reproduces.
        log = tmp_path / "log"
        run_shard_log(
            sweep_tasks, 0, N_SHARDS, log,
            engine=SweepEngine(workers=1), segment_records=2,
        )
        segments = discover_segments(log)[0]
        assert len(segments) >= 2
        last_index, last_path = segments[-1]
        _, _, lost = read_segment(last_path)
        last_path.unlink()
        (log / f".{segment_name(0, last_index)}.tmp-999").write_bytes(b"part")
        resumed = run_shard_log(
            sweep_tasks, 0, N_SHARDS, log,
            engine=SweepEngine(workers=1), segment_records=2,
        )
        assert resumed.appended == len(lost)
        assert resumed.skipped == resumed.shard_tasks - len(lost)
        # The healed log merges byte-identically to a single-machine run.
        for index in range(1, N_SHARDS):
            run_shard_log(
                sweep_tasks, index, N_SHARDS, log, engine=SweepEngine(workers=1)
            )
        single = _single_machine(sweep_tasks, tmp_path / "single.jsonl")
        merge_result_log(log, jsonl=tmp_path / "merged.jsonl")
        assert (tmp_path / "merged.jsonl").read_bytes() == single.read_bytes()

    def test_log_for_a_different_grid_is_rejected(self, sweep_tasks, tmp_path):
        log = _log_all(sweep_tasks, tmp_path / "log")
        with pytest.raises(ResultLogError, match="different grid"):
            run_shard_log(
                sweep_tasks[:5], 0, N_SHARDS, log, engine=SweepEngine(workers=1)
            )

    def test_empty_shard_seals_a_marker_segment(self, tput_tasks, tmp_path):
        # 4 tasks over 16 shards: some shard is necessarily empty, and the
        # merge must still see it as present.
        counts = {
            index: len(shard_tasks(tput_tasks, index, 16)) for index in range(16)
        }
        empty = next(index for index, count in counts.items() if count == 0)
        log = tmp_path / "log"
        result = run_shard_log(
            tput_tasks, empty, 16, log, engine=SweepEngine(workers=1)
        )
        assert result.segments_sealed == 1
        header, footer, records = read_segment(log / segment_name(empty, 0))
        assert footer.records == 0
        assert records == []

    def test_writer_rejects_nonpositive_segment_records(self, tmp_path):
        with pytest.raises(ValueError, match="segment_records"):
            ResultLogWriter(
                tmp_path, shard_index=0, shard_count=1, total_tasks=0,
                global_indices=[], segment_records=0,
            )


class TestLogMergeByteIdentity:
    """Uninterrupted log merges equal single-machine runs, per kind."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sweep_kind(self, workers, sweep_tasks, tmp_path):
        # The single-machine reference is always serial: sharded workers
        # must not change a byte.
        counter = VerdictCounterSink()
        single = _single_machine(sweep_tasks, tmp_path / "single.jsonl", [counter])
        log = _log_all(sweep_tasks, tmp_path / "log", workers=workers)
        result = merge_result_log(log, jsonl=tmp_path / "merged.jsonl")
        assert (tmp_path / "merged.jsonl").read_bytes() == single.read_bytes()
        assert result.kind_sinks["scenario"].rows() == counter.rows()
        assert result.deduped == 0

    def test_throughput_kind(self, tput_tasks, tmp_path):
        sink = ThroughputSink()
        single = _single_machine(tput_tasks, tmp_path / "single.jsonl", [sink])
        log = _log_all(tput_tasks, tmp_path / "log", segment_records=2)
        result = merge_result_log(log, jsonl=tmp_path / "merged.jsonl")
        assert (tmp_path / "merged.jsonl").read_bytes() == single.read_bytes()
        assert result.kind_sinks["throughput"].rows() == sink.rows()

    def test_modelcheck_kind(self, mc_tasks, tmp_path):
        sink = ModelCheckSink()
        single = _single_machine(mc_tasks, tmp_path / "single.jsonl", [sink])
        log = _log_all(mc_tasks, tmp_path / "log", segment_records=2)
        result = merge_result_log(log, jsonl=tmp_path / "merged.jsonl")
        assert (tmp_path / "merged.jsonl").read_bytes() == single.read_bytes()
        assert result.kind_sinks["modelcheck"].rows() == sink.rows()

    def test_mixed_kind_log(self, sweep_tasks, tput_tasks, mc_tasks, tmp_path):
        tasks = [*sweep_tasks, *tput_tasks, *mc_tasks]
        single = _single_machine(tasks, tmp_path / "single.jsonl")
        log = _log_all(tasks, tmp_path / "log")
        result = merge_result_log(log, jsonl=tmp_path / "merged.jsonl")
        assert (tmp_path / "merged.jsonl").read_bytes() == single.read_bytes()
        assert set(result.kind_sinks) == {"scenario", "throughput", "modelcheck"}

    def test_fault_plan_grid(self, fault_tasks, tmp_path):
        # Fault realizations come from the plan's seeded RNG, so sharding a
        # lossy/Byzantine grid must stay byte-identical to one machine --
        # and the mixed scenario+throughput log must interleave stably.
        single = _single_machine(fault_tasks, tmp_path / "single.jsonl")
        log = _log_all(fault_tasks, tmp_path / "log", workers=2)
        result = merge_result_log(log, jsonl=tmp_path / "merged.jsonl")
        assert (tmp_path / "merged.jsonl").read_bytes() == single.read_bytes()
        assert set(result.kind_sinks) == {"scenario", "throughput"}

    def test_shards_share_the_result_cache_with_single_runs(
        self, sweep_tasks, tmp_path
    ):
        cache = tmp_path / "cache"
        _log_all(sweep_tasks, tmp_path / "log", cache=cache)
        warm = SweepEngine(workers=1, cache=cache).run_streaming(
            sweep_tasks, sinks=JsonlSink(tmp_path / "warm.jsonl")
        )
        assert warm.executed == 0
        assert warm.cache_hits == len(sweep_tasks)


class TestMergeCrashResume:
    """The acceptance criterion: kill mid-fold, resume, byte-identical."""

    @pytest.mark.parametrize("kind", ["sweep", "tput", "mc"])
    def test_killed_merge_resumes_byte_identical(self, kind, tmp_path, request):
        tasks = request.getfixturevalue(f"{kind}_tasks")
        single = _single_machine(tasks, tmp_path / "single.jsonl")
        log = _log_all(tasks, tmp_path / "log", segment_records=3)
        baseline = merge_result_log(
            log,
            jsonl=tmp_path / "base.jsonl",
            checkpoint=tmp_path / "base.ckpt",
        )
        merged = tmp_path / "merged.jsonl"
        crash_at = max(1, baseline.records // 2)
        with pytest.raises(InjectedMergeCrash):
            merge_result_log(
                log, jsonl=merged, batch_records=1, crash_after=crash_at
            )
        resumed = merge_result_log(log, jsonl=merged, batch_records=1, resume=True)
        assert merged.read_bytes() == single.read_bytes()
        assert resumed.replayed == crash_at
        for name, sink in resumed.kind_sinks.items():
            assert sink.rows() == baseline.kind_sinks[name].rows()

    def test_every_interruption_point_resumes_exactly_once(
        self, sweep_tasks, tmp_path
    ):
        # With batch_records=1, every record boundary is a commit point;
        # crashing after each possible count and resuming must always
        # converge to the identical spill with nothing double-folded.
        single = _single_machine(sweep_tasks, tmp_path / "single.jsonl")
        log = _log_all(sweep_tasks, tmp_path / "log")
        total = len(sweep_tasks)
        for crash_at in range(1, total + 1):
            merged = tmp_path / f"merged-{crash_at}.jsonl"
            checkpoint = tmp_path / f"ckpt-{crash_at}.json"
            with pytest.raises(InjectedMergeCrash):
                merge_result_log(
                    log, jsonl=merged, checkpoint=checkpoint,
                    batch_records=1, crash_after=crash_at,
                )
            result = merge_result_log(
                log, jsonl=merged, checkpoint=checkpoint,
                batch_records=1, resume=True,
            )
            assert result.records == total
            assert merged.read_bytes() == single.read_bytes(), crash_at

    def test_rerun_shard_records_fold_exactly_once(self, sweep_tasks, tmp_path):
        single = _single_machine(sweep_tasks, tmp_path / "single.jsonl")
        log = _log_all(sweep_tasks, tmp_path / "log")
        # A re-run shard seals its records again in fresh segments.
        segments = discover_segments(log)[1]
        duplicated = []
        for _, path in segments:
            _, _, records = read_segment(path)
            duplicated.extend(records)
        header, _, _ = read_segment(segments[0][1])
        next_seg = len(segments)
        write_segment(
            log / segment_name(1, next_seg),
            SegmentHeader(
                shard_index=1,
                shard_count=header.shard_count,
                total_tasks=header.total_tasks,
                segment_index=next_seg,
            ),
            duplicated,
        )
        result = merge_result_log(log, jsonl=tmp_path / "merged.jsonl")
        assert result.deduped == len(duplicated)
        assert result.records == len(sweep_tasks)
        assert (tmp_path / "merged.jsonl").read_bytes() == single.read_bytes()

    def test_conflicting_rerun_is_rejected_naming_the_index(
        self, sweep_tasks, tmp_path
    ):
        log = _log_all(sweep_tasks, tmp_path / "log")
        segments = discover_segments(log)[1]
        _, _, records = read_segment(segments[0][1])
        index, payload = records[0]
        clashing = dict(payload, spec_hash="0" * 64)
        header, _, _ = read_segment(segments[0][1])
        write_segment(
            log / segment_name(1, len(segments)),
            SegmentHeader(
                shard_index=1,
                shard_count=header.shard_count,
                total_tasks=header.total_tasks,
                segment_index=len(segments),
            ),
            [(index, clashing)],
        )
        with pytest.raises(ResultLogError, match=f"index {index} re-sealed"):
            merge_result_log(log)

    def test_late_shard_invalidates_the_checkpoint(self, sweep_tasks, tmp_path):
        # Crash a partial merge, then let the missing shard arrive: its
        # records sort into already-folded territory, so the committed
        # prefix no longer matches and the resume must refuse (restarting
        # without resume is what keeps the output byte-identical).
        log = tmp_path / "log"
        for index in (0, 2):
            run_shard_log(
                sweep_tasks, index, N_SHARDS, log, engine=SweepEngine(workers=1)
            )
        partial_count = len(shard_tasks(sweep_tasks, 0, N_SHARDS)) + len(
            shard_tasks(sweep_tasks, 2, N_SHARDS)
        )
        # The missing shard's earliest global index must land inside the
        # committed prefix, or the checkpoint would legitimately still
        # apply after the late arrival.
        assert min(
            g for g, _ in shard_tasks(sweep_tasks, 1, N_SHARDS)
        ) < partial_count
        with pytest.raises(InjectedMergeCrash):
            merge_result_log(
                log, jsonl=tmp_path / "m.jsonl",
                require_complete=False, batch_records=1,
                crash_after=partial_count,
            )
        run_shard_log(
            sweep_tasks, 1, N_SHARDS, log, engine=SweepEngine(workers=1)
        )
        with pytest.raises(ResultLogError, match="no longer matches"):
            merge_result_log(log, jsonl=tmp_path / "m.jsonl", resume=True)
        # A fresh merge (no resume) of the now-complete log is identical.
        single = _single_machine(sweep_tasks, tmp_path / "single.jsonl")
        merge_result_log(log, jsonl=tmp_path / "m.jsonl")
        assert (tmp_path / "m.jsonl").read_bytes() == single.read_bytes()

    def test_resume_with_missing_jsonl_is_rejected(self, sweep_tasks, tmp_path):
        log = _log_all(sweep_tasks, tmp_path / "log")
        merged = tmp_path / "merged.jsonl"
        with pytest.raises(InjectedMergeCrash):
            merge_result_log(log, jsonl=merged, batch_records=2, crash_after=4)
        merged.unlink()
        with pytest.raises(ResultLogError, match="missing"):
            merge_result_log(log, jsonl=merged, resume=True)

    def test_resume_without_the_jsonl_target_is_rejected(
        self, sweep_tasks, tmp_path
    ):
        # The interrupted merge committed JSONL bytes; resuming it with no
        # JSONL target must not fold on and commit a "complete" checkpoint
        # beside the partial spill.
        log = _log_all(sweep_tasks, tmp_path / "log")
        merged = tmp_path / "merged.jsonl"
        with pytest.raises(InjectedMergeCrash):
            merge_result_log(log, jsonl=merged, batch_records=2, crash_after=5)
        committed = (log / CHECKPOINT_NAME).read_bytes()
        with pytest.raises(ResultLogError, match="no --jsonl target"):
            merge_result_log(log, resume=True)
        assert (log / CHECKPOINT_NAME).read_bytes() == committed
        # The same resume with its target still completes byte-identically.
        single = _single_machine(sweep_tasks, tmp_path / "single.jsonl")
        merge_result_log(log, jsonl=merged, batch_records=2, resume=True)
        assert merged.read_bytes() == single.read_bytes()

    def test_resume_onto_a_new_jsonl_target_is_rejected(
        self, sweep_tasks, tmp_path
    ):
        # The mirror image: the interrupted merge had no JSONL target, so a
        # resume given one could only append the un-replayed suffix -- it
        # must refuse instead of truncating an existing file to a partial
        # spill.
        log = _log_all(sweep_tasks, tmp_path / "log")
        with pytest.raises(InjectedMergeCrash):
            merge_result_log(log, batch_records=2, crash_after=5)
        committed = (log / CHECKPOINT_NAME).read_bytes()
        target = tmp_path / "merged.jsonl"
        target.write_bytes(b"precious\n")
        with pytest.raises(ResultLogError, match=CHECKPOINT_NAME) as refused:
            merge_result_log(log, jsonl=target, resume=True)
        assert str(target) in str(refused.value)
        assert target.read_bytes() == b"precious\n"
        assert (log / CHECKPOINT_NAME).read_bytes() == committed
        # Resuming the way the merge was started still completes.
        assert merge_result_log(log, resume=True).records == len(sweep_tasks)

    def test_missing_shard_is_named(self, sweep_tasks, tmp_path):
        log = tmp_path / "log"
        for index in (0, 2):
            run_shard_log(
                sweep_tasks, index, N_SHARDS, log, engine=SweepEngine(workers=1)
            )
        with pytest.raises(ResultLogError, match=r"missing shard\(s\) 1"):
            merge_result_log(log)
        partial = merge_result_log(log, require_complete=False)
        assert 0 < partial.records < len(sweep_tasks)
        assert sorted(partial.shard_records) == [0, 2]

    def test_complete_shards_with_missing_tasks_are_rejected(self, tmp_path):
        # Every shard is present (an empty marker segment each) but the
        # records jointly cover none of the 4 task indices -- the shape of
        # shards re-run against a different grid of the same size.
        for shard in range(2):
            write_segment(
                tmp_path / segment_name(shard, 0),
                SegmentHeader(
                    shard_index=shard, shard_count=2, total_tasks=4,
                    segment_index=0,
                ),
                [],
            )
        with pytest.raises(
            ResultLogError, match=r"4 of 4 task\(s\) have no sealed record"
        ):
            merge_result_log(tmp_path)
        partial = merge_result_log(tmp_path, require_complete=False)
        assert partial.records == 0
        assert partial.shard_records == {0: 0, 1: 0}

    def test_segments_of_mismatched_grids_are_rejected(
        self, sweep_tasks, tput_tasks, tmp_path
    ):
        log = tmp_path / "log"
        run_shard_log(sweep_tasks, 0, N_SHARDS, log, engine=SweepEngine(workers=1))
        run_shard_log(tput_tasks, 1, N_SHARDS, log, engine=SweepEngine(workers=1))
        with pytest.raises(ResultLogError, match="total_tasks=.* disagrees"):
            merge_result_log(log, require_complete=False)

    def test_empty_log_directory_is_rejected(self, tmp_path):
        with pytest.raises(ResultLogError, match="no sealed segments"):
            merge_result_log(tmp_path)


class TestMergeCursor:
    def test_checkpoint_roundtrip(self, tmp_path):
        cursor = MergeCursor(
            shard_count=3, total_tasks=48, records_folded=10,
            jsonl_bytes=1234, fold_hash="ab" * 32,
            offsets={"0": {"0": 4, "1": 2}, "2": {"0": 4}},
        )
        cursor.save(tmp_path / "ckpt.json")
        loaded = MergeCursor.load(tmp_path / "ckpt.json")
        assert loaded == cursor

    def test_load_missing_returns_none(self, tmp_path):
        assert MergeCursor.load(tmp_path / "absent.json") is None

    @pytest.mark.parametrize(
        "text, match",
        [
            ("{not json", r"not JSON"),
            ("[1]", r"ckpt\.json: expected a JSON object, got list"),
            ("3", r"ckpt\.json: expected a JSON object, got int"),
            ({"offsets": [1]}, r"offsets=\[1\]"),
            ({"offsets": {"0": [1]}}, r"offsets=\{'0': \[1\]\}"),
        ],
    )
    def test_corrupt_checkpoint_is_rejected(self, text, match, tmp_path):
        if isinstance(text, dict):
            payload = MergeCursor(shard_count=1, total_tasks=1).to_json_dict()
            text = json.dumps({**payload, **text})
        (tmp_path / "ckpt.json").write_text(text)
        with pytest.raises(ResultLogError, match=match):
            MergeCursor.load(tmp_path / "ckpt.json")

    def test_foreign_grid_checkpoint_is_rejected(self, sweep_tasks, tmp_path):
        log = _log_all(sweep_tasks, tmp_path / "log")
        MergeCursor(shard_count=99, total_tasks=7).save(log / CHECKPOINT_NAME)
        with pytest.raises(ResultLogError, match="different grid"):
            merge_result_log(log, resume=True)

    def test_commits_happen_per_batch(self, sweep_tasks, tmp_path):
        log = _log_all(sweep_tasks, tmp_path / "log")
        merged = tmp_path / "merged.jsonl"
        with pytest.raises(InjectedMergeCrash):
            merge_result_log(log, jsonl=merged, batch_records=4, crash_after=10)
        cursor = MergeCursor.load(log / CHECKPOINT_NAME)
        # Two full batches committed before the crash at record 10; the
        # committed jsonl offset points at a record boundary.
        assert cursor.records_folded == 8
        assert sum(
            count for segs in cursor.offsets.values() for count in segs.values()
        ) == 8
        lines = merged.read_bytes()[: cursor.jsonl_bytes]
        assert lines.endswith(b"\n")
        assert lines.count(b"\n") == 8


class TestObsCounters:
    def test_log_and_merge_emit_resultlog_metrics(self, sweep_tasks, tmp_path):
        from repro.obs.metrics import MetricsRegistry, activate

        registry = MetricsRegistry()
        with activate(registry):
            _log_all(sweep_tasks, tmp_path / "log")
            _log_all(sweep_tasks, tmp_path / "log")  # re-run: all skips
            merge_result_log(tmp_path / "log", jsonl=tmp_path / "m.jsonl")
        snapshot = json.dumps(registry.snapshot())
        assert "resultlog.segments.sealed" in snapshot
        assert "resultlog.records.appended" in snapshot
        assert "resultlog.resume.skipped" in snapshot
        assert "resultlog.checkpoint.commits" in snapshot
        assert "resultlog.records.deduped" in snapshot
        # 18 tasks over 3 shards: skew is a shard's load over the even
        # share of 6; gauges snapshot their high watermark, so both read
        # the heaviest shard's.
        heaviest = max(
            len(shard_tasks(sweep_tasks, index, N_SHARDS)) for index in range(N_SHARDS)
        )
        gauges = registry.snapshot()["gauges"]
        assert gauges["shard.skew"] == pytest.approx(heaviest / 6)
        assert gauges["merge.skew"] == pytest.approx(heaviest / 6)
