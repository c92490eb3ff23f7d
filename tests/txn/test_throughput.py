"""Throughput scenarios end to end: engine integration, determinism, CLI.

The determinism class mirrors ``tests/engine/test_streaming.py``: the same
task list must produce byte-identical ``ThroughputSummary`` streams across
``workers=1`` and ``workers=4``, and warm caches must serve them without
executing a scenario.
"""

import pytest

from repro.cli import main
from repro.engine import JsonlSink, SweepEngine, SweepTask, read_jsonl
from repro.txn.sink import ThroughputSink
from repro.experiments.throughput import (
    BLOCKING_PROTOCOLS,
    NONBLOCKING_PROTOCOLS,
    run_retry_recovery_comparison,
    run_throughput_comparison,
    throughput_tasks,
)
from repro.sim.failures import CrashSchedule
from repro.sim.partition import PartitionSchedule
from repro.txn import (
    DeadlockPolicy,
    RetryPolicy,
    ThroughputSpec,
    ThroughputSummary,
    run_throughput_scenario,
)


@pytest.fixture(scope="module")
def tasks():
    """The determinism matrix: closed-loop partitioned workloads plus
    open-loop retry + Poisson + hot-spot + crash/recovery scenarios."""
    partition = PartitionSchedule.transient(10.0, 18.0, [1, 2], [3])
    closed = [
        SweepTask(
            protocol=protocol,
            spec=ThroughputSpec(
                n_transactions=30, tx_rate=1.0, seed=seed, partition=partition
            ),
        )
        for protocol in ("two-phase-commit", "terminating-three-phase-commit")
        for seed in (0, 1)
    ]
    open_loop = [
        SweepTask(
            protocol=protocol,
            spec=ThroughputSpec(
                n_transactions=30,
                tx_rate=2.0,
                arrival="poisson",
                hotspot=0.8,
                n_keys=4,
                op_delay=0.2,
                seed=seed,
                partition=partition,
                crashes=CrashSchedule.single(2, 14.0, recover_at=20.0),
                deadlock=DeadlockPolicy(detect_cycles=True, wait_timeout=4.0),
                retry=RetryPolicy(max_attempts=3, backoff=0.5),
            ),
        )
        for protocol in ("two-phase-commit", "terminating-three-phase-commit")
        for seed in (0, 1)
    ]
    return closed + open_loop


class TestRunner:
    def test_failure_free_run_commits_everything(self):
        result = run_throughput_scenario(
            "terminating-three-phase-commit",
            ThroughputSpec(n_transactions=20, tx_rate=0.5, seed=0),
        )
        summary = result.summary
        assert summary.offered == 20
        assert summary.committed == 20
        assert summary.committed_first_try == 20
        assert summary.committed_after_retry == summary.retries == 0
        assert summary.blocked == summary.stalled == summary.violated == 0
        assert summary.goodput > 0

    @pytest.mark.parametrize(
        "spec, cause, peak_waiting",
        [
            # Partition write-offs are not conflated with deadlock / timeout
            # victims: the cause split partitions the abort counter.
            (
                ThroughputSpec(
                    n_transactions=20,
                    tx_rate=2.0,
                    partition=PartitionSchedule.transient(5.0, 13.0, [1, 2], [3]),
                ),
                "aborted_partition",
                1,
            ),
            # 512 transactions offered at 4/T over 16 keys, far beyond
            # capacity: deep lock queues and sustained multiplexing.
            (
                ThroughputSpec(
                    n_transactions=512,
                    tx_rate=4.0,
                    n_keys=16,
                    operations_per_site=2,
                    op_delay=0.1,
                    deadlock=DeadlockPolicy(detect_cycles=True),
                    seed=7,
                ),
                "aborted_deadlock",
                10,
            ),
        ],
        ids=["partitioned-20", "contended-512"],
    )
    def test_abort_counter_splits_exactly_by_cause(self, spec, cause, peak_waiting):
        summary = run_throughput_scenario("terminating-three-phase-commit", spec).summary
        # Every transaction is accounted for exactly once.
        assert summary.offered == spec.n_transactions
        assert summary.offered == (
            summary.committed + summary.aborted + summary.blocked
            + summary.stalled + summary.violated
        )
        assert summary.committed > 0
        assert summary.aborted > 0
        assert summary.aborted == (
            summary.aborted_deadlock + summary.aborted_timeout
            + summary.aborted_crash + summary.aborted_partition
        )
        assert getattr(summary, cause) == summary.aborted
        # The scheduler genuinely overlaps commit-protocol instances.
        assert summary.peak_in_flight >= 2
        assert summary.peak_waiting >= peak_waiting

    def test_crash_writeoffs_count_as_crash_cause(self):
        summary = run_throughput_scenario(
            "terminating-three-phase-commit",
            ThroughputSpec(
                n_transactions=10, tx_rate=1.0,
                crashes=CrashSchedule.single(2, 3.0),
            ),
        ).summary
        assert summary.crashes == 1
        assert summary.aborted_crash > 0

    def test_crash_only_run_attributes_no_partition_aborts(self):
        # Commit-phase aborts forced by a crashed participant must land in
        # aborted_crash, not masquerade as partition write-offs.
        summary = run_throughput_scenario(
            "terminating-three-phase-commit",
            ThroughputSpec(
                n_transactions=12, tx_rate=4.0, seed=0,
                crashes=CrashSchedule.single(2, 2.0, recover_at=8.0),
            ),
        ).summary
        assert summary.aborted > 0
        assert summary.aborted_crash == summary.aborted
        assert summary.aborted_partition == 0

    def test_summary_json_round_trips(self):
        summary = run_throughput_scenario(
            "two-phase-commit", ThroughputSpec(n_transactions=10), spec_hash="abc"
        ).summary
        clone = ThroughputSummary.from_json_bytes(summary.to_json_bytes())
        assert clone == summary

    def test_overrides_apply_like_run_scenario(self):
        result = run_throughput_scenario(
            "two-phase-commit", ThroughputSpec(n_transactions=5), n_transactions=3
        )
        assert result.summary.offered == 3


class TestDeterminismAcrossWorkers:
    def test_jsonl_spill_is_byte_identical_across_worker_counts(self, tasks, tmp_path):
        spills = {}
        for workers in (1, 4):
            path = tmp_path / f"w{workers}.jsonl"
            SweepEngine(workers=workers, chunk_size=1).run_streaming(
                tasks, sinks=JsonlSink(path)
            )
            spills[workers] = path.read_bytes()
        assert spills[1] == spills[4]
        assert spills[1].count(b"\n") == len(tasks)

    def test_throughput_aggregates_are_identical(self, tasks):
        aggregates = {}
        for workers in (1, 4):
            sink = ThroughputSink()
            SweepEngine(workers=workers, chunk_size=1).run_streaming(tasks, sinks=sink)
            aggregates[workers] = sink.totals
        assert aggregates[1] == aggregates[4]

    def test_warm_cache_serves_summaries_byte_identically(self, tasks, tmp_path):
        engine = SweepEngine(workers=1, cache=tmp_path / "cache")
        cold_spill = JsonlSink(tmp_path / "cold.jsonl")
        cold = engine.run_streaming(tasks, sinks=cold_spill)
        warm_spill = JsonlSink(tmp_path / "warm.jsonl")
        warm = engine.run_streaming(tasks, sinks=warm_spill)
        assert (cold.executed, cold.cache_hits) == (len(tasks), 0)
        assert (warm.executed, warm.cache_hits) == (0, len(tasks))
        assert (tmp_path / "cold.jsonl").read_bytes() == (
            tmp_path / "warm.jsonl"
        ).read_bytes()

    def test_read_jsonl_yields_throughput_records(self, tasks, tmp_path):
        path = tmp_path / "spill.jsonl"
        SweepEngine(workers=1).run_streaming(tasks[:1], sinks=JsonlSink(path))
        records = list(read_jsonl(path))
        assert len(records) == 1
        assert isinstance(records[0], ThroughputSummary)
        assert records[0].protocol == tasks[0].protocol


class TestGoodputCollapse:
    """The acceptance bar: >= 200 contended transactions per protocol under
    a mid-run partition; blocking protocols strictly below the
    non-blocking three-phase variants."""

    @pytest.fixture(scope="class")
    def report(self):
        return run_throughput_comparison(
            protocols=BLOCKING_PROTOCOLS + NONBLOCKING_PROTOCOLS,
            n_transactions=200,
        )

    def test_every_protocol_ran_the_full_workload(self, report):
        assert len(report.table) == len(BLOCKING_PROTOCOLS) + len(NONBLOCKING_PROTOCOLS)
        for row in report.table:
            assert row["offered"] >= 200

    def test_blocking_goodput_strictly_below_nonblocking(self, report):
        blocking = report.details["blocking_goodput"]
        nonblocking = report.details["nonblocking_goodput"]
        assert blocking and nonblocking
        assert max(blocking.values()) < min(nonblocking.values())

    def test_blocking_protocols_strand_transactions(self, report):
        rows = {row["protocol"]: row for row in report.table}
        for protocol in BLOCKING_PROTOCOLS:
            assert rows[protocol]["blocked"] > 0
        for protocol in NONBLOCKING_PROTOCOLS:
            assert rows[protocol]["aborted"] > 0  # terminated, not stranded

    def test_report_mentions_goodput(self, report):
        assert "goodput" in report.format().lower() or "committed" in report.format()


class TestThroughputTasks:
    def test_grid_covers_onset_load_and_read_fraction(self):
        tasks = throughput_tasks(
            ["two-phase-commit"],
            tx_rates=(0.5, 1.0),
            read_fractions=(0.0, 0.5),
            onset_fractions=(0.25, 0.75),
            n_transactions=10,
        )
        assert len(tasks) == 8
        assert len({task.spec_hash for task in tasks}) == 8

    def test_failure_free_point_has_no_partition(self):
        (task,) = throughput_tasks(
            ["two-phase-commit"], onset_fractions=(None,), n_transactions=10
        )
        assert task.spec.partition is None

    def test_open_loop_axes_reach_the_spec_and_the_hash(self):
        (plain,) = throughput_tasks(["two-phase-commit"], n_transactions=10)
        (open_loop,) = throughput_tasks(
            ["two-phase-commit"],
            n_transactions=10,
            arrival="poisson",
            hotspot=0.5,
            retry=RetryPolicy(max_attempts=3),
            crashes=CrashSchedule.single(2, 5.0, recover_at=9.0),
        )
        assert open_loop.spec.arrival == "poisson"
        assert open_loop.spec.retry.max_attempts == 3
        assert open_loop.spec.crashes is not None
        assert plain.spec_hash != open_loop.spec_hash


class TestRetryRecoveryExperiment:
    """The RETRY panel's acceptance bar: committed-after-retry goodput
    recovers post-heal for the terminating protocols while the blocking
    protocols' backlog grows."""

    @pytest.fixture(scope="class")
    def report(self):
        return run_retry_recovery_comparison(
            protocols=BLOCKING_PROTOCOLS + NONBLOCKING_PROTOCOLS,
            n_transactions=100,
        )

    def test_terminating_protocols_drain_their_backlog_after_heal(self, report):
        after_retry = report.details["committed_after_retry"]
        assert min(after_retry[p] for p in NONBLOCKING_PROTOCOLS) > max(
            after_retry[p] for p in BLOCKING_PROTOCOLS
        )

    def test_blocking_protocols_backlog_grows(self, report):
        unserved = report.details["unserved_backlog"]
        assert min(unserved[p] for p in BLOCKING_PROTOCOLS) > max(
            unserved[p] for p in NONBLOCKING_PROTOCOLS
        )

    def test_retry_storms_burn_the_budget_for_blocking_protocols(self, report):
        totals = report.details["totals"]
        for protocol in BLOCKING_PROTOCOLS:
            assert totals[protocol]["retries"] > 0
        assert report.headline
        assert "after retry" in {k for row in report.table for k in row}

    def test_run_retry_experiment_id(self, capsys):
        assert main(["run", "RETRY"]) == 0
        out = capsys.readouterr().out
        assert "RETRY" in out
        assert "after retry" in out


class TestThroughputCli:
    FAST = [
        "throughput",
        "--transactions", "20",
        "--tx-rate", "1.0",
        "--protocols", "two-phase-commit",
        "--protocols", "terminating-three-phase-commit",
    ]

    def test_prints_the_per_protocol_table(self, capsys):
        assert main(self.FAST) == 0
        out = capsys.readouterr().out
        assert "goodput (/T)" in out
        assert "two-phase-commit" in out
        assert "scenarios/s" in out

    def test_jsonl_spill_round_trips(self, capsys, tmp_path):
        spill = tmp_path / "tput.jsonl"
        assert main(self.FAST + ["--jsonl", str(spill)]) == 0
        assert "spilled 2 summaries" in capsys.readouterr().out
        records = list(read_jsonl(spill))
        assert [r.protocol for r in records] == [
            "two-phase-commit", "terminating-three-phase-commit",
        ]

    def test_cache_makes_reruns_incremental(self, capsys, tmp_path):
        cached = self.FAST + ["--cache", str(tmp_path)]
        assert main(cached) == 0
        assert "cache: 0 hit(s) / 2 miss(es)" in capsys.readouterr().out
        assert main(cached) == 0
        assert "cache: 2 hit(s) / 0 miss(es)" in capsys.readouterr().out

    def test_open_loop_flags_run_end_to_end(self, capsys):
        assert main([
            "throughput",
            "--transactions", "20",
            "--protocols", "terminating-three-phase-commit",
            "--arrival", "poisson",
            "--retries", "2",
            "--hotspot", "0.5",
            "--victim", "fewest-locks",
            "--faults", "crash=3:10:16",
            "--deadlock", "both",
            "--lock-timeout", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "after retry" in out
        assert "crashes" in out

    def test_unknown_protocol_lists_available(self, capsys):
        # The other flag-validation rows live in the cross-route matrix
        # (tests/experiments/test_cli_and_multi.py::TestGridFlagMatrix).
        assert main(["throughput", "--protocols", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown protocol" in err
        assert "terminating-three-phase-commit" in err

    def test_run_tput_experiment_id(self, capsys):
        assert main(["run", "TPUT"]) == 0
        out = capsys.readouterr().out
        assert "TPUT" in out
        assert "goodput" in out.lower()
